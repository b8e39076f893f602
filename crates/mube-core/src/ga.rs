//! Global Attributes and mediated schemas (Definitions 1–3 of the paper).
//!
//! A *Global Attribute* (GA) is a set of attributes, drawn from different
//! sources, that all express the same concept; a *mediated schema* is a set of
//! pairwise-disjoint GAs spanning the selected sources. GAs are deliberately
//! unnamed: the GA *is* the matching, and giving the user GAs (rather than
//! named mediated attributes) is what makes `µBE`'s output directly reusable as
//! the constraint input of the next iteration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::error::MubeError;
use crate::ids::{AttrId, SourceId};
use crate::source::Universe;

/// A Global Attribute: a non-empty set of attributes from *distinct* sources
/// (Definition 1). Validity is enforced at construction, so a value of this
/// type is always a valid GA. A GA is immutable, so clones share one set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalAttribute {
    attrs: Arc<BTreeSet<AttrId>>,
}

impl GlobalAttribute {
    /// Builds a GA, checking Definition 1: non-empty, and no two attributes
    /// from the same source.
    pub fn try_new<I: IntoIterator<Item = AttrId>>(attrs: I) -> Result<Self, MubeError> {
        let attrs: BTreeSet<AttrId> = attrs.into_iter().collect();
        if attrs.is_empty() {
            return Err(MubeError::EmptyGa);
        }
        // Attributes sort by source first, so a shared source is adjacent.
        let mut prev: Option<SourceId> = None;
        for a in &attrs {
            if prev == Some(a.source) {
                return Err(MubeError::GaSourceConflict { source: a.source });
            }
            prev = Some(a.source);
        }
        Ok(GlobalAttribute {
            attrs: Arc::new(attrs),
        })
    }

    /// A GA holding a single attribute.
    pub fn singleton(attr: AttrId) -> Self {
        GlobalAttribute {
            attrs: Arc::new(BTreeSet::from([attr])),
        }
    }

    /// The attributes in this GA.
    pub fn attrs(&self) -> &BTreeSet<AttrId> {
        &self.attrs
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// GAs are non-empty by construction; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if the GA contains the given attribute.
    pub fn contains(&self, attr: AttrId) -> bool {
        self.attrs.contains(&attr)
    }

    /// The sources this GA draws attributes from. Exactly one attribute per
    /// source by Definition 1.
    pub fn sources(&self) -> impl Iterator<Item = SourceId> + '_ {
        self.attrs.iter().map(|a| a.source)
    }

    /// True if this GA has an attribute from `source`.
    pub fn touches_source(&self, source: SourceId) -> bool {
        // attrs are ordered by (source, index); range query would work, but
        // GAs are small so a scan is fine.
        self.attrs.iter().any(|a| a.source == source)
    }

    /// Set-containment: every attribute of `self` is in `other`.
    pub fn is_subset_of(&self, other: &GlobalAttribute) -> bool {
        self.attrs.is_subset(&other.attrs)
    }

    /// True if the two GAs share any attribute.
    pub fn intersects(&self, other: &GlobalAttribute) -> bool {
        // Iterate the smaller one.
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.attrs.iter().any(|a| big.attrs.contains(a))
    }

    /// Merges two GAs if the union is still a valid GA (no source appears
    /// twice); returns `None` otherwise. This is the merge step of the
    /// clustering algorithm.
    pub fn merge(&self, other: &GlobalAttribute) -> Option<GlobalAttribute> {
        let mut sources: BTreeSet<SourceId> = self.sources().collect();
        for a in other.attrs.iter() {
            // Shared attributes are fine (same source *and* same index);
            // distinct attributes from a shared source are not.
            if !sources.insert(a.source) && !self.attrs.contains(a) {
                return None;
            }
        }
        let attrs = self.attrs.union(&other.attrs).copied().collect();
        Some(GlobalAttribute {
            attrs: Arc::new(attrs),
        })
    }

    /// Renders the GA with resolved attribute names, e.g.
    /// `{s0.title, s3.book title}`.
    pub fn display<'a>(&'a self, universe: &'a Universe) -> GaDisplay<'a> {
        GaDisplay { ga: self, universe }
    }
}

/// Helper returned by [`GlobalAttribute::display`].
pub struct GaDisplay<'a> {
    ga: &'a GlobalAttribute,
    universe: &'a Universe,
}

impl fmt::Display for GaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.ga.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let name = self.universe.attr_name(*a).unwrap_or("?");
            write!(
                f,
                "{}:{}",
                self.universe
                    .get(a.source)
                    .map_or("?", super::source::Source::name),
                name
            )?;
        }
        write!(f, "}}")
    }
}

/// A mediated schema: a set of GAs (Definition 2).
///
/// Unlike [`GlobalAttribute`], a `MediatedSchema` is not validity-checked at
/// construction, because validity is relative to a *set of sources*; use
/// [`MediatedSchema::is_valid_on`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MediatedSchema {
    gas: Vec<GlobalAttribute>,
}

impl MediatedSchema {
    /// Builds a mediated schema from GAs.
    pub fn new<I: IntoIterator<Item = GlobalAttribute>>(gas: I) -> Self {
        MediatedSchema {
            gas: gas.into_iter().collect(),
        }
    }

    /// The empty schema.
    pub fn empty() -> Self {
        MediatedSchema::default()
    }

    /// The GAs.
    pub fn gas(&self) -> &[GlobalAttribute] {
        &self.gas
    }

    /// Number of GAs.
    pub fn len(&self) -> usize {
        self.gas.len()
    }

    /// True if there are no GAs.
    pub fn is_empty(&self) -> bool {
        self.gas.is_empty()
    }

    /// True if no attribute appears in two GAs.
    pub fn gas_disjoint(&self) -> bool {
        let mut all: Vec<AttrId> = self
            .gas
            .iter()
            .flat_map(|ga| ga.attrs().iter().copied())
            .collect();
        all.sort_unstable();
        all.windows(2).all(|w| w[0] != w[1])
    }

    /// Definition 2: the schema is valid on a set of sources iff the GAs are
    /// pairwise disjoint and every source in the set is touched by some GA.
    pub fn is_valid_on(&self, sources: &BTreeSet<SourceId>) -> bool {
        self.gas_disjoint()
            && sources
                .iter()
                .all(|&s| self.gas.iter().any(|ga| ga.touches_source(s)))
    }

    /// Definition 3: `self` subsumes `other` iff every GA of `other` is
    /// contained in some GA of `self`.
    pub fn subsumes(&self, other: &MediatedSchema) -> bool {
        other
            .gas
            .iter()
            .all(|g2| self.gas.iter().any(|g1| g2.is_subset_of(g1)))
    }

    /// True if every GA in `gas` is contained in some GA of this schema —
    /// the `G ⊑ M` check for GA constraints.
    pub fn covers_gas(&self, gas: &[GlobalAttribute]) -> bool {
        gas.iter()
            .all(|g2| self.gas.iter().any(|g1| g2.is_subset_of(g1)))
    }

    /// The GA containing a given attribute, if any.
    pub fn ga_of(&self, attr: AttrId) -> Option<&GlobalAttribute> {
        self.gas.iter().find(|g| g.contains(attr))
    }

    /// Keeps only GAs satisfying the predicate.
    pub fn retain<F: FnMut(&GlobalAttribute) -> bool>(&mut self, f: F) {
        self.gas.retain(f);
    }

    /// Renders with resolved names; one GA per line.
    pub fn display<'a>(&'a self, universe: &'a Universe) -> SchemaDisplay<'a> {
        SchemaDisplay {
            schema: self,
            universe,
        }
    }

    /// Counts how many GAs of `self` are absent (as a subset of some GA) from
    /// `other` — a useful measure of how much a solution changed between
    /// session iterations.
    pub fn gas_not_in(&self, other: &MediatedSchema) -> usize {
        self.gas
            .iter()
            .filter(|g| !other.gas.iter().any(|o| g.is_subset_of(o)))
            .count()
    }
}

/// Helper returned by [`MediatedSchema::display`].
pub struct SchemaDisplay<'a> {
    schema: &'a MediatedSchema,
    universe: &'a Universe,
}

impl fmt::Display for SchemaDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ga) in self.schema.gas.iter().enumerate() {
            writeln!(f, "  GA{}: {}", i, ga.display(self.universe))?;
        }
        Ok(())
    }
}

/// Groups the attributes of a mediated schema by source — handy for
/// rendering the "mapping" view (which local attribute maps to which GA).
pub fn mapping_by_source(schema: &MediatedSchema) -> BTreeMap<SourceId, Vec<(AttrId, usize)>> {
    let mut out: BTreeMap<SourceId, Vec<(AttrId, usize)>> = BTreeMap::new();
    for (gi, ga) in schema.gas().iter().enumerate() {
        for a in ga.attrs() {
            out.entry(a.source).or_default().push((*a, gi));
        }
    }
    for v in out.values_mut() {
        v.sort();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    #[test]
    fn ga_rejects_empty() {
        assert!(matches!(
            GlobalAttribute::try_new([]),
            Err(MubeError::EmptyGa)
        ));
    }

    #[test]
    fn ga_rejects_same_source_twice() {
        let err = GlobalAttribute::try_new([a(1, 0), a(1, 1)]);
        assert!(matches!(err, Err(MubeError::GaSourceConflict { .. })));
    }

    #[test]
    fn ga_accepts_distinct_sources() {
        let ga = GlobalAttribute::try_new([a(0, 0), a(1, 3), a(2, 1)]).unwrap();
        assert_eq!(ga.len(), 3);
        assert!(ga.contains(a(1, 3)));
        assert!(!ga.contains(a(1, 2)));
    }

    #[test]
    fn merge_valid_and_invalid() {
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(2, 0)]).unwrap();
        let merged = g1.merge(&g2).unwrap();
        assert_eq!(merged.len(), 3);

        // Conflict: source 1 already present with a different attribute.
        let g3 = GlobalAttribute::try_new([a(1, 1)]).unwrap();
        assert!(g1.merge(&g3).is_none());

        // Sharing the exact same attribute is allowed.
        let g4 = GlobalAttribute::try_new([a(1, 0), a(3, 0)]).unwrap();
        let merged2 = g1.merge(&g4).unwrap();
        assert_eq!(merged2.len(), 3); // {a0.0, a1.0, a3.0}
    }

    #[test]
    fn merge_is_commutative() {
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(2, 0), a(3, 1)]).unwrap();
        assert_eq!(g1.merge(&g2), g2.merge(&g1));
    }

    #[test]
    fn schema_validity() {
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(0, 1), a(2, 0)]).unwrap();
        let m = MediatedSchema::new([g1.clone(), g2.clone()]);
        let s012: BTreeSet<_> = [SourceId(0), SourceId(1), SourceId(2)].into();
        assert!(m.is_valid_on(&s012));

        // Source 3 is not spanned.
        let s3: BTreeSet<_> = [SourceId(3)].into();
        assert!(!m.is_valid_on(&s3));

        // Overlapping GAs are invalid.
        let overlapping = MediatedSchema::new([
            g1.clone(),
            GlobalAttribute::try_new([a(0, 0), a(2, 0)]).unwrap(),
        ]);
        assert!(!overlapping.is_valid_on(&s012));
    }

    #[test]
    fn subsumption() {
        let small = MediatedSchema::new([GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap()]);
        let big = MediatedSchema::new([
            GlobalAttribute::try_new([a(0, 0), a(1, 0), a(2, 0)]).unwrap(),
            GlobalAttribute::try_new([a(3, 0)]).unwrap(),
        ]);
        assert!(big.subsumes(&small));
        assert!(!small.subsumes(&big));
        // Subsumption is reflexive.
        assert!(big.subsumes(&big));
        // Everything subsumes the empty schema.
        assert!(small.subsumes(&MediatedSchema::empty()));
    }

    #[test]
    fn ga_of_and_mapping() {
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(1, 1)]).unwrap();
        let m = MediatedSchema::new([g1, g2]);
        assert!(m.ga_of(a(1, 1)).is_some());
        assert!(m.ga_of(a(2, 0)).is_none());
        let map = mapping_by_source(&m);
        assert_eq!(map[&SourceId(1)].len(), 2);
        assert_eq!(map[&SourceId(0)], vec![(a(0, 0), 0)]);
    }

    #[test]
    fn gas_not_in_counts_changes() {
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(2, 0), a(3, 0)]).unwrap();
        let m1 = MediatedSchema::new([g1.clone(), g2.clone()]);
        let m2 = MediatedSchema::new([g1]);
        assert_eq!(m1.gas_not_in(&m2), 1);
        assert_eq!(m2.gas_not_in(&m1), 0);
    }
}
