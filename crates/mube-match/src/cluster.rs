//! Greedy constrained similarity clustering — Algorithm 1 of the paper.
//!
//! Starting from one cluster per attribute (plus one *keep* cluster per user
//! GA constraint), the algorithm repeatedly merges the most similar pair of
//! clusters whose union is still a valid GA, where cluster similarity is the
//! **maximum** similarity between an attribute of one cluster and an
//! attribute of the other. Clusters whose best similarity to every other
//! cluster falls below the threshold `θ` are pruned. The surviving clusters
//! are the GAs of the generated mediated schema.
//!
//! The max-linkage definition is what makes GA constraints act as *bridges*:
//! a constraint cluster `{F name, Prenom}` attracts attributes similar to
//! either member without the dissimilar member penalizing them — "the user
//! provides an example of a matching, and `µBE` expands it".
//!
//! Two clarifications of the paper's pseudocode (its printed guards are
//! garbled by the PDF-to-text conversion) that we adopt, guided by the
//! stated termination condition and Figure 3:
//!
//! * another round runs whenever *any* merge happened, not only when a
//!   merge candidate was starved (so mutually-similar merged clusters can
//!   keep coalescing, as in Figure 3(b)→(c));
//! * elimination at the end of a round removes clusters that were never
//!   merged, are not pending merge candidates, and are not user-kept.

use std::collections::BTreeSet;
use std::sync::Arc;

use mube_core::constraints::Constraints;
use mube_core::ga::{GlobalAttribute, MediatedSchema};
use mube_core::ids::{AttrId, SourceId};
use mube_core::matchop::{MatchOperator, MatchOutcome};
use mube_core::source::Universe;

use crate::cache::SimilarityCache;
use crate::similarity::Similarity;

/// `µBE`'s reference `Match(S)` operator.
///
/// Holds a similarity cache precomputed over the universe it was built for;
/// calls with a different universe are rejected as infeasible (caches and
/// universes travel together).
pub struct ClusterMatcher {
    cache: Arc<SimilarityCache>,
    universe_len: usize,
}

impl ClusterMatcher {
    /// Builds a matcher (and its similarity cache) for a universe.
    pub fn new(universe: Arc<Universe>, measure: impl Similarity + 'static) -> Self {
        let cache = Arc::new(SimilarityCache::build(&universe, &measure));
        ClusterMatcher {
            cache,
            universe_len: universe.len(),
        }
    }

    /// Builds a matcher from an existing cache (sharing it with other
    /// components, e.g. diagnostics).
    pub fn with_cache(universe: &Universe, cache: Arc<SimilarityCache>) -> Self {
        ClusterMatcher {
            cache,
            universe_len: universe.len(),
        }
    }

    /// The underlying similarity cache.
    pub fn cache(&self) -> &Arc<SimilarityCache> {
        &self.cache
    }
}

/// Marks an attribute whose cluster was eliminated.
const GONE: u32 = u32::MAX;

/// One cluster during Algorithm 1. Its members form a circular list
/// through [`Clustering::next`]; its sources are one bitset row of
/// [`Clustering::srcs`].
#[derive(Clone, Copy)]
struct Cluster {
    /// Any member attribute (local index).
    head: u32,
    /// User-kept (seeded from a GA constraint): immune to elimination and
    /// to the θ bound.
    keep: bool,
    /// Ever produced by a merge (size ≥ 2 growth); immune to elimination.
    formed_by_merge: bool,
}

/// Algorithm 1's working state over one selection. The selection's
/// attributes are numbered locally in `AttrId` order, so no per-call
/// structure grows with the universe.
struct Clustering<'c> {
    cache: &'c SimilarityCache,
    /// Local index → attribute.
    attrs: Vec<AttrId>,
    /// Local index → interned name id.
    names: Vec<u32>,
    /// Circular member lists: `next[a]` follows `a` in its cluster.
    next: Vec<u32>,
    /// Current clusters, in the order Algorithm 1 numbers them.
    clusters: Vec<Cluster>,
    /// `u64` words per source bitset (one bit per selected source).
    words: usize,
    /// Row `c` (`words` wide) holds the sources of cluster `c`.
    srcs: Vec<u64>,
}

impl<'c> Clustering<'c> {
    /// Seeds the clusters: merged GA constraints first (kept), then every
    /// remaining attribute as its own cluster. `None` if a seed names an
    /// attribute outside the selection.
    fn new(
        cache: &'c SimilarityCache,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        seeds: &[GlobalAttribute],
    ) -> Option<Self> {
        let mut attrs = Vec::new();
        let mut src_of = Vec::new();
        for (s, &sid) in sources.iter().enumerate() {
            for attr in universe.get(sid)?.attr_ids() {
                attrs.push(attr);
                src_of.push(s);
            }
        }
        let mut k = Clustering {
            cache,
            names: attrs.iter().map(|&a| cache.name_id(a)).collect(),
            next: (0..attrs.len() as u32).collect(),
            clusters: Vec::new(),
            words: sources.len().div_ceil(64),
            srcs: Vec::new(),
            attrs,
        };
        let mut seeded = vec![false; k.attrs.len()];
        for seed in seeds {
            let members = seed
                .attrs()
                .iter()
                .map(|a| k.attrs.binary_search(a).ok())
                .collect::<Option<Vec<usize>>>()?;
            for &l in &members {
                seeded[l] = true;
            }
            k.push(&members, true, &src_of);
        }
        for l in (0..k.attrs.len()).filter(|&l| !seeded[l]) {
            k.push(&[l], false, &src_of);
        }
        Some(k)
    }

    /// Appends a cluster of `members` (local indices, non-empty).
    fn push(&mut self, members: &[usize], keep: bool, src_of: &[usize]) {
        let row = self.srcs.len();
        self.srcs.resize(row + self.words, 0);
        for &l in members {
            self.srcs[row + src_of[l] / 64] |= 1 << (src_of[l] % 64);
            self.next.swap(members[0], l);
        }
        self.clusters.push(Cluster {
            head: members[0] as u32,
            keep,
            formed_by_merge: false,
        });
    }

    /// Every attribute pair whose similarity reaches `theta`, built once per
    /// call by grouping the selection's attributes by name. Similarities are
    /// clamped at 0 (NaN and negatives count as 0), as max-linkage starting
    /// from 0 does; with `theta ≤ 0` every pair is an edge.
    fn edges(&self, theta: f64) -> Vec<(f64, u32, u32)> {
        let mut by_name: Vec<(u32, u32)> = (0..self.attrs.len() as u32)
            .map(|l| (self.names[l as usize], l))
            .collect();
        by_name.sort_unstable();
        let groups: Vec<&[(u32, u32)]> = by_name.chunk_by(|x, y| x.0 == y.0).collect();
        let mut edges = Vec::new();
        for (g, ga) in groups.iter().enumerate() {
            for (h, gb) in groups.iter().enumerate().skip(g) {
                let s = self.cache.sim_by_name_id(ga[0].0, gb[0].0);
                let e = if s > 0.0 { s } else { 0.0 };
                if e >= theta {
                    for (i, &(_, u)) in ga.iter().enumerate() {
                        let partners = if h == g { &gb[i + 1..] } else { gb };
                        edges.extend(partners.iter().map(|&(_, v)| (e, u, v)));
                    }
                }
            }
        }
        edges
    }

    fn row(&self, c: usize) -> &[u64] {
        &self.srcs[c * self.words..(c + 1) * self.words]
    }

    /// The greedy merge loop. Each round scores only the cluster pairs the
    /// θ-edges connect — a pair's similarity is its best edge — instead of
    /// every pair of clusters.
    fn run(&mut self, theta: f64) {
        let edges = self.edges(theta);
        let mut cid = vec![GONE; self.attrs.len()];
        let mut pairs: Vec<(f64, u32, u32)> = Vec::with_capacity(edges.len());
        loop {
            let k = self.clusters.len();
            cid.fill(GONE);
            for (c, cl) in self.clusters.iter().enumerate() {
                let mut a = cl.head;
                loop {
                    cid[a as usize] = c as u32;
                    a = self.next[a as usize];
                    if a == cl.head {
                        break;
                    }
                }
            }
            pairs.clear();
            for &(e, u, v) in &edges {
                let (cu, cv) = (cid[u as usize], cid[v as usize]);
                if cu != cv && cu != GONE && cv != GONE {
                    pairs.push((e, cu.min(cv), cu.max(cv)));
                }
            }
            // Keep each cluster pair's best edge, then order best first with a
            // deterministic tie-break on cluster indices.
            pairs.sort_unstable_by(|a, b| (a.1, a.2).cmp(&(b.1, b.2)).then(b.0.total_cmp(&a.0)));
            pairs.dedup_by_key(|p| (p.1, p.2));
            pairs.sort_unstable_by(|a, b| {
                b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            });

            let mut merged = vec![false; k];
            let mut mergecand = vec![false; k];
            let mut survivors: Vec<Cluster> = Vec::new();
            let mut survivor_srcs: Vec<u64> = Vec::new();
            for &(_, i, j) in &pairs {
                let (i, j) = (i as usize, j as usize);
                match (merged[i], merged[j]) {
                    (false, false) => {
                        // Clusters are attribute-disjoint, so their union is
                        // a valid GA iff no source appears in both.
                        let (ri, rj) = (self.row(i), self.row(j));
                        if ri.iter().zip(rj).all(|(x, y)| x & y == 0) {
                            survivor_srcs.extend(ri.iter().zip(rj).map(|(x, y)| x | y));
                            let (ci, cj) = (self.clusters[i], self.clusters[j]);
                            self.next.swap(ci.head as usize, cj.head as usize);
                            merged[i] = true;
                            merged[j] = true;
                            survivors.push(Cluster {
                                head: ci.head,
                                keep: ci.keep || cj.keep,
                                formed_by_merge: true,
                            });
                        }
                    }
                    (true, false) => mergecand[j] = true,
                    (false, true) => mergecand[i] = true,
                    (true, true) => {}
                }
            }
            let any_merge = !survivors.is_empty();

            // Elimination: survivors are merge results, merge candidates
            // starved this round, previously merged clusters, and user-kept
            // clusters.
            for (c, cl) in self.clusters.iter().enumerate() {
                if !merged[c] && (cl.keep || cl.formed_by_merge || mergecand[c]) {
                    survivors.push(*cl);
                    survivor_srcs.extend_from_slice(self.row(c));
                }
            }
            self.clusters = survivors;
            self.srcs = survivor_srcs;

            if !any_merge {
                break;
            }
        }
    }

    /// Members of cluster `c`, sorted (local order is `AttrId` order).
    fn members(&self, c: usize) -> Vec<u32> {
        let head = self.clusters[c].head;
        let mut out = vec![head];
        let mut a = self.next[head as usize];
        while a != head {
            out.push(a);
            a = self.next[a as usize];
        }
        out.sort_unstable();
        out
    }

    /// The surviving clusters as GAs, each with its quality: the maximum
    /// similarity between any two of its attributes (1.0 for singletons,
    /// which only arise from user constraints).
    fn into_gas(self) -> Option<Vec<(GlobalAttribute, f64)>> {
        (0..self.clusters.len())
            .map(|c| {
                let members = self.members(c);
                let mut quality = if members.len() < 2 { 1.0 } else { 0.0f64 };
                for (x, &a) in members.iter().enumerate() {
                    for &b in &members[x + 1..] {
                        let s = self
                            .cache
                            .sim_by_name_id(self.names[a as usize], self.names[b as usize]);
                        quality = quality.max(s);
                    }
                }
                let ga = GlobalAttribute::try_new(members.iter().map(|&a| self.attrs[a as usize]));
                Some((ga.ok()?, quality))
            })
            .collect()
    }
}

impl MatchOperator for ClusterMatcher {
    fn match_sources(
        &self,
        universe: &Universe,
        sources: &BTreeSet<SourceId>,
        constraints: &Constraints,
    ) -> MatchOutcome {
        if universe.len() != self.universe_len {
            return MatchOutcome::Infeasible;
        }
        // The caller must pass S ⊇ C (the paper ensures this for every call
        // to Match); a violating call can never produce a valid schema.
        if !constraints
            .required_sources
            .iter()
            .all(|s| sources.contains(s))
        {
            return MatchOutcome::Infeasible;
        }
        // GA constraints imply source constraints; an attribute from an
        // unselected source cannot be mediated.
        let seeds = constraints.merged_ga_seeds();
        if !seeds
            .iter()
            .all(|seed| seed.sources().all(|s| sources.contains(&s)))
        {
            return MatchOutcome::Infeasible;
        }
        let Some(mut clustering) = Clustering::new(&self.cache, universe, sources, &seeds) else {
            return MatchOutcome::Infeasible;
        };
        clustering.run(constraints.theta);
        let Some(gas) = clustering.into_gas() else {
            return MatchOutcome::Infeasible;
        };
        let (gas, qualities): (Vec<_>, Vec<f64>) = gas.into_iter().unzip();
        let schema = MediatedSchema::new(gas);
        if !schema.is_valid_on(&constraints.required_sources) {
            return MatchOutcome::Infeasible;
        }
        let quality = if schema.is_empty() {
            0.0
        } else {
            qualities.into_iter().sum::<f64>() / schema.len() as f64
        };
        MatchOutcome::Matched { schema, quality }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::JaccardNGram;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;
    use proptest::prelude::*;

    fn a(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    fn build(schemas: &[&[&str]]) -> (Arc<Universe>, ClusterMatcher) {
        let mut b = Universe::builder();
        for (i, attrs) in schemas.iter().enumerate() {
            b.add_source(SourceSpec::new(
                format!("s{i}"),
                Schema::new(attrs.iter().copied()),
            ));
        }
        let u = Arc::new(b.build().unwrap());
        let m = ClusterMatcher::new(Arc::clone(&u), JaccardNGram::trigram());
        (u, m)
    }

    fn run(
        u: &Universe,
        m: &ClusterMatcher,
        constraints: &Constraints,
    ) -> Option<(MediatedSchema, f64)> {
        let sources: BTreeSet<_> = u.source_ids().collect();
        match m.match_sources(u, &sources, constraints) {
            MatchOutcome::Matched { schema, quality } => Some((schema, quality)),
            MatchOutcome::Infeasible => None,
        }
    }

    #[test]
    fn clusters_identical_names() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"], &["title"]]);
        let c = Constraints::with_max_sources(3).theta(0.75);
        let (schema, quality) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(quality, 1.0);
        let title_ga = schema.ga_of(a(0, 0)).unwrap();
        assert_eq!(title_ga.len(), 3);
    }

    #[test]
    fn unmatched_singletons_are_pruned() {
        let (u, m) = build(&[&["title", "zzzz"], &["title"]]);
        let c = Constraints::with_max_sources(2).theta(0.75);
        let (schema, _) = run(&u, &m, &c).unwrap();
        // "zzzz" matches nothing → eliminated; only the title GA remains.
        assert_eq!(schema.len(), 1);
        assert!(schema.ga_of(a(0, 1)).is_none());
    }

    #[test]
    fn one_attribute_per_source_per_ga() {
        // Both attributes of source 0 are similar to source 1's "title",
        // but a GA may contain at most one attribute per source.
        let (u, m) = build(&[&["title", "title x"], &["title"]]);
        let c = Constraints::with_max_sources(2).theta(0.3);
        let (schema, _) = run(&u, &m, &c).unwrap();
        for ga in schema.gas() {
            let sources: Vec<_> = ga.sources().collect();
            let distinct: BTreeSet<_> = sources.iter().copied().collect();
            assert_eq!(sources.len(), distinct.len());
        }
    }

    #[test]
    fn threshold_gates_merging() {
        let (u, m) = build(&[&["book title"], &["title"]]);
        // Jaccard3("book title", "title") ≈ 0.375: merges at θ=0.3, not at 0.6.
        let low = Constraints::with_max_sources(2).theta(0.3);
        let (schema, q) = run(&u, &m, &low).unwrap();
        assert_eq!(schema.len(), 1);
        assert!(q >= 0.3);

        let high = Constraints::with_max_sources(2).theta(0.6);
        let (schema, q) = run(&u, &m, &high).unwrap();
        assert!(schema.is_empty());
        assert_eq!(q, 0.0);
    }

    #[test]
    fn ga_constraint_bridges_dissimilar_attributes() {
        // "f name" and "prenom" share no trigrams; a GA constraint bridges
        // them, and "first name" then joins via its similarity to "f name".
        let (u, m) = build(&[&["f name"], &["prenom"], &["first name"]]);
        let bridge = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let c = Constraints::with_max_sources(3)
            .theta(0.30)
            .require_ga(bridge.clone());

        // Without the constraint nothing merges with "prenom".
        let plain = Constraints::with_max_sources(3).theta(0.30);
        let (schema_plain, _) = run(&u, &m, &plain).unwrap();
        assert!(schema_plain.ga_of(a(1, 0)).is_none());

        let (schema, _) = run(&u, &m, &c).unwrap();
        let ga = schema.ga_of(a(1, 0)).expect("bridged GA must survive");
        assert!(ga.contains(a(0, 0)), "constraint preserved");
        assert!(ga.contains(a(2, 0)), "bridge attracted 'first name'");
        assert!(schema.covers_gas(&[bridge]));
    }

    #[test]
    fn keep_clusters_survive_even_unmatched() {
        let (u, m) = build(&[&["alpha"], &["omega"]]);
        let ga = GlobalAttribute::try_new([a(0, 0)]).unwrap();
        let c = Constraints::with_max_sources(2)
            .theta(0.9)
            .require_ga(ga.clone());
        let (schema, _) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 1);
        assert!(schema.covers_gas(&[ga]));
    }

    #[test]
    fn source_constraint_validity_checked() {
        // Source 1's only attribute matches nothing, so the schema cannot
        // span it; with source 1 in C the match is infeasible.
        let (u, m) = build(&[&["title"], &["zzzz"], &["title"]]);
        let c = Constraints::with_max_sources(3)
            .theta(0.75)
            .require_source(SourceId(1));
        assert!(run(&u, &m, &c).is_none());
        // Without the constraint, matching succeeds (source 1 contributes
        // nothing to the schema).
        let c2 = Constraints::with_max_sources(3).theta(0.75);
        assert!(run(&u, &m, &c2).is_some());
    }

    #[test]
    fn subset_call_only_clusters_selected_sources() {
        let (u, m) = build(&[&["title"], &["title"], &["title"]]);
        let sources: BTreeSet<_> = [SourceId(0), SourceId(2)].into();
        let c = Constraints::with_max_sources(2).theta(0.75);
        match m.match_sources(&u, &sources, &c) {
            MatchOutcome::Matched { schema, .. } => {
                assert_eq!(schema.len(), 1);
                let ga = &schema.gas()[0];
                assert_eq!(ga.len(), 2);
                assert!(!ga.touches_source(SourceId(1)));
            }
            MatchOutcome::Infeasible => panic!("expected match"),
        }
    }

    #[test]
    fn missing_required_source_in_selection_is_infeasible() {
        let (u, m) = build(&[&["title"], &["title"]]);
        let only0: BTreeSet<_> = [SourceId(0)].into();
        let c = Constraints::with_max_sources(2).require_source(SourceId(1));
        assert_eq!(m.match_sources(&u, &only0, &c), MatchOutcome::Infeasible);
    }

    #[test]
    fn ga_constraint_source_outside_selection_is_infeasible() {
        let (u, m) = build(&[&["title"], &["title"]]);
        let only0: BTreeSet<_> = [SourceId(0)].into();
        let ga = GlobalAttribute::try_new([a(1, 0)]).unwrap();
        let c = Constraints::with_max_sources(2).require_ga(ga);
        // required_sources is empty (the GA implies source 1), but source 1
        // is not selected.
        assert_eq!(m.match_sources(&u, &only0, &c), MatchOutcome::Infeasible);
    }

    #[test]
    fn chained_merging_converges() {
        // a–b similar, c–d similar, and the merged pairs are mutually
        // similar through b–c: everything should coalesce into one GA.
        let (u, m) = build(&[
            &["order date"],
            &["order data"],
            &["order daze"],
            &["order dace"],
        ]);
        let c = Constraints::with_max_sources(4).theta(0.5);
        let (schema, q) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.gas()[0].len(), 4);
        assert!(q >= 0.5);
    }

    #[test]
    fn quality_is_mean_of_ga_qualities() {
        let (u, m) = build(&[&["title", "price"], &["title", "price"]]);
        let c = Constraints::with_max_sources(2).theta(0.75);
        let (schema, q) = run(&u, &m, &c).unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(q, 1.0); // both GAs are exact-name matches
    }

    #[test]
    fn deterministic_output() {
        let (u, m) = build(&[
            &["title", "author", "isbn"],
            &["book title", "writer", "isbn"],
            &["title", "author name"],
        ]);
        let c = Constraints::with_max_sources(3).theta(0.3);
        let r1 = run(&u, &m, &c).unwrap();
        let r2 = run(&u, &m, &c).unwrap();
        assert_eq!(r1.0, r2.0);
        assert_eq!(r1.1, r2.1);
    }

    #[test]
    fn wrong_universe_rejected() {
        let (u1, m) = build(&[&["title"]]);
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("x", Schema::new(["a"])));
        b.add_source(SourceSpec::new("y", Schema::new(["b"])));
        let u2 = b.build().unwrap();
        let sources: BTreeSet<_> = u2.source_ids().collect();
        let c = Constraints::with_max_sources(2);
        assert_eq!(m.match_sources(&u2, &sources, &c), MatchOutcome::Infeasible);
        drop(u1);
    }

    /// The dense Algorithm 1 the kernel replaced: every round scores every
    /// cluster pair by an |A|·|B| walk and merges through
    /// [`GlobalAttribute::merge`]. Kept as the kernel's oracle.
    mod oracle {
        use super::*;

        pub(super) struct Cluster {
            pub(super) ga: GlobalAttribute,
            pub(super) keep: bool,
            pub(super) formed_by_merge: bool,
        }

        fn cluster_sim(cache: &SimilarityCache, a: &Cluster, b: &Cluster) -> f64 {
            let mut best = 0.0f64;
            for &x in a.ga.attrs() {
                for &y in b.ga.attrs() {
                    let s = cache.attr_sim(x, y);
                    if s > best {
                        best = s;
                    }
                }
            }
            best
        }

        fn ga_quality(cache: &SimilarityCache, ga: &GlobalAttribute) -> f64 {
            let attrs: Vec<_> = ga.attrs().iter().copied().collect();
            if attrs.len() < 2 {
                return 1.0;
            }
            let mut best = 0.0f64;
            for i in 0..attrs.len() {
                for j in (i + 1)..attrs.len() {
                    best = best.max(cache.attr_sim(attrs[i], attrs[j]));
                }
            }
            best
        }

        /// The final clusters, or `None` where the seeding rejects the call.
        pub(super) fn clusters(
            m: &ClusterMatcher,
            universe: &Universe,
            sources: &BTreeSet<SourceId>,
            constraints: &Constraints,
        ) -> Option<Vec<Cluster>> {
            if universe.len() != m.universe_len
                || !constraints
                    .required_sources
                    .iter()
                    .all(|s| sources.contains(s))
            {
                return None;
            }
            let theta = constraints.theta;
            let mut seeded_attrs: BTreeSet<_> = BTreeSet::new();
            let mut clusters: Vec<Cluster> = Vec::new();
            for seed in constraints.merged_ga_seeds() {
                if !seed.sources().all(|s| sources.contains(&s)) {
                    return None;
                }
                seeded_attrs.extend(seed.attrs().iter().copied());
                clusters.push(Cluster {
                    ga: seed,
                    keep: true,
                    formed_by_merge: false,
                });
            }
            for &sid in sources {
                for attr in universe.get(sid)?.attr_ids() {
                    if !seeded_attrs.contains(&attr) {
                        clusters.push(Cluster {
                            ga: GlobalAttribute::singleton(attr),
                            keep: false,
                            formed_by_merge: false,
                        });
                    }
                }
            }
            loop {
                let k = clusters.len();
                let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
                for i in 0..k {
                    for j in (i + 1)..k {
                        let s = cluster_sim(&m.cache, &clusters[i], &clusters[j]);
                        if s >= theta {
                            pairs.push((s, i, j));
                        }
                    }
                }
                pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
                let mut merged = vec![false; k];
                let mut mergecand = vec![false; k];
                let mut new_clusters: Vec<Cluster> = Vec::new();
                for &(_, i, j) in &pairs {
                    match (merged[i], merged[j]) {
                        (false, false) => {
                            if let Some(ga) = clusters[i].ga.merge(&clusters[j].ga) {
                                merged[i] = true;
                                merged[j] = true;
                                new_clusters.push(Cluster {
                                    ga,
                                    keep: clusters[i].keep || clusters[j].keep,
                                    formed_by_merge: true,
                                });
                            }
                        }
                        (true, false) => mergecand[j] = true,
                        (false, true) => mergecand[i] = true,
                        (true, true) => {}
                    }
                }
                let any_merge = !new_clusters.is_empty();
                let mut survivors = new_clusters;
                for (idx, cluster) in clusters.into_iter().enumerate() {
                    if !merged[idx] && (cluster.keep || cluster.formed_by_merge || mergecand[idx]) {
                        survivors.push(cluster);
                    }
                }
                clusters = survivors;
                if !any_merge {
                    return Some(clusters);
                }
            }
        }

        pub(super) fn match_sources(
            m: &ClusterMatcher,
            universe: &Universe,
            sources: &BTreeSet<SourceId>,
            constraints: &Constraints,
        ) -> MatchOutcome {
            let Some(clusters) = clusters(m, universe, sources, constraints) else {
                return MatchOutcome::Infeasible;
            };
            let schema = MediatedSchema::new(clusters.into_iter().map(|c| c.ga));
            if !schema.is_valid_on(&constraints.required_sources) {
                return MatchOutcome::Infeasible;
            }
            let quality = if schema.is_empty() {
                0.0
            } else {
                schema
                    .gas()
                    .iter()
                    .map(|g| ga_quality(&m.cache, g))
                    .sum::<f64>()
                    / schema.len() as f64
            };
            MatchOutcome::Matched { schema, quality }
        }
    }

    /// Jaccard over trigrams, except that names with an `x` compare as NaN
    /// to each other and names of equal length as -0.5: a user-written
    /// measure may return either.
    struct Warped(JaccardNGram);

    impl Similarity for Warped {
        fn name(&self) -> &str {
            "warped"
        }
        fn similarity(&self, a: &str, b: &str) -> f64 {
            if a.contains('x') && b.contains('x') {
                f64::NAN
            } else if a.len() == b.len() {
                -0.5
            } else {
                self.0.similarity(a, b)
            }
        }
    }

    /// A random universe, selection and constraint set from one seed: names
    /// from a pool of near-variants (repeats within a source included),
    /// GA seeds that may overlap or reach outside the selection.
    fn random_case(seed: u64, theta: f64) -> (Universe, BTreeSet<SourceId>, Constraints) {
        const POOL: [&str; 14] = [
            "title",
            "book title",
            "title x",
            "author",
            "author name",
            "writer",
            "price",
            "price x",
            "isbn",
            "isbn13",
            "order date",
            "order data",
            "publisher",
            "pub",
        ];
        let mut state = seed | 1;
        let mut draw = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let n_sources = 1 + draw(9);
        let mut b = Universe::builder();
        for i in 0..n_sources {
            let attrs: Vec<&str> = (0..1 + draw(6)).map(|_| POOL[draw(POOL.len())]).collect();
            b.add_source(SourceSpec::new(format!("s{i}"), Schema::new(attrs)));
        }
        let u = b.build().unwrap();
        let sources: BTreeSet<SourceId> = u.source_ids().filter(|_| draw(3) > 0).collect();
        let mut c = Constraints::with_max_sources(n_sources).theta(theta);
        // One fixed attribute per source keeps overlapping GA seeds mergeable.
        let pick: Vec<AttrId> = u
            .sources()
            .map(|s| AttrId::new(s.id(), draw(s.schema().len()) as u32))
            .collect();
        for _ in 0..draw(3) {
            let mut ids: Vec<usize> = (0..1 + draw(3)).map(|_| draw(n_sources)).collect();
            ids.sort_unstable();
            ids.dedup();
            c = c.require_ga(GlobalAttribute::try_new(ids.iter().map(|&s| pick[s])).unwrap());
        }
        if draw(4) == 0 {
            c = c.require_source(SourceId(draw(n_sources) as u32));
        }
        (u, sources, c)
    }

    /// Similarity from a fixed table of name pairs (0 elsewhere).
    struct Table(&'static [(&'static str, &'static str, f64)]);

    impl Similarity for Table {
        fn name(&self) -> &str {
            "table"
        }
        fn similarity(&self, a: &str, b: &str) -> f64 {
            self.0
                .iter()
                .find(|&&(x, y, _)| (x, y) == (a, b) || (y, x) == (a, b))
                .map_or(0.0, |t| t.2)
        }
    }

    /// A cluster pair joined by two θ-edges, whose best edge is refused for
    /// a source clash: in round 2 `{a, b}` cannot absorb `j` (both hold a
    /// source-0 attribute), merges with `k` instead, and `j` is dropped.
    #[test]
    fn clashing_pair_with_two_edges_matches_the_oracle() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("s0", Schema::new(["a", "j"])));
        b.add_source(SourceSpec::new("s1", Schema::new(["b"])));
        b.add_source(SourceSpec::new("s2", Schema::new(["k"])));
        let u = Arc::new(b.build().unwrap());
        let sims = Table(&[
            ("a", "b", 0.9),
            ("a", "j", 0.8),
            ("a", "k", 0.6),
            ("b", "j", 0.5),
        ]);
        let m = ClusterMatcher::new(Arc::clone(&u), sims);
        let c = Constraints::with_max_sources(3).theta(0.4);
        let (schema, _) = run(&u, &m, &c).unwrap();
        let abk = GlobalAttribute::try_new([a(0, 0), a(1, 0), a(2, 0)]).unwrap();
        assert_eq!(schema, MediatedSchema::new([abk]));
        let sources: BTreeSet<_> = u.source_ids().collect();
        assert_eq!(
            oracle::match_sources(&m, &u, &sources, &c),
            m.match_sources(&u, &sources, &c)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

        /// The edge kernel reproduces the dense oracle exactly: the same
        /// clusters in the same order with the same `keep`/`formed_by_merge`
        /// flags, and the same outcome down to the quality bits.
        #[test]
        fn kernel_matches_dense_oracle(seed in any::<u64>(), t in 0usize..5, warped in any::<bool>()) {
            let theta = [0.0, 0.3, 0.5, 0.75, 1.0][t];
            let (u, sources, c) = random_case(seed, theta);
            let m = if warped {
                ClusterMatcher::new(Arc::new(u.clone()), Warped(JaccardNGram::trigram()))
            } else {
                ClusterMatcher::new(Arc::new(u.clone()), JaccardNGram::trigram())
            };
            if let Some(expected) = oracle::clusters(&m, &u, &sources, &c) {
                let seeds = c.merged_ga_seeds();
                let mut kernel = Clustering::new(&m.cache, &u, &sources, &seeds).unwrap();
                kernel.run(theta);
                let got: Vec<(Vec<AttrId>, bool, bool)> = kernel
                    .clusters
                    .iter()
                    .enumerate()
                    .map(|(i, cl)| {
                        let attrs = kernel.members(i).iter().map(|&a| kernel.attrs[a as usize]).collect();
                        (attrs, cl.keep, cl.formed_by_merge)
                    })
                    .collect();
                let want: Vec<(Vec<AttrId>, bool, bool)> = expected
                    .iter()
                    .map(|cl| (cl.ga.attrs().iter().copied().collect(), cl.keep, cl.formed_by_merge))
                    .collect();
                prop_assert_eq!(got, want);
            }
            let kernel = m.match_sources(&u, &sources, &c);
            let dense = oracle::match_sources(&m, &u, &sources, &c);
            match (&kernel, &dense) {
                (
                    MatchOutcome::Matched { schema: s1, quality: q1 },
                    MatchOutcome::Matched { schema: s2, quality: q2 },
                ) => {
                    prop_assert_eq!(s1, s2);
                    prop_assert_eq!(q1.to_bits(), q2.to_bits());
                }
                _ => prop_assert_eq!(kernel, dense),
            }
        }
    }
}
