//! # mube-audit — pre-solve feasibility analysis for `µBE` problems
//!
//! The solvers in `mube-opt` happily burn their whole evaluation budget on a
//! problem whose constraints are contradictory, then report "no feasible
//! solution found within the budget" — indistinguishable from a budget that
//! was merely too small. This crate analyzes `(Universe, Constraints, QEF
//! weights)` *statically*, before any solver runs, and reports what is
//! provably wrong (errors) or degenerate (warnings) as structured
//! [`Diagnostic`]s with stable `MUBE0xx` codes (see [`mube_core::diag`]).
//!
//! The analysis is deliberately conservative: an **error** means no solver
//! can succeed (or the constraints cannot even construct a
//! [`mube_core::Problem`]); a **warning** means the run can proceed but the
//! user probably wants to know (a `θ` no attribute pair reaches, a source
//! that can never join a GA, a catalog smell). A clean report is *not* a
//! feasibility proof — matching still depends on which sources end up
//! selected together — but every diagnostic is a true positive.
//!
//! ```
//! use mube_audit::Analyzer;
//! use mube_core::constraints::Constraints;
//! use mube_core::schema::Schema;
//! use mube_core::source::{SourceSpec, Universe};
//! use mube_core::SourceId;
//! use mube_match::JaccardNGram;
//!
//! let mut b = Universe::builder();
//! b.add_source(SourceSpec::new("a", Schema::new(["title"])).cardinality(10));
//! b.add_source(SourceSpec::new("b", Schema::new(["book title"])).cardinality(20));
//! let universe = b.build().unwrap();
//!
//! // Pinning two sources under m = 1 is statically infeasible: MUBE001.
//! let constraints = Constraints::with_max_sources(1)
//!     .require_source(SourceId(0))
//!     .require_source(SourceId(1));
//! let measure = JaccardNGram::trigram();
//! let report = Analyzer::new(&universe)
//!     .constraints(&constraints)
//!     .similarity(&measure)
//!     .run();
//! assert!(report.has_errors());
//! assert!(report.codes().any(|c| c.code() == "MUBE001"));
//! ```

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use mube_core::constraints::Constraints;
use mube_core::diag::{DiagCode, Diagnostic, Severity};
use mube_core::ids::{AttrId, SourceId};
use mube_core::qef::WeightedQefs;
use mube_core::source::{canonical_name_key, Universe};
use mube_match::similarity::Similarity;
use mube_match::SimilarityCache;

/// Tolerance for the QEF weights-sum-to-one check, matching
/// [`mube_core::qef::WeightedQefs::new`].
const WEIGHT_SUM_TOLERANCE: f64 = 1e-6;

/// The static analyzer. Configure with what you have — a bare universe
/// already gets the catalog lints; adding constraints, weights, and a
/// similarity measure unlocks the feasibility checks — then call
/// [`Analyzer::run`].
pub struct Analyzer<'a> {
    universe: &'a Universe,
    constraints: Option<&'a Constraints>,
    qefs: Option<&'a WeightedQefs>,
    raw_weights: Option<&'a [(String, f64)]>,
    similarity: Option<&'a dyn Similarity>,
    scale_threshold: Option<usize>,
}

impl<'a> Analyzer<'a> {
    /// Starts an analysis over a universe.
    pub fn new(universe: &'a Universe) -> Self {
        Analyzer {
            universe,
            constraints: None,
            qefs: None,
            raw_weights: None,
            similarity: None,
            scale_threshold: None,
        }
    }

    /// Sets the source-count threshold above which an unpruned catalog is
    /// flagged (MUBE017). Flat solvers score every source per move, so past
    /// a few thousand sources a solve without the `mube-scale` pruning front
    /// end burns its budget going nowhere. Disabled when unset.
    pub fn scale_threshold(mut self, threshold: usize) -> Self {
        self.scale_threshold = Some(threshold);
        self
    }

    /// Adds the constraint set to audit (builder style).
    pub fn constraints(mut self, constraints: &'a Constraints) -> Self {
        self.constraints = Some(constraints);
        self
    }

    /// Adds an already-constructed QEF weighting to audit (builder style).
    /// Construction already validates the weights, so this is
    /// defense-in-depth for weightings mutated after the fact.
    pub fn qefs(mut self, qefs: &'a WeightedQefs) -> Self {
        self.qefs = Some(qefs);
        self
    }

    /// Adds *raw* `(qef name, weight)` pairs to audit — the form user input
    /// arrives in (CLI flags, config files) before
    /// [`WeightedQefs`] construction gets a chance to reject it.
    pub fn raw_weights(mut self, weights: &'a [(String, f64)]) -> Self {
        self.raw_weights = Some(weights);
        self
    }

    /// Adds the attribute-similarity measure the matcher will use,
    /// unlocking the `θ`-satisfiability (MUBE004) and isolated-source
    /// (MUBE014) checks.
    pub fn similarity(mut self, measure: &'a dyn Similarity) -> Self {
        self.similarity = Some(measure);
        self
    }

    /// Runs every check the configuration allows and returns the report.
    pub fn run(&self) -> AuditReport {
        let mut out = Vec::new();
        self.lint_catalog(&mut out);
        let cross_sims = self
            .similarity
            .map(|m| SimilarityCache::build(self.universe, m).per_source_best_cross_sim());
        if let Some(c) = self.constraints {
            self.check_constraints(c, cross_sims.as_deref(), &mut out);
        }
        if let Some(sims) = &cross_sims {
            let theta = self.constraints.map_or(0.75, |c| c.theta);
            self.check_isolated_sources(sims, theta, &mut out);
        }
        if let Some(weights) = self.raw_weights {
            check_weights(weights, &mut out);
        }
        if let Some(qefs) = self.qefs {
            let entries: Vec<(String, f64)> = qefs
                .iter()
                .map(|(q, w)| (q.name().to_string(), w))
                .collect();
            check_weights(&entries, &mut out);
        }
        AuditReport { diagnostics: out }
    }

    /// Universe-only lints: MUBE011–MUBE013, MUBE016, MUBE017.
    fn lint_catalog(&self, out: &mut Vec<Diagnostic>) {
        if let Some(threshold) = self.scale_threshold {
            if self.universe.len() > threshold {
                out.push(Diagnostic::new(
                    DiagCode::UnprunedLargeCatalog,
                    format!(
                        "catalog has {} sources, above the scale threshold of \
                         {threshold}, and no pruning front end is enabled; a \
                         flat solve will be slow — consider `mube scale-solve`",
                        self.universe.len()
                    ),
                ));
            }
        }
        let mut by_name: BTreeMap<&str, Vec<SourceId>> = BTreeMap::new();
        for source in self.universe.sources() {
            by_name.entry(source.name()).or_default().push(source.id());

            let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
            for (j, attr) in source.schema().iter() {
                match seen.entry(attr.name()) {
                    Entry::Vacant(slot) => {
                        slot.insert(j as u32);
                    }
                    Entry::Occupied(first) => {
                        out.push(
                            Diagnostic::new(
                                DiagCode::DuplicateAttributeNames,
                                format!(
                                    "source `{}` has two attributes named `{}`",
                                    source.name(),
                                    attr.name()
                                ),
                            )
                            .with_sources([source.id()])
                            .with_attrs([
                                AttrId::new(source.id(), *first.get()),
                                AttrId::new(source.id(), j as u32),
                            ]),
                        );
                    }
                }
            }

            if source.cardinality() == 0 {
                out.push(
                    Diagnostic::new(
                        DiagCode::ZeroCardinalitySource,
                        format!("source `{}` reports zero tuples", source.name()),
                    )
                    .with_sources([source.id()]),
                );
            }
        }
        for (name, ids) in by_name {
            if ids.len() > 1 {
                out.push(
                    Diagnostic::new(
                        DiagCode::DuplicateSourceNames,
                        format!("{} sources are named `{name}`", ids.len()),
                    )
                    .with_sources(ids),
                );
            }
        }

        // MUBE016: names that collapse to the same key once case and
        // punctuation are dropped — `Movie DB` vs `movie_db`. Exact
        // duplicates are already MUBE013; this fires only when the raw
        // spellings differ, so `site0001`/`site0002` catalogs stay clean.
        let mut by_norm: BTreeMap<String, (BTreeSet<&str>, Vec<SourceId>)> = BTreeMap::new();
        for source in self.universe.sources() {
            let key = canonical_name_key(source.name());
            if key.is_empty() {
                continue;
            }
            let slot = by_norm.entry(key).or_default();
            slot.0.insert(source.name());
            slot.1.push(source.id());
        }
        for (key, (raw_names, ids)) in by_norm {
            if raw_names.len() > 1 {
                let listed: Vec<String> = raw_names.iter().map(|n| format!("`{n}`")).collect();
                out.push(
                    Diagnostic::new(
                        DiagCode::NearDuplicateSourceNames,
                        format!(
                            "source names {} all normalize to `{key}`",
                            listed.join(", ")
                        ),
                    )
                    .with_sources(ids),
                );
            }
        }
    }

    /// Constraint feasibility: MUBE001–MUBE006, MUBE008–MUBE010.
    fn check_constraints(
        &self,
        c: &Constraints,
        cross_sims: Option<&[f64]>,
        out: &mut Vec<Diagnostic>,
    ) {
        if !c.theta.is_finite() || !(0.0..=1.0).contains(&c.theta) {
            out.push(Diagnostic::new(
                DiagCode::ThetaOutOfRange,
                format!("theta is {}, outside [0, 1]", c.theta),
            ));
        }
        if c.max_sources == 0 {
            out.push(Diagnostic::new(
                DiagCode::ZeroMaxSources,
                "max_sources is 0; every selection is infeasible".to_string(),
            ));
        }

        let unknown_sources: Vec<SourceId> = c
            .required_sources
            .iter()
            .copied()
            .filter(|&s| self.universe.get(s).is_none())
            .collect();
        if !unknown_sources.is_empty() {
            let listed: Vec<String> = unknown_sources.iter().map(ToString::to_string).collect();
            out.push(
                Diagnostic::new(
                    DiagCode::UnknownRequiredSource,
                    format!(
                        "required sources not in the universe: {}",
                        listed.join(", ")
                    ),
                )
                .with_sources(unknown_sources),
            );
        }

        for (i, ga) in c.required_gas.iter().enumerate() {
            let unknown: Vec<AttrId> = ga
                .attrs()
                .iter()
                .copied()
                .filter(|&a| !self.universe.contains_attr(a))
                .collect();
            if !unknown.is_empty() {
                out.push(
                    Diagnostic::new(
                        DiagCode::GaUnknownAttribute,
                        format!("GA constraint #{i} references unknown attributes"),
                    )
                    .with_attrs(unknown),
                );
            }
        }

        let required = c.effective_required_sources();
        if required.len() > c.max_sources {
            out.push(
                Diagnostic::new(
                    DiagCode::RequiredSourcesExceedMax,
                    format!(
                        "{} sources are required (pins plus GA-constraint sources) \
                         but max_sources is {}",
                        required.len(),
                        c.max_sources
                    ),
                )
                .with_sources(required.iter().copied()),
            );
        }

        // Pairwise GA-constraint overlaps: mergeable ones are the MUBE006
        // redundancy warning, unmergeable ones the MUBE003 error.
        for (i, g1) in c.required_gas.iter().enumerate() {
            for (j, g2) in c.required_gas.iter().enumerate().skip(i + 1) {
                if !g1.intersects(g2) {
                    continue;
                }
                let shared: Vec<AttrId> = g1.attrs().intersection(g2.attrs()).copied().collect();
                if g1.merge(g2).is_none() {
                    out.push(
                        Diagnostic::new(
                            DiagCode::GaConstraintsUnmergeable,
                            format!(
                                "GA constraints #{i} and #{j} overlap but their union \
                                 would take two attributes from one source"
                            ),
                        )
                        .with_attrs(shared),
                    );
                } else {
                    out.push(
                        Diagnostic::new(
                            DiagCode::AttrInMultipleRequiredGas,
                            format!(
                                "GA constraints #{i} and #{j} share attributes and will \
                                 be merged into one seed"
                            ),
                        )
                        .with_attrs(shared),
                    );
                }
            }
        }

        if let Some(sims) = cross_sims {
            let upper = sims.iter().copied().fold(0.0, f64::max);
            if (0.0..=1.0).contains(&c.theta) && c.theta > upper {
                out.push(Diagnostic::new(
                    DiagCode::ThetaUnsatisfiable,
                    format!(
                        "theta = {} but the best cross-source attribute similarity \
                         is {upper:.4}; no GA can form outside the seed GAs",
                        c.theta
                    ),
                ));
            }
        }

        let max_ga = c.max_sources.min(self.universe.len());
        if c.beta > max_ga && max_ga > 0 {
            out.push(Diagnostic::new(
                DiagCode::BetaExceedsFeasibleGa,
                format!(
                    "beta = {} but a GA spans at most {max_ga} attributes \
                     (one per selected source); every non-seed GA will be filtered",
                    c.beta
                ),
            ));
        }
    }

    /// MUBE014: sources that cannot reach `θ` against any other source.
    fn check_isolated_sources(&self, sims: &[f64], theta: f64, out: &mut Vec<Diagnostic>) {
        if !(0.0..=1.0).contains(&theta) || self.universe.len() < 2 {
            return;
        }
        for source in self.universe.sources() {
            let best = sims.get(source.id().index()).copied().unwrap_or(0.0);
            if best < theta {
                out.push(
                    Diagnostic::new(
                        DiagCode::IsolatedSource,
                        format!(
                            "source `{}` peaks at similarity {best:.4} against other \
                             sources, below theta = {theta}; it can never join a GA",
                            source.name()
                        ),
                    )
                    .with_sources([source.id()]),
                );
            }
        }
    }
}

/// MUBE007 over raw `(name, weight)` pairs.
fn check_weights(weights: &[(String, f64)], out: &mut Vec<Diagnostic>) {
    let mut seen = BTreeSet::new();
    let mut sum = 0.0;
    let mut broken = false;
    for (name, w) in weights {
        if !w.is_finite() || !(0.0..=1.0).contains(w) {
            broken = true;
            out.push(Diagnostic::new(
                DiagCode::InvalidQefWeight,
                format!("weight for QEF `{name}` is {w}, outside [0, 1]"),
            ));
        }
        if !seen.insert(name.as_str()) {
            broken = true;
            out.push(Diagnostic::new(
                DiagCode::InvalidQefWeight,
                format!("QEF `{name}` is weighted more than once"),
            ));
        }
        sum += w;
    }
    // Only report the sum when the individual weights were sane — a NaN or
    // runaway weight already poisons the sum and would double-report.
    if !broken && !weights.is_empty() && (sum - 1.0).abs() > WEIGHT_SUM_TOLERANCE {
        out.push(Diagnostic::new(
            DiagCode::InvalidQefWeight,
            format!("QEF weights sum to {sum}, expected 1"),
        ));
    }
}

/// The outcome of one [`Analyzer::run`]: every diagnostic found, in
/// detection order.
#[derive(Debug, Clone)]
pub struct AuditReport {
    diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// All diagnostics.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Appends an externally-detected diagnostic — e.g. a CLI-level name
    /// that failed to resolve and so never became an id the analyzer
    /// could see.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// True if anything error-severity was found — the problem is provably
    /// broken and solving cannot succeed.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct codes present, ascending.
    pub fn codes(&self) -> impl Iterator<Item = DiagCode> {
        let set: BTreeSet<DiagCode> = self.diagnostics.iter().map(|d| d.code).collect();
        set.into_iter()
    }

    /// Renders the human-readable report (see
    /// [`mube_core::explain::lint_report`]).
    pub fn display(&self, universe: &Universe) -> String {
        mube_core::explain::lint_report(&self.diagnostics, universe)
    }

    /// Renders the report as a JSON array of findings, for tooling:
    ///
    /// ```json
    /// [{"code":"MUBE001","severity":"error","title":"...","message":"...",
    ///   "sources":["siteA"],"attrs":["a0.1"]}]
    /// ```
    pub fn to_json(&self, universe: &Universe) -> String {
        let mut j = mube_core::jsonw::JsonBuf::new();
        j.begin_arr();
        for d in &self.diagnostics {
            j.begin_obj();
            j.key("code").str_value(d.code.code());
            j.key("severity").str_value(&d.severity().to_string());
            j.key("title").str_value(d.code.title());
            j.key("message").str_value(&d.message);
            j.key("sources").begin_arr();
            for &s in &d.sources {
                let name = universe
                    .get(s)
                    .map_or_else(|| s.to_string(), |src| src.name().to_string());
                j.str_value(&name);
            }
            j.end_arr();
            j.key("attrs").begin_arr();
            for &a in &d.attrs {
                j.str_value(&a.to_string());
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_core::ga::GlobalAttribute;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;
    use mube_match::JaccardNGram;

    fn a(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    /// Three book-ish sources whose titles cross-match under trigram
    /// Jaccard at θ ≈ 0.36 but not at the paper default 0.75.
    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("alpha", Schema::new(["title", "author"])).cardinality(100));
        b.add_source(
            SourceSpec::new("beta", Schema::new(["book title", "writer"])).cardinality(200),
        );
        b.add_source(SourceSpec::new("gamma", Schema::new(["title", "isbn"])).cardinality(300));
        b.build().unwrap()
    }

    fn codes(report: &AuditReport) -> Vec<&'static str> {
        report.codes().map(DiagCode::code).collect()
    }

    #[test]
    fn clean_problem_is_clean() {
        let u = universe();
        // θ = 0.3 sits below every source's best cross-source similarity.
        let c = Constraints::with_max_sources(3).theta(0.3);
        let measure = JaccardNGram::trigram();
        let report = Analyzer::new(&u).constraints(&c).similarity(&measure).run();
        assert!(report.is_clean(), "{:?}", report.diagnostics());
    }

    #[test]
    fn mube001_required_exceed_max() {
        let u = universe();
        let c = Constraints::with_max_sources(1)
            .require_source(SourceId(0))
            .require_source(SourceId(1));
        let report = Analyzer::new(&u).constraints(&c).run();
        // m = 1 also makes the default β = 2 unreachable (MUBE005 warning);
        // the error is the over-pinning.
        assert!(
            codes(&report).contains(&"MUBE001"),
            "{:?}",
            report.diagnostics()
        );
        assert!(report.has_errors());
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == DiagCode::RequiredSourcesExceedMax)
            .unwrap();
        assert_eq!(d.sources, vec![SourceId(0), SourceId(1)]);
    }

    #[test]
    fn mube001_counts_ga_implied_sources() {
        let u = universe();
        let ga = GlobalAttribute::try_new([a(1, 0), a(2, 0)]).unwrap();
        let c = Constraints::with_max_sources(2)
            .require_source(SourceId(0))
            .require_ga(ga);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(
            codes(&report).contains(&"MUBE001"),
            "{:?}",
            report.diagnostics()
        );
    }

    #[test]
    fn mube002_unknown_ga_attribute() {
        let u = universe();
        // Source 0 has 2 attributes; index 7 does not exist. Source 9 at all.
        let ga = GlobalAttribute::try_new([a(0, 7), a(9, 0)]).unwrap();
        let c = Constraints::with_max_sources(3).require_ga(ga);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(codes(&report).contains(&"MUBE002"));
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == DiagCode::GaUnknownAttribute)
            .unwrap();
        assert_eq!(d.attrs, vec![a(0, 7), a(9, 0)]);
    }

    #[test]
    fn mube003_unmergeable_required_gas() {
        let u = universe();
        // Both GAs contain a0.0; their union would take both attributes of
        // source 1, violating Definition 1.
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(0, 0), a(1, 1)]).unwrap();
        let c = Constraints::with_max_sources(3)
            .require_ga(g1)
            .require_ga(g2);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(
            codes(&report).contains(&"MUBE003"),
            "{:?}",
            report.diagnostics()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn mube004_theta_above_similarity_ceiling() {
        // No shared names: ceiling is "title" vs "book title" ≈ 0.36.
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("x", Schema::new(["title"])).cardinality(1));
        b.add_source(SourceSpec::new("y", Schema::new(["book title"])).cardinality(1));
        let u = b.build().unwrap();
        let c = Constraints::with_max_sources(2); // θ = 0.75 default
        let measure = JaccardNGram::trigram();
        let report = Analyzer::new(&u).constraints(&c).similarity(&measure).run();
        assert!(
            codes(&report).contains(&"MUBE004"),
            "{:?}",
            report.diagnostics()
        );
        // Lowering θ below the ceiling clears it.
        let relaxed = c.theta(0.3);
        let report = Analyzer::new(&u)
            .constraints(&relaxed)
            .similarity(&measure)
            .run();
        assert!(
            !codes(&report).contains(&"MUBE004"),
            "{:?}",
            report.diagnostics()
        );
    }

    #[test]
    fn mube005_beta_beyond_any_ga() {
        let u = universe();
        // A GA takes one attribute per source: with m = 2 no GA can have 3.
        let c = Constraints::with_max_sources(2).beta(3);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert_eq!(codes(&report), vec!["MUBE005"]);
        assert!(!report.has_errors(), "degenerate but not infeasible");
    }

    #[test]
    fn mube006_shared_attribute_across_required_gas() {
        let u = universe();
        let g1 = GlobalAttribute::try_new([a(0, 0), a(1, 0)]).unwrap();
        let g2 = GlobalAttribute::try_new([a(0, 0), a(2, 0)]).unwrap();
        let c = Constraints::with_max_sources(3)
            .require_ga(g1)
            .require_ga(g2);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(
            codes(&report).contains(&"MUBE006"),
            "{:?}",
            report.diagnostics()
        );
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == DiagCode::AttrInMultipleRequiredGas)
            .unwrap();
        assert_eq!(d.attrs, vec![a(0, 0)]);
    }

    #[test]
    fn mube007_weight_lints() {
        let u = universe();
        let bad: Vec<(String, f64)> = vec![
            ("matching".into(), f64::NAN),
            ("cardinality".into(), -0.2),
            ("cardinality".into(), 0.5),
        ];
        let report = Analyzer::new(&u).raw_weights(&bad).run();
        let found: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == DiagCode::InvalidQefWeight)
            .collect();
        assert_eq!(found.len(), 3, "{found:?}");

        let unnormalized: Vec<(String, f64)> =
            vec![("matching".into(), 0.5), ("coverage".into(), 0.2)];
        let report = Analyzer::new(&u).raw_weights(&unnormalized).run();
        assert!(codes(&report).contains(&"MUBE007"));
        assert!(report.diagnostics()[0].message.contains("sum to"));

        let fine: Vec<(String, f64)> = vec![("matching".into(), 0.5), ("coverage".into(), 0.5)];
        assert!(Analyzer::new(&u).raw_weights(&fine).run().is_clean());
    }

    #[test]
    fn mube008_unknown_required_source() {
        let u = universe();
        let c = Constraints::with_max_sources(3).require_source(SourceId(42));
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(codes(&report).contains(&"MUBE008"));
        assert!(report.has_errors());
    }

    #[test]
    fn mube009_and_mube010_parameter_range() {
        let u = universe();
        let c = Constraints {
            theta: 1.5,
            max_sources: 0,
            ..Constraints::with_max_sources(1)
        };
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(codes(&report).contains(&"MUBE009"));
        assert!(codes(&report).contains(&"MUBE010"));
    }

    #[test]
    fn mube011_duplicate_attribute_names() {
        let mut b = Universe::builder();
        // Normalization collapses whitespace/case: these collide.
        b.add_source(SourceSpec::new("s", Schema::new(["Title", "  title "])).cardinality(5));
        let u = b.build().unwrap();
        let report = Analyzer::new(&u).run();
        assert_eq!(codes(&report), vec!["MUBE011"]);
        assert_eq!(report.diagnostics()[0].attrs, vec![a(0, 0), a(0, 1)]);
    }

    #[test]
    fn mube012_zero_cardinality() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("empty", Schema::new(["x"])));
        b.add_source(SourceSpec::new("full", Schema::new(["x"])).cardinality(10));
        let u = b.build().unwrap();
        let report = Analyzer::new(&u).run();
        assert_eq!(codes(&report), vec!["MUBE012"]);
        assert_eq!(report.diagnostics()[0].sources, vec![SourceId(0)]);
    }

    #[test]
    fn mube013_duplicate_source_names() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("twin", Schema::new(["x"])).cardinality(1));
        b.add_source(SourceSpec::new("twin", Schema::new(["y"])).cardinality(1));
        let u = b.build().unwrap();
        let report = Analyzer::new(&u).run();
        assert_eq!(codes(&report), vec!["MUBE013"]);
        assert_eq!(
            report.diagnostics()[0].sources,
            vec![SourceId(0), SourceId(1)]
        );
    }

    #[test]
    fn mube016_near_duplicate_source_names() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("Movie DB", Schema::new(["title"])).cardinality(1));
        b.add_source(SourceSpec::new("movie_db", Schema::new(["name"])).cardinality(1));
        let u = b.build().unwrap();
        let report = Analyzer::new(&u).run();
        assert_eq!(
            codes(&report),
            vec!["MUBE016"],
            "{:?}",
            report.diagnostics()
        );
        let d = &report.diagnostics()[0];
        assert_eq!(d.sources, vec![SourceId(0), SourceId(1)]);
        assert!(d.message.contains("moviedb"), "{}", d.message);
        assert!(!report.has_errors(), "suspicious but not infeasible");
    }

    #[test]
    fn mube016_ignores_distinct_numbered_sites() {
        // Synthetic catalogs name sources site0001, site0002, ... — those
        // normalize to distinct keys and must not warn.
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("site0001", Schema::new(["x"])).cardinality(1));
        b.add_source(SourceSpec::new("site0002", Schema::new(["x"])).cardinality(1));
        let u = b.build().unwrap();
        assert!(Analyzer::new(&u).run().is_clean());
    }

    #[test]
    fn mube016_exact_duplicates_stay_mube013() {
        // Identical raw spellings are the MUBE013 exact-duplicate case;
        // MUBE016 reports only genuinely different spellings.
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("twin", Schema::new(["x"])).cardinality(1));
        b.add_source(SourceSpec::new("twin", Schema::new(["y"])).cardinality(1));
        let u = b.build().unwrap();
        assert_eq!(codes(&Analyzer::new(&u).run()), vec!["MUBE013"]);
    }

    #[test]
    fn mube017_unpruned_large_catalog() {
        let u = universe(); // 3 sources
        let report = Analyzer::new(&u).scale_threshold(2).run();
        assert_eq!(
            codes(&report),
            vec!["MUBE017"],
            "{:?}",
            report.diagnostics()
        );
        assert!(!report.has_errors(), "slow but not infeasible");
        let d = &report.diagnostics()[0];
        assert!(d.message.contains("3 sources"), "{}", d.message);
        assert!(d.message.contains("threshold of 2"), "{}", d.message);
    }

    #[test]
    fn mube017_suppressed_at_or_below_the_threshold() {
        let u = universe();
        // Catalog at or below the threshold: fine.
        let report = Analyzer::new(&u).scale_threshold(3).run();
        assert!(report.is_clean(), "{:?}", report.diagnostics());
        // No threshold configured: never fires.
        let report = Analyzer::new(&u).run();
        assert!(report.is_clean(), "{:?}", report.diagnostics());
    }

    #[test]
    fn mube016_matches_shared_canonical_key() {
        // Regression: MUBE016 and the mube-scale LSH blocking front end both
        // key on mube_core::canonical_name_key. If MUBE016 groups two names,
        // the shared helper must map them to one key, and vice versa.
        let names = ["Movie DB", "movie_db", "MOVIE-DB", "film.db", "site0001"];
        let mut b = Universe::builder();
        for n in names {
            b.add_source(SourceSpec::new(n, Schema::new(["x"])).cardinality(1));
        }
        let u = b.build().unwrap();
        let report = Analyzer::new(&u).run();
        let grouped: Vec<SourceId> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == DiagCode::NearDuplicateSourceNames)
            .flat_map(|d| d.sources.iter().copied())
            .collect();
        let expected: Vec<SourceId> = u
            .sources()
            .filter(|s| {
                let key = mube_core::canonical_name_key(s.name());
                u.sources()
                    .filter(|t| mube_core::canonical_name_key(t.name()) == key)
                    .count()
                    > 1
            })
            .map(mube_core::Source::id)
            .collect();
        assert_eq!(grouped, expected);
        assert_eq!(grouped, vec![SourceId(0), SourceId(1), SourceId(2)]);
    }

    #[test]
    fn mube014_isolated_source() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("x", Schema::new(["title"])).cardinality(1));
        b.add_source(SourceSpec::new("y", Schema::new(["title"])).cardinality(1));
        b.add_source(SourceSpec::new("z", Schema::new(["zzzzzz"])).cardinality(1));
        let u = b.build().unwrap();
        let c = Constraints::with_max_sources(3);
        let measure = JaccardNGram::trigram();
        let report = Analyzer::new(&u).constraints(&c).similarity(&measure).run();
        let isolated: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == DiagCode::IsolatedSource)
            .collect();
        assert_eq!(isolated.len(), 1, "{:?}", report.diagnostics());
        assert_eq!(isolated[0].sources, vec![SourceId(2)]);
    }

    #[test]
    fn error_free_report_admits_a_solution() {
        // The promise behind severities: a clean (error-free) audit of a
        // constraint set that validates means the problem constructs and a
        // solver can find a feasible solution.
        use mube_core::matchop::IdentityMatcher;
        use mube_core::problem::Problem;
        use mube_core::qefs::data_only_qefs;
        use mube_core::validate::SolutionValidator;
        use std::sync::Arc;

        let u = Arc::new(universe());
        let c = Constraints::with_max_sources(2).beta(1);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert!(!report.has_errors());
        let p = Problem::new(
            Arc::clone(&u),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            c,
        )
        .unwrap();
        let sol = p.solve(&mube_opt::TabuSearch::default(), 11).unwrap();
        assert!(SolutionValidator::for_problem(&p).check(&sol).is_empty());
    }

    #[test]
    fn every_error_code_fails_problem_construction() {
        // Error severity claims Problem::new (or solving) must fail; check
        // the constraint-shaped ones actually do.
        use mube_core::matchop::IdentityMatcher;
        use mube_core::problem::Problem;
        use mube_core::qefs::data_only_qefs;
        use std::sync::Arc;

        let u = Arc::new(universe());
        let broken = [
            Constraints::with_max_sources(1)
                .require_source(SourceId(0))
                .require_source(SourceId(1)),
            Constraints::with_max_sources(3).require_source(SourceId(42)),
            Constraints {
                theta: 1.5,
                ..Constraints::with_max_sources(3)
            },
            Constraints {
                max_sources: 0,
                ..Constraints::with_max_sources(1)
            },
        ];
        for c in broken {
            let report = Analyzer::new(&u).constraints(&c).run();
            assert!(report.has_errors(), "{c:?}");
            assert!(
                Problem::new(
                    Arc::clone(&u),
                    Arc::new(IdentityMatcher),
                    data_only_qefs(),
                    c.clone(),
                )
                .is_err(),
                "{c:?}"
            );
        }
    }

    #[test]
    fn report_accessors_and_display() {
        let u = universe();
        let c = Constraints::with_max_sources(1)
            .require_source(SourceId(0))
            .require_source(SourceId(1))
            .beta(9);
        let report = Analyzer::new(&u).constraints(&c).run();
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
        let text = report.display(&u);
        assert!(text.contains("error[MUBE001]"), "{text}");
        assert!(text.contains("warning[MUBE005]"), "{text}");
        assert!(text.contains("1 error, 1 warning"), "{text}");
    }

    #[test]
    fn json_output_is_well_formed() {
        let u = universe();
        let c = Constraints::with_max_sources(1)
            .require_source(SourceId(0))
            .require_source(SourceId(1));
        let report = Analyzer::new(&u).constraints(&c).run();
        let json = report.to_json(&u);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"code\":\"MUBE001\""), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("\"alpha\""), "{json}");
        assert_eq!(Analyzer::new(&u).run().to_json(&u), "[]");
    }

    #[test]
    fn json_escapes_special_characters() {
        // Escaping lives in the shared writer now; the report must keep
        // using it for messages with embedded quotes/newlines.
        let mut u = Universe::builder();
        u.add_source(SourceSpec::new("alpha", Schema::new(["x"])));
        let u = u.build().unwrap();
        let mut report = Analyzer::new(&u).run();
        report.push(Diagnostic::new(
            DiagCode::UnknownRequiredSource,
            "quote \" backslash \\ newline \n done".to_string(),
        ));
        let json = report.to_json(&u);
        assert!(
            json.contains("quote \\\" backslash \\\\ newline \\n done"),
            "{json}"
        );
    }
}
