//! `F_3` — coverage: how much of the universe's distinct data the selection
//! can reach.
//!
//! `Coverage(S) = |∪_{s∈S} s| / |∪_{t∈U} t|`, with the union cardinalities
//! *estimated* from the PCSA signatures the cooperating sources export: the
//! signature of a union is the bitwise OR of the signatures (§4). Sources
//! that do not cooperate (no signature) contribute nothing to coverage, per
//! the paper's fallback rule.

use mube_sketch::PcsaSignature;

use crate::ids::SourceId;
use crate::qef::{DeltaClass, EvalContext, EvalInput, Qef};
use crate::source::Universe;

/// The coverage QEF (`Coverage(S)` in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoverageQef;

/// ORs together the signatures of the cooperating sources in a selection.
/// Returns `None` if no selected source cooperates. OR is exact and
/// order-independent, so any iteration order yields the same signature.
pub fn union_signature<I>(universe: &Universe, sources: I) -> Option<PcsaSignature>
where
    I: IntoIterator<Item = SourceId>,
{
    let mut acc: Option<PcsaSignature> = None;
    for sid in sources {
        if let Some(sig) = universe.source(sid).signature() {
            match &mut acc {
                None => acc = Some(sig.clone()),
                Some(u) => u
                    .union_assign(sig)
                    .expect("universe builder guarantees matching signature configs"),
            }
        }
    }
    acc
}

/// Estimated number of distinct tuples in a selection (0 if nothing
/// cooperates).
pub fn estimated_distinct(universe: &Universe, input: &EvalInput<'_>) -> f64 {
    union_signature(universe, input.sources.iter().copied()).map_or(0.0, |s| s.estimate())
}

/// `F_3` from union estimates: the selection's estimated distinct tuples
/// over the universe's, in `[0, 1]`, and 0 when the universe has no
/// estimate. The one coverage formula — [`CoverageQef`], the delta
/// evaluator and [`coverage_fraction`] all call it.
pub fn coverage_score(distinct: f64, universe_distinct: f64) -> f64 {
    if universe_distinct <= 0.0 {
        return 0.0;
    }
    (distinct / universe_distinct).clamp(0.0, 1.0)
}

/// Estimated coverage fraction of an arbitrary source set: estimated
/// distinct tuples of the selection over the estimated distinct tuples of
/// the whole universe, both from PCSA signatures. Standalone variant of
/// [`CoverageQef`] for callers outside the QEF evaluation loop (e.g. the
/// executor's degradation accounting).
pub fn coverage_fraction(
    universe: &Universe,
    sources: &std::collections::BTreeSet<SourceId>,
) -> f64 {
    let total = union_signature(universe, universe.source_ids()).map_or(0.0, |s| s.estimate());
    let selected = union_signature(universe, sources.iter().copied()).map_or(0.0, |s| s.estimate());
    coverage_score(selected, total)
}

/// Coverage forfeited when only `survivors ⊆ selected` actually answered:
/// `coverage(selected) − coverage(survivors)`, clamped at zero (PCSA union
/// estimates are monotone in the source set, so the clamp only absorbs
/// floating-point noise). This is the F3 loss a degraded execution reports.
pub fn forfeited_coverage(
    universe: &Universe,
    selected: &std::collections::BTreeSet<SourceId>,
    survivors: &std::collections::BTreeSet<SourceId>,
) -> f64 {
    (coverage_fraction(universe, selected) - coverage_fraction(universe, survivors)).max(0.0)
}

impl Qef for CoverageQef {
    fn name(&self) -> &str {
        "coverage"
    }

    fn delta_class(&self) -> DeltaClass {
        DeltaClass::UnionCoverage
    }

    fn evaluate(&self, ctx: &EvalContext, input: &EvalInput<'_>) -> f64 {
        coverage_score(
            estimated_distinct(input.universe, input),
            ctx.universe_distinct,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::MediatedSchema;
    use crate::schema::Schema;
    use crate::source::SourceSpec;
    use mube_sketch::pcsa::PcsaConfig;
    use std::collections::BTreeSet;

    fn sig(keys: std::ops::Range<u64>) -> PcsaSignature {
        let mut s = PcsaSignature::new(PcsaConfig::new(64, 32, 7));
        for k in keys {
            s.insert(k);
        }
        s
    }

    fn universe() -> Universe {
        let mut b = Universe::builder();
        // a and b overlap heavily; c is disjoint.
        b.add_source(
            SourceSpec::new("a", Schema::new(["x"]))
                .cardinality(10_000)
                .signature(sig(0..10_000)),
        );
        b.add_source(
            SourceSpec::new("b", Schema::new(["y"]))
                .cardinality(10_000)
                .signature(sig(0..10_000)),
        );
        b.add_source(
            SourceSpec::new("c", Schema::new(["z"]))
                .cardinality(10_000)
                .signature(sig(10_000..20_000)),
        );
        b.add_source(SourceSpec::new("shy", Schema::new(["w"])).cardinality(10_000));
        b.build().unwrap()
    }

    fn eval(u: &Universe, picks: &[u32]) -> f64 {
        let ctx = EvalContext::for_universe(u);
        let sources: BTreeSet<_> = picks.iter().map(|&i| SourceId(i)).collect();
        let schema = MediatedSchema::empty();
        let input = EvalInput {
            universe: u,
            sources: &sources,
            schema: &schema,
            match_quality: 0.0,
        };
        CoverageQef.evaluate(&ctx, &input)
    }

    #[test]
    fn duplicated_source_adds_no_coverage() {
        let u = universe();
        let one = eval(&u, &[0]);
        let dup = eval(&u, &[0, 1]);
        // a and b hold the same tuples, so coverage barely moves.
        assert!((one - dup).abs() < 0.02, "one={one} dup={dup}");
    }

    #[test]
    fn disjoint_source_doubles_coverage() {
        let u = universe();
        let one = eval(&u, &[0]);
        let two = eval(&u, &[0, 2]);
        assert!(two > 1.7 * one, "one={one} two={two}");
    }

    #[test]
    fn full_cooperating_selection_covers_everything() {
        let u = universe();
        let all = eval(&u, &[0, 1, 2]);
        assert!((all - 1.0).abs() < 1e-9, "all={all}");
    }

    #[test]
    fn uncooperative_sources_score_zero() {
        let u = universe();
        assert_eq!(eval(&u, &[3]), 0.0);
    }

    #[test]
    fn no_signatures_anywhere_scores_zero() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["x"])).cardinality(5));
        let u = b.build().unwrap();
        assert_eq!(eval(&u, &[0]), 0.0);
    }

    #[test]
    fn coverage_fraction_matches_qef() {
        let u = universe();
        let sources: BTreeSet<_> = [SourceId(0), SourceId(2)].into();
        let standalone = coverage_fraction(&u, &sources);
        let scored = eval(&u, &[0, 2]);
        assert!((standalone - scored).abs() < 1e-12);
        assert_eq!(coverage_fraction(&u, &BTreeSet::new()), 0.0);
    }

    #[test]
    fn forfeited_coverage_is_monotone_and_clamped() {
        let u = universe();
        let all: BTreeSet<_> = [SourceId(0), SourceId(1), SourceId(2)].into();
        let survivors: BTreeSet<_> = [SourceId(0), SourceId(1)].into();
        let lost = forfeited_coverage(&u, &all, &survivors);
        // Dropping the disjoint source c forfeits roughly half the universe.
        assert!(lost > 0.3, "lost={lost}");
        // Nothing lost when everyone survives.
        assert_eq!(forfeited_coverage(&u, &all, &all), 0.0);
        // Losing everything forfeits the whole selection's coverage.
        let none = BTreeSet::new();
        assert!((forfeited_coverage(&u, &all, &none) - coverage_fraction(&u, &all)).abs() < 1e-12);
    }
}
