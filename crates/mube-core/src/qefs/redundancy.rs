//! `F_4` — redundancy: how much the selected sources overlap.
//!
//! The paper defines redundancy so that 1 is best (no overlap: every fetched
//! tuple is new) and 0 is worst (every source repeats the same data). We
//! reconstruct the garbled display equation as
//!
//! ```text
//! Redundancy(S) = 1 − (Σ_{s∈S}|s| − |∪_{s∈S} s|) / ((|S|−1) · |∪_{s∈S} s|)
//! ```
//!
//! i.e. one minus the duplicated-tuple mass normalized by its maximum
//! possible value: since each `|s| ≤ |∪S|`, the overlap `Σ|s| − |∪S|` can
//! reach at most `(|S|−1)·|∪S|` (all sources identical). Pairwise-disjoint
//! selections score exactly 1, `k` copies of one source score exactly 0,
//! and the value is always in `[0, 1]` — matching every property the prose
//! states. Union cardinalities are estimated from the PCSA signatures.
//!
//! Selections with no cooperating source score 0 (the paper assigns
//! uncooperative sources the worst redundancy).

use crate::qef::{DeltaClass, EvalContext, EvalInput, Qef};

use super::coverage::estimated_distinct;

/// The redundancy QEF (`Redundancy(S)` in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct RedundancyQef;

impl Qef for RedundancyQef {
    fn name(&self) -> &str {
        "redundancy"
    }

    fn delta_class(&self) -> DeltaClass {
        DeltaClass::UnionRedundancy
    }

    fn evaluate(&self, _ctx: &EvalContext, input: &EvalInput<'_>) -> f64 {
        let (cooperating, fetched) = input
            .sources
            .iter()
            .map(|&s| input.universe.source(s))
            .filter(|s| s.cooperates())
            .fold((0, 0), |(n, sum), s| (n + 1, sum + s.cardinality()));
        redundancy_score(
            cooperating,
            fetched,
            estimated_distinct(input.universe, input),
        )
    }
}

/// `F_4` from a selection's counts: `cooperating` signature-bearing
/// sources holding `fetched` tuples in total, whose signatures' union
/// estimates `distinct` tuples. The one redundancy formula — both
/// [`RedundancyQef`] and the delta evaluator call it.
pub fn redundancy_score(cooperating: usize, fetched: u64, distinct: f64) -> f64 {
    if cooperating == 0 {
        return 0.0;
    }
    // A single source cannot overlap with itself; nothing fetched or
    // nothing estimated leaves no overlap to measure.
    if cooperating == 1 || fetched == 0 || distinct <= 0.0 {
        return 1.0;
    }
    // PCSA noise can push the estimated union slightly above the summed
    // cardinalities; clamp the overlap into its theoretical range.
    let overlap = (fetched as f64 - distinct).max(0.0);
    let max_overlap = (cooperating - 1) as f64 * distinct;
    (1.0 - overlap / max_overlap).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::MediatedSchema;
    use crate::ids::SourceId;
    use crate::schema::Schema;
    use crate::source::{SourceSpec, Universe};
    use mube_sketch::pcsa::{PcsaConfig, PcsaSignature};
    use std::collections::BTreeSet;

    fn sig(keys: std::ops::Range<u64>) -> PcsaSignature {
        let mut s = PcsaSignature::new(PcsaConfig::new(256, 32, 7));
        for k in keys {
            s.insert(k);
        }
        s
    }

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.add_source(
            SourceSpec::new("a", Schema::new(["x"]))
                .cardinality(10_000)
                .signature(sig(0..10_000)),
        );
        b.add_source(
            SourceSpec::new("a2", Schema::new(["y"]))
                .cardinality(10_000)
                .signature(sig(0..10_000)),
        );
        b.add_source(
            SourceSpec::new("c", Schema::new(["z"]))
                .cardinality(10_000)
                .signature(sig(10_000..20_000)),
        );
        b.add_source(
            SourceSpec::new("d", Schema::new(["w"]))
                .cardinality(10_000)
                .signature(sig(20_000..30_000)),
        );
        b.add_source(SourceSpec::new("shy", Schema::new(["v"])).cardinality(10_000));
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
        RedundancyQef.evaluate(&ctx, &input)
    }

    #[test]
    fn single_source_is_nonredundant() {
        let u = universe();
        assert_eq!(eval(&u, &[0]), 1.0);
    }

    #[test]
    fn identical_pair_scores_near_zero() {
        let u = universe();
        let r = eval(&u, &[0, 1]);
        assert!(r < 0.1, "r={r}");
    }

    #[test]
    fn disjoint_sources_stay_nonredundant() {
        let u = universe();
        let r2 = eval(&u, &[0, 2]);
        let r3 = eval(&u, &[0, 2, 3]);
        assert!(r2 > 0.75, "r2={r2}");
        assert!(r3 > 0.75, "r3={r3}");
    }

    #[test]
    fn duplicate_among_disjoint_is_midrange() {
        // {a, a2, c, d}: one duplicated source among three distinct data
        // sets → overlap 1·10k of max 3·30k ≈ 0.89.
        let u = universe();
        let r = eval(&u, &[0, 1, 2, 3]);
        assert!(r > 0.7 && r < 1.0, "r={r}");
    }

    #[test]
    fn uncooperative_only_scores_zero() {
        let u = universe();
        assert_eq!(eval(&u, &[4]), 0.0);
    }

    #[test]
    fn empty_selection_scores_zero() {
        let u = universe();
        assert_eq!(eval(&u, &[]), 0.0);
    }

    #[test]
    fn in_unit_interval_on_mixes() {
        let u = universe();
        for picks in [vec![0, 1, 2], vec![1, 3], vec![0, 1, 2, 3, 4]] {
            let r = eval(&u, &picks.iter().map(|&i| i as u32).collect::<Vec<_>>());
            assert!((0.0..=1.0).contains(&r), "picks {picks:?} → {r}");
        }
    }
}
