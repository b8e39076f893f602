//! Differential tests for the incremental evaluator: for every QEF in
//! isolation (F1 matching, F2 cardinality, F3 coverage, F4 redundancy, the
//! `wsum` characteristic), for the paper's full mix, and for a mix with a
//! schema-reading (opaque) QEF that sends every score down the full
//! path, [`DeltaEval`] must
//! agree **bitwise** with the full evaluation path after arbitrary
//! add/drop move sequences. Any divergence is reported together with the
//! exact move sequence that produced it (the vendored proptest does not
//! shrink, so the message carries the full reproduction).

use std::collections::BTreeSet;
use std::sync::Arc;

use mube_core::constraints::Constraints;
use mube_core::delta::{DeltaEval, DeltaMove};
use mube_core::problem::Problem;
use mube_core::qef::{EvalContext, EvalInput, Qef, WeightedQefs};
use mube_core::qefs::{
    paper_default_qefs, CardinalityQef, CharacteristicQef, CoverageQef, MatchingQualityQef,
    RedundancyQef, WeightedSumAgg,
};
use mube_core::{MatchOperator, SourceId};
use mube_integration::Fixture;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ISSUE acceptance: at least 256 cases per QEF.
fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    }
}

/// A single-QEF problem (weight 1.0) over a small generated universe.
fn single_qef_problem(fx: &Fixture, qef: Arc<dyn Qef>, m: usize, theta: f64) -> Problem {
    let qefs = WeightedQefs::new(vec![(qef, 1.0)]).expect("weight 1.0 is valid");
    Problem::new(
        Arc::clone(&fx.synth.universe),
        Arc::clone(&fx.matcher) as Arc<dyn MatchOperator>,
        qefs,
        Constraints::with_max_sources(m).theta(theta),
    )
    .expect("fixture constraints are valid")
}

/// A user QEF that reads the mediated schema, so it keeps the default
/// [`mube_core::qef::DeltaClass::Opaque`]: the number of GAs, scaled.
struct SchemaSize;

impl Qef for SchemaSize {
    fn name(&self) -> &str {
        "schema-size"
    }
    fn evaluate(&self, _: &EvalContext, input: &EvalInput<'_>) -> f64 {
        input.schema.len() as f64 / 32.0
    }
}

/// Derives a pseudo-random move sequence over the universe: starts from a
/// couple of adds, then mixes adds and drops, revisiting sources so both
/// no-ops and genuine state transitions occur.
fn move_sequence(universe_len: usize, moves: usize, seed: u64) -> Vec<DeltaMove> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = Vec::with_capacity(moves);
    for i in 0..moves {
        let s = SourceId(rng.random_range(0..universe_len as u32));
        // Front-load adds so drops have something to remove; afterwards
        // pick uniformly, letting drops dirty the PCSA union.
        let add = i < 2 || rng.random_range(0..3u32) < 2;
        seq.push(if add {
            DeltaMove::Add(s)
        } else {
            DeltaMove::Drop(s)
        });
    }
    seq
}

/// Replays `seq` through a [`DeltaEval`], asserting bitwise agreement with
/// the full path after every applied move. Returns an error message naming
/// the divergent step and the whole sequence otherwise.
fn replay_bitwise(problem: &Problem, seq: &[DeltaMove]) -> Result<(), String> {
    let mut delta = DeltaEval::new(problem);
    for (step, &mv) in seq.iter().enumerate() {
        delta.apply(mv);
        let incremental = delta.score();
        let selection: BTreeSet<SourceId> = delta.selection().clone();
        let full = problem.objective(&selection);
        if incremental.to_bits() != full.to_bits() {
            return Err(format!(
                "divergence at step {step} ({mv:?}): delta={incremental:?} ({:#x}) \
                 full={full:?} ({:#x}) selection={selection:?} sequence={seq:?}",
                incremental.to_bits(),
                full.to_bits(),
            ));
        }
        // The escape hatch must reconstruct the exact same state.
        let mut rebuilt = DeltaEval::with_selection(problem, &selection);
        rebuilt.recompute();
        let recomputed = rebuilt.score();
        if recomputed.to_bits() != incremental.to_bits() {
            return Err(format!(
                "recompute() diverged at step {step}: incremental={incremental:?} \
                 recomputed={recomputed:?} selection={selection:?} sequence={seq:?}",
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(config())]

    /// F1: matching quality alone.
    #[test]
    fn f1_matching_is_bitwise_incremental(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 3usize..10,
    ) {
        let fx = Fixture::new(10, seed);
        let problem = single_qef_problem(&fx, Arc::new(MatchingQualityQef), m, 0.6);
        let seq = move_sequence(10, 12, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// F2: cardinality alone.
    #[test]
    fn f2_cardinality_is_bitwise_incremental(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 3usize..10,
    ) {
        let fx = Fixture::new(10, seed);
        let problem = single_qef_problem(&fx, Arc::new(CardinalityQef), m, 0.6);
        let seq = move_sequence(10, 12, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// F3: PCSA-union coverage alone.
    #[test]
    fn f3_coverage_is_bitwise_incremental(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 3usize..10,
    ) {
        let fx = Fixture::new(10, seed);
        let problem = single_qef_problem(&fx, Arc::new(CoverageQef), m, 0.6);
        let seq = move_sequence(10, 12, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// F4: redundancy alone — drops dirty the union, exercising the lazy
    /// rebuild path hardest.
    #[test]
    fn f4_redundancy_is_bitwise_incremental(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 3usize..10,
    ) {
        let fx = Fixture::new(10, seed);
        let problem = single_qef_problem(&fx, Arc::new(RedundancyQef), m, 0.6);
        let seq = move_sequence(10, 14, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// The `wsum` characteristic QEF (selection-only direct re-eval path).
    #[test]
    fn wsum_characteristic_is_bitwise_incremental(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 3usize..10,
    ) {
        let fx = Fixture::new(10, seed);
        let qef = Arc::new(CharacteristicQef::new("mttf", "mttf", WeightedSumAgg));
        let problem = single_qef_problem(&fx, qef, m, 0.6);
        let seq = move_sequence(10, 12, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// The paper's full weighted mix, with varying θ and m so the
    /// infeasibility boundary (matching failures, |S| > m) is crossed.
    #[test]
    fn paper_mix_is_bitwise_incremental(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 2usize..10,
        theta in 0.4f64..0.9,
    ) {
        let fx = Fixture::new(10, seed);
        let problem = Problem::new(
            Arc::clone(&fx.synth.universe),
            Arc::clone(&fx.matcher) as Arc<dyn MatchOperator>,
            paper_default_qefs("mttf"),
            Constraints::with_max_sources(m).theta(theta),
        )
        .expect("fixture constraints are valid");
        let seq = move_sequence(10, 14, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// The paper's QEFs next to an opaque one: `DeltaEval::score` takes the
    /// full path for the whole mix (the incremental branch would reach the
    /// opaque QEF's `unreachable!`).
    #[test]
    fn opaque_mix_takes_the_full_path_bitwise(
        seed in 0u64..10_000,
        mseed in 0u64..10_000,
        m in 2usize..10,
        theta in 0.4f64..0.9,
    ) {
        let fx = Fixture::new(10, seed);
        let qefs = WeightedQefs::new(vec![
            (Arc::new(MatchingQualityQef) as Arc<dyn Qef>, 0.2),
            (Arc::new(CardinalityQef), 0.2),
            (Arc::new(CoverageQef), 0.2),
            (Arc::new(RedundancyQef), 0.15),
            (Arc::new(CharacteristicQef::new("mttf", "mttf", WeightedSumAgg)), 0.1),
            (Arc::new(SchemaSize), 0.15),
        ])
        .expect("weights sum to 1");
        let problem = Problem::new(
            Arc::clone(&fx.synth.universe),
            Arc::clone(&fx.matcher) as Arc<dyn MatchOperator>,
            qefs,
            Constraints::with_max_sources(m).theta(theta),
        )
        .expect("fixture constraints are valid");
        let seq = move_sequence(10, 14, mseed);
        if let Err(e) = replay_bitwise(&problem, &seq) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// `set_selection` must land on the identical state as replaying the moves
/// one at a time — including the recompute shortcut it takes on big jumps.
#[test]
fn set_selection_agrees_with_stepwise_moves() {
    let fx = Fixture::new(12, 99);
    let problem = Problem::new(
        Arc::clone(&fx.synth.universe),
        Arc::clone(&fx.matcher) as Arc<dyn MatchOperator>,
        paper_default_qefs("mttf"),
        Constraints::with_max_sources(8).theta(0.6),
    )
    .expect("valid");
    let mut rng = StdRng::seed_from_u64(5);
    let mut stepped = DeltaEval::new(&problem);
    for _ in 0..40 {
        let target: BTreeSet<SourceId> = (0..12u32)
            .filter(|_| rng.random_range(0..2u32) == 0)
            .map(SourceId)
            .collect();
        let mut jumped = DeltaEval::new(&problem);
        jumped.set_selection(&target);
        stepped.set_selection(&target);
        assert_eq!(
            jumped.score().to_bits(),
            stepped.score().to_bits(),
            "jump vs. step divergence on {target:?}"
        );
        assert_eq!(
            jumped.score().to_bits(),
            problem.objective(&target).to_bits(),
            "delta vs. full divergence on {target:?}"
        );
    }
}
