//! Tests of the iterative feedback loop — the paper's core interaction
//! model: output of one iteration becomes input constraints of the next.

use mube_core::constraints::Constraints;
use mube_integration::Fixture;

#[test]
fn adopted_ga_persists_across_iterations() {
    let fx = Fixture::new(35, 10);
    let mut session = fx.session(Constraints::with_max_sources(10), 10);
    session.run().expect("feasible");
    let adopted = session.latest().unwrap().ga(0).cloned().expect("has a GA");
    session.adopt_ga(0).expect("in range");
    for _ in 0..2 {
        let sol = session.run().expect("still feasible").clone();
        assert!(
            sol.schema.covers_gas(std::slice::from_ref(&adopted)),
            "adopted GA must be subsumed by every later schema"
        );
        // And its sources must stay selected (implied source constraints).
        for s in adopted.sources() {
            assert!(sol.sources.contains(&s));
        }
    }
}

#[test]
fn pinned_source_persists_until_unpinned() {
    let fx = Fixture::new(35, 11);
    let mut session = fx.session(Constraints::with_max_sources(8), 11);
    let victim = fx.synth.universe.source_ids().last().unwrap();
    session.pin_source(victim).expect("exists");
    let sol = session.run().expect("feasible").clone();
    assert!(sol.sources.contains(&victim));

    session.unpin_source(victim).expect("exists");
    // Unpinning merely allows its removal; it doesn't force it.
    let sol2 = session.run().expect("feasible").clone();
    assert!(sol2.sources.len() <= 8);
}

#[test]
fn reweighting_biases_the_solution() {
    // Figure 8's premise: pushing the cardinality weight up should not
    // *decrease* the cardinality of the chosen solution.
    let fx = Fixture::new(40, 12);
    let mut session = fx.session(Constraints::with_max_sources(8), 12);
    let base = session.run().expect("feasible").clone();
    let base_card: u64 = base
        .sources
        .iter()
        .map(|&s| fx.synth.universe.source(s).cardinality())
        .sum();

    session.set_weight("cardinality", 0.9).expect("QEF exists");
    let heavy = session.run().expect("feasible").clone();
    let heavy_card: u64 = heavy
        .sources
        .iter()
        .map(|&s| fx.synth.universe.source(s).cardinality())
        .sum();
    assert!(
        heavy_card >= base_card,
        "cardinality-weighted run selected fewer tuples: {heavy_card} < {base_card}"
    );
}

#[test]
fn theta_feedback_controls_schema_granularity() {
    let fx = Fixture::new(30, 13);
    let mut session = fx.session(Constraints::with_max_sources(8), 13);
    let strict = session.run().expect("feasible").schema.len();

    // Lowering θ lets weaker matches cluster: at least as many merges are
    // possible, so average GA count should not collapse. (The exact count
    // varies with the optimizer's choice of sources; we only require the
    // run to stay feasible and the constraint to take effect.)
    session.set_theta(0.30).expect("valid");
    assert_eq!(session.constraints().theta, 0.30);
    let loose_sol = session.run().expect("feasible").clone();
    assert!(loose_sol.schema.len() + strict > 0);
    // All GAs must meet the *new* θ, checked by the matcher's contract.
    assert!(loose_sol.qef_score("matching").unwrap() >= 0.30 - 1e-9);
}

#[test]
fn history_and_diffs_accumulate() {
    let fx = Fixture::new(25, 14);
    let mut session = fx.session(Constraints::with_max_sources(6), 14);
    assert!(session.last_diff().is_none());
    session.run().expect("feasible");
    assert!(session.last_diff().is_none(), "one iteration has no diff");
    session.set_weight("coverage", 0.5).expect("QEF exists");
    session.run().expect("feasible");
    assert_eq!(session.history().len(), 2);
    assert!(session.last_diff().is_some());
}

#[test]
fn same_session_seed_reproduces_whole_session() {
    let run_session = || {
        let fx = Fixture::new(30, 15);
        let mut session = fx.session(Constraints::with_max_sources(8), 99);
        session.run().expect("feasible");
        session.pin_source(mube_core::SourceId(3)).expect("exists");
        session.run().expect("feasible");
        session
            .history()
            .iter()
            .map(|s| (s.sources.clone(), s.quality))
            .collect::<Vec<_>>()
    };
    assert_eq!(run_session(), run_session());
}

#[test]
fn conflicting_feedback_is_rejected_and_session_survives() {
    let fx = Fixture::new(20, 16);
    let mut session = fx.session(Constraints::with_max_sources(3), 16);
    // Pin three sources the matcher can actually mediate together (an
    // arbitrary triple may share no θ-similar attributes, which makes the
    // fully pinned problem infeasible for *any* solver — that would test
    // the generator's luck, not the feedback loop).
    let ids: Vec<_> = fx.synth.universe.source_ids().collect();
    let probe = fx.problem(Constraints::with_max_sources(3));
    let triple = ids
        .iter()
        .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
        .flat_map(|(a, b)| ids.iter().map(move |&c| [a, b, c]))
        .filter(|[a, b, c]| a < b && b < c)
        .find(|t| {
            let cand: std::collections::BTreeSet<_> = t.iter().copied().collect();
            match probe.evaluate(&cand) {
                mube_core::CandidateEval::Feasible(sol) => sol.schema.is_valid_on(&cand),
                mube_core::CandidateEval::Infeasible => false,
            }
        })
        .expect("some triple of 20 sources is mediable");
    // Pinning up to m sources must succeed...
    for id in triple {
        session.pin_source(id).expect("within m");
    }
    // ...pinning more sources than m must fail...
    let overflow = ids.iter().find(|id| !triple.contains(id)).unwrap();
    assert!(session.pin_source(*overflow).is_err());
    // ...and the session must still be usable afterwards.
    let sol = session.run().expect("feasible").clone();
    assert_eq!(sol.sources.len(), 3);
}

#[test]
fn continuity_keeps_small_edits_small() {
    // With continuity, a tiny weight nudge should barely move the solution;
    // without it, the re-solve is free to land elsewhere.
    let build = |continuity: bool| {
        let fx = Fixture::new(40, 30);
        let problem = fx.problem(Constraints::with_max_sources(10));
        let session = mube_core::Session::new(problem, Box::new(mube_integration::ci_tabu()), 30);
        (
            fx,
            if continuity {
                session.with_continuity()
            } else {
                session
            },
        )
    };
    let (_fx, mut with) = build(true);
    let first = with.run().expect("feasible").clone();
    with.set_weight("coverage", 0.21).expect("QEF exists"); // tiny nudge
    let second = with.run().expect("feasible").clone();
    // The warm start guarantees the old solution is the incumbent's
    // starting point, so the re-solve can only match or beat it under the
    // new weights.
    let old_under_new = match with.problem().evaluate(&first.sources) {
        mube_core::CandidateEval::Feasible(sol) => sol.quality,
        mube_core::CandidateEval::Infeasible => panic!("old solution stays feasible"),
    };
    assert!(second.quality >= old_under_new - 1e-9);
    // And the drift from a negligible nudge stays small.
    let diff = first.diff(&second);
    assert!(diff.sources_changed() <= 4, "drifted too far: {diff:?}");
}

#[test]
fn continuity_still_honours_new_constraints() {
    let fx = Fixture::new(30, 31);
    let problem = fx.problem(Constraints::with_max_sources(6));
    let mut session = mube_core::Session::new(problem, Box::new(mube_integration::ci_tabu()), 31)
        .with_continuity();
    session.run().expect("feasible");
    // Pin a source that was (likely) not selected; the warm start must be
    // repaired to include it.
    let unselected = fx
        .synth
        .universe
        .source_ids()
        .find(|s| !session.latest().unwrap().sources.contains(s))
        .expect("some source is unselected");
    session.pin_source(unselected).expect("valid");
    let sol = session.run().expect("feasible");
    assert!(sol.sources.contains(&unselected));
    assert!(sol.sources.len() <= 6);
}

/// Pins, `m` and weights do not change the clustering, so the matcher's
/// component memo answers every re-evaluation after them; a new `θ`
/// clusters afresh.
#[test]
fn component_memo_survives_feedback() {
    let fx = Fixture::new(30, 12);
    let mut session = fx.session(Constraints::with_max_sources(8).theta(0.5), 12);
    let candidate: std::collections::BTreeSet<_> = fx.synth.universe.source_ids().take(6).collect();
    let score = session.problem().objective(&candidate);
    let cold = fx.matcher.memo_stats();
    assert!(cold.misses > 0, "{cold:?}");

    let pin = *candidate.iter().next().unwrap();
    session.set_weight("coverage", 0.4).unwrap();
    session.pin_source(pin).unwrap();
    session.set_max_sources(7).unwrap();
    let _ = session.problem().objective(&candidate);
    let warm = fx.matcher.memo_stats();
    assert_eq!(warm.misses, cold.misses, "{warm:?}");
    assert_eq!(warm.hits, cold.hits + cold.misses);

    session.set_weight("coverage", 0.2).unwrap();
    session.unpin_source(pin).unwrap();
    session.set_max_sources(8).unwrap();
    assert_eq!(
        session.problem().objective(&candidate).to_bits(),
        score.to_bits()
    );
    session.set_theta(0.6).unwrap();
    let _ = session.problem().objective(&candidate);
    assert!(fx.matcher.memo_stats().misses > warm.misses);
}

/// The component memo stays within its cap across many solves on one
/// problem, checked after every matcher call: 12 solves with seeds 0–11
/// over 200 sources at `m` = 20 miss far more components than the cap.
#[test]
fn component_memo_stays_within_its_cap() {
    use mube_core::{MatchOperator, MatchOutcome, SourceId, Universe};
    use mube_match::COMPONENT_MEMO_CAP;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Records the most memo entries seen after any call.
    struct Probe {
        inner: Arc<mube_match::ClusterMatcher>,
        most: AtomicUsize,
    }
    impl MatchOperator for Probe {
        fn match_sources(
            &self,
            universe: &Universe,
            sources: &BTreeSet<SourceId>,
            constraints: &Constraints,
        ) -> MatchOutcome {
            let out = self.inner.match_sources(universe, sources, constraints);
            let entries = self.inner.memo_stats().entries;
            // ordering: a statistic, read only after the solve returns.
            self.most.fetch_max(entries, Ordering::Relaxed);
            out
        }
    }

    let fx = Fixture::new(200, 21);
    let probe = Arc::new(Probe {
        inner: Arc::clone(&fx.matcher),
        most: AtomicUsize::new(0),
    });
    let problem = mube_core::Problem::new(
        Arc::clone(&fx.synth.universe),
        Arc::clone(&probe) as Arc<dyn MatchOperator>,
        mube_core::qefs::paper_default_qefs("mttf"),
        Constraints::with_max_sources(20),
    )
    .unwrap();
    for seed in 0..12 {
        problem
            .solve(&mube_integration::ci_tabu(), seed)
            .expect("feasible");
        // ordering: read after the solve returned.
        let most = probe.most.load(Ordering::Relaxed);
        assert!(most <= COMPONENT_MEMO_CAP, "solve {seed}: {most} entries");
    }
    let stats = fx.matcher.memo_stats();
    assert!(
        stats.misses > 2 * COMPONENT_MEMO_CAP as u64,
        "the cap was never reached: {stats:?}"
    );
}
