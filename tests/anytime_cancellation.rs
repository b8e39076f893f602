//! Anytime semantics under cancellation, exercised across the whole stack:
//! every solver (and the portfolio) must honour a [`CancelToken`], return a
//! feasible best-so-far incumbent flagged `timed_out`, and that incumbent
//! must survive the post-solve [`SolutionValidator`] like any other
//! solution.

use std::sync::Arc;
use std::time::Duration;

use mube_core::constraints::Constraints;
use mube_core::validate::SolutionValidator;
use mube_integration::{ci_portfolio, ci_tabu, Fixture};
use mube_opt::{
    CancelToken, ManualClock, ParticleSwarm, SimulatedAnnealing, Start, StochasticLocalSearch,
    SubsetObjective, SubsetSolver, TabuSearch,
};

/// A transparent objective: maximize the sum of chosen values. Large enough
/// that an uncancelled run spends far more evaluations than a cancelled one.
struct TopK {
    values: Vec<f64>,
    max: usize,
    required: Vec<usize>,
}

impl TopK {
    fn new(n: usize) -> Self {
        TopK {
            values: (0..n).map(|i| (i as f64 * 17.0) % 101.0).collect(),
            max: 6,
            required: vec![3],
        }
    }
}

impl SubsetObjective for TopK {
    fn universe_size(&self) -> usize {
        self.values.len()
    }
    fn max_selected(&self) -> usize {
        self.max
    }
    fn required(&self) -> Vec<usize> {
        self.required.clone()
    }
    fn score(&self, selected: &[usize]) -> f64 {
        selected.iter().map(|&i| self.values[i]).sum()
    }
}

/// The four paper solvers with a generous budget, so cancellation (not
/// budget exhaustion) is what stops them.
fn solvers() -> Vec<Box<dyn SubsetSolver>> {
    vec![
        Box::new(TabuSearch {
            max_evaluations: 50_000,
            max_iterations: 10_000,
            ..TabuSearch::default()
        }),
        Box::new(StochasticLocalSearch {
            max_evaluations: 50_000,
            ..Default::default()
        }),
        Box::new(SimulatedAnnealing {
            max_evaluations: 50_000,
            ..Default::default()
        }),
        Box::new(ParticleSwarm {
            max_evaluations: 50_000,
            ..Default::default()
        }),
    ]
}

fn assert_feasible(obj: &TopK, result: &mube_opt::SolveResult, name: &str) {
    assert!(
        !result.selected.is_empty(),
        "{name}: anytime guarantee — even instant cancellation yields a non-empty incumbent"
    );
    assert!(
        result.selected.len() <= obj.max,
        "{name}: {:?} exceeds max {}",
        result.selected,
        obj.max
    );
    for req in &obj.required {
        assert!(
            result.selected.contains(req),
            "{name}: dropped required element {req}: {:?}",
            result.selected
        );
    }
    assert!(
        result.selected.windows(2).all(|w| w[0] < w[1]),
        "{name}: selection not sorted/deduped: {:?}",
        result.selected
    );
}

#[test]
fn every_solver_honours_a_precancelled_token() {
    let obj = TopK::new(40);
    for solver in solvers() {
        let name = solver.name().to_string();
        let cancel = CancelToken::new();
        cancel.cancel();
        let cut = solver.solve_with(&obj, 7, Start::Cold, &cancel);
        assert!(cut.timed_out, "{name}: cancelled run must flag timed_out");
        assert_feasible(&obj, &cut, &name);

        let full = solver.solve_with(&obj, 7, Start::Cold, &CancelToken::none());
        assert!(!full.timed_out, "{name}: uncancelled run must not time out");
        assert!(
            cut.evaluations < full.evaluations,
            "{name}: cancellation should cut evaluations ({} vs {})",
            cut.evaluations,
            full.evaluations
        );
        assert!(
            cut.score <= full.score,
            "{name}: a cut run cannot beat the full run on a deterministic seed"
        );
    }
}

#[test]
fn deadline_on_a_manual_clock_is_deterministic() {
    let obj = TopK::new(40);
    let solver = TabuSearch {
        max_evaluations: 50_000,
        max_iterations: 10_000,
        ..TabuSearch::default()
    };
    // A deadline already in the past (zero budget on a frozen clock still
    // reading > 0 after advance) cuts the run after its first evaluation.
    let clock = Arc::new(ManualClock::new());
    clock.advance(Duration::from_millis(5));
    let cancel = CancelToken::with_deadline(Arc::clone(&clock) as _, Duration::ZERO);
    let result = solver.solve_with(&obj, 11, Start::Cold, &cancel);
    assert!(result.timed_out);
    assert_feasible(&obj, &result, "tabu/deadline");

    // A deadline that never arrives (frozen clock, ample budget) changes
    // nothing: byte-identical to an uncancelled run.
    let frozen = CancelToken::with_deadline(Arc::new(ManualClock::new()), Duration::from_secs(60));
    let with_deadline = solver.solve_with(&obj, 11, Start::Cold, &frozen);
    let without = solver.solve(&obj, 11);
    assert_eq!(with_deadline, without);
    assert!(!with_deadline.timed_out);
}

#[test]
fn portfolio_honours_cancellation_and_stays_feasible() {
    let obj = TopK::new(40);
    let portfolio = ci_portfolio(2, 4);
    let cancel = CancelToken::new();
    cancel.cancel();
    let cut = portfolio.solve_with(&obj, 21, Start::Cold, &cancel);
    assert!(cut.timed_out, "portfolio must propagate member timeouts");
    assert_feasible(&obj, &cut, "portfolio");

    let full = portfolio.solve_with(&obj, 21, Start::Cold, &CancelToken::none());
    assert!(!full.timed_out);
    assert!(cut.evaluations < full.evaluations);
}

#[test]
fn deadline_cut_problem_solve_passes_the_validator() {
    let fx = Fixture::new(12, 2007);
    let problem = fx.problem(Constraints::with_max_sources(4));
    let cancel = CancelToken::new();
    cancel.cancel();
    let solution = problem
        .solve_with(&ci_tabu(), 7, Start::Cold, &cancel)
        .expect("cancelled solve still returns a solution");
    assert!(solution.timed_out, "solution must carry the timeout flag");
    assert!(!solution.sources.is_empty());
    let validator = SolutionValidator::for_problem(&problem);
    assert_eq!(
        validator.check(&solution),
        Vec::new(),
        "deadline-cut solutions must satisfy every structural invariant"
    );
}

#[test]
fn session_run_cancel_records_a_valid_iteration() {
    let fx = Fixture::new(12, 2007);
    let mut session = fx.session(Constraints::with_max_sources(4), 7);
    let cancel = CancelToken::new();
    cancel.cancel();
    let quality = {
        let solution = session.run_cancel(&cancel).expect("anytime solve");
        assert!(solution.timed_out);
        assert!(!solution.sources.is_empty());
        solution.quality
    };
    assert!(quality.is_finite());
    // The cut iteration is recorded like any other; the next (uncancelled)
    // iteration proceeds normally from it.
    assert_eq!(session.history().len(), 1);
    let next = session.run_cancel(&CancelToken::none()).expect("solve");
    assert!(!next.timed_out);
    assert_eq!(session.history().len(), 2);
}
