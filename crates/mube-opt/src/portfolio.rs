//! A parallel multi-start solver portfolio.
//!
//! Runs N independently-seeded member solvers (any mix of tabu, SLS,
//! annealing, PSO) against one objective, spread across OS threads, and
//! returns the best result. The portfolio is the repo's answer to two
//! facts about metaheuristics on the `µBE` problem: restarts with different
//! seeds escape different local optima, and the member runs are
//! embarrassingly parallel.
//!
//! ## Determinism contract
//!
//! For a fixed `(seed, member list)` the outcome is **byte-identical no
//! matter how many threads run it**:
//!
//! * every member `w` gets its own seed stream derived from `(seed, w)` by
//!   a SplitMix64-style mix — thread scheduling never touches RNG state;
//! * members share no search state: each writes only its own result slot;
//! * the winner is chosen after all members finish, by highest score with
//!   ties broken toward the lowest worker id — a total order independent
//!   of completion order.
//!
//! Threads only decide *when* each member runs, never *what* it computes.
//!
//! Each member run, like any solver run, scores through its own
//! [`SubsetObjective::worker_view`] (`mube_core::Problem` hands out an
//! incremental evaluator), so members never contend on scoring state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::anneal::SimulatedAnnealing;
use crate::cancel::CancelToken;
use crate::problem::{
    debug_validate_result, SolveResult, Start, SubsetObjective, SubsetSolver,
    DEFAULT_MAX_EVALUATIONS,
};
use crate::pso::ParticleSwarm;
use crate::sls::StochasticLocalSearch;
use crate::tabu::TabuSearch;

/// Process-wide count of portfolio member panics contained by
/// [`Portfolio`] runs (see [`member_panics_total`]).
static MEMBER_PANICS_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Cumulative number of member panics contained across every portfolio run
/// in this process. A member that panics is dropped from its run (the
/// best of the survivors still wins); this counter surfaces the
/// failures for monitoring, e.g. the `member_panics` field in
/// `mube-serve`'s `/metrics`.
pub fn member_panics_total() -> u64 {
    // ordering: monotone event counter read for metrics; no other memory
    // depends on its value, so a stale read is harmless.
    MEMBER_PANICS_TOTAL.load(Ordering::Relaxed)
}

/// One member's completed run.
#[derive(Debug, Clone)]
pub struct MemberRun {
    /// The member's index in the portfolio (its worker id).
    pub worker: usize,
    /// The member solver's name.
    pub solver: String,
    /// The member's own best result.
    pub result: SolveResult,
}

/// The full outcome of a portfolio run: the aggregate result plus every
/// member's incumbent.
#[derive(Debug, Clone)]
pub struct PortfolioRun {
    /// Worker id of the winning member.
    pub winner: usize,
    /// The winner's selection and score; `evaluations`/`iterations` are
    /// summed across all members (the work the portfolio actually did), and
    /// `timed_out` is set if *any* member was cut short by the cancel token.
    pub result: SolveResult,
    /// Every surviving member's run, in worker order. Members whose solver
    /// panicked are absent (their panic is contained and counted in
    /// [`PortfolioRun::member_panics`]).
    pub members: Vec<MemberRun>,
    /// Number of members whose solver panicked during this run.
    pub member_panics: u64,
}

/// A parallel multi-start portfolio of subset solvers.
pub struct Portfolio {
    members: Vec<Box<dyn SubsetSolver>>,
    threads: usize,
    label: String,
}

/// The name → solver table: the default-configured solver called `name`
/// (`tabu`, `sls`, `anneal`/`annealing` or `pso`; its
/// [`SubsetSolver::name`] is the canonical form) with its evaluation budget
/// capped at `max_evaluations`, or `None` for an unknown name. At
/// [`DEFAULT_MAX_EVALUATIONS`] it is exactly the solver's `Default`.
pub fn solver_by_name(name: &str, max_evaluations: u64) -> Option<Box<dyn SubsetSolver>> {
    Some(match name {
        "tabu" => Box::new(TabuSearch {
            max_evaluations,
            ..TabuSearch::default()
        }),
        "sls" => Box::new(StochasticLocalSearch {
            max_evaluations,
            ..Default::default()
        }),
        "anneal" | "annealing" => Box::new(SimulatedAnnealing {
            max_evaluations,
            ..Default::default()
        }),
        "pso" => Box::new(ParticleSwarm {
            max_evaluations,
            ..Default::default()
        }),
        _ => return None,
    })
}

/// Canonicalizes a `tabu,sls,anneal` spec into member solver names.
/// Accepted tokens are the names [`solver_by_name`] accepts.
pub fn parse_portfolio_spec(spec: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for raw in spec.split(',') {
        let tok = raw.trim();
        if tok.is_empty() {
            continue;
        }
        let solver = solver_by_name(tok, DEFAULT_MAX_EVALUATIONS).ok_or_else(|| {
            format!("unknown portfolio member `{tok}` (expected tabu, sls, anneal, or pso)")
        })?;
        names.push(solver.name().to_string());
    }
    if names.is_empty() {
        return Err("empty portfolio spec".into());
    }
    Ok(names)
}

/// The member mix a portfolio runs when only a thread count or restarts
/// ask for one.
pub const DEFAULT_PORTFOLIO: &str = "tabu,sls,anneal,pso";

/// How a solve runs: one named solver, or a portfolio. Every front end
/// (the CLI's `solve`, `scale-solve` and `exec`, the server's
/// `POST /sessions`) decides it with [`SolverChoice::new`] and builds it
/// with [`SolverChoice::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverChoice {
    /// The single solver's canonical name (`tabu` unless one was named).
    pub solver: String,
    /// The portfolio spec in force; `None` runs the single solver.
    pub portfolio: Option<String>,
    /// Copies of each portfolio member.
    pub restarts: usize,
    /// OS threads a portfolio spreads its members over.
    pub threads: usize,
}

impl SolverChoice {
    /// The rule: a `portfolio` spec runs that portfolio, and `threads` or
    /// `restarts > 1` alone run [`DEFAULT_PORTFOLIO`] (even at one thread,
    /// so thread counts compare on otherwise identical runs); otherwise the
    /// single `solver` runs, `tabu` by default. A named `solver` together
    /// with a portfolio is refused, as is an unknown name.
    pub fn new(
        solver: Option<&str>,
        portfolio: Option<&str>,
        threads: Option<usize>,
        restarts: usize,
    ) -> Result<SolverChoice, String> {
        let portfolio =
            portfolio.or((threads.is_some() || restarts > 1).then_some(DEFAULT_PORTFOLIO));
        if let (Some(name), Some(_)) = (solver, portfolio) {
            return Err(format!(
                "solver `{name}` cannot be combined with a portfolio, threads or restarts"
            ));
        }
        if let Some(spec) = portfolio {
            parse_portfolio_spec(spec)?;
        }
        let name = solver.unwrap_or("tabu");
        let single = solver_by_name(name, DEFAULT_MAX_EVALUATIONS).ok_or_else(|| {
            format!("unknown solver `{name}` (expected tabu, sls, anneal, or pso)")
        })?;
        Ok(SolverChoice {
            solver: single.name().to_string(),
            portfolio: portfolio.map(str::to_string),
            restarts,
            threads: threads.unwrap_or(1),
        })
    }

    /// The member runs one solve starts: portfolio members × restarts, or
    /// 1 for a single solver.
    pub fn runs(&self) -> usize {
        self.portfolio.as_deref().map_or(1, |spec| {
            parse_portfolio_spec(spec).map_or(0, |names| names.len() * self.restarts)
        })
    }

    /// The solver itself, each member capped at `max_evaluations`.
    pub fn build(&self, max_evaluations: u64) -> Result<Box<dyn SubsetSolver>, String> {
        match &self.portfolio {
            Some(spec) => Ok(Box::new(
                Portfolio::from_spec(spec, self.restarts, max_evaluations)?.threads(self.threads),
            )),
            None => solver_by_name(&self.solver, max_evaluations)
                .ok_or_else(|| format!("unknown solver `{}`", self.solver)),
        }
    }
}

impl Portfolio {
    /// Builds a portfolio over explicit members. The member list (order
    /// included) is part of the determinism contract.
    ///
    /// # Panics
    /// If `members` is empty.
    pub fn new(members: Vec<Box<dyn SubsetSolver>>) -> Self {
        assert!(!members.is_empty(), "a portfolio needs at least one member");
        let names: Vec<&str> = members.iter().map(|m| m.name()).collect();
        let label = format!("portfolio({})", names.join(","));
        Portfolio {
            members,
            threads: 1,
            label,
        }
    }

    /// Builds a portfolio from a comma-separated spec, with each listed
    /// member repeated `restarts` times (different seed streams per copy)
    /// and capped at `max_evaluations`. `restarts` is clamped to at least 1.
    pub fn from_spec(spec: &str, restarts: usize, max_evaluations: u64) -> Result<Self, String> {
        let names = parse_portfolio_spec(spec)?;
        let mut members: Vec<Box<dyn SubsetSolver>> = Vec::new();
        for _ in 0..restarts.max(1) {
            for name in &names {
                members
                    .push(solver_by_name(name, max_evaluations).expect("spec names are canonical"));
            }
        }
        Ok(Portfolio::new(members))
    }

    /// Sets the number of OS threads the members are spread over (clamped
    /// to at least 1). Affects wall-clock only, never results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The seed stream for member `worker`: a `SplitMix64` finalizer over the
    /// run seed and the worker id, so streams are decorrelated and depend
    /// only on `(seed, worker)`.
    fn worker_seed(seed: u64, worker: u64) -> u64 {
        let mut z = seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs every member cold and returns the full outcome.
    pub fn run(&self, objective: &dyn SubsetObjective, seed: u64) -> PortfolioRun {
        self.run_with(objective, seed, Start::Cold, &CancelToken::none())
    }

    /// Runs every member from `start` (members without a warm-start notion
    /// start cold) under one shared [`CancelToken`] that every member polls
    /// between evaluations — one deadline bounds the whole portfolio.
    pub fn run_with(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        start: Start<'_>,
        cancel: &CancelToken,
    ) -> PortfolioRun {
        let n = self.members.len();
        let next_job = AtomicUsize::new(0);
        let slots: Vec<OnceLock<SolveResult>> = (0..n).map(|_| OnceLock::new()).collect();
        let panics = AtomicU64::new(0);

        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        // ordering: job-ticket counter; fetch_add's
                        // atomicity alone guarantees each index is handed
                        // out once, and results flow back through the
                        // per-member slots, read after the scope joins.
                        let w = next_job.fetch_add(1, Ordering::Relaxed);
                        if w >= n {
                            break;
                        }
                        let wseed = Portfolio::worker_seed(seed, w as u64);
                        // Contain member panics: a panicking member forfeits
                        // its slot, the best survivor still wins, and
                        // the failure is counted instead of poisoning the
                        // whole portfolio (and the server worker above it).
                        // Unwinding drops the member's view with its run.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            self.members[w].solve_with(objective, wseed, start, cancel)
                        }));
                        let result = match outcome {
                            Ok(result) => result,
                            Err(_) => {
                                // ordering: pure event counters; readers
                                // only need eventual totals, never a
                                // happens-before edge.
                                panics.fetch_add(1, Ordering::Relaxed);
                                MEMBER_PANICS_TOTAL.fetch_add(1, Ordering::Relaxed); // ordering: ditto
                                continue;
                            }
                        };
                        slots[w].set(result).expect("each job index runs once");
                    }
                });
            }
        });

        let members: Vec<MemberRun> = slots
            .into_iter()
            .enumerate()
            .filter_map(|(w, slot)| {
                slot.into_inner().map(|result| MemberRun {
                    worker: w,
                    solver: self.members[w].name().to_string(),
                    result,
                })
            })
            .collect();
        assert!(
            !members.is_empty(),
            "every portfolio member panicked; no result to return"
        );

        // Deterministic winner: highest score, first (lowest) worker on
        // ties. Scanning in worker order keeps the tie-break implicit.
        let mut best = 0;
        for (i, m) in members.iter().enumerate().skip(1) {
            if m.result
                .score
                .total_cmp(&members[best].result.score)
                .is_gt()
            {
                best = i;
            }
        }
        let winner = members[best].worker;
        let mut result = members[best].result.clone();
        result.evaluations = members.iter().map(|m| m.result.evaluations).sum();
        result.iterations = members.iter().map(|m| m.result.iterations).sum();
        result.timed_out = members.iter().any(|m| m.result.timed_out);
        debug_validate_result(objective, &result);
        PortfolioRun {
            winner,
            result,
            members,
            member_panics: panics.into_inner(),
        }
    }
}

impl SubsetSolver for Portfolio {
    fn name(&self) -> &str {
        &self.label
    }

    fn solve_with(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        start: Start<'_>,
        cancel: &CancelToken,
    ) -> SolveResult {
        self.run_with(objective, seed, start, cancel).result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum-of-values toy objective with a rugged twist: a parity bonus so
    /// different members plausibly land in different optima.
    struct Toy {
        values: Vec<f64>,
        max: usize,
        required: Vec<usize>,
    }

    impl SubsetObjective for Toy {
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
            let base: f64 = selected.iter().map(|&i| self.values[i]).sum();
            let parity_bonus = if selected.len().is_multiple_of(2) {
                0.5
            } else {
                0.0
            };
            base + parity_bonus
        }
    }

    fn toy() -> Toy {
        Toy {
            values: (0..20).map(|i| (i as f64 * 7.3) % 5.0).collect(),
            max: 6,
            required: vec![3],
        }
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(
            parse_portfolio_spec("tabu,sls,anneal").unwrap(),
            vec!["tabu", "sls", "annealing"]
        );
        assert_eq!(
            parse_portfolio_spec(" pso , tabu ").unwrap(),
            vec!["pso", "tabu"]
        );
        assert!(parse_portfolio_spec("").is_err());
        assert!(parse_portfolio_spec("tabu,genetic").is_err());
    }

    #[test]
    fn solver_choice_rule() {
        let choose = |solver, portfolio, threads, restarts| {
            SolverChoice::new(solver, portfolio, threads, restarts)
        };
        let single = choose(Some("anneal"), None, None, 1).unwrap();
        assert_eq!(single.solver, "annealing");
        assert_eq!(single.portfolio, None);
        assert_eq!(single.runs(), 1);
        assert_eq!(single.build(50).unwrap().name(), "annealing");
        // A thread count or restarts alone engage the default mix.
        for (threads, restarts) in [(Some(1), 1), (None, 2)] {
            let c = choose(None, None, threads, restarts).unwrap();
            assert_eq!(c.portfolio.as_deref(), Some(DEFAULT_PORTFOLIO));
            assert_eq!(c.runs(), 4 * restarts);
        }
        let c = choose(None, Some("tabu,sls"), Some(3), 2).unwrap();
        assert_eq!((c.runs(), c.threads), (4, 3));
        assert_eq!(c.build(50).unwrap().name(), "portfolio(tabu,sls,tabu,sls)");
        // A named solver is never silently dropped for a portfolio.
        assert!(choose(Some("sls"), None, Some(4), 1).is_err());
        assert!(choose(Some("tabu"), None, None, 2).is_err());
        assert!(choose(Some("tabu"), Some("sls"), None, 1).is_err());
        assert!(choose(Some("genetic"), None, None, 1).is_err());
        assert!(choose(None, Some("tabu,genetic"), None, 1).is_err());
    }

    #[test]
    fn from_spec_repeats_members() {
        let p = Portfolio::from_spec("tabu,sls", 3, DEFAULT_MAX_EVALUATIONS).unwrap();
        assert_eq!(p.member_count(), 6);
        assert_eq!(p.name(), "portfolio(tabu,sls,tabu,sls,tabu,sls)");
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let obj = toy();
        let runs: Vec<PortfolioRun> = [1usize, 2, 4, 8]
            .iter()
            .map(|&t| {
                Portfolio::from_spec("tabu,sls,anneal,pso", 2, DEFAULT_MAX_EVALUATIONS)
                    .unwrap()
                    .threads(t)
                    .run(&obj, 7)
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.result, runs[0].result);
            assert_eq!(r.winner, runs[0].winner);
            for (a, b) in r.members.iter().zip(&runs[0].members) {
                assert_eq!(a.result, b.result, "member {} diverged", a.worker);
            }
        }
    }

    #[test]
    fn winner_is_best_member_lowest_worker_on_ties() {
        let obj = toy();
        let p = Portfolio::from_spec("tabu", 4, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(2);
        let run = p.run(&obj, 11);
        let best = run
            .members
            .iter()
            .map(|m| m.result.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(run.result.score, best);
        let first_best = run
            .members
            .iter()
            .position(|m| m.result.score == best)
            .unwrap();
        assert_eq!(run.winner, first_best);
    }

    #[test]
    fn evaluations_aggregate_across_members() {
        let obj = toy();
        let run = Portfolio::from_spec("tabu,sls", 1, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(2)
            .run(&obj, 5);
        let sum: u64 = run.members.iter().map(|m| m.result.evaluations).sum();
        assert_eq!(run.result.evaluations, sum);
        assert!(sum > 0);
    }

    #[test]
    fn warm_start_passthrough_is_deterministic() {
        let obj = toy();
        let p = Portfolio::from_spec("tabu,sls,anneal", 1, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(3);
        let warm = vec![3, 5, 9];
        let none = CancelToken::none();
        let a = p.run_with(&obj, 13, Start::Warm(&warm), &none);
        let b = Portfolio::from_spec("tabu,sls,anneal", 1, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(1)
            .run_with(&obj, 13, Start::Warm(&warm), &none);
        assert_eq!(a.result, b.result);
        let c = p.run_with(&obj, 13, Start::Within(&warm, 2), &none);
        let d = Portfolio::from_spec("tabu,sls,anneal", 1, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(1)
            .run_with(&obj, 13, Start::Within(&warm, 2), &none);
        assert_eq!(c.result, d.result);
    }

    #[test]
    fn worker_seeds_are_decorrelated() {
        let mut seen = std::collections::BTreeSet::new();
        for w in 0..64 {
            assert!(seen.insert(Portfolio::worker_seed(42, w)));
        }
        assert_ne!(Portfolio::worker_seed(42, 0), 42, "seed 0 is mixed too");
    }

    /// An objective that counts the views it hands out and the candidates
    /// scored through them and through itself.
    struct Counting {
        inner: Toy,
        views: AtomicUsize,
        view_scores: AtomicUsize,
        direct_scores: AtomicUsize,
    }

    /// A view of [`Counting`]: scores like it, counted apart.
    struct CountingView<'a>(&'a Counting);

    impl SubsetObjective for CountingView<'_> {
        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }
        fn max_selected(&self) -> usize {
            self.0.max_selected()
        }
        fn required(&self) -> Vec<usize> {
            self.0.required()
        }
        fn score(&self, selected: &[usize]) -> f64 {
            self.0.view_scores.fetch_add(1, Ordering::Relaxed);
            self.0.inner.score(selected)
        }
    }

    impl SubsetObjective for Counting {
        fn universe_size(&self) -> usize {
            self.inner.universe_size()
        }
        fn max_selected(&self) -> usize {
            self.inner.max_selected()
        }
        fn required(&self) -> Vec<usize> {
            self.inner.required()
        }
        fn score(&self, selected: &[usize]) -> f64 {
            self.direct_scores.fetch_add(1, Ordering::Relaxed);
            self.inner.score(selected)
        }
        fn worker_view(&self) -> Option<Box<dyn SubsetObjective + '_>> {
            self.views.fetch_add(1, Ordering::Relaxed);
            Some(Box::new(CountingView(self)))
        }
    }

    /// Every solver run — each portfolio member, and a lone run — takes
    /// exactly one view and scores every candidate through it.
    #[test]
    fn one_view_per_solver_run() {
        let counting = || Counting {
            inner: toy(),
            views: AtomicUsize::new(0),
            view_scores: AtomicUsize::new(0),
            direct_scores: AtomicUsize::new(0),
        };
        let counts = |obj: &Counting| {
            (
                obj.views.load(Ordering::Relaxed),
                obj.view_scores.load(Ordering::Relaxed) as u64,
                obj.direct_scores.load(Ordering::Relaxed),
            )
        };
        let obj = counting();
        let run = Portfolio::from_spec("tabu,sls,anneal,pso", 2, 500)
            .unwrap()
            .threads(3)
            .run(&obj, 1);
        assert_eq!(counts(&obj), (8, run.result.evaluations, 0));

        let obj = counting();
        let lone = TabuSearch::default().solve(&obj, 1);
        assert_eq!(counts(&obj), (1, lone.evaluations, 0));
    }

    /// A member that always panics, for containment tests.
    struct PanickingSolver;

    impl SubsetSolver for PanickingSolver {
        fn name(&self) -> &str {
            "boom"
        }
        fn solve_with(
            &self,
            _objective: &dyn SubsetObjective,
            _seed: u64,
            _start: Start<'_>,
            _cancel: &CancelToken,
        ) -> SolveResult {
            panic!("deliberate member panic (containment test)");
        }
    }

    #[test]
    fn member_panic_is_contained_and_champion_survives() {
        let obj = toy();
        let members: Vec<Box<dyn SubsetSolver>> = vec![
            Box::new(PanickingSolver),
            Box::new(TabuSearch::default()),
            Box::new(PanickingSolver),
            Box::new(StochasticLocalSearch::default()),
        ];
        let run = Portfolio::new(members).threads(2).run(&obj, 21);
        assert_eq!(run.member_panics, 2);
        assert_eq!(run.members.len(), 2, "panicked members forfeit their slot");
        let workers: Vec<usize> = run.members.iter().map(|m| m.worker).collect();
        assert_eq!(workers, vec![1, 3]);
        assert!(run.winner == 1 || run.winner == 3);
        assert!(run.result.score.is_finite());
        assert!(member_panics_total() >= 2);
    }

    #[test]
    fn surviving_members_match_a_panic_free_run() {
        // Containment must not perturb the survivors' determinism.
        let obj = toy();
        let mixed: Vec<Box<dyn SubsetSolver>> = vec![
            Box::new(TabuSearch::default()),
            Box::new(PanickingSolver),
            Box::new(StochasticLocalSearch::default()),
        ];
        let run = Portfolio::new(mixed).threads(3).run(&obj, 9);
        let tabu_alone = TabuSearch::default().solve(&obj, Portfolio::worker_seed(9, 0));
        let sls_alone = StochasticLocalSearch::default().solve(&obj, Portfolio::worker_seed(9, 2));
        assert_eq!(run.members[0].result, tabu_alone);
        assert_eq!(run.members[1].result, sls_alone);
    }

    #[test]
    #[should_panic(expected = "every portfolio member panicked")]
    fn all_members_panicking_is_fatal() {
        let obj = toy();
        let members: Vec<Box<dyn SubsetSolver>> = vec![Box::new(PanickingSolver)];
        Portfolio::new(members).run(&obj, 1);
    }

    #[test]
    fn cancelled_portfolio_returns_best_so_far_flagged() {
        use crate::cancel::{CancelToken, ManualClock};
        use std::sync::Arc;
        use std::time::Duration;

        let obj = toy();
        let clock = Arc::new(ManualClock::new());
        // Deadline already passed: every member gets exactly its guaranteed
        // first evaluation and must still produce a feasible incumbent.
        let token = CancelToken::with_deadline(clock, Duration::ZERO);
        let p = Portfolio::from_spec("tabu,sls,anneal,pso", 1, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(2);
        let run = p.run_with(&obj, 17, Start::Cold, &token);
        assert!(run.result.timed_out);
        assert_eq!(run.members.len(), 4);
        for m in &run.members {
            assert!(m.result.timed_out, "member {} not flagged", m.worker);
            assert!(
                m.result.evaluations >= 1,
                "anytime guarantee needs one eval"
            );
            assert!(m.result.selected.contains(&3), "required element kept");
            assert!(m.result.selected.len() <= obj.max_selected());
        }
        // Without a token the same run is not flagged.
        let clean = p.run(&obj, 17);
        assert!(!clean.result.timed_out);
    }

    #[test]
    fn uncancelled_token_matches_token_free_run() {
        let obj = toy();
        let p = Portfolio::from_spec("tabu,sls", 2, DEFAULT_MAX_EVALUATIONS)
            .unwrap()
            .threads(2);
        let with_token = p.run_with(&obj, 31, Start::Cold, &CancelToken::new());
        let without = p.run(&obj, 31);
        assert_eq!(with_token.result, without.result);
        assert_eq!(with_token.winner, without.winner);
    }
}
