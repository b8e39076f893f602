//! Golden results for every way into a solver: each solver (and a
//! two-member portfolio) on a fixed toy objective, from a cold start, a warm
//! start, and a warm start inside a trust region of radius 2, with and
//! without an already-fired deadline. The pinned values are byte-exact
//! (`score` as its bit pattern), so any change to how a start or a cancel
//! token reaches the search shows up here.

use std::sync::Arc;
use std::time::Duration;

use mube_opt::{
    CancelToken, ManualClock, ParticleSwarm, Portfolio, SimulatedAnnealing, SolveResult, Start,
    StochasticLocalSearch, SubsetObjective, SubsetSolver, TabuSearch,
};

/// Element values plus a bonus for adjacent pairs, with one required
/// element: rugged enough that solvers and starts land in different places.
struct Toy;

impl SubsetObjective for Toy {
    fn universe_size(&self) -> usize {
        24
    }
    fn max_selected(&self) -> usize {
        6
    }
    fn required(&self) -> Vec<usize> {
        vec![3]
    }
    fn score(&self, selected: &[usize]) -> f64 {
        let base: f64 = selected.iter().map(|&i| ((i * 37) % 23) as f64 / 7.0).sum();
        let pairs = selected.windows(2).filter(|w| w[1] == w[0] + 1).count();
        base + 0.9 * pairs as f64
    }
}

const SEED: u64 = 2024;
const WARM: &[usize] = &[0, 1, 2, 3];

fn solvers() -> Vec<Box<dyn SubsetSolver>> {
    vec![
        Box::new(TabuSearch::default()),
        Box::new(StochasticLocalSearch::default()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(ParticleSwarm::default()),
        Box::new(
            Portfolio::new(vec![
                Box::new(TabuSearch::default()),
                Box::new(StochasticLocalSearch::default()),
            ])
            .threads(2),
        ),
    ]
}

fn starts() -> [(&'static str, Start<'static>); 3] {
    [
        ("cold", Start::Cold),
        ("warm", Start::Warm(WARM)),
        ("within2", Start::Within(WARM, 2)),
    ]
}

/// A deadline that has already passed: every solver gets exactly its
/// guaranteed first evaluation.
fn fired() -> CancelToken {
    CancelToken::with_deadline(Arc::new(ManualClock::new()), Duration::ZERO)
}

fn run(solver: &dyn SubsetSolver, start: Start<'_>, cancel: &CancelToken) -> SolveResult {
    solver.solve_with(&Toy, SEED, start, cancel)
}

fn line(solver: &str, start: &str, token: &str, r: &SolveResult) -> String {
    format!(
        "{solver} {start} {token}: {:?} {:#018x} evals={} iters={} timed_out={}",
        r.selected,
        r.score.to_bits(),
        r.evaluations,
        r.iterations,
        r.timed_out
    )
}

const GOLDEN: &[&str] = &[
    "tabu cold none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=1824 iters=54 timed_out=false",
    "tabu cold fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "tabu warm none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=1728 iters=51 timed_out=false",
    "tabu warm fired: [0, 1, 2, 3] 0x402041d41d41d41e evals=1 iters=0 timed_out=true",
    "tabu within2 none: [0, 1, 2, 3, 13, 18] 0x402c8af8af8af8b0 evals=625 iters=43 timed_out=false",
    "tabu within2 fired: [0, 1, 2, 3] 0x402041d41d41d41e evals=1 iters=0 timed_out=true",
    "sls cold none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=20000 iters=19992 timed_out=false",
    "sls cold fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "sls warm none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=20000 iters=19992 timed_out=false",
    "sls warm fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "sls within2 none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=20000 iters=19992 timed_out=false",
    "sls within2 fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "annealing cold none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=8514 iters=8513 timed_out=false",
    "annealing cold fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "annealing warm none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=8514 iters=8513 timed_out=false",
    "annealing warm fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "annealing within2 none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=8514 iters=8513 timed_out=false",
    "annealing within2 fired: [1, 2, 3, 5, 15, 23] 0x401f333333333334 evals=1 iters=0 timed_out=true",
    "pso cold none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=4800 iters=200 timed_out=false",
    "pso cold fired: [2, 3, 9] 0x401799999999999a evals=1 iters=1 timed_out=true",
    "pso warm none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=4800 iters=200 timed_out=false",
    "pso warm fired: [2, 3, 9] 0x401799999999999a evals=1 iters=1 timed_out=true",
    "pso within2 none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=4800 iters=200 timed_out=false",
    "pso within2 fired: [2, 3, 9] 0x401799999999999a evals=1 iters=1 timed_out=true",
    "portfolio(tabu,sls) cold none: [3, 8, 13, 16, 17, 18] 0x403115f15f15f15f evals=22752 iters=20075 timed_out=false",
    "portfolio(tabu,sls) cold fired: [0, 1, 3, 9, 14, 23] 0x4021cccccccccccd evals=2 iters=0 timed_out=true",
    "portfolio(tabu,sls) warm none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=21568 iters=20038 timed_out=false",
    "portfolio(tabu,sls) warm fired: [3, 10, 17, 20, 21, 23] 0x40205f15f15f15f1 evals=2 iters=0 timed_out=true",
    "portfolio(tabu,sls) within2 none: [3, 8, 13, 14, 18, 19] 0x403115f15f15f15f evals=20604 iters=20034 timed_out=false",
    "portfolio(tabu,sls) within2 fired: [3, 10, 17, 20, 21, 23] 0x40205f15f15f15f1 evals=2 iters=0 timed_out=true",
];

#[test]
fn every_entry_point_matches_its_golden_result() {
    let mut got = Vec::new();
    for solver in solvers() {
        for (start_name, start) in starts() {
            for (token_name, token) in [("none", CancelToken::none()), ("fired", fired())] {
                let r = run(solver.as_ref(), start, &token);
                got.push(line(solver.name(), start_name, token_name, &r));
            }
        }
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn plain_solve_is_the_cold_uncancelled_run() {
    for solver in solvers() {
        assert_eq!(
            solver.solve(&Toy, SEED),
            run(solver.as_ref(), Start::Cold, &CancelToken::none()),
            "{}",
            solver.name()
        );
    }
}

#[test]
fn baselines_ignore_warm_starts() {
    let baselines: Vec<Box<dyn SubsetSolver>> = vec![
        Box::new(StochasticLocalSearch::default()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(ParticleSwarm::default()),
    ];
    for solver in baselines {
        for token in [CancelToken::none(), fired()] {
            let cold = run(solver.as_ref(), Start::Cold, &token);
            for (_, start) in starts() {
                assert_eq!(
                    run(solver.as_ref(), start, &token),
                    cold,
                    "{}",
                    solver.name()
                );
            }
        }
    }
}
