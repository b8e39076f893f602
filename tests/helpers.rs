//! Shared fixtures for the cross-crate integration tests.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mube_core::constraints::Constraints;
use mube_core::problem::Problem;
use mube_core::qefs::paper_default_qefs;
use mube_core::session::Session;
use mube_match::similarity::JaccardNGram;
use mube_match::ClusterMatcher;
use mube_opt::{
    ParticleSwarm, Portfolio, SimulatedAnnealing, StochasticLocalSearch, SubsetSolver, TabuSearch,
};
use mube_synth::{generate, SynthConfig, SynthUniverse};

/// A generated universe, the matcher over it, and the generator's output.
pub struct Fixture {
    /// The synthetic universe with ground truth.
    pub synth: SynthUniverse,
    /// The clustering matcher.
    pub matcher: Arc<ClusterMatcher>,
}

impl Fixture {
    /// Generates a small fixture (fast enough for CI).
    pub fn new(num_sources: usize, seed: u64) -> Self {
        let synth = generate(&SynthConfig::small(num_sources), seed);
        let matcher = Arc::new(ClusterMatcher::new(
            Arc::clone(&synth.universe),
            JaccardNGram::trigram(),
        ));
        Fixture { synth, matcher }
    }

    /// Builds a problem with the paper's default QEFs.
    pub fn problem(&self, constraints: Constraints) -> Problem {
        Problem::new(
            Arc::clone(&self.synth.universe),
            Arc::clone(&self.matcher) as Arc<dyn mube_core::MatchOperator>,
            paper_default_qefs("mttf"),
            constraints,
        )
        .expect("fixture constraints must be valid")
    }

    /// Builds a session with a CI-sized solver budget.
    pub fn session(&self, constraints: Constraints, seed: u64) -> Session {
        Session::new(self.problem(constraints), Box::new(ci_tabu()), seed)
    }
}

/// A solver budget small enough for CI but big enough to find good
/// solutions on small fixtures.
pub fn ci_tabu() -> TabuSearch {
    TabuSearch {
        max_evaluations: 1_200,
        max_iterations: 200,
        ..TabuSearch::default()
    }
}

/// A CI-budgeted portfolio: `copies` rounds of tabu/SLS/annealing/PSO
/// (so `4 * copies` members) spread over `threads` OS threads. The
/// determinism contract does not depend on budgets, so tests stress the
/// portfolio cheaply through this instead of the 20k-evaluation defaults.
pub fn ci_portfolio(copies: usize, threads: usize) -> Portfolio {
    let mut members: Vec<Box<dyn SubsetSolver>> = Vec::new();
    for _ in 0..copies.max(1) {
        members.push(Box::new(TabuSearch {
            max_evaluations: 300,
            max_iterations: 60,
            ..TabuSearch::default()
        }));
        members.push(Box::new(StochasticLocalSearch {
            max_evaluations: 300,
            ..Default::default()
        }));
        members.push(Box::new(SimulatedAnnealing {
            max_evaluations: 300,
            ..Default::default()
        }));
        members.push(Box::new(ParticleSwarm {
            max_evaluations: 300,
            ..Default::default()
        }));
    }
    Portfolio::new(members).threads(threads)
}

/// A fresh data directory under the system temp dir, named after the
/// suite, the process and `tag`. Dropping it removes the directory when
/// the test passed; a panicking test keeps it as evidence.
pub struct TestDir(PathBuf);

impl TestDir {
    /// Creates `mube-{suite}-{pid}-{tag}`, emptying any leftover first.
    pub fn new(suite: &str, tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mube-{suite}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test data dir");
        TestDir(dir)
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TestDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
