//! # mube-bench — the `µBE` experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§7), plus
//! criterion micro-benchmarks. Each binary prints the same rows/series the
//! paper reports; `run_all` regenerates the data behind `EXPERIMENTS.md`.
//!
//! | Target | Reproduces |
//! |--------|------------|
//! | `fig5_time_vs_universe` | Figure 5 — execution time vs universe size |
//! | `fig6_time_vs_m` | Figure 6 — execution time vs number of sources chosen |
//! | `fig7_quality` | Figure 7 — overall quality for the Figure 6 settings |
//! | `fig8_weight_sensitivity` | Figure 8 — solution cardinality vs Card weight |
//! | `table1_ga_quality` | Table 1 — true GAs found / attributes / missed |
//! | `pcsa_accuracy` | §7.3 — PCSA error vs exact counting (≤ 7 % claim) |
//! | `weight_perturbation` | §7.4 — robustness to ±15 % weight noise |
//! | `optimizer_comparison` | §7 — tabu vs SLS vs annealing vs PSO |
//!
//! The library half holds the shared experiment plumbing: standard setups,
//! the paper's constraint variants, and table formatting.

pub mod experiments;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mube_core::constraints::Constraints;
use mube_core::problem::Problem;
use mube_core::qefs::paper_default_qefs;
use mube_core::solution::Solution;
use mube_core::source::Universe;
use mube_core::MubeError;
use mube_match::similarity::JaccardNGram;
use mube_match::ClusterMatcher;
use mube_opt::{SubsetSolver, TabuSearch};
use mube_synth::{generate, SynthConfig, SynthUniverse};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used by all experiments unless a sweep varies it.
pub const EXPERIMENT_SEED: u64 = 0x1CDE_2007;

/// A generated universe plus the matcher built over it.
pub struct Setup {
    /// The synthetic universe and its ground truth.
    pub synth: SynthUniverse,
    /// The clustering matcher (shared similarity cache).
    pub matcher: Arc<ClusterMatcher>,
}

impl Setup {
    /// Generates the paper-scale setup for a universe of `num_sources`.
    pub fn paper(num_sources: usize) -> Self {
        Setup::from_config(&SynthConfig::paper(num_sources), EXPERIMENT_SEED)
    }

    /// Generates a scaled-down setup (fast; used by tests).
    pub fn small(num_sources: usize) -> Self {
        Setup::from_config(&SynthConfig::small(num_sources), EXPERIMENT_SEED)
    }

    /// Generates from an explicit config and seed.
    pub fn from_config(config: &SynthConfig, seed: u64) -> Self {
        let synth = generate(config, seed);
        let matcher = Arc::new(ClusterMatcher::new(
            Arc::clone(&synth.universe),
            JaccardNGram::trigram(),
        ));
        Setup { synth, matcher }
    }

    /// The universe.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.synth.universe
    }

    /// Builds the paper's standard problem over this setup: default QEF
    /// weights (matching .25, cardinality .25, coverage .20, redundancy
    /// .15, MTTF .15 via `wsum`) and the given constraints.
    pub fn problem(&self, constraints: Constraints) -> Result<Problem, MubeError> {
        Problem::new(
            Arc::clone(&self.synth.universe),
            Arc::clone(&self.matcher) as Arc<dyn mube_core::MatchOperator>,
            paper_default_qefs("mttf"),
            constraints,
        )
    }
}

/// The constraint variants the paper sweeps in Figures 5–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// No user constraints.
    Unconstrained,
    /// `n` source constraints on random unperturbed sources.
    Sources(usize),
    /// `sources` source constraints plus `gas` accurate GA constraints.
    SourcesAndGas {
        /// Number of source constraints.
        sources: usize,
        /// Number of GA constraints (up to 5 attributes each).
        gas: usize,
    },
}

impl Variant {
    /// The five variants the paper plots.
    pub fn paper_sweep() -> [Variant; 5] {
        [
            Variant::Unconstrained,
            Variant::Sources(1),
            Variant::Sources(3),
            Variant::Sources(5),
            Variant::SourcesAndGas { sources: 5, gas: 2 },
        ]
    }

    /// Label used in tables.
    pub fn label(&self) -> String {
        match self {
            Variant::Unconstrained => "no constraints".into(),
            Variant::Sources(n) => format!("{n} src constraint{}", if *n == 1 { "" } else { "s" }),
            Variant::SourcesAndGas { sources, gas } => {
                format!("{sources} src + {gas} GA constraints")
            }
        }
    }

    /// Materializes the variant into a constraint set over a setup.
    ///
    /// Mirrors §7.2: source constraints pick random *unperturbed* sources;
    /// GA constraints are accurate matchings of up to 5 attributes of one
    /// concept across different unperturbed sources.
    pub fn constraints(&self, setup: &Setup, max_sources: usize, seed: u64) -> Constraints {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Constraints::with_max_sources(max_sources);
        let (n_src, n_ga) = match *self {
            Variant::Unconstrained => (0, 0),
            Variant::Sources(n) => (n, 0),
            Variant::SourcesAndGas { sources, gas } => (sources, gas),
        };
        let pinned = setup.synth.random_unperturbed(n_src, &mut rng);
        for s in &pinned {
            c.required_sources.insert(*s);
        }
        // GA constraints must fit within `m` together with the source
        // constraints: build each from the already-required sources first,
        // then spend the remaining source budget on new ones.
        let mut required = c.effective_required_sources();
        let mut concept = 0usize;
        while c.required_gas.len() < n_ga && concept < mube_synth::concepts::NUM_CONCEPTS {
            // The candidate pool is the required sources plus only as many
            // fresh unperturbed sources as the budget allows, so whatever GA
            // comes back fits within `m` by construction.
            let budget = max_sources.saturating_sub(required.len());
            let mut candidates: Vec<_> = required.iter().copied().collect();
            candidates.extend(
                setup
                    .synth
                    .unperturbed
                    .iter()
                    .copied()
                    .filter(|s| !required.contains(s))
                    .take(budget),
            );
            if let Some(ga) = setup.synth.ground_truth.make_ga_constraint(
                setup.universe(),
                &candidates,
                concept,
                5,
                &mut rng,
            ) {
                required.extend(ga.sources());
                c.required_gas.push(ga);
            }
            concept += 1;
        }
        c
    }
}

/// The tabu configuration used by the experiments: a bounded evaluation
/// budget so sweep points are comparable.
pub fn experiment_tabu() -> TabuSearch {
    tabu_for_universe(200)
}

/// The experiment tabu configuration for a given universe size: the
/// candidate list scales with the neighborhood (≈ universe) size so larger
/// universes are explored proportionally — this is what makes execution
/// time grow with the universe, as in the paper's Figure 5.
pub fn tabu_for_universe(universe_size: usize) -> TabuSearch {
    TabuSearch {
        tenure: 7,
        candidates_per_iter: 12 + universe_size / 10,
        stall_limit: 30,
        max_iterations: 2_000,
        max_evaluations: 25_000,
        init: mube_opt::InitStrategy::Greedy {
            sample: 8 + universe_size / 16,
        },
    }
}

/// Whether an experiment runs at the paper's scale or a scaled-down smoke
/// configuration (used by integration tests and `--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's setup: universes of hundreds of sources, full
    /// cardinalities.
    Paper,
    /// Small universes and budgets; finishes in seconds.
    Quick,
}

impl Scale {
    /// Parses `--quick` from the process arguments (default: paper scale).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// A setup of roughly `fraction` of the scale's reference universe.
    pub fn setup(&self, num_sources: usize) -> Setup {
        match self {
            Scale::Paper => Setup::paper(num_sources),
            Scale::Quick => Setup::small(num_sources.min(60)),
        }
    }

    /// The solver budget for this scale.
    pub fn tabu(&self) -> TabuSearch {
        match self {
            Scale::Paper => experiment_tabu(),
            Scale::Quick => TabuSearch {
                max_evaluations: 800,
                ..experiment_tabu()
            },
        }
    }
}

/// Outcome of one timed solve.
pub struct TimedSolve {
    /// The solution found.
    pub solution: Solution,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

/// Solves a problem under a solver, timing the optimization only (not the
/// universe generation or cache construction).
pub fn timed_solve(
    problem: &Problem,
    solver: &dyn SubsetSolver,
    seed: u64,
) -> Result<TimedSolve, MubeError> {
    let start = Instant::now();
    let solution = problem.solve(solver, seed)?;
    Ok(TimedSolve {
        solution,
        elapsed: start.elapsed(),
    })
}

/// Convenience: the selected sources of a solution as a `BTreeSet`.
pub fn selected(solution: &Solution) -> &BTreeSet<mube_core::SourceId> {
    &solution.sources
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Prints a markdown-style header plus separator.
pub fn header(cells: &[&str]) -> String {
    let head = format!("| {} |", cells.join(" | "));
    let sep = format!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    format!("{head}\n{sep}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_setup_solves_end_to_end() {
        let setup = Setup::small(30);
        let constraints = Variant::Unconstrained.constraints(&setup, 8, 1);
        let problem = setup.problem(constraints).unwrap();
        let solved = timed_solve(&problem, &experiment_tabu(), 1).unwrap();
        assert!(!solved.solution.sources.is_empty());
        assert!(solved.solution.sources.len() <= 8);
        assert!((0.0..=1.0).contains(&solved.solution.quality));
    }

    #[test]
    fn variants_materialize() {
        let setup = Setup::small(40);
        for v in Variant::paper_sweep() {
            let c = v.constraints(&setup, 15, 2);
            match v {
                Variant::Unconstrained => {
                    assert!(c.required_sources.is_empty() && c.required_gas.is_empty());
                }
                Variant::Sources(n) => {
                    assert_eq!(c.required_sources.len(), n);
                    assert!(c.required_gas.is_empty());
                }
                Variant::SourcesAndGas { sources, gas } => {
                    assert_eq!(c.required_sources.len(), sources);
                    assert_eq!(c.required_gas.len(), gas);
                }
            }
            assert!(c.validate(setup.universe()).is_ok(), "variant {v:?}");
        }
    }

    #[test]
    fn constrained_solve_honours_pins() {
        let setup = Setup::small(30);
        let c = Variant::Sources(3).constraints(&setup, 10, 3);
        let pinned = c.required_sources.clone();
        let problem = setup.problem(c).unwrap();
        let solved = timed_solve(&problem, &experiment_tabu(), 2).unwrap();
        for p in pinned {
            assert!(solved.solution.sources.contains(&p));
        }
    }

    #[test]
    fn table_formatting() {
        let h = header(&["a", "b"]);
        assert!(h.contains("| a | b |"));
        assert!(h.contains("|---|---|"));
        assert_eq!(row(&["1".into(), "2".into()]), "| 1 | 2 |");
    }
}
