//! Constrained subset-selection metaheuristics for `µBE`.
//!
//! `µBE`'s source-selection problem is a non-linear constrained combinatorial
//! optimization: pick a subset of at most `m` elements from a universe of
//! `N`, always keeping a required core, to maximize an arbitrary black-box
//! objective. The paper (§6) evaluated stochastic local search, particle
//! swarm optimization, constrained simulated annealing, and tabu search, and
//! found tabu search the most robust — this crate implements all four behind
//! one [`SubsetSolver`] interface so the comparison can be reproduced.
//!
//! Every solver (and the [`Portfolio`]) has one entry point,
//! [`SubsetSolver::solve_with`]`(objective, seed, start, &cancel)`. The
//! [`Start`] argument is the only way to warm-start a run: [`Start::Cold`],
//! [`Start::Warm`] from a previous selection, or [`Start::Within`] a trust
//! region around it. The [`CancelToken`] bounds the run (see [`cancel`]).
//! [`SubsetSolver::solve`] is the cold run with no deadline.
//! [`solver_by_name`] builds any of the four solvers from its name, and
//! [`SolverChoice`] decides between one solver and a [`Portfolio`] for
//! every front end.
//!
//! The crate is deliberately independent of the `µBE` data model: anything
//! implementing [`SubsetObjective`] can be solved, which is also how the
//! algorithms are unit-tested on transparent toy objectives.
//!
//! # Example
//!
//! ```
//! use mube_opt::{SubsetObjective, SubsetSolver, TabuSearch};
//!
//! /// Maximize the sum of chosen values, at most 3 of 10 items.
//! struct TopK(Vec<f64>);
//! impl SubsetObjective for TopK {
//!     fn universe_size(&self) -> usize { self.0.len() }
//!     fn max_selected(&self) -> usize { 3 }
//!     fn required(&self) -> Vec<usize> { vec![] }
//!     fn score(&self, selected: &[usize]) -> f64 {
//!         selected.iter().map(|&i| self.0[i]).sum()
//!     }
//! }
//!
//! let obj = TopK(vec![1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0, 0.0]);
//! let result = TabuSearch::default().solve(&obj, 42);
//! assert_eq!(result.selected, vec![1, 3, 5]); // the three largest values
//! ```

pub mod anneal;
pub mod cancel;
pub mod portfolio;
pub mod problem;
pub mod pso;
pub mod sls;
pub mod tabu;

pub use anneal::SimulatedAnnealing;
pub use cancel::{CancelClock, CancelToken, ManualClock, MonotonicClock};
pub use portfolio::{
    member_panics_total, parse_portfolio_spec, solver_by_name, MemberRun, Portfolio, PortfolioRun,
    SolverChoice, DEFAULT_PORTFOLIO,
};
pub use problem::{SolveResult, Start, SubsetObjective, SubsetSolver, DEFAULT_MAX_EVALUATIONS};
pub use pso::ParticleSwarm;
pub use sls::StochasticLocalSearch;
pub use tabu::{InitStrategy, TabuSearch};
