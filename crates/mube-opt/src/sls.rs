//! Stochastic local search — the simplest baseline the paper compared
//! against.
//!
//! Repeated restarts of a noisy hill-climber: from a random feasible start,
//! sample a random single-element move; accept it if it improves the current
//! score, or with probability `noise` even if it does not (the standard
//! WalkSAT-style escape from local optima). The best solution across all
//! restarts is returned.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::problem::{
    random_feasible, random_move, Incumbent, SolveResult, Start, SubsetObjective, SubsetSolver,
    DEFAULT_MAX_EVALUATIONS,
};

/// Stochastic local search configuration.
#[derive(Debug, Clone)]
pub struct StochasticLocalSearch {
    /// Number of independent restarts.
    pub restarts: u32,
    /// Steps per restart.
    pub steps_per_restart: u64,
    /// Probability of accepting a non-improving move.
    pub noise: f64,
    /// Hard cap on objective evaluations (shared across restarts).
    pub max_evaluations: u64,
}

impl Default for StochasticLocalSearch {
    fn default() -> Self {
        StochasticLocalSearch {
            restarts: 8,
            steps_per_restart: 2_500,
            noise: 0.1,
            max_evaluations: DEFAULT_MAX_EVALUATIONS,
        }
    }
}

impl SubsetSolver for StochasticLocalSearch {
    fn name(&self) -> &str {
        "sls"
    }

    /// Ignores `start`: every run starts from its own random solution.
    fn solve_with(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        _start: Start<'_>,
        cancel: &CancelToken,
    ) -> SolveResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let required = {
            let mut r = objective.required();
            r.sort_unstable();
            r.dedup();
            r
        };
        let mut incumbent =
            Incumbent::new(objective, self.max_evaluations).with_cancel(cancel.clone());
        let mut iterations = 0u64;

        'restarts: for _ in 0..self.restarts {
            if incumbent.exhausted() {
                break;
            }
            let mut current = random_feasible(objective, &mut rng);
            let mut current_score = incumbent.score(&current);
            for _ in 0..self.steps_per_restart {
                if incumbent.exhausted() {
                    break 'restarts;
                }
                iterations += 1;
                let Some(mv) = random_move(objective, &current, &required, &mut rng) else {
                    break;
                };
                let candidate = mv.apply(&current);
                let s = incumbent.score(&candidate);
                if s > current_score || rng.random_bool(self.noise) {
                    current = candidate;
                    current_score = s;
                }
            }
        }
        let result = incumbent.into_result(iterations);
        crate::problem::debug_validate_result(objective, &result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            selected.iter().map(|&i| self.values[i]).sum()
        }
    }

    #[test]
    fn finds_good_solutions_on_linear_objective() {
        let values: Vec<f64> = (0..30).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 4,
            required: vec![],
        };
        let r = StochasticLocalSearch::default().solve(&toy, 5);
        // Optimum is 26+27+28+29 = 110; SLS should get close.
        assert!(r.score >= 100.0, "score = {}", r.score);
    }

    #[test]
    fn keeps_required() {
        let toy = Toy {
            values: vec![0.0, 1.0, 2.0, 3.0],
            max: 2,
            required: vec![0],
        };
        let r = StochasticLocalSearch::default().solve(&toy, 2);
        assert!(r.selected.contains(&0));
        assert!(r.selected.len() <= 2);
    }

    #[test]
    fn respects_budget_and_is_deterministic() {
        let toy = Toy {
            values: vec![1.0; 20],
            max: 5,
            required: vec![],
        };
        let cfg = StochasticLocalSearch {
            max_evaluations: 50,
            ..Default::default()
        };
        let a = cfg.solve(&toy, 9);
        let b = cfg.solve(&toy, 9);
        assert_eq!(a, b);
        assert!(a.evaluations <= 50);
    }
}
