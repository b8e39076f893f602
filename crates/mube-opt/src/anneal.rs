//! Constrained simulated annealing baseline.
//!
//! Classic Metropolis acceptance over the same add/remove/swap move space
//! the other solvers use: a worsening move of magnitude `Δ` is accepted with
//! probability `exp(Δ / T)`, and the temperature `T` decays geometrically.
//! Constraints are handled structurally ("constrained" SA): moves that would
//! drop a required element or exceed the size bound are never generated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::problem::{
    random_feasible, random_move, Incumbent, SolveResult, Start, SubsetObjective, SubsetSolver,
    DEFAULT_MAX_EVALUATIONS,
};

/// Simulated annealing configuration.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Starting temperature, in objective units.
    pub initial_temperature: f64,
    /// Geometric cooling factor per step (just below 1).
    pub cooling: f64,
    /// Temperature at which the run stops.
    pub min_temperature: f64,
    /// Hard cap on objective evaluations.
    pub max_evaluations: u64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temperature: 0.05,
            cooling: 0.999,
            min_temperature: 1e-5,
            max_evaluations: DEFAULT_MAX_EVALUATIONS,
        }
    }
}

impl SubsetSolver for SimulatedAnnealing {
    fn name(&self) -> &str {
        "annealing"
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
        let mut current = random_feasible(objective, &mut rng);
        let mut current_score = incumbent.score(&current);
        let mut temperature = self.initial_temperature;
        let mut iterations = 0u64;

        while temperature > self.min_temperature && !incumbent.exhausted() {
            iterations += 1;
            if let Some(mv) = random_move(objective, &current, &required, &mut rng) {
                let candidate = mv.apply(&current);
                let s = incumbent.score(&candidate);
                let delta = s - current_score;
                if delta >= 0.0 || rng.random::<f64>() < (delta / temperature).exp() {
                    current = candidate;
                    current_score = s;
                }
            }
            temperature *= self.cooling;
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
            // Normalize into the usual [0,1]-ish range µBE produces.
            selected.iter().map(|&i| self.values[i]).sum::<f64>() / 100.0
        }
    }

    #[test]
    fn converges_on_linear_objective() {
        let values: Vec<f64> = (0..30).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 4,
            required: vec![],
        };
        let r = SimulatedAnnealing::default().solve(&toy, 3);
        // Optimum is 1.10.
        assert!(r.score >= 0.95, "score = {}", r.score);
    }

    #[test]
    fn keeps_required_and_size_bound() {
        let toy = Toy {
            values: vec![0.0, 5.0, 9.0, 1.0, 7.0],
            max: 3,
            required: vec![0, 3],
        };
        let r = SimulatedAnnealing::default().solve(&toy, 4);
        assert!(r.selected.contains(&0) && r.selected.contains(&3));
        assert!(r.selected.len() <= 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let toy = Toy {
            values: vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0],
            max: 2,
            required: vec![],
        };
        let a = SimulatedAnnealing::default().solve(&toy, 8);
        let b = SimulatedAnnealing::default().solve(&toy, 8);
        assert_eq!(a, b);
    }
}
