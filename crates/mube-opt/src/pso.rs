//! Binary particle-swarm optimization baseline.
//!
//! The discrete PSO of Kennedy & Eberhart: each particle is a bit vector
//! over the universe with a real-valued velocity per bit. Velocities are
//! pulled toward the particle's personal best and the swarm's global best;
//! a bit is set with probability `sigmoid(velocity)`. After each position
//! update the particle is *repaired* into the feasible region: required
//! elements are forced in, and if more than `max_selected` bits are set, the
//! lowest-velocity extras are dropped.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::problem::{
    Incumbent, SolveResult, Start, SubsetObjective, SubsetSolver, DEFAULT_MAX_EVALUATIONS,
};

/// Binary PSO configuration.
#[derive(Debug, Clone)]
pub struct ParticleSwarm {
    /// Number of particles.
    pub particles: usize,
    /// Inertia weight `w`.
    pub inertia: f64,
    /// Cognitive coefficient `c1` (pull toward personal best).
    pub cognitive: f64,
    /// Social coefficient `c2` (pull toward global best).
    pub social: f64,
    /// Velocity clamp (|v| ≤ `v_max` keeps sigmoid out of saturation).
    pub v_max: f64,
    /// Maximum swarm generations.
    pub max_generations: u64,
    /// Hard cap on objective evaluations.
    pub max_evaluations: u64,
}

impl Default for ParticleSwarm {
    fn default() -> Self {
        ParticleSwarm {
            particles: 24,
            inertia: 0.72,
            cognitive: 1.5,
            social: 1.5,
            v_max: 4.0,
            max_generations: 200,
            max_evaluations: DEFAULT_MAX_EVALUATIONS,
        }
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

struct Particle {
    position: Vec<bool>,
    velocity: Vec<f64>,
    best_position: Vec<bool>,
    best_score: f64,
}

impl SubsetSolver for ParticleSwarm {
    fn name(&self) -> &str {
        "pso"
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
        let n = objective.universe_size();
        let m = objective.max_selected().min(n).max(1);
        let required = {
            let mut r = objective.required();
            r.sort_unstable();
            r.dedup();
            r
        };
        let mut incumbent =
            Incumbent::new(objective, self.max_evaluations).with_cancel(cancel.clone());

        // Initialize the swarm with random feasible positions.
        let mut swarm: Vec<Particle> = (0..self.particles)
            .map(|_| {
                let mut position = vec![false; n];
                for &r in &required {
                    position[r] = true;
                }
                let density = m as f64 / n as f64;
                for bit in position.iter_mut() {
                    if !*bit && rng.random::<f64>() < density {
                        *bit = true;
                    }
                }
                let velocity: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
                let mut p = Particle {
                    position,
                    velocity,
                    best_position: Vec::new(),
                    best_score: f64::NEG_INFINITY,
                };
                repair(&mut p, &required, m, &mut rng);
                p
            })
            .collect();

        let mut global_best: Vec<bool> = vec![false; n];
        let mut global_best_score = f64::NEG_INFINITY;
        let mut generations = 0u64;

        'outer: for _ in 0..self.max_generations {
            generations += 1;
            for p in &mut swarm {
                if incumbent.exhausted() {
                    break 'outer;
                }
                let selected = to_indices(&p.position);
                let s = incumbent.score(&selected);
                if s > p.best_score {
                    p.best_score = s;
                    p.best_position = p.position.clone();
                }
                if s > global_best_score {
                    global_best_score = s;
                    global_best = p.position.clone();
                }
            }
            for p in &mut swarm {
                for (i, &gb_bit) in global_best.iter().enumerate() {
                    let x = if p.position[i] { 1.0 } else { 0.0 };
                    let pb = if p.best_position.get(i).copied().unwrap_or(false) {
                        1.0
                    } else {
                        0.0
                    };
                    let gb = if gb_bit { 1.0 } else { 0.0 };
                    let r1: f64 = rng.random();
                    let r2: f64 = rng.random();
                    let v = self.inertia * p.velocity[i]
                        + self.cognitive * r1 * (pb - x)
                        + self.social * r2 * (gb - x);
                    p.velocity[i] = v.clamp(-self.v_max, self.v_max);
                    p.position[i] = rng.random::<f64>() < sigmoid(p.velocity[i]);
                }
                repair(p, &required, m, &mut rng);
            }
        }
        let result = incumbent.into_result(generations);
        crate::problem::debug_validate_result(objective, &result);
        result
    }
}

/// Forces a particle into the feasible region: required bits on, at least
/// one bit on, and at most `m` bits on (dropping the lowest-velocity
/// non-required extras first).
fn repair(p: &mut Particle, required: &[usize], m: usize, rng: &mut StdRng) {
    for &r in required {
        p.position[r] = true;
    }
    let mut on: Vec<usize> = (0..p.position.len()).filter(|&i| p.position[i]).collect();
    if on.is_empty() {
        let i = rng.random_range(0..p.position.len());
        p.position[i] = true;
        return;
    }
    if on.len() > m {
        // Drop non-required bits with the least enthusiasm (velocity).
        on.retain(|i| required.binary_search(i).is_err());
        on.sort_by(|&a, &b| p.velocity[a].total_cmp(&p.velocity[b]));
        let excess = (required.len() + on.len()).saturating_sub(m);
        for &i in on.iter().take(excess) {
            p.position[i] = false;
        }
    }
}

fn to_indices(position: &[bool]) -> Vec<usize> {
    (0..position.len()).filter(|&i| position[i]).collect()
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
        let r = ParticleSwarm::default().solve(&toy, 6);
        // Optimum is 1.10; PSO should land close.
        assert!(r.score >= 0.95, "score = {}", r.score);
    }

    #[test]
    fn solutions_are_feasible() {
        let toy = Toy {
            values: vec![1.0; 25],
            max: 5,
            required: vec![3, 11],
        };
        let r = ParticleSwarm::default().solve(&toy, 2);
        assert!(r.selected.contains(&3) && r.selected.contains(&11));
        assert!(r.selected.len() <= 5);
        assert!(!r.selected.is_empty());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let toy = Toy {
            values: vec![2.0, 7.0, 1.0, 8.0],
            max: 2,
            required: vec![],
        };
        let a = ParticleSwarm::default().solve(&toy, 13);
        let b = ParticleSwarm::default().solve(&toy, 13);
        assert_eq!(a, b);
    }

    #[test]
    fn sigmoid_behaves() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.99);
        assert!(sigmoid(-10.0) < 0.01);
    }
}
