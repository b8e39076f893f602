//! §7.4 — robustness to weight perturbation.
//!
//! The paper randomly perturbs all QEF weights by up to ±15% and reports
//! that "perturbing the weights caused at most 1 GA in the solution to
//! change, and the selected sources rarely changed". We repeat the
//! experiment: solve with the default weights, then re-solve under
//! perturbed weights and diff the solutions.
//!
//! The re-solves *warm-start* from the baseline solution
//! ([`mube_opt::Start::Warm`]), matching `µBE`'s iterative
//! interaction model in which each run continues from the current solution.
//! This isolates the effect of the weight change from search randomness: a
//! cold restart of any stochastic search would differ from the baseline for
//! reasons unrelated to the weights.

use mube_core::qefs::paper_default_qefs;
use mube_opt::{CancelToken, Start};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{header, row, timed_solve, Scale, Setup, Variant, EXPERIMENT_SEED};

/// Diff of one perturbed run against the baseline.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Trial index.
    pub index: usize,
    /// Source membership changes (added + removed).
    pub sources_changed: usize,
    /// GAs present on one side but not the other.
    pub gas_changed: usize,
    /// Quality under the perturbed weights.
    pub quality: f64,
}

/// Runs the perturbation trials.
pub fn sweep(scale: Scale) -> Vec<Trial> {
    let (universe, m, trials) = match scale {
        Scale::Paper => (200, 20, 10),
        Scale::Quick => (50, 8, 4),
    };
    let setup = match scale {
        Scale::Paper => Setup::paper(universe),
        Scale::Quick => Setup::small(universe),
    };
    let constraints = Variant::Unconstrained.constraints(&setup, m, EXPERIMENT_SEED);
    let mut problem = setup.problem(constraints).expect("constraints are valid");
    let tabu = scale.tabu();
    let baseline = timed_solve(&problem, &tabu, EXPERIMENT_SEED)
        .expect("paper workloads are feasible")
        .solution;

    let base_weights: Vec<f64> = baseline.qef_scores.iter().map(|&(_, w, _)| w).collect();
    // Warm-start the perturbed solves from the baseline solution.
    let warm: Vec<usize> = baseline.sources.iter().map(|s| s.index()).collect();
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED ^ 0xF00D);
    let mut out = Vec::new();
    for index in 0..trials {
        // Perturb each weight by up to ±15% (multiplicative), renormalize.
        let mut weights: Vec<f64> = base_weights
            .iter()
            .map(|w| w * (1.0 + rng.random_range(-0.15..=0.15)))
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let qefs = paper_default_qefs("mttf")
            .with_weights(&weights)
            .expect("perturbed weights are valid");
        problem.set_qefs(qefs);
        let solved = problem
            .solve_with(
                &tabu,
                EXPERIMENT_SEED,
                Start::Warm(&warm),
                &CancelToken::none(),
            )
            .expect("paper workloads are feasible");
        let diff = baseline.diff(&solved);
        out.push(Trial {
            index,
            sources_changed: diff.sources_changed(),
            gas_changed: diff.gas_changed,
            quality: solved.quality,
        });
    }
    out
}

/// Runs the experiment and renders the report.
pub fn run(scale: Scale) -> String {
    let trials = sweep(scale);
    let mut out =
        String::from("## §7.4 — robustness to ±15% weight perturbation (choose 20 of 200)\n\n");
    out.push_str(&header(&[
        "trial",
        "sources changed",
        "GAs changed",
        "quality",
    ]));
    out.push('\n');
    for t in &trials {
        out.push_str(&row(&[
            t.index.to_string(),
            t.sources_changed.to_string(),
            t.gas_changed.to_string(),
            format!("{:.4}", t.quality),
        ]));
        out.push('\n');
    }
    let max_gas = trials.iter().map(|t| t.gas_changed).max().unwrap_or(0);
    let src_trials = trials.iter().filter(|t| t.sources_changed > 0).count();
    out.push_str(&format!(
        "\nmax GAs changed: {max_gas}; trials with any source change: {src_trials}/{}\n\
         Paper's claim: at most 1 GA changed, sources rarely changed.\n",
        trials.len()
    ));
    out
}
