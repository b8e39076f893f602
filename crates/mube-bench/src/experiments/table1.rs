//! Table 1 — quality of the generated GAs against the ground truth, when
//! choosing 10–50 sources from a universe of 200 with no constraints.
//!
//! The synthetic Books domain has 14 distinct concepts, so there can be at
//! most 14 true GAs. Expected shape: as `µBE` may choose more sources it
//! finds more true GAs, misses fewer, covers more attributes — and never
//! produces a false GA (precision stays perfect).

use crate::{header, row, timed_solve, Scale, Setup, Variant, EXPERIMENT_SEED};
use mube_synth::GaQualityReport;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// `m`, the number of sources `µBE` may choose.
    pub m: usize,
    /// Sources actually selected.
    pub selected: usize,
    /// The ground-truth scoring of the solution schema.
    pub report: GaQualityReport,
}

/// Runs the sweep.
pub fn sweep(scale: Scale) -> Vec<Row> {
    let (universe, ms): (usize, Vec<usize>) = match scale {
        Scale::Paper => (200, vec![10, 20, 30, 40, 50]),
        Scale::Quick => (50, vec![5, 10, 15]),
    };
    let setup = match scale {
        Scale::Paper => Setup::paper(universe),
        Scale::Quick => Setup::small(universe),
    };
    let mut rows = Vec::new();
    for &m in &ms {
        let constraints = Variant::Unconstrained.constraints(&setup, m, EXPERIMENT_SEED);
        let problem = setup.problem(constraints).expect("constraints are valid");
        let solved = timed_solve(&problem, &scale.tabu(), EXPERIMENT_SEED)
            .expect("paper workloads are feasible");
        let report = setup.synth.ground_truth.evaluate(
            setup.universe(),
            &solved.solution.sources,
            &solved.solution.schema,
        );
        rows.push(Row {
            m,
            selected: solved.solution.sources.len(),
            report,
        });
    }
    rows
}

/// Runs the experiment and renders the Table 1 report.
pub fn run(scale: Scale) -> String {
    render(&sweep(scale))
}

/// Renders measured rows as the Table 1 report.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from("## Table 1 — quality of GAs (universe of 200, no constraints)\n\n");
    out.push_str(&header(&[
        "sources selected",
        "true GAs selected",
        "attributes in true GAs",
        "true GAs missed",
        "false GAs",
    ]));
    out.push('\n');
    for r in rows {
        out.push_str(&row(&[
            r.selected.to_string(),
            r.report.true_gas.to_string(),
            r.report.attrs_in_true_gas.to_string(),
            r.report.true_gas_missed.to_string(),
            r.report.false_gas.to_string(),
        ]));
        out.push('\n');
    }
    out
}
