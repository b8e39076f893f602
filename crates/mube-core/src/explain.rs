//! Solution explanation: why is each source in the solution?
//!
//! The iterative exploration the paper advocates works best when the user
//! understands what each source contributes before pinning or dropping it.
//! This module computes **leave-one-out marginal contributions**: for every
//! selected source, the drop in overall quality (and in each QEF) if that
//! source were removed. Sources the user pinned are analyzed too — a pinned
//! source with a negative marginal is exactly the feedback signal "your
//! constraint is costing you quality".

use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

use crate::diag::{Diagnostic, Severity};
use crate::ids::SourceId;
use crate::problem::{CandidateEval, Problem};
use crate::solution::Solution;
use crate::source::Universe;

/// Marginal contribution of one selected source.
#[derive(Debug, Clone)]
pub struct SourceContribution {
    /// The source.
    pub source: SourceId,
    /// Quality with the source minus quality without it. Positive = the
    /// source pays its way.
    pub quality_delta: f64,
    /// Per-QEF `(name, delta)` — where the contribution comes from.
    pub qef_deltas: Vec<(String, f64)>,
    /// True if removing the source makes the candidate infeasible (it is
    /// required by a constraint, or the schema would no longer be valid on
    /// the constraint sources).
    pub removal_infeasible: bool,
}

/// A full explanation of a solution.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Contributions, sorted most-valuable first.
    pub contributions: Vec<SourceContribution>,
}

/// Computes leave-one-out contributions for every source of a solution.
///
/// Costs `|S|` extra objective evaluations (one re-match per source), which
/// at interactive scale is well under a second.
pub fn explain(problem: &Problem, solution: &Solution) -> Explanation {
    let mut contributions = Vec::with_capacity(solution.sources.len());
    for &source in &solution.sources {
        let mut without: BTreeSet<SourceId> = solution.sources.clone();
        without.remove(&source);
        let contribution = match problem.evaluate(&without) {
            CandidateEval::Feasible(reduced) => {
                let qef_deltas = solution
                    .qef_scores
                    .iter()
                    .map(|(name, _, score)| {
                        let reduced_score = reduced.qef_score(name).unwrap_or(0.0);
                        (name.clone(), score - reduced_score)
                    })
                    .collect();
                SourceContribution {
                    source,
                    quality_delta: solution.quality - reduced.quality,
                    qef_deltas,
                    removal_infeasible: false,
                }
            }
            CandidateEval::Infeasible => SourceContribution {
                source,
                quality_delta: f64::INFINITY,
                qef_deltas: Vec::new(),
                removal_infeasible: true,
            },
        };
        contributions.push(contribution);
    }
    // total_cmp: a user-written QEF returning NaN should not panic the
    // explanation (NaN sorts last, after +∞ for required sources).
    contributions.sort_by(|a, b| b.quality_delta.total_cmp(&a.quality_delta));
    Explanation { contributions }
}

impl Explanation {
    /// Sources whose removal would *improve* quality — candidates for the
    /// user to investigate (usually held in place by a constraint or by a
    /// QEF the user may want to down-weight).
    pub fn dead_weight(&self) -> impl Iterator<Item = &SourceContribution> {
        self.contributions
            .iter()
            .filter(|c| !c.removal_infeasible && c.quality_delta < 0.0)
    }

    /// Renders with resolved source names.
    pub fn display<'a>(&'a self, universe: &'a Universe) -> ExplanationDisplay<'a> {
        ExplanationDisplay {
            explanation: self,
            universe,
        }
    }
}

/// Helper returned by [`Explanation::display`].
pub struct ExplanationDisplay<'a> {
    explanation: &'a Explanation,
    universe: &'a Universe,
}

impl fmt::Display for ExplanationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.explanation.contributions {
            // Tolerate a foreign universe: fall back to the raw id.
            let name = self
                .universe
                .get(c.source)
                .map_or_else(|| c.source.to_string(), |s| s.name().to_string());
            if c.removal_infeasible {
                writeln!(f, "  {name}: required (removal infeasible)")?;
                continue;
            }
            let top = c
                .qef_deltas
                .iter()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                .map(|(n, d)| format!("{n} {d:+.4}"))
                .unwrap_or_default();
            writeln!(f, "  {name}: ΔQ = {:+.4} (mostly {top})", c.quality_delta)?;
        }
        Ok(())
    }
}

/// Renders a batch of diagnostics (see [`crate::diag`]) as a lint report:
/// one [`Diagnostic::display`] block per finding, errors before warnings,
/// followed by a summary line. The empty report is the string
/// `"no problems found"`.
pub fn lint_report(diagnostics: &[Diagnostic], universe: &Universe) -> String {
    if diagnostics.is_empty() {
        return "no problems found".to_string();
    }
    let mut ordered: Vec<&Diagnostic> = diagnostics.iter().collect();
    ordered.sort_by_key(|d| (d.severity(), d.code));
    let mut out = String::new();
    for d in &ordered {
        writeln!(out, "{}", d.display(universe)).expect("string write");
    }
    let errors = ordered
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = ordered.len() - errors;
    write!(
        out,
        "{errors} error{}, {warnings} warning{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" }
    )
    .expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;
    use crate::matchop::IdentityMatcher;
    use crate::qefs::data_only_qefs;
    use crate::schema::Schema;
    use crate::source::SourceSpec;
    use std::sync::Arc;

    fn problem() -> Problem {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("big", Schema::new(["x"])).cardinality(900));
        b.add_source(SourceSpec::new("small", Schema::new(["y"])).cardinality(100));
        b.add_source(SourceSpec::new("other", Schema::new(["z"])).cardinality(500));
        Problem::new(
            Arc::new(b.build().unwrap()),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            Constraints::with_max_sources(3).beta(1),
        )
        .unwrap()
    }

    fn solution_of(problem: &Problem, picks: &[u32]) -> Solution {
        let sources: BTreeSet<SourceId> = picks.iter().map(|&i| SourceId(i)).collect();
        match problem.evaluate(&sources) {
            CandidateEval::Feasible(s) => s,
            CandidateEval::Infeasible => panic!("fixture candidates are feasible"),
        }
    }

    fn of_source(ex: &Explanation, source: u32) -> &SourceContribution {
        let mut entries = ex.contributions.iter();
        entries.find(|c| c.source == SourceId(source)).unwrap()
    }

    #[test]
    fn bigger_sources_contribute_more_cardinality() {
        let p = problem();
        let sol = solution_of(&p, &[0, 1]);
        let ex = explain(&p, &sol);
        let big = of_source(&ex, 0);
        let small = of_source(&ex, 1);
        assert!(big.quality_delta > small.quality_delta);
        // Sorted most-valuable first.
        assert_eq!(ex.contributions[0].source, SourceId(0));
    }

    #[test]
    fn required_source_removal_is_infeasible() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["x"])).cardinality(10));
        b.add_source(SourceSpec::new("b", Schema::new(["y"])).cardinality(10));
        let p = Problem::new(
            Arc::new(b.build().unwrap()),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            Constraints::with_max_sources(2)
                .beta(1)
                .require_source(SourceId(1)),
        )
        .unwrap();
        let sol = solution_of(&p, &[0, 1]);
        let ex = explain(&p, &sol);
        assert!(of_source(&ex, 1).removal_infeasible);
        assert!(!of_source(&ex, 0).removal_infeasible);
    }

    #[test]
    fn qef_deltas_sum_to_quality_delta() {
        let p = problem();
        let sol = solution_of(&p, &[0, 2]);
        let ex = explain(&p, &sol);
        for c in &ex.contributions {
            if c.removal_infeasible {
                continue;
            }
            // ΔQ = Σ w_i ΔF_i; deltas here are unweighted per-QEF scores,
            // so recombine with the weights from the solution.
            let recombined: f64 = sol
                .qef_scores
                .iter()
                .zip(&c.qef_deltas)
                .map(|((_, w, _), (_, d))| w * d)
                .sum();
            assert!((recombined - c.quality_delta).abs() < 1e-9);
        }
    }

    #[test]
    fn dead_weight_detects_harmful_sources() {
        let p = problem();
        // A single-source solution has no dead weight by construction.
        let sol = solution_of(&p, &[0]);
        let ex = explain(&p, &sol);
        // Removing the only source leaves an empty (infeasible) candidate.
        assert!(ex.contributions[0].removal_infeasible);
        assert_eq!(ex.dead_weight().count(), 0);
    }

    #[test]
    fn display_renders_names() {
        let p = problem();
        let sol = solution_of(&p, &[0, 1]);
        let ex = explain(&p, &sol);
        let text = ex.display(p.universe()).to_string();
        assert!(text.contains("big"));
        assert!(text.contains("ΔQ"));
    }

    #[test]
    fn lint_report_orders_and_summarizes() {
        use crate::diag::{DiagCode, Diagnostic};
        let p = problem();
        let diagnostics = vec![
            Diagnostic::new(DiagCode::ZeroCardinalitySource, "no tuples")
                .with_sources([SourceId(1)]),
            Diagnostic::new(DiagCode::ZeroMaxSources, "m = 0"),
        ];
        let text = lint_report(&diagnostics, p.universe());
        assert!(text.contains("1 error, 1 warning"), "{text}");
        // Errors come first even though they were pushed second.
        let err_pos = text.find("MUBE010").unwrap();
        let warn_pos = text.find("MUBE012").unwrap();
        assert!(err_pos < warn_pos, "{text}");
        assert_eq!(lint_report(&[], p.universe()), "no problems found");
    }
}
