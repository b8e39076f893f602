//! The end-to-end scale pipeline: ingest → prune → block → two-level solve.
//!
//! [`scale_solve`] turns a catalog far too large for a flat solve into a
//! validated [`Solution`]:
//!
//! 1. **relevance pruning** — one streaming pass keeps the `top_k`
//!    best-scoring sources (peak memory `O(top_k)`, independent of the
//!    catalog's tuple count);
//! 2. **LSH blocking** — survivors are grouped into near-duplicate
//!    clusters, each condensed to a representative with a PCSA-union
//!    signature;
//! 3. **coarse solve** — a full [`Problem`] over the cluster universe,
//!    solved with the caller's solver (portfolio, tabu, ...) under the
//!    existing `DeltaEval` machinery, selects the best cluster families;
//! 4. **fine solve** — the winning clusters expand back to their member
//!    sources, which materialize (signatures synthesized now, for the
//!    first time) into a sub-universe whose own [`Problem`] is solved and
//!    validated with the unchanged [`SolutionValidator`].
//!
//! Both solves share one [`CancelToken`], so a wall-clock budget bounds the
//! whole pipeline with anytime semantics.

use std::sync::Arc;

use mube_core::constraints::Constraints;
use mube_core::error::MubeError;
use mube_core::problem::{CandidateEval, Problem};
use mube_core::qefs::default_qefs;
use mube_core::solution::Solution;
use mube_core::source::Universe;
use mube_core::validate::SolutionValidator;
use mube_core::SourceId;
use mube_match::{ClusterMatcher, JaccardNGram};
use mube_opt::{solve_two_level, CancelToken, SubsetSolver};

use crate::cluster::{build_representatives, cluster_universe};
use crate::lsh::{block_with_threads, LshConfig};
use crate::relevance::{top_k, RelevanceQuery, ScoringTable};
use crate::stream::SourceStream;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Sources kept by the relevance stage. Bounds the pipeline's memory
    /// and the cost of every later stage.
    pub top_k: usize,
    /// `m` — the maximum sources in the final solution.
    pub max_sources: usize,
    /// Clusters the coarse solve may select. Defaults to `max_sources`:
    /// every final source could come from a different family.
    pub coarse_clusters: usize,
    /// Matching threshold `θ`, used at both levels.
    pub theta: f64,
    /// Mediated-schema span bound `β`, used at both levels.
    pub beta: usize,
    /// Source names that must survive pruning and appear in the solution.
    pub pins: Vec<String>,
    /// The relevance query (empty = priors only).
    pub query: RelevanceQuery,
    /// Relevance scoring-table weights.
    pub table: ScoringTable,
    /// LSH blocking parameters.
    pub lsh: LshConfig,
    /// Threads for the `MinHash` sketch computation. Blocking is
    /// byte-deterministic in this value (see `lsh::block_with_threads`),
    /// so it is purely a throughput knob.
    pub lsh_threads: usize,
    /// Solver seed (the fine level derives its own stream from it).
    pub seed: u64,
}

impl ScaleOptions {
    /// Defaults for a `max_sources`-source selection: keep 1,500 survivors,
    /// paper-style `θ = 0.75`, `β = 2`.
    pub fn new(max_sources: usize) -> Self {
        ScaleOptions {
            top_k: 1_500,
            max_sources,
            coarse_clusters: max_sources,
            theta: 0.75,
            beta: 2,
            pins: Vec::new(),
            query: RelevanceQuery::default(),
            table: ScoringTable::default(),
            lsh: LshConfig::default(),
            lsh_threads: 1,
            seed: 0,
        }
    }
}

/// What the pipeline did, stage by stage, plus the validated solution.
#[derive(Debug)]
pub struct ScaleReport {
    /// Sources in the ingested catalog.
    pub catalog_sources: usize,
    /// Survivors of the relevance stage.
    pub survivors: usize,
    /// Clusters after LSH blocking.
    pub clusters: usize,
    /// Names of the clusters the coarse solve selected.
    pub selected_clusters: Vec<String>,
    /// Size of the expanded fine universe.
    pub expanded: usize,
    /// Objective value of the coarse incumbent.
    pub coarse_quality: f64,
    /// The fine sub-universe the solution's ids refer to.
    pub universe: Arc<Universe>,
    /// The validated solution over `universe`.
    pub solution: Solution,
}

/// Runs the full pipeline. See the module docs for the stages.
///
/// # Errors
///
/// Fails if a pinned name is missing from the catalog, the pins are
/// mutually infeasible (more pins than `max_sources`), a level's problem
/// cannot be constructed, no feasible solution exists within the budget, or
/// the final validation finds a violation (a bug, not an input error).
pub fn scale_solve(
    stream: &dyn SourceStream,
    opts: &ScaleOptions,
    solver: &dyn SubsetSolver,
    cancel: &CancelToken,
) -> Result<ScaleReport, MubeError> {
    if opts.pins.len() > opts.max_sources {
        return Err(MubeError::ConstraintConflict {
            detail: format!(
                "{} pinned sources but max_sources is {}",
                opts.pins.len(),
                opts.max_sources
            ),
        });
    }
    let catalog_sources = stream.len();

    // Stage 1: relevance pruning.
    let survivors = top_k(stream, &opts.query, &opts.table, opts.top_k, &opts.pins);
    for pin in &opts.pins {
        if !survivors.iter().any(|s| s.record.name == *pin) {
            return Err(MubeError::ConstraintConflict {
                detail: format!("pinned source `{pin}` is not in the catalog"),
            });
        }
    }
    let records: Vec<_> = survivors.into_iter().map(|s| s.record).collect();

    // Stage 2: LSH blocking and cluster representatives.
    let blocks = block_with_threads(&records, &opts.lsh, opts.lsh_threads.max(1));
    let reps = build_representatives(&records, &blocks);
    let coarse_u = Arc::new(cluster_universe(&reps)?);

    // Cluster representatives carry their members' characteristics, so
    // the coarse universe reports MTTF exactly when some record does.
    let qefs = default_qefs(&coarse_u);

    // Stage 3 constraints: pinned sources force their clusters in.
    let coarse_m = opts.coarse_clusters.clamp(1, reps.len());
    let mut coarse_c = Constraints::with_max_sources(coarse_m)
        .theta(opts.theta)
        .beta(opts.beta.min(coarse_m));
    for pin in &opts.pins {
        let pos = records
            .iter()
            .position(|r| r.name == *pin)
            .expect("pin presence checked above");
        let ci = reps
            .iter()
            .position(|rep| rep.members.binary_search(&pos).is_ok())
            .expect("every survivor belongs to exactly one cluster");
        coarse_c = coarse_c.require_source(SourceId(ci as u32));
    }
    let coarse_problem = Problem::new(
        Arc::clone(&coarse_u),
        Arc::new(ClusterMatcher::new(
            Arc::clone(&coarse_u),
            JaccardNGram::trigram(),
        )),
        qefs.clone(),
        coarse_c,
    )?;

    // Stages 3+4: coarse solve, expand winners, fine solve.
    let two = solve_two_level(&coarse_problem, solver, opts.seed, cancel, |winners| {
        let mut positions: Vec<usize> = winners
            .iter()
            .flat_map(|&c| reps[c].members.iter().copied())
            .collect();
        positions.sort_unstable();
        let mut builder = Universe::builder();
        let mut required = Vec::new();
        for &p in &positions {
            let record = records[p].clone();
            let pinned = opts.pins.contains(&record.name);
            let id = builder.add_source(record.into_spec());
            if pinned {
                required.push(id);
            }
        }
        let fine_u = Arc::new(
            builder
                .build()
                .expect("expanded survivor records form a valid universe"),
        );
        let fine_m = opts.max_sources.clamp(1, fine_u.len());
        let mut fine_c = Constraints::with_max_sources(fine_m)
            .theta(opts.theta)
            .beta(opts.beta.min(fine_m));
        for id in required {
            fine_c = fine_c.require_source(id);
        }
        Problem::new(
            Arc::clone(&fine_u),
            Arc::new(ClusterMatcher::new(
                Arc::clone(&fine_u),
                JaccardNGram::trigram(),
            )),
            qefs.clone(),
            fine_c,
        )
        .expect("pins were pre-validated and expansion preserves them")
    });

    let fine_problem = two.objective;
    let sources: std::collections::BTreeSet<SourceId> = two
        .fine
        .selected
        .iter()
        .map(|&i| SourceId(i as u32))
        .collect();
    let CandidateEval::Feasible(mut solution) = fine_problem.evaluate(&sources) else {
        return Err(MubeError::ConstraintConflict {
            detail: "no feasible solution found within the budget".into(),
        });
    };
    solution.evaluations = two.coarse.evaluations + two.fine.evaluations;
    solution.timed_out = two.coarse.timed_out || two.fine.timed_out;

    // The existing validator must pass unchanged on the stitched solution.
    SolutionValidator::for_problem(&fine_problem).validate(&solution)?;

    Ok(ScaleReport {
        catalog_sources,
        survivors: records.len(),
        clusters: reps.len(),
        selected_clusters: two
            .coarse
            .selected
            .iter()
            .map(|&c| reps[c].name.clone())
            .collect(),
        expanded: fine_problem.universe().len(),
        coarse_quality: two.coarse.score,
        universe: Arc::clone(fine_problem.universe()),
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SynthStream;
    use mube_opt::TabuSearch;
    use mube_synth::universe::StreamingUniverse;
    use mube_synth::SynthConfig;

    fn stream(n: usize, seed: u64) -> SynthStream {
        SynthStream::new(StreamingUniverse::new(SynthConfig::small(n), seed))
    }

    fn opts(max: usize) -> ScaleOptions {
        ScaleOptions {
            top_k: 40,
            theta: 0.3,
            ..ScaleOptions::new(max)
        }
    }

    #[test]
    fn end_to_end_solve_validates() {
        let s = stream(60, 3);
        let report = scale_solve(&s, &opts(5), &TabuSearch::default(), &CancelToken::none())
            .expect("pipeline succeeds");
        assert_eq!(report.catalog_sources, 60);
        assert_eq!(report.survivors, 40);
        assert!(report.clusters <= report.survivors);
        assert!(!report.selected_clusters.is_empty());
        assert!(report.expanded <= report.survivors);
        assert!(!report.solution.sources.is_empty());
        assert!(report.solution.sources.len() <= 5);
        assert!((0.0..=1.0).contains(&report.solution.quality));
        // Every selected id resolves in the reported sub-universe.
        for &id in &report.solution.sources {
            assert!(report.universe.get(id).is_some());
        }
        // Re-validate externally against the reported universe.
        let validator = SolutionValidator::new(
            Arc::clone(&report.universe),
            Constraints::with_max_sources(5).theta(0.3).beta(2),
        );
        assert!(validator.check(&report.solution).is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let s = stream(50, 7);
        let a = scale_solve(&s, &opts(4), &TabuSearch::default(), &CancelToken::none()).unwrap();
        let b = scale_solve(&s, &opts(4), &TabuSearch::default(), &CancelToken::none()).unwrap();
        assert_eq!(a.solution.sources, b.solution.sources);
        assert_eq!(a.solution.quality.to_bits(), b.solution.quality.to_bits());
        assert_eq!(a.selected_clusters, b.selected_clusters);
    }

    #[test]
    fn pins_survive_the_whole_pipeline() {
        let s = stream(60, 3);
        // Pin a source that would otherwise be pruned: force top_k tiny.
        let mut o = opts(5);
        o.top_k = 10;
        o.pins = vec!["site0047".to_string()];
        let report = scale_solve(&s, &o, &TabuSearch::default(), &CancelToken::none()).unwrap();
        let pinned = report
            .universe
            .source_by_name("site0047")
            .expect("pinned source expanded into the fine universe");
        assert!(
            report.solution.sources.contains(&pinned.id()),
            "pin must be selected"
        );
    }

    #[test]
    fn unknown_pin_is_a_constraint_conflict() {
        let s = stream(20, 1);
        let mut o = opts(3);
        o.pins = vec!["nope".to_string()];
        let err = scale_solve(&s, &o, &TabuSearch::default(), &CancelToken::none()).unwrap_err();
        assert!(matches!(err, MubeError::ConstraintConflict { .. }));
    }

    #[test]
    fn too_many_pins_rejected_up_front() {
        let s = stream(20, 1);
        let mut o = opts(1);
        o.pins = vec!["site0001".into(), "site0002".into()];
        assert!(matches!(
            scale_solve(&s, &o, &TabuSearch::default(), &CancelToken::none()),
            Err(MubeError::ConstraintConflict { .. })
        ));
    }

    #[test]
    fn cancelled_budget_still_yields_a_feasible_solution() {
        let s = stream(60, 3);
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = scale_solve(&s, &opts(5), &TabuSearch::default(), &cancel)
            .expect("anytime: feasible incumbent even under a dead budget");
        assert!(report.solution.timed_out);
        assert!(!report.solution.sources.is_empty());
    }
}
