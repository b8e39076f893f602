//! The constrained optimization problem `µBE` solves (§2.5).
//!
//! Given the universe `U`, the weighted QEFs `F`/`W`, and the constraints
//! `(C, G, m, θ, β)`, find `arg max_{S⊆U} Q(S) = Σ w_i F_i(S)` subject to
//! `|S| ≤ m`, `C ⊆ S`, `G ⊑ M`, and the per-GA quality and size bounds.
//!
//! A [`Problem`] is the bridge between the `µBE` data model and the generic
//! subset-selection solvers of `mube-opt`: it implements
//! [`mube_opt::SubsetObjective`], scoring a candidate source set by running
//! the matching operator, filtering the mediated schema through the `β`
//! bound, and evaluating the QEFs. Solver runs score through a
//! [`SubsetObjective::worker_view`] of it — the incremental evaluator of
//! [`crate::delta`] — and [`Problem::objective`] is the full-path reference
//! that view is held bitwise equal to.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mube_opt::{CancelToken, SolveResult, Start, SubsetObjective, SubsetSolver};

use crate::constraints::Constraints;
use crate::error::MubeError;
use crate::ga::MediatedSchema;
use crate::ids::SourceId;
use crate::matchop::{MatchOperator, MatchOutcome};
use crate::qef::{EvalContext, EvalInput, WeightedQefs};
use crate::solution::Solution;
use crate::source::Universe;

/// Objective value assigned to candidates whose matching is infeasible
/// (null schema, violated source constraints, or β filtering orphaning a
/// constraint source). Any feasible candidate scores in `[0, 1]`, so
/// feasible always beats infeasible.
pub const INFEASIBLE_SCORE: f64 = -1.0;

/// A fully specified `µBE` optimization problem.
///
/// The problem keeps no per-candidate state. A matcher that can reuse work
/// keeps its own memo (the reference `ClusterMatcher` of `mube-match` keeps
/// a bounded one per θ-component, which survives every constraint edit that
/// leaves `θ` and the GA constraints alone).
pub struct Problem {
    universe: Arc<Universe>,
    matcher: Arc<dyn MatchOperator>,
    qefs: WeightedQefs,
    constraints: Constraints,
    ctx: EvalContext,
    /// Candidates scored so far, by [`Problem::objective`] or a
    /// [`crate::DeltaEval`] over this problem.
    scored: AtomicUsize,
}

/// The result of evaluating one candidate source set in full.
#[derive(Debug, Clone)]
pub enum CandidateEval {
    /// Feasible: the mediated schema and quality breakdown.
    Feasible(Solution),
    /// Infeasible under the current constraints.
    Infeasible,
}

impl Problem {
    /// Assembles a problem, validating the constraints against the universe
    /// and precomputing the evaluation context.
    pub fn new(
        universe: Arc<Universe>,
        matcher: Arc<dyn MatchOperator>,
        qefs: WeightedQefs,
        constraints: Constraints,
    ) -> Result<Self, MubeError> {
        constraints.validate(&universe)?;
        let ctx = EvalContext::for_universe(&universe);
        Ok(Problem {
            universe,
            matcher,
            qefs,
            constraints,
            ctx,
            scored: AtomicUsize::new(0),
        })
    }

    /// The universe.
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// The current constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// The current QEF weighting.
    pub fn qefs(&self) -> &WeightedQefs {
        &self.qefs
    }

    /// The precomputed evaluation context.
    pub fn context(&self) -> &EvalContext {
        &self.ctx
    }

    /// Replaces the constraints (revalidating). This is how session
    /// iterations refine the problem.
    pub fn set_constraints(&mut self, constraints: Constraints) -> Result<(), MubeError> {
        constraints.validate(&self.universe)?;
        self.constraints = constraints;
        Ok(())
    }

    /// Replaces the QEF weighting.
    pub fn set_qefs(&mut self, qefs: WeightedQefs) {
        self.qefs = qefs;
    }

    /// Number of candidates scored so far, through [`Problem::objective`]
    /// or a [`crate::DeltaEval`]. Nothing memoizes objective values, so
    /// every scored candidate counts, revisits included.
    pub fn distinct_evaluations(&self) -> usize {
        // ordering: a monotone statistics counter; no other memory depends
        // on its value, so a stale read is harmless.
        self.scored.load(Ordering::Relaxed)
    }

    /// Counts one scored candidate (see [`Problem::distinct_evaluations`]).
    pub(crate) fn count_scored(&self) {
        // ordering: ditto — only the eventual total is read.
        self.scored.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs the matcher on a candidate and applies the `β` bound: GAs that
    /// did not grow from a user GA constraint and have fewer than `β`
    /// attributes are dropped from the schema. Returns the filtered schema
    /// and `F_1`, or `None` if the candidate is infeasible.
    pub(crate) fn match_and_filter(
        &self,
        sources: &BTreeSet<SourceId>,
    ) -> Option<(MediatedSchema, f64)> {
        if sources.is_empty() || sources.len() > self.constraints.max_sources {
            return None;
        }
        // Foreign ids (a candidate built against some other universe) are
        // infeasible, not a panic deep inside a matcher or QEF.
        if sources.iter().any(|&s| self.universe.get(s).is_none()) {
            return None;
        }
        let required = self.constraints.effective_required_sources();
        if !required.iter().all(|s| sources.contains(s)) {
            return None;
        }
        let outcome = self
            .matcher
            .match_sources(&self.universe, sources, &self.constraints);
        let MatchOutcome::Matched {
            mut schema,
            quality,
        } = outcome
        else {
            return None;
        };
        let beta = self.constraints.beta;
        let seeds = self.constraints.merged_ga_seeds();
        schema.retain(|ga| ga.len() >= beta || seeds.iter().any(|seed| seed.is_subset_of(ga)));
        // The GA constraints must have survived (they always do — retain
        // keeps them) and the schema must still be valid on the constraint
        // sources.
        if !schema.covers_gas(&self.constraints.required_gas) {
            return None;
        }
        if !schema.is_valid_on(&self.constraints.required_sources) {
            return None;
        }
        Some((schema, quality))
    }

    /// Fully evaluates one candidate: matching, β filtering, QEF scoring.
    pub fn evaluate(&self, sources: &BTreeSet<SourceId>) -> CandidateEval {
        let Some((schema, match_quality)) = self.match_and_filter(sources) else {
            return CandidateEval::Infeasible;
        };
        let input = EvalInput {
            universe: &self.universe,
            sources,
            schema: &schema,
            match_quality,
        };
        let (quality, qef_scores) = self.qefs.evaluate(&self.ctx, &input);
        CandidateEval::Feasible(Solution {
            sources: sources.clone(),
            schema,
            quality,
            qef_scores,
            evaluations: 0,
            timed_out: false,
        })
    }

    /// The objective value of a candidate through the full path: `Q(S)` if
    /// feasible, [`INFEASIBLE_SCORE`] otherwise. The reference a
    /// [`crate::DeltaEval`] is held bitwise equal to.
    pub fn objective(&self, sources: &BTreeSet<SourceId>) -> f64 {
        self.count_scored();
        match self.evaluate(sources) {
            CandidateEval::Feasible(sol) => sol.quality,
            CandidateEval::Infeasible => INFEASIBLE_SCORE,
        }
    }

    /// Solves the problem with the given solver and seed, returning the best
    /// feasible solution.
    pub fn solve(&self, solver: &dyn SubsetSolver, seed: u64) -> Result<Solution, MubeError> {
        self.solve_with(solver, seed, Start::Cold, &CancelToken::none())
    }

    /// Like [`Problem::solve`], from `start` (source indices; see
    /// [`mube_opt::Start`]) and polling `cancel` between evaluations: when
    /// the token fires (deadline or explicit cancel) the best-so-far
    /// incumbent is returned with [`Solution::timed_out`] set.
    pub fn solve_with(
        &self,
        solver: &dyn SubsetSolver,
        seed: u64,
        start: Start<'_>,
        cancel: &CancelToken,
    ) -> Result<Solution, MubeError> {
        self.finish(solver.solve_with(self, seed, start, cancel), solver)
    }

    /// Solves with tabu search and returns up to `k` of the best *distinct
    /// feasible* solutions it encountered, best first — the alternatives a
    /// user explores alongside the winner. Infeasible elites (possible when
    /// the search crossed infeasible regions) are filtered out.
    pub fn alternatives(
        &self,
        tabu: &mube_opt::TabuSearch,
        seed: u64,
        k: usize,
    ) -> Result<Vec<Solution>, MubeError> {
        let (_, elites) = tabu.solve_topk(self, seed, k);
        let mut out = Vec::with_capacity(elites.len());
        for (_, selected) in elites {
            let sources: BTreeSet<SourceId> =
                selected.iter().map(|&i| SourceId(i as u32)).collect();
            if let CandidateEval::Feasible(sol) = self.evaluate(&sources) {
                out.push(sol);
            }
        }
        if out.is_empty() {
            return Err(MubeError::ConstraintConflict {
                detail: "no feasible solution found within the budget".into(),
            });
        }
        Ok(out)
    }

    fn finish(
        &self,
        result: SolveResult,
        solver: &dyn SubsetSolver,
    ) -> Result<Solution, MubeError> {
        let sources: BTreeSet<SourceId> = result
            .selected
            .iter()
            .map(|&i| SourceId(i as u32))
            .collect();
        match self.evaluate(&sources) {
            CandidateEval::Feasible(mut sol) => {
                sol.evaluations = result.evaluations;
                sol.timed_out = result.timed_out;
                Ok(sol)
            }
            CandidateEval::Infeasible => Err(MubeError::ConstraintConflict {
                detail: format!(
                    "no feasible solution found by `{}` within its budget",
                    solver.name()
                ),
            }),
        }
    }
}

impl SubsetObjective for Problem {
    fn universe_size(&self) -> usize {
        self.universe.len()
    }

    fn max_selected(&self) -> usize {
        self.constraints.max_sources
    }

    fn required(&self) -> Vec<usize> {
        self.constraints
            .effective_required_sources()
            .iter()
            .map(|s| s.index())
            .collect()
    }

    fn score(&self, selected: &[usize]) -> f64 {
        let sources: BTreeSet<SourceId> = selected.iter().map(|&i| SourceId(i as u32)).collect();
        self.objective(&sources)
    }

    fn worker_view(&self) -> Option<Box<dyn SubsetObjective + '_>> {
        Some(Box::new(crate::delta::DeltaObjective::new(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ga::GlobalAttribute;
    use crate::ids::AttrId;
    use crate::matchop::IdentityMatcher;
    use crate::qefs::data_only_qefs;
    use crate::schema::Schema;
    use crate::source::SourceSpec;
    use mube_opt::TabuSearch;
    use mube_sketch::pcsa::{PcsaConfig, PcsaSignature};

    fn sig(keys: std::ops::Range<u64>) -> PcsaSignature {
        let mut s = PcsaSignature::new(PcsaConfig::new(32, 32, 99));
        for k in keys {
            s.insert(k);
        }
        s
    }

    fn universe(n: u32) -> Arc<Universe> {
        let mut b = Universe::builder();
        for i in 0..n {
            let lo = u64::from(i) * 1000;
            b.add_source(
                SourceSpec::new(format!("src{i}"), Schema::new(["x", "y"]))
                    .cardinality(1000 + u64::from(i) * 100)
                    .signature(sig(lo..lo + 1000)),
            );
        }
        Arc::new(b.build().unwrap())
    }

    fn problem(n: u32, m: usize) -> Problem {
        // β = 1 so the identity matcher's singleton GAs survive filtering.
        let constraints = Constraints::with_max_sources(m).beta(1);
        Problem::new(
            universe(n),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            constraints,
        )
        .unwrap()
    }

    #[test]
    fn feasible_candidates_score_in_unit_interval() {
        let p = problem(5, 3);
        let s: BTreeSet<_> = [SourceId(0), SourceId(2)].into();
        let v = p.objective(&s);
        assert!((0.0..=1.0).contains(&v), "v={v}");
    }

    #[test]
    fn oversized_candidates_are_infeasible() {
        let p = problem(5, 2);
        let s: BTreeSet<_> = [SourceId(0), SourceId(1), SourceId(2)].into();
        assert_eq!(p.objective(&s), INFEASIBLE_SCORE);
    }

    #[test]
    fn empty_candidate_is_infeasible() {
        let p = problem(3, 2);
        assert_eq!(p.objective(&BTreeSet::new()), INFEASIBLE_SCORE);
    }

    #[test]
    fn foreign_source_ids_are_infeasible_not_a_panic() {
        let p = problem(3, 2);
        let s: BTreeSet<_> = [SourceId(0), SourceId(99)].into();
        assert_eq!(p.objective(&s), INFEASIBLE_SCORE);
    }

    #[test]
    fn missing_required_source_is_infeasible() {
        let universe = universe(4);
        let constraints = Constraints::with_max_sources(2)
            .beta(1)
            .require_source(SourceId(3));
        let p = Problem::new(
            universe,
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            constraints,
        )
        .unwrap();
        let without: BTreeSet<_> = [SourceId(0)].into();
        assert_eq!(p.objective(&without), INFEASIBLE_SCORE);
        let with: BTreeSet<_> = [SourceId(0), SourceId(3)].into();
        assert!(p.objective(&with) >= 0.0);
    }

    #[test]
    fn beta_filters_small_gas() {
        // With β=2 and the identity matcher (singletons only), every GA is
        // dropped; with no constraint sources the schema trivially remains
        // valid, and matching quality still reports the matcher's value.
        let constraints = Constraints::with_max_sources(3).beta(2);
        let p = Problem::new(
            universe(3),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            constraints,
        )
        .unwrap();
        let s: BTreeSet<_> = [SourceId(0), SourceId(1)].into();
        match p.evaluate(&s) {
            CandidateEval::Feasible(sol) => assert!(sol.schema.is_empty()),
            CandidateEval::Infeasible => panic!("expected feasible"),
        }
    }

    #[test]
    fn beta_spares_user_gas() {
        let ga = GlobalAttribute::try_new([AttrId::new(SourceId(0), 0)]).unwrap();
        let constraints = Constraints::with_max_sources(3)
            .beta(2)
            .require_ga(ga.clone());
        let p = Problem::new(
            universe(3),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            constraints,
        )
        .unwrap();
        let s: BTreeSet<_> = [SourceId(0), SourceId(1)].into();
        match p.evaluate(&s) {
            CandidateEval::Feasible(sol) => {
                assert_eq!(sol.schema.len(), 1);
                assert!(sol.schema.covers_gas(&[ga]));
            }
            CandidateEval::Infeasible => panic!("expected feasible"),
        }
    }

    /// Many threads scoring overlapping candidate sets concurrently through
    /// one problem (and its shared matcher) must all see the
    /// single-threaded values.
    #[test]
    fn concurrent_objective_calls_agree_with_serial() {
        let p = problem(8, 3);
        let candidates: Vec<BTreeSet<SourceId>> = (0..8u32)
            .flat_map(|a| (0..8u32).map(move |b| [SourceId(a), SourceId(b)].into()))
            .collect();
        let expected: Vec<f64> = candidates.iter().map(|c| p.objective(c)).collect();
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let p = &p;
                let candidates = &candidates;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..20 {
                        for i in 0..candidates.len() {
                            let k = (i + t * 7 + round) % candidates.len();
                            assert_eq!(
                                p.objective(&candidates[k]).to_bits(),
                                expected[k].to_bits()
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn solve_returns_feasible_solution() {
        let p = problem(8, 3);
        let sol = p.solve(&TabuSearch::default(), 42).unwrap();
        assert!(sol.sources.len() <= 3);
        assert!(!sol.sources.is_empty());
        assert!((0.0..=1.0).contains(&sol.quality));
        assert!(sol.evaluations > 0);
    }

    #[test]
    fn solve_honours_required_sources() {
        let universe = universe(8);
        let constraints = Constraints::with_max_sources(3)
            .beta(1)
            .require_source(SourceId(1));
        let p = Problem::new(
            universe,
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            constraints,
        )
        .unwrap();
        let sol = p.solve(&TabuSearch::default(), 1).unwrap();
        assert!(sol.sources.contains(&SourceId(1)));
    }

    #[test]
    fn invalid_constraints_rejected_at_construction() {
        let err = Problem::new(
            universe(2),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            Constraints::with_max_sources(1).require_source(SourceId(9)),
        );
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod alternatives_tests {
    use super::*;
    use crate::constraints::Constraints;
    use crate::matchop::IdentityMatcher;
    use crate::qefs::data_only_qefs;
    use crate::schema::Schema;
    use crate::source::SourceSpec;

    #[test]
    fn alternatives_are_distinct_feasible_and_sorted() {
        let mut b = Universe::builder();
        for i in 0..10u32 {
            b.add_source(
                SourceSpec::new(format!("s{i}"), Schema::new(["x"]))
                    .cardinality(100 + u64::from(i) * 50),
            );
        }
        let p = Problem::new(
            Arc::new(b.build().unwrap()),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            Constraints::with_max_sources(3).beta(1),
        )
        .unwrap();
        let alts = p
            .alternatives(&mube_opt::TabuSearch::default(), 5, 4)
            .unwrap();
        assert!(!alts.is_empty() && alts.len() <= 4);
        for w in alts.windows(2) {
            assert!(w[0].quality >= w[1].quality, "sorted best first");
            assert_ne!(w[0].sources, w[1].sources, "distinct selections");
        }
        // The first alternative is the solve() winner.
        let winner = p.solve(&mube_opt::TabuSearch::default(), 5).unwrap();
        assert_eq!(alts[0].sources, winner.sources);
    }
}
