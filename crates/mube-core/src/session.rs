//! The iterative user-feedback loop (§6 of the paper).
//!
//! `µBE`'s defining feature is not a single optimization run but the loop
//! around it: the user inspects the chosen sources and mediated schema,
//! pins sources, promotes output GAs into GA constraints, re-weights the
//! quality dimensions, and re-solves. A [`Session`] owns the evolving
//! [`Problem`], runs the solver, and keeps the solution history so each
//! iteration can be diffed against the previous one.
//!
//! By design (and per the paper), the *output* format — GAs — is exactly the
//! *input* constraint format, so [`Session::adopt_ga`] can turn "GA 3 of the
//! last solution" directly into a constraint for the next run.

use mube_opt::{Start, SubsetSolver};

use crate::constraints::Constraints;
use crate::error::MubeError;
use crate::ga::GlobalAttribute;
use crate::ids::SourceId;
use crate::problem::Problem;
use crate::solution::{Solution, SolutionDiff};
use crate::source::Universe;
use crate::validate::SolutionValidator;

/// An interactive `µBE` session: a problem, a solver, and the history of
/// solutions across feedback iterations.
pub struct Session {
    problem: Problem,
    solver: Box<dyn SubsetSolver>,
    seed: u64,
    history: Vec<Solution>,
    continuity: bool,
}

impl Session {
    /// Starts a session. `seed` makes the whole session deterministic.
    pub fn new(problem: Problem, solver: Box<dyn SubsetSolver>, seed: u64) -> Self {
        Session {
            problem,
            solver,
            seed,
            history: Vec::new(),
            continuity: false,
        }
    }

    /// Enables *continuity*: each `run()` after the first warm-starts tabu
    /// search from the previous solution (repaired against the current
    /// constraints) inside a trust region, so small feedback edits produce
    /// small solution diffs — the stability the paper's §7.4 robustness
    /// experiment relies on — at the price of exploring less after each
    /// edit. The drift bound is a third of `m` (at least 2 membership
    /// changes, i.e. one swap).
    ///
    /// Only [`mube_opt::TabuSearch`], alone or as a portfolio member, uses
    /// the warm start (the other solvers have no warm-start notion); with
    /// no tabu in play `run()` behaves as without continuity.
    pub fn with_continuity(mut self) -> Self {
        self.continuity = true;
        self
    }

    /// The underlying universe.
    pub fn universe(&self) -> &Universe {
        self.problem.universe()
    }

    /// The current constraints.
    pub fn constraints(&self) -> &Constraints {
        self.problem.constraints()
    }

    /// The problem (read-only).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Runs one optimization iteration and records the solution.
    ///
    /// Each iteration uses a fresh solver seed derived from the session seed
    /// and the iteration number, so re-running after feedback explores anew
    /// but the session as a whole stays reproducible.
    pub fn run(&mut self) -> Result<&Solution, MubeError> {
        self.run_cancel(&mube_opt::CancelToken::none())
    }

    /// Like [`Session::run`], bounded by a [`mube_opt::CancelToken`]: when
    /// the token fires mid-solve, the best-so-far incumbent is validated,
    /// recorded, and returned with [`Solution::timed_out`] set.
    pub fn run_cancel(&mut self, cancel: &mube_opt::CancelToken) -> Result<&Solution, MubeError> {
        let seed = self.seed.wrapping_add(self.history.len() as u64);
        let warm: Option<Vec<usize>> = match self.history.last() {
            Some(last) if self.continuity => {
                Some(last.sources.iter().map(|id| id.index()).collect())
            }
            _ => None,
        };
        let start = match &warm {
            Some(warm) => Start::Within(warm, (self.problem.constraints().max_sources / 3).max(2)),
            None => Start::Cold,
        };
        let solution = self
            .problem
            .solve_with(self.solver.as_ref(), seed, start, cancel)?;
        // Defense-in-depth: independently audit the returned solution
        // against the full constraint set and QEF bounds before recording
        // it, so a solver or objective bug surfaces here instead of as a
        // corrupted session history.
        SolutionValidator::for_problem(&self.problem).validate(&solution)?;
        self.history.push(solution);
        Ok(self.history.last().expect("just pushed"))
    }

    /// Installs a previously computed solution as the next history entry
    /// without re-running the solver.
    ///
    /// This is the replay path for durable session journals: a deadline-cut
    /// solve is *not* reproducible from its seed (wall-clock cancellation is
    /// outside the deterministic state), so recovery replays the recorded
    /// solution itself. The solution is still validated against the current
    /// constraints, and the iteration counter advances exactly as if
    /// [`Session::run`] had produced it — keeping future seed derivation and
    /// continuity warm-starts byte-identical to the uninterrupted session.
    pub fn restore_solution(&mut self, solution: Solution) -> Result<(), MubeError> {
        SolutionValidator::for_problem(&self.problem).validate(&solution)?;
        self.history.push(solution);
        Ok(())
    }

    /// The most recent solution, if any iteration has run.
    pub fn latest(&self) -> Option<&Solution> {
        self.history.last()
    }

    /// All solutions so far, oldest first.
    pub fn history(&self) -> &[Solution] {
        &self.history
    }

    /// Number of iterations run so far.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }

    /// The session seed (iteration seeds derive from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The solver's name (`"tabu"`, `"sls"`, ...).
    pub fn solver_name(&self) -> &str {
        self.solver.name()
    }

    /// Diff of the last two iterations (what the latest feedback changed).
    pub fn last_diff(&self) -> Option<SolutionDiff> {
        let n = self.history.len();
        if n < 2 {
            return None;
        }
        Some(self.history[n - 2].diff(&self.history[n - 1]))
    }

    // ------------------------------------------------------------------
    // Feedback verbs. Each edits the constraints or weights and leaves the
    // session ready for the next `run()`.
    // ------------------------------------------------------------------

    /// Applies a batch of feedback as one unit: if `edit` fails, the
    /// constraints and weights are put back as they were before it, so a
    /// refused batch leaves no partial edit behind. The feedback verbs
    /// change nothing else.
    pub fn atomically<T, E>(
        &mut self,
        edit: impl FnOnce(&mut Session) -> Result<T, E>,
    ) -> Result<T, E> {
        let constraints = self.problem.constraints().clone();
        let qefs = self.problem.qefs().clone();
        let out = edit(self);
        if out.is_err() {
            self.problem
                .set_constraints(constraints)
                .expect("constraints that were in force stay valid");
            self.problem.set_qefs(qefs);
        }
        out
    }

    /// Pins a source: it must appear in every future solution.
    pub fn pin_source(&mut self, source: SourceId) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.required_sources.insert(source);
        self.problem.set_constraints(c)
    }

    /// Pins a source by name.
    pub fn pin_source_by_name(&mut self, name: &str) -> Result<(), MubeError> {
        let id = self
            .universe()
            .source_by_name(name)
            .map(super::source::Source::id)
            .ok_or_else(|| MubeError::UnknownSourceName { name: name.into() })?;
        self.pin_source(id)
    }

    /// Un-pins a source.
    pub fn unpin_source(&mut self, source: SourceId) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.required_sources.remove(&source);
        self.problem.set_constraints(c)
    }

    /// Un-pins a source by name.
    pub fn unpin_source_by_name(&mut self, name: &str) -> Result<(), MubeError> {
        let id = self
            .universe()
            .source_by_name(name)
            .map(super::source::Source::id)
            .ok_or_else(|| MubeError::UnknownSourceName { name: name.into() })?;
        self.unpin_source(id)
    }

    /// Adds a GA constraint ("matching by example"): the output schema must
    /// contain a GA subsuming `ga`.
    pub fn require_ga(&mut self, ga: GlobalAttribute) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.required_gas.push(ga);
        self.problem.set_constraints(c)
    }

    /// Promotes GA `index` of the latest solution into a GA constraint —
    /// the paper's signature "modify the output to get the next input".
    ///
    /// A stale index (out of range for the latest solution, or no solution
    /// yet) is a structured [`MubeError::StaleGaIndex`], so interactive
    /// front ends can tell the user the valid range.
    pub fn adopt_ga(&mut self, index: usize) -> Result<(), MubeError> {
        let available = self.latest().map_or(0, |s| s.schema.len());
        let ga = self
            .latest()
            .and_then(|s| s.ga(index))
            .cloned()
            .ok_or(MubeError::StaleGaIndex { index, available })?;
        self.require_ga(ga)
    }

    /// Builds a GA constraint from `(source name, attribute name)` pairs and
    /// adds it. This is the "bridge two attributes the matcher can't see as
    /// similar" gesture from §3 (F name ↔ Prenom).
    pub fn require_ga_by_names(&mut self, pairs: &[(&str, &str)]) -> Result<(), MubeError> {
        let mut attrs = Vec::with_capacity(pairs.len());
        for (source_name, attr_name) in pairs {
            let source = self.universe().source_by_name(source_name).ok_or_else(|| {
                MubeError::UnknownSourceName {
                    name: (*source_name).to_string(),
                }
            })?;
            let idx = source
                .schema()
                .iter()
                .find(|(_, a)| a.name() == attr_name.to_lowercase())
                .map(|(j, _)| j as u32)
                .ok_or_else(|| MubeError::UnknownAttribute {
                    detail: format!("attribute `{attr_name}` of `{source_name}`"),
                })?;
            attrs.push(crate::ids::AttrId::new(source.id(), idx));
        }
        let ga = GlobalAttribute::try_new(attrs)?;
        self.require_ga(ga)
    }

    /// Removes all GA constraints.
    pub fn clear_ga_constraints(&mut self) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.required_gas.clear();
        self.problem.set_constraints(c)
    }

    /// Sets one QEF's weight, rescaling the others proportionally.
    pub fn set_weight(&mut self, qef: &str, weight: f64) -> Result<(), MubeError> {
        let qefs = self.problem.qefs().reweighted(qef, weight)?;
        self.problem.set_qefs(qefs);
        Ok(())
    }

    /// Sets the matching threshold `θ`.
    pub fn set_theta(&mut self, theta: f64) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.theta = theta;
        self.problem.set_constraints(c)
    }

    /// Sets the minimum GA size `β`.
    pub fn set_beta(&mut self, beta: usize) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.beta = beta;
        self.problem.set_constraints(c)
    }

    /// Sets the maximum number of sources `m`.
    pub fn set_max_sources(&mut self, m: usize) -> Result<(), MubeError> {
        let mut c = self.problem.constraints().clone();
        c.max_sources = m;
        self.problem.set_constraints(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;
    use crate::matchop::IdentityMatcher;
    use crate::qefs::data_only_qefs;
    use crate::schema::Schema;
    use crate::source::SourceSpec;
    use mube_opt::TabuSearch;
    use std::sync::Arc;

    fn session(n: u32, m: usize) -> Session {
        let mut b = Universe::builder();
        for i in 0..n {
            b.add_source(
                SourceSpec::new(format!("src{i}"), Schema::new(["title", "author"]))
                    .cardinality(100 + u64::from(i)),
            );
        }
        let universe = Arc::new(b.build().unwrap());
        let problem = Problem::new(
            universe,
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            Constraints::with_max_sources(m).beta(1),
        )
        .unwrap();
        Session::new(problem, Box::new(TabuSearch::default()), 7)
    }

    #[test]
    fn run_records_history() {
        let mut s = session(6, 3);
        assert!(s.latest().is_none());
        s.run().unwrap();
        s.run().unwrap();
        assert_eq!(s.history().len(), 2);
        assert!(s.last_diff().is_some());
    }

    #[test]
    fn pin_source_takes_effect() {
        let mut s = session(6, 2);
        s.pin_source(SourceId(5)).unwrap();
        let sol = s.run().unwrap();
        assert!(sol.sources.contains(&SourceId(5)));
    }

    #[test]
    fn pin_by_name_and_unpin() {
        let mut s = session(4, 2);
        s.pin_source_by_name("src2").unwrap();
        assert!(s.constraints().required_sources.contains(&SourceId(2)));
        s.unpin_source(SourceId(2)).unwrap();
        assert!(s.constraints().required_sources.is_empty());
        assert!(s.pin_source_by_name("nope").is_err());
    }

    #[test]
    fn adopt_ga_promotes_output() {
        let mut s = session(4, 3);
        s.run().unwrap();
        let before = s.constraints().required_gas.len();
        s.adopt_ga(0).unwrap();
        assert_eq!(s.constraints().required_gas.len(), before + 1);
        // The adopted GA must keep appearing.
        let adopted = s.constraints().required_gas[0].clone();
        let sol = s.run().unwrap();
        assert!(sol.schema.covers_gas(&[adopted]));
    }

    #[test]
    fn adopt_ga_out_of_range_errors() {
        let mut s = session(3, 2);
        // Before any run, the stale error reports zero available GAs.
        assert_eq!(
            s.adopt_ga(0),
            Err(MubeError::StaleGaIndex {
                index: 0,
                available: 0
            })
        );
        s.run().unwrap();
        let n = s.latest().unwrap().schema.len();
        assert_eq!(
            s.adopt_ga(999),
            Err(MubeError::StaleGaIndex {
                index: 999,
                available: n
            })
        );
    }

    #[test]
    fn session_accessors() {
        let mut s = session(4, 2);
        assert_eq!(s.iterations(), 0);
        assert_eq!(s.seed(), 7);
        assert_eq!(s.solver_name(), "tabu");
        s.run().unwrap();
        assert_eq!(s.iterations(), 1);
        s.pin_source_by_name("src1").unwrap();
        s.unpin_source_by_name("src1").unwrap();
        assert!(s.constraints().required_sources.is_empty());
        assert!(s.unpin_source_by_name("ghost").is_err());
    }

    #[test]
    fn sessions_are_send() {
        // The server moves sessions across worker threads; a regression
        // here (a non-Send solver or matcher sneaking into the object
        // graph) must fail to compile.
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
    }

    #[test]
    fn require_ga_by_names_resolves() {
        let mut s = session(3, 3);
        s.require_ga_by_names(&[("src0", "title"), ("src1", "Author")])
            .unwrap();
        assert_eq!(s.constraints().required_gas.len(), 1);
        assert!(s.require_ga_by_names(&[("src0", "missing")]).is_err());
        assert!(s.require_ga_by_names(&[("ghost", "title")]).is_err());
    }

    #[test]
    fn weight_feedback() {
        let mut s = session(3, 2);
        s.set_weight("cardinality", 0.7).unwrap();
        assert!((s.problem().qefs().weight_of("cardinality").unwrap() - 0.7).abs() < 1e-9);
        assert!(s.set_weight("ghost", 0.5).is_err());
    }

    #[test]
    fn refused_batch_changes_nothing() {
        let mut s = session(5, 3);
        let before = s.constraints().clone();
        let weights: Vec<f64> = s.problem().qefs().iter().map(|(_, w)| w).collect();
        let err = s.atomically(|s| {
            s.pin_source(SourceId(2))?;
            s.set_weight("cardinality", 0.9)?;
            s.set_theta(0.4)?;
            s.adopt_ga(999)
        });
        assert!(matches!(
            err,
            Err(MubeError::StaleGaIndex { index: 999, .. })
        ));
        assert_eq!(s.constraints(), &before);
        let after: Vec<f64> = s.problem().qefs().iter().map(|(_, w)| w).collect();
        assert_eq!(after, weights);
        s.atomically(|s| s.pin_source(SourceId(2))).unwrap();
        assert!(s.constraints().required_sources.contains(&SourceId(2)));
    }

    #[test]
    fn parameter_setters() {
        let mut s = session(3, 2);
        s.set_theta(0.5).unwrap();
        s.set_beta(3).unwrap();
        s.set_max_sources(3).unwrap();
        assert_eq!(s.constraints().theta, 0.5);
        assert_eq!(s.constraints().beta, 3);
        assert_eq!(s.constraints().max_sources, 3);
        assert!(s.set_theta(2.0).is_err());
    }

    #[test]
    fn session_is_reproducible() {
        let run = |seed| {
            let mut b = Universe::builder();
            for i in 0..8u32 {
                b.add_source(
                    SourceSpec::new(format!("s{i}"), Schema::new(["x"]))
                        .cardinality(u64::from(i * i)),
                );
            }
            let problem = Problem::new(
                Arc::new(b.build().unwrap()),
                Arc::new(IdentityMatcher),
                data_only_qefs(),
                Constraints::with_max_sources(3).beta(1),
            )
            .unwrap();
            let mut s = Session::new(problem, Box::new(TabuSearch::default()), seed);
            s.run().unwrap().clone()
        };
        assert_eq!(run(5).sources, run(5).sources);
    }
}
