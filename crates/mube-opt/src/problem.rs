//! The subset-selection problem interface and shared solver utilities.

use crate::cancel::CancelToken;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;

/// A black-box objective over subsets of `0..universe_size()`.
///
/// Implementations may return any finite `f64`; higher is better. Infeasible
/// regions should be expressed as low (e.g. negative) scores so solvers can
/// traverse them; the required-elements and size constraints are enforced
/// structurally by the solvers and never violated in returned solutions.
pub trait SubsetObjective: Sync {
    /// Number of selectable elements; candidates are indices `0..n`.
    fn universe_size(&self) -> usize;

    /// Maximum number of elements a solution may contain (`m`).
    fn max_selected(&self) -> usize;

    /// Elements that must be present in every solution. These are
    /// *permanently tabu for removal*, in the paper's terms.
    fn required(&self) -> Vec<usize>;

    /// Scores a candidate subset. `selected` is sorted and duplicate-free.
    fn score(&self, selected: &[usize]) -> f64;

    /// Returns a run-local view of this objective, if one exists.
    ///
    /// Every solver run asks for one view when it starts and scores through
    /// it until it ends, so an implementation that keeps incremental state
    /// between consecutive candidates (e.g. `mube_core`'s delta evaluator)
    /// gets one copy per run, never shared across threads — a portfolio's
    /// members run concurrently against one objective. Views must score
    /// *identically* to the parent objective — callers treat them as pure
    /// performance artifacts. The default has no such state and returns
    /// `None`, which makes the run score through `self` directly.
    fn worker_view(&self) -> Option<Box<dyn SubsetObjective + '_>> {
        None
    }
}

/// The evaluation budget every solver in this crate defaults to.
pub const DEFAULT_MAX_EVALUATIONS: u64 = 20_000;

/// Outcome of one solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The best subset found (sorted).
    pub selected: Vec<usize>,
    /// Its score.
    pub score: f64,
    /// How many times the objective was evaluated.
    pub evaluations: u64,
    /// How many algorithm iterations ran.
    pub iterations: u64,
    /// True if the run was cut short by a [`CancelToken`] (deadline or
    /// explicit cancel) rather than finishing its budget; `selected` is then
    /// the best incumbent found up to that point (anytime semantics).
    pub timed_out: bool,
}

/// Where a solver run starts.
///
/// The one way to warm-start a solver: `µBE`'s §6 loop re-solves after each
/// edit, and tabu search continues from the previous solution instead of a
/// random one, after repairing it against the current constraints (required
/// elements forced in, the size bound enforced). Solvers without a
/// warm-start notion (SLS, annealing, PSO) treat every start as
/// [`Start::Cold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start<'a> {
    /// The solver's own initial solution.
    Cold,
    /// Continue from a previous selection.
    Warm(&'a [usize]),
    /// Continue from a previous selection, and return a solution whose
    /// Hamming distance (elements added + elements removed) from the
    /// repaired warm start is at most the radius.
    Within(&'a [usize], usize),
}

/// A subset-selection solver.
///
/// `Send + Sync` is a supertrait so a boxed solver (and therefore a whole
/// `mube_core::Session`) can move between threads — the `mube-serve` worker
/// pool solves many sessions concurrently. Every solver in this crate is a
/// plain configuration struct, so the bound costs implementors nothing.
pub trait SubsetSolver: Send + Sync {
    /// Human-readable algorithm name, e.g. `"tabu"`.
    fn name(&self) -> &str;

    /// Runs the solver with a deterministic RNG seed from `start`, polling
    /// `cancel` between evaluations: when it fires, the best-so-far
    /// incumbent is returned flagged [`SolveResult::timed_out`].
    fn solve_with(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        start: Start<'_>,
        cancel: &CancelToken,
    ) -> SolveResult;

    /// A cold, uncancellable run.
    fn solve(&self, objective: &dyn SubsetObjective, seed: u64) -> SolveResult {
        self.solve_with(objective, seed, Start::Cold, &CancelToken::none())
    }
}

/// Tracks the incumbent (best feasible solution seen) and evaluation counts
/// for a solver run. All four algorithms funnel their objective calls
/// through this so budgets and statistics are handled uniformly, and it
/// scores through the run's own [`SubsetObjective::worker_view`].
pub(crate) struct Incumbent<'a> {
    objective: &'a dyn SubsetObjective,
    /// The run's view of `objective`, taken once when the run starts.
    view: Option<Box<dyn SubsetObjective + 'a>>,
    pub best: Vec<usize>,
    pub best_score: f64,
    pub evaluations: u64,
    pub max_evaluations: u64,
    /// Capacity of the elite archive (0 = disabled).
    elite_capacity: usize,
    /// Best distinct candidates seen, sorted best-first.
    elites: Vec<(f64, Vec<usize>)>,
    /// Cooperative cancellation handle, polled by `exhausted`.
    cancel: CancelToken,
    /// Set once `cancel` fires; copied into the final [`SolveResult`].
    pub timed_out: bool,
}

impl<'a> Incumbent<'a> {
    pub fn new(objective: &'a dyn SubsetObjective, max_evaluations: u64) -> Self {
        Incumbent {
            objective,
            view: objective.worker_view(),
            best: Vec::new(),
            best_score: f64::NEG_INFINITY,
            evaluations: 0,
            max_evaluations,
            elite_capacity: 0,
            elites: Vec::new(),
            cancel: CancelToken::none(),
            timed_out: false,
        }
    }

    /// Attaches a cancellation token, polled on every `exhausted` check.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Enables the elite archive: the `capacity` best *distinct* candidates
    /// seen during the run are retained.
    pub fn with_elites(mut self, capacity: usize) -> Self {
        self.elite_capacity = capacity;
        self
    }

    /// Mutable access to the elite archive (best first).
    pub fn elites_mut(&mut self) -> &mut Vec<(f64, Vec<usize>)> {
        &mut self.elites
    }

    /// True once the evaluation budget is spent or the cancel token fired.
    ///
    /// Cancellation only takes effect after at least one evaluation: every
    /// solver scores an initial candidate before its first `exhausted`
    /// check, so even a zero-budget deadline yields a non-empty, feasible
    /// incumbent (anytime guarantee).
    pub fn exhausted(&mut self) -> bool {
        if self.evaluations >= self.max_evaluations {
            return true;
        }
        if self.evaluations > 0 && self.cancel.is_cancelled() {
            self.timed_out = true;
            return true;
        }
        false
    }

    /// Scores a candidate, updating the incumbent (and the elite archive,
    /// when enabled) if it improves.
    pub fn score(&mut self, candidate: &[usize]) -> f64 {
        self.evaluations += 1;
        let s = self
            .view
            .as_deref()
            .unwrap_or(self.objective)
            .score(candidate);
        if s > self.best_score {
            self.best_score = s;
            self.best = candidate.to_vec();
        }
        if self.elite_capacity > 0
            && self
                .elites
                .last()
                .is_none_or(|(worst, _)| s > *worst || self.elites.len() < self.elite_capacity)
            && !self.elites.iter().any(|(_, sel)| sel == candidate)
        {
            let pos = self.elites.partition_point(|(score, _)| *score >= s);
            self.elites.insert(pos, (s, candidate.to_vec()));
            self.elites.truncate(self.elite_capacity);
        }
        s
    }

    pub fn into_result(self, iterations: u64) -> SolveResult {
        SolveResult {
            selected: self.best,
            score: self.best_score,
            evaluations: self.evaluations,
            iterations,
            timed_out: self.timed_out,
        }
    }
}

/// Debug-build audit of a finished [`SolveResult`] against the structural
/// constraints every solver must uphold: the selection is sorted and
/// duplicate-free, within the universe, within the size bound, and contains
/// every required element. All four solvers call this just before
/// returning; release builds compile it away.
pub(crate) fn debug_validate_result(objective: &dyn SubsetObjective, result: &SolveResult) {
    if !cfg!(debug_assertions) {
        return;
    }
    let sel = &result.selected;
    debug_assert!(
        sel.windows(2).all(|w| w[0] < w[1]),
        "solver returned an unsorted or duplicated selection: {sel:?}"
    );
    debug_assert!(
        sel.iter().all(|&i| i < objective.universe_size()),
        "solver selected outside the universe (size {}): {sel:?}",
        objective.universe_size()
    );
    debug_assert!(
        sel.len() <= objective.max_selected(),
        "solver selected {} elements, above the bound {}",
        sel.len(),
        objective.max_selected()
    );
    for required in objective.required() {
        debug_assert!(
            sel.binary_search(&required).is_ok(),
            "solver dropped required element {required}: {sel:?}"
        );
    }
}

/// Builds a random feasible starting subset: the required elements plus a
/// random fill up to `max_selected`.
pub(crate) fn random_feasible<R: Rng>(objective: &dyn SubsetObjective, rng: &mut R) -> Vec<usize> {
    let n = objective.universe_size();
    let mut selected = objective.required();
    selected.sort_unstable();
    selected.dedup();
    let mut pool: Vec<usize> = (0..n).filter(|i| !selected.contains(i)).collect();
    pool.shuffle(rng);
    let want = objective.max_selected().min(n);
    for i in pool {
        if selected.len() >= want {
            break;
        }
        selected.push(i);
    }
    selected.sort_unstable();
    selected
}

/// Inserts `x` into a sorted vec if absent; returns true if inserted.
pub(crate) fn sorted_insert(v: &mut Vec<usize>, x: usize) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            v.insert(pos, x);
            true
        }
    }
}

/// Removes `x` from a sorted vec if present; returns true if removed.
pub(crate) fn sorted_remove(v: &mut Vec<usize>, x: usize) -> bool {
    match v.binary_search(&x) {
        Ok(pos) => {
            v.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// A single-element move in the subset space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// Add an unselected element.
    Add(usize),
    /// Drop a selected, non-required element.
    Remove(usize),
    /// Swap a selected, non-required element for an unselected one.
    Swap { out: usize, r#in: usize },
}

impl Move {
    /// Applies the move to a sorted selection, returning the new selection.
    pub fn apply(self, selection: &[usize]) -> Vec<usize> {
        let mut out = selection.to_vec();
        match self {
            Move::Add(i) => {
                sorted_insert(&mut out, i);
            }
            Move::Remove(i) => {
                sorted_remove(&mut out, i);
            }
            Move::Swap { out: o, r#in: i } => {
                sorted_remove(&mut out, o);
                sorted_insert(&mut out, i);
            }
        }
        out
    }

    /// The elements whose membership this move flips.
    pub fn touched(self) -> (usize, Option<usize>) {
        match self {
            Move::Add(i) | Move::Remove(i) => (i, None),
            Move::Swap { out, r#in } => (out, Some(r#in)),
        }
    }
}

/// Samples a random legal move for the current selection, or `None` if no
/// move exists (e.g. everything is required and the universe is exhausted).
pub(crate) fn random_move<R: Rng>(
    objective: &dyn SubsetObjective,
    selection: &[usize],
    required: &[usize],
    rng: &mut R,
) -> Option<Move> {
    let n = objective.universe_size();
    let removable: Vec<usize> = selection
        .iter()
        .copied()
        .filter(|i| !required.contains(i))
        .collect();
    let addable: Vec<usize> = (0..n)
        .filter(|i| selection.binary_search(i).is_err())
        .collect();
    let can_add = !addable.is_empty() && selection.len() < objective.max_selected();
    // Keep at least one element selected so the objective always sees a
    // non-trivial candidate.
    let can_remove = removable.len() > 1 || (removable.len() == 1 && selection.len() > 1);
    let can_swap = !removable.is_empty() && !addable.is_empty();

    let mut kinds = Vec::with_capacity(3);
    if can_add {
        kinds.push(0);
    }
    if can_remove {
        kinds.push(1);
    }
    if can_swap {
        kinds.push(2);
    }
    let kind = *kinds.as_slice().choose(rng)?;
    Some(match kind {
        0 => Move::Add(*addable.as_slice().choose(rng).expect("non-empty")),
        1 => Move::Remove(*removable.as_slice().choose(rng).expect("non-empty")),
        _ => Move::Swap {
            out: *removable.as_slice().choose(rng).expect("non-empty"),
            r#in: *addable.as_slice().choose(rng).expect("non-empty"),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) struct Toy {
        pub values: Vec<f64>,
        pub max: usize,
        pub required: Vec<usize>,
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
    fn random_feasible_respects_constraints() {
        let toy = Toy {
            values: vec![1.0; 10],
            max: 4,
            required: vec![7, 2],
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = random_feasible(&toy, &mut rng);
            assert!(s.len() <= 4);
            assert!(s.contains(&7) && s.contains(&2));
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        }
    }

    #[test]
    fn moves_apply_correctly() {
        let sel = vec![1, 3, 5];
        assert_eq!(Move::Add(4).apply(&sel), vec![1, 3, 4, 5]);
        assert_eq!(Move::Remove(3).apply(&sel), vec![1, 5]);
        assert_eq!(Move::Swap { out: 5, r#in: 0 }.apply(&sel), vec![0, 1, 3]);
    }

    #[test]
    fn random_move_never_removes_required() {
        let toy = Toy {
            values: vec![1.0; 6],
            max: 3,
            required: vec![0],
        };
        let mut rng = StdRng::seed_from_u64(2);
        let sel = vec![0, 1, 2];
        for _ in 0..200 {
            let mv = random_move(&toy, &sel, &[0], &mut rng).unwrap();
            let next = mv.apply(&sel);
            assert!(next.contains(&0), "move {mv:?} removed a required element");
        }
    }

    #[test]
    fn random_move_respects_max() {
        let toy = Toy {
            values: vec![1.0; 6],
            max: 3,
            required: vec![],
        };
        let mut rng = StdRng::seed_from_u64(3);
        let sel = vec![0, 1, 2]; // already at max
        for _ in 0..200 {
            let mv = random_move(&toy, &sel, &[], &mut rng).unwrap();
            assert!(mv.apply(&sel).len() <= 3);
        }
    }

    #[test]
    fn incumbent_tracks_best() {
        let toy = Toy {
            values: vec![1.0, 2.0, 3.0],
            max: 2,
            required: vec![],
        };
        let mut inc = Incumbent::new(&toy, 100);
        assert_eq!(inc.score(&[0]), 1.0);
        assert_eq!(inc.score(&[1, 2]), 5.0);
        assert_eq!(inc.score(&[0, 1]), 3.0);
        assert_eq!(inc.best, vec![1, 2]);
        assert_eq!(inc.best_score, 5.0);
        assert_eq!(inc.evaluations, 3);
    }

    #[test]
    fn incumbent_budget() {
        let toy = Toy {
            values: vec![1.0],
            max: 1,
            required: vec![],
        };
        let mut inc = Incumbent::new(&toy, 2);
        assert!(!inc.exhausted());
        inc.score(&[0]);
        inc.score(&[0]);
        assert!(inc.exhausted());
        assert!(!inc.timed_out, "budget exhaustion is not a timeout");
    }

    #[test]
    fn incumbent_cancellation_waits_for_first_evaluation() {
        let toy = Toy {
            values: vec![1.0, 2.0],
            max: 1,
            required: vec![],
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut inc = Incumbent::new(&toy, 100).with_cancel(cancel);
        // Pre-cancelled token: the first exhausted check must still let one
        // evaluation through so the incumbent is never empty.
        assert!(!inc.exhausted());
        inc.score(&[1]);
        assert!(inc.exhausted());
        assert!(inc.timed_out);
        let result = inc.into_result(1);
        assert_eq!(result.selected, vec![1]);
        assert!(result.timed_out);
    }
}
