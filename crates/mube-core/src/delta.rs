//! Incremental (delta) evaluation of candidate selections.
//!
//! The solvers in `mube-opt` explore the subset space one move at a time:
//! add a source, drop a source, swap two. Scoring each neighbour through
//! [`Problem::evaluate`] repeats work that a single move cannot have
//! changed — the selection's summed cardinality, the PCSA union of its
//! cooperating sources, and (via memoization) the matcher run itself.
//!
//! [`DeltaEval`] maintains that state *across* moves, keyed by the QEF's
//! declared [`DeltaClass`]:
//!
//! * **F2 (cardinality)** — an exact running `u64` tuple-count sum;
//! * **F3 (coverage)** / **F4 (redundancy)** — a running PCSA union of the
//!   cooperating sources' signatures, OR-ed register-by-register. Adds OR
//!   the new signature in (`O(registers)`); drops mark the union dirty and
//!   it is rebuilt lazily from the survivors, because OR has no inverse;
//! * **F1 (matching)** — the matcher outcome, shared through the problem's
//!   memo table so each distinct candidate is matched at most once across
//!   all workers;
//! * **selection-only QEFs** (characteristic aggregations) — re-evaluated
//!   directly at `O(|S|)`, `|S| ≤ m`, which needs no schema work;
//! * **opaque QEFs** — force the full [`Problem::evaluate`] path; this is
//!   the correctness escape hatch for user QEFs that read the mediated
//!   schema.
//!
//! Because the running state is integer sums and bitwise ORs — both exact
//! and order-independent — [`DeltaEval::score`] is *bitwise identical* to
//! the full evaluation path, a property enforced by the differential
//! harness in `tests/solver_differential.rs`. [`DeltaEval::recompute`]
//! rebuilds all state from scratch as an explicit escape hatch (and is what
//! the harness diffs against).

use std::collections::BTreeSet;
use std::sync::Mutex;

use mube_opt::SubsetObjective;
use mube_sketch::PcsaSignature;

use crate::ga::MediatedSchema;
use crate::ids::SourceId;
use crate::problem::{CandidateEval, Problem, INFEASIBLE_SCORE};
use crate::qef::{DeltaClass, EvalInput};

/// A single-source change to the tracked selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaMove {
    /// Select a source.
    Add(SourceId),
    /// Deselect a source.
    Drop(SourceId),
}

/// Incremental evaluator for one [`Problem`], tracking a current selection
/// and the per-QEF running state needed to score it in `O(Δ)` per move.
///
/// Not thread-safe by itself — each portfolio worker owns one (see
/// [`DeltaObjective`]). Move ids must belong to the problem's universe;
/// applying a foreign id panics (solvers only ever produce in-universe
/// indices, and infeasibility of *valid* ids is still reported through
/// [`DeltaEval::score`], exactly as the full path does).
pub struct DeltaEval<'p> {
    problem: &'p Problem,
    selected: BTreeSet<SourceId>,
    /// Σ cardinality over the selection (exact, F2 numerator).
    card_sum: u64,
    /// Number of selected cooperating (signature-bearing) sources.
    coop_count: usize,
    /// Σ cardinality over the cooperating sources (F4's fetched mass).
    coop_card: u64,
    /// Running OR of the cooperating sources' PCSA signatures. `None`
    /// while no selected source cooperates.
    union: Option<PcsaSignature>,
    /// Set when a cooperating source was dropped: OR cannot be undone, so
    /// the union is rebuilt from the survivors on next use.
    union_dirty: bool,
    /// Any QEF declared [`DeltaClass::Opaque`] → score via the full path.
    has_opaque: bool,
}

impl<'p> DeltaEval<'p> {
    /// Creates an evaluator with an empty selection.
    pub fn new(problem: &'p Problem) -> Self {
        let has_opaque = problem
            .qefs()
            .iter()
            .any(|(q, _)| q.delta_class() == DeltaClass::Opaque);
        DeltaEval {
            problem,
            selected: BTreeSet::new(),
            card_sum: 0,
            coop_count: 0,
            coop_card: 0,
            union: None,
            union_dirty: false,
            has_opaque,
        }
    }

    /// Creates an evaluator already positioned on `selection`.
    pub fn with_selection(problem: &'p Problem, selection: &BTreeSet<SourceId>) -> Self {
        let mut ev = DeltaEval::new(problem);
        ev.selected = selection.clone();
        ev.recompute();
        ev
    }

    /// The selection currently tracked.
    pub fn selection(&self) -> &BTreeSet<SourceId> {
        &self.selected
    }

    /// Applies one move in `O(Δ)`. Returns `false` (and changes nothing)
    /// if the move is a no-op: adding a source already selected, or
    /// dropping one that is not.
    pub fn apply(&mut self, mv: DeltaMove) -> bool {
        match mv {
            DeltaMove::Add(s) => {
                let src = self
                    .problem
                    .universe()
                    .get(s)
                    .expect("DeltaMove::Add references a source outside the universe");
                if !self.selected.insert(s) {
                    return false;
                }
                self.card_sum += src.cardinality();
                if let Some(sig) = src.signature() {
                    self.coop_count += 1;
                    self.coop_card += src.cardinality();
                    if !self.union_dirty {
                        match &mut self.union {
                            None => self.union = Some(sig.clone()),
                            Some(u) => u
                                .union_assign(sig)
                                .expect("universe signatures are config-checked"),
                        }
                    }
                }
                true
            }
            DeltaMove::Drop(s) => {
                if !self.selected.remove(&s) {
                    return false;
                }
                let src = self.problem.universe().source(s);
                self.card_sum -= src.cardinality();
                if src.cooperates() {
                    self.coop_count -= 1;
                    self.coop_card -= src.cardinality();
                    if self.coop_count == 0 {
                        self.union = None;
                        self.union_dirty = false;
                    } else {
                        self.union_dirty = true;
                    }
                }
                true
            }
        }
    }

    /// Repositions the evaluator on `target`, applying the symmetric
    /// difference as moves. Falls back to [`DeltaEval::recompute`] when the
    /// difference is larger than the target itself (a jump, not a step).
    pub fn set_selection(&mut self, target: &BTreeSet<SourceId>) {
        let drops: Vec<SourceId> = self.selected.difference(target).copied().collect();
        let adds: Vec<SourceId> = target.difference(&self.selected).copied().collect();
        if drops.len() + adds.len() > target.len() {
            self.selected = target.clone();
            self.recompute();
            return;
        }
        for s in drops {
            self.apply(DeltaMove::Drop(s));
        }
        for s in adds {
            self.apply(DeltaMove::Add(s));
        }
    }

    /// Rebuilds every piece of running state from the current selection —
    /// the explicit escape hatch, and the reference the differential tests
    /// compare incremental updates against.
    pub fn recompute(&mut self) {
        self.card_sum = 0;
        self.coop_count = 0;
        self.coop_card = 0;
        self.union = None;
        self.union_dirty = false;
        let universe = self.problem.universe();
        for &s in &self.selected {
            let src = universe.source(s);
            self.card_sum += src.cardinality();
            if let Some(sig) = src.signature() {
                self.coop_count += 1;
                self.coop_card += src.cardinality();
                match &mut self.union {
                    None => self.union = Some(sig.clone()),
                    Some(u) => u
                        .union_assign(sig)
                        .expect("universe signatures are config-checked"),
                }
            }
        }
    }

    /// Rebuilds only the PCSA union, after drops invalidated it.
    fn refresh_union(&mut self) {
        if !self.union_dirty {
            return;
        }
        self.union = None;
        self.union_dirty = false;
        let universe = self.problem.universe();
        for &s in &self.selected {
            if let Some(sig) = universe.source(s).signature() {
                match &mut self.union {
                    None => self.union = Some(sig.clone()),
                    Some(u) => u
                        .union_assign(sig)
                        .expect("universe signatures are config-checked"),
                }
            }
        }
    }

    /// Mirrors `RedundancyQef::evaluate` over the running state.
    fn redundancy_score(&self, distinct: f64) -> f64 {
        if self.coop_count == 0 {
            return 0.0;
        }
        if self.coop_count == 1 {
            return 1.0;
        }
        let fetched = self.coop_card;
        if fetched == 0 {
            return 1.0;
        }
        if distinct <= 0.0 {
            return 1.0;
        }
        let overlap = (fetched as f64 - distinct).max(0.0);
        let max_overlap = (self.coop_count - 1) as f64 * distinct;
        (1.0 - overlap / max_overlap).clamp(0.0, 1.0)
    }

    /// Scores the current selection: `Q(S)` if feasible,
    /// [`INFEASIBLE_SCORE`] otherwise — bitwise identical to
    /// [`Problem::objective`] on the same selection.
    pub fn score(&mut self) -> f64 {
        if self.has_opaque {
            // A schema-reading QEF is present: only the full path knows how
            // to feed it.
            return match self.problem.evaluate(&self.selected) {
                CandidateEval::Feasible(sol) => sol.quality,
                CandidateEval::Infeasible => INFEASIBLE_SCORE,
            };
        }
        let Some(match_quality) = self.problem.match_quality_of(&self.selected) else {
            return INFEASIBLE_SCORE;
        };
        self.refresh_union();
        let distinct = self.union.as_ref().map_or(0.0, PcsaSignature::estimate);
        let ctx = self.problem.context();
        let universe = self.problem.universe();
        // Selection-only QEFs never look at the schema (their contract), so
        // an empty placeholder is safe — and avoids rebuilding the real one.
        let schema = MediatedSchema::empty();
        let input = EvalInput {
            universe,
            sources: &self.selected,
            schema: &schema,
            match_quality,
        };
        let mut overall = 0.0;
        for (q, w) in self.problem.qefs().iter() {
            let score = match q.delta_class() {
                DeltaClass::MatchQuality | DeltaClass::SelectionOnly => q.evaluate(ctx, &input),
                DeltaClass::SelectedCardinality => {
                    if ctx.universe_cardinality == 0 {
                        0.0
                    } else {
                        self.card_sum as f64 / ctx.universe_cardinality as f64
                    }
                }
                DeltaClass::UnionCoverage => {
                    if ctx.universe_distinct <= 0.0 {
                        0.0
                    } else {
                        (distinct / ctx.universe_distinct).clamp(0.0, 1.0)
                    }
                }
                DeltaClass::UnionRedundancy => self.redundancy_score(distinct),
                DeltaClass::Opaque => unreachable!("opaque QEFs take the full path above"),
            };
            // Same clamp-then-accumulate loop as `WeightedQefs::evaluate`,
            // in the same entry order, for bitwise-identical sums.
            overall += w * score.clamp(0.0, 1.0);
        }
        overall
    }

    /// Convenience: reposition on `target` and score it.
    pub fn score_of(&mut self, target: &BTreeSet<SourceId>) -> f64 {
        self.set_selection(target);
        self.score()
    }
}

/// A worker-local [`SubsetObjective`] view over a [`Problem`], scoring
/// through a [`DeltaEval`].
///
/// Each portfolio worker gets its own instance (via
/// `SubsetObjective::worker_view`), so the mutex below is uncontended — it
/// exists only because `SubsetObjective::score` takes `&self`. Matcher
/// outcomes are still shared across workers through the problem's
/// memo table.
pub struct DeltaObjective<'p> {
    problem: &'p Problem,
    state: Mutex<DeltaEval<'p>>,
}

impl<'p> DeltaObjective<'p> {
    /// Creates a view positioned on the empty selection.
    pub fn new(problem: &'p Problem) -> Self {
        DeltaObjective {
            problem,
            state: Mutex::new(DeltaEval::new(problem)),
        }
    }
}

impl SubsetObjective for DeltaObjective<'_> {
    fn universe_size(&self) -> usize {
        self.problem.universe_size()
    }

    fn max_selected(&self) -> usize {
        self.problem.max_selected()
    }

    fn required(&self) -> Vec<usize> {
        self.problem.required()
    }

    fn score(&self, selected: &[usize]) -> f64 {
        let target: BTreeSet<SourceId> = selected.iter().map(|&i| SourceId(i as u32)).collect();
        let mut state = self.state.lock().expect("delta state poisoned");
        state.score_of(&target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;
    use crate::matchop::IdentityMatcher;
    use crate::qef::{EvalContext, Qef, WeightedQefs};
    use crate::qefs::{data_only_qefs, paper_default_qefs};
    use crate::schema::Schema;
    use crate::source::{SourceSpec, Universe};
    use mube_sketch::pcsa::PcsaConfig;
    use std::sync::Arc;

    fn sig(keys: std::ops::Range<u64>) -> PcsaSignature {
        let mut s = PcsaSignature::new(PcsaConfig::new(64, 32, 7));
        for k in keys {
            s.insert(k);
        }
        s
    }

    /// A mixed universe: cooperating and silent sources, characteristics
    /// present on some, one zero-cardinality source.
    fn universe() -> Arc<Universe> {
        let mut b = Universe::builder();
        for i in 0..8u64 {
            let mut spec = SourceSpec::new(format!("s{i}"), Schema::new(["x", "y"]))
                .cardinality(if i == 5 { 0 } else { 100 + i * 37 });
            if i % 2 == 0 {
                spec = spec.signature(sig(i * 300..i * 300 + 400));
            }
            if i % 3 == 0 {
                spec = spec.characteristic("mttf", 10.0 + i as f64);
            }
            b.add_source(spec);
        }
        Arc::new(b.build().unwrap())
    }

    fn problem(qefs: WeightedQefs) -> Problem {
        Problem::new(
            universe(),
            Arc::new(IdentityMatcher),
            qefs,
            Constraints::with_max_sources(5).beta(1),
        )
        .unwrap()
    }

    fn assert_bitwise(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
    }

    #[test]
    fn moves_match_full_objective_bitwise() {
        let p = problem(paper_default_qefs("mttf"));
        let mut ev = DeltaEval::new(&p);
        let walk = [
            DeltaMove::Add(SourceId(0)),
            DeltaMove::Add(SourceId(3)),
            DeltaMove::Add(SourceId(4)),
            DeltaMove::Drop(SourceId(3)),
            DeltaMove::Add(SourceId(5)),
            DeltaMove::Add(SourceId(2)),
            DeltaMove::Drop(SourceId(0)),
            DeltaMove::Add(SourceId(6)),
            DeltaMove::Add(SourceId(7)),
            DeltaMove::Add(SourceId(1)), // now oversize → infeasible
        ];
        for (i, &mv) in walk.iter().enumerate() {
            assert!(ev.apply(mv));
            let full = p.objective(&ev.selection().clone());
            assert_bitwise(ev.score(), full, &format!("after move {i} ({mv:?})"));
        }
    }

    #[test]
    fn recompute_matches_incremental_state() {
        let p = problem(data_only_qefs());
        let mut ev = DeltaEval::new(&p);
        for s in [0u32, 2, 4, 6] {
            ev.apply(DeltaMove::Add(SourceId(s)));
        }
        ev.apply(DeltaMove::Drop(SourceId(2))); // dirties the union
        let incremental = ev.score();
        let mut fresh = DeltaEval::with_selection(&p, &ev.selection().clone());
        assert_bitwise(incremental, fresh.score(), "incremental vs recompute");
        ev.recompute();
        assert_bitwise(ev.score(), incremental, "recompute is idempotent");
    }

    #[test]
    fn noop_moves_are_rejected() {
        let p = problem(data_only_qefs());
        let mut ev = DeltaEval::new(&p);
        assert!(!ev.apply(DeltaMove::Drop(SourceId(1))));
        assert!(ev.apply(DeltaMove::Add(SourceId(1))));
        assert!(!ev.apply(DeltaMove::Add(SourceId(1))));
        assert_eq!(ev.selection().len(), 1);
    }

    #[test]
    fn set_selection_jumps_and_steps() {
        let p = problem(paper_default_qefs("mttf"));
        let mut ev = DeltaEval::new(&p);
        let a: BTreeSet<_> = [SourceId(0), SourceId(1), SourceId(2)].into();
        let b: BTreeSet<_> = [SourceId(1), SourceId(2), SourceId(4)].into(); // step
        let c: BTreeSet<_> = [SourceId(5), SourceId(6), SourceId(7)].into(); // jump
        for target in [&a, &b, &c] {
            ev.set_selection(target);
            assert_eq!(ev.selection(), target);
            assert_bitwise(ev.score(), p.objective(target), "set_selection");
        }
    }

    #[test]
    fn empty_selection_is_infeasible() {
        let p = problem(data_only_qefs());
        let mut ev = DeltaEval::new(&p);
        assert_eq!(ev.score(), INFEASIBLE_SCORE);
        ev.apply(DeltaMove::Add(SourceId(0)));
        ev.apply(DeltaMove::Drop(SourceId(0)));
        assert_eq!(ev.score(), INFEASIBLE_SCORE);
    }

    /// A QEF that reads the mediated schema — must force the full path.
    struct SchemaSize;
    impl Qef for SchemaSize {
        fn name(&self) -> &str {
            "schema-size"
        }
        fn evaluate(&self, _: &EvalContext, input: &EvalInput<'_>) -> f64 {
            (input.schema.len() as f64 / 16.0).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn opaque_qefs_take_the_full_path() {
        let qefs = WeightedQefs::new(vec![
            (Arc::new(SchemaSize) as Arc<dyn Qef>, 0.5),
            (Arc::new(crate::qefs::CardinalityQef) as Arc<dyn Qef>, 0.5),
        ])
        .unwrap();
        let p = problem(qefs);
        let mut ev = DeltaEval::new(&p);
        for s in [0u32, 1, 4] {
            ev.apply(DeltaMove::Add(SourceId(s)));
            let full = p.objective(&ev.selection().clone());
            assert_bitwise(ev.score(), full, "opaque fallback");
        }
    }

    #[test]
    fn delta_objective_matches_problem_scores() {
        let p = problem(paper_default_qefs("mttf"));
        let view = DeltaObjective::new(&p);
        for sel in [
            vec![0usize],
            vec![0, 1, 2],
            vec![2, 4, 6],
            vec![0, 1, 2, 3, 4, 5], // oversize
            vec![7],
        ] {
            assert_bitwise(
                view.score(&sel),
                p.score(&sel),
                &format!("DeltaObjective on {sel:?}"),
            );
        }
        assert_eq!(view.universe_size(), p.universe_size());
        assert_eq!(view.max_selected(), p.max_selected());
        assert_eq!(view.required(), p.required());
    }

    #[test]
    fn worker_view_is_a_delta_objective() {
        let p = problem(data_only_qefs());
        let view = p.worker_view().expect("problem provides a worker view");
        assert_bitwise(view.score(&[0, 2]), p.score(&[0, 2]), "worker_view");
    }
}
