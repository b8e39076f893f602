//! Hierarchical two-level subset solving.
//!
//! At internet scale (10^5–10^6 candidates) a flat solve is infeasible: every
//! solver move touches the whole candidate vector, and the objective's
//! supporting state (similarity caches, signatures) grows at least linearly
//! in the universe. The scale pipeline instead solves **twice**: first a
//! *coarse* problem whose elements are clusters of near-duplicate sources
//! (scored through per-cluster representative sketches), then a *fine*
//! problem restricted to the members of the winning clusters. This module
//! contributes the two ingredients that are independent of where the
//! clusters come from:
//!
//! * [`RestrictedObjective`] — presents a subset of a larger objective's
//!   universe as a dense `0..k` universe of its own, so any
//!   [`SubsetSolver`] can solve inside the restriction unmodified, and
//!   solutions lift back to the original index space;
//! * [`solve_two_level`] — the coarse-solve → expand → fine-solve driver,
//!   generic over how the expansion constructs the fine objective (the
//!   `mube-scale` pipeline builds a fresh sub-problem; tests restrict an
//!   existing flat objective).
//!
//! Both levels run under one [`CancelToken`], preserving the anytime
//! guarantee end to end: if the deadline fires mid-coarse, the expansion
//! still sees the best coarse incumbent and the fine solve still returns a
//! feasible (if unimproved) solution.

use crate::cancel::CancelToken;
use crate::problem::{SolveResult, Start, SubsetObjective, SubsetSolver};

/// Seed-stream separator between the coarse and fine solves, so the two
/// levels never replay the same random walk. Odd constant, same derivation
/// idiom as the portfolio's per-worker streams.
const FINE_STREAM: u64 = 0x517C_C1B7_2722_0A95;

/// A dense re-indexing of a larger objective onto a candidate subset.
///
/// Element `i` of this objective is `candidates[i]` of the inner one;
/// scoring lifts the dense selection back and delegates, so the restricted
/// objective is *exactly* the inner objective confined to the candidate
/// set. The inner objective's required elements must all be candidates —
/// a restriction that dropped a required element could never produce a
/// feasible lifted solution.
pub struct RestrictedObjective<'a> {
    inner: &'a dyn SubsetObjective,
    /// Sorted, distinct indices into the inner universe.
    candidates: Vec<usize>,
    /// Inner required elements, re-expressed as dense indices.
    required: Vec<usize>,
}

impl<'a> RestrictedObjective<'a> {
    /// Restricts `inner` to `candidates` (any order, duplicates ignored).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, contains an index outside the inner
    /// universe, or misses one of the inner objective's required elements.
    pub fn new(inner: &'a dyn SubsetObjective, mut candidates: Vec<usize>) -> Self {
        candidates.sort_unstable();
        candidates.dedup();
        assert!(!candidates.is_empty(), "restriction needs candidates");
        assert!(
            candidates.last().is_none_or(|&c| c < inner.universe_size()),
            "candidate outside the inner universe"
        );
        let required = inner
            .required()
            .iter()
            .map(|r| {
                candidates
                    .binary_search(r)
                    .unwrap_or_else(|_| panic!("required element {r} not in the restriction"))
            })
            .collect();
        RestrictedObjective {
            inner,
            candidates,
            required,
        }
    }

    /// The candidate set, sorted ascending in the inner index space.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Lifts a dense selection back to the inner index space. Preserves
    /// sortedness (the candidate list is sorted).
    pub fn lift(&self, dense: &[usize]) -> Vec<usize> {
        dense.iter().map(|&i| self.candidates[i]).collect()
    }
}

impl SubsetObjective for RestrictedObjective<'_> {
    fn universe_size(&self) -> usize {
        self.candidates.len()
    }

    fn max_selected(&self) -> usize {
        self.inner.max_selected().min(self.candidates.len())
    }

    fn required(&self) -> Vec<usize> {
        self.required.clone()
    }

    fn score(&self, selected: &[usize]) -> f64 {
        self.inner.score(&self.lift(selected))
    }
}

/// Outcome of a [`solve_two_level`] run.
pub struct TwoLevelResult<O> {
    /// The coarse (cluster-level) solver run, in coarse index space.
    pub coarse: SolveResult,
    /// The fine solver run, in the fine objective's index space.
    pub fine: SolveResult,
    /// The fine objective the expansion built, so callers can lift the
    /// selection, validate it, or keep solving from the incumbent.
    pub objective: O,
}

/// Coarse-solve → expand → fine-solve.
///
/// Solves `coarse` with `solver`, hands the winning coarse selection to
/// `expand` — which constructs the fine objective however it likes (restrict
/// a flat objective, build a sub-problem over the clusters' members, ...) —
/// then solves that on a derived seed stream. The same `cancel` token bounds
/// both levels; split budgets by arming a deadline that covers the sum.
pub fn solve_two_level<O, E>(
    coarse: &dyn SubsetObjective,
    solver: &dyn SubsetSolver,
    seed: u64,
    cancel: &CancelToken,
    expand: E,
) -> TwoLevelResult<O>
where
    O: SubsetObjective,
    E: FnOnce(&[usize]) -> O,
{
    let coarse_result = solver.solve_with(coarse, seed, Start::Cold, cancel);
    let objective = expand(&coarse_result.selected);
    let fine = solver.solve_with(&objective, seed ^ FINE_STREAM, Start::Cold, cancel);
    TwoLevelResult {
        coarse: coarse_result,
        fine,
        objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tabu::TabuSearch;

    /// Additive toy objective: score = Σ values[i], capped at `max` picks.
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
            selected.iter().map(|&i| self.values[i]).sum()
        }
    }

    #[test]
    fn restriction_scores_through_the_inner_objective() {
        let toy = Toy {
            values: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            max: 2,
            required: vec![],
        };
        let r = RestrictedObjective::new(&toy, vec![4, 0, 2, 4]);
        assert_eq!(r.universe_size(), 3);
        assert_eq!(r.candidates(), &[0, 2, 4]);
        // Dense {1, 2} lifts to inner {2, 4}: 3 + 5.
        assert_eq!(r.score(&[1, 2]), 8.0);
        assert_eq!(r.lift(&[0, 2]), vec![0, 4]);
    }

    #[test]
    fn restriction_remaps_required_elements() {
        let toy = Toy {
            values: vec![1.0; 6],
            max: 3,
            required: vec![4],
        };
        let r = RestrictedObjective::new(&toy, vec![1, 4, 5]);
        assert_eq!(r.required(), vec![1]); // dense index of inner 4
        let solved = TabuSearch::default().solve(&r, 7);
        assert!(r.lift(&solved.selected).contains(&4));
    }

    #[test]
    #[should_panic(expected = "required element")]
    fn restriction_missing_required_panics() {
        let toy = Toy {
            values: vec![1.0; 4],
            max: 2,
            required: vec![3],
        };
        let _ = RestrictedObjective::new(&toy, vec![0, 1]);
    }

    #[test]
    fn restriction_caps_max_selected() {
        let toy = Toy {
            values: vec![1.0; 10],
            max: 5,
            required: vec![],
        };
        let r = RestrictedObjective::new(&toy, vec![0, 1]);
        assert_eq!(r.max_selected(), 2);
    }

    #[test]
    fn two_level_finds_the_flat_optimum_on_separable_clusters() {
        // 12 elements in 4 clusters of 3; cluster value = best member.
        // Coarse picks the 2 best clusters; fine (restricted to their 6
        // members) must recover the flat optimum — the two largest values,
        // which both live in cluster 3.
        let flat = Toy {
            values: vec![
                1.0, 2.0, 3.0, // cluster 0
                4.0, 5.0, 6.0, // cluster 1
                7.0, 8.0, 9.0, // cluster 2
                10.0, 11.0, 12.0, // cluster 3
            ],
            max: 2,
            required: vec![],
        };
        let members: Vec<Vec<usize>> = (0..4).map(|c| (3 * c..3 * c + 3).collect()).collect();
        let coarse = Toy {
            values: members
                .iter()
                .map(|m| m.iter().map(|&i| flat.values[i]).fold(0.0, f64::max))
                .collect(),
            max: 2,
            required: vec![],
        };
        let solver = TabuSearch::default();
        let result = solve_two_level(&coarse, &solver, 3, &CancelToken::none(), |winners| {
            let expanded: Vec<usize> = winners
                .iter()
                .flat_map(|&c| members[c].iter().copied())
                .collect();
            RestrictedObjective::new(&flat, expanded)
        });
        assert_eq!(result.coarse.selected, vec![2, 3]);
        let lifted = result.objective.lift(&result.fine.selected);
        assert_eq!(lifted, vec![10, 11]);
        let flat_direct = solver.solve(&flat, 3);
        assert_eq!(result.fine.score, flat_direct.score);
    }

    #[test]
    fn two_level_is_deterministic_and_uses_distinct_streams() {
        let flat = Toy {
            values: (0..20).map(|i| f64::from(i % 7)).collect(),
            max: 4,
            required: vec![],
        };
        let members: Vec<Vec<usize>> = (0..5).map(|c| (4 * c..4 * c + 4).collect()).collect();
        let coarse = Toy {
            values: members
                .iter()
                .map(|m| m.iter().map(|&i| flat.values[i]).sum())
                .collect(),
            max: 3,
            required: vec![],
        };
        let solver = TabuSearch::default();
        let run = |seed| {
            let r = solve_two_level(&coarse, &solver, seed, &CancelToken::none(), |winners| {
                let expanded: Vec<usize> = winners
                    .iter()
                    .flat_map(|&c| members[c].iter().copied())
                    .collect();
                RestrictedObjective::new(&flat, expanded)
            });
            (
                r.coarse.selected.clone(),
                r.objective.lift(&r.fine.selected),
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn two_level_respects_cancellation_anytime() {
        let flat = Toy {
            values: vec![1.0; 30],
            max: 5,
            required: vec![],
        };
        let coarse = Toy {
            values: vec![1.0; 10],
            max: 3,
            required: vec![],
        };
        let cancel = CancelToken::new();
        cancel.cancel(); // already fired: both levels cut to first evaluation
        let solver = TabuSearch::default();
        let result = solve_two_level(&coarse, &solver, 1, &cancel, |winners| {
            let expanded: Vec<usize> = winners.iter().flat_map(|&c| 3 * c..3 * c + 3).collect();
            RestrictedObjective::new(&flat, expanded)
        });
        assert!(result.coarse.timed_out);
        assert!(result.fine.timed_out);
        assert!(!result.coarse.selected.is_empty(), "anytime guarantee");
        assert!(!result.fine.selected.is_empty(), "anytime guarantee");
    }
}
