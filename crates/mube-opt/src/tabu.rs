//! Tabu search — `µBE`'s default optimizer.
//!
//! Tabu search (Glover & Laguna) is a local search that "partially remembers
//! its path through the search space and uses this memory to declare parts
//! of the search space as tabu for some time" (§6 of the paper). Our
//! implementation:
//!
//! * neighborhood of single-element **add / remove / swap** moves,
//! * a *candidate list*: a random sample of the (possibly huge) neighborhood
//!   is evaluated each iteration, keeping the cost per iteration bounded,
//! * a recency-based **tabu list**: an element that just changed membership
//!   may not change back for `tenure` iterations,
//! * the classic **aspiration criterion**: a tabu move is allowed anyway if
//!   it would beat the best solution ever seen,
//! * **permanently tabu** regions: required elements can never be removed
//!   and the selection can never exceed `max_selected` — the constraint
//!   handling the paper describes.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::problem::{
    random_feasible, Incumbent, Move, SolveResult, Start, SubsetObjective, SubsetSolver,
    DEFAULT_MAX_EVALUATIONS,
};

/// How the starting solution is constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitStrategy {
    /// The required elements plus a random fill up to `max_selected`.
    Random,
    /// Greedy construction: repeatedly sample `sample` addable elements,
    /// evaluate each extension, and keep the best as long as it improves.
    /// Costs part of the evaluation budget but starts the search near a
    /// good region.
    Greedy {
        /// Candidates sampled per greedy step.
        sample: usize,
    },
}

/// Tabu search configuration.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    /// How many iterations an element stays tabu after moving.
    pub tenure: u64,
    /// Moves sampled and evaluated per iteration.
    pub candidates_per_iter: usize,
    /// Stop after this many consecutive iterations in which the best
    /// solution ever seen did not improve — the convergence criterion.
    pub stall_limit: u64,
    /// Hard cap on iterations.
    pub max_iterations: u64,
    /// Hard cap on objective evaluations.
    pub max_evaluations: u64,
    /// Starting-solution construction.
    pub init: InitStrategy,
}

impl Default for TabuSearch {
    fn default() -> Self {
        TabuSearch {
            tenure: 7,
            candidates_per_iter: 32,
            stall_limit: 40,
            max_iterations: 400,
            max_evaluations: DEFAULT_MAX_EVALUATIONS,
            init: InitStrategy::Random,
        }
    }
}

impl SubsetSolver for TabuSearch {
    fn name(&self) -> &str {
        "tabu"
    }

    fn solve_with(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        start: Start<'_>,
        cancel: &CancelToken,
    ) -> SolveResult {
        self.search(objective, seed, start, 0, cancel).0
    }
}

impl TabuSearch {
    /// Like [`SubsetSolver::solve`], but also returns up to `k` of the best
    /// *distinct* candidates encountered during the search (best first,
    /// starting with the returned solution itself). This supports `µBE`'s
    /// exploratory use: alongside the winner, the user can inspect
    /// runner-up source selections the search found credible.
    pub fn solve_topk(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        k: usize,
    ) -> (SolveResult, Vec<(f64, Vec<usize>)>) {
        self.search(objective, seed, Start::Cold, k, &CancelToken::none())
    }

    fn search(
        &self,
        objective: &dyn SubsetObjective,
        seed: u64,
        start: Start<'_>,
        elite_capacity: usize,
        cancel: &CancelToken,
    ) -> (SolveResult, Vec<(f64, Vec<usize>)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let required = {
            let mut r = objective.required();
            r.sort_unstable();
            r.dedup();
            r
        };
        let mut incumbent = Incumbent::new(objective, self.max_evaluations)
            .with_elites(elite_capacity)
            .with_cancel(cancel.clone());
        let mut current = match (start, &self.init) {
            (Start::Warm(warm) | Start::Within(warm, _), _) => repair(objective, &required, warm),
            (Start::Cold, InitStrategy::Random) => random_feasible(objective, &mut rng),
            (Start::Cold, InitStrategy::Greedy { sample }) => {
                greedy_construct(objective, &required, *sample, &mut incumbent, &mut rng)
            }
        };
        // The trust region is anchored at the (repaired) starting solution,
        // so forced repairs (new pins, a tightened size bound) never eat
        // into the drift budget.
        let anchor = match start {
            Start::Within(_, radius) => Some((current.clone(), radius)),
            Start::Cold | Start::Warm(_) => None,
        };
        incumbent.score(&current);

        // tabu_until[i] = first iteration at which element i may move again.
        let mut tabu_until = vec![0u64; objective.universe_size()];
        let mut stall = 0u64;
        let mut iterations = 0u64;

        while iterations < self.max_iterations && !incumbent.exhausted() {
            if stall >= self.stall_limit {
                // Before giving up, exhaustively check the incumbent's
                // single-move neighborhood (random sampling can miss the one
                // marginal improving swap). If the sweep improves the best,
                // resume the tabu phase from it; otherwise the incumbent is
                // locally optimal and the search is done.
                if polish(objective, &required, &anchor, &mut incumbent) {
                    current = incumbent.best.clone();
                    stall = 0;
                    continue;
                }
                break;
            }
            iterations += 1;
            let best_at_iteration_start = incumbent.best_score;
            let moves = self.sample_moves(objective, &current, &required, &mut rng);
            let mut best_move: Option<(Move, Vec<usize>, f64)> = None;
            for mv in moves {
                if incumbent.exhausted() {
                    break;
                }
                let candidate = mv.apply(&current);
                if let Some((anchor, radius)) = &anchor {
                    if hamming_distance(&candidate, anchor) > *radius {
                        continue;
                    }
                }
                let tabu = self.is_tabu(mv, iterations, &tabu_until);
                // Score first; aspiration needs the value. The incumbent is
                // only updated through `score`, so a tabu candidate that
                // aspirates is handled consistently.
                let prev_best = incumbent.best_score;
                let s = incumbent.score(&candidate);
                let aspirated = s > prev_best;
                if tabu && !aspirated {
                    continue;
                }
                if best_move.as_ref().is_none_or(|(_, _, bs)| s > *bs) {
                    best_move = Some((mv, candidate, s));
                }
            }
            // Convergence is measured against the incumbent: an iteration
            // "stalls" when nothing evaluated beat the best ever seen.
            if incumbent.best_score > best_at_iteration_start {
                stall = 0;
            } else {
                stall += 1;
                // Intensification: while stalling, periodically pull the
                // search back to the best solution seen (elite recovery), so
                // the endgame keeps probing the incumbent's neighborhood
                // instead of drifting ever further from it.
                if stall.is_multiple_of(self.tenure + 1) && current != incumbent.best {
                    current = incumbent.best.clone();
                    continue;
                }
            }
            let Some((mv, next, _)) = best_move else {
                // Whole candidate list was tabu; wait for tenures to expire.
                continue;
            };
            // Mark the touched elements tabu so the move is not immediately
            // undone.
            let (a, b) = mv.touched();
            tabu_until[a] = iterations + self.tenure;
            if let Some(b) = b {
                tabu_until[b] = iterations + self.tenure;
            }
            current = next;
        }
        // Destructure: the elite archive and the headline result.
        let mut elites_out = Vec::new();
        std::mem::swap(&mut elites_out, incumbent.elites_mut());
        let result = incumbent.into_result(iterations);
        crate::problem::debug_validate_result(objective, &result);
        (result, elites_out)
    }
}

/// Exhaustive first-improvement sweep over the single-move neighborhood of
/// the incumbent's best solution, bounded by the remaining evaluation budget
/// (and the trust region, when one is active). Returns whether the incumbent
/// improved. When it returns `false` with budget to spare, the best solution
/// is locally optimal under add/remove/swap moves.
fn polish(
    objective: &dyn SubsetObjective,
    required: &[usize],
    anchor: &Option<(Vec<usize>, usize)>,
    incumbent: &mut Incumbent<'_>,
) -> bool {
    let base = incumbent.best.clone();
    if base.is_empty() {
        return false;
    }
    let n = objective.universe_size();
    let start_score = incumbent.best_score;
    let removable: Vec<usize> = base
        .iter()
        .copied()
        .filter(|i| required.binary_search(i).is_err())
        .collect();
    let addable: Vec<usize> = (0..n).filter(|i| base.binary_search(i).is_err()).collect();

    let mut moves: Vec<Move> = Vec::new();
    if base.len() > 1 {
        moves.extend(removable.iter().map(|&i| Move::Remove(i)));
    }
    if base.len() < objective.max_selected() {
        moves.extend(addable.iter().map(|&i| Move::Add(i)));
    }
    for &out in &removable {
        moves.extend(addable.iter().map(|&r#in| Move::Swap { out, r#in }));
    }
    for mv in moves {
        if incumbent.exhausted() {
            break;
        }
        let candidate = mv.apply(&base);
        if let Some((anchor, radius)) = anchor {
            if hamming_distance(&candidate, anchor) > *radius {
                continue;
            }
        }
        incumbent.score(&candidate);
        if incumbent.best_score > start_score {
            return true;
        }
    }
    incumbent.best_score > start_score
}

/// Hamming distance between two sorted, duplicate-free selections: the
/// number of elements present in exactly one of them.
fn hamming_distance(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut d) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                d += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                d += 1;
            }
        }
    }
    d + (a.len() - i) + (b.len() - j)
}

/// Repairs a warm-start solution into the feasible region: dedupe and
/// sort, force required elements in, and drop non-required extras (from
/// the end) until the size bound holds.
fn repair(objective: &dyn SubsetObjective, required: &[usize], warm: &[usize]) -> Vec<usize> {
    let n = objective.universe_size();
    let mut current: Vec<usize> = warm.iter().copied().filter(|&i| i < n).collect();
    current.sort_unstable();
    current.dedup();
    for &r in required {
        crate::problem::sorted_insert(&mut current, r);
    }
    let max = objective.max_selected().min(n).max(1);
    while current.len() > max {
        let victim = current
            .iter()
            .rposition(|i| required.binary_search(i).is_err())
            .unwrap_or(current.len() - 1);
        current.remove(victim);
    }
    if current.is_empty() {
        current.push(0);
    }
    current
}

/// Greedy starting-solution construction: grow from the required core,
/// each step adding the best of `sample` randomly drawn candidates, while
/// additions keep improving (spending no more than half the evaluation
/// budget so the tabu phase always gets its share).
fn greedy_construct(
    objective: &dyn SubsetObjective,
    required: &[usize],
    sample: usize,
    incumbent: &mut Incumbent<'_>,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = objective.universe_size();
    let mut current: Vec<usize> = required.to_vec();
    if current.is_empty() {
        current.push(rng.random_range(0..n));
    }
    let budget_share = incumbent.max_evaluations / 2;
    let mut current_score = incumbent.score(&current);
    while current.len() < objective.max_selected().min(n) {
        if incumbent.evaluations >= budget_share || incumbent.exhausted() {
            break;
        }
        let addable: Vec<usize> = (0..n)
            .filter(|i| current.binary_search(i).is_err())
            .collect();
        if addable.is_empty() {
            break;
        }
        let mut best: Option<(usize, f64)> = None;
        for _ in 0..sample.min(addable.len()) {
            let candidate = *addable.as_slice().choose(rng).expect("non-empty");
            let extended = Move::Add(candidate).apply(&current);
            let s = incumbent.score(&extended);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((candidate, s));
            }
        }
        match best {
            Some((candidate, s)) if s > current_score => {
                current = Move::Add(candidate).apply(&current);
                current_score = s;
            }
            _ => break,
        }
    }
    current
}

impl TabuSearch {
    fn is_tabu(&self, mv: Move, iteration: u64, tabu_until: &[u64]) -> bool {
        let (a, b) = mv.touched();
        tabu_until[a] > iteration || b.is_some_and(|b| tabu_until[b] > iteration)
    }

    /// Samples up to `candidates_per_iter` distinct legal moves: every
    /// remove is always considered (there are at most `m` of them), adds and
    /// swaps are sampled.
    fn sample_moves(
        &self,
        objective: &dyn SubsetObjective,
        current: &[usize],
        required: &[usize],
        rng: &mut StdRng,
    ) -> Vec<Move> {
        let n = objective.universe_size();
        let removable: Vec<usize> = current
            .iter()
            .copied()
            .filter(|i| required.binary_search(i).is_err())
            .collect();
        let addable: Vec<usize> = (0..n)
            .filter(|i| current.binary_search(i).is_err())
            .collect();

        let mut moves = Vec::with_capacity(self.candidates_per_iter);
        // Removals: cheap to enumerate fully (keep at least one element).
        if current.len() > 1 {
            for &i in &removable {
                moves.push(Move::Remove(i));
            }
        }
        let room = self.candidates_per_iter.saturating_sub(moves.len());
        let can_add = current.len() < objective.max_selected() && !addable.is_empty();
        let can_swap = !removable.is_empty() && !addable.is_empty();
        for _ in 0..room {
            match (can_add, can_swap) {
                (true, true) => {
                    if rng.random_bool(0.5) {
                        moves.push(Move::Add(
                            *addable.as_slice().choose(rng).expect("non-empty"),
                        ));
                    } else {
                        moves.push(Move::Swap {
                            out: *removable.as_slice().choose(rng).expect("non-empty"),
                            r#in: *addable.as_slice().choose(rng).expect("non-empty"),
                        });
                    }
                }
                (true, false) => {
                    moves.push(Move::Add(
                        *addable.as_slice().choose(rng).expect("non-empty"),
                    ));
                }
                (false, true) => moves.push(Move::Swap {
                    out: *removable.as_slice().choose(rng).expect("non-empty"),
                    r#in: *addable.as_slice().choose(rng).expect("non-empty"),
                }),
                (false, false) => break,
            }
        }
        moves
    }
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
            selected.iter().map(|&i| self.values[i]).sum()
        }
    }

    #[test]
    fn finds_top_k_on_linear_objective() {
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 5,
            required: vec![],
        };
        let r = TabuSearch::default().solve(&toy, 7);
        assert_eq!(r.selected, vec![35, 36, 37, 38, 39]);
        assert_eq!(r.score, 35.0 + 36.0 + 37.0 + 38.0 + 39.0);
    }

    #[test]
    fn keeps_required_even_when_bad() {
        // Element 0 is worthless but required.
        let mut values = vec![0.0];
        values.extend((1..20).map(f64::from));
        let toy = Toy {
            values,
            max: 3,
            required: vec![0],
        };
        let r = TabuSearch::default().solve(&toy, 1);
        assert!(r.selected.contains(&0));
        assert!(r.selected.len() <= 3);
        // The other two slots should hold the two largest values.
        assert!(
            r.selected.contains(&19) && r.selected.contains(&18),
            "got {:?}",
            r.selected
        );
    }

    #[test]
    fn handles_nonlinear_objective_with_interaction() {
        // Pairs (2i, 2i+1) only score together: a deceptive landscape for
        // pure greedy addition.
        struct Pairs;
        impl SubsetObjective for Pairs {
            fn universe_size(&self) -> usize {
                20
            }
            fn max_selected(&self) -> usize {
                4
            }
            fn required(&self) -> Vec<usize> {
                vec![]
            }
            fn score(&self, selected: &[usize]) -> f64 {
                (0..10)
                    .filter(|&p| {
                        selected.binary_search(&(2 * p)).is_ok()
                            && selected.binary_search(&(2 * p + 1)).is_ok()
                    })
                    .map(|p| f64::from(p as u32) + 1.0)
                    .sum()
            }
        }
        let r = TabuSearch::default().solve(&Pairs, 11);
        // Best: pairs 8 and 9 → 9 + 10 = 19.
        assert!(r.score >= 17.0, "score = {}", r.score);
    }

    #[test]
    fn respects_evaluation_budget() {
        let toy = Toy {
            values: vec![1.0; 50],
            max: 10,
            required: vec![],
        };
        let cfg = TabuSearch {
            max_evaluations: 100,
            ..TabuSearch::default()
        };
        let r = cfg.solve(&toy, 3);
        assert!(r.evaluations <= 100 + cfg.candidates_per_iter as u64 + 50);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let values: Vec<f64> = (0..30).map(|i| f64::from((i * 7) % 13)).collect();
        let toy = Toy {
            values,
            max: 6,
            required: vec![2],
        };
        let a = TabuSearch::default().solve(&toy, 99);
        let b = TabuSearch::default().solve(&toy, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn universe_smaller_than_max() {
        let toy = Toy {
            values: vec![1.0, 2.0],
            max: 10,
            required: vec![],
        };
        let r = TabuSearch::default().solve(&toy, 5);
        assert_eq!(r.selected, vec![0, 1]);
    }
}

#[cfg(test)]
mod greedy_tests {
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
            selected.iter().map(|&i| self.values[i]).sum()
        }
    }

    fn greedy() -> TabuSearch {
        TabuSearch {
            init: InitStrategy::Greedy { sample: 16 },
            ..TabuSearch::default()
        }
    }

    #[test]
    fn greedy_init_finds_top_k() {
        let values: Vec<f64> = (0..40).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 5,
            required: vec![],
        };
        let r = greedy().solve(&toy, 7);
        assert_eq!(r.selected, vec![35, 36, 37, 38, 39]);
    }

    #[test]
    fn greedy_init_keeps_required() {
        let toy = Toy {
            values: vec![0.0, 9.0, 1.0, 8.0, 2.0],
            max: 3,
            required: vec![0],
        };
        let r = greedy().solve(&toy, 3);
        assert!(r.selected.contains(&0));
        assert!(r.selected.len() <= 3);
    }

    #[test]
    fn greedy_init_is_deterministic() {
        let values: Vec<f64> = (0..25).map(|i| f64::from((i * 11) % 17)).collect();
        let toy = Toy {
            values,
            max: 6,
            required: vec![1],
        };
        assert_eq!(greedy().solve(&toy, 5), greedy().solve(&toy, 5));
    }

    #[test]
    fn greedy_respects_budget() {
        let toy = Toy {
            values: vec![1.0; 100],
            max: 50,
            required: vec![],
        };
        let cfg = TabuSearch {
            init: InitStrategy::Greedy { sample: 8 },
            max_evaluations: 60,
            ..TabuSearch::default()
        };
        let r = cfg.solve(&toy, 1);
        assert!(r.evaluations <= 60 + 40, "evals = {}", r.evaluations);
    }
}

#[cfg(test)]
mod warm_tests {
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
            selected.iter().map(|&i| self.values[i]).sum()
        }
    }

    #[test]
    fn warm_start_improves_from_seed() {
        let values: Vec<f64> = (0..30).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 4,
            required: vec![],
        };
        let warm = [0, 1, 2, 3]; // worst possible
        let r = TabuSearch::default().solve_with(&toy, 1, Start::Warm(&warm), &CancelToken::none());
        assert_eq!(r.selected, vec![26, 27, 28, 29]);
    }

    #[test]
    fn warm_start_repairs_infeasible_seeds() {
        let toy = Toy {
            values: vec![1.0; 10],
            max: 3,
            required: vec![9],
        };
        let cfg = TabuSearch {
            max_evaluations: 1, // only the initial evaluation
            max_iterations: 0,
            ..TabuSearch::default()
        };
        let warm = [0, 1, 2, 3, 4, 99]; // too big + foreign
        let r = cfg.solve_with(&toy, 1, Start::Warm(&warm), &CancelToken::none());
        assert!(r.selected.contains(&9));
        assert!(r.selected.len() <= 3);
        assert!(r.selected.iter().all(|&i| i < 10));
    }

    #[test]
    fn trust_region_bounds_drift() {
        // Optimum is {26..29}, far from the warm start {0..3}; with a trust
        // region of 2 the search may change at most two memberships.
        let values: Vec<f64> = (0..30).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 4,
            required: vec![],
        };
        let warm = vec![0, 1, 2, 3];
        let r = TabuSearch::default().solve_with(
            &toy,
            1,
            Start::Within(&warm, 2),
            &CancelToken::none(),
        );
        let moved = r.selected.iter().filter(|i| !warm.contains(i)).count()
            + warm.iter().filter(|i| !r.selected.contains(i)).count();
        assert!(moved <= 2, "drifted {moved} > 2: {:?}", r.selected);
        // Within the region the search still optimizes: one swap to 29.
        assert!(r.selected.contains(&29), "got {:?}", r.selected);
    }

    #[test]
    fn trust_region_never_scores_worse_than_warm_start() {
        let values: Vec<f64> = (0..30).map(|i| f64::from((i * 17) % 23)).collect();
        let toy = Toy {
            values: values.clone(),
            max: 5,
            required: vec![],
        };
        let warm = vec![3, 8, 12, 20, 25];
        let warm_score: f64 = warm.iter().map(|&i| values[i]).sum();
        for radius in [0, 1, 3, 6] {
            let r = TabuSearch::default().solve_with(
                &toy,
                9,
                Start::Within(&warm, radius),
                &CancelToken::none(),
            );
            assert!(
                r.score >= warm_score,
                "radius {radius}: {} < {warm_score}",
                r.score
            );
        }
    }

    #[test]
    fn trust_region_zero_pins_the_warm_start() {
        let values: Vec<f64> = (0..20).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 3,
            required: vec![],
        };
        let r = TabuSearch::default().solve_with(
            &toy,
            4,
            Start::Within(&[2, 5, 7], 0),
            &CancelToken::none(),
        );
        assert_eq!(r.selected, vec![2, 5, 7]);
    }

    #[test]
    fn warm_start_near_optimum_stays_put() {
        // Seeding with the optimum must return the optimum.
        let values: Vec<f64> = (0..20).map(f64::from).collect();
        let toy = Toy {
            values,
            max: 3,
            required: vec![],
        };
        let warm = [17, 18, 19];
        let r = TabuSearch::default().solve_with(&toy, 2, Start::Warm(&warm), &CancelToken::none());
        assert_eq!(r.selected, vec![17, 18, 19]);
    }
}

#[cfg(test)]
mod topk_tests {
    use super::*;

    struct Toy {
        values: Vec<f64>,
        max: usize,
    }

    impl SubsetObjective for Toy {
        fn universe_size(&self) -> usize {
            self.values.len()
        }
        fn max_selected(&self) -> usize {
            self.max
        }
        fn required(&self) -> Vec<usize> {
            vec![]
        }
        fn score(&self, selected: &[usize]) -> f64 {
            selected.iter().map(|&i| self.values[i]).sum()
        }
    }

    #[test]
    fn topk_returns_distinct_descending_alternatives() {
        let values: Vec<f64> = (0..20).map(f64::from).collect();
        let toy = Toy { values, max: 3 };
        let (best, elites) = TabuSearch::default().solve_topk(&toy, 4, 5);
        assert_eq!(elites.len(), 5);
        // Best first, and the first elite is the returned solution.
        assert_eq!(elites[0].1, best.selected);
        assert!((elites[0].0 - best.score).abs() < 1e-12);
        assert!(elites.windows(2).all(|w| w[0].0 >= w[1].0), "descending");
        // All distinct.
        for i in 0..elites.len() {
            for j in (i + 1)..elites.len() {
                assert_ne!(elites[i].1, elites[j].1);
            }
        }
        // Scores are consistent with the objective.
        for (score, sel) in &elites {
            assert!((score - toy.score(sel)).abs() < 1e-12);
        }
    }

    #[test]
    fn topk_zero_disables_archive() {
        let toy = Toy {
            values: vec![1.0, 2.0, 3.0],
            max: 2,
        };
        let (_, elites) = TabuSearch::default().solve_topk(&toy, 1, 0);
        assert!(elites.is_empty());
    }

    #[test]
    fn topk_matches_plain_solve() {
        let values: Vec<f64> = (0..15).map(|i| f64::from((i * 13) % 7)).collect();
        let toy = Toy { values, max: 4 };
        let plain = TabuSearch::default().solve(&toy, 9);
        let (topk, _) = TabuSearch::default().solve_topk(&toy, 9, 3);
        assert_eq!(plain, topk, "elite tracking must not change the search");
    }
}
