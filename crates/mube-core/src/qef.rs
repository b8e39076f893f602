//! Quality Evaluation Functions (QEFs) and their weighting (§2.3).
//!
//! A QEF maps a candidate solution — a set of sources plus the mediated
//! schema generated on them — to a quality score in `[0, 1]`, higher is
//! better. `µBE` combines the QEFs into an overall quality
//! `Q(S) = Σ w_i · F_i(S)` with user-chosen weights that are each in `[0, 1]`
//! and sum to 1.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::error::MubeError;
use crate::ga::MediatedSchema;
use crate::ids::SourceId;
use crate::source::Universe;

/// Universe-wide quantities precomputed once per problem so that QEF
/// evaluation inside the optimizer's inner loop is cheap.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// Σ_{t∈U} |t| — total tuple count of the universe.
    pub universe_cardinality: u64,
    /// Estimated |∪_{t∈U} t| — distinct tuples across the whole universe
    /// (from OR-ing all cooperating sources' signatures).
    pub universe_distinct: f64,
    /// Per-characteristic (min, max) over the universe, for normalization.
    pub characteristic_ranges: std::collections::BTreeMap<String, (f64, f64)>,
}

impl EvalContext {
    /// Precomputes the context for a universe.
    pub fn for_universe(universe: &Universe) -> Self {
        let universe_cardinality = universe.total_cardinality();
        let universe_distinct =
            crate::qefs::coverage::union_signature(universe, universe.source_ids())
                .map_or(0.0, |s| s.estimate());

        let mut characteristic_ranges = std::collections::BTreeMap::new();
        for s in universe.sources() {
            for (name, &v) in s.characteristics() {
                characteristic_ranges
                    .entry(name.clone())
                    .and_modify(|(lo, hi): &mut (f64, f64)| {
                        *lo = lo.min(v);
                        *hi = hi.max(v);
                    })
                    .or_insert((v, v));
            }
        }
        EvalContext {
            universe_cardinality,
            universe_distinct,
            characteristic_ranges,
        }
    }
}

/// What a QEF sees when scoring one candidate.
#[derive(Debug, Clone, Copy)]
pub struct EvalInput<'a> {
    /// The universe of all sources.
    pub universe: &'a Universe,
    /// The candidate source selection `S`.
    pub sources: &'a BTreeSet<SourceId>,
    /// The mediated schema the matcher produced on `S` (after β filtering).
    pub schema: &'a MediatedSchema,
    /// `F_1`: the matching quality the matcher reported for `schema`.
    pub match_quality: f64,
}

/// How a QEF's score can be maintained incrementally under add-source /
/// drop-source moves. [`crate::delta::DeltaEval`] uses this to pick, per
/// QEF, a running-state update rule whose result is bitwise-identical to
/// calling [`Qef::evaluate`] from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Reads only `input.match_quality` (F1). The delta layer supplies the
    /// memoized matcher output.
    MatchQuality,
    /// A ratio of the selection's summed tuple counts over the universe
    /// total (F2). Maintained as an exact `u64` running sum.
    SelectedCardinality,
    /// A PCSA-union distinct estimate over the universe distinct count
    /// (F3). Maintained as an incrementally OR-ed signature.
    UnionCoverage,
    /// The duplicated-mass score derived from the cooperating sources'
    /// union estimate (F4). Shares the running union with coverage.
    UnionRedundancy,
    /// Depends only on the selected source ids and the universe — never on
    /// the mediated schema or match quality. Re-evaluated directly at
    /// `O(|S|)` (`|S| ≤ m`), which is already independent of the schema
    /// work the delta layer avoids.
    SelectionOnly,
    /// May read anything, including the mediated schema. Forces the delta
    /// layer down the full evaluation path for the whole candidate.
    Opaque,
}

/// A quality dimension. Implementations must return values in `[0, 1]`.
pub trait Qef: Send + Sync {
    /// Stable name used for weight lookup and reporting ("matching",
    /// "cardinality", "coverage", "redundancy", "mttf", ...).
    fn name(&self) -> &str;

    /// Scores one candidate.
    fn evaluate(&self, ctx: &EvalContext, input: &EvalInput<'_>) -> f64;

    /// Declares which incremental update rule reproduces this QEF exactly.
    /// The conservative default forces full re-evaluation; built-in QEFs
    /// override it. Implementations must only claim a class whose
    /// contract they actually satisfy — the differential test harness in
    /// `tests/solver_differential.rs` checks bitwise agreement.
    fn delta_class(&self) -> DeltaClass {
        DeltaClass::Opaque
    }
}

/// A weighted set of QEFs defining the overall quality `Q(S)`.
#[derive(Clone)]
pub struct WeightedQefs {
    entries: Vec<(Arc<dyn Qef>, f64)>,
}

impl std::fmt::Debug for WeightedQefs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self
            .entries
            .iter()
            .map(|(q, w)| format!("{}={:.3}", q.name(), w))
            .collect();
        write!(f, "WeightedQefs({})", names.join(", "))
    }
}

/// Tolerance for the weights-sum-to-one check, to forgive floating-point
/// artifacts in user-entered weights.
const WEIGHT_SUM_TOLERANCE: f64 = 1e-6;

impl WeightedQefs {
    /// Builds a weighted QEF set, validating the weights: each in `[0, 1]`,
    /// summing to 1, one per QEF, and no duplicate QEF names.
    pub fn new(entries: Vec<(Arc<dyn Qef>, f64)>) -> Result<Self, MubeError> {
        if entries.is_empty() {
            return Err(MubeError::InvalidWeights {
                detail: "no QEFs given".into(),
            });
        }
        let mut sum = 0.0;
        let mut names = BTreeSet::new();
        for (q, w) in &entries {
            if !(0.0..=1.0).contains(w) {
                return Err(MubeError::InvalidWeights {
                    detail: format!("weight for `{}` is {w}, outside [0,1]", q.name()),
                });
            }
            if !names.insert(q.name().to_string()) {
                return Err(MubeError::InvalidWeights {
                    detail: format!("duplicate QEF name `{}`", q.name()),
                });
            }
            sum += w;
        }
        if (sum - 1.0).abs() > WEIGHT_SUM_TOLERANCE {
            return Err(MubeError::InvalidWeights {
                detail: format!("weights sum to {sum}, expected 1"),
            });
        }
        Ok(WeightedQefs { entries })
    }

    /// Number of QEFs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no QEFs (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(qef, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<dyn Qef>, f64)> {
        self.entries.iter().map(|(q, w)| (q, *w))
    }

    /// The weight of a named QEF.
    pub fn weight_of(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(q, _)| q.name() == name)
            .map(|(_, w)| *w)
    }

    /// Returns a copy with the named QEF's weight set to `weight` and all
    /// other weights rescaled proportionally so the sum stays 1. This is the
    /// convenient "turn this dimension up/down" knob for session feedback.
    pub fn reweighted(&self, name: &str, weight: f64) -> Result<Self, MubeError> {
        if !(0.0..=1.0).contains(&weight) {
            return Err(MubeError::InvalidWeights {
                detail: format!("weight {weight} outside [0,1]"),
            });
        }
        let old = self
            .weight_of(name)
            .ok_or_else(|| MubeError::UnknownQef { name: name.into() })?;
        let others_old: f64 = 1.0 - old;
        let others_new: f64 = 1.0 - weight;
        let entries = self
            .entries
            .iter()
            .map(|(q, w)| {
                let nw = if q.name() == name {
                    weight
                } else if others_old <= WEIGHT_SUM_TOLERANCE {
                    // Old weight was 1; spread the remainder evenly.
                    others_new / (self.entries.len() - 1) as f64
                } else {
                    w * others_new / others_old
                };
                (Arc::clone(q), nw)
            })
            .collect();
        WeightedQefs::new(entries)
    }

    /// Returns a copy with all weights replaced. `weights` must be given in
    /// the same order as the QEFs and satisfy the usual validity rules.
    pub fn with_weights(&self, weights: &[f64]) -> Result<Self, MubeError> {
        if weights.len() != self.entries.len() {
            return Err(MubeError::InvalidWeights {
                detail: format!("{} weights for {} QEFs", weights.len(), self.entries.len()),
            });
        }
        let entries = self
            .entries
            .iter()
            .zip(weights)
            .map(|((q, _), &w)| (Arc::clone(q), w))
            .collect();
        WeightedQefs::new(entries)
    }

    /// Evaluates all QEFs and the weighted overall quality.
    /// Returns `(overall, per-QEF (name, weight, score))`.
    pub fn evaluate(
        &self,
        ctx: &EvalContext,
        input: &EvalInput<'_>,
    ) -> (f64, Vec<(String, f64, f64)>) {
        let mut overall = 0.0;
        let mut breakdown = Vec::with_capacity(self.entries.len());
        for (q, w) in &self.entries {
            let score = q.evaluate(ctx, input).clamp(0.0, 1.0);
            overall += w * score;
            breakdown.push((q.name().to_string(), *w, score));
        }
        (overall, breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::source::SourceSpec;

    struct ConstQef(&'static str, f64);
    impl Qef for ConstQef {
        fn name(&self) -> &str {
            self.0
        }
        fn evaluate(&self, _: &EvalContext, _: &EvalInput<'_>) -> f64 {
            self.1
        }
    }

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["x"])).cardinality(10));
        b.build().unwrap()
    }

    fn input_parts() -> (Universe, BTreeSet<SourceId>, MediatedSchema) {
        (universe(), [SourceId(0)].into(), MediatedSchema::empty())
    }

    #[test]
    fn weights_must_sum_to_one() {
        let qefs: Vec<(Arc<dyn Qef>, f64)> = vec![
            (Arc::new(ConstQef("a", 1.0)), 0.5),
            (Arc::new(ConstQef("b", 1.0)), 0.4),
        ];
        assert!(matches!(
            WeightedQefs::new(qefs),
            Err(MubeError::InvalidWeights { .. })
        ));
    }

    #[test]
    fn weights_must_be_in_unit_interval() {
        let qefs: Vec<(Arc<dyn Qef>, f64)> = vec![
            (Arc::new(ConstQef("a", 1.0)), 1.2),
            (Arc::new(ConstQef("b", 1.0)), -0.2),
        ];
        assert!(WeightedQefs::new(qefs).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let qefs: Vec<(Arc<dyn Qef>, f64)> = vec![
            (Arc::new(ConstQef("a", 1.0)), 0.5),
            (Arc::new(ConstQef("a", 1.0)), 0.5),
        ];
        assert!(WeightedQefs::new(qefs).is_err());
    }

    #[test]
    fn evaluate_weights_scores() {
        let qefs = WeightedQefs::new(vec![
            (Arc::new(ConstQef("a", 1.0)) as Arc<dyn Qef>, 0.25),
            (Arc::new(ConstQef("b", 0.4)) as Arc<dyn Qef>, 0.75),
        ])
        .unwrap();
        let (u, s, m) = input_parts();
        let ctx = EvalContext::for_universe(&u);
        let input = EvalInput {
            universe: &u,
            sources: &s,
            schema: &m,
            match_quality: 0.0,
        };
        let (overall, breakdown) = qefs.evaluate(&ctx, &input);
        assert!((overall - (0.25 + 0.75 * 0.4)).abs() < 1e-12);
        assert_eq!(breakdown.len(), 2);
    }

    #[test]
    fn scores_are_clamped() {
        let qefs = WeightedQefs::new(vec![(Arc::new(ConstQef("wild", 7.0)) as Arc<dyn Qef>, 1.0)])
            .unwrap();
        let (u, s, m) = input_parts();
        let ctx = EvalContext::for_universe(&u);
        let input = EvalInput {
            universe: &u,
            sources: &s,
            schema: &m,
            match_quality: 0.0,
        };
        let (overall, _) = qefs.evaluate(&ctx, &input);
        assert_eq!(overall, 1.0);
    }

    #[test]
    fn reweighted_rescales_proportionally() {
        let qefs = WeightedQefs::new(vec![
            (Arc::new(ConstQef("a", 1.0)) as Arc<dyn Qef>, 0.5),
            (Arc::new(ConstQef("b", 1.0)) as Arc<dyn Qef>, 0.3),
            (Arc::new(ConstQef("c", 1.0)) as Arc<dyn Qef>, 0.2),
        ])
        .unwrap();
        let re = qefs.reweighted("a", 0.8).unwrap();
        assert!((re.weight_of("a").unwrap() - 0.8).abs() < 1e-9);
        // b : c stays 3 : 2.
        let b = re.weight_of("b").unwrap();
        let c = re.weight_of("c").unwrap();
        assert!((b / c - 1.5).abs() < 1e-9);
        assert!((b + c - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reweighted_from_full_weight() {
        let qefs = WeightedQefs::new(vec![
            (Arc::new(ConstQef("a", 1.0)) as Arc<dyn Qef>, 1.0),
            (Arc::new(ConstQef("b", 1.0)) as Arc<dyn Qef>, 0.0),
            (Arc::new(ConstQef("c", 1.0)) as Arc<dyn Qef>, 0.0),
        ])
        .unwrap();
        let re = qefs.reweighted("a", 0.5).unwrap();
        assert!((re.weight_of("b").unwrap() - 0.25).abs() < 1e-9);
        assert!((re.weight_of("c").unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn unknown_qef_name() {
        let qefs =
            WeightedQefs::new(vec![(Arc::new(ConstQef("a", 1.0)) as Arc<dyn Qef>, 1.0)]).unwrap();
        assert!(matches!(
            qefs.reweighted("nope", 0.5),
            Err(MubeError::UnknownQef { .. })
        ));
        assert_eq!(qefs.weight_of("nope"), None);
    }

    #[test]
    fn with_weights_replaces() {
        let qefs = WeightedQefs::new(vec![
            (Arc::new(ConstQef("a", 1.0)) as Arc<dyn Qef>, 0.5),
            (Arc::new(ConstQef("b", 1.0)) as Arc<dyn Qef>, 0.5),
        ])
        .unwrap();
        let re = qefs.with_weights(&[0.9, 0.1]).unwrap();
        assert_eq!(re.weight_of("a"), Some(0.9));
        assert!(qefs.with_weights(&[1.0]).is_err());
        assert!(qefs.with_weights(&[0.9, 0.2]).is_err());
    }
}
