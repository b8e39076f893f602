//! Universe-wide pairwise similarity cache.
//!
//! The clustering matcher runs once per objective evaluation inside the
//! optimizer's inner loop, so attribute similarities must be cheap. Two
//! observations make a precomputed cache practical at Internet scale:
//!
//! 1. similarity is a function of the *names* only, and
//! 2. names repeat massively across sources (the paper's 700 schemas are
//!    perturbed copies of 50 base schemas).
//!
//! So the cache interns every distinct attribute name once and stores a
//! dense `distinct × distinct` matrix of `f32` similarities. A universe
//! with thousands of sources but a few hundred distinct names costs well
//! under a megabyte.

use std::collections::HashMap;

use mube_core::ids::AttrId;
use mube_core::source::Universe;

use crate::similarity::Similarity;

/// A precomputed similarity oracle for all attributes of one universe.
pub struct SimilarityCache {
    /// `name_ids[source][attr_index]` → interned name id.
    name_ids: Vec<Vec<u32>>,
    /// Number of distinct names.
    distinct: usize,
    /// Dense row-major `distinct × distinct` similarity matrix.
    matrix: Vec<f32>,
}

impl SimilarityCache {
    /// Computes the cache for a universe under a similarity measure.
    ///
    /// Once built, the cache is immutable: every read path
    /// ([`SimilarityCache::attr_sim`] and friends) is a plain indexed load
    /// with no locking, so a single cache can be shared freely across
    /// solver threads (it is `Send + Sync`; the portfolio solver and the
    /// server's catalog store rely on this).
    pub fn build(universe: &Universe, measure: &dyn Similarity) -> Self {
        let mut intern: HashMap<&str, u32> = HashMap::new();
        let mut names: Vec<&str> = Vec::new();
        let mut name_ids: Vec<Vec<u32>> = Vec::with_capacity(universe.len());
        for source in universe.sources() {
            let ids = source
                .schema()
                .iter()
                .map(|(_, attr)| {
                    *intern.entry(attr.name()).or_insert_with(|| {
                        names.push(attr.name());
                        (names.len() - 1) as u32
                    })
                })
                .collect();
            name_ids.push(ids);
        }
        let distinct = names.len();
        let mut matrix = vec![0.0f32; distinct * distinct];
        for i in 0..distinct {
            matrix[i * distinct + i] = 1.0;
            for j in (i + 1)..distinct {
                let s = measure.similarity(names[i], names[j]) as f32;
                matrix[i * distinct + j] = s;
                matrix[j * distinct + i] = s;
            }
        }
        SimilarityCache {
            name_ids,
            distinct,
            matrix,
        }
    }

    /// Number of distinct attribute names interned.
    pub fn distinct_names(&self) -> usize {
        self.distinct
    }

    /// Interned name id of an attribute.
    ///
    /// # Panics
    ///
    /// Panics if the attribute does not belong to the universe the cache was
    /// built from (a logic error: caches and universes travel together).
    #[inline]
    pub fn name_id(&self, attr: AttrId) -> u32 {
        self.name_ids[attr.source.index()][attr.index as usize]
    }

    /// Cached similarity of two attributes.
    #[inline]
    pub fn attr_sim(&self, a: AttrId, b: AttrId) -> f64 {
        self.sim_by_name_id(self.name_id(a), self.name_id(b))
    }

    /// Cached similarity of two interned names.
    #[inline]
    pub fn sim_by_name_id(&self, a: u32, b: u32) -> f64 {
        f64::from(self.matrix[a as usize * self.distinct + b as usize])
    }

    /// Approximate memory use of the matrix, in bytes.
    pub fn matrix_bytes(&self) -> usize {
        self.matrix.len() * std::mem::size_of::<f32>()
    }

    /// For each source (indexed by source id), the best similarity any of
    /// its attributes reaches against an attribute of a *different* source.
    ///
    /// This is the per-source upper bound on cluster cohesion: a source
    /// whose best cross-source similarity is below `θ` can never join a
    /// non-seed GA. Sources of a single-source universe score `0.0`.
    pub fn per_source_best_cross_sim(&self) -> Vec<f64> {
        let sets: Vec<std::collections::BTreeSet<u32>> = self
            .name_ids
            .iter()
            .map(|ids| ids.iter().copied().collect())
            .collect();
        let mut best = vec![0.0f64; sets.len()];
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                for &a in &sets[i] {
                    for &b in &sets[j] {
                        let s = self.sim_by_name_id(a, b);
                        if s > best[i] {
                            best[i] = s;
                        }
                        if s > best[j] {
                            best[j] = s;
                        }
                    }
                }
            }
        }
        best
    }

    /// The best similarity achievable between attributes of two *different*
    /// sources — an upper bound on any usable matching threshold `θ`: above
    /// this value no pair of attributes can co-cluster, so every non-seed GA
    /// is a singleton and dies to any `β ≥ 2`.
    pub fn max_cross_source_sim(&self) -> f64 {
        self.per_source_best_cross_sim()
            .into_iter()
            .fold(0.0, f64::max)
    }
}

/// Convenience for one-shot audits: the highest cross-source attribute
/// similarity in `universe` under `measure` (see
/// [`SimilarityCache::max_cross_source_sim`]). A `θ` above this bound is
/// unsatisfiable: the matcher can never form a multi-source GA outside the
/// user's seed GAs.
pub fn theta_upper_bound(universe: &Universe, measure: &dyn Similarity) -> f64 {
    SimilarityCache::build(universe, measure).max_cross_source_sim()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::JaccardNGram;
    use mube_core::ids::SourceId;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["title", "author"])));
        b.add_source(SourceSpec::new("b", Schema::new(["title", "writer"])));
        b.add_source(SourceSpec::new("c", Schema::new(["book title"])));
        b.build().unwrap()
    }

    fn attr(s: u32, j: u32) -> AttrId {
        AttrId::new(SourceId(s), j)
    }

    #[test]
    fn interns_duplicate_names() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        // 5 attributes but only 4 distinct names.
        assert_eq!(cache.distinct_names(), 4);
        assert_eq!(cache.name_id(attr(0, 0)), cache.name_id(attr(1, 0)));
        assert_ne!(cache.name_id(attr(0, 1)), cache.name_id(attr(1, 1)));
    }

    #[test]
    fn matches_measure_exactly() {
        let u = universe();
        let measure = JaccardNGram::trigram();
        let cache = SimilarityCache::build(&u, &measure);
        let expected = measure.similarity("title", "book title");
        let got = cache.attr_sim(attr(0, 0), attr(2, 0));
        assert!(
            (got - expected).abs() < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn identical_names_have_sim_one() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        assert_eq!(cache.attr_sim(attr(0, 0), attr(1, 0)), 1.0);
        assert_eq!(cache.attr_sim(attr(0, 0), attr(0, 0)), 1.0);
    }

    #[test]
    fn symmetric() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        let ab = cache.attr_sim(attr(0, 1), attr(1, 1));
        let ba = cache.attr_sim(attr(1, 1), attr(0, 1));
        assert_eq!(ab, ba);
    }

    #[test]
    fn reports_memory() {
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        assert_eq!(cache.matrix_bytes(), 4 * 4 * 4);
    }

    #[test]
    fn cross_source_bound_finds_shared_names() {
        // "title" appears in sources a and b, so the bound is exactly 1.
        let u = universe();
        let cache = SimilarityCache::build(&u, &JaccardNGram::trigram());
        assert_eq!(cache.max_cross_source_sim(), 1.0);
        assert_eq!(theta_upper_bound(&u, &JaccardNGram::trigram()), 1.0);
        let per_source = cache.per_source_best_cross_sim();
        assert_eq!(per_source.len(), 3);
        assert_eq!(per_source[0], 1.0);
        assert_eq!(per_source[1], 1.0);
        // Source c's best partner is "title" vs "book title" < 1.
        assert!(per_source[2] < 1.0 && per_source[2] > 0.0, "{per_source:?}");
    }

    #[test]
    fn cross_source_bound_on_dissimilar_universe() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("a", Schema::new(["aaaaaa"])));
        b.add_source(SourceSpec::new("b", Schema::new(["zzzzzz"])));
        let u = b.build().unwrap();
        assert_eq!(theta_upper_bound(&u, &JaccardNGram::trigram()), 0.0);
    }

    /// A universe of many distinct names.
    fn wide_universe() -> Universe {
        let mut b = Universe::builder();
        for s in 0..10u32 {
            let attrs: Vec<String> = (0..12).map(|a| format!("field {s} {a} name")).collect();
            b.add_source(SourceSpec::new(format!("src{s}"), Schema::new(attrs)));
        }
        b.build().unwrap()
    }

    #[test]
    fn cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimilarityCache>();
    }

    /// Contention regression test for the portfolio solver: many threads
    /// hammering the read path concurrently must observe exactly the values
    /// a single-threaded reader sees — reads are plain loads on an immutable
    /// matrix, with no lock to contend on or corrupt.
    #[test]
    fn concurrent_reads_match_serial_reads() {
        let u = wide_universe();
        let cache = std::sync::Arc::new(SimilarityCache::build(&u, &JaccardNGram::trigram()));
        let d = cache.distinct_names() as u32;
        let expected: Vec<f64> = (0..d)
            .flat_map(|i| (0..d).map(move |j| (i, j)))
            .map(|(i, j)| cache.sim_by_name_id(i, j))
            .collect();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let cache = std::sync::Arc::clone(&cache);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                // Each thread walks the matrix from a different offset so the
                // threads are always reading different cells at once.
                for round in 0..50u32 {
                    for i in 0..d {
                        for j in 0..d {
                            let ii = (i + t + round) % d;
                            let got = cache.sim_by_name_id(ii, j);
                            let want = expected[(ii * d + j) as usize];
                            assert_eq!(got.to_bits(), want.to_bits());
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread panicked");
        }
    }

    #[test]
    fn cross_source_bound_single_source_is_zero() {
        let mut b = Universe::builder();
        b.add_source(SourceSpec::new("only", Schema::new(["x", "x copy"])));
        let u = b.build().unwrap();
        // Similar attributes *within* one source do not count.
        assert_eq!(theta_upper_bound(&u, &JaccardNGram::trigram()), 0.0);
    }
}
