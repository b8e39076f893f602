//! The end-to-end synthetic-universe generator.
//!
//! Reproduces the full §7.1 setup: schemas (50 conformant bases + perturbed
//! copies), Zipf cardinalities, General/Specialty tuple assignment, PCSA
//! signatures, and the MTTF characteristic — all from one seed, fully
//! deterministic.

use std::collections::BTreeSet;
use std::sync::Arc;

use mube_core::ids::SourceId;
use mube_core::schema::Schema;
use mube_core::source::{SourceSpec, Universe};
use mube_sketch::pcsa::PcsaConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data_gen::{exact_union, Pool, PoolLayout, TupleWindows};
use crate::dist::{BoundedZipf, Normal};
use crate::ground_truth::GroundTruth;
use crate::schema_gen::{base_schemas, perturb, SchemaGenConfig};

/// Full configuration of a synthetic universe.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Total number of sources (paper: 700).
    pub num_sources: usize,
    /// Schema-generation knobs (bases, perturbation probabilities).
    pub schema: SchemaGenConfig,
    /// Minimum source cardinality (paper: 10,000).
    pub min_cardinality: u64,
    /// Maximum source cardinality (paper: 1,000,000).
    pub max_cardinality: u64,
    /// Zipf shape for cardinalities.
    pub zipf_alpha: f64,
    /// Tuple-pool layout (paper: 2,000,000 General + 2,000,000 Specialty).
    pub pool: PoolLayout,
    /// Fraction of sources that carry Specialty tuples (paper: half).
    pub specialty_source_fraction: f64,
    /// For those sources, the fraction of their tuples drawn from the
    /// Specialty pool ("a small number", we use 5%).
    pub specialty_tuple_fraction: f64,
    /// MTTF distribution mean (paper: 100 days).
    pub mttf_mean: f64,
    /// MTTF distribution standard deviation (paper: 40).
    pub mttf_std: f64,
    /// Mean per-request latency in milliseconds (fault profile).
    pub latency_mean_ms: f64,
    /// Latency standard deviation in milliseconds.
    pub latency_std_ms: f64,
    /// Mean repair time in days; availability = mttf / (mttf + downtime).
    pub downtime_mean: f64,
    /// Repair-time standard deviation in days.
    pub downtime_std: f64,
    /// PCSA bitmaps per signature.
    pub pcsa_maps: usize,
    /// PCSA bitmap width.
    pub pcsa_bits: u32,
    /// PCSA hash seed shared by all sources.
    pub pcsa_seed: u64,
}

impl SynthConfig {
    /// The paper's configuration (§7.1), parameterized by universe size so
    /// the Figure 5 sweep (100–700 sources) reuses it.
    pub fn paper(num_sources: usize) -> Self {
        SynthConfig {
            num_sources,
            schema: SchemaGenConfig::default(),
            min_cardinality: 10_000,
            max_cardinality: 1_000_000,
            zipf_alpha: 1.0,
            pool: PoolLayout::paper(),
            specialty_source_fraction: 0.5,
            specialty_tuple_fraction: 0.05,
            mttf_mean: 100.0,
            mttf_std: 40.0,
            latency_mean_ms: 80.0,
            latency_std_ms: 40.0,
            downtime_mean: 2.0,
            downtime_std: 1.0,
            pcsa_maps: 64,
            pcsa_bits: 32,
            pcsa_seed: 0x6D75_6265, // "mube"
        }
    }

    /// A scaled-down configuration for unit/integration tests: small pools
    /// and cardinalities so generation is instant.
    pub fn small(num_sources: usize) -> Self {
        SynthConfig {
            num_sources,
            schema: SchemaGenConfig {
                num_base_schemas: 10,
                ..SchemaGenConfig::default()
            },
            min_cardinality: 100,
            max_cardinality: 2_000,
            zipf_alpha: 1.0,
            pool: PoolLayout::new(10_000),
            specialty_source_fraction: 0.5,
            specialty_tuple_fraction: 0.05,
            mttf_mean: 100.0,
            mttf_std: 40.0,
            latency_mean_ms: 80.0,
            latency_std_ms: 40.0,
            downtime_mean: 2.0,
            downtime_std: 1.0,
            pcsa_maps: 64,
            pcsa_bits: 32,
            pcsa_seed: 0x6D75_6265,
        }
    }

    /// A configuration sized for the internet-scale experiments: 100k–1M
    /// sources with modest per-source cardinalities, so a full streaming
    /// scan (including on-demand PCSA synthesis for the survivors of
    /// pruning) stays within a CI time budget.
    pub fn scale(num_sources: usize) -> Self {
        SynthConfig {
            num_sources,
            min_cardinality: 100,
            max_cardinality: 5_000,
            pool: PoolLayout::new(100_000),
            ..SynthConfig::paper(num_sources)
        }
    }

    /// The PCSA configuration all sources share.
    pub fn pcsa(&self) -> PcsaConfig {
        PcsaConfig::new(self.pcsa_maps, self.pcsa_bits, self.pcsa_seed)
    }
}

/// A generated universe plus everything the experiments need to score it.
pub struct SynthUniverse {
    /// The universe, ready for [`mube_core::Problem`].
    pub universe: Arc<Universe>,
    /// Ground-truth concept labels for Table 1 scoring.
    pub ground_truth: GroundTruth,
    /// Per-source tuple windows (index = source id) for exact counting.
    pub windows: Vec<TupleWindows>,
    /// Sources whose schemas are unperturbed base schemas — the paper draws
    /// its source constraints from these.
    pub unperturbed: Vec<SourceId>,
    /// The configuration used.
    pub config: SynthConfig,
}

impl SynthUniverse {
    /// Exact distinct-tuple count of a set of sources (interval arithmetic
    /// over the tuple windows — the baseline for the PCSA experiments).
    pub fn exact_distinct<I: IntoIterator<Item = SourceId>>(&self, sources: I) -> u64 {
        let refs: Vec<&TupleWindows> = sources
            .into_iter()
            .map(|s| &self.windows[s.index()])
            .collect();
        exact_union(&refs)
    }

    /// Exact distinct-tuple count of the whole universe.
    pub fn exact_distinct_universe(&self) -> u64 {
        let refs: Vec<&TupleWindows> = self.windows.iter().collect();
        exact_union(&refs)
    }

    /// Random unperturbed sources, for building the paper's source
    /// constraints.
    pub fn random_unperturbed<R: Rng>(&self, count: usize, rng: &mut R) -> BTreeSet<SourceId> {
        use rand::seq::SliceRandom;
        let mut pool = self.unperturbed.clone();
        pool.shuffle(rng);
        pool.into_iter().take(count).collect()
    }
}

/// Generates a synthetic universe. Deterministic in `(config, seed)`.
pub fn generate(config: &SynthConfig, seed: u64) -> SynthUniverse {
    generate_mixed(config, &[config.schema.domain], seed)
}

/// Generates a universe whose sources cycle through several BAMM domains —
/// the "dataspace" setting of the paper's introduction, where discovered
/// sources span multiple topics and `µBE` must find a coherent subset.
///
/// Each domain gets its own pool of base schemas (of
/// `config.schema.num_base_schemas` each); source `i` descends from domain
/// `domains[i % domains.len()]`. Ground-truth labels use global concept
/// ids, so concepts from different domains never collide.
pub fn generate_mixed(
    config: &SynthConfig,
    domains: &[crate::domains::DomainKind],
    seed: u64,
) -> SynthUniverse {
    // Every source draws in turn from the one setup stream, continuing
    // after the base schemas.
    let (stream, mut rng) = StreamingUniverse::setup(config.clone(), domains, seed);
    let mut builder = Universe::builder();
    let mut ground_truth = GroundTruth::default();
    let mut windows = Vec::with_capacity(config.num_sources);
    let mut unperturbed = Vec::new();

    for i in 0..config.num_sources {
        let (source, concepts) = stream.synthesize(i, &mut rng);
        let perturbed = source.perturbed;
        windows.push(source.windows.clone());
        let sid = builder.add_source(source.into_spec());
        if !perturbed {
            unperturbed.push(sid);
        }
        for (j, concept) in concepts.into_iter().enumerate() {
            if let Some(c) = concept {
                ground_truth.insert(mube_core::ids::AttrId::new(sid, j as u32), c);
            }
        }
    }

    let universe = Arc::new(builder.build().expect("generated universes are valid"));
    SynthUniverse {
        universe,
        ground_truth,
        windows,
        unperturbed,
        config: stream.config,
    }
}

/// Stream-constant separating each source's *content* draw (schema,
/// cardinality, tuple windows) from the shared setup stream. Odd, so the
/// multiplied per-source offsets never collide.
const CONTENT_STREAM: u64 = 0xD1B5_4A32_D192_ED03;
/// Stream-constant for the per-source *fault profile* draw (latency,
/// availability), independent of the content stream so adding the fault
/// characteristics left every earlier generated value unchanged.
const FAULT_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// One source emitted by a [`StreamingUniverse`].
///
/// Carries everything cheap to synthesize — name, schema, cardinality,
/// interval-compressed tuple windows, characteristics — but *not* the PCSA
/// signature, whose construction is `O(cardinality)` hashing. Call
/// [`StreamedSource::signature`] (or [`StreamedSource::into_spec`], which
/// does it for you) only for sources that survive pruning; a streaming scan
/// over the whole catalog then costs schema synthesis only.
#[derive(Debug, Clone)]
pub struct StreamedSource {
    /// The source's position in the stream (`0..len`).
    pub index: usize,
    /// Source name, `site{index:04}` like the materializing generator.
    pub name: String,
    /// The source's schema.
    pub schema: Schema,
    /// Realized distinct-tuple count (after window merging).
    pub cardinality: u64,
    /// Interval-compressed tuple windows — `O(1)` memory per source.
    pub windows: TupleWindows,
    /// Whether the schema is a perturbed copy of a base schema.
    pub perturbed: bool,
    /// Non-functional characteristics: mttf, latency, availability.
    pub characteristics: Vec<(&'static str, f64)>,
    pcsa: PcsaConfig,
}

impl StreamedSource {
    /// Synthesizes the source's PCSA signature from its tuple windows.
    /// `O(cardinality)` time, `O(signature)` memory.
    pub fn signature(&self) -> mube_sketch::PcsaSignature {
        self.windows.signature(self.pcsa.clone())
    }

    /// Converts into a [`SourceSpec`] (synthesizing the signature), ready
    /// for a [`mube_core::source::UniverseBuilder`].
    pub fn into_spec(self) -> SourceSpec {
        let signature = self.signature();
        let mut spec = SourceSpec::new(self.name, self.schema)
            .cardinality(self.cardinality)
            .signature(signature);
        for (name, value) in self.characteristics {
            spec = spec.characteristic(name, value);
        }
        spec
    }
}

/// A synthetic universe that is never materialized: sources are synthesized
/// on demand from per-source seed streams, so iterating 100k–1M sources
/// holds only the (bounded) base-schema pool plus one source at a time in
/// memory — peak memory is independent of the total tuple count.
///
/// Unlike [`generate`], which interleaves every source's draws on one RNG
/// stream, each streamed source draws from its own stream derived from
/// `(seed, index)`. That makes [`StreamingUniverse::source`] `O(1)` random
/// access (plus schema-synthesis cost) and the stream trivially resumable,
/// at the price of not being byte-identical with the materializing
/// generator. Determinism contract: identical `(config, domains, seed)`
/// produce identical sources at every index, on any machine and from any
/// number of threads.
pub struct StreamingUniverse {
    config: SynthConfig,
    domains: Vec<crate::domains::DomainKind>,
    seed: u64,
    bases_by_domain: Vec<Vec<crate::schema_gen::GeneratedSchema>>,
    zipf: BoundedZipf,
    pcsa: PcsaConfig,
}

impl StreamingUniverse {
    /// Sets up a single-domain stream (the domain in `config.schema`).
    pub fn new(config: SynthConfig, seed: u64) -> Self {
        let domain = config.schema.domain;
        Self::mixed(config, &[domain], seed)
    }

    /// Sets up a stream whose sources cycle through several BAMM domains,
    /// mirroring [`generate_mixed`].
    pub fn mixed(config: SynthConfig, domains: &[crate::domains::DomainKind], seed: u64) -> Self {
        Self::setup(config, domains, seed).0
    }

    /// Sets up the stream and returns it with the setup RNG, positioned
    /// just after the base schemas ([`generate_mixed`] draws every source
    /// from it in turn).
    fn setup(
        config: SynthConfig,
        domains: &[crate::domains::DomainKind],
        seed: u64,
    ) -> (Self, StdRng) {
        assert!(config.num_sources > 0, "need at least one source");
        assert!(!domains.is_empty(), "need at least one domain");
        assert!(
            config.max_cardinality <= config.pool.pool_size(),
            "cardinalities cannot exceed the General pool"
        );
        // The base-schema pool is the only up-front state; it is bounded by
        // `num_base_schemas × domains`, not by the universe size.
        let mut setup_rng = StdRng::seed_from_u64(seed);
        let bases_by_domain = domains
            .iter()
            .map(|&domain| {
                let cfg = SchemaGenConfig {
                    domain,
                    ..config.schema.clone()
                };
                base_schemas(&cfg, &mut setup_rng)
            })
            .collect();
        let zipf = BoundedZipf::new(
            config.min_cardinality,
            config.max_cardinality,
            config.zipf_alpha,
        );
        let pcsa = config.pcsa();
        let stream = StreamingUniverse {
            config,
            domains: domains.to_vec(),
            seed,
            bases_by_domain,
            zipf,
            pcsa,
        };
        (stream, setup_rng)
    }

    /// Number of sources the stream emits.
    pub fn len(&self) -> usize {
        self.config.num_sources
    }

    /// True if the stream is empty (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.config.num_sources == 0
    }

    /// The configuration in force.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// The PCSA configuration shared by all emitted signatures.
    pub fn pcsa(&self) -> &PcsaConfig {
        &self.pcsa
    }

    /// Synthesizes source `index` from its seed stream. `O(1)` in the
    /// universe size.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn source(&self, index: usize) -> StreamedSource {
        assert!(index < self.len(), "source index {index} out of range");
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ CONTENT_STREAM.wrapping_mul(index as u64 + 1));
        self.synthesize(index, &mut rng).0
    }

    /// Draws source `i`'s content from `rng` — base or perturbed schema,
    /// Zipf cardinality, specialty split, pool windows, MTTF, in that
    /// order — and its fault profile from the source's own `FAULT_STREAM`.
    /// Returns the source and its attributes' ground-truth concepts.
    fn synthesize(&self, i: usize, rng: &mut StdRng) -> (StreamedSource, Vec<Option<usize>>) {
        let config = &self.config;
        let domain_idx = i % self.domains.len();
        let bases = &self.bases_by_domain[domain_idx];
        // The first |bases| × |domains| sources are fully conformant bases;
        // the rest are perturbed copies of random bases of their domain.
        let generated = if i < bases.len() * self.domains.len() {
            bases[i / self.domains.len()].clone()
        } else {
            let base = &bases[rng.random_range(0..bases.len())];
            let domain_cfg = SchemaGenConfig {
                domain: self.domains[domain_idx],
                ..config.schema.clone()
            };
            perturb(base, &domain_cfg, rng)
        };

        let cardinality = self.zipf.sample(rng);
        let is_specialty = rng.random::<f64>() < config.specialty_source_fraction;
        let specialty_len = if is_specialty {
            ((cardinality as f64 * config.specialty_tuple_fraction) as u64).max(1)
        } else {
            0
        };
        let general_len = cardinality - specialty_len;
        let mut intervals = config.pool.window(
            Pool::General,
            rng.random_range(0..config.pool.pool_size()),
            general_len,
        );
        if specialty_len > 0 {
            intervals.extend(config.pool.window(
                Pool::Specialty,
                rng.random_range(0..config.pool.pool_size()),
                specialty_len,
            ));
        }
        let windows = TupleWindows::new(intervals);
        // Window overlap within one source merges intervals, so use the
        // realized distinct count as the reported cardinality.
        let realized = windows.cardinality();

        let mttf_days = Normal::new(config.mttf_mean, config.mttf_std).sample_at_least(rng, 1.0);
        let mut fault_rng =
            StdRng::seed_from_u64(self.seed ^ FAULT_STREAM.wrapping_mul(i as u64 + 1));
        let latency_ms = Normal::new(config.latency_mean_ms, config.latency_std_ms)
            .sample_at_least(&mut fault_rng, 5.0);
        let downtime = Normal::new(config.downtime_mean, config.downtime_std)
            .sample_at_least(&mut fault_rng, 0.1);
        let availability = mttf_days / (mttf_days + downtime);

        let source = StreamedSource {
            index: i,
            name: format!("site{i:04}"),
            schema: Schema::new(generated.names().map(str::to_string)),
            cardinality: realized,
            windows,
            perturbed: generated.perturbed,
            characteristics: vec![
                ("mttf", mttf_days),
                ("latency", latency_ms),
                ("availability", availability),
            ],
            pcsa: self.pcsa.clone(),
        };
        let concepts = generated.attrs.into_iter().map(|(_, c)| c).collect();
        (source, concepts)
    }

    /// Iterates over all sources in index order, synthesizing one at a time.
    pub fn iter(&self) -> impl Iterator<Item = StreamedSource> + '_ {
        (0..self.len()).map(move |i| self.source(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        let s = generate(&SynthConfig::small(30), 1);
        assert_eq!(s.universe.len(), 30);
        assert_eq!(s.windows.len(), 30);
        assert_eq!(s.unperturbed.len(), 10); // small() uses 10 bases
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&SynthConfig::small(20), 9);
        let b = generate(&SynthConfig::small(20), 9);
        for (sa, sb) in a.universe.sources().zip(b.universe.sources()) {
            assert_eq!(sa.name(), sb.name());
            assert_eq!(sa.cardinality(), sb.cardinality());
            assert_eq!(sa.schema(), sb.schema());
            assert_eq!(sa.characteristic("mttf"), sb.characteristic("mttf"));
        }
        assert_ne!(
            generate(&SynthConfig::small(20), 10)
                .universe
                .source(SourceId(15))
                .cardinality(),
            0
        );
    }

    #[test]
    fn cardinalities_in_range_and_consistent() {
        let cfg = SynthConfig::small(40);
        let s = generate(&cfg, 2);
        for (i, src) in s.universe.sources().enumerate() {
            // Window merging can only shrink, never grow.
            assert!(src.cardinality() <= cfg.max_cardinality);
            assert!(src.cardinality() >= 1);
            assert_eq!(src.cardinality(), s.windows[i].cardinality());
        }
    }

    #[test]
    fn signatures_estimate_exact_counts() {
        let s = generate(&SynthConfig::small(25), 3);
        for (i, src) in s.universe.sources().enumerate() {
            let est = src.signature().unwrap().estimate();
            let truth = s.windows[i].cardinality() as f64;
            let err = (est - truth).abs() / truth;
            assert!(err < 0.5, "source {i}: est={est} truth={truth}");
        }
    }

    #[test]
    fn exact_distinct_unions() {
        let s = generate(&SynthConfig::small(10), 4);
        let all = s.exact_distinct_universe();
        let one = s.exact_distinct([SourceId(0)]);
        assert!(one <= all);
        assert!(all <= s.config.pool.total());
        assert_eq!(one, s.windows[0].cardinality());
    }

    #[test]
    fn fault_profile_characteristics_generated() {
        let s = generate(&SynthConfig::small(30), 8);
        for src in s.universe.sources() {
            let latency = src.characteristic("latency").expect("latency generated");
            assert!(latency >= 5.0, "latency={latency}");
            let availability = src
                .characteristic("availability")
                .expect("availability generated");
            assert!(
                (0.0..=1.0).contains(&availability),
                "availability={availability}"
            );
            // availability = mttf / (mttf + downtime) with downtime ≥ 0.1.
            let mttf = src.characteristic("mttf").unwrap();
            assert!(availability <= mttf / (mttf + 0.1) + 1e-12);
        }
        // Deterministic in the seed, like everything else.
        let t = generate(&SynthConfig::small(30), 8);
        for (a, b) in s.universe.sources().zip(t.universe.sources()) {
            assert_eq!(a.characteristic("latency"), b.characteristic("latency"));
            assert_eq!(
                a.characteristic("availability"),
                b.characteristic("availability")
            );
        }
    }

    #[test]
    fn ground_truth_labels_exist() {
        let s = generate(&SynthConfig::small(30), 5);
        assert!(!s.ground_truth.is_empty());
        // Unperturbed sources are fully labelled.
        for &sid in &s.unperturbed {
            for attr in s.universe.source(sid).attr_ids() {
                assert!(s.ground_truth.concept_of(attr).is_some());
            }
        }
    }

    #[test]
    fn specialty_fraction_roughly_respected() {
        let cfg = SynthConfig::small(200);
        let s = generate(&cfg, 6);
        // Sources with any tuple id ≥ pool half carry specialty tuples.
        let half = cfg.pool.pool_size();
        let specialty = s
            .windows
            .iter()
            .filter(|w| w.intervals().iter().any(|&(start, _)| start >= half))
            .count();
        assert!(
            (60..=140).contains(&specialty),
            "specialty sources = {specialty}"
        );
    }

    #[test]
    fn random_unperturbed_selects_from_bases() {
        let s = generate(&SynthConfig::small(30), 7);
        let mut rng = StdRng::seed_from_u64(1);
        let picked = s.random_unperturbed(5, &mut rng);
        assert_eq!(picked.len(), 5);
        for p in picked {
            assert!(s.unperturbed.contains(&p));
        }
    }

    #[test]
    #[should_panic]
    fn oversized_cardinality_rejected() {
        let mut cfg = SynthConfig::small(5);
        cfg.max_cardinality = cfg.pool.pool_size() + 1;
        let _ = generate(&cfg, 0);
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use crate::domains::DomainKind;

    #[test]
    fn random_access_matches_iteration() {
        let s = StreamingUniverse::new(SynthConfig::small(30), 11);
        for (i, from_iter) in s.iter().enumerate() {
            let direct = s.source(i);
            assert_eq!(direct.name, from_iter.name);
            assert_eq!(direct.schema, from_iter.schema);
            assert_eq!(direct.cardinality, from_iter.cardinality);
            assert_eq!(direct.windows.intervals(), from_iter.windows.intervals());
            assert_eq!(direct.characteristics, from_iter.characteristics);
        }
    }

    #[test]
    fn deterministic_in_seed_and_index() {
        let a = StreamingUniverse::new(SynthConfig::small(25), 3);
        let b = StreamingUniverse::new(SynthConfig::small(25), 3);
        // Out-of-order access on `b` must reproduce in-order access on `a`.
        for i in [24usize, 0, 13, 7, 13] {
            let sa = a.source(i);
            let sb = b.source(i);
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.schema, sb.schema);
            assert_eq!(sa.cardinality, sb.cardinality);
            assert_eq!(sa.characteristics, sb.characteristics);
            assert_eq!(
                sa.signature().estimate().to_bits(),
                sb.signature().estimate().to_bits()
            );
        }
        let c = StreamingUniverse::new(SynthConfig::small(25), 4);
        assert_ne!(a.source(5).cardinality, 0);
        assert!(
            (0..25).any(|i| a.source(i).cardinality != c.source(i).cardinality),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn streamed_specs_build_a_valid_universe() {
        let s = StreamingUniverse::new(SynthConfig::small(12), 8);
        let mut b = Universe::builder();
        for src in s.iter() {
            b.add_source(src.into_spec());
        }
        let u = b.build().unwrap();
        assert_eq!(u.len(), 12);
        for src in u.sources() {
            assert!(src.cooperates());
            assert!(src.cardinality() >= 1);
            assert!(src.characteristic("mttf").is_some());
            assert!(src.characteristic("availability").is_some());
        }
    }

    #[test]
    fn signature_estimates_track_cardinality() {
        let s = StreamingUniverse::new(SynthConfig::small(20), 2);
        for src in s.iter() {
            let est = src.signature().estimate();
            let truth = src.cardinality as f64;
            let err = (est - truth).abs() / truth;
            assert!(err < 0.5, "source {}: est={est} truth={truth}", src.index);
        }
    }

    #[test]
    fn conformant_prefix_is_unperturbed() {
        let cfg = SynthConfig::small(30); // 10 bases
        let s = StreamingUniverse::new(cfg, 5);
        for i in 0..10 {
            assert!(!s.source(i).perturbed, "source {i} should be a base");
        }
        assert!(
            (10..30).any(|i| s.source(i).perturbed),
            "tail should contain perturbed copies"
        );
    }

    #[test]
    fn mixed_streaming_cycles_domains() {
        let cfg = SynthConfig::small(20);
        let s = StreamingUniverse::mixed(cfg, &[DomainKind::Books, DomainKind::Movies], 6);
        assert_eq!(s.len(), 20);
        // Base schemas of distinct domains have distinct attribute pools;
        // spot-check that consecutive sources draw from different domains.
        let names0: Vec<String> = s
            .source(0)
            .schema
            .iter()
            .map(|(_, a)| a.name().to_string())
            .collect();
        let names1: Vec<String> = s
            .source(1)
            .schema
            .iter()
            .map(|(_, a)| a.name().to_string())
            .collect();
        assert_ne!(names0, names1);
    }

    #[test]
    fn scale_config_is_streamable() {
        // A slice of the 100k-source scale config: constant-memory synthesis
        // with modest cardinalities.
        let cfg = SynthConfig::scale(100_000);
        let s = StreamingUniverse::new(cfg, 1);
        assert_eq!(s.len(), 100_000);
        for i in [0usize, 42_000, 99_999] {
            let src = s.source(i);
            assert!(src.cardinality <= 5_000);
            assert!(src.windows.intervals().len() <= 4);
        }
    }
}

#[cfg(test)]
mod mixed_tests {
    use super::*;
    use crate::domains::DomainKind;

    #[test]
    fn mixed_universe_cycles_domains() {
        let cfg = SynthConfig::small(40);
        let domains = [DomainKind::Books, DomainKind::Movies];
        let s = generate_mixed(&cfg, &domains, 1);
        assert_eq!(s.universe.len(), 40);
        // Even sources descend from Books, odd from Movies: check via the
        // ground-truth label ranges of their concept attributes.
        for (i, src) in s.universe.sources().enumerate() {
            let expected = domains[i % 2];
            for attr in src.attr_ids() {
                if let Some(cid) = s.ground_truth.concept_of(attr) {
                    let (kind, _) = DomainKind::of_global_id(cid).unwrap();
                    assert_eq!(kind, expected, "source {i}");
                }
            }
        }
    }

    #[test]
    fn mixed_universe_is_deterministic() {
        let cfg = SynthConfig::small(20);
        let domains = [DomainKind::Airfares, DomainKind::MusicRecords];
        let a = generate_mixed(&cfg, &domains, 5);
        let b = generate_mixed(&cfg, &domains, 5);
        for (sa, sb) in a.universe.sources().zip(b.universe.sources()) {
            assert_eq!(sa.schema(), sb.schema());
            assert_eq!(sa.cardinality(), sb.cardinality());
        }
    }

    #[test]
    fn single_domain_mixed_equals_generate() {
        let cfg = SynthConfig::small(15);
        let a = generate(&cfg, 3);
        let b = generate_mixed(&cfg, &[DomainKind::Books], 3);
        for (sa, sb) in a.universe.sources().zip(b.universe.sources()) {
            assert_eq!(sa.schema(), sb.schema());
        }
    }

    #[test]
    fn all_four_domains_mix() {
        let cfg = SynthConfig::small(40);
        let s = generate_mixed(&cfg, &DomainKind::all(), 7);
        let mut kinds_seen = std::collections::BTreeSet::new();
        for src in s.universe.sources() {
            for attr in src.attr_ids() {
                if let Some(cid) = s.ground_truth.concept_of(attr) {
                    kinds_seen.insert(DomainKind::of_global_id(cid).unwrap().0.name());
                }
            }
        }
        assert_eq!(kinds_seen.len(), 4);
    }
}
