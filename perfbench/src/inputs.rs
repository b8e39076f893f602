//! Inputs, generated with `mube-synth` from the workload seed before any
//! timing starts. The server only ever sees these generated catalogs.

use mube_core::catalog;
use mube_core::jsonw::JsonBuf;
use mube_synth::{generate, generate_mixed, DomainKind, SynthConfig};

/// Sources in the interactive workload's catalog: the paper's largest
/// universe (§7.1, Figure 5).
pub const PAPER_SOURCES: usize = 700;

/// Generator seed of the interactive workload's catalog, the same for
/// every workload seed (which picks the users: their pins and session
/// seeds). The cost of matching differs by up to 1.7x between catalogs
/// of different generator seeds (seed 6's sessions took 150 ms where
/// seed 1's took 260 ms, on the same host in the same minute), so a
/// per-seed catalog would make `op_ms_p50` a property of the seed.
pub const PAPER_CATALOG_SEED: u64 = 0;

/// Distinct catalogs one onboarding server sees before it is replaced;
/// op `i` uploads catalog `i % ONBOARD_POOL`.
pub const ONBOARD_POOL: usize = 8;

/// Sources per onboarding catalog (a ~100 KB upload body): large enough
/// that the upload — JSON body, catalog text, similarity matrix — dominates
/// the op.
pub const ONBOARD_SOURCES: usize = 200;

/// Sources in the durable workload's small catalog.
pub const SMALL_SOURCES: usize = 60;

/// One generated catalog.
pub struct Catalog {
    /// Catalog text, as `mube gen` writes it.
    pub text: String,
    /// `POST /catalogs` body carrying `text`.
    pub body: String,
    /// Source names in catalog order (pins are drawn from these).
    pub names: Vec<String>,
    /// Relevance keywords for the catalog's primary domain.
    pub keywords: &'static [&'static str],
}

impl Catalog {
    fn new(universe: &mube_core::Universe, keywords: &'static [&'static str]) -> Catalog {
        let text = catalog::to_text(universe);
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("catalog").str_value(&text);
        j.end_obj();
        Catalog {
            body: j.finish(),
            names: universe.sources().map(|s| s.name().to_string()).collect(),
            text,
            keywords,
        }
    }

    /// A source name chosen by `pick` (wrapped into range).
    pub fn name(&self, pick: u64) -> &str {
        #[allow(clippy::cast_possible_truncation)]
        &self.names[(pick % self.names.len() as u64) as usize]
    }
}

fn keywords(domain: DomainKind) -> &'static [&'static str] {
    match domain {
        DomainKind::Books => &["title", "author", "isbn"],
        DomainKind::Airfares => &["departure", "airline", "destination"],
        DomainKind::Movies => &["director", "genre", "actor"],
        DomainKind::MusicRecords => &["artist", "album", "label"],
    }
}

/// The paper-scale Books catalog (700 sources, §7.1 cardinalities and
/// PCSA signatures).
pub fn paper_books(seed: u64) -> Catalog {
    let u = generate(&SynthConfig::paper(PAPER_SOURCES), seed);
    Catalog::new(&u.universe, keywords(DomainKind::Books))
}

/// The onboarding pool: [`ONBOARD_POOL`] distinct catalogs whose sources
/// cycle through all four BAMM domains (so each carries every domain's
/// attribute vocabulary); the primary domain — listed first, and the one
/// the session's relevance keywords ask for — rotates from catalog to
/// catalog. Small cardinalities keep generation quick; schemas are the
/// paper's.
pub fn onboard_pool(seed: u64) -> Vec<Catalog> {
    (0..ONBOARD_POOL)
        .map(|k| {
            let mut domains = DomainKind::all();
            let n = domains.len();
            domains.rotate_left(k % n);
            let mut cfg = SynthConfig::small(ONBOARD_SOURCES);
            cfg.schema.num_base_schemas = 50;
            let u = generate_mixed(&cfg, &domains, mix(seed, k as u64));
            Catalog::new(&u.universe, keywords(domains[0]))
        })
        .collect()
}

/// The durable workload's small Books catalog.
pub fn small_books(seed: u64) -> Catalog {
    let u = generate(&SynthConfig::small(SMALL_SOURCES), seed);
    Catalog::new(&u.universe, keywords(DomainKind::Books))
}

/// A derived seed (`SplitMix64` finaliser), so per-catalog seeds never
/// collide across workload seeds. Kept below 2^53 so it survives a JSON
/// number exactly.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}
