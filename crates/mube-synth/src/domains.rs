//! The four BAMM domains.
//!
//! The UIUC Web-integration repository the paper draws schemas from is
//! named after its domains: **B**ooks, **A**irfares, **M**ovies, and
//! **M**usic records. The paper's experiments use the 50 Books schemas;
//! the other three domains are provided here so the generator can build
//! workloads beyond the paper's (e.g. the mixed-domain dataspace example).
//!
//! Every domain is a fixed inventory of concepts with attribute-name
//! variant pools, mirroring how real query interfaces label the same
//! concept differently.

/// Which BAMM domain to generate schemas from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Book search interfaces — the paper's domain (14 concepts).
    Books,
    /// Flight search interfaces.
    Airfares,
    /// Movie search interfaces.
    Movies,
    /// Music record search interfaces.
    MusicRecords,
}

impl DomainKind {
    /// All four domains.
    pub fn all() -> [DomainKind; 4] {
        [
            DomainKind::Books,
            DomainKind::Airfares,
            DomainKind::Movies,
            DomainKind::MusicRecords,
        ]
    }

    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Books => "books",
            DomainKind::Airfares => "airfares",
            DomainKind::Movies => "movies",
            DomainKind::MusicRecords => "music",
        }
    }

    /// The concept inventory: `(canonical name, attribute-name variants)`.
    pub fn concepts(self) -> &'static [(&'static str, &'static [&'static str])] {
        match self {
            DomainKind::Books => BOOKS,
            DomainKind::Airfares => AIRFARES,
            DomainKind::Movies => MOVIES,
            DomainKind::MusicRecords => MUSIC,
        }
    }

    /// Number of concepts in this domain.
    pub fn num_concepts(self) -> usize {
        self.concepts().len()
    }

    /// Which concept (if any) an attribute name belongs to, within this
    /// domain.
    pub fn concept_of_name(self, name: &str) -> Option<usize> {
        self.concepts()
            .iter()
            .position(|(_, variants)| variants.contains(&name))
    }
}

/// Books — 14 concepts, matching the paper's manual count in the BAMM
/// Books schemas.
pub const BOOKS: &[(&str, &[&str])] = &[
    (
        "title",
        &[
            "title",
            "book title",
            "title of book",
            "title keyword",
            "exact title",
        ],
    ),
    (
        "author",
        &[
            "author",
            "author name",
            "book author",
            "name of author",
            "first author",
        ],
    ),
    ("isbn", &["isbn", "isbn number", "isbn code", "isbn 13"]),
    (
        "keyword",
        &["keyword", "keywords", "keyword search", "any keyword"],
    ),
    (
        "publisher",
        &["publisher", "publisher name", "book publisher"],
    ),
    (
        "price",
        &[
            "price",
            "max price",
            "price limit",
            "list price",
            "price range",
        ],
    ),
    (
        "subject",
        &["subject", "subject area", "subject heading", "book subject"],
    ),
    (
        "format",
        &["format", "book format", "format type", "binding format"],
    ),
    ("edition", &["edition", "edition number", "book edition"]),
    ("language", &["language", "book language", "language code"]),
    (
        "year",
        &["year", "publication year", "year published", "pub year"],
    ),
    (
        "condition",
        &["condition", "book condition", "item condition"],
    ),
    (
        "seller",
        &["seller", "seller name", "bookseller", "seller location"],
    ),
    (
        "rating",
        &["rating", "customer rating", "average rating", "star rating"],
    ),
];

/// Airfares — 12 concepts typical of flight-search interfaces.
pub const AIRFARES: &[(&str, &[&str])] = &[
    (
        "origin",
        &[
            "from",
            "depart from",
            "departure city",
            "origin airport",
            "leaving from",
        ],
    ),
    (
        "destination",
        &[
            "to",
            "arrive at",
            "arrival city",
            "destination airport",
            "going to",
        ],
    ),
    (
        "depart date",
        &["depart date", "departure date", "outbound date", "leave on"],
    ),
    (
        "return date",
        &["return date", "inbound date", "come back on", "returning"],
    ),
    (
        "passengers",
        &["passengers", "number of passengers", "travellers", "adults"],
    ),
    (
        "cabin",
        &["cabin", "cabin class", "service class", "travel class"],
    ),
    (
        "airline",
        &["airline", "carrier", "preferred airline", "airline name"],
    ),
    (
        "stops",
        &["stops", "number of stops", "nonstop only", "max stops"],
    ),
    ("fare", &["fare", "max fare", "fare limit", "ticket price"]),
    (
        "trip type",
        &["trip type", "one way or round trip", "journey type"],
    ),
    (
        "flexible dates",
        &["flexible dates", "date flexibility", "plus minus days"],
    ),
    (
        "airports nearby",
        &[
            "airports nearby",
            "include nearby airports",
            "nearby airports",
        ],
    ),
];

/// Movies — 11 concepts typical of movie-search interfaces.
pub const MOVIES: &[(&str, &[&str])] = &[
    (
        "movie title",
        &["movie title", "film title", "movie name", "title of film"],
    ),
    (
        "director",
        &["director", "director name", "directed by", "film director"],
    ),
    (
        "actor",
        &[
            "actor",
            "actor name",
            "cast member",
            "starring",
            "lead actor",
        ],
    ),
    (
        "genre",
        &["genre", "film genre", "movie genre", "movie category"],
    ),
    (
        "release year",
        &[
            "release year",
            "year of release",
            "released in",
            "movie year",
        ],
    ),
    (
        "mpaa rating",
        &[
            "mpaa rating",
            "parental rating",
            "certificate",
            "age rating",
        ],
    ),
    (
        "studio",
        &[
            "studio",
            "production studio",
            "film studio",
            "production company",
        ],
    ),
    (
        "runtime",
        &["runtime", "running time", "length in minutes", "duration"],
    ),
    (
        "media format",
        &[
            "media format",
            "dvd or bluray",
            "disc format",
            "video format",
        ],
    ),
    (
        "review score",
        &[
            "review score",
            "critic score",
            "viewer score",
            "movie score",
        ],
    ),
    (
        "plot keyword",
        &["plot keyword", "plot contains", "storyline keyword"],
    ),
];

/// Music records — 11 concepts typical of record-store interfaces.
pub const MUSIC: &[(&str, &[&str])] = &[
    (
        "artist",
        &["artist", "artist name", "band", "band name", "performer"],
    ),
    (
        "album",
        &["album", "album title", "album name", "record title"],
    ),
    (
        "track",
        &["track", "track title", "song", "song title", "song name"],
    ),
    (
        "music genre",
        &[
            "music genre",
            "music style",
            "genre of music",
            "music category",
        ],
    ),
    ("label", &["label", "record label", "label name"]),
    (
        "release date",
        &[
            "release date",
            "album year",
            "recorded in",
            "date of release",
        ],
    ),
    (
        "media",
        &["media", "cd or vinyl", "record format", "audio format"],
    ),
    (
        "composer",
        &["composer", "composed by", "songwriter", "written by"],
    ),
    (
        "album price",
        &["album price", "record price", "max album price"],
    ),
    (
        "catalog number",
        &["catalog number", "catalogue no", "upc", "barcode"],
    ),
    (
        "album rating",
        &["album rating", "listener rating", "album stars"],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn books_matches_paper_count() {
        assert_eq!(DomainKind::Books.num_concepts(), 14);
    }

    #[test]
    fn every_domain_has_concepts_with_variants() {
        for kind in DomainKind::all() {
            assert!(kind.num_concepts() >= 10, "{}", kind.name());
            for (canonical, variants) in kind.concepts() {
                assert!(!variants.is_empty(), "{canonical}");
            }
        }
    }

    #[test]
    fn variants_unique_within_each_domain() {
        for kind in DomainKind::all() {
            let mut seen = BTreeSet::new();
            for (_, variants) in kind.concepts() {
                for v in *variants {
                    assert!(seen.insert(*v), "{} repeats `{v}`", kind.name());
                }
            }
        }
    }

    #[test]
    fn concept_of_name_roundtrips_per_domain() {
        for kind in DomainKind::all() {
            for (id, (_, variants)) in kind.concepts().iter().enumerate() {
                for v in *variants {
                    assert_eq!(kind.concept_of_name(v), Some(id));
                }
            }
            assert_eq!(kind.concept_of_name("definitely not an attribute"), None);
        }
    }

    #[test]
    fn domains_are_lexically_distinct_enough() {
        // Cross-domain identical variant names would let the matcher merge
        // concepts across domains in mixed universes; keep them disjoint.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for kind in DomainKind::all() {
            for (_, variants) in kind.concepts() {
                for v in *variants {
                    assert!(seen.insert(*v), "variant `{v}` appears in two domains");
                }
            }
        }
    }
}

impl DomainKind {
    /// Offset added to this domain's local concept ids to form *global*
    /// concept ids, so labels from different domains never collide in
    /// mixed-domain universes.
    pub fn concept_id_offset(self) -> usize {
        match self {
            DomainKind::Books => 0,
            DomainKind::Airfares => 100,
            DomainKind::Movies => 200,
            DomainKind::MusicRecords => 300,
        }
    }

    /// Resolves a global concept id back to its domain and local index.
    pub fn of_global_id(id: usize) -> Option<(DomainKind, usize)> {
        let kind = match id / 100 {
            0 => DomainKind::Books,
            1 => DomainKind::Airfares,
            2 => DomainKind::Movies,
            3 => DomainKind::MusicRecords,
            _ => return None,
        };
        let local = id % 100;
        (local < kind.num_concepts()).then_some((kind, local))
    }
}

/// The variant pool of a global concept id.
pub fn variants_of_global(id: usize) -> Option<&'static [&'static str]> {
    DomainKind::of_global_id(id).map(|(kind, local)| kind.concepts()[local].1)
}

#[cfg(test)]
mod global_id_tests {
    use super::*;

    #[test]
    fn global_ids_roundtrip() {
        for kind in DomainKind::all() {
            for local in 0..kind.num_concepts() {
                let global = kind.concept_id_offset() + local;
                assert_eq!(DomainKind::of_global_id(global), Some((kind, local)));
            }
        }
    }

    #[test]
    fn out_of_range_ids_rejected() {
        assert_eq!(DomainKind::of_global_id(14), None); // books has 14 (0..14)
        assert_eq!(DomainKind::of_global_id(450), None);
        assert!(variants_of_global(99).is_none());
    }
}
