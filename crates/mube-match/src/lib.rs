//! # mube-match — attribute similarity and constrained clustering
//!
//! The reference implementation of `µBE`'s `Match(S)` operator (§3 of the
//! paper): **greedy constrained similarity clustering** over the attributes
//! of a candidate source set, seeded by user GA constraints ("matching by
//! example").
//!
//! * [`similarity`] — the pluggable attribute-similarity measure trait with
//!   the paper's choice (Jaccard coefficient over 3-grams of the attribute
//!   names) plus normalized-edit-distance and token-Dice alternatives;
//! * [`cache`] — a universe-wide pairwise similarity cache, deduplicated by
//!   attribute *name* (Internet-scale universes repeat names heavily, so
//!   the cache stays small even with thousands of sources);
//! * [`cluster`] — Algorithm 1 and the [`ClusterMatcher`] implementing
//!   [`mube_core::MatchOperator`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mube_core::{Constraints, MatchOperator, MatchOutcome, Schema, Universe};
//! use mube_core::source::SourceSpec;
//! use mube_match::similarity::JaccardNGram;
//! use mube_match::ClusterMatcher;
//!
//! let mut b = Universe::builder();
//! b.add_source(SourceSpec::new("a", Schema::new(["book title", "author name"])));
//! b.add_source(SourceSpec::new("b", Schema::new(["title of book", "author"])));
//! let universe = Arc::new(b.build().unwrap());
//!
//! let matcher = ClusterMatcher::new(Arc::clone(&universe), JaccardNGram::trigram());
//! let sources = universe.source_ids().collect();
//! let outcome = matcher.match_sources(
//!     &universe, &sources, &Constraints::with_max_sources(2).theta(0.3));
//! match outcome {
//!     MatchOutcome::Matched { schema, quality } => {
//!         assert_eq!(schema.len(), 2); // {book title, title of book}, {author name, author}
//!         assert!(quality >= 0.3);
//!     }
//!     MatchOutcome::Infeasible => unreachable!(),
//! }
//! ```

pub mod cache;
pub mod cluster;
pub mod compound;
pub mod ensemble;
pub mod similarity;

pub use cache::{theta_upper_bound, SimilarityCache};
pub use cluster::{ClusterMatcher, MemoStats, COMPONENT_MEMO_CAP};
pub use compound::{CompoundGa, CompoundSchema, Compounding, Derived};
pub use ensemble::{Combine, Ensemble};
pub use similarity::{JaccardNGram, NormalizedLevenshtein, Similarity, TokenDice};
