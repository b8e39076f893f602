//! Plain-text catalogs of source descriptions.
//!
//! `µBE`'s input is "the descriptions of a large number of data sources,
//! their schemas, their data characteristics, and other source
//! characteristics" (§1), obtained from a source-discovery mechanism or
//! provided by the user. This module defines a simple line-oriented text
//! format for such catalogs so universes can be stored in files, diffed,
//! and hand-edited:
//!
//! ```text
//! # comments and blank lines are ignored
//! source tonyawards.com
//!   attr keywords
//!   cardinality 12000
//!   characteristic mttf 93.5
//!   signature 64 32 1234abcd 0f 1a ... (num_maps hex words)
//! ```
//!
//! Every `source` line starts a new source; the indented lines describe it.
//! The `signature` line carries the PCSA configuration (`num_maps`,
//! `map_bits`, hex seed) followed by one hex word per bitmap, exactly what
//! a cooperating source would publish.

use std::fmt::Write as _;

use mube_sketch::pcsa::{PcsaConfig, PcsaSignature};

use crate::error::MubeError;
use crate::schema::Schema;
use crate::source::{SourceSpec, Universe};

/// Serializes a universe to catalog text.
pub fn to_text(universe: &Universe) -> String {
    let mut out = String::new();
    for source in universe.sources() {
        writeln!(out, "source {}", source.name()).expect("string write");
        for (_, attr) in source.schema().iter() {
            writeln!(out, "  attr {}", attr.name()).expect("string write");
        }
        writeln!(out, "  cardinality {}", source.cardinality()).expect("string write");
        for (name, value) in source.characteristics() {
            writeln!(out, "  characteristic {name} {value}").expect("string write");
        }
        if let Some(sig) = source.signature() {
            let cfg = sig.config();
            write!(
                out,
                "  signature {} {} {:x}",
                cfg.num_maps(),
                cfg.map_bits(),
                cfg.seed()
            )
            .expect("string write");
            for map in sig.maps() {
                write!(out, " {map:x}").expect("string write");
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Parses catalog text into a universe.
///
/// Fails with a descriptive [`MubeError::InvalidParameter`] on malformed
/// lines (a non-finite `characteristic` value among them), and with the
/// usual builder errors (empty universe/schema, mismatched signature
/// configurations) at the end.
pub fn from_text(text: &str) -> Result<Universe, MubeError> {
    let mut builder = Universe::builder();
    let mut current: Option<PendingSource> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line has a first word");
        let err = |detail: String| MubeError::InvalidParameter {
            detail: format!("catalog line {}: {detail}", lineno + 1),
        };
        match keyword {
            "source" => {
                let name: Vec<&str> = words.collect();
                if name.is_empty() {
                    return Err(err("`source` needs a name".into()));
                }
                if let Some(done) = current.take() {
                    builder.add_source(done.into_spec());
                }
                current = Some(PendingSource::new(name.join(" ")));
            }
            "attr" => {
                let pending = current
                    .as_mut()
                    .ok_or_else(|| err("`attr` before any `source`".into()))?;
                let name: Vec<&str> = words.collect();
                if name.is_empty() {
                    return Err(err("`attr` needs a name".into()));
                }
                pending.attrs.push(name.join(" "));
            }
            "cardinality" => {
                let pending = current
                    .as_mut()
                    .ok_or_else(|| err("`cardinality` before any `source`".into()))?;
                let value = words
                    .next()
                    .and_then(|w| w.parse::<u64>().ok())
                    .ok_or_else(|| err("`cardinality` needs an unsigned integer".into()))?;
                pending.cardinality = value;
            }
            "characteristic" => {
                let pending = current
                    .as_mut()
                    .ok_or_else(|| err("`characteristic` before any `source`".into()))?;
                let name = words
                    .next()
                    .ok_or_else(|| err("`characteristic` needs a name and value".into()))?;
                let value = words
                    .next()
                    .and_then(|w| w.parse::<f64>().ok())
                    .ok_or_else(|| err("`characteristic` needs a numeric value".into()))?;
                // NaN and ±inf parse as f64 but poison every QEF that
                // normalizes over the characteristic.
                if !value.is_finite() {
                    return Err(err(format!(
                        "`characteristic {name}` needs a finite value, got {value}"
                    )));
                }
                pending.characteristics.push((name.to_string(), value));
            }
            "signature" => {
                let pending = current
                    .as_mut()
                    .ok_or_else(|| err("`signature` before any `source`".into()))?;
                let num_maps = words
                    .next()
                    .and_then(|w| w.parse::<usize>().ok())
                    .ok_or_else(|| err("`signature` needs num_maps".into()))?;
                let map_bits = words
                    .next()
                    .and_then(|w| w.parse::<u32>().ok())
                    .ok_or_else(|| err("`signature` needs map_bits".into()))?;
                let seed = words
                    .next()
                    .and_then(|w| u64::from_str_radix(w, 16).ok())
                    .ok_or_else(|| err("`signature` needs a hex seed".into()))?;
                let maps: Result<Vec<u64>, _> = words.map(|w| u64::from_str_radix(w, 16)).collect();
                let maps = maps.map_err(|_| err("signature bitmaps must be hex".into()))?;
                if num_maps == 0 || !num_maps.is_power_of_two() || !(1..=64).contains(&map_bits) {
                    return Err(err(format!(
                        "invalid signature configuration {num_maps}x{map_bits}"
                    )));
                }
                let config = PcsaConfig::new(num_maps, map_bits, seed);
                let sig = PcsaSignature::from_maps(config, maps)
                    .ok_or_else(|| err("signature bitmaps inconsistent with config".into()))?;
                pending.signature = Some(sig);
            }
            other => return Err(err(format!("unknown keyword `{other}`"))),
        }
    }
    if let Some(done) = current.take() {
        builder.add_source(done.into_spec());
    }
    builder.build()
}

struct PendingSource {
    name: String,
    attrs: Vec<String>,
    cardinality: u64,
    characteristics: Vec<(String, f64)>,
    signature: Option<PcsaSignature>,
}

impl PendingSource {
    fn new(name: String) -> Self {
        PendingSource {
            name,
            attrs: Vec::new(),
            cardinality: 0,
            characteristics: Vec::new(),
            signature: None,
        }
    }

    fn into_spec(self) -> SourceSpec {
        let mut spec = SourceSpec::new(self.name, Schema::new(self.attrs));
        spec = spec.cardinality(self.cardinality);
        for (name, value) in self.characteristics {
            spec = spec.characteristic(name, value);
        }
        if let Some(sig) = self.signature {
            spec = spec.signature(sig);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SourceId;

    fn sample_universe() -> Universe {
        let mut sig = PcsaSignature::new(PcsaConfig::new(4, 16, 0xAB));
        for k in 0..100u64 {
            sig.insert(k);
        }
        let mut b = Universe::builder();
        b.add_source(
            SourceSpec::new("tonyawards.com", Schema::new(["keywords"]))
                .cardinality(12_000)
                .characteristic("mttf", 93.5)
                .signature(sig),
        );
        b.add_source(SourceSpec::new(
            "aceticket.com",
            Schema::new(["state", "city", "event name"]),
        ));
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let u = sample_universe();
        let text = to_text(&u);
        let back = from_text(&text).unwrap();
        assert_eq!(back.len(), u.len());
        for (a, b) in u.sources().zip(back.sources()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.schema(), b.schema());
            assert_eq!(a.cardinality(), b.cardinality());
            assert_eq!(a.characteristics(), b.characteristics());
            assert_eq!(a.signature(), b.signature());
        }
    }

    #[test]
    fn multiword_names_survive() {
        let u = sample_universe();
        let text = to_text(&u);
        let back = from_text(&text).unwrap();
        assert_eq!(
            back.attr_name(crate::ids::AttrId::new(SourceId(1), 2)),
            Some("event name")
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a catalog\n\nsource x\n  attr a\n\n# done\n";
        let u = from_text(text).unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(u.source(SourceId(0)).name(), "x");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "source x\n  attr a\n  cardinality oops\n";
        let err = from_text(text).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn attr_before_source_rejected() {
        assert!(from_text("attr a\n").is_err());
    }

    #[test]
    fn unknown_keyword_rejected() {
        assert!(from_text("source x\n  attr a\n  frobnicate 3\n").is_err());
    }

    #[test]
    fn bad_signature_rejected() {
        // 3 maps claimed but config says 4.
        let text = "source x\n  attr a\n  signature 4 16 ab 1 2 3\n";
        assert!(from_text(text).is_err());
        // Non-power-of-two maps.
        let text = "source x\n  attr a\n  signature 3 16 ab 1 2 3\n";
        assert!(from_text(text).is_err());
    }

    #[test]
    fn non_finite_characteristics_rejected_with_their_line() {
        for value in ["NaN", "nan", "inf", "-inf", "infinity", "+Infinity"] {
            let text = format!("source x\n  attr a\n  characteristic mttf {value}\n");
            let err = from_text(&text).unwrap_err();
            assert!(matches!(err, MubeError::InvalidParameter { .. }), "{err}");
            assert!(err.to_string().contains("line 3"), "{err}");
            assert!(err.to_string().contains("finite"), "{err}");
        }
        // Finite negatives and huge finite values still parse.
        let u = from_text("source x\n  attr a\n  characteristic mttf -2.5e300\n").unwrap();
        assert_eq!(u.source(SourceId(0)).characteristics()["mttf"], -2.5e300);
    }

    #[test]
    fn empty_catalog_rejected() {
        assert!(matches!(
            from_text("# nothing\n"),
            Err(MubeError::EmptyUniverse)
        ));
    }

    #[test]
    fn source_without_attrs_rejected() {
        assert!(from_text("source x\n  cardinality 5\n").is_err());
    }

    /// Counts the parser must refuse without allocating for them: 2^40
    /// signature bitmaps, and a cardinality one past `u64::MAX`.
    #[test]
    fn huge_counts_rejected_with_their_line() {
        for bad in [
            "signature 1099511627776 32 ab 1 2 3",
            "cardinality 18446744073709551616",
        ] {
            let err = from_text(&format!("source x\n  attr a\n  {bad}\n")).unwrap_err();
            assert!(err.to_string().contains("line 3"), "{bad}: {err}");
        }
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Words the soup is made of: every keyword, and arguments at and
        /// past each bound the parser checks.
        const TOKENS: &[&str] = &[
            "source",
            "attr",
            "cardinality",
            "characteristic",
            "signature",
            "#",
            "x",
            "0",
            "1",
            "-1",
            "3",
            "4",
            "32",
            "64",
            "65",
            "ab",
            "zz",
            "NaN",
            "inf",
            "-inf",
            "1e400",
            "18446744073709551615",
            "18446744073709551616",
            "1099511627776",
            "ffffffffffffffff",
            "\t",
            "\u{e9}",
        ];

        /// Lines of up to six tokens each.
        fn token_soup() -> impl Strategy<Value = String> {
            prop::collection::vec(prop::collection::vec(0..TOKENS.len(), 0..7), 0..16).prop_map(
                |lines| {
                    lines
                        .iter()
                        .map(|line| {
                            line.iter()
                                .map(|&t| TOKENS[t])
                                .collect::<Vec<_>>()
                                .join(" ")
                        })
                        .collect::<Vec<_>>()
                        .join("\n")
                },
            )
        }

        /// A universe whose names survive the whitespace-split format,
        /// with arbitrary finite characteristics (any bit pattern) and
        /// signatures sharing one configuration.
        fn universe() -> impl Strategy<Value = Universe> {
            let attr = ("[a-z0-9_]{1,5}", "[a-z0-9.-]{0,4}").prop_map(|(a, b)| {
                if b.is_empty() {
                    a
                } else {
                    format!("{a} {b}")
                }
            });
            let source = (
                "[a-z0-9._-]{1,8}",
                prop::collection::vec(attr, 1..5),
                any::<u64>(),
                prop::collection::vec((0usize..3, any::<u64>()), 0..4),
                any::<bool>(),
                prop::collection::vec(any::<u64>(), 16),
            );
            (
                prop::collection::vec(source, 1..6),
                0u32..5,
                1u32..=64,
                any::<u64>(),
            )
                .prop_map(|(sources, log_maps, map_bits, seed)| {
                    let config = PcsaConfig::new(1 << log_maps, map_bits, seed);
                    let mask = u64::MAX >> (64 - map_bits);
                    let mut b = Universe::builder();
                    for (i, (name, attrs, card, chars, signed, maps)) in
                        sources.into_iter().enumerate()
                    {
                        let mut spec = SourceSpec::new(format!("{name} {i}"), Schema::new(attrs))
                            .cardinality(card);
                        for (k, bits) in chars {
                            let v = f64::from_bits(bits);
                            let name = ["mttf", "latency", "availability"][k];
                            spec = spec.characteristic(name, if v.is_finite() { v } else { -0.0 });
                        }
                        if signed {
                            let maps = maps[..config.num_maps()].iter().map(|m| m & mask);
                            let sig = PcsaSignature::from_maps(config.clone(), maps.collect());
                            spec = spec.signature(sig.expect("masked maps fit the config"));
                        }
                        b.add_source(spec);
                    }
                    b.build().expect("every source has attributes")
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// Arbitrary bytes (read the way a server reads a body) never
            /// panic the parser.
            #[test]
            fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
                let _ = from_text(&String::from_utf8_lossy(&bytes));
            }

            /// Keyword-shaped input reaches every branch; it never panics,
            /// and a refusal names its line.
            #[test]
            fn token_soup_never_panics(text in token_soup()) {
                if let Err(e @ MubeError::InvalidParameter { .. }) = from_text(&text) {
                    prop_assert!(e.to_string().contains("catalog line "), "{e}");
                }
            }

            /// `from_text(to_text(u))` is `u`, characteristic bits and
            /// signatures included, and re-renders to the same text.
            #[test]
            fn text_round_trips_generated_universes(u in universe()) {
                let text = to_text(&u);
                let back = from_text(&text)
                    .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
                prop_assert_eq!(to_text(&back), text);
                prop_assert_eq!(back.len(), u.len());
                for (a, b) in u.sources().zip(back.sources()) {
                    prop_assert_eq!(a.name(), b.name());
                    prop_assert_eq!(a.schema(), b.schema());
                    prop_assert_eq!(a.cardinality(), b.cardinality());
                    prop_assert_eq!(a.signature(), b.signature());
                    let bits = |s: &crate::source::Source| {
                        s.characteristics()
                            .iter()
                            .map(|(n, v)| (n.clone(), v.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(bits(a), bits(b));
                }
            }
        }
    }
}
