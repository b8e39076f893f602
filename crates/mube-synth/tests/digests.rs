//! Byte-level pins of the generators' output.
//!
//! The benchmark's catalogs and every experiment come from `generate`,
//! `generate_mixed` and `StreamingUniverse`, so a change to any of them
//! must be deliberate. Each case hashes (FNV-1a) the catalog text of the
//! output together with the ground-truth labels, the unperturbed list and
//! the tuple windows; a refactor of the generators keeps every digest.

use mube_core::catalog::to_text;
use mube_core::ids::AttrId;
use mube_core::source::Universe;
use mube_sketch::hash::fnv1a64;
use mube_synth::universe::{generate, generate_mixed, StreamingUniverse, SynthUniverse};
use mube_synth::{DomainKind, SynthConfig};

fn universe_digest(u: &SynthUniverse) -> u64 {
    let mut text = to_text(&u.universe);
    for source in u.universe.sources() {
        for (j, _) in source.schema().iter() {
            let concept = u
                .ground_truth
                .concept_of(AttrId::new(source.id(), j as u32));
            text.push_str(&format!("{concept:?}\n"));
        }
    }
    text.push_str(&format!("{:?}\n{:?}\n", u.unperturbed, u.windows));
    fnv1a64(text.as_bytes())
}

fn stream_digest(stream: &StreamingUniverse, indices: &[usize]) -> u64 {
    let mut builder = Universe::builder();
    let mut text = String::new();
    for &i in indices {
        let source = stream.source(i);
        text.push_str(&format!("{} {:?}\n", source.perturbed, source.windows));
        builder.add_source(source.into_spec());
    }
    text.push_str(&to_text(
        &builder.build().expect("streamed sources are valid"),
    ));
    fnv1a64(text.as_bytes())
}

#[test]
fn paper_scale_books_catalog_is_pinned() {
    let u = generate(&SynthConfig::paper(700), 1);
    assert_eq!(universe_digest(&u), 13_881_051_562_418_697_192);
}

#[test]
fn small_books_catalog_is_pinned() {
    let u = generate(&SynthConfig::small(40), 7);
    assert_eq!(universe_digest(&u), 3_954_410_703_200_123_931);
}

#[test]
fn four_domain_catalog_is_pinned() {
    // 4 × 50 conformant bases (the onboarding catalogs' shape), then a
    // perturbed tail.
    let mut cfg = SynthConfig::small(260);
    cfg.schema.num_base_schemas = 50;
    let u = generate_mixed(&cfg, &DomainKind::all(), 11);
    assert_eq!(universe_digest(&u), 13_325_116_134_672_921_759);
}

#[test]
fn streamed_sources_are_pinned() {
    let books = StreamingUniverse::new(SynthConfig::small(120), 7);
    assert_eq!(
        stream_digest(&books, &[0, 5, 9, 10, 63, 119]),
        3_282_689_741_568_845_658
    );
    let mixed = StreamingUniverse::mixed(
        SynthConfig::small(80),
        &[DomainKind::Movies, DomainKind::Airfares],
        3,
    );
    assert_eq!(
        stream_digest(&mixed, &[0, 1, 19, 20, 21, 79]),
        10_537_860_882_160_885_908
    );
}
