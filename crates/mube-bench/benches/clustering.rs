//! Micro-benchmarks for Algorithm 1 (greedy constrained similarity
//! clustering): the dominant cost of every objective evaluation.

use std::collections::BTreeSet;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mube_bench::Setup;
use mube_core::constraints::Constraints;
use mube_core::matchop::MatchOperator;
use mube_core::SourceId;
use mube_match::ClusterMatcher;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_match(c: &mut Criterion) {
    let setup = Setup::small(60);
    let mut group = c.benchmark_group("cluster_match");
    for &k in &[5usize, 10, 20, 40] {
        let sources: BTreeSet<SourceId> = setup.universe().source_ids().take(k).collect();
        let constraints = Constraints::with_max_sources(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                setup.matcher.match_sources(
                    setup.universe(),
                    black_box(&sources),
                    black_box(&constraints),
                )
            });
        });
    }
    group.finish();
}

fn bench_match_with_ga_constraints(c: &mut Criterion) {
    let setup = Setup::small(60);
    let sources: BTreeSet<SourceId> = setup.universe().source_ids().take(20).collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let pool: Vec<SourceId> = sources.iter().copied().collect();
    let mut constraints = Constraints::with_max_sources(20);
    for concept in 0..2 {
        if let Some(ga) = setup.synth.ground_truth.make_ga_constraint(
            setup.universe(),
            &pool,
            concept,
            5,
            &mut rng,
        ) {
            constraints.required_gas.push(ga);
        }
    }
    c.bench_function("cluster_match_seeded", |b| {
        b.iter(|| {
            setup.matcher.match_sources(
                setup.universe(),
                black_box(&sources),
                black_box(&constraints),
            )
        });
    });
}

/// The selections of a fixed walk of single-source adds and drops, as a
/// local search visits them: from 12 random sources, each step adds a
/// source or drops one, keeping between 8 and 16 selected.
fn move_walk(universe_len: usize, steps: usize, seed: u64) -> Vec<BTreeSet<SourceId>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut current = BTreeSet::new();
    while current.len() < 12 {
        current.insert(SourceId(rng.random_range(0..universe_len as u32)));
    }
    let mut walk = Vec::with_capacity(steps);
    for _ in 0..steps {
        let add = match current.len() {
            n if n <= 8 => true,
            n if n >= 16 => false,
            _ => rng.random_range(0..2u32) == 0,
        };
        if add {
            while !current.insert(SourceId(rng.random_range(0..universe_len as u32))) {}
        } else {
            let victim = *current
                .iter()
                .nth(rng.random_range(0..current.len()))
                .expect("walk selection is never empty");
            current.remove(&victim);
        }
        walk.push(current.clone());
    }
    walk
}

/// Algorithm 1 over a 200-step move walk on the 700-source paper-scale
/// universe at θ = 0.5: `cold` starts each walk from a fresh matcher,
/// `warm` repeats it on one matcher that has already seen it.
fn bench_match_walk(c: &mut Criterion) {
    let setup = Setup::paper(700);
    let universe = setup.universe();
    let cache = Arc::clone(setup.matcher.cache());
    let constraints = Constraints::with_max_sources(16).theta(0.5);
    let walk = move_walk(universe.len(), 200, 7);
    let run = |matcher: &ClusterMatcher| {
        for sources in &walk {
            black_box(matcher.match_sources(universe, black_box(sources), &constraints));
        }
    };
    let mut group = c.benchmark_group("cluster_match_walk");
    group.bench_function("cold", |b| {
        b.iter(|| run(&ClusterMatcher::with_cache(universe, Arc::clone(&cache))));
    });
    let warm = ClusterMatcher::with_cache(universe, Arc::clone(&cache));
    run(&warm);
    group.bench_function("warm", |b| b.iter(|| run(&warm)));
    group.finish();
}

fn bench_similarity_cache_build(c: &mut Criterion) {
    use mube_match::similarity::JaccardNGram;
    use mube_match::SimilarityCache;
    let setup = Setup::small(60);
    c.bench_function("similarity_cache_build", |b| {
        b.iter(|| SimilarityCache::build(black_box(setup.universe()), &JaccardNGram::trigram()));
    });
}

criterion_group!(
    benches,
    bench_match,
    bench_match_with_ga_constraints,
    bench_match_walk,
    bench_similarity_cache_build
);
criterion_main!(benches);
