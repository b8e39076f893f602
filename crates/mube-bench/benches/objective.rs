//! Micro-benchmarks for full objective evaluation (matching + β filtering
//! + all five QEFs).

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mube_bench::{Setup, Variant, EXPERIMENT_SEED};
use mube_core::SourceId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_objective(c: &mut Criterion) {
    let setup = Setup::small(60);
    let constraints = Variant::Unconstrained.constraints(&setup, 20, EXPERIMENT_SEED);
    let problem = setup.problem(constraints).unwrap();
    let all: Vec<SourceId> = setup.universe().source_ids().collect();
    let mut rng = StdRng::seed_from_u64(3);

    let mut group = c.benchmark_group("objective_uncached");
    for &k in &[5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter_batched(
                || {
                    let mut picks = all.clone();
                    picks.shuffle(&mut rng);
                    picks.into_iter().take(k).collect::<BTreeSet<_>>()
                },
                |sources| problem.objective(black_box(&sources)),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_objective);
criterion_main!(benches);
