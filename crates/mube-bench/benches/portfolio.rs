//! Portfolio scaling benchmark: the same 8-member portfolio solved at
//! 1/2/4/8 OS threads. The determinism contract says every thread count
//! returns byte-identical results, so this measures pure wall-clock
//! scaling of the parallel multi-start — the solve-latency trajectory
//! BENCH_*.json tracks.
//!
//! Each iteration gets a freshly built problem (`iter_batched`) so the
//! sharded objective cache is cold and the delta evaluators do real work,
//! as they would on a user's first solve.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mube_bench::{Setup, Variant, EXPERIMENT_SEED};
use mube_opt::Portfolio;

const SOURCES: usize = 40;
const MAX_SOURCES: usize = 10;

fn bench_portfolio_threads(c: &mut Criterion) {
    let setup = Setup::small(SOURCES);
    let constraints = Variant::Unconstrained.constraints(&setup, MAX_SOURCES, EXPERIMENT_SEED);
    let mut group = c.benchmark_group("portfolio_solve");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let portfolio =
            Portfolio::from_spec("tabu,sls,anneal,pso", 2, mube_opt::DEFAULT_MAX_EVALUATIONS)
                .expect("spec is valid")
                .threads(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &portfolio,
            |b, portfolio| {
                b.iter_batched(
                    || setup.problem(constraints.clone()).expect("valid problem"),
                    |problem| portfolio.run(&problem, EXPERIMENT_SEED),
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// The single-solver baseline the portfolio is compared against.
fn bench_single_solver_baseline(c: &mut Criterion) {
    let setup = Setup::small(SOURCES);
    let constraints = Variant::Unconstrained.constraints(&setup, MAX_SOURCES, EXPERIMENT_SEED);
    let mut group = c.benchmark_group("portfolio_baseline");
    group.sample_size(10);
    let tabu = mube_bench::experiment_tabu();
    group.bench_function("tabu_alone", |b| {
        b.iter_batched(
            || setup.problem(constraints.clone()).expect("valid problem"),
            |problem| problem.solve(&tabu, EXPERIMENT_SEED).expect("feasible"),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_portfolio_threads,
    bench_single_solver_baseline
);
criterion_main!(benches);
