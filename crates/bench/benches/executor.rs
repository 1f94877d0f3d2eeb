//! Executor benchmarks: what the memoized DAG scheduler buys on the
//! full-report path, plus the micro-costs it adds (a cache hit, the pool's
//! scheduling overhead).
//!
//! The headline pair regenerates the complete report twice per sample —
//! once the way a naive runner would (one worker, every simulation point
//! recomputed per experiment) and once the way `repro --report` actually
//! runs (`MLPERF_JOBS` worker count, shared memo cache). The ratio is the
//! acceptance number for the executor work; on a single-core host it is
//! carried entirely by memoization.

use mlperf_suite::runner::{Ctx, Pool, ResilienceConfig, TrainPoint};
use mlperf_suite::{report_gen, BenchmarkId, Config};
use mlperf_testkit::bench::Runner;
use mlperf_testkit::{bench_group, bench_main};
use std::hint::black_box;

/// The pool `repro` would run on: the resolved `MLPERF_JOBS`.
fn pool() -> Pool {
    Pool::from_config(&Config::try_from_env().expect("MLPERF_* knobs parse"))
}

/// One strict, cache-free report build, as the headline pair measures it.
fn build_report(pool: &Pool, ctx: &Ctx) -> String {
    let (md, execution) = report_gen::build_cached(pool, ctx, &ResilienceConfig::strict(), None);
    assert!(execution.root_cause().is_none(), "report builds");
    md
}

fn bench_full_report(c: &mut Runner) {
    let mut g = c.benchmark_group("executor_report");
    g.sample_size(5);
    g.bench_function("serial_unmemoized", |b| {
        b.iter(|| {
            let ctx = Ctx::without_memo();
            black_box(build_report(&Pool::with_workers(1), &ctx))
        })
    });
    g.bench_function("pooled_memoized", |b| {
        let pool = pool();
        b.iter(|| {
            let ctx = Ctx::new();
            black_box(build_report(&pool, &ctx))
        })
    });
    g.finish();
}

fn bench_memo_hit(c: &mut Runner) {
    let ctx = Ctx::new();
    let point = TrainPoint::new(BenchmarkId::MlpfRes50Mx, mlperf_hw::SystemId::Dss8440, 8);
    ctx.step(&point).expect("warm the cache");
    let mut g = c.benchmark_group("executor_micro");
    g.bench_function("memo_hit", |b| {
        b.iter(|| black_box(ctx.step(&point).expect("cached")))
    });
    g.bench_function("pool_run_all_64_trivial", |b| {
        let pool = pool();
        b.iter(|| {
            let tasks: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
            black_box(pool.run_all(tasks))
        })
    });
    g.finish();
}

bench_group!(benches, bench_full_report, bench_memo_hit);
bench_main!(benches);
