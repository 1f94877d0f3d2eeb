//! Regenerate (and time) the beyond-the-paper extensions.

use mlperf_testkit::bench::Runner;
use mlperf_testkit::{bench_group, bench_main};
use mlperf_suite::experiments as exp;
use mlperf_suite::Ctx;
use mlperf_suite::{validation, BenchmarkId};
use std::hint::black_box;

fn bench_extensions(c: &mut Runner) {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);

    g.bench_function("cluster_study", |b| {
        b.iter(|| {
            let s = exp::cluster_study::run_ctx(&Ctx::new()).expect("study runs");
            black_box(exp::cluster_study::render(&s))
        })
    });
    g.bench_function("energy_cost", |b| {
        b.iter(|| {
            let e = exp::energy_cost::run_on_ctx(&Ctx::new(), mlperf_hw::SystemId::Dss8440, 8).expect("study runs");
            black_box(exp::energy_cost::render(&e))
        })
    });
    g.bench_function("storage_study", |b| {
        b.iter(|| {
            let rows = exp::storage_study::run_ctx(&Ctx::new()).expect("study runs");
            black_box(exp::storage_study::render(&rows))
        })
    });
    g.bench_function("batch_sweep", |b| {
        b.iter(|| {
            let s = exp::batch_sweep::run_ctx(&Ctx::new(), BenchmarkId::MlpfRes50Mx).expect("sweep runs");
            black_box(exp::batch_sweep::render(&s))
        })
    });
    g.bench_function("validation", |b| {
        b.iter(|| {
            let v = validation::run_ctx(&Ctx::new()).expect("validation runs");
            black_box(validation::render(&v))
        })
    });
    g.finish();
}

bench_group!(benches, bench_extensions);
bench_main!(benches);
