//! Regenerate (and time) Figures 1-5.

use mlperf_testkit::bench::Runner;
use mlperf_testkit::{bench_group, bench_main};
use mlperf_suite::experiments as exp;
use mlperf_suite::Ctx;
use std::hint::black_box;

fn bench_figures(c: &mut Runner) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    g.bench_function("figure1_pca", |b| {
        b.iter(|| {
            let f = exp::figure1::run_ctx(&Ctx::new()).expect("figure runs");
            black_box(exp::figure1::render(&f))
        })
    });
    g.bench_function("figure2_roofline", |b| {
        b.iter(|| {
            let f = exp::figure2::run_ctx(&Ctx::new()).expect("figure runs");
            black_box(exp::figure2::render(&f))
        })
    });
    g.bench_function("figure3_amp", |b| {
        b.iter(|| {
            let f = exp::figure3::run_ctx(&Ctx::new()).expect("figure runs");
            black_box(exp::figure3::render(&f))
        })
    });
    g.bench_function("figure4_scheduling", |b| {
        b.iter(|| {
            let f = exp::figure4::run_ctx(&Ctx::new()).expect("figure runs");
            black_box(exp::figure4::render(&f))
        })
    });
    g.bench_function("figure5_topology", |b| {
        b.iter(|| {
            let f = exp::figure5::run_ctx(&Ctx::new()).expect("figure runs");
            black_box(exp::figure5::render(&f))
        })
    });
    g.finish();
}

bench_group!(benches, bench_figures);
bench_main!(benches);
