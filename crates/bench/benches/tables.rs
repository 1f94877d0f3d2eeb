//! Regenerate (and time) Tables I-V.
//!
//! Run `cargo bench -p mlperf-bench --bench tables`; the artifacts
//! themselves are printed by `repro --table N`.

use mlperf_testkit::bench::Runner;
use mlperf_testkit::{bench_group, bench_main};
use mlperf_suite::experiments as exp;
use mlperf_suite::Ctx;
use std::hint::black_box;

fn bench_tables(c: &mut Runner) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);

    g.bench_function("table2_registry", |b| {
        b.iter(|| black_box(exp::table2::render()))
    });
    g.bench_function("table3_systems", |b| {
        b.iter(|| black_box(exp::table3::render()))
    });
    g.bench_function("table4_scaling", |b| {
        b.iter(|| {
            let t = exp::table4::run_ctx(&Ctx::new()).expect("table runs");
            black_box(exp::table4::render(&t))
        })
    });
    g.bench_function("table5_resources", |b| {
        b.iter(|| {
            let t = exp::table5::run_ctx(&Ctx::new()).expect("table runs");
            black_box(exp::table5::render(&t))
        })
    });
    g.bench_function("table1_insights", |b| {
        b.iter(|| {
            let t = exp::table1::run_ctx(&Ctx::new()).expect("table runs");
            black_box(exp::table1::render(&t))
        })
    });
    g.finish();
}

bench_group!(benches, bench_tables);
bench_main!(benches);
