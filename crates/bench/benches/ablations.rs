//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation runs the affected experiment with one mechanism swapped
//! and prints the delta alongside the timing, so `cargo bench` doubles as
//! the ablation report.

use mlperf_testkit::bench::Runner;
use mlperf_testkit::{bench_group, bench_main};
use mlperf_hw::cpu::CpuModel;
use mlperf_hw::gpu::GpuModel;
use mlperf_hw::interconnect::Link;
use mlperf_hw::systems::SystemId;
use mlperf_hw::topology::Topology;
use mlperf_hw::units::Bytes;
use mlperf_sim::allreduce::{allreduce_time, AllReduceAlgorithm};
use mlperf_sim::{train_on_first, Simulator};
use mlperf_suite::BenchmarkId;
use std::hint::black_box;

/// All-reduce algorithm ablation: ring vs tree vs naive on the
/// communication-heavy Transformer (C4140 K, 4 GPUs).
fn ablate_allreduce(c: &mut Runner) {
    let system = SystemId::C4140K.spec();
    let sim = Simulator::new(&system);
    let base = BenchmarkId::MlpfXfmrPy.job();

    println!("\n=== ablation: all-reduce algorithm (XFMR, C4140 K, 4 GPUs) ===");
    for alg in [
        AllReduceAlgorithm::Ring,
        AllReduceAlgorithm::Tree,
        AllReduceAlgorithm::Naive,
        AllReduceAlgorithm::ParameterServer,
    ] {
        let t = train_on_first(&sim, &base.with_allreduce(alg), 4)
            .expect("run succeeds")
            .total_time
            .as_minutes();
        println!("  {alg:>5}: {t:.1} min");
    }

    let mut g = c.benchmark_group("ablation_allreduce");
    g.sample_size(10);
    for alg in [
        AllReduceAlgorithm::Ring,
        AllReduceAlgorithm::Tree,
        AllReduceAlgorithm::Naive,
    ] {
        g.bench_function(alg.to_string(), |b| {
            let job = base.with_allreduce(alg);
            b.iter(|| black_box(train_on_first(&sim, &job, 4).expect("run succeeds")))
        });
    }
    g.finish();
}

/// Overlap ablation: how much comm/compute overlap buys per benchmark.
fn ablate_overlap(c: &mut Runner) {
    let system = SystemId::Dss8440.spec();
    let sim = Simulator::new(&system);

    println!("\n=== ablation: comm/compute overlap (DSS 8440, 8 GPUs) ===");
    for id in [
        BenchmarkId::MlpfRes50Mx,
        BenchmarkId::MlpfXfmrPy,
        BenchmarkId::MlpfGnmtPy,
    ] {
        let with = train_on_first(&sim, &id.job(), 8)
            .expect("run")
            .total_time
            .as_minutes();
        let without = train_on_first(&sim, &id.job().without_overlap(), 8)
            .expect("run")
            .total_time
            .as_minutes();
        println!(
            "  {:16} overlapped {with:.1} min, serialized {without:.1} min ({:+.1}%)",
            id.abbreviation(),
            (without / with - 1.0) * 100.0
        );
    }

    let mut g = c.benchmark_group("ablation_overlap");
    g.sample_size(10);
    let job = BenchmarkId::MlpfXfmrPy.job();
    g.bench_function("overlapped", |b| {
        b.iter(|| black_box(train_on_first(&sim, &job, 8).expect("run succeeds")))
    });
    let serialized = job.without_overlap();
    g.bench_function("serialized", |b| {
        b.iter(|| black_box(train_on_first(&sim, &serialized, 8).expect("run succeeds")))
    });
    g.finish();
}

/// PCIe lane-width sweep: ring all-reduce cost of 160 MB of gradients on a
/// single-socket box as the per-GPU link narrows.
fn ablate_pcie_lanes(c: &mut Runner) {
    println!("\n=== ablation: PCIe lane width (4 GPUs, 160 MB gradients) ===");
    let grads = Bytes::from_mib(160);
    for lanes in [4u32, 8, 16] {
        let mut t = Topology::new(format!("x{lanes}"));
        let cpu = t.add_cpu(CpuModel::XeonGold6148);
        for _ in 0..4 {
            let g = t.add_gpu(GpuModel::TeslaV100Pcie16);
            t.connect(cpu, g, Link::PcieGen3 { lanes });
        }
        let worst = t.worst_peer_path(&[0, 1, 2, 3]).expect("connected");
        let time = allreduce_time(AllReduceAlgorithm::Ring, grads, 4, &worst);
        println!("  x{lanes:<2}: {:.1} ms", time.as_secs() * 1e3);
    }

    let mut g = c.benchmark_group("ablation_pcie_lanes");
    g.bench_function("route_and_price_x16", |b| {
        let mut t = Topology::new("x16");
        let cpu = t.add_cpu(CpuModel::XeonGold6148);
        for _ in 0..4 {
            let gpu = t.add_gpu(GpuModel::TeslaV100Pcie16);
            t.connect(cpu, gpu, Link::PCIE3_X16);
        }
        b.iter(|| {
            let worst = t.worst_peer_path(&[0, 1, 2, 3]).expect("connected");
            black_box(allreduce_time(AllReduceAlgorithm::Ring, grads, 4, &worst))
        })
    });
    g.finish();
}

/// Scheduler-policy ablation: naive vs LPT vs exact search makespans.
fn ablate_scheduler(c: &mut Runner) {
    use mlperf_analysis::scheduling::{lpt_schedule, naive_schedule, optimal_schedule};
    let jobs = mlperf_suite::experiments::figure4::measure_job_times_ctx(&mlperf_suite::Ctx::new()).expect("measured");

    println!("\n=== ablation: scheduler policy (7 MLPerf jobs) ===");
    for g in [2u64, 4, 8] {
        println!(
            "  {g} GPUs: naive {:.0}, LPT {:.0}, optimal {:.0} min",
            naive_schedule(&jobs, g).makespan,
            lpt_schedule(&jobs, g).makespan,
            optimal_schedule(&jobs, g).makespan,
        );
    }

    let mut group = c.benchmark_group("ablation_scheduler");
    group.sample_size(10);
    group.bench_function("naive", |b| b.iter(|| black_box(naive_schedule(&jobs, 4))));
    group.bench_function("lpt", |b| b.iter(|| black_box(lpt_schedule(&jobs, 4))));
    group.bench_function("optimal", |b| {
        b.iter(|| black_box(optimal_schedule(&jobs, 4)))
    });
    group.finish();
}

bench_group!(
    benches,
    ablate_allreduce,
    ablate_overlap,
    ablate_pcie_lanes,
    ablate_scheduler
);
bench_main!(benches);
