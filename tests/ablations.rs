//! The design ablations EXPERIMENTS.md §Ablations and DESIGN.md §5 state:
//! one mechanism swapped at a time, with the resulting ordering pinned.
//! The docs quote these numbers; if a model change moves them, change
//! the docs with the test.

use mlperf_analysis::scheduling::{lpt_schedule, naive_schedule, optimal_schedule};
use mlperf_hw::cpu::CpuModel;
use mlperf_hw::gpu::GpuModel;
use mlperf_hw::interconnect::Link;
use mlperf_hw::systems::SystemId;
use mlperf_hw::topology::Topology;
use mlperf_hw::units::Bytes;
use mlperf_sim::allreduce::{allreduce_time, AllReduceAlgorithm};
use mlperf_sim::{train_on_first, Simulator, TrainingJob};
use mlperf_suite::experiments::figure4;
use mlperf_suite::{BenchmarkId, Ctx};

fn minutes(sim: &Simulator, job: &TrainingJob, gpus: u32) -> f64 {
    train_on_first(sim, job, gpus)
        .expect("run succeeds")
        .total_time
        .as_minutes()
}

/// XFMR on C4140 (K), 4 GPUs: ring < tree < naive < parameter server,
/// the bandwidth-optimality ordering at large payloads.
#[test]
fn allreduce_algorithms_order_by_bandwidth_optimality() {
    let system = SystemId::C4140K.spec();
    let sim = Simulator::new(&system);
    let base = BenchmarkId::MlpfXfmrPy.job();
    let times: Vec<f64> = [
        AllReduceAlgorithm::Ring,
        AllReduceAlgorithm::Tree,
        AllReduceAlgorithm::Naive,
        AllReduceAlgorithm::ParameterServer,
    ]
    .into_iter()
    .map(|alg| minutes(&sim, &base.with_allreduce(alg), 4))
    .collect();
    assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "ring < tree < naive < parameter server: {times:?}"
    );
}

/// Overlap off costs nothing at 8 GPUs on DSS 8440: that set spans both
/// switch domains without GPUDirect P2P, where staged copies already hide
/// nothing under backward. At 4 GPUs (one switch domain, P2P) it costs
/// XFMR +9.0 %, GNMT +2.7 % and Res50 +1.2 %.
#[test]
fn overlap_matters_only_where_the_path_supports_p2p() {
    let system = SystemId::Dss8440.spec();
    let worst = |gpus: &[u32]| system.topology().worst_peer_path(gpus).expect("connected");
    assert!(worst(&[0, 1, 2, 3]).class.supports_p2p());
    assert!(!worst(&[0, 1, 2, 3, 4, 5, 6, 7]).class.supports_p2p());
    let sim = Simulator::new(&system);
    for (id, at_four) in [
        (BenchmarkId::MlpfXfmrPy, "+9.0"),
        (BenchmarkId::MlpfGnmtPy, "+2.7"),
        (BenchmarkId::MlpfRes50Mx, "+1.2"),
    ] {
        let job = id.job();
        let serialized = job.without_overlap();
        assert_eq!(
            minutes(&sim, &job, 8),
            minutes(&sim, &serialized, 8),
            "{id:?} at 8 GPUs"
        );
        let slowdown = (minutes(&sim, &serialized, 4) / minutes(&sim, &job, 4) - 1.0) * 100.0;
        assert_eq!(format!("{slowdown:+.1}"), at_four, "{id:?} at 4 GPUs");
    }
}

/// Ring all-reduce of 160 MiB over 4 CPU-attached V100s halves each time
/// the per-GPU PCIe lane count doubles, x4 -> x8 -> x16.
#[test]
fn allreduce_time_halves_per_pcie_lane_doubling() {
    let grads = Bytes::from_mib(160);
    let times: Vec<f64> = [4u32, 8, 16]
        .into_iter()
        .map(|lanes| {
            let mut t = Topology::new(format!("x{lanes}"));
            let cpu = t.add_cpu(CpuModel::XeonGold6148);
            for _ in 0..4 {
                let gpu = t.add_gpu(GpuModel::TeslaV100Pcie16);
                t.connect(cpu, gpu, Link::PcieGen3 { lanes });
            }
            let worst = t.worst_peer_path(&[0, 1, 2, 3]).expect("connected");
            allreduce_time(AllReduceAlgorithm::Ring, grads, 4, &worst).as_secs()
        })
        .collect();
    for w in times.windows(2) {
        assert!((w[0] / w[1] - 2.0).abs() < 0.01, "lane doubling: {times:?}");
    }
}

/// Figure 4's job mix: LPT ties naive at 2 and 4 GPUs and is within
/// 0.01 % of it at 8; only the exact search finds the co-scheduling wins.
#[test]
fn only_the_exact_search_beats_naive_scheduling() {
    let jobs = figure4::measure_job_times_ctx(&Ctx::new()).expect("measured");
    for gpus in [2u64, 4, 8] {
        let naive = naive_schedule(&jobs, gpus).makespan;
        let lpt = lpt_schedule(&jobs, gpus).makespan;
        let optimal = optimal_schedule(&jobs, gpus).makespan;
        if gpus == 8 {
            assert!(
                lpt <= naive && (naive - lpt) / naive < 1e-4,
                "{gpus}: {lpt} vs {naive}"
            );
        } else {
            assert_eq!(lpt, naive, "{gpus} GPUs");
        }
        assert!(optimal < lpt, "{gpus} GPUs: optimal {optimal} vs LPT {lpt}");
    }
}
