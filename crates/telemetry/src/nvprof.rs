//! `nvprof` analogue: kernel-level profiles of a training step.
//!
//! The paper profiles each benchmark's region of interest with `nvprof`,
//! collecting kernel invocations/durations, floating-point operation counts,
//! and memory read/write transactions, then derives the roofline coordinates
//! of Fig. 2. This module produces the same records from the analytical
//! graphs: one [`KernelRecord`] per operator per step, tagged by kind, with
//! the derived FLOP throughput and arithmetic intensity.

use mlperf_hw::units::{Bytes, Flops, Seconds};
use mlperf_hw::FlopRate;
use mlperf_models::{ModelGraph, OpKind, PrecisionPolicy};
use std::fmt;

/// One profiled kernel class (all invocations of one operator).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel name (the operator's name).
    pub name: String,
    /// Operator category.
    pub kind: OpKind,
    /// Invocations per training step (forward + backward launches).
    pub invocations: u64,
    /// FLOPs per step across those invocations.
    pub flops: Flops,
    /// Device-memory traffic per step.
    pub bytes: Bytes,
}

/// The profile of one training step of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    records: Vec<KernelRecord>,
}

impl KernelProfile {
    /// Profile one training step of `model` at the given batch and policy
    /// (forward + backward; the optimizer shows up as elementwise kernels
    /// in real traces but is priced separately by the engine).
    pub fn of_step(model: &ModelGraph, batch: u64, policy: PrecisionPolicy) -> Self {
        let records = model
            .ops()
            .iter()
            .map(|op| {
                let flops = op.fwd_flops(batch) + op.bwd_flops(batch);
                let act = (op.fwd_act_elems(batch) + op.bwd_act_elems(batch)) as f64
                    * op.fused_traffic_factor();
                let elems = act + (2 * op.params()) as f64;
                // nvprof counts transactions, which include tiling re-reads.
                let bytes = Bytes::new(
                    (elems
                        * op.profiled_traffic_factor()
                        * policy.activation_bytes(op.tensor_core_eligible()) as f64)
                        .round() as u64,
                );
                KernelRecord {
                    name: op.name().to_string(),
                    kind: op.kind(),
                    invocations: 2, // one forward + one backward launch
                    flops,
                    bytes,
                }
            })
            .collect();
        KernelProfile { records }
    }

    /// The individual kernel records.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Total FLOPs per step.
    pub fn total_flops(&self) -> Flops {
        self.records.iter().map(|r| r.flops).sum()
    }

    /// Total device-memory traffic per step.
    pub fn total_bytes(&self) -> Bytes {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Arithmetic intensity of the step (FLOP / byte) — the x-coordinate of
    /// Fig. 2.
    ///
    /// # Panics
    ///
    /// Panics if the profile moved zero bytes.
    pub fn arithmetic_intensity(&self) -> f64 {
        self.total_flops() / self.total_bytes()
    }

    /// Sustained FLOP rate given the measured step duration — the
    /// y-coordinate of Fig. 2.
    pub fn throughput(&self, step_time: Seconds) -> FlopRate {
        self.total_flops() / step_time
    }
}

impl fmt::Display for KernelProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernel classes, {} / step, {} / step (AI {:.2})",
            self.records.len(),
            self.total_flops(),
            self.total_bytes(),
            self.arithmetic_intensity(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_models::zoo::resnet::resnet18_cifar;

    fn profile() -> KernelProfile {
        KernelProfile::of_step(&resnet18_cifar(), 128, PrecisionPolicy::Fp32)
    }

    #[test]
    fn totals_are_record_sums() {
        let p = profile();
        let f: u64 = p.records().iter().map(|r| r.flops.as_u64()).sum();
        assert_eq!(p.total_flops().as_u64(), f);
        assert!(p.total_bytes().as_u64() > 0);
    }

    #[test]
    fn intensity_and_throughput_are_consistent() {
        let p = profile();
        let step = Seconds::new(0.05);
        let ai = p.arithmetic_intensity();
        let tp = p.throughput(step);
        let bw_implied = tp.as_flops_per_sec() / ai;
        let bw_direct = p.total_bytes().as_f64() / step.as_secs();
        assert!((bw_implied - bw_direct).abs() / bw_direct < 1e-9);
    }

    #[test]
    fn amp_shrinks_bytes_not_flops() {
        let g = resnet18_cifar();
        let fp32 = KernelProfile::of_step(&g, 128, PrecisionPolicy::Fp32);
        let amp = KernelProfile::of_step(&g, 128, PrecisionPolicy::Amp);
        assert_eq!(fp32.total_flops(), amp.total_flops());
        assert!(amp.total_bytes() < fp32.total_bytes());
        assert!(amp.arithmetic_intensity() > fp32.arithmetic_intensity());
    }

    #[test]
    fn invocations_count_both_passes() {
        let p = profile();
        assert!(p.records().iter().all(|r| r.invocations == 2));
    }
}
