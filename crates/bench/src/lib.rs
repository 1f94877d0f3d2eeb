//! Benchmark harness for the MLPerf-demystified reproduction.
//!
//! The Criterion targets under `benches/` regenerate every table and figure
//! of the paper and time the machinery that produces them:
//!
//! * `tables` — Tables I-V;
//! * `figures` — Figures 1-5;
//! * `ablations` — design-choice studies DESIGN.md calls out (all-reduce
//!   algorithm, comm/compute overlap, PCIe lane width, scheduler policy);
//! * `substrate` — micro-benchmarks of the underlying machinery (model
//!   builders, the engine step, PCA, the schedule search);
//! * `sweep` / `des` — snapshot benches (see [`snapshot`]) pinning the
//!   million-cell sweep engine and the DES event queue to committed
//!   `BENCH_sweep.json` / `BENCH_des.json` baselines.
//!
//! The `repro` binary in `mlperf-suite` prints the regenerated artifacts;
//! these targets measure them.

pub mod snapshot;
