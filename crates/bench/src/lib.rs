//! Benchmark harness for the MLPerf-demystified reproduction.
//!
//! Every target under `benches/` is one that `scripts/ci.sh` runs:
//!
//! * `executor` — what the memoized DAG scheduler buys on the full-report
//!   path, plus the micro-costs it adds;
//! * `sweep` / `des` / `serve` — snapshot benches (see [`snapshot`])
//!   pinning the million-cell sweep engine, the DES event queue and the
//!   query server to committed `BENCH_sweep.json` / `BENCH_des.json` /
//!   `BENCH_serve.json` baselines.
//!
//! The `repro` binary in `mlperf-suite` prints the regenerated tables and
//! figures; `perfbench/` times them end to end.

pub mod snapshot;
