//! End-to-end and per-layer benchmark of the report, sweep-stream and
//! serve pipelines.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones, from a separate traced
//! run that times the calls into each layer's public functions from
//! outside. Scratch files live under `.bench_work/` in the working
//! directory and are removed on exit.

mod measure;
mod report;
mod serve;
mod stream;

use measure::{percentile, supports, tail_percentile};
use mlperf_suite::validation::{self, CellKind};
use mlperf_suite::{Config, Ctx};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["report", "sweep_stream", "serve_miss"];

/// The tail percentile every workload reports; each run must collect
/// enough samples to support it.
const TAIL: f64 = 90.0;

/// Traced report builds when the report is the workload, and when it is
/// only probed for its layers.
const REPORT_ITERATIONS: (usize, usize) = (20, 3);
/// Queries per client of the traced serve pass, likewise.
const SERVE_QUERIES: (usize, usize) = (20_000, 2_000);
/// Batch-axis stride of the grid the stream layers are probed on when
/// the stream is not the workload.
const PROBE_BATCH_STEP: usize = 64;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| **w == value)
                            .ok_or_else(|| bad(&WORKLOADS.join(", ")))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive number of seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One untraced measurement of a workload.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, in milliseconds (single precision
    /// keeps millions of samples small next to the memory measured).
    pub latencies_ms: Vec<f32>,
    /// Units of work completed in the timed spans.
    pub ops: u64,
    /// Total time of the timed spans.
    pub busy: Duration,
    /// Units of work attempted and how many of them produced wrong output.
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// One timed operation of `work` units, whose output was right or not.
    pub fn record(&mut self, elapsed: Duration, work: u64, ok: bool) {
        self.latencies_ms.push((elapsed.as_secs_f64() * 1e3) as f32);
        self.account(elapsed, work, ok);
    }

    /// As [`Measured::record`], without a latency sample.
    pub fn account(&mut self, elapsed: Duration, work: u64, ok: bool) {
        self.busy += elapsed;
        self.ops += work;
        self.attempted += work;
        if !ok {
            self.failed += work;
        }
    }
}

/// The per-layer numbers of a traced run, and its correctness checks.
pub struct Layers {
    own: &'static str,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Layers {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn check(&mut self, ok: bool) {
        self.check_many(1, u64::from(!ok));
    }

    pub fn check_many(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Tracing overhead of `pipeline`, measured by `pct` only when the
    /// pipeline is the workload's own.
    pub fn overhead(
        &mut self,
        pipeline: &str,
        pct: impl FnOnce() -> Result<f64, String>,
    ) -> Result<(), String> {
        if pipeline == self.own {
            self.push("trace.overhead_pct", pct()?, "%");
        }
        Ok(())
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Alternating traced and untraced passes per overhead measurement.
pub const OVERHEAD_PAIRS: usize = 5;

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not a number: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
        ))
    }
}

/// Validation error of the simulator against the paper, in percent, as
/// `repro --extra validate` prints it: (calibrated, derived).
fn fidelity() -> Result<(f64, f64), String> {
    let v = validation::run_ctx(&Ctx::from_config(&Config::default()))
        .map_err(|e| format!("validation: {e}"))?;
    Ok((
        v.mape(Some(CellKind::Calibrated), None) * 100.0,
        v.mape(Some(CellKind::Derived), None) * 100.0,
    ))
}

fn end_to_end(args: &Args, work: &Path, cores: usize) -> Result<Outcome, String> {
    let m = match args.workload {
        "report" => report::measure(work, cores, args.seconds)?,
        "sweep_stream" => stream::measure(cores, args.seconds)?,
        _ => serve::measure(work, args.seed, cores, args.seconds)?,
    };
    // Read before the sample copy below adds to the high-water mark.
    let peak_rss = measure::peak_rss_mib()?;
    let mut lat: Vec<f64> = m.latencies_ms.iter().map(|&ms| f64::from(ms)).collect();
    lat.sort_by(f64::total_cmp);
    if !supports(lat.len(), TAIL) {
        return Err(format!(
            "{} latency samples cannot support p{TAIL}",
            lat.len()
        ));
    }
    let (calibrated, derived) = fidelity()?;
    eprintln!(
        "perfbench: {} on {cores} cores, seed {}: {} latency samples (highest supported tail p{}), {} units of work in {:.3} s",
        args.workload,
        args.seed,
        lat.len(),
        tail_percentile(lat.len(), &[90.0, 99.0, 99.9]).unwrap_or(50.0),
        m.ops,
        m.busy.as_secs_f64()
    );
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics: vec![
            ("setup_s".into(), measure::median(&m.setup_s), "s"),
            (
                "ops_per_s".into(),
                m.ops as f64 / m.busy.as_secs_f64(),
                "1/s",
            ),
            ("latency_ms_p50".into(), percentile(&lat, 50.0), "ms"),
            ("latency_ms_p90".into(), percentile(&lat, TAIL), "ms"),
            ("peak_rss_mib".into(), peak_rss, "MiB"),
            ("mape_calibrated_pct".into(), calibrated, "%"),
            ("mape_derived_pct".into(), derived, "%"),
        ],
    })
}

/// Every layer is traced on every workload: the workload's own pipeline
/// at full size, the others on a small probe, so each run reports the
/// same per-layer metrics.
fn per_layer(args: &Args, work: &Path, cores: usize) -> Result<Outcome, String> {
    let own = match args.workload {
        "report" => "report",
        "sweep_stream" => "stream",
        _ => "serve",
    };
    let mut layers = Layers {
        own,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let pick =
        |sizes: (usize, usize), pipeline: &str| if pipeline == own { sizes.0 } else { sizes.1 };
    report::trace(work, cores, pick(REPORT_ITERATIONS, "report"), &mut layers)?;
    let grid = if own == "stream" {
        mlperf_suite::sweep::million_cell()
    } else {
        stream::sampled_grid(PROBE_BATCH_STEP)
    };
    stream::trace(&grid, own == "stream", cores, &mut layers)?;
    serve::trace(
        work,
        args.seed,
        cores,
        pick(SERVE_QUERIES, "serve"),
        &mut layers,
    )?;
    Ok(Outcome {
        attempted: layers.attempted,
        failed: layers.failed,
        metrics: layers.metrics,
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| {
            if args.trace {
                per_layer(&args, &work, cores)
            } else {
                end_to_end(&args, &work, cores)
            }
        })
        .and_then(|outcome| outcome.to_json());
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
