//! Snapshot bench: the million-cell sweep engine vs its pre-interning,
//! pre-fast-path ancestor, measured by one harness (`BENCH_sweep.json`).
//!
//! Three measurements on the million-cell stress grid:
//!
//! 1. **legacy** — a faithful replica of what pricing one cell cost
//!    before this engine existed: the job rebuilt from the zoo once for
//!    the step request, once for the outcome request, and twice more for
//!    the epoch accounting; the system spec rebuilt per request (twice on
//!    a memo miss); the step memo keyed and populated per cell exactly as
//!    the old `Ctx` did; the per-op *scalar* pass walk priced before the
//!    memory gate (the old `prepare` ordering), so wall-crossing cells
//!    paid the full graph walk on their way to the OOM error; and the
//!    full DES engine for every viable step.
//! 2. **fast** — today's `price_cell` (interned templates and systems,
//!    vectorized+memoized pass costs, gate-before-pricing, analytic fast
//!    path, memo-free streaming context) over the *same* cells, same
//!    thread: the per-cell speedup the PR claims.
//! 3. **stream** — `run_streamed` over the complete 10^6-cell grid to a
//!    sink: aggregate cells/sec, the fast-path hit rate, and the
//!    shard-bounded `peak_resident` proof that the grid never
//!    materializes.
//!
//! The timed chunk walks the grid in odometer order (as a sweep actually
//! visits cells), covering every workload's first two (system=0, gpus)
//! blocks — 2 precisions x 5952 batches per block: the batch axis
//! crosses the OOM wall in every block, so the mix of viable and
//! wall-crossed cells, and the spread of model-graph sizes, is the
//! grid's own. Engine agreement is asserted cell-for-cell on a stride
//! of the chunk before any number is reported.
//!
//! The replica still *understates* the old cost in one place it cannot
//! reach: viable steps run on today's DES engine, not the engine of the
//! time, so the per-cell speedup reported here is a floor.
//!
//! Wall-clock rates are recorded but not gated; the `--check` gate holds
//! the same-run speedup ratio, hit rate, and counts to ±20%.

use mlperf_bench::snapshot::{self, Snapshot};
use mlperf_sim::{outcome_from_step, RunSpec, SimError, Simulator, StepReport};
use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::sweep::{self, CellSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Cells per (gpus) block: 2 precisions x 5952 batches.
const BLOCK: usize = 2 * 5952;
/// (gpus) blocks sampled per workload (gpus = 1 and 2, system 0).
const BLOCKS_PER_WORKLOAD: usize = 2;
/// Streaming shard (matches `repro sweep`).
const SHARD: usize = 1024;
/// Cell stride for the engine-agreement assertion.
const AGREE_STRIDE: usize = 331;

/// What the pre-PR step memo keyed on (benchmark, system, gpu set,
/// overrides, window) — including the per-request `Vec` the old `RunKey`
/// allocated.
type LegacyKey = (u8, u8, Vec<u32>, Option<u8>, Option<u64>, (u64, u64));

type LegacyMemo = HashMap<LegacyKey, Result<StepReport, SimError>>;

/// One zoo rebuild plus the cell's overrides — what every pre-PR request
/// materialized from scratch.
fn legacy_job(cell: &CellSpec) -> mlperf_sim::TrainingJob {
    let workload = cell.workload.expect("grid cell has a workload");
    let mut job = workload.job();
    if let Some(p) = cell.precision {
        job = job.with_precision(p);
    }
    if let Some(b) = cell.batch {
        job = job.with_per_gpu_batch(b);
    }
    job
}

/// The pre-PR `Ctx::step_for`: key built per request (window from a
/// fresh system spec), memoized per point, and on a miss a second system
/// spec build plus the DES engine — with the old `prepare` ordering
/// surcharge (the scalar per-op walk ran before the memory gate, so OOM
/// cells paid it too).
fn legacy_step_for(
    cell: &CellSpec,
    job: &mlperf_sim::TrainingJob,
    memo: &mut LegacyMemo,
) -> Result<StepReport, SimError> {
    let system = cell.system.expect("grid cell has a system").spec();
    let gpus = cell.gpus.expect("grid cell has a gpu count");
    let window = Simulator::new(&system).window();
    let key: LegacyKey = (
        cell.workload.map_or(0, |w| w as u8),
        cell.system.map_or(0, |s| s as u8),
        (0..gpus).collect(),
        cell.precision.map(|p| p as u8),
        cell.batch,
        window,
    );
    if let Some(hit) = memo.get(&key) {
        return hit.clone();
    }
    let system = cell.system.expect("grid cell has a system").spec();
    let result = Simulator::new(&system)
        .execute(&RunSpec::on_first(job.clone(), gpus))
        .map(|outcome| outcome.report);
    if matches!(result, Err(SimError::OutOfMemory { .. })) {
        // Pre-PR `prepare` priced the pass (the original scalar op walk —
        // `PassCostTable` did not exist yet) before checking memory, so
        // wall-crossing cells paid the walk on their way to the OOM
        // error. Viable cells need no surcharge: they price inside
        // `execute` against this cell's freshly rebuilt graph, which
        // costs at least the old walk.
        let batch = job.effective_per_gpu_batch(u64::from(gpus));
        black_box(job.model().pass_cost_scalar(batch, job.precision()));
    }
    memo.insert(key, result.clone());
    result
}

/// Pre-PR pricing of one training cell, replayed faithfully: four zoo
/// rebuilds (step, outcome, and two for the epoch accounting), per-call
/// system specs, the old memo shape, the full DES engine, and the same
/// `CellError` (kind token + formatted message) the old `price_cell`
/// built on the error path — no interning, no analytic path, no
/// vectorized pass costs.
fn legacy_price_cell(cell: &CellSpec, memo: &mut LegacyMemo) -> Result<Vec<f64>, sweep::CellError> {
    let workload = cell.workload.expect("grid cell has a workload");
    let gpus = cell.gpus.expect("grid cell has a gpu count");
    // ctx.step(&point)
    let job = legacy_job(cell);
    let step = legacy_step_for(cell, &job, memo).map_err(sweep::CellError::from_sim)?;
    // ctx.outcome(&point): a second rebuild, a second (memo-hit) request.
    let job = legacy_job(cell);
    let step2 = legacy_step_for(cell, &job, memo).map_err(sweep::CellError::from_sim)?;
    let outcome = outcome_from_step(&job, step2);
    // The old epoch accounting rebuilt the base job twice more.
    let probe = legacy_job(cell);
    let global_batch = probe.per_gpu_batch() * u64::from(gpus);
    let epochs = workload.job().convergence().epochs_at(global_batch);
    Ok(vec![
        outcome.total_time.as_minutes(),
        step.step_time.as_secs() * 1e3,
        step.throughput_samples_per_sec(),
        step.hbm_per_gpu.as_gib(),
        epochs,
    ])
}

fn measure() -> Snapshot {
    let grid = sweep::million_cell();
    // Every workload's first BLOCKS_PER_WORKLOAD (gpus) blocks on system
    // 0, each in odometer order: (workload, system, gpus, precision,
    // batch) with batch fastest.
    let per_workload = 3 * 4 * BLOCK;
    let workloads = grid.len() / per_workload;
    let chunk: Vec<CellSpec> = (0..workloads)
        .flat_map(|w| {
            let base = w * per_workload;
            (0..BLOCKS_PER_WORKLOAD * BLOCK).map(move |i| base + i)
        })
        .map(|i| grid.cell_at(i))
        .collect();

    // Engine agreement first: a speedup gated on divergent answers would
    // be meaningless. Strided so the check stays a few seconds.
    {
        let mut memo = LegacyMemo::new();
        let ctx = Ctx::without_memo();
        for cell in chunk.iter().step_by(AGREE_STRIDE) {
            let legacy = legacy_price_cell(cell, &mut memo);
            let fast = sweep::price_cell(&ctx, cell);
            match (legacy, fast) {
                (Ok(a), Ok(b)) => assert_eq!(&a, b.values(), "engines diverged on {cell:?}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("engines disagree on {cell:?}: {a:?} vs {b:?}"),
            }
        }
    }

    // 1+2. Legacy vs today's engine over the same cells, same thread.
    // The two loops are timed back-to-back inside each trial and the
    // gated speedup is the *median of per-trial ratios*: a shared, noisy
    // machine drifts by more than the ±20% snapshot gate across seconds,
    // and pairing cancels that common mode where independent best-of
    // loops cannot. Raw rates are reported from the best trial. The
    // legacy memo starts fresh per trial, as every pre-PR sweep started
    // cold; the fast side uses the same memo-free context `repro sweep`
    // streams through.
    const TRIALS: usize = 5;
    let mut legacy_secs = f64::INFINITY;
    let mut fast_secs = f64::INFINITY;
    let mut ratios = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let mut memo = LegacyMemo::new();
        let start = Instant::now();
        for cell in &chunk {
            let _ = black_box(legacy_price_cell(cell, &mut memo));
        }
        let legacy_trial = start.elapsed().as_secs_f64();

        let ctx = Ctx::without_memo();
        let start = Instant::now();
        for cell in &chunk {
            let _ = black_box(sweep::price_cell(&ctx, cell));
        }
        let fast_trial = start.elapsed().as_secs_f64();

        legacy_secs = legacy_secs.min(legacy_trial);
        fast_secs = fast_secs.min(fast_trial);
        ratios.push(legacy_trial / fast_trial);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = ratios[TRIALS / 2];

    // 3. Streaming the complete million-cell grid to a sink.
    let stream_ctx = Ctx::without_memo();
    let start = Instant::now();
    let summary = sweep::run_streamed(
        &Pool::with_workers(1),
        &stream_ctx,
        &grid,
        None,
        &mut std::io::sink(),
        SHARD,
    )
    .expect("sink never fails");
    let stream_secs = start.elapsed().as_secs_f64();
    let (attempts, hits) = stream_ctx.fast_stats();

    let mut snap = Snapshot::new("bench_sweep.v1");
    snap.push("grid_cells", grid.len() as f64);
    snap.push("chunk_cells", chunk.len() as f64);
    snap.push("legacy_cells_per_sec", chunk.len() as f64 / legacy_secs);
    snap.push("fast_cells_per_sec", chunk.len() as f64 / fast_secs);
    snap.push("speedup_per_cell", speedup);
    snap.push("stream_cells", summary.cells as f64);
    snap.push("stream_cells_per_sec", summary.cells as f64 / stream_secs);
    snap.push("stream_errors", summary.errors as f64);
    snap.push("stream_peak_resident", summary.peak_resident as f64);
    snap.push("fastpath_hit_rate", hits as f64 / attempts.max(1) as f64);
    snap
}

/// Scale-invariant fields `--check` gates at ±20%; raw rates are
/// machine-dependent and recorded only.
const GATED: &[&str] = &[
    "grid_cells",
    "chunk_cells",
    "speedup_per_cell",
    "stream_cells",
    "stream_errors",
    "stream_peak_resident",
    "fastpath_hit_rate",
];

fn main() {
    snapshot::run("BENCH_sweep.json", GATED, measure);
}
