//! The `sweep_stream` workload (the complete million-cell grid through
//! `sweep::run_streamed` into a hashing sink) and the traced
//! recomposition of the same stream for the per-layer numbers.

use crate::measure::{cpu_seconds, overhead_pct, Tracer};
use crate::{Layers, Measured, OVERHEAD_PAIRS, SETUPS};
use mlperf_suite::runner::Pool;
use mlperf_suite::sweep::{self, AxisValue, CellResult, CellSpec, SweepRun, SweepSpec};
use mlperf_suite::Ctx;
use mlperf_testkit::hash::Fnv1a64;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Cells per shard: the CLI's streaming shard.
pub const SHARD: usize = 1024;
/// Digest of the full grid's CSV bytes (header and every row).
pub const GRID_DIGEST: u64 = 0x49ec_77b1_a4d4_6469;
/// Every this many shards the traced stream also prices through the pool.
const POOL_SAMPLE_EVERY: usize = 32;
/// Batch-axis stride of the grid the tracing overhead is measured on.
const OVERHEAD_BATCH_STEP: usize = 32;
/// Cells of the full grid.
pub const GRID_CELLS: usize = 999_936;
/// Error rows of the full grid.
pub const GRID_ERRORS: usize = 760_776;

/// A sink that hashes every byte, counts rows, and timestamps each shard
/// boundary.
pub struct HashSink {
    hash: Fnv1a64,
    rows: usize,
    shard_started: Instant,
    /// Wall time of each completed shard, from the previous boundary.
    pub shard_times: Vec<Duration>,
}

impl HashSink {
    pub fn new() -> HashSink {
        HashSink {
            hash: Fnv1a64::new(),
            rows: 0,
            shard_started: Instant::now(),
            shard_times: Vec::new(),
        }
    }

    pub fn digest(&self) -> u64 {
        self.hash.finish()
    }

    /// Lines written, the header included.
    pub fn lines(&self) -> usize {
        self.rows
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.hash.update(buf);
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.rows += 1;
            // Line 1 is the header; every SHARD rows after it close a shard.
            if self.rows > 1 && (self.rows - 1).is_multiple_of(SHARD) {
                let now = Instant::now();
                self.shard_times.push(now - self.shard_started);
                self.shard_started = now;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The memo-free context and pool the CLI streams sweeps with.
fn stream_once(pool: &Pool, spec: &SweepSpec) -> (sweep::StreamSummary, HashSink) {
    let ctx = Ctx::without_memo();
    let mut sink = HashSink::new();
    let summary = sweep::run_streamed(pool, &ctx, spec, None, &mut sink, SHARD)
        .expect("a hashing sink never fails");
    (summary, sink)
}

/// Whether one pass over the full grid produced the pinned output.
fn grid_ok(summary: &sweep::StreamSummary, sink: &HashSink) -> bool {
    sink.digest() == GRID_DIGEST
        && summary.cells == GRID_CELLS
        && sink.lines() == GRID_CELLS + 1
        && summary.errors == GRID_ERRORS
        && summary.peak_resident <= SHARD
}

/// A grid with the million-cell axes but every `step`-th batch size: the
/// same workload, system, GPU and precision mix at a fraction of the
/// cells (the per-layer probe other workloads run).
pub fn sampled_grid(step: usize) -> SweepSpec {
    let full = sweep::million_cell();
    full.axes().iter().fold(
        SweepSpec::new(full.name, full.title, full.kind),
        |spec, axis| {
            let values: Vec<AxisValue> = if axis.name == "batch" {
                axis.values.iter().step_by(step).copied().collect()
            } else {
                axis.values.clone()
            };
            spec.axis(axis.name, values)
        },
    )
}

/// Whole passes over the full grid for about `seconds`.
pub fn measure(workers: usize, seconds: f64) -> Result<Measured, String> {
    let grid = sweep::million_cell();
    let pool = Pool::with_workers(workers);
    let mut m = Measured::default();
    let warmup = grid.clone().truncate(16 * SHARD);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (summary, _) = stream_once(&pool, &warmup);
        m.setup_s.push(t.elapsed().as_secs_f64());
        if summary.cells != warmup.len() {
            return Err("warm-up stream lost cells".into());
        }
    }
    let started = Instant::now();
    let mut last = 0.0;
    // Start another pass while at least half of it fits in the time left.
    while m.ops == 0 || started.elapsed().as_secs_f64() + last / 2.0 <= seconds {
        let t = Instant::now();
        let (summary, sink) = stream_once(&pool, &grid);
        let elapsed = t.elapsed();
        last = elapsed.as_secs_f64();
        m.account(elapsed, summary.cells as u64, grid_ok(&summary, &sink));
        m.latencies_ms.extend(
            sink.shard_times
                .iter()
                .map(|d| (d.as_secs_f64() * 1e3) as f32),
        );
    }
    Ok(m)
}

/// Span totals of one recomposed stream, in nanoseconds.
#[derive(Default)]
struct Pass {
    expand: u64,
    price_ok: u64,
    price_err: u64,
    ok_cells: u64,
    err_cells: u64,
    encode: u64,
    encoded_bytes: u64,
    write: u64,
    pool: u64,
    pool_cells: u64,
    pool_inline: u64,
    cells: u64,
    digest: u64,
    fast: (u64, u64),
}

/// Recompose `run_streamed` from the layers' public calls, shard by
/// shard: `cell_at`, `price_cell`, `to_csv` over the shard's `SweepRun`,
/// and the write into a hashing sink. Every `pool_every`-th shard is
/// also priced through `Pool::run_all` (untimed when not tracing).
fn recompose(spec: &SweepSpec, pool: &Pool, pool_every: usize, tracer: Tracer) -> Pass {
    let ctx = Ctx::without_memo();
    let mut pass = Pass::default();
    let mut sink = HashSink::new();
    let mut header_written = false;
    let axis_names: Vec<&'static str> = spec.axes().iter().map(|a| a.name).collect();
    let total = spec.len();
    let mut start = 0;
    let mut shard_index = 0;
    while start < total {
        let end = (start + SHARD).min(total);
        let specs: Vec<CellSpec> = tracer.span(&mut pass.expand, || {
            (start..end).map(|i| spec.cell_at(i)).collect()
        });
        let mut cells = Vec::with_capacity(specs.len());
        let mut inline = 0u64;
        for cell in specs {
            let mut ns = 0;
            let outcome = tracer.span(&mut ns, || sweep::price_cell(&ctx, &cell));
            inline += ns;
            if outcome.is_ok() {
                pass.price_ok += ns;
                pass.ok_cells += 1;
            } else {
                pass.price_err += ns;
                pass.err_cells += 1;
            }
            cells.push(CellResult {
                spec: cell,
                outcome,
                from_disk: false,
            });
        }
        if tracer.on && pool.workers() > 1 && shard_index % pool_every == 0 {
            let t = Instant::now();
            let tasks: Vec<_> = cells
                .iter()
                .map(|c| || sweep::price_cell(&ctx, &c.spec))
                .collect();
            let pooled = pool.run_all(tasks);
            pass.pool += t.elapsed().as_nanos() as u64;
            pass.pool_inline += inline;
            pass.pool_cells += pooled.len() as u64;
        }
        pass.cells += cells.len() as u64;
        let run = SweepRun {
            name: spec.name,
            title: spec.title,
            kind: spec.kind,
            axis_names: axis_names.clone(),
            runs: ctx.runs(),
            partitioned: spec.partitioned(),
            cells,
        };
        let csv = tracer.span(&mut pass.encode, || sweep::to_csv(&run));
        // Each shard's CSV repeats the header; the stream writes it once.
        let body = if header_written {
            csv.split_once('\n').map_or("", |(_, rows)| rows)
        } else {
            header_written = true;
            csv.as_str()
        };
        pass.encoded_bytes += body.len() as u64;
        tracer
            .span(&mut pass.write, || sink.write_all(body.as_bytes()))
            .expect("a hashing sink never fails");
        start = end;
        shard_index += 1;
    }
    pass.digest = sink.digest();
    pass.fast = ctx.fast_stats();
    pass
}

/// Per-layer numbers of the stream pipeline over `spec`. `full` means
/// `spec` is the whole million-cell grid, whose output is pinned.
pub fn trace(
    spec: &SweepSpec,
    full: bool,
    workers: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let pool = Pool::with_workers(workers);
    let cpu0 = cpu_seconds()?;
    let t = Instant::now();
    let (summary, sink) = stream_once(&pool, spec);
    let wall = t.elapsed().as_secs_f64();
    let cpu = cpu_seconds()? - cpu0;
    layers.check(!full || grid_ok(&summary, &sink));

    let t = Instant::now();
    let traced = recompose(spec, &pool, POOL_SAMPLE_EVERY, Tracer { on: true });
    let traced_ns = t.elapsed().as_nanos() as f64 - traced.pool as f64;
    // The recomposition must be the same program as `run_streamed`.
    layers.check(traced.digest == sink.digest());
    let probe = sampled_grid(OVERHEAD_BATCH_STEP);
    layers.overhead("stream", || {
        Ok(overhead_pct(OVERHEAD_PAIRS, |tracer| {
            recompose(&probe, &pool, usize::MAX, tracer);
        }))
    })?;

    let cells = traced.cells as f64;
    let price = (traced.price_ok + traced.price_err) as f64;
    layers.push(
        "sweep.expand.ns_per_cell",
        traced.expand as f64 / cells,
        "ns",
    );
    layers.push("sweep.price.ns_per_cell", price / cells, "ns");
    layers.push(
        "sweep.price.ok.ns_per_cell",
        traced.price_ok as f64 / traced.ok_cells.max(1) as f64,
        "ns",
    );
    layers.push(
        "sweep.price.err.ns_per_cell",
        traced.price_err as f64 / traced.err_cells.max(1) as f64,
        "ns",
    );
    let (attempts, hits) = traced.fast;
    layers.push(
        "sim.fastpath.hit_ratio",
        hits as f64 / attempts.max(1) as f64,
        "ratio",
    );
    layers.push(
        "sweep.encode.ns_per_row",
        traced.encode as f64 / cells,
        "ns",
    );
    layers.push(
        "sweep.encode.bytes_per_row",
        traced.encoded_bytes as f64 / cells,
        "bytes",
    );
    layers.push("sweep.write.ns_per_row", traced.write as f64 / cells, "ns");
    let wait = (traced.pool as f64 - traced.pool_inline as f64) / traced.pool_cells.max(1) as f64;
    layers.push("runner.pool.wait.ns_per_cell", wait, "ns");
    layers.push(
        "sweep.stream.outside_price_share",
        1.0 - price / traced_ns,
        "ratio",
    );
    layers.push("sweep.stream.error_rows", summary.errors as f64, "count");
    layers.push(
        "sweep.stream.peak_resident",
        summary.peak_resident as f64,
        "count",
    );
    layers.push("process.cpu_per_wall", cpu / wall, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_sink_matches_in_memory_csv() {
        let spec = sweep::figure4_scaling();
        let ctx = Ctx::without_memo();
        let expected = sweep::to_csv(&sweep::run_serial(&ctx, &spec, None));
        let (summary, sink) = stream_once(&Pool::with_workers(2), &spec);
        assert_eq!(
            sink.digest(),
            mlperf_testkit::hash::fnv1a64(expected.as_bytes())
        );
        assert_eq!(sink.lines(), summary.cells + 1);
    }

    #[test]
    fn recomposition_is_the_streamed_program() {
        let spec = sampled_grid(512);
        let (_, sink) = stream_once(&Pool::with_workers(2), &spec);
        for on in [true, false] {
            let pass = recompose(&spec, &Pool::with_workers(2), 4, Tracer { on });
            assert_eq!(pass.digest, sink.digest());
            assert_eq!(pass.cells as usize, spec.len());
        }
    }

    #[test]
    fn error_rows_repeat_exactly() {
        let spec = sampled_grid(256);
        let a = stream_once(&Pool::with_workers(2), &spec);
        let b = stream_once(&Pool::with_workers(1), &spec);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.digest(), b.1.digest());
        assert!(a.0.errors > 0 && a.0.errors < a.0.cells);
    }
}
