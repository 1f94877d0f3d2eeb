//! The streaming-sweep contract at scale.
//!
//! `sweep::run_streamed` promises the bytes of the in-memory path —
//! header plus one row per cell in odometer order, identical quoting —
//! while holding only one shard of priced cells resident at a time. This
//! battery runs a 10^5-cell prefix of the million-cell stress grid both
//! ways and compares the output byte for byte, checks that degraded
//! cells still stream as `status=error` rows, and uses the summary's
//! `peak_resident` counter to prove buffering stayed shard-bounded. A
//! second battery crosses shard sizes with pool widths so every way the
//! runner can cut a shard into per-worker chunks is compared against the
//! collected run, and a pinned digest checks the row encoder against
//! bytes recorded before it was rewritten.

use mlperf_suite::benchmark::BenchmarkId;
use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::sweep::{self, DiskCache, SweepSpec};
use mlperf_testkit::hash::fnv1a64;

/// 10^5-cell prefix: 16 full (workload, system, gpus, precision) blocks
/// of the batch axis plus a partial 17th.
const PREFIX: usize = 100_032;

#[test]
fn streamed_hundred_thousand_cells_match_in_memory_bytes() {
    let spec = sweep::million_cell().truncate(PREFIX);
    assert_eq!(spec.len(), PREFIX);

    let pool = Pool::with_workers(4);
    let shard = 1024;
    let mut streamed = Vec::new();
    let summary = sweep::run_streamed(
        &pool,
        &Ctx::new(),
        &spec,
        None,
        &mut streamed,
        shard,
    )
    .unwrap();
    assert_eq!(summary.cells, PREFIX);
    assert!(
        summary.peak_resident <= shard,
        "streaming held {} cells resident, shard bound is {shard}",
        summary.peak_resident
    );
    // The grid crosses the OOM wall thousands of times; those cells must
    // stream as data rows, not abort the run.
    assert!(summary.errors > 0, "prefix never hit the OOM wall");
    assert!(summary.errors < summary.cells, "every cell degraded");

    let in_memory = sweep::to_csv(&sweep::run_pooled(&pool, &Ctx::new(), &spec, None));
    let streamed = String::from_utf8(streamed).unwrap();
    assert_eq!(streamed, in_memory, "streamed bytes diverge from to_csv");

    // Row accounting: header + one line per cell, errors spelled as rows.
    assert_eq!(streamed.lines().count(), PREFIX + 1);
    let error_rows = streamed.lines().filter(|l| l.contains(",error,")).count();
    assert_eq!(error_rows, summary.errors);
}

/// The streamed rows come out in exactly the odometer order `cell_at`
/// defines — spot-checked against decoded coordinates at both ends and
/// across a shard boundary.
#[test]
fn streamed_rows_follow_odometer_order() {
    let spec = sweep::million_cell().truncate(2100);
    let mut out = Vec::new();
    let shard = 512;
    sweep::run_streamed(&Pool::with_workers(2), &Ctx::new(), &spec, None, &mut out, shard)
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(rows.len(), 2100);
    for i in [0, 1, shard - 1, shard, shard + 1, 2099] {
        let cell = spec.cell_at(i);
        let batch = cell.batch.expect("batch axis always set").to_string();
        let cols: Vec<&str> = rows[i].split(',').collect();
        assert_eq!(cols[3], batch, "row {i} batch column");
    }
}

/// A truncated spec and the full grid must never share cache entries:
/// their canonical identities differ even though the prefix cells agree.
#[test]
fn truncated_grid_has_its_own_identity() {
    let full = sweep::million_cell();
    let cut = sweep::million_cell().truncate(PREFIX);
    assert_eq!(full.len(), 999_936);
    assert_ne!(full.canonical_bytes(), cut.canonical_bytes());
    // The prefix cells themselves are the same cells.
    assert_eq!(full.cell_at(0), cut.cell_at(0));
    assert_eq!(full.cell_at(PREFIX - 1), cut.cell_at(PREFIX - 1));
}

/// FNV-1a64 of the `PREFIX`-cell CSV (header plus 100,032 rows, ok and
/// OOM rows both). Recorded from `to_csv` on the commit before the row
/// encoder was rewritten to append fields in place, so it pins the old
/// rendering independently of the encoder both sides of the
/// streamed = collected comparison now share.
const PREFIX_DIGEST: u64 = 0xeb20_547f_c068_238f;

#[test]
fn prefix_csv_matches_the_digest_pinned_before_the_encoder_rewrite() {
    let spec = sweep::million_cell().truncate(PREFIX);
    let mut streamed = Vec::new();
    let summary =
        sweep::run_streamed(&Pool::with_workers(2), &Ctx::new(), &spec, None, &mut streamed, 1024)
            .unwrap();
    let text = String::from_utf8(streamed).unwrap();
    assert!(text.lines().any(|l| l.contains(",ok,")), "no ok rows");
    assert!(text.lines().any(|l| l.ends_with(",oom")), "no OOM rows");
    assert_eq!(summary.errors, 95_453);
    assert_eq!(fnv1a64(text.as_bytes()), PREFIX_DIGEST, "streamed bytes drifted");
    let collected = sweep::to_csv(&sweep::run_serial(&Ctx::new(), &spec, None));
    assert_eq!(fnv1a64(collected.as_bytes()), PREFIX_DIGEST, "to_csv bytes drifted");
}

/// A fixed cache epoch so test keys never depend on the build fingerprint.
const EPOCH: u64 = 0xC4_0C5;

/// A fresh cache under `name` holding the first half of `spec`'s cells,
/// so a run over the whole sweep mixes disk hits with priced cells.
fn half_warm_cache(name: &str, ctx: &Ctx, spec: &SweepSpec) -> (DiskCache, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mlperf_stream_chunks_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();
    sweep::run_serial(ctx, &spec.clone().truncate(spec.len() / 2), Some(&cache));
    (cache, dir)
}

/// Every way of cutting a shard into per-worker chunks — shards smaller
/// than, equal to, and larger than the chunk count, at one to four
/// workers — streams the collected run's bytes, errors and disk hits.
/// The sweeps cover a grid smaller than one shard's chunks
/// (`figure4_scaling`), expected-TTT rows with MTBF and interval
/// formatting (`fault_ttt`), the partition column
/// (`partition_scaling`), and replicated rows with the distribution
/// columns and their widened error padding (`batch_wall` at 8 runs).
/// Each collected CSV is also pinned to the FNV-1a64 digest `to_csv`
/// produced before the row encoder rewrite, as `PREFIX_DIGEST` is.
#[test]
fn chunked_streams_match_the_collected_run_at_every_shard_and_width() {
    let sweeps: [(SweepSpec, u32, u64); 4] = [
        (sweep::figure4_scaling(), 1, 0x9e6f_7c75_50b3_61c2),
        (sweep::fault_ttt(), 1, 0x8118_3807_1b84_a406),
        (sweep::partition_scaling(), 1, 0x08cb_6f52_beda_1c4f),
        (sweep::batch_wall(BenchmarkId::MlpfRes50Mx), 8, 0xa04d_2864_3f4c_38fe),
    ];
    let mut saw_errors = false;
    for (spec, runs, digest) in &sweeps {
        let ctx = || Ctx::new().with_runs(*runs);
        let (cache, dir) = half_warm_cache(spec.name, &ctx(), spec);
        let collected = sweep::run_serial(&ctx(), spec, Some(&cache));
        let _ = std::fs::remove_dir_all(&dir);
        let expected = sweep::to_csv(&collected);
        assert_eq!(fnv1a64(expected.as_bytes()), *digest, "{}: CSV drifted", spec.name);
        assert_eq!(collected.disk_hits(), spec.len() / 2, "{}", spec.name);
        saw_errors |= collected.errors() > 0;
        for shard in [1, 3, 7, 1000, 1024] {
            for workers in 1..=4 {
                let label = format!("{} shard={shard} workers={workers}", spec.name);
                let (cache, dir) =
                    half_warm_cache(&format!("{}_{shard}_{workers}", spec.name), &ctx(), spec);
                let mut out = Vec::new();
                let summary = sweep::run_streamed(
                    &Pool::with_workers(workers),
                    &ctx(),
                    spec,
                    Some(&cache),
                    &mut out,
                    shard,
                )
                .unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                assert_eq!(String::from_utf8(out).unwrap(), expected, "{label}: bytes");
                assert_eq!(summary.cells, spec.len(), "{label}: cells");
                assert!(summary.peak_resident <= shard, "{label}: peak_resident");
                assert_eq!(summary.peak_resident, shard.min(spec.len()), "{label}");
                assert_eq!(summary.errors, collected.errors(), "{label}: errors");
                assert_eq!(summary.disk_hits, collected.disk_hits(), "{label}: disk hits");
            }
        }
    }
    assert!(saw_errors, "no sweep in the battery streams an error row");
}
