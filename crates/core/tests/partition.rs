//! Differential battery for multi-tenant partitioning: slicing a device
//! must never disturb anything that does not ask for it.
//!
//! Four legs:
//!
//! (a) **absence is identity**: a whole-device cell's canonical bytes,
//!     CSV schema, and cache key spell exactly as they did before
//!     partitioning existed (the conformance suite pins the report-side
//!     half of this contract);
//! (b) **partitioned sweeps are deterministic**: the partition-scaling
//!     grid emits byte-identical CSV across replays and across
//!     `MLPERF_JOBS`-style worker counts;
//! (c) **the engines agree on slices**: the analytic fast path and the
//!     full DES price every sliced cell to the same bytes;
//! (d) **the disk cache is partition-aware**: sliced and whole-device
//!     twins key differently, and a warm replay answers every sliced
//!     cell from disk with identical bytes.

use mlperf_suite::runner::{Ctx, Pool};
use mlperf_suite::sweep::{self, DiskCache};
use mlperf_hw::{PartitionProfile, PartitionSpec};
use std::path::PathBuf;

/// A fixed cache epoch so test keys never depend on the build fingerprint.
const EPOCH: u64 = 0x9A27_1710;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlperf_partition_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn partition_scaling() -> sweep::SweepSpec {
    sweep::registry()
        .into_iter()
        .find(|s| s.name == "partition_scaling")
        .expect("partition_scaling registered")
}

#[test]
fn whole_device_cells_spell_exactly_as_before_partitioning() {
    // The first cell of every partition-free registry sweep must not
    // mention partitioning anywhere in its canonical identity, and the
    // sweep must not grow a partition column.
    for spec in sweep::registry() {
        if spec.name == "partition_scaling" {
            assert!(spec.partitioned());
            continue;
        }
        assert!(!spec.partitioned(), "{} unexpectedly partitioned", spec.name);
        let bytes = spec.cell_at(0).canonical_bytes();
        let text = String::from_utf8(bytes).expect("canonical bytes are ASCII");
        assert!(
            !text.contains("part"),
            "{}: whole-device cell identity drifted: {text}",
            spec.name
        );
    }
    // Setting then clearing the partition is a no-op on the identity.
    let mut cell = partition_scaling().cell_at(0);
    assert_eq!(cell.partition, None, "grid's first layout is the whole device");
    let plain = cell.canonical_bytes();
    cell.partition = Some(PartitionSpec::packed(PartitionProfile::Half));
    assert_ne!(cell.canonical_bytes(), plain, "slicing must change identity");
    cell.partition = None;
    assert_eq!(cell.canonical_bytes(), plain, "clearing must restore identity");
}

#[test]
fn partitioned_sweep_bytes_are_identical_across_replays_and_workers() {
    let spec = partition_scaling();
    let reference = sweep::to_csv(&sweep::run_serial(&Ctx::new(), &spec, None));
    assert!(
        reference.lines().next().expect("header").contains("partition"),
        "partitioned sweep must carry the partition column"
    );
    // Every layout token appears in the data rows.
    for token in ["full", "1of2x2", "1of4x4", "1of7x7"] {
        assert!(reference.contains(token), "missing layout {token}");
    }
    for workers in [1usize, 4] {
        for replay in 0..2 {
            let pool = Pool::with_workers(workers);
            let mut out = Vec::new();
            sweep::run_streamed(&pool, &Ctx::new(), &spec, None, &mut out, 8).unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                reference,
                "replay {replay} at {workers} workers drifted"
            );
        }
    }
}

#[test]
fn both_engines_price_sliced_cells_to_the_same_bytes() {
    let spec = partition_scaling();
    let fast_ctx = Ctx::new().with_fastpath(true);
    let fast = sweep::to_csv(&sweep::run_serial(&fast_ctx, &spec, None));
    let slow = sweep::to_csv(&sweep::run_serial(
        &Ctx::new().with_fastpath(false),
        &spec,
        None,
    ));
    assert_eq!(fast, slow, "fast path changed partitioned CSV bytes");
    let (attempts, hits) = fast_ctx.fast_stats();
    assert!(attempts > 0, "fast path was never consulted");
    assert!(hits > 0, "no sliced cell priced analytically");
}

#[test]
fn disk_cache_keys_are_partition_aware_and_replay_warm() {
    let dir = tmp("warm");
    let cache = DiskCache::open_with_epoch(&dir, EPOCH).unwrap();

    // Sliced and whole-device twins of the same physical point must
    // never share a cache entry.
    let whole = partition_scaling().cell_at(0);
    let mut sliced = whole.clone();
    sliced.partition = Some(PartitionSpec::packed(PartitionProfile::Quarter));
    assert_ne!(
        cache.key(&whole.canonical_bytes()),
        cache.key(&sliced.canonical_bytes()),
        "partition is not part of the cache key"
    );

    // Cold-fill, then a warm replay answers every cell — sliced layouts
    // included — from disk, byte-identically.
    let spec = partition_scaling();
    let pool = Pool::with_workers(4);
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    sweep::run_streamed(&pool, &Ctx::new(), &spec, Some(&cache), &mut cold, 8).unwrap();
    let warm_ctx = Ctx::new();
    let summary =
        sweep::run_streamed(&pool, &warm_ctx, &spec, Some(&cache), &mut warm, 8).unwrap();
    assert_eq!(cold, warm, "warm bytes differ");
    assert_eq!(summary.disk_hits, summary.cells, "warm run recomputed cells");
    let (attempts, _) = warm_ctx.fast_stats();
    assert_eq!(attempts, 0, "a disk hit must never re-price a cell");
    let _ = std::fs::remove_dir_all(&dir);
}
