//! Snapshot bench: the DES event queue (`BENCH_des.json`).
//!
//! A hold-K event storm — a pop-push loop over seeded-random delays with
//! deliberate ties — driven through [`EventQueue`] at two held depths:
//!
//! * **11** — the most events the cluster and fault replays ever hold at
//!   once across a full report (63,319 events scheduled in all);
//! * **4096** — a deep queue, far past any workload, so a change that
//!   only hurts at depth still shows.
//!
//! Every pop is checked against the queue's ordering law before any
//! number is reported: time never goes back, and equal times pop in
//! insertion order. `--check` gates the operation and depth counts at
//! ±20%; the raw events/s are machine-dependent and recorded only.

use mlperf_bench::snapshot::{self, Snapshot};
use mlperf_hw::units::Seconds;
use mlperf_sim::des::EventQueue;
use mlperf_testkit::rng::Rng;
use std::time::Instant;

/// The measured maximum of events held at once by a full report.
const HELD: usize = 11;
/// A deep queue, far past any workload.
const DEEP_HELD: usize = 4096;
/// Pop-push operations timed per storm.
const OPS: usize = 1_000_000;
/// Timing trials per depth; raw rates come from the best (minimum) trial.
const TRIALS: usize = 5;

/// Drive one queue holding `held` events through a storm, asserting the
/// ordering law on every pop; returns the elapsed seconds.
fn storm(held: usize) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = Rng::new(0xde5_ca1e);
    // Payloads are issued in increasing order, so among equal times the
    // FIFO contract means increasing payloads.
    let mut next = 0u64;
    for _ in 0..held {
        q.schedule(Seconds::new(rng.gen_f64()), next);
        next += 1;
    }
    let mut last = (Seconds::ZERO, 0u64);
    let start = Instant::now();
    for i in 0..OPS {
        let (at, ev) = q.pop().expect("queue never drains");
        assert!(
            at > last.0 || (at == last.0 && ev > last.1) || i == 0,
            "pop {i} broke the ordering law at depth {held}"
        );
        last = (at, ev);
        // Mostly forward progress; every 16th event is a tie with the
        // current head to exercise FIFO ordering in the hot loop.
        let delay = if i % 16 == 0 {
            Seconds::ZERO
        } else {
            Seconds::new(rng.gen_f64())
        };
        q.schedule(at + delay, next);
        next += 1;
    }
    start.elapsed().as_secs_f64()
}

/// Events per second at `held`, from the best of [`TRIALS`] storms.
fn rate(held: usize) -> f64 {
    let best = (0..TRIALS)
        .map(|_| storm(held))
        .fold(f64::INFINITY, f64::min);
    OPS as f64 / best
}

fn measure() -> Snapshot {
    let mut snap = Snapshot::new("bench_des.v2");
    snap.push("ops", OPS as f64);
    snap.push("held_events", HELD as f64);
    snap.push("events_per_sec", rate(HELD));
    snap.push("deep_held_events", DEEP_HELD as f64);
    snap.push("deep_events_per_sec", rate(DEEP_HELD));
    snap
}

/// `--check` gates the counts; raw rates are recorded only.
const GATED: &[&str] = &["ops", "held_events", "deep_held_events"];

fn main() {
    snapshot::run("BENCH_des.json", GATED, measure);
}
