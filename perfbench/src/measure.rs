//! Measurement helpers: order statistics, the span timer the traced runs
//! wrap around each layer call, and process counters read from `/proc`.

use std::time::Instant;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p) - 1
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest of `levels` that `n` samples support, if any.
pub fn tail_percentile(n: usize, levels: &[f64]) -> Option<f64> {
    levels
        .iter()
        .copied()
        .filter(|&p| supports(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Zero-based nearest-rank index of the `p`-th percentile of `n > 0`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The nearest-rank `p`-th percentile of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Wraps layer calls in spans when on; calls straight through when off,
/// so the same recomposition code measures its own tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Tracer {
    pub on: bool,
}

impl Tracer {
    /// Run `f`, adding its wall time in nanoseconds to `acc` when tracing.
    #[inline]
    pub fn span<T>(self, acc: &mut u64, f: impl FnOnce() -> T) -> T {
        if self.on {
            let t = Instant::now();
            let out = f();
            *acc += t.elapsed().as_nanos() as u64;
            out
        } else {
            f()
        }
    }
}

/// Tracing overhead in percent: `pass` timed with the timers on against
/// off, alternating which goes first; the median of `pairs` pairs.
pub fn overhead_pct(pairs: usize, mut pass: impl FnMut(Tracer)) -> f64 {
    let ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let mut ms = [0.0; 2];
            let order = if i % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for on in order {
                let t = Instant::now();
                pass(Tracer { on });
                ms[usize::from(on)] = t.elapsed().as_secs_f64();
            }
            (ms[1] - ms[0]) / ms[0] * 100.0
        })
        .collect();
    median(&ratios)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    // Linux reports these fields in USER_HZ ticks, fixed at 100 by the ABI.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11 and 12.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(0, 50.0));
        assert_eq!(tail_percentile(1000, &[90.0, 99.0, 99.9]), Some(99.0));
        assert_eq!(tail_percentile(150, &[99.0, 90.0]), Some(90.0));
        assert_eq!(tail_percentile(50, &[90.0, 99.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
