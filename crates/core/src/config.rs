//! One typed view of every `MLPERF_*` environment knob.
//!
//! [`Config::try_from_env`] resolves every knob exactly once. The `repro`
//! CLI calls it first thing and hands the resulting [`Config`] to every
//! component it builds ([`Pool::from_config`](crate::runner::Pool::from_config),
//! [`Ctx::from_config`](crate::runner::Ctx::from_config),
//! [`DiskCache::from_config`](crate::sweep::DiskCache::from_config),
//! [`ResilienceConfig::from_config`](crate::runner::ResilienceConfig::from_config),
//! [`Server::bind`](crate::serve::Server::bind)); no component reads the
//! environment on its own, so a long-lived `repro serve` daemon never
//! splits its view of its own knobs mid-flight. [`Config::default`] is
//! the all-unset resolution and never reads the environment.
//!
//! Every knob parses strictly and by one rule per type: absent or blank
//! is the default, integers must parse and lie in the knob's range, and
//! booleans (`MLPERF_STRICT`, `MLPERF_CACHE`) accept
//! only `1`/`0`, `on`/`off`, `true`/`false` or `yes`/`no`. Anything else
//! is a [`ConfigError`] naming the knob, so `repro` exits 1 before it
//! writes anything.
//!
//! Parsing is pure ([`Config::try_resolve`] takes the lookup as a
//! closure), which is what the unit tests drive — tests must not mutate
//! the process environment, because the suite runs multi-threaded.

use crate::runner::{
    ChaosSpec, CHAOS_ATTEMPTS_ENV, CHAOS_ENV, JOBS_ENV, PARTITION_ENV, RETRIES_ENV, RUNS_ENV,
    STEP_BUDGET_ENV, STRICT_ENV,
};
use crate::serve::{
    DEFAULT_MAX_FRAME, DEFAULT_READ_TIMEOUT_MS, DEFAULT_WRITE_TIMEOUT_MS, SERVE_MAX_FRAME_ENV,
    SERVE_READ_TIMEOUT_ENV, SERVE_WRITE_TIMEOUT_ENV,
};
use crate::sweep::cache::{CACHE_DIR_ENV, CACHE_ENV, DEFAULT_CACHE_DIR, IO_CHAOS_ENV};
use crate::sweep::MAX_RUNS;
use mlperf_hw::PartitionSpec;
use mlperf_testkit::iochaos::{IoChaosParseError, IoChaosSpec};
use std::fmt;
use std::ops::RangeInclusive;
use std::path::PathBuf;

/// Why a knob was rejected by [`Config::try_resolve`]. A typo'd knob
/// fails fast instead of silently running with a default — a mistyped
/// `MLPERF_IO_CHAOS` that injected nothing would make a durability gate
/// vacuously green.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A knob's value did not parse as its type.
    BadKnob {
        /// The environment variable.
        name: &'static str,
        /// The rejected value text.
        value: String,
        /// What the knob expects, for the error message.
        expected: &'static str,
    },
    /// `MLPERF_IO_CHAOS` was present but malformed.
    BadIoChaos {
        /// The rejected spec text.
        value: String,
        /// The typed parse failure.
        error: IoChaosParseError,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadKnob {
                name,
                value,
                expected,
            } => write!(f, "{name}={value:?}: expected {expected}"),
            ConfigError::BadIoChaos { value, error } => {
                write!(f, "{IO_CHAOS_ENV}={value:?}: {error}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Every `MLPERF_*` knob, resolved once.
#[derive(Debug, Clone)]
pub struct Config {
    /// Worker-thread count (`MLPERF_JOBS`, else `available_parallelism`).
    pub jobs: usize,
    /// Whether the persistent result cache is enabled (`MLPERF_CACHE` not
    /// false, and no chaos injection active — injected failures must
    /// never be masked by warm entries).
    pub cache_enabled: bool,
    /// Persistent-cache directory (`MLPERF_CACHE_DIR`, else
    /// `artifacts/cache`).
    pub cache_dir: PathBuf,
    /// Per-experiment (and, for the server, per-client) simulation-request
    /// budget (`MLPERF_STEP_BUDGET`). Counted in requests, never
    /// wall-clock, so verdicts are deterministic.
    pub step_budget: Option<u64>,
    /// Fail-fast mode (`MLPERF_STRICT` true).
    pub strict: bool,
    /// Retry-count override for transient failures (`MLPERF_RETRIES`);
    /// ignored under strict mode, which forces zero retries.
    pub retries: Option<u32>,
    /// Deterministic chaos injection (`MLPERF_CHAOS`,
    /// `MLPERF_CHAOS_ATTEMPTS`), if configured.
    pub chaos: Option<ChaosSpec>,
    /// Seeded runs per Training cell (`MLPERF_RUNS`, in 1..=[`MAX_RUNS`];
    /// default 1 = point pricing with no replication columns,
    /// byte-identical to the pre-replication suite).
    pub runs: u32,
    /// Fractional-device partition applied to the base cell of every
    /// `repro sweep` run (`MLPERF_PARTITION`, e.g. `1of4x3`; `full` and
    /// unset both mean the whole device). Sweeps that declare their own
    /// partition axis override it per cell, and pinned report
    /// experiments ignore it entirely — like `MLPERF_RUNS`, the knob
    /// reshapes exploratory sweeps, never conformance-pinned sections.
    pub partition: Option<PartitionSpec>,
    /// Seeded I/O fault injection at the persistent cache's filesystem
    /// seam (`MLPERF_IO_CHAOS`), if configured. Unlike `MLPERF_CHAOS`,
    /// this keeps the cache *enabled*: the property under test is that a
    /// sabotaged cache still yields byte-identical output.
    pub io_chaos: Option<IoChaosSpec>,
    /// Serve per-connection read deadline in milliseconds
    /// (`MLPERF_SERVE_READ_TIMEOUT_MS`; `0` disables it).
    pub serve_read_timeout_ms: u64,
    /// Serve per-connection write deadline in milliseconds
    /// (`MLPERF_SERVE_WRITE_TIMEOUT_MS`; `0` disables it).
    pub serve_write_timeout_ms: u64,
    /// Serve maximum request-frame size in bytes
    /// (`MLPERF_SERVE_MAX_FRAME`; `0` removes the bound).
    pub serve_max_frame: usize,
}

// What each unsigned knob's range expects, for the error message.
const UNSIGNED: &str = "a non-negative integer (no overflow)";
const POSITIVE: &str = "a positive integer (no overflow)";
const UNSIGNED_32: &str = "an integer in 0..=4294967295";
const RUN_COUNT: &str = "an integer in 1..=512";

/// Strictly parse one unsigned knob that must lie in `range`: absent or
/// blank means unset (`None`); anything else must parse and fit, or it is
/// a typed error naming the knob.
fn unsigned_in(
    get: &impl Fn(&str) -> Option<String>,
    name: &'static str,
    range: RangeInclusive<u64>,
    expected: &'static str,
) -> Result<Option<u64>, ConfigError> {
    let Some(raw) = get(name) else {
        return Ok(None);
    };
    let text = raw.trim();
    if text.is_empty() {
        return Ok(None);
    }
    match text.parse::<u64>() {
        Ok(n) if range.contains(&n) => Ok(Some(n)),
        _ => Err(ConfigError::BadKnob {
            name,
            value: raw,
            expected,
        }),
    }
}

/// Strictly parse one boolean knob: absent or blank means unset (`None`);
/// `1`/`on`/`true`/`yes` and `0`/`off`/`false`/`no` (any case) are the
/// only values, and anything else is a typed error naming the knob.
fn strict_bool(
    get: &impl Fn(&str) -> Option<String>,
    name: &'static str,
) -> Result<Option<bool>, ConfigError> {
    let Some(raw) = get(name) else {
        return Ok(None);
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" => Ok(None),
        "1" | "on" | "true" | "yes" => Ok(Some(true)),
        "0" | "off" | "false" | "no" => Ok(Some(false)),
        _ => Err(ConfigError::BadKnob {
            name,
            value: raw,
            expected: "a boolean: 1/0, on/off, true/false or yes/no",
        }),
    }
}

impl Config {
    /// Resolve every knob from the process environment, once. The
    /// `repro` CLI calls this before doing anything else.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the knobs.
    pub fn try_from_env() -> Result<Config, ConfigError> {
        Config::try_resolve(|name| std::env::var(name).ok())
    }

    /// Resolve every knob through `get` (the pure core of
    /// [`Config::try_from_env`]; tests inject a map instead of mutating
    /// the process environment). Every knob parses strictly: absent or
    /// blank means the default, and a malformed or out-of-range value is
    /// a typed error naming the knob — never a silent fallback.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the knobs.
    pub fn try_resolve(get: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        let jobs = unsigned_in(&get, JOBS_ENV, 1..=usize::MAX as u64, POSITIVE)?.map_or_else(
            || std::thread::available_parallelism().map_or(1, |n| n.get()),
            |n| n as usize,
        );
        let u32_max = u64::from(u32::MAX);
        let attempts = unsigned_in(&get, CHAOS_ATTEMPTS_ENV, 0..=u32_max, UNSIGNED_32)?;
        let chaos = get(CHAOS_ENV).and_then(|target| {
            let target = target.trim().to_string();
            (!target.is_empty()).then(|| ChaosSpec {
                target,
                attempts: attempts.map_or(u32::MAX, |n| n as u32),
            })
        });
        let cache_enabled = strict_bool(&get, CACHE_ENV)?.unwrap_or(true) && chaos.is_none();
        let cache_dir =
            get(CACHE_DIR_ENV).map_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR), PathBuf::from);
        let strict = strict_bool(&get, STRICT_ENV)?.unwrap_or(false);
        let retries = unsigned_in(&get, RETRIES_ENV, 0..=u32_max, UNSIGNED_32)?.map(|n| n as u32);
        let runs = unsigned_in(&get, RUNS_ENV, 1..=u64::from(MAX_RUNS), RUN_COUNT)?
            .map_or(1, |n| n as u32);
        let step_budget = unsigned_in(&get, STEP_BUDGET_ENV, 0..=u64::MAX, UNSIGNED)?;
        let partition = match get(PARTITION_ENV) {
            Some(raw) if !raw.trim().is_empty() => match PartitionSpec::parse(raw.trim()) {
                Ok(p) => p,
                Err(_) => {
                    return Err(ConfigError::BadKnob {
                        name: PARTITION_ENV,
                        value: raw,
                        expected: "a partition token: 'full', '1of{2|4|7}', or '1of{k}x{tenants}'",
                    })
                }
            },
            _ => None,
        };
        let io_chaos = match get(IO_CHAOS_ENV) {
            Some(text) => IoChaosSpec::parse(&text)
                .map_err(|error| ConfigError::BadIoChaos { value: text, error })?,
            None => None,
        };
        let serve_read_timeout_ms =
            unsigned_in(&get, SERVE_READ_TIMEOUT_ENV, 0..=u64::MAX, UNSIGNED)?
                .unwrap_or(DEFAULT_READ_TIMEOUT_MS);
        let serve_write_timeout_ms =
            unsigned_in(&get, SERVE_WRITE_TIMEOUT_ENV, 0..=u64::MAX, UNSIGNED)?
                .unwrap_or(DEFAULT_WRITE_TIMEOUT_MS);
        let serve_max_frame = unsigned_in(&get, SERVE_MAX_FRAME_ENV, 0..=u64::MAX, UNSIGNED)?
            .map_or(DEFAULT_MAX_FRAME, |n| n.min(usize::MAX as u64) as usize);
        Ok(Config {
            jobs,
            cache_enabled,
            cache_dir,
            step_budget,
            strict,
            retries,
            chaos,
            runs,
            partition,
            io_chaos,
            serve_read_timeout_ms,
            serve_write_timeout_ms,
            serve_max_frame,
        })
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::try_resolve(|_| None).expect("unset knobs resolve to their defaults")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(pairs: &[(&str, &str)]) -> Config {
        try_with(pairs).expect("knobs resolve")
    }

    fn try_with(pairs: &[(&str, &str)]) -> Result<Config, ConfigError> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Config::try_resolve(move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        })
    }

    #[test]
    fn empty_environment_gives_defaults() {
        let cfg = with(&[]);
        assert!(cfg.jobs >= 1);
        assert!(cfg.cache_enabled);
        assert_eq!(cfg.cache_dir, PathBuf::from(DEFAULT_CACHE_DIR));
        assert_eq!(cfg.step_budget, None);
        assert!(!cfg.strict);
        assert_eq!(cfg.retries, None);
        assert!(cfg.chaos.is_none());
        assert_eq!(cfg.runs, 1, "default is point pricing");
        assert!(cfg.partition.is_none(), "default is the whole device");
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.serve_read_timeout_ms, DEFAULT_READ_TIMEOUT_MS);
        assert_eq!(cfg.serve_write_timeout_ms, DEFAULT_WRITE_TIMEOUT_MS);
        assert_eq!(cfg.serve_max_frame, DEFAULT_MAX_FRAME);
    }

    #[test]
    fn every_knob_parses() {
        let cfg = with(&[
            (JOBS_ENV, "3"),
            (CACHE_ENV, "on"),
            (CACHE_DIR_ENV, "/tmp/alt"),
            (STEP_BUDGET_ENV, "250"),
            (STRICT_ENV, "1"),
            (RETRIES_ENV, "7"),
            (RUNS_ENV, "8"),
            (PARTITION_ENV, "1of4x3"),
            (IO_CHAOS_ENV, "seed=3,bit_flip=0.5"),
            (SERVE_READ_TIMEOUT_ENV, "1500"),
            (SERVE_WRITE_TIMEOUT_ENV, "0"),
            (SERVE_MAX_FRAME_ENV, "4096"),
        ]);
        assert_eq!(cfg.jobs, 3);
        assert!(cfg.cache_enabled);
        assert_eq!(cfg.cache_dir, PathBuf::from("/tmp/alt"));
        assert_eq!(cfg.step_budget, Some(250));
        assert!(cfg.strict);
        assert_eq!(cfg.retries, Some(7));
        assert_eq!(cfg.runs, 8);
        assert_eq!(
            cfg.partition.map(|p| p.to_string()).as_deref(),
            Some("1of4x3")
        );
        let io = cfg.io_chaos.expect("io-chaos spec parsed");
        assert_eq!((io.seed, io.bit_flip), (3, 0.5));
        assert_eq!(cfg.serve_read_timeout_ms, 1500);
        assert_eq!(cfg.serve_write_timeout_ms, 0, "0 = deadline disabled");
        assert_eq!(cfg.serve_max_frame, 4096);
    }

    #[test]
    fn cache_disables_on_off_or_chaos() {
        assert!(!with(&[(CACHE_ENV, "off")]).cache_enabled);
        assert!(!with(&[(CACHE_ENV, "0")]).cache_enabled);
        let chaotic = with(&[(CHAOS_ENV, "figure3"), (CHAOS_ATTEMPTS_ENV, "2")]);
        assert!(!chaotic.cache_enabled, "chaos runs must not read warm entries");
        let chaos = chaotic.chaos.expect("chaos spec parsed");
        assert_eq!(chaos.target, "figure3");
        assert_eq!(chaos.attempts, 2);
        // A blank chaos target is no chaos at all.
        assert!(with(&[(CHAOS_ENV, "  ")]).chaos.is_none());
    }

    /// `knob=value` must be a typed error naming the knob and carrying
    /// the rejected text.
    fn rejects(knob: &'static str, value: &str) {
        match try_with(&[(knob, value)]) {
            Err(ConfigError::BadKnob { name, value: v, .. }) => {
                assert_eq!((name, v.as_str()), (knob, value));
            }
            other => panic!("{knob}={value:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn malformed_values_are_typed_errors() {
        assert_eq!(with(&[(JOBS_ENV, " 7 ")]).jobs, 7);
        for bad in ["0", "-1", "1.5", "many", "99999999999999999999999"] {
            rejects(JOBS_ENV, bad);
        }
        let err = try_with(&[(JOBS_ENV, "0")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "MLPERF_JOBS=\"0\": expected a positive integer (no overflow)"
        );
    }

    #[test]
    fn retries_and_chaos_attempts_fit_in_32_bits() {
        assert_eq!(with(&[(RETRIES_ENV, "0")]).retries, Some(0));
        assert_eq!(with(&[(RETRIES_ENV, "4294967295")]).retries, Some(u32::MAX));
        let attempts = |pairs: &[(&str, &str)]| with(pairs).chaos.expect("chaos set").attempts;
        assert_eq!(attempts(&[(CHAOS_ENV, "figure3")]), u32::MAX, "unset: every attempt");
        assert_eq!(attempts(&[(CHAOS_ENV, "figure3"), (CHAOS_ATTEMPTS_ENV, "0")]), 0);
        for bad in ["-1", "4294967296", "2x"] {
            rejects(RETRIES_ENV, bad);
            rejects(CHAOS_ATTEMPTS_ENV, bad);
        }
    }

    #[test]
    fn boolean_knobs_share_one_rule() {
        for knob in [STRICT_ENV, CACHE_ENV] {
            let read = |value: &str| {
                let cfg = with(&[(knob, value)]);
                match knob {
                    STRICT_ENV => cfg.strict,
                    _ => cfg.cache_enabled,
                }
            };
            for on in ["1", "on", "true", "yes", "TRUE", " Yes "] {
                assert!(read(on), "{knob}={on:?}");
            }
            for off in ["0", "off", "false", "no", "OFF", "No\t"] {
                assert!(!read(off), "{knob}={off:?}");
            }
            for bad in ["2", "enabled", "tru", "y", "-"] {
                rejects(knob, bad);
            }
        }
    }

    /// Every `MLPERF_*` value `scripts/ci.sh` sets parses, except the two
    /// it sets to prove that a malformed knob fails fast.
    #[test]
    fn every_value_ci_sets_parses() {
        const CI: &str = include_str!("../../../scripts/ci.sh");
        let mut seen = 0;
        for line in CI.lines().filter(|l| !l.trim_start().starts_with('#')) {
            for word in line.split_whitespace() {
                let Some((name, value)) = word.split_once('=') else {
                    continue;
                };
                if !name.starts_with("MLPERF_") || value.contains('$') {
                    continue;
                }
                let value = value.trim_matches('"');
                let parsed = try_with(&[(name, value)]);
                match (name, value) {
                    (STEP_BUDGET_ENV, "lots") | (PARTITION_ENV, "half") => {
                        assert!(parsed.is_err(), "{name}={value} must fail");
                    }
                    _ => assert!(parsed.is_ok(), "ci.sh sets {name}={value}: {parsed:?}"),
                }
                seen += 1;
            }
        }
        assert!(seen >= 40, "found only {seen} knob values in ci.sh");
    }

    #[test]
    fn strict_knobs_reject_garbage_with_typed_errors() {
        // Unknown io-chaos key.
        let err = try_with(&[(IO_CHAOS_ENV, "bitflip=0.5")]).unwrap_err();
        assert!(matches!(
            &err,
            ConfigError::BadIoChaos {
                error: IoChaosParseError::UnknownKey(k),
                ..
            } if k == "bitflip"
        ));
        assert!(err.to_string().contains(IO_CHAOS_ENV), "{err}");
        // Out-of-range rate.
        assert!(try_with(&[(IO_CHAOS_ENV, "bit_flip=2.0")]).is_err());
        // Non-numeric deadline.
        let err = try_with(&[(SERVE_READ_TIMEOUT_ENV, "soon")]).unwrap_err();
        assert!(matches!(
            &err,
            ConfigError::BadKnob { name, value, .. }
                if *name == SERVE_READ_TIMEOUT_ENV && value == "soon"
        ));
        // Overflow is a typed error, not a silent wrap.
        assert!(try_with(&[(SERVE_MAX_FRAME_ENV, "99999999999999999999999999")]).is_err());
        assert!(try_with(&[(SERVE_WRITE_TIMEOUT_ENV, "-5")]).is_err());
        // A mistyped budget must not silently run unlimited.
        let err = try_with(&[(STEP_BUDGET_ENV, "lots")]).unwrap_err();
        assert!(matches!(
            &err,
            ConfigError::BadKnob { name, value, .. }
                if *name == STEP_BUDGET_ENV && value == "lots"
        ));
    }

    #[test]
    fn strict_knobs_treat_empty_and_whitespace_as_unset() {
        let cfg = try_with(&[
            (IO_CHAOS_ENV, ""),
            (SERVE_READ_TIMEOUT_ENV, "   "),
            (SERVE_MAX_FRAME_ENV, "\t"),
            (JOBS_ENV, " "),
            (RUNS_ENV, ""),
            (RETRIES_ENV, " "),
            (STRICT_ENV, " "),
            (CACHE_ENV, ""),
        ])
        .expect("blank knobs are unset, not errors");
        assert!(cfg.io_chaos.is_none());
        assert_eq!(cfg.serve_read_timeout_ms, DEFAULT_READ_TIMEOUT_MS);
        assert_eq!(cfg.serve_max_frame, DEFAULT_MAX_FRAME);
        assert!(cfg.jobs >= 1);
        assert_eq!((cfg.runs, cfg.retries), (1, None));
        assert!(!cfg.strict && cfg.cache_enabled);
        // All-whitespace io-chaos text is likewise no injection.
        assert!(try_with(&[(IO_CHAOS_ENV, "  \t ")])
            .expect("whitespace spec")
            .io_chaos
            .is_none());
    }

    #[test]
    fn io_chaos_keeps_the_cache_enabled() {
        let cfg = with(&[(IO_CHAOS_ENV, "seed=1,torn_rename=0.5")]);
        assert!(
            cfg.cache_enabled,
            "io chaos sabotages the cache's I/O — it must not disable the cache"
        );
        assert!(cfg.io_chaos.is_some());
    }

    #[test]
    fn partition_knob_normalizes_or_rejects() {
        // `full`, blank, and unset all mean the whole device — the
        // normalized form, so a knob'd full-device sweep is byte-identical
        // to an un-knob'd one.
        assert!(with(&[]).partition.is_none());
        assert!(with(&[(PARTITION_ENV, "full")]).partition.is_none());
        assert!(with(&[(PARTITION_ENV, "  ")]).partition.is_none());
        // Explicit solo-tenant spelling normalizes to the bare token.
        assert_eq!(
            with(&[(PARTITION_ENV, "1of2x1")])
                .partition
                .map(|p| p.to_string())
                .as_deref(),
            Some("1of2")
        );
        // Garbage is a typed error.
        for bad in ["1of3", "2of4", "1of4x9", "half"] {
            let err = try_with(&[(PARTITION_ENV, bad)]).unwrap_err();
            assert!(
                matches!(&err, ConfigError::BadKnob { name, .. } if *name == PARTITION_ENV),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn runs_knob_rejects_values_outside_the_window() {
        assert_eq!(with(&[(RUNS_ENV, "1")]).runs, 1);
        assert_eq!(with(&[(RUNS_ENV, "8")]).runs, 8);
        assert_eq!(with(&[(RUNS_ENV, "512")]).runs, 512);
        // Zero, negatives, absurd counts, and garbage are typed errors.
        for bad in ["0", "-4", "513", "999", "many"] {
            rejects(RUNS_ENV, bad);
        }
        let err = try_with(&[(RUNS_ENV, "513")]).unwrap_err();
        assert!(err.to_string().contains(&format!("1..={MAX_RUNS}")), "{err}");
    }
}
