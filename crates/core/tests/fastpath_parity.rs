//! The analytic fast path against its oracle, the DES, on every cell the
//! system prices.
//!
//! `Ctx` always tries the engine's fast path and falls back to the DES
//! only when the engine declines, so every feasible sweep cell is priced
//! analytically. These tests price each cell twice — once through a
//! default context and once through a context with the fast path turned
//! off — and require the same typed error (kind and message) or
//! bit-identical values. They also require that the fast path priced
//! every feasible cell, with no decline, and that the DES context never
//! tried it.
//!
//! The registry sweeps and the report run in tier-1. The full 999,936-cell
//! `million_cell()` grid is `#[ignore]`d and run by `scripts/ci.sh`:
//! `cargo test --release -p mlperf-suite --test fastpath_parity -- --ignored`.

use mlperf_suite::report_gen;
use mlperf_suite::runner::{Ctx, Pool, ResilienceConfig};
use mlperf_suite::sweep::{self, SweepSpec};

/// Price every cell of `spec` both ways and compare them. Returns the
/// feasible cell count and the two contexts' `fast_stats()`.
fn price_both_ways(spec: &SweepSpec) -> (u64, (u64, u64), (u64, u64)) {
    let fast = Ctx::without_memo();
    let des = Ctx::without_memo().with_fastpath(false);
    let mut feasible = 0;
    for i in 0..spec.len() {
        let cell = spec.cell_at(i);
        match (
            sweep::price_cell(&fast, &cell),
            sweep::price_cell(&des, &cell),
        ) {
            (Ok(a), Ok(b)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(a.values()),
                    bits(b.values()),
                    "{} cell {i}: fast {:?} != DES {:?}",
                    spec.name,
                    a.values(),
                    b.values(),
                );
                feasible += 1;
            }
            (Err(a), Err(b)) => assert_eq!(
                (&a.kind, &a.message),
                (&b.kind, &b.message),
                "{} cell {i}: fast and DES reject differently",
                spec.name,
            ),
            (a, b) => panic!("{} cell {i}: fast {a:?} but DES {b:?}", spec.name),
        }
    }
    (feasible, fast.fast_stats(), des.fast_stats())
}

#[test]
fn fast_path_prices_every_feasible_registry_cell_bit_identically_to_the_des() {
    for spec in sweep::registry() {
        let (feasible, fast, des) = price_both_ways(&spec);
        assert!(feasible > 0, "{}: no feasible cell", spec.name);
        assert_eq!(
            fast,
            (feasible, feasible),
            "{}: fast path declined",
            spec.name
        );
        assert_eq!(
            des,
            (0, 0),
            "{}: the DES context tried the fast path",
            spec.name
        );
    }
}

/// The report's training points go through the memoized context; the
/// whole report must come out byte-identical through either loop, with
/// every feasible point priced analytically.
#[test]
fn fast_path_prices_every_feasible_report_point_and_the_report_matches_the_des() {
    let pool = Pool::with_workers(2);
    let build =
        |ctx: &Ctx| report_gen::build_cached(&pool, ctx, &ResilienceConfig::strict(), None).0;
    let fast = Ctx::new();
    let des = Ctx::new().with_fastpath(false);
    assert_eq!(build(&fast), build(&des), "report bytes depend on the loop");
    let (attempts, hits) = fast.fast_stats();
    assert!(hits > 0, "no report point took the fast path");
    assert_eq!(attempts, hits, "fast path declined a report point");
    assert_eq!(
        des.fast_stats(),
        (0, 0),
        "the DES context tried the fast path"
    );
}

#[test]
#[ignore = "full 999,936-cell grid; scripts/ci.sh runs it in release"]
fn fast_path_prices_every_feasible_million_cell_bit_identically_to_the_des() {
    let (feasible, fast, des) = price_both_ways(&sweep::million_cell());
    assert_eq!(feasible, 239_160);
    assert_eq!(fast, (239_160, 239_160), "fast path declined");
    assert_eq!(des, (0, 0), "the DES context tried the fast path");
}
