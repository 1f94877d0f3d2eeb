//! Load-test battery for `repro serve` (DESIGN.md §2f).
//!
//! The service contract under test:
//!
//! (a) **replay determinism** — a seeded workload of ≥1000 concurrent
//!     queries produces per-client transcripts that are byte-identical
//!     across two replays *and* across servers built at 1 vs 4 workers;
//! (b) **coalescing** — identical cells asked by many clients are priced
//!     once: the request-layer cache's hit/miss split equals
//!     `priced draws − unique cells / unique cells` exactly;
//! (c) **budgets** — per-connection step budgets trip deterministically,
//!     as typed `deadline-exceeded` frames, and replay identically;
//! (d) **degradation** — malformed and invalid queries get typed error
//!     frames and the server keeps answering;
//! (e) **sweep streaming** — a streamed sweep's frames carry exactly the
//!     bytes `repro sweep` would write for the same grid;
//! (f) **shared disk cache** — a warm server and a concurrent batch sweep
//!     hammering one `MLPERF_CACHE_DIR` never corrupt an entry and never
//!     cache an error as a success.

use mlperf_suite::serve::protocol::{self, QueryV1};
use mlperf_suite::serve::{self, ServeOptions, Server};
use mlperf_suite::sweep::{self, CellSpec, DiskCache};
use mlperf_suite::{Config, runner::{Ctx, Pool}};
use mlperf_testkit::loadgen::LoadSpec;
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// How each scripted query must be treated by the server (drives the
/// exact coalescing arithmetic in the load test).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Reaches the coalescing cache and is priced (ok or typed error).
    Priced,
    /// Rejected by the engine preflight before the coalescing layer.
    Rejected,
    /// Control-plane query; never touches the executor.
    Ping,
}

/// The seeded query vocabulary: valid training cells, OOM and bad-GPU
/// cells, expected-TTT cells (valid and invalid), and a ping.
fn vocabulary() -> Vec<(String, Expect)> {
    let mut v: Vec<(String, Expect)> = Vec::new();
    for workload in ["MLPf_Res50_MX", "MLPf_SSD_Py", "MLPf_XFMR_Py", "MLPf_GNMT_Py"] {
        for gpus in [1u32, 2, 4] {
            v.push((
                format!(
                    r#"{{"v":1,"kind":"cell","workload":"{workload}","system":"DSS_8440","gpus":{gpus}}}"#
                ),
                Expect::Priced,
            ));
        }
    }
    // Past the OOM wall (the batch_wall sweep's last doublings): the
    // preflight memory gate rejects these before pricing.
    for batch in [8192u64, 16384] {
        v.push((
            format!(
                r#"{{"v":1,"kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":{batch}}}"#
            ),
            Expect::Rejected,
        ));
    }
    // Bad GPU sets: more ordinals than the chassis has, and none at all.
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":16}"#.into(),
        Expect::Rejected,
    ));
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":0}"#.into(),
        Expect::Rejected,
    ));
    // Expected-TTT cells price through the analytic path (no preflight:
    // their own invalid-spec checks come first, and the third one proves
    // an invalid spec is a *priced, cacheable* typed error).
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":4,"interval":"daly"}"#.into(),
        Expect::Priced,
    ));
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":24,"interval":10}"#.into(),
        Expect::Priced,
    ));
    v.push((
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt"}"#.into(),
        Expect::Priced,
    ));
    v.push((r#"{"v":1,"kind":"ping"}"#.into(), Expect::Ping));
    v
}

fn test_config(jobs: usize) -> Config {
    Config { jobs, cache_enabled: false, ..Config::default() }
}

fn sock(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mlperf_serve_{name}.sock"));
    let _ = std::fs::remove_file(&p);
    p
}

fn replay(socket: &Path, lines: &[String]) -> Vec<u8> {
    let mut input = Cursor::new(lines.join("\n").into_bytes());
    let mut out = Vec::new();
    serve::replay_client(socket, &mut input, &mut out).expect("replay");
    out
}

fn shut_down(socket: &Path) {
    let mut input = Cursor::new(br#"{"v":1,"kind":"shutdown"}"#.to_vec());
    let mut out = Vec::new();
    serve::replay_client(socket, &mut input, &mut out).expect("shutdown");
}

/// Serve `client_lines` (one Vec per concurrent client) and return
/// `(per-client transcripts, stats)`.
fn serve_workload(
    cfg: &Config,
    opts: &ServeOptions,
    client_lines: &[Vec<String>],
) -> (Vec<Vec<u8>>, serve::ServeStats) {
    let server = Server::bind(opts, cfg).expect("bind");
    let transcripts = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run().expect("serve"));
        let clients: Vec<_> = client_lines
            .iter()
            .map(|lines| scope.spawn(|| replay(server.socket(), lines)))
            .collect();
        let transcripts: Vec<Vec<u8>> =
            clients.into_iter().map(|c| c.join().expect("client")).collect();
        shut_down(server.socket());
        daemon.join().expect("daemon");
        transcripts
    });
    (transcripts, server.stats())
}

#[test]
fn seeded_load_replays_byte_identical_and_coalesces() {
    let vocab = vocabulary();
    let spec = LoadSpec { vocab: vocab.len(), hot: 6, hot_pct: 70, queries: 140 };
    const CLIENTS: u64 = 8;
    let plans = spec.plans(0x4D4C_5045, CLIENTS);
    let total: usize = plans.iter().map(Vec::len).sum();
    assert!(total >= 1000, "the load-test floor is 1000 queries, got {total}");
    let workload: Vec<Vec<String>> = plans
        .iter()
        .map(|plan| plan.iter().map(|&i| vocab[i].0.clone()).collect())
        .collect();

    // The exact coalescing arithmetic this workload must produce: every
    // draw that reaches the pricing layer either founds a cache slot
    // (unique cell) or coalesces onto one.
    let drawn: std::collections::BTreeSet<usize> =
        plans.iter().flatten().copied().collect();
    let unique_priced =
        drawn.iter().filter(|&&i| vocab[i].1 == Expect::Priced).count() as u64;
    let priced_draws = plans
        .iter()
        .flatten()
        .filter(|&&i| vocab[i].1 == Expect::Priced)
        .count() as u64;

    let opts = ServeOptions { socket: sock("load_a"), ..ServeOptions::default() };
    let (first, stats) = serve_workload(&test_config(4), &opts, &workload);

    assert_eq!(stats.queries as usize, total + 1, "every line parsed (plus shutdown)");
    assert_eq!(stats.busy_responses, 0, "the default queue must absorb 8 clients");
    assert_eq!(
        (stats.coalesce_misses, stats.coalesce_hits),
        (unique_priced, priced_draws - unique_priced),
        "coalescing must price each unique cell exactly once"
    );
    assert!(stats.coalesce_hits > 500, "the hot-set skew must actually collide");

    // Replay determinism: same seed, fresh server -> same bytes; and the
    // worker count (the classic nondeterminism lever) must not leak into
    // any transcript.
    let opts_b = ServeOptions { socket: sock("load_b"), ..ServeOptions::default() };
    let (second, _) = serve_workload(&test_config(4), &opts_b, &workload);
    assert_eq!(first, second, "replay produced different bytes");
    let opts_c = ServeOptions { socket: sock("load_c"), ..ServeOptions::default() };
    let (serial, _) = serve_workload(&test_config(1), &opts_c, &workload);
    assert_eq!(first, serial, "MLPERF_JOBS=1 vs 4 leaked into response bytes");
}

#[test]
fn per_connection_budgets_trip_deterministically() {
    // Four *distinct* cells, each charged one step against a two-step
    // budget: the third and fourth answers must be typed
    // deadline-exceeded errors with the exact meter readings. Then a
    // `budget` of ten re-limits the meter but keeps the spend (a cell
    // answers ok at 5 of 10), an unknown sweep is refused uncharged, and
    // an 11-cell sweep is charged its whole length up front (16 of 10).
    let mut lines: Vec<String> = [1u32, 2, 4, 8]
        .iter()
        .map(|gpus| {
            format!(
                r#"{{"v":1,"id":"b{gpus}","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":{gpus},"budget":2}}"#
            )
        })
        .collect();
    lines.extend([
        r#"{"v":1,"id":"b10","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":1,"budget":10}"#.to_string(),
        r#"{"v":1,"id":"nope","kind":"sweep","sweep":"no_such_sweep","budget":10}"#.to_string(),
        r#"{"v":1,"id":"wall","kind":"sweep","sweep":"batch_wall","budget":10}"#.to_string(),
    ]);
    let run = |name: &str| {
        let opts = ServeOptions { socket: sock(name), ..ServeOptions::default() };
        let (transcripts, _) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
        String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap()
    };
    let text = run("budget_a");
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), 7, "{text}");
    assert!(frames[0].contains("\"status\":\"ok\""), "{text}");
    assert!(frames[1].contains("\"status\":\"ok\""), "{text}");
    assert_eq!(
        frames[2],
        protocol::error_frame("b4", "deadline-exceeded", "step budget exceeded: 3 of 2 simulation requests").trim_end(),
    );
    assert_eq!(
        frames[3],
        protocol::error_frame("b8", "deadline-exceeded", "step budget exceeded: 4 of 2 simulation requests").trim_end(),
    );
    assert!(frames[4].contains(r#""id":"b10","status":"ok""#), "{text}");
    assert!(
        frames[5].contains(r#""id":"nope","status":"error","kind":"bad-request""#),
        "{text}"
    );
    assert_eq!(
        frames[6],
        protocol::error_frame("wall", "deadline-exceeded", "step budget exceeded: 16 of 10 simulation requests").trim_end(),
    );
    assert_eq!(text, run("budget_b"), "budget verdicts must replay");

    // Another connection of the same server is a fresh meter: the same
    // first query answers ok, unaffected by this connection's spent meter.
    let opts = ServeOptions { socket: sock("budget_c"), ..ServeOptions::default() };
    let (transcripts, _) = serve_workload(
        &test_config(2),
        &opts,
        &[lines.clone(), vec![lines[0].clone()]],
    );
    let solo = String::from_utf8(transcripts[1].clone()).unwrap();
    assert!(solo.trim_end().contains("\"status\":\"ok\""), "{solo}");
}

#[test]
fn partition_queries_price_normalize_and_reject_through_the_server() {
    // Batch 16 fits the quarter slice (the default batch OOMs it).
    const CELL: &str =
        r#""kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":16"#;
    let lines: Vec<String> = vec![
        // A sliced cell prices like any other (a distinct coalescing slot).
        format!(r#"{{"v":1,"id":"sliced",{CELL},"partition":"1of4x2"}}"#),
        // `partition:"full"` normalizes to the whole device, so it must
        // coalesce with the partition-free spelling of the same cell …
        format!(r#"{{"v":1,"id":"spelled",{CELL},"partition":"full"}}"#),
        format!(r#"{{"v":1,"id":"bare",{CELL}}}"#),
        // … and a malformed token is a typed bad-request, not a crash.
        format!(r#"{{"v":1,"id":"bad",{CELL},"partition":"1of3"}}"#),
        r#"{"v":1,"id":"alive","kind":"ping"}"#.into(),
    ];
    let opts = ServeOptions { socket: sock("partition"), ..ServeOptions::default() };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), lines.len(), "{text}");
    for ok in &frames[..3] {
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    }
    // The quarter slice runs slower than the whole device: the sliced
    // frame must carry its own numbers, not the full-device ones.
    assert_ne!(frames[0].replace("sliced", "bare"), frames[2], "{text}");
    assert_eq!(frames[1].replace("spelled", "bare"), frames[2], "'full' must normalize");
    assert!(
        frames[3].contains("bad-request") && frames[3].contains("partition"),
        "{text}"
    );
    assert_eq!(frames[4], protocol::pong_frame("alive").trim_end(), "{text}");
    // Two unique physical cells (sliced, whole); the normalized spelling
    // coalesces onto the whole-device slot.
    assert_eq!((stats.coalesce_misses, stats.coalesce_hits), (2, 1), "{text}");
    assert_eq!(stats.error_responses, 1);

    let opts_b = ServeOptions { socket: sock("partition_b"), ..ServeOptions::default() };
    let (second, _) = serve_workload(&test_config(2), &opts_b, &[lines]);
    assert_eq!(text.as_bytes(), &second[0][..], "partition frames must replay");
}

#[test]
fn admission_checks_memory_against_the_partition_slice() {
    // Batch 128 fits the whole V100 but not a quarter slice of it, so
    // admission must reject the sliced cell with the frame pricing gives,
    // before it reaches the coalescer.
    let line = r#"{"v":1,"id":"slice","kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":128,"partition":"1of4"}"#;
    let QueryV1::Cell(spec) = protocol::parse_request(line).expect("valid query").query else {
        panic!("a cell query");
    };
    assert!(sweep::price_cell(&Ctx::new(), &CellSpec { partition: None, ..spec.clone() }).is_ok());
    let err = sweep::price_cell(&Ctx::new(), &spec).expect_err("the slice runs out of memory");
    assert!(err.is_oom(), "{err:?}");

    let opts = ServeOptions { socket: sock("admission_slice"), ..ServeOptions::default() };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, &[vec![line.to_string()]]);
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    assert_eq!(text, protocol::error_frame("slice", &err.kind, &err.message));
    assert_eq!(stats.coalesce_misses, 0, "an over-memory slice reached the coalescer");
    assert_eq!(stats.error_responses, 1);
}

#[test]
fn malformed_queries_get_typed_errors_and_the_server_survives() {
    let lines: Vec<String> = vec![
        "not json".into(),
        r#"{"v":2,"id":"vv","kind":"ping"}"#.into(),
        r#"{"v":1,"kind":"cell","workload":"resnet","system":"DSS_8440","gpus":4}"#.into(),
        r#"{"v":1,"kind":"ping","extra":true}"#.into(),
        r#"{"v":1,"kind":"sweep","sweep":"nope"}"#.into(),
        r#"{"v":1,"id":"alive","kind":"ping"}"#.into(),
    ];
    let opts = ServeOptions { socket: sock("malformed"), ..ServeOptions::default() };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), lines.len(), "{text}");
    for bad in &frames[..5] {
        assert!(
            bad.contains("\"status\":\"error\"") && bad.contains("bad-request"),
            "{bad}"
        );
    }
    assert_eq!(frames[5], protocol::pong_frame("alive").trim_end(), "{text}");
    assert_eq!(stats.error_responses, 5);

    let opts_b = ServeOptions { socket: sock("malformed_b"), ..ServeOptions::default() };
    let (second, _) = serve_workload(&test_config(2), &opts_b, &[lines]);
    assert_eq!(text.as_bytes(), &second[0][..], "error frames must replay");
}

#[test]
fn streamed_sweep_frames_carry_the_batch_csv_bytes() {
    // What `repro sweep` would write for this grid, computed in-process.
    let grid = sweep::fault_ttt();
    let run = sweep::run_serial(&Ctx::without_memo(), &grid, None);
    let csv = sweep::to_csv(&run);
    let mut lines = csv.lines();
    let columns: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<String> = lines.map(str::to_string).collect();
    assert_eq!(rows.len(), grid.len());

    // The expected transcript, frame by frame, at a 4-cell shard.
    let mut expected = protocol::stream_header_frame("s1", "fault_ttt", grid.len(), &columns);
    for chunk in rows.chunks(4) {
        expected.push_str(&protocol::rows_frame("s1", chunk));
    }
    expected.push_str(&protocol::done_frame("s1", grid.len(), run.errors()));

    let opts = ServeOptions {
        socket: sock("sweep_stream"),
        shard: 4,
        ..ServeOptions::default()
    };
    let query = vec![r#"{"v":1,"id":"s1","kind":"sweep","sweep":"fault_ttt"}"#.to_string()];
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, &[query]);
    assert_eq!(
        String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap(),
        expected,
        "streamed frames must carry exactly the batch CSV bytes"
    );
    assert_eq!(stats.ok_responses, 2, "sweep + shutdown");

    let unknown = vec![r#"{"v":1,"kind":"sweep","sweep":"nope"}"#.to_string()];
    let opts_b = ServeOptions { socket: sock("sweep_unknown"), ..ServeOptions::default() };
    let (transcripts, _) = serve_workload(&test_config(2), &opts_b, &[unknown]);
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    assert!(text.contains("unknown sweep 'nope'") && text.contains("figure4_scaling"), "{text}");
}

#[test]
fn replicated_cell_queries_answer_distributions_and_bad_runs_get_typed_errors() {
    const CELL: &str = r#""kind":"cell","workload":"MLPf_Res50_MX","system":"DSS_8440","gpus":4"#;
    let lines: Vec<String> = vec![
        format!(r#"{{"v":1,"id":"r8",{CELL},"runs":8}}"#),
        // runs:1 spells the point estimate: the frame must be bytes-equal
        // to the runs-free query below (same id on purpose).
        format!(r#"{{"v":1,"id":"pt",{CELL},"runs":1}}"#),
        format!(r#"{{"v":1,"id":"pt",{CELL}}}"#),
        // Out-of-range run counts are typed bad-requests, never clamps.
        format!(r#"{{"v":1,"id":"z",{CELL},"runs":0}}"#),
        format!(r#"{{"v":1,"id":"n",{CELL},"runs":-3}}"#),
        format!(r#"{{"v":1,"id":"h",{CELL},"runs":513}}"#),
        format!(r#"{{"v":1,"id":"g",{CELL},"runs":1000000000000}}"#),
    ];
    let opts = ServeOptions { socket: sock("runs"), ..ServeOptions::default() };
    let (transcripts, stats) = serve_workload(&test_config(2), &opts, std::slice::from_ref(&lines));
    let text = String::from_utf8(transcripts.into_iter().next().unwrap()).unwrap();
    let frames: Vec<&str> = text.lines().collect();
    assert_eq!(frames.len(), lines.len(), "{text}");

    // The replicated frame names every distribution column; the point
    // frames name none of them.
    assert!(frames[0].contains("\"status\":\"ok\""), "{text}");
    for col in ["runs", "epochs_median", "epochs_p5", "epochs_p95", "epochs_ci_lo", "epochs_ci_hi"]
    {
        assert!(frames[0].contains(col), "replicated frame misses '{col}': {}", frames[0]);
        if col != "runs" {
            assert!(!frames[1].contains(col), "point frame leaked '{col}': {}", frames[1]);
        }
    }
    assert_eq!(frames[1], frames[2], "runs:1 must normalize to the runs-free spelling");

    for bad in &frames[3..] {
        assert!(
            bad.contains("\"status\":\"error\"")
                && bad.contains("bad-request")
                && bad.contains("runs"),
            "{bad}"
        );
    }
    assert_eq!(stats.error_responses, 4);

    let opts_b = ServeOptions { socket: sock("runs_b"), ..ServeOptions::default() };
    let (second, _) = serve_workload(&test_config(2), &opts_b, &[lines]);
    assert_eq!(text.as_bytes(), &second[0][..], "replicated frames must replay");
}

#[test]
fn warm_server_and_batch_sweep_share_one_disk_cache_safely() {
    let dir = std::env::temp_dir().join("mlperf_serve_shared_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = test_config(2);
    cfg.cache_enabled = true;
    cfg.cache_dir = dir.clone();

    let grid = sweep::batch_wall(mlperf_suite::BenchmarkId::MlpfRes50Mx);
    // The server-side view of the same grid: identical canonical cells,
    // so the daemon and the batch runner contend on the same entries
    // (including the OOM cells past the wall, which must round-trip as
    // errors, never as successes).
    let cell_queries: Vec<String> = (0..grid.len())
        .map(|i| {
            let cell = grid.cell_at(i);
            format!(
                r#"{{"v":1,"kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":{}}}"#,
                cell.batch.expect("batch axis")
            )
        })
        .collect();

    // Phase 1: a warm server and a concurrent batch `run_streamed` hammer
    // the same cache directory from many threads at once.
    let opts = ServeOptions { socket: sock("shared_cache"), ..ServeOptions::default() };
    let server = Server::bind(&opts, &cfg).expect("bind");
    let streamed = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run().expect("serve"));
        let clients: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| replay(server.socket(), &cell_queries)))
            .collect();
        let batch = scope.spawn(|| {
            let cache = DiskCache::from_config(&cfg).expect("cache enabled");
            let mut out = Vec::new();
            sweep::run_streamed(
                &Pool::from_config(&cfg),
                &Ctx::without_memo(),
                &grid,
                Some(&cache),
                &mut out,
                4,
            )
            .expect("batch sweep");
            out
        });
        let transcripts: Vec<Vec<u8>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let streamed = batch.join().unwrap();
        assert!(transcripts.windows(2).all(|w| w[0] == w[1]), "client transcripts diverged");
        shut_down(server.socket());
        daemon.join().unwrap();
        streamed
    });

    // Phase 2: the ground truth is a cache-free run. Every byte the
    // contended runs produced — and a warm re-run answered purely from
    // the shared directory — must match it exactly: no corrupted entry,
    // no error cached as a success.
    let reference = {
        let mut out = Vec::new();
        sweep::run_streamed(
            &Pool::with_workers(1),
            &Ctx::without_memo(),
            &grid,
            None,
            &mut out,
            4,
        )
        .expect("reference sweep");
        out
    };
    assert_eq!(streamed, reference, "contended batch sweep bytes drifted");
    let warm = {
        let cache = DiskCache::from_config(&cfg).expect("cache enabled");
        let mut out = Vec::new();
        let summary = sweep::run_streamed(
            &Pool::with_workers(1),
            &Ctx::without_memo(),
            &grid,
            Some(&cache),
            &mut out,
            4,
        )
        .expect("warm sweep");
        assert!(summary.errors > 0, "the grid must cross the OOM wall");
        out
    };
    assert_eq!(warm, reference, "warm bytes drifted after concurrent access");
    let warm_csv = String::from_utf8(warm).unwrap();
    assert!(warm_csv.contains(",error,"), "OOM cells must stay typed errors when cached");

    // Phase 3: a fresh server over the now-warm directory answers with
    // the same bytes a cache-free server produces (cache state is
    // invisible in responses).
    let opts_warm = ServeOptions { socket: sock("shared_cache_warm"), ..ServeOptions::default() };
    let (warm_t, _) = serve_workload(&cfg, &opts_warm, std::slice::from_ref(&cell_queries));
    let opts_cold = ServeOptions { socket: sock("shared_cache_cold"), ..ServeOptions::default() };
    let (cold_t, _) = serve_workload(&test_config(2), &opts_cold, &[cell_queries]);
    assert_eq!(warm_t, cold_t, "a warm disk cache leaked into response bytes");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Request lines the parser is fuzzed from: the shapes this battery
/// sends, plus the query mix `scripts/ci.sh` replays against the daemon
/// (well-formed JSON, though some are bad requests by design).
fn seed_lines() -> Vec<String> {
    const CELL: &str = r#""kind":"cell","workload":"MLPf_Res50_MX","system":"C4140_(K)","gpus":1,"batch":16"#;
    let mut lines: Vec<String> = vec![
        r#"{"v":1,"kind":"ping"}"#.into(),
        r#"{"v":1,"kind":"shutdown"}"#.into(),
        r#"{"v":1,"kind":"cell","workload":"MLPf_SSD_Py","system":"DSS_8440","gpus":4}"#.into(),
        r#"{"v":1,"kind":"cell","workload":"MLPf_XFMR_Py","system":"DSS_8440","gpus":4,"cell_kind":"expected-ttt","mtbf_hours":24,"interval":10}"#.into(),
        r#"{"v":1,"id":"b10","kind":"cell","workload":"MLPf_NCF_Py","system":"DSS_8440","gpus":1,"budget":10}"#.into(),
        r#"{"v":1,"id":"wall","kind":"sweep","sweep":"batch_wall","budget":10}"#.into(),
        format!(r#"{{"v":1,"id":"sliced",{CELL},"partition":"1of4x2"}}"#),
        format!(r#"{{"v":1,"id":"r8",{CELL},"runs":8}}"#),
        r#"{"v":1,"id":"a\"b\\c\ndA😀","kind":"ping"}"#.into(),
        r#"{"v":1,"kind":"cell","workload":"resnet","system":"DSS_8440","gpus":4}"#.into(),
        r#"{"v":1,"kind":"ping","extra":true}"#.into(),
        r#"{"v":1,"kind":"sweep","sweep":"nope","budget":null}"#.into(),
    ];
    const CI: &str = include_str!("../../../scripts/ci.sh");
    let mix = CI
        .split_once("serve_mix.ndjson\" <<'EOF'\n")
        .and_then(|(_, rest)| rest.split_once("\nEOF\n"))
        .map(|(mix, _)| mix)
        .expect("ci.sh carries the serve query mix");
    lines.extend(mix.lines().map(str::to_string));
    assert!(lines.len() >= 21, "ci.sh's serve query mix went missing");
    lines
}

/// The parser's contract on hostile bytes: a typed `Err` with a message,
/// or `Ok` — never a panic. Bytes are decoded lossily, the way any
/// non-UTF-8 frame would be before it reached the parser.
fn parse_never_panics(bytes: &[u8]) -> Result<(), String> {
    let line = String::from_utf8_lossy(bytes);
    match protocol::parse_request(&line) {
        Err((id, message)) if id.is_empty() || message.is_empty() => {
            Err(format!("untyped error ({id:?}, {message:?}) for {line:?}"))
        }
        _ => Ok(()),
    }
}

#[test]
fn every_truncation_of_a_valid_request_is_a_typed_answer() {
    for line in seed_lines() {
        for cut in 0..=line.len() {
            parse_never_panics(&line.as_bytes()[..cut]).unwrap();
        }
    }
}

mod request_fuzz {
    use super::{parse_never_panics, seed_lines};
    use mlperf_testkit::prop::{elements, one_of, vec_of, Gen};

    /// Bytes that steer the parser into its escape, number, nesting and
    /// UTF-8 paths, mixed with arbitrary bytes.
    fn arb_byte() -> impl Gen<Value = u8> {
        const SPECIAL: &[u8] = b"\"\\u{}[],:-+.eE09tfn \t\n\x00\x1f\x7f\xc3\xa9\xed\xa0\xf0\x9f";
        one_of(vec![elements(SPECIAL).boxed(), (0u32..256).prop_map(|b| b as u8).boxed()])
    }

    /// Apply `(op, position, byte)` edits (0 = overwrite, 1 = insert,
    /// 2 = delete) to `line`. An odd `cut` then truncates the result at
    /// `cut / 2` modulo its length + 1; an even one keeps it whole.
    fn mutate(line: &str, edits: &[(u32, u64, u8)], cut: u64) -> Vec<u8> {
        let mut bytes = line.as_bytes().to_vec();
        for &(op, pos, byte) in edits {
            let at = (pos % (bytes.len() as u64 + 1)) as usize;
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        if cut % 2 == 1 {
            bytes.truncate((cut / 2 % (bytes.len() as u64 + 1)) as usize);
        }
        bytes
    }

    mlperf_testkit::properties! {
        /// Byte-mutated and truncated request lines always get a typed
        /// answer. Every case applies one edit plan to every seed line.
        #[test]
        fn mutated_requests_never_panic_the_parser(
            edits in vec_of((0u32..3, 0u64..4096, arb_byte()), 1usize..6),
            cut in 0u64..4096
        ) {
            for line in seed_lines() {
                parse_never_panics(&mutate(&line, &edits, cut))?;
            }
        }
    }
}
