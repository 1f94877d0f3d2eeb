//! The `serve_miss` workload: closed-loop clients, one connection and one
//! thread each, against an in-process `serve::Server` over its real Unix
//! socket, asking distinct cells of the million-cell grid; and the
//! per-layer numbers of the serve path, timed by calling its public
//! functions from outside on the same queries.

use crate::measure::{median, overhead_pct, percentile, Tracer};
use crate::{Layers, Measured, OVERHEAD_PAIRS, SETUPS};
use mlperf_models::PrecisionPolicy;
use mlperf_sim::Simulator;
use mlperf_suite::serve::protocol::{self, QueryV1};
use mlperf_suite::serve::{ServeOptions, ServeStats, Server};
use mlperf_suite::sweep::{self, CellError, CellKind, CellSpec, CellValue, SweepSpec};
use mlperf_suite::{Config, Ctx};
use mlperf_testkit::hash::{fnv1a64, Fnv1a64};
use mlperf_testkit::rng::Rng;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queries per client per measured session.
const SESSION_QUERIES: usize = 10_000;
/// Per mille of queries that stream a small registry sweep.
const SWEEP_PER_MILLE: u64 = 1;
/// Percent of queries that repeat one of the client's recent cells (the
/// coalescing hits of the mix).
const REPEAT_PCT: u64 = 10;
/// How many recent cells a client may repeat.
const RECENT: usize = 64;
/// Registry sweeps of at most this many cells are streamed by queries.
const SMALL_SWEEP: usize = 64;
/// Seed salt of the warm-up traffic, so measured queries stay misses.
const WARMUP_SALT: u64 = 0x5741_524D;

/// What one query asks, which names the answer it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ask {
    /// A cell of the million-cell grid, by index.
    Cell(usize),
    /// A small registry sweep, by position in [`Queries::sweeps`].
    Sweep(usize),
}

/// The query vocabulary: the million-cell grid and the small registry
/// sweeps.
pub struct Queries {
    grid: SweepSpec,
    sweeps: Vec<&'static str>,
}

impl Queries {
    pub fn new() -> Queries {
        let sweeps = sweep::registry()
            .iter()
            .filter(|s| s.len() <= SMALL_SWEEP)
            .map(|s| s.name)
            .collect();
        Queries {
            grid: sweep::million_cell(),
            sweeps,
        }
    }

    /// The request line of `ask`.
    pub fn line(&self, ask: Ask) -> String {
        match ask {
            Ask::Sweep(i) => format!(r#"{{"v":1,"kind":"sweep","sweep":"{}"}}"#, self.sweeps[i]),
            Ask::Cell(i) => {
                let c = self.grid.cell_at(i);
                let field = |v: Option<String>| v.expect("million-cell cells set every field");
                format!(
                    r#"{{"v":1,"kind":"cell","workload":"{}","system":"{}","gpus":{},"batch":{},"precision":"{}"}}"#,
                    field(c.workload.map(|w| w.abbreviation().to_string())),
                    field(c.system.map(|s| s.token())),
                    field(c.gpus.map(|g| g.to_string())),
                    field(c.batch.map(|b| b.to_string())),
                    field(c.precision.map(|p| match p {
                        PrecisionPolicy::Fp32 => "fp32".to_string(),
                        PrecisionPolicy::Amp => "amp".to_string(),
                    })),
                )
            }
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One client's seeded query source: distinct grid cells, a tenth of
/// them repeated, and a few small sweeps. A plan is a pure function of
/// `(seed, client, clients)`.
pub struct Plan {
    rng: Rng,
    fresh: u64,
    client: u64,
    clients: u64,
    stride: u64,
    offset: u64,
    cells: u64,
    recent: VecDeque<usize>,
    sweeps: usize,
}

impl Plan {
    pub fn new(queries: &Queries, seed: u64, client: u64, clients: u64) -> Plan {
        let cells = queries.grid.len() as u64;
        // Fresh cells walk the grid as `stride * j + offset (mod cells)`
        // with `j` unique per client; a stride coprime with the grid size
        // makes that a permutation, so fresh cells never repeat within
        // one pass of the grid.
        let mut shared = Rng::stream(seed, u64::MAX - 1);
        let mut stride = shared.gen_range(1..cells);
        while gcd(stride, cells) != 1 {
            stride = stride % (cells - 1) + 1;
        }
        let offset = shared.gen_range(0..cells);
        Plan {
            rng: Rng::stream(seed, client),
            fresh: 0,
            client,
            clients,
            stride,
            offset,
            cells,
            recent: VecDeque::with_capacity(RECENT),
            sweeps: queries.sweeps.len(),
        }
    }

    pub fn next_ask(&mut self) -> Ask {
        let r = self.rng.gen_range(0u64..1000);
        if r < SWEEP_PER_MILLE && self.sweeps > 0 {
            return Ask::Sweep(self.rng.gen_range(0..self.sweeps as u64) as usize);
        }
        if r < SWEEP_PER_MILLE + REPEAT_PCT * 10 && !self.recent.is_empty() {
            let i = self.rng.gen_range(0..self.recent.len() as u64) as usize;
            return Ask::Cell(self.recent[i]);
        }
        let j = self.fresh * self.clients + self.client;
        self.fresh += 1;
        let cell = ((u128::from(self.stride) * u128::from(j) + u128::from(self.offset))
            % u128::from(self.cells)) as usize;
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(cell);
        Ask::Cell(cell)
    }
}

/// One answered query.
struct Record {
    ask: Ask,
    hash: u64,
    nanos: u64,
}

/// A client's session: its answers, and the I/O error that ended it early.
struct Session {
    records: Vec<Record>,
    error: Option<io::Error>,
}

/// Send each ask in turn and read its answer to the terminal frame.
/// The clock stops at the terminal frame; hashing the answer is not timed.
fn client(
    socket: &Path,
    queries: &Queries,
    asks: impl Iterator<Item = Ask>,
    start: &Barrier,
) -> Session {
    let mut records = Vec::new();
    let connected = UnixStream::connect(socket).and_then(|s| Ok((s.try_clone()?, s)));
    start.wait();
    let (read_half, mut writer) = match connected {
        Ok(halves) => halves,
        Err(e) => {
            return Session {
                records,
                error: Some(e),
            }
        }
    };
    let mut reader = BufReader::new(read_half);
    let mut frame = String::new();
    for ask in asks {
        let mut line = queries.line(ask);
        line.push('\n');
        let mut hash = Fnv1a64::new();
        let t = Instant::now();
        let answered = (|| -> io::Result<u64> {
            writer.write_all(line.as_bytes())?;
            loop {
                frame.clear();
                if reader.read_line(&mut frame)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let terminal = matches!(
                    protocol::response_status(&frame).as_deref(),
                    Some("ok" | "error" | "busy" | "done")
                );
                let nanos = t.elapsed().as_nanos() as u64;
                hash.update(frame.as_bytes());
                if terminal {
                    return Ok(nanos);
                }
            }
        })();
        match answered {
            Ok(nanos) => records.push(Record {
                ask,
                hash: hash.finish(),
                nanos,
            }),
            Err(e) => {
                return Session {
                    records,
                    error: Some(e),
                }
            }
        }
    }
    Session {
        records,
        error: None,
    }
}

/// A server answering on its own thread.
struct Running {
    server: Arc<Server>,
    thread: JoinHandle<io::Result<()>>,
}

static SOCKETS: AtomicU64 = AtomicU64::new(0);

impl Running {
    /// A fresh server (disk cache off) on a new socket under `work`.
    fn start(work: &Path, workers: usize) -> Result<Running, String> {
        let cfg = Config {
            cache_enabled: false,
            jobs: workers,
            ..Config::default()
        };
        let socket = work.join(format!("s{}.sock", SOCKETS.fetch_add(1, Ordering::Relaxed)));
        let opts = ServeOptions {
            socket: PathBuf::from(&socket),
            ..ServeOptions::default()
        };
        let server = Arc::new(
            Server::bind(&opts, &cfg).map_err(|e| format!("binding {}: {e}", socket.display()))?,
        );
        let daemon = Arc::clone(&server);
        let thread = std::thread::spawn(move || daemon.run());
        Ok(Running { server, thread })
    }

    fn socket(&self) -> &Path {
        self.server.socket()
    }

    /// Shut the server down (every client connection must be closed) and
    /// return its counters, without the shutdown query itself.
    fn stop(self) -> Result<ServeStats, String> {
        let ack = (|| -> io::Result<String> {
            let mut stream = UnixStream::connect(self.socket())?;
            stream.write_all(b"{\"v\":1,\"kind\":\"shutdown\"}\n")?;
            let mut ack = String::new();
            BufReader::new(stream).read_line(&mut ack)?;
            Ok(ack)
        })()
        .map_err(|e| format!("shutting the server down: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        if protocol::response_status(&ack).as_deref() != Some("ok") {
            return Err(format!("unexpected shutdown answer {ack:?}"));
        }
        let mut stats = self.server.stats();
        stats.queries -= 1;
        stats.ok_responses -= 1;
        Ok(stats)
    }
}

/// Run one closed-loop session: every plan on its own connection and
/// thread, started together; returns the sessions and the wall time.
fn session(
    socket: &Path,
    queries: &Queries,
    plans: Vec<Plan>,
    per_client: usize,
) -> (Vec<Session>, Duration) {
    let start = Barrier::new(plans.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .into_iter()
            .map(|mut plan| {
                let start = &start;
                scope.spawn(move || {
                    let asks = std::iter::from_fn(|| Some(plan.next_ask())).take(per_client);
                    client(socket, queries, asks, start)
                })
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let sessions = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (sessions, t.elapsed())
    })
}

/// Answers to check every response against: a hash per small sweep,
/// taken from a fresh server, and per grid cell, priced in process with
/// `price_cell` and framed with the protocol's frame builders.
struct Oracle {
    sweeps: Vec<u64>,
    cells: HashMap<usize, u64>,
}

impl Oracle {
    /// Ask a fresh server each small sweep once, and
    /// price every grid cell among `asks` on `workers` threads.
    fn build(
        work: &Path,
        workers: usize,
        queries: &Queries,
        asks: &[Ask],
    ) -> Result<Oracle, String> {
        let server = Running::start(work, workers)?;
        let start = Barrier::new(1);
        let s = client(
            server.socket(),
            queries,
            (0..queries.sweeps.len()).map(Ask::Sweep),
            &start,
        );
        server.stop()?;
        if let Some(e) = s.error {
            return Err(format!("building expected answers: {e}"));
        }
        let mut cells: Vec<usize> = asks
            .iter()
            .filter_map(|a| match a {
                Ask::Cell(i) => Some(*i),
                _ => None,
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let chunk = cells.len().div_ceil(workers.max(1)).max(1);
        let cells = std::thread::scope(|scope| {
            let handles: Vec<_> = cells
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        let ctx = Ctx::from_config(&Config::default());
                        part.iter()
                            .map(|&i| (i, expected_cell_hash(&ctx, queries, i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle threads do not panic"))
                .collect()
        });
        Ok(Oracle {
            sweeps: s.records.iter().map(|r| r.hash).collect(),
            cells,
        })
    }

    /// How many of `records` got a wrong answer; a cell the oracle was
    /// not built for is priced here.
    fn wrong(&self, queries: &Queries, records: &[Record]) -> u64 {
        let ctx = Ctx::from_config(&Config::default());
        let mut extra: HashMap<usize, u64> = HashMap::new();
        records
            .iter()
            .filter(|r| {
                let expected = match r.ask {
                    Ask::Sweep(i) => self.sweeps[i],
                    Ask::Cell(i) => match self.cells.get(&i) {
                        Some(&h) => h,
                        None => *extra
                            .entry(i)
                            .or_insert_with(|| expected_cell_hash(&ctx, queries, i)),
                    },
                };
                r.hash != expected
            })
            .count() as u64
    }
}

/// Hash of the frame a server must answer a grid-cell query with.
fn expected_cell_hash(ctx: &Ctx, queries: &Queries, cell: usize) -> u64 {
    let line = queries.line(Ask::Cell(cell));
    let Ok(QueryV1::Cell(spec)) = protocol::parse_request(&line).map(|r| r.query) else {
        return 0;
    };
    fnv1a64(frame(&spec, &sweep::price_cell(ctx, &spec)).as_bytes())
}

fn frame(spec: &CellSpec, outcome: &Result<CellValue, CellError>) -> String {
    match outcome {
        Ok(v) => protocol::cell_ok_frame("-", spec.kind, v.values()),
        Err(e) => protocol::error_frame("-", &e.kind, &e.message),
    }
}

/// Fold finished sessions into the measurement: latencies of cell
/// queries (sweeps count as work but not as latency samples),
/// and every wrong answer or I/O error as a failure.
fn account(
    m: &mut Measured,
    oracle: &Oracle,
    queries: &Queries,
    sessions: &[Session],
    wall: Duration,
) {
    m.busy += wall;
    for s in sessions {
        let n = s.records.len() as u64;
        let errors = u64::from(s.error.is_some());
        m.ops += n;
        m.attempted += n + errors;
        m.failed += oracle.wrong(queries, &s.records) + errors;
        m.latencies_ms.extend(
            s.records
                .iter()
                .filter(|r| !matches!(r.ask, Ask::Sweep(_)))
                .map(|r| (r.nanos as f64 / 1e6) as f32),
        );
    }
}

fn plans(queries: &Queries, seed: u64, clients: usize) -> Vec<Plan> {
    (0..clients as u64)
        .map(|c| Plan::new(queries, seed, c, clients as u64))
        .collect()
}

/// Every ask of `per_client` queries from each client's plan.
fn asks(queries: &Queries, seed: u64, clients: usize, per_client: usize) -> Vec<Ask> {
    plans(queries, seed, clients)
        .into_iter()
        .flat_map(|mut p| (0..per_client).map(move |_| p.next_ask()))
        .collect()
}

/// Closed-loop traffic from one connection per core, in sessions of the
/// same seeded queries, until `seconds` of sessions are measured. Each
/// session gets a fresh server, so its cell queries are coalescing misses
/// apart from the mix's own repeats.
pub fn measure(work: &Path, seed: u64, cores: usize, seconds: f64) -> Result<Measured, String> {
    let (clients, workers) = (cores, cores);
    let queries = Queries::new();
    let oracle = Oracle::build(
        work,
        workers,
        &queries,
        &asks(&queries, seed, clients, SESSION_QUERIES),
    )?;
    let mut m = Measured::default();
    for _ in 0..SETUPS {
        // Warm-up traffic with another seed, on a server of its own.
        let t = Instant::now();
        let server = Running::start(work, workers)?;
        let (warmup, _) = session(
            server.socket(),
            &queries,
            plans(&queries, seed ^ WARMUP_SALT, clients),
            2_000,
        );
        server.stop()?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        let mut check = Measured::default();
        account(&mut check, &oracle, &queries, &warmup, Duration::ZERO);
        if check.failed > 0 {
            return Err(format!("{} warm-up answers were wrong", check.failed));
        }
    }
    let budget = Duration::from_secs_f64(seconds);
    while m.busy < budget {
        let server = Running::start(work, workers)?;
        let (sessions, wall) = session(
            server.socket(),
            &queries,
            plans(&queries, seed, clients),
            SESSION_QUERIES,
        );
        server.stop()?;
        account(&mut m, &oracle, &queries, &sessions, wall);
    }
    Ok(m)
}

/// Per-layer numbers of the serve path: a fresh server
/// answering `per_client` queries per client, plus each small sweep
/// three times; then the same queries through the layers' public calls.
pub fn trace(
    work: &Path,
    seed: u64,
    cores: usize,
    per_client: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let (clients, workers) = (cores, cores);
    let queries = Queries::new();
    let oracle = Oracle::build(work, workers, &queries, &[])?;
    let server = Running::start(work, workers)?;
    let (sessions, _) = session(
        server.socket(),
        &queries,
        plans(&queries, seed, clients),
        per_client,
    );
    let sweep_asks: Vec<Ask> = (0..3)
        .flat_map(|_| (0..queries.sweeps.len()).map(Ask::Sweep))
        .collect();
    let start = Barrier::new(1);
    let sweeps = client(server.socket(), &queries, sweep_asks.into_iter(), &start);
    let stats = server.stop()?;
    let mut m = Measured::default();
    account(&mut m, &oracle, &queries, &sessions, Duration::ZERO);
    account(
        &mut m,
        &oracle,
        &queries,
        std::slice::from_ref(&sweeps),
        Duration::ZERO,
    );
    layers.check_many(m.attempted, m.failed);

    // The same query lines, replayed from the plans, through the layers.
    let lines: Vec<String> = asks(&queries, seed, clients, per_client)
        .into_iter()
        .filter(|a| !matches!(a, Ask::Sweep(_)))
        .map(|a| queries.line(a))
        .collect();
    let traced = in_process(&lines, Tracer { on: true });
    let n = lines.len() as f64;
    layers.push("serve.parse.ns_per_query", traced.parse as f64 / n, "ns");
    layers.push("serve.key.ns_per_query", traced.key as f64 / n, "ns");
    layers.push(
        "serve.preflight.ns_per_query",
        traced.preflight as f64 / n,
        "ns",
    );
    layers.push(
        "serve.price.ns_per_miss",
        traced.price as f64 / traced.misses.max(1) as f64,
        "ns",
    );
    layers.push("serve.frame.ns_per_query", traced.frame as f64 / n, "ns");
    let mut cell_us: Vec<f64> = m
        .latencies_ms
        .iter()
        .map(|&ms| f64::from(ms) * 1e3)
        .collect();
    cell_us.sort_by(f64::total_cmp);
    let in_process_us = (traced.parse + traced.key + traced.preflight + traced.price + traced.frame)
        as f64
        / n
        / 1e3;
    layers.push(
        "serve.transport.us_per_query",
        percentile(&cell_us, 50.0) - in_process_us,
        "us",
    );
    let sweep_ms: Vec<f64> = sweeps
        .records
        .iter()
        .map(|r| r.nanos as f64 / 1e6)
        .collect();
    layers.push("serve.sweep.ms_per_query", median(&sweep_ms), "ms");
    let coalesced = stats.coalesce_hits + stats.coalesce_misses;
    layers.push("serve.coalesce.hits", stats.coalesce_hits as f64, "count");
    layers.push(
        "serve.coalesce.misses",
        stats.coalesce_misses as f64,
        "count",
    );
    layers.push(
        "serve.coalesce.hit_ratio",
        stats.coalesce_hits as f64 / coalesced.max(1) as f64,
        "ratio",
    );
    layers.push("serve.responses.ok", stats.ok_responses as f64, "count");
    layers.push(
        "serve.responses.error",
        stats.error_responses as f64,
        "count",
    );
    layers.push("serve.responses.busy", stats.busy_responses as f64, "count");
    layers.overhead("serve", || {
        Ok(overhead_pct(OVERHEAD_PAIRS, |tracer| {
            in_process(&lines, tracer);
        }))
    })?;
    Ok(())
}

/// Span totals of the serve layers over a list of query lines, in
/// nanoseconds.
#[derive(Default)]
struct InProcess {
    parse: u64,
    key: u64,
    preflight: u64,
    price: u64,
    misses: u64,
    frame: u64,
}

/// Answer each line as the server does, through the public functions of
/// each layer: parse, coalescing key, the engine's preflight for training
/// cells, pricing of first-seen cells, and framing.
fn in_process(lines: &[String], tracer: Tracer) -> InProcess {
    let ctx = Ctx::from_config(&Config::default());
    let mut out = InProcess::default();
    let mut seen: HashMap<u64, Result<CellValue, CellError>> = HashMap::new();
    let mut bytes = 0usize;
    for line in lines {
        let Ok(req) = tracer.span(&mut out.parse, || protocol::parse_request(line)) else {
            continue;
        };
        let key = tracer.span(&mut out.key, || fnv1a64(&req.canonical_bytes()));
        let QueryV1::Cell(spec) = &req.query else {
            continue;
        };
        let rejected = tracer
            .span(&mut out.preflight, || preflight(&ctx, spec))
            .err();
        let outcome = match rejected {
            Some(e) => Err(e),
            None => match seen.get(&key) {
                Some(outcome) => outcome.clone(),
                None => {
                    out.misses += 1;
                    let outcome = tracer.span(&mut out.price, || sweep::price_cell(&ctx, spec));
                    seen.insert(key, outcome.clone());
                    outcome
                }
            },
        };
        bytes += tracer.span(&mut out.frame, || frame(spec, &outcome)).len();
    }
    std::hint::black_box(bytes);
    out
}

/// The engine's admission check for a training cell's job, materialized
/// from the interned template the way pricing does it.
fn preflight(ctx: &Ctx, spec: &CellSpec) -> Result<(), CellError> {
    let (CellKind::Training, Some(workload), Some(system), Some(gpus)) =
        (spec.kind, spec.workload, spec.system, spec.gpus)
    else {
        return Ok(());
    };
    let mut job = (*ctx.base_job(workload, false)).clone();
    if let Some(p) = spec.precision {
        job = job.with_precision(p);
    }
    if let Some(b) = spec.batch {
        job = job.with_per_gpu_batch(b);
    }
    let system = ctx.system_spec(system);
    let ordinals: Vec<u32> = (0..gpus).collect();
    Simulator::new(&system)
        .preflight(&job, &ordinals)
        .map(|_| ())
        .map_err(CellError::from_sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_replay_exactly_and_differ_across_seeds() {
        let q = Queries::new();
        let a = asks(&q, 7, 2, 20_000);
        assert_eq!(a, asks(&q, 7, 2, 20_000), "plans replay");
        assert_ne!(a, asks(&q, 8, 2, 20_000), "plans differ across seeds");
        let cells: Vec<usize> = a
            .iter()
            .filter_map(|x| match x {
                Ask::Cell(i) => Some(*i),
                Ask::Sweep(_) => None,
            })
            .collect();
        let mut distinct = cells.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let repeated = (cells.len() - distinct.len()) as f64 / cells.len() as f64;
        assert!((0.08..0.12).contains(&repeated), "repeat share {repeated}");
        assert!(a.iter().any(|x| matches!(x, Ask::Sweep(_))));
    }

    #[test]
    fn coalesce_counts_repeat_exactly() {
        let work = std::env::temp_dir().join(format!("perfbench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let q = Queries::new();
        let oracle = Oracle::build(&work, 2, &q, &[]).unwrap();
        let counts: Vec<(u64, u64)> = (0..2)
            .map(|_| {
                let server = Running::start(&work, 2).unwrap();
                let (sessions, _) = session(server.socket(), &q, plans(&q, 11, 2), 1_500);
                let stats = server.stop().unwrap();
                let mut m = Measured::default();
                account(&mut m, &oracle, &q, &sessions, Duration::ZERO);
                assert_eq!((m.attempted, m.failed), (3_000, 0), "every answer right");
                (stats.coalesce_hits, stats.coalesce_misses)
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0].0 > 0 && counts[0].1 > counts[0].0);
        let _ = std::fs::remove_dir_all(&work);
    }
}
