//! The `report` workload (full `repro --report` builds through
//! `report_gen::build_cached`) and the traced recomposition of the same
//! build for the per-layer numbers.

use crate::measure::{median, overhead_pct, Tracer};
use crate::{Layers, Measured, OVERHEAD_PAIRS, SETUPS};
use mlperf_suite::report_gen;
use mlperf_suite::runner::{self, Execution, Experiment, Pool, ResilienceConfig};
use mlperf_suite::{Config, Ctx, DiskCache};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The committed report: every build must reproduce it byte for byte.
pub const EXPECTED: &str = include_str!("../../REPORT.md");

/// What every build shares: the resolved config (no environment reads,
/// so the run does not depend on stray `MLPERF_*` variables), a pool of
/// one worker per core, and the resilience policy `repro --report` uses.
pub struct Env {
    cfg: Config,
    pool: Pool,
    resilience: ResilienceConfig,
}

impl Env {
    pub fn new(workers: usize) -> Env {
        let cfg = Config::default();
        let resilience = ResilienceConfig::from_config(&cfg);
        Env {
            cfg,
            pool: Pool::with_workers(workers),
            resilience,
        }
    }

    /// One build with a fresh context through the cache at `dir`, as a
    /// `repro --report` process does it, or with no cache, as `repro
    /// --report --no-cache` does.
    fn build(&self, dir: Option<&Path>) -> Result<(String, Execution), String> {
        let cache = dir
            .map(|d| DiskCache::open(d).map_err(|e| format!("opening cache {}: {e}", d.display())))
            .transpose()?;
        let ctx = Ctx::from_config(&self.cfg);
        Ok(report_gen::build_cached(
            &self.pool,
            &ctx,
            &self.resilience,
            cache.as_ref(),
        ))
    }
}

/// Whether a build's output is the committed report from a healthy run.
fn correct(md: &str, execution: &Execution) -> bool {
    md == EXPECTED && !execution.degraded()
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Whether a build from a filled cache ran no experiment and reproduced
/// the committed report.
fn warm_correct(md: &str, execution: &Execution) -> bool {
    execution.stats.per_experiment.is_empty() && correct(md, execution)
}

/// Cold builds with a fresh context and no disk cache, as `repro --report
/// --no-cache` does, each checked against the committed report. The disk
/// cache is left out of the timed builds because its file churn made
/// their time drift between runs far more than the computation does; the
/// cache path runs in set-up instead, where each repetition builds into
/// an empty cache and then again from the filled cache, and both builds
/// must reproduce the committed report.
pub fn measure(work: &Path, workers: usize, seconds: f64) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut env = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let e = Env::new(workers);
        let dir = work.join(format!("setup{i}"));
        let (md, execution) = e.build(Some(&dir))?;
        let (warm_md, warm_execution) = e.build(Some(&dir))?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        remove(&dir);
        if !correct(&md, &execution) || !warm_correct(&warm_md, &warm_execution) {
            return Err("a set-up report differs from REPORT.md".into());
        }
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let deadline = Instant::now();
    while deadline.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (md, execution) = env.build(None)?;
        m.record(t.elapsed(), 1, correct(&md, &execution));
    }
    Ok(m)
}

/// The experiments in an order that runs every dependency first
/// (declaration order among the ready ones).
fn dag_order(experiments: &[&'static dyn Experiment]) -> Vec<usize> {
    let mut done = vec![false; experiments.len()];
    let mut order = Vec::with_capacity(experiments.len());
    while order.len() < experiments.len() {
        let ready = (0..experiments.len()).find(|&i| {
            !done[i]
                && experiments[i].deps().iter().all(|d| {
                    experiments
                        .iter()
                        .position(|e| e.id() == *d)
                        .is_none_or(|j| done[j])
                })
        });
        let i = ready.expect("the experiment DAG is acyclic");
        done[i] = true;
        order.push(i);
    }
    order
}

/// The cache entries a cold build stores: every section, then the
/// manifest.
fn entry_specs(experiments: &[&'static dyn Experiment]) -> Vec<Vec<u8>> {
    let mut specs: Vec<Vec<u8>> = experiments
        .iter()
        .map(|e| report_gen::section_spec(*e))
        .collect();
    specs.push(report_gen::manifest_spec(experiments));
    specs
}

/// Span totals of one recomposed cold build, in nanoseconds.
#[derive(Default)]
struct Pass {
    run: Vec<u64>,
    render: u64,
    store: u64,
    stores: u64,
}

/// Recompose one cold build from the layers' public calls: every
/// `Experiment::run` in DAG order on one shared context, then `render`,
/// then the cache stores of the sections and manifest the untraced build
/// wrote to `filled`. Checks each piece against the untraced build.
fn recompose(
    env: &Env,
    experiments: &[&'static dyn Experiment],
    reference: &Execution,
    filled: &DiskCache,
    dir: &Path,
    tracer: Tracer,
) -> Result<Pass, String> {
    let mut pass = Pass {
        run: vec![0; experiments.len()],
        ..Pass::default()
    };
    let ctx = Ctx::from_config(&env.cfg);
    let mut rendered = vec![String::new(); experiments.len()];
    for i in dag_order(experiments) {
        let e = experiments[i];
        let artifact = tracer
            .span(&mut pass.run[i], || e.run(&ctx))
            .map_err(|err| format!("experiment {} failed: {err}", e.id()))?;
        rendered[i] = tracer.span(&mut pass.render, || e.render(&artifact));
    }
    for (i, e) in experiments.iter().enumerate() {
        if rendered[i] != reference.reports[i].rendered {
            return Err(format!(
                "recomposed section {} differs from the build's",
                e.id()
            ));
        }
    }
    let cache =
        DiskCache::open(dir).map_err(|e| format!("opening cache {}: {e}", dir.display()))?;
    for spec in &entry_specs(experiments) {
        let bytes = filled
            .load(spec)
            .ok_or("the cold build left an entry out")?;
        tracer.span(&mut pass.store, || cache.store(spec, &bytes));
    }
    pass.stores = cache.stats().stores;
    Ok(pass)
}

/// Per-layer numbers of the report pipeline over `iterations` cold builds.
pub fn trace(
    work: &Path,
    workers: usize,
    iterations: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let env = Env::new(workers);
    let experiments = runner::all_experiments();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); experiments.len()];
    let (mut render_ms, mut dag_ms, mut store_us, mut load_us) = (vec![], vec![], vec![], vec![]);
    let mut warm_ms = vec![];
    let (mut stores, mut hits, mut corrupt, mut memo) = (0, 0, 0, Default::default());
    for i in 0..iterations {
        let dirs: [PathBuf; 3] =
            ["build", "traced", "plain"].map(|d| work.join(format!("trace-{d}{i}")));
        let t = Instant::now();
        let (md, execution) = env.build(Some(&dirs[0]))?;
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        layers.check(correct(&md, &execution));
        memo = execution.stats.cache;

        let filled = DiskCache::open(&dirs[0]).map_err(|e| e.to_string())?;
        let pass = recompose(
            &env,
            &experiments,
            &execution,
            &filled,
            &dirs[1],
            Tracer { on: true },
        )?;
        if i == 0 {
            let (mut k, mut failure) = (0, None);
            layers.overhead("report", || {
                let pct = overhead_pct(OVERHEAD_PAIRS, |tracer| {
                    k += 1;
                    let dir = dirs[2].join(k.to_string());
                    if let Err(e) = recompose(&env, &experiments, &execution, &filled, &dir, tracer)
                    {
                        failure = Some(e);
                    }
                });
                failure.map_or(Ok(pct), Err)
            })?;
        }

        let t = Instant::now();
        let (warm_md, warm_execution) = env.build(Some(&dirs[0]))?;
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        layers.check(warm_correct(&warm_md, &warm_execution));

        // Warm read-back: what a second process loads from the filled cache.
        let reopened = DiskCache::open(&dirs[0]).map_err(|e| e.to_string())?;
        let mut load = 0u64;
        for (k, spec) in entry_specs(&experiments).iter().enumerate() {
            let bytes = Tracer { on: true }.span(&mut load, || reopened.load(spec));
            let expected = execution.reports.get(k).map(|r| r.rendered.as_bytes());
            layers.check(bytes.is_some() && (expected.is_none() || bytes.as_deref() == expected));
        }
        let disk = reopened.stats();
        (stores, hits, corrupt) = (pass.stores, disk.hits, disk.corrupt);

        for (k, ns) in pass.run.iter().enumerate() {
            run_ms[k].push(*ns as f64 / 1e6);
        }
        render_ms.push(pass.render as f64 / 1e6);
        store_us.push(pass.store as f64 / 1e3);
        load_us.push(load as f64 / 1e3);
        let spans_ms = (pass.run.iter().sum::<u64>() + pass.render + pass.store) as f64 / 1e6;
        dag_ms.push(build_ms - spans_ms);
        dirs.iter().for_each(|d| remove(d));
    }
    for (e, ms) in experiments.iter().zip(&run_ms) {
        layers.push(format!("runner.exp.{}.ms", e.id()), median(ms), "ms");
    }
    layers.push("report_gen.render.ms", median(&render_ms), "ms");
    layers.push("runner.dag.overhead.ms", median(&dag_ms), "ms");
    layers.push("report_gen.warm.ms", median(&warm_ms), "ms");
    layers.push("runner.memo.hits", memo.hits() as f64, "count");
    layers.push(
        "runner.memo.misses",
        (memo.requests() - memo.hits()) as f64,
        "count",
    );
    layers.push("runner.memo.hit_ratio", memo.hit_rate(), "ratio");
    layers.push("sweep.cache.store.us", median(&store_us), "us");
    layers.push("sweep.cache.stores", stores as f64, "count");
    layers.push("sweep.cache.load.us", median(&load_us), "us");
    layers.push("sweep.cache.hits", hits as f64, "count");
    layers.push("sweep.cache.corrupt", corrupt as f64, "count");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_order_puts_dependencies_first() {
        let experiments = runner::all_experiments();
        let order = dag_order(&experiments);
        assert_eq!(order.len(), experiments.len());
        for (pos, &i) in order.iter().enumerate() {
            for dep in experiments[i].deps() {
                if let Some(j) = experiments.iter().position(|e| e.id() == *dep) {
                    assert!(
                        order[..pos].contains(&j),
                        "{} before its dependency {dep}",
                        experiments[i].id()
                    );
                }
            }
        }
    }

    #[test]
    fn memo_counts_repeat_exactly() {
        let dir = std::env::temp_dir().join(format!("perfbench-memo-{}", std::process::id()));
        let env = Env::new(2);
        let mut counts = Vec::new();
        for i in 0..2 {
            let d = dir.join(i.to_string());
            let (md, execution) = env.build(Some(&d)).unwrap();
            assert!(correct(&md, &execution));
            counts.push(execution.stats.cache);
        }
        remove(&dir);
        assert_eq!(counts[0], counts[1]);
        assert_eq!((counts[0].hits(), counts[0].requests()), (174, 339));
    }
}
