//! Scoped work-stealing thread pool (std only).
//!
//! The executor wants parallelism but the workspace has a zero-dependency
//! policy (see "Offline build & determinism policy" in DESIGN.md), so this
//! is a small work-stealing scheduler built directly on
//! [`std::thread::scope`]: each worker owns a LIFO deque, a task's
//! newly-ready dependents land on the completing worker's own deque
//! (locality), and idle workers steal FIFO from peers or drain the shared
//! injector. The worker count comes from [`MLPERF_JOBS`](JOBS_ENV) or
//! [`std::thread::available_parallelism`]; nothing produced *through* the
//! pool may depend on it — results come back in submission order and the
//! experiment layer is memoized, so report bytes are identical for any
//! worker count (the determinism policy in DESIGN.md "Execution model").

use super::error::panic_message;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Duration;

/// Environment variable overriding the worker count (`MLPERF_JOBS=1`
/// forces fully serial execution; unset falls back to
/// `available_parallelism`).
pub const JOBS_ENV: &str = "MLPERF_JOBS";

/// How long an idle worker parks before re-scanning the deques. Wake-ups
/// are sent eagerly on every completion, so this is only a lost-wakeup
/// backstop, not the scheduling cadence.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// Lock that survives a poisoned mutex: a panicking task must not wedge
/// the pool (failures are recorded per slot and the DAG keeps draining
/// before `run_dag` re-raises), so every internal lock recovers the guard
/// instead of propagating the poison.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why one DAG task produced no value (the scheduler's per-slot failure
/// record).
#[derive(Debug, Clone, PartialEq, Eq)]
enum TaskFailure {
    /// The task's closure panicked; `message` is the stringified payload.
    Panicked {
        /// The panic payload, as text.
        message: String,
    },
    /// An upstream task failed, so this one never ran.
    Dependency {
        /// Submission index of the failed dependency.
        dep: usize,
        /// That dependency's failure, as text.
        message: String,
    },
}

impl TaskFailure {
    fn message(&self) -> &str {
        match self {
            TaskFailure::Panicked { message } | TaskFailure::Dependency { message, .. } => message,
        }
    }
}

/// A fixed-width scoped thread pool executing dependency DAGs of tasks.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` threads (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The pool a resolved [`Config`](crate::config::Config) dictates:
    /// [`JOBS_ENV`] workers when set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    pub fn from_config(config: &crate::config::Config) -> Pool {
        Pool::with_workers(config.jobs)
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute a task DAG and return every task's result in submission
    /// order, regardless of the execution interleaving.
    ///
    /// `deps[i]` lists the task indices task `i` waits for. Tasks whose
    /// dependencies are satisfied run concurrently.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic on the calling thread — but only
    /// after the rest of the DAG has drained: every task independent of
    /// the panicking one still runs to completion (transitive dependents
    /// are skipped). Also panics on malformed input: `deps` and `tasks`
    /// lengths differing, an out-of-range or self dependency, or a
    /// dependency cycle.
    pub fn run_dag<T, F>(&self, tasks: Vec<F>, deps: &[Vec<usize>]) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let (results, payload) = self.run_dag_inner(tasks, deps);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                // Unreachable: a Dependency failure implies an upstream
                // panic, whose payload was just re-raised above.
                Err(f) => unreachable!("task failed without a panic payload: {}", f.message()),
            })
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn run_dag_inner<T, F>(
        &self,
        tasks: Vec<F>,
        deps: &[Vec<usize>],
    ) -> (
        Vec<Result<T, TaskFailure>>,
        Option<Box<dyn std::any::Any + Send>>,
    )
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        assert_eq!(n, deps.len(), "one dependency list per task");
        if n == 0 {
            return (Vec::new(), None);
        }
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut pending: Vec<AtomicUsize> = Vec::with_capacity(n);
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                assert!(d < n, "task {i} depends on out-of-range task {d}");
                assert_ne!(d, i, "task {i} depends on itself");
                dependents[d].push(i);
            }
            pending.push(AtomicUsize::new(ds.len()));
        }
        // Kahn pass up front: a cycle would leave its tasks permanently
        // unready and the workers parked forever, so reject it before
        // spawning anything.
        {
            let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
            let mut ready: VecDeque<usize> =
                (0..n).filter(|&i| indegree[i] == 0).collect();
            let mut ordered = 0usize;
            while let Some(i) = ready.pop_front() {
                ordered += 1;
                for &dep in &dependents[i] {
                    indegree[dep] -= 1;
                    if indegree[dep] == 0 {
                        ready.push_back(dep);
                    }
                }
            }
            assert_eq!(ordered, n, "task DAG contains a dependency cycle");
        }
        let workers = self.workers.min(n);
        let state = DagState {
            tasks: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            pending,
            deps: deps.to_vec(),
            dependents,
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            injector: Mutex::new((0..n).filter(|&i| deps[i].is_empty()).collect()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            parked: Mutex::new(Vec::new()),
        };
        std::thread::scope(|scope| {
            let st = &state;
            for w in 0..workers {
                scope.spawn(move || st.work(w));
            }
        });
        assert_eq!(
            state.remaining.load(Ordering::SeqCst),
            0,
            "task DAG contains a dependency cycle"
        );
        let payload = lock(&state.panic).take();
        let results = state
            .results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every task completed or was marked failed")
            })
            .collect();
        (results, payload)
    }

    /// Run independent tasks (a DAG with no edges) and return their
    /// results in submission order.
    ///
    /// # Panics
    ///
    /// As [`Pool::run_dag`].
    pub fn run_all<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let deps = vec![Vec::new(); tasks.len()];
        self.run_dag(tasks, &deps)
    }
}

/// Shared scheduler state for one `run_dag` call.
struct DagState<F, T> {
    /// Each task, taken exactly once by the worker that executes it.
    tasks: Vec<Mutex<Option<F>>>,
    /// Result slots, indexed like `tasks`. A slot is filled exactly once:
    /// with the task's value, its panic record, or the upstream failure
    /// that kept it from running — so a failure never abandons the DAG.
    results: Vec<Mutex<Option<Result<T, TaskFailure>>>>,
    /// Unmet-dependency counts; a task is ready when its count hits 0.
    pending: Vec<AtomicUsize>,
    /// Forward edges, consulted before running a ready task so failures
    /// cascade to dependents instead of abandoning them.
    deps: Vec<Vec<usize>>,
    /// Reverse edges: who becomes ready when task `i` completes.
    dependents: Vec<Vec<usize>>,
    /// Tasks not yet completed (cycle detection + shutdown signal).
    remaining: AtomicUsize,
    /// First panic payload, re-raised by `run_dag`.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Global FIFO holding the initially-ready tasks.
    injector: Mutex<VecDeque<usize>>,
    /// Per-worker deques: owner pops LIFO, thieves steal FIFO.
    locals: Vec<Mutex<VecDeque<usize>>>,
    /// Handles of all workers, unparked whenever new work appears.
    parked: Mutex<Vec<Thread>>,
}

impl<F: FnOnce() -> T + Send, T: Send> DagState<F, T> {
    fn work(&self, me: usize) {
        lock(&self.parked).push(std::thread::current());
        loop {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            match self.find_task(me) {
                Some(task) => self.run_task(me, task),
                // Nothing runnable right now (dependencies of the leftover
                // tasks are still executing elsewhere): park until a
                // completion wakes us, with a timeout as a lost-wakeup
                // backstop.
                None => std::thread::park_timeout(IDLE_PARK),
            }
        }
    }

    fn find_task(&self, me: usize) -> Option<usize> {
        if let Some(i) = lock(&self.locals[me]).pop_back() {
            return Some(i);
        }
        if let Some(i) = lock(&self.injector).pop_front() {
            return Some(i);
        }
        let k = self.locals.len();
        for off in 1..k {
            if let Some(i) = lock(&self.locals[(me + off) % k]).pop_front() {
                return Some(i);
            }
        }
        None
    }

    fn run_task(&self, me: usize, i: usize) {
        // A failed dependency cascades: the task is dropped unrun and its
        // slot records which upstream task took it down. Dependency slots
        // are already filled (the pool only readies a task after all its
        // deps completed), so the probe never races a concurrent write.
        let upstream = self.deps[i].iter().find_map(|&d| {
            lock(&self.results[d]).as_ref().and_then(|r| match r {
                Ok(_) => None,
                Err(f) => Some((d, f.message().to_string())),
            })
        });
        let outcome = match upstream {
            Some((dep, message)) => Err(TaskFailure::Dependency { dep, message }),
            None => {
                let task = lock(&self.tasks[i]).take().expect("task runs exactly once");
                match catch_unwind(AssertUnwindSafe(task)) {
                    Ok(value) => Ok(value),
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        let mut slot = lock(&self.panic);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        Err(TaskFailure::Panicked { message })
                    }
                }
            }
        };
        *lock(&self.results[i]) = Some(outcome);
        // Push newly-ready dependents onto our own deque: we will pop
        // them LIFO (cache-warm), peers steal them FIFO if we stay busy.
        // Failures ready their dependents too — those cascade above
        // instead of vanishing from the result set.
        for &dep in &self.dependents[i] {
            if self.pending[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                lock(&self.locals[me]).push_back(dep);
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        self.wake_all();
    }

    fn wake_all(&self) {
        for t in lock(&self.parked).iter() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Pool::with_workers(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * i).collect();
        let got = pool.run_all(tasks);
        let want: Vec<_> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dependencies_run_before_dependents() {
        // A diamond: 0 -> {1, 2} -> 3. Each task records its finish tick.
        let clock = AtomicU64::new(0);
        let pool = Pool::with_workers(4);
        let tick = |_: ()| clock.fetch_add(1, Ordering::SeqCst);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(|| tick(())),
            Box::new(|| tick(())),
            Box::new(|| tick(())),
            Box::new(|| tick(())),
        ];
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let ticks = pool.run_dag(tasks, &deps);
        assert!(ticks[0] < ticks[1] && ticks[0] < ticks[2]);
        assert!(ticks[3] > ticks[1] && ticks[3] > ticks[2]);
    }

    #[test]
    fn single_worker_pool_is_fully_serial() {
        // With one worker the ready-first order is deterministic, so a
        // task-side counter observes a strictly serial schedule.
        let active = AtomicU64::new(0);
        let pool = Pool::with_workers(1);
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                let active = &active;
                move || {
                    assert_eq!(active.fetch_add(1, Ordering::SeqCst), 0);
                    let r = i * 3;
                    active.fetch_sub(1, Ordering::SeqCst);
                    r
                }
            })
            .collect();
        let got = pool.run_all(tasks);
        assert_eq!(got, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = Pool::with_workers(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom in task")),
            Box::new(|| 3),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_dag(tasks, &[vec![], vec![], vec![]])
        }))
        .expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom in task"), "payload was {msg:?}");
    }

    #[test]
    fn regression_panicked_dag_drains_all_tasks() {
        // Before the resilience layer the first panic set an abort flag
        // and every remaining queued task was abandoned; the result
        // vector then had holes. Now the DAG drains: independent tasks
        // all run, the panicker's dependents cascade as failures, and
        // every slot is filled.
        let ran = AtomicU64::new(0);
        let pool = Pool::with_workers(2);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = vec![
            Box::new(|| panic!("boom at task 0")),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
            Box::new(|| ran.fetch_add(1, Ordering::SeqCst)),
        ];
        // 1 depends on the panicker, 4 depends on 1 (transitive); 2 and 3
        // are independent and must still run.
        let deps = vec![vec![], vec![0], vec![], vec![], vec![1]];
        let (results, payload) = pool.run_dag_inner(tasks, &deps);
        assert!(payload.is_some(), "run_dag re-raises this payload");
        assert_eq!(results.len(), 5, "no slot may vanish");
        match &results[0] {
            Err(TaskFailure::Panicked { message }) => {
                assert!(message.contains("boom at task 0"), "{message}");
            }
            other => panic!("task 0 should be Panicked, got {other:?}"),
        }
        match &results[1] {
            Err(TaskFailure::Dependency { dep: 0, message }) => {
                assert!(message.contains("boom at task 0"), "{message}");
            }
            other => panic!("task 1 should cascade from 0, got {other:?}"),
        }
        assert!(matches!(&results[4], Err(TaskFailure::Dependency { .. })));
        assert!(results[2].is_ok() && results[3].is_ok());
        assert_eq!(ran.load(Ordering::SeqCst), 2, "independent tasks drained");

        // The pool object stays usable afterwards.
        assert_eq!(pool.run_all((0..8).map(|i| move || i).collect::<Vec<_>>()), (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "dependency cycle")]
    fn cycle_is_detected() {
        let pool = Pool::with_workers(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
        pool.run_dag(tasks, &[vec![1], vec![0]]);
    }

    #[test]
    fn env_override_parses_and_falls_back() {
        // Knob parsing itself is covered by the config tests; direct env
        // manipulation is avoided because tests run concurrently.
        let config = crate::config::Config::default();
        assert!(Pool::from_config(&config).workers() >= 1);
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }
}
