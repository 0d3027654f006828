//! A from-scratch, dependency-free work-stealing thread pool with
//! **deterministic ordered reduction**.
//!
//! The paper's prototype inherits parallelism from its substrates (Spark
//! executors, MongoDB shards); this crate gives the reproduction the
//! same property without giving up the byte-identical determinism the
//! repo's chaos and recovery gates enforce:
//!
//! - [`par_map`] / [`par_map_arc`] / [`par_map_indexed`] — map a
//!   function over items on the pool, returning results **in submission
//!   index order** regardless of worker count or steal interleaving,
//! - [`par_map_reduce`] — ordered map + in-order fold, so floating-point
//!   and order-sensitive reductions are byte-identical at any width,
//! - [`scope`] — structured fork/join over arbitrary `'static` tasks,
//! - [`threads`] — the configured width: `ATHENA_THREADS` (default =
//!   available cores; `1` selects an in-place sequential fast path that
//!   never touches the pool).
//!
//! # How determinism survives work stealing
//!
//! A job of `n` items is split into fixed chunks (a pure function of `n`
//! and the width). `width - 1` *runner* tasks go into the pool and the
//! **caller participates as the last runner**, so a job always makes
//! progress even if every pool worker is busy or blocked — nested jobs
//! cannot deadlock. Runners claim chunks from a shared atomic cursor and
//! write each item's result into its own index slot; which runner
//! computes which chunk is racy, *where the result lands* is not. After
//! the last slot fills, the caller assembles `Vec<R>` by index — the
//! same bytes as the `width == 1` run.
//!
//! # Examples
//!
//! ```
//! let squares = athena_parallel::par_map((0..64u64).collect(), |x| x * x);
//! assert_eq!(squares[5], 25);
//! let sum = athena_parallel::par_map_reduce((0..100u64).collect(), |x| x * 2, 0u64, |a, b| a + b);
//! assert_eq!(sum, 9900);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod accounting;
mod pool;
mod telemetry;

pub use accounting::{makespan_ns, modeled_makespan_ns, set_accounting, take_jobs, JobStats};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use pool::{lock, pool};

/// The configured job width: `ATHENA_THREADS` if set to a positive
/// integer, otherwise the host's available parallelism. Read per job, so
/// tests and benches can flip it at runtime.
pub fn threads() -> usize {
    athena_types::env_usize(
        "ATHENA_THREADS",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

/// Binds the pool's `parallel/*` instruments to a telemetry registry.
/// Only metrics are recorded, never trace events, so trace streams stay
/// byte-identical across `ATHENA_THREADS` settings.
pub fn bind_telemetry(tel: &athena_telemetry::Telemetry) {
    let p = pool();
    let bound = telemetry::Instruments::bound(tel, p.workers());
    *p.tel
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = bound;
}

/// Shared state of one in-flight ordered job.
struct JobState<R> {
    /// Next unclaimed item index; runners claim `chunk` items at a time.
    cursor: AtomicUsize,
    /// One slot per item, written by whichever runner claims it.
    slots: Vec<Mutex<Option<R>>>,
    /// Count of finished items, guarded so the caller can wait on it.
    done: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
    chunk: usize,
    n: usize,
    /// Measured chunk costs `(start_index, ns)`, kept only while
    /// accounting is enabled.
    costs: Mutex<Vec<(usize, u64)>>,
}

/// Items claimed per cursor bump. See [`JobState::new`] for rationale.
const MIN_CHUNK: usize = 32;

/// The fixed chunk size of an `n`-item job at `width` — a pure function
/// of its inputs, so chunk boundaries (and thus accounting rows) are
/// identical run-to-run.
fn chunk_size(n: usize, width: usize) -> usize {
    (n / (width * 8))
        .max(MIN_CHUNK)
        .min(n.div_ceil(width.max(1)))
        .max(1)
}

impl<R: Send + 'static> JobState<R> {
    fn new(n: usize, width: usize) -> Self {
        JobState {
            cursor: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            done: Mutex::new(0),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
            // ~8 chunks per runner: fine-grained enough for stealing to
            // balance, coarse enough to amortize slot writes — with a
            // floor of MIN_CHUNK items so cheap-item jobs at high width
            // are not shredded into lock-dominated confetti (the
            // BENCH_parallel feature-extraction row regressed at width
            // 8 exactly this way), capped at ceil(n/width) so every
            // runner still gets a chunk when items are few and heavy.
            // A pure function of (n, width) — results never depend on it.
            chunk: chunk_size(n, width),
            n,
            costs: Mutex::new(Vec::new()),
        }
    }

    /// Runner body: claim chunks until the cursor passes the end.
    fn run(&self, f: &(impl Fn(usize) -> R + Sync)) {
        let account = accounting::accounting_enabled();
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            let end = (start + self.chunk).min(self.n);
            let t0 = account.then(accounting::ChunkTimer::start);
            for i in start..end {
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => *lock(&self.slots[i], "parallel/slots") = Some(r),
                    Err(_) => self.panicked.store(true, Ordering::SeqCst),
                }
            }
            if let Some(t0) = t0 {
                lock(&self.costs, "parallel/costs").push((start, t0.elapsed_ns()));
            }
            let mut d = lock(&self.done, "parallel/done");
            *d += end - start;
            if *d >= self.n {
                self.all_done.notify_all();
            }
        }
    }

    fn record_accounting(&self, width: usize) {
        if !accounting::accounting_enabled() {
            return;
        }
        let mut costs = lock(&self.costs, "parallel/costs").clone();
        costs.sort_unstable_by_key(|&(start, _)| start);
        accounting::record_job(JobStats {
            items: self.n,
            width,
            chunk_costs_ns: costs.into_iter().map(|(_, ns)| ns).collect(),
        });
    }
}

/// Maps `f` over `0..n` at `width`, returning results in index order.
/// The deterministic core every `par_map` variant lowers to.
fn run_ordered<R, F>(n: usize, width: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    if n == 0 {
        return Vec::new();
    }
    let width = width.clamp(1, n);
    if width == 1 {
        return run_sequential(n, f);
    }
    let p = pool();
    let width = width.min(p.workers() + 1);
    p.with_tel(|t| {
        t.jobs.inc();
        t.items.add(n as u64);
    });
    let state = Arc::new(JobState::new(n, width));
    let f = Arc::new(f);
    for _ in 1..width {
        let st = Arc::clone(&state);
        let g = Arc::clone(&f);
        p.spawn_task(Box::new(move || st.run(&*g)));
    }
    // The caller is the last runner: the job progresses even if no pool
    // worker ever picks up a task.
    state.run(&*f);
    let mut finished = lock(&state.done, "parallel/done");
    while *finished < n {
        finished = finished.wait(&state.all_done);
    }
    drop(finished);
    if state.panicked.load(Ordering::SeqCst) {
        panic!("athena-parallel: a parallel task panicked");
    }
    state.record_accounting(width);
    (0..state.slots.len())
        .map(|s| {
            lock(&state.slots[s], "parallel/slots")
                .take()
                .expect("all slots filled before wait returned")
        })
        .collect()
}

/// The `width == 1` fast path: runs in place on the caller, touching
/// neither the pool nor any synchronization.
fn run_sequential<R>(n: usize, f: impl Fn(usize) -> R) -> Vec<R> {
    if !accounting::accounting_enabled() {
        return (0..n).map(f).collect();
    }
    // Per-item costs: the width-1 run is the only uncontended timing a
    // single-core host can produce, so record item-level granularity for
    // the LPT model to place on virtual workers at any width.
    let mut costs = Vec::with_capacity(n);
    let out: Vec<R> = (0..n)
        .map(|i| {
            let t0 = accounting::ChunkTimer::start();
            let r = f(i);
            costs.push(t0.elapsed_ns());
            r
        })
        .collect();
    accounting::record_job(JobStats {
        items: n,
        width: 1,
        chunk_costs_ns: costs,
    });
    out
}

/// Maps `f` over `0..n` in parallel at the configured width, returning
/// results in index order.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    run_ordered(n, threads(), f)
}

/// Maps `f` over a shared vector in parallel, returning results in item
/// order. Use when the caller already holds the data in an `Arc` (e.g.
/// `compute::Dataset` partitions) — no copy is made.
pub fn par_map_arc<T, R, F>(items: &Arc<Vec<T>>, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    let items = Arc::clone(items);
    run_ordered(items.len(), threads(), move |i| f(&items[i]))
}

/// Maps `f` over an owned vector in parallel, returning results in item
/// order: the parallel, order-preserving `items.iter().map(f).collect()`.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    par_map_arc(&Arc::new(items), f)
}

/// Parallel map followed by an **ordered** in-order fold on the caller:
/// `fold(.. fold(fold(init, f(items[0])), f(items[1])) ..)`. Because the
/// fold order is fixed, non-commutative and floating-point reductions
/// are byte-identical at any width.
pub fn par_map_reduce<T, R, A, F, G>(items: Vec<T>, map: F, init: A, fold: G) -> A
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
    G: FnMut(A, R) -> A,
{
    par_map(items, map).into_iter().fold(init, fold)
}

/// A structured fork/join scope: tasks spawned on it are guaranteed
/// finished when [`scope`] returns.
pub struct Scope {
    pending: Arc<(Mutex<usize>, Condvar)>,
    panicked: Arc<AtomicBool>,
}

impl Scope {
    /// Spawns a task into the pool. The task must be `'static`; share
    /// data with the caller through `Arc`.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        *lock(&self.pending.0, "parallel/pending") += 1;
        let pending = Arc::clone(&self.pending);
        let panicked = Arc::clone(&self.panicked);
        pool().spawn_task(Box::new(move || {
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                panicked.store(true, Ordering::SeqCst);
            }
            let mut p = lock(&pending.0, "parallel/pending");
            *p -= 1;
            if *p == 0 {
                pending.1.notify_all();
            }
        }));
    }
}

/// Runs `f` with a [`Scope`], then blocks until every task spawned on it
/// has finished. While waiting, the caller helps drain the pool, so
/// scopes nested inside pool tasks cannot starve. Panics if any task
/// panicked.
pub fn scope(f: impl FnOnce(&Scope)) {
    let s = Scope {
        pending: Arc::new((Mutex::new(0), Condvar::new())),
        panicked: Arc::new(AtomicBool::new(false)),
    };
    f(&s);
    let p = pool();
    loop {
        if *lock(&s.pending.0, "parallel/pending") == 0 {
            break;
        }
        // Help: run queued tasks (ours or anyone's) instead of blocking.
        if let Some(task) = p.find_task_external() {
            let _ = catch_unwind(AssertUnwindSafe(task));
            continue;
        }
        let guard = lock(&s.pending.0, "parallel/pending");
        if *guard == 0 {
            break;
        }
        let _ = guard.wait_timeout(&s.pending.1, std::time::Duration::from_millis(1));
    }
    if s.panicked.load(Ordering::SeqCst) {
        panic!("athena-parallel: a scoped task panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        // Env vars are process-global; serialize the tests that set one.
        static ENV: Mutex<()> = Mutex::new(());
        let _guard = lock(&ENV, "parallel/ENV");
        std::env::set_var("ATHENA_THREADS", n.to_string());
        let out = f();
        std::env::remove_var("ATHENA_THREADS");
        out
    }

    #[test]
    fn par_map_preserves_order_at_every_width() {
        let expect: Vec<u64> = (0..500u64).map(|x| x * 3 + 1).collect();
        for width in [1, 2, 3, 8, 64] {
            let got = with_threads(width, || par_map((0..500u64).collect(), |x| x * 3 + 1));
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn ordered_reduce_is_byte_identical_across_widths() {
        // Floating-point addition is not associative: only an ordered
        // fold gives bit-equal sums at different widths.
        let items: Vec<f64> = (0..2000).map(|i| 1.0 / f64::from(i + 1)).collect();
        let seq = with_threads(1, || {
            par_map_reduce(items.clone(), |x| x.sin(), 0.0f64, |a, b| a + b)
        });
        let par = with_threads(8, || {
            par_map_reduce(items.clone(), |x| x.sin(), 0.0f64, |a, b| a + b)
        });
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn sequential_fast_path_handles_edge_sizes() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| *x), Vec::<u32>::new());
        let one = with_threads(8, || par_map(vec![41u32], |x| x + 1));
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn nested_jobs_complete() {
        let got = with_threads(4, || {
            par_map_indexed(6, |i| par_map_indexed(5, move |j| i * 10 + j))
        });
        assert_eq!(got[3], vec![30, 31, 32, 33, 34]);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn scope_joins_all_tasks() {
        let hits = Arc::new(AtomicU64::new(0));
        scope(|s| {
            for i in 0..32u64 {
                let hits = Arc::clone(&hits);
                s.spawn(move || {
                    hits.fetch_add(i, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), (0..32).sum());
    }

    #[test]
    fn panics_propagate_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(64, |i| {
                    assert!(i != 17, "boom");
                    i
                })
            })
        });
        assert!(result.is_err());
        // The pool survives for subsequent jobs.
        let after = with_threads(4, || par_map_indexed(16, |i| i + 1));
        assert_eq!(after[0], 1);
    }

    #[test]
    fn accounting_records_costs_and_models_makespan() {
        set_accounting(true);
        let _ = with_threads(4, || par_map_indexed(256, |i| i * 2));
        let jobs = take_jobs();
        set_accounting(false);
        let job = jobs.iter().find(|j| j.items == 256).expect("job recorded");
        assert!(job.width > 1);
        assert_eq!(
            job.chunk_costs_ns.len(),
            job.items.div_ceil(job.chunk_size())
        );
        assert!(job.makespan_ns(4) <= job.serial_ns());
    }

    impl JobStats {
        fn chunk_size(&self) -> usize {
            super::chunk_size(self.items, self.width)
        }
    }

    #[test]
    fn chunk_size_floors_and_caps() {
        // Floor: cheap-item jobs are not shredded at high width.
        assert_eq!(chunk_size(256, 8), 32);
        // Cap: few heavy items still spread across every runner.
        assert_eq!(chunk_size(8, 8), 1);
        assert_eq!(chunk_size(200, 8), 25);
        // Above the floor the ~8-chunks-per-runner rule is unchanged.
        assert_eq!(chunk_size(3000, 8), 46);
        assert_eq!(chunk_size(0, 4), 1);
    }

    #[test]
    fn makespan_model_is_lpt() {
        assert_eq!(makespan_ns(&[4, 3, 3, 2], 2), 6);
        assert_eq!(makespan_ns(&[10], 4), 10);
        assert_eq!(makespan_ns(&[], 4), 0);
        assert_eq!(makespan_ns(&[1, 1, 1, 1], 1), 4);
    }

    #[test]
    fn threads_reads_env_per_call() {
        let n = with_threads(3, threads);
        assert_eq!(n, 3);
    }
}
