//! A persistent work-stealing worker pool for coarse-grained parallelism.
//!
//! [`par::par_map_threads`](crate::par::par_map_threads) spawns fresh OS
//! threads on every call — fine for second-long Monte-Carlo sweeps, pure
//! overhead for the millisecond-scale dispatches the streaming sample
//! path and the campaign driver issue thousands of times per run
//! (BENCH_runtime.json before this module: 8-thread `parallel_sweep` at
//! 0.38–0.92x). [`WorkerPool`] fixes the constant factor:
//!
//! * **Persistent workers.** Threads are spawned once (lazily, via
//!   [`WorkerPool::global`]) and parked on a condvar between calls, so a
//!   dispatch costs a queue push + wakeup instead of `thread::spawn`.
//! * **Chunked work-stealing.** Work is split into contiguous index
//!   chunks sized by [`chunk_size`] (≈4 chunks per worker, so uneven
//!   chunk costs still load-balance). Each chunk is pushed to a
//!   per-worker deque; idle workers pop their own queue from the front
//!   and steal from other queues' backs.
//! * **Determinism by construction.** Chunk boundaries depend only on
//!   `(len, width)`, every chunk is tagged with its start index, and the
//!   caller reassembles results in index order — so the output is
//!   byte-identical no matter which worker ran which chunk or in what
//!   order (pinned by `tests/pool_props.rs`).
//!
//! The workspace denies `unsafe`, so unlike rayon the pool cannot smuggle
//! borrowed closures across threads: jobs must be `'static` and own their
//! data ([`WorkerPool::map_move`] moves items through the pool and back).
//! Call sites that only have borrowed data either clone it or move it
//! (campaign scenarios, through `map_move`), or keep using the scoped
//! spawning path in [`par`](crate::par).
//!
//! Nested dispatches from inside a pool worker run inline on that worker
//! (a thread-local flag), so a pooled task may itself call pooled code
//! without deadlocking on the pool's own capacity. Callers *help*: while
//! waiting for results they execute queued chunks themselves, so a
//! dispatch never pays a context switch per chunk and the caller thread
//! counts as an extra executor.

use crate::obs;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True when the current thread is one of the pool's workers. Nested
/// pool calls detect this and run inline to avoid self-deadlock.
pub(crate) fn on_pool_worker() -> bool {
    IS_POOL_WORKER.with(|f| f.get())
}

/// Chunk length used to split `n` items across a dispatch of `width`
/// logical workers: ~4 chunks per worker, never zero. Depends only on
/// the two arguments, which is what makes pooled maps deterministic.
pub fn chunk_size(n: usize, width: usize) -> usize {
    n.div_ceil(width.max(1) * 4).max(1)
}

/// Always-on per-lane execution counters (relaxed atomics — one
/// `fetch_add` next to a mutex lock that was already there). Lane `i`
/// for `i < workers` is worker thread `i`; the extra trailing lane
/// aggregates every *helping caller* (threads executing queued jobs
/// while they wait in [`WorkerPool::collect_helping`]).
#[derive(Debug, Default)]
struct LaneStats {
    /// Jobs this lane grabbed and ran.
    tasks: AtomicU64,
    /// Jobs taken from another lane's queue.
    steals: AtomicU64,
    /// Probes of other queues that came up empty.
    steal_misses: AtomicU64,
    /// Times the lane ran out of local + stealable work and parked.
    parks: AtomicU64,
    /// Condvar wakeups received while parked.
    wakes: AtomicU64,
    /// Wall time spent executing jobs.
    busy_ns: AtomicU64,
    /// Wall time spent parked between jobs.
    idle_ns: AtomicU64,
    /// Jobs submitted into this lane's queue (workers only).
    queue_pushed: AtomicU64,
    /// Deepest this lane's queue has ever been (workers only).
    queue_depth_peak: AtomicU64,
}

struct Shared {
    /// One job deque per worker; owners pop the front, thieves the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// `queues.len() + 1` lanes — see [`LaneStats`].
    stats: Vec<LaneStats>,
    /// Jobs pushed but not yet grabbed (not: not yet finished).
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// Guards the sleep/wake handshake only — holds no data.
    gate: Mutex<()>,
    cv: Condvar,
}

impl Shared {
    /// Takes one job: own queue front first, then steal from the back of
    /// the other queues, nearest first. `lane` is the stats lane doing
    /// the grabbing (a worker's home index, or the callers lane).
    fn grab(&self, home: usize, lane: usize) -> Option<Job> {
        let k = self.queues.len();
        for off in 0..k {
            let qi = (home + off) % k;
            let mut q = self.queues[qi].lock().unwrap();
            let job = if off == 0 {
                q.pop_front()
            } else {
                q.pop_back()
            };
            if let Some(job) = job {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.stats[lane].tasks.fetch_add(1, Ordering::Relaxed);
                if off != 0 {
                    self.stats[lane].steals.fetch_add(1, Ordering::Relaxed);
                    crate::trace_instant!("pool.steal");
                }
                return Some(job);
            }
            if off != 0 {
                self.stats[lane]
                    .steal_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        None
    }

    /// Runs one grabbed job, charging its wall time to `lane` and
    /// framing it as a `pool.job` span on the executing thread's trace
    /// track (that is what makes per-lane utilization visible in
    /// `trace_report`).
    fn run_job(&self, job: Job, lane: usize) {
        let t0 = Instant::now();
        {
            let _job_span = crate::trace_span!("pool.job");
            // Jobs built by map_* catch their own panics; this outer
            // catch only keeps the executor alive if a raw job leaks one.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
        self.stats[lane]
            .busy_ns
            .fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    }
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn worker_loop(shared: &Shared, home: usize) {
    IS_POOL_WORKER.with(|f| f.set(true));
    let stats = &shared.stats[home];
    loop {
        while let Some(job) = shared.grab(home, home) {
            shared.run_job(job, home);
        }
        let parked_at = Instant::now();
        stats.parks.fetch_add(1, Ordering::Relaxed);
        let mut guard = shared.gate.lock().unwrap();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                stats
                    .idle_ns
                    .fetch_add(elapsed_ns(parked_at), Ordering::Relaxed);
                return;
            }
            if shared.pending.load(Ordering::Acquire) > 0 {
                break;
            }
            guard = shared.cv.wait(guard).unwrap();
            stats.wakes.fetch_add(1, Ordering::Relaxed);
        }
        drop(guard);
        stats
            .idle_ns
            .fetch_add(elapsed_ns(parked_at), Ordering::Relaxed);
    }
}

/// A fixed-size pool of parked worker threads with per-worker deques and
/// work stealing. See the module docs for the design rationale.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Round-robin cursor for spreading submitted chunks across queues.
    next_queue: AtomicUsize,
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            stats: (0..workers + 1).map(|_| LaneStats::default()).collect(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ivn-pool-{home}"))
                    .spawn(move || worker_loop(&shared, home))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool, created on first use with
    /// [`num_threads`](crate::par::num_threads) workers. Its lane stats
    /// are published as `pool.*` gauges on every
    /// [`obs::report`] via a registered collector.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let pool = WorkerPool::new(crate::par::num_threads());
            let shared = Arc::clone(&pool.shared);
            obs::register_collector(move || publish_stats(&shared));
            pool
        })
    }

    /// Number of worker threads in this pool.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Enqueues owned jobs round-robin across the worker deques and wakes
    /// the workers. With observability on, each job is stamped at
    /// submission and reports its queue→execution latency into the
    /// `pool.dispatch_latency_ns` histogram; the queue depth seen at each
    /// push lands in `pool.queue_depth`.
    fn submit(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let k = self.shared.queues.len();
        let many = jobs.len() > 1;
        let measure = obs::enabled();
        for job in jobs {
            let qi = self.next_queue.fetch_add(1, Ordering::Relaxed) % k;
            let job = if measure {
                let queued_at = Instant::now();
                Box::new(move || {
                    dispatch_latency_hist().record(elapsed_ns(queued_at));
                    job();
                }) as Job
            } else {
                job
            };
            self.shared.pending.fetch_add(1, Ordering::AcqRel);
            let depth = {
                let mut q = self.shared.queues[qi].lock().unwrap();
                q.push_back(job);
                q.len() as u64
            };
            let stats = &self.shared.stats[qi];
            stats.queue_pushed.fetch_add(1, Ordering::Relaxed);
            stats.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
            if measure {
                queue_depth_hist().record(depth);
            }
        }
        // Lock-then-notify so a worker between its pending check and its
        // wait cannot miss the wakeup.
        drop(self.shared.gate.lock().unwrap());
        if many {
            self.shared.cv.notify_all();
        } else {
            self.shared.cv.notify_one();
        }
    }

    /// Maps `f` over indices `0..n` with chunked dispatch, returning
    /// results in index order. `width` shapes the chunking exactly like a
    /// thread count: `width <= 1` (or trivial input, or a nested call
    /// from a pool worker) runs inline on the caller.
    ///
    /// # Panics
    /// Re-raises the first (lowest-index-chunk) panic from any job.
    pub fn map_indexed<U, F>(&self, n: usize, width: usize, f: F) -> Vec<U>
    where
        U: Send + 'static,
        F: Fn(usize) -> U + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        self.dispatch(n, width, |start, end| {
            let f = Arc::clone(&f);
            move || (start..end).map(|i| f(i)).collect()
        })
    }

    /// Moves `items` through the pool: each is passed by value to
    /// `f(index, item)` and the outputs come back in input order. This is
    /// the owned-data analogue of
    /// [`par::par_map_threads`](crate::par::par_map_threads) — the shape
    /// the no-`unsafe` rule forces on persistent-thread dispatch.
    ///
    /// # Panics
    /// Re-raises the first (lowest-index-chunk) panic from any job.
    pub fn map_move<T, U, F>(&self, items: Vec<T>, width: usize, f: F) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(usize, T) -> U + Send + Sync + 'static,
    {
        let n = items.len();
        let f = Arc::new(f);
        let mut items = items.into_iter();
        self.dispatch(n, width, |start, end| {
            let batch: Vec<T> = items.by_ref().take(end - start).collect();
            let f = Arc::clone(&f);
            move || {
                batch
                    .into_iter()
                    .enumerate()
                    .map(|(j, t)| f(start + j, t))
                    .collect()
            }
        })
    }

    /// The dispatch body both maps share. `chunk_job(start, end)` builds
    /// the job for indices `start..end`; chunks are cut in ascending
    /// order, so a job may take its share of the input as it is built.
    /// `width <= 1`, `n == 1` and a nested call from a pool worker run
    /// the one job for `0..n` inline; otherwise the chunks
    /// (`chunk_size(n, width)` long) are submitted, the caller helps
    /// until every result is back, and the results are reassembled in
    /// chunk order.
    ///
    /// # Panics
    /// Re-raises the first (lowest-index-chunk) panic from any job.
    fn dispatch<U, J>(
        &self,
        n: usize,
        width: usize,
        mut chunk_job: impl FnMut(usize, usize) -> J,
    ) -> Vec<U>
    where
        U: Send + 'static,
        J: FnOnce() -> Vec<U> + Send + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        if width <= 1 || n == 1 || on_pool_worker() {
            return chunk_job(0, n)();
        }
        let chunk = chunk_size(n, width);
        let (tx, rx) = channel();
        let mut jobs: Vec<Job> = Vec::with_capacity(n.div_ceil(chunk));
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let job = chunk_job(start, end);
            let tx = tx.clone();
            jobs.push(Box::new(move || {
                let _ = tx.send((start, catch_unwind(AssertUnwindSafe(job))));
            }));
            start = end;
        }
        drop(tx);
        let chunks = jobs.len();
        self.submit(jobs);
        let mut parts = self.collect_helping(chunks, &rx);
        parts.sort_unstable_by_key(|(s, _)| *s);
        let mut out = Vec::with_capacity(n);
        for (_, r) in parts {
            match r {
                Ok(v) => out.extend(v),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }

    /// Waits for `chunks` results while *helping*: as long as any queue
    /// holds a job, the caller executes it instead of parking in
    /// `recv()`. On a busy or single-core host this turns a dispatch
    /// into mostly-inline execution (no context-switch per chunk), and
    /// it makes nested dispatch deadlock-free even from non-pool
    /// threads: a queued job can always be run by whoever is waiting
    /// on it.
    fn collect_helping<P>(&self, chunks: usize, rx: &std::sync::mpsc::Receiver<P>) -> Vec<P> {
        let mut parts = Vec::with_capacity(chunks);
        while parts.len() < chunks {
            while let Ok(p) = rx.try_recv() {
                parts.push(p);
            }
            if parts.len() >= chunks {
                break;
            }
            let callers_lane = self.shared.queues.len();
            if let Some(job) = self.shared.grab(0, callers_lane) {
                // May be a chunk of an unrelated concurrent dispatch —
                // executing it is still progress, and ours can only be
                // taken by someone who will finish it.
                self.shared.run_job(job, callers_lane);
            } else {
                // Queues are empty: block for a worker's result. This
                // wait is the callers lane's idle time — without
                // charging it, `pool.callers.busy_frac` reads a
                // meaningless 1.0 (the lane only ever logged busy_ns).
                let waited_at = Instant::now();
                let part = rx.recv().expect("pool worker delivered result");
                self.shared.stats[callers_lane]
                    .idle_ns
                    .fetch_add(elapsed_ns(waited_at), Ordering::Relaxed);
                parts.push(part);
            }
        }
        parts
    }

    /// Point-in-time copy of every lane's counters: one entry per worker
    /// (`w0`, `w1`, …) plus the aggregate `callers` lane for threads
    /// that executed jobs while waiting on their own dispatch.
    pub fn stats(&self) -> Vec<LaneSnapshot> {
        lane_snapshots(&self.shared)
    }
}

/// Exported view of one lane's `LaneStats`; see
/// [`WorkerPool::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// `"w0"`, `"w1"`, … for workers; `"callers"` for helping callers.
    pub lane: String,
    /// Jobs grabbed and run by this lane.
    pub tasks: u64,
    /// Jobs taken from another lane's queue.
    pub steals: u64,
    /// Probes of other queues that found them empty.
    pub steal_misses: u64,
    /// Times the lane parked (workers only).
    pub parks: u64,
    /// Condvar wakeups received while parked (workers only).
    pub wakes: u64,
    /// Wall time spent executing jobs.
    pub busy_ns: u64,
    /// Wall time spent parked (workers only).
    pub idle_ns: u64,
    /// Jobs submitted into this lane's queue (workers only).
    pub queue_pushed: u64,
    /// Deepest the lane's queue has been (workers only).
    pub queue_depth_peak: u64,
}

impl LaneSnapshot {
    /// Fraction of accounted wall time spent executing jobs
    /// (`busy / (busy + idle)`; 0.0 before the lane has done anything).
    pub fn busy_frac(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

fn lane_snapshots(shared: &Shared) -> Vec<LaneSnapshot> {
    let k = shared.queues.len();
    shared
        .stats
        .iter()
        .enumerate()
        .map(|(i, s)| LaneSnapshot {
            lane: if i < k {
                format!("w{i}")
            } else {
                "callers".to_string()
            },
            tasks: s.tasks.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
            steal_misses: s.steal_misses.load(Ordering::Relaxed),
            parks: s.parks.load(Ordering::Relaxed),
            wakes: s.wakes.load(Ordering::Relaxed),
            busy_ns: s.busy_ns.load(Ordering::Relaxed),
            idle_ns: s.idle_ns.load(Ordering::Relaxed),
            queue_pushed: s.queue_pushed.load(Ordering::Relaxed),
            queue_depth_peak: s.queue_depth_peak.load(Ordering::Relaxed),
        })
        .collect()
}

/// Publishes the global pool's lane stats as `pool.<lane>.*` gauges —
/// runs as an [`obs::register_collector`] hook on every `obs::report()`
/// (and therefore on every flight-recorder heartbeat).
fn publish_stats(shared: &Shared) {
    for s in lane_snapshots(shared) {
        let set = |suffix: &str, v: f64| {
            obs::gauge(&format!("pool.{}.{suffix}", s.lane)).set_unchecked(v);
        };
        set("tasks", s.tasks as f64);
        set("steals", s.steals as f64);
        set("steal_misses", s.steal_misses as f64);
        set("parks", s.parks as f64);
        set("wakes", s.wakes as f64);
        set("busy_ns", s.busy_ns as f64);
        set("idle_ns", s.idle_ns as f64);
        set("busy_frac", s.busy_frac());
        if !s.lane.starts_with("callers") {
            set("queue_pushed", s.queue_pushed as f64);
            set("queue_depth_peak", s.queue_depth_peak as f64);
        }
    }
    for (i, q) in shared.queues.iter().enumerate() {
        let depth = q.lock().unwrap().len() as f64;
        obs::gauge(&format!("pool.w{i}.queue_depth")).set_unchecked(depth);
    }
}

fn dispatch_latency_hist() -> &'static obs::Histogram {
    static H: OnceLock<&'static obs::Histogram> = OnceLock::new();
    H.get_or_init(|| obs::histogram("pool.dispatch_latency_ns"))
}

fn queue_depth_hist() -> &'static obs::Histogram {
    static H: OnceLock<&'static obs::Histogram> = OnceLock::new();
    H.get_or_init(|| obs::histogram("pool.queue_depth"))
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.gate.lock().unwrap());
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("pending", &self.shared.pending.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order() {
        let pool = WorkerPool::new(3);
        for width in [1, 2, 3, 8] {
            let out = pool.map_indexed(257, width, |i| i * 2);
            assert_eq!(out, (0..257).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_move_round_trips_items() {
        let pool = WorkerPool::new(2);
        let items: Vec<String> = (0..40).map(|i| format!("x{i}")).collect();
        let out = pool.map_move(items.clone(), 8, |i, s| format!("{i}:{s}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(*s, format!("{i}:x{i}"));
        }
    }

    #[test]
    fn empty_and_single_do_not_deadlock() {
        let pool = WorkerPool::new(2);
        let none: Vec<u32> = pool.map_indexed(0, 8, |i| i as u32);
        assert!(none.is_empty());
        assert_eq!(pool.map_indexed(1, 8, |i| i + 10), vec![10]);
        assert_eq!(pool.map_move(vec![7u32], 8, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn panics_propagate() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(64, 8, |i| {
                assert!(i != 33, "boom");
                i
            })
        }));
        assert!(r.is_err());
        // Pool still usable after a panicked dispatch.
        assert_eq!(pool.map_indexed(4, 2, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        // One worker + nested calls: workers inline nested dispatches
        // and the caller helps execute queued jobs, so this cannot
        // exhaust pool capacity no matter which thread runs a chunk.
        let pool = Arc::new(WorkerPool::new(1));
        let inner = Arc::clone(&pool);
        let out = pool.map_indexed(4, 8, move |i| inner.map_indexed(3, 8, move |j| i * 10 + j));
        assert_eq!(out[3], vec![30, 31, 32]);
    }

    #[test]
    fn chunk_size_is_stable() {
        assert_eq!(chunk_size(0, 8), 1);
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(1_000_000, 8), 31_250);
        assert_eq!(chunk_size(5, 0), 2);
    }

    #[test]
    fn lane_stats_account_for_every_job() {
        let pool = WorkerPool::new(2);
        let before: u64 = pool.stats().iter().map(|s| s.tasks).sum();
        pool.map_indexed(100, 8, |i| i * 3);
        let stats = pool.stats();
        assert_eq!(stats.len(), 3, "w0, w1, callers");
        assert_eq!(stats[0].lane, "w0");
        assert_eq!(stats[2].lane, "callers");
        let tasks: u64 = stats.iter().map(|s| s.tasks).sum();
        // Every chunk was grabbed by exactly one lane.
        let chunks = 100u64.div_ceil(chunk_size(100, 8) as u64);
        assert_eq!(tasks - before, chunks, "stats: {stats:?}");
        let pushed: u64 = stats.iter().map(|s| s.queue_pushed).sum();
        assert!(pushed >= chunks, "stats: {stats:?}");
        for s in &stats {
            assert!(s.busy_frac() >= 0.0 && s.busy_frac() <= 1.0);
        }
    }

    #[test]
    fn callers_lane_accounts_recv_wait_as_idle() {
        // A helping caller that parks in `recv()` (queues drained, a
        // worker still finishing) must charge that wait to the callers
        // lane's idle_ns — otherwise its busy_frac is pinned at 1.0 and
        // `trace_report --attribute` over-credits the main thread. The
        // exact interleaving is scheduler-dependent, so retry dispatches
        // until a recv-wait is observed; without the accounting this
        // never succeeds.
        let pool = WorkerPool::new(2);
        let callers = pool.stats().len() - 1;
        let mut observed = false;
        for _ in 0..50 {
            pool.map_indexed(8, 8, |i| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            });
            let s = &pool.stats()[callers];
            assert_eq!(s.lane, "callers");
            if s.idle_ns > 0 {
                assert!(s.busy_frac() < 1.0, "stats: {s:?}");
                observed = true;
                break;
            }
        }
        assert!(observed, "caller never recorded a recv wait");
    }

    #[test]
    fn dispatch_latency_recorded_when_obs_enabled() {
        obs::set_enabled(true);
        let pool = WorkerPool::new(2);
        let before = obs::histogram("pool.dispatch_latency_ns").snapshot().count;
        pool.map_indexed(64, 8, |i| i + 1);
        let after = obs::histogram("pool.dispatch_latency_ns").snapshot().count;
        assert!(after > before, "dispatch latency not recorded");
        assert!(obs::histogram("pool.queue_depth").snapshot().count > 0);
    }
}
