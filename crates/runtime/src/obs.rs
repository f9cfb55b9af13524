//! Pipeline observability: spans, counters, gauges, histograms, reports.
//!
//! Answers "where do time and energy go inside a CIB query cycle" without
//! perturbing the simulation: every crate in the workspace records into a
//! process-global metric registry, and [`report`] snapshots the whole
//! registry into a [`Report`] that serializes through the in-tree
//! [`json`](crate::json) layer.
//!
//! Design constraints, in order:
//!
//! 1. **The uninstrumented hot path stays branch-predictable.** All
//!    recording is gated on one process-global [`AtomicBool`]; a disabled
//!    call site is a relaxed load plus an always-not-taken branch and
//!    touches no other shared state.
//! 2. **Recording is lock-free and safe under the `par` worker pool.**
//!    Counters are sharded across cache-line-padded atomics indexed by a
//!    per-thread slot, so the workers of
//!    [`par::par_map`](crate::par::par_map) never contend on one line;
//!    histograms and gauges are plain atomics. Only *creating* a metric
//!    (first use of a name) takes a mutex, and the
//!    [`obs_count!`](crate::obs_count), [`span!`](crate::span) and
//!    [`obs_gauge!`](crate::obs_gauge) macros cache that lookup per call
//!    site.
//! 3. **Observability must never change results.** Metrics are
//!    write-only from the simulation's perspective: nothing in the
//!    workspace reads a metric to make a decision, and
//!    `tests/determinism.rs` pins experiment outputs byte-for-byte with
//!    observability on and off.
//!
//! Histograms are power-of-two bucketed (bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i)`), which is exactly what merging requires: a merge is
//! a bucket-wise sum, associative and commutative (property-tested in
//! `crates/runtime/tests/obs_props.rs`). Span durations are recorded in
//! nanoseconds.

use crate::json::{field, FromJson, Json, JsonError, ToJson};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global enable flag.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off process-wide.
///
/// Disabled (the default), every instrumentation point reduces to one
/// relaxed atomic load and an untaken branch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Sharding.
// ---------------------------------------------------------------------

/// Counter shard count; a power of two comfortably above the worker-pool
/// widths the simulator uses.
const N_SHARDS: usize = 16;

/// One cache line per shard so parallel workers do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// This thread's shard slot, assigned round-robin on first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
            slot.set(v);
        }
        v
    })
}

// ---------------------------------------------------------------------
// Metric types.
// ---------------------------------------------------------------------

/// A monotonically increasing event count, sharded per thread slot.
#[derive(Debug)]
pub struct Counter {
    name: String,
    shards: Vec<Shard>,
}

impl Counter {
    fn new(name: &str) -> Counter {
        Counter {
            name: name.to_string(),
            shards: (0..N_SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// The metric name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Adds `n` when observability is enabled; otherwise a relaxed load
    /// and an untaken branch.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.add_unchecked(n);
        }
    }

    #[inline]
    fn add_unchecked(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The total across all shards.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A last-writer-wins scalar (stored as `f64` bits in an atomic).
#[derive(Debug)]
pub struct Gauge {
    name: String,
    bits: AtomicU64,
}

impl Gauge {
    fn new(name: &str) -> Gauge {
        Gauge {
            name: name.to_string(),
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The metric name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Stores `v` when observability is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.set_unchecked(v);
        }
    }

    #[inline]
    pub(crate) fn set_unchecked(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The stored value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets: index `0` holds zeros, index `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, up to `i = 64` for `u64::MAX`.
pub(crate) const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The smallest value a bucket admits (`0` for bucket 0).
pub(crate) fn bucket_low(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS, "bucket out of range");
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A lock-free power-of-two-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    name: String,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(name: &str) -> Histogram {
        Histogram {
            name: name.to_string(),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Records `v` when observability is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.record_unchecked(v);
        }
    }

    #[inline]
    fn record_unchecked(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An immutable histogram snapshot: total count, total sum, and the
/// non-empty `(bucket index, count)` pairs in ascending bucket order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (wrapping is the caller's concern).
    pub sum: u64,
    /// Sparse `(bucket index, count)` pairs, ascending, counts nonzero.
    pub(crate) buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Builds a snapshot by bucketing `values` directly, without the
    /// registry: the reference `tests/obs_props.rs` builds its snapshots
    /// and reports from (e.g. `histogram_merge_matches_concatenation`).
    pub fn from_values(values: &[u64]) -> HistogramSnapshot {
        let mut dense = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            dense[bucket_of(v)] += 1;
            sum = sum.wrapping_add(v);
        }
        HistogramSnapshot {
            count: values.len() as u64,
            sum,
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((i, n)))
                .collect(),
        }
    }

    /// Bucket-wise sum of two snapshots — associative and commutative
    /// (`tests/obs_props.rs::histogram_merge_is_associative`).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = [0u64; HIST_BUCKETS];
        for &(i, n) in self.buckets.iter().chain(&other.buckets) {
            dense[i] += n;
        }
        HistogramSnapshot {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((i, n)))
                .collect(),
        }
    }

    /// Bucket-wise difference `self − prev` for monotonically growing
    /// recordings (a later snapshot of the same histogram). Counts
    /// saturate at zero so a stale `prev` can never produce negative
    /// buckets; `sum` subtracts wrapping, the exact inverse of
    /// [`merge`](Self::merge)'s wrapping add.
    pub(crate) fn diff(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = [0u64; HIST_BUCKETS];
        for &(i, n) in &self.buckets {
            dense[i] = n;
        }
        for &(i, n) in &prev.buckets {
            dense[i] = dense[i].saturating_sub(n);
        }
        HistogramSnapshot {
            count: self.count.saturating_sub(prev.count),
            sum: self.sum.wrapping_sub(prev.sum),
            buckets: dense
                .iter()
                .enumerate()
                .filter_map(|(i, &n)| (n > 0).then_some((i, n)))
                .collect(),
        }
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Lower bound of the highest non-empty bucket (`None` when empty).
    pub(crate) fn max_bucket_low(&self) -> Option<u64> {
        self.buckets.last().map(|&(i, _)| bucket_low(i))
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", (self.count as f64).into()),
            ("sum", (self.sum as f64).into()),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    fn from_json(value: &Json) -> Result<HistogramSnapshot, JsonError> {
        let count: usize = field(value, "count")?;
        let sum: usize = field(value, "sum")?;
        let pairs = value
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError {
                offset: 0,
                reason: "missing 'buckets' array".into(),
            })?;
        let mut buckets = Vec::with_capacity(pairs.len());
        for p in pairs {
            let pair = p.as_array().ok_or_else(|| JsonError {
                offset: 0,
                reason: "bucket entry must be a pair".into(),
            })?;
            match pair {
                [i, n] => {
                    let i = i.as_usize().ok_or_else(|| JsonError {
                        offset: 0,
                        reason: "bucket index must be an integer".into(),
                    })?;
                    let n = n.as_usize().ok_or_else(|| JsonError {
                        offset: 0,
                        reason: "bucket count must be an integer".into(),
                    })?;
                    buckets.push((i, n as u64));
                }
                _ => {
                    return Err(JsonError {
                        offset: 0,
                        reason: "bucket entry must be a pair".into(),
                    })
                }
            }
        }
        Ok(HistogramSnapshot {
            count: count as u64,
            sum: sum as u64,
            buckets,
        })
    }
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    collectors: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        collectors: Mutex::new(Vec::new()),
    })
}

/// Registers a hook that [`report`] runs before snapshotting, so
/// subsystems that keep their own always-on internals (the worker pool's
/// per-lane atomics) can publish them as gauges just in time. Hooks must
/// not call [`report`] themselves.
pub(crate) fn register_collector(f: impl Fn() + Send + Sync + 'static) {
    registry()
        .collectors
        .lock()
        .expect("metric registry poisoned")
        .push(Box::new(f));
}

fn find_or_create<T>(
    list: &Mutex<Vec<&'static T>>,
    name: &str,
    name_of: impl Fn(&T) -> &str,
    create: impl FnOnce(&str) -> T,
) -> &'static T {
    let mut guard = list.lock().expect("metric registry poisoned");
    if let Some(existing) = guard.iter().find(|m| name_of(m) == name) {
        return existing;
    }
    // Metrics live for the whole process; leaking is the intended
    // lifetime and keeps handles `&'static` without unsafe code.
    let created: &'static T = Box::leak(Box::new(create(name)));
    guard.push(created);
    created
}

/// The counter registered under `name`, created on first use.
///
/// Call sites should cache the returned handle (the
/// [`obs_count!`](crate::obs_count) macro does) — lookup takes the
/// registry mutex; recording never does.
pub fn counter(name: &str) -> &'static Counter {
    find_or_create(&registry().counters, name, Counter::name, Counter::new)
}

/// The gauge registered under `name`, created on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    find_or_create(&registry().gauges, name, Gauge::name, Gauge::new)
}

/// The histogram registered under `name`, created on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    find_or_create(
        &registry().histograms,
        name,
        Histogram::name,
        Histogram::new,
    )
}

/// Zeroes every registered metric (names stay registered).
///
/// Intended for scoping a [`report`] to one run; concurrent recorders
/// may land increments on either side of the reset.
pub fn reset() {
    let r = registry();
    for c in r.counters.lock().expect("metric registry poisoned").iter() {
        c.reset();
    }
    for g in r.gauges.lock().expect("metric registry poisoned").iter() {
        g.reset();
    }
    for h in r
        .histograms
        .lock()
        .expect("metric registry poisoned")
        .iter()
    {
        h.reset();
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// RAII span timer: records elapsed nanoseconds into a histogram on drop.
///
/// Construct through [`span!`](crate::span) or [`Timer::start`]; a timer
/// started while observability is off holds nothing and records nothing.
#[must_use = "a span records when the timer drops; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct Timer {
    inner: Option<(Instant, &'static Histogram)>,
}

impl Timer {
    /// Starts a timer into `h` (no-op when observability is off).
    #[inline]
    pub fn start(h: &'static Histogram) -> Timer {
        Timer {
            inner: enabled().then(|| (Instant::now(), h)),
        }
    }

    /// A timer that records nothing.
    #[inline]
    pub fn noop() -> Timer {
        Timer { inner: None }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.inner.take() {
            hist.record_unchecked(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// Combined guard from [`span!`](crate::span): an `obs` histogram
/// [`Timer`] plus a [`trace`](crate::trace) timeline span over the same
/// scope. Either half is a no-op when its layer is disabled.
///
/// Field order matters: the timer drops (and records its duration) before
/// the trace end event is emitted, so histogram numbers never include the
/// cost of the timeline write.
#[must_use = "a span records when it drops; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct Span {
    _timer: Timer,
    _trace: crate::trace::TraceSpan,
}

impl Span {
    /// Pairs an obs timer with a timeline span.
    #[inline]
    pub fn new(timer: Timer, trace: crate::trace::TraceSpan) -> Span {
        Span {
            _timer: timer,
            _trace: trace,
        }
    }
}

/// Times the enclosing scope into the named histogram, and emits matching
/// begin/end events on the current [`trace`](crate::trace) track.
///
/// ```
/// # use ivn_runtime::span;
/// let _span = span!("rfid.encode_ns");
/// // ... work ...
/// ```
///
/// The histogram and the interned trace token are each cached per call
/// site; with both layers off the expansion is two relaxed loads and two
/// untaken branches.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        let timer = if $crate::obs::enabled() {
            static SPAN: std::sync::OnceLock<&'static $crate::obs::Histogram> =
                std::sync::OnceLock::new();
            $crate::obs::Timer::start(SPAN.get_or_init(|| $crate::obs::histogram($name)))
        } else {
            $crate::obs::Timer::noop()
        };
        let trace = if $crate::trace::enabled() {
            static TOK: std::sync::OnceLock<$crate::trace::Token> = std::sync::OnceLock::new();
            $crate::trace::TraceSpan::enter(*TOK.get_or_init(|| $crate::trace::intern($name)))
        } else {
            $crate::trace::TraceSpan::noop()
        };
        $crate::obs::Span::new(timer, trace)
    }};
}

/// Adds to the named counter (lookup cached per call site).
#[macro_export]
macro_rules! obs_count {
    ($name:expr, $n:expr) => {
        if $crate::obs::enabled() {
            static COUNTER: std::sync::OnceLock<&'static $crate::obs::Counter> =
                std::sync::OnceLock::new();
            COUNTER
                .get_or_init(|| $crate::obs::counter($name))
                .add($n as u64);
        }
    };
}

/// Sets the named gauge (lookup cached per call site).
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr, $v:expr) => {
        if $crate::obs::enabled() {
            static GAUGE: std::sync::OnceLock<&'static $crate::obs::Gauge> =
                std::sync::OnceLock::new();
            GAUGE
                .get_or_init(|| $crate::obs::gauge($name))
                .set($v as f64);
        }
    };
}

// ---------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------

/// A point-in-time snapshot of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshots the whole registry (running registered collectors first).
pub fn report() -> Report {
    let r = registry();
    for c in r
        .collectors
        .lock()
        .expect("metric registry poisoned")
        .iter()
    {
        c();
    }
    let mut counters: Vec<(String, u64)> = r
        .counters
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|c| (c.name().to_string(), c.total()))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, f64)> = r
        .gauges
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|g| (g.name().to_string(), g.get()))
        .collect();
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let mut histograms: Vec<(String, HistogramSnapshot)> = r
        .histograms
        .lock()
        .expect("metric registry poisoned")
        .iter()
        .map(|h| (h.name().to_string(), h.snapshot()))
        .collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    Report {
        counters,
        gauges,
        histograms,
    }
}

impl Report {
    /// Total of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Snapshot of the named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Interval difference `self − prev`, for two snapshots of the same
    /// process taken in that order: counters subtract (saturating, so a
    /// counter absent from `self` or reset in between never underflows),
    /// histograms subtract bucket-wise, and gauges keep `self`'s values
    /// (a gauge is a level, not an accumulation). Names present only in
    /// `self` pass through whole; names present only in `prev` are
    /// dropped — the registry never unregisters, so that only happens
    /// with a foreign `prev`.
    ///
    /// For monotone recordings, `prev.merge(&cur.delta(&prev)) == cur`.
    pub fn delta(&self, prev: &Report) -> Report {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(prev.counter(n).unwrap_or(0))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, s)| {
                let d = match prev.histogram(n) {
                    Some(p) => s.diff(p),
                    None => s.clone(),
                };
                (n.clone(), d)
            })
            .collect();
        Report {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Element-wise union: counters add, histograms merge bucket-wise,
    /// and for gauges `other` wins on a shared name (it is the later
    /// snapshot). Output stays sorted by name. The reference
    /// [`delta`](Self::delta) is checked against by
    /// `tests/obs_props.rs::delta_merge_identity`.
    pub fn merge(&self, other: &Report) -> Report {
        fn unioned<T: Clone>(
            a: &[(String, T)],
            b: &[(String, T)],
            combine: impl Fn(&T, &T) -> T,
        ) -> Vec<(String, T)> {
            let mut out: Vec<(String, T)> = a.to_vec();
            for (n, v) in b {
                match out.iter_mut().find(|(name, _)| name == n) {
                    Some((_, existing)) => *existing = combine(existing, v),
                    None => out.push((n.clone(), v.clone())),
                }
            }
            out.sort_by(|x, y| x.0.cmp(&y.0));
            out
        }
        Report {
            counters: unioned(&self.counters, &other.counters, |a, b| a.wrapping_add(*b)),
            gauges: unioned(&self.gauges, &other.gauges, |_, b| *b),
            histograms: unioned(&self.histograms, &other.histograms, |a, b| a.merge(b)),
        }
    }

    /// A copy without never-hit metrics: counters at zero and histograms
    /// with no samples. Gauges survive — `0.0` is a legitimate last
    /// written value, not evidence of silence. Pruned entries are merge
    /// identities, so `a.pruned().merge(&b) == a.merge(&b).pruned()`
    /// whenever `b` covers `a`'s names: dropping them loses nothing.
    pub fn pruned(&self) -> Report {
        Report {
            counters: self
                .counters
                .iter()
                .filter(|(_, v)| *v > 0)
                .cloned()
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .filter(|(_, s)| s.count > 0)
                .cloned()
                .collect(),
        }
    }

    /// Human-readable multi-line rendering (stable ordering). Metrics
    /// that never fired — zero counters, empty histograms — are omitted.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let r = self.pruned();
        for (name, v) in &r.counters {
            let _ = writeln!(out, "counter    {name:<40} {v}");
        }
        for (name, v) in &r.gauges {
            let _ = writeln!(out, "gauge      {name:<40} {v}");
        }
        for (name, s) in &r.histograms {
            let mean = s.mean().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "histogram  {name:<40} n={} mean={mean:.1} max_bucket_low={}",
                s.count,
                s.max_bucket_low().unwrap_or(0),
            );
        }
        out
    }
}

impl ToJson for Report {
    /// Serializes the [`pruned`](Report::pruned) view: zero counters and
    /// empty histograms are merge identities and carry no information.
    fn to_json(&self) -> Json {
        let r = self.pruned();
        Json::obj([
            (
                "counters",
                Json::Obj(
                    r.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    r.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    r.histograms
                        .iter()
                        .map(|(n, s)| (n.clone(), s.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Report {
    fn from_json(value: &Json) -> Result<Report, JsonError> {
        fn obj<'a>(value: &'a Json, key: &str) -> Result<&'a [(String, Json)], JsonError> {
            match value.get(key) {
                Some(Json::Obj(pairs)) => Ok(pairs),
                _ => Err(JsonError {
                    offset: 0,
                    reason: format!("missing object field '{key}'"),
                }),
            }
        }
        let counters = obj(value, "counters")?
            .iter()
            .map(|(n, v)| {
                v.as_usize()
                    .map(|x| (n.clone(), x as u64))
                    .ok_or_else(|| JsonError {
                        offset: 0,
                        reason: format!("counter '{n}' must be a non-negative integer"),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = obj(value, "gauges")?
            .iter()
            .map(|(n, v)| {
                v.as_f64().map(|x| (n.clone(), x)).ok_or_else(|| JsonError {
                    offset: 0,
                    reason: format!("gauge '{n}' must be a number"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = obj(value, "histograms")?
            .iter()
            .map(|(n, v)| HistogramSnapshot::from_json(v).map(|s| (n.clone(), s)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Value of the named gauge in `r`, if registered.
    fn gauge_value(r: &Report, name: &str) -> Option<f64> {
        r.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    // Metric names in this module are unique per test so the process-wide
    // registry keeps tests independent even when they run concurrently.
    // Tests here only ever turn recording on; the disabled path lives in
    // `tests/obs_disabled.rs`, its own process, so switching the global
    // flag off cannot race a sibling that is recording.

    #[test]
    fn counter_accumulates_when_enabled() {
        let c = counter("test.obs.counter_accumulates");
        let before = c.total();
        set_enabled(true);
        c.add(3);
        c.add(4);
        assert_eq!(c.total() - before, 7);
    }

    #[test]
    fn counter_handles_are_shared_by_name() {
        let a = counter("test.obs.shared_name");
        let b = counter("test.obs.shared_name");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_low(0), 0);
        assert_eq!(bucket_low(1), 1);
        assert_eq!(bucket_low(4), 8);
        for v in [0u64, 1, 7, 1 << 20, u64::MAX] {
            let i = bucket_of(v);
            assert!(bucket_low(i) <= v);
            if i + 1 < HIST_BUCKETS {
                assert!(v < bucket_low(i + 1));
            }
        }
    }

    #[test]
    fn histogram_snapshot_and_stats() {
        set_enabled(true);
        let h = histogram("test.obs.hist_stats");
        for v in [0u64, 1, 1, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1007);
        assert_eq!(s.mean(), Some(1007.0 / 5.0));
        assert_eq!(s.max_bucket_low(), Some(512));
        assert_eq!(
            s.buckets,
            vec![(0, 1), (1, 2), (3, 1), (10, 1)],
            "buckets {:?}",
            s.buckets
        );
    }

    #[test]
    fn snapshot_merge_matches_concatenation() {
        let a = HistogramSnapshot::from_values(&[1, 2, 3, 900]);
        let b = HistogramSnapshot::from_values(&[0, 5, 70]);
        let both = HistogramSnapshot::from_values(&[1, 2, 3, 900, 0, 5, 70]);
        assert_eq!(a.merge(&b), both);
        assert_eq!(b.merge(&a), both);
    }

    #[test]
    fn gauge_last_writer_wins() {
        set_enabled(true);
        let g = gauge("test.obs.gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn timer_records_into_histogram() {
        set_enabled(true);
        let h = histogram("test.obs.timer_hist");
        let before = h.snapshot().count;
        {
            let _t = Timer::start(h);
            std::hint::black_box(17u64 * 13);
        }
        assert_eq!(h.snapshot().count, before + 1);
    }

    #[test]
    fn macros_compile_and_record() {
        set_enabled(true);
        obs_count!("test.obs.macro_counter", 2);
        obs_count!("test.obs.macro_counter", 3);
        obs_gauge!("test.obs.macro_gauge", 4.5);
        {
            let _span = span!("test.obs.macro_span");
        }
        let r = report();
        assert_eq!(r.counter("test.obs.macro_counter"), Some(5));
        assert_eq!(gauge_value(&r, "test.obs.macro_gauge"), Some(4.5));
        assert!(r.histogram("test.obs.macro_span").unwrap().count >= 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        set_enabled(true);
        counter("test.obs.rt_counter").add(42);
        gauge("test.obs.rt_gauge").set(0.125);
        histogram("test.obs.rt_hist").record(999);
        let r = report();
        let text = r.to_json().dump();
        let back = Report::from_json(&Json::parse(&text).expect("parse")).expect("from_json");
        // JSON carries the pruned view; merge semantics are unchanged
        // because the dropped entries are merge identities.
        assert_eq!(back, r.pruned());
        assert_eq!(back.counter("test.obs.rt_counter"), Some(42));
    }

    #[test]
    fn json_omits_zero_count_metrics() {
        set_enabled(true);
        counter("test.obs.zero_counter"); // registered, never incremented
        histogram("test.obs.zero_hist"); // registered, never recorded
        counter("test.obs.nonzero_counter").add(1);
        let text = report().to_json().dump();
        assert!(!text.contains("test.obs.zero_counter"));
        assert!(!text.contains("test.obs.zero_hist"));
        assert!(text.contains("test.obs.nonzero_counter"));
        let rendered = report().render();
        assert!(!rendered.contains("test.obs.zero_counter"));
        assert!(!rendered.contains("test.obs.zero_hist"));
    }

    #[test]
    fn pruning_preserves_merge_semantics() {
        let a = Report {
            counters: vec![("c.live".into(), 3), ("c.zero".into(), 0)],
            gauges: vec![("g".into(), 1.5)],
            histograms: vec![
                ("h.empty".into(), HistogramSnapshot::default()),
                ("h.live".into(), HistogramSnapshot::from_values(&[7, 9])),
            ],
        };
        let b = Report {
            counters: vec![("c.live".into(), 2), ("c.zero".into(), 5)],
            gauges: vec![("g".into(), 2.5)],
            histograms: vec![
                ("h.empty".into(), HistogramSnapshot::from_values(&[1])),
                ("h.live".into(), HistogramSnapshot::from_values(&[4])),
            ],
        };
        // Zero entries are merge identities: pruning before the merge
        // changes nothing as long as the other side names them.
        assert_eq!(a.pruned().merge(&b), a.merge(&b).pruned());
        assert_eq!(a.merge(&b).counter("c.live"), Some(5));
        assert_eq!(gauge_value(&a.merge(&b), "g"), Some(2.5));
    }

    #[test]
    fn delta_then_merge_recovers_later_snapshot() {
        set_enabled(true);
        counter("test.obs.delta_counter").add(10);
        histogram("test.obs.delta_hist").record(100);
        let prev = report();
        counter("test.obs.delta_counter").add(7);
        histogram("test.obs.delta_hist").record(2000);
        gauge("test.obs.delta_gauge").set(3.25);
        let cur = report();
        let d = cur.delta(&prev);
        assert_eq!(d.counter("test.obs.delta_counter"), Some(7));
        assert_eq!(d.histogram("test.obs.delta_hist").unwrap().count, 1);
        assert_eq!(gauge_value(&d, "test.obs.delta_gauge"), Some(3.25));
        assert_eq!(prev.merge(&d), cur);
        // Self-delta is all-zero; reversed order saturates instead of wrapping.
        for (n, v) in &cur.delta(&cur).counters {
            assert_eq!(*v, 0, "counter {n} nonzero in self-delta");
        }
        assert_eq!(prev.delta(&cur).counter("test.obs.delta_counter"), Some(0));
    }

    #[test]
    fn render_lists_every_metric_kind() {
        set_enabled(true);
        counter("test.obs.render_counter").add(1);
        gauge("test.obs.render_gauge").set(2.0);
        histogram("test.obs.render_hist").record(3);
        let text = report().render();
        assert!(text.contains("test.obs.render_counter"));
        assert!(text.contains("test.obs.render_gauge"));
        assert!(text.contains("test.obs.render_hist"));
    }
}
