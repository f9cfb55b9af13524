//! Timeline tracing: a per-thread, lock-free ring-buffer event recorder
//! with a Chrome Trace Event Format exporter.
//!
//! Where [`obs`](crate::obs) aggregates (counters, histograms), `trace`
//! records *when*: begin/end span events, instant markers and counter-track
//! samples, each stamped with a monotonic nanosecond timestamp and the
//! recording thread's track id. The contract matches `obs`:
//!
//! * **off by default, free when off** — every emit site is one relaxed
//!   load and an untaken branch;
//! * **zero allocation on the hot path** — events go into a fixed-capacity
//!   per-thread ring of atomic slots (overwrite-oldest), names are interned
//!   `&'static str`s cached per call site;
//! * **write-only** — recording can never perturb simulation results
//!   (`tests/determinism.rs` pins this).
//!
//! A [`snapshot`] drains the rings into a [`Trace`], which exports to
//! Chrome Trace Event Format JSON ([`Trace::to_chrome_json`]) loadable in
//! `chrome://tracing` or Perfetto, via the in-tree [`json`](crate::json)
//! module. [`Trace::from_chrome_json`] parses the same format back, so the
//! `trace_report` analyzer round-trips without external crates.
//!
//! Worker threads from [`par`](crate::par) are ephemeral (fresh threads per
//! `thread::scope`), so rings live in a global pool: a thread leases a
//! track for its lifetime and returns it to a free list on exit. Track ids
//! therefore map to *worker slots*, not OS threads — exactly the lanes you
//! want to see in a timeline view.

use crate::json::{Json, JsonError};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global enable flag and epoch.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns timeline recording on or off globally.
///
/// The first enable pins the trace epoch (timestamp zero). Flip only at
/// quiescent points (no concurrent recording) for clean traces; flipping
/// mid-span merely drops that span's end event at export.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether timeline recording is on — one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

// ---------------------------------------------------------------------
// Name interning.
// ---------------------------------------------------------------------

/// An interned event-name id, cheap to copy into ring slots.
///
/// Obtain one from [`intern`]; macros cache it per call site in a
/// `OnceLock` so steady-state emission never touches the intern table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token(u32);

fn names() -> MutexGuard<'static, Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Interns `name`, returning its [`Token`]. Idempotent; takes a global
/// lock, so cache the result (the `trace_*!` macros do).
pub fn intern(name: &'static str) -> Token {
    let mut table = names();
    if let Some(i) = table.iter().position(|n| *n == name) {
        return Token(i as u32);
    }
    table.push(name);
    Token((table.len() - 1) as u32)
}

fn name_of(id: u32) -> &'static str {
    names().get(id as usize).copied().unwrap_or("<unknown>")
}

// ---------------------------------------------------------------------
// Tracks: per-thread rings of seqlock-stamped atomic slots.
// ---------------------------------------------------------------------

const KIND_BEGIN: u32 = 0;
const KIND_END: u32 = 1;
const KIND_INSTANT: u32 = 2;
const KIND_COUNTER: u32 = 3;

const DEFAULT_TRACK_CAPACITY: usize = 8192;

/// Events retained per track (newest win once a ring wraps). Fixed for the
/// process; override with `IVN_TRACE_CAP` before the first event.
pub fn track_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("IVN_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_TRACK_CAPACITY)
    })
}

/// One ring slot. `seq` is a seqlock stamp: 0 while a write is in flight,
/// `event_index + 1` once the fields are published. Everything is a plain
/// atomic — the recorder needs no `unsafe` (the workspace denies it).
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    name: AtomicU32,
    kind: AtomicU32,
    ts_ns: AtomicU64,
    bits: AtomicU64,
}

struct Track {
    id: u32,
    /// Monotonic count of events ever emitted on this track; the live
    /// window is the last `min(head, capacity)` of them.
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl Track {
    #[inline]
    fn emit(&self, kind: u32, tok: Token, bits: u64) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.name.store(tok.0, Ordering::Relaxed);
        slot.kind.store(kind, Ordering::Relaxed);
        slot.ts_ns.store(now_ns(), Ordering::Relaxed);
        slot.bits.store(bits, Ordering::Relaxed);
        slot.seq.store(i + 1, Ordering::Release);
    }
}

struct TrackRegistry {
    all: Mutex<Vec<&'static Track>>,
    free: Mutex<Vec<&'static Track>>,
}

fn registry() -> &'static TrackRegistry {
    static REGISTRY: OnceLock<TrackRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| TrackRegistry {
        all: Mutex::new(Vec::new()),
        free: Mutex::new(Vec::new()),
    })
}

/// Returns a leased track to the free pool when its thread exits, so the
/// ephemeral `par` worker threads reuse a bounded set of rings.
struct TrackLease(&'static Track);

impl Drop for TrackLease {
    fn drop(&mut self) {
        let reg = registry();
        reg.free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(self.0);
    }
}

thread_local! {
    static MY_TRACK: OnceCell<TrackLease> = const { OnceCell::new() };
}

fn acquire_track() -> &'static Track {
    let reg = registry();
    if let Some(t) = reg.free.lock().unwrap_or_else(|e| e.into_inner()).pop() {
        return t;
    }
    let mut all = reg.all.lock().unwrap_or_else(|e| e.into_inner());
    let track: &'static Track = Box::leak(Box::new(Track {
        id: all.len() as u32,
        head: AtomicU64::new(0),
        slots: (0..track_capacity()).map(|_| Slot::default()).collect(),
    }));
    all.push(track);
    track
}

#[inline]
fn emit(kind: u32, tok: Token, bits: u64) {
    MY_TRACK.with(|cell| {
        cell.get_or_init(|| TrackLease(acquire_track()))
            .0
            .emit(kind, tok, bits)
    });
}

// ---------------------------------------------------------------------
// Emission API.
// ---------------------------------------------------------------------

/// Records an instant marker (no-op when tracing is off); what
/// [`trace_instant!`](crate::trace_instant) expands to.
#[inline]
pub fn instant(tok: Token) {
    if enabled() {
        emit(KIND_INSTANT, tok, 0);
    }
}

/// Records a counter-track sample — one point of a named time series,
/// e.g. a physics probe (no-op when tracing is off).
#[inline]
pub fn counter(tok: Token, value: f64) {
    if enabled() {
        emit(KIND_COUNTER, tok, value.to_bits());
    }
}

/// RAII guard emitting a begin event now and the matching end on drop.
///
/// Built by [`trace_span!`](crate::trace_span) (and by
/// [`span!`](crate::span), which pairs it with an `obs` histogram timer).
#[must_use = "a trace span emits its end event on drop; bind it with `let _t = ...`"]
#[derive(Debug)]
pub struct TraceSpan {
    tok: Option<Token>,
}

impl TraceSpan {
    /// Emits the begin event and arms the end event (no-op when off).
    #[inline]
    pub fn enter(tok: Token) -> TraceSpan {
        if enabled() {
            emit(KIND_BEGIN, tok, 0);
            TraceSpan { tok: Some(tok) }
        } else {
            TraceSpan::noop()
        }
    }

    /// A guard that emits nothing.
    #[inline]
    pub fn noop() -> TraceSpan {
        TraceSpan { tok: None }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(tok) = self.tok.take() {
            // Unconditional: if tracing was disabled mid-span the orphan
            // end is dropped by the balancing pass at export.
            emit(KIND_END, tok, 0);
        }
    }
}

/// Opens a timeline-only span over the enclosing scope (token cached per
/// call site). Use [`span!`](crate::span) instead where an `obs` duration
/// histogram is also wanted.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {{
        if $crate::trace::enabled() {
            static TOK: std::sync::OnceLock<$crate::trace::Token> = std::sync::OnceLock::new();
            $crate::trace::TraceSpan::enter(*TOK.get_or_init(|| $crate::trace::intern($name)))
        } else {
            $crate::trace::TraceSpan::noop()
        }
    }};
}

/// Samples a named counter track (token cached per call site). One relaxed
/// load and an untaken branch when tracing is off — and `$value` is not
/// evaluated, so probe math costs nothing while disabled.
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $value:expr) => {
        if $crate::trace::enabled() {
            static TOK: std::sync::OnceLock<$crate::trace::Token> = std::sync::OnceLock::new();
            $crate::trace::counter(*TOK.get_or_init(|| $crate::trace::intern($name)), $value);
        }
    };
}

/// Drops a named instant marker on the current track (token cached per
/// call site).
#[macro_export]
macro_rules! trace_instant {
    ($name:expr) => {
        if $crate::trace::enabled() {
            static TOK: std::sync::OnceLock<$crate::trace::Token> = std::sync::OnceLock::new();
            $crate::trace::instant(*TOK.get_or_init(|| $crate::trace::intern($name)));
        }
    };
}

// ---------------------------------------------------------------------
// Snapshot.
// ---------------------------------------------------------------------

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened (`ph: "B"`).
    Begin,
    /// Span closed (`ph: "E"`).
    End,
    /// Instant marker (`ph: "i"`).
    Instant,
    /// Counter-track sample (`ph: "C"`).
    Counter,
}

/// One decoded timeline event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Interned event name, resolved.
    pub name: String,
    /// What happened.
    pub kind: EventKind,
    /// Recording track (worker-slot lane; Chrome `tid`).
    pub track: u32,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Sample value for [`EventKind::Counter`] events, `0.0` otherwise.
    pub value: f64,
}

/// A decoded snapshot of every track, globally ordered by timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Events sorted by `ts_ns` (ties keep per-track emission order).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound or torn mid-snapshot writes.
    pub dropped: u64,
}

/// Decodes the live window of every track into a [`Trace`].
///
/// Intended at quiescent points (end of run, between phases); events being
/// overwritten concurrently are detected via their seqlock stamp and
/// counted in [`Trace::dropped`] rather than decoded torn.
pub fn snapshot() -> Trace {
    let all = registry().all.lock().unwrap_or_else(|e| e.into_inner());
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for track in all.iter() {
        let head = track.head.load(Ordering::Acquire);
        let cap = track.slots.len() as u64;
        let start = head.saturating_sub(cap);
        dropped += start;
        for i in start..head {
            let slot = &track.slots[(i % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != i + 1 {
                dropped += 1;
                continue;
            }
            let name_id = slot.name.load(Ordering::Acquire);
            let kind = slot.kind.load(Ordering::Acquire);
            let ts_ns = slot.ts_ns.load(Ordering::Acquire);
            let bits = slot.bits.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != i + 1 {
                dropped += 1;
                continue;
            }
            let kind = match kind {
                KIND_BEGIN => EventKind::Begin,
                KIND_END => EventKind::End,
                KIND_INSTANT => EventKind::Instant,
                _ => EventKind::Counter,
            };
            events.push(TraceEvent {
                name: name_of(name_id).to_string(),
                kind,
                track: track.id,
                ts_ns,
                value: if kind == EventKind::Counter {
                    f64::from_bits(bits)
                } else {
                    0.0
                },
            });
        }
    }
    // Stable sort: equal timestamps keep per-track emission order.
    events.sort_by_key(|e| e.ts_ns);
    Trace { events, dropped }
}

/// Clears every track (and its wraparound accounting). Call only at
/// quiescent points — concurrent emits during a reset may be lost.
pub fn reset() {
    let all = registry().all.lock().unwrap_or_else(|e| e.into_inner());
    for track in all.iter() {
        track.head.store(0, Ordering::SeqCst);
        for slot in &track.slots {
            slot.seq.store(0, Ordering::SeqCst);
        }
    }
}

// ---------------------------------------------------------------------
// Chrome Trace Event Format export / import.
// ---------------------------------------------------------------------

const PID: f64 = 1.0;

impl Trace {
    /// Exports to Chrome Trace Event Format (the `traceEvents` JSON shape
    /// that `chrome://tracing` and Perfetto load).
    ///
    /// The export is *balanced by construction*: per track, an `E` with no
    /// matching open `B` (its begin was overwritten in the ring) and a `B`
    /// never closed before the snapshot are both omitted, so every emitted
    /// `B` has exactly one matching `E`.
    pub fn to_chrome_json(&self) -> Json {
        let keep = self.balanced_mask();
        let mut records = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let ts_us = e.ts_ns as f64 / 1000.0;
            let mut fields = vec![
                ("name".to_string(), Json::Str(e.name.clone())),
                ("ph".to_string(), Json::Str(ph_of(e.kind).to_string())),
                ("pid".to_string(), Json::Num(PID)),
                ("tid".to_string(), Json::Num(e.track as f64)),
                ("ts".to_string(), Json::Num(ts_us)),
            ];
            match e.kind {
                EventKind::Counter => fields.push((
                    "args".to_string(),
                    Json::obj([("value", Json::Num(e.value))]),
                )),
                EventKind::Instant => {
                    // Thread-scoped instant marker.
                    fields.push(("s".to_string(), Json::Str("t".to_string())));
                }
                _ => {}
            }
            records.push(Json::Obj(fields));
        }
        Json::obj([
            ("traceEvents", Json::Arr(records)),
            ("displayTimeUnit", Json::Str("ns".to_string())),
            (
                "metadata",
                Json::obj([("dropped_events", Json::Num(self.dropped as f64))]),
            ),
        ])
    }

    /// Parses a Chrome Trace Event Format document produced by
    /// [`Trace::to_chrome_json`] (unknown phase letters are skipped, so
    /// externally-edited traces with `X`/`M` records still load).
    pub fn from_chrome_json(doc: &Json) -> Result<Trace, JsonError> {
        let records = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or_else(|| jerr("missing traceEvents array"))?;
        let mut events = Vec::new();
        for r in records {
            let kind = match r.get("ph").and_then(Json::as_str) {
                Some("B") => EventKind::Begin,
                Some("E") => EventKind::End,
                Some("i") => EventKind::Instant,
                Some("C") => EventKind::Counter,
                _ => continue,
            };
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| jerr("trace event missing name"))?
                .to_string();
            let ts_us = r
                .get("ts")
                .and_then(Json::as_f64)
                .ok_or_else(|| jerr("trace event missing ts"))?;
            let track = r.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u32;
            let value = match kind {
                EventKind::Counter => r
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                _ => 0.0,
            };
            events.push(TraceEvent {
                name,
                kind,
                track,
                // Exact inverse of ns→µs as long as the rounding error of
                // the division stays under half a nanosecond (it does for
                // any run shorter than ~2^52 ns ≈ 52 days).
                ts_ns: (ts_us * 1000.0).round().max(0.0) as u64,
                value,
            });
        }
        let dropped = doc
            .get("metadata")
            .and_then(|m| m.get("dropped_events"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        Ok(Trace { events, dropped })
    }

    /// Verifies every `B` has a matching, properly nested `E` on its
    /// track. Returns the matched span count, or a description of the
    /// first violation.
    pub fn check_balanced(&self) -> Result<usize, String> {
        let mut stacks: Vec<(u32, Vec<&str>)> = Vec::new();
        let mut matched = 0usize;
        for e in &self.events {
            let idx = match stacks.iter().position(|(t, _)| *t == e.track) {
                Some(i) => i,
                None => {
                    stacks.push((e.track, Vec::new()));
                    stacks.len() - 1
                }
            };
            let stack = &mut stacks[idx].1;
            match e.kind {
                EventKind::Begin => stack.push(&e.name),
                EventKind::End => match stack.pop() {
                    Some(open) if open == e.name => matched += 1,
                    Some(open) => {
                        return Err(format!(
                            "track {}: end '{}' closes open span '{}'",
                            e.track, e.name, open
                        ))
                    }
                    None => {
                        return Err(format!(
                            "track {}: end '{}' with no open span",
                            e.track, e.name
                        ))
                    }
                },
                _ => {}
            }
        }
        for (track, stack) in &stacks {
            if let Some(open) = stack.last() {
                return Err(format!("track {track}: span '{open}' never closed"));
            }
        }
        Ok(matched)
    }

    /// Per-event keep mask making span events balanced per track (see
    /// [`Trace::to_chrome_json`]).
    fn balanced_mask(&self) -> Vec<bool> {
        let mut keep = vec![true; self.events.len()];
        let mut tracks: Vec<u32> = self.events.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for track in tracks {
            let mut open: Vec<usize> = Vec::new();
            for (i, e) in self.events.iter().enumerate() {
                if e.track != track {
                    continue;
                }
                match e.kind {
                    EventKind::Begin => open.push(i),
                    EventKind::End => match open.last() {
                        Some(&b) if self.events[b].name == e.name => {
                            open.pop();
                        }
                        // Orphan or mismatched end: begin was lost to the
                        // ring or tracing toggled mid-span.
                        _ => keep[i] = false,
                    },
                    _ => {}
                }
            }
            for b in open {
                keep[b] = false;
            }
        }
        keep
    }
}

fn jerr(reason: &str) -> JsonError {
    JsonError {
        offset: 0,
        reason: reason.to_string(),
    }
}

fn ph_of(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
        EventKind::Counter => "C",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state (enable flag, rings) is process-global; serialize the
    /// tests that mutate it and filter snapshots by test-unique names.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn mine<'a>(trace: &'a Trace, prefix: &str) -> Vec<&'a TraceEvent> {
        trace
            .events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .collect()
    }

    #[test]
    fn disabled_emits_nothing() {
        let _guard = serial();
        set_enabled(false);
        let tok = intern("ut.disabled");
        drop(TraceSpan::enter(tok));
        counter(tok, 1.0);
        instant(tok);
        assert!(mine(&snapshot(), "ut.disabled").is_empty());
    }

    #[test]
    fn span_counter_instant_round_trip() {
        let _guard = serial();
        set_enabled(true);
        {
            let _s = crate::trace_span!("ut.rt.span");
            crate::trace_counter!("ut.rt.counter", 2.5);
            crate::trace_instant!("ut.rt.mark");
        }
        set_enabled(false);
        let snap = snapshot();
        let ours = mine(&snap, "ut.rt.");
        assert_eq!(ours.len(), 4, "B, C, i, E expected: {ours:?}");
        assert_eq!(ours[0].kind, EventKind::Begin);
        assert_eq!(ours[3].kind, EventKind::End);
        let c = ours.iter().find(|e| e.kind == EventKind::Counter).unwrap();
        assert_eq!(c.value, 2.5);
        // Timestamps are monotone within the span.
        assert!(ours[0].ts_ns <= ours[3].ts_ns);

        // Chrome JSON → text → parse → Trace matches the filtered view.
        let doc = snap.to_chrome_json();
        let parsed = Trace::from_chrome_json(&Json::parse(&doc.dump()).unwrap()).unwrap();
        let back = mine(&parsed, "ut.rt.");
        assert_eq!(back.len(), 4);
        for (a, b) in ours.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.ts_ns, b.ts_ns, "µs round trip must be ns-exact");
            assert_eq!(a.value, b.value);
        }
        parsed.check_balanced().expect("exported trace balances");
    }

    #[test]
    fn export_drops_orphan_ends_and_unclosed_begins() {
        let _guard = serial();
        set_enabled(true);
        let orphan = intern("ut.orphan");
        let unclosed = intern("ut.unclosed");
        emit(KIND_END, orphan, 0); // no begin: must not survive export
        emit(KIND_BEGIN, unclosed, 0); // never ended: must not survive export
        set_enabled(false);
        let doc = snapshot().to_chrome_json();
        let exported = Trace::from_chrome_json(&doc).unwrap();
        assert!(mine(&exported, "ut.orphan").is_empty());
        assert!(mine(&exported, "ut.unclosed").is_empty());
        exported.check_balanced().expect("still balanced");
    }

    #[test]
    fn check_balanced_rejects_bad_nesting() {
        let ev = |name: &str, kind| TraceEvent {
            name: name.to_string(),
            kind,
            track: 0,
            ts_ns: 0,
            value: 0.0,
        };
        let bad = Trace {
            events: vec![
                ev("a", EventKind::Begin),
                ev("b", EventKind::Begin),
                ev("a", EventKind::End),
            ],
            dropped: 0,
        };
        assert!(bad.check_balanced().is_err());
        let good = Trace {
            events: vec![
                ev("a", EventKind::Begin),
                ev("b", EventKind::Begin),
                ev("b", EventKind::End),
                ev("a", EventKind::End),
            ],
            dropped: 0,
        };
        assert_eq!(good.check_balanced(), Ok(2));
    }

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(intern("ut.intern.same"), intern("ut.intern.same"));
        assert_ne!(intern("ut.intern.a"), intern("ut.intern.b"));
    }
}
