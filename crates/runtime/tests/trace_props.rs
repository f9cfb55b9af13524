//! Ring-buffer edge cases for `ivn_runtime::trace`: wraparound after
//! capacity events, concurrent emission from the `par` worker pool, and
//! empty-trace export validity.
//!
//! Trace state is process-global (enable flag, track rings shared through
//! the free-list), so every test takes one mutex and filters snapshots by
//! test-unique event names.

use ivn_runtime::json::Json;
use ivn_runtime::trace::{self, Trace, TraceEvent, TraceSpan};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn mine<'a>(t: &'a Trace, prefix: &str) -> Vec<&'a TraceEvent> {
    t.events
        .iter()
        .filter(|e| e.name.starts_with(prefix))
        .collect()
}

#[test]
fn wraparound_keeps_newest_events() {
    let _guard = serial();
    trace::reset();
    trace::set_enabled(true);
    let tok = trace::intern("props.wrap");
    let cap = trace::track_capacity();
    // Overfill this thread's ring by half a capacity; values encode
    // emission order.
    let total = cap + cap / 2;
    for i in 0..total {
        trace::counter(tok, i as f64);
    }
    trace::set_enabled(false);
    let snap = trace::snapshot();
    let ours = mine(&snap, "props.wrap");
    assert_eq!(ours.len(), cap, "ring retains exactly `capacity` events");
    assert!(snap.dropped >= (total - cap) as u64, "overflow counted");
    // The survivors are precisely the newest `cap` emissions, in order.
    for (k, e) in ours.iter().enumerate() {
        assert_eq!(e.value, (total - cap + k) as f64, "event {k}");
    }
    trace::reset();
}

#[test]
fn concurrent_emit_from_par_pool() {
    let _guard = serial();
    trace::reset();
    trace::set_enabled(true);
    const WORKERS: usize = 8;
    const TRIALS: usize = 16;
    const PER_TRIAL: usize = 10;
    let tok = trace::intern("props.par");
    let items: Vec<usize> = (0..TRIALS).collect();
    ivn_runtime::par::par_map_threads(WORKERS, &items, |_, &trial| {
        for k in 0..PER_TRIAL {
            trace::counter(tok, (trial * 1000 + k) as f64);
        }
        trial
    });
    trace::set_enabled(false);
    let snap = trace::snapshot();
    let ours = mine(&snap, "props.par");
    // Every event from every worker thread is present...
    assert_eq!(ours.len(), TRIALS * PER_TRIAL);
    for trial in 0..TRIALS {
        for k in 0..PER_TRIAL {
            let v = (trial * 1000 + k) as f64;
            assert!(
                ours.iter().any(|e| e.value == v),
                "missing event {trial}/{k}"
            );
        }
    }
    // ...and per-track (= per-thread) ordering is preserved: a trial runs
    // entirely on one thread, so within any track its samples must appear
    // in emission order (k strictly ascending).
    let mut tracks: Vec<u32> = ours.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        let mut last_k: Vec<(usize, usize)> = Vec::new(); // (trial, last k seen)
        for e in ours.iter().filter(|e| e.track == track) {
            let trial = (e.value as usize) / 1000;
            let k = (e.value as usize) % 1000;
            match last_k.iter_mut().find(|(t, _)| *t == trial) {
                Some((_, prev)) => {
                    assert!(k > *prev, "track {track}: trial {trial} out of order");
                    *prev = k;
                }
                None => last_k.push((trial, k)),
            }
        }
    }
    trace::reset();
}

#[test]
fn empty_trace_exports_valid_json() {
    let _guard = serial();
    trace::reset();
    let snap = trace::snapshot();
    let ours = mine(&snap, "props.");
    assert!(ours.is_empty(), "reset left events behind: {ours:?}");
    let doc = snap.to_chrome_json();
    let text = doc.dump();
    let parsed = Json::parse(&text).expect("exported empty trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array present");
    assert!(events.is_empty());
    let back = Trace::from_chrome_json(&parsed).expect("round trip");
    assert!(back.events.is_empty());
    assert_eq!(back.check_balanced(), Ok(0));
}

#[test]
fn export_balances_spans_across_wraparound() {
    let _guard = serial();
    trace::reset();
    trace::set_enabled(true);
    let outer = trace::intern("props.bal.outer");
    let inner = trace::intern("props.bal.inner");
    // An outer span whose begin is guaranteed to be overwritten: open it,
    // then flood the ring with inner spans past capacity.
    let outer_span = TraceSpan::enter(outer);
    let cap = trace::track_capacity();
    for _ in 0..(cap / 2 + 2) {
        drop(TraceSpan::enter(inner));
    }
    drop(outer_span);
    trace::set_enabled(false);
    let exported = Trace::from_chrome_json(&trace::snapshot().to_chrome_json()).unwrap();
    exported
        .check_balanced()
        .expect("export must balance even with the outer begin overwritten");
    let outers = mine(&exported, "props.bal.outer");
    assert!(
        outers.is_empty(),
        "orphan outer end must be dropped: {outers:?}"
    );
    let inners = mine(&exported, "props.bal.inner");
    assert!(!inners.is_empty() && inners.len().is_multiple_of(2));
    trace::reset();
}
