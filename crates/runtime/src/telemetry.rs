//! Flight recorder: live heartbeats over the [`obs`] layer.
//!
//! `obs` and `trace` only answer questions *after* a run finishes. The
//! flight recorder closes that gap for long campaigns and resident
//! services: a sampler thread wakes on a fixed interval, snapshots the
//! metric registry, diffs it against the previous snapshot with
//! [`Report::delta`], and appends one JSON object per heartbeat —
//! newline-delimited, flushed per line — to any `Write` sink. Each line
//! carries the sequence number, wall-clock offsets, nonzero counter
//! deltas, derived per-second rates, gauge values, and span (histogram)
//! activity for the interval, so an operator can `tail -f` a live run or
//! feed the stream to a dashboard without touching the hot path.
//!
//! Cost model: the recorded process pays only what it already pays for
//! `obs` — the sampler reads the same relaxed atomics `report()` reads,
//! on its own thread, a few times per second. With observability off
//! nothing records, every delta is empty, and output bytes of the
//! workload itself are unchanged (the recorder never writes to stdout).

use crate::json::Json;
use crate::obs::{self, Report};
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One heartbeat: the interval delta plus the cumulative totals at the
/// moment the sample was taken.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Heartbeat index, starting at 0 (the baseline sample).
    pub seq: u64,
    /// Seconds since the recorder started.
    pub(crate) elapsed_s: f64,
    /// Seconds covered by this interval (since the previous heartbeat).
    pub(crate) dt_s: f64,
    /// Interval difference: counter/histogram deltas, current gauges.
    pub(crate) delta: Report,
    /// Cumulative registry snapshot at sample time.
    pub totals: Report,
}

impl Snapshot {
    /// Per-second rate of a counter over this interval (`None` when the
    /// counter is unknown; 0.0 for an idle interval).
    pub fn rate(&self, counter: &str) -> Option<f64> {
        let d = self.delta.counter(counter)?;
        Some(d as f64 / self.dt_s.max(1e-9))
    }

    /// The NDJSON line body (no trailing newline). Only metrics that
    /// moved during the interval appear; `rates` mirrors `counters`
    /// divided by the interval length.
    pub(crate) fn to_json(&self) -> Json {
        let dt = self.dt_s.max(1e-9);
        let active: Vec<(&String, u64)> = self
            .delta
            .counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(n, v)| (n, *v))
            .collect();
        let counters = Json::Obj(
            active
                .iter()
                .map(|(n, v)| ((*n).clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let rates = Json::Obj(
            active
                .iter()
                .map(|(n, v)| ((*n).clone(), Json::Num(*v as f64 / dt)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.delta
                .gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        );
        let spans = Json::Obj(
            self.delta
                .histograms
                .iter()
                .filter(|(_, s)| s.count > 0)
                .map(|(n, s)| {
                    (
                        n.clone(),
                        Json::obj([
                            ("count", (s.count as f64).into()),
                            ("mean_ns", s.mean().unwrap_or(0.0).into()),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("seq", (self.seq as f64).into()),
            ("elapsed_s", self.elapsed_s.into()),
            ("dt_s", self.dt_s.into()),
            ("counters", counters),
            ("rates", rates),
            ("gauges", gauges),
            ("spans", spans),
        ])
    }
}

/// Handle to a running flight recorder; [`stop`](FlightRecorder::stop)
/// it to emit the final heartbeat and flush the sink.
#[derive(Debug)]
pub struct FlightRecorder {
    stop_tx: Sender<()>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

/// Starts a recorder emitting one NDJSON heartbeat per `interval` to
/// `sink`, calling `on_snapshot` with every [`Snapshot`] after it is
/// written — the hook `reproduce campaign --live` uses for progress lines
/// without parsing its own output file. Heartbeat 0 is an immediate
/// all-zero-delta baseline; one final heartbeat is emitted on
/// [`stop`](FlightRecorder::stop), so even an instant run yields at least
/// two lines.
pub fn start_with<W, F>(interval: Duration, mut sink: W, mut on_snapshot: F) -> FlightRecorder
where
    W: Write + Send + 'static,
    F: FnMut(&Snapshot) + Send + 'static,
{
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    // Seed `prev` with the current registry state so heartbeat 0 is a
    // clean baseline instead of a lifetime-sized "delta". Taken on the
    // caller's thread: anything counted after `start_with` returns lands in
    // an interval delta even when the sampler thread is scheduled late.
    let baseline = obs::report();
    let t0 = Instant::now();
    let handle = std::thread::Builder::new()
        .name("ivn-flight-recorder".into())
        .spawn(move || -> std::io::Result<()> {
            let mut prev = baseline;
            let mut prev_t = t0;
            let mut seq = 0u64;
            let mut emit = |sink: &mut W,
                            prev: &mut Report,
                            prev_t: &mut Instant,
                            seq: &mut u64|
             -> std::io::Result<()> {
                let totals = obs::report();
                let now = Instant::now();
                let snap = Snapshot {
                    seq: *seq,
                    elapsed_s: now.duration_since(t0).as_secs_f64(),
                    dt_s: now.duration_since(*prev_t).as_secs_f64(),
                    delta: totals.delta(prev),
                    totals: totals.clone(),
                };
                writeln!(sink, "{}", snap.to_json().dump())?;
                sink.flush()?;
                on_snapshot(&snap);
                *prev = totals;
                *prev_t = now;
                *seq += 1;
                Ok(())
            };
            emit(&mut sink, &mut prev, &mut prev_t, &mut seq)?;
            // Beat until a stop is requested or the handle is dropped.
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                emit(&mut sink, &mut prev, &mut prev_t, &mut seq)?;
            }
            emit(&mut sink, &mut prev, &mut prev_t, &mut seq)
        })
        .expect("spawn flight recorder thread");
    FlightRecorder {
        stop_tx,
        handle: Some(handle),
    }
}

impl FlightRecorder {
    /// Signals the sampler, waits for the final heartbeat, and returns
    /// any I/O error the sink produced along the way.
    pub fn stop(mut self) -> std::io::Result<()> {
        let _ = self.stop_tx.send(());
        match self.handle.take() {
            Some(h) => h.join().expect("flight recorder thread panicked"),
            None => Ok(()),
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // Dropping without `stop()` still shuts the thread down (the
        // channel disconnects); the final heartbeat's write result is
        // deliberately discarded.
        let _ = self.stop_tx.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Validates a heartbeat stream: every line parses as JSON, `seq` runs
/// 0,1,2,… with no gaps, `elapsed_s` is non-decreasing, and each line
/// carries `counters`/`rates`/`gauges` objects. Returns the number of
/// heartbeats.
pub fn validate_ndjson(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    let mut last_elapsed = -1.0f64;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {:?}", lineno + 1, e))?;
        let seq = v
            .get("seq")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("line {}: missing integer 'seq'", lineno + 1))?;
        if seq != n {
            return Err(format!("line {}: seq {} (expected {})", lineno + 1, seq, n));
        }
        let elapsed = v
            .get("elapsed_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing 'elapsed_s'", lineno + 1))?;
        if elapsed < last_elapsed {
            return Err(format!("line {}: elapsed_s went backwards", lineno + 1));
        }
        last_elapsed = elapsed;
        for key in ["counters", "rates", "gauges"] {
            match v.get(key) {
                Some(Json::Obj(_)) => {}
                _ => return Err(format!("line {}: missing object '{key}'", lineno + 1)),
            }
        }
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` sink the test can inspect after the recorder stops.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn recorder_emits_validated_stream() {
        obs::set_enabled(true);
        let buf = SharedBuf::default();
        let rec = start_with(Duration::from_millis(5), buf.clone(), |_| {});
        obs::counter("test.telemetry.beats").add(11);
        // Wait until the sampler has actually ticked >= 3 times rather
        // than sleeping a fixed interval: on a loaded 1-core test
        // runner the recorder thread can be starved for tens of
        // milliseconds at a stretch.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let lines = buf
                .0
                .lock()
                .unwrap()
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            if lines >= 3 || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        obs::counter("test.telemetry.beats").add(4);
        rec.stop().expect("recorder I/O");
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let n = validate_ndjson(&text).expect("well-formed NDJSON");
        assert!(n >= 3, "expected >= 3 heartbeats, got {n}:\n{text}");
        // The 15 increments must appear across the interval deltas.
        let total: f64 = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter_map(|v| {
                v.get("counters")
                    .and_then(|c| c.get("test.telemetry.beats"))
                    .and_then(Json::as_f64)
            })
            .sum();
        assert!(total >= 15.0, "deltas sum to {total}:\n{text}");
        assert!(text.contains("\"rates\""));
    }

    #[test]
    fn validator_rejects_broken_streams() {
        assert!(validate_ndjson("not json\n").is_err());
        let good = "{\"seq\":0,\"elapsed_s\":0.0,\"counters\":{},\"rates\":{},\"gauges\":{}}";
        assert_eq!(validate_ndjson(good).unwrap(), 1);
        let gap = format!("{good}\n{}", good.replace("\"seq\":0", "\"seq\":2"));
        assert!(validate_ndjson(&gap).is_err(), "seq gap must fail");
        let missing = "{\"seq\":0,\"elapsed_s\":0.0,\"counters\":{}}";
        assert!(validate_ndjson(missing).is_err(), "missing keys must fail");
    }
}
