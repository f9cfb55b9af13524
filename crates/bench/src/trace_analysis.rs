//! Offline analysis of timeline traces: turns the flat event stream of an
//! [`ivn_runtime::trace::Trace`] into nested span intervals and derives
//! the numbers a profiler view would show — self-vs-total time per span
//! name, per-track utilization, the critical path, the widest idle gaps,
//! and counter-track (physics probe) statistics.
//!
//! The `trace_report` binary is a thin shell over [`analyze`] +
//! [`Analysis::render`]; keeping the logic here makes it unit-testable.

use ivn_runtime::trace::{EventKind, Trace};
use std::cmp::Reverse;

/// One matched begin/end pair, nested via `depth`/`parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Span name.
    pub name: String,
    /// Track (worker-slot lane) it ran on.
    pub(crate) track: u32,
    /// Begin timestamp, ns since trace epoch.
    pub(crate) start_ns: u64,
    /// End timestamp, ns since trace epoch.
    pub(crate) end_ns: u64,
    /// Nesting depth on its track (0 = top level).
    pub(crate) depth: usize,
    /// Index of the enclosing interval, if nested.
    pub(crate) parent: Option<usize>,
    /// Total duration of direct children, for self-time computation.
    pub(crate) child_ns: u64,
}

impl Interval {
    /// Wall duration of the interval.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration minus time spent in child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Aggregate over every interval sharing one span name.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NameStat {
    /// Span name.
    pub(crate) name: String,
    /// Number of intervals.
    pub(crate) count: usize,
    /// Sum of wall durations.
    pub(crate) total_ns: u64,
    /// Sum of self times (wall minus children).
    pub(crate) self_ns: u64,
}

/// Busy/idle accounting for one track.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrackStat {
    /// Track id.
    pub(crate) track: u32,
    /// Sum of top-level span durations on the track.
    pub(crate) busy_ns: u64,
    /// `busy_ns` over the whole trace wall time.
    pub(crate) utilization: f64,
    /// Matched span count on the track.
    pub(crate) spans: usize,
}

/// An idle stretch between consecutive top-level spans on one track.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Gap {
    /// Track id.
    pub(crate) track: u32,
    /// Gap start, ns since trace epoch.
    pub(crate) start_ns: u64,
    /// Gap width.
    pub(crate) width_ns: u64,
    /// Name of the span that follows the gap.
    pub(crate) before: String,
}

/// Min/max/last summary of one counter track (physics probe).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CounterStat {
    /// Counter name.
    pub(crate) name: String,
    /// Sample count.
    pub(crate) samples: usize,
    /// Smallest sample.
    pub(crate) min: f64,
    /// Largest sample.
    pub(crate) max: f64,
    /// Final sample.
    pub(crate) last: f64,
}

/// Everything [`analyze`] derives from a trace.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Matched intervals, grouped by track and start-ordered within each.
    pub intervals: Vec<Interval>,
    /// Trace wall time: last event minus first event.
    pub(crate) wall_ns: u64,
    /// Per-name aggregates, widest self time first.
    pub(crate) by_name: Vec<NameStat>,
    /// Per-track utilization, by track id.
    pub(crate) tracks: Vec<TrackStat>,
    /// Idle gaps between top-level spans, widest first.
    pub(crate) gaps: Vec<Gap>,
    /// The chain of longest-child spans under the longest top-level span.
    pub(crate) critical_path: Vec<usize>,
    /// Counter-track summaries.
    pub(crate) counters: Vec<CounterStat>,
}

/// Builds the full analysis. Unbalanced span events (orphan ends,
/// unclosed begins) are skipped, mirroring the exporter's balancing pass.
pub fn analyze(trace: &Trace) -> Analysis {
    let mut a = Analysis::default();
    let (first, last) = match (trace.events.first(), trace.events.last()) {
        (Some(f), Some(l)) => (f.ts_ns, l.ts_ns),
        _ => return a,
    };
    a.wall_ns = last.saturating_sub(first);

    // Match begin/end into intervals, per track, stack-wise.
    let mut track_ids: Vec<u32> = trace.events.iter().map(|e| e.track).collect();
    track_ids.sort_unstable();
    track_ids.dedup();
    for &track in &track_ids {
        let mut open: Vec<usize> = Vec::new();
        for e in trace.events.iter().filter(|e| e.track == track) {
            match e.kind {
                EventKind::Begin => {
                    let parent = open.last().copied();
                    a.intervals.push(Interval {
                        name: e.name.clone(),
                        track,
                        start_ns: e.ts_ns,
                        end_ns: e.ts_ns,
                        depth: open.len(),
                        parent,
                        child_ns: 0,
                    });
                    open.push(a.intervals.len() - 1);
                }
                EventKind::End => {
                    if let Some(&i) = open.last() {
                        if a.intervals[i].name == e.name {
                            open.pop();
                            a.intervals[i].end_ns = e.ts_ns;
                            if let Some(p) = a.intervals[i].parent {
                                a.intervals[p].child_ns += a.intervals[i].dur_ns();
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Unclosed begins: drop by zeroing (dur 0, never on any ranking).
        for i in open {
            a.intervals[i].end_ns = a.intervals[i].start_ns;
        }
    }
    // Intervals stay grouped by track, start-ordered within each track,
    // so `parent` indices remain valid.

    // Per-name aggregates.
    for iv in &a.intervals {
        match a.by_name.iter_mut().find(|s| s.name == iv.name) {
            Some(s) => {
                s.count += 1;
                s.total_ns += iv.dur_ns();
                s.self_ns += iv.self_ns();
            }
            None => a.by_name.push(NameStat {
                name: iv.name.clone(),
                count: 1,
                total_ns: iv.dur_ns(),
                self_ns: iv.self_ns(),
            }),
        }
    }
    a.by_name.sort_by_key(|x| Reverse(x.self_ns));

    // Per-track utilization and gaps between top-level spans.
    for &track in &track_ids {
        let tops: Vec<&Interval> = a
            .intervals
            .iter()
            .filter(|iv| iv.track == track && iv.depth == 0)
            .collect();
        let busy_ns: u64 = tops.iter().map(|iv| iv.dur_ns()).sum();
        let spans = a.intervals.iter().filter(|iv| iv.track == track).count();
        a.tracks.push(TrackStat {
            track,
            busy_ns,
            utilization: if a.wall_ns > 0 {
                busy_ns as f64 / a.wall_ns as f64
            } else {
                0.0
            },
            spans,
        });
        for pair in tops.windows(2) {
            let width = pair[1].start_ns.saturating_sub(pair[0].end_ns);
            if width > 0 {
                a.gaps.push(Gap {
                    track,
                    start_ns: pair[0].end_ns,
                    width_ns: width,
                    before: pair[1].name.clone(),
                });
            }
        }
    }
    a.gaps.sort_by_key(|x| Reverse(x.width_ns));

    // Critical path: from the longest top-level span, repeatedly descend
    // into the longest span it directly encloses (same track, inside it,
    // one level deeper).
    let mut cursor = a
        .intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.depth == 0)
        .max_by_key(|(_, iv)| iv.dur_ns())
        .map(|(i, _)| i);
    while let Some(i) = cursor {
        a.critical_path.push(i);
        let (track, depth, s, e) = {
            let iv = &a.intervals[i];
            (iv.track, iv.depth, iv.start_ns, iv.end_ns)
        };
        cursor = a
            .intervals
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.track == track && c.depth == depth + 1 && c.start_ns >= s && c.end_ns <= e
            })
            .max_by_key(|(_, c)| c.dur_ns())
            .map(|(j, _)| j);
    }

    // Counter tracks.
    for e in &trace.events {
        if e.kind != EventKind::Counter {
            continue;
        }
        match a.counters.iter_mut().find(|c| c.name == e.name) {
            Some(c) => {
                c.samples += 1;
                c.min = c.min.min(e.value);
                c.max = c.max.max(e.value);
                c.last = e.value;
            }
            None => a.counters.push(CounterStat {
                name: e.name.clone(),
                samples: 1,
                min: e.value,
                max: e.value,
                last: e.value,
            }),
        }
    }
    a
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl Analysis {
    /// Renders the profiler view: span table, track utilization, critical
    /// path, top-`k` gaps and counter summaries.
    pub fn render(&self, top_k: usize) -> String {
        let mut out = String::new();
        out += &format!(
            "trace: {} spans on {} tracks over {}\n",
            self.intervals.len(),
            self.tracks.len(),
            fmt_ns(self.wall_ns)
        );

        out += "\nspan name                          count       total        self\n";
        out += "----------------------------------------------------------------\n";
        for s in &self.by_name {
            out += &format!(
                "{:<32} {:>7} {:>11} {:>11}\n",
                s.name,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.self_ns)
            );
        }

        out += "\ntrack   busy        utilization  spans\n";
        for t in &self.tracks {
            out += &format!(
                "{:>5}   {:<11} {:>6.1}%     {:>5}\n",
                t.track,
                fmt_ns(t.busy_ns),
                100.0 * t.utilization,
                t.spans
            );
        }

        if !self.critical_path.is_empty() {
            out += "\ncritical path (longest top-level span, longest child chain):\n";
            for &i in &self.critical_path {
                let iv = &self.intervals[i];
                out += &format!(
                    "{:indent$}{} — {} (track {})\n",
                    "",
                    iv.name,
                    fmt_ns(iv.dur_ns()),
                    iv.track,
                    indent = 2 * (iv.depth + 1)
                );
            }
        }

        let gaps: Vec<&Gap> = self.gaps.iter().take(top_k).collect();
        if !gaps.is_empty() {
            out += &format!(
                "\ntop {} widest idle gaps between top-level spans:\n",
                gaps.len()
            );
            for g in gaps {
                out += &format!(
                    "  track {:>3}: {} idle before '{}'\n",
                    g.track,
                    fmt_ns(g.width_ns),
                    g.before
                );
            }
        }

        if !self.counters.is_empty() {
            out += "\ncounter tracks (physics probes):\n";
            for c in &self.counters {
                out += &format!(
                    "  {:<32} {:>6} samples  min {:.3e}  max {:.3e}  last {:.3e}\n",
                    c.name, c.samples, c.min, c.max, c.last
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Bottleneck attribution (`trace_report --attribute`).
// ---------------------------------------------------------------------

/// Self-time share of one pipeline stage (span names grouped by their
/// prefix before the first `.` — `sdr.emit_block_ns` → `sdr`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageShare {
    /// Stage prefix (`sdr`, `em`, `harvester`, `rfid`, `freqsel`, `pool`, …).
    pub(crate) stage: String,
    /// Summed self time of every span in the stage.
    pub(crate) self_ns: u64,
    /// Number of spans contributing.
    pub(crate) count: usize,
    /// `self_ns` over the total self time of all stages.
    pub(crate) share: f64,
}

/// One trace track that executed `pool.job` spans — a worker lane (or a
/// helping caller) as seen from the timeline.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PoolLane {
    /// Track id.
    pub(crate) track: u32,
    /// Summed duration of its `pool.job` spans.
    pub(crate) busy_ns: u64,
    /// Number of jobs it ran.
    pub(crate) jobs: usize,
    /// `busy_ns` over the trace wall time.
    pub(crate) utilization: f64,
}

/// The ranked imbalance report combining span self-time by stage and
/// pool-lane utilization.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Trace wall time.
    pub(crate) wall_ns: u64,
    /// Stages ranked by self time, descending.
    pub(crate) stages: Vec<StageShare>,
    /// Tracks that ran pool jobs, ranked by busy time, descending.
    pub(crate) pool_lanes: Vec<PoolLane>,
    /// Busiest over least-busy pool lane (`None` with < 2 lanes).
    pub(crate) lane_imbalance: Option<f64>,
}

/// Builds the attribution view from an [`Analysis`].
pub fn attribute(a: &Analysis) -> Attribution {
    // Group span self time by stage prefix.
    let mut stages: Vec<StageShare> = Vec::new();
    for s in &a.by_name {
        let stage = s.name.split('.').next().unwrap_or(&s.name).to_string();
        match stages.iter_mut().find(|g| g.stage == stage) {
            Some(g) => {
                g.self_ns += s.self_ns;
                g.count += s.count;
            }
            None => stages.push(StageShare {
                stage,
                self_ns: s.self_ns,
                count: s.count,
                share: 0.0,
            }),
        }
    }
    let total: u64 = stages.iter().map(|g| g.self_ns).sum();
    for g in &mut stages {
        g.share = if total > 0 {
            g.self_ns as f64 / total as f64
        } else {
            0.0
        };
    }
    stages.sort_by_key(|x| Reverse(x.self_ns));

    // Pool lanes: tracks with pool.job spans.
    let mut pool_lanes: Vec<PoolLane> = Vec::new();
    for iv in a.intervals.iter().filter(|iv| iv.name == "pool.job") {
        match pool_lanes.iter_mut().find(|l| l.track == iv.track) {
            Some(l) => {
                l.busy_ns += iv.dur_ns();
                l.jobs += 1;
            }
            None => pool_lanes.push(PoolLane {
                track: iv.track,
                busy_ns: iv.dur_ns(),
                jobs: 1,
                utilization: 0.0,
            }),
        }
    }
    for l in &mut pool_lanes {
        l.utilization = if a.wall_ns > 0 {
            l.busy_ns as f64 / a.wall_ns as f64
        } else {
            0.0
        };
    }
    pool_lanes.sort_by_key(|x| Reverse(x.busy_ns));
    let lane_imbalance = match (pool_lanes.first(), pool_lanes.last()) {
        (Some(hi), Some(lo)) if pool_lanes.len() >= 2 && lo.busy_ns > 0 => {
            Some(hi.busy_ns as f64 / lo.busy_ns as f64)
        }
        _ => None,
    };

    Attribution {
        wall_ns: a.wall_ns,
        stages,
        pool_lanes,
        lane_imbalance,
    }
}

impl Attribution {
    /// Renders the ranked bottleneck attribution report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out += &format!("bottleneck attribution — {} wall\n", fmt_ns(self.wall_ns));

        out += "\nstage ranking (summed span self time):\n";
        out += "stage        self time      share   spans\n";
        out += "-------------------------------------------\n";
        for g in &self.stages {
            out += &format!(
                "{:<12} {:>11} {:>8.1}% {:>7}\n",
                g.stage,
                fmt_ns(g.self_ns),
                100.0 * g.share,
                g.count,
            );
        }

        if self.pool_lanes.is_empty() {
            out += "\npool lanes: no pool.job spans in this trace — every \
                    dispatch ran inline on the caller (width 1, nested, or \
                    trivial input), which is why extra threads buy nothing\n";
        } else {
            out += "\npool lanes (tracks running pool.job spans):\n";
            for l in &self.pool_lanes {
                out += &format!(
                    "  track {:>3}: {:>11} busy, {:>5} jobs, {:>5.1}% of wall\n",
                    l.track,
                    fmt_ns(l.busy_ns),
                    l.jobs,
                    100.0 * l.utilization
                );
            }
            if let Some(r) = self.lane_imbalance {
                out += &format!("  lane imbalance (busiest / least busy): {r:.2}x\n");
            }
            let covered: f64 = self.pool_lanes.iter().map(|l| l.utilization).sum();
            out += &format!(
                "  aggregate lane utilization: {:.2} lane-equivalents over the trace\n",
                covered
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::trace::TraceEvent;

    fn ev(name: &str, kind: EventKind, track: u32, ts_ns: u64, value: f64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind,
            track,
            ts_ns,
            value,
        }
    }

    /// track 0: outer [0,100] wrapping inner [10,40]; track 1: solo [20,50],
    /// gap, solo [80,90]; plus one counter with three samples.
    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                ev("outer", EventKind::Begin, 0, 0, 0.0),
                ev("inner", EventKind::Begin, 0, 10, 0.0),
                ev("solo", EventKind::Begin, 1, 20, 0.0),
                ev("probe", EventKind::Counter, 0, 25, 1.5),
                ev("inner", EventKind::End, 0, 40, 0.0),
                ev("solo", EventKind::End, 1, 50, 0.0),
                ev("probe", EventKind::Counter, 0, 60, 0.5),
                ev("solo", EventKind::Begin, 1, 80, 0.0),
                ev("solo", EventKind::End, 1, 90, 0.0),
                ev("probe", EventKind::Counter, 0, 95, 1.0),
                ev("outer", EventKind::End, 0, 100, 0.0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn intervals_nesting_and_self_time() {
        let a = analyze(&sample_trace());
        assert_eq!(a.wall_ns, 100);
        assert_eq!(a.intervals.len(), 4);
        let outer = a.by_name.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.self_ns, 70, "outer self excludes inner's 30");
        let solo = a.by_name.iter().find(|s| s.name == "solo").unwrap();
        assert_eq!(solo.count, 2);
        assert_eq!(solo.total_ns, 40);
        assert_eq!(solo.self_ns, 40);
    }

    #[test]
    fn utilization_and_gaps() {
        let a = analyze(&sample_trace());
        let t0 = a.tracks.iter().find(|t| t.track == 0).unwrap();
        assert_eq!(t0.busy_ns, 100);
        assert!((t0.utilization - 1.0).abs() < 1e-12);
        let t1 = a.tracks.iter().find(|t| t.track == 1).unwrap();
        assert_eq!(t1.busy_ns, 40);
        assert_eq!(a.gaps.len(), 1);
        assert_eq!(a.gaps[0].track, 1);
        assert_eq!(a.gaps[0].width_ns, 30);
        assert_eq!(a.gaps[0].before, "solo");
    }

    #[test]
    fn critical_path_descends_longest_children() {
        let a = analyze(&sample_trace());
        let names: Vec<&str> = a
            .critical_path
            .iter()
            .map(|&i| a.intervals[i].name.as_str())
            .collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn counters_summarized() {
        let a = analyze(&sample_trace());
        assert_eq!(a.counters.len(), 1);
        let c = &a.counters[0];
        assert_eq!((c.samples, c.min, c.max, c.last), (3, 0.5, 1.5, 1.0));
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let a = analyze(&Trace::default());
        assert!(a.intervals.is_empty());
        assert_eq!(a.wall_ns, 0);
        let text = a.render(5);
        assert!(text.contains("0 spans"));
    }

    #[test]
    fn render_mentions_every_section() {
        let text = analyze(&sample_trace()).render(3);
        assert!(text.contains("critical path"));
        assert!(text.contains("utilization"));
        assert!(text.contains("physics probes") || text.contains("counter tracks"));
    }

    /// Two pool lanes with 3:1 busy imbalance plus sdr/em stage spans.
    fn pool_trace() -> Trace {
        Trace {
            events: vec![
                ev("pool.job", EventKind::Begin, 2, 0, 0.0),
                ev("sdr.emit_block_ns", EventKind::Begin, 2, 5, 0.0),
                ev("sdr.emit_block_ns", EventKind::End, 2, 280, 0.0),
                ev("pool.job", EventKind::End, 2, 300, 0.0),
                ev("pool.job", EventKind::Begin, 3, 0, 0.0),
                ev("em.channel_eval_ns", EventKind::Begin, 3, 10, 0.0),
                ev("em.channel_eval_ns", EventKind::End, 3, 90, 0.0),
                ev("pool.job", EventKind::End, 3, 100, 0.0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn attribution_ranks_stages_and_lanes() {
        let attr = attribute(&analyze(&pool_trace()));

        // sdr has the widest self time.
        assert_eq!(attr.stages[0].stage, "sdr");
        let shares: f64 = attr.stages.iter().map(|g| g.share).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");

        // Two pool lanes, 300 vs 100 ns busy → 3x imbalance.
        assert_eq!(attr.pool_lanes.len(), 2);
        assert_eq!(attr.pool_lanes[0].track, 2);
        assert_eq!(attr.pool_lanes[0].busy_ns, 300);
        assert_eq!(attr.pool_lanes[0].jobs, 1);
        let imbalance = attr.lane_imbalance.unwrap();
        assert!((imbalance - 3.0).abs() < 1e-9, "imbalance {imbalance}");

        let text = attr.render();
        assert!(text.contains("bottleneck attribution"));
        assert!(text.contains("stage ranking"));
        assert!(text.contains("pool lanes"));
        assert!(text.contains("lane imbalance"));
    }

    #[test]
    fn attribution_without_pool_degrades_gracefully() {
        let attr = attribute(&analyze(&sample_trace()));
        assert!(attr.pool_lanes.is_empty());
        assert!(attr.lane_imbalance.is_none());
        let text = attr.render();
        assert!(text.contains("no pool.job spans"));
        assert!(text.contains("ran inline"));
    }
}
