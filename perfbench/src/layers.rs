//! The traced run: the same entry points with the benchmark's spans
//! recorded by `ivn_runtime::trace` and the program's `obs` counters and
//! span histograms on, broken down by layer.
//!
//! Each workload runs inside one benchmark span named after it. Its
//! *traced total* and its *leaves* satisfy
//! `total = Σ leaves + unattributed` exactly:
//!
//! * `pipeline` (one thread): the total is the span's wall time; the
//!   leaves are the three set-up constructor spans and the four
//!   `StreamReport::stage_ns` stages of the power pass. The rest is the
//!   calibration pass, the rx hash and the driver loop.
//! * `campaign` (pool width 2): the total counts the pool dispatch in
//!   thread-seconds — the span's wall time outside `campaign::run` plus
//!   the busy time of every pool lane during it. The leaves are the parse
//!   and report spans and the `experiment.scenario_eval_ns` histogram
//!   sum, all timed on the thread that runs them. The rest is pool-job
//!   time outside scenario evaluation — chiefly plan resolution, whose
//!   freqsel restarts run on threads of their own, so their summed
//!   `freqsel.restart_ns` (reported as `freqsel.optimize_busy_s`) is on
//!   another clock than the total and is not a leaf — plus the
//!   benchmark's own glue.
//! * `inventory`: the total is the span's wall time; the leaves are the
//!   `fleet_experiment` span and one span per `run_fleet` arm, so the
//!   rest is the span's self time.
//!
//! Self times come from [`ivn_bench::trace_analysis::analyze`].
//!
//! Which end-to-end figure each per-layer metric should move (the
//! `BENCHMARK.json` schema has no room for this map, so it lives here):
//!
//! | per-layer metrics | should move |
//! |---|---|
//! | `pipeline.{freqsel.score_s, sdr.bank_s, em.ensemble_s}` | `setup_s` on `pipeline` |
//! | `pipeline.{sdr,em,harvester,rfid}.busy_s` | `wall_s`, `throughput_per_s` on `pipeline` only |
//! | `pipeline.sdr.emit_all_passes_s` (excess over `sdr.busy_s` = calibration pass) | `wall_s` on `pipeline` |
//! | `pipeline.unattributed_{s,frac}` | `wall_s` on `pipeline` |
//! | `pipeline.dsp.footprint_peak_samples` | `peak_rss_mb` on `pipeline` |
//! | `campaign.scenario.parse_s` | `setup_s` on `campaign` |
//! | `campaign.freqsel.optimize_busy_s`, `campaign.scenario.eval_busy_s` | `wall_s`, `cpu_s` on `campaign` |
//! | `campaign.plancache.{hits,misses,hit_rate}` | `wall_s` on `campaign` only |
//! | `campaign.harvester.busy_s`, `campaign.rfid.pie_decode_s` | `wall_s` on `campaign` |
//! | `campaign.pool.{busy_s,idle_s,busy_frac,steals}` | `wall_s`, `cpu_s` on `campaign` |
//! | `campaign.json.report_s`, `campaign.unattributed_{s,frac}` | `wall_s` on `campaign` |
//! | `inventory.core.prepare_s` | `setup_s` on `inventory` |
//! | `inventory.rfid.{adaptive,fixed,schoute}_s` | `wall_s`, `throughput_per_s` on `inventory` only |
//! | `inventory.rfid.slots_per_tag.*`, `inventory.rfid.{collisions,captures}` | fewer slots per read, less `wall_s` on `inventory` |
//! | `inventory.pool.{busy_s,idle_s,busy_frac,steals}` | `wall_s`, `cpu_s` on `inventory` |
//! | `inventory.unattributed_{s,frac}` | `wall_s` on `inventory` |
//! | `*.trace_overhead_frac`, `*.traced_total_s` | none: tracing cost and the traced base |
//!
//! The exact work counts (`pipeline.harvester.charge_steps`,
//! `pipeline.rfid.*_symbols_decoded`, `campaign.em.channel_evals`) stay
//! unchanged under a pure speed-up.

use crate::measure::{check, median, run_caught};
use crate::workloads::{generate, set_recording, setup, span, Output, Scale, Workload};
use ivn_bench::trace_analysis::{analyze, Analysis};
use ivn_runtime::json::Json;
use ivn_runtime::obs::{self, Report};
use ivn_runtime::pool::{LaneSnapshot, WorkerPool};
use ivn_runtime::trace::{self, Trace};
use std::path::Path;
use std::time::{Duration, Instant};

/// Untraced runs whose median wall time is the base of
/// `trace_overhead_frac`.
const BASE_RUNS: usize = 3;

/// One per-layer figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, prefixed by its workload.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The traced run of one workload.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The traced total, s.
    pub total_s: f64,
    /// The leaves that sum with `unattributed` to the total, s.
    pub leaves: Vec<(String, f64)>,
    /// Operations attempted in the checked runs.
    pub attempted: usize,
    /// Operations failed in the checked runs.
    pub failed: usize,
    /// The recorded timeline.
    pub trace: Trace,
}

impl Traced {
    /// The `unattributed` share of the total, s.
    pub fn unattributed_s(&self) -> f64 {
        self.value("unattributed_s")
    }

    fn value(&self, suffix: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name.ends_with(suffix))
            .map_or(f64::NAN, |m| m.value)
    }
}

/// Summed wall time of every interval named `name`, s.
fn span_s(a: &Analysis, name: &str) -> f64 {
    let ns: u64 = a
        .intervals
        .iter()
        .filter(|iv| iv.name == name)
        .map(|iv| iv.dur_ns())
        .sum();
    ns as f64 * 1e-9
}

fn hist_s(r: &Report, name: &str) -> f64 {
    r.histogram(name).map_or(0.0, |h| h.sum as f64 * 1e-9)
}

fn count(r: &Report, name: &str) -> f64 {
    r.counter(name).unwrap_or(0) as f64
}

/// The pool's lane counters once they stop moving. A worker sends a
/// job's result before it adds the job's time to its lane, so a snapshot
/// taken as soon as a map returns can miss the last job's busy time.
fn settled_pool_stats() -> Vec<LaneSnapshot> {
    let key = |s: &[LaneSnapshot]| -> Vec<(u64, u64, u64)> {
        s.iter().map(|l| (l.tasks, l.busy_ns, l.parks)).collect()
    };
    let mut last = WorkerPool::global().stats();
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(2));
        let now = WorkerPool::global().stats();
        if key(&now) == key(&last) {
            return now;
        }
        last = now;
    }
    last
}

/// Pool lane totals between two snapshots: (busy s, idle s, steals).
fn pool_delta(before: &[LaneSnapshot], after: &[LaneSnapshot]) -> (f64, f64, f64) {
    let sum = |f: fn(&LaneSnapshot) -> u64| -> u64 {
        after
            .iter()
            .map(|a| {
                let b = before.iter().find(|b| b.lane == a.lane).map_or(0, f);
                f(a).saturating_sub(b)
            })
            .sum()
    };
    (
        sum(|l| l.busy_ns) as f64 * 1e-9,
        sum(|l| l.idle_ns) as f64 * 1e-9,
        sum(|l| l.steals) as f64,
    )
}

struct Builder {
    prefix: &'static str,
    metrics: Vec<Metric>,
}

impl Builder {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: format!("{}.{name}", self.prefix),
            value,
            unit,
        });
    }

    fn pool(&mut self, busy_s: f64, idle_s: f64, steals: f64) {
        self.add("pool.busy_s", busy_s, "s");
        self.add("pool.idle_s", idle_s, "s");
        let busy_frac = if busy_s + idle_s > 0.0 {
            busy_s / (busy_s + idle_s)
        } else {
            0.0
        };
        self.add("pool.busy_frac", busy_frac, "ratio");
        self.add("pool.steals", steals, "count");
    }

    /// Adds the leaves as metrics, then `traced_total_s` and the
    /// `unattributed` remainder.
    fn close(&mut self, total_s: f64, leaves: &[(&str, f64)]) -> Vec<(String, f64)> {
        let unattributed = total_s - leaves.iter().map(|(_, v)| v).sum::<f64>();
        self.add("traced_total_s", total_s, "s");
        self.add("unattributed_s", unattributed, "s");
        self.add("unattributed_frac", unattributed / total_s, "ratio");
        leaves
            .iter()
            .map(|&(n, v)| (format!("{}.{n}", self.prefix), v))
            .collect()
    }
}

/// Runs `w` untraced for a base time, then once traced, and derives its
/// per-layer metrics; every run is checked against the `reference`
/// digest. The Chrome trace is written to `trace_out` when given.
pub fn traced(
    w: Workload,
    seed: u64,
    scale: &Scale,
    reference: u64,
    trace_out: Option<&Path>,
) -> Result<Traced, String> {
    let inputs = generate(w, seed, scale);
    let prepared = setup(&inputs)?;
    let warm = run_caught(&prepared).ok_or("warm-up run panicked")?;
    let (mut attempted, mut failed) = check(&warm, reference);
    let mut base = Vec::new();
    for _ in 0..BASE_RUNS {
        let t0 = Instant::now();
        let out = run_caught(&prepared).ok_or("untraced run panicked")?;
        base.push(t0.elapsed().as_secs_f64());
        let (a, f) = check(&out, reference);
        attempted += a;
        failed += f;
    }
    let base_wall = median(&base);

    // The traced pass: recorders reset and on, pool lanes read around it.
    obs::reset();
    trace::reset();
    obs::set_enabled(true);
    set_recording(true);
    let pool_before = settled_pool_stats();
    let (out, run_wall) = {
        let _top = span(w.name());
        let prepared = setup(&inputs)?;
        let t0 = Instant::now();
        let out = run_caught(&prepared);
        (out, t0.elapsed().as_secs_f64())
    };
    let pool_after = settled_pool_stats();
    set_recording(false);
    obs::set_enabled(false);
    let report = obs::report();
    let recorded = trace::snapshot();
    obs::reset();
    trace::reset();

    let out = out.ok_or("traced run panicked")?;
    let (a, f) = check(&out, reference);
    attempted += a;
    failed += f;
    if recorded.dropped > 0 {
        return Err(format!(
            "{}: {} trace events lost to ring wraparound",
            w.name(),
            recorded.dropped
        ));
    }
    let trace = export(&recorded, trace_out)?;
    let a = analyze(&trace);
    let (busy, idle, steals) = pool_delta(&pool_before, &pool_after);

    let mut b = Builder {
        prefix: w.name(),
        metrics: Vec::new(),
    };
    b.add("trace_overhead_frac", run_wall / base_wall - 1.0, "ratio");
    let total_s;
    let leaves = match &out {
        Output::Pipeline(r) => {
            let setup = [
                ("freqsel.score_s", span_s(&a, "pipeline.freqsel.score")),
                ("sdr.bank_s", span_s(&a, "pipeline.sdr.bank")),
                ("em.ensemble_s", span_s(&a, "pipeline.em.ensemble")),
            ];
            let stage = |name: &str| {
                r.stage_ns
                    .iter()
                    .find(|(s, _, _)| *s == name)
                    .map_or(0.0, |&(_, ns, _)| ns as f64 * 1e-9)
            };
            let stages = [
                ("sdr.busy_s", stage("sdr")),
                ("em.busy_s", stage("em")),
                ("harvester.busy_s", stage("harvester")),
                ("rfid.busy_s", stage("rfid")),
            ];
            for (n, v) in setup.iter().chain(&stages) {
                b.add(n, *v, "s");
            }
            b.add("sdr.emit_all_passes_s", hist_s(&report, "sdr.emit_ns"), "s");
            b.add(
                "harvester.charge_steps",
                count(&report, "harvester.charge_steps"),
                "count",
            );
            b.add(
                "rfid.pie_symbols_decoded",
                count(&report, "rfid.pie_symbols_decoded"),
                "count",
            );
            b.add(
                "rfid.fm0_symbols_decoded",
                count(&report, "rfid.fm0_symbols_decoded"),
                "count",
            );
            let footprint = r.footprint.iter().map(|&(_, n)| n).max().unwrap_or(0);
            b.add("dsp.footprint_peak_samples", footprint as f64, "samples");
            total_s = span_s(&a, "pipeline");
            let leaves: Vec<_> = setup.into_iter().chain(stages).collect();
            b.close(total_s, &leaves)
        }
        Output::Campaign(..) => {
            let parse = span_s(&a, "campaign.scenario.parse");
            let report_s = span_s(&a, "campaign.json.report");
            let optimize = hist_s(&report, "freqsel.restart_ns");
            let eval = hist_s(&report, "experiment.scenario_eval_ns");
            let (hits, misses) = ivn_core::plancache::PlanCache::global().counters();
            b.add("scenario.parse_s", parse, "s");
            b.add("freqsel.optimize_busy_s", optimize, "s");
            b.add("plancache.hits", hits as f64, "count");
            b.add("plancache.misses", misses as f64, "count");
            b.add(
                "plancache.hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            );
            b.add("scenario.eval_busy_s", eval, "s");
            b.add(
                "harvester.busy_s",
                hist_s(&report, "harvester.power_up_ns"),
                "s",
            );
            b.add(
                "rfid.pie_decode_s",
                hist_s(&report, "rfid.pie_decode_ns"),
                "s",
            );
            // Reads 0 today: the campaign draws its channels in
            // `core::body`, not through the counted `ChannelEnsemble`.
            b.add(
                "em.channel_evals",
                count(&report, "em.channel_evals"),
                "count",
            );
            b.pool(busy, idle, steals);
            b.add("json.report_s", report_s, "s");
            total_s = span_s(&a, "campaign") - span_s(&a, "campaign.pool.dispatch") + busy;
            b.close(
                total_s,
                &[
                    ("scenario.parse_s", parse),
                    ("json.report_s", report_s),
                    ("scenario.eval_busy_s", eval),
                ],
            )
        }
        Output::Inventory(arms) => {
            let prepare = span_s(&a, "inventory.core.prepare");
            b.add("core.prepare_s", prepare, "s");
            let mut leaves = vec![("core.prepare_s", prepare)];
            let names = [
                ("adaptive", "rfid.adaptive_s", "inventory.rfid.adaptive"),
                ("fixed", "rfid.fixed_s", "inventory.rfid.fixed"),
                ("schoute", "rfid.schoute_s", "inventory.rfid.schoute"),
            ];
            for (arm, (policy, metric, span_name)) in arms.iter().zip(names) {
                let s = span_s(&a, span_name);
                b.add(metric, s, "s");
                leaves.push((metric, s));
                b.add(
                    &format!("rfid.slots_per_tag.{policy}"),
                    arm.slots_per_tag,
                    "slots/tag",
                );
            }
            let bodies = arms.iter().flat_map(|arm| &arm.per_body);
            let (collisions, captures) =
                bodies.fold((0u64, 0u64), |(c, k), b| (c + b.collisions, k + b.captures));
            b.add("rfid.collisions", collisions as f64, "count");
            b.add("rfid.captures", captures as f64, "count");
            b.pool(busy, idle, steals);
            total_s = span_s(&a, "inventory");
            b.close(total_s, &leaves)
        }
    };
    Ok(Traced {
        metrics: b.metrics,
        total_s,
        leaves,
        attempted,
        failed,
        trace,
    })
}

/// Exports the timeline as Chrome trace JSON, writes it to `path` when
/// given, and reads it back: the result is the trace as
/// `trace_report --check` sees it, which must hold balanced spans.
fn export(recorded: &Trace, path: Option<&Path>) -> Result<Trace, String> {
    let text = recorded.to_chrome_json().dump();
    if let Some(path) = path {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let doc = Json::parse(&text).map_err(|e| format!("trace export: {e}"))?;
    let trace = Trace::from_chrome_json(&doc).map_err(|e| format!("trace export: {e}"))?;
    if trace.events.is_empty() {
        return Err("trace export holds no events".into());
    }
    trace.check_balanced()?;
    Ok(trace)
}
