//! Perf-regression sentinel: how a gated BENCH_runtime.json number is
//! measured, and the tolerance bands it is checked against.
//!
//! **Measuring.** Every gated number goes through one path:
//! [`measure`] (or [`measure_columns`], when the number of values per
//! round is known only at run time) runs a round closure a fixed number
//! of times (at least [`MIN_ROUNDS`]) and summarises each value the
//! rounds return by
//! `median_ci95` — the median plus a distribution-free 95% confidence
//! interval from order statistics. A round that needs a wall-clock time
//! takes it with [`time_ns`] (one call between two `Instant` reads). The bench
//! writes the median under the metric's name and the CI as a
//! `<name>_ci95` sibling, e.g. `{"median_ns": …, "median_ns_ci95": [lo, hi]}`,
//! so a band reads a median, never a single pass.
//!
//! **Checking.** The committed `BENCH_baseline.json` is the one place a
//! bench number is gated: stage medians, streaming MS/s, pool dispatch
//! speedup, overhead CIs, campaign and inventory throughput, and the
//! presence of the obs report's spans. Each metric has a direction and
//! a tolerance factor — wide enough to absorb shared-runner noise where
//! the value is a timing, exactly 1 where it is an absolute floor or
//! ceiling. `bench_runtime --check-baseline` evaluates the bands after a
//! bench run; `scripts/verify.sh` makes it a PR gate.
//!
//! Baseline format:
//!
//! ```json
//! {
//!   "mode": "fast",
//!   "metrics": [
//!     {"path": "stages.stage=rfid.median_ns", "value": 23900, "band": "upper", "factor": 4.0},
//!     {"path": "streaming.stages.stage=em.msps", "value": 165.0, "band": "lower", "factor": 4.0},
//!     {"path": "obs_overhead_ci95_pct.1", "value": 4.0, "band": "upper", "factor": 1.0}
//!   ]
//! }
//! ```
//!
//! `path` is a dotted lookup into the bench document; a segment of the
//! form `key=value` selects the element of an array whose `key` field
//! equals `value`, a bare integer segment indexes an array, and an
//! object key that itself contains dots (an obs metric name such as
//! `harvester.power_up_ns`) is matched by joining segments. Bands:
//! `upper` fails when measured > value × factor (for "smaller is
//! better" metrics), `lower` fails when measured < value ÷ factor
//! ("bigger is better"). Every metric must name its band and factor;
//! `factor: 1.0` makes the value an absolute ceiling or floor.

use ivn_runtime::json::Json;
use std::time::Instant;

/// Fewest rounds `median_ci95` accepts: below this the order-statistic
/// CI collapses onto the extremes.
pub const MIN_ROUNDS: usize = 8;

/// A repeated measurement: the median over rounds and a 95% CI on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Median of the rounds.
    pub median: f64,
    /// 95% confidence interval on the median, `[lo, hi]`.
    pub ci95: [f64; 2],
}

impl Estimate {
    /// The bench-document fields for a metric called `name`: the median
    /// under `name` and the CI under `<name>_ci95`.
    pub fn fields(&self, name: &str) -> [(String, Json); 2] {
        [
            (name.to_string(), self.median.into()),
            (
                format!("{name}_ci95"),
                Json::Arr(vec![self.ci95[0].into(), self.ci95[1].into()]),
            ),
        ]
    }
}

/// `median [95% CI lo..hi]`, all three at the formatter's precision
/// (`{:.2}`), so every bench line prints an estimate the same way.
impl std::fmt::Display for Estimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = f.precision().unwrap_or(0);
        let [lo, hi] = self.ci95;
        write!(f, "{:.p$} [95% CI {lo:.p$}..{hi:.p$}]", self.median)
    }
}

/// Median and a distribution-free 95% CI for the median via order
/// statistics: ranks `n/2 ± 1.96·√n/2` of the sorted samples.
///
/// # Panics
/// With fewer than [`MIN_ROUNDS`] samples.
pub(crate) fn median_ci95(samples: &mut [f64]) -> Estimate {
    let n = samples.len();
    assert!(
        n >= MIN_ROUNDS,
        "{n} rounds are too few for a CI (need {MIN_ROUNDS})"
    );
    samples.sort_by(f64::total_cmp);
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    };
    let half = 1.96 * (n as f64).sqrt() / 2.0;
    let lo = ((n as f64 / 2.0 - half).floor().max(0.0)) as usize;
    let hi = ((n as f64 / 2.0 + half).ceil() as usize).min(n - 1);
    Estimate {
        median,
        ci95: [samples[lo], samples[hi]],
    }
}

/// Runs `round` `rounds` times and summarises each of the `K` values it
/// returns per round by its `median_ci95`. Values measured in the same
/// round (a paired ratio, say) stay paired.
///
/// # Panics
/// With fewer than [`MIN_ROUNDS`] rounds.
pub fn measure<const K: usize>(
    rounds: usize,
    mut round: impl FnMut() -> [f64; K],
) -> [Estimate; K] {
    let est = measure_columns(rounds, K, || round().to_vec());
    std::array::from_fn(|k| est[k])
}

/// [`measure`] for a column count known only at run time (the streaming
/// stages a [`StreamReport`](crate::pipeline::StreamReport) lists).
///
/// # Panics
/// With fewer than [`MIN_ROUNDS`] rounds, or if a round returns other
/// than `columns` values.
pub fn measure_columns(
    rounds: usize,
    columns: usize,
    mut round: impl FnMut() -> Vec<f64>,
) -> Vec<Estimate> {
    let mut samples = vec![Vec::with_capacity(rounds); columns];
    for _ in 0..rounds {
        let values = round();
        assert_eq!(
            values.len(),
            columns,
            "a round returned the wrong column count"
        );
        for (column, v) in samples.iter_mut().zip(values) {
            column.push(v);
        }
    }
    samples.iter_mut().map(|c| median_ci95(c)).collect()
}

/// Wall-clock nanoseconds of one call of `f`, with its result. The
/// result passes through `black_box`, so the call cannot be optimised
/// away even when the caller drops it.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_nanos() as f64, out)
}

/// Resolves a dotted `path` (with `key=value` array selectors, bare
/// integer indices and dotted object keys) to a number inside `doc`.
pub(crate) fn lookup(doc: &Json, path: &str) -> Option<f64> {
    let segs: Vec<&str> = path.split('.').collect();
    resolve(doc, &segs)
}

fn resolve(cur: &Json, segs: &[&str]) -> Option<f64> {
    let Some((seg, rest)) = segs.split_first() else {
        return cur.as_f64();
    };
    match cur {
        // Try the shortest key first; an obs metric name spans several
        // segments, so widen the key until one resolves.
        Json::Obj(_) => (1..=segs.len()).find_map(|n| {
            let key = segs[..n].join(".");
            resolve(cur.get(&key)?, &segs[n..])
        }),
        Json::Arr(items) => {
            let next = if let Some((key, want)) = seg.split_once('=') {
                items.iter().find(|e| {
                    e.get(key).is_some_and(|v| match v {
                        Json::Str(s) => s == want,
                        Json::Num(n) => want.parse::<f64>() == Ok(*n),
                        _ => false,
                    })
                })?
            } else {
                items.get(seg.parse::<usize>().ok()?)?
            };
            resolve(next, rest)
        }
        _ => None,
    }
}

/// Direction and width of one metric's tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Band {
    /// Fail when `measured > value * factor` (latency-like metrics).
    Upper(f64),
    /// Fail when `measured < value / factor` (throughput-like metrics).
    Lower(f64),
}

/// Outcome of checking one baseline metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Dotted path into the bench document.
    pub(crate) path: String,
    /// Baseline value.
    pub(crate) baseline: f64,
    /// Measured value (`None` when the path is missing).
    pub(crate) measured: Option<f64>,
    /// The band that was applied.
    pub(crate) band: Band,
    /// Whether the metric passed.
    pub ok: bool,
}

impl Check {
    /// One human-readable gate line.
    pub fn render(&self) -> String {
        let verdict = if self.ok { "ok  " } else { "FAIL" };
        let bound = match self.band {
            Band::Upper(f) => format!(
                "<= {:.6} (baseline {:.6} x {f})",
                self.baseline * f,
                self.baseline
            ),
            Band::Lower(f) => format!(
                ">= {:.6} (baseline {:.6} / {f})",
                self.baseline / f,
                self.baseline
            ),
        };
        match self.measured {
            Some(m) => format!("{verdict}  {:<44} measured {m:.6}, need {bound}", self.path),
            None => format!("{verdict}  {:<44} MISSING from bench document", self.path),
        }
    }
}

/// Evaluates every metric in `baseline` against `bench`. Returns the
/// per-metric checks; a missing path is a failure (a silently vanished
/// metric must not pass the gate). `Err` means the baseline document
/// itself is malformed.
pub fn check(bench: &Json, baseline: &Json) -> Result<Vec<Check>, String> {
    let metrics = baseline
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or("baseline: missing 'metrics' array")?;
    let mut out = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        let path = m
            .get("path")
            .and_then(Json::as_str)
            .ok_or(format!("baseline metric {i}: missing 'path'"))?
            .to_string();
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("baseline metric {i} ({path}): missing 'value'"))?;
        let band_name = m
            .get("band")
            .and_then(Json::as_str)
            .ok_or(format!("baseline metric {i} ({path}): missing 'band'"))?;
        let factor = m
            .get("factor")
            .and_then(Json::as_f64)
            .ok_or(format!("baseline metric {i} ({path}): missing 'factor'"))?;
        if factor < 1.0 {
            return Err(format!("baseline metric {i} ({path}): factor {factor} < 1"));
        }
        let band = match band_name {
            "upper" => Band::Upper(factor),
            "lower" => Band::Lower(factor),
            other => {
                return Err(format!(
                    "baseline metric {i} ({path}): unknown band '{other}'"
                ))
            }
        };
        let measured = lookup(bench, &path);
        let ok = match (measured, &band) {
            (None, _) => false,
            (Some(m), Band::Upper(f)) => m <= value * f,
            (Some(m), Band::Lower(f)) => m >= value / f,
        };
        out.push(Check {
            path,
            baseline: value,
            measured,
            band,
            ok,
        });
    }
    Ok(out)
}

/// The `mode` a baseline was recorded under (`"fast"`/`"full"`).
pub fn baseline_mode(baseline: &Json) -> Option<&str> {
    baseline.get("mode").and_then(Json::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc() -> Json {
        Json::parse(
            r#"{
                "mode": "fast",
                "speedup": 0.99,
                "obs_overhead_ci95_pct": [-0.5, 1.3],
                "stages": [
                    {"stage": "sdr", "median_ns": 14600},
                    {"stage": "em", "median_ns": 77600}
                ],
                "streaming": {"stages": [{"stage": "sdr", "msps": 27.6}]},
                "parallel_sweep": [
                    {"threads": 1, "speedup": 1.0},
                    {"threads": 8, "speedup": 0.99}
                ],
                "obs_report": {"histograms": {"harvester.power_up_ns": {"count": 7}}}
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn lookup_handles_selectors_and_indices() {
        let d = bench_doc();
        assert_eq!(lookup(&d, "speedup"), Some(0.99));
        assert_eq!(lookup(&d, "stages.stage=em.median_ns"), Some(77600.0));
        assert_eq!(lookup(&d, "streaming.stages.stage=sdr.msps"), Some(27.6));
        assert_eq!(lookup(&d, "parallel_sweep.threads=8.speedup"), Some(0.99));
        assert_eq!(lookup(&d, "obs_overhead_ci95_pct.1"), Some(1.3));
        assert_eq!(
            lookup(&d, "obs_report.histograms.harvester.power_up_ns.count"),
            Some(7.0)
        );
        assert_eq!(lookup(&d, "stages.stage=nope.median_ns"), None);
        assert_eq!(lookup(&d, "no.such.path"), None);
        assert_eq!(lookup(&d, "obs_report.histograms.harvester.count"), None);
    }

    #[test]
    fn bands_gate_in_the_right_direction() {
        let d = bench_doc();
        let baseline = Json::parse(
            r#"{"mode":"fast","metrics":[
                {"path":"stages.stage=sdr.median_ns","value":14600,"band":"upper","factor":4.0},
                {"path":"streaming.stages.stage=sdr.msps","value":27.6,"band":"lower","factor":4.0},
                {"path":"obs_overhead_ci95_pct.1","value":2.0,"band":"upper","factor":1.0},
                {"path":"stages.stage=sdr.median_ns","value":1000,"band":"upper","factor":2.0},
                {"path":"streaming.stages.stage=sdr.msps","value":1000,"band":"lower","factor":2.0},
                {"path":"gone.metric","value":1,"band":"upper","factor":2.0},
                {"path":"obs_overhead_ci95_pct.1","value":1.0,"band":"upper","factor":1.0},
                {"path":"streaming.stages.stage=sdr.msps","value":27.6,"band":"lower","factor":1.0},
                {"path":"streaming.stages.stage=sdr.msps","value":28.0,"band":"lower","factor":1.0}
            ]}"#,
        )
        .unwrap();
        let checks = check(&d, &baseline).unwrap();
        assert!(checks[0].ok, "within 4x upper band");
        assert!(checks[1].ok, "within 4x lower band");
        assert!(checks[2].ok, "under absolute ceiling");
        assert!(!checks[3].ok, "14600 > 1000*2 must fail");
        assert!(!checks[4].ok, "27.6 < 1000/2 must fail");
        assert!(!checks[5].ok, "missing path must fail");
        assert!(
            !checks[6].ok,
            "1.3 over an absolute ceiling of 1.0 must fail"
        );
        assert!(checks[7].ok, "an absolute floor passes at equality");
        assert!(
            !checks[8].ok,
            "27.6 under an absolute floor of 28 must fail"
        );
        assert!(checks[5].render().contains("MISSING"));
        assert!(checks[3].render().starts_with("FAIL"));
        assert!(checks[0].render().starts_with("ok"));
    }

    #[test]
    fn malformed_baselines_are_errors() {
        let d = bench_doc();
        let err = |doc: &str| check(&d, &Json::parse(doc).unwrap()).unwrap_err();
        assert!(err(r#"{}"#).contains("metrics"));
        let cases = [
            (r#"{"value":1,"band":"upper","factor":1}"#, "missing 'path'"),
            (
                r#"{"path":"speedup","band":"upper","factor":1}"#,
                "missing 'value'",
            ),
            (
                r#"{"path":"speedup","value":1,"factor":1}"#,
                "missing 'band'",
            ),
            (
                r#"{"path":"speedup","value":1,"band":"lower"}"#,
                "missing 'factor'",
            ),
            (
                r#"{"path":"speedup","value":1,"band":7,"factor":1}"#,
                "missing 'band'",
            ),
            (
                r#"{"path":"speedup","value":1,"band":"upper","factor":"2"}"#,
                "missing 'factor'",
            ),
            (
                r#"{"path":"speedup","value":1,"band":"sideways","factor":1}"#,
                "unknown band",
            ),
            (
                r#"{"path":"speedup","value":1,"band":"max","factor":1}"#,
                "unknown band",
            ),
            (
                r#"{"path":"speedup","value":1,"band":"upper","factor":0.5}"#,
                "< 1",
            ),
        ];
        for (metric, want) in cases {
            let e = err(&format!(r#"{{"metrics":[{metric}]}}"#));
            assert!(e.contains(want), "{metric}: error '{e}' lacks '{want}'");
        }
    }

    #[test]
    fn median_and_ci_ranks_are_exact() {
        // Samples 0..n in reverse: the sort is exercised and each
        // order statistic equals its rank.
        let est = |n: usize| median_ci95(&mut (0..n).rev().map(|i| i as f64).collect::<Vec<_>>());
        // n = 8: half-width 1.96·√8/2 = 2.77 → ranks 1 and 7.
        assert_eq!(
            est(8),
            Estimate {
                median: 3.5,
                ci95: [1.0, 7.0]
            }
        );
        // n = 200: half-width 13.86 → ranks 86 and 114.
        assert_eq!(
            est(200),
            Estimate {
                median: 99.5,
                ci95: [86.0, 114.0]
            }
        );
        // Odd n takes the middle sample.
        assert_eq!(est(9).median, 4.0);
    }

    #[test]
    fn measure_keeps_round_values_paired() {
        let mut r = 0.0;
        let [a, b] = measure(MIN_ROUNDS, || {
            r += 1.0;
            [r, 10.0 * r]
        });
        assert_eq!(a.median, 4.5);
        assert_eq!(b.median, 45.0);
        assert_eq!(b.ci95, [20.0, 80.0]);
        assert_eq!(time_ns(|| (0..1000u64).sum::<u64>()).1, 499_500);
    }

    #[test]
    #[should_panic(expected = "too few")]
    fn fewer_than_eight_rounds_are_rejected() {
        measure(MIN_ROUNDS - 1, || [0.0]);
    }

    #[test]
    fn estimate_fields_name_the_ci_sibling() {
        let e = Estimate {
            median: 2.0,
            ci95: [1.0, 3.0],
        };
        let doc = Json::Obj(e.fields("median_ns").to_vec());
        assert_eq!(doc.dump(), r#"{"median_ns":2,"median_ns_ci95":[1,3]}"#);
        assert_eq!(format!("{e:.1}"), "2.0 [95% CI 1.0..3.0]");
    }

    #[test]
    fn committed_baseline_is_well_formed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path).expect("committed baseline is readable");
        let baseline = Json::parse(&text).expect("committed baseline is valid JSON");
        assert_eq!(baseline_mode(&baseline), Some("fast"));
        let checks = check(&Json::obj([]), &baseline).expect("every band is well formed");
        assert!(!checks.is_empty());
    }

    #[test]
    fn committed_bench_document_resolves_every_baseline_path() {
        let read = |name: &str| {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            Json::parse(&std::fs::read_to_string(&path).expect("readable")).expect("valid JSON")
        };
        let (bench, baseline) = (read("BENCH_runtime.json"), read("BENCH_baseline.json"));
        let checks = check(&bench, &baseline).expect("baseline is well formed");
        let mut timed = 0;
        for c in &checks {
            let m = c
                .measured
                .unwrap_or_else(|| panic!("{} is missing", c.path));
            // A number measured over rounds carries its CI as a sibling.
            if let Some(lo) = lookup(&bench, &format!("{}_ci95.0", c.path)) {
                let hi = lookup(&bench, &format!("{}_ci95.1", c.path)).expect("CI has two ends");
                assert!(lo <= m && m <= hi, "{}: {m} outside [{lo}, {hi}]", c.path);
                timed += 1;
            }
        }
        // serial, 3 stages (em, rfid, freqsel), swap_eval, the fused
        // power pass (streaming `em`), dispatch, campaign, plan-share
        // and 3 inventory policies.
        assert_eq!(timed, 12, "every timed band reads a median with a CI");
    }
}
