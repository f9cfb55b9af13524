//! Perf-regression sentinel: machine-checkable tolerance bands over
//! BENCH_runtime.json.
//!
//! The committed `BENCH_baseline.json` is the one place a bench number is
//! gated: stage medians, streaming MS/s, pool dispatch speedup, overhead
//! CIs, campaign and inventory throughput, and the presence of the obs
//! report's spans. Each metric has a direction and a tolerance factor —
//! wide enough to absorb shared-runner noise where the value is a
//! timing, exactly 1 where it is an absolute floor or ceiling.
//! `bench_runtime --check-baseline` evaluates the bands after a bench
//! run; `scripts/verify.sh` makes it a PR gate.
//!
//! Baseline format:
//!
//! ```json
//! {
//!   "mode": "fast",
//!   "metrics": [
//!     {"path": "stages.stage=sdr.median_ns", "value": 14600, "band": "upper", "factor": 4.0},
//!     {"path": "streaming.stages.stage=sdr.msps", "value": 20.0, "band": "lower", "factor": 1.0},
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

/// Resolves a dotted `path` (with `key=value` array selectors, bare
/// integer indices and dotted object keys) to a number inside `doc`.
pub fn lookup(doc: &Json, path: &str) -> Option<f64> {
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
pub enum Band {
    /// Fail when `measured > value * factor` (latency-like metrics).
    Upper(f64),
    /// Fail when `measured < value / factor` (throughput-like metrics).
    Lower(f64),
}

/// Outcome of checking one baseline metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Dotted path into the bench document.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Measured value (`None` when the path is missing).
    pub measured: Option<f64>,
    /// The band that was applied.
    pub band: Band,
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
    fn committed_baseline_is_well_formed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path).expect("committed baseline is readable");
        let baseline = Json::parse(&text).expect("committed baseline is valid JSON");
        assert_eq!(baseline_mode(&baseline), Some("fast"));
        let checks = check(&Json::obj([]), &baseline).expect("every band is well formed");
        assert!(!checks.is_empty());
    }
}
