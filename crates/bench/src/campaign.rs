//! The mass-campaign driver: feed a directory of scenario files through
//! the worker pool and aggregate the per-scenario metrics.
//!
//! Scenarios are loaded in filename order and evaluated on the
//! persistent order-preserving [`WorkerPool`], so the campaign's
//! aggregate is bit-identical at any thread count — each scenario's
//! trials draw from its own seed, never from a shared stream — and a
//! mass campaign's thousands of dispatches pay no per-call spawn cost.

use ivn_core::scenario::{evaluate, Scenario, ScenarioMetrics};
use ivn_dsp::stats::{Ecdf, Summary};
use ivn_runtime::json::{Json, ToJson};
use ivn_runtime::pool::WorkerPool;
use std::path::Path;

/// One campaign run: per-scenario outcomes in load order.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Evaluated metrics, one per scenario that ran.
    pub metrics: Vec<ScenarioMetrics>,
    /// Entries that failed to load or evaluate, in load order:
    /// (scenario name, or file name for a file that did not load; reason).
    pub errors: Vec<(String, String)>,
}

/// One campaign entry as loaded from disk: the scenario, or the file's
/// name and why it could not be read, parsed or validated.
pub(crate) type Loaded = Result<Scenario, (String, String)>;

/// Loads every `*.json` scenario in `dir`, sorted by filename so the
/// campaign order is reproducible across filesystems. A bad file does
/// not stop the load: it stays in its filename slot as an `Err`, which
/// [`run_loaded`] reports under `errors`. Only an unreadable directory,
/// or one without any `*.json` file, is an error here.
pub fn load_dir(dir: &Path) -> Result<Vec<Loaded>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no *.json scenarios in {}", dir.display()));
    }
    Ok(files
        .iter()
        .map(|p| {
            let file = p.file_name().map_or_else(
                || p.display().to_string(),
                |f| f.to_string_lossy().into_owned(),
            );
            let text = std::fs::read_to_string(p).map_err(|e| (file.clone(), e.to_string()))?;
            Scenario::parse(&text).map_err(|e| (file, e.reason))
        })
        .collect())
}

/// Runs every scenario on `threads` workers. Deterministic: the result
/// depends only on the scenario list and the run mode.
///
/// With observability on, progress is visible live: the
/// `campaign.scenarios_total` gauge is set up front and every finished
/// evaluation bumps the `campaign.scenarios_done` counter, which is what
/// the `--live` flight recorder diffs into a scenarios/sec rate.
pub fn run(scenarios: &[Scenario], quick: bool, threads: usize) -> CampaignOutcome {
    run_loaded(scenarios.iter().cloned().map(Ok).collect(), quick, threads)
}

/// [`run`] over a loaded directory: files that failed to load land in
/// `errors` next to the scenarios that failed to evaluate, all in
/// filename order, so the report stays byte-identical at any width.
pub fn run_loaded(entries: Vec<Loaded>, quick: bool, threads: usize) -> CampaignOutcome {
    ivn_runtime::obs_gauge!("campaign.scenarios_total", entries.len());
    // Pool jobs must own their data, so scenarios are moved in.
    let results = WorkerPool::global().map_move(entries, threads, move |_, entry| {
        let out = match entry {
            Ok(s) => (s.name.clone(), evaluate(&s, quick)),
            Err((file, reason)) => (file, Err(reason)),
        };
        ivn_runtime::obs_count!("campaign.scenarios_done", 1);
        out
    });
    let mut metrics = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (name, r) in results {
        match r {
            Ok(m) => metrics.push(m),
            Err(e) => errors.push((name, e)),
        }
    }
    CampaignOutcome { metrics, errors }
}

impl CampaignOutcome {
    /// The campaign aggregate: distributions of per-scenario median gain
    /// and power-up time (`Ecdf` + `Summary`), and summaries of the
    /// powered/decoded fractions.
    pub fn aggregate(&self) -> Json {
        let opt = |s: Option<Summary>| s.map(|v| v.to_json()).unwrap_or(Json::Null);
        let gains: Vec<f64> = self
            .metrics
            .iter()
            .filter_map(|m| m.gain_summary().map(|g| g.median))
            .collect();
        let times: Vec<f64> = self
            .metrics
            .iter()
            .filter_map(|m| m.time_summary().map(|t| t.median))
            .collect();
        let powered: Vec<f64> = self.metrics.iter().map(|m| m.powered_frac()).collect();
        let decoded: Vec<f64> = self.metrics.iter().map(|m| m.decode_frac()).collect();
        Json::obj([
            ("scenarios", (self.metrics.len() + self.errors.len()).into()),
            ("evaluated", self.metrics.len().into()),
            ("errors", self.errors.len().into()),
            ("gain_db_median", opt(Summary::of(&gains))),
            (
                "gain_db_cdf",
                if gains.is_empty() {
                    Json::Null
                } else {
                    Ecdf::new(gains).to_json()
                },
            ),
            ("time_to_power_s_median", opt(Summary::of(&times))),
            (
                "time_to_power_s_cdf",
                if times.is_empty() {
                    Json::Null
                } else {
                    Ecdf::new(times).to_json()
                },
            ),
            ("powered_frac", opt(Summary::of(&powered))),
            ("decode_frac", opt(Summary::of(&decoded))),
        ])
    }

    /// The full campaign report: aggregate plus per-scenario metrics and
    /// errors, as one JSON document.
    pub fn report(&self) -> Json {
        Json::obj([
            ("aggregate", self.aggregate()),
            (
                "results",
                Json::Arr(self.metrics.iter().map(|m| m.to_json()).collect()),
            ),
            (
                "errors",
                Json::Arr(
                    self.errors
                        .iter()
                        .map(|(name, reason)| {
                            Json::obj([
                                ("name", name.clone().into()),
                                ("error", reason.clone().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// A short human-readable summary for stdout.
    pub fn render(&self) -> String {
        let mut out = crate::header(&format!(
            "campaign — {} scenarios ({} errors)",
            self.metrics.len() + self.errors.len(),
            self.errors.len()
        ));
        let gains: Vec<f64> = self
            .metrics
            .iter()
            .filter_map(|m| m.gain_summary().map(|g| g.median))
            .collect();
        if let Some(g) = Summary::of(&gains) {
            out += &format!(
                "median gain across scenarios: {:.1} dB [p10 {:.1}, p90 {:.1}]\n",
                g.median, g.p10, g.p90
            );
        }
        let times: Vec<f64> = self
            .metrics
            .iter()
            .filter_map(|m| m.time_summary().map(|t| t.median))
            .collect();
        if let Some(t) = Summary::of(&times) {
            out += &format!(
                "median time-to-power: {:.1} ms [p10 {:.1}, p90 {:.1}]\n",
                t.median * 1e3,
                t.p10 * 1e3,
                t.p90 * 1e3
            );
        }
        let powered: Vec<f64> = self.metrics.iter().map(|m| m.powered_frac()).collect();
        let decoded: Vec<f64> = self.metrics.iter().map(|m| m.decode_frac()).collect();
        if let (Some(p), Some(d)) = (Summary::of(&powered), Summary::of(&decoded)) {
            out += &format!(
                "powered: median {:.0}% of trials; decoded: median {:.0}%\n",
                p.median * 100.0,
                d.median * 100.0
            );
        }
        for (name, reason) in &self.errors {
            out += &format!("error: {name}: {reason}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_core::scenario::builtin;

    fn small_fleet() -> Vec<Scenario> {
        (0..6)
            .map(|i| {
                let mut s = builtin("session").unwrap();
                s.name = format!("s{i:02}");
                s.seed = 100 + i;
                s
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_aggregate() {
        let fleet = small_fleet();
        let a = run(&fleet, true, 1);
        let b = run(&fleet, true, 2);
        let c = run(&fleet, true, 8);
        assert_eq!(a.report().dump(), b.report().dump());
        assert_eq!(b.report().dump(), c.report().dump());
    }

    #[test]
    fn errors_are_collected_not_fatal() {
        let mut fleet = small_fleet();
        fleet[2].placement = ivn_core::scenario::PlacementSpec::MediaBox {
            medium: "mystery-meat".into(),
            depth_m: 0.01,
        };
        let out = run(&fleet, true, 2);
        assert_eq!(out.metrics.len(), 5);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].0, "s02");
        let agg = out.aggregate();
        assert_eq!(agg.get("evaluated"), Some(&Json::Num(5.0)));
        assert_eq!(agg.get("errors"), Some(&Json::Num(1.0)));
    }

    #[test]
    fn load_dir_sorted_and_validated() {
        let dir = std::env::temp_dir().join("ivn-campaign-loadtest");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fleet = small_fleet();
        // Write out of order; load must come back sorted by filename.
        for (i, s) in fleet.iter().enumerate().rev() {
            std::fs::write(dir.join(format!("{:03}.json", i)), s.dump()).unwrap();
        }
        std::fs::write(dir.join("README.txt"), "not a scenario").unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), fleet.len());
        for (l, s) in loaded.iter().zip(&fleet) {
            assert_eq!(l.as_ref().unwrap().name, s.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
