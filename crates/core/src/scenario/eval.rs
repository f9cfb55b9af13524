//! The uniform per-scenario workload the campaign driver runs.
//!
//! [`evaluate`] takes any [`Scenario`] and produces the three quantities
//! every campaign aggregates — CIB peak gain, power-up time, and decode
//! success — by running the common physics substrate: draw blind
//! channels for the placement, form the CIB envelope, drive the
//! harvester transient through the streaming block API, and key a Gen2
//! Query through the envelope ripple at the peak. Multi-sensor scenarios
//! run the Gen2 arbitration campaign instead and report inventory
//! success as their decode metric.
//!
//! Determinism: trial `i` draws from `seed.fork(i)`; the result depends
//! only on the scenario and the run mode, never on thread count.

use super::{Scenario, ScenarioKind};
use crate::multisensor::{run_campaign, scenario_deployment};
use crate::system::power_up_over_period;
use ivn_dsp::stats::Summary;
use ivn_dsp::units::dbm_to_watts;
use ivn_rfid::commands::{Command, DivideRatio, Session, TagEncoding};
use ivn_rfid::link::LinkParams;
use ivn_rfid::pie;
use ivn_runtime::json::{Json, ToJson};
use ivn_runtime::par;

/// Campaign metrics for one evaluated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Scenario name.
    pub name: String,
    /// Trial units contributing to the fractions.
    pub trials: usize,
    /// Per-trial CIB peak gain over one antenna, dB.
    pub gains_db: Vec<f64>,
    /// Power-up times of the trials that powered, seconds.
    pub times_to_power_s: Vec<f64>,
    /// Trials that reached operating voltage.
    pub powered: usize,
    /// Trials whose downlink decoded (or sensors inventoried).
    pub decoded: usize,
}

impl ScenarioMetrics {
    /// Fraction of trials that powered.
    pub fn powered_frac(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.powered as f64 / self.trials as f64
        }
    }

    /// Fraction of trials that decoded.
    pub fn decode_frac(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.decoded as f64 / self.trials as f64
        }
    }

    /// Gain summary (`None` when the scenario has no gain samples).
    pub fn gain_summary(&self) -> Option<Summary> {
        Summary::of(&self.gains_db)
    }

    /// Power-up-time summary (`None` when nothing powered).
    pub fn time_summary(&self) -> Option<Summary> {
        Summary::of(&self.times_to_power_s)
    }
}

impl ToJson for ScenarioMetrics {
    fn to_json(&self) -> Json {
        let opt = |s: Option<Summary>| s.map(|v| v.to_json()).unwrap_or(Json::Null);
        Json::obj([
            ("name", self.name.clone().into()),
            ("trials", self.trials.into()),
            ("gain_db", opt(self.gain_summary())),
            ("time_to_power_s", opt(self.time_summary())),
            ("powered_frac", self.powered_frac().into()),
            ("decode_frac", self.decode_frac().into()),
        ])
    }
}

/// Envelope sample rates for the harvester transient and command keying.
fn rates(kind: &ScenarioKind) -> (f64, f64) {
    match kind {
        ScenarioKind::PowerSession {
            powerup_rate,
            command_rate,
        } => (*powerup_rate, *command_rate),
        _ => (4096.0, 400e3),
    }
}

/// Evaluates one scenario. Runs trials inline (single worker) so the
/// campaign driver can parallelize across scenarios without nesting
/// pools; the result is identical at any thread count regardless.
pub fn evaluate(s: &Scenario, quick: bool) -> Result<ScenarioMetrics, String> {
    let placement = s.placement.resolve().map_err(|e| e.reason)?;
    let cib = s.cib(quick);
    let tag = s.tag.spec();
    let eirp_w = dbm_to_watts(s.eirp_dbm);
    let trials = s.trial_count(quick).max(1);

    if let ScenarioKind::MultiSensor {
        population,
        max_rounds,
        ..
    } = &s.kind
    {
        let population = (*population).max(1);
        let sensors = scenario_deployment(s)?;
        ivn_runtime::obs_count!("experiment.trials", trials * population);
        let runs = par::ensemble_threads(1, trials, s.seed, |rng, _| {
            run_campaign(rng, &cib, s.eirp_dbm, &sensors, *max_rounds)
        });
        let mut metrics = ScenarioMetrics {
            name: s.name.clone(),
            trials: trials * population,
            gains_db: Vec::new(),
            times_to_power_s: Vec::new(),
            powered: 0,
            decoded: 0,
        };
        for outcome in runs.iter().flatten() {
            metrics.powered += outcome.powered as usize;
            metrics.decoded += outcome.inventoried as usize;
        }
        return Ok(metrics);
    }

    if let ScenarioKind::Inventory { population, .. } = &s.kind {
        let exp = crate::inventory::InventoryExperiment::prepare(s, quick)?;
        ivn_runtime::obs_count!("experiment.trials", trials * population.count);
        let runs = par::ensemble_threads(1, trials, s.seed, |rng, _| exp.run_trial(rng));
        let mut metrics = ScenarioMetrics {
            name: s.name.clone(),
            trials: trials * population.count,
            gains_db: Vec::new(),
            times_to_power_s: Vec::new(),
            powered: 0,
            decoded: 0,
        };
        for run in &runs {
            metrics.powered += run.powered;
            metrics.decoded += run.inventoried;
        }
        return Ok(metrics);
    }

    // Single-sensor substrate: gain → power-up transient → downlink.
    ivn_runtime::obs_count!("experiment.trials", trials);
    let _eval_span = ivn_runtime::span!("experiment.scenario_eval_ns");
    let (powerup_rate, command_rate) = rates(&s.kind);
    let query = Command::Query {
        dr: DivideRatio::Dr8,
        m: TagEncoding::Fm0,
        trext: false,
        session: Session::S0,
        q: 0,
    };
    let bits = query.encode();
    let link = LinkParams::paper_defaults();
    let pie_runs = pie::encode_frame(&bits, &link.pie, query.needs_trcal());
    let profile = pie::rasterize(&pie_runs, command_rate, 0.0);

    struct TrialOut {
        gain_db: f64,
        time_to_power_s: Option<f64>,
        decoded: bool,
    }

    let outs = par::ensemble_threads(1, trials, s.seed, |rng, _| {
        let trial = placement.draw_trial(rng, cib.n(), &tag, eirp_w, cib.carrier_hz);
        let envelope = cib.envelope_at(&trial.channels);
        let single_w = trial.channels[0].norm_sqr();
        let (t_peak, peak_amp) = {
            let _span = ivn_runtime::span!("experiment.trial.peak_ns");
            envelope.peak_over_period(cib.grid)
        };
        let gain_db = 10.0 * (peak_amp * peak_amp / single_w).log10();

        // Harvester transient over one CIB period, up to the wake sample.
        let time_to_power_s = {
            let _span = ivn_runtime::span!("experiment.trial.powerup_ns");
            power_up_over_period(&tag.power, &envelope, powerup_rate)
        };

        // Downlink Query keyed on the envelope peak, decoded through the
        // CIB ripple (only meaningful once powered).
        let decoded = time_to_power_s.is_some() && {
            let tag_env = {
                let _span = ivn_runtime::span!("experiment.trial.keyed_ns");
                envelope.keyed_window(&profile, t_peak, command_rate)
            };
            pie::decode_frame(&tag_env, command_rate)
                .map(|d| d == bits)
                .unwrap_or(false)
        };
        TrialOut {
            gain_db,
            time_to_power_s,
            decoded,
        }
    });

    let mut metrics = ScenarioMetrics {
        name: s.name.clone(),
        trials,
        gains_db: Vec::with_capacity(trials),
        times_to_power_s: Vec::new(),
        powered: 0,
        decoded: 0,
    };
    for o in outs {
        metrics.gains_db.push(o.gain_db);
        if let Some(t) = o.time_to_power_s {
            metrics.times_to_power_s.push(t);
            metrics.powered += 1;
        }
        metrics.decoded += o.decoded as usize;
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::super::builtin;
    use super::*;

    #[test]
    fn session_builtin_powers_and_decodes() {
        let s = builtin("session").unwrap();
        let m = evaluate(&s, true).unwrap();
        assert_eq!(m.trials, 4);
        assert_eq!(m.gains_db.len(), 4);
        assert!(m.powered_frac() > 0.5, "powered {}", m.powered_frac());
        assert!(m.decode_frac() > 0.0, "decoded {}", m.decode_frac());
        assert_eq!(m.times_to_power_s.len(), m.powered);
        let g = m.gain_summary().unwrap();
        assert!(g.median > 5.0 && g.median < 25.0, "gain {g}");
    }

    #[test]
    fn evaluate_is_deterministic() {
        let s = builtin("session").unwrap();
        let a = evaluate(&s, true).unwrap();
        let b = evaluate(&s, true).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().dump(), b.to_json().dump());
    }

    #[test]
    fn multisensor_builtin_inventories_population() {
        let s = builtin("multisensor").unwrap();
        let m = evaluate(&s, true).unwrap();
        assert_eq!(m.trials, 15); // 3 trials × 5 sensors
        assert!(m.gains_db.is_empty());
        assert!(m.powered_frac() > 0.5, "powered {}", m.powered_frac());
        assert!(m.decode_frac() > 0.0, "inventoried {}", m.decode_frac());
        assert_eq!(m.to_json().get("gain_db"), Some(&Json::Null));
    }

    #[test]
    fn evaluate_counts_experiment_trials() {
        // The campaign path must feed the same `experiment.trials`
        // counter the figure experiments do — it was stuck at zero in
        // the embedded obs_report because only figure entry points
        // incremented it.
        ivn_runtime::obs::set_enabled(true);
        let before = ivn_runtime::obs::report()
            .counter("experiment.trials")
            .unwrap_or(0);
        let s = builtin("session").unwrap();
        let m = evaluate(&s, true).unwrap();
        let multi = builtin("multisensor").unwrap();
        let mm = evaluate(&multi, true).unwrap();
        let after = ivn_runtime::obs::report()
            .counter("experiment.trials")
            .unwrap_or(0);
        assert!(after > before, "experiment.trials did not advance");
        assert!(
            after - before >= (m.trials + mm.trials) as u64,
            "expected >= {} new trials, got {}",
            m.trials + mm.trials,
            after - before
        );
    }

    #[test]
    fn unknown_medium_is_an_error_not_a_panic() {
        let mut s = builtin("session").unwrap();
        s.placement = super::super::PlacementSpec::MediaBox {
            medium: "unobtainium".into(),
            depth_m: 0.05,
        };
        let err = evaluate(&s, true).unwrap_err();
        assert!(err.contains("unobtainium"), "{err}");
    }
}
