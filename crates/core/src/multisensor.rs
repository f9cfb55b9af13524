//! Multi-sensor operation (paper §3.7, "powering and communicating with
//! multiple sensors").
//!
//! A CIB beamformer scans 3D space through its time-varying channel, so
//! one frequency plan charges *every* sensor — each at its own instant in
//! the period. Collision control reuses standard Gen2 machinery: Select
//! commands address a sensor population subset, and the slotted-ALOHA
//! Q-algorithm resolves the rest. Select lengthens the downlink frame,
//! which tightens the Eq. 9 RMS budget.

use crate::body::{Placement, TagSpec};
use crate::cib::CibConfig;
use crate::scenario::{Scenario, ScenarioKind};
use ivn_dsp::units::dbm_to_watts;
use ivn_rfid::epc::Epc;
use ivn_rfid::reader::{QAlgorithm, Reader, SlotOutcome};
use ivn_rfid::tag::Tag;
use ivn_runtime::rng::Rng;

/// One sensor in a deployment: identity, electrical spec and placement.
#[derive(Debug, Clone)]
pub struct SensorDeployment {
    /// 96-bit EPC.
    pub epc: u128,
    /// Tag electrical specification.
    pub spec: TagSpec,
    /// Where it sits.
    pub placement: Placement,
}

/// Outcome for one sensor in a multi-sensor round.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorOutcome {
    /// The sensor's EPC.
    pub epc: u128,
    /// Whether CIB delivered wake-up power during the period.
    pub powered: bool,
    /// Whether it was successfully inventoried.
    pub inventoried: bool,
}

/// EPC base for scenario-declared populations; sensor `i` gets `base+i`.
const SCENARIO_EPC_BASE: u128 = 0x3005_0000_0000_0000_0000_0000;

/// The sensor population a [`ScenarioKind::MultiSensor`] scenario
/// declares: `population` copies of the scenario's tag, spread
/// `spacing_m` apart along the placement's geometry axis.
pub(crate) fn scenario_deployment(s: &Scenario) -> Result<Vec<SensorDeployment>, String> {
    let ScenarioKind::MultiSensor {
        population,
        spacing_m,
        ..
    } = s.kind
    else {
        return Err(format!(
            "scenario '{}' is not multi_sensor (kind '{}')",
            s.name,
            s.kind.type_name()
        ));
    };
    let spec = s.tag.spec();
    (0..population.max(1))
        .map(|i| {
            Ok(SensorDeployment {
                epc: SCENARIO_EPC_BASE + i as u128,
                spec: spec.clone(),
                placement: s
                    .placement
                    .at_offset(i as f64 * spacing_m)
                    .resolve()
                    .map_err(|e| e.reason)?,
            })
        })
        .collect()
}

/// Runs one multi-sensor campaign: powers the population with CIB,
/// inventories whoever woke via Gen2 arbitration.
///
/// Returns per-sensor outcomes. Deterministic per RNG.
pub fn run_campaign<R: Rng + ?Sized>(
    rng: &mut R,
    cib: &CibConfig,
    eirp_dbm: f64,
    sensors: &[SensorDeployment],
    max_rounds: usize,
) -> Vec<SensorOutcome> {
    let eirp = dbm_to_watts(eirp_dbm);
    // Stage 1: per-sensor power-up from each sensor's own channel draw.
    let mut tags: Vec<Tag> = Vec::with_capacity(sensors.len());
    let mut powered_flags = Vec::with_capacity(sensors.len());
    for (i, s) in sensors.iter().enumerate() {
        let trial = s
            .placement
            .draw_trial(rng, cib.n(), &s.spec, eirp, cib.carrier_hz);
        let peak = cib.received_peak_power(&trial.channels);
        let powered = s.spec.power.can_power_at_peak(peak);
        let mut tag = Tag::with_epc96(s.epc, rng.random::<u64>() ^ i as u64);
        tag.set_powered(powered);
        powered_flags.push(powered);
        tags.push(tag);
    }

    // Stage 2: Gen2 inventory over the powered population.
    let mut reader = Reader::new(
        ivn_rfid::commands::Session::S0,
        QAlgorithm { q0: 2, c: 0.3 },
    );
    let mut inventoried: Vec<Epc> = Vec::new();
    for _ in 0..max_rounds {
        let (outcomes, _) = reader.run_round(&mut tags);
        for o in outcomes {
            if let SlotOutcome::Inventoried(epc) = o {
                if !inventoried.contains(&epc) {
                    inventoried.push(epc);
                }
            }
        }
        if inventoried.len() == powered_flags.iter().filter(|&&p| p).count() {
            break;
        }
    }

    sensors
        .iter()
        .enumerate()
        .map(|(i, s)| SensorOutcome {
            epc: s.epc,
            powered: powered_flags[i],
            inventoried: inventoried.contains(&Epc::from_u96(s.epc)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    fn deployment(epc: u128, placement: Placement) -> SensorDeployment {
        SensorDeployment {
            epc,
            spec: TagSpec::standard(),
            placement,
        }
    }

    #[test]
    fn nearby_population_fully_inventoried() {
        let mut rng = StdRng::seed_from_u64(1);
        let cib = CibConfig::paper_prototype_n(8);
        let sensors: Vec<SensorDeployment> = (0..5)
            .map(|i| {
                deployment(
                    0xE000 + i as u128,
                    Placement::free_space(2.0 + i as f64 * 0.3),
                )
            })
            .collect();
        let out = run_campaign(&mut rng, &cib, 37.0, &sensors, 40);
        assert_eq!(out.len(), 5);
        for o in &out {
            assert!(o.powered, "{o:?}");
            assert!(o.inventoried, "{o:?}");
        }
    }

    #[test]
    fn out_of_reach_sensor_reported_unpowered() {
        let mut rng = StdRng::seed_from_u64(2);
        let cib = CibConfig::paper_prototype_n(4);
        let sensors = vec![
            deployment(0xA1, Placement::free_space(2.0)),
            deployment(0xA2, Placement::free_space(500.0)), // hopeless
        ];
        let out = run_campaign(&mut rng, &cib, 37.0, &sensors, 30);
        assert!(out[0].inventoried);
        assert!(!out[1].powered);
        assert!(!out[1].inventoried);
    }

    #[test]
    fn mixed_depths_match_single_sensor_behaviour() {
        // One shallow, one deep-in-water sensor: CIB reaches the shallow
        // one; the deep one stays silent — exactly as the per-sensor
        // sessions would predict.
        let mut rng = StdRng::seed_from_u64(3);
        let cib = CibConfig::paper_prototype_n(8);
        let sensors = vec![
            deployment(0xB1, Placement::water_tank(0.05)),
            deployment(0xB2, Placement::water_tank(0.45)),
        ];
        let out = run_campaign(&mut rng, &cib, 37.0, &sensors, 30);
        assert!(out[0].powered && out[0].inventoried, "{out:?}");
        assert!(!out[1].powered, "{out:?}");
    }

    #[test]
    fn campaign_deterministic() {
        let cib = CibConfig::paper_prototype_n(6);
        let sensors = vec![
            deployment(0xC1, Placement::free_space(3.0)),
            deployment(0xC2, Placement::free_space(4.0)),
        ];
        let a = run_campaign(&mut StdRng::seed_from_u64(9), &cib, 37.0, &sensors, 20);
        let b = run_campaign(&mut StdRng::seed_from_u64(9), &cib, 37.0, &sensors, 20);
        assert_eq!(a, b);
    }
}
