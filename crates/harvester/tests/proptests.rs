//! Property-based tests for the energy-harvesting circuit models.

use ivn_harvester::conduction::{conduction_angle, conduction_duty};
use ivn_harvester::diode::DiodeModel;
use ivn_harvester::powerup::TagPowerProfile;
use ivn_harvester::rectifier::Rectifier;
use ivn_runtime::prop::{any, Just, Strategy};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, prop_oneof, props};

fn diode() -> impl Strategy<Value = DiodeModel> {
    prop_oneof![
        Just(DiodeModel::Ideal),
        (0.05f64..0.5, 1.0f64..200.0).prop_map(|(vth, r_on)| DiodeModel::Threshold { vth, r_on }),
        (1e-12f64..1e-6, 1.0f64..2.0)
            .prop_map(|(i_sat, ideality)| DiodeModel::Shockley { i_sat, ideality }),
    ]
}

props! {
    cases = 96;

    fn diode_current_monotone(d in diode(), v1 in -1.0f64..2.0, dv in 0.0f64..2.0) {
        prop_assert!(d.current(v1 + dv) >= d.current(v1) - 1e-15);
    }

    fn diode_blocks_reverse(d in diode(), v in 0.0f64..2.0) {
        prop_assert!(d.current(-v) <= 1e-12);
    }

    fn conduction_angle_bounds(vs in 0.0f64..10.0, vth in 0.0f64..0.5) {
        let w = conduction_angle(vs, vth);
        prop_assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&w));
        let duty = conduction_duty(vs, vth);
        prop_assert!((0.0..=0.5 + 1e-12).contains(&duty));
        if vs <= vth {
            prop_assert_eq!(w, 0.0);
        }
    }

    fn conduction_angle_monotone_in_drive(vth in 0.01f64..0.5,
                                          vs in 0.0f64..5.0, dv in 0.0f64..5.0) {
        prop_assert!(conduction_angle(vs + dv, vth) >= conduction_angle(vs, vth));
    }

    fn rectifier_output_nonnegative_and_linear_above_threshold(
        stages in 1usize..8, vs in 0.0f64..3.0,
    ) {
        let r = Rectifier::new(stages, DiodeModel::typical_rfid(), 1000.0);
        let v = r.steady_state_vdc(vs);
        prop_assert!(v >= 0.0);
        if vs > 0.25 {
            prop_assert!((v - stages as f64 * (vs - 0.25)).abs() < 1e-12);
        }
    }

    fn powerup_requires_threshold(p_dbm in -40.0f64..20.0) {
        // The analytic gate is consistent: below static sensitivity the
        // chip can never wake regardless of exposure duration.
        let tag = TagPowerProfile::standard_tag();
        let p = ivn_dsp::units::dbm_to_watts(p_dbm);
        if p < tag.static_sensitivity_watts() {
            prop_assert!(!tag.can_power_at_peak(p));
            let env = vec![p; 10_000];
            prop_assert!(!tag.power_up(&env, 1e5).powered);
        }
    }

    fn time_to_power_decreases_with_power(p1_dbm in -8.0f64..10.0, extra_db in 0.1f64..20.0) {
        let tag = TagPowerProfile::standard_tag();
        let p1 = ivn_dsp::units::dbm_to_watts(p1_dbm);
        let p2 = ivn_dsp::units::dbm_to_watts(p1_dbm + extra_db);
        let out1 = tag.power_up(&vec![p1; 50_000], 1e6);
        let out2 = tag.power_up(&vec![p2; 50_000], 1e6);
        if let (Some(t1), Some(t2)) = (out1.time_to_power_s, out2.time_to_power_s) {
            prop_assert!(t2 <= t1 + 1e-9);
        }
    }

    fn streaming_power_up_matches_batch(seed in any::<u64>(), block in 1usize..64) {
        // A noisy ramp whose peak straddles the power-up threshold, fed to
        // the incremental integrator in arbitrary block sizes, must land on
        // the exact same outcome as the whole-buffer oracle.
        let mut rng = StdRng::seed_from_u64(seed);
        let tag = TagPowerProfile::standard_tag();
        let n = 300usize;
        let peak = tag.required_peak_power_watts() * (0.5 + 2.0 * rng.random::<f64>());
        let env: Vec<f64> = (0..n)
            .map(|i| peak * (i as f64 / (n - 1) as f64) * (0.8 + 0.4 * rng.random::<f64>()))
            .collect();
        let batch = tag.power_up(&env, 1e5);
        let mut state = tag.begin_power_up(1e5);
        for chunk in env.chunks(block) {
            state.step_block(chunk);
        }
        let streamed = state.finish();
        prop_assert_eq!(streamed.powered, batch.powered);
        prop_assert_eq!(streamed.time_to_power_s, batch.time_to_power_s);
        prop_assert_eq!(streamed.peak_vdc.to_bits(), batch.peak_vdc.to_bits());
        prop_assert_eq!(streamed.final_vdc.to_bits(), batch.final_vdc.to_bits());
    }
}
