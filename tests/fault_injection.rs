//! Fault-injection integration tests: drive the full stack through the
//! adverse conditions the design must tolerate (or fail predictably
//! under) — noise sweeps, brownouts, timing slop, corrupted frames,
//! hostile scenario values.

use ivn::core::oob::{JamTone, OobReader, OobReaderConfig};
use ivn::core::scenario::{builtin, gen, Scenario};
use ivn::dsp::complex::Complex64;
use ivn::dsp::noise::{AwgnSource, PhaseNoise};
use ivn::rfid::commands::Command;
use ivn::rfid::pie::decode_frame;
use ivn::rfid::tag::{Tag, TagReply, TagState};
use ivn::sdr::clock::ClockDistribution;
use ivn_runtime::json::{FromJson, Json};
use ivn_runtime::rng::StdRng;

mod common;
use common::{query, rasterized_query};

#[test]
fn uplink_degrades_gracefully_with_noise() {
    // Correlation must fall monotonically (within MC slop) as noise rises,
    // crossing the 0.8 threshold rather than cliff-diving to zero.
    let reader = OobReader::new(OobReaderConfig::paper_defaults());
    let msg: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
    let mut last_corr = 1.1;
    let mut crossings = 0;
    for noise_dbm in [-100.0, -80.0, -60.0, -45.0] {
        let mut cfg = OobReaderConfig::paper_defaults();
        cfg.noise_watts = ivn::dsp::units::dbm_to_watts(noise_dbm);
        let reader_n = OobReader::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let r = reader_n.receive_and_decode(&mut rng, 1e-5, &msg, 4, &[], 2000);
        if r.correlation < 0.8 && last_corr >= 0.8 {
            crossings += 1;
        }
        assert!(
            r.correlation <= last_corr + 0.1,
            "correlation rose with noise: {} then {}",
            last_corr,
            r.correlation
        );
        last_corr = r.correlation;
    }
    assert_eq!(crossings, 1, "expected one clean threshold crossing");
    let _ = reader;
}

#[test]
fn pie_decoding_survives_moderate_amplitude_noise() {
    let (bits, clean_env) = rasterized_query(400e3, 0.0);
    let mut rng = StdRng::seed_from_u64(2);
    // 5 % amplitude noise: fine. 45 %: must fail (not silently succeed).
    let mut decode_with_noise = |sigma: f64| -> bool {
        let mut env = clean_env.clone();
        let mut noise = AwgnSource::new(sigma * sigma);
        for v in env.iter_mut() {
            *v = (*v + noise.sample(&mut rng).re).max(0.0);
        }
        decode_frame(&env, 400e3)
            .map(|d| d == bits)
            .unwrap_or(false)
    };
    assert!(decode_with_noise(0.05));
    let mut failures = 0;
    for _ in 0..5 {
        if !decode_with_noise(0.45) {
            failures += 1;
        }
    }
    assert!(failures >= 3, "only {failures}/5 failed at 45 % noise");
}

#[test]
fn corrupted_command_is_rejected_not_misread() {
    // Flip bits in an encoded Query: the command layer must reject via
    // CRC rather than decode into a different command.
    let bits = query().encode();
    for i in 0..bits.len() {
        let mut corrupted = bits.clone();
        corrupted[i] = !corrupted[i];
        match Command::decode(&corrupted) {
            Err(_) => {}
            Ok(cmd) => {
                // Flipping an opcode bit may yield another command type;
                // it must never silently yield a *Query* with wrong fields.
                assert!(
                    !matches!(cmd, Command::Query { .. }),
                    "bit {i} produced a forged Query"
                );
            }
        }
    }
}

#[test]
fn brownout_storm_never_corrupts_tag_state() {
    // Rapid power cycling interleaved with commands: the tag must always
    // be in a consistent state and never reply while dark.
    let mut tag = Tag::with_epc96(0xD00D, 3);
    let mut rng = StdRng::seed_from_u64(4);
    use ivn_runtime::rng::Rng;
    for step in 0..2000 {
        let powered = rng.random::<f64>() < 0.5;
        tag.set_powered(powered);
        let reply = tag.process(&query());
        if !powered {
            assert_eq!(reply, TagReply::Silent, "dark reply at step {step}");
            assert_eq!(tag.state(), TagState::Ready);
        }
    }
}

#[test]
fn phase_noise_does_not_break_cib_gain() {
    // A slow phase random walk on each carrier (shared-reference PLLs)
    // leaves the CIB peak intact: the envelope's peak only cares about
    // relative phase *rates*, and the walk is slow next to the offsets.
    let mut rng = StdRng::seed_from_u64(5);
    use ivn::core::cib::CibConfig;
    use ivn_runtime::rng::Rng;
    let cfg = CibConfig::paper_prototype_n(8);
    let clean: Vec<Complex64> = (0..8)
        .map(|_| Complex64::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU))
        .collect();
    let clean_peak = cfg.received_peak_power(&clean);
    // Apply an accumulated phase-noise rotation to each channel.
    let mut pn = PhaseNoise::new(0.002);
    let noisy: Vec<Complex64> = clean
        .iter()
        .map(|c| {
            for _ in 0..100 {
                pn.sample(&mut rng);
            }
            *c * Complex64::cis(pn.phase())
        })
        .collect();
    let noisy_peak = cfg.received_peak_power(&noisy);
    // Phases are blind anyway: the peak distribution is unchanged; check
    // the realized value stays in the same ballpark.
    assert!(
        noisy_peak > clean_peak * 0.5 && noisy_peak < clean_peak * 2.0,
        "clean {clean_peak} noisy {noisy_peak}"
    );
}

#[test]
fn trigger_slop_breaks_command_synchrony_predictably() {
    // With Octoclock-grade sync every device keys the same notch; with
    // millisecond slop the superposed envelope no longer carries clean
    // PIE notches and the tag cannot decode.
    let rate = 400e3;
    let (bits, profile) = rasterized_query(rate, 0.0);
    let mut rng = StdRng::seed_from_u64(6);

    let decode_with_clock = |clock: &ClockDistribution, rng: &mut StdRng| -> bool {
        use ivn_runtime::rng::Rng;
        let offsets = clock.draw_trigger_offsets(rng, 4);
        // Superpose 4 antennas' keyed envelopes with per-antenna delay.
        let mut env = vec![0.0f64; profile.len()];
        for &off in &offsets {
            let shift = (off * rate).round() as i64;
            let phase = rng.random::<f64>() * std::f64::consts::TAU;
            let _ = phase; // amplitude-only superposition (worst case)
            for (k, e) in env.iter_mut().enumerate() {
                let idx = k as i64 - shift;
                let amp = if idx >= 0 && (idx as usize) < profile.len() {
                    profile[idx as usize]
                } else {
                    1.0
                };
                *e += amp;
            }
        }
        decode_frame(&env, rate).map(|d| d == bits).unwrap_or(false)
    };

    assert!(decode_with_clock(&ClockDistribution::octoclock(), &mut rng));
    let sloppy = ClockDistribution {
        pps_jitter_rms_s: 30e-6, // comparable to the notch width
        residual_ppm_rms: 0.0,
    };
    let mut failures = 0;
    for _ in 0..5 {
        if !decode_with_clock(&sloppy, &mut rng) {
            failures += 1;
        }
    }
    assert!(
        failures >= 3,
        "sloppy clock decoded too often ({failures}/5 failed)"
    );
}

#[test]
fn saturated_frontend_flagged() {
    // The in-band reader without its SAW, facing CIB tones that sum in
    // phase at its antenna (§4's self-jamming case). The AGC sets the RMS
    // to a quarter of the ADC full scale, so a blocker with a crest factor
    // above 4 (32 equal in-phase tones: √32 ≈ 5.7) clips at its peaks and
    // the decode must report saturation.
    let reader = OobReader::new(OobReaderConfig::in_band_ablation());
    assert!(!reader.config.use_saw);
    let jam: Vec<JamTone> = (0..32)
        .map(|i| JamTone {
            freq_hz: reader.config.carrier_hz + 7.0 * i as f64,
            amplitude: 0.05,
            phase: 0.0,
        })
        .collect();
    let msg: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let r = reader.receive_and_decode(&mut rng, 1e-4, &msg, 4, &jam, 2000);
    assert!(r.adc_saturation > 0.0, "clipping not reported");
}

#[test]
fn hostile_boundary_values_are_rejected_at_parse() {
    // Each value used to panic deep in the stack (negative depth or a
    // zero air gap in the layered-media model, 1e308 dBm in the
    // harvester, 100 000 antennas in the paper plan) or silently run one
    // trial; parsing must now return an error naming the field's dot path.
    let inf = f64::INFINITY;
    let cases: &[(&str, &str, &[f64])] = &[
        (
            "session",
            "placement.depth_m",
            &[-5.0, -1e-9, f64::NAN, inf],
        ),
        ("fig3", "placement.depth_m", &[-0.1, f64::NEG_INFINITY]),
        ("fig2", "placement.range_m", &[0.0, -2.0, f64::NAN, inf]),
        ("multisensor", "kind.spacing_m", &[-0.03, f64::NAN]),
        ("inventory", "kind.population.spacing_m", &[-0.001, inf]),
        (
            "session",
            "eirp_dbm",
            &[1e308, 60.5, f64::NAN, inf, f64::NEG_INFINITY],
        ),
        ("session", "array.n_antennas", &[100000.0, 11.0, 0.0]),
        ("session", "trials.quick", &[0.0]),
        ("session", "trials.full", &[0.0]),
    ];
    for &(name, path, values) in cases {
        for &v in values {
            match scenario_with(name, path, v) {
                Ok(_) => panic!("{name}: {path} = {v} parsed"),
                Err(reason) => assert!(
                    reason.contains(path),
                    "{name}: {path} = {v}: reason '{reason}' does not name the field"
                ),
            }
        }
    }
    // Through JSON text too, the path campaign files take.
    let text = builtin("session")
        .expect("builtin")
        .dump()
        .replace("\"depth_m\":0.08", "\"depth_m\":-5");
    let reason = Scenario::parse(&text).expect_err("-5 m parsed").reason;
    assert!(reason.contains("placement.depth_m"), "{reason}");
    // In-range edges still parse: the sweeps in `verify.sh` (38 dBm) and
    // the benchmark's ±5 % EIRP jitter (up to 38.85 dBm) sit far below
    // the cap.
    for (name, path, v) in [
        ("session", "placement.depth_m", 0.0),
        ("fig2", "placement.range_m", 1e-3),
        ("session", "eirp_dbm", 38.85),
        ("session", "eirp_dbm", 60.0),
        ("session", "eirp_dbm", -30.0),
        ("session", "array.n_antennas", 1.0),
        ("session", "array.n_antennas", 10.0),
        ("session", "trials.quick", 1.0),
    ] {
        if let Err(reason) = scenario_with(name, path, v) {
            panic!("{name}: {path} = {v} rejected: {reason}");
        }
    }
}

#[test]
fn every_builtin_and_benchmark_shaped_fleet_validates() {
    for name in ivn::core::scenario::BUILTIN_NAMES {
        let s = builtin(name).expect("builtin");
        if let Err(e) = s.validate() {
            panic!("builtin {name} rejected: {}", e.reason);
        }
    }
    // The benchmark's campaign shape: session swept over depths with
    // ±5 % EIRP jitter; every generated scenario must pass the schema.
    let spec = gen::GenSpec {
        base: builtin("session").expect("builtin"),
        count: 64,
        seed: 3,
        sweeps: vec![gen::SweepAxis {
            path: "placement.depth_m".into(),
            values: [0.02, 0.05, 0.08, 0.11].map(Json::Num).to_vec(),
        }],
        jitters: vec![gen::JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.05,
        }],
    };
    assert_eq!(gen::generate(&spec).expect("fleet validates").len(), 64);
}

/// The builtin `power_session` scenario with one field replaced, parsed
/// back from its JSON value (so NaN and infinities reach the parser too).
fn session_with(path: &str, value: f64) -> Result<Scenario, String> {
    scenario_with("session", path, value)
}

/// Builtin `name` with one field replaced, parsed back from its JSON
/// value.
fn scenario_with(name: &str, path: &str, value: f64) -> Result<Scenario, String> {
    let mut json = Json::parse(&builtin(name).expect("builtin").dump()).expect("json");
    gen::set_path(&mut json, path, Json::Num(value)).expect("field exists");
    Scenario::from_json(&json).map_err(|e| e.reason)
}

#[test]
fn hostile_session_sizes_are_rejected_at_parse() {
    // Each value used to panic (grid 0, rate 0) or attempt a huge
    // allocation (1e308) deep in the envelope kernels; parsing must now
    // return an error naming the field.
    let cases: &[(&str, &[f64])] = &[
        (
            "kind.powerup_rate",
            &[0.0, -4096.0, 0.5, 1e308, f64::NAN, f64::INFINITY],
        ),
        (
            "kind.command_rate",
            &[0.0, -400e3, 1e308, f64::NAN, f64::NEG_INFINITY],
        ),
        ("array.grid", &[0.0]),
    ];
    for &(path, values) in cases {
        for &v in values {
            match session_with(path, v) {
                Ok(_) => panic!("{path} = {v} parsed"),
                Err(reason) => assert!(
                    reason.contains(path),
                    "{path} = {v}: reason '{reason}' does not name the field"
                ),
            }
        }
    }
    // The same values through JSON text (finite ones only — JSON has no
    // NaN): `Scenario::parse` is the path campaign files take.
    let text = builtin("session")
        .expect("builtin")
        .dump()
        .replace("\"powerup_rate\":2048", "\"powerup_rate\":1e308");
    let reason = Scenario::parse(&text).expect_err("1e308 parsed").reason;
    assert!(reason.contains("kind.powerup_rate"), "{reason}");
    // In-range edges still parse.
    assert!(session_with("kind.powerup_rate", 1.0).is_ok());
    assert!(session_with("kind.command_rate", 1e7).is_ok());
    assert!(session_with("array.grid", 1.0).is_ok());
}
