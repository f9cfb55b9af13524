//! Ablation studies for the design choices DESIGN.md §4 calls out:
//!
//! 1. **Coherent beamforming through unknown media** (the §6.1.1c
//!    footnote): channel-aware precoding with stale estimates is no
//!    better than the blind baseline.
//! 2. **Out-of-band vs in-band reader** (§4): the SAW + frequency offset
//!    is what keeps the uplink decodable under CIB self-jamming.
//! 3. **Amplitude-flatness constraint** (§3.6): plans violating Eq. 9
//!    deliver peaks the tag cannot *decode through*.
//! 4. **Averaging gain** (§5b): correlation vs number of averaged CIB
//!    periods.

use ivn_core::experiment::stale_mrt_vs_baseline_cdf;
use ivn_core::oob::{JamTone, OobReader, OobReaderConfig};
use ivn_core::system::KeyedQuery;
use ivn_core::waveform::{eq9_rms_bound, rms_offset, CibEnvelope};
use ivn_rfid::commands::Command;
use ivn_rfid::link::LinkParams;
use ivn_runtime::rng::{Rng, StdRng};

/// Ablation 1: stale-channel MRT vs the blind baseline.
pub(crate) fn coherent_vs_baseline(quick: bool) -> String {
    let trials = if quick { 300 } else { 3000 };
    let cdf = stale_mrt_vs_baseline_cdf(trials, 41);
    let mut out = crate::header("Ablation — coherent beamforming with stale channel estimates");
    out += &format!(
        "median ratio over blind baseline: {:.2}× (CIB achieves ~8×)\n",
        cdf.quantile(0.5).unwrap_or(0.0)
    );
    out += &format!(
        "fraction of locations where stale MRT loses to the baseline: {:.0}%\n",
        100.0 * cdf.eval(1.0)
    );
    out += "paper footnote 5: \"the performance difference is negligible across other media\"\n";
    out
}

/// Ablation 2: decode success, out-of-band vs in-band reader, sweeping
/// jam strength.
pub(crate) fn reader_placement(quick: bool) -> String {
    let reps = if quick { 3 } else { 10 };
    let msg: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    let mut out = crate::header("Ablation — out-of-band reader vs in-band reader under CIB jam");
    out += &format!(
        "{:>14}  {:>14}  {:>14}\n",
        "jam amp (√W)", "OOB success", "in-band succ."
    );
    for jam_amp in [0.0, 1e-3, 1e-2, 5e-2, 2e-1] {
        let jam: Vec<JamTone> = ivn_core::PAPER_OFFSETS_HZ
            .iter()
            .enumerate()
            .map(|(i, &df)| JamTone {
                freq_hz: 915e6 + df,
                amplitude: jam_amp,
                phase: i as f64 * 0.7,
            })
            .collect();
        let count = |cfg: OobReaderConfig, seed: u64| -> usize {
            let reader = OobReader::new(cfg);
            (0..reps)
                .filter(|&r| {
                    let mut rng = StdRng::seed_from_u64(seed + r as u64);
                    reader
                        .receive_and_decode(&mut rng, 1e-4, &msg, 4, &jam, 2000)
                        .success
                })
                .count()
        };
        let oob = count(OobReaderConfig::paper_defaults(), 7000);
        let inband = count(OobReaderConfig::in_band_ablation(), 9000);
        out += &format!(
            "{:>14.3}  {:>11}/{:<2}  {:>11}/{:<2}\n",
            jam_amp, oob, reps, inband, reps
        );
    }
    out
}

/// Ablation 3: Eq. 9 in action — a wide-offset plan peaks just as high
/// but droops so fast the tag cannot decode the query at the peak.
pub(crate) fn flatness_constraint(_quick: bool) -> String {
    let link = LinkParams::paper_defaults();
    let query = KeyedQuery::new(&link, 400e3);
    let query_s = link.command_duration_s(&Command::canonical_query());

    let mut rng = StdRng::seed_from_u64(43);
    let scaled = |k: f64| ivn_core::PAPER_OFFSETS_HZ.map(|f| f * k);
    let plans = [
        ("paper (rms 82 Hz)", scaled(1.0)),
        ("wide ×20 (rms 1.6 kHz)", scaled(20.0)),
        ("wide ×60 (rms 4.9 kHz)", scaled(60.0)),
    ];
    let mut out = crate::header("Ablation — query decodability vs frequency-plan RMS (Eq. 9)");
    out += &format!(
        "Eq. 9 bound at α=0.5, Δt≈{:.0} µs: rms ≤ {:.0} Hz\n\n",
        query_s * 1e6,
        eq9_rms_bound(0.5, query_s)
    );
    out += &format!(
        "{:<24}  {:>10}  {:>12}  {:>12}\n",
        "plan", "rms (Hz)", "peak power", "query ok"
    );
    for (name, offsets) in plans {
        let mut ok = 0;
        let mut peak_acc = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let phases: Vec<f64> = (0..offsets.len())
                .map(|_| rng.random::<f64>() * std::f64::consts::TAU)
                .collect();
            let env = CibEnvelope::new(&offsets, &phases);
            let (t_peak, peak) = env.peak_over_period(4096);
            peak_acc += peak * peak;
            ok += query.decodes(&env, t_peak) as usize;
        }
        out += &format!(
            "{:<24}  {:>10.0}  {:>12.1}  {:>9}/{:<2}\n",
            name,
            rms_offset(&offsets),
            peak_acc / trials as f64,
            ok,
            trials
        );
    }
    out
}

/// Ablation 4: reader correlation vs number of averaged periods.
pub(crate) fn averaging_gain(quick: bool) -> String {
    let msg: Vec<bool> = (0..16).map(|i| (i * 5) % 7 < 3).collect();
    let mut out = crate::header("Ablation — coherent averaging gain at the reader (§5b)");
    out += &format!("{:>10}  {:>14}\n", "periods", "median corr");
    let trials = if quick { 5 } else { 15 };
    for periods in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut cfg = OobReaderConfig::paper_defaults();
        cfg.averaging_periods = periods;
        let reader = OobReader::new(cfg);
        let mut corrs: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(4400 + t as u64);
                reader
                    .receive_and_decode(&mut rng, 2.0e-6, &msg, 4, &[], 2000)
                    .correlation
            })
            .collect();
        corrs.sort_by(f64::total_cmp);
        out += &format!("{:>10}  {:>14.3}\n", periods, corrs[trials / 2]);
    }
    out += "SNR grows ~10·log10(K): the 1 s averaging window is what closes deep-tissue uplinks\n";
    out
}

/// Ablation 5: two-stage CIB (§3.7) — once the margin is known, a
/// duty-optimized steady plan keeps the harvester conducting longer than
/// the peak-chasing discovery plan.
pub(crate) fn two_stage(quick: bool) -> String {
    use ivn_core::freqsel::{optimize, FreqSelConfig};
    use ivn_core::twostage::{expected_duty, TwoStageCib};
    let mut cfg = FreqSelConfig::test_scale(8);
    if !quick {
        cfg.mc_draws = 48;
        cfg.iterations = 120;
    }
    let discovery = optimize(&cfg, 2020);
    let controller = TwoStageCib::new(discovery.clone(), cfg, 2021);
    let mut out = crate::header("Ablation — two-stage CIB: peak plan vs duty plan (§3.7)");
    out += &format!(
        "{:>10}  {:>16}  {:>16}  {:>12}\n",
        "margin", "discovery duty", "steady duty", "improvement"
    );
    for margin in [1.5, 2.0, 3.0, 5.0] {
        let steady = controller.steady_plan(margin);
        let mut rng = StdRng::seed_from_u64(2022);
        let d_disc = expected_duty(
            &discovery.offsets_hz,
            steady.threshold,
            cfg.mc_draws,
            cfg.grid,
            &mut rng,
        );
        out += &format!(
            "{:>10.1}  {:>16.4}  {:>16.4}  {:>11.2}×\n",
            margin,
            d_disc,
            steady.expected_duty,
            steady.expected_duty / d_disc.max(1e-12)
        );
    }
    out += "once the tag is awake, trading peak for conduction time harvests more energy\n";
    out
}

/// Ablation 6: adaptive frequency hopping (§3.7) against multipath
/// notches.
pub(crate) fn hopping(quick: bool) -> String {
    use ivn_core::cib::CibConfig;
    use ivn_core::hopping::{choose_center, ism_hop_set};
    use ivn_em::channel::ChannelModel;
    use ivn_em::multipath::MultipathChannel;
    let trials = if quick { 10 } else { 50 };
    let cib = CibConfig::paper_prototype_n(8);
    let mut improvements = Vec::with_capacity(trials);
    for t in 0..trials {
        let channels: Vec<Box<dyn ChannelModel + Send + Sync>> = (0..8)
            .map(|k| {
                let mut r = StdRng::seed_from_u64(6000 + t as u64 * 17 + k);
                Box::new(MultipathChannel::rayleigh(&mut r, 8, 60e-9, 1.0))
                    as Box<dyn ChannelModel + Send + Sync>
            })
            .collect();
        improvements.push(choose_center(&cib, &channels, &ism_hop_set()).improvement());
    }
    improvements.sort_by(f64::total_cmp);
    let mut out = crate::header("Ablation — adaptive centre-frequency hopping (§3.7)");
    out += &format!(
        "delivered-power improvement over staying at 915 MHz ({trials} multipath draws):\n  median {:.2}×   p90 {:.2}×   max {:.2}×\n",
        improvements[trials / 2],
        improvements[trials * 9 / 10],
        improvements[trials - 1]
    );
    out += "hopping rescues deployments whose whole band lands in a fade\n";
    out
}

/// Ablation 7: clock-distribution fault injection — what loses first
/// when the Octoclock is removed.
pub(crate) fn clock_faults(_quick: bool) -> String {
    use ivn_rfid::pie::PieParams;
    use ivn_sdr::clock::ClockDistribution;
    let pie = PieParams::paper_defaults();
    let cases = [
        ("Octoclock (5 ns PPS)", ClockDistribution::octoclock()),
        (
            "loose trigger (1 µs)",
            ClockDistribution {
                pps_jitter_rms_s: 1e-6,
                residual_ppm_rms: 0.0,
            },
        ),
        (
            "very loose (20 µs)",
            ClockDistribution {
                pps_jitter_rms_s: 20e-6,
                residual_ppm_rms: 0.0,
            },
        ),
        ("free running", ClockDistribution::free_running()),
    ];
    let mut out = crate::header("Ablation — clock-distribution fault injection");
    out += &format!(
        "{:<22}  {:>18}  {:>22}\n",
        "distribution", "sync commands?", "freq error @915 MHz"
    );
    for (name, clock) in cases {
        let sync = clock.supports_synchronous_commands(pie.pw_s);
        out += &format!(
            "{:<22}  {:>18}  {:>18.0} Hz\n",
            name,
            if sync { "yes" } else { "NO" },
            clock.residual_ppm_rms * 1e-6 * 915e6,
        );
    }
    out += "CIB needs synchronized *commands* (timing), not synchronized phases;\nfree-running oscillators also break the Δf plan (kHz ≫ the 7–137 Hz offsets)\n";
    out
}

/// All ablations concatenated.
pub(crate) fn run(quick: bool) -> String {
    let mut out = String::new();
    out += &coherent_vs_baseline(quick);
    out += &reader_placement(quick);
    out += &flatness_constraint(quick);
    out += &averaging_gain(quick);
    out += &two_stage(quick);
    out += &hopping(quick);
    out += &clock_faults(quick);
    out
}
