//! The end-to-end sample path against its analytic twin, and its pinned
//! outputs.
//!
//! With the carrier-on profile the received stream is a sum of tones,
//! `rx[k] = Σᵢ cᵢ·e^{j2πfᵢk/fs}` with `cᵢ = hᵢ·gᵢ·e^{jθᵢ}` (channel gain
//! × PA gain × initial carrier phasor): the [`CibEnvelope`] the campaign
//! evaluates analytically, sampled at `fs`. The stream is checked against
//! that envelope sample by sample, its calibrated peak against
//! `peak_over_period`, and its wake time against `power_up_over_period`.
//! The [`PathOutputs`] of every block size and preset are pinned as
//! literals (`rx_hash` is the FNV-1a digest of every received sample),
//! the per-stage memory is bounded by the block size, and the windowed
//! calibration search equals a full scan bit for bit.

use ivn_bench::pipeline::{
    calibrate_peak, outputs_streaming, setup, PathOutputs, StreamOptions, DRIVE, POWER_MARGIN,
};
use ivn_core::kernels::curvature_bound;
use ivn_core::system::power_up_over_period;
use ivn_core::waveform::CibEnvelope;
use ivn_dsp::block::{Footprint, PeakMeter, StreamHasher};
use ivn_dsp::complex::Complex64;
use ivn_em::channel::ChannelEnsemble;
use ivn_em::stream::BlockSuperposer;
use ivn_harvester::powerup::PowerUpOutcome;
use ivn_runtime::prop::any;
use ivn_runtime::rng::StdRng;
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::{emit_oracle, CarrierWindows};

const BLOCK_SIZES: [usize; 4] = [1, 7, 256, 4096];

/// The quick preset at its own 4096 S/s, at any block size.
const QUICK: PathOutputs = PathOutputs {
    sample_rate: 4096.0,
    n_samples: 4096,
    score: 4.824314848907144,
    single_amp: 0.49999952084589194,
    peak_amp: 0.7267900283718024,
    outcome: PowerUpOutcome {
        powered: true,
        time_to_power_s: Some(0.0),
        peak_vdc: 1.0220609838546615,
        final_vdc: 0.0,
    },
    downlink_ok: true,
    uplink_ok: true,
    rx_hash: 0x54deafdb7949cd8d,
};

/// The quick preset at `--sample-rate 32000`.
const QUICK_32K: PathOutputs = PathOutputs {
    sample_rate: 32000.0,
    n_samples: 32000,
    score: 4.824314848907144,
    single_amp: 0.49999952084589194,
    peak_amp: 0.7267902635275888,
    outcome: PowerUpOutcome {
        powered: true,
        time_to_power_s: Some(0.0),
        peak_vdc: 1.3893343866803585,
        final_vdc: 0.8686711492643815,
    },
    downlink_ok: true,
    uplink_ok: true,
    rx_hash: 0xab8b88b1a6438052,
};

/// The quick preset at `--sample-rate 1e5`.
const QUICK_100K: PathOutputs = PathOutputs {
    sample_rate: 100000.0,
    n_samples: 100000,
    score: 4.824314848907144,
    single_amp: 0.49999952084589194,
    peak_amp: 0.7267903756575697,
    outcome: PowerUpOutcome {
        powered: true,
        time_to_power_s: Some(0.0),
        peak_vdc: 1.4952451879797832,
        final_vdc: 0.9726485497918749,
    },
    downlink_ok: true,
    uplink_ok: true,
    rx_hash: 0xd4c0fc4a9c943b85,
};

/// The quick preset at `--sample-rate 1e6`.
const QUICK_1M: PathOutputs = PathOutputs {
    sample_rate: 1000000.0,
    n_samples: 1000000,
    score: 4.824314848907144,
    single_amp: 0.49999952084589194,
    peak_amp: 0.7267905332401925,
    outcome: PowerUpOutcome {
        powered: true,
        time_to_power_s: Some(3e-6),
        peak_vdc: 1.5328768050347217,
        final_vdc: 1.0095867346890999,
    },
    downlink_ok: true,
    uplink_ok: true,
    rx_hash: 0x7468b77ed4f6c24d,
};

/// The full preset at `--sample-rate 1e6`: it draws a different RNG
/// stream from the quick one, and is what `reproduce pipeline
/// --sample-rate 1e6` renders.
const FULL_1M: PathOutputs = PathOutputs {
    sample_rate: 1000000.0,
    n_samples: 1000000,
    score: 4.806265712035758,
    single_amp: 0.49999952084589194,
    peak_amp: 0.7423069855737606,
    outcome: PowerUpOutcome {
        powered: true,
        time_to_power_s: Some(0.060323),
        peak_vdc: 1.5328768146584137,
        final_vdc: 0.0,
    },
    downlink_ok: true,
    uplink_ok: true,
    rx_hash: 0x59d1fb557428d709,
};

#[test]
fn streaming_outputs_are_pinned_at_every_block_size() {
    for block in BLOCK_SIZES {
        let opts = StreamOptions {
            block,
            ..Default::default()
        };
        assert_eq!(
            outputs_streaming(true, &opts).outputs,
            QUICK,
            "block={block}"
        );
    }
}

#[test]
fn per_stage_footprint_is_bounded_by_block_size() {
    let quick_rate = BLOCK_SIZES.map(|block| (None, block));
    // A full 1 MS/s period: a million samples through every stage in
    // the default block size, and the tag must still power.
    let full_rate = [(Some(1e6), StreamOptions::default().block)];
    for (sample_rate, block) in quick_rate.into_iter().chain(full_rate) {
        let opts = StreamOptions {
            sample_rate,
            block,
            ..Default::default()
        };
        let report = outputs_streaming(true, &opts);
        assert!(!report.footprint.is_empty(), "footprint not recorded");
        for &(stage, peak) in &report.footprint {
            assert!(
                peak <= 2 * block,
                "rate={sample_rate:?} block={block}: stage '{stage}' peak footprint {peak} exceeds 2x block"
            );
        }
        if sample_rate.is_some() {
            assert_eq!(report.outputs.n_samples, 1_000_000);
            assert!(
                report.outputs.outcome.powered,
                "1 MS/s run did not power the tag"
            );
        }
    }
}

/// The rotator path of [`CarrierWindows`] against the scalar emission
/// math of [`emit_oracle`]: accumulating trig oscillator, polar PA
/// (`atan2` + `sin_cos`), carrier phasor. The rotator is a different
/// factorization of the same signal, so the two agree to rounding —
/// bounded here at 1e-9 per sample.
#[test]
fn lane_batched_synthesis_tracks_trig_oracle() {
    let mut rng = StdRng::seed_from_u64(41);
    let offsets = [0.0, 13.0, 37.0, 102.0];
    let bank = TxBank::new(
        &mut rng,
        offsets.len(),
        915e6,
        100e3,
        &offsets,
        &ClockDistribution::free_running(),
    );
    let drive = 0.05;
    let n = 6000;
    let oracle: Vec<Vec<Complex64>> = (0..bank.len())
        .map(|i| emit_oracle(&bank, i, &vec![1.0; n], drive))
        .collect();
    let mut worst = vec![0.0f64; bank.len()];
    CarrierWindows::new(&bank, drive, n).fold(n, |k, carriers| {
        for ((w, want), z) in worst.iter_mut().zip(&oracle).zip(carriers) {
            *w = w.max((*z - want[k]).norm());
        }
    });
    for (i, w) in worst.iter().enumerate() {
        assert!(*w < 1e-9, "device {i}: max |stream - oracle| = {w:e}");
    }
}

#[test]
fn sample_rate_override_scales_the_run() {
    let opts = StreamOptions {
        sample_rate: Some(32_000.0),
        ..Default::default()
    };
    let report = outputs_streaming(true, &opts);
    assert_eq!(report.outputs.sample_rate, 32_000.0);
    assert_eq!(report.outputs, QUICK_32K);
}

/// The full preset at 1 MS/s holds its pinned outputs, and its
/// calibration search prunes like the quick preset's.
#[test]
fn calibration_prunes_where_the_rate_is_high() {
    let opts = StreamOptions {
        sample_rate: Some(1e6),
        ..Default::default()
    };
    let report = outputs_streaming(false, &opts);
    assert_eq!(report.outputs, FULL_1M);
    assert_calibration_prunes(report.calibration_windows, 1e6, "full");
}

/// At rates where the calibration search skips windows (at the quick
/// rate every window is visited) it visits fewer than all of them, and
/// at 1 MS/s at most a twentieth of the period — the pin that keeps a
/// loosened bound from silently dropping the gain.
fn assert_calibration_prunes((visited, total): (usize, usize), rate: f64, preset: &str) {
    assert_eq!(
        total,
        (rate as usize).div_ceil(1024),
        "{preset} rate {rate}"
    );
    assert!(visited < total, "{preset} rate {rate}: nothing pruned");
    if rate == 1e6 {
        assert!(
            visited <= total / 20,
            "{preset}: 1 MS/s calibration visited {visited} of {total} windows"
        );
    }
}

/// The grid the analytic peak search starts from; its ternary
/// refinement then finds the continuous peak.
const PEAK_GRID: usize = 4096;

/// The sample path against the analytic trial on the same tones. The
/// envelope is built from the pipeline's own bank and channels:
/// offsets `fᵢ` from the bank, `cᵢ = hᵢ·gᵢ·e^{jθᵢ}` from device `i`'s
/// channel gain, PA gain at the drive and PLL phase.
/// - Every streamed `|rx[k]|` is within `1e-9·Σ|cᵢ|` of `Y(k/fs)`, and
///   the checked stream is the pipeline's: its digest is `rx_hash`.
/// - The calibrated `peak_amp` is a sample of the envelope, so it is at
///   most the continuous peak `Y*` and, with the nearest sample at most
///   `h/2 = 1/(2fs)` from the peak, `Y*² − peak_amp² ≤ L₂h²/8`
///   ([`curvature_bound`]'s `L₂ ≥ |(Y²)″|`).
/// - The tag wakes at the same sample as `power_up_over_period` on the
///   envelope scaled by the pipeline's `POWER_MARGIN·p_req/peak_amp²`.
///
/// At 100 kS/s and 1 MS/s the outputs also hold their pinned values and
/// the calibration search prunes.
#[test]
fn stream_tracks_the_analytic_cib_envelope() {
    for (rate, pinned) in [(1e4, None), (1e5, Some(QUICK_100K)), (1e6, Some(QUICK_1M))] {
        let s = setup(true, Some(rate));
        let opts = StreamOptions {
            sample_rate: Some(rate),
            ..Default::default()
        };
        let report = outputs_streaming(true, &opts);
        if let Some(want) = pinned {
            assert_eq!(report.outputs, want, "rate {rate}");
            assert_calibration_prunes(report.calibration_windows, rate, "quick");
        }
        let out = report.outputs;
        let n = out.n_samples;
        let c: Vec<Complex64> = s
            .superposer
            .gains()
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let dev = s.bank.device(i);
                h * Complex64::from_polar(dev.pa.am_am(DRIVE), dev.pll.initial_phase())
            })
            .collect();
        let offsets = s.bank.offsets_hz();
        let amps: Vec<f64> = c.iter().map(|z| z.norm()).collect();
        let phases: Vec<f64> = c.iter().map(|z| z.arg()).collect();
        let env = CibEnvelope::with_amplitudes(offsets, &phases, &amps);
        let tol = 1e-9 * env.ceiling();

        let mut hasher = StreamHasher::new();
        let mut worst = (0.0f64, 0);
        CarrierWindows::new(&s.bank, DRIVE, n).fold(n, |k, carriers| {
            let rx = s.superposer.superpose(carriers.iter().copied());
            hasher.update_sample(rx);
            let err = (rx.norm() - env.envelope(k as f64 / rate)).abs();
            if err > worst.0 {
                worst = (err, k);
            }
        });
        assert_eq!(
            hasher.digest(),
            out.rx_hash,
            "rate {rate}: not the pipeline's stream"
        );
        assert!(
            worst.0 <= tol,
            "rate {rate}: |rx[{}]| is {:e} from the envelope (bound {tol:e})",
            worst.1,
            worst.0
        );

        let (_, peak) = env.peak_over_period(PEAK_GRID);
        let h = 1.0 / rate;
        let droop = curvature_bound(offsets, &amps) * h * h / 8.0;
        assert!(
            out.peak_amp <= peak,
            "rate {rate}: calibrated peak {} above the envelope's {peak}",
            out.peak_amp
        );
        assert!(
            peak * peak - out.peak_amp * out.peak_amp <= droop,
            "rate {rate}: calibrated peak {} more than L₂h²/8 = {droop:e} below {peak}",
            out.peak_amp
        );

        let p_req = s.tag.required_peak_power_watts();
        let root = (POWER_MARGIN * p_req).sqrt() / out.peak_amp;
        let scaled: Vec<f64> = amps.iter().map(|a| a * root).collect();
        let powered = CibEnvelope::with_amplitudes(offsets, &phases, &scaled);
        assert_eq!(
            power_up_over_period(&s.tag, &powered, rate),
            out.outcome.time_to_power_s,
            "rate {rate}: wake time"
        );
    }
}

const PAPER_OFFSETS: [f64; 10] = [0., 7., 20., 49., 68., 73., 90., 113., 121., 137.];
const CALIBRATION_RATES: [f64; 7] = [4096.0, 16384.0, 32e3, 100e3, 300e3, 777_777.0, 1e6];

/// `|rx|`'s peak over the whole carrier-on stream — the full scan the
/// windowed search replaces: one unpruned [`CarrierWindows`] fold from
/// sample 0, superposed sample by sample into one [`PeakMeter`].
fn full_scan_peak(bank: &TxBank, sp: &BlockSuperposer, drive: f64, n: usize) -> f64 {
    let mut meter = PeakMeter::new();
    CarrierWindows::new(bank, drive, n).fold(n, |_, carriers| {
        meter.observe_sample(sp.superpose(carriers.iter().copied()));
    });
    meter.peak()
}

props! {
    cases = 20;

    fn windowed_calibration_peak_equals_full_scan(
        seed in any::<u64>(), n_ant in 2usize..11, free_running in any::<bool>(),
        rate_sel in 0usize..7, trim in 0usize..1024, block_sel in 0usize..3,
    ) {
        let rate = CALIBRATION_RATES[rate_sel];
        // Lengths off the 1024-sample window grid as well as on it.
        let n = rate as usize - trim;
        let block = [1000usize, 4096, 7][block_sel].min(n);
        let clock = if free_running {
            ClockDistribution::free_running()
        } else {
            ClockDistribution::octoclock()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let bank = TxBank::new(&mut rng, n_ant, 915e6, rate, &PAPER_OFFSETS[..n_ant], &clock);
        let ens = ChannelEnsemble::blind(&mut rng, n_ant, 0.3, 915e6);
        let sp = BlockSuperposer::from_ensemble(&ens, |i| bank.emission_hz(i));
        let mut footprint = Footprint::new();
        let cal = calibrate_peak(&bank, &sp, 0.05, n, block, &mut footprint);
        let want = full_scan_peak(&bank, &sp, 0.05, n);
        prop_assert!(cal.peak.to_bits() == want.to_bits(),
            "rate {} n {} antennas {}: {:e} vs {:e}", rate, n, n_ant, cal.peak, want);
        prop_assert_eq!(cal.total, n.div_ceil(1024));
        prop_assert!(cal.visited >= 1 && cal.visited <= cal.total);
        prop_assert!(footprint.entries().iter().all(|&(_, len)| len <= block.max(1)),
            "footprint {:?}", footprint.entries());
    }
}
