//! Streaming-vs-batch equivalence for the end-to-end sample path.
//!
//! The block pipeline (ISSUE 5) must be *bit-identical* to the
//! whole-buffer oracle for every block size, not merely close: the same
//! FNV digest over the superposed rx stream, the same calibration
//! amplitudes to the last ulp, the same power-up sample index, the same
//! decoded bits. These tests pin that contract, plus thread-count
//! determinism of the parallel lane driver and the constant-memory
//! guarantee (per-stage peak footprint bounded by the block size).

use ivn_bench::pipeline::{calibrate_peak, outputs_batch, outputs_streaming, StreamOptions};
use ivn_dsp::block::Footprint;
use ivn_dsp::complex::Complex64;
use ivn_em::channel::ChannelEnsemble;
use ivn_em::stream::BlockSuperposer;
use ivn_runtime::prop::any;
use ivn_runtime::rng::StdRng;
use ivn_runtime::{prop_assert, prop_assert_eq, props};
use ivn_sdr::bank::TxBank;
use ivn_sdr::clock::ClockDistribution;
use ivn_sdr::stream::{emit_oracle, BankStreamer};

const BLOCK_SIZES: [usize; 4] = [1, 7, 256, 4096];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn streaming_matches_batch_for_every_block_size() {
    let batch = outputs_batch(true, None);
    for block in BLOCK_SIZES {
        let opts = StreamOptions {
            block,
            ..Default::default()
        };
        let report = outputs_streaming(true, &opts);
        assert_eq!(
            report.outputs, batch,
            "block={block}: streaming diverged from whole-buffer oracle"
        );
    }
}

#[test]
fn streaming_is_deterministic_across_thread_counts() {
    let reference = outputs_streaming(true, &StreamOptions::default());
    for threads in THREAD_COUNTS {
        let opts = StreamOptions {
            threads,
            ..Default::default()
        };
        let report = outputs_streaming(true, &opts);
        assert_eq!(
            report.outputs, reference.outputs,
            "{threads} threads changed the streamed output"
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

#[test]
fn rendered_report_matches_batch_renderer() {
    // The human-readable pipeline report must not change shape between the
    // streaming driver and the batch oracle (modulo the diagnostic lines,
    // which are off by default).
    let streamed = ivn_bench::pipeline::run_with(true, &StreamOptions::default());
    let batch = ivn_bench::pipeline::run_batch(true, None, false);
    assert_eq!(streamed, batch);
}

/// The lane-batched rotator path (ISSUE 7) against the pre-change scalar
/// emission math, preserved verbatim as [`emit_oracle`]: accumulating
/// trig oscillator, polar PA (`atan2` + `sin_cos`), carrier phasor. The
/// rotator is a different factorization of the same signal, so the two
/// agree to rounding — bounded here at 1e-9 per sample — for every block
/// size and worker count. (The rendered figure goldens under
/// `tests/golden/figures/` stayed byte-identical across the switch, the
/// one-time check that this tolerance is invisible downstream.)
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
    // A profile with runs of 1.0 and hard 0.0 notches, like the real
    // power-then-gap excitation the PA memoization is tuned for.
    let profile: Vec<f64> = (0..6000)
        .map(|k| if (k / 700) % 3 == 2 { 0.0 } else { 1.0 })
        .collect();
    let oracle: Vec<Vec<Complex64>> = (0..bank.len())
        .map(|i| emit_oracle(&bank, i, &profile, drive))
        .collect();
    for block in BLOCK_SIZES {
        for threads in THREAD_COUNTS {
            let mut st = BankStreamer::new(&bank, drive, threads);
            let mut collected: Vec<Vec<Complex64>> = vec![Vec::new(); bank.len()];
            for chunk in profile.chunks(block) {
                st.push(chunk);
                for (i, c) in collected.iter_mut().enumerate() {
                    c.extend_from_slice(st.block(i));
                }
            }
            st.flush();
            for (i, c) in collected.iter_mut().enumerate() {
                c.extend_from_slice(st.block(i));
            }
            for (i, (got, want)) in collected.iter().zip(&oracle).enumerate() {
                assert_eq!(got.len(), want.len(), "device {i}");
                let worst = got
                    .iter()
                    .zip(want)
                    .map(|(a, b)| (*a - *b).norm())
                    .fold(0.0f64, f64::max);
                assert!(
                    worst < 1e-9,
                    "device {i} block {block} threads {threads}: \
                     max |lane - oracle| = {worst:e}"
                );
            }
        }
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
    let batch = outputs_batch(true, Some(32_000.0));
    assert_eq!(report.outputs, batch, "override diverged from oracle");
}

/// The sample path at rates where the calibration search actually
/// skips windows (at the quick rate every window is visited): streaming
/// must still equal the whole-buffer oracle, and at 1 MS/s the search
/// must regenerate at most a twentieth of the period — the pin that
/// keeps a loosened bound from silently dropping the gain.
#[test]
fn streaming_equals_batch_where_calibration_prunes() {
    for rate in [1e5, 1e6] {
        let opts = StreamOptions {
            sample_rate: Some(rate),
            ..Default::default()
        };
        let report = outputs_streaming(true, &opts);
        assert_eq!(
            report.outputs,
            outputs_batch(true, Some(rate)),
            "rate {rate}: streaming diverged from the oracle"
        );
        let (visited, total) = report.calibration_windows;
        assert_eq!(total, (rate as usize).div_ceil(1024), "rate {rate}");
        assert!(visited < total, "rate {rate}: nothing pruned");
        if rate == 1e6 {
            assert!(
                visited <= total / 20,
                "1 MS/s calibration visited {visited} of {total} windows"
            );
        }
    }
}

const PAPER_OFFSETS: [f64; 10] = [0., 7., 20., 49., 68., 73., 90., 113., 121., 137.];
const CALIBRATION_RATES: [f64; 7] = [4096.0, 16384.0, 32e3, 100e3, 300e3, 777_777.0, 1e6];

/// `|rx|`'s peak over the whole carrier-on stream, every sample through
/// `hypot` — the full scan the windowed search replaces.
fn full_scan_peak(bank: &TxBank, sp: &BlockSuperposer, drive: f64, n: usize, block: usize) -> f64 {
    let mut st = BankStreamer::new(bank, drive, 1);
    let profile = vec![1.0; block];
    let (mut rx, mut pushed, mut peak) = (Vec::new(), 0, 0.0f64);
    loop {
        let take = block.min(n - pushed);
        if take == 0 {
            st.flush();
        } else {
            st.push(&profile[..take]);
        }
        pushed += take;
        sp.superpose_block(st.blocks(), &mut rx);
        peak = rx.iter().map(|z| z.norm()).fold(peak, f64::max);
        if take == 0 {
            return peak;
        }
    }
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
        let want = full_scan_peak(&bank, &sp, 0.05, n, 4096);
        prop_assert!(cal.peak.to_bits() == want.to_bits(),
            "rate {} n {} antennas {}: {:e} vs {:e}", rate, n, n_ant, cal.peak, want);
        prop_assert_eq!(cal.total, n.div_ceil(1024));
        prop_assert!(cal.visited >= 1 && cal.visited <= cal.total);
        prop_assert!(footprint.max_stage() <= block.max(1), "footprint {:?}", footprint.entries());
    }
}
