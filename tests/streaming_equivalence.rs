//! Streaming-vs-batch equivalence for the end-to-end sample path.
//!
//! The block pipeline (ISSUE 5) must be *bit-identical* to the
//! whole-buffer oracle for every block size, not merely close: the same
//! FNV digest over the superposed rx stream, the same calibration
//! amplitudes to the last ulp, the same power-up sample index, the same
//! decoded bits. These tests pin that contract, plus thread-count
//! determinism of the parallel lane driver and the constant-memory
//! guarantee (per-stage peak footprint bounded by the block size).

use ivn_bench::pipeline::{outputs_batch, outputs_streaming, StreamOptions};
use ivn_dsp::complex::Complex64;
use ivn_runtime::rng::StdRng;
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
