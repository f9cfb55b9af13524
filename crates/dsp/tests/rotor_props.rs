//! Property suite for the trig-free phasor rotator.
//!
//! The contract under test: across 10^7 consecutive samples, for
//! randomized frequencies and resync intervals, the rotator's output
//! stays within 1e-9 of the closed-form trig oracle
//! `e^{j((φ₀ + kΔ) mod 2π)}` in both amplitude and phase — including
//! right at resync boundaries, where the recurrence is replaced by a
//! fresh exact evaluation and any discontinuity would show up as a
//! phase step.

use ivn_dsp::complex::Complex64;
use ivn_dsp::osc::Oscillator;
use ivn_dsp::rotor::{PhasorRotor, LANES};
use ivn_runtime::prop::any;
use ivn_runtime::{prop_assert, props};
use std::f64::consts::TAU;

/// Runs `rotor` for `n` samples in bounded chunks, returning the max
/// distance from the closed-form oracle and the max |amplitude − 1|.
fn worst_case_vs_oracle(rotor: &mut PhasorRotor, n: usize) -> (f64, f64) {
    const CHUNK: usize = 1 << 15;
    let probe = rotor.clone();
    let mut buf = vec![Complex64::ZERO; CHUNK];
    let mut k = 0u64;
    let (mut max_err, mut max_amp) = (0.0f64, 0.0f64);
    while (k as usize) < n {
        let take = CHUNK.min(n - k as usize);
        rotor.fill(&mut buf[..take]);
        for (j, s) in buf[..take].iter().enumerate() {
            let want = Complex64::cis(probe.ideal_phase(k + j as u64));
            max_err = max_err.max((*s - want).norm());
            max_amp = max_amp.max((s.norm() - 1.0).abs());
        }
        k += take as u64;
    }
    (max_err, max_amp)
}

/// The headline bound: 10^7 samples of the paper's hottest case (137 Hz
/// soft offset at 1 MS/s) never drift past 1e-9 of the trig oracle.
/// Stream length doesn't accumulate error — only the position inside a
/// resync window does — so the margin here is ~3 orders of magnitude.
#[test]
fn ten_million_samples_stay_within_1e9_of_oracle() {
    let mut r = PhasorRotor::new(137.0, 1e6, 1.234);
    let (max_err, max_amp) = worst_case_vs_oracle(&mut r, 10_000_000);
    assert!(max_err < 1e-9, "max oracle distance {max_err:e}");
    assert!(max_amp < 1e-9, "max amplitude drift {max_amp:e}");
}

props! {
    cases = 24;

    fn randomized_freq_and_resync_bounded(freq in -4.9e5f64..4.9e5, phase0 in 0.0f64..TAU,
                                          resync in 1usize..5000, seed in any::<u64>()) {
        // Resync interval anywhere from one lane row to ~5k samples;
        // sample count offset by the seed so window/buffer alignment
        // varies too.
        let n = 30_000 + (seed % 977) as usize;
        let mut r = PhasorRotor::with_resync(freq, 1e6, phase0, resync);
        let (max_err, max_amp) = worst_case_vs_oracle(&mut r, n);
        prop_assert!(max_err < 1e-9, "max oracle distance {max_err:e} (resync {resync})");
        prop_assert!(max_amp < 1e-9, "max amplitude drift {max_amp:e} (resync {resync})");
    }

    fn continuous_across_resync_boundaries(freq in -1e4f64..1e4, resync in 1usize..96,
                                           phase0 in 0.0f64..TAU) {
        // Small resync windows so the stream crosses many boundaries;
        // every adjacent pair of samples must advance by Δ — a resync
        // that re-seeded the lanes inconsistently would show up as a
        // phase step at the window edge.
        let mut r = PhasorRotor::with_resync(freq, 1e5, phase0, resync);
        let inc = r.increment();
        let mut out = vec![Complex64::ZERO; 40 * LANES.max(resync)];
        r.fill(&mut out);
        for (k, pair) in out.windows(2).enumerate() {
            let step = (pair[1] * pair[0].conj()).arg();
            prop_assert!(
                (step - inc).abs() < 1e-9,
                "phase step {step} vs increment {inc} at sample {k}"
            );
        }
    }

    fn matches_accumulating_oscillator(freq in -500.0f64..500.0, seed in any::<u64>()) {
        // Cross-check against the *other* trig formulation: the
        // phase-accumulating Oscillator the emission path used before.
        let n = 20_000 + (seed % 311) as usize;
        let mut r = PhasorRotor::new(freq, 1e5, 0.0);
        let mut osc = Oscillator::new(freq, 1e5);
        let mut buf = vec![Complex64::ZERO; n];
        r.fill(&mut buf);
        for (k, s) in buf.iter().enumerate() {
            let want = osc.next_sample();
            prop_assert!(
                (*s - want).norm() < 1e-9,
                "sample {k} off the oscillator path"
            );
        }
    }

    fn split_points_never_change_output(freq in -1e4f64..1e4, resync in 8usize..512,
                                        seed in any::<u64>()) {
        // Bit-identity across arbitrary block splits, including splits
        // landing exactly on resync boundaries and mid-lane-row.
        let n = 4096;
        let mut whole_rotor = PhasorRotor::with_resync(freq, 1e5, 0.5, resync);
        let mut split_rotor = whole_rotor.clone();
        let mut whole = vec![Complex64::ZERO; n];
        whole_rotor.fill(&mut whole);
        let mut rng = seed;
        let mut split = Vec::with_capacity(n);
        let mut buf = Vec::new();
        while split.len() < n {
            // Cheap deterministic block-size sequence from the seed.
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let block = 1 + (rng >> 33) as usize % (2 * resync);
            let take = block.min(n - split.len());
            buf.clear();
            buf.resize(take, Complex64::ZERO);
            split_rotor.fill(&mut buf);
            split.extend_from_slice(&buf);
        }
        for (k, (a, b)) in whole.iter().zip(&split).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "split output diverged at sample {k}"
            );
        }
    }
}
