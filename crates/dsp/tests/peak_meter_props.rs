//! Exactness suite for [`PeakMeter::observe_block`].
//!
//! `observe_block` skips `hypot` for a repeat of the previous sample.
//! The contract: the peak is bit-identical to the plain fold
//! `max(peak, hypot(re, im))` over every sample, whatever the data and
//! however the stream is split into blocks — including duplicates,
//! zeros, NaN and infinities.

use ivn_dsp::block::PeakMeter;
use ivn_dsp::complex::Complex64;
use ivn_runtime::prop::{any, vec as pvec, Strategy};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert_eq, props};

/// The reference: every sample's `hypot`, folded with `f64::max` from 0.
fn plain_peak(samples: &[Complex64]) -> f64 {
    samples.iter().map(|s| s.norm()).fold(0.0, f64::max)
}

/// The meter's peak over `samples` pushed in blocks of `block`.
fn metered_peak(samples: &[Complex64], block: usize) -> f64 {
    let mut m = PeakMeter::new();
    for chunk in samples.chunks(block.max(1)) {
        m.observe_block(chunk);
    }
    m.peak()
}

/// Asserts bit equality with the plain fold at several block splits.
fn assert_exact(samples: &[Complex64], label: &str) {
    let want = plain_peak(samples);
    for block in [1usize, 3, 4, 5, 64, samples.len().max(1)] {
        let got = metered_peak(samples, block);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}, block {block}: {got:e} vs {want:e}"
        );
    }
}

fn complex(range: std::ops::Range<f64>) -> impl Strategy<Value = Complex64> {
    (range.clone(), range).prop_map(|(re, im)| Complex64::new(re, im))
}

props! {
    cases = 128;

    fn random_blocks_match_plain_max(data in pvec(complex(-10.0..10.0), 0..300),
                                     block in 1usize..80) {
        prop_assert_eq!(metered_peak(&data, block).to_bits(), plain_peak(&data).to_bits());
    }

    fn duplicated_samples_match(seed in any::<u64>(), n in 1usize..200) {
        // Draw from a small pool, so exact repeats (the skipped path) and
        // repeats separated by other values both occur often.
        let mut rng = StdRng::seed_from_u64(seed);
        let base = Complex64::new(rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0));
        let pool = [
            base,
            Complex64::new(base.im, base.re),
            Complex64::new(-base.re, -base.im),
            base * 0.5,
        ];
        let data: Vec<Complex64> = (0..n).map(|_| pool[rng.random_range(0..pool.len())]).collect();
        for block in [1usize, 2, 7, n] {
            prop_assert_eq!(metered_peak(&data, block).to_bits(), plain_peak(&data).to_bits());
        }
    }
}

#[test]
fn constant_block_stays_exact() {
    let z = Complex64::from_polar(0.37, 1.9);
    assert_exact(&vec![z; 4096], "constant");
}

#[test]
fn neighbours_sharing_one_component_are_not_skipped() {
    // Only a repeat of both bit patterns may skip `hypot`.
    assert_exact(
        &[Complex64::new(1.0, 1.0), Complex64::new(1.0, 2.0)],
        "same re",
    );
    assert_exact(
        &[Complex64::new(1.0, 1.0), Complex64::new(2.0, 1.0)],
        "same im",
    );
}

#[test]
fn zeros_and_empty_blocks() {
    assert_exact(&[], "empty");
    assert_exact(&[Complex64::ZERO; 17], "zeros");
    let signed = [
        Complex64::new(-0.0, 0.0),
        Complex64::new(0.0, -0.0),
        Complex64::new(-0.0, -0.0),
    ];
    assert_exact(&signed, "signed zeros");
    let mut m = PeakMeter::new();
    m.observe_block(&[]);
    assert_eq!(m.peak().to_bits(), 0.0f64.to_bits());
}

#[test]
fn nan_and_infinities() {
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let cases: [&[Complex64]; 6] = [
        &[Complex64::new(nan, 0.0), Complex64::new(1.0, 1.0)],
        &[Complex64::new(1.0, 1.0), Complex64::new(0.0, nan)],
        &[Complex64::new(nan, nan); 3],
        &[
            Complex64::new(2.0, 0.0),
            Complex64::new(inf, nan),
            Complex64::new(3.0, 0.0),
        ],
        &[Complex64::new(-inf, 1.0), Complex64::new(1.0, 0.0)],
        &[
            Complex64::new(nan, 1.0),
            Complex64::new(0.5, -inf),
            Complex64::new(nan, inf),
            Complex64::new(7.0, 7.0),
        ],
    ];
    for (i, c) in cases.iter().enumerate() {
        assert_exact(c, &format!("non-finite case {i}"));
    }
}

#[test]
fn real_observations_interleave_with_blocks() {
    // A real `observe` between blocks, and a block that repeats the
    // previous block's last sample: still the plain fold over everything.
    let a = [Complex64::new(1.0, 1.0), Complex64::new(0.2, 0.1)];
    let b = [
        Complex64::new(0.2, 0.1),
        Complex64::new(1.2, 0.0),
        Complex64::new(1.5, 0.0),
    ];
    let mut m = PeakMeter::new();
    m.observe_block(&a);
    m.observe(1.4);
    m.observe_block(&b);
    let want = plain_peak(&a).max(1.4).max(plain_peak(&b));
    assert_eq!(m.peak().to_bits(), want.to_bits());
}
