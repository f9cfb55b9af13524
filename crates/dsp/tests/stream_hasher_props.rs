//! Sensitivity suite for [`StreamHasher`].
//!
//! The streaming pipeline's `rx_hash` claims that two sample paths agree
//! bit for bit when their digests agree. That needs the digest to see
//! every bit: flipping any single bit of any sample's `re` or `im`
//! changes it. FNV-1a guarantees this for streams of equal length (each
//! step XORs one byte into the state and multiplies by an odd prime, a
//! bijection), and these properties check the implementation keeps it.

use ivn_dsp::block::StreamHasher;
use ivn_dsp::complex::Complex64;
use ivn_runtime::prop::{any, vec as pvec, Strategy};
use ivn_runtime::{prop_assert, props};

fn digest(samples: &[Complex64]) -> u64 {
    let mut h = StreamHasher::new();
    samples.iter().for_each(|&s| h.update_sample(s));
    h.digest()
}

/// `samples` with bit `bit` of sample `index`'s `re` (or `im`) flipped.
fn flipped(samples: &[Complex64], index: usize, im: bool, bit: u32) -> Vec<Complex64> {
    let mut out = samples.to_vec();
    let part = if im {
        &mut out[index].im
    } else {
        &mut out[index].re
    };
    *part = f64::from_bits(part.to_bits() ^ (1u64 << bit));
    out
}

/// Any bit pattern, NaNs, infinities, zeros and subnormals included.
fn raw_sample() -> impl Strategy<Value = Complex64> {
    (any::<u64>(), any::<u64>())
        .prop_map(|(re, im)| Complex64::new(f64::from_bits(re), f64::from_bits(im)))
}

props! {
    cases = 256;

    fn one_flipped_bit_changes_the_digest(data in pvec(raw_sample(), 1..200),
                                          pick in any::<usize>(),
                                          im in any::<bool>(),
                                          bit in 0u32..64) {
        let index = pick % data.len();
        prop_assert!(
            digest(&flipped(&data, index, im, bit)) != digest(&data),
            "sample {index}, {} bit {bit}", if im { "im" } else { "re" }
        );
    }

}

#[test]
fn every_bit_of_every_sample_moves_the_digest() {
    let data = [
        Complex64::new(0.0, -0.0),
        Complex64::new(1.0, f64::NAN),
        Complex64::new(f64::INFINITY, f64::MIN_POSITIVE / 4.0),
        Complex64::new(-3.25e-7, 12.5),
    ];
    let base = digest(&data);
    for index in 0..data.len() {
        for im in [false, true] {
            for bit in 0..64 {
                assert_ne!(
                    digest(&flipped(&data, index, im, bit)),
                    base,
                    "sample {index}, im {im}, bit {bit}"
                );
            }
        }
    }
}
