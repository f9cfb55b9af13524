//! Radix-2 Cooley–Tukey inverse FFT.
//!
//! The CIB envelope kernels synthesize a sparse multi-tone spectrum into
//! its time series; that needs only a power-of-two inverse transform, so a
//! classic iterative radix-2 FFT keeps the substrate self-contained — no
//! external FFT crate.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// In-place inverse FFT *without* the 1/N normalization:
/// `ifft_unnormalized(X)[k] = Σₙ X[n]·e^{+j2πnk/N}`.
///
/// The workhorse for sparse-spectrum synthesis (e.g. the CIB envelope
/// kernels): place each tone's complex amplitude directly in its bin and
/// transform — the result is the time-domain sum itself, with no O(N)
/// scaling pass and no allocation.
///
/// # Panics
/// Panics if `data.len()` is not a power of two (or is zero).
pub fn ifft_unnormalized(data: &mut [Complex64]) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length must be a power of two, got {n}"
    );
    if n == 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex64::ONE;
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let mut d = vec![Complex64::ZERO; 3];
        ifft_unnormalized(&mut d);
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut d = vec![Complex64::ZERO; 8];
        d[0] = Complex64::ONE;
        ifft_unnormalized(&mut d);
        for x in &d {
            assert!((*x - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn ifft_unnormalized_synthesizes_sparse_tones() {
        // Place 1·e^{j0.4} in bin 3 and 0.5·e^{-j1.1} in bin 61 (= -3 mod
        // 64): the transform is the two-tone time series, unscaled.
        let n = 64;
        let a = Complex64::from_polar(1.0, 0.4);
        let b = Complex64::from_polar(0.5, -1.1);
        let mut d = vec![Complex64::ZERO; n];
        d[3] = a;
        d[n - 3] = b;
        ifft_unnormalized(&mut d);
        for (k, &got) in d.iter().enumerate() {
            let t = k as f64 / n as f64;
            let want =
                a * Complex64::cis(2.0 * PI * 3.0 * t) + b * Complex64::cis(-2.0 * PI * 3.0 * t);
            assert!((got - want).norm() < 1e-9, "bin {k}");
        }
    }
}
