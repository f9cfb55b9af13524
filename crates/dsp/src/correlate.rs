//! Correlation and matched filtering.
//!
//! The in-vivo decoder of the paper declares a communication successful when
//! the received waveform's correlation against the tag's known 12-bit FM0
//! preamble exceeds 0.8 (§6.2). This module provides the normalized
//! correlation used for that decision and a coherent averager that models
//! the reader's 1-second integration.

use crate::complex::Complex64;

/// Normalized correlation of *real* sequences (e.g. an envelope against a
/// bit template), with means removed — Pearson-style, in `[-1, 1]`.
pub fn normalized_xcorr_real(x: &[f64], y: &[f64]) -> Vec<f64> {
    if y.is_empty() || x.len() < y.len() {
        return Vec::new();
    }
    let my = y.iter().sum::<f64>() / y.len() as f64;
    let yc: Vec<f64> = y.iter().map(|v| v - my).collect();
    let ey = yc.iter().map(|v| v * v).sum::<f64>().sqrt();
    let lags = x.len() - y.len() + 1;
    (0..lags)
        .map(|lag| {
            let w = &x[lag..lag + y.len()];
            let mw = w.iter().sum::<f64>() / w.len() as f64;
            let mut dot = 0.0;
            let mut ew = 0.0;
            for (a, b) in w.iter().zip(&yc) {
                let ac = a - mw;
                dot += ac * b;
                ew += ac * ac;
            }
            let denom = ew.sqrt() * ey;
            if denom == 0.0 {
                0.0
            } else {
                dot / denom
            }
        })
        .collect()
}

/// Best real-valued correlation over all lags: `(lag, coefficient)`.
pub fn best_match_real(x: &[f64], y: &[f64]) -> Option<(usize, f64)> {
    normalized_xcorr_real(x, y)
        .into_iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Coherently averages `count` repetitions of length `period` from `x`.
///
/// This is the out-of-band reader's SNR booster: the tag repeats its reply
/// every CIB period (1 s in the paper), and averaging K repetitions gains
/// 10·log₁₀(K) dB of SNR against white noise.
///
/// Returns `None` when `x` is shorter than `count × period` or `count == 0`.
pub fn coherent_average(x: &[Complex64], period: usize, count: usize) -> Option<Vec<Complex64>> {
    if count == 0 || period == 0 || x.len() < period * count {
        return None;
    }
    let mut acc = vec![Complex64::ZERO; period];
    for rep in 0..count {
        for (a, s) in acc.iter_mut().zip(&x[rep * period..(rep + 1) * period]) {
            *a += *s;
        }
    }
    for a in &mut acc {
        *a = *a / count as f64;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::AwgnSource;
    use ivn_runtime::rng::StdRng;

    fn c(re: f64) -> Complex64 {
        Complex64::from_real(re)
    }

    #[test]
    fn real_correlation_pearson_properties() {
        let y = [1.0, -1.0, 1.0, -1.0];
        // Identical → 1.
        let r = normalized_xcorr_real(&y, &y);
        assert!((r[0] - 1.0).abs() < 1e-12);
        // Inverted → -1.
        let inv: Vec<f64> = y.iter().map(|v| -v).collect();
        let r2 = normalized_xcorr_real(&inv, &y);
        assert!((r2[0] + 1.0).abs() < 1e-12);
        // Mean shift does not matter.
        let shifted: Vec<f64> = y.iter().map(|v| v + 10.0).collect();
        let r3 = normalized_xcorr_real(&shifted, &y);
        assert!((r3[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_match_real_finds_preamble() {
        // The paper's 12-bit preamble as a ±1 template inside a longer env.
        let preamble = [1., 1., 0., 1., 0., 0., 1., 0., 0., 0., 1., 1.];
        let tpl: Vec<f64> = preamble
            .iter()
            .map(|b| if *b > 0.5 { 1.0 } else { -1.0 })
            .collect();
        let mut x = vec![0.0; 40];
        for (i, v) in tpl.iter().enumerate() {
            x[13 + i] = *v * 0.4 + 0.5; // scaled + offset
        }
        let (lag, coeff) = best_match_real(&x, &tpl).unwrap();
        assert_eq!(lag, 13);
        assert!(coeff > 0.99);
    }

    #[test]
    fn coherent_average_reduces_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut noise = AwgnSource::new(1.0);
        let period = 64;
        let reps = 100;
        let template: Vec<Complex64> = (0..period)
            .map(|i| c(if i % 8 < 4 { 1.0 } else { -1.0 }))
            .collect();
        let mut x = Vec::with_capacity(period * reps);
        for _ in 0..reps {
            for t in &template {
                x.push(*t + noise.sample(&mut rng));
            }
        }
        let avg = coherent_average(&x, period, reps).unwrap();
        let err: f64 = avg
            .iter()
            .zip(&template)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            / period as f64;
        // Residual noise power should be ≈ 1/reps.
        assert!(err < 3.0 / reps as f64, "residual {err}");
    }

    #[test]
    fn coherent_average_rejects_short_input() {
        assert!(coherent_average(&[c(1.0); 10], 8, 2).is_none());
        assert!(coherent_average(&[c(1.0); 10], 0, 2).is_none());
        assert!(coherent_average(&[c(1.0); 10], 5, 0).is_none());
    }
}
