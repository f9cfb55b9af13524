//! Comparison beamformers.
//!
//! Every scheme answers the same question the paper's evaluation asks:
//! *given per-antenna complex channels toward a sensor (amplitude =
//! physics, phase = unknowable PLL + propagation phase), what peak power
//! arrives during an observation window?* CIB answers it with
//! [`CibConfig::received_peak_power`](crate::cib::CibConfig::received_peak_power):
//! its time-varying envelope peaks near `(Σ|hᵢ|)²` with *no* channel
//! knowledge.
//!
//! * [`blind_coherent_power`] — the paper's baseline: N antennas, same
//!   carrier, phases unknown. Its static phasor sum averages N× the
//!   single-antenna power (pure power increase) and fades exponentially
//!   often.
//!
//! The tests also hold channel-aware maximum-ratio transmission
//! (`coherent_mrt_power`), the unreachable-in-vivo upper bound
//! `(Σ|hᵢ|)²` both schemes are checked against.

use ivn_dsp::complex::Complex64;

/// The paper's baseline: N antennas transmitting the same carrier with
/// unknown phases. The received power is the static random phasor sum
/// `|Σh|²` — time does not help because nothing changes.
pub(crate) fn blind_coherent_power(channels: &[Complex64]) -> f64 {
    channels.iter().copied().sum::<Complex64>().norm_sqr()
}

/// Channel-aware maximum-ratio transmission: the coherent upper bound
/// the tests check every scheme against.
#[cfg(test)]
pub(crate) fn coherent_mrt_power(channels: &[Complex64]) -> f64 {
    let amp: f64 = channels.iter().map(|h| h.norm()).sum();
    amp * amp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cib::CibConfig;
    use ivn_runtime::rng::{Rng, StdRng};
    use std::f64::consts::TAU;

    fn blind_channels(rng: &mut StdRng, n: usize, amp: f64) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::from_polar(amp, rng.random::<f64>() * TAU))
            .collect()
    }

    #[test]
    fn mrt_is_upper_bound_for_everyone() {
        let mut rng = StdRng::seed_from_u64(1);
        let cib = CibConfig::paper_prototype_n(10);
        for _ in 0..20 {
            let ch = blind_channels(&mut rng, 10, 1.0);
            let bound = coherent_mrt_power(&ch);
            assert!(cib.received_peak_power(&ch) <= bound + 1e-6);
            assert!(blind_coherent_power(&ch) <= bound + 1e-6);
        }
    }

    #[test]
    fn cib_approaches_mrt_blind() {
        // The headline claim: CIB ≈ MRT without channel knowledge.
        let mut rng = StdRng::seed_from_u64(2);
        let cib = CibConfig::paper_prototype_n(10);
        let mut ratio_sum = 0.0;
        for _ in 0..20 {
            let ch = blind_channels(&mut rng, 10, 1.0);
            ratio_sum += cib.received_peak_power(&ch) / coherent_mrt_power(&ch);
        }
        let mean_ratio = ratio_sum / 20.0;
        // Blind CIB recovers more than half of the channel-aware optimum
        // (≈ 0.6 with the paper's 10-tone plan) — against ~0.1 for the
        // blind-coherent baseline.
        assert!(mean_ratio > 0.5, "CIB/MRT mean {mean_ratio}");
    }

    #[test]
    fn blind_coherent_averages_n_but_fades() {
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 4000;
        let powers: Vec<f64> = (0..trials)
            .map(|_| blind_coherent_power(&blind_channels(&mut rng, 10, 1.0)))
            .collect();
        let mean = powers.iter().sum::<f64>() / trials as f64;
        // E[|Σ e^{jβ}|²] = N.
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
        // But deep fades happen: some trials below 1 (worse than a single
        // antenna) — the paper's blind-spot phenomenon.
        let fades = powers.iter().filter(|&&p| p < 1.0).count();
        assert!(fades > trials / 20, "only {fades} fades");
    }

    #[test]
    fn cib_never_fades_like_blind_coherent() {
        let mut rng = StdRng::seed_from_u64(4);
        let cib = CibConfig::paper_prototype_n(10);
        for _ in 0..50 {
            let ch = blind_channels(&mut rng, 10, 1.0);
            // CIB always finds a high-peak instant: ≥ 30 % of the ceiling
            // power (the blind baseline drops below 1 % routinely).
            let peak = cib.received_peak_power(&ch);
            assert!(peak > 30.0, "peak {peak}");
        }
    }
}
