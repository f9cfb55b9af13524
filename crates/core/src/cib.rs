//! The CIB transmitter: configuration and the analytic received-peak
//! calculator.
//!
//! Two levels of fidelity coexist:
//!
//! * the **analytic path** ([`CibConfig::received_peak`]) treats each
//!   antenna's narrowband channel as a complex gain and finds the peak of
//!   the resulting envelope — this is what the Monte-Carlo experiments
//!   sweep thousands of times;
//! * the **sample path** (an [`ivn_sdr::bank::TxBank`] on the same
//!   offsets) synthesizes every device's IQ stream through the PA/clock
//!   models for `ivn-bench`'s streaming pipeline.

use crate::waveform::CibEnvelope;
use ivn_dsp::complex::Complex64;

/// Static configuration of a CIB beamformer.
#[derive(Debug, Clone, PartialEq)]
pub struct CibConfig {
    /// Per-antenna frequency offsets from the band centre, Hz. The length
    /// sets the antenna count.
    pub offsets_hz: Vec<f64>,
    /// Band-centre carrier, Hz.
    pub carrier_hz: f64,
    /// Grid resolution for analytic peak searches.
    pub grid: usize,
}

impl CibConfig {
    /// A prototype restricted to the first `n` antennas (the paper's
    /// gain-vs-antennas sweep, Fig. 9).
    pub fn paper_prototype_n(n: usize) -> Self {
        assert!((1..=10).contains(&n), "paper prototype has 1..=10 antennas");
        CibConfig {
            offsets_hz: crate::PAPER_OFFSETS_HZ[..n].to_vec(),
            carrier_hz: crate::BEAMFORMER_CARRIER_HZ,
            grid: 4096,
        }
    }

    /// The array restricted to its first `n` antennas: the sweeps over
    /// the antenna count (Figs. 9 and 13).
    pub(crate) fn first(&self, n: usize) -> Self {
        CibConfig {
            offsets_hz: self.offsets_hz[..n].to_vec(),
            ..self.clone()
        }
    }

    /// Number of antennas.
    pub(crate) fn n(&self) -> usize {
        self.offsets_hz.len()
    }

    /// Absolute emission frequency of antenna `i`.
    pub(crate) fn emission_hz(&self, i: usize) -> f64 {
        self.carrier_hz + self.offsets_hz[i]
    }

    /// Builds the envelope produced at a receive point whose per-antenna
    /// complex channels are `channels` (amplitude = attenuation, phase =
    /// PLL phase + propagation phase — the paper's βᵢ).
    pub fn envelope_at(&self, channels: &[Complex64]) -> CibEnvelope {
        assert_eq!(channels.len(), self.n(), "one channel per antenna");
        let phases: Vec<f64> = channels.iter().map(|h| h.arg()).collect();
        let amps: Vec<f64> = channels.iter().map(|h| h.norm()).collect();
        CibEnvelope::with_amplitudes(&self.offsets_hz, &phases, &amps)
    }

    /// Peak received amplitude over one CIB period, `(t_peak, amplitude)`.
    pub fn received_peak(&self, channels: &[Complex64]) -> (f64, f64) {
        self.envelope_at(channels).peak_over_period(self.grid)
    }

    /// Peak received *power*.
    pub fn received_peak_power(&self, channels: &[Complex64]) -> f64 {
        let (_, a) = self.received_peak(channels);
        a * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::{Rng, StdRng};
    use std::f64::consts::TAU;

    #[test]
    fn prototype_shape() {
        let cfg = CibConfig::paper_prototype_n(10);
        assert_eq!(cfg.n(), 10);
        assert_eq!(cfg.emission_hz(9), 915e6 + 137.0);
        let small = CibConfig::paper_prototype_n(3);
        assert_eq!(small.offsets_hz, vec![0.0, 7.0, 20.0]);
    }

    #[test]
    fn received_peak_near_ceiling_in_blind_channels() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = CibConfig::paper_prototype_n(10);
        for _ in 0..10 {
            let channels: Vec<Complex64> = (0..10)
                .map(|_| Complex64::from_polar(0.01, rng.random::<f64>() * TAU))
                .collect();
            let p = cfg.received_peak_power(&channels);
            // Ceiling is (10 × 0.01)² = 1e-2; the 1-D time scan recovers
            // ≥ 42 % of it (≈ 0.65² of the amplitude ceiling) in the worst
            // draws and ~60 % typically.
            assert!(p > 0.42e-2, "peak power {p}");
            assert!(p <= 1.0001e-2);
        }
    }

    #[test]
    fn unequal_amplitudes_respected() {
        let cfg = CibConfig::paper_prototype_n(2);
        let channels = [
            Complex64::from_polar(1.0, 0.3),
            Complex64::from_polar(0.5, 2.0),
        ];
        let (_, a) = cfg.received_peak(&channels);
        assert!((a - 1.5).abs() < 1e-6, "peak amplitude {a}");
    }

    #[test]
    fn single_antenna_degenerates_to_channel_amplitude() {
        let cfg = CibConfig::paper_prototype_n(1);
        let ch = [Complex64::from_polar(0.37, 1.1)];
        let (_, a) = cfg.received_peak(&ch);
        assert!((a - 0.37).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one channel per antenna")]
    fn channel_count_checked() {
        let cfg = CibConfig::paper_prototype_n(3);
        cfg.received_peak(&[Complex64::ONE]);
    }
}
