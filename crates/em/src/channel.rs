//! Channel model abstraction and the blind per-antenna ensemble.
//!
//! A [`ChannelModel`] maps an absolute RF frequency to a complex amplitude
//! response — everything between one transmit antenna's port and the
//! sensor's antenna port. Experiments hold one model per transmit antenna.
//!
//! The crucial property for IVN is captured by
//! [`ChannelEnsemble::blind`]: whatever
//! physics produced the channel, each antenna's carrier arrives with an
//! *unknown, uniformly distributed phase* (PLL start-up phase θᵢ plus
//! propagation phase φᵢ — paper Eq. 5). All beamforming comparisons in the
//! paper reduce to how algorithms behave under that uniform-phase ensemble.

use crate::layered::LayeredPath;
use crate::multipath::MultipathChannel;
use ivn_dsp::complex::Complex64;
use ivn_runtime::rng::Rng;
use std::f64::consts::TAU;

/// Complex frequency response of a propagation channel.
pub trait ChannelModel {
    /// Response at absolute frequency `freq_hz` (linear amplitude + phase).
    fn response(&self, freq_hz: f64) -> Complex64;

    /// Power attenuation (|H|²) at `freq_hz`.
    fn power_gain(&self, freq_hz: f64) -> f64 {
        self.response(freq_hz).norm_sqr()
    }
}

impl ChannelModel for LayeredPath {
    fn response(&self, freq_hz: f64) -> Complex64 {
        LayeredPath::response(self, freq_hz)
    }
}

impl ChannelModel for MultipathChannel {
    fn response(&self, freq_hz: f64) -> Complex64 {
        MultipathChannel::response(self, freq_hz)
    }
}

/// The blind in-vivo channel of the paper's Eq. 5: a deterministic
/// amplitude (from physics) with a uniformly random phase β per antenna,
/// *plus* an optional narrowband dispersion term so that very different
/// frequencies decorrelate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlindChannel {
    amplitude: f64,
    beta: f64,
    /// Extra group delay (s) applied to frequency offsets from the
    /// reference, modelling electrical length.
    group_delay_s: f64,
    reference_hz: f64,
}

impl BlindChannel {
    /// Draws a blind channel with the given deterministic amplitude,
    /// random phase, and electrical delay relative to `reference_hz`.
    pub(crate) fn draw<R: Rng + ?Sized>(
        rng: &mut R,
        amplitude: f64,
        group_delay_s: f64,
        reference_hz: f64,
    ) -> Self {
        BlindChannel {
            amplitude,
            beta: rng.random::<f64>() * TAU,
            group_delay_s,
            reference_hz,
        }
    }
}

impl ChannelModel for BlindChannel {
    fn response(&self, freq_hz: f64) -> Complex64 {
        let df = freq_hz - self.reference_hz;
        Complex64::from_polar(self.amplitude, self.beta - TAU * df * self.group_delay_s)
    }
}

/// A set of per-transmit-antenna channels toward one receive point.
pub struct ChannelEnsemble {
    channels: Vec<Box<dyn ChannelModel + Send + Sync>>,
}

impl ChannelEnsemble {
    /// Creates an ensemble from per-antenna channels.
    pub(crate) fn new(channels: Vec<Box<dyn ChannelModel + Send + Sync>>) -> Self {
        ChannelEnsemble { channels }
    }

    /// Draws `n` blind channels of equal amplitude — the canonical
    /// Monte-Carlo ensemble of the paper's evaluation.
    pub fn blind<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        amplitude: f64,
        reference_hz: f64,
    ) -> Self {
        let channels = (0..n)
            .map(|_| {
                Box::new(BlindChannel::draw(rng, amplitude, 0.0, reference_hz))
                    as Box<dyn ChannelModel + Send + Sync>
            })
            .collect();
        ChannelEnsemble::new(channels)
    }

    /// Number of antennas.
    pub(crate) fn len(&self) -> usize {
        self.channels.len()
    }

    /// All responses at one frequency.
    pub fn responses(&self, freq_hz: f64) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.len()];
        self.responses_into(freq_hz, &mut out);
        out
    }

    /// Writes all responses at one frequency into `out` without
    /// allocating — the hot-path variant used by the block driver.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub(crate) fn responses_into(&self, freq_hz: f64, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.len(), "one slot per antenna required");
        let _span = ivn_runtime::span!("em.ensemble_responses_ns");
        ivn_runtime::obs_count!("em.channel_evals", self.channels.len());
        for (slot, c) in out.iter_mut().zip(&self.channels) {
            *slot = c.response(freq_hz);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layered::single_medium_path;
    use crate::medium::Medium;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn blind_channel_amplitude_fixed_phase_random() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = BlindChannel::draw(&mut rng, 0.7, 0.0, 915e6);
        let b = BlindChannel::draw(&mut rng, 0.7, 0.0, 915e6);
        assert!((a.response(915e6).norm() - 0.7).abs() < 1e-12);
        assert_ne!(a.beta, b.beta);
        // Flat over CIB's narrow span when no dispersion is configured.
        assert!((a.response(915e6) - a.response(915e6 + 137.0)).norm() < 1e-12);
    }

    #[test]
    fn blind_channel_dispersion() {
        let mut rng = StdRng::seed_from_u64(13);
        // ~101 ns of group delay: a 137 Hz offset rotates by ~9e-5 rad —
        // negligible; a 35 MHz offset rotates by several full turns plus a
        // large fraction, i.e. an effectively independent phase.
        let ch = BlindChannel::draw(&mut rng, 1.0, 1.01e-7, 915e6);
        let near = (ch.response(915e6) - ch.response(915e6 + 137.0)).norm();
        let far = (ch.response(915e6) - ch.response(880e6)).norm();
        assert!(near < 1e-2);
        assert!(far > 0.1);
    }

    #[test]
    fn layered_path_implements_trait() {
        let path = single_medium_path(1.0, Medium::muscle(), 0.02);
        let h = ChannelModel::response(&path, 915e6);
        assert!(h.norm() > 0.0 && h.norm() < 1.0);
        assert!((ChannelModel::power_gain(&path, 915e6) - h.norm_sqr()).abs() < 1e-15);
    }

    #[test]
    fn ensemble_blind_draw() {
        let mut rng = StdRng::seed_from_u64(14);
        let ens = ChannelEnsemble::blind(&mut rng, 8, 0.3, 915e6);
        assert_eq!(ens.len(), 8);
        let rs = ens.responses(915e6);
        assert_eq!(rs.len(), 8);
        for r in &rs {
            assert!((r.norm() - 0.3).abs() < 1e-12);
        }
        // Phases differ across antennas.
        assert!((rs[0].arg() - rs[1].arg()).abs() > 1e-6);
    }
}
