//! Tap-delay-line multipath channels.
//!
//! Indoor reflections (and in-vivo reflections off organs, §3.1 of the
//! paper) make the channel a superposition of paths with distinct delays
//! and complex gains. Within CIB's narrow band (≤137 Hz spread) the channel
//! is flat but *unknown*; across wider spans it becomes frequency
//! selective. Both behaviours emerge from this model.

use ivn_dsp::complex::Complex64;
use ivn_runtime::rng::Rng;
use std::f64::consts::TAU;

/// One propagation path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Path {
    /// Absolute delay in seconds.
    pub delay_s: f64,
    /// Complex gain (amplitude and phase at zero frequency offset).
    pub gain: Complex64,
}

/// A multipath channel as a sum of discrete paths.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathChannel {
    paths: Vec<Path>,
}

impl MultipathChannel {
    /// Creates a channel from explicit paths.
    ///
    /// # Panics
    /// Panics if no path is given or any delay is negative.
    pub fn new(paths: Vec<Path>) -> Self {
        assert!(!paths.is_empty(), "need at least one path");
        assert!(
            paths.iter().all(|p| p.delay_s >= 0.0),
            "delays must be non-negative"
        );
        MultipathChannel { paths }
    }

    /// Draws a Rayleigh channel: `n_paths` scatterers with an exponential
    /// power-delay profile of RMS spread `rms_delay_s`, uniform phases, and
    /// total average power `total_power`.
    pub fn rayleigh<R: Rng + ?Sized>(
        rng: &mut R,
        n_paths: usize,
        rms_delay_s: f64,
        total_power: f64,
    ) -> Self {
        assert!(n_paths > 0, "need at least one path");
        assert!(rms_delay_s > 0.0 && total_power >= 0.0);
        let mut paths = Vec::with_capacity(n_paths);
        let mut norm = 0.0;
        let mut raw = Vec::with_capacity(n_paths);
        for _ in 0..n_paths {
            // Exponential delays.
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let delay = -rms_delay_s * u.ln();
            // Power follows the same exponential profile.
            let p = (-delay / rms_delay_s).exp();
            norm += p;
            raw.push((delay, p));
        }
        for (delay, p) in raw {
            let amp = (p / norm * total_power).sqrt();
            let phase = rng.random::<f64>() * TAU;
            paths.push(Path {
                delay_s: delay,
                gain: Complex64::from_polar(amp, phase),
            });
        }
        MultipathChannel::new(paths)
    }

    /// Frequency response `H(f) = Σ g_i e^{-j2πf τ_i}` at absolute
    /// frequency `freq_hz`.
    pub(crate) fn response(&self, freq_hz: f64) -> Complex64 {
        self.paths
            .iter()
            .map(|p| p.gain * Complex64::cis(-TAU * freq_hz * p.delay_s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn los_channel_flat_magnitude() {
        let ch = MultipathChannel::new(vec![Path {
            delay_s: 10e-9,
            gain: Complex64::from_polar(0.5, 1.0),
        }]);
        for f in [900e6, 915e6, 930e6] {
            assert!((ch.response(f).norm() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn narrowband_flatness_within_cib_span() {
        // Over 137 Hz, even a 100 ns-spread channel is essentially flat:
        // this is why CIB's tones all see the same |H| (paper §3.7).
        let mut rng = StdRng::seed_from_u64(1);
        let ch = MultipathChannel::rayleigh(&mut rng, 8, 100e-9, 1.0);
        let h1 = ch.response(915e6);
        let h2 = ch.response(915e6 + 137.0);
        assert!((h1 - h2).norm() / h1.norm().max(1e-12) < 1e-3);
    }

    #[test]
    fn wideband_selectivity() {
        // Across 35 MHz (the beamformer→reader spacing) the same channel
        // decorrelates: the out-of-band reader sees a different channel.
        let mut rng = StdRng::seed_from_u64(2);
        let mut decorrelated = 0;
        for _ in 0..50 {
            let ch = MultipathChannel::rayleigh(&mut rng, 8, 100e-9, 1.0);
            let h1 = ch.response(915e6);
            let h2 = ch.response(880e6);
            if (h1 - h2).norm() / h1.norm().max(1e-12) > 0.1 {
                decorrelated += 1;
            }
        }
        assert!(decorrelated > 35, "only {decorrelated}/50 decorrelated");
    }

    #[test]
    fn rayleigh_power_normalization() {
        // Σ|gᵢ|² equals the requested total power for 1–11 paths, RMS
        // spreads 1 ns–1 µs and powers 0.01–10.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..256 {
            let n = rng.random_range(1usize..12);
            let spread = 1e-9 * 1e3f64.powf(rng.random::<f64>());
            let total = 0.01 * 1e3f64.powf(rng.random::<f64>());
            let ch = MultipathChannel::rayleigh(&mut rng, n, spread, total);
            let power: f64 = ch.paths.iter().map(|p| p.gain.norm_sqr()).sum();
            assert!(
                (power - total).abs() < 1e-9 * total,
                "{n} paths, spread {spread:e}: {power} vs {total}"
            );
        }
    }

    #[test]
    fn two_path_fading_notch() {
        // Equal paths with delay difference τ create nulls every 1/τ Hz.
        let tau = 10e-9;
        let ch = MultipathChannel::new(vec![
            Path {
                delay_s: 0.0,
                gain: Complex64::from_real(1.0),
            },
            Path {
                delay_s: tau,
                gain: Complex64::from_real(1.0),
            },
        ]);
        // At f = 1/(2τ) = 50 MHz the paths cancel.
        assert!(ch.response(50e6).norm() < 1e-9);
        // At f = 1/τ they add.
        assert!((ch.response(100e6).norm() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_from_seed() {
        let a = MultipathChannel::rayleigh(&mut StdRng::seed_from_u64(9), 5, 50e-9, 1.0);
        let b = MultipathChannel::rayleigh(&mut StdRng::seed_from_u64(9), 5, 50e-9, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn rejects_empty() {
        MultipathChannel::new(vec![]);
    }
}
