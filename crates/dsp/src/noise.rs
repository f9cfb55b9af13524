//! Noise sources and SNR utilities.
//!
//! All stochastic behaviour in the workspace flows through caller-provided
//! RNGs so experiments are reproducible from a seed (DESIGN.md §5).

use crate::complex::Complex64;
use ivn_runtime::rng::Rng;
use std::f64::consts::TAU;

/// Complex additive white Gaussian noise with a configured average power.
///
/// Power is split evenly between I and Q, so each component has variance
/// `power/2`.
#[derive(Debug, Clone)]
pub struct AwgnSource {
    sigma: f64,
}

impl AwgnSource {
    /// Creates a source with total complex noise power `power` (linear).
    ///
    /// # Panics
    /// Panics if `power` is negative.
    pub fn new(power: f64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        AwgnSource {
            sigma: (power / 2.0).sqrt(),
        }
    }

    /// Draws one complex noise sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Complex64 {
        if self.sigma == 0.0 {
            return Complex64::ZERO;
        }
        // Box–Muller: two uniforms → two independent normals.
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        Complex64::new(
            self.sigma * r * (TAU * u2).cos(),
            self.sigma * r * (TAU * u2).sin(),
        )
    }
}

/// A Wiener-process phase-noise model: phase performs a random walk with
/// per-sample standard deviation `step_std` radians.
///
/// Models the residual phase jitter of a PLL locked to a shared reference
/// (the Octoclock in the paper's prototype).
#[derive(Debug, Clone)]
pub struct PhaseNoise {
    step_std: f64,
    phase: f64,
}

impl PhaseNoise {
    /// Creates a phase-noise process with the given per-sample drift.
    ///
    /// # Panics
    /// Panics if `step_std` is negative.
    pub fn new(step_std: f64) -> Self {
        assert!(step_std >= 0.0, "phase noise std must be non-negative");
        PhaseNoise {
            step_std,
            phase: 0.0,
        }
    }

    /// Current accumulated phase error (radians).
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Advances the walk and returns the rotation to apply, `e^{jφ}`.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Complex64 {
        if self.step_std > 0.0 {
            // Box–Muller for one normal sample.
            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.random();
            let n = (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos();
            self.phase += self.step_std * n;
        }
        Complex64::cis(self.phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn awgn_power_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = AwgnSource::new(2.0);
        let n = 200_000;
        let measured: f64 = (0..n).map(|_| src.sample(&mut rng).norm_sqr()).sum::<f64>() / n as f64;
        assert!((measured - 2.0).abs() < 0.05, "measured power {measured}");
    }

    #[test]
    fn awgn_zero_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut src = AwgnSource::new(1.0);
        let n = 100_000;
        let mean: Complex64 = (0..n).map(|_| src.sample(&mut rng)).sum::<Complex64>() / n as f64;
        assert!(mean.norm() < 0.02, "mean {}", mean.norm());
    }

    #[test]
    fn awgn_zero_power_is_silent() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = AwgnSource::new(0.0);
        assert_eq!(src.sample(&mut rng), Complex64::ZERO);
    }

    #[test]
    fn awgn_deterministic_given_seed() {
        let mut a = AwgnSource::new(1.0);
        let mut b = AwgnSource::new(1.0);
        let mut ra = StdRng::seed_from_u64(42);
        let mut rb = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
    }

    #[test]
    fn phase_noise_unit_magnitude_random_walk() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pn = PhaseNoise::new(0.01);
        let mut last = 0.0;
        for _ in 0..1000 {
            let s = pn.sample(&mut rng);
            assert!((s.norm() - 1.0).abs() < 1e-12);
            last = pn.phase();
        }
        // After 1000 steps of σ=0.01 the walk should have moved but stayed
        // within a few standard deviations of √1000·0.01 ≈ 0.32.
        assert!(last.abs() > 1e-4);
        assert!(last.abs() < 2.0);
    }

    #[test]
    fn phase_noise_zero_std_is_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut pn = PhaseNoise::new(0.0);
        for _ in 0..10 {
            assert_eq!(pn.sample(&mut rng), Complex64::ONE);
        }
    }
}
