//! Frequency synthesizer (PLL) model.
//!
//! Two properties drive IVN's design (paper §3.3 and §5a):
//!
//! 1. Every retune latches a **uniformly random initial phase** — the θᵢ
//!    term that makes multi-device transmissions mutually incoherent even
//!    on a shared reference.
//! 2. The synthesizer's frequency resolution is coarse (N210/SBX step
//!    ≈ kHz at integer-N settings): hertz-scale CIB offsets cannot be set
//!    in hardware and must be soft-coded into the baseband samples.

use ivn_runtime::rng::Rng;
use std::f64::consts::TAU;

/// A phase-locked-loop frequency synthesizer.
#[derive(Debug, Clone, PartialEq)]
pub struct Pll {
    /// Smallest programmable frequency step, Hz.
    pub(crate) step_hz: f64,
    tuned_hz: f64,
    phase: f64,
}

impl Pll {
    /// Creates an untuned PLL with the given step size.
    ///
    /// # Panics
    /// Panics on non-positive step.
    pub fn new(step_hz: f64) -> Self {
        assert!(step_hz > 0.0, "step must be positive");
        Pll {
            step_hz,
            tuned_hz: 0.0,
            phase: 0.0,
        }
    }

    /// An SBX-class synthesizer: 1 kHz step, locked to an external
    /// reference (no residual frequency error).
    pub fn sbx_class() -> Self {
        Pll::new(1e3)
    }

    /// Tunes to the nearest achievable frequency to `target_hz`, latching
    /// a fresh random phase. Returns the actually tuned frequency.
    pub fn tune<R: Rng + ?Sized>(&mut self, rng: &mut R, target_hz: f64) -> f64 {
        ivn_runtime::obs_count!("sdr.pll_locks", 1);
        self.tuned_hz = (target_hz / self.step_hz).round() * self.step_hz;
        self.phase = rng.random::<f64>() * TAU;
        self.tuned_hz
    }

    /// Frequency the PLL is actually producing, Hz.
    pub(crate) fn frequency(&self) -> f64 {
        self.tuned_hz
    }

    /// The latched initial phase (radians) — physically real but unknown
    /// to the system; exposed for tests and for the channel compositor.
    pub fn initial_phase(&self) -> f64 {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn tune_quantizes_to_step() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pll = Pll::sbx_class();
        let f = pll.tune(&mut rng, 915_000_437.0);
        assert_eq!(f, 915_000_000.0);
        assert_eq!(pll.frequency(), 915_000_000.0);
    }

    #[test]
    fn each_tune_draws_new_phase() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pll = Pll::sbx_class();
        pll.tune(&mut rng, 915e6);
        let p1 = pll.initial_phase();
        pll.tune(&mut rng, 915e6);
        let p2 = pll.initial_phase();
        assert_ne!(p1, p2);
        assert!((0.0..TAU).contains(&p1));
        assert!((0.0..TAU).contains(&p2));
    }

    #[test]
    fn phase_uniformity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pll = Pll::sbx_class();
        let n = 20_000;
        let mean: (f64, f64) = (0..n).fold((0.0, 0.0), |acc, _| {
            pll.tune(&mut rng, 915e6);
            (
                acc.0 + pll.initial_phase().cos(),
                acc.1 + pll.initial_phase().sin(),
            )
        });
        assert!((mean.0 / n as f64).abs() < 0.02);
        assert!((mean.1 / n as f64).abs() < 0.02);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = Pll::sbx_class();
        let mut b = Pll::sbx_class();
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(a.tune(&mut ra, 915e6), b.tune(&mut rb, 915e6));
            assert_eq!(a.initial_phase(), b.initial_phase());
        }
    }
}
