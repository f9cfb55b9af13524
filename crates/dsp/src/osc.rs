//! Numerically controlled oscillator.
//!
//! In the complex-baseband simulation each CIB carrier is a
//! phase-continuous complex tone at its frequency *offset* from the band
//! centre. The [`Oscillator`] here mirrors a software NCO: exact phase
//! accumulation with wrap-around, one `sin_cos` per sample. It is the
//! textbook formulation the trig-free `rotor` lanes are checked against.

use crate::complex::Complex64;
use std::f64::consts::TAU;

/// A phase-continuous numerically controlled oscillator.
#[derive(Debug, Clone)]
pub struct Oscillator {
    phase: f64,
    phase_inc: f64,
}

impl Oscillator {
    /// Creates an oscillator at `freq_hz` (may be negative for a
    /// lower-sideband tone) sampled at `sample_rate`.
    ///
    /// # Panics
    /// Panics if `sample_rate` is not strictly positive.
    pub fn new(freq_hz: f64, sample_rate: f64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        Oscillator {
            phase: 0.0,
            phase_inc: TAU * freq_hz / sample_rate,
        }
    }

    /// Produces the next sample `e^{jφ}` and advances the phase.
    #[inline]
    pub fn next_sample(&mut self) -> Complex64 {
        let s = Complex64::cis(self.phase);
        self.phase = (self.phase + self.phase_inc).rem_euclid(TAU);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oscillator_unit_magnitude_and_rate() {
        let mut osc = Oscillator::new(100.0, 1000.0);
        for _ in 0..1000 {
            assert!((osc.next_sample().norm() - 1.0).abs() < 1e-12);
        }
        // After exactly one second an integer frequency is back at phase 0.
        assert!((osc.next_sample() - Complex64::ONE).norm() < 1e-9);
    }

    #[test]
    fn oscillator_frequency_via_phase_steps() {
        let mut osc = Oscillator::new(50.0, 1000.0);
        let a = osc.next_sample();
        let b = osc.next_sample();
        let dphi = (b * a.conj()).arg();
        assert!((dphi - TAU * 50.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn oscillator_negative_frequency() {
        let mut osc = Oscillator::new(-50.0, 1000.0);
        let a = osc.next_sample();
        let b = osc.next_sample();
        assert!(((b * a.conj()).arg() + TAU * 50.0 / 1000.0).abs() < 1e-12);
    }
}
