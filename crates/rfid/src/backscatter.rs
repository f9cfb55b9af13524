//! Physical backscatter model.
//!
//! A tag "transmits" by switching its antenna load between two impedance
//! states, toggling its reflection coefficient between `gamma_a` and
//! `gamma_b`. The reflected field is `incident × Γ(t) × √G_backscatter`.
//!
//! Two properties matter to IVN (paper §4):
//!
//! 1. **Frequency agnosticism** — Γ switching reflects *whatever*
//!    illuminates the tag. Once CIB powers the chip, the tag also
//!    backscatters the out-of-band reader's 880 MHz carrier, which is how
//!    the reader escapes the 915 MHz self-jam.
//! 2. **Modulation depth** — the difference |Γa − Γb| sets the uplink
//!    signal amplitude; a powered-but-weakly-modulating tag can still be
//!    undecodable.

use ivn_dsp::complex::Complex64;

/// A tag's two-state reflection modulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackscatterModulator {
    /// Reflection coefficient in state A ("absorb").
    pub(crate) gamma_a: Complex64,
    /// Reflection coefficient in state B ("reflect").
    pub(crate) gamma_b: Complex64,
}

impl BackscatterModulator {
    /// Creates a modulator.
    ///
    /// # Panics
    /// Panics if either |Γ| exceeds 1 (passive devices cannot amplify).
    pub(crate) fn new(gamma_a: Complex64, gamma_b: Complex64) -> Self {
        assert!(
            gamma_a.norm() <= 1.0 + 1e-12 && gamma_b.norm() <= 1.0 + 1e-12,
            "reflection coefficients must have |Γ| ≤ 1"
        );
        BackscatterModulator { gamma_a, gamma_b }
    }

    /// A typical RFID ASK modulator: matched (Γ≈0.1) vs shorted (Γ≈0.8).
    pub fn typical_rfid() -> Self {
        BackscatterModulator::new(Complex64::from_real(0.1), Complex64::from_real(0.8))
    }

    /// Γ for a given baseband level (`false` = state A, `true` = state B).
    pub fn gamma(&self, state: bool) -> Complex64 {
        if state {
            self.gamma_b
        } else {
            self.gamma_a
        }
    }

    /// Differential reflection |Γb − Γa| — the uplink modulation strength.
    pub fn differential(&self) -> f64 {
        (self.gamma_b - self.gamma_a).norm()
    }

    /// Reflects a *constant* incident carrier with ±1 baseband samples
    /// (e.g. FM0 output): maps +1 → state B, −1/0 → state A.
    pub fn reflect_baseband(&self, carrier: Complex64, baseband: &[f64]) -> Vec<Complex64> {
        baseband
            .iter()
            .map(|&b| carrier * self.gamma(b > 0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_constraint() {
        let m = BackscatterModulator::typical_rfid();
        assert!(m.gamma(false).norm() <= 1.0);
        assert!(m.gamma(true).norm() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "|Γ| ≤ 1")]
    fn rejects_active_reflection() {
        BackscatterModulator::new(Complex64::from_real(1.5), Complex64::ZERO);
    }

    #[test]
    fn differential_depth() {
        let m = BackscatterModulator::typical_rfid();
        assert!((m.differential() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn frequency_agnostic() {
        // The same modulator reflects carriers of any phase/frequency
        // representation identically in magnitude — the §4 property.
        let m = BackscatterModulator::typical_rfid();
        let carriers = [
            Complex64::from_polar(1.0, 0.0),
            Complex64::from_polar(1.0, 1.7),
            Complex64::from_polar(1.0, -2.9),
        ];
        for c in carriers {
            let out = m.reflect_baseband(c, &[1.0, -1.0]);
            assert!((out[0].norm() - 0.8).abs() < 1e-12);
            assert!((out[1].norm() - 0.1).abs() < 1e-12);
        }
    }
}
