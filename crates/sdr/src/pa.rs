//! Power amplifier with soft compression (Rapp model).
//!
//! The prototype's HMC453QS16 has a 30 dBm 1-dB compression point (§5a).
//! The Rapp model captures the AM/AM curve:
//!
//! ```text
//! g(v) = G·v / (1 + (G·v/V_sat)^(2p))^(1/2p)
//! ```
//!
//! Saturation matters for CIB in an unexpected way: the *transmitted*
//! per-antenna signal is a clean single tone (constant envelope — PA
//! friendly); it is only in the air that the tones sum into high peaks.
//! CIB thus sidesteps the PAPR problem that would wreck a single-PA
//! multi-tone transmitter, and the tests document that contrast.

/// A Rapp-model power amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAmp {
    /// Small-signal amplitude gain (linear).
    pub(crate) gain: f64,
    /// Output saturation amplitude, volts (into the reference load).
    pub(crate) v_sat: f64,
    /// Rapp smoothness parameter (1–3 typical; higher = sharper knee).
    pub(crate) smoothness: f64,
}

impl PowerAmp {
    /// Creates a PA.
    ///
    /// # Panics
    /// Panics on non-positive parameters.
    pub fn new(gain: f64, v_sat: f64, smoothness: f64) -> Self {
        assert!(gain > 0.0 && v_sat > 0.0 && smoothness > 0.0);
        PowerAmp {
            gain,
            v_sat,
            smoothness,
        }
    }

    /// An HMC453-class PA: ~20 dB gain, saturation sized so the 1-dB
    /// compression point lands at 30 dBm output into 50 Ω.
    pub fn hmc453_class() -> Self {
        // P1dB = 30 dBm = 1 W into 50 Ω → amplitude √(2·P·R) = 10 V.
        // For Rapp p=2, the 1 dB compression output is ≈ 0.885·V_sat... set
        // V_sat so compression happens near 10 V.
        PowerAmp::new(10.0, 11.3, 2.0)
    }

    /// AM/AM: output amplitude for an input amplitude.
    pub fn am_am(&self, v_in: f64) -> f64 {
        assert!(v_in >= 0.0);
        let lin = self.gain * v_in;
        let p2 = 2.0 * self.smoothness;
        lin / (1.0 + (lin / self.v_sat).powf(p2)).powf(1.0 / p2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::complex::Complex64;

    impl PowerAmp {
        /// Gain compression in dB at a given input amplitude (0 in the linear
        /// region, growing toward saturation).
        fn compression_db(&self, v_in: f64) -> f64 {
            if v_in <= 0.0 {
                return 0.0;
            }
            20.0 * ((self.gain * v_in) / self.am_am(v_in)).log10()
        }

        /// Input amplitude at which compression reaches 1 dB (bisection).
        fn p1db_input(&self) -> f64 {
            let (mut lo, mut hi) = (1e-9, self.v_sat / self.gain * 100.0);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if self.compression_db(mid) < 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        }
    }

    #[test]
    fn linear_at_small_signal() {
        let pa = PowerAmp::hmc453_class();
        let v = pa.am_am(0.01);
        assert!((v / (0.01 * pa.gain) - 1.0).abs() < 1e-3);
        assert!(pa.compression_db(0.01) < 0.01);
    }

    #[test]
    fn saturates_at_large_signal() {
        let pa = PowerAmp::hmc453_class();
        assert!(pa.am_am(100.0) <= pa.v_sat * 1.0001);
        assert!(pa.am_am(1000.0) <= pa.v_sat * 1.0001);
    }

    #[test]
    fn monotone_am_am() {
        let pa = PowerAmp::hmc453_class();
        let mut prev = 0.0;
        for k in 1..100 {
            let v = pa.am_am(k as f64 * 0.05);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn p1db_near_30dbm_output() {
        let pa = PowerAmp::hmc453_class();
        let v_in = pa.p1db_input();
        let v_out = pa.am_am(v_in);
        // Output power into 50 Ω: P = v²/(2·50); expect ≈ 1 W (30 dBm).
        let p_dbm = 10.0 * (v_out * v_out / 100.0 / 1e-3).log10();
        assert!((p_dbm - 30.0).abs() < 1.5, "P1dB at {p_dbm} dBm");
    }

    #[test]
    fn constant_envelope_tone_unharmed_multitone_clipped() {
        // The CIB PAPR argument: one tone per PA stays clean; a 10-tone
        // sum through a single PA would clip its peaks.
        let pa = PowerAmp::hmc453_class();
        // Tone at half the saturation drive.
        let drive = pa.p1db_input() * 0.3;
        let tone: Vec<Complex64> = (0..100)
            .map(|k| Complex64::from_polar(drive, k as f64 * 0.3))
            .collect();
        let clean: Vec<f64> = tone.iter().map(|x| pa.am_am(x.norm())).collect();
        let gain_err: f64 = clean
            .iter()
            .zip(&tone)
            .map(|(y, x)| (y / (x.norm() * pa.gain) - 1.0).abs())
            .fold(0.0, f64::max);
        assert!(gain_err < 0.02, "tone distortion {gain_err}");

        // A 10× peak (the CIB sum, if one PA had to transmit it) compresses
        // by several dB.
        let comp = pa.compression_db(drive * 10.0);
        assert!(comp > 3.0, "only {comp} dB compression at 10× peak");
    }
}
