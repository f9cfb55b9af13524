//! Receiver conversion chain: quantization, clipping, saturation, and the
//! SAW pre-filter.
//!
//! The self-jamming problem of paper §4 appears here concretely: the CIB
//! transmitters' combined signal at the reader's antenna can exceed the
//! ADC full scale by orders of magnitude, crushing the microvolt-level
//! backscatter response. The out-of-band reader survives because its SAW
//! bandpass attenuates the 915 MHz jam by ~50 dB before conversion.

use ivn_dsp::complex::Complex64;

/// An ideal-quantizer ADC with hard clipping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    /// Full-scale input amplitude (clips beyond ±full_scale per rail).
    pub full_scale: f64,
    /// Bits of resolution per rail (I and Q each).
    pub(crate) bits: u32,
}

impl Adc {
    /// Creates an ADC.
    ///
    /// # Panics
    /// Panics on zero bits or non-positive full scale.
    pub fn new(full_scale: f64, bits: u32) -> Self {
        assert!(full_scale > 0.0 && bits > 0 && bits <= 24);
        Adc { full_scale, bits }
    }

    /// Quantization step.
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / (1u64 << self.bits) as f64
    }

    /// Converts one sample: clips each rail then rounds to the LSB grid.
    pub fn convert(&self, x: Complex64) -> Complex64 {
        let lsb = self.lsb();
        let q = |v: f64| {
            let clipped = v.clamp(-self.full_scale, self.full_scale);
            (clipped / lsb).round() * lsb
        };
        Complex64::new(q(x.re), q(x.im))
    }

    /// Whether a sample amplitude saturates the converter.
    pub(crate) fn saturates(&self, x: Complex64) -> bool {
        x.re.abs() >= self.full_scale || x.im.abs() >= self.full_scale
    }

    /// Fraction of a block that saturates.
    pub fn saturation_fraction(&self, data: &[Complex64]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.iter().filter(|&&x| self.saturates(x)).count() as f64 / data.len() as f64
    }
}

/// A SAW bandpass pre-filter abstracted by its in-band and out-of-band
/// gains (flat within each region — adequate at the 35 MHz spacing of the
/// paper's reader).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SawFilter {
    /// Passband centre, Hz.
    pub(crate) center_hz: f64,
    /// Passband half-width, Hz.
    pub(crate) half_bandwidth_hz: f64,
    /// Out-of-band rejection, dB (positive).
    pub(crate) rejection_db: f64,
    /// Passband insertion loss, dB (positive).
    pub(crate) insertion_loss_db: f64,
}

impl SawFilter {
    /// A high-rejection 880 MHz SAW like the paper's reader uses: ±10 MHz
    /// passband, 50 dB rejection, 2 dB insertion loss.
    pub fn reader_880() -> Self {
        SawFilter {
            center_hz: 880e6,
            half_bandwidth_hz: 10e6,
            rejection_db: 50.0,
            insertion_loss_db: 2.0,
        }
    }

    /// Amplitude gain (linear, ≤ 1) at an absolute frequency.
    pub fn gain_at(&self, freq_hz: f64) -> f64 {
        let db = if (freq_hz - self.center_hz).abs() <= self.half_bandwidth_hz {
            -self.insertion_loss_db
        } else {
            -self.rejection_db
        };
        ivn_dsp::units::db_to_amplitude(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_grid() {
        let adc = Adc::new(1.0, 3); // LSB = 0.25
        assert!((adc.lsb() - 0.25).abs() < 1e-12);
        let y = adc.convert(Complex64::new(0.3, -0.65));
        assert!((y.re - 0.25).abs() < 1e-12);
        assert!((y.im + 0.75).abs() < 1e-12);
    }

    #[test]
    fn clipping() {
        let adc = Adc::new(1.0, 8);
        let y = adc.convert(Complex64::new(5.0, -7.0));
        assert!((y.re - 1.0).abs() < adc.lsb());
        assert!((y.im + 1.0).abs() < adc.lsb());
        assert!(adc.saturates(Complex64::new(5.0, 0.0)));
        assert!(!adc.saturates(Complex64::new(0.5, 0.5)));
    }

    #[test]
    fn quantization_noise_small_at_14_bits() {
        let adc = Adc::new(1.0, 14);
        let x = Complex64::new(0.123_456_7, -0.765_432_1);
        let y = adc.convert(x);
        assert!((y - x).norm() < 2.0 * adc.lsb());
        assert!(adc.lsb() < 2e-4);
    }

    #[test]
    fn saturation_fraction_counts() {
        let adc = Adc::new(1.0, 8);
        let block = vec![
            Complex64::new(0.5, 0.0),
            Complex64::new(2.0, 0.0),
            Complex64::new(0.0, -3.0),
            Complex64::new(0.1, 0.1),
        ];
        assert!((adc.saturation_fraction(&block) - 0.5).abs() < 1e-12);
        assert_eq!(adc.saturation_fraction(&[]), 0.0);
    }

    #[test]
    fn saw_passes_inband_rejects_oob() {
        let saw = SawFilter::reader_880();
        // In band: ~0.794 (−2 dB).
        assert!((saw.gain_at(880e6) - 0.794).abs() < 0.01);
        assert!((saw.gain_at(885e6) - 0.794).abs() < 0.01);
        // The 915 MHz jam: −50 dB.
        assert!((saw.gain_at(915e6) - 0.00316).abs() < 1e-4);
    }

    #[test]
    fn saw_rescues_adc_from_jamming() {
        // Jam at 100× the backscatter signal amplitude (40 dB stronger):
        // unfiltered it saturates the ADC; after the SAW the jam is below
        // the signal.
        let adc = Adc::new(1.0, 14);
        let saw = SawFilter::reader_880();
        let jam = Complex64::from_real(10.0); // at 915 MHz
        let signal = Complex64::from_real(0.1); // at 880 MHz
        assert!(adc.saturates(jam + signal));
        let (jam_out, signal_out) = (jam * saw.gain_at(915e6), signal * saw.gain_at(880e6));
        assert!(!adc.saturates(jam_out + signal_out));
        // The surviving jam is far below the surviving signal.
        assert!(jam_out.norm() < signal_out.norm());
    }
}
