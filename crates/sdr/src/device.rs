//! A single software-radio device (USRP N210 class).
//!
//! Bundles the synthesizer and power amplifier models into one transmit
//! unit with a sample clock. The transmit path is `baseband → PA →
//! antenna` and the carrier it rides on has the PLL's random phase.

use crate::pa::PowerAmp;
use crate::pll::Pll;
use ivn_dsp::buffer::IqBuffer;
use ivn_runtime::rng::Rng;

/// A transmitting software radio.
#[derive(Debug, Clone)]
pub struct SdrDevice {
    /// Frequency synthesizer.
    pub pll: Pll,
    /// Transmit power amplifier.
    pub pa: PowerAmp,
    /// Sample rate, S/s.
    pub sample_rate: f64,
    /// Trigger (PPS) offset of this device relative to nominal, seconds.
    pub trigger_offset_s: f64,
}

impl SdrDevice {
    /// Creates an N210-class device at the given sample rate.
    ///
    /// # Panics
    /// Panics on non-positive sample rate.
    pub fn n210(sample_rate: f64) -> Self {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        SdrDevice {
            pll: Pll::sbx_class(),
            pa: PowerAmp::hmc453_class(),
            sample_rate,
            trigger_offset_s: 0.0,
        }
    }

    /// Tunes the device, latching a new random carrier phase.
    /// Returns the realized carrier frequency.
    pub fn tune<R: Rng + ?Sized>(&mut self, rng: &mut R, target_hz: f64) -> f64 {
        self.pll.tune(rng, target_hz)
    }

    /// Transmit chain: scales unit-amplitude baseband to `drive` volts,
    /// passes it through the PA, and rotates by the carrier's latched
    /// phase. The result is the equivalent complex baseband of the emitted
    /// RF (relative to the tuned carrier).
    pub fn transmit(&self, baseband: &IqBuffer, drive: f64) -> IqBuffer {
        assert!(drive >= 0.0, "drive must be non-negative");
        let phase = self.pll.initial_phasor();
        let mut out = baseband.clone();
        for s in out.samples_mut() {
            *s = self.pa.process(*s * drive) * phase;
        }
        out
    }

    /// Transmit amplitude (volts) for a unit baseband at a given drive —
    /// i.e. the PA output the far field scales from.
    pub fn output_amplitude(&self, drive: f64) -> f64 {
        self.pa.am_am(drive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::complex::Complex64;
    use ivn_runtime::rng::StdRng;

    fn unit_tone(len: usize, fs: f64) -> IqBuffer {
        IqBuffer::new(vec![Complex64::ONE; len], fs)
    }

    #[test]
    fn transmit_applies_gain_and_phase() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dev = SdrDevice::n210(1e6);
        dev.tune(&mut rng, 915e6);
        let theta = dev.pll.initial_phase();
        let out = dev.transmit(&unit_tone(16, 1e6), 0.05);
        let expected_amp = dev.pa.am_am(0.05);
        for s in out.samples() {
            assert!((s.norm() - expected_amp).abs() < 1e-9);
            let mut d = (s.arg() - theta).rem_euclid(std::f64::consts::TAU);
            if d > std::f64::consts::PI {
                d = std::f64::consts::TAU - d;
            }
            assert!(d < 1e-9, "phase error {d}");
        }
    }

    #[test]
    fn two_devices_same_clock_different_phase() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = SdrDevice::n210(1e6);
        let mut b = SdrDevice::n210(1e6);
        let fa = a.tune(&mut rng, 915e6);
        let fb = b.tune(&mut rng, 915e6);
        assert_eq!(fa, fb); // shared reference: same frequency
        assert_ne!(a.pll.initial_phase(), b.pll.initial_phase()); // but blind phases
    }

    #[test]
    fn heavy_drive_compresses() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut dev = SdrDevice::n210(1e6);
        dev.tune(&mut rng, 915e6);
        let small = dev.output_amplitude(0.01);
        let big = dev.output_amplitude(10.0);
        // 1000× the drive produces far less than 1000× the output
        // (saturation caps it near V_sat).
        assert!(big / small < 150.0, "ratio {}", big / small);
    }
}
