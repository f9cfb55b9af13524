//! A single software-radio device (USRP N210 class).
//!
//! Bundles the synthesizer and power amplifier models into one transmit
//! unit with a sample clock. The transmit path is `baseband → PA →
//! antenna` and the carrier it rides on has the PLL's random phase.

use crate::pa::PowerAmp;
use crate::pll::Pll;
use ivn_runtime::rng::Rng;

/// A transmitting software radio.
#[derive(Debug, Clone)]
pub struct SdrDevice {
    /// Frequency synthesizer.
    pub pll: Pll,
    /// Transmit power amplifier.
    pub pa: PowerAmp,
    /// Trigger (PPS) offset of this device relative to nominal, seconds.
    pub(crate) trigger_offset_s: f64,
}

impl SdrDevice {
    /// Creates an N210-class device.
    pub(crate) fn n210() -> Self {
        SdrDevice {
            pll: Pll::sbx_class(),
            pa: PowerAmp::hmc453_class(),
            trigger_offset_s: 0.0,
        }
    }

    /// Tunes the device, latching a new random carrier phase.
    /// Returns the realized carrier frequency.
    pub(crate) fn tune<R: Rng + ?Sized>(&mut self, rng: &mut R, target_hz: f64) -> f64 {
        self.pll.tune(rng, target_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn two_devices_same_clock_different_phase() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = SdrDevice::n210();
        let mut b = SdrDevice::n210();
        let fa = a.tune(&mut rng, 915e6);
        let fb = b.tune(&mut rng, 915e6);
        assert_eq!(fa, fb); // shared reference: same frequency
        assert_ne!(a.pll.initial_phase(), b.pll.initial_phase()); // but blind phases
    }
}
