//! The synchronized multi-transmitter bank.
//!
//! Models the paper's rack of N USRPs: one shared clock, one common
//! command stream, and a per-device *soft* frequency offset Δfᵢ mixed into
//! the baseband samples (because the PLL step is too coarse, §5a). The
//! bank holds each device's rotor and PA;
//! [`CarrierWindows`](crate::stream::CarrierWindows) synthesizes their
//! carrier-on emission, and `ivn-em`'s superposer sums it at the sensor.

use crate::clock::ClockDistribution;
use crate::device::SdrDevice;
use ivn_dsp::rotor::PhasorRotor;
use ivn_runtime::rng::Rng;

/// A bank of synchronized transmitters.
#[derive(Debug, Clone)]
pub struct TxBank {
    devices: Vec<SdrDevice>,
    soft_offsets_hz: Vec<f64>,
    sample_rate: f64,
}

impl TxBank {
    /// Builds a bank of `n` devices on a shared `clock`, tunes every
    /// device to `carrier_hz`, and assigns the soft offsets.
    ///
    /// # Panics
    /// Panics if `offsets.len() != n` or `n == 0`.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        carrier_hz: f64,
        sample_rate: f64,
        offsets_hz: &[f64],
        clock: &ClockDistribution,
    ) -> Self {
        assert!(n > 0, "need at least one device");
        assert_eq!(offsets_hz.len(), n, "one offset per device required");
        let _span = ivn_runtime::span!("sdr.bank_synthesis_ns");
        ivn_runtime::obs_count!("sdr.devices_tuned", n);
        let trigger_offsets = clock.draw_trigger_offsets(rng, n);
        let devices = (0..n)
            .map(|i| {
                let mut d = SdrDevice::n210();
                d.trigger_offset_s = trigger_offsets[i];
                d.tune(rng, carrier_hz);
                d
            })
            .collect();
        TxBank {
            devices,
            soft_offsets_hz: offsets_hz.to_vec(),
            sample_rate,
        }
    }

    /// Number of transmitters.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the bank is empty (never after construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Sample rate shared by every device, S/s.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The soft offsets, Hz.
    pub fn offsets_hz(&self) -> &[f64] {
        &self.soft_offsets_hz
    }

    /// Absolute emission frequency of device `i`, Hz.
    pub fn emission_hz(&self, i: usize) -> f64 {
        self.devices[i].pll.frequency() + self.soft_offsets_hz[i]
    }

    /// Device access (e.g. for per-device fault injection).
    pub fn device(&self, i: usize) -> &SdrDevice {
        &self.devices[i]
    }

    /// Device `i`'s trigger offset as a whole-sample profile shift:
    /// positive means the device fires late and reads older profile
    /// samples, negative that it fires early.
    pub fn shift(&self, i: usize) -> i64 {
        (self.devices[i].trigger_offset_s * self.sample_rate).round() as i64
    }

    /// Device `i`'s unit phasor source `e^{j(θ_pll + kΔ)}`: the PLL's
    /// carrier phase and the soft offset in one trig-free rotator.
    pub(crate) fn rotor(&self, i: usize) -> PhasorRotor {
        PhasorRotor::new(
            self.soft_offsets_hz[i],
            self.sample_rate,
            self.devices[i].pll.initial_phase(),
        )
    }

    /// Device `i`'s PA at `drive` as a signed real gain: a unit phasor
    /// times this is the emitted carrier sample.
    pub(crate) fn pa_gain(&self, i: usize, drive: f64) -> f64 {
        let g = self.devices[i].pa.am_am(drive.abs());
        if drive.is_sign_negative() {
            -g
        } else {
            g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::CarrierWindows;
    use ivn_dsp::complex::Complex64;
    use ivn_runtime::rng::StdRng;

    const PAPER_OFFSETS: [f64; 10] = [0., 7., 20., 49., 68., 73., 90., 113., 121., 137.];

    fn bank(n: usize, seed: u64) -> TxBank {
        let mut rng = StdRng::seed_from_u64(seed);
        TxBank::new(
            &mut rng,
            n,
            915e6,
            100e3,
            &PAPER_OFFSETS[..n],
            &ClockDistribution::octoclock(),
        )
    }

    #[test]
    fn construction_and_metadata() {
        let b = bank(10, 1);
        assert_eq!(b.len(), 10);
        assert_eq!(b.emission_hz(3), 915e6 + 49.0);
    }

    /// Every device's carrier-on emission of `len` samples at drive 0.05.
    fn carrier_on(b: &TxBank, len: usize) -> Vec<Vec<Complex64>> {
        let mut lanes = vec![Vec::with_capacity(len); b.len()];
        CarrierWindows::new(b, 0.05, len).fold(len, |_, carriers| {
            for (lane, &z) in lanes.iter_mut().zip(carriers) {
                lane.push(z);
            }
        });
        lanes
    }

    #[test]
    fn emissions_are_distinct_tones() {
        let b = bank(3, 2);
        let e = carrier_on(&b, 1000);
        // Device 1 runs 7 Hz above device 0: their phase difference drifts.
        let d01: Vec<f64> = e[0]
            .iter()
            .zip(&e[1])
            .map(|(a, b)| (*b * a.conj()).arg())
            .collect();
        // Phase drift across the second: ≈ 2π·7·t.
        let drift = (d01[999] - d01[0]).rem_euclid(std::f64::consts::TAU);
        let expected = (std::f64::consts::TAU * 7.0 * 999.0 / 100e3) % std::f64::consts::TAU;
        assert!(
            (drift - expected).abs() < 1e-6,
            "drift {drift} vs {expected}"
        );
    }

    #[test]
    fn superposition_peaks_above_single() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = bank(5, 3);
        let gains: Vec<Complex64> = (0..5)
            .map(|_| Complex64::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU))
            .collect();
        // One full second at 100 kS/s.
        let (mut peak, mut single_amp) = (0.0f64, 0.0);
        CarrierWindows::new(&b, 0.05, 100_000).fold(100_000, |k, carriers| {
            let rx: Complex64 = carriers.iter().zip(&gains).map(|(&x, &g)| x * g).sum();
            peak = peak.max(rx.norm());
            if k == 0 {
                single_amp = carriers[0].norm();
            }
        });
        // Over a full period of integer offsets the 5 tones align nearly
        // perfectly somewhere: peak ≈ 5× single amplitude.
        assert!(
            peak > 4.2 * single_amp,
            "peak {} single {}",
            peak,
            single_amp
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = bank(6, 42);
        let b = bank(6, 42);
        for i in 0..6 {
            assert_eq!(
                a.device(i).pll.initial_phase(),
                b.device(i).pll.initial_phase()
            );
        }
    }

    #[test]
    #[should_panic(expected = "one offset per device")]
    fn offset_count_checked() {
        let mut rng = StdRng::seed_from_u64(5);
        TxBank::new(
            &mut rng,
            3,
            915e6,
            1e6,
            &[0.0, 7.0],
            &ClockDistribution::octoclock(),
        );
    }
}
