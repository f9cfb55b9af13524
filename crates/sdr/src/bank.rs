//! The synchronized multi-transmitter bank.
//!
//! Models the paper's rack of N USRPs: one shared clock, one common
//! command stream, and a per-device *soft* frequency offset Δfᵢ mixed into
//! the baseband samples (because the PLL step is too coarse, §5a). The
//! bank produces each device's equivalent-baseband emission; the channel
//! compositor in `ivn-core` superposes them at the sensor.

use crate::clock::ClockDistribution;
use crate::device::SdrDevice;
use ivn_dsp::buffer::IqBuffer;
use ivn_dsp::complex::Complex64;
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

    /// Device `i`'s PA as a signed real gain for profile level `level`
    /// at `drive`: a unit phasor times this is the emitted sample.
    pub(crate) fn pa_gain(&self, i: usize, level: f64, drive: f64) -> f64 {
        let a = level * drive;
        let g = self.devices[i].pa.am_am(a.abs());
        if a.is_sign_negative() {
            -g
        } else {
            g
        }
    }

    /// Generates device `i`'s emitted baseband for a shared amplitude
    /// profile (the synchronized PIE command): the profile is delayed by
    /// the device's trigger offset, mixed with the soft offset tone,
    /// driven through the PA at `drive`, and stamped with the carrier
    /// phase.
    ///
    /// `profile` holds one amplitude per sample (1.0 = full carrier); the
    /// emission lasts `profile.len()` samples. Output sample `k` reads
    /// the level at `k − shift` ([`TxBank::shift`]), and 1.0 outside the
    /// profile: before and after the command the carrier stays on.
    ///
    /// One pass over the output, in runs of equal profile bits: the PA
    /// reduces to one real gain per run, and the rotor fills the run
    /// already scaled by it ([`PhasorRotor::fill_scaled`]) — no libm call
    /// per sample. The fill is split-invariant, so the run boundaries do
    /// not move a bit, and the carrier-on profile comes out exactly as
    /// [`CarrierWindows`](crate::stream::CarrierWindows) streams it.
    pub fn emit(&self, i: usize, profile: &[f64], drive: f64) -> IqBuffer {
        let _span = ivn_runtime::span!("sdr.emit_ns");
        ivn_runtime::obs_count!("sdr.emissions", 1);
        let shift = self.shift(i);
        let mut rotor = self.rotor(i);
        let mut out = vec![Complex64::ZERO; profile.len()];
        let mut k = 0;
        while k < out.len() {
            let (level, run) = profile_run(profile, k as i64 - shift, out.len() - k);
            rotor.fill_scaled(&mut out[k..k + run], self.pa_gain(i, level, drive));
            k += run;
        }
        IqBuffer::new(out, self.sample_rate)
    }

    /// Emits the whole bank for a shared profile: one buffer per device.
    pub fn emit_all(&self, profile: &[f64], drive: f64) -> Vec<IqBuffer> {
        (0..self.len())
            .map(|i| self.emit(i, profile, drive))
            .collect()
    }
}

/// The profile level at index `idx` (1.0 outside the profile) and how
/// many of the next `max` indices (≥ 1) read the same bits.
fn profile_run(profile: &[f64], idx: i64, max: usize) -> (f64, usize) {
    if idx < 0 {
        return (1.0, max.min(idx.unsigned_abs() as usize));
    }
    let Some(rest) = profile.get(idx as usize..).filter(|r| !r.is_empty()) else {
        return (1.0, max);
    };
    let bits = rest[0].to_bits();
    let run = rest[..rest.len().min(max)]
        .iter()
        .take_while(|v| v.to_bits() == bits)
        .count();
    (rest[0], run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::envelope;
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

    #[test]
    fn emissions_are_distinct_tones() {
        let b = bank(3, 2);
        let profile = vec![1.0; 1000];
        let e = b.emit_all(&profile, 0.05);
        // Device 1 runs 7 Hz above device 0: their phase difference drifts.
        let d01: Vec<f64> = e[0]
            .samples()
            .iter()
            .zip(e[1].samples())
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
        let profile = vec![1.0; 100_000]; // one full second at 100 kS/s
        let e = b.emit_all(&profile, 0.05);
        let gains: Vec<Complex64> = (0..5)
            .map(|_| Complex64::from_polar(1.0, rng.random::<f64>() * std::f64::consts::TAU))
            .collect();
        let mut rx = vec![Complex64::ZERO; profile.len()];
        for (buf, &g) in e.iter().zip(&gains) {
            for (r, &x) in rx.iter_mut().zip(buf.samples()) {
                *r += x * g;
            }
        }
        let env: Vec<f64> = rx.iter().map(|s| s.norm()).collect();
        let single_amp = e[0].samples()[0].norm();
        let (_, peak) = envelope::peak(&env).unwrap();
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
    fn command_profile_is_synchronized() {
        let b = bank(4, 4);
        let mut profile = vec![1.0; 400];
        for v in profile[100..120].iter_mut() {
            *v = 0.0; // one notch
        }
        let e = b.emit_all(&profile, 0.05);
        for buf in &e {
            // Every device's envelope shows the notch at the same samples
            // (trigger jitter ≪ sample period).
            assert!(buf.samples()[110].norm() < 1e-9);
            assert!(buf.samples()[90].norm() > 0.0);
        }
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
