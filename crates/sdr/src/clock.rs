//! Shared clock distribution (Octoclock model).
//!
//! The paper's prototype disciplines all USRPs with a CDA-2900 Octoclock:
//! a common 10 MHz reference (eliminating inter-device frequency drift)
//! and a PPS pulse (aligning sample counters to within a small residual
//! jitter). CIB's *coherent commands* requirement — all antennas keying
//! the same PIE notches at the same instants — rides on this alignment;
//! the jitter model lets fault-injection tests quantify how much timing
//! slop the downlink tolerates.

use ivn_runtime::rng::Rng;

/// A clock-distribution unit feeding multiple devices.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockDistribution {
    /// RMS of residual per-device trigger misalignment, seconds.
    pub pps_jitter_rms_s: f64,
    /// Per-device fractional frequency offset RMS after reference lock
    /// (0 for an ideal shared reference). Descriptive only: `TxBank::new`
    /// draws trigger offsets alone, so no simulated emission carries this
    /// error — every lane runs at exactly its soft offset. The clock-fault
    /// ablation prints it as a frequency column.
    pub residual_ppm_rms: f64,
}

impl ClockDistribution {
    /// An Octoclock-class distribution: ~5 ns PPS alignment, negligible
    /// residual frequency error.
    pub fn octoclock() -> Self {
        ClockDistribution {
            pps_jitter_rms_s: 5e-9,
            residual_ppm_rms: 0.0,
        }
    }

    /// Unsynchronized devices: ~1 ms trigger slop. The 2 ppm oscillator
    /// error it records is not simulated (see
    /// [`ClockDistribution::residual_ppm_rms`]); the bank differs from an
    /// Octoclock one only in trigger offsets.
    pub fn free_running() -> Self {
        ClockDistribution {
            pps_jitter_rms_s: 1e-3,
            residual_ppm_rms: 2.0,
        }
    }

    /// Draws per-device timing offsets (seconds) for `n` devices.
    pub fn draw_trigger_offsets<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| gaussian(rng) * self.pps_jitter_rms_s)
            .collect()
    }

    /// Whether a trigger-offset spread is acceptable for a downlink whose
    /// shortest feature is `min_feature_s` (PIE notch width): the commands
    /// stay "synchronous" in the paper's sense when the spread is well
    /// below the notch.
    pub fn supports_synchronous_commands(&self, min_feature_s: f64) -> bool {
        // 6σ spread under a tenth of the feature.
        6.0 * self.pps_jitter_rms_s < min_feature_s / 10.0
    }
}

/// One standard normal sample via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_runtime::rng::StdRng;

    #[test]
    fn octoclock_supports_pie_timing() {
        // PIE notch PW = 12.5 µs; 5 ns jitter is overwhelmingly adequate.
        let c = ClockDistribution::octoclock();
        assert!(c.supports_synchronous_commands(12.5e-6));
    }

    #[test]
    fn free_running_breaks_synchrony() {
        let c = ClockDistribution::free_running();
        assert!(!c.supports_synchronous_commands(12.5e-6));
    }

    #[test]
    fn trigger_offsets_match_rms() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = ClockDistribution::octoclock();
        let offsets = c.draw_trigger_offsets(&mut rng, 50_000);
        let rms = (offsets.iter().map(|o| o * o).sum::<f64>() / offsets.len() as f64).sqrt();
        assert!((rms / 5e-9 - 1.0).abs() < 0.05, "rms {rms}");
    }
}
