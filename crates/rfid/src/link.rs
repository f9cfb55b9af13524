//! Link-timing budget (Gen2 Annex-style).
//!
//! Derives backscatter link frequency (BLF) from TRcal and the divide
//! ratio, and the on-air duration of reader commands. The headline
//! number for IVN: a full Query frame at the paper's settings lasts about
//! **800 µs**, which through Eq. 9 caps the RMS frequency offset of the
//! CIB plan at ≈199 Hz.

use crate::commands::{Command, DivideRatio};
use crate::pie::PieParams;

/// Complete link parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Downlink PIE timing.
    pub pie: PieParams,
    /// Divide ratio from Query.
    pub(crate) dr: DivideRatio,
}

impl LinkParams {
    /// The paper's configuration: Tari 12.5 µs, DR 8, FM0.
    pub fn paper_defaults() -> Self {
        LinkParams {
            pie: PieParams::paper_defaults(),
            dr: DivideRatio::Dr8,
        }
    }

    /// Backscatter link frequency `BLF = DR / TRcal`, Hz.
    pub fn blf_hz(&self) -> f64 {
        self.dr.value() / self.pie.trcal_s
    }

    /// On-air duration of a command frame, preamble included.
    pub fn command_duration_s(&self, cmd: &Command) -> f64 {
        let (zeros, ones) = cmd.bit_census();
        self.pie.frame_duration_s(zeros, ones, cmd.needs_trcal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blf_from_trcal() {
        let lp = LinkParams::paper_defaults();
        // DR 8 / 133.3 µs ≈ 60 kHz.
        assert!((lp.blf_hz() - 60e3).abs() < 1e3);
    }

    #[test]
    fn query_duration_near_800us() {
        // The paper uses Δt ≈ 800 µs for a typical reader query (§3.6).
        let lp = LinkParams::paper_defaults();
        let d = lp.command_duration_s(&Command::canonical_query());
        assert!(d > 6.5e-4 && d < 1.1e-3, "query duration {d}");
    }

    #[test]
    fn eq9_bound_near_199hz() {
        // §3.6: with Δt ≈ 800 µs and α = 0.5, rms(Δf) ≤ √(α/(2π²Δt²)) ≈ 199 Hz.
        let alpha = 0.5f64;
        let dt = 800e-6f64;
        let bound = (alpha / (2.0 * std::f64::consts::PI.powi(2) * dt * dt)).sqrt();
        assert!((bound - 199.0).abs() < 1.5, "analytic bound {bound}");
        // The paper's actual frequency plan must satisfy the bound:
        // RMS of {0,7,20,49,68,73,90,113,121,137} over N = 10 ≈ 82 Hz.
        let paper: [f64; 10] = [0., 7., 20., 49., 68., 73., 90., 113., 121., 137.];
        let rms = (paper.iter().map(|f| f * f).sum::<f64>() / 10.0).sqrt();
        assert!(rms < bound, "paper plan rms {rms} vs bound {bound}");
    }
}
