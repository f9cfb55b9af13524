//! Experimental scenarios: tags, placements and the link budget.
//!
//! A [`Placement`] reproduces one of the paper's physical setups — free
//! space (Fig. 8), the water tank (Fig. 7), the Fig. 11 media, or the
//! swine placements of §6.2 — and converts it into per-antenna complex
//! channels in **√watt units**: `|channel|²` is the received RF power at
//! the tag's rectifier for one antenna's EIRP, and the phase is the
//! paper's blind β (PLL phase + propagation phase, uniformly random).
//!
//! ## Link budget
//!
//! ```text
//! P_rx = EIRP · G_tag(θ) · (λ₀/4π)² · |h_path|² · penalty_medium
//! ```
//!
//! where `h_path` is the layered-path response (spreading + boundary +
//! tissue, Eq. 2), `G_tag` folds boresight gain, orientation and
//! polarization (Eq. 3 via effective aperture), and `penalty_medium =
//! 1/√εr` for a tag whose antenna is matched for air but immersed in a
//! dense medium (the standard tag); a medium-matched implant antenna (the
//! tube-matched miniature tag, §5c) skips the penalty. Calibration
//! anchors and their derivations live in DESIGN.md §5.

use ivn_dsp::complex::Complex64;
use ivn_em::antenna::Antenna;
use ivn_em::layered::{single_medium_path, Layer, LayeredPath};
use ivn_em::medium::Medium;
use ivn_harvester::powerup::TagPowerProfile;
use ivn_runtime::rng::Rng;
use std::f64::consts::TAU;

/// The paper's per-antenna transmit EIRP: 30 dBm PA into a 7 dBi antenna.
pub const PAPER_EIRP_DBM: f64 = 37.0;

/// A complete tag specification: RF front door plus power profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TagSpec {
    /// Antenna model (gain, orientation floor, polarization).
    pub(crate) antenna: Antenna,
    /// Harvester/chip power profile.
    pub power: TagPowerProfile,
    /// Whether the antenna is matched to the surrounding medium
    /// (true for the tube-matched implant; false for an air dipole).
    pub(crate) matched_to_medium: bool,
}

impl TagSpec {
    /// The standard Avery-class tag: air-matched dipole.
    pub fn standard() -> Self {
        TagSpec {
            antenna: Antenna::standard_tag(),
            power: TagPowerProfile::standard_tag(),
            matched_to_medium: false,
        }
    }

    /// The miniature Xerafy-class implant tag: tube/medium-matched.
    pub fn miniature() -> Self {
        TagSpec {
            antenna: Antenna::miniature_tag(),
            power: TagPowerProfile::miniature_tag(),
            matched_to_medium: true,
        }
    }

    /// Linear medium-immersion aperture penalty (≤ 1).
    pub(crate) fn medium_penalty(&self, local: &Medium) -> f64 {
        if self.matched_to_medium {
            1.0
        } else {
            1.0 / local.rel_permittivity.sqrt()
        }
    }
}

/// One physical experiment setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Report name.
    pub(crate) name: String,
    /// Representative antenna→tag path.
    pub(crate) path: LayeredPath,
    /// Medium immediately surrounding the tag.
    pub(crate) local_medium: Medium,
    /// Per-trial tag orientation range (radians off boresight); drawn
    /// uniformly each trial.
    pub(crate) orientation_range: (f64, f64),
    /// Per-antenna amplitude jitter, dB RMS (antennas sit at slightly
    /// different ranges/angles).
    pub(crate) amplitude_jitter_db: f64,
}

impl Placement {
    /// Free-space line of sight at `range_m` (Fig. 8 / Fig. 13a-b).
    pub fn free_space(range_m: f64) -> Self {
        Placement {
            name: format!("free space @ {range_m:.2} m"),
            path: LayeredPath::free_space(range_m),
            local_medium: Medium::air(),
            orientation_range: (0.0, 0.0),
            amplitude_jitter_db: 0.5,
        }
    }

    /// The water tank: antennas 90 cm from the tank face, tag `depth_m`
    /// inside (Fig. 7 / Fig. 13c-d).
    pub fn water_tank(depth_m: f64) -> Self {
        Placement {
            name: format!("water tank @ {:.1} cm", depth_m * 100.0),
            path: single_medium_path(0.9, Medium::water(), depth_m),
            local_medium: Medium::water(),
            orientation_range: (0.0, 0.0),
            amplitude_jitter_db: 0.5,
        }
    }

    /// A Fig. 11 media container: antennas 50 cm away, sensor `depth_m`
    /// into the medium.
    pub fn media_box(medium: Medium, depth_m: f64) -> Self {
        Placement {
            name: format!("{} box @ {:.1} cm", medium.name, depth_m * 100.0),
            path: single_medium_path(0.5, medium.clone(), depth_m),
            local_medium: medium,
            orientation_range: (0.0, 0.0),
            amplitude_jitter_db: 0.5,
        }
    }

    /// Swine subcutaneous placement (§6.2): antennas ~55 cm lateral, tag
    /// under 2 mm skin + 8 mm fat. Surgically placed flat → controlled
    /// orientation (±45°).
    pub fn swine_subcutaneous() -> Self {
        Placement {
            name: "swine subcutaneous".into(),
            path: LayeredPath::new(
                0.55,
                vec![
                    Layer::new(Medium::skin(), 0.002),
                    Layer::new(Medium::fat(), 0.008),
                ],
            ),
            local_medium: Medium::fat(),
            orientation_range: (0.0, std::f64::consts::FRAC_PI_4),
            amplitude_jitter_db: 1.0,
        }
    }

    /// Swine intragastric placement (§6.2): antennas 30–80 cm lateral
    /// (0.55 m representative), through skin/fat/muscle/stomach wall into
    /// gastric content (~4 cm to the tag). Free-floating tube →
    /// uncontrolled orientation (0–90°).
    pub fn swine_gastric() -> Self {
        Placement {
            name: "swine gastric".into(),
            path: LayeredPath::new(
                0.55,
                vec![
                    Layer::new(Medium::skin(), 0.003),
                    Layer::new(Medium::fat(), 0.020),
                    Layer::new(Medium::muscle(), 0.020),
                    Layer::new(Medium::stomach_wall(), 0.005),
                    Layer::new(Medium::gastric_content(), 0.040),
                ],
            ),
            local_medium: Medium::gastric_content(),
            orientation_range: (0.0, std::f64::consts::FRAC_PI_2),
            amplitude_jitter_db: 1.5,
        }
    }

    /// Nominal received power (W) from one antenna at boresight
    /// orientation, for per-antenna EIRP `eirp_w` at `freq_hz`.
    pub fn nominal_rx_power(&self, tag: &TagSpec, eirp_w: f64, freq_hz: f64) -> f64 {
        let lambda0 = ivn_dsp::units::wavelength(freq_hz);
        let h = self.path.response(freq_hz).norm();
        eirp_w
            * tag.antenna.total_gain(0.0)
            * (lambda0 / (4.0 * std::f64::consts::PI)).powi(2)
            * h
            * h
            * tag.medium_penalty(&self.local_medium)
    }

    /// Draws one experimental trial: per-antenna √watt channels with
    /// blind phases, a shared random tag orientation, and per-antenna
    /// amplitude jitter.
    pub fn draw_trial<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n_antennas: usize,
        tag: &TagSpec,
        eirp_w: f64,
        freq_hz: f64,
    ) -> Trial {
        let orientation = if self.orientation_range.1 > self.orientation_range.0 {
            rng.random_range(self.orientation_range.0..=self.orientation_range.1)
        } else {
            self.orientation_range.0
        };
        let nominal = self.nominal_rx_power(tag, eirp_w, freq_hz);
        // Apply the orientation factor relative to boresight.
        let orient =
            tag.antenna.orientation_factor(orientation) / tag.antenna.orientation_factor(0.0);
        let channels = (0..n_antennas)
            .map(|_| {
                let jitter_db = self.amplitude_jitter_db * (2.0 * rng.random::<f64>() - 1.0);
                let p = nominal * orient * ivn_dsp::units::db_to_linear(jitter_db);
                Complex64::from_polar(p.sqrt(), rng.random::<f64>() * TAU)
            })
            .collect();
        Trial {
            channels,
            orientation,
        }
    }
}

/// One realized trial: blind channels (√watt units) and the drawn tag
/// orientation.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Per-antenna complex channels; `|c|²` = watts received per antenna.
    pub channels: Vec<Complex64>,
    /// Tag orientation off boresight, radians.
    pub(crate) orientation: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::units::dbm_to_watts;
    use ivn_runtime::rng::StdRng;

    const F: f64 = 915e6;

    fn eirp() -> f64 {
        dbm_to_watts(PAPER_EIRP_DBM)
    }

    #[test]
    fn free_space_anchor_5_2m() {
        // The calibration anchor: a single 37 dBm antenna delivers exactly
        // the standard tag's −10 dBm wake-up power at ≈ 5.2 m.
        let tag = TagSpec::standard();
        let p = Placement::free_space(5.2).nominal_rx_power(&tag, eirp(), F);
        let required = tag.power.required_peak_power_watts();
        let margin_db = 10.0 * (p / required).log10();
        assert!(margin_db.abs() < 0.5, "margin at 5.2 m: {margin_db} dB");
    }

    #[test]
    fn mini_tag_air_range_about_ten_times_shorter() {
        let mini = TagSpec::miniature();
        let p = Placement::free_space(0.52).nominal_rx_power(&mini, eirp(), F);
        let required = mini.power.required_peak_power_watts();
        let margin_db = 10.0 * (p / required).log10();
        assert!(
            margin_db.abs() < 1.0,
            "mini margin at 0.52 m: {margin_db} dB"
        );
    }

    #[test]
    fn water_tank_face_margins() {
        // Standard tag at the tank face: small positive margin (it can
        // only reach a couple of cm without CIB). Miniature: clearly
        // negative (cannot power at all without CIB) — §6.1.2.
        let std_tag = TagSpec::standard();
        let mini = TagSpec::miniature();
        let face = Placement::water_tank(0.0);
        let m_std = 10.0
            * (face.nominal_rx_power(&std_tag, eirp(), F)
                / std_tag.power.required_peak_power_watts())
            .log10();
        let m_mini = 10.0
            * (face.nominal_rx_power(&mini, eirp(), F) / mini.power.required_peak_power_watts())
                .log10();
        assert!(m_std > 0.0 && m_std < 4.0, "std face margin {m_std}");
        assert!(m_mini < -5.0, "mini face margin {m_mini}");
    }

    #[test]
    fn gastric_deficit_matches_design() {
        // Single-antenna deficit ~12-14 dB for the standard tag in the
        // stomach: CIB's ~17 dB peak gain at 8 antennas makes it marginal,
        // reproducing the paper's 3-of-6 outcome.
        let tag = TagSpec::standard();
        let g = Placement::swine_gastric();
        let margin_db = 10.0
            * (g.nominal_rx_power(&tag, eirp(), F) / tag.power.required_peak_power_watts()).log10();
        assert!(
            margin_db > -16.0 && margin_db < -9.0,
            "gastric margin {margin_db} dB"
        );
    }

    #[test]
    fn subcutaneous_is_comfortable() {
        let tag = TagSpec::standard();
        let s = Placement::swine_subcutaneous();
        let margin_db = 10.0
            * (s.nominal_rx_power(&tag, eirp(), F) / tag.power.required_peak_power_watts()).log10();
        assert!(margin_db > 5.0, "subcutaneous margin {margin_db} dB");
    }

    #[test]
    fn medium_penalty_only_for_air_matched() {
        let std_tag = TagSpec::standard();
        let mini = TagSpec::miniature();
        let water = Medium::water();
        assert!(std_tag.medium_penalty(&water) < 0.15);
        assert_eq!(mini.medium_penalty(&water), 1.0);
        assert_eq!(std_tag.medium_penalty(&Medium::air()), 1.0);
    }

    #[test]
    fn trial_channels_have_blind_phases_and_right_power() {
        let mut rng = StdRng::seed_from_u64(1);
        let tag = TagSpec::standard();
        let pl = Placement::free_space(5.0);
        let trial = pl.draw_trial(&mut rng, 8, &tag, eirp(), F);
        assert_eq!(trial.channels.len(), 8);
        let nominal = pl.nominal_rx_power(&tag, eirp(), F);
        for c in &trial.channels {
            let ratio_db = 10.0 * (c.norm_sqr() / nominal).log10();
            assert!(ratio_db.abs() < 1.0, "jitter {ratio_db} dB");
        }
        // Phases spread over the circle.
        let mean: Complex64 = trial
            .channels
            .iter()
            .map(|c| *c / c.norm())
            .sum::<Complex64>()
            / 8.0;
        assert!(mean.norm() < 0.9);
    }

    #[test]
    fn gastric_trials_vary_orientation() {
        let mut rng = StdRng::seed_from_u64(2);
        let tag = TagSpec::standard();
        let pl = Placement::swine_gastric();
        let orientations: Vec<f64> = (0..32)
            .map(|_| pl.draw_trial(&mut rng, 4, &tag, eirp(), F).orientation)
            .collect();
        let min = orientations.iter().cloned().fold(f64::MAX, f64::min);
        let max = orientations.iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 0.3 && max > 1.2, "orientation spread [{min}, {max}]");
    }

    #[test]
    fn deeper_water_weaker_signal() {
        let tag = TagSpec::standard();
        // 10 extra cm of water ≈ 7.8 dB of field loss (0.78 dB/cm).
        let p5 = Placement::water_tank(0.05).nominal_rx_power(&tag, eirp(), F);
        let p15 = Placement::water_tank(0.15).nominal_rx_power(&tag, eirp(), F);
        let loss_db = 10.0 * (p5 / p15).log10();
        assert!((loss_db - 7.8).abs() < 1.5, "10 cm water loss {loss_db} dB");
    }
}
