//! Antenna models: gain, orientation and polarization mismatch.
//!
//! The paper's Eq. 3 ties harvested power to the sensor antenna's effective
//! area, `P_L = E²/η · A_eff` with `A_eff = G λ²/(4π)`. At one wavelength
//! the aperture scales with the gain, so the miniature Xerafy tag's
//! mm-scale antenna (−8 dBi against the standard Avery tag's 2 dBi) is why
//! the mini tag dies in the pig's stomach while the standard tag survives
//! (§6.2).

use ivn_dsp::units::db_to_linear;

/// An antenna characterized by its gain and polarization behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Antenna {
    /// Descriptive name.
    name: String,
    /// Boresight gain, dBi.
    pub(crate) gain_dbi: f64,
    /// Worst-case orientation loss in dB: a dipole side-on to the incident
    /// field keeps at least this much below boresight. Keeps the cos²
    /// pattern from producing unphysical perfect nulls.
    pub(crate) orientation_floor_db: f64,
    /// Extra fixed polarization mismatch loss in dB (e.g. 3 dB for a
    /// linear tag read by a circularly polarized reader antenna).
    pub(crate) polarization_loss_db: f64,
}

impl Antenna {
    /// A standard UHF RFID tag dipole (Avery AD-238u8 class, 1.4 × 7 cm).
    pub fn standard_tag() -> Self {
        Antenna {
            name: "standard tag dipole".into(),
            gain_dbi: 2.0,
            orientation_floor_db: 15.0,
            // Linear tag under a circular reader: 3 dB.
            polarization_loss_db: 3.0,
        }
    }

    /// The millimetre-scale implantable tag antenna (Xerafy Dash-On XS
    /// class, 1.2 cm × 3 mm). Electrically small ⇒ strongly negative gain.
    pub fn miniature_tag() -> Self {
        Antenna {
            name: "miniature tag antenna".into(),
            gain_dbi: -8.0,
            orientation_floor_db: 15.0,
            polarization_loss_db: 3.0,
        }
    }

    /// Linear boresight gain.
    pub fn gain_linear(&self) -> f64 {
        db_to_linear(self.gain_dbi)
    }

    /// Orientation gain factor (linear, ≤ 1) for a misalignment angle
    /// `theta` radians off boresight: a floored cos² pattern.
    pub fn orientation_factor(&self, theta: f64) -> f64 {
        let floor = db_to_linear(-self.orientation_floor_db);
        (theta.cos().powi(2)).max(floor)
    }

    /// Linear polarization mismatch factor (≤ 1).
    pub fn polarization_factor(&self) -> f64 {
        db_to_linear(-self.polarization_loss_db)
    }

    /// Combined linear power gain at misalignment `theta`, including
    /// boresight gain, orientation and polarization factors.
    pub fn total_gain(&self, theta: f64) -> f64 {
        self.gain_linear() * self.orientation_factor(theta) * self.polarization_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_pattern() {
        let tag = Antenna::standard_tag();
        assert!((tag.orientation_factor(0.0) - 1.0).abs() < 1e-12);
        let side = tag.orientation_factor(std::f64::consts::FRAC_PI_2);
        // Floored at −15 dB.
        assert!((side - db_to_linear(-15.0)).abs() < 1e-12);
        // 45° → cos² = 0.5.
        assert!((tag.orientation_factor(std::f64::consts::FRAC_PI_4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn polarization_loss() {
        let tag = Antenna::standard_tag();
        assert!((tag.polarization_factor() - 0.5012).abs() < 1e-3);
    }

    #[test]
    fn total_gain_composition() {
        let tag = Antenna::standard_tag();
        let g = tag.total_gain(0.0);
        assert!((g - db_to_linear(2.0 - 3.0)).abs() < 1e-9);
    }
}
