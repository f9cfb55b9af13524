//! Dielectric media and plane-wave propagation constants.
//!
//! A medium is characterized by its relative permittivity εr and
//! conductivity σ. From those, standard lossy-medium formulas give the
//! field attenuation constant α (the paper's Eq. 2 exponent), the phase
//! constant β, and the wave impedance η (the paper's Eq. 3 denominator):
//!
//! ```text
//! α = ω √(µε′/2) · [ √(1 + tan²δ) − 1 ]^½      tanδ = σ/(ωε′)
//! β = ω √(µε′/2) · [ √(1 + tan²δ) + 1 ]^½
//! η = √( jωµ / (σ + jωε′) )
//! ```
//!
//! Preset tissue values follow the ranges the paper cites (Kim & See;
//! Kurup et al.): dielectric constants around 50 and conductivities of
//! 1–3 S/m give 2.3–6.9 dB/cm at low-GHz frequencies, i.e. α between 13
//! and 80 m⁻¹.

use ivn_dsp::complex::Complex64;
use ivn_dsp::units::{VACUUM_PERMEABILITY, VACUUM_PERMITTIVITY};
use std::f64::consts::TAU;

/// A homogeneous, non-magnetic propagation medium.
#[derive(Debug, Clone, PartialEq)]
pub struct Medium {
    /// Human-readable name used in experiment reports.
    pub name: String,
    /// Relative permittivity εr (dimensionless).
    pub rel_permittivity: f64,
    /// Conductivity σ in S/m.
    pub(crate) conductivity: f64,
}

impl Medium {
    /// Creates a custom medium.
    ///
    /// # Panics
    /// Panics on non-positive permittivity or negative conductivity.
    pub fn new(name: &str, rel_permittivity: f64, conductivity: f64) -> Self {
        assert!(rel_permittivity >= 1.0, "relative permittivity must be ≥ 1");
        assert!(conductivity >= 0.0, "conductivity must be non-negative");
        Medium {
            name: name.to_string(),
            rel_permittivity,
            conductivity,
        }
    }

    // ------------------------------------------------------------------
    // Presets. Values are representative of the 900 MHz ISM band and match
    // the ranges cited in the paper (§2.2.1) and its references [36, 39].
    // The evaluation media of Fig. 11 are all present.
    // ------------------------------------------------------------------

    /// Free space / air.
    pub fn air() -> Self {
        Medium::new("air", 1.0, 0.0)
    }

    /// Tank water (lightly conductive tap water, as in the paper's in-vitro
    /// rig). Conductivity is a calibration constant (≈0.78 dB/cm at
    /// 915 MHz) chosen so that CIB depth results land in the paper's
    /// regime — 23 cm standard-tag depth at 8 antennas (DESIGN.md §5).
    pub fn water() -> Self {
        Medium::new("water", 78.0, 0.42)
    }

    /// USP simulated gastric fluid (acidic saline — strongly conductive).
    pub fn gastric_fluid() -> Self {
        Medium::new("gastric fluid", 70.0, 1.20)
    }

    /// USP simulated intestinal fluid (buffered saline).
    pub fn intestinal_fluid() -> Self {
        Medium::new("intestinal fluid", 68.0, 1.60)
    }

    /// Skeletal muscle — also the paper's "steak" test medium.
    pub fn muscle() -> Self {
        Medium::new("muscle", 55.0, 0.95)
    }

    /// Alias for [`Medium::muscle`] matching the paper's Fig. 11 label.
    pub fn steak() -> Self {
        let mut m = Self::muscle();
        m.name = "steak".to_string();
        m
    }

    /// Fatty tissue — also the paper's "bacon" test medium.
    pub fn fat() -> Self {
        Medium::new("fat", 11.0, 0.11)
    }

    /// Alias for [`Medium::fat`] matching the paper's Fig. 11 label.
    pub fn bacon() -> Self {
        let mut m = Self::fat();
        m.name = "bacon".to_string();
        m
    }

    /// Chicken breast (lean poultry muscle).
    pub fn chicken() -> Self {
        Medium::new("chicken", 52.0, 0.85)
    }

    /// Skin (dry).
    pub fn skin() -> Self {
        Medium::new("skin", 41.0, 0.87)
    }

    /// Stomach wall.
    pub fn stomach_wall() -> Self {
        Medium::new("stomach wall", 65.0, 1.20)
    }

    /// Gastric content (chyme/fluid mix) inside the stomach.
    pub fn gastric_content() -> Self {
        Medium::new("gastric content", 68.0, 1.40)
    }

    /// Whole blood.
    pub fn blood() -> Self {
        Medium::new("blood", 61.0, 1.54)
    }

    /// Cortical bone.
    pub fn bone() -> Self {
        Medium::new("bone", 12.0, 0.14)
    }

    /// The seven Fig. 11 evaluation media in presentation order.
    pub fn figure11_media() -> Vec<Medium> {
        vec![
            Medium::air(),
            Medium::water(),
            Medium::gastric_fluid(),
            Medium::intestinal_fluid(),
            Medium::steak(),
            Medium::bacon(),
            Medium::chicken(),
        ]
    }

    // ------------------------------------------------------------------
    // Derived propagation constants.
    // ------------------------------------------------------------------

    /// Loss tangent tanδ = σ/(ωε′) at `freq_hz`.
    pub(crate) fn loss_tangent(&self, freq_hz: f64) -> f64 {
        if self.conductivity == 0.0 {
            return 0.0;
        }
        let omega = TAU * freq_hz;
        self.conductivity / (omega * VACUUM_PERMITTIVITY * self.rel_permittivity)
    }

    /// Field attenuation constant α in Np/m (`e^{-αd}` amplitude decay).
    pub fn alpha(&self, freq_hz: f64) -> f64 {
        let omega = TAU * freq_hz;
        let eps = VACUUM_PERMITTIVITY * self.rel_permittivity;
        let tan_d = self.loss_tangent(freq_hz);
        omega
            * (VACUUM_PERMEABILITY * eps / 2.0).sqrt()
            * ((1.0 + tan_d * tan_d).sqrt() - 1.0).sqrt()
    }

    /// Phase constant β in rad/m.
    pub fn beta(&self, freq_hz: f64) -> f64 {
        let omega = TAU * freq_hz;
        let eps = VACUUM_PERMITTIVITY * self.rel_permittivity;
        let tan_d = self.loss_tangent(freq_hz);
        omega
            * (VACUUM_PERMEABILITY * eps / 2.0).sqrt()
            * ((1.0 + tan_d * tan_d).sqrt() + 1.0).sqrt()
    }

    /// Intrinsic wave impedance η (complex, ohms).
    pub(crate) fn impedance(&self, freq_hz: f64) -> Complex64 {
        let omega = TAU * freq_hz;
        let eps = VACUUM_PERMITTIVITY * self.rel_permittivity;
        let num = Complex64::new(0.0, omega * VACUUM_PERMEABILITY);
        let den = Complex64::new(self.conductivity, omega * eps);
        (num / den).sqrt()
    }

    /// Amplitude loss in dB per centimetre of travel at `freq_hz`.
    pub fn loss_db_per_cm(&self, freq_hz: f64) -> f64 {
        // 20·log10(e^{α·0.01})
        self.alpha(freq_hz) * 0.01 * 20.0 * std::f64::consts::LOG10_E
    }

    /// Complex amplitude factor after propagating `dist_m` metres:
    /// `e^{-(α+jβ)d}` — exponential decay plus phase rotation.
    pub fn propagate(&self, freq_hz: f64, dist_m: f64) -> Complex64 {
        assert!(dist_m >= 0.0, "distance must be non-negative");
        let amp = (-self.alpha(freq_hz) * dist_m).exp();
        Complex64::from_polar(amp, -self.beta(freq_hz) * dist_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_dsp::units::FREE_SPACE_IMPEDANCE;

    const F: f64 = 915e6;

    #[test]
    fn air_is_lossless_with_free_space_impedance() {
        let air = Medium::air();
        assert_eq!(air.alpha(F), 0.0);
        assert_eq!(air.loss_tangent(F), 0.0);
        let eta = air.impedance(F);
        assert!((eta.re - FREE_SPACE_IMPEDANCE).abs() < 0.1);
        assert!(eta.im.abs() < 0.1);
        // β matches free-space wavenumber.
        let k0 = TAU * F / ivn_dsp::units::SPEED_OF_LIGHT;
        assert!((air.beta(F) - k0).abs() / k0 < 1e-6);
    }

    #[test]
    fn muscle_loss_in_papers_range() {
        // Paper: 2.3–6.9 dB/cm for low-GHz in tissue; α between 13 and 80 /m.
        let m = Medium::muscle();
        let loss = m.loss_db_per_cm(F);
        assert!(loss > 1.5 && loss < 7.0, "muscle loss {loss} dB/cm");
        let alpha = m.alpha(F);
        assert!(alpha > 13.0 && alpha < 80.0, "alpha {alpha}");
    }

    #[test]
    fn all_tissue_presets_have_alpha_in_cited_range() {
        for m in [
            Medium::gastric_fluid(),
            Medium::intestinal_fluid(),
            Medium::muscle(),
            Medium::chicken(),
            Medium::skin(),
            Medium::stomach_wall(),
            Medium::blood(),
        ] {
            let a = m.alpha(F);
            assert!(a > 13.0 && a < 90.0, "{} alpha {a}", m.name);
        }
    }

    #[test]
    fn fat_is_less_lossy_than_muscle() {
        assert!(Medium::fat().alpha(F) < Medium::muscle().alpha(F) / 2.0);
    }

    #[test]
    fn impedance_drops_with_permittivity() {
        // η ≈ η0/√εr for low-loss media.
        let fat = Medium::fat();
        let eta = fat.impedance(F).norm();
        let expected = FREE_SPACE_IMPEDANCE / fat.rel_permittivity.sqrt();
        assert!((eta - expected).abs() / expected < 0.05);
    }

    #[test]
    fn wavelength_shortens_in_dielectric() {
        // λ = 2π/β.
        let air_l = TAU / Medium::air().beta(F);
        let water_l = TAU / Medium::water().beta(F);
        assert!((air_l - 0.3276).abs() < 1e-3);
        assert!(water_l < air_l / 8.0, "water wavelength {water_l}");
    }

    #[test]
    fn propagate_decays_and_rotates() {
        let m = Medium::muscle();
        let h1 = m.propagate(F, 0.01);
        let h2 = m.propagate(F, 0.02);
        assert!(h1.norm() < 1.0);
        // Twice the distance → squared amplitude factor.
        assert!((h2.norm() - h1.norm() * h1.norm()).abs() < 1e-12);
        // Zero distance → unity.
        assert_eq!(m.propagate(F, 0.0), Complex64::ONE);
    }

    #[test]
    fn five_cm_muscle_loss_matches_paper_range() {
        // Paper: 11.5 to 35.4 dB at 5 cm depth.
        let m = Medium::muscle();
        let h = m.propagate(F, 0.05);
        let loss_db = -20.0 * h.norm().log10();
        assert!(loss_db > 8.0 && loss_db < 36.0, "5 cm loss {loss_db} dB");
    }

    #[test]
    fn loss_increases_with_frequency() {
        let m = Medium::muscle();
        assert!(m.alpha(2.4e9) > m.alpha(915e6));
    }

    #[test]
    fn figure11_media_complete() {
        let media = Medium::figure11_media();
        assert_eq!(media.len(), 7);
        assert_eq!(media[0].name, "air");
        assert_eq!(media[6].name, "chicken");
    }

    #[test]
    #[should_panic(expected = "permittivity")]
    fn rejects_sub_unity_permittivity() {
        Medium::new("bogus", 0.5, 0.0);
    }
}
