//! Planar boundary reflection and transmission (normal incidence).
//!
//! The first attenuation source in the paper's §2.2.1 is reflection at the
//! air–tissue boundary: "for RF signals in the 1 GHz range, this results in
//! a loss of around 3–5 dB". For normal incidence on the interface between
//! media with intrinsic impedances η₁ → η₂:
//!
//! ```text
//! Γ = (η₂ − η₁)/(η₂ + η₁)        field reflection
//! T = 1 − |Γ|²                   power transmittance
//! ```

use crate::medium::Medium;
use ivn_dsp::complex::Complex64;

/// Field reflection coefficient Γ going from `from` into `into`.
pub fn reflection(from: &Medium, into: &Medium, freq_hz: f64) -> Complex64 {
    let e1 = from.impedance(freq_hz);
    let e2 = into.impedance(freq_hz);
    (e2 - e1) / (e2 + e1)
}

/// Power transmittance `T = 1 − |Γ|²` across the boundary.
pub fn power_transmittance(from: &Medium, into: &Medium, freq_hz: f64) -> f64 {
    1.0 - reflection(from, into, freq_hz).norm_sqr()
}

/// Boundary power loss in dB (positive number).
pub fn boundary_loss_db(from: &Medium, into: &Medium, freq_hz: f64) -> f64 {
    -10.0 * power_transmittance(from, into, freq_hz).log10()
}

/// The *amplitude* factor to apply to a propagating field crossing the
/// boundary so that transported power is conserved: `√T`.
///
/// Using √T rather than |τ| accounts for the impedance change between the
/// media (power flux is E²/η); this is the `T` of the paper's Eq. 2 once
/// fields are referred to a common impedance.
pub(crate) fn amplitude_transmittance(from: &Medium, into: &Medium, freq_hz: f64) -> f64 {
    power_transmittance(from, into, freq_hz).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: f64 = 915e6;

    #[test]
    fn identical_media_are_transparent() {
        let m = Medium::muscle();
        let g = reflection(&m, &m, F);
        assert!(g.norm() < 1e-12);
        assert!((power_transmittance(&m, &m, F) - 1.0).abs() < 1e-12);
        assert!(boundary_loss_db(&m, &m, F).abs() < 1e-9);
    }

    #[test]
    fn air_to_tissue_loss_matches_paper() {
        // Paper: ~3–5 dB at the air-tissue boundary around 1 GHz.
        let loss = boundary_loss_db(&Medium::air(), &Medium::muscle(), F);
        assert!(loss > 2.5 && loss < 5.5, "boundary loss {loss} dB");
    }

    #[test]
    fn air_to_water_loss_reasonable() {
        let loss = boundary_loss_db(&Medium::air(), &Medium::water(), F);
        assert!(loss > 3.0 && loss < 7.0, "air->water loss {loss} dB");
    }

    #[test]
    fn air_to_fat_is_milder_than_air_to_muscle() {
        let to_fat = boundary_loss_db(&Medium::air(), &Medium::fat(), F);
        let to_muscle = boundary_loss_db(&Medium::air(), &Medium::muscle(), F);
        assert!(to_fat < to_muscle);
    }

    #[test]
    fn energy_split_consistent() {
        // |Γ|² + T = 1 by construction; sanity-check numerically.
        let g = reflection(&Medium::air(), &Medium::skin(), F).norm_sqr();
        let t = power_transmittance(&Medium::air(), &Medium::skin(), F);
        assert!((g + t - 1.0).abs() < 1e-12);
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn reflection_symmetry() {
        // Γ(a→b) = −Γ(b→a)
        let ab = reflection(&Medium::air(), &Medium::muscle(), F);
        let ba = reflection(&Medium::muscle(), &Medium::air(), F);
        assert!((ab + ba).norm() < 1e-12);
        // Power transmittance is reciprocal.
        let tab = power_transmittance(&Medium::air(), &Medium::muscle(), F);
        let tba = power_transmittance(&Medium::muscle(), &Medium::air(), F);
        assert!((tab - tba).abs() < 1e-12);
    }

    #[test]
    fn amplitude_transmittance_is_sqrt_power() {
        let t = power_transmittance(&Medium::air(), &Medium::muscle(), F);
        let a = amplitude_transmittance(&Medium::air(), &Medium::muscle(), F);
        assert!((a * a - t).abs() < 1e-12);
    }

    #[test]
    fn tissue_to_tissue_boundaries_are_mild() {
        // Layer-to-layer reflections inside the body are much weaker than
        // the air interface.
        let skin_fat = boundary_loss_db(&Medium::skin(), &Medium::fat(), F);
        let fat_muscle = boundary_loss_db(&Medium::fat(), &Medium::muscle(), F);
        let air_skin = boundary_loss_db(&Medium::air(), &Medium::skin(), F);
        assert!(skin_fat < air_skin);
        assert!(fat_muscle < air_skin);
    }
}
