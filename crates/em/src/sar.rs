//! Specific absorption rate (SAR) estimation.
//!
//! Human-exposure compliance is the paper's other safety leg (§7 cites
//! \[57\], a 915 MHz SAR analysis): tissue absorbs `σ|E|²/ρ` watts per
//! kilogram. CIB helps here exactly as with FCC limits — SAR limits bind
//! on *time-averaged* fields (FCC/ICNIRP average over 6–30 minutes), and
//! CIB's average power is N·P₀ regardless of its N²·P₀ peaks.

use crate::medium::Medium;

/// FCC localized SAR limit for the general public: 1.6 W/kg (1 g avg).
pub const FCC_LOCAL_SAR_LIMIT_W_PER_KG: f64 = 1.6;

/// ICNIRP whole-body SAR limit for the general public: 0.08 W/kg.
pub const ICNIRP_WHOLE_BODY_LIMIT_W_PER_KG: f64 = 0.08;

/// Mass density of soft tissue, kg/m³.
pub const TISSUE_DENSITY_KG_M3: f64 = 1050.0;

/// Local SAR for an RMS electric field `e_rms` (V/m) inside `medium`:
/// `SAR = σ·E²/ρ` (W/kg).
pub fn local_sar(medium: &Medium, e_rms: f64) -> f64 {
    assert!(e_rms >= 0.0, "field must be non-negative");
    medium.conductivity * e_rms * e_rms / TISSUE_DENSITY_KG_M3
}

/// The RMS field (V/m) at which a medium reaches a SAR limit.
pub fn field_at_sar_limit(medium: &Medium, limit_w_per_kg: f64) -> f64 {
    assert!(limit_w_per_kg > 0.0);
    if medium.conductivity == 0.0 {
        return f64::INFINITY;
    }
    (limit_w_per_kg * TISSUE_DENSITY_KG_M3 / medium.conductivity).sqrt()
}

/// Time-averaged SAR for a duty-cycled exposure: peak SAR × duty factor.
/// This is the CIB compliance story — enormous peaks, tiny duty.
pub fn averaged_sar(peak_sar: f64, duty_factor: f64) -> f64 {
    assert!((0.0..=1.0).contains(&duty_factor), "duty must be in [0,1]");
    peak_sar * duty_factor
}

/// Estimates the RMS field just inside the body surface for a plane wave
/// of incident power density `s_inc` (W/m²) entering `medium`:
/// `E = √(2·S·T·Re(η))` with boundary transmittance `T` (amplitude field
/// of the transmitted wave, using the medium's impedance).
pub fn surface_field(medium: &Medium, s_inc: f64, freq_hz: f64) -> f64 {
    assert!(s_inc >= 0.0);
    let t = crate::boundary::power_transmittance(&Medium::air(), medium, freq_hz);
    let eta = medium.impedance(freq_hz).re;
    (s_inc * t * eta).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sar_scales_with_conductivity_and_field_squared() {
        let muscle = Medium::muscle();
        let s1 = local_sar(&muscle, 10.0);
        let s2 = local_sar(&muscle, 20.0);
        assert!((s2 / s1 - 4.0).abs() < 1e-12);
        let fat = Medium::fat();
        assert!(local_sar(&fat, 10.0) < s1);
    }

    #[test]
    fn field_limit_roundtrip() {
        let muscle = Medium::muscle();
        let e = field_at_sar_limit(&muscle, FCC_LOCAL_SAR_LIMIT_W_PER_KG);
        assert!((local_sar(&muscle, e) - 1.6).abs() < 1e-9);
        // ~42 V/m for muscle: the ballpark of published 915 MHz studies.
        assert!(e > 20.0 && e < 80.0, "limit field {e} V/m");
    }

    #[test]
    fn air_never_hits_sar_limit() {
        assert_eq!(local_sar(&Medium::air(), 1000.0), 0.0);
        assert_eq!(field_at_sar_limit(&Medium::air(), 1.6), f64::INFINITY);
    }

    #[test]
    fn duty_cycling_restores_compliance() {
        let muscle = Medium::muscle();
        // A CIB peak 100× the average: peak-field SAR exceeds the limit...
        let peak_sar = local_sar(&muscle, 100.0);
        assert!(peak_sar > FCC_LOCAL_SAR_LIMIT_W_PER_KG);
        // ...but at 0.1 % duty the average is compliant.
        assert!(averaged_sar(peak_sar, 0.001) < FCC_LOCAL_SAR_LIMIT_W_PER_KG);
    }

    #[test]
    fn surface_field_reasonable_at_paper_power() {
        // One 37 dBm-EIRP antenna at 0.5 m: S = EIRP/(4πr²) ≈ 1.6 W/m².
        let s_inc = 5.01 / (4.0 * std::f64::consts::PI * 0.25);
        let e = surface_field(&Medium::skin(), s_inc, 915e6);
        // A few tens of V/m inside the skin — near but not over the
        // local-SAR limit field.
        assert!(e > 1.0 && e < 60.0, "surface field {e} V/m");
        let sar = local_sar(&Medium::skin(), e);
        assert!(sar < FCC_LOCAL_SAR_LIMIT_W_PER_KG, "sar {sar}");
    }
}
