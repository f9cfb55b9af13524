//! Unit conversions and physical constants.
//!
//! RF work constantly mixes logarithmic (dB, dBm, dBi) and linear (watts,
//! volts, ratios) scales; the paper's evaluation is stated almost entirely
//! in dB-domain quantities ("2.3 to 6.9 dB/cm", "7 dBi antenna", "30 dBm
//! compression point"). Centralizing the conversions here keeps every other
//! module honest about which domain a number lives in.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Free-space wave impedance η₀ in ohms (≈ 376.73 Ω).
pub const FREE_SPACE_IMPEDANCE: f64 = 376.730_313_668;

/// Vacuum permittivity ε₀ in F/m.
pub const VACUUM_PERMITTIVITY: f64 = 8.854_187_812_8e-12;

/// Vacuum permeability μ₀ in H/m.
pub const VACUUM_PERMEABILITY: f64 = 1.256_637_062_12e-6;

/// Converts decibels to a power ratio. `db_to_linear(20.0) == 100.0`.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts decibels to an amplitude ratio (inverse of 20·log₁₀).
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Converts dBm to watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    1e-3 * 10f64.powf(dbm / 10.0)
}

/// Wavelength (m) of a plane wave of frequency `freq_hz` in vacuum/air.
#[inline]
pub fn wavelength(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 20.0] {
            assert!((10.0 * db_to_linear(db).log10() - db).abs() < 1e-12);
        }
        assert!((db_to_linear(3.0) - 1.995).abs() < 0.01);
    }

    #[test]
    fn db_to_amplitude_values() {
        assert!((db_to_amplitude(20.0) - 10.0).abs() < 1e-12);
        assert!((db_to_amplitude(6.0) - 1.9953).abs() < 1e-3);
    }

    #[test]
    fn dbm_watts_roundtrip() {
        assert!((dbm_to_watts(30.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_watts(0.0) - 1e-3).abs() < 1e-15);
        for dbm in [-90.0, -18.0, 0.0, 30.0, 36.0] {
            assert!((10.0 * (dbm_to_watts(dbm) / 1e-3).log10() - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn wavelength_at_915mhz() {
        let lambda = wavelength(915e6);
        assert!((lambda - 0.3276).abs() < 1e-3);
    }
}
