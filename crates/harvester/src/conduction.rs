//! Conduction angle analysis (paper Fig. 4).
//!
//! For a carrier of envelope amplitude `Vs` driving a diode with threshold
//! `Vth`, the diode conducts during the part of each RF cycle where
//! `Vs·cos(θ) > Vth`, i.e. over a **conduction angle**
//!
//! ```text
//! ω = 2·arccos(Vth / Vs)        (0 when Vs ≤ Vth)
//! ```
//!
//! Because the envelope varies slowly compared to the 915 MHz carrier, the
//! conduction angle is an *analytic* function of the envelope — this is
//! what lets the whole simulator run at envelope rate instead of RF rate
//! without losing the threshold physics (DESIGN.md §5).

/// Conduction angle ω in radians for carrier amplitude `vs` against
/// threshold `vth`. Zero when the peak never beats the threshold; 2π for a
/// zero threshold (ideal diode, positive half... full cycle of the doubler
/// pair).
pub fn conduction_angle(vs: f64, vth: f64) -> f64 {
    assert!(vth >= 0.0, "threshold must be non-negative");
    if vs <= vth || vs <= 0.0 {
        return 0.0;
    }
    2.0 * (vth / vs).clamp(-1.0, 1.0).acos()
}

/// Conduction duty: fraction of the RF cycle spent conducting, ω/2π.
pub fn conduction_duty(vs: f64, vth: f64) -> f64 {
    conduction_angle(vs, vth) / std::f64::consts::TAU
}

/// Classification of an operating point, mirroring the paper's Fig. 4
/// panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingRegime {
    /// Large conduction angle: most of the RF cycle harvests (Fig. 4a,
    /// sensor in air near the source).
    Strong,
    /// Small but nonzero conduction angle: harvesting is inefficient but
    /// possible with duty cycling (Fig. 4b, shallow tissue).
    Marginal,
    /// Zero conduction angle: no energy can be harvested at all (Fig. 4c,
    /// deep tissue).
    Dead,
}

/// Classifies an envelope amplitude against a threshold. `Strong` means a
/// conduction duty above 20 % (ω > 0.4π).
pub fn classify(vs: f64, vth: f64) -> OperatingRegime {
    let duty = conduction_duty(vs, vth);
    if duty == 0.0 {
        OperatingRegime::Dead
    } else if duty < 0.2 {
        OperatingRegime::Marginal
    } else {
        OperatingRegime::Strong
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angle_zero_below_threshold() {
        assert_eq!(conduction_angle(0.2, 0.25), 0.0);
        assert_eq!(conduction_angle(0.25, 0.25), 0.0);
        assert_eq!(conduction_angle(0.0, 0.0), 0.0);
    }

    #[test]
    fn angle_full_for_zero_threshold() {
        // Vth = 0 → conducts the whole positive half: ω = 2·acos(0) = π.
        assert!((conduction_angle(1.0, 0.0) - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn angle_grows_with_amplitude() {
        let vth = 0.25;
        let a1 = conduction_angle(0.3, vth);
        let a2 = conduction_angle(0.5, vth);
        let a3 = conduction_angle(5.0, vth);
        assert!(0.0 < a1 && a1 < a2 && a2 < a3);
        assert!(a3 < std::f64::consts::PI);
    }

    #[test]
    fn duty_at_double_threshold() {
        // Vs = 2·Vth → ω = 2·acos(0.5) = 2π/3 → duty = 1/3.
        let d = conduction_duty(0.5, 0.25);
        assert!((d - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn regimes_match_figure4() {
        let vth = 0.25;
        assert_eq!(classify(5.0, vth), OperatingRegime::Strong); // air, close
        assert_eq!(classify(0.27, vth), OperatingRegime::Marginal); // shallow
        assert_eq!(classify(0.1, vth), OperatingRegime::Dead); // deep
    }
}
