//! Diode I-V models.
//!
//! The paper's Fig. 2 contrasts an ideal diode (conducts for any positive
//! voltage) with a practical one that needs to beat a threshold voltage
//! V_th — "usually between 200 mV and 400 mV" for standard IC processes.
//! A smooth Shockley model is also provided for the efficiency curves.

/// Thermal voltage kT/q at room temperature, volts.
pub(crate) const THERMAL_VOLTAGE: f64 = 0.02585;

/// A diode's current-voltage model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiodeModel {
    /// Ideal rectifier: any positive voltage conducts losslessly.
    Ideal,
    /// Piecewise-linear threshold model: conducts only above `vth` volts,
    /// then passes `(v - vth)/r_on` amps.
    Threshold {
        /// Turn-on threshold, volts.
        vth: f64,
        /// On-resistance, ohms.
        r_on: f64,
    },
    /// Shockley exponential model `I = I_s (e^{V/(n·V_T)} − 1)`.
    Shockley {
        /// Saturation current, amps.
        i_sat: f64,
        /// Ideality factor (1–2).
        ideality: f64,
    },
}

impl DiodeModel {
    /// A typical RFID-chip rectifier diode (paper §2.1.1: 200–400 mV).
    pub fn typical_rfid() -> Self {
        DiodeModel::Threshold {
            vth: 0.25,
            r_on: 50.0,
        }
    }

    /// Current through the diode at forward voltage `v` (amps; 0 when
    /// blocking).
    pub fn current(&self, v: f64) -> f64 {
        match *self {
            DiodeModel::Ideal => {
                if v > 0.0 {
                    // Ideal switch: model as very low resistance.
                    v / 1e-3
                } else {
                    0.0
                }
            }
            DiodeModel::Threshold { vth, r_on } => {
                if v > vth {
                    (v - vth) / r_on
                } else {
                    0.0
                }
            }
            DiodeModel::Shockley { i_sat, ideality } => {
                // Clamp the exponent to avoid overflow for large drives.
                let x = (v / (ideality * THERMAL_VOLTAGE)).min(80.0);
                i_sat * (x.exp() - 1.0)
            }
        }
    }

    /// Effective threshold voltage: the smallest forward voltage at which
    /// the diode conducts (for the Shockley model, where the current
    /// reaches 1 µA).
    pub fn threshold(&self) -> f64 {
        match *self {
            DiodeModel::Ideal => 0.0,
            DiodeModel::Threshold { vth, .. } => vth,
            DiodeModel::Shockley { i_sat, ideality } => {
                // Solve I(v) = 1 µA.
                ideality * THERMAL_VOLTAGE * (1e-6 / i_sat + 1.0).ln()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DiodeModel {
        /// Whether the diode conducts meaningfully at voltage `v`.
        ///
        /// For the Shockley model "conducting" means current above 1 µA, the
        /// conventional turn-on definition.
        fn conducts(&self, v: f64) -> bool {
            match *self {
                DiodeModel::Ideal => v > 0.0,
                DiodeModel::Threshold { vth, .. } => v > vth,
                DiodeModel::Shockley { .. } => self.current(v) > 1e-6,
            }
        }
    }

    #[test]
    fn ideal_diode_conducts_any_positive() {
        let d = DiodeModel::Ideal;
        assert!(d.conducts(1e-9));
        assert!(!d.conducts(0.0));
        assert!(!d.conducts(-1.0));
        assert_eq!(d.threshold(), 0.0);
    }

    #[test]
    fn threshold_diode_blocks_below_vth() {
        let d = DiodeModel::typical_rfid();
        assert!(!d.conducts(0.2));
        assert!(d.conducts(0.3));
        assert_eq!(d.current(0.2), 0.0);
        assert!((d.current(0.35) - 0.002).abs() < 1e-12); // (0.35-0.25)/50
        assert_eq!(d.threshold(), 0.25);
    }

    #[test]
    fn shockley_exponential_behaviour() {
        let d = DiodeModel::Shockley {
            i_sat: 1e-9,
            ideality: 1.2,
        };
        // Every 60·n mV multiplies current by 10.
        let i1 = d.current(0.3);
        let i2 = d.current(0.3 + 1.2 * THERMAL_VOLTAGE * std::f64::consts::LN_10);
        assert!((i2 / i1 - 10.0).abs() < 0.01);
        // Blocks in reverse.
        assert!(d.current(-0.5) < 0.0 + 1e-12);
    }

    #[test]
    fn shockley_threshold_consistent_with_conduction() {
        let d = DiodeModel::Shockley {
            i_sat: 1e-9,
            ideality: 1.2,
        };
        let vth = d.threshold();
        assert!(vth > 0.1 && vth < 0.4, "vth {vth}");
        assert!(!d.conducts(vth * 0.95));
        assert!(d.conducts(vth * 1.05));
    }

    #[test]
    fn no_overflow_at_large_drive() {
        let d = DiodeModel::Shockley {
            i_sat: 1e-9,
            ideality: 1.0,
        };
        assert!(d.current(100.0).is_finite());
    }
}
