//! N-stage Dickson voltage multiplier (paper §2.1, Fig. 1 and Eq. 1).
//!
//! Each stage is the two-diode/two-capacitor doubler of the paper's Fig. 1:
//! the negative half-cycle charges C₁ to `Vs − Vth`, the positive half
//! pushes `2(Vs − Vth)` onto C₂. Cascading N stages yields the steady-state
//! law of Eq. 1:
//!
//! ```text
//! V_DC = N · (V_s − V_th)
//! ```
//!
//! Besides the closed form, a transient step tracks the output capacitor
//! charging toward that asymptote through a source resistance, with an
//! optional load — which is what the power-up decision integrates.

use crate::diode::DiodeModel;

/// A multi-stage charge-pump rectifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Rectifier {
    /// Number of voltage-doubler stages.
    pub(crate) stages: usize,
    /// Diode model used in every stage.
    pub(crate) diode: DiodeModel,
    /// Effective charging resistance seen by the storage capacitor, ohms.
    /// Captures diode on-resistance and source impedance.
    pub(crate) r_charge: f64,
}

impl Rectifier {
    /// Creates a rectifier.
    ///
    /// # Panics
    /// Panics if `stages == 0` or `r_charge <= 0`.
    pub fn new(stages: usize, diode: DiodeModel, r_charge: f64) -> Self {
        assert!(stages > 0, "need at least one stage");
        assert!(r_charge > 0.0, "charge resistance must be positive");
        Rectifier {
            stages,
            diode,
            r_charge,
        }
    }

    /// Steady-state (open-circuit) DC output for carrier amplitude `vs`:
    /// the paper's Eq. 1, clamped at zero below threshold.
    pub fn steady_state_vdc(&self, vs: f64) -> f64 {
        let vth = self.diode.threshold();
        (self.stages as f64 * (vs - vth)).max(0.0)
    }

    /// Smallest carrier amplitude producing any output.
    pub fn input_threshold(&self) -> f64 {
        self.diode.threshold()
    }

    /// One transient step: advances the output capacitor voltage `v_out`
    /// by `dt` seconds, driven by carrier amplitude `vs`, supplying
    /// `i_load` amps to the chip. Returns the new output voltage (≥ 0).
    ///
    /// The pump charges toward [`Self::steady_state_vdc`] through
    /// `r_charge` (only when the target exceeds the present voltage — the
    /// diodes block backwards flow), while the load discharges `c_out`.
    /// The RC charging uses the exact exponential solution, so the step is
    /// unconditionally stable for any `dt` (the envelope-rate simulations
    /// take steps far longer than the circuit's time constant).
    pub(crate) fn step(&self, v_out: f64, vs: f64, dt: f64, c_out: f64, i_load: f64) -> f64 {
        assert!(c_out > 0.0 && dt > 0.0);
        let target = self.steady_state_vdc(vs);
        let v_charged = if target > v_out {
            target + (v_out - target) * self.charge_alpha(dt, c_out)
        } else {
            v_out // diodes block; the cap holds (peak-hold behaviour)
        };
        (v_charged - i_load * dt / c_out).max(0.0)
    }

    /// The per-step RC charging factor `α = exp(−dt/(R·C))` of
    /// [`Self::step`]. It depends only on the step size and the
    /// capacitor, so a fixed-rate integrator can hoist it out of the
    /// per-sample loop: `v' = target + (v − target)·α` with this α is
    /// bit-identical to calling [`Self::step`] every sample.
    pub(crate) fn charge_alpha(&self, dt: f64, c_out: f64) -> f64 {
        (-dt / (self.r_charge * c_out)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs [`Rectifier::step`] over an envelope sequence sampled at
    /// `sample_rate`, starting from `v0`, with constant load `i_load` into
    /// capacitor `c_out`. Returns the output-voltage trace.
    fn simulate(
        r: &Rectifier,
        envelope: &[f64],
        sample_rate: f64,
        v0: f64,
        c_out: f64,
        i_load: f64,
    ) -> Vec<f64> {
        let dt = 1.0 / sample_rate;
        let mut v = v0;
        envelope
            .iter()
            .map(|&vs| {
                v = r.step(v, vs, dt, c_out, i_load);
                v
            })
            .collect()
    }

    #[test]
    fn eq1_steady_state() {
        let r = Rectifier::new(4, DiodeModel::typical_rfid(), 1000.0);
        // V_DC = N (Vs − Vth) = 4 × (0.5 − 0.25) = 1.0 V.
        assert!((r.steady_state_vdc(0.5) - 1.0).abs() < 1e-12);
        // Below threshold: nothing.
        assert_eq!(r.steady_state_vdc(0.2), 0.0);
        assert_eq!(r.steady_state_vdc(0.25), 0.0);
    }

    #[test]
    fn more_stages_more_voltage() {
        let d = DiodeModel::typical_rfid();
        let v3 = Rectifier::new(3, d, 1000.0).steady_state_vdc(0.6);
        let v6 = Rectifier::new(6, d, 1000.0).steady_state_vdc(0.6);
        assert!((v6 / v3 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_diode_has_no_threshold_penalty() {
        let r = Rectifier::new(2, DiodeModel::Ideal, 1000.0);
        assert!((r.steady_state_vdc(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(r.input_threshold(), 0.0);
    }

    #[test]
    fn transient_charges_toward_steady_state() {
        let r = Rectifier::new(2, DiodeModel::typical_rfid(), 1000.0);
        let env = vec![0.75; 20_000]; // steady 0.75 V drive → target 1.0 V
        let trace = simulate(&r, &env, 1e6, 0.0, 1e-9, 0.0);
        let last = *trace.last().unwrap();
        assert!((last - 1.0).abs() < 0.01, "final {last}");
        // Never overshoots the Eq. 1 target.
        assert!(trace.iter().all(|&v| v <= 1.0 + 1e-9));
        // Monotone non-decreasing with no load.
        assert!(trace.windows(2).all(|w| w[1] >= w[0] - 1e-15));
    }

    #[test]
    fn rc_time_constant() {
        let r = Rectifier::new(1, DiodeModel::Ideal, 1000.0);
        let c = 1e-6;
        // τ = RC = 1 ms; after 1 τ the cap reaches 63 % of target 1.0 V.
        let env = vec![1.0; 1000];
        let trace = simulate(&r, &env, 1e6, 0.0, c, 0.0);
        let v_tau = trace[999];
        assert!((v_tau - 0.632).abs() < 0.01, "v(τ) = {v_tau}");
    }

    #[test]
    fn peak_hold_between_cib_peaks() {
        // Envelope: a short peak then silence. With no load the cap must
        // hold its voltage (diodes block) — the duty-cycled harvesting of
        // paper §2.3.
        let r = Rectifier::new(2, DiodeModel::typical_rfid(), 100.0);
        let mut env = vec![1.0; 1000];
        env.extend(vec![0.0; 5000]);
        let trace = simulate(&r, &env, 1e6, 0.0, 1e-8, 0.0);
        let at_peak_end = trace[999];
        let much_later = trace[5999];
        assert!(at_peak_end > 1.0);
        assert!((much_later - at_peak_end).abs() < 1e-12, "cap leaked");
    }

    #[test]
    fn load_discharges_cap() {
        let r = Rectifier::new(2, DiodeModel::typical_rfid(), 100.0);
        let env = vec![0.0; 1000]; // no input
        let trace = simulate(&r, &env, 1e6, 1.0, 1e-6, 10e-6);
        // dV = I·t/C = 10 µA × 1 ms / 1 µF = 10 mV.
        let last = *trace.last().unwrap();
        assert!((1.0 - last - 0.01).abs() < 1e-6, "final {last}");
    }

    #[test]
    fn voltage_never_negative() {
        let r = Rectifier::new(3, DiodeModel::typical_rfid(), 2000.0);
        let env = vec![0.0; 100];
        let trace = simulate(&r, &env, 1e6, 0.001, 1e-9, 1e-3);
        assert!(trace.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn rejects_zero_stages() {
        Rectifier::new(0, DiodeModel::Ideal, 100.0);
    }
}
