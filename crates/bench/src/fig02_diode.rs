//! Fig. 2 — diode I-V curves: ideal vs realistic (threshold) diode.

use ivn_harvester::diode::DiodeModel;

/// Regenerates Fig. 2: current vs voltage for the ideal and the
/// threshold-limited diode.
pub(crate) fn run(_quick: bool) -> String {
    let ideal = DiodeModel::Ideal;
    let real = DiodeModel::typical_rfid();
    let shockley = DiodeModel::Shockley {
        i_sat: 1e-9,
        ideality: 1.2,
    };
    let mut out = crate::header("Fig. 2 — diode I-V: ideal vs realistic");
    out += &format!(
        "{:>8}  {:>12}  {:>12}  {:>12}\n",
        "V (V)", "ideal (mA)", "thresh (mA)", "shockley(mA)"
    );
    for k in 0..=16 {
        let v = -0.2 + 0.05 * k as f64;
        out += &format!(
            "{:>8.2}  {:>12.4}  {:>12.4}  {:>12.4}\n",
            v,
            ideal.current(v).min(10.0) * 1e3,
            real.current(v) * 1e3,
            shockley.current(v).min(0.01) * 1e3,
        );
    }
    out += &format!(
        "\nthreshold voltages: ideal {:.3} V, realistic {:.3} V (paper: 200-400 mV)\n",
        ideal.threshold(),
        real.threshold()
    );
    out
}
