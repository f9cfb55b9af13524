//! Fig. 10 — 10-antenna power gain vs receive-antenna depth (a) and
//! orientation (b): the gain is stable because CIB is channel-blind.

use ivn_core::experiment::{gain_vs_depth, gain_vs_orientation};
use ivn_core::scenario::Scenario;

/// Renders Fig. 10a and 10b for a `gain_stability` scenario over its
/// depths and orientations.
pub(crate) fn render(
    s: &Scenario,
    quick: bool,
    depths_m: &[f64],
    orientations_rad: &[f64],
) -> String {
    let n = s.array.n_antennas;
    let mut out = crate::header(&format!(
        "Fig. 10a — power gain vs depth in water ({n} antennas)"
    ));
    out += &format!(
        "{:>12}  {:>10}  {:>10}  {:>10}\n",
        "depth (cm)", "p10", "median", "p90"
    );
    for r in gain_vs_depth(s, quick, depths_m) {
        out += &format!(
            "{:>12.1}  {:>10.1}  {:>10.1}  {:>10.1}\n",
            r.parameter * 100.0,
            r.gain.p10,
            r.gain.median,
            r.gain.p90
        );
    }

    out += &crate::header(&format!(
        "Fig. 10b — power gain vs orientation ({n} antennas)"
    ));
    out += &format!(
        "{:>12}  {:>10}  {:>10}  {:>10}\n",
        "theta (rad)", "p10", "median", "p90"
    );
    for r in gain_vs_orientation(s, quick, orientations_rad) {
        out += &format!(
            "{:>12.2}  {:>10.1}  {:>10.1}  {:>10.1}\n",
            r.parameter, r.gain.p10, r.gain.median, r.gain.p90
        );
    }
    out += "\npaper: gain stays ~constant across depth and orientation (channel-blind)\n";
    out
}
