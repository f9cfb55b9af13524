//! Fig. 11 — median power gain across media: 10-antenna CIB (purple)
//! vs the blind 10-antenna baseline (green), both over a single antenna.

use ivn_core::experiment::gain_across_media;
use ivn_core::scenario::Scenario;

/// Renders Fig. 11 for a `media_gain` scenario over air, water, gastric
/// fluid, intestinal fluid, steak, bacon and chicken. The paper runs 100
/// experiments.
pub(crate) fn render(s: &Scenario, quick: bool) -> String {
    let rows = gain_across_media(s, quick);
    let n = s.array.n_antennas;
    let mut out = crate::header(&format!(
        "Fig. 11 — gain across media: CIB vs {n}-antenna baseline"
    ));
    out += &format!(
        "{:<18}  {:>22}  {:>22}\n",
        "medium", "CIB med [p10,p90]", "baseline med [p10,p90]"
    );
    for r in &rows {
        out += &format!(
            "{:<18}  {:>7.1} [{:>5.1},{:>6.1}]  {:>7.1} [{:>5.1},{:>6.1}]\n",
            r.medium,
            r.cib.median,
            r.cib.p10,
            r.cib.p90,
            r.baseline.median,
            r.baseline.p10,
            r.baseline.p90
        );
    }
    let mean_cib: f64 = rows.iter().map(|r| r.cib.median).sum::<f64>() / rows.len() as f64;
    let mean_base: f64 = rows.iter().map(|r| r.baseline.median).sum::<f64>() / rows.len() as f64;
    out += &format!(
        "\npaper: CIB ≈ 80×, baseline ≈ 10× in every medium (≈ 8× apart)\nmeasured means: CIB {mean_cib:.0}×, baseline {mean_base:.0}× ({:.1}× apart)\n",
        mean_cib / mean_base
    );
    out
}
