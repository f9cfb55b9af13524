//! Fig. 12 — CDF of the ratio of CIB's received power to the blind
//! 10-antenna baseline's, per location (log-scale x-axis in the paper).

use ivn_core::experiment::cib_vs_baseline_cdf;
use ivn_core::scenario::Scenario;

/// Renders Fig. 12 for a `ratio_cdf` scenario.
pub(crate) fn render(s: &Scenario, quick: bool) -> String {
    let cdf = cib_vs_baseline_cdf(s, quick);
    let n = s.array.n_antennas;
    let mut out = crate::header(&format!(
        "Fig. 12 — CDF of CIB / {n}-antenna-baseline power ratio"
    ));
    out += &format!("{:>14}  {:>10}\n", "ratio (log)", "CDF");
    for exp in [
        -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0,
    ] {
        let x = 10f64.powf(exp);
        out += &format!("{:>14.2}  {:>10.3}\n", x, cdf.eval(x));
    }
    out += &format!(
        "\nCIB wins at {:.1}% of locations (paper: >99%)\nmedian ratio {:.1}× (paper: ~8×); p99 {:.0}× (paper: >100× occurs)\n",
        100.0 * (1.0 - cdf.eval(1.0)),
        cdf.quantile(0.5).unwrap_or(0.0),
        cdf.quantile(0.99).unwrap_or(0.0),
    );
    out
}
