//! Fig. 6 — CDFs of the peak power gain for the best and worst frequency
//! combinations under random channel conditions.

use ivn_core::experiment::gain_cdf_experiment;
use ivn_core::scenario::{FreqSelSpec, QuickFull, Scenario};

/// Renders Fig. 6 for a `gain_cdf` scenario: the Eq. 10 search's best
/// and worst plans and both gain CDFs.
pub(crate) fn render(
    s: &Scenario,
    quick: bool,
    freqsel: &FreqSelSpec,
    plan_seed: u64,
    cdf_grid: QuickFull<usize>,
) -> String {
    let r = gain_cdf_experiment(s, quick, freqsel, plan_seed, cdf_grid);
    let n = r.best.offsets_hz.len();

    let mut out = crate::header(&format!(
        "Fig. 6 — CDF of {n}-antenna peak power gain: best vs worst Δf set"
    ));
    out += &format!(
        "best plan:  {:?} Hz (E[peak] = {:.2} of {n})\n",
        r.best.offsets_hz, r.best.expected_peak
    );
    out += &format!(
        "worst plan: {:?} Hz (E[peak] = {:.2} of {n})\n\n",
        r.worst.offsets_hz, r.worst.expected_peak
    );
    out += &format!(
        "{:>12}  {:>12}  {:>12}\n",
        "gain", "CDF(best)", "CDF(worst)"
    );
    for k in 0..=16 {
        let gain = 8.0 + k as f64; // the paper's 8..24 x-axis
        out += &format!(
            "{:>12.0}  {:>12.3}  {:>12.3}\n",
            gain,
            r.best_cdf.eval(gain),
            r.worst_cdf.eval(gain)
        );
    }
    out += &format!(
        "\nmedians: best {:.1} / worst {:.1} (optimal N² = {})\n",
        r.best_cdf.quantile(0.5).unwrap_or(0.0),
        r.worst_cdf.quantile(0.5).unwrap_or(0.0),
        n * n,
    );
    out
}
