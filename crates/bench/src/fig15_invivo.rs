//! §6.2 / Fig. 15 — the in-vivo swine campaign: gastric and subcutaneous
//! placements for both tags, preamble-correlation ≥ 0.8 success criterion.

use ivn_core::experiment::in_vivo_campaign;
use ivn_core::scenario::Scenario;

/// Renders the §6.2 results table for an `in_vivo` scenario.
pub(crate) fn render(s: &Scenario, quick: bool) -> String {
    let rows = in_vivo_campaign(s, quick);
    let mut out = crate::header(&format!(
        "§6.2 / Fig. 15 — in-vivo swine campaign ({} antennas)",
        s.array.n_antennas
    ));
    out += &format!(
        "{:<22}  {:<16}  {:>10}  {:>12}\n",
        "placement", "tag", "success", "median corr"
    );
    for r in &rows {
        out += &format!(
            "{:<22}  {:<16}  {:>6}/{:<3}  {:>12.2}\n",
            r.placement, r.tag, r.successes, r.trials, r.median_correlation
        );
    }
    out += "\npaper: gastric standard 3/6; gastric miniature 0/6; subcutaneous standard & miniature all trials\n";
    out
}
