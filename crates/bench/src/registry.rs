//! The scenario registry: the one dispatch point from a declarative
//! [`Scenario`] to the figure renderer that knows how to present its
//! kind. Each renderer receives its kind's fields as arguments, so no
//! figure module or experiment inspects the kind again. `reproduce` is a
//! thin shell over this — a target name resolves to a built-in scenario
//! ([`ivn_core::scenario::builtin`]) and a `--scenario file.json` run
//! parses the file, and both land here.

use ivn_core::scenario::{evaluate, Scenario, ScenarioKind};
use ivn_runtime::json::ToJson;

/// Renders any scenario through the figure module registered for its
/// kind. Power sessions, which have no bespoke presentation, fall back
/// to the uniform metrics report.
pub fn render(s: &Scenario, quick: bool) -> Result<String, String> {
    Ok(match &s.kind {
        ScenarioKind::Diode => crate::fig02_diode::run(quick),
        ScenarioKind::TissueLoss => crate::fig03_tissue_loss::run(quick),
        ScenarioKind::Conduction => crate::fig04_conduction::run(quick),
        ScenarioKind::GainCdf {
            freqsel,
            plan_seed,
            cdf_grid,
        } => crate::fig06_freq_cdf::render(s, quick, freqsel, *plan_seed, *cdf_grid),
        ScenarioKind::GainVsAntennas => crate::fig09_gain_vs_antennas::render(s, quick),
        ScenarioKind::GainStability {
            depths_m,
            orientations_rad,
        } => crate::fig10_gain_stability::render(s, quick, depths_m, orientations_rad),
        ScenarioKind::MediaGain => crate::fig11_media::render(s, quick),
        ScenarioKind::RatioCdf => crate::fig12_ratio_cdf::render(s, quick),
        ScenarioKind::Range { n_max } => crate::fig13_range::render(s, quick, *n_max),
        ScenarioKind::InVivo => crate::fig15_invivo::render(s, quick),
        ScenarioKind::FreqPlanSearch { freqsel } => crate::tbl_freqs::render(s, quick, freqsel),
        ScenarioKind::Ablations => crate::ablations::run(quick),
        ScenarioKind::Pipeline => crate::pipeline::run(quick),
        ScenarioKind::Inventory {
            population,
            policy,
            capture_db,
            ..
        } => crate::inventory::render(s, quick, population, policy, *capture_db)?,
        ScenarioKind::PowerSession { .. } => metrics_report(s, quick)?,
    })
}

/// The uniform per-scenario report: campaign metrics as a small table
/// plus the machine-readable JSON line the campaign driver aggregates.
pub(crate) fn metrics_report(s: &Scenario, quick: bool) -> Result<String, String> {
    let m = evaluate(s, quick)?;
    let mut out = crate::header(&format!(
        "scenario '{}' ({}, {} antennas)",
        s.name,
        s.kind.type_name(),
        s.array.n_antennas
    ));
    out += &format!("{:>10} trials\n", m.trials);
    if let Some(g) = m.gain_summary() {
        out += &format!(
            "{:>10}  gain over 1 antenna: median {:.1} dB [p10 {:.1}, p90 {:.1}]\n",
            "", g.median, g.p10, g.p90
        );
    }
    if let Some(t) = m.time_summary() {
        out += &format!(
            "{:>10}  time-to-power: median {:.1} ms [p10 {:.1}, p90 {:.1}]\n",
            "",
            t.median * 1e3,
            t.p10 * 1e3,
            t.p90 * 1e3
        );
    }
    out += &format!(
        "{:>10}  powered {:.0}%, decoded {:.0}%\n",
        "",
        100.0 * m.powered_frac(),
        100.0 * m.decode_frac()
    );
    out += &format!("\n{}\n", m.to_json().dump());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivn_core::scenario::{builtin, BUILTIN_NAMES};

    #[test]
    fn every_builtin_renders() {
        for name in BUILTIN_NAMES {
            let s = builtin(name).unwrap_or_else(|| panic!("missing builtin {name}"));
            // Cheap kinds only — the expensive ones are covered by the
            // golden figure tests; here we pin the dispatch itself.
            if matches!(s.kind, ScenarioKind::PowerSession { .. }) {
                let out = render(&s, true).expect(name);
                assert!(out.contains(&s.name), "{name}: {out}");
                assert!(out.contains("powered"), "{name}: {out}");
            }
        }
    }
}
