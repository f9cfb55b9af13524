//! Fig. 13 — operating range vs number of antennas, four panels:
//! (a) standard tag in air, (b) miniature tag in air,
//! (c) standard tag in water, (d) miniature tag in water.
//!
//! Each point is a full end-to-end session search: power-up, downlink
//! decode through the CIB ripple, and RN16 recovery at the out-of-band
//! reader — the paper's "reader can decode the tag's RN16" criterion.

use ivn_core::experiment::range_vs_antennas;
use ivn_core::scenario::{PlacementSpec, QuickFull, Scenario, TagKind};

/// Renders all four Fig. 13 panels by deriving each panel's scenario
/// from the base `range` scenario: tag and environment vary, everything
/// else (seed, array, antenna sweep `1..=n_max`, EIRP) is shared.
pub(crate) fn render(s: &Scenario, quick: bool, n_max: QuickFull<usize>) -> String {
    let air = PlacementSpec::FreeSpace { range_m: 2.0 };
    let water = PlacementSpec::WaterTank { depth_m: 0.10 };
    let mut out = String::new();
    let panels = [
        (
            "Fig. 13a — standard tag in air (m)",
            air.clone(),
            TagKind::Standard,
            1.0,
        ),
        (
            "Fig. 13b — miniature tag in air (m)",
            air,
            TagKind::Miniature,
            1.0,
        ),
        (
            "Fig. 13c — standard tag in water (cm)",
            water.clone(),
            TagKind::Standard,
            100.0,
        ),
        (
            "Fig. 13d — miniature tag in water (cm)",
            water,
            TagKind::Miniature,
            100.0,
        ),
    ];
    for (title, placement, tag, scale) in panels {
        let panel = s.clone().with_placement(placement).with_tag(tag);
        out += &crate::header(title);
        out += &format!("{:>10}  {:>12}\n", "antennas", "max range");
        let rows = range_vs_antennas(&panel, quick, n_max);
        for r in &rows {
            out += &format!("{:>10}  {:>12.2}\n", r.n, r.range_m * scale);
        }
        if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
            if first.range_m > 0.0 {
                out += &format!(
                    "gain over single antenna: {:.1}×\n",
                    last.range_m / first.range_m
                );
            } else {
                out += "single antenna cannot power the tag at all (range 0)\n";
            }
        }
    }
    out += "\npaper anchors: std tag air 5.2 m → 38 m (7.6×); std water → 23 cm; mini water → 11 cm; mini cannot power without CIB\n";
    out
}
