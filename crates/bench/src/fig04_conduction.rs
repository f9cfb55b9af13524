//! Fig. 4 — impact of the threshold effect: conduction angle in three
//! placements (air-close, shallow tissue, deep tissue).

use ivn_core::body::{Placement, TagSpec, PAPER_EIRP_DBM};
use ivn_em::medium::Medium;
use ivn_harvester::conduction::{classify, conduction_angle, conduction_duty, OperatingRegime};

/// Regenerates Fig. 4: carrier amplitude at the rectifier, conduction
/// angle and operating regime for the paper's three placements.
pub(crate) fn run(_quick: bool) -> String {
    let tag = TagSpec::standard();
    let eirp = ivn_dsp::units::dbm_to_watts(PAPER_EIRP_DBM);
    let vth = tag.power.rectifier.input_threshold();
    let cases = [
        ("(a) air, 1 m from source", Placement::free_space(1.0)),
        (
            "(b) shallow tissue (5.5 cm muscle)",
            Placement::media_box(Medium::muscle(), 0.055),
        ),
        (
            "(c) deep tissue (9 cm muscle)",
            Placement::media_box(Medium::muscle(), 0.09),
        ),
    ];
    let mut out = crate::header("Fig. 4 — threshold effect across placements (single antenna)");
    out += &format!(
        "{:<36}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "placement", "Vs (mV)", "ω (rad)", "duty", "regime"
    );
    for (label, placement) in cases {
        let p = placement.nominal_rx_power(&tag, eirp, 915e6);
        let vs = tag.power.input_amplitude(p);
        let omega = conduction_angle(vs, vth);
        let duty = conduction_duty(vs, vth);
        let regime = match classify(vs, vth) {
            OperatingRegime::Strong => "strong",
            OperatingRegime::Marginal => "marginal",
            OperatingRegime::Dead => "dead",
        };
        out += &format!(
            "{:<36}  {:>10.1}  {:>10.3}  {:>10.3}  {:>10}\n",
            label,
            vs * 1e3,
            omega,
            duty,
            regime
        );
    }
    out += &format!("\ndiode threshold: {:.0} mV\n", vth * 1e3);
    out
}
