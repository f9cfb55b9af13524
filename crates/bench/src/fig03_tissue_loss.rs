//! Fig. 3 — signal power loss in tissues vs in air (log scale).
//!
//! The paper's right panel: normalized loss as a function of distance,
//! polynomial in air and exponential once the wave enters tissue.

use ivn_em::layered::{single_medium_path, LayeredPath};
use ivn_em::medium::Medium;

/// Regenerates Fig. 3: path loss vs distance for pure air and for an
/// air-then-muscle path (1 GHz-band carrier).
pub(crate) fn run(_quick: bool) -> String {
    const F: f64 = 915e6;
    let mut out = crate::header("Fig. 3 — signal loss: air vs tissue (dB, normalized to 1 m)");
    out += &format!(
        "{:>10}  {:>12}  {:>16}\n",
        "dist (cm)", "air (dB)", "air+tissue (dB)"
    );
    // Air leg fixed at 10 cm for the tissue curve; extra distance goes
    // into muscle — the paper's d ≪ r regime.
    for k in 1..=15 {
        let extra_cm = 2.0 * k as f64;
        let air_only = LayeredPath::free_space(0.10 + extra_cm / 100.0).path_loss_db(F);
        let tissue = single_medium_path(0.10, Medium::muscle(), extra_cm / 100.0).path_loss_db(F);
        out += &format!("{:>10.0}  {:>12.2}  {:>16.2}\n", extra_cm, air_only, tissue);
    }
    out += &format!(
        "\nmuscle bulk loss: {:.2} dB/cm (paper cites 2.3-6.9 dB/cm); air-tissue boundary: {:.1} dB (paper: 3-5 dB)\n",
        Medium::muscle().loss_db_per_cm(F),
        ivn_em::boundary::boundary_loss_db(&Medium::air(), &Medium::muscle(), F),
    );
    out
}
