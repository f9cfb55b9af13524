//! §5 — the one-time frequency-plan optimization that produced the
//! paper's offsets {0, 7, 20, 49, 68, 73, 90, 113, 121, 137} Hz.

use ivn_core::freqsel::{expected_peak, optimize};
use ivn_core::scenario::{FreqSelSpec, Scenario};
use ivn_core::waveform::{eq9_rms_bound, rms_offset};
use ivn_runtime::rng::StdRng;

/// Renders the Eq. 10 optimization of a `freq_plan_search` scenario's
/// `freqsel` and compares the result to the paper's published plan.
pub(crate) fn render(s: &Scenario, quick: bool, freqsel: &FreqSelSpec) -> String {
    let cfg = freqsel.resolve(quick);
    let plan = optimize(&cfg, s.seed);
    let mut rng = StdRng::seed_from_u64(42);
    let paper_score = expected_peak(&ivn_core::PAPER_OFFSETS_HZ, cfg.mc_draws, 2048, &mut rng);
    let n = cfg.n_antennas;

    let mut out = crate::header("§5 — CIB frequency-plan optimization (Eq. 10)");
    out += &format!(
        "constraint: rms(Δf) ≤ {:.0} Hz (α = 0.5, Δt = 800 µs)\n\n",
        eq9_rms_bound(0.5, 800e-6)
    );
    out += &format!(
        "paper plan:     {:?}\n  rms {:>6.1} Hz, E[peak] {:.2} of {n}\n",
        ivn_core::PAPER_OFFSETS_HZ,
        rms_offset(&ivn_core::PAPER_OFFSETS_HZ),
        paper_score
    );
    out += &format!(
        "optimized plan: {:?}\n  rms {:>6.1} Hz, E[peak] {:.2} of {n}\n",
        plan.offsets_hz,
        plan.rms_hz(),
        plan.expected_peak
    );
    out += &format!(
        "\nexpected peak power gain of optimized plan: {:.0}× (ceiling {}×)\n",
        plan.expected_power_gain(),
        n * n,
    );
    out
}
