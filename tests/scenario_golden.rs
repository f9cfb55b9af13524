//! Golden pin for the scenario refactor: every `reproduce` figure
//! target, rendered through the scenario registry, must be
//! byte-identical to the output captured before the experiment layer
//! moved onto the `Scenario` substrate (tests/golden/figures/).
//!
//! Regenerate a file after an *intentional* output change with:
//! `cargo run --release --bin reproduce -- <target> --quick > tests/golden/figures/<target>.quick.txt`

use std::path::PathBuf;

fn golden(target: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/figures")
        .join(format!("{target}.quick.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check(target: &str) {
    let s = ivn_core::scenario::builtin(target)
        .unwrap_or_else(|| panic!("no builtin scenario for {target}"));
    let now = ivn_bench::registry::render(&s, true).expect(target);
    let want = golden(target);
    assert_eq!(
        now, want,
        "`reproduce {target} --quick` diverged from the pre-refactor golden bytes"
    );
}

// One test per target so a divergence names the figure directly and the
// suite parallelizes across the harness' test threads.

#[test]
fn golden_fig2() {
    check("fig2");
}

#[test]
fn golden_fig3() {
    check("fig3");
}

#[test]
fn golden_fig4() {
    check("fig4");
}

#[test]
fn golden_fig6() {
    check("fig6");
}

#[test]
fn golden_fig9() {
    check("fig9");
}

#[test]
fn golden_fig10() {
    check("fig10");
}

#[test]
fn golden_fig11() {
    check("fig11");
}

#[test]
fn golden_fig12() {
    check("fig12");
}

#[test]
fn golden_fig13() {
    check("fig13");
}

#[test]
fn golden_invivo() {
    check("invivo");
}

#[test]
fn golden_freqs() {
    check("freqs");
}

#[test]
fn golden_ablations() {
    check("ablations");
}

#[test]
fn golden_pipeline() {
    check("pipeline");
}

#[test]
fn golden_export_round_trip() {
    // Scenario JSON is byte-stable under export → parse → export: the
    // contract behind `reproduce export` and campaign re-runs.
    for name in ivn_core::scenario::BUILTIN_NAMES {
        let s = ivn_core::scenario::builtin(name).unwrap();
        let once = s.dump();
        let twice = ivn_core::scenario::Scenario::parse(&once)
            .unwrap_or_else(|e| panic!("{name}: {}", e.reason))
            .dump();
        assert_eq!(once, twice, "{name} export not byte-stable");
    }
}
