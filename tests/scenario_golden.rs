//! Golden pin for the scenario refactor: every `reproduce` figure
//! target, rendered through the scenario registry, must be
//! byte-identical to the output captured before the experiment layer
//! moved onto the `Scenario` substrate (tests/golden/figures/).
//!
//! Each test renders its figure once and checks, beside the bytes, the
//! figure's shape (its rows, panels and headline lines);
//! `tests/figures_smoke.rs` checks the paper's qualitative claims on the
//! same golden bytes instead of rendering again.
//!
//! Regenerate a file after an *intentional* output change with:
//! `cargo run --release --bin reproduce -- <target> --quick > tests/golden/figures/<target>.quick.txt`

mod common;
use common::golden;

/// Renders `target --quick`, asserts it equals the golden and returns it.
fn check(target: &str) -> String {
    let s = ivn_core::scenario::builtin(target)
        .unwrap_or_else(|| panic!("no builtin scenario for {target}"));
    let now = ivn_bench::registry::render(&s, true).expect(target);
    assert_eq!(
        now,
        golden(target),
        "`reproduce {target} --quick` diverged from the pre-refactor golden bytes"
    );
    now
}

// One test per target so a divergence names the figure directly and the
// suite parallelizes across the harness' test threads.

#[test]
fn golden_fig2() {
    let s = check("fig2");
    assert!(s.contains("0.25"));
    assert!(s.lines().count() > 15);
}

#[test]
fn golden_fig3() {
    let s = check("fig3");
    assert!(s.contains("dB/cm"));
    assert!(s.lines().count() > 15);
}

#[test]
fn golden_fig4() {
    let s = check("fig4");
    assert!(s.contains("strong"), "{s}");
    assert!(s.contains("marginal"), "{s}");
    assert!(s.contains("dead"), "{s}");
}

#[test]
fn golden_fig6() {
    let s = check("fig6");
    // The best plan's median gain dominates the worst plan's.
    assert!(s.contains("medians"));
    let line = s.lines().find(|l| l.starts_with("medians")).unwrap();
    let nums: Vec<f64> = line
        .split(|c: char| !c.is_ascii_digit() && c != '.')
        .filter_map(|t| t.parse().ok())
        .collect();
    assert!(nums[0] > nums[1], "best {} worst {}", nums[0], nums[1]);
}

#[test]
fn golden_fig9() {
    let s = check("fig9");
    assert_eq!(
        s.lines()
            .filter(|l| l.trim().starts_with(char::is_numeric))
            .count(),
        10
    );
    assert!(s.contains("paper anchors"));
}

#[test]
fn golden_fig10() {
    let s = check("fig10");
    assert!(s.contains("Fig. 10a"));
    assert!(s.contains("Fig. 10b"));
    assert!(s.lines().count() > 20);
}

#[test]
fn golden_fig11() {
    let s = check("fig11");
    for m in [
        "air",
        "water",
        "gastric",
        "intestinal",
        "steak",
        "bacon",
        "chicken",
    ] {
        assert!(s.contains(m), "missing {m}");
    }
}

#[test]
fn golden_fig12() {
    let s = check("fig12");
    assert!(s.contains("median ratio"));
    assert!(s.contains("CIB wins"));
}

#[test]
fn golden_fig13() {
    let s = check("fig13");
    for p in ["13a", "13b", "13c", "13d"] {
        assert!(s.contains(p), "missing panel {p}");
    }
}

#[test]
fn golden_invivo() {
    let s = check("invivo");
    // Four data rows (the title also mentions "swine").
    assert_eq!(
        s.lines().filter(|l| l.starts_with("swine")).count(),
        4,
        "{s}"
    );
    assert!(s.contains("gastric"));
    assert!(s.contains("subcutaneous"));
}

#[test]
fn golden_freqs() {
    let s = check("freqs");
    assert!(s.contains("optimized plan"));
    assert!(s.contains("rms"));
}

#[test]
fn golden_ablations() {
    let s = check("ablations");
    // Seven sections, each checked on its own lines.
    let sections: Vec<&str> = s.split("\n=== Ablation — ").skip(1).collect();
    assert_eq!(sections.len(), 7, "{s}");
    let section = |title: &str| -> &str {
        sections
            .iter()
            .find(|t| t.starts_with(title))
            .unwrap_or_else(|| panic!("no '{title}' section in {s}"))
    };
    assert!(section("coherent beamforming with stale").contains("stale MRT"));
    assert!(section("out-of-band reader").contains("OOB success"));
    // The paper plan decodes every trial; the widest plan fails most.
    let rows: Vec<&str> = section("query decodability")
        .lines()
        .filter(|l| l.contains("/20"))
        .collect();
    assert_eq!(rows.len(), 3, "{rows:?}");
    assert!(rows[0].contains("20/20"), "paper plan failed: {}", rows[0]);
    let worst: usize = rows[2]
        .split('/')
        .next()
        .and_then(|l| l.split_whitespace().last())
        .and_then(|t| t.parse().ok())
        .unwrap();
    assert!(worst < 10, "wide plan decoded too often: {}", rows[2]);
    assert!(section("coherent averaging gain").contains("64"));
    // Every two-stage improvement is at least 1×.
    let two_stage = section("two-stage CIB");
    let improvements: Vec<f64> = two_stage
        .lines()
        .filter(|l| l.trim_end().ends_with('×'))
        .map(|l| {
            let last = l.split_whitespace().last().unwrap();
            last.trim_end_matches('×').parse().unwrap()
        })
        .collect();
    assert_eq!(improvements.len(), 4, "{two_stage}");
    assert!(improvements.iter().all(|&x| x >= 0.99), "{improvements:?}");
    assert!(section("adaptive centre-frequency hopping").contains("median"));
    let clock = section("clock-distribution fault injection");
    assert!(
        clock.contains("Octoclock") && clock.contains("NO"),
        "{clock}"
    );
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
