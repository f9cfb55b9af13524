//! Smoke tests over the figure-reproduction harness: every `reproduce`
//! target's quick output yields the paper's qualitative shape.
//!
//! They read the committed quick goldens, which `tests/scenario_golden.rs`
//! pins byte for byte to a fresh render, so each quick figure is computed
//! once per test run and a re-recorded golden is checked here too.

mod common;
use common::{golden, numeric_rows};

#[test]
fn fig2_threshold_blocks_small_voltages() {
    let s = golden("fig2");
    // At 0.20 V the threshold diode passes zero current.
    let line = s
        .lines()
        .find(|l| l.trim_start().starts_with("0.20"))
        .unwrap();
    let cells: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(cells[2].parse::<f64>().unwrap(), 0.0, "{line}");
}

#[test]
fn fig3_exponential_tissue_loss() {
    let s = golden("fig3");
    // Parse the last row: tissue loss must exceed air loss by > 20 dB.
    let rows = numeric_rows(&s);
    let cells = rows.last().unwrap();
    assert!(cells[2] - cells[1] > 20.0, "{cells:?}");
}

#[test]
fn fig4_three_regimes() {
    let s = golden("fig4");
    assert!(s.contains("strong") && s.contains("marginal") && s.contains("dead"));
}

#[test]
fn fig6_separation() {
    let s = golden("fig6");
    assert!(s.contains("best plan"));
    assert!(s.contains("worst plan"));
}

#[test]
fn fig9_monotone_gain() {
    let s = golden("fig9");
    // Rows are "antennas p10 median p90".
    let rows = numeric_rows(&s);
    let medians: Vec<f64> = rows.iter().map(|cells| cells[2]).collect();
    assert_eq!(medians.len(), 10);
    assert!(medians[9] > 10.0 * medians[0], "{medians:?}");
    // Monotone (with Monte-Carlo slack), and one antenna gains nothing.
    for w in medians.windows(2) {
        assert!(w[1] > w[0] * 0.95, "not monotone: {medians:?}");
    }
    assert_eq!(medians[0], 1.0);
    // Paper anchors: median ≈ 55× at 8 antennas; gains "as high as 85×"
    // at 10 (upper percentile).
    let (g8, g10) = (&rows[7], &rows[9]);
    assert!(g10[2] > 50.0 && g10[2] <= 100.0, "{g10:?}");
    assert!(g10[3] > 80.0, "{g10:?}");
    assert!(g8[2] > 35.0 && g8[2] <= 70.0, "{g8:?}");
}

#[test]
fn fig10_gain_flat_in_depth_and_orientation() {
    let s = golden("fig10");
    let (depth, orientation) = s.split_once("Fig. 10b").unwrap();
    for panel in [depth, orientation] {
        let medians: Vec<f64> = numeric_rows(panel).iter().map(|cells| cells[2]).collect();
        assert_eq!(medians.len(), 9, "{panel}");
        let max = medians.iter().cloned().fold(f64::MIN, f64::max);
        let min = medians.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min < 20.0, "spread {medians:?}");
        assert!(min > 45.0 && max <= 100.0, "{medians:?}");
    }
}

#[test]
fn fig11_cib_dominates_in_every_medium() {
    let s = golden("fig11");
    for line in s
        .lines()
        .filter(|l| l.contains('[') && l.contains(']') && !l.contains("p10"))
    {
        // "medium  cib_med [p10, p90]  base_med [p10, p90]"
        let nums: Vec<f64> = line
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter_map(|t| t.parse().ok())
            .collect();
        assert!(nums[0] > nums[3], "CIB should beat baseline: {line}");
        assert!(nums[0] > 45.0 && nums[0] < 110.0, "CIB gain: {line}");
        assert!(nums[3] < 16.0, "baseline gain: {line}");
        // The headline 8.5× CIB-over-baseline factor, loosely.
        assert!(nums[0] / nums[3] > 4.0, "CIB over baseline: {line}");
    }
}

#[test]
fn fig12_headline_claims() {
    let s = golden("fig12");
    // "CIB wins at XX.X% of locations"
    let wins: f64 = s
        .lines()
        .find(|l| l.starts_with("CIB wins"))
        .and_then(|l| {
            l.split(['a', '%'])
                .find_map(|t| t.trim_start_matches('t').trim().parse().ok())
        })
        .unwrap();
    assert!(wins > 95.0, "win rate {wins}");
    // CIB loses at < 1% of locations: the CDF at ratio 1.
    let at_one = numeric_rows(&s).into_iter().find(|c| c[0] == 1.0).unwrap();
    assert!(at_one[1] < 0.01, "{at_one:?}");
    // "median ratio 7.8× (paper: ~8×); p99 649× (paper: >100× occurs)"
    let line = s.lines().find(|l| l.starts_with("median ratio")).unwrap();
    let nums: Vec<f64> = line
        .split(|c: char| !c.is_ascii_digit() && c != '.')
        .filter_map(|t| t.parse().ok())
        .collect();
    assert!(nums[0] > 6.0 && nums[0] < 16.0, "median ratio: {line}");
    assert!(nums[3] > 100.0, "p99: {line}");
}

#[test]
fn invivo_pattern_matches_paper() {
    let s = golden("invivo");
    let rows: Vec<&str> = s.lines().filter(|l| l.starts_with("swine")).collect();
    assert_eq!(rows.len(), 4);
    let count = |row: &str| -> (usize, usize) {
        let frac = row.split_whitespace().find(|t| t.contains('/')).unwrap();
        let (a, b) = frac.split_once('/').unwrap();
        (a.parse().unwrap(), b.parse().unwrap())
    };
    let gastric_std = count(rows[0]);
    let gastric_mini = count(rows[1]);
    let subcut_std = count(rows[2]);
    let subcut_mini = count(rows[3]);
    // Paper §6.2 pattern: partial / none / all / all.
    assert!(
        gastric_std.0 > 0 && gastric_std.0 < gastric_std.1,
        "{rows:?}"
    );
    assert_eq!(gastric_mini.0, 0, "{rows:?}");
    assert_eq!(subcut_std.0, subcut_std.1, "{rows:?}");
    assert_eq!(subcut_mini.0, subcut_mini.1, "{rows:?}");
}

#[test]
fn freqs_optimization_feasible() {
    let s = golden("freqs");
    assert!(s.contains("optimized plan"));
    // The reported RMS values must respect the 199 Hz cap.
    for line in s.lines().filter(|l| l.trim_start().starts_with("rms")) {
        let rms: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(rms <= 199.0, "{line}");
    }
}

#[test]
fn ablations_run() {
    let s = golden("ablations");
    assert!(s.contains("stale"));
    assert!(s.contains("OOB success"));
    assert!(s.contains("Eq. 9"));
    assert!(s.contains("averaging"));
}
