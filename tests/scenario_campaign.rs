//! Mass-campaign determinism at scale: a generated fleet of 1000
//! scenarios written to disk, loaded back, and run through the campaign
//! driver — the full report must be byte-identical at 1, 2 and 8 worker
//! threads, and stable across repeat runs. The 25-scenario `session`
//! smoke fleet's report must equal its committed golden bytes at 1, 2
//! and 8 threads.

use ivn_bench::campaign;
use ivn_core::scenario::{builtin, gen, QuickFull, Scenario};
use ivn_runtime::json::Json;
use std::path::PathBuf;

/// A 1000-scenario fleet cheap enough for CI: one trial per scenario,
/// swept over tank depth and tag kind with jittered EIRP.
fn fleet_spec() -> gen::GenSpec {
    let mut base = builtin("session").expect("builtin");
    base.trials = QuickFull::same(1);
    gen::GenSpec {
        base,
        count: 1000,
        seed: 2026,
        sweeps: vec![
            gen::SweepAxis {
                path: "placement.depth_m".into(),
                values: [0.02, 0.04, 0.06, 0.08, 0.10]
                    .iter()
                    .map(|&d| Json::Num(d))
                    .collect(),
            },
            gen::SweepAxis {
                path: "tag".into(),
                values: vec![Json::Str("standard".into()), Json::Str("miniature".into())],
            },
        ],
        jitters: vec![gen::JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.03,
        }],
    }
}

#[test]
fn thousand_scenario_campaign_is_thread_invariant() {
    let fleet = gen::generate(&fleet_spec()).expect("generate");
    assert_eq!(fleet.len(), 1000);

    // Round-trip through disk exactly like `reproduce generate` +
    // `reproduce campaign <dir>` would.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scenario-campaign-1000");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for s in &fleet {
        std::fs::write(dir.join(format!("{}.json", s.name)), s.dump() + "\n").unwrap();
    }
    let loaded: Vec<Scenario> = campaign::load_dir(&dir)
        .expect("load_dir")
        .into_iter()
        .map(|e| e.expect("every generated file loads"))
        .collect();
    assert_eq!(loaded.len(), fleet.len());

    let reports: Vec<String> = [1, 2, 8]
        .iter()
        .map(|&t| campaign::run(&loaded, true, t).report().dump())
        .collect();
    assert_eq!(reports[0], reports[1], "1 vs 2 threads diverged");
    assert_eq!(reports[1], reports[2], "2 vs 8 threads diverged");

    // Repeat run from the same inputs: bit-identical again.
    let again = campaign::run(&loaded, true, 8).report().dump();
    assert_eq!(reports[2], again, "re-run diverged");

    // Sanity on content: everything evaluated, nothing errored, and the
    // aggregate carries real distributions.
    let outcome = campaign::run(&loaded, true, 8);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.metrics.len(), 1000);
    let agg = outcome.aggregate();
    assert_eq!(agg.get("evaluated"), Some(&Json::Num(1000.0)));
    assert!(matches!(agg.get("gain_db_median"), Some(Json::Obj(_))));
    assert!(matches!(agg.get("powered_frac"), Some(Json::Obj(_))));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_bad_file_is_an_error_not_an_abort() {
    // N-1 good files and one bad one, for each way a file can be bad:
    // not JSON at all, or JSON that fails `Scenario::validate`.
    let good = builtin("session").expect("builtin");
    let mut invalid = Json::parse(&good.dump()).unwrap();
    gen::set_path(&mut invalid, "eirp_dbm", Json::Num(1e308)).unwrap();
    for (label, bad) in [
        ("malformed", "{\"name\": ".to_string()),
        ("invalid", invalid.dump()),
    ] {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("campaign-bad-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        const N: usize = 6;
        for i in 0..N {
            let text = if i == 2 {
                bad.clone()
            } else {
                let mut s = good.clone();
                s.name = format!("s{i}");
                s.seed = 100 + i as u64;
                s.dump()
            };
            std::fs::write(dir.join(format!("{i:02}.json")), text).unwrap();
        }

        let reports: Vec<String> = [1, 2, 8]
            .iter()
            .map(|&t| {
                let entries = campaign::load_dir(&dir).expect("directory loads");
                let outcome = campaign::run_loaded(entries, true, t);
                assert_eq!(outcome.metrics.len(), N - 1, "{label}");
                assert_eq!(outcome.errors.len(), 1, "{label}");
                assert_eq!(outcome.errors[0].0, "02.json", "{label}");
                outcome.report().dump()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "{label}: 1 vs 2 threads diverged");
        assert_eq!(reports[1], reports[2], "{label}: 2 vs 8 threads diverged");
        let report = Json::parse(&reports[0]).unwrap();
        let agg = report.get("aggregate").unwrap();
        assert_eq!(agg.get("evaluated"), Some(&Json::Num((N - 1) as f64)));
        assert_eq!(agg.get("errors"), Some(&Json::Num(1.0)));
        if label == "invalid" {
            assert!(reports[0].contains("eirp_dbm"), "{}", reports[0]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn generated_fleet_is_seed_stable_and_valid() {
    let a = gen::generate(&fleet_spec()).unwrap();
    let b = gen::generate(&fleet_spec()).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.dump(), y.dump());
    }
    // Every generated file is a valid scenario on its own.
    for s in a.iter().take(50) {
        let round = Scenario::parse(&s.dump()).unwrap();
        assert_eq!(round.dump(), s.dump());
    }
    // The grid actually varies the swept fields.
    let depths: std::collections::BTreeSet<String> = a
        .iter()
        .take(10)
        .map(|s| format!("{:?}", s.placement))
        .collect();
    assert!(
        depths.len() >= 5,
        "sweep did not vary placement: {depths:?}"
    );
}

#[test]
fn session25_report_matches_golden_at_1_2_8_threads() {
    // The smoke fleet `scripts/verify.sh` pins, built as
    // `reproduce generate --base session --count 25 --seed 7
    //  --sweep placement.depth_m=0.02,0.05,0.08 --jitter eirp_dbm=0.05`
    // builds it (sweep values parse as JSON), written to disk and loaded
    // back as `reproduce campaign <dir> --quick` loads it.
    let spec = gen::GenSpec {
        base: builtin("session").expect("builtin"),
        count: 25,
        seed: 7,
        sweeps: vec![gen::SweepAxis {
            path: "placement.depth_m".into(),
            values: ["0.02", "0.05", "0.08"]
                .iter()
                .map(|v| Json::parse(v).unwrap())
                .collect(),
        }],
        jitters: vec![gen::JitterSpec {
            path: "eirp_dbm".into(),
            frac: 0.05,
        }],
    };
    let fleet = gen::generate(&spec).expect("generate");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("campaign-session25");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for s in &fleet {
        std::fs::write(dir.join(format!("{}.json", s.name)), s.dump() + "\n").unwrap();
    }
    let golden = include_str!("golden/campaign/session25.quick.json");
    for threads in [1, 2, 8] {
        let entries = campaign::load_dir(&dir).expect("directory loads");
        let report = campaign::run_loaded(entries, true, threads).report().dump() + "\n";
        assert!(
            report == golden,
            "{threads} threads: report diverged from tests/golden/campaign/session25.quick.json"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
