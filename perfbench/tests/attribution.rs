//! The traced run's accounting: for every workload the leaves plus
//! `unattributed` equal the traced total, and the metrics it reports are
//! exactly the `per_layer` list of `BENCHMARK.json`; and every seed has a
//! committed witness.
//!
//! One test function drives all three workloads in turn: they share the
//! process-wide recorder, `obs` registry, plan cache and worker pool.

use ivn_bench::trace_analysis::analyze;
use ivn_perfbench::layers::traced;
use ivn_perfbench::witness::Committed;
use ivn_perfbench::workloads::{generate, run, setup, Scale, Workload};
use ivn_runtime::json::Json;
use std::collections::BTreeSet;

fn per_layer_names() -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get("per_layer")
        .and_then(Json::as_array)
        .expect("per_layer list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The digest of the small-scale workload, after checking that two
/// independent set-ups and runs agree on it.
fn small_reference(w: Workload, seed: u64) -> u64 {
    let inputs = generate(w, seed, &Scale::SMALL);
    let first = run(&setup(&inputs).unwrap());
    let second = run(&setup(&inputs).unwrap());
    assert_eq!(first.failed(), 0, "{}: output check failed", w.name());
    assert_eq!(
        first.digest(),
        second.digest(),
        "{}: two runs of the same inputs differ",
        w.name()
    );
    first.digest()
}

#[test]
fn every_seed_has_a_committed_witness() {
    let committed = Committed::builtin();
    for w in Workload::ALL {
        for seed in [0, 1, 127, 128, 1_000_003, u64::MAX] {
            assert!(committed.get(w, seed).is_ok(), "{} seed {seed}", w.name());
        }
    }
}

#[test]
fn leaves_and_unattributed_sum_to_the_traced_total() {
    let mut names = BTreeSet::new();
    for w in Workload::ALL {
        let reference = small_reference(w, 7);
        let t = traced(w, 7, &Scale::SMALL, reference, None).unwrap();
        assert!(t.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(t.failed, 0, "{}: failed operations", w.name());
        assert!(t.total_s > 0.0, "{}: empty traced total", w.name());

        let leaves: f64 = t.leaves.iter().map(|(_, v)| v).sum();
        let sum = leaves + t.unattributed_s();
        assert!(
            (sum - t.total_s).abs() <= 1e-9 * t.total_s.max(1.0),
            "{}: leaves {leaves} + unattributed {} != total {}",
            w.name(),
            t.unattributed_s(),
            t.total_s
        );
        // A leaf counted twice, or read on another clock than the total,
        // shows as a negative remainder.
        assert!(
            t.unattributed_s() >= -1e-9 * t.total_s,
            "{}: leaves {leaves} exceed the traced total {}",
            w.name(),
            t.total_s
        );
        for (name, v) in &t.leaves {
            assert!(*v >= 0.0, "{name} is negative: {v}");
            assert!(
                t.metrics.iter().any(|m| &m.name == name),
                "leaf {name} is not reported"
            );
        }

        // The trace holds the workload's span; where every child is a
        // leaf, `unattributed` is exactly that span's self time.
        let a = analyze(&t.trace);
        let top = a
            .intervals
            .iter()
            .find(|iv| iv.name == w.name())
            .expect("workload span recorded");
        if w == Workload::Inventory {
            let self_s = top.self_ns() as f64 * 1e-9;
            assert!((self_s - t.unattributed_s()).abs() < 1e-9);
        }

        for m in &t.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            assert!(names.insert(m.name.clone()), "{} reported twice", m.name);
        }
    }
    assert_eq!(names, per_layer_names());
}
