//! Plan-cache semantics under fleet-scale load (ISSUE 9 satellite):
//! hit/miss observability, cold-vs-warm byte-identity, and
//! eviction/capacity behavior under a 1000-scenario fleet.
//!
//! Every test here touches the process-global [`PlanCache`], so they
//! serialize on one mutex and reset cache state at entry.

use ivn::core::freqsel::optimize;
use ivn::core::plancache::PlanCache;
use ivn::core::scenario::{ArraySpec, FreqPlan, FreqSelSpec, QuickFull};
use ivn::runtime::obs;
use ivn::runtime::pool::WorkerPool;
use std::sync::Mutex;

static GLOBAL_CACHE_LOCK: Mutex<()> = Mutex::new(());

/// A deliberately tiny Eq. 10 search so a 1000-consultation fleet runs
/// in test time.
fn tiny_spec(n_antennas: usize) -> FreqSelSpec {
    FreqSelSpec {
        n_antennas,
        rms_limit_hz: 199.0,
        max_offset_hz: 64,
        mc_draws: QuickFull::same(2),
        grid: QuickFull::same(32),
        restarts: QuickFull::same(1),
        iterations: QuickFull::same(2),
    }
}

fn optimizing_array(n_antennas: usize, seed: u64) -> ArraySpec {
    ArraySpec {
        n_antennas,
        plan: FreqPlan::Optimize {
            spec: tiny_spec(n_antennas),
            seed,
        },
        carrier_hz: ivn::core::BEAMFORMER_CARRIER_HZ,
        grid: 256,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn warm_hits_are_byte_identical_to_cold_computation() {
    let _guard = GLOBAL_CACHE_LOCK.lock().unwrap();
    let cache = PlanCache::global();
    cache.clear();
    cache.reset_counters();
    let array = optimizing_array(3, 42);

    // Cold: cache disabled, direct computation.
    cache.set_enabled(false);
    let cold = array.cib(true);
    // Ground truth straight from the optimizer.
    let direct = match &array.plan {
        FreqPlan::Optimize { spec, seed } => optimize(&spec.resolve(true), *seed).offsets_hz,
        _ => unreachable!(),
    };
    assert!(cache.is_empty(), "disabled cache must not store");

    // Warm: enabled — miss then hit.
    cache.set_enabled(true);
    let miss = array.cib(true);
    let hit = array.cib(true);
    assert_eq!(bits(&cold.offsets_hz), bits(&direct));
    assert_eq!(bits(&miss.offsets_hz), bits(&direct));
    assert_eq!(bits(&hit.offsets_hz), bits(&direct), "hit != cold bytes");
    let (hits, misses) = cache.counters();
    assert_eq!((hits, misses), (1, 1));
}

#[test]
fn hit_and_miss_obs_counters_are_booked() {
    let _guard = GLOBAL_CACHE_LOCK.lock().unwrap();
    let cache = PlanCache::global();
    cache.clear();
    cache.set_enabled(true);
    obs::set_enabled(true);
    let before = obs::report();
    let array = optimizing_array(2, 7);
    array.cib(true); // miss
    array.cib(true); // hit
    array.cib(true); // hit
    let after = obs::report();
    obs::set_enabled(false);
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    assert_eq!(delta("freqsel.plan_cache_misses"), 1);
    assert_eq!(delta("freqsel.plan_cache_hits"), 2);
}

#[test]
fn thousand_scenario_fleet_respects_capacity_and_stays_correct() {
    let _guard = GLOBAL_CACHE_LOCK.lock().unwrap();
    let cache = PlanCache::global();
    cache.clear();
    cache.reset_counters();
    cache.set_enabled(true);

    // A 1000-scenario fleet over 600 distinct array configs (seeds),
    // revisiting early configs at the tail: more distinct plans than
    // the global cache's capacity, so evictions must kick in, and the
    // revisits exercise the post-eviction recompute path.
    let fleet: Vec<ArraySpec> = (0..1000)
        .map(|i| {
            let seed = if i < 600 { i } else { i % 400 };
            optimizing_array(2, seed as u64)
        })
        .collect();

    for array in &fleet {
        let via_cache = array.cib(true);
        let direct = match &array.plan {
            FreqPlan::Optimize { spec, seed } => optimize(&spec.resolve(true), *seed).offsets_hz,
            _ => unreachable!(),
        };
        assert_eq!(
            bits(&via_cache.offsets_hz),
            bits(&direct),
            "cached plan diverged for seed scenario"
        );
    }

    let (hits, misses) = cache.counters();
    assert_eq!(hits + misses, 1000, "every consultation is counted");
    // 600 distinct keys: at least one miss each; the 400 revisits may
    // hit or (post-eviction) re-miss, but some locality must survive.
    assert!(misses >= 600, "misses {misses}");
    assert!(hits > 0, "no hits despite revisited configs");
    // Capacity is a hard bound even under churn.
    assert!(
        cache.len() <= 512,
        "cache grew past capacity: {}",
        cache.len()
    );
    cache.clear();
}

#[test]
fn shared_key_fleet_counts_one_miss_per_key_at_any_width() {
    let _guard = GLOBAL_CACHE_LOCK.lock().unwrap();
    let cache = PlanCache::global();
    cache.set_enabled(true);
    // 48 consultations over 4 keys, interleaved so every pool chunk
    // opens on a key the other workers are also about to miss. A search
    // a little heavier than `tiny_spec` widens the window in which two
    // workers both miss the same key and race to insert it.
    const KEYS: u64 = 4;
    let fleet: Vec<ArraySpec> = (0..48)
        .map(|i| {
            let mut array = optimizing_array(3, 1000 + i % KEYS);
            if let FreqPlan::Optimize { spec, .. } = &mut array.plan {
                spec.mc_draws = QuickFull::same(8);
                spec.grid = QuickFull::same(128);
                spec.iterations = QuickFull::same(20);
            }
            array
        })
        .collect();
    for width in [2usize, 8] {
        for run in 0..5 {
            cache.clear();
            cache.reset_counters();
            let plans = WorkerPool::global().map_move(fleet.clone(), width, |_, a| a.cib(true));
            assert_eq!(plans.len(), fleet.len());
            let (hits, misses) = cache.counters();
            assert_eq!(
                (hits, misses),
                (fleet.len() as u64 - KEYS, KEYS),
                "width {width} run {run}: one miss per distinct key"
            );
        }
    }
    cache.clear();
    cache.reset_counters();
}
