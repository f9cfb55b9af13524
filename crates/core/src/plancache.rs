//! Scenario-keyed frequency-plan cache.
//!
//! The Eq. 10 plan search ([`crate::freqsel::optimize`]) is the most
//! expensive per-scenario artifact in a campaign — hundreds of
//! microseconds to a handful of milliseconds against a sub-millisecond
//! scenario evaluation. Sweep and jitter fleets, however, share one
//! array configuration across hundreds of scenarios: the optimizer's
//! output depends *only* on the resolved [`FreqSelConfig`] and the seed,
//! never on body, placement, or EIRP. A [`PlanCache`] keyed by those
//! plan-relevant fields lets a fleet compute each distinct plan once.
//!
//! ## Keying (DESIGN.md §8)
//!
//! The key is the canonical JSON dump of the [`ArraySpec`] (antenna
//! count, plan source with spec + seed, carrier, grid) plus the
//! quick/full resolution flag — every input that can reach the
//! optimizer, and deliberately nothing else. Body tissue, tag
//! placement, EIRP and trial seeds are excluded *because they cannot
//! influence the offsets*: a depth sweep or an EIRP jitter fleet hits
//! the cache on every scenario after the first. Canonical JSON (fixed
//! field order, `f64::to_string` round-trip formatting) makes the key
//! stable across processes.
//!
//! ## Determinism
//!
//! `optimize` is a pure function of `(config, seed)`, so a cache hit
//! returns the byte-identical offsets a cold computation would produce
//! — pinned by `plan_cache_semantics` tests and the campaign
//! cold-vs-warm bench. Concurrent lookups of an absent key may race to
//! compute, but both compute the same value; the cache keeps the first
//! insert, which alone counts as the miss (the loser counts a hit), so
//! `misses` equals the number of keys inserted at any pool width.
//! Computation happens *outside* the lock so a slow search never
//! serializes unrelated lookups.
//!
//! [`FreqSelConfig`]: crate::freqsel::FreqSelConfig
//! [`ArraySpec`]: crate::scenario::ArraySpec

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A bounded, least-recently-used cache of frequency-plan offsets.
///
/// Thread-safe; lookups take a short mutex, plan computation runs
/// unlocked. Disable (for cold benchmarking) with
/// [`Self::set_enabled`] — a disabled cache computes every call and
/// records neither hits nor misses.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    enabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    /// Monotone logical clock driving LRU eviction.
    stamp: u64,
}

#[derive(Debug)]
struct Entry {
    offsets_hz: Vec<f64>,
    last_used: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity,
            enabled: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache consulted by
    /// [`crate::scenario::ArraySpec::cib`]. Sized for fleet-scale
    /// campaigns (hundreds of distinct array configs) while bounding
    /// memory under adversarial churn.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::new(512))
    }

    /// Returns the cached offsets for `key`, or computes, stores and
    /// returns them. `compute` must be a pure function of the key (the
    /// cache trusts it: a hit returns the stored value verbatim).
    pub fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
        if !self.enabled.load(Ordering::Relaxed) {
            return compute();
        }
        if let Some(hit) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ivn_runtime::obs_count!("freqsel.plan_cache_hits", 1);
            return hit;
        }
        // Compute outside the lock. A concurrent lookup of the same key
        // computes the same deterministic value; the first insert wins
        // and counts the miss, so a racing loser counts as a hit and the
        // counters repeat exactly run to run.
        let offsets = compute();
        if self.insert(key, &offsets) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            ivn_runtime::obs_count!("freqsel.plan_cache_misses", 1);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ivn_runtime::obs_count!("freqsel.plan_cache_hits", 1);
        }
        offsets
    }

    fn lookup(&self, key: &str) -> Option<Vec<f64>> {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.stamp += 1;
        let stamp = inner.stamp;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = stamp;
        Some(entry.offsets_hz.clone())
    }

    /// Stores `offsets_hz` under `key` unless it is already there;
    /// returns whether this call added the key.
    fn insert(&self, key: &str, offsets_hz: &[f64]) -> bool {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.stamp += 1;
        let stamp = inner.stamp;
        if inner.map.contains_key(key) {
            return false;
        }
        if inner.map.len() >= self.capacity {
            // Evict the least-recently-used entry.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                ivn_runtime::obs_count!("freqsel.plan_cache_evictions", 1);
            }
        }
        inner.map.insert(
            key.to_owned(),
            Entry {
                offsets_hz: offsets_hz.to_vec(),
                last_used: stamp,
            },
        );
        true
    }

    /// Plans currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters are kept; see
    /// [`Self::reset_counters`]).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.clear();
        inner.stamp = 0;
    }

    /// Enables or disables lookups; returns the previous setting.
    /// Disabled, [`Self::get_or_compute`] always computes — the cold
    /// path for cache-effect benchmarking.
    pub fn set_enabled(&self, enabled: bool) -> bool {
        self.enabled.swap(enabled, Ordering::Relaxed)
    }

    /// Lifetime `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Zeroes the hit/miss counters (cache contents are kept).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<f64> {
        (0..4).map(|k| (seed * 100 + k) as f64).collect()
    }

    #[test]
    fn hit_returns_stored_value_verbatim() {
        let cache = PlanCache::new(8);
        let cold = cache.get_or_compute("k", || plan(7));
        let warm = cache.get_or_compute("k", || panic!("must not recompute"));
        assert_eq!(
            cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_miss() {
        let cache = PlanCache::new(8);
        cache.get_or_compute("a", || plan(1));
        cache.get_or_compute("b", || plan(2));
        assert_eq!(cache.counters(), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = PlanCache::new(2);
        cache.get_or_compute("a", || plan(1));
        cache.get_or_compute("b", || plan(2));
        cache.get_or_compute("a", || panic!("a cached")); // refresh a
        cache.get_or_compute("c", || plan(3)); // evicts b (LRU)
        assert_eq!(cache.len(), 2);
        cache.get_or_compute("a", || panic!("a survived"));
        cache.get_or_compute("c", || panic!("c survived"));
        let mut recomputed = false;
        cache.get_or_compute("b", || {
            recomputed = true;
            plan(2)
        });
        assert!(recomputed, "b was evicted");
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache = PlanCache::new(8);
        cache.set_enabled(false);
        let mut calls = 0;
        for _ in 0..3 {
            cache.get_or_compute("k", || {
                calls += 1;
                plan(1)
            });
        }
        assert_eq!(calls, 3);
        assert_eq!(cache.counters(), (0, 0));
        assert!(cache.is_empty());
        assert!(!cache.set_enabled(true));
        cache.get_or_compute("k", || plan(1));
        assert_eq!(cache.counters(), (0, 1));
    }

    #[test]
    fn clear_and_reset() {
        let cache = PlanCache::new(8);
        cache.get_or_compute("k", || plan(1));
        cache.get_or_compute("k", || plan(1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.counters(), (1, 1));
        cache.reset_counters();
        assert_eq!(cache.counters(), (0, 0));
        let mut recomputed = false;
        cache.get_or_compute("k", || {
            recomputed = true;
            plan(1)
        });
        assert!(recomputed);
    }
}
