//! Scoped worker-pool parallelism for embarrassingly parallel ensembles.
//!
//! The paper's frequency-plan search (Eq. 10) and every evaluation figure
//! are Monte-Carlo ensembles: many independent trials whose results are
//! merged. [`par_map`] runs such work across a scoped worker pool built on
//! `std::thread::scope`; [`ensemble`] adds the seeding discipline — trial
//! `i` draws from RNG stream `i` forked off the ensemble seed — that makes
//! results **bit-identical at any worker-thread count** (verified by
//! `tests/determinism.rs`).
//!
//! Work distribution is dynamic (an atomic cursor), so uneven trial costs
//! load-balance; outputs are reassembled in input order regardless of
//! which worker produced them.

use crate::rng::StdRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count used by the convenience entry points: the
/// `IVN_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("IVN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` on `threads` workers, preserving input order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or one item) the
/// map runs inline on the caller's thread — the output is identical either
/// way as long as `f` is a pure function of its arguments.
///
/// # Panics
/// Re-raises the first panic from any worker.
pub fn par_map_threads<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Reassemble in input order.
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, v) in buckets.drain(..).flatten() {
        out[i] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every index produced exactly once"))
        .collect()
}

/// [`par_map_threads`] with the default worker count ([`num_threads`]).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// Runs `trials` Monte-Carlo trials in parallel on `threads` workers.
///
/// Trial `i` receives `StdRng::seed_from_u64(seed).fork(i)` and its index,
/// so the result vector depends only on `(seed, trials)` — never on the
/// thread count or scheduling.
pub fn ensemble_threads<U, F>(threads: usize, trials: usize, seed: u64, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(&mut StdRng, usize) -> U + Sync,
{
    let root = StdRng::seed_from_u64(seed);
    let indices: Vec<usize> = (0..trials).collect();
    par_map_threads(threads, &indices, |_, &i| {
        let mut rng = root.fork(i as u64);
        f(&mut rng, i)
    })
}

/// [`ensemble_threads`] with the default worker count ([`num_threads`]).
pub fn ensemble<U, F>(trials: usize, seed: u64, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(&mut StdRng, usize) -> U + Sync,
{
    ensemble_threads(num_threads(), trials, seed, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_threads(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_threads(4, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn ensemble_identical_across_thread_counts() {
        let reference = ensemble_threads(1, 100, 42, |rng, i| (i, rng.random::<f64>()));
        for threads in [2, 3, 8] {
            let out = ensemble_threads(threads, 100, 42, |rng, i| (i, rng.random::<f64>()));
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn ensemble_trials_use_distinct_streams() {
        let draws = ensemble_threads(1, 50, 1, |rng, _| rng.random::<u64>());
        let mut unique = draws.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), draws.len());
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map_threads(2, &[0usize, 1, 2, 3], |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
