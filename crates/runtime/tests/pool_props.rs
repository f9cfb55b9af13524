//! Scheduling properties of the persistent worker pool.
//!
//! The repo-wide contract is that parallelism changes *when* the answer
//! arrives, never *what* it is. For the pool that means: chunked
//! work-stealing is deterministic (byte-identical results at 1/2/8
//! widths, regardless of which worker ran which chunk), reuse across
//! successive dispatches leaks no state between calls, degenerate
//! inputs (empty, one item) complete without deadlocking.

use ivn_runtime::pool::{chunk_size, WorkerPool};
use ivn_runtime::prop::any;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};

props! {
    cases = 48;

    fn map_indexed_identical_at_any_width(n in 0usize..300, seed in any::<u64>()) {
        let pool = WorkerPool::new(3);
        let f = move |i: usize| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            rng.random::<u64>()
        };
        let reference: Vec<u64> = (0..n).map(f).collect();
        for width in [1usize, 2, 8] {
            let got = pool.map_indexed(n, width, f);
            prop_assert_eq!(&got, &reference);
        }
    }

    fn map_move_identical_at_any_width(n in 0usize..200, seed in any::<u64>()) {
        let pool = WorkerPool::new(2);
        let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.rotate_left((i % 61) as u32))
            .collect();
        for width in [1usize, 2, 8] {
            let got = pool.map_move(items.clone(), width, |i, x: u64| {
                x.rotate_left((i % 61) as u32)
            });
            prop_assert_eq!(&got, &reference);
        }
    }

    fn reuse_leaks_no_state(rounds in 2usize..20, seed in any::<u64>()) {
        // Back-to-back dispatches of different shapes on one pool: each
        // call's output must depend only on that call's inputs, and the
        // pool must end each round fully drained.
        let pool = WorkerPool::new(2);
        for round in 0..rounds {
            let n = 1 + (seed as usize).wrapping_add(round * 37) % 90;
            let tag = seed.wrapping_add(round as u64);
            let got = pool.map_indexed(n, 8, move |i| tag.wrapping_mul(i as u64 + 1));
            let want: Vec<u64> = (0..n).map(|i| tag.wrapping_mul(i as u64 + 1)).collect();
            prop_assert_eq!(got, want);
        }
    }

    fn chunk_boundaries_are_pure(n in 0usize..100_000, width in 1usize..64) {
        // Determinism rests on chunking being a pure function of
        // (n, width): never zero, covers the range, ~4 chunks/worker.
        let c = chunk_size(n, width);
        prop_assert!(c >= 1);
        if n > 0 {
            let chunks = n.div_ceil(c);
            prop_assert!(chunks <= 4 * width + 1, "{} chunks for width {}", chunks, width);
            prop_assert!(chunks * c >= n);
        }
    }
}

#[test]
fn empty_and_single_inputs_complete() {
    let pool = WorkerPool::new(2);
    for width in [1usize, 2, 8] {
        let none: Vec<u32> = pool.map_indexed(0, width, |i| i as u32);
        assert!(none.is_empty());
        assert_eq!(pool.map_indexed(1, width, |i| i + 7), vec![7]);
        let empty_move: Vec<u32> = pool.map_move(Vec::<u32>::new(), width, |_, x| x);
        assert!(empty_move.is_empty());
        assert_eq!(pool.map_move(vec![9u32], width, |_, x| x * 2), vec![18]);
    }
}

#[test]
fn global_pool_survives_many_generations_of_dispatch() {
    // The global pool is shared by the campaign driver, the sdr carrier lanes and
    // the inventory fleet; hammer it with interleaved shapes.
    let pool = WorkerPool::global();
    for g in 0..50u64 {
        let a = pool.map_indexed(17, 8, move |i| g + i as u64);
        assert_eq!(a[16], g + 16);
        let b = pool.map_move((0..9u64).collect::<Vec<_>>(), 2, move |_, x| x * g);
        assert_eq!(b[8], 8 * g);
    }
}

#[test]
fn panicked_dispatch_leaves_pool_reusable() {
    let pool = WorkerPool::new(2);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.map_indexed(32, 8, |i| {
            assert!(i != 17, "boom");
            i
        })
    }));
    assert!(r.is_err());
    // The panic must not wedge workers or leave stale queue entries.
    assert_eq!(pool.map_indexed(5, 8, |i| i * 3), vec![0, 3, 6, 9, 12]);
}
