//! Property-based tests for the *staged* 𝒫²𝒮ℳ protocol executed on real
//! threads: for any credit vectors and any worker count, the partitioned
//! parallel splice must produce a queue that is **multiset- and
//! order-identical** (FIFO-stable `(credit, payload)` sequence) to the
//! sequential `merge_walk` oracle, and the block partition must cover
//! every splice index exactly once.
//!
//! These are the concurrency-plane counterparts of `p2sm_properties.rs`:
//! that file checks the splice *semantics* of `MergePlan::merge` on the
//! calling thread; this one checks the same protocol (`stage` → `block`
//! → `execute_on` → `finish_staged`) split across real threads, the way
//! the VMM's `SplicePool` and the `splice_explore` check harness drive it.

use horse_core::{Arena, MergePlan, SortedList};
use proptest::prelude::*;

/// Payload bases distinguishing provenance in the order oracle: a merged
/// queue entry is `(credit, base + insertion index)`, so an order flip —
/// across lists or within one — changes the compared sequence.
const B_BASE: u64 = 1_000_000;
const A_BASE: u64 = 2_000_000;

fn build(arena: &mut Arena<u64>, keys: &[i64], payload_base: u64) -> SortedList {
    let mut l = SortedList::new();
    for (i, &k) in keys.iter().enumerate() {
        l.insert_sorted(arena, k, payload_base + i as u64);
    }
    l
}

fn contents(arena: &Arena<u64>, l: &SortedList) -> Vec<(i64, u64)> {
    l.iter(arena).map(|(_, k, p)| (k, *p)).collect()
}

/// The sequential oracle: an O(n+m) FIFO-stable merge walk.
fn oracle(b_keys: &[i64], a_keys: &[i64]) -> Vec<(i64, u64)> {
    let mut arena = Arena::new();
    let mut b = build(&mut arena, b_keys, B_BASE);
    let a = build(&mut arena, a_keys, A_BASE);
    b.merge_walk(&arena, a);
    b.check_invariants(&arena).unwrap();
    contents(&arena, &b)
}

/// Stages a plan and executes its node-splice blocks on `workers` real
/// scoped threads (empty blocks included, like the VMM's pool), then
/// finishes the merge and returns the queue's `(credit, payload)`
/// sequence.
fn staged_parallel_merge(b_keys: &[i64], a_keys: &[i64], workers: usize) -> Vec<(i64, u64)> {
    let mut arena = Arena::new();
    let mut b = build(&mut arena, b_keys, B_BASE);
    let a = build(&mut arena, a_keys, A_BASE);
    let plan = MergePlan::precompute(&arena, &b, a);
    {
        let staged = plan.stage(&b).unwrap();
        // The arena is `!Sync`: threads write through its link table.
        let links = arena.links();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let block = staged.block(w, workers);
                scope.spawn(move || block.execute_on(links));
            }
        });
    }
    let (report, _) = plan.finish_staged(&arena, &mut b);
    assert_eq!(report.merged, a_keys.len());
    b.check_invariants(&arena).unwrap();
    contents(&arena, &b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Real-thread parallel splice ≡ sequential merge walk, in multiset
    /// AND order, for arbitrary credit vectors and 1..=16 workers.
    /// Lengths start at 0, so the empty/empty, empty/non-empty and
    /// singleton shapes are all generated.
    #[test]
    fn parallel_splice_is_order_identical_to_sequential_merge(
        b_keys in proptest::collection::vec(-200i64..200, 0..64),
        a_keys in proptest::collection::vec(-200i64..200, 0..64),
        workers in 1usize..=16,
    ) {
        let expected = oracle(&b_keys, &a_keys);
        let got = staged_parallel_merge(&b_keys, &a_keys, workers);
        prop_assert_eq!(&got, &expected, "workers={}", workers);
        prop_assert_eq!(got.len(), b_keys.len() + a_keys.len());
    }

    /// Degenerate key shapes: all-same-key on either or both sides — the
    /// maximal-tie case where any instability or mis-anchored splice
    /// reorders payloads. A narrow 0..3 key range keeps interior ties
    /// dense even when the sides differ.
    #[test]
    fn parallel_splice_survives_all_equal_keys(
        key in -5i64..5,
        b_len in 0usize..24,
        a_len in 0usize..24,
        dense_b in proptest::collection::vec(0i64..3, 0..24),
        dense_a in proptest::collection::vec(0i64..3, 0..24),
        workers in 1usize..=16,
    ) {
        let b_keys = vec![key; b_len];
        let a_keys = vec![key; a_len];
        prop_assert_eq!(
            staged_parallel_merge(&b_keys, &a_keys, workers),
            oracle(&b_keys, &a_keys)
        );
        prop_assert_eq!(
            staged_parallel_merge(&dense_b, &dense_a, workers),
            oracle(&dense_b, &dense_a)
        );
    }

    /// Partition coverage: for any staged plan and any worker count, the
    /// per-worker block bounds tile `0..node_splice_count` exactly —
    /// contiguous, in order, no index dropped or claimed twice — and
    /// every splice index is owned by exactly one `block(w, workers)`.
    #[test]
    fn block_bounds_tile_the_splice_range_exactly(
        b_keys in proptest::collection::vec(-200i64..200, 0..48),
        a_keys in proptest::collection::vec(-200i64..200, 0..48),
        workers in 1usize..=16,
    ) {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_keys, B_BASE);
        let a = build(&mut arena, &a_keys, A_BASE);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            let n = staged.node_splice_count();
            let mut cursor = 0usize;
            let mut block_len_sum = 0usize;
            for w in 0..workers {
                let (start, end) = staged.block_bounds(w, workers);
                prop_assert!(start <= end, "w={} start={} end={}", w, start, end);
                // Blocks are contiguous: each starts where the previous
                // ended (clamped tails collapse to empty ranges at n).
                prop_assert_eq!(start, cursor, "w={}", w);
                cursor = end;
                let block = staged.block(w, workers);
                block_len_sum += block.len();
                // Execute the blocks one by one: if the tiling dropped or
                // double-claimed an index, the merged queue below diverges
                // from the oracle.
                block.execute_on(arena.links());
            }
            prop_assert_eq!(cursor, n, "partition must end at the range end");
            prop_assert_eq!(block_len_sum, n, "every index owned exactly once");
        }
        let (report, _) = plan.finish_staged(&arena, &mut b);
        prop_assert_eq!(report.merged, a_keys.len());
        b.check_invariants(&arena).map_err(TestCaseError::fail)?;
        prop_assert_eq!(contents(&arena, &b), oracle(&b_keys, &a_keys));
    }
}
