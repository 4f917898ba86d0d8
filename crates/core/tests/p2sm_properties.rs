//! Property-based tests for 𝒫²𝒮ℳ: for *any* pair of sorted lists, the
//! precomputed merge must be indistinguishable from a reference sorted
//! merge, and the plan must survive arbitrary sequences of incremental
//! updates. `p2sm_parallel.rs` runs the same merge split across threads.

use horse_core::{Arena, MergePlan, PlanCorruption, SortedList, SpliceMode};
use proptest::prelude::*;

fn build(arena: &mut Arena<u64>, keys: &[i64]) -> SortedList {
    let mut l = SortedList::new();
    for (i, &k) in keys.iter().enumerate() {
        l.insert_sorted(arena, k, i as u64);
    }
    l
}

fn reference_merge(b: &[i64], a: &[i64]) -> Vec<i64> {
    let mut v: Vec<i64> = b.iter().chain(a.iter()).copied().collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merge result equals a reference sorted merge for arbitrary inputs.
    #[test]
    fn merge_equals_reference(
        b_keys in proptest::collection::vec(-1000i64..1000, 0..64),
        a_keys in proptest::collection::vec(-1000i64..1000, 0..64),
    ) {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_keys);
        let a = build(&mut arena, &a_keys);
        let plan = MergePlan::precompute(&arena, &b, a);
        plan.check_consistent(&arena, &b).unwrap();
        let report = plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        prop_assert_eq!(report.merged, a_keys.len());
        b.check_invariants(&arena).map_err(TestCaseError::fail)?;
        prop_assert_eq!(b.keys(&arena), reference_merge(&b_keys, &a_keys));
        prop_assert_eq!(b.len(), b_keys.len() + a_keys.len());
    }

    /// Pointer writes are bounded by 2·splices + O(1), never by |A|·|B|.
    #[test]
    fn merge_cost_is_bounded_by_splices(
        b_keys in proptest::collection::vec(0i64..100, 1..64),
        a_keys in proptest::collection::vec(0i64..100, 1..64),
    ) {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_keys);
        let a = build(&mut arena, &a_keys);
        let plan = MergePlan::precompute(&arena, &b, a);
        let splices = plan.splice_count();
        let report = plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        prop_assert!(report.pointer_writes <= 2 * splices + 3);
        prop_assert!(splices <= a_keys.len());
    }

    /// The plan stays consistent and mergeable through arbitrary
    /// interleavings of incremental updates (B pop/push, A insert/remove).
    #[test]
    fn incremental_updates_preserve_consistency(
        b_init in proptest::collection::vec(0i64..500, 1..24),
        a_init in proptest::collection::vec(0i64..500, 1..24),
        ops in proptest::collection::vec((0u8..4, 0i64..500), 0..24),
    ) {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_init);
        let a = build(&mut arena, &a_init);
        let mut plan = MergePlan::precompute(&arena, &b, a);

        // Track expected multisets.
        let mut b_expect = b_init.clone();
        b_expect.sort();
        let mut a_expect = a_init.clone();
        a_expect.sort();

        for (op, key) in ops {
            match op {
                // B pops its front (vCPU dispatched off the queue).
                0 if b_expect.len() > 1 => {
                    b.pop_front(&mut arena);
                    plan.on_b_pop_front(&arena, &b);
                    b_expect.remove(0);
                }
                // B pushes at its back (only valid for keys >= current max).
                1 => {
                    let back = *b_expect.last().unwrap();
                    let k = back + (key % 50).abs();
                    let node = b.insert_sorted(&mut arena, k, 0);
                    plan.on_b_push_back(&arena, &b, node);
                    b_expect.push(k);
                }
                // A gains an element.
                2 => {
                    plan.insert_a(&mut arena, key, 0);
                    let pos = a_expect.partition_point(|&x| x <= key);
                    a_expect.insert(pos, key);
                }
                // A loses an element (if present).
                3 if plan.remove_a(&mut arena, key).is_some() => {
                    let pos = a_expect.iter().position(|&x| x == key).unwrap();
                    a_expect.remove(pos);
                }
                _ => {}
            }
            plan.check_consistent(&arena, &b).map_err(TestCaseError::fail)?;
        }

        prop_assert_eq!(plan.a_len(), a_expect.len());
        plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        b.check_invariants(&arena).map_err(TestCaseError::fail)?;
        let mut expect = b_expect;
        expect.extend(&a_expect);
        expect.sort();
        prop_assert_eq!(b.keys(&arena), expect);
    }

    /// Tearing a plan down reconstructs exactly the original A.
    #[test]
    fn into_list_roundtrip(
        b_keys in proptest::collection::vec(0i64..100, 0..32),
        a_keys in proptest::collection::vec(0i64..100, 0..32),
    ) {
        let mut arena = Arena::new();
        let b = build(&mut arena, &b_keys);
        let a = build(&mut arena, &a_keys);
        let mut sorted_a = a_keys.clone();
        sorted_a.sort();
        let plan = MergePlan::precompute(&arena, &b, a);
        let rebuilt = plan.into_list(&arena);
        rebuilt.check_invariants(&arena).map_err(TestCaseError::fail)?;
        prop_assert_eq!(rebuilt.keys(&arena), sorted_a);
    }
}

proptest! {
    /// Fallback soundness: every applicable corruption of a plan is
    /// *detected* by `check_consistent` — stale metadata never slips
    /// through to a splice — while `into_list` still reconstructs the
    /// original A exactly, so the vanilla sorted-merge fallback produces
    /// the same run-queue contents the fast path would have.
    #[test]
    fn corruption_is_detected_and_fallback_is_sound(
        b_keys in proptest::collection::vec(-500i64..500, 2..48),
        a_keys in proptest::collection::vec(-500i64..500, 1..48),
        which in 0usize..3,
    ) {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_keys);
        let a = build(&mut arena, &a_keys);
        let mut sorted_a = a_keys.clone();
        sorted_a.sort();

        let mut plan = MergePlan::precompute(&arena, &b, a);
        plan.check_consistent(&arena, &b).unwrap();

        // Apply the requested corruption; fall back to any applicable one
        // (applicability depends on the generated shape).
        let preferred = PlanCorruption::ALL[which];
        let applied = plan.corrupt(preferred)
            || PlanCorruption::ALL
                .into_iter()
                .any(|c| c != preferred && plan.corrupt(c));
        prop_assert!(applied, "no corruption was applicable");

        // Detection: the verification step must reject the plan.
        prop_assert!(
            plan.check_consistent(&arena, &b).is_err(),
            "corruption went undetected"
        );

        // Recovery: tearing the plan down still yields A exactly, and a
        // reference merge of B with it matches the clean-path result.
        let rebuilt = plan.into_list(&arena);
        rebuilt.check_invariants(&arena).map_err(TestCaseError::fail)?;
        prop_assert_eq!(rebuilt.keys(&arena), sorted_a);
        b.merge_walk(&arena, rebuilt);
        b.check_invariants(&arena).map_err(TestCaseError::fail)?;
        prop_assert_eq!(b.keys(&arena), reference_merge(&b_keys, &a_keys));
    }

    /// A plan that survived arbitrary incremental updates is still fully
    /// recoverable after corruption: detection plus vanilla fallback give
    /// the reference merge of the *updated* contents.
    #[test]
    fn corruption_after_updates_still_recovers(
        b_init in proptest::collection::vec(0i64..500, 2..16),
        a_init in proptest::collection::vec(0i64..500, 1..16),
        ops in proptest::collection::vec((0u8..4, 0i64..500), 0..16),
        which in 0usize..3,
    ) {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_init);
        let a = build(&mut arena, &a_init);
        let mut plan = MergePlan::precompute(&arena, &b, a);

        let mut b_expect = b_init.clone();
        b_expect.sort();
        let mut a_expect = a_init.clone();
        a_expect.sort();
        for (op, key) in ops {
            match op {
                0 if b_expect.len() > 1 => {
                    b.pop_front(&mut arena);
                    plan.on_b_pop_front(&arena, &b);
                    b_expect.remove(0);
                }
                1 => {
                    let back = *b_expect.last().unwrap();
                    let k = back + (key % 50).abs();
                    let node = b.insert_sorted(&mut arena, k, 0);
                    plan.on_b_push_back(&arena, &b, node);
                    b_expect.push(k);
                }
                2 => {
                    plan.insert_a(&mut arena, key, 0);
                    let pos = a_expect.partition_point(|&x| x <= key);
                    a_expect.insert(pos, key);
                }
                3 if plan.remove_a(&mut arena, key).is_some() => {
                    let pos = a_expect.iter().position(|&x| x == key).unwrap();
                    a_expect.remove(pos);
                }
                _ => {}
            }
        }
        plan.check_consistent(&arena, &b).map_err(TestCaseError::fail)?;

        let preferred = PlanCorruption::ALL[which];
        let applied = plan.corrupt(preferred)
            || PlanCorruption::ALL
                .into_iter()
                .any(|c| c != preferred && plan.corrupt(c));
        prop_assert!(applied, "no corruption was applicable");
        prop_assert!(plan.check_consistent(&arena, &b).is_err());

        let rebuilt = plan.into_list(&arena);
        prop_assert_eq!(rebuilt.keys(&arena), a_expect.clone());
        b.merge_walk(&arena, rebuilt);
        b.check_invariants(&arena).map_err(TestCaseError::fail)?;
        let mut expect = b_expect;
        expect.extend(&a_expect);
        expect.sort();
        prop_assert_eq!(b.keys(&arena), expect);
    }
}

proptest! {
    /// The O(n+m) merge walk is semantically identical to the reference
    /// merge (and therefore to the P2SM merge).
    #[test]
    fn merge_walk_equals_reference(
        a_keys in proptest::collection::vec(-500i64..500, 0..64),
        b_keys in proptest::collection::vec(-500i64..500, 0..64),
    ) {
        let mut arena = Arena::new();
        let mut a = build(&mut arena, &a_keys);
        let b = build(&mut arena, &b_keys);
        a.merge_walk(&arena, b);
        a.check_invariants(&arena).map_err(TestCaseError::fail)?;
        prop_assert_eq!(a.keys(&arena), reference_merge(&a_keys, &b_keys));
    }
}
