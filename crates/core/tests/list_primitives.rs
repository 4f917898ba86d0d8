//! The two list primitives of the linear pause against the operations
//! they replace: [`SortedList::push_back`] ≡ [`SortedList::insert_sorted`]
//! on non-decreasing keys, and [`SortedList::remove_where`] ≡ one
//! [`SortedList::remove`] per node — same list, same entries. The
//! counters may differ: each primitive counts only what it executes, and
//! the cost model prices the pause from its inputs, not from them.

use std::cell::Cell;

use horse_core::{Arena, NodeRef, SortedList};
use proptest::prelude::*;

/// Payload: `(owner, serial)` — `owner` is what a removal targets.
type Entry = (u8, u32);

fn chain(arena: &Arena<Entry>, l: &SortedList) -> Vec<(NodeRef, i64, Entry)> {
    l.iter(arena).map(|(n, k, v)| (n, k, *v)).collect()
}

/// A queue of `(credit, owner)` entries inserted in the given order.
fn build_queue(entries: &[(i64, u8)]) -> (Arena<Entry>, SortedList, Vec<NodeRef>) {
    let mut arena = Arena::new();
    let mut list = SortedList::new();
    let nodes = entries
        .iter()
        .enumerate()
        .map(|(i, &(credit, owner))| list.insert_sorted(&mut arena, credit, (owner, i as u32)))
        .collect();
    (arena, list, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Key runs are generated as non-negative steps (0 = a duplicate), on
    /// top of a list that may already hold smaller keys.
    #[test]
    fn push_back_is_insert_sorted_on_non_decreasing_keys(
        prefix in proptest::collection::vec(-50i64..0, 0..8),
        steps in proptest::collection::vec(0i64..4, 0..48),
    ) {
        let run = |append: bool| {
            let mut arena: Arena<Entry> = Arena::new();
            let mut list = SortedList::new();
            for (i, &k) in prefix.iter().enumerate() {
                list.insert_sorted(&mut arena, k, (0, i as u32));
            }
            let mut key = 0;
            for (i, step) in steps.iter().enumerate() {
                key += step;
                let node = if append {
                    list.push_back(&mut arena, key, (1, i as u32))
                } else {
                    list.insert_sorted(&mut arena, key, (1, i as u32))
                };
                assert_eq!(list.tail(), Some(node));
            }
            list.check_invariants(&arena).unwrap();
            (chain(&arena, &list), list)
        };
        let (appended, appended_list) = run(true);
        let (inserted, inserted_list) = run(false);
        prop_assert_eq!(appended, inserted);
        prop_assert_eq!(appended_list, inserted_list); // head, tail, len
    }

    /// A queue shared by 1–4 owners; all of one owner's nodes — or only
    /// its first few — leave in one walk.
    #[test]
    fn remove_where_is_one_remove_per_node(
        entries in proptest::collection::vec((-20i64..20, 0u8..4), 1..64),
        target in 0u8..4,
        keep_last in 0usize..3,
    ) {
        let (mut walked, mut walked_list, _) = build_queue(&entries);
        let (mut looped, mut looped_list, nodes) = build_queue(&entries);
        // The nodes one walk takes: the first `n` of `target` in list order.
        let targets: Vec<NodeRef> = chain(&looped, &looped_list)
            .into_iter()
            .filter(|(_, _, (owner, _))| *owner == target)
            .map(|(node, _, _)| node)
            .collect();
        let n = targets.len().saturating_sub(keep_last);
        let last_position = chain(&looped, &looped_list)
            .iter()
            .position(|(node, _, _)| n > 0 && *node == targets[n - 1]);

        let calls = Cell::new(0usize);
        let mut taken = Vec::new();
        let visited = walked_list.remove_where(
            &mut walked,
            n,
            |(owner, _)| {
                calls.set(calls.get() + 1);
                *owner == target
            },
            |credit, entry| taken.push((credit, entry)),
        );
        // The per-node loop removes in *placement* (insertion) order.
        let mut removed = Vec::new();
        for node in nodes.iter().filter(|node| targets[..n].contains(node)) {
            removed.push(looped_list.remove(&mut looped, *node).expect("on the list"));
        }

        walked_list.check_invariants(&walked).unwrap();
        let survivors = |arena: &Arena<Entry>, l: &SortedList| -> Vec<(i64, Entry)> {
            l.iter(arena).map(|(_, k, v)| (k, *v)).collect()
        };
        prop_assert_eq!(survivors(&walked, &walked_list), survivors(&looped, &looped_list));
        prop_assert_eq!(walked_list.len(), looped_list.len());
        prop_assert_eq!(
            walked_list.tail().map(|t| *walked.value(t)),
            looped_list.tail().map(|t| *looped.value(t))
        );
        taken.sort_unstable();
        removed.sort_unstable();
        prop_assert_eq!(taken, removed);
        prop_assert_eq!(walked.live(), looped.live());
        // One step per node up to the n-th match, none after it.
        prop_assert_eq!(visited, calls.get());
        prop_assert_eq!(visited, last_position.map_or(0, |p| p + 1));
        prop_assert!(visited <= entries.len());
    }
}

#[test]
#[should_panic(expected = "fewer matching nodes")]
fn remove_where_panics_when_a_node_is_missing() {
    let (mut arena, mut list, _) = build_queue(&[(1, 0), (2, 1), (3, 0)]);
    list.remove_where(&mut arena, 3, |(owner, _)| *owner == 0, |_, _| {});
}

#[test]
#[should_panic(expected = "push_back below the tail's key")]
fn push_back_rejects_a_key_below_the_tail() {
    let (mut arena, mut list, _) = build_queue(&[(5, 0)]);
    list.push_back(&mut arena, 4, (0, 1));
}
