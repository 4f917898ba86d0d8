//! Sorted intrusive singly-linked list over an [`Arena`].
//!
//! This is the run-queue data structure of the scheduler substrate: entries
//! are kept sorted ascending by an `i64` key (credit in the credit2
//! scheduler — "the process with the least remaining credit first", §3.1 of
//! the paper). The *vanilla* resume path inserts each vCPU with
//! [`SortedList::insert_sorted`] (an O(n) scan per vCPU); the HORSE resume
//! path splices a whole pre-sorted list in O(1) with
//! [`crate::p2sm::MergePlan`].

use crate::arena::{Arena, NodeRef};

/// Handle to a sorted singly-linked list whose nodes live in a shared
/// [`Arena`]. Multiple lists may coexist in one arena (all run queues of a
/// scheduler share one), which is what makes O(1) splicing possible.
///
/// Invariants (checked by `debug_assert!` and the test suite):
/// * the chain from `head` has exactly `len` nodes and ends at `tail`;
/// * keys are non-decreasing along the chain;
/// * equal keys preserve insertion order (FIFO — new entries go after
///   existing equal keys, like a run queue).
///
/// # Example
///
/// ```
/// use horse_core::{Arena, SortedList};
///
/// let mut arena = Arena::new();
/// let mut rq = SortedList::new();
/// rq.insert_sorted(&mut arena, 30, "c");
/// rq.insert_sorted(&mut arena, 10, "a");
/// rq.insert_sorted(&mut arena, 20, "b");
/// let order: Vec<_> = rq.iter(&arena).map(|(_, k, v)| (k, *v)).collect();
/// assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortedList {
    head: Option<NodeRef>,
    tail: Option<NodeRef>,
    len: usize,
}

impl Default for SortedList {
    fn default() -> Self {
        Self::new()
    }
}

impl SortedList {
    /// Creates an empty list.
    pub const fn new() -> Self {
        Self {
            head: None,
            tail: None,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First node (smallest key), if any.
    pub fn head(&self) -> Option<NodeRef> {
        self.head
    }

    /// Last node (largest key), if any.
    pub fn tail(&self) -> Option<NodeRef> {
        self.tail
    }

    /// Inserts a new node keeping the list sorted (FIFO among equal keys)
    /// and returns it. The scan's key comparisons — the vanilla resume
    /// path's dominant cost (paper step ④) — are counted on the arena.
    pub fn insert_sorted<T>(&mut self, arena: &mut Arena<T>, key: i64, value: T) -> NodeRef {
        let node = arena.alloc(key, value);
        self.link_sorted(arena, node);
        node
    }

    /// Links an *already allocated* node into sorted position. Used both by
    /// [`Self::insert_sorted`] and when migrating nodes between lists
    /// without reallocating.
    pub fn link_sorted<T>(&mut self, arena: &Arena<T>, node: NodeRef) {
        let key = arena.key(node);
        // Find the last node with key <= `key` (scan counts comparisons).
        let mut prev: Option<NodeRef> = None;
        let mut cur = self.head;
        while let Some(c) = cur {
            arena.count_comparisons(1);
            if arena.key(c) > key {
                break;
            }
            prev = Some(c);
            cur = arena.next(c);
        }
        match prev {
            None => {
                arena.set_next(node, self.head);
                self.head = Some(node);
                arena.count_pointer_writes(1);
                if self.tail.is_none() {
                    self.tail = Some(node);
                }
            }
            Some(p) => {
                arena.set_next(node, arena.next(p));
                arena.set_next(p, Some(node));
                if self.tail == Some(p) {
                    self.tail = Some(node);
                    arena.count_pointer_writes(1);
                }
            }
        }
        self.len += 1;
    }

    /// Appends a new node at the tail and returns it: what
    /// [`Self::insert_sorted`] does for a key no smaller than every key
    /// in the list, in O(1) instead of a full scan. The arena counts what
    /// it executes: one allocation and one link write (the old tail's
    /// `next`, or the head handle of an empty list).
    ///
    /// # Panics
    ///
    /// Panics if `key` is smaller than the tail's key.
    pub fn push_back<T>(&mut self, arena: &mut Arena<T>, key: i64, value: T) -> NodeRef {
        assert!(
            self.tail.map_or(true, |t| arena.key(t) <= key),
            "push_back below the tail's key"
        );
        let node = arena.alloc(key, value);
        match self.tail {
            None => {
                self.head = Some(node);
                arena.count_pointer_writes(1);
            }
            Some(t) => arena.set_next(t, Some(node)),
        }
        self.tail = Some(node);
        self.len += 1;
        node
    }

    /// Removes and returns the front entry (smallest key).
    pub fn pop_front<T>(&mut self, arena: &mut Arena<T>) -> Option<(i64, T)> {
        let h = self.head?;
        self.head = arena.next(h);
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        arena.count_pointer_writes(1);
        Some(arena.free(h))
    }

    /// Unlinks the front node without freeing it, returning the node.
    pub fn unlink_front<T>(&mut self, arena: &Arena<T>) -> Option<NodeRef> {
        let h = self.head?;
        self.head = arena.next(h);
        if self.head.is_none() {
            self.tail = None;
        }
        self.len -= 1;
        arena.set_next(h, None);
        Some(h)
    }

    /// Unlinks (but does not free) the node `target`. O(n): singly-linked
    /// lists need the predecessor. Returns `true` if the node was found.
    pub fn unlink<T>(&mut self, arena: &Arena<T>, target: NodeRef) -> bool {
        let mut prev: Option<NodeRef> = None;
        let mut cur = self.head;
        while let Some(c) = cur {
            if c == target {
                let after = arena.next(c);
                match prev {
                    None => {
                        self.head = after;
                        arena.count_pointer_writes(1);
                    }
                    Some(p) => arena.set_next(p, after),
                }
                if self.tail == Some(c) {
                    self.tail = prev;
                }
                arena.set_next(c, None);
                self.len -= 1;
                return true;
            }
            prev = Some(c);
            cur = arena.next(c);
        }
        false
    }

    /// Removes the node `target` and frees it, returning its entry.
    /// Returns `None` if the node is not in this list.
    pub fn remove<T>(&mut self, arena: &mut Arena<T>, target: NodeRef) -> Option<(i64, T)> {
        if self.unlink(arena, target) {
            Some(arena.free(target))
        } else {
            None
        }
    }

    /// Removes and frees the first `n` nodes whose payload satisfies
    /// `is_target`, in **one** walk from the head that stops at the n-th
    /// match, handing each entry to `sink` in list order. Returns the
    /// number of nodes the walk visited (`is_target` runs once per
    /// visited node). Equivalent to `n` calls of [`Self::remove`] — same
    /// surviving list, same entries — without their `n` predecessor
    /// walks. The arena counts the frees; the relinks go through its link
    /// table, uncounted, since no price reads them.
    ///
    /// # Panics
    ///
    /// Panics if the list holds fewer than `n` matching nodes.
    pub fn remove_where<T>(
        &mut self,
        arena: &mut Arena<T>,
        n: usize,
        mut is_target: impl FnMut(&T) -> bool,
        mut sink: impl FnMut(i64, T),
    ) -> usize {
        let mut visited = 0;
        let mut removed = 0;
        let mut prev: Option<NodeRef> = None;
        let mut cur = self.head;
        while removed < n {
            let c = cur.expect("fewer matching nodes on the list than asked for");
            visited += 1;
            cur = arena.next(c);
            if !is_target(arena.value(c)) {
                prev = Some(c);
                continue;
            }
            match prev {
                None => self.head = cur,
                Some(p) => arena.links().set_next(p, cur),
            }
            if self.tail == Some(c) {
                self.tail = prev;
            }
            self.len -= 1;
            let (key, value) = arena.free(c);
            sink(key, value);
            removed += 1;
        }
        visited
    }

    /// Iterates over `(node, key, &value)` in sorted order.
    pub fn iter<'a, T>(&self, arena: &'a Arena<T>) -> Iter<'a, T> {
        Iter {
            arena,
            cur: self.head,
            remaining: self.len,
        }
    }

    /// Collects the keys in order (test/debug helper).
    pub fn keys<T>(&self, arena: &Arena<T>) -> Vec<i64> {
        self.iter(arena).map(|(_, k, _)| k).collect()
    }

    /// Verifies every structural invariant; used by tests and
    /// `debug_assert!` call sites. Returns an error description on
    /// violation.
    pub fn check_invariants<T>(&self, arena: &Arena<T>) -> Result<(), String> {
        let mut count = 0usize;
        let mut last_key = i64::MIN;
        let mut last_node = None;
        let mut cur = self.head;
        while let Some(c) = cur {
            if count > self.len {
                return Err(format!(
                    "cycle or length mismatch: walked {count} > len {}",
                    self.len
                ));
            }
            let k = arena.key(c);
            if k < last_key {
                return Err(format!("unsorted: {k} after {last_key}"));
            }
            last_key = k;
            last_node = Some(c);
            count += 1;
            cur = arena.next(c);
        }
        if count != self.len {
            return Err(format!("len {} but walked {count}", self.len));
        }
        if last_node != self.tail {
            return Err(format!("tail {:?} != last node {:?}", self.tail, last_node));
        }
        if self.len == 0 && (self.head.is_some() || self.tail.is_some()) {
            return Err("empty list with dangling head/tail".into());
        }
        Ok(())
    }

    /// Front entry's key and value without removing it.
    pub fn peek_front<'a, T>(&self, arena: &'a Arena<T>) -> Option<(i64, &'a T)> {
        self.head.map(|h| (arena.key(h), arena.value(h)))
    }

    /// Merges `other` into `self` with the classic two-pointer sorted
    /// merge walk — **O(n + m)** pointer relinks. This is the textbook
    /// baseline between the vanilla per-element insert (O(n·m)) and
    /// 𝒫²𝒮ℳ (O(1)); the hypervisors the paper patches use per-element
    /// insertion because vCPUs normally arrive one at a time, but the
    /// walk is the natural "smarter software" counter-proposal 𝒫²𝒮ℳ must
    /// also beat. It is also the resume path's fallback when a plan fails
    /// verification. Equal keys keep `self`'s elements first (FIFO).
    pub fn merge_walk<T>(&mut self, arena: &Arena<T>, other: SortedList) {
        let mut result_head: Option<NodeRef> = None;
        let mut result_tail: Option<NodeRef> = None;
        let mut a = self.head;
        let mut b = other.head;
        let mut append = |arena: &Arena<T>, node: NodeRef| {
            match result_tail {
                None => result_head = Some(node),
                Some(t) => arena.set_next(t, Some(node)),
            }
            result_tail = Some(node);
        };
        while let (Some(x), Some(y)) = (a, b) {
            arena.count_comparisons(1);
            if arena.key(x) <= arena.key(y) {
                a = arena.next(x);
                append(arena, x);
            } else {
                b = arena.next(y);
                append(arena, y);
            }
        }
        let mut rest = a.or(b);
        while let Some(node) = rest {
            rest = arena.next(node);
            append(arena, node);
        }
        if let Some(t) = result_tail {
            arena.set_next(t, None);
        }
        self.head = result_head;
        self.tail = result_tail;
        self.len += other.len;
    }

    /// Reassembles a list handle from raw parts (crate-internal: used by
    /// 𝒫²𝒮ℳ when reconstructing *A* from a torn-down plan).
    pub(crate) fn from_raw_parts(head: Option<NodeRef>, tail: Option<NodeRef>, len: usize) -> Self {
        Self { head, tail, len }
    }

    /// Overwrites the head handle during a 𝒫²𝒮ℳ head splice.
    pub(crate) fn set_head_for_splice(&mut self, head: Option<NodeRef>) {
        self.head = head;
    }

    /// Overwrites the tail handle during a 𝒫²𝒮ℳ tail-extending splice.
    pub(crate) fn set_tail_for_splice(&mut self, tail: Option<NodeRef>) {
        self.tail = tail;
    }

    /// Accounts elements added by a 𝒫²𝒮ℳ merge.
    pub(crate) fn add_len_for_splice(&mut self, n: usize) {
        self.len += n;
    }

    /// Drains the list, freeing every node and returning the entries in
    /// order.
    pub fn drain_all<T>(&mut self, arena: &mut Arena<T>) -> Vec<(i64, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(entry) = self.pop_front(arena) {
            out.push(entry);
        }
        out
    }
}

/// Iterator over a [`SortedList`]; see [`SortedList::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    arena: &'a Arena<T>,
    cur: Option<NodeRef>,
    remaining: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (NodeRef, i64, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let c = self.cur?;
        self.cur = self.arena.next(c);
        self.remaining = self.remaining.saturating_sub(1);
        Some((c, self.arena.key(c), self.arena.value(c)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: &[i64]) -> (Arena<i64>, SortedList) {
        let mut arena = Arena::new();
        let mut list = SortedList::new();
        for &k in keys {
            list.insert_sorted(&mut arena, k, k);
        }
        (arena, list)
    }

    #[test]
    fn empty_list() {
        let (arena, list) = build(&[]);
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.head(), None);
        assert_eq!(list.tail(), None);
        list.check_invariants(&arena).unwrap();
    }

    #[test]
    fn inserts_stay_sorted() {
        let (arena, list) = build(&[5, 1, 4, 2, 3]);
        assert_eq!(list.keys(&arena), vec![1, 2, 3, 4, 5]);
        list.check_invariants(&arena).unwrap();
    }

    #[test]
    fn equal_keys_are_fifo() {
        let mut arena = Arena::new();
        let mut list = SortedList::new();
        list.insert_sorted(&mut arena, 1, "first");
        list.insert_sorted(&mut arena, 1, "second");
        list.insert_sorted(&mut arena, 0, "zero");
        let vals: Vec<_> = list.iter(&arena).map(|(_, _, v)| *v).collect();
        assert_eq!(vals, vec!["zero", "first", "second"]);
    }

    #[test]
    fn pop_front_in_order() {
        let (mut arena, mut list) = build(&[3, 1, 2]);
        assert_eq!(list.pop_front(&mut arena), Some((1, 1)));
        assert_eq!(list.pop_front(&mut arena), Some((2, 2)));
        assert_eq!(list.pop_front(&mut arena), Some((3, 3)));
        assert_eq!(list.pop_front(&mut arena), None);
        assert!(list.is_empty());
        list.check_invariants(&arena).unwrap();
    }

    #[test]
    fn remove_middle_head_tail() {
        let (mut arena, mut list) = build(&[1, 2, 3]);
        let nodes: Vec<_> = list.iter(&arena).map(|(n, _, _)| n).collect();
        assert_eq!(list.remove(&mut arena, nodes[1]), Some((2, 2)));
        list.check_invariants(&arena).unwrap();
        assert_eq!(list.remove(&mut arena, nodes[0]), Some((1, 1)));
        list.check_invariants(&arena).unwrap();
        assert_eq!(list.remove(&mut arena, nodes[2]), Some((3, 3)));
        assert!(list.is_empty());
        list.check_invariants(&arena).unwrap();
    }

    #[test]
    fn remove_absent_returns_none() {
        let (mut arena, mut list) = build(&[1]);
        let n = list.head().unwrap();
        list.remove(&mut arena, n).unwrap();
        // n is now freed; a new single-element list reuses the slot.
        let mut other = SortedList::new();
        let m = other.insert_sorted(&mut arena, 9, 9);
        assert_eq!(list.remove(&mut arena, m), None);
        assert_eq!(other.len(), 1);
    }

    #[test]
    fn unlink_front_keeps_node_alive() {
        let (mut arena, mut list) = build(&[1, 2]);
        let n = list.unlink_front(&arena).unwrap();
        assert_eq!(arena.key(n), 1);
        assert_eq!(arena.next(n), None);
        assert_eq!(list.len(), 1);
        assert_eq!(arena.live(), 2);
        arena.free(n);
    }

    #[test]
    fn insert_counts_comparisons() {
        let (arena, _list) = build(&[1, 2, 3, 4]);
        let stats = arena.take_stats();
        // Each insert at the tail scans the whole existing list:
        // 0 + 1 + 2 + 3 comparisons.
        assert_eq!(stats.comparisons, 6);
        assert_eq!(stats.allocs, 4);
    }

    #[test]
    fn drain_all_frees_everything() {
        let (mut arena, mut list) = build(&[2, 1]);
        let drained = list.drain_all(&mut arena);
        assert_eq!(drained, vec![(1, 1), (2, 2)]);
        assert!(arena.is_empty());
        list.check_invariants(&arena).unwrap();
    }

    #[test]
    fn two_lists_share_one_arena() {
        let mut arena = Arena::new();
        let mut a = SortedList::new();
        let mut b = SortedList::new();
        a.insert_sorted(&mut arena, 1, 'a');
        b.insert_sorted(&mut arena, 2, 'b');
        a.insert_sorted(&mut arena, 3, 'c');
        assert_eq!(a.keys(&arena), vec![1, 3]);
        assert_eq!(b.keys(&arena), vec![2]);
        a.check_invariants(&arena).unwrap();
        b.check_invariants(&arena).unwrap();
    }

    #[test]
    fn iterator_size_hint() {
        let (arena, list) = build(&[1, 2, 3]);
        let it = list.iter(&arena);
        assert_eq!(it.size_hint(), (3, Some(3)));
        assert_eq!(it.count(), 3);
    }
}

#[cfg(test)]
mod merge_walk_tests {
    use super::*;

    fn build(arena: &mut Arena<i64>, keys: &[i64]) -> SortedList {
        let mut l = SortedList::new();
        for &k in keys {
            l.insert_sorted(arena, k, k);
        }
        l
    }

    #[test]
    fn interleaved_walk_merge() {
        let mut arena = Arena::new();
        let mut a = build(&mut arena, &[1, 3, 5]);
        let b = build(&mut arena, &[2, 4, 6]);
        a.merge_walk(&arena, b);
        assert_eq!(a.keys(&arena), vec![1, 2, 3, 4, 5, 6]);
        a.check_invariants(&arena).unwrap();
    }

    #[test]
    fn merge_walk_with_empty_sides() {
        let mut arena = Arena::new();
        let mut a = build(&mut arena, &[]);
        let b = build(&mut arena, &[1, 2]);
        a.merge_walk(&arena, b);
        assert_eq!(a.keys(&arena), vec![1, 2]);
        let c = build(&mut arena, &[]);
        a.merge_walk(&arena, c);
        assert_eq!(a.keys(&arena), vec![1, 2]);
        a.check_invariants(&arena).unwrap();
    }

    #[test]
    fn merge_walk_is_fifo_stable() {
        let mut arena = Arena::new();
        let mut a = SortedList::new();
        a.insert_sorted(&mut arena, 5, 100);
        let mut b = SortedList::new();
        b.insert_sorted(&mut arena, 5, 200);
        a.merge_walk(&arena, b);
        let vals: Vec<i64> = a.iter(&arena).map(|(_, _, v)| *v).collect();
        assert_eq!(vals, vec![100, 200], "self's equal keys come first");
    }

    #[test]
    fn peek_front_does_not_consume() {
        let mut arena = Arena::new();
        let l = build(&mut arena, &[7, 9]);
        assert_eq!(l.peek_front(&arena), Some((7, &7)));
        assert_eq!(l.len(), 2);
        let empty = SortedList::new();
        assert_eq!(empty.peek_front(&arena), None);
    }

    #[test]
    fn merge_walk_counts_linear_comparisons() {
        let mut arena = Arena::new();
        let mut a = build(&mut arena, &(0..32).map(|i| i * 2).collect::<Vec<_>>());
        let b = build(&mut arena, &(0..32).map(|i| i * 2 + 1).collect::<Vec<_>>());
        arena.take_stats();
        a.merge_walk(&arena, b);
        let cmp = arena.take_stats().comparisons;
        assert!(cmp <= 64, "O(n+m) comparisons, got {cmp}");
        assert!(cmp >= 32);
    }
}
