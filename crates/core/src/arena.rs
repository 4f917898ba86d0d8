//! Slab arena backing the intrusive linked lists.
//!
//! Kernel run queues are intrusive linked lists whose nodes are embedded in
//! the scheduled entities. In safe Rust we model this with an arena: nodes
//! live in a slab, and "pointers" are typed [`NodeRef`] indices. The `next`
//! pointer of every node is an atomic so the 𝒫²𝒮ℳ merge threads can splice
//! disjoint positions concurrently *without any unsafe code and without
//! mutual exclusion*, exactly as the paper's Algorithm 1 requires.
//!
//! The `next` words live apart from the payloads, in a dense [`LinkTable`]
//! behind an `Arc`: a thread other than the arena's owner writes the same
//! words the arena reads through the table — borrowed by a scoped merge
//! thread, cloned for the duration of one merge by a splice worker that
//! outlives every borrow.
//!
//! The arena also counts the operations performed on it (key comparisons,
//! next-pointer writes, allocations) — the deterministic cost model of
//! `horse-vmm` converts these counts into virtual nanoseconds. The
//! counters are plain single-writer [`Cell`]s, so the arena is `!Sync`
//! and the compiler enforces the one booking rule: **threads write
//! through a [`LinkTable`], the joiner counts.** Only the thread that
//! owns the arena can reach a counting method; whoever joins the other
//! threads books their writes once with [`Arena::count_pointer_writes`],
//! so [`ArenaStats`] reads the same whichever thread spliced.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Sentinel encoding of "null" inside the atomic next pointers.
const NIL: u32 = u32::MAX;

/// A typed index identifying a node inside an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The arena's intrusive `next` pointers, one word per slab slot, shared
/// by reference count so a thread that outlives any borrow of the
/// [`Arena`] can still splice.
///
/// A clone of [`Arena::links`] addresses the same words as the arena
/// until the arena next grows (growth installs a new, larger table). A
/// holder must therefore drop its clone before the arena is mutably
/// borrowed again — the splice pool's workers drop theirs before they
/// signal completion. Writes through the table are not counted in
/// [`ArenaStats`]; whoever joins the writers books them with
/// [`Arena::count_pointer_writes`].
#[derive(Debug, Clone)]
pub struct LinkTable(Arc<[AtomicU32]>);

impl LinkTable {
    fn with_len(len: usize) -> Self {
        Self((0..len).map(|_| AtomicU32::new(NIL)).collect())
    }

    /// A table of at least double the size with the same contents.
    fn grown(&self) -> Self {
        let old = &self.0;
        let len = (old.len() * 2).max(4);
        Self(
            (0..len)
                .map(|i| AtomicU32::new(old.get(i).map_or(NIL, |w| w.load(Ordering::Relaxed))))
                .collect(),
        )
    }

    /// Reads the next pointer of `r`.
    #[inline]
    pub fn next(&self, r: NodeRef) -> Option<NodeRef> {
        let raw = self.0[r.index()].load(Ordering::Relaxed);
        (raw != NIL).then_some(NodeRef(raw))
    }

    /// Writes the next pointer of `r`.
    #[inline]
    pub fn set_next(&self, r: NodeRef, next: Option<NodeRef>) {
        self.0[r.index()].store(next.map_or(NIL, |n| n.0), Ordering::Relaxed);
    }
}

/// Counters of the primitive operations performed on the arena.
///
/// These are the quantities the paper's resume-cost breakdown is made of:
/// sorted-insert comparisons (step ④ vanilla), pointer writes (step ④
/// 𝒫²𝒮ℳ), and allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Sort-key comparisons performed by list scans.
    pub comparisons: u64,
    /// Writes to intrusive `next` pointers (including head/tail updates).
    pub pointer_writes: u64,
    /// Node allocations.
    pub allocs: u64,
    /// Node deallocations.
    pub frees: u64,
}

impl std::ops::Sub for ArenaStats {
    type Output = ArenaStats;

    /// Operations counted between two [`Arena::stats`] snapshots
    /// (`later - earlier`), for callers that cost one phase without
    /// resetting the counters under everyone else.
    fn sub(self, earlier: ArenaStats) -> ArenaStats {
        ArenaStats {
            comparisons: self.comparisons - earlier.comparisons,
            pointer_writes: self.pointer_writes - earlier.pointer_writes,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
        }
    }
}

/// A slab arena of list nodes carrying an `i64` sort key and a payload `T`.
///
/// # Example
///
/// ```
/// use horse_core::Arena;
///
/// let mut arena: Arena<&str> = Arena::new();
/// let n = arena.alloc(10, "vcpu0");
/// assert_eq!(arena.key(n), 10);
/// assert_eq!(*arena.value(n), "vcpu0");
/// assert_eq!(arena.live(), 1);
/// let (k, v) = arena.free(n);
/// assert_eq!((k, v), (10, "vcpu0"));
/// assert_eq!(arena.live(), 0);
/// ```
///
/// The arena is `Send` but not `Sync` — its counters have one writer:
///
/// ```compile_fail
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<horse_core::Arena<u32>>();
/// ```
#[derive(Debug)]
pub struct Arena<T> {
    /// Node payloads; `None` while the slot is on the free list.
    slots: Vec<Option<(i64, T)>>,
    /// `next` word of every slot (always at least `slots.len()` long).
    links: LinkTable,
    free_list: Vec<u32>,
    live: usize,
    // Operation counters: single-writer `Cell`s, which also make the
    // arena `!Sync` — a thread that cannot count must write through a
    // [`LinkTable`] clone instead (see the module docs).
    comparisons: Cell<u64>,
    pointer_writes: Cell<u64>,
    allocs: Cell<u64>,
    frees: Cell<u64>,
}

/// `counter += n` on a single-writer counter.
#[inline]
fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an arena with room for `cap` nodes before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            links: LinkTable::with_len(cap),
            free_list: Vec::new(),
            live: 0,
            comparisons: Cell::new(0),
            pointer_writes: Cell::new(0),
            allocs: Cell::new(0),
            frees: Cell::new(0),
        }
    }

    /// Number of live (allocated, not freed) nodes.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether the arena has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocates a node, reusing freed slots when possible.
    pub fn alloc(&mut self, key: i64, value: T) -> NodeRef {
        bump(&self.allocs, 1);
        self.live += 1;
        if let Some(idx) = self.free_list.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.is_none(), "free-list slot was live");
            *slot = Some((key, value));
            self.links.set_next(NodeRef(idx), None);
            NodeRef(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 indices");
            assert_ne!(idx, NIL, "arena full");
            if self.slots.len() == self.links.0.len() {
                // No splice worker holds a clone here: they drop theirs
                // before the merge that lent it returns, and `&mut self`
                // proves that merge is over.
                debug_assert_eq!(Arc::strong_count(&self.links.0), 1);
                self.links = self.links.grown();
            }
            self.slots.push(Some((key, value)));
            NodeRef(idx)
        }
    }

    /// Frees a node, returning its key and payload.
    ///
    /// # Panics
    ///
    /// Panics if the node was already freed (use-after-free guard).
    pub fn free(&mut self, r: NodeRef) -> (i64, T) {
        let node = self.slots[r.index()]
            .take()
            .expect("double free of arena node");
        self.links.set_next(r, None);
        self.free_list.push(r.0);
        self.live -= 1;
        bump(&self.frees, 1);
        node
    }

    /// Sort key of a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node was freed.
    pub fn key(&self, r: NodeRef) -> i64 {
        self.slots[r.index()].as_ref().expect("freed node").0
    }

    /// Shared reference to the payload of a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node was freed.
    pub fn value(&self, r: NodeRef) -> &T {
        &self.slots[r.index()].as_ref().expect("freed node").1
    }

    /// Exclusive reference to the payload of a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node was freed.
    pub fn value_mut(&mut self, r: NodeRef) -> &mut T {
        &mut self.slots[r.index()].as_mut().expect("freed node").1
    }

    /// Reads the intrusive next pointer of `r`.
    pub fn next(&self, r: NodeRef) -> Option<NodeRef> {
        self.links.next(r)
    }

    /// Writes the intrusive next pointer of `r`.
    ///
    /// Counted as one pointer write, so only the arena's owning thread can
    /// call it; 𝒫²𝒮ℳ merge threads splice *disjoint* nodes concurrently
    /// through [`Self::links`] instead.
    pub fn set_next(&self, r: NodeRef, next: Option<NodeRef>) {
        bump(&self.pointer_writes, 1);
        self.links.set_next(r, next);
    }

    /// The arena's `next` words, uncounted and `Sync`: what a thread other
    /// than the owner splices through. A thread that cannot borrow the
    /// arena takes a clone (see [`LinkTable`] for the drop-before-`&mut`
    /// rule).
    #[inline]
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// Books `n` pointer writes not made through [`Self::set_next`]:
    /// head/tail handle updates, and writes made through [`Self::links`]
    /// — so [`ArenaStats`] reads the same whichever thread spliced.
    #[inline]
    pub fn count_pointer_writes(&self, n: u64) {
        bump(&self.pointer_writes, n);
    }

    /// Counts `n` key comparisons (called by list scans).
    #[inline]
    pub(crate) fn count_comparisons(&self, n: u64) {
        bump(&self.comparisons, n);
    }

    /// Returns the accumulated operation counters and resets them to zero.
    pub fn take_stats(&self) -> ArenaStats {
        ArenaStats {
            comparisons: self.comparisons.take(),
            pointer_writes: self.pointer_writes.take(),
            allocs: self.allocs.take(),
            frees: self.frees.take(),
        }
    }

    /// Reads the accumulated operation counters without resetting them.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            comparisons: self.comparisons.get(),
            pointer_writes: self.pointer_writes.get(),
            allocs: self.allocs.get(),
            frees: self.frees.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a: Arena<String> = Arena::new();
        let n = a.alloc(5, "x".into());
        assert_eq!(a.key(n), 5);
        assert_eq!(a.value(n), "x");
        *a.value_mut(n) = "y".into();
        let (k, v) = a.free(n);
        assert_eq!((k, v.as_str()), (5, "y"));
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_reused() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        a.free(n1);
        let n2 = a.alloc(2, 2);
        assert_eq!(n1, n2, "freed slot must be reused");
        assert_eq!(a.live(), 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a: Arena<u32> = Arena::new();
        let n = a.alloc(1, 1);
        a.free(n);
        a.free(n);
    }

    #[test]
    #[should_panic(expected = "freed node")]
    fn use_after_free_panics() {
        let mut a: Arena<u32> = Arena::new();
        let n = a.alloc(1, 1);
        a.free(n);
        a.key(n);
    }

    #[test]
    fn next_pointers() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        assert_eq!(a.next(n1), None);
        a.set_next(n1, Some(n2));
        assert_eq!(a.next(n1), Some(n2));
        a.set_next(n1, None);
        assert_eq!(a.next(n1), None);
    }

    #[test]
    fn freeing_clears_next() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        a.set_next(n1, Some(n2));
        a.free(n1);
        let n3 = a.alloc(3, 3);
        assert_eq!(n3, n1);
        assert_eq!(a.next(n3), None, "recycled slot must not leak next ptr");
    }

    #[test]
    fn stats_count_operations() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        a.set_next(n1, Some(n2));
        a.free(n2);
        let s = a.take_stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.pointer_writes, 1);
        assert_eq!(s.frees, 1);
        // take_stats resets.
        assert_eq!(a.stats(), ArenaStats::default());
    }

    #[test]
    fn snapshot_difference_counts_one_phase() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let before = a.stats();
        let n2 = a.alloc(2, 2);
        a.set_next(n1, Some(n2));
        let phase = a.stats() - before;
        assert_eq!((phase.allocs, phase.pointer_writes), (1, 1));
        assert_eq!(a.stats().allocs, 2, "nothing was reset");
    }

    #[test]
    fn link_table_clone_shares_the_words_and_growth_keeps_them() {
        let mut a: Arena<u32> = Arena::with_capacity(2);
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        {
            let links = a.links().clone();
            links.set_next(n1, Some(n2));
            assert_eq!(a.next(n1), Some(n2), "the arena reads a clone's write");
            a.set_next(n2, Some(n1));
            assert_eq!(links.next(n2), Some(n1), "and the clone the arena's");
            assert_eq!(a.stats().pointer_writes, 1, "clone writes are uncounted");
            a.count_pointer_writes(1);
            assert_eq!(a.stats().pointer_writes, 2);
        }
        // Past the initial capacity: the table is replaced, links intact.
        let more: Vec<_> = (0..10).map(|i| a.alloc(i, 0)).collect();
        assert_eq!(a.next(n1), Some(n2));
        assert_eq!(a.next(n2), Some(n1));
        assert!(more.iter().all(|&n| a.next(n).is_none()));
    }

    #[test]
    fn parallel_set_next_is_safe() {
        // The property 𝒫²𝒮ℳ relies on: concurrent set_next on disjoint
        // nodes from scoped threads is race-free. The threads write
        // through the link table; the joiner counts.
        let mut a: Arena<u32> = Arena::new();
        let nodes: Vec<_> = (0..64).map(|i| a.alloc(i, i as u32)).collect();
        let links = a.links();
        crossbeam::scope(|s| {
            for pair in nodes.chunks(2) {
                let (from, to) = (pair[0], pair[1]);
                s.spawn(move |_| links.set_next(from, Some(to)));
            }
        })
        .unwrap();
        a.count_pointer_writes(32);
        for pair in nodes.chunks(2) {
            assert_eq!(a.next(pair[0]), Some(pair[1]));
        }
        assert_eq!(a.stats().pointer_writes, 32);
    }
}
