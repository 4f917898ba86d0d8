//! Concurrent warm-sandbox pools, every operation on `&self`.
//!
//! A single queue behind the platform's `&mut self` serializes every
//! `take`/`put`; under a multi-threaded front end that lock becomes the
//! bottleneck long before the resume path does. This pool shards its
//! entries so concurrent drivers proceed in parallel:
//!
//! * each shard keeps its warm entries on a **lock-free Treiber stack**
//!   over a fixed slab of nodes (an atomic head packed as
//!   `version << 32 | slot`, ABA-proofed by the version counter) — the
//!   uncontended `take`/`put` fast path is a handful of atomic ops and
//!   takes no lock at all;
//! * entries beyond a shard's slab capacity overflow into a small
//!   mutex-guarded deque (the cold path — reached only when a single
//!   function pools more than [`SHARD_COUNT`]` × `[`SLOTS_PER_SHARD`]
//!   sandboxes);
//! * statistics ([`PoolStats`]) and the keep-alive policy live on
//!   atomics, so readers never block writers.
//!
//! Each driver thread is pinned to a preferred shard (round-robin
//! assignment on first use), which keeps a single-threaded driver on
//! one shard — preserving the exact LIFO reuse order (and therefore the
//! bit-identical benchmark baseline) of a single queue whenever the
//! pool holds at most one shard's capacity.

use crate::pool::{KeepAlive, PoolStats};
use horse_sched::SandboxId;
use horse_sim::{SimDuration, SimTime};
use horse_telemetry::contention::{self, ContentionSite};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards per pool (power of two).
pub const SHARD_COUNT: usize = 8;

/// Lock-free slab slots per shard; puts beyond this spill to the
/// shard's mutex-guarded overflow deque.
pub const SLOTS_PER_SHARD: usize = 32;

/// Slot-index sentinel marking an empty stack.
const NIL: u64 = u32::MAX as u64;
/// Low 32 bits of a packed head word: the top-of-stack slot index.
const IDX_MASK: u64 = 0xFFFF_FFFF;

/// Keep-alive encoding on one atomic: `u64::MAX` means provisioned
/// (never expire), anything else is the TTL in nanoseconds.
const PROVISIONED: u64 = u64::MAX;

fn encode_keep_alive(policy: KeepAlive) -> u64 {
    match policy {
        KeepAlive::Provisioned => PROVISIONED,
        KeepAlive::Ttl(ttl) => ttl.as_nanos().min(PROVISIONED - 1),
    }
}

fn decode_keep_alive(raw: u64) -> KeepAlive {
    if raw == PROVISIONED {
        KeepAlive::Provisioned
    } else {
        KeepAlive::Ttl(SimDuration::from_nanos(raw))
    }
}

/// Whether an entry parked at `since_ns` has outlived the keep-alive
/// `ka` (encoded) by time `now_ns`. Entries stamped in the future count
/// as age zero.
fn expired(ka: u64, since_ns: u64, now_ns: u64) -> bool {
    ka != PROVISIONED && now_ns.saturating_sub(since_ns) > ka
}

/// The preferred shard of the calling thread. Driver threads are
/// handed shard slots round-robin on first use, so up to
/// [`SHARD_COUNT`] drivers start out contention-free; the assignment is
/// stable for the thread's lifetime, which keeps a single-threaded
/// driver on exactly one shard (strict LIFO within slab capacity).
fn shard_hint() -> usize {
    static NEXT_DRIVER: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT_DRIVER.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
            h.set(v);
        }
        v
    })
}

/// One slab slot. Payload stores are `Relaxed`; they are published by
/// the `Release` CAS that links the slot into the warm stack and read
/// after the `Acquire` load that observed it there.
#[derive(Debug)]
struct Slot {
    /// Index of the next slot down the stack (warm or free), `NIL` at
    /// the bottom.
    next: AtomicU64,
    /// The pooled sandbox id (valid only while on the warm stack).
    id: AtomicU64,
    /// Pause timestamp in nanoseconds (valid only while on the warm
    /// stack).
    since: AtomicU64,
}

/// Pops the top slot off a packed Treiber stack. The version half of
/// the head word changes on every successful push *and* pop, so a
/// concurrent recycle of the observed top slot (ABA) fails the CAS.
/// Failed CAS iterations are attributed to `site` when the profiling
/// plane is on ([`contention::cas_retry`] is free otherwise).
fn stack_pop(head: &AtomicU64, slots: &[Slot], site: ContentionSite) -> Option<u32> {
    let mut cur = head.load(Ordering::Acquire);
    let mut retries = 0u64;
    loop {
        let idx = cur & IDX_MASK;
        if idx == NIL {
            contention::cas_retry(site, retries);
            return None;
        }
        let next = slots[idx as usize].next.load(Ordering::Relaxed);
        let bumped = ((cur >> 32).wrapping_add(1) << 32) | next;
        match head.compare_exchange_weak(cur, bumped, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                contention::cas_retry(site, retries);
                return Some(idx as u32);
            }
            Err(seen) => {
                retries += 1;
                cur = seen;
            }
        }
    }
}

/// Pushes a slot the caller exclusively owns onto a packed Treiber
/// stack. The `Release` CAS publishes the slot's payload stores.
/// Failed CAS iterations are attributed to `site` like [`stack_pop`]'s.
fn stack_push(head: &AtomicU64, slots: &[Slot], idx: u32, site: ContentionSite) {
    let mut cur = head.load(Ordering::Relaxed);
    let mut retries = 0u64;
    loop {
        slots[idx as usize]
            .next
            .store(cur & IDX_MASK, Ordering::Relaxed);
        let bumped = ((cur >> 32).wrapping_add(1) << 32) | u64::from(idx);
        match head.compare_exchange_weak(cur, bumped, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => {
                contention::cas_retry(site, retries);
                return;
            }
            Err(seen) => {
                retries += 1;
                cur = seen;
            }
        }
    }
}

#[derive(Debug)]
struct Shard {
    /// Top of the warm stack (packed `version << 32 | slot`).
    warm_head: AtomicU64,
    /// Top of the free-slot stack (same packing).
    free_head: AtomicU64,
    slots: Vec<Slot>,
    /// Overflow beyond the slab: (sandbox, pause time), oldest first.
    cold: Mutex<VecDeque<(SandboxId, SimTime)>>,
    /// Cheap emptiness probe for `cold` so the take fast path never
    /// touches the mutex.
    cold_len: AtomicU64,
    /// Entries currently on the warm stack (occupancy gauge; racy under
    /// concurrency like every other probe here).
    warm_len: AtomicU64,
    /// Entries lazily expired by `take`, awaiting destruction by the
    /// platform. Counted pool-wide in `ShardedWarmPool::doomed_pending`.
    doomed: Mutex<Vec<SandboxId>>,
}

impl Shard {
    fn new() -> Self {
        let slots: Vec<Slot> = (0..SLOTS_PER_SHARD)
            .map(|i| Slot {
                // Free list threads every slot: i -> i+1 -> ... -> NIL.
                next: AtomicU64::new(if i + 1 < SLOTS_PER_SHARD {
                    (i + 1) as u64
                } else {
                    NIL
                }),
                id: AtomicU64::new(0),
                since: AtomicU64::new(0),
            })
            .collect();
        Self {
            warm_head: AtomicU64::new(NIL),
            free_head: AtomicU64::new(0),
            slots,
            cold: Mutex::new(VecDeque::new()),
            cold_len: AtomicU64::new(0),
            warm_len: AtomicU64::new(0),
            doomed: Mutex::new(Vec::new()),
        }
    }

    /// Drains the warm stack into `(slot, id, since)` triples, top
    /// first. The caller owns the popped slots. `warm_len` is left
    /// untouched: drains are transient (the caller restores survivors
    /// and accounts removals itself).
    fn drain_stack(&self) -> Vec<(u32, u64, u64)> {
        let mut out = Vec::new();
        while let Some(idx) = stack_pop(&self.warm_head, &self.slots, ContentionSite::WarmStackCas)
        {
            let slot = &self.slots[idx as usize];
            out.push((
                idx,
                slot.id.load(Ordering::Relaxed),
                slot.since.load(Ordering::Relaxed),
            ));
        }
        out
    }

    /// Restores drained survivors (in `drain_stack`'s top-first order)
    /// onto the warm stack, preserving their original LIFO order.
    fn restore_stack(&self, survivors: &[(u32, u64, u64)]) {
        for &(idx, _, _) in survivors.iter().rev() {
            stack_push(
                &self.warm_head,
                &self.slots,
                idx,
                ContentionSite::WarmStackCas,
            );
        }
    }
}

/// Atomic [`PoolStats`] mirror.
#[derive(Debug, Default)]
struct AtomicPoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicPoolStats {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A sharded, concurrently usable pool of paused warm sandboxes for
/// one function. Every operation takes `&self`.
///
/// Semantics — the contract `horse_check::spec::SpecPool` states: LIFO
/// reuse for cache warmth, lazy expiry on `take` (an expired sandbox is
/// never handed out), eager sweeps via
/// [`ShardedWarmPool::evict_expired_into`] — with one documented
/// relaxation: the strict *global* LIFO order is guaranteed only while
/// the pool holds at most one shard's slab ([`SLOTS_PER_SHARD`] entries)
/// per driver thread; beyond that, overflow entries interleave. Under
/// concurrent drivers the reuse order is inherently racy anyway.
///
/// # Example
///
/// ```
/// use horse_faas::{KeepAlive, ShardedWarmPool};
/// use horse_sched::SandboxId;
/// use horse_sim::{SimDuration, SimTime};
///
/// let pool = ShardedWarmPool::new(KeepAlive::Ttl(SimDuration::from_secs(60)));
/// pool.put(SandboxId::new(1), SimTime::ZERO); // note: &self
/// let t30 = SimTime::ZERO + SimDuration::from_secs(30);
/// assert_eq!(pool.take(t30), Some(SandboxId::new(1)));
/// ```
#[derive(Debug)]
pub struct ShardedWarmPool {
    shards: Vec<Shard>,
    /// Encoded keep-alive policy (`u64::MAX` = provisioned).
    keep_alive_ns: AtomicU64,
    /// Total pooled entries across shards (warm stacks + overflow).
    len: AtomicU64,
    /// Upper bound on the ids sitting in the shards' `doomed` lists —
    /// the emptiness probe that keeps [`Self::drain_doomed`] off all
    /// [`SHARD_COUNT`] mutexes when nothing was evicted (the `cold_len`
    /// idiom, pool-wide). Raised *before* an id is pushed and lowered
    /// *after* ids are removed, so a listed id is always counted: a
    /// drain racing a push may leave the id for the next drain but can
    /// never zero the count over it. `Relaxed` throughout — the lists
    /// themselves are published by their mutexes.
    doomed_pending: AtomicU64,
    stats: AtomicPoolStats,
}

impl ShardedWarmPool {
    /// Creates an empty pool with the given keep-alive policy.
    pub fn new(keep_alive: KeepAlive) -> Self {
        Self {
            shards: (0..SHARD_COUNT).map(|_| Shard::new()).collect(),
            keep_alive_ns: AtomicU64::new(encode_keep_alive(keep_alive)),
            len: AtomicU64::new(0),
            doomed_pending: AtomicU64::new(0),
            stats: AtomicPoolStats::default(),
        }
    }

    /// Number of pooled sandboxes (a racy snapshot under concurrency).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed) as usize
    }

    /// Whether the pool is empty (racy snapshot, like [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The active keep-alive policy.
    pub fn keep_alive(&self) -> KeepAlive {
        decode_keep_alive(self.keep_alive_ns.load(Ordering::Relaxed))
    }

    /// Changes the keep-alive policy (e.g. upgrading a plain keep-alive
    /// pool to provisioned concurrency). Pooled entries are kept.
    pub fn set_keep_alive(&self, keep_alive: KeepAlive) {
        self.keep_alive_ns
            .store(encode_keep_alive(keep_alive), Ordering::Relaxed);
    }

    /// Usage statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats.snapshot()
    }

    /// Returns a warm sandbox (most recently used first within the
    /// calling thread's shard), or `None` on a miss. Entries idle past
    /// the TTL are lazily evicted — `take` never hands out an expired
    /// sandbox; the platform reaps them via [`Self::drain_doomed`].
    pub fn take(&self, now: SimTime) -> Option<SandboxId> {
        let now_ns = now.as_nanos();
        let ka = self.keep_alive_ns.load(Ordering::Relaxed);
        let start = shard_hint();
        for i in 0..SHARD_COUNT {
            let shard = &self.shards[(start + i) % SHARD_COUNT];
            // Overflow entries are newer than anything on the slab (a
            // put only spills once its shard's slab is full), so drain
            // them first to keep single-threaded reuse LIFO.
            if shard.cold_len.load(Ordering::Relaxed) > 0 {
                let mut cold =
                    contention::timed(ContentionSite::PoolColdOverflow, || shard.cold.lock());
                while let Some((id, since)) = cold.pop_back() {
                    shard.cold_len.fetch_sub(1, Ordering::Relaxed);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    if expired(ka, since.as_nanos(), now_ns) {
                        self.doom(shard, id);
                        continue;
                    }
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(id);
                }
            }
            while let Some(idx) =
                stack_pop(&shard.warm_head, &shard.slots, ContentionSite::WarmStackCas)
            {
                let slot = &shard.slots[idx as usize];
                let id = SandboxId::new(slot.id.load(Ordering::Relaxed));
                let since_ns = slot.since.load(Ordering::Relaxed);
                stack_push(
                    &shard.free_head,
                    &shard.slots,
                    idx,
                    ContentionSite::FreeStackCas,
                );
                shard.warm_len.fetch_sub(1, Ordering::Relaxed);
                self.len.fetch_sub(1, Ordering::Relaxed);
                if expired(ka, since_ns, now_ns) {
                    self.doom(shard, id);
                    continue;
                }
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Some(id);
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Returns a sandbox to the pool after an invocation (keep-alive
    /// clock restarts). Lands on the calling thread's shard; spills to
    /// the shard's overflow deque only when its slab is full.
    pub fn put(&self, id: SandboxId, now: SimTime) {
        let shard = &self.shards[shard_hint()];
        if let Some(idx) = stack_pop(&shard.free_head, &shard.slots, ContentionSite::FreeStackCas) {
            let slot = &shard.slots[idx as usize];
            slot.id.store(id.as_u64(), Ordering::Relaxed);
            slot.since.store(now.as_nanos(), Ordering::Relaxed);
            stack_push(
                &shard.warm_head,
                &shard.slots,
                idx,
                ContentionSite::WarmStackCas,
            );
            shard.warm_len.fetch_add(1, Ordering::Relaxed);
        } else {
            contention::timed(ContentionSite::PoolColdOverflow, || shard.cold.lock())
                .push_back((id, now));
            shard.cold_len.fetch_add(1, Ordering::Relaxed);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Hands an entry [`Self::take`] found expired to the shard's doomed
    /// list (both eviction sites go through here, so the pending count
    /// cannot drift from the lists).
    fn doom(&self, shard: &Shard, id: SandboxId) {
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        self.doomed_pending.fetch_add(1, Ordering::Relaxed);
        contention::timed(ContentionSite::PoolDoomedList, || shard.doomed.lock()).push(id);
    }

    /// Sandboxes lazily evicted by [`Self::take`] since the last drain:
    /// the caller owns their destruction. Touches no mutex (and does
    /// not allocate) while nothing is pending — the steady state of a
    /// provisioned pool.
    pub fn drain_doomed(&self) -> Vec<SandboxId> {
        let mut out = Vec::new();
        if self.doomed_pending.load(Ordering::Relaxed) == 0 {
            return out;
        }
        for shard in &self.shards {
            out.append(&mut contention::timed(
                ContentionSite::PoolDoomedList,
                || shard.doomed.lock(),
            ));
        }
        self.doomed_pending
            .fetch_sub(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Per-shard occupancy: `(warm slab entries, cold overflow depth)`
    /// in shard order — the queue-depth signal behind the per-shard
    /// pool gauges. A racy snapshot, like [`Self::len`].
    pub fn shard_occupancy(&self) -> [(u64, u64); SHARD_COUNT] {
        std::array::from_fn(|i| {
            let shard = &self.shards[i];
            (
                shard.warm_len.load(Ordering::Relaxed),
                shard.cold_len.load(Ordering::Relaxed),
            )
        })
    }

    /// Removes a specific sandbox from the pool (quarantine path),
    /// returning whether it was present. Slow path: briefly drains each
    /// shard's stack to inspect it.
    pub fn remove(&self, id: SandboxId) -> bool {
        let raw = id.as_u64();
        let mut found = false;
        for shard in &self.shards {
            let drained = shard.drain_stack();
            let mut survivors = Vec::with_capacity(drained.len());
            for entry in drained {
                if !found && entry.1 == raw {
                    found = true;
                    stack_push(
                        &shard.free_head,
                        &shard.slots,
                        entry.0,
                        ContentionSite::FreeStackCas,
                    );
                    shard.warm_len.fetch_sub(1, Ordering::Relaxed);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                } else {
                    survivors.push(entry);
                }
            }
            shard.restore_stack(&survivors);
            if found {
                return true;
            }
            let mut cold =
                contention::timed(ContentionSite::PoolColdOverflow, || shard.cold.lock());
            let before = cold.len();
            cold.retain(|&(e, _)| e != id);
            let removed = before - cold.len();
            if removed > 0 {
                shard.cold_len.fetch_sub(removed as u64, Ordering::Relaxed);
                self.len.fetch_sub(removed as u64, Ordering::Relaxed);
                return true;
            }
        }
        found
    }

    /// Removes every sandbox idle past the TTL, appending them to `buf`
    /// for the caller to destroy (the reuse-buffer sweep — no per-sweep
    /// allocation). Provisioned pools never evict, and an empty pool has
    /// nothing to sweep (every function owns both of its pools from
    /// registration, used or not).
    pub fn evict_expired_into(&self, now: SimTime, buf: &mut Vec<SandboxId>) {
        let ka = self.keep_alive_ns.load(Ordering::Relaxed);
        if ka == PROVISIONED || self.is_empty() {
            return;
        }
        let now_ns = now.as_nanos();
        for shard in &self.shards {
            let drained = shard.drain_stack();
            let mut survivors = Vec::with_capacity(drained.len());
            for entry in drained {
                if expired(ka, entry.2, now_ns) {
                    buf.push(SandboxId::new(entry.1));
                    stack_push(
                        &shard.free_head,
                        &shard.slots,
                        entry.0,
                        ContentionSite::FreeStackCas,
                    );
                    shard.warm_len.fetch_sub(1, Ordering::Relaxed);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                } else {
                    survivors.push(entry);
                }
            }
            shard.restore_stack(&survivors);
            let mut cold =
                contention::timed(ContentionSite::PoolColdOverflow, || shard.cold.lock());
            let before = cold.len();
            cold.retain(|&(e, since)| {
                let keep = !expired(ka, since.as_nanos(), now_ns);
                if !keep {
                    buf.push(e);
                }
                keep
            });
            let evicted = (before - cold.len()) as u64;
            if evicted > 0 {
                shard.cold_len.fetch_sub(evicted, Ordering::Relaxed);
                self.len.fetch_sub(evicted, Ordering::Relaxed);
                self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Allocating convenience wrapper over [`Self::evict_expired_into`].
    pub fn evict_expired(&self, now: SimTime) -> Vec<SandboxId> {
        let mut out = Vec::new();
        self.evict_expired_into(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn take_is_lifo_for_cache_warmth() {
        let p = ShardedWarmPool::new(KeepAlive::default_ttl());
        p.put(SandboxId::new(1), t(0));
        p.put(SandboxId::new(2), t(1));
        assert_eq!(p.take(t(2)), Some(SandboxId::new(2)));
        assert_eq!(p.take(t(2)), Some(SandboxId::new(1)));
        assert_eq!(p.take(t(2)), None);
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn lifo_survives_slab_overflow_single_threaded() {
        let p = ShardedWarmPool::new(KeepAlive::default_ttl());
        let n = SLOTS_PER_SHARD as u64 + 10;
        for i in 0..n {
            p.put(SandboxId::new(i), t(i));
        }
        assert_eq!(p.len(), n as usize);
        for i in (0..n).rev() {
            assert_eq!(p.take(t(n)), Some(SandboxId::new(i)), "entry {i}");
        }
        assert!(p.is_empty());
    }

    #[test]
    fn take_never_hands_out_expired_entries() {
        let p = ShardedWarmPool::new(KeepAlive::Ttl(SimDuration::from_secs(100)));
        p.put(SandboxId::new(1), t(0));
        p.put(SandboxId::new(2), t(90));
        assert_eq!(p.take(t(150)), Some(SandboxId::new(2)), "2 is still warm");
        assert_eq!(p.take(t(150)), None, "1 expired at t=100");
        let s = p.stats();
        assert_eq!(s.evictions, 1, "lazy eviction is counted");
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(p.drain_doomed(), vec![SandboxId::new(1)]);
        assert!(p.drain_doomed().is_empty(), "drain is one-shot");
    }

    #[test]
    fn both_eviction_sites_feed_the_pending_count() {
        // Fill past the slab so the expired entries sit in the cold
        // overflow *and* on the warm stack: `take` evicts from both.
        let p = ShardedWarmPool::new(KeepAlive::Ttl(SimDuration::from_secs(100)));
        let n = SLOTS_PER_SHARD as u64 + 3;
        for i in 0..n {
            p.put(SandboxId::new(i), t(0));
        }
        assert_eq!(p.doomed_pending.load(Ordering::Relaxed), 0);
        assert_eq!(p.take(t(500)), None, "everything expired");
        assert_eq!(p.doomed_pending.load(Ordering::Relaxed), n);
        let mut doomed = p.drain_doomed();
        doomed.sort_unstable();
        let expected: Vec<SandboxId> = (0..n).map(SandboxId::new).collect();
        assert_eq!(doomed, expected, "cold-overflow and slab evictions alike");
        assert_eq!(p.doomed_pending.load(Ordering::Relaxed), 0);
        assert!(p.drain_doomed().is_empty(), "drain is one-shot");
        assert_eq!(p.stats().evictions, n);
    }

    #[test]
    fn an_idle_drain_touches_no_mutex() {
        // Hold every shard's doomed lock: a drain that reached for any
        // of them would block until the guards drop.
        let p = ShardedWarmPool::new(KeepAlive::Provisioned);
        p.put(SandboxId::new(1), t(0));
        assert_eq!(p.take(t(1)), Some(SandboxId::new(1)));
        let guards: Vec<_> = p.shards.iter().map(|s| s.doomed.lock()).collect();
        let (done, drained) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| done.send(p.drain_doomed()).unwrap());
            let doomed = drained.recv_timeout(std::time::Duration::from_secs(10));
            drop(guards);
            assert_eq!(doomed, Ok(Vec::new()), "the drain blocked on a mutex");
        });
    }

    /// A drain racing `take`'s pushes may miss an id, but only until
    /// the next drain: the pending count is raised before the push and
    /// lowered after the removal, so it never reads zero over a listed
    /// id.
    #[test]
    fn racing_drains_never_lose_a_doomed_id() {
        let pool = Arc::new(ShardedWarmPool::new(KeepAlive::Ttl(
            SimDuration::from_nanos(1),
        )));
        let evictors = 3u64;
        let per_evictor = 4_000u64;
        let start = Arc::new(std::sync::Barrier::new(evictors as usize + 1));
        let handles: Vec<_> = (0..evictors)
            .map(|e| {
                let (pool, start) = (Arc::clone(&pool), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..per_evictor {
                        // Parked at 0, taken at 10 ns: expired on sight.
                        pool.put(SandboxId::new(e * per_evictor + i), SimTime::ZERO);
                        assert_eq!(pool.take(SimTime::from_nanos(10)), None);
                    }
                })
            })
            .collect();
        start.wait();
        let mut reaped: Vec<u64> = Vec::new();
        while handles.iter().any(|h| !h.is_finished()) {
            reaped.extend(pool.drain_doomed().iter().map(|id| id.as_u64()));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Quiescent now: whatever a racing drain left behind is still
        // counted, so this last drain finds it.
        reaped.extend(pool.drain_doomed().iter().map(|id| id.as_u64()));
        assert!(pool.drain_doomed().is_empty());
        assert_eq!(pool.doomed_pending.load(Ordering::Relaxed), 0);
        reaped.sort_unstable();
        let expected: Vec<u64> = (0..evictors * per_evictor).collect();
        assert_eq!(reaped, expected, "every evicted id reaped exactly once");
    }

    #[test]
    fn remove_quarantines_a_specific_entry() {
        let p = ShardedWarmPool::new(KeepAlive::default_ttl());
        p.put(SandboxId::new(1), t(0));
        p.put(SandboxId::new(2), t(0));
        assert!(p.remove(SandboxId::new(1)));
        assert!(!p.remove(SandboxId::new(1)), "already gone");
        assert_eq!(p.take(t(1)), Some(SandboxId::new(2)));
        assert_eq!(p.take(t(1)), None);
    }

    #[test]
    fn eviction_sweep_reuses_the_buffer() {
        let p = ShardedWarmPool::new(KeepAlive::Ttl(SimDuration::from_secs(100)));
        p.put(SandboxId::new(1), t(0));
        p.put(SandboxId::new(2), t(50));
        let mut buf = Vec::new();
        p.evict_expired_into(t(99), &mut buf);
        assert!(buf.is_empty());
        p.evict_expired_into(t(101), &mut buf);
        assert_eq!(buf, vec![SandboxId::new(1)]);
        p.evict_expired_into(t(151), &mut buf);
        assert_eq!(buf, vec![SandboxId::new(1), SandboxId::new(2)], "appends");
        assert!(p.is_empty());
        assert_eq!(p.stats().evictions, 2);
    }

    #[test]
    fn provisioned_pools_never_expire() {
        let p = ShardedWarmPool::new(KeepAlive::Provisioned);
        p.put(SandboxId::new(7), t(0));
        assert!(p.evict_expired(t(1_000_000)).is_empty());
        assert_eq!(p.len(), 1);
        assert_eq!(p.keep_alive(), KeepAlive::Provisioned);
    }

    #[test]
    fn policy_upgrade_is_visible() {
        let p = ShardedWarmPool::new(KeepAlive::default_ttl());
        assert_eq!(p.keep_alive(), KeepAlive::default_ttl());
        p.set_keep_alive(KeepAlive::Provisioned);
        assert_eq!(p.keep_alive(), KeepAlive::Provisioned);
    }

    #[test]
    fn shard_count_matches_the_gauge_vocabulary() {
        // The per-shard occupancy/cold-depth gauges in horse-telemetry
        // are a closed vocabulary sized for this pool's shard count.
        assert_eq!(SHARD_COUNT, horse_telemetry::counters::POOL_GAUGE_SHARDS);
    }

    #[test]
    fn shard_occupancy_tracks_slab_and_overflow() {
        let p = ShardedWarmPool::new(KeepAlive::default_ttl());
        let occ_sum = |p: &ShardedWarmPool| -> (u64, u64) {
            p.shard_occupancy()
                .iter()
                .fold((0, 0), |(w, c), &(sw, sc)| (w + sw, c + sc))
        };
        assert_eq!(occ_sum(&p), (0, 0));
        // Fill past one shard's slab so the overflow deque is exercised
        // (single-threaded drivers stay on one shard).
        let n = SLOTS_PER_SHARD as u64 + 5;
        for i in 0..n {
            p.put(SandboxId::new(i), t(0));
        }
        assert_eq!(occ_sum(&p), (SLOTS_PER_SHARD as u64, 5));
        // Takes drain overflow first, then the slab.
        for _ in 0..5 {
            p.take(t(1)).unwrap();
        }
        assert_eq!(occ_sum(&p), (SLOTS_PER_SHARD as u64, 0));
        for _ in 0..SLOTS_PER_SHARD {
            p.take(t(1)).unwrap();
        }
        assert_eq!(occ_sum(&p), (0, 0));
        // Quarantine and expiry keep the gauge honest.
        p.put(SandboxId::new(100), t(2));
        p.put(SandboxId::new(101), t(2));
        assert!(p.remove(SandboxId::new(100)));
        assert_eq!(occ_sum(&p), (1, 0));
        p.set_keep_alive(KeepAlive::Ttl(SimDuration::from_secs(1)));
        let mut buf = Vec::new();
        p.evict_expired_into(t(60), &mut buf);
        assert_eq!(buf, vec![SandboxId::new(101)]);
        assert_eq!(occ_sum(&p), (0, 0));
    }

    #[test]
    fn contended_treiber_stacks_count_cas_retries_when_profiled() {
        use horse_telemetry::{contention, profiling};
        // Process-global profiling flag: only this test (in this
        // binary) enables it, and only around a burst of contended
        // traffic; the counters are cumulative so >= is asserted.
        let pool = Arc::new(ShardedWarmPool::new(KeepAlive::Provisioned));
        for i in 0..16u64 {
            pool.put(SandboxId::new(i), SimTime::ZERO);
        }
        let before: u64 = contention::snapshot().iter().map(|s| s.acquisitions).sum();
        profiling::set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        if let Some(id) = pool.take(SimTime::ZERO) {
                            pool.put(id, SimTime::ZERO);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let after: u64 = contention::snapshot().iter().map(|s| s.acquisitions).sum();
        assert!(after >= before, "counters are monotonic");

        // Deterministic single-threaded check: an overflow put (slab
        // full) must take — and time — the cold mutex.
        let cold_before = contention::snapshot()
            .iter()
            .find(|s| s.site == contention::ContentionSite::PoolColdOverflow)
            .unwrap()
            .acquisitions;
        let p = ShardedWarmPool::new(KeepAlive::Provisioned);
        for i in 0..=SLOTS_PER_SHARD as u64 {
            p.put(SandboxId::new(i), SimTime::ZERO);
        }
        profiling::set_enabled(false);
        let cold_after = contention::snapshot()
            .iter()
            .find(|s| s.site == contention::ContentionSite::PoolColdOverflow)
            .unwrap()
            .acquisitions;
        assert!(
            cold_after > cold_before,
            "the overflow put acquired the timed cold lock"
        );
    }

    /// Forces every shard's packed stack heads to a version just below
    /// `u32::MAX` so the next few operations wrap the 32-bit version
    /// counter through zero.
    fn pin_versions_near_wraparound(p: &ShardedWarmPool) {
        const NEAR_WRAP: u64 = (u32::MAX - 2) as u64;
        for shard in &p.shards {
            let wh = shard.warm_head.load(Ordering::Relaxed);
            shard
                .warm_head
                .store((NEAR_WRAP << 32) | (wh & IDX_MASK), Ordering::Relaxed);
            let fh = shard.free_head.load(Ordering::Relaxed);
            shard
                .free_head
                .store((NEAR_WRAP << 32) | (fh & IDX_MASK), Ordering::Relaxed);
        }
    }

    /// ABA-safety across version-counter wraparound. The Treiber heads
    /// pack `version << 32 | slot` and bump the version with
    /// `wrapping_add`; correctness must not depend on versions being
    /// monotonic, only on them *changing* — including across the wrap
    /// through zero. Starts every head at `u32::MAX − 2` and drives both
    /// a single-threaded LIFO cycle and a concurrent conservation
    /// workload across the boundary.
    #[test]
    fn version_counter_wraparound_is_aba_safe() {
        // Single-threaded: exact LIFO must survive the wrap.
        let p = ShardedWarmPool::new(KeepAlive::Provisioned);
        pin_versions_near_wraparound(&p);
        for i in 0..8u64 {
            p.put(SandboxId::new(i), t(0));
        }
        for i in (0..8u64).rev() {
            assert_eq!(p.take(t(1)), Some(SandboxId::new(i)), "entry {i}");
        }
        assert_eq!(p.take(t(1)), None);
        // The driving thread's shard performed 16+ version bumps from
        // u32::MAX − 2, so its warm head must have wrapped past zero.
        let min_version = p
            .shards
            .iter()
            .map(|s| s.warm_head.load(Ordering::Relaxed) >> 32)
            .min()
            .unwrap();
        assert!(
            min_version < 1_000,
            "expected a wrapped version near zero, got {min_version}"
        );

        // Concurrent: conservation while every shard's counters cross
        // the wrap under contention.
        let pool = Arc::new(ShardedWarmPool::new(KeepAlive::Provisioned));
        pin_versions_near_wraparound(&pool);
        let initial = 48u64;
        for i in 0..initial {
            pool.put(SandboxId::new(i), SimTime::ZERO);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut held: Vec<SandboxId> = Vec::new();
                    for r in 0..1_000 {
                        if let Some(id) = pool.take(SimTime::ZERO) {
                            held.push(id);
                        }
                        if r % 3 == 0 {
                            for id in held.drain(..) {
                                pool.put(id, SimTime::ZERO);
                            }
                        }
                    }
                    held
                })
            })
            .collect();
        let mut seen: Vec<u64> = Vec::new();
        for h in handles {
            seen.extend(h.join().unwrap().into_iter().map(|id| id.as_u64()));
        }
        while let Some(id) = pool.take(SimTime::ZERO) {
            seen.push(id.as_u64());
        }
        seen.sort_unstable();
        assert_eq!(seen.len() as u64, initial, "no sandbox lost or duplicated");
        seen.dedup();
        assert_eq!(seen.len() as u64, initial, "every id unique after the wrap");
        assert_eq!(pool.len(), 0);
    }

    /// Conservation under contention: N threads cycle take/put against
    /// one pool; no sandbox is ever lost, duplicated, or handed to two
    /// threads at once.
    #[test]
    fn concurrent_take_put_conserves_sandboxes() {
        let pool = Arc::new(ShardedWarmPool::new(KeepAlive::Provisioned));
        let initial = 64u64;
        for i in 0..initial {
            pool.put(SandboxId::new(i), SimTime::ZERO);
        }
        let threads = 8;
        let rounds = 2_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut held: Vec<SandboxId> = Vec::new();
                    let mut successes = 0u64;
                    for r in 0..rounds {
                        if let Some(id) = pool.take(SimTime::ZERO) {
                            held.push(id);
                            successes += 1;
                        }
                        // Return everything every few rounds so takes
                        // keep succeeding.
                        if r % 3 == 0 {
                            for id in held.drain(..) {
                                pool.put(id, SimTime::ZERO);
                            }
                        }
                    }
                    (held, successes)
                })
            })
            .collect();
        let mut seen: Vec<u64> = Vec::new();
        let mut successes = 0u64;
        for h in handles {
            let (held, n) = h.join().unwrap();
            seen.extend(held.into_iter().map(|id| id.as_u64()));
            successes += n;
        }
        // Drain what is still pooled.
        while let Some(id) = pool.take(SimTime::ZERO) {
            seen.push(id.as_u64());
            successes += 1;
        }
        seen.sort_unstable();
        assert_eq!(seen.len() as u64, initial, "no sandbox lost or duplicated");
        seen.dedup();
        assert_eq!(seen.len() as u64, initial, "every id is unique");
        assert_eq!(pool.len(), 0);
        let s = pool.stats();
        assert_eq!(s.evictions, 0, "provisioned entries never expire");
        assert_eq!(s.hits, successes, "hits count every successful take");
    }
}
