//! Sequential reference models ("specs").
//!
//! Each spec is a deliberately naive, obviously-correct model of one
//! HORSE component, written with plain `Vec`s and no concern for
//! performance. The real implementations are validated against these in
//! three ways:
//!
//! * **trajectory equivalence** — drive the spec and the implementation
//!   with the same single-threaded operation sequence and require
//!   identical observable results at every step
//!   (`differential::run_pool_trajectory`);
//! * **linearizability** — use the spec as the sequential witness inside
//!   the Wing–Gong search over concurrent histories
//!   ([`crate::linearize`]);
//! * **differential oracles** — use the spec to predict the outcome of a
//!   whole randomized scenario ([`crate::differential`]).

use horse_faas::KeepAlive;
use horse_faas::PoolStats;
use horse_sched::SandboxId;
use horse_sim::SimTime;

/// Whether an entry parked at `since` has outlived `keep_alive` by
/// `now`. This is the *reference* boundary semantics `ShardedWarmPool`
/// shares (pinned by `tests/expiry_boundary.rs`): an entry expires
/// **strictly after** its TTL elapses — at `since + ttl` exactly it is
/// still warm — and entries stamped in the future count as age zero.
pub fn spec_expired(keep_alive: KeepAlive, since: SimTime, now: SimTime) -> bool {
    match keep_alive {
        KeepAlive::Provisioned => false,
        KeepAlive::Ttl(ttl) => now.as_nanos().saturating_sub(since.as_nanos()) > ttl.as_nanos(),
    }
}

/// Sequential reference model of a warm-sandbox pool.
///
/// Semantics (the contract `ShardedWarmPool` implements up to a
/// documented LIFO relaxation):
///
/// * `put` stores `(id, since)`; the keep-alive clock restarts on every
///   put;
/// * `take(now)` returns the **most recently put** entry that has not
///   expired (LIFO, for cache warmth), lazily evicting any newer expired
///   entries it skips over into the doomed buffer;
/// * an expired entry is *never* handed out (strict-`>` boundary, see
///   [`spec_expired`]);
/// * `evict_expired` removes every expired entry;
/// * provisioned pools never expire anything.
#[derive(Debug, Clone, Default)]
pub struct SpecPool {
    /// (id, parked-at), oldest put first — LIFO takes pop from the back.
    entries: Vec<(SandboxId, SimTime)>,
    keep_alive: Option<KeepAlive>,
    stats: PoolStats,
    doomed: Vec<SandboxId>,
}

impl SpecPool {
    /// An empty spec pool with the given keep-alive policy.
    pub fn new(keep_alive: KeepAlive) -> Self {
        Self {
            entries: Vec::new(),
            keep_alive: Some(keep_alive),
            stats: PoolStats::default(),
            doomed: Vec::new(),
        }
    }

    fn ka(&self) -> KeepAlive {
        self.keep_alive.expect("SpecPool::new sets the policy")
    }

    /// Number of pooled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Usage statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Parks an entry.
    pub fn put(&mut self, id: SandboxId, now: SimTime) {
        self.entries.push((id, now));
    }

    /// LIFO take with lazy expiry — the exact sequential semantics.
    pub fn take(&mut self, now: SimTime) -> Option<SandboxId> {
        while let Some(&(id, since)) = self.entries.last() {
            self.entries.pop();
            if spec_expired(self.ka(), since, now) {
                self.stats.evictions += 1;
                self.doomed.push(id);
                continue;
            }
            self.stats.hits += 1;
            return Some(id);
        }
        self.stats.misses += 1;
        None
    }

    /// Entries lazily evicted by [`SpecPool::take`] since the last
    /// drain.
    pub fn drain_doomed(&mut self) -> Vec<SandboxId> {
        std::mem::take(&mut self.doomed)
    }

    /// Removes every expired entry, returning the evicted ids (oldest
    /// first).
    pub fn evict_expired(&mut self, now: SimTime) -> Vec<SandboxId> {
        let ka = self.ka();
        let mut evicted = Vec::new();
        self.entries.retain(|&(id, since)| {
            if spec_expired(ka, since, now) {
                evicted.push(id);
                false
            } else {
                true
            }
        });
        self.stats.evictions += evicted.len() as u64;
        evicted
    }

    /// Removes a specific entry, returning whether it was present.
    pub fn remove(&mut self, id: SandboxId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&(e, _)| e != id);
        before != self.entries.len()
    }

    // ---- relaxed interface, used by the linearizability checker ----
    //
    // Under concurrent drivers the sharded pool only promises *set*
    // semantics: a take returns SOME live pooled entry (shard-local LIFO
    // makes the global order schedule-dependent). The checker therefore
    // asks "could this specific result have been produced here?" rather
    // than "what is THE result?".

    /// Whether a take at `now` may legally return `id`: it must be
    /// pooled and not expired.
    pub fn can_take(&self, id: SandboxId, now: SimTime) -> bool {
        self.entries
            .iter()
            .any(|&(e, since)| e == id && !spec_expired(self.ka(), since, now))
    }

    /// Commits a take that returned `id` (removes one matching entry).
    /// Panics if [`SpecPool::can_take`] would refuse it.
    pub fn commit_take(&mut self, id: SandboxId, now: SimTime) {
        let ka = self.ka();
        let pos = self
            .entries
            .iter()
            .position(|&(e, since)| e == id && !spec_expired(ka, since, now))
            .expect("commit_take: can_take was not checked");
        self.entries.remove(pos);
    }

    /// Whether a take at `now` may legally return `None`: every pooled
    /// entry must already be expired.
    pub fn can_miss(&self, now: SimTime) -> bool {
        self.entries
            .iter()
            .all(|&(_, since)| spec_expired(self.ka(), since, now))
    }

    /// Canonical fingerprint of the pooled set (sorted), for the
    /// checker's memoization.
    pub fn fingerprint(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|&(id, since)| (id.as_u64(), since.as_nanos()))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Sequential reference model of a credit-sorted run queue — the oracle
/// for `p2sm::MergePlan::merge` and `SortedList::merge_walk`.
///
/// Entries are `(credit, tag)` pairs kept non-decreasing by credit.
/// Equal credits preserve arrival order, and a merged-in batch goes
/// *after* existing equal credits (both the vanilla per-element insert,
/// `merge_walk`, and the 𝒫²𝒮ℳ splice place the incoming sandbox's
/// vCPUs after the residents on ties).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecRunQueue {
    entries: Vec<(i64, u64)>,
}

impl SpecRunQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a queue by inserting each `(credit, tag)` in order.
    pub fn from_inserts(items: &[(i64, u64)]) -> Self {
        let mut q = Self::new();
        for &(credit, tag) in items {
            q.insert(credit, tag);
        }
        q
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted insert, FIFO among equal credits.
    pub fn insert(&mut self, credit: i64, tag: u64) {
        let pos = self.entries.partition_point(|&(c, _)| c <= credit);
        self.entries.insert(pos, (credit, tag));
    }

    /// Merges a sorted batch (a resuming sandbox's vCPUs) into the
    /// queue: the classic stable merge with residents first on ties.
    pub fn merge(&mut self, batch: &SpecRunQueue) {
        for &(credit, tag) in &batch.entries {
            self.insert(credit, tag);
        }
    }

    /// Pops the front (least-credit) entry.
    pub fn pop_front(&mut self) -> Option<(i64, u64)> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0))
        }
    }

    /// The queue contents in dispatch order.
    pub fn entries(&self) -> &[(i64, u64)] {
        &self.entries
    }

    /// The credits in dispatch order.
    pub fn credits(&self) -> Vec<i64> {
        self.entries.iter().map(|&(c, _)| c).collect()
    }

    /// Verifies the defining invariant (non-decreasing credits).
    pub fn check_sorted(&self) -> Result<(), String> {
        for w in self.entries.windows(2) {
            if w[0].0 > w[1].0 {
                return Err(format!("spec queue unsorted: {} after {}", w[1].0, w[0].0));
            }
        }
        Ok(())
    }
}

/// Sequential reference model of the run-queue load variable: applies
/// the affine update `L(x) = αx + β` one vCPU at a time — the vanilla
/// step-⑤ behaviour the coalesced closed form must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecLoad {
    alpha: f64,
    beta: f64,
    load: f64,
}

impl SpecLoad {
    /// A load variable starting at `initial` with per-vCPU update
    /// coefficients `alpha`/`beta`.
    pub fn new(alpha: f64, beta: f64, initial: f64) -> Self {
        Self {
            alpha,
            beta,
            load: initial,
        }
    }

    /// Current load value.
    pub fn get(&self) -> f64 {
        self.load
    }

    /// Places `n` vCPUs sequentially: `n` elementary updates.
    pub fn place_n(&mut self, n: u32) {
        for _ in 0..n {
            self.load = self.alpha * self.load + self.beta;
        }
    }

    /// The value `n` sequential placements would produce, without
    /// mutating the model.
    pub fn predict_n(&self, n: u32) -> f64 {
        let mut v = self.load;
        for _ in 0..n {
            v = self.alpha * v + self.beta;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn spec_pool_is_lifo_with_lazy_expiry() {
        let mut p = SpecPool::new(KeepAlive::Ttl(SimDuration::from_secs(100)));
        p.put(SandboxId::new(1), t(0));
        p.put(SandboxId::new(2), t(90));
        assert_eq!(p.take(t(150)), Some(SandboxId::new(2)));
        assert_eq!(p.take(t(150)), None, "1 expired at t=100+ε");
        assert_eq!(p.drain_doomed(), vec![SandboxId::new(1)]);
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 1));
    }

    #[test]
    fn spec_pool_boundary_is_strictly_greater() {
        let ka = KeepAlive::Ttl(SimDuration::from_secs(10));
        assert!(!spec_expired(ka, t(0), t(10)), "age == ttl is still warm");
        let just_past = t(10) + SimDuration::from_nanos(1);
        assert!(spec_expired(ka, t(0), just_past));
        assert!(!spec_expired(ka, t(10), t(0)), "future stamps: age zero");
        assert!(!spec_expired(KeepAlive::Provisioned, t(0), t(1_000_000)));
    }

    #[test]
    fn relaxed_interface_tracks_liveness() {
        let mut p = SpecPool::new(KeepAlive::Ttl(SimDuration::from_secs(10)));
        p.put(SandboxId::new(7), t(0));
        assert!(p.can_take(SandboxId::new(7), t(5)));
        assert!(!p.can_take(SandboxId::new(7), t(11)), "expired");
        assert!(!p.can_take(SandboxId::new(8), t(5)), "absent");
        assert!(!p.can_miss(t(5)), "a live entry forbids a miss");
        assert!(p.can_miss(t(11)));
        p.commit_take(SandboxId::new(7), t(5));
        assert!(p.is_empty());
    }

    #[test]
    fn spec_queue_merge_is_stable_and_sorted() {
        let mut q = SpecRunQueue::from_inserts(&[(5, 1), (5, 2), (10, 3)]);
        let batch = SpecRunQueue::from_inserts(&[(5, 100), (10, 101)]);
        q.merge(&batch);
        q.check_sorted().unwrap();
        assert_eq!(
            q.entries(),
            &[(5, 1), (5, 2), (5, 100), (10, 3), (10, 101)],
            "residents first on ties"
        );
        assert_eq!(q.pop_front(), Some((5, 1)));
    }

    #[test]
    fn spec_load_matches_closed_form() {
        let mut l = SpecLoad::new(0.5, 8.0, 100.0);
        let predicted = l.predict_n(3);
        l.place_n(3);
        assert_eq!(l.get(), predicted);
        // 0.5^3·100 + 8·(1 + 0.5 + 0.25) = 12.5 + 14 = 26.5
        assert!((l.get() - 26.5).abs() < 1e-12);
    }
}
