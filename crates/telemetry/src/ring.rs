//! Lock-free, fixed-capacity, overwrite-oldest event rings.
//!
//! Recording must cost a few stores on the resume hot path, so each ring
//! slot is a seqlock over six `AtomicU64`s and a write is:
//!
//! 1. claim a position with one `fetch_add` on the ring head;
//! 2. mark the slot odd (write in progress);
//! 3. store the five event words;
//! 4. mark the slot even, tagged with the claimed position.
//!
//! Readers ([`EventRing::drain`]) run off-path: they skip slots whose
//! sequence is odd or changes under them (torn), and report how many
//! events the ring overwrote since the last drain instead of ever
//! blocking a writer — the paper's latency argument demands that
//! observability never adds a lock to the resume path.
//!
//! Rings are sharded by thread (see [`ShardedRing`]) so concurrent
//! writers — the 𝒫²𝒮ℳ merge threads — do not contend on one head
//! counter.

use crate::event::{Event, EventKind};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// One slot: a sequence word plus the five event words.
///
/// The sequence encodes both a torn-read guard and the generation: while
/// a write is in flight it holds `2·pos + 1` (odd); a completed write of
/// ring position `pos` leaves `2·pos + 2` (even). A reader that observes
/// the same even value before and after reading the payload knows the
/// payload belongs to exactly that position.
///
/// `kind_track` packs three fields: bits 0..32 the track, bits 32..40
/// the [`EventKind`] discriminant, bits 40..48 the causal-parent kind as
/// `discriminant + 1` (0 = no parent) — the parent rides in otherwise
/// dead bits so trace-context stamping costs no extra store.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    kind_track: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
    invocation: AtomicU64,
}

/// Packs kind, track and parent into the `kind_track` word.
fn pack_kind_track(event: &Event) -> u64 {
    let parent = event.parent.map_or(0u64, |p| u64::from(p as u8) + 1);
    (parent << 40) | (u64::from(event.kind as u8) << 32) | u64::from(event.track)
}

/// A fixed-capacity single-ring buffer of events.
#[derive(Debug)]
pub struct EventRing {
    slots: Vec<Slot>,
    /// Total events ever claimed (monotonic; `head % capacity` is the
    /// next slot).
    head: AtomicU64,
    /// Events lost to overwrite or torn reads, accumulated across drains.
    dropped: AtomicU64,
}

impl EventRing {
    /// Creates a ring with the given capacity (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        Self {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events written (including overwritten ones) since the last
    /// drain.
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records one event. Lock-free: one `fetch_add` plus six stores.
    pub fn push(&self, event: Event) {
        let pos = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
        slot.seq.store(2 * pos + 1, Ordering::Release);
        slot.kind_track
            .store(pack_kind_track(&event), Ordering::Relaxed);
        slot.start_ns.store(event.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(event.dur_ns, Ordering::Relaxed);
        slot.arg.store(event.arg, Ordering::Relaxed);
        slot.invocation.store(event.invocation, Ordering::Relaxed);
        slot.seq.store(2 * pos + 2, Ordering::Release);
    }

    /// Records a batch of events with a **single** head claim: one
    /// `fetch_add` reserves a contiguous run of positions, then each
    /// slot is published through its own seqlock exactly as in
    /// [`EventRing::push`].
    pub fn push_batch<I>(&self, events: I)
    where
        I: IntoIterator<Item = Event>,
        I::IntoIter: ExactSizeIterator,
    {
        let events = events.into_iter();
        let n = events.len() as u64;
        if n == 0 {
            return;
        }
        let first = self.head.fetch_add(n, Ordering::AcqRel);
        for (i, event) in events.enumerate() {
            let pos = first + i as u64;
            let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
            slot.seq.store(2 * pos + 1, Ordering::Release);
            slot.kind_track
                .store(pack_kind_track(&event), Ordering::Relaxed);
            slot.start_ns.store(event.start_ns, Ordering::Relaxed);
            slot.dur_ns.store(event.dur_ns, Ordering::Relaxed);
            slot.arg.store(event.arg, Ordering::Relaxed);
            slot.invocation.store(event.invocation, Ordering::Relaxed);
            slot.seq.store(2 * pos + 2, Ordering::Release);
        }
    }

    /// Reads out every intact event and resets the ring. Returns the
    /// events in ring order; overwritten and torn slots add to the
    /// dropped tally instead.
    pub fn drain(&self) -> Vec<Event> {
        let written = self.head.swap(0, Ordering::AcqRel);
        let cap = self.slots.len() as u64;
        let retained = written.min(cap);
        let overwritten = written - retained;
        let first = written - retained;
        let mut events = Vec::with_capacity(retained as usize);
        let mut torn = 0u64;
        for pos in first..written {
            let slot = &self.slots[(pos as usize) & (self.slots.len() - 1)];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != 2 * pos + 2 {
                torn += 1;
                continue;
            }
            let kind_track = slot.kind_track.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            let invocation = slot.invocation.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != seq1 {
                torn += 1;
                continue;
            }
            let Some(kind) = EventKind::from_u8((kind_track >> 32) as u8) else {
                torn += 1;
                continue;
            };
            let parent = match (kind_track >> 40) as u8 {
                0 => None,
                p => match EventKind::from_u8(p - 1) {
                    Some(parent) => Some(parent),
                    None => {
                        torn += 1;
                        continue;
                    }
                },
            };
            events.push(Event {
                kind,
                track: kind_track as u32,
                start_ns,
                dur_ns,
                arg,
                invocation,
                parent,
            });
            // Reset so a future generation cannot alias this position.
            slot.seq.store(0, Ordering::Release);
        }
        self.dropped.fetch_add(overwritten + torn, Ordering::AcqRel);
        events
    }

    /// Events lost (overwritten or torn) across all drains so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }
}

/// A set of [`EventRing`]s, one per writer shard.
///
/// The shard for the calling thread is chosen by hashing its
/// [`std::thread::ThreadId`], so the 𝒫²𝒮ℳ merge threads spread across
/// rings instead of serialising on one head counter.
#[derive(Debug)]
pub struct ShardedRing {
    shards: Vec<EventRing>,
}

impl ShardedRing {
    /// Creates `shards` rings of `capacity` events each (both rounded up
    /// to powers of two).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Self {
            shards: (0..shards).map(|_| EventRing::new(capacity)).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard capacity in events.
    pub fn capacity_per_shard(&self) -> usize {
        self.shards[0].capacity()
    }

    /// The calling thread's shard. The thread→shard hash is cached per
    /// thread: hashing a `ThreadId` (SipHash) on every push would
    /// dominate the cost of the push itself.
    fn thread_shard(&self) -> &EventRing {
        thread_local! {
            static SHARD_SEED: u64 = {
                let mut hasher = DefaultHasher::new();
                std::thread::current().id().hash(&mut hasher);
                hasher.finish()
            };
        }
        let seed = SHARD_SEED.with(|s| *s);
        &self.shards[(seed as usize) & (self.shards.len() - 1)]
    }

    /// Records one event on the calling thread's shard.
    pub fn push(&self, event: Event) {
        self.thread_shard().push(event);
    }

    /// Records a batch on the calling thread's shard with a single head
    /// claim (see [`EventRing::push_batch`]).
    pub fn push_batch<I>(&self, events: I)
    where
        I: IntoIterator<Item = Event>,
        I::IntoIter: ExactSizeIterator,
    {
        self.thread_shard().push_batch(events);
    }

    /// Drains every shard, returning all events sorted by
    /// `(start, track, kind)` to restore one coherent timeline.
    pub fn drain(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.shards.iter().flat_map(|s| s.drain()).collect();
        events.sort_by_key(|e| (e.start_ns, e.track, e.kind as u8, e.dur_ns));
        events
    }

    /// Total events lost across all shards and drains.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped()).sum()
    }

    /// Events lost per writer shard (index = shard = exported `tid`
    /// namespace of the writing thread), so exports can report *which*
    /// writer's stream is lossy rather than one anonymous total.
    pub fn dropped_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.dropped()).collect()
    }

    /// Total events written since the last drain, across shards.
    pub fn written(&self) -> u64 {
        self.shards.iter().map(|s| s.written()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u64) -> Event {
        Event {
            kind: EventKind::Resume,
            start_ns: start,
            dur_ns: 1,
            ..Event::default()
        }
    }

    #[test]
    fn rounds_capacity_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 8);
        assert_eq!(EventRing::new(100).capacity(), 128);
        assert_eq!(ShardedRing::new(3, 100).shards(), 4);
    }

    #[test]
    fn push_then_drain_preserves_everything_under_capacity() {
        let ring = EventRing::new(16);
        for i in 0..10 {
            ring.push(ev(i));
        }
        let events = ring.drain();
        assert_eq!(events.len(), 10);
        assert_eq!(ring.dropped(), 0);
        assert!(events
            .iter()
            .enumerate()
            .all(|(i, e)| e.start_ns == i as u64));
        // Ring resets: a second drain is empty.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn overflow_keeps_newest_and_counts_dropped() {
        let ring = EventRing::new(8);
        for i in 0..20 {
            ring.push(ev(i));
        }
        let events = ring.drain();
        assert_eq!(events.len(), 8, "capacity newest survive");
        assert_eq!(events.first().unwrap().start_ns, 12);
        assert_eq!(events.last().unwrap().start_ns, 19);
        assert_eq!(ring.dropped(), 12);
    }

    #[test]
    fn sharded_drain_merges_sorted() {
        let ring = ShardedRing::new(4, 64);
        for i in (0..50).rev() {
            ring.push(ev(i));
        }
        let events = ring.drain();
        assert_eq!(events.len(), 50);
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn context_round_trips_through_the_slot_words() {
        let ring = EventRing::new(8);
        ring.push(Event {
            kind: EventKind::ResumeSortedMerge,
            track: 3,
            start_ns: 10,
            dur_ns: 5,
            arg: 2,
            invocation: 0xDEAD_BEEF_CAFE,
            parent: Some(EventKind::Resume),
        });
        ring.push(Event {
            kind: EventKind::PoolHit,
            ..Event::default()
        });
        let events = ring.drain();
        assert_eq!(events[0].invocation, 0xDEAD_BEEF_CAFE);
        assert_eq!(events[0].parent, Some(EventKind::Resume));
        assert_eq!(events[0].track, 3);
        assert_eq!(events[1].invocation, 0);
        assert_eq!(events[1].parent, None);
    }

    #[test]
    fn dropped_by_shard_attributes_losses() {
        let ring = ShardedRing::new(4, 8);
        // All pushes from this thread land on one shard; overflow it.
        for i in 0..30 {
            ring.push(ev(i));
        }
        ring.drain();
        let by_shard = ring.dropped_by_shard();
        assert_eq!(by_shard.len(), 4);
        assert_eq!(by_shard.iter().sum::<u64>(), ring.dropped());
        assert_eq!(ring.dropped(), 30 - 8);
        assert_eq!(by_shard.iter().filter(|&&d| d > 0).count(), 1);
    }

    #[test]
    fn concurrent_writers_lose_nothing_within_capacity() {
        // A shard must hold every event: which shard a thread lands on
        // is a hash of its id, and nothing stops all eight colliding.
        let ring = std::sync::Arc::new(ShardedRing::new(8, 1 << 13));
        let threads = 8;
        let per_thread = 1_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        ring.push(Event {
                            kind: EventKind::SpliceWork,
                            track: t as u32,
                            start_ns: i,
                            dur_ns: 1,
                            arg: u64::from(t as u32),
                            ..Event::default()
                        });
                    }
                });
            }
        });
        let events = ring.drain();
        assert_eq!(
            events.len() as u64 + ring.dropped(),
            threads as u64 * per_thread
        );
        // 8 000 events fit one 8 192-slot shard: nothing overwritten.
        assert_eq!(ring.dropped(), 0, "no drops within capacity");
        assert_eq!(events.len() as u64, threads as u64 * per_thread);
    }
}
