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
//! Readers ([`EventRing::drain_into`]) run off-path: they skip slots
//! whose sequence does not name the position being read or changes under
//! them (torn), and report how many events the ring overwrote or tore
//! since the last drain instead of ever blocking a writer — the paper's
//! latency argument demands that observability never adds a lock to the
//! resume path.
//!
//! Rings are sharded by thread (see [`ShardedRing`]) so concurrent
//! writers — the 𝒫²𝒮ℳ merge threads — do not contend on one head
//! counter.

use crate::event::{Event, EventKind};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{fence, AtomicU64, Ordering};

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

impl Slot {
    /// The event of ring position `pos`, or `None` if the slot does not
    /// hold exactly that position intact (overwritten, not yet written,
    /// or torn under the read).
    fn read(&self, pos: u64) -> Option<Event> {
        let seq = self.seq.load(Ordering::Acquire);
        if seq != 2 * pos + 2 {
            return None;
        }
        let kind_track = self.kind_track.load(Ordering::Relaxed);
        let start_ns = self.start_ns.load(Ordering::Relaxed);
        let dur_ns = self.dur_ns.load(Ordering::Relaxed);
        let arg = self.arg.load(Ordering::Relaxed);
        let invocation = self.invocation.load(Ordering::Relaxed);
        // Orders the payload loads before the re-check of `seq`.
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != seq {
            return None;
        }
        let kind = EventKind::from_u8((kind_track >> 32) as u8)?;
        let parent = match (kind_track >> 40) as u8 {
            0 => None,
            p => Some(EventKind::from_u8(p - 1)?),
        };
        Some(Event {
            kind,
            track: kind_track as u32,
            start_ns,
            dur_ns,
            arg,
            invocation,
            parent,
        })
    }
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
    /// Total events ever claimed (monotonic, never reset; `head %
    /// capacity` is the next slot).
    head: AtomicU64,
    /// Positions below this have been drained (monotonic; only ever
    /// raised to a value `head` held).
    drained: AtomicU64,
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
            drained: AtomicU64::new(0),
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
        // `drained` first: `head` read after it is at least as large.
        let drained = self.drained.load(Ordering::Acquire);
        self.head.load(Ordering::Acquire) - drained
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

    /// The slot ring position `pos` maps to.
    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos as usize) & (self.slots.len() - 1)]
    }

    /// Appends every intact event written since the last drain to `out`,
    /// in ring order, and returns this drain's losses: positions the ring
    /// overwrote before they were read plus torn slots (a write still in
    /// flight, or overtaken while being read).
    ///
    /// Ring positions are monotone and never reset: the drain advances
    /// the drained-up-to cursor with one `fetch_max`, so concurrent
    /// drains read disjoint ranges, and a slot is accepted only if its
    /// sequence word names exactly the position being read. A write that
    /// was torn during one drain and completes later therefore carries a
    /// position no later drain will ask for; it stays counted as dropped
    /// and is never delivered.
    pub fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let from = self.drained.fetch_max(head, Ordering::AcqRel);
        if from >= head {
            return 0;
        }
        let retained = (head - from).min(self.slots.len() as u64);
        let mut lost = head - from - retained;
        out.reserve(retained as usize);
        for pos in head - retained..head {
            match self.slot(pos).read(pos) {
                Some(event) => out.push(event),
                None => lost += 1,
            }
        }
        self.dropped.fetch_add(lost, Ordering::AcqRel);
        lost
    }

    /// Reads out every intact event written since the last drain, in
    /// ring order (see [`EventRing::drain_into`]).
    pub fn drain(&self) -> Vec<Event> {
        let mut events = Vec::new();
        self.drain_into(&mut events);
        events
    }

    /// Events lost (overwritten or torn) across all drains so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }
}

/// The order of a drained timeline: start, then track, kind and
/// duration.
fn timeline_key(event: &Event) -> (u64, u32, u8, u64) {
    (event.start_ns, event.track, event.kind as u8, event.dur_ns)
}

/// Adjacent moves [`presort`] may spend per event before it stops.
/// Resume-shaped streams need under two on average.
const PRESORT_MOVES_PER_EVENT: usize = 8;

/// A stable insertion pass over `run` by [`timeline_key`], stopped once
/// it has spent [`PRESORT_MOVES_PER_EVENT`] adjacent moves per event.
///
/// An event moves only past events with a strictly greater key, so equal
/// keys keep their order whether the pass finishes or stops: the stable
/// sort that follows yields the same timeline either way.
fn presort(run: &mut [Event]) {
    let mut budget = PRESORT_MOVES_PER_EVENT * run.len();
    for i in 1..run.len() {
        let event = run[i];
        let key = timeline_key(&event);
        let mut j = i;
        while j > 0 && timeline_key(&run[j - 1]) > key {
            if budget == 0 {
                run[j] = event;
                return;
            }
            run[j] = run[j - 1];
            budget -= 1;
            j -= 1;
        }
        run[j] = event;
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

    /// Drains every shard into one timeline and returns it with this
    /// drain's losses (the sum of [`EventRing::drain_into`]'s).
    ///
    /// Events are stably sorted by `(start_ns, track, kind, dur_ns)`, so
    /// equal keys keep shard order, then ring order. The buffer is
    /// allocated once, at the exact size of what the shards hold. Each
    /// shard's segment first gets a bounded insertion pass: a recorded
    /// stream is in order except inside each invocation's batch, so the
    /// pass leaves one sorted run per shard and the final stable sort is
    /// a linear scan (one shard) or a run merge (several). A stream the
    /// pass cannot fix within its budget falls back to the sort's
    /// O(n log n) with the same result.
    pub fn drain(&self) -> (Vec<Event>, u64) {
        let retained: u64 = self
            .shards
            .iter()
            .map(|s| s.written().min(s.capacity() as u64))
            .sum();
        let mut events = Vec::with_capacity(retained as usize);
        let mut lost = 0;
        for shard in &self.shards {
            let start = events.len();
            lost += shard.drain_into(&mut events);
            presort(&mut events[start..]);
        }
        events.sort_by_key(timeline_key);
        (events, lost)
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
        let (events, lost) = ring.drain();
        assert_eq!(events.len(), 50);
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!((lost, ring.dropped()), (0, 0));
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
        let (events, _) = ring.drain();
        assert_eq!(
            events.len() as u64 + ring.dropped(),
            threads as u64 * per_thread
        );
        // 8 000 events fit one 8 192-slot shard: nothing overwritten.
        assert_eq!(ring.dropped(), 0, "no drops within capacity");
        assert_eq!(events.len() as u64, threads as u64 * per_thread);
    }

    /// Claims the next position of `ring` and marks its slot in flight,
    /// as a writer preempted between steps 2 and 3 of a push leaves it.
    fn claim_in_flight(ring: &EventRing) -> u64 {
        let pos = ring.head.fetch_add(1, Ordering::AcqRel);
        ring.slot(pos).seq.store(2 * pos + 1, Ordering::Release);
        pos
    }

    /// Finishes the write `claim_in_flight` started.
    fn complete(ring: &EventRing, pos: u64, event: Event) {
        let slot = ring.slot(pos);
        slot.kind_track
            .store(pack_kind_track(&event), Ordering::Relaxed);
        slot.start_ns.store(event.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(event.dur_ns, Ordering::Relaxed);
        slot.arg.store(event.arg, Ordering::Relaxed);
        slot.invocation.store(event.invocation, Ordering::Relaxed);
        slot.seq.store(2 * pos + 2, Ordering::Release);
    }

    fn starts(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.start_ns).collect()
    }

    #[test]
    fn a_write_torn_by_one_drain_never_surfaces_in_a_later_one() {
        let ring = EventRing::new(8);
        ring.push(ev(100));
        ring.push(ev(101));
        let stale = claim_in_flight(&ring);
        assert_eq!(starts(&ring.drain()), [100, 101]);
        assert_eq!(ring.dropped(), 1, "the in-flight write counts as dropped");

        // The write completes after the drain gave up on it.
        complete(&ring, stale, ev(999));
        // The next generation fills up to the stale slot's index, whose
        // new writer has claimed it but not yet stored anything.
        let mut next = 200;
        while ring.head.load(Ordering::Acquire) % 8 != stale % 8 {
            ring.push(ev(next));
            next += 1;
        }
        ring.head.fetch_add(1, Ordering::AcqRel);
        let events = ring.drain();
        assert_eq!(
            starts(&events),
            (200..next).collect::<Vec<_>>(),
            "an event already counted dropped came back"
        );
        assert_eq!(ring.dropped(), 2);
    }

    /// The timeline the ring drained to before the bounded pre-pass:
    /// every shard's ring order concatenated, then one stable sort.
    fn oracle_drain(ring: &ShardedRing) -> Vec<Event> {
        let mut events: Vec<Event> = ring.shards.iter().flat_map(EventRing::drain).collect();
        events.sort_by_key(|e| (e.start_ns, e.track, e.kind as u8, e.dur_ns));
        events
    }

    /// Two rings of one shape that receive identical pushes: one drains
    /// through `ShardedRing::drain`, its twin through [`oracle_drain`].
    struct Twins {
        ring: ShardedRing,
        twin: ShardedRing,
    }

    impl Twins {
        fn new(shards: usize, capacity: usize) -> Self {
            Self {
                ring: ShardedRing::new(shards, capacity),
                twin: ShardedRing::new(shards, capacity),
            }
        }

        fn push(&self, shard: usize, event: Event) {
            self.ring.shards[shard].push(event);
            self.twin.shards[shard].push(event);
        }

        fn push_batch(&self, shard: usize, events: &[Event]) {
            self.ring.shards[shard].push_batch(events.iter().copied());
            self.twin.shards[shard].push_batch(events.iter().copied());
        }

        fn claim_in_flight(&self, shard: usize) {
            claim_in_flight(&self.ring.shards[shard]);
            claim_in_flight(&self.twin.shards[shard]);
        }

        /// Drains both and checks they agree on events, tie order and
        /// drop accounting; returns the drained timeline.
        fn assert_equivalent(&self) -> Vec<Event> {
            let (events, lost) = self.ring.drain();
            let oracle = oracle_drain(&self.twin);
            assert_eq!(events.len(), oracle.len());
            for (i, (got, want)) in events.iter().zip(&oracle).enumerate() {
                assert_eq!(got, want, "event {i} differs from the oracle");
            }
            assert_eq!(lost, self.twin.dropped(), "one drain's losses");
            assert_eq!(self.ring.dropped(), self.twin.dropped());
            assert_eq!(self.ring.dropped_by_shard(), self.twin.dropped_by_shard());
            events
        }
    }

    /// One invocation as a resume records it: instants at the step
    /// cursor, then one batch of spans that start earlier — the parent,
    /// its steps laid end to end, and merge-thread work that ties on the
    /// whole key.
    fn resume_shaped(invocation: u64, base: u64) -> ([Event; 2], Vec<Event>) {
        let event = |kind, track, start_ns, dur_ns, arg| Event {
            kind,
            track,
            start_ns,
            dur_ns,
            arg,
            invocation,
            parent: Some(EventKind::Resume),
        };
        let cursor = base + 600;
        let instants = [
            event(EventKind::PoolHit, 0, cursor, 0, 1),
            event(EventKind::LoadUpdate, 0, cursor, 0, 2),
        ];
        let mut batch = vec![Event {
            parent: None,
            ..event(EventKind::Resume, 0, base, 600, 3)
        }];
        let steps = [
            EventKind::ResumeParse,
            EventKind::ResumeLock,
            EventKind::ResumeSanity,
            EventKind::ResumeSortedMerge,
            EventKind::ResumeLoadUpdate,
            EventKind::ResumeFinalize,
        ];
        for (i, kind) in steps.into_iter().enumerate() {
            batch.push(event(kind, 0, base + 100 * i as u64, 100, 4 + i as u64));
        }
        for track in 1..=3 {
            // Two spans per merge thread with equal keys: only ring order
            // tells them apart.
            batch.push(event(
                EventKind::SpliceWork,
                track,
                base + 300,
                40,
                10 + 2 * track as u64,
            ));
            batch.push(event(
                EventKind::SpliceWork,
                track,
                base + 300,
                40,
                11 + 2 * track as u64,
            ));
        }
        (instants, batch)
    }

    #[test]
    fn drain_matches_the_sort_oracle_on_resume_shaped_streams() {
        let twins = Twins::new(4, 1 << 12);
        for invocation in 1..=400u64 {
            let shard = (invocation * 7 % 4) as usize;
            // Shards interleave in time, and every fourth invocation
            // lands on the same base as the previous one: equal keys
            // across shards, ordered by shard.
            let base = invocation / 4 * 1_000 + (invocation % 2) * 50;
            let (instants, batch) = resume_shaped(invocation, base);
            for instant in instants {
                twins.push(shard, instant);
            }
            twins.push_batch(shard, &batch);
        }
        let events = twins.assert_equivalent();
        assert_eq!(events.len(), 400 * 15);
    }

    #[test]
    fn presort_leaves_resume_shaped_segments_sorted() {
        let mut segment = Vec::new();
        for invocation in 1..=100u64 {
            let (instants, batch) = resume_shaped(invocation, invocation * 1_000);
            segment.extend(instants);
            segment.extend(batch);
        }
        let mut sorted = segment.clone();
        sorted.sort_by_key(timeline_key);
        presort(&mut segment);
        assert_eq!(segment, sorted);
    }

    #[test]
    fn drain_matches_the_sort_oracle_when_the_pre_pass_gives_up() {
        let twins = Twins::new(2, 1 << 10);
        for i in (0..600u64).rev() {
            // Reversed, with a tie every third event.
            twins.push(
                (i % 2) as usize,
                Event {
                    arg: i,
                    ..ev(i / 3)
                },
            );
        }
        twins.assert_equivalent();

        let mut reversed: Vec<Event> = (0..600u64).rev().map(ev).collect();
        presort(&mut reversed);
        assert!(
            !reversed.is_sorted_by_key(timeline_key),
            "a reversed stream exhausts the move budget"
        );
    }

    #[test]
    fn drain_matches_the_sort_oracle_on_overflow_and_torn_slots() {
        let twins = Twins::new(2, 8);
        for i in 0..20u64 {
            twins.push(
                0,
                Event {
                    arg: i,
                    ..ev(100 - i)
                },
            );
        }
        for i in 0..5u64 {
            twins.push(
                1,
                Event {
                    arg: 100 + i,
                    ..ev(90 - 2 * i)
                },
            );
        }
        twins.claim_in_flight(1);
        twins.push(1, Event { arg: 200, ..ev(81) });
        let events = twins.assert_equivalent();
        assert_eq!(events.len(), 8 + 6);
        assert_eq!(twins.ring.dropped_by_shard(), vec![12, 1]);
    }

    #[test]
    fn concurrent_drains_deliver_each_event_once_or_count_it_dropped() {
        // Small shards so writers overwrite and tear slots under the
        // drains; two drainers race for the same positions. Each writer
        // pushes ids in order, so every drainer must see each writer's
        // ids strictly increase: an event counted dropped that came back
        // in a later drain would arrive out of order.
        let ring = ShardedRing::new(2, 64);
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 20_000;
        let writing = std::sync::atomic::AtomicBool::new(true);
        let (mut delivered, mut lost) = (Vec::new(), 0u64);
        std::thread::scope(|scope| {
            let (ring, writing) = (&ring, &writing);
            let drainers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let (mut ids, mut lost) = (Vec::new(), 0u64);
                        let mut last = [None; WRITERS as usize];
                        while writing.load(Ordering::Acquire) {
                            let (events, l) = ring.drain();
                            for e in &events {
                                let last = &mut last[(e.arg / PER_WRITER) as usize];
                                assert!(*last < Some(e.arg), "{} after {last:?}", e.arg);
                                *last = Some(e.arg);
                            }
                            ids.extend(events.iter().map(|e| e.arg));
                            lost += l;
                        }
                        (ids, lost)
                    })
                })
                .collect();
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    scope.spawn(move || {
                        let id = |i| Event {
                            arg: w * PER_WRITER + i,
                            ..ev(i)
                        };
                        for i in (0..PER_WRITER).step_by(4) {
                            if i % 8 == 0 {
                                ring.push_batch((0..4u32).map(|k| id(i + u64::from(k))));
                            } else {
                                (i..i + 4).for_each(|i| ring.push(id(i)));
                            }
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().expect("writer panicked");
            }
            writing.store(false, Ordering::Release);
            for drainer in drainers {
                let (ids, l) = drainer.join().expect("drainer panicked");
                delivered.extend(ids);
                lost += l;
            }
        });
        let (rest, l) = ring.drain();
        delivered.extend(rest.iter().map(|e| e.arg));
        lost += l;

        let pushed = WRITERS * PER_WRITER;
        delivered.sort_unstable();
        assert!(
            delivered.windows(2).all(|w| w[0] != w[1]),
            "an event was delivered twice"
        );
        assert!(delivered.iter().all(|&id| id < pushed));
        assert_eq!(delivered.len() as u64 + lost, pushed, "delivered + dropped");
        assert_eq!(ring.dropped(), lost);
        assert_eq!(ring.written(), 0);
    }
}
