//! The [`Recorder`] handle the instrumented crates hold.
//!
//! A `Recorder` is a cheap clone (one `Option<Arc>`), and a disabled one
//! is literally `None`: every record call starts with one branch on the
//! option and does nothing else, so an uninstrumented run pays a
//! predictable, near-zero cost on the resume hot path.
//!
//! Time is the repo's *virtual* nanosecond axis (the cost model's
//! modeled durations), not the wall clock: callers lay spans onto a
//! shared cursor with [`Recorder::set_now`] / [`Recorder::advance`], so
//! exported traces line up exactly with the `ResumeBreakdown` numbers
//! the simulator reports.

use crate::counters::{Counter, CounterRegistry, Gauge};
use crate::event::{Event, EventKind, TraceContext};
use crate::ring::ShardedRing;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The *authoritative* [`TraceContext`] of the current thread, as
    /// (recorder key, packed context). [`Recorder::context`] reads this
    /// slot, so concurrent drivers each see the context *they*
    /// installed and one driver's `set_context` can never bleed into
    /// another driver's invocation records (the duplicate-invocation-id
    /// race caught by `crates/faas/tests/concurrency.rs`). The key —
    /// the recorder's `Arc` address — keeps distinct recorders on one
    /// thread from reading each other's context.
    ///
    /// Event *stamping* deliberately does not read this slot: the
    /// per-event hot path reads the shared [`RecorderInner::ctx`]
    /// mirror instead (an atomic load is measurably cheaper than a TLS
    /// access, and the telemetry overhead budget is tight), accepting
    /// the documented single-driver scoping of causal attribution.
    static THREAD_CTX: Cell<(usize, u64)> = const { Cell::new((0, 0)) };
}

/// The current [`TraceContext`] packed into one word so the thread-local
/// slot stays a simple `Cell<(usize, u64)>`: bits 0..56 the invocation
/// id, bits 56..64 the parent kind as `discriminant + 1` (0 = no
/// parent).
fn pack_ctx(ctx: TraceContext) -> u64 {
    let parent = ctx.parent.map_or(0u64, |p| u64::from(p as u8) + 1);
    (parent << 56) | (ctx.invocation & ((1 << 56) - 1))
}

fn unpack_ctx(word: u64) -> TraceContext {
    TraceContext {
        invocation: word & ((1 << 56) - 1),
        parent: match (word >> 56) as u8 {
            0 => None,
            p => EventKind::from_u8(p - 1),
        },
    }
}

/// Ring sizing for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Number of ring shards (rounded up to a power of two).
    pub shards: usize,
    /// Events per shard (rounded up to a power of two).
    pub capacity_per_shard: usize,
}

impl Default for TelemetryConfig {
    /// 8 shards × 32 768 slots — roomy enough that the workloads in this
    /// repo (including `trace_resume`) drop zero events between drains.
    fn default() -> Self {
        Self {
            shards: 8,
            capacity_per_shard: 32 * 1024,
        }
    }
}

#[derive(Debug)]
struct RecorderInner {
    ring: ShardedRing,
    counters: CounterRegistry,
    /// The virtual-time cursor, in nanoseconds.
    now_ns: AtomicU64,
    /// Shared mirror of the most recently installed trace context (see
    /// [`pack_ctx`]); read by the per-event stamping fast path.
    /// [`THREAD_CTX`] is authoritative for [`Recorder::context`].
    ctx: AtomicU64,
    /// Next invocation id to mint (ids start at 1; 0 = untraced).
    next_invocation: AtomicU64,
}

/// A complete drain of a recorder: the coherent event timeline plus the
/// counter/gauge state and the drop tally at drain time.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// All surviving events in timeline order: sorted by
    /// `(start_ns, track, kind, dur_ns)`, equal keys in shard order and
    /// then ring order.
    pub events: Vec<Event>,
    /// `(name, value)` for every counter, vocabulary order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge, vocabulary order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Events lost to ring overwrite or torn reads (cumulative).
    pub dropped: u64,
    /// Events lost since the previous drain: the window this snapshot's
    /// events cover.
    pub dropped_in_window: u64,
    /// Events lost per writer shard (cumulative; sums to `dropped`), so
    /// exports can point at the lossy writer instead of one anonymous
    /// total.
    pub dropped_by_shard: Vec<u64>,
}

impl TraceSnapshot {
    /// Whether any writer's event stream lost events in this snapshot's
    /// window — percentiles and attributions computed from it are lower
    /// bounds then. Losses of earlier windows do not count.
    pub fn is_lossy(&self) -> bool {
        self.dropped_in_window > 0
    }
}

/// Handle for recording telemetry; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// A recorder that records nothing, at near-zero cost.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled recorder with the given ring sizing.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            inner: Some(Arc::new(RecorderInner {
                ring: ShardedRing::new(config.shards, config.capacity_per_shard),
                counters: CounterRegistry::new(),
                now_ns: AtomicU64::new(0),
                ctx: AtomicU64::new(0),
                next_invocation: AtomicU64::new(1),
            })),
        }
    }

    /// An enabled recorder with [`TelemetryConfig::default`] sizing.
    pub fn enabled() -> Self {
        Self::new(TelemetryConfig::default())
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current position of the virtual-time cursor, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.now_ns.load(Ordering::Relaxed))
    }

    /// Moves the cursor to an absolute virtual time (e.g. the simulated
    /// platform clock before an invoke).
    pub fn set_now(&self, now_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.now_ns.store(now_ns, Ordering::Relaxed);
        }
    }

    /// Advances the cursor by `dur_ns` and returns the span's start (the
    /// cursor position before the advance).
    ///
    /// The advance is an atomic `fetch_add`, so concurrent driver
    /// threads never lose a cursor step and every span still claims a
    /// distinct interval. The *causal* reading of the shared timeline —
    /// spans laid end to end in pipeline order — only holds for a
    /// single driving thread: multiple drivers interleave their
    /// advances, which is safe but produces a braided timeline (the
    /// throughput benchmark therefore runs its contended phases with
    /// tracing off; see DESIGN.md §10).
    pub fn advance(&self, dur_ns: u64) -> u64 {
        match &self.inner {
            Some(inner) => inner.now_ns.fetch_add(dur_ns, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Mints a fresh invocation id (unique across every clone of this
    /// recorder — in a cluster all hosts share one recorder, so ids are
    /// cluster-unique). Returns 0 when disabled.
    pub fn mint_invocation(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.next_invocation.fetch_add(1, Ordering::Relaxed))
    }

    /// The key identifying this recorder in the thread-local context
    /// slot: the shared inner's address (never 0, so the slot's zeroed
    /// initial state matches no recorder).
    fn ctx_key(inner: &Arc<RecorderInner>) -> usize {
        Arc::as_ptr(inner) as usize
    }

    /// Installs the current trace context: every event recorded through
    /// [`Recorder::span`] / [`Recorder::span_at`] / [`Recorder::instant`]
    /// is stamped with it until the next `set_context`/`clear_context`,
    /// and [`Recorder::context`] on *this thread* returns it.
    ///
    /// Identity is thread-local: `context()` always returns the context
    /// the calling thread installed, so the invocation id a concurrent
    /// `invoke` reports is the one minted for that call — one driver's
    /// install never bleeds into another driver's records. Event
    /// *stamping* reads a shared mirror (last installer wins), so under
    /// concurrent drivers causal attribution braids, exactly like the
    /// shared time cursor (see [`Recorder::advance`]); traced
    /// attribution runs stay scoped to one driver (DESIGN.md §10).
    pub fn set_context(&self, ctx: TraceContext) {
        if let Some(inner) = &self.inner {
            let packed = pack_ctx(ctx);
            THREAD_CTX.set((Self::ctx_key(inner), packed));
            inner.ctx.store(packed, Ordering::Relaxed);
        }
    }

    /// Resets the current thread's context to untraced.
    pub fn clear_context(&self) {
        self.set_context(TraceContext::UNTRACED);
    }

    /// The current thread's trace context ([`TraceContext::UNTRACED`]
    /// when disabled, outside an invocation, or when the thread's slot
    /// belongs to a different recorder).
    pub fn context(&self) -> TraceContext {
        match &self.inner {
            Some(inner) => unpack_ctx(Self::thread_ctx(inner)),
            None => TraceContext::UNTRACED,
        }
    }

    /// The packed thread-local context, 0 (untraced) if the slot was
    /// installed by a different recorder.
    fn thread_ctx(inner: &Arc<RecorderInner>) -> u64 {
        let (key, packed) = THREAD_CTX.get();
        if key == Self::ctx_key(inner) {
            packed
        } else {
            0
        }
    }

    /// Re-parents the current thread's context (same invocation) —
    /// called when the pipeline descends into a child span, e.g. the
    /// vmm sets the parent to `ResumeSortedMerge` before dispatching the
    /// scheduler merge so the scheduler's events attach to the right
    /// step.
    pub fn set_parent(&self, parent: Option<EventKind>) {
        if let Some(inner) = &self.inner {
            let cur = unpack_ctx(Self::thread_ctx(inner));
            let packed = pack_ctx(TraceContext {
                invocation: cur.invocation,
                parent,
            });
            THREAD_CTX.set((Self::ctx_key(inner), packed));
            inner.ctx.store(packed, Ordering::Relaxed);
        }
    }

    /// Records a span at an explicit position on the virtual axis.
    pub fn span_at(&self, kind: EventKind, track: u32, start_ns: u64, dur_ns: u64, arg: u64) {
        if let Some(inner) = &self.inner {
            let ctx = unpack_ctx(inner.ctx.load(Ordering::Relaxed));
            inner.ring.push(Event {
                kind,
                track,
                start_ns,
                dur_ns,
                arg,
                invocation: ctx.invocation,
                parent: ctx.parent,
            });
        }
    }

    /// Records a span covering `dur_ns` at the cursor, advancing it.
    /// The advance is a `fetch_add` — see [`Recorder::advance`] for the
    /// multi-driver semantics.
    pub fn span(&self, kind: EventKind, track: u32, dur_ns: u64, arg: u64) {
        if let Some(inner) = &self.inner {
            let start = inner.now_ns.fetch_add(dur_ns, Ordering::Relaxed);
            let ctx = unpack_ctx(inner.ctx.load(Ordering::Relaxed));
            inner.ring.push(Event {
                kind,
                track,
                start_ns: start,
                dur_ns,
                arg,
                invocation: ctx.invocation,
                parent: ctx.parent,
            });
        }
    }

    /// Records an instant event at the cursor (does not advance it).
    pub fn instant(&self, kind: EventKind, track: u32, arg: u64) {
        if let Some(inner) = &self.inner {
            let ctx = unpack_ctx(inner.ctx.load(Ordering::Relaxed));
            inner.ring.push(Event {
                kind,
                track,
                start_ns: inner.now_ns.load(Ordering::Relaxed),
                dur_ns: 0,
                arg,
                invocation: ctx.invocation,
                parent: ctx.parent,
            });
        }
    }

    /// Records a batch of events with a single ring-position claim —
    /// the 𝒫²𝒮ℳ splice synthesis emits one span per merge thread and
    /// would otherwise pay one atomic RMW each.
    pub fn span_batch<I>(&self, events: I)
    where
        I: IntoIterator<Item = Event>,
        I::IntoIter: ExactSizeIterator,
    {
        if let Some(inner) = &self.inner {
            inner.ring.push_batch(events);
        }
    }

    /// Bumps a counter by `n`.
    pub fn count(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters.add(counter, n);
        }
    }

    /// Sets a gauge to its latest value.
    pub fn gauge(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.counters.set_gauge(gauge, value);
        }
    }

    /// Moves a gauge by a signed delta — the hot-path alternative to
    /// [`Recorder::gauge`] when recomputing the absolute value would
    /// mean scanning state (e.g. all runqueues) per event.
    pub fn gauge_add(&self, gauge: Gauge, delta: i64) {
        if let Some(inner) = &self.inner {
            inner.counters.add_gauge(gauge, delta);
        }
    }

    /// Reads a gauge (0 when disabled).
    pub fn gauge_value(&self, gauge: Gauge) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.counters.gauge(gauge))
    }

    /// Reads a counter (0 when disabled).
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.counters.get(counter))
    }

    /// Events lost to ring overwrite so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.dropped())
    }

    /// Drains the rings and snapshots counters and gauges.
    ///
    /// Returns an empty snapshot when disabled. Counters are cumulative
    /// across drains; events are consumed.
    pub fn drain(&self) -> TraceSnapshot {
        match &self.inner {
            Some(inner) => {
                let (events, dropped_in_window) = inner.ring.drain();
                TraceSnapshot {
                    events,
                    counters: inner.counters.snapshot_counters(),
                    gauges: inner.counters.snapshot_gauges(),
                    dropped: inner.ring.dropped(),
                    dropped_in_window,
                    dropped_by_shard: inner.ring.dropped_by_shard(),
                }
            }
            None => TraceSnapshot {
                events: Vec::new(),
                counters: Vec::new(),
                gauges: Vec::new(),
                dropped: 0,
                dropped_in_window: 0,
                dropped_by_shard: Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.span(EventKind::Resume, 0, 100, 0);
        rec.instant(EventKind::PoolHit, 0, 0);
        rec.count(Counter::Splices, 5);
        rec.set_now(1_000);
        assert_eq!(rec.now_ns(), 0);
        assert_eq!(rec.advance(50), 0);
        let snap = rec.drain();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn spans_lay_end_to_end_on_the_cursor() {
        let rec = Recorder::enabled();
        rec.set_now(1_000);
        rec.span(EventKind::ResumeParse, 0, 10, 0);
        rec.span(EventKind::ResumeLock, 0, 20, 0);
        rec.instant(EventKind::PoolHit, 0, 0);
        assert_eq!(rec.now_ns(), 1_030);
        let snap = rec.drain();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].start_ns, 1_000);
        assert_eq!(snap.events[0].end_ns(), 1_010);
        assert_eq!(snap.events[1].start_ns, 1_010);
        assert_eq!(snap.events[1].end_ns(), 1_030);
        assert_eq!(snap.events[2].start_ns, 1_030);
        assert!(snap.events[2].is_instant());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn counters_survive_drains_and_clones_share_state() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.count(Counter::ResumesHorse, 2);
        rec.count(Counter::ResumesHorse, 1);
        rec.gauge(Gauge::QueuedVcpus, 9);
        let first = rec.drain();
        assert!(first.counters.contains(&("resumes_horse", 3)));
        assert!(first.gauges.contains(&("queued_vcpus", 9)));
        rec.count(Counter::ResumesHorse, 1);
        let second = rec.drain();
        assert!(
            second.counters.contains(&("resumes_horse", 4)),
            "cumulative"
        );
        assert!(second.events.is_empty(), "events were consumed");
    }

    #[test]
    fn context_stamps_every_cursor_recorded_event() {
        let rec = Recorder::enabled();
        let inv = rec.mint_invocation();
        assert_eq!(inv, 1, "ids start at 1; 0 means untraced");
        rec.set_context(TraceContext::root(inv));
        rec.span(EventKind::InvokeHorse, 0, 100, 0);
        rec.set_parent(Some(EventKind::Resume));
        rec.span(EventKind::ResumeSortedMerge, 0, 40, 0);
        rec.instant(EventKind::PoolHit, 0, 0);
        rec.span_at(EventKind::SpliceWork, 1, 100, 20, 2);
        rec.clear_context();
        rec.instant(EventKind::Rebalance, 0, 0);

        let snap = rec.drain();
        let by_kind = |k| snap.events.iter().find(|e| e.kind == k).unwrap();
        assert_eq!(by_kind(EventKind::InvokeHorse).invocation, inv);
        assert_eq!(by_kind(EventKind::InvokeHorse).parent, None);
        assert_eq!(
            by_kind(EventKind::ResumeSortedMerge).parent,
            Some(EventKind::Resume)
        );
        assert_eq!(by_kind(EventKind::SpliceWork).invocation, inv);
        assert_eq!(by_kind(EventKind::Rebalance).invocation, 0, "cleared");
        assert_eq!(rec.context(), TraceContext::UNTRACED);
    }

    #[test]
    fn minted_ids_are_unique_across_clones() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        let a = rec.mint_invocation();
        let b = clone.mint_invocation();
        assert_ne!(a, b);
        assert_eq!(Recorder::disabled().mint_invocation(), 0);
    }

    #[test]
    fn context_identity_is_per_thread() {
        // Two drivers install different contexts on the same recorder;
        // `context()` must keep returning the id each thread installed
        // itself, no matter how the other thread interleaves — the
        // shared-atomic-only version of this slot let one driver's
        // install bleed into the other's reads (duplicate invocation
        // ids in crates/faas/tests/concurrency.rs).
        let rec = Recorder::enabled();
        std::thread::scope(|scope| {
            for inv in [10u64, 20] {
                let rec = rec.clone();
                scope.spawn(move || {
                    for round in 0..200 {
                        rec.set_context(TraceContext::root(inv));
                        rec.instant(EventKind::InvokeWarm, 0, round);
                        assert_eq!(rec.context().invocation, inv);
                        rec.set_parent(Some(EventKind::InvokeWarm));
                        assert_eq!(rec.context().invocation, inv);
                        rec.clear_context();
                        assert_eq!(rec.context(), TraceContext::UNTRACED);
                    }
                });
            }
        });
        assert_eq!(rec.drain().events.len(), 400);
    }

    #[test]
    fn context_slot_is_keyed_by_recorder() {
        // A second recorder on the same thread must not read the first
        // recorder's ambient context.
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        a.set_context(TraceContext::root(7));
        assert_eq!(a.context().invocation, 7);
        assert_eq!(b.context(), TraceContext::UNTRACED);
        // ...and installing b's context displaces a's slot entirely.
        b.set_context(TraceContext::root(9));
        assert_eq!(b.context().invocation, 9);
        assert_eq!(a.context(), TraceContext::UNTRACED);
    }

    #[test]
    fn snapshot_reports_per_shard_drops() {
        let rec = Recorder::new(TelemetryConfig {
            shards: 2,
            capacity_per_shard: 8,
        });
        for _ in 0..40 {
            rec.instant(EventKind::PoolMiss, 0, 0);
        }
        let snap = rec.drain();
        assert!(snap.is_lossy());
        assert_eq!(snap.dropped_by_shard.len(), 2);
        assert_eq!(snap.dropped_by_shard.iter().sum::<u64>(), snap.dropped);
    }

    #[test]
    fn lossy_flags_the_window_not_the_history() {
        let rec = Recorder::new(TelemetryConfig {
            shards: 1,
            capacity_per_shard: 8,
        });
        for _ in 0..20 {
            rec.instant(EventKind::PoolMiss, 0, 0);
        }
        let overflowed = rec.drain();
        assert!(overflowed.is_lossy());
        assert_eq!(overflowed.dropped_in_window, 12);
        assert_eq!(overflowed.dropped, 12);

        for _ in 0..8 {
            rec.instant(EventKind::PoolHit, 0, 0);
        }
        let within = rec.drain();
        assert_eq!(within.events.len(), 8);
        assert!(
            !within.is_lossy(),
            "an earlier window's loss is not this one's"
        );
        assert_eq!(within.dropped_in_window, 0);
        assert_eq!(within.dropped, 12, "the cumulative count stays");
        assert_eq!(within.dropped_by_shard, vec![12]);
    }

    #[test]
    fn span_at_allows_out_of_cursor_placement() {
        let rec = Recorder::enabled();
        rec.set_now(500);
        // Synthesized parallel merge-thread work, laid inside the parent
        // span without moving the cursor.
        rec.span_at(EventKind::SpliceWork, 1, 500, 40, 3);
        rec.span_at(EventKind::SpliceWork, 2, 500, 35, 2);
        assert_eq!(rec.now_ns(), 500);
        let snap = rec.drain();
        assert_eq!(snap.events.len(), 2);
        assert!(snap.events.iter().all(|e| e.start_ns == 500));
    }
}
