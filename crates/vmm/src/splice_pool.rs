//! Real-thread worker pool for the resume-time 𝒫²𝒮ℳ splice.
//!
//! The paper's Algorithm 1 executes the splice on pre-existing,
//! highest-priority kernel workers; this pool is the userspace analogue
//! the VMM owns across resumes. A staged merge ([`MergePlan::stage`])
//! partitions the splice-point map into `w` disjoint blocks — two atomic
//! pointer writes per splice, **no lock on the merge itself** — plus the
//! wakes of the merged vCPUs (emulated; see
//! [`Vmm::set_wake_emulation_nanos`]). **The dispatcher is worker 0:** a
//! width-`w` pool ([`SplicePool::parallel`]) creates `w − 1` threads
//! **once**; they sleep in [`std::thread::park`] between merges, and the
//! thread that calls [`SplicePool::run`] executes block 0 itself while
//! they execute blocks `1..w`.
//!
//! # The hand-off
//!
//! Two parties: the dispatcher and the parked threads. Per thread: a job
//! slot and a generation word. Per pool: a countdown and the dispatcher's
//! thread handle. One merge, dispatcher side:
//!
//! 1. copy blocks `1..w` into their slots' [`DetachedBlock`]s;
//! 2. store its own [`Thread`] handle (captured per dispatch — the `Vmm`
//!    sits behind a mutex and successive resumes come from different
//!    driver threads) and set the countdown to `w − 1`;
//! 3. per thread: put a [`LinkTable`] clone in the slot, store the new
//!    generation (`Release`), `unpark`;
//! 4. execute block 0 through the arena's own link table, under
//!    `catch_unwind`, and stamp the elapsed time;
//! 5. `park` until the countdown reads 0 (`Acquire`) — **always**, even
//!    if step 4 panicked;
//! 6. re-raise one panic if any block panicked.
//!
//! Thread side: `park` until the generation word differs from the last
//! one served (`Acquire`), execute the block, stamp the elapsed time,
//! **drop the link table**, decrement the countdown (`AcqRel`); whoever
//! takes it to 0 unparks the dispatcher.
//!
//! *The unwind rule.* `run` never unwinds between step 3 and the end of
//! step 5: a `run` that left early would return the arena to its owner
//! while a thread still holds the link table and writes through it (and
//! `Arena::alloc` may then replace the table under it). Block 0 therefore
//! runs under the same `catch_unwind` as a thread's block, and a panic in
//! either surfaces only after the countdown — once, as "a splice worker
//! thread panicked", whichever blocks it came from. The pool stays usable.
//!
//! *Orderings.* The generation `Release`/`Acquire` pair publishes the
//! countdown reset and every `Relaxed` link-table write the dispatcher
//! made since the last merge. The countdown decrements are read-modify-
//! write operations on one word, so they form a release sequence: the
//! dispatcher's `Acquire` load of 0 sees every thread's `Relaxed` splice
//! writes and elapsed stamp. Block 0's writes are the dispatcher's own
//! and need no edge. The job slot itself is a `Mutex` (the crate forbids
//! `unsafe`); it is never contended — the dispatcher fills it while the
//! thread is parked on the old generation.
//!
//! *Wake-ups.* Both wait loops re-check their word after every `park`:
//! `park` may return spuriously, and the last thread of generation *g*
//! may deliver its `unpark` after the dispatcher has already seen 0, so
//! the token surfaces during generation *g + 1*. A lost wake-up is
//! impossible: each side stores its word *before* it unparks, and an
//! `unpark` that arrives before the `park` makes that `park` return.
//!
//! *Two parties, not three.* With the dispatcher only dispatching, a
//! width-2 merge on one CPU (driver and threads pinned together, as
//! `wide_resume` pins them) is at least three context switches — D → W0 →
//! W1 → D — and whenever the two workers did not run back to back the
//! resume landed in a second latency mode ≈ 3.7 µs slower (≈ 13 % of
//! resumes; the 99th percentile sat on that mode's edge). With the
//! dispatcher as worker 0 the same merge is two switches, D → W1 → D, the
//! second worker no longer exists and the mode is gone (EXPERIMENTS.md,
//! *Linear pause and two-party hand-off*). A waiter that spins instead of parking holds the CPU the
//! other side needs — 64 `spin_loop` iterations before the park measured
//! 7.8 µs per merge against 4.1 µs parking at once, 2 000 iterations
//! 96 µs — so both sides park at once.
//!
//! *Lifetimes.* A thread outlives every borrow, so it touches nothing
//! borrowed. The arena's `next` words are reference-counted
//! ([`LinkTable`]); the thread drops its clone before it decrements the
//! countdown, so once [`SplicePool::run`] returns only the arena holds
//! the table and `Arena::alloc` may replace it with a larger one. The
//! plan's tables are not shared at all: the dispatcher copies each
//! thread's splices, anchors resolved to nodes, into a buffer the slot
//! keeps (24 bytes per splice, no allocation once warm); block 0 is
//! executed straight from the borrowed plan. Lending the tables by
//! reference count instead was measured: the plan's pause-time mutators
//! then each pay an exclusivity check (`Arc::make_mut`, a locked
//! compare-exchange) on the *inline* path. Dropping the pool publishes a
//! shutdown generation and joins every thread.
//!
//! Two properties are load-bearing:
//!
//! * **The default pool is inline.** A pool of width 1 has no threads and
//!   executes the one block on the calling thread — the warm invoke path
//!   keeps its zero-allocation, no-syscall profile and the throughput
//!   floor holds. Parallel dispatch is opt-in per VMM
//!   ([`SplicePool::parallel`]), used by the benches and tests that
//!   measure real concurrency; it allocates nothing per merge either. It
//!   is evidence for the O(1) *structure* of the splice, not a fast path:
//!   on the reference box inline beats it at every evaluated width.
//! * **Dispatch cost is independent of the splice count.** A parallel
//!   pool always wakes every thread, even when some blocks are empty, so
//!   a 1-splice resume and a 144-splice resume pay the same fixed
//!   hand-off — the wall-clock analogue of the paper's O(1) claim, which
//!   `bench_suite --wall-clock-resume` gates.
//!
//! Virtual-axis accounting never touches this module: the cost model
//! charges `horse_merge_ns(splices)` from the *plan's* splice count, the
//! merge report comes from `finish_staged` in every execution strategy,
//! and no block's writes are counted on the arena — every block, block 0
//! included, splices through the [`LinkTable`] — so enabling the pool
//! cannot move a single `*_ns` leaf.
//!
//! [`MergePlan::stage`]: horse_core::MergePlan::stage
//! [`Vmm::set_wake_emulation_nanos`]: crate::Vmm::set_wake_emulation_nanos
//! [`Thread`]: std::thread::Thread

use horse_core::{Arena, DetachedBlock, LinkTable, StagedMerge};
use horse_sched::SpliceWatchdog;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Default wall-clock straggler budget: 5 ms. Generous — real splice
/// workers finish in microseconds; the budget exists to flag runners
/// whose threads get descheduled for milliseconds, not to race healthy
/// workers. Observational only (see [`SpliceWatchdog::supervise_wall`]).
pub const DEFAULT_WALL_BUDGET_NANOS: u64 = 5_000_000;

/// Generation value that tells a worker to exit (never reached by
/// counting: the dispatcher increments from 0).
const SHUTDOWN: u64 = u64::MAX;

/// What one parked thread needs for one merge. The block buffer stays in
/// the slot and is refilled per merge; the link table is lent per merge.
#[derive(Debug, Default)]
struct Job {
    block: DetachedBlock,
    /// `Some` from publication until the worker is done with it.
    links: Option<LinkTable>,
    wake_nanos_per_vcpu: u64,
}

/// Per-thread hand-off state: slot `w − 1` belongs to worker `w ≥ 1`,
/// never shared between workers (worker 0 is the dispatcher and needs
/// none).
#[derive(Debug, Default)]
struct WorkerSlot {
    /// Bumped by the dispatcher once `job` is filled; the worker serves
    /// each value once.
    generation: AtomicU64,
    job: Mutex<Job>,
    /// Wall-clock nanoseconds the worker spent on its block (written by
    /// the owning worker, read by the pool after the join).
    elapsed_nanos: AtomicU64,
}

/// State shared between the pool and its workers.
#[derive(Debug)]
struct Shared {
    slots: Box<[WorkerSlot]>,
    /// Threads that have not finished the current generation.
    remaining: AtomicUsize,
    /// The thread parked in [`SplicePool::run`] (set per dispatch).
    dispatcher: Mutex<Option<Thread>>,
    /// A worker body panicked during the current generation.
    panicked: AtomicBool,
}

/// Locks a hand-off mutex. A holder that panics leaves a value the next
/// holder overwrites or tolerates (a refilled block, a `None` link table),
/// so a guard recovered from poisoning is as good as a clean one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Body of the thread serving slot `index` (see the module docs for the
/// protocol).
fn worker_loop(shared: &Shared, index: usize) {
    let slot = &shared.slots[index];
    let mut served = 0;
    loop {
        let generation = loop {
            let generation = slot.generation.load(Ordering::Acquire);
            if generation != served {
                break generation;
            }
            thread::park();
        };
        if generation == SHUTDOWN {
            return;
        }
        served = generation;
        // The link table is taken and dropped inside the closure,
        // unwinding or not: it is back before the countdown moves.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut job = lock(&slot.job);
            let links = job
                .links
                .take()
                .expect("a published generation carries a job");
            let t0 = Instant::now();
            job.block.execute_on(&links);
            let block = &job.block;
            emulate_wakes(
                (0..block.len()).map(|i| block.sub_len(i)),
                job.wake_nanos_per_vcpu,
            );
            t0.elapsed().as_nanos() as u64
        }));
        match outcome {
            Ok(nanos) => slot.elapsed_nanos.store(nanos, Ordering::Relaxed),
            Err(_) => shared.panicked.store(true, Ordering::Relaxed),
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let Some(dispatcher) = lock(&shared.dispatcher).as_ref() {
                dispatcher.unpark();
            }
        }
    }
}

/// Cumulative counters of a [`SplicePool`] — the pool's observability
/// surface (mirrors the style of [`crate::VmmStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplicePoolStats {
    /// Staged merges the pool executed (inline or parallel).
    pub merges: u64,
    /// Merges that dispatched real worker threads.
    pub parallel_merges: u64,
    /// Workers dispatched, cumulative: the pool's width per parallel
    /// merge, the dispatching thread's own share included.
    pub dispatched_workers: u64,
    /// Workers whose wall-clock duration overran the watchdog's wall
    /// budget (observational; see [`SpliceWatchdog::supervise_wall`]).
    pub wall_overruns: u64,
}

/// Outcome of one staged-merge execution on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceRun {
    /// Workers dispatched, the calling thread as worker 0 included (0 =
    /// executed inline on the caller).
    pub dispatched_workers: usize,
    /// Workers that overran the wall budget (always 0 inline).
    pub wall_overruns: usize,
}

/// Reusable worker pool executing staged 𝒫²𝒮ℳ merges (see the module
/// docs). The pool object persists across resumes on its owning [`Vmm`]:
/// worker threads, hand-off slots and measurement scratch are created
/// once at construction, so a steady-state resume loop performs no
/// pool-side heap allocation in either mode. Dropping the pool joins its
/// workers.
///
/// [`Vmm`]: crate::Vmm
#[derive(Debug)]
pub struct SplicePool {
    /// Configured parallel width (1 = inline).
    workers: usize,
    shared: Arc<Shared>,
    /// One parked thread per slot: `workers − 1` of them.
    threads: Vec<JoinHandle<()>>,
    /// Last generation published.
    generation: u64,
    /// Join-time measurement buffer, reused across dispatches.
    elapsed_scratch: Vec<u64>,
    /// Wall budget fed to [`SpliceWatchdog::supervise_wall`].
    wall_budget_nanos: u64,
    stats: SplicePoolStats,
}

impl Default for SplicePool {
    fn default() -> Self {
        Self::inline()
    }
}

impl SplicePool {
    /// The default pool: staged blocks execute on the calling thread, no
    /// threads exist. This is what every [`Vmm`] starts with.
    ///
    /// [`Vmm`]: crate::Vmm
    pub fn inline() -> Self {
        Self::parallel(1)
    }

    /// A pool that splits every merge `workers` ways: the calling thread
    /// is worker 0, and the pool owns `workers − 1` parked threads
    /// (`horse-splice-1` … `horse-splice-<workers − 1>`) that it wakes on
    /// every merge (clamped to at least 1; 1 spawns nothing and is
    /// [`Self::inline`]).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to create a thread.
    pub fn parallel(workers: usize) -> Self {
        let workers = workers.max(1);
        let threaded = workers - 1;
        let shared = Arc::new(Shared {
            slots: (0..threaded).map(|_| WorkerSlot::default()).collect(),
            remaining: AtomicUsize::new(0),
            dispatcher: Mutex::new(None),
            panicked: AtomicBool::new(false),
        });
        let threads = (0..threaded)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("horse-splice-{}", index + 1))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn a splice worker thread")
            })
            .collect();
        Self {
            workers,
            shared,
            threads,
            generation: 0,
            elapsed_scratch: Vec::with_capacity(workers),
            wall_budget_nanos: DEFAULT_WALL_BUDGET_NANOS,
            stats: SplicePoolStats::default(),
        }
    }

    /// Configured parallel width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the pool executes inline (width 1).
    pub fn is_inline(&self) -> bool {
        self.workers <= 1
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SplicePoolStats {
        self.stats
    }

    /// Executes a staged merge's node-splice blocks, then emulates the
    /// head-splice wakes on the calling thread. The caller must still run
    /// `finish_staged` afterwards (via the scheduler's
    /// `ull_finish_staged`) — the pool only does the partitionable half.
    ///
    /// `wake_nanos_per_vcpu` > 0 makes every worker sleep that long per
    /// merged vCPU of each splice it executes (the wake-IPI emulation the
    /// wall-clock bench measures); 0 — the default — skips the sleeps
    /// entirely, so nothing changes for virtual-axis callers.
    ///
    /// # Panics
    ///
    /// Panics if the staged plan is corrupt (an anchor outside `arrayB`:
    /// in a parked thread's share before any thread is woken, in the
    /// caller's own share once every thread has reported) or does not
    /// belong to `arena` (a node outside its link table: re-raised here,
    /// once, after every thread has reported). The pool stays usable
    /// either way.
    pub fn run<T>(
        &mut self,
        arena: &Arena<T>,
        staged: &StagedMerge<'_>,
        watchdog: &SpliceWatchdog,
        wake_nanos_per_vcpu: u64,
    ) -> SpliceRun {
        self.stats.merges += 1;
        let run = if self.is_inline() {
            let block = staged.block(0, 1);
            block.execute_on(arena.links());
            emulate_wakes(
                (0..block.len()).map(|i| block.sub_len(i)),
                wake_nanos_per_vcpu,
            );
            SpliceRun {
                dispatched_workers: 0,
                wall_overruns: 0,
            }
        } else {
            // Always wake every thread — empty blocks included — so the
            // dispatch cost is a constant of the pool, not of the splice
            // count (the wall-clock O(1) property under test).
            let workers = self.workers;
            let shared = &*self.shared;
            // Copy every thread's block before publishing any: resolving
            // a block of a corrupt plan can panic, and must then leave no
            // thread running on behalf of a `run` that has unwound.
            for (slot, w) in shared.slots.iter().zip(1..) {
                staged
                    .block(w, workers)
                    .detach_into(&mut lock(&slot.job).block);
            }
            *lock(&shared.dispatcher) = Some(thread::current());
            shared.remaining.store(workers - 1, Ordering::Relaxed);
            self.generation += 1;
            for (slot, handle) in shared.slots.iter().zip(&self.threads) {
                {
                    let mut job = lock(&slot.job);
                    job.links = Some(arena.links().clone());
                    job.wake_nanos_per_vcpu = wake_nanos_per_vcpu;
                }
                slot.generation.store(self.generation, Ordering::Release);
                handle.thread().unpark();
            }
            // Worker 0 is this thread. From here to the end of the wait
            // `run` must not unwind (see *The unwind rule*).
            let own = catch_unwind(AssertUnwindSafe(|| {
                let t0 = Instant::now();
                let block = staged.block(0, workers);
                block.execute_on(arena.links());
                emulate_wakes(
                    (0..block.len()).map(|i| block.sub_len(i)),
                    wake_nanos_per_vcpu,
                );
                t0.elapsed().as_nanos() as u64
            }));
            while shared.remaining.load(Ordering::Acquire) != 0 {
                thread::park();
            }
            let (Ok(own_nanos), false) = (own, shared.panicked.swap(false, Ordering::Relaxed))
            else {
                panic!("a splice worker thread panicked");
            };
            self.stats.parallel_merges += 1;
            self.stats.dispatched_workers += workers as u64;
            self.elapsed_scratch.clear();
            self.elapsed_scratch.push(own_nanos);
            self.elapsed_scratch.extend(
                shared
                    .slots
                    .iter()
                    .map(|s| s.elapsed_nanos.load(Ordering::Relaxed)),
            );
            let rescue = watchdog.supervise_wall(&self.elapsed_scratch, self.wall_budget_nanos);
            self.stats.wall_overruns += rescue.rescued_splices as u64;
            SpliceRun {
                dispatched_workers: workers,
                wall_overruns: rescue.rescued_splices,
            }
        };
        // Head-splice wakes belong to the calling thread: the head splice
        // itself runs in `finish_staged`, on this thread.
        if wake_nanos_per_vcpu > 0 && staged.head_len() > 0 {
            std::thread::sleep(Duration::from_nanos(
                wake_nanos_per_vcpu * staged.head_len() as u64,
            ));
        }
        run
    }
}

impl Drop for SplicePool {
    fn drop(&mut self) {
        for (slot, handle) in self.shared.slots.iter().zip(&self.threads) {
            slot.generation.store(SHUTDOWN, Ordering::Release);
            handle.thread().unpark();
        }
        for handle in self.threads.drain(..) {
            // A worker body catches its own panics; nothing to report.
            let _ = handle.join();
        }
    }
}

/// Emulated wake IPIs for one executed block: one sleep per splice,
/// scaled by the sub-list's vCPU count (serial per worker — exactly the
/// work a kernel splice worker does when it wakes its merged vCPUs).
fn emulate_wakes(sub_lens: impl Iterator<Item = usize>, wake_nanos_per_vcpu: u64) {
    if wake_nanos_per_vcpu == 0 {
        return;
    }
    for sub_len in sub_lens {
        std::thread::sleep(Duration::from_nanos(wake_nanos_per_vcpu * sub_len as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_core::{MergePlan, SortedList};

    fn build(arena: &mut Arena<i64>, keys: &[i64]) -> SortedList {
        let mut l = SortedList::new();
        for &k in keys {
            l.insert_sorted(arena, k, k);
        }
        l
    }

    fn merge_with(pool: &mut SplicePool) -> Vec<i64> {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30, 50, 70]);
        let a = build(&mut arena, &[5, 20, 40, 60, 80]);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
        }
        let (report, _) = plan.finish_staged(&arena, &mut b);
        assert_eq!(report.merged, 5);
        b.check_invariants(&arena).unwrap();
        b.keys(&arena)
    }

    #[test]
    fn inline_and_parallel_produce_identical_lists() {
        let expected = vec![5, 10, 20, 30, 40, 50, 60, 70, 80];
        let mut inline = SplicePool::inline();
        assert_eq!(merge_with(&mut inline), expected);
        assert_eq!(inline.stats().dispatched_workers, 0, "inline never spawns");
        for workers in [2, 4, 16] {
            let mut pool = SplicePool::parallel(workers);
            assert_eq!(merge_with(&mut pool), expected, "workers={workers}");
            assert_eq!(pool.stats().dispatched_workers, workers as u64);
            assert_eq!(pool.stats().parallel_merges, 1);
        }
    }

    #[test]
    fn dispatch_width_is_constant_even_with_empty_blocks() {
        // 2 node splices, 8 workers: 6 blocks are empty, all 8 dispatch.
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30]);
        let a = build(&mut arena, &[20, 40]);
        let plan = MergePlan::precompute(&arena, &b, a);
        let mut pool = SplicePool::parallel(8);
        {
            let staged = plan.stage(&b).unwrap();
            let run = pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
            assert_eq!(run.dispatched_workers, 8);
        }
        plan.finish_staged(&arena, &mut b);
        assert_eq!(b.keys(&arena), vec![10, 20, 30, 40]);
    }

    #[test]
    fn workers_are_created_once_and_named() {
        assert!(SplicePool::inline().threads.is_empty());
        assert!(SplicePool::parallel(1).threads.is_empty());
        let mut pool = SplicePool::parallel(3);
        let ids = |pool: &SplicePool| -> Vec<_> {
            pool.threads.iter().map(|h| h.thread().id()).collect()
        };
        let created = ids(&pool);
        for _ in 0..5 {
            merge_with(&mut pool);
        }
        assert_eq!(ids(&pool), created, "no thread is spawned per merge");
        assert_eq!(pool.generation, 5);
        let names: Vec<_> = pool.threads.iter().map(|h| h.thread().name()).collect();
        // The dispatching thread is worker 0: a width-3 pool owns two.
        assert_eq!(names, [Some("horse-splice-1"), Some("horse-splice-2")]);
    }

    #[test]
    fn spurious_and_stale_unparks_neither_skip_nor_repeat_a_merge() {
        // A token left on a worker or on the dispatcher makes its next
        // `park` return at once; each side must then re-check its word.
        let mut pool = SplicePool::parallel(2);
        for _ in 0..500 {
            for handle in &pool.threads {
                handle.thread().unpark();
            }
            thread::current().unpark();
            assert_eq!(
                merge_with(&mut pool),
                vec![5, 10, 20, 30, 40, 50, 60, 70, 80]
            );
        }
        assert_eq!(pool.stats().dispatched_workers, 1000);
    }

    #[test]
    fn wall_overruns_flagged_under_tiny_budget() {
        let mut pool = SplicePool::parallel(4);
        pool.wall_budget_nanos = 0; // every worker "overruns" a 0 budget
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30, 50, 70, 90]);
        let a = build(&mut arena, &[20, 40, 60, 80]);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            let run = pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
            assert_eq!(run.wall_overruns, 4);
        }
        plan.finish_staged(&arena, &mut b);
        assert_eq!(pool.stats().wall_overruns, 4);
    }
}
