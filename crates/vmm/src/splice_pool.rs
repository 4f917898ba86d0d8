//! Real-thread worker pool for the resume-time 𝒫²𝒮ℳ splice.
//!
//! The paper's Algorithm 1 executes the splice on pre-existing,
//! highest-priority kernel workers; this pool is the userspace analogue
//! the VMM owns across resumes. [`SplicePool::parallel`] creates its
//! workers **once**; they sleep in [`std::thread::park`] between merges.
//! A staged merge ([`MergePlan::stage`]) partitions the splice-point map
//! into disjoint per-worker blocks, and the pool hands each worker its
//! block — two atomic pointer writes per splice, **no lock on the merge
//! itself** — and the wakes of the merged vCPUs (emulated; see
//! [`Vmm::set_wake_emulation_nanos`]).
//!
//! # The hand-off
//!
//! Per worker: a job slot and a generation word. Per pool: a countdown
//! and the dispatcher's thread handle. One merge, dispatcher side:
//!
//! 1. copy each worker's block into its slot's [`DetachedBlock`];
//! 2. store its own [`Thread`] handle (captured per dispatch — the `Vmm`
//!    sits behind a mutex and successive resumes come from different
//!    driver threads) and set the countdown to the worker count;
//! 3. per worker: put a [`LinkTable`] clone in the slot, store the new
//!    generation (`Release`), `unpark`;
//! 4. `park` until the countdown reads 0 (`Acquire`).
//!
//! Worker side: `park` until the generation word differs from the last
//! one served (`Acquire`), execute the block, stamp the elapsed time,
//! **drop the link table**, decrement the countdown (`AcqRel`); whoever
//! takes it to 0 unparks the dispatcher.
//!
//! *Orderings.* The generation `Release`/`Acquire` pair publishes the
//! countdown reset and every `Relaxed` link-table write the dispatcher
//! made since the last merge. The countdown decrements are read-modify-
//! write operations on one word, so they form a release sequence: the
//! dispatcher's `Acquire` load of 0 sees every worker's `Relaxed` splice
//! writes and elapsed stamp. The job slot itself is a `Mutex` (the crate
//! forbids `unsafe`); it is never contended — the dispatcher fills it
//! while the worker is parked on the old generation.
//!
//! *Wake-ups.* Both wait loops re-check their word after every `park`:
//! `park` may return spuriously, and the last worker of generation *g*
//! may deliver its `unpark` after the dispatcher has already seen 0, so
//! the token surfaces during generation *g + 1*. A lost wake-up is
//! impossible: each side stores its word *before* it unparks, and an
//! `unpark` that arrives before the `park` makes that `park` return.
//!
//! *No spin.* A prototype of exactly this protocol on the 2-core
//! reference box, driver and workers sharing one CPU as `wide_resume`
//! pins them (2 workers, 36 two-store splices), measured p50 per merge:
//!
//! | hand-off | p50 |
//! |---|---|
//! | spawn + join scoped threads per merge (what this replaced) | 40.1 µs |
//! | park/unpark, no spin | 4.1 µs |
//! | 64-iteration `spin_loop`, then park | 7.8 µs |
//! | 2 000-iteration `spin_loop`, then park | 96 µs |
//!
//! A spinning waiter holds the CPU the other side needs, so every spin
//! iteration is pure delay there. The pool therefore parks at once.
//!
//! *Lifetimes.* A worker outlives every borrow, so it touches nothing
//! borrowed. The arena's `next` words are reference-counted
//! ([`LinkTable`]); the worker drops its clone before it decrements the
//! countdown, so once [`SplicePool::run`] returns only the arena holds
//! the table and `Arena::alloc` may replace it with a larger one. The
//! plan's tables are not shared at all: the dispatcher copies each
//! worker's splices, anchors resolved to nodes, into a buffer the slot
//! keeps (24 bytes per splice, no allocation once warm). Lending the
//! tables by reference count instead was measured: the plan's pause-time
//! mutators then each pay an exclusivity check (`Arc::make_mut`, a locked
//! compare-exchange) on the *inline* path — seven per warm invoke when
//! that was measured (six of them peer-plan rebuilds, since made lazy),
//! ≈ 45 ns of an `ull_seq` invoke that took 1.15 µs then and takes
//! 0.79 µs now — against 45 ns of copying at 36 splices (135 ns at 144)
//! on a 5 µs dispatch that only parallel pools pay. Dropping the pool
//! publishes a shutdown generation and joins every worker.
//!
//! Two properties are load-bearing:
//!
//! * **The default pool is inline.** A pool with one worker has no
//!   threads and executes the staged blocks on the calling thread — the
//!   warm invoke path keeps its zero-allocation, no-syscall profile and
//!   the throughput floor holds. Parallel dispatch is opt-in per VMM
//!   ([`SplicePool::parallel`]), used by the benches and tests that
//!   measure real concurrency; it allocates nothing per merge either.
//! * **Dispatch cost is independent of the splice count.** A parallel
//!   pool always hands a job to every worker, even when some blocks are
//!   empty, so a 1-splice resume and a 144-splice resume pay the same
//!   fixed hand-off — the wall-clock analogue of the paper's O(1) claim,
//!   which `bench_suite --wall-clock-resume` gates.
//!
//! Virtual-axis accounting never touches this module: the cost model
//! charges `horse_merge_ns(splices, parallel)` from the *plan's* splice
//! count, the merge report comes from `finish_staged` in every execution
//! strategy, and the workers' pointer writes are booked on the arena's
//! counter after the join, so enabling the pool cannot move a single
//! `*_ns` leaf.
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

/// What one worker needs for one merge. The block buffer stays in the
/// slot and is refilled per merge; the link table is lent per merge.
#[derive(Debug, Default)]
struct Job {
    block: DetachedBlock,
    /// `Some` from publication until the worker is done with it.
    links: Option<LinkTable>,
    wake_nanos_per_vcpu: u64,
}

/// Per-worker hand-off state: slot `w` belongs to worker `w`, never
/// shared between workers.
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
    /// Workers that have not finished the current generation.
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

/// Body of worker `w` (see the module docs for the protocol).
fn worker_loop(shared: &Shared, w: usize) {
    let slot = &shared.slots[w];
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
    /// Worker threads dispatched, cumulative.
    pub dispatched_workers: u64,
    /// Workers whose wall-clock duration overran the watchdog's wall
    /// budget (observational; see [`SpliceWatchdog::supervise_wall`]).
    pub wall_overruns: u64,
}

/// Outcome of one staged-merge execution on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceRun {
    /// Worker threads dispatched (0 = executed inline on the caller).
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
    /// One parked thread per slot (none for a width-1 pool).
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

    /// A pool that owns `workers` parked threads (`horse-splice-<w>`) and
    /// hands every merge to all of them (clamped to at least 1; 1 spawns
    /// nothing and is [`Self::inline`]).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to create a thread.
    pub fn parallel(workers: usize) -> Self {
        let workers = workers.max(1);
        let threaded = if workers > 1 { workers } else { 0 };
        let shared = Arc::new(Shared {
            slots: (0..threaded).map(|_| WorkerSlot::default()).collect(),
            remaining: AtomicUsize::new(0),
            dispatcher: Mutex::new(None),
            panicked: AtomicBool::new(false),
        });
        let threads = (0..threaded)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("horse-splice-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn a splice worker thread")
            })
            .collect();
        Self {
            workers,
            shared,
            threads,
            generation: 0,
            elapsed_scratch: Vec::with_capacity(threaded),
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
    /// before any worker is woken) or does not belong to `arena` (a node
    /// outside its link table: in a worker, re-raised here once every
    /// worker has reported). The pool stays usable either way.
    pub fn run<T: Sync>(
        &mut self,
        arena: &Arena<T>,
        staged: &StagedMerge<'_>,
        watchdog: &SpliceWatchdog,
        wake_nanos_per_vcpu: u64,
    ) -> SpliceRun {
        self.stats.merges += 1;
        let run = if self.is_inline() {
            let block = staged.block(0, 1);
            block.execute(arena);
            emulate_wakes(
                (0..block.len()).map(|i| block.sub_len(i)),
                wake_nanos_per_vcpu,
            );
            SpliceRun {
                dispatched_workers: 0,
                wall_overruns: 0,
            }
        } else {
            // Always hand a job to every worker — empty blocks included —
            // so the dispatch cost is a constant of the pool, not of the
            // splice count (the wall-clock O(1) property under test).
            let workers = self.workers;
            let shared = &*self.shared;
            // Copy every block before publishing any: resolving a block
            // of a corrupt plan can panic, and must then leave no worker
            // running on behalf of a `run` that has unwound.
            for (w, slot) in shared.slots.iter().enumerate() {
                staged
                    .block(w, workers)
                    .detach_into(&mut lock(&slot.job).block);
            }
            *lock(&shared.dispatcher) = Some(thread::current());
            shared.remaining.store(workers, Ordering::Relaxed);
            self.generation += 1;
            for (slot, handle) in shared.slots.iter().zip(&self.threads) {
                {
                    let mut job = lock(&slot.job);
                    job.links = Some(arena.link_table());
                    job.wake_nanos_per_vcpu = wake_nanos_per_vcpu;
                }
                slot.generation.store(self.generation, Ordering::Release);
                handle.thread().unpark();
            }
            while shared.remaining.load(Ordering::Acquire) != 0 {
                thread::park();
            }
            arena.count_pointer_writes(2 * staged.node_splice_count() as u64);
            assert!(
                !shared.panicked.swap(false, Ordering::Relaxed),
                "a splice worker thread panicked"
            );
            self.stats.parallel_merges += 1;
            self.stats.dispatched_workers += workers as u64;
            self.elapsed_scratch.clear();
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
        assert_eq!(
            names,
            [
                Some("horse-splice-0"),
                Some("horse-splice-1"),
                Some("horse-splice-2")
            ]
        );
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
