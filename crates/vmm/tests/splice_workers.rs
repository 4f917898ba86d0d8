//! The [`SplicePool`]'s parked-worker hand-off, driven from outside the
//! crate: long soaks against the sequential `merge_walk` oracle, the
//! degenerate plan shapes, alternating dispatcher threads, worker
//! lifecycle (every thread joined on drop) and panic propagation.
//!
//! Every test takes [`serial`]: the lifecycle test counts the process's
//! `horse-splice-*` threads, which only means something while no other
//! test of this binary is creating or dropping pools.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

use horse_core::{Arena, MergePlan, PlanCorruption, SortedList};
use horse_sched::SpliceWatchdog;
use horse_vmm::SplicePool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // The panic test poisons nothing it leaves inconsistent.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Payload bases distinguishing provenance in the order oracle (as in
/// `horse-core`'s `p2sm_parallel.rs`).
const B_BASE: u64 = 1_000_000;
const A_BASE: u64 = 2_000_000;

fn build(arena: &mut Arena<u64>, keys: &[i64], payload_base: u64) -> SortedList {
    let mut l = SortedList::new();
    for (i, &k) in keys.iter().enumerate() {
        l.insert_sorted(arena, k, payload_base + i as u64);
    }
    l
}

fn contents(arena: &Arena<u64>, l: &SortedList) -> Vec<(i64, u64)> {
    l.iter(arena).map(|(_, k, p)| (k, *p)).collect()
}

/// The sequential oracle: an O(n+m) FIFO-stable merge walk.
fn oracle(b_keys: &[i64], a_keys: &[i64]) -> Vec<(i64, u64)> {
    let mut arena = Arena::new();
    let mut b = build(&mut arena, b_keys, B_BASE);
    let a = build(&mut arena, a_keys, A_BASE);
    b.merge_walk(&arena, a);
    contents(&arena, &b)
}

/// One staged merge of `a_keys` into `b_keys` on `pool`; returns the
/// merged queue. Checks the list invariants and the merge report.
fn pooled_merge(pool: &mut SplicePool, b_keys: &[i64], a_keys: &[i64]) -> Vec<(i64, u64)> {
    let mut arena = Arena::new();
    let mut b = build(&mut arena, b_keys, B_BASE);
    let a = build(&mut arena, a_keys, A_BASE);
    let plan = MergePlan::precompute(&arena, &b, a);
    {
        let staged = plan.stage(&b).unwrap();
        let run = pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
        assert_eq!(run.dispatched_workers, pool.workers());
    }
    let (report, _) = plan.finish_staged(&arena, &mut b);
    assert_eq!(report.merged, a_keys.len());
    b.check_invariants(&arena).unwrap();
    contents(&arena, &b)
}

fn random_keys(rng: &mut StdRng, max_len: usize) -> Vec<i64> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen_range(-200i64..200)).collect()
}

/// Live `horse-splice-<w>` threads of this process — `workers − 1` per
/// pool, the dispatching thread being worker 0. By name rather than
/// `Threads:` of `/proc/self/status`: libtest starts the next test's
/// thread (parked on [`serial`]) whenever it likes.
#[cfg(target_os = "linux")]
fn splice_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("horse-splice-"))
        .count()
}

/// Whether the worker count comes back to `expected`. `join` returns
/// when the kernel clears the thread's tid word, a moment *before* it
/// takes the task off the process, so a joined thread may be visible
/// for a few more microseconds: poll, bounded.
#[cfg(target_os = "linux")]
fn threads_settle_to(expected: usize) -> bool {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while splice_threads() != expected {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn ten_thousand_back_to_back_merges_match_the_sequential_oracle() {
    let _serial = serial();
    for workers in [2usize, 3, 4, 8, 16] {
        let mut pool = SplicePool::parallel(workers);
        let mut rng = StdRng::seed_from_u64(0x5EED ^ workers as u64);
        for round in 0..10_000u64 {
            let b_keys = random_keys(&mut rng, 24);
            let a_keys = random_keys(&mut rng, 24);
            assert_eq!(
                pooled_merge(&mut pool, &b_keys, &a_keys),
                oracle(&b_keys, &a_keys),
                "workers={workers} round={round} b={b_keys:?} a={a_keys:?}"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.merges, 10_000);
        assert_eq!(stats.parallel_merges, 10_000);
        assert_eq!(stats.dispatched_workers, 10_000 * workers as u64);
    }
}

/// One arena across many merges: the arena grows between dispatches, so
/// its link table is replaced while the pool lives on — sound only
/// because every worker dropped its clone before `run` returned (the
/// arena asserts exactly that, in debug builds, when it grows).
#[test]
fn arena_growth_between_dispatches_is_seen_by_the_workers() {
    let _serial = serial();
    let mut pool = SplicePool::parallel(3);
    let mut arena: Arena<u64> = Arena::new();
    let mut b = SortedList::new();
    let mut expected: Vec<i64> = Vec::new();
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..500 {
        let a_keys = random_keys(&mut rng, 6);
        let a = build(&mut arena, &a_keys, A_BASE + 100 * round);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
        }
        plan.finish_staged(&arena, &mut b);
        b.check_invariants(&arena).unwrap();
        expected.extend(&a_keys);
        expected.sort();
        assert_eq!(b.keys(&arena), expected, "round={round}");
    }
    assert!(arena.live() > 64, "the arena must have grown repeatedly");
}

#[test]
fn more_workers_than_splices_and_zero_splice_plans() {
    let _serial = serial();
    let mut pool = SplicePool::parallel(8);
    // One node splice, eight workers.
    assert_eq!(
        pooled_merge(&mut pool, &[10, 30], &[20]),
        oracle(&[10, 30], &[20])
    );
    // Head splice only: no node splice at all, every block empty.
    assert_eq!(
        pooled_merge(&mut pool, &[10, 30], &[1, 2]),
        oracle(&[10, 30], &[1, 2])
    );
    // Empty A, and empty A into empty B.
    assert_eq!(
        pooled_merge(&mut pool, &[10, 30], &[]),
        oracle(&[10, 30], &[])
    );
    assert_eq!(pooled_merge(&mut pool, &[], &[]), vec![]);
    // All-empty dispatches still hand a job to every worker.
    let stats = pool.stats();
    assert_eq!(stats.parallel_merges, 4);
    assert_eq!(stats.dispatched_workers, 32);
}

/// The `Vmm` sits behind a mutex and successive resumes come from
/// different driver threads: the dispatcher's handle must be captured
/// per dispatch, or the second thread would park with nobody to wake it.
#[test]
fn dispatch_from_two_alternating_caller_threads() {
    let _serial = serial();
    const ROUNDS: usize = 2_000;
    let pool = Mutex::new(SplicePool::parallel(2));
    let (wake_a, turn_a) = mpsc::channel::<()>();
    let (wake_b, turn_b) = mpsc::channel::<()>();
    let b_keys = [10, 30, 50, 70];
    let a_keys = [5, 20, 40, 60, 80];
    let expected = oracle(&b_keys, &a_keys);
    // Strict alternation: a thread dispatches only when handed the turn.
    let drive = |turn: mpsc::Receiver<()>, other: mpsc::Sender<()>| {
        for _ in 0..ROUNDS {
            turn.recv().unwrap();
            let merged = pooled_merge(&mut pool.lock().unwrap(), &b_keys, &a_keys);
            assert_eq!(merged, expected);
            // The peer has left after its last round.
            let _ = other.send(());
        }
    };
    wake_a.send(()).unwrap(); // thread A dispatches first
    std::thread::scope(|scope| {
        scope.spawn(move || drive(turn_a, wake_b));
        scope.spawn(move || drive(turn_b, wake_a));
    });
    assert_eq!(
        pool.lock().unwrap().stats().parallel_merges,
        2 * ROUNDS as u64
    );
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_a_pool_joins_every_worker() {
    let _serial = serial();
    assert!(threads_settle_to(0), "an earlier test's pool is joined");
    for workers in [2usize, 8, 32] {
        // Dropped immediately after construction: the workers may not
        // even have started, let alone reached their first park.
        drop(SplicePool::parallel(workers));
        assert!(threads_settle_to(0), "workers={workers}");
        // Dropped once every worker is up (a thread names itself, so the
        // count climbs as they start).
        let pool = SplicePool::parallel(workers);
        assert!(threads_settle_to(workers - 1), "workers={workers}");
        drop(pool);
        assert!(threads_settle_to(0), "workers={workers}");
    }
    // Dropped mid-soak.
    let mut pool = SplicePool::parallel(4);
    for _ in 0..200 {
        pooled_merge(&mut pool, &[10, 30, 50], &[20, 40, 60]);
    }
    assert_eq!(splice_threads(), 3);
    drop(pool);
    assert!(threads_settle_to(0));
    // Inline pools never had a thread.
    let _pool = SplicePool::inline();
    assert_eq!(splice_threads(), 0);
}

/// A plan staged against one arena, run against a smaller one: the
/// worker's link-table index is out of bounds. The panic must come out
/// of `run` — after every worker reported — not park the caller forever,
/// and the pool must stay usable.
#[test]
fn a_worker_panic_surfaces_in_run_and_the_pool_survives() {
    let _serial = serial();
    let mut pool = SplicePool::parallel(2);
    let mut big: Arena<u64> = Arena::new();
    let _padding = build(&mut big, &(0..64).collect::<Vec<_>>(), 0);
    let b = build(&mut big, &[10, 30, 50], B_BASE);
    let a = build(&mut big, &[20, 40, 60], A_BASE);
    let plan = MergePlan::precompute(&big, &b, a);
    let mut small: Arena<u64> = Arena::new();
    build(&mut small, &[1, 2], 0);

    let staged = plan.stage(&b).unwrap();
    let panic = catch_unwind(AssertUnwindSafe(|| {
        pool.run(&small, &staged, &SpliceWatchdog::default(), 0);
    }))
    .expect_err("a worker indexed past the small arena's link table");
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(message.contains("thread panicked"), "message: {message:?}");

    // Same pool, a sound merge.
    assert_eq!(
        pooled_merge(&mut pool, &[10, 30], &[20, 40]),
        oracle(&[10, 30], &[20, 40])
    );
}

/// The dispatcher is worker 0, so its own block can be the one that
/// panics: alone, beside a panicking thread, or not at all. Either way
/// `run` raises one panic, and only after every thread has let go of the
/// link table — a `run` that unwound early would hand the arena back
/// while a thread still writes through it.
#[test]
fn a_panic_in_block_0_in_a_thread_or_in_both_is_raised_once_after_the_join() {
    let _serial = serial();
    let mut pool = SplicePool::parallel(2);
    // Two node splices, one per block: `after 10 ← 20` is block 0 (the
    // dispatcher's), `after 30 ← 40` is block 1. A merged node allocated
    // after the padding lies outside a four-word link table.
    for (early_20, early_40) in [(false, true), (true, false), (false, false)] {
        let mut big: Arena<u64> = Arena::new();
        let b = build(&mut big, &[10, 30], B_BASE);
        let mut a = SortedList::new();
        let mut insert = |big: &mut Arena<u64>, early: bool, at: bool, key: i64| {
            if early == at {
                a.insert_sorted(big, key, A_BASE + key as u64);
            }
        };
        insert(&mut big, early_20, true, 20);
        insert(&mut big, early_40, true, 40);
        let _padding = build(&mut big, &(0..64).collect::<Vec<_>>(), 0);
        insert(&mut big, early_20, false, 20);
        insert(&mut big, early_40, false, 40);
        let plan = MergePlan::precompute(&big, &b, a);
        let staged = plan.stage(&b).unwrap();
        assert_eq!(staged.node_splice_count(), 2);

        let mut small: Arena<u64> = Arena::new();
        build(&mut small, &[1, 2, 3], 0);
        let before = pool.stats();
        let panic = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&small, &staged, &SpliceWatchdog::default(), 0);
        }))
        .expect_err("a block indexed past the small arena's link table");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "a splice worker thread panicked");
        assert_eq!(
            pool.stats().parallel_merges,
            before.parallel_merges,
            "a panicked merge is not counted"
        );

        // Nobody still holds `small`'s link table: growing the arena
        // replaces it, which the arena asserts (debug builds) it alone
        // may do.
        build(&mut small, &(0..64).collect::<Vec<_>>(), 0);
        // Same pool, a sound merge — twice, so a flag or a countdown left
        // over from the panicked generation would show.
        for _ in 0..2 {
            assert_eq!(
                pooled_merge(&mut pool, &[10, 30], &[20, 40]),
                oracle(&[10, 30], &[20, 40])
            );
        }
    }
}

/// A corrupt plan (`stage` only guards staleness; `Vmm::resume` runs
/// `check_consistent` first) panics while the dispatcher resolves its
/// anchors — a thread's share before any thread is woken, its own share
/// (as here: the skewed anchor is splice 0) under the `catch_unwind` it
/// waits out the countdown behind — so nothing is left running on behalf
/// of the unwound `run`, and the pool stays usable.
#[test]
fn a_corrupt_plan_panics_before_any_worker_is_woken() {
    let _serial = serial();
    let mut pool = SplicePool::parallel(2);
    let mut arena: Arena<u64> = Arena::new();
    let b = build(&mut arena, &[10, 30, 50], B_BASE);
    let a = build(&mut arena, &[20, 40, 60], A_BASE);
    let mut plan = MergePlan::precompute(&arena, &b, a);
    assert!(plan.corrupt(PlanCorruption::AnchorSkew));
    let staged = plan.stage(&b).unwrap();
    catch_unwind(AssertUnwindSafe(|| {
        pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
    }))
    .expect_err("the skewed anchor indexes past arrayB");
    assert_eq!(pool.stats().parallel_merges, 0, "nothing was dispatched");
    assert_eq!(
        pooled_merge(&mut pool, &[10, 30], &[20, 40]),
        oracle(&[10, 30], &[20, 40])
    );
}

#[test]
fn arena_stats_after_a_pooled_merge_equal_an_inline_merge() {
    let _serial = serial();
    let b_keys: Vec<i64> = (0..40).map(|i| 2 * i + 2).collect();
    let a_keys: Vec<i64> = (0..40).map(|i| 2 * i + 1).collect();
    let stats_with = |pool: &mut SplicePool| {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &b_keys, B_BASE);
        let a = build(&mut arena, &a_keys, A_BASE);
        let plan = MergePlan::precompute(&arena, &b, a);
        arena.take_stats();
        {
            let staged = plan.stage(&b).unwrap();
            pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
        }
        let (report, _) = plan.finish_staged(&arena, &mut b);
        (report, arena.take_stats())
    };
    let inline = stats_with(&mut SplicePool::inline());
    assert!(
        inline.1.pointer_writes >= 2 * 39,
        "two writes per node splice"
    );
    for workers in [2, 3, 8] {
        assert_eq!(stats_with(&mut SplicePool::parallel(workers)), inline);
    }
}
