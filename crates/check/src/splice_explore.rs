//! Seeded deterministic interleaving exploration of the **parallel
//! 𝒫²𝒮ℳ splice workers**.
//!
//! The staged splice protocol (`MergePlan::stage` → per-worker
//! `SpliceBlock`s → `finish_staged`) claims that splice points are
//! disjoint, so *any* interleaving of the workers' pointer writes yields
//! the same queue. This module tests exactly that claim the way
//! [`crate::explore`](mod@crate::explore) tests the warm pool: each splice worker is a real
//! OS thread holding its own block, but it executes **one splice per
//! granted step**, and which worker steps next is decided by the seeded
//! [`SchedulePolicy`] (round-robin / random / PCT). After the last step
//! the merge is finished on the driving thread and the queue's full
//! `(credit, payload)` sequence is compared against the sequential
//! [`merge_walk`](horse_core::SortedList::merge_walk) oracle — multiset
//! *and* FIFO order must match, and the list invariants must hold.
//!
//! The generator always plants at least one sub-list of length ≥ 2 (two
//! equal credits in *A*), so the planted misorder mutation
//! ([`Mutation::SpliceWorkerMisorder`](crate::Mutation)) — a worker that
//! links its anchor to the sub-list *tail*, dropping the interior — is
//! always expressible and must always be caught: the harness's negative
//! control for this checker.
//!
//! [`explore_handoff`] checks the other half of the VMM's `SplicePool`:
//! not *what* the workers write but *how a merge reaches them* — the
//! park/unpark hand-off between the dispatching thread, which is also
//! worker 0, and the pool's long-lived threads (publish generation →
//! take job → execute block → count down → wake dispatcher, while the
//! dispatcher executes block 0 between its last publish and its first
//! look at the countdown). It is a model, stepped one atomic operation
//! at a time under the same three schedulers, and it executes the real
//! splice blocks so a protocol bug also shows as a wrong queue. Its
//! planted bug is [`Mutation::SpliceHandoffEarlyJoin`](crate::Mutation).

use crate::stepped::{self, Exploration, SchedulePolicy, Scheduler, Worker};
use horse_core::{Arena, MergePlan, SortedList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Payload bases marking provenance in the order oracle.
const B_BASE: u64 = 1_000_000;
const A_BASE: u64 = 2_000_000;

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct SpliceExploreConfig {
    /// Real splice-worker threads (blocks are partitioned across them).
    pub workers: usize,
    /// Destination run-queue length (≥ 2; credits are strictly spaced so
    /// every inter-key gap can host a sub-list).
    pub b_len: usize,
    /// Merged-list length *before* the guaranteed duplicate pair.
    pub a_len: usize,
    /// Plant the misorder bug into one seeded worker
    /// (`--mutate splice-worker-misorder`): its first length-≥ 2 splice
    /// links the anchor to the sub-list tail. The run must then fail.
    pub plant_misorder: bool,
}

impl Default for SpliceExploreConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            b_len: 24,
            a_len: 16,
            plant_misorder: false,
        }
    }
}

/// One granted step: a worker executed one splice of its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceStepRecord {
    /// Worker index granted the step.
    pub worker: usize,
    /// Splice index *within the worker's block*.
    pub splice: usize,
    /// vCPUs in the spliced sub-list.
    pub sub_len: usize,
}

/// Generates the seeded scenario: strictly spaced *B* credits, random
/// *A* credits landing in the gaps, plus one guaranteed duplicate pair
/// (same credit twice → one sub-list of length ≥ 2 at a non-head
/// anchor).
fn generate_case(cfg: &SpliceExploreConfig, seed: u64) -> (Vec<i64>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908);
    let b_len = cfg.b_len.max(2);
    let b_keys: Vec<i64> = (0..b_len as i64).map(|i| i * 10).collect();
    let hi = (b_len as i64 - 1) * 10 + 9;
    let mut a_keys: Vec<i64> = (0..cfg.a_len).map(|_| rng.gen_range(0..=hi)).collect();
    // The guaranteed duplicate pair: a credit equal to some B key `j·10`
    // anchors both nodes after B[j] (anchor ≥ 0, never the head splice).
    let dup = rng.gen_range(0..b_len as i64) * 10;
    a_keys.push(dup);
    a_keys.push(dup);
    (b_keys, a_keys)
}

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

/// The sequential oracle, in its own arena: an O(n+m) FIFO-stable merge
/// walk of `a_keys` into `b_keys`.
fn sequential_oracle(b_keys: &[i64], a_keys: &[i64]) -> Vec<(i64, u64)> {
    let mut arena = Arena::new();
    let mut b = build(&mut arena, b_keys, B_BASE);
    let a = build(&mut arena, a_keys, A_BASE);
    b.merge_walk(&arena, a);
    contents(&arena, &b)
}

/// Runs one seeded exploration of the parallel splice workers and
/// validates the merged queue against the sequential oracle. The
/// returned [`Exploration`] carries the full decision sequence;
/// `violation` is `None` on success (and **must** be `Some` when
/// `plant_misorder` is set — the caller asserts the inversion).
pub fn explore_splice(
    cfg: &SpliceExploreConfig,
    policy: SchedulePolicy,
    seed: u64,
) -> Exploration<SpliceStepRecord> {
    let (b_keys, a_keys) = generate_case(cfg, seed);

    let expected = sequential_oracle(&b_keys, &a_keys);

    // System under test: the staged protocol on stepped real threads.
    let mut arena = Arena::new();
    let mut b = build(&mut arena, &b_keys, B_BASE);
    let a = build(&mut arena, &a_keys, A_BASE);
    let plan = MergePlan::precompute(&arena, &b, a);

    let workers = cfg.workers.max(1);
    let (mut run, stage_violation) = {
        let staged = match plan.stage(&b) {
            Ok(s) => s,
            Err(e) => {
                return Exploration {
                    decisions: Vec::new(),
                    steps: Vec::new(),
                    violation: Some(format!("stage rejected a fresh plan: {e}")),
                }
            }
        };
        let blocks: Vec<_> = (0..workers).map(|w| staged.block(w, workers)).collect();
        let budgets: Vec<usize> = blocks.iter().map(|blk| blk.len()).collect();
        let total_steps: usize = budgets.iter().sum();
        let stage_violation = (total_steps != staged.node_splice_count()).then(|| {
            format!(
                "blocks cover {total_steps} splices, staged has {}",
                staged.node_splice_count()
            )
        });

        // The planted bug's seeded target: one worker mis-executes its
        // first length-≥ 2 splice. The generator guarantees one exists.
        let misorder_at: Option<(usize, usize)> = if cfg.plant_misorder {
            let candidates: Vec<(usize, usize)> = blocks
                .iter()
                .enumerate()
                .flat_map(|(w, blk)| (0..blk.len()).map(move |i| (w, i)))
                .filter(|&(w, i)| blocks[w].sub_len(i) >= 2)
                .collect();
            assert!(
                !candidates.is_empty(),
                "generator must plant a length-≥2 sub-list"
            );
            let mut rng = StdRng::seed_from_u64(seed ^ 0xbb67_ae85_84ca_a73b);
            Some(candidates[rng.gen_range(0..candidates.len())])
        } else {
            None
        };

        // One splice per granted step, each worker on its own block. The
        // arena is `!Sync`: the threads write through its link table.
        let links = arena.links();
        let stepped_workers = blocks
            .iter()
            .copied()
            .enumerate()
            .map(|(worker, block)| {
                let bad_splice = misorder_at.and_then(|(mw, i)| (mw == worker).then_some(i));
                let mut next = 0usize;
                Box::new(move |()| {
                    let splice = next;
                    next += 1;
                    if bad_splice == Some(splice) {
                        block.execute_one_misordered(links, splice);
                    } else {
                        block.execute_one_on(links, splice);
                    }
                    SpliceStepRecord {
                        worker,
                        splice,
                        sub_len: block.sub_len(splice),
                    }
                }) as Worker<'_, (), SpliceStepRecord>
            })
            .collect();
        let run = stepped::run_threaded(policy, seed, &budgets, stepped_workers, |_| ());
        (run, stage_violation)
    };

    // Head splice + bookkeeping on the driving thread, like the VMM.
    let (report, _buffers) = plan.finish_staged(&arena, &mut b);

    run.violation = run.violation.or(stage_violation).or_else(|| {
        if report.merged != a_keys.len() {
            return Some(format!(
                "report.merged = {}, expected {}",
                report.merged,
                a_keys.len()
            ));
        }
        if let Err(e) = b.check_invariants(&arena) {
            return Some(format!("post-splice invariants violated: {e}"));
        }
        let got = contents(&arena, &b);
        if got != expected {
            return Some(format!(
                "merged queue diverges from sequential merge_walk oracle:\n  got      {got:?}\n  \
                 expected {expected:?}"
            ));
        }
        None
    });
    run
}

/// Parameters of one hand-off exploration.
#[derive(Debug, Clone, Copy)]
pub struct HandoffExploreConfig {
    /// Pool width (≥ 1): the dispatcher as worker 0 plus `workers − 1`
    /// parked threads.
    pub workers: usize,
    /// Back-to-back merges on the one pool: stale wake-up tokens only
    /// exist from the second merge on.
    pub merges: usize,
    /// Destination run-queue length of every merge (see
    /// [`SpliceExploreConfig::b_len`]).
    pub b_len: usize,
    /// Merged-list length of every merge.
    pub a_len: usize,
    /// Plant the early-join bug (`--mutate splice-handoff-early-join`):
    /// the dispatcher treats a countdown of ≤ 1 as "all workers done".
    /// The run must then fail.
    pub plant_early_join: bool,
}

impl Default for HandoffExploreConfig {
    fn default() -> Self {
        Self {
            workers: 3,
            merges: 4,
            b_len: 12,
            a_len: 8,
            plant_early_join: false,
        }
    }
}

/// Generation value that tells a worker to exit.
const SHUTDOWN: u64 = u64::MAX;

/// Where the dispatcher is in `SplicePool::run` / `Drop`. Workers are
/// numbered as the pool numbers them: 0 is the dispatcher itself, `1..`
/// are the parked threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatcherAt {
    /// Store the countdown; open the next merge.
    Reset,
    /// Fill worker `w`'s job slot and store its generation word.
    Publish(usize),
    /// `unpark` worker `w`.
    Unpark(usize),
    /// Execute block 0 — the dispatcher is worker 0.
    ExecuteOwn,
    /// Load the countdown: join, or park.
    Check,
    /// In `park` (runnable only while it holds a token).
    Parked,
    /// `finish_staged`.
    Join,
    /// Store the shutdown generation of worker `w` and unpark it.
    Shutdown(usize),
    Done,
}

/// Where a worker is in its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerAt {
    /// Load the generation word: serve it, exit, or park.
    Check,
    Parked,
    /// Take the job out of the slot.
    Take,
    /// Execute the block.
    Execute,
    /// Decrement the countdown.
    CountDown,
    /// `unpark` the dispatcher (only whoever counted down to 0).
    Wake,
    Done,
}

/// One merge of the exploration: the real lists and plan the modelled
/// workers splice.
struct HandoffCase {
    arena: Arena<u64>,
    b: SortedList,
    /// `None` once the dispatcher has run `finish_staged`.
    plan: Option<MergePlan>,
    expected: Vec<(i64, u64)>,
}

impl HandoffCase {
    fn generate(cfg: &HandoffExploreConfig, seed: u64) -> Self {
        let splice_cfg = SpliceExploreConfig {
            b_len: cfg.b_len,
            a_len: cfg.a_len,
            ..SpliceExploreConfig::default()
        };
        let (b_keys, a_keys) = generate_case(&splice_cfg, seed);
        let expected = sequential_oracle(&b_keys, &a_keys);
        let mut arena = Arena::new();
        let b = build(&mut arena, &b_keys, B_BASE);
        let a = build(&mut arena, &a_keys, A_BASE);
        let plan = MergePlan::precompute(&arena, &b, a);
        Self {
            arena,
            b,
            plan: Some(plan),
            expected,
        }
    }
}

/// Runs one seeded exploration of the pool's hand-off protocol.
///
/// Threads are state machines stepped on the calling thread; one step is
/// one atomic operation of the real protocol. A parked thread is runnable
/// only while it holds an unpark token, so a lost wake-up shows as a
/// state where nobody can run. Checked, stopping at the first failure:
///
/// * **no early join** — `park` may return spuriously at any instant, so
///   from the countdown's reset to the join, whenever the join condition
///   reads true every parked thread must already have executed the
///   current merge's block, and so must the dispatcher (block 0) once it
///   is waiting; and again when it actually joins, where the merged
///   queue must equal the sequential oracle;
/// * **no lost wake-up** — some thread can always run until all are done;
/// * **exactly once** — every worker executes every published merge once,
///   and no thread finds its job slot empty.
///
/// A thread here is runnable by protocol state (its token), not by a step
/// budget, so this loop keeps its own runnable rule and shares only the
/// [`Scheduler`](crate::stepped). `decisions` names the worker granted
/// each step (0 = the dispatcher); `steps` holds one `(worker, merge)`
/// per block executed.
pub fn explore_handoff(
    cfg: &HandoffExploreConfig,
    policy: SchedulePolicy,
    seed: u64,
) -> Exploration<(usize, u64)> {
    let workers = cfg.workers.max(1);
    let merges = cfg.merges.max(1);
    let joinable = |remaining: usize| {
        if cfg.plant_early_join {
            remaining <= 1
        } else {
            remaining == 0
        }
    };

    // The protocol's shared words, indexed by worker (entry 0, the
    // dispatcher's, is unused: it has no slot and never parks on one).
    let mut generation = vec![0u64; workers];
    let mut job_filled = vec![false; workers];
    let mut remaining = 0usize;
    // Unpark tokens.
    let mut token = vec![false; workers];

    let mut dispatcher = DispatcherAt::Reset;
    let mut merge_no = 0u64;
    let mut worker_at = vec![WorkerAt::Check; workers];
    worker_at[0] = WorkerAt::Done; // worker 0 is stepped as the dispatcher
    let mut served = vec![0u64; workers];
    // Merges each worker executed, in order.
    let mut executed: Vec<Vec<u64>> = vec![Vec::new(); workers];
    let mut case: Option<HandoffCase> = None;

    let expected_steps = merges * (8 * (workers - 1) + 7) + 2 * (workers - 1);
    let mut sched = Scheduler::new(policy, seed, workers, expected_steps);
    let mut decisions = Vec::new();
    let mut steps = Vec::new();
    let mut violation: Option<String> = None;

    // Executes worker `w`'s block of the open merge, once.
    let execute_block = |case: &Option<HandoffCase>,
                         executed: &mut Vec<Vec<u64>>,
                         steps: &mut Vec<(usize, u64)>,
                         w: usize,
                         merge: u64|
     -> Option<String> {
        let case = case.as_ref().expect("a merge is open");
        match (&case.plan, executed[w].contains(&merge)) {
            (_, true) => Some(format!("worker {w} executed merge {merge} twice")),
            (None, _) => Some(format!(
                "worker {w} executed merge {merge} after the dispatcher joined it"
            )),
            (Some(plan), false) => {
                let staged = plan.stage(&case.b).expect("B is untouched until join");
                staged.block(w, workers).execute_on(case.arena.links());
                executed[w].push(merge);
                steps.push((w, merge));
                None
            }
        }
    };

    while violation.is_none() {
        let mut runnable: Vec<usize> = Vec::with_capacity(workers);
        match dispatcher {
            DispatcherAt::Done => {}
            DispatcherAt::Parked if !token[0] => {}
            _ => runnable.push(0),
        }
        for w in 1..workers {
            match worker_at[w] {
                WorkerAt::Done => {}
                WorkerAt::Parked if !token[w] => {}
                _ => runnable.push(w),
            }
        }
        if runnable.is_empty() {
            let all_done = dispatcher == DispatcherAt::Done
                && worker_at.iter().all(|at| *at == WorkerAt::Done);
            if !all_done {
                violation = Some(format!(
                    "lost wake-up: every live thread is parked without a token \
                     (dispatcher {dispatcher:?}, workers {worker_at:?}, countdown {remaining})"
                ));
            }
            break;
        }
        if decisions.len() > 4 * expected_steps {
            violation = Some("no progress: the protocol is spinning".into());
            break;
        }
        let chosen = sched.pick(&runnable, decisions.len());
        decisions.push(chosen);

        if chosen == 0 {
            dispatcher = match dispatcher {
                DispatcherAt::Reset => {
                    merge_no += 1;
                    case = Some(HandoffCase::generate(cfg, seed.wrapping_add(merge_no)));
                    remaining = workers - 1;
                    if workers > 1 {
                        DispatcherAt::Publish(1)
                    } else {
                        DispatcherAt::ExecuteOwn
                    }
                }
                DispatcherAt::Publish(w) => {
                    job_filled[w] = true;
                    generation[w] = merge_no;
                    DispatcherAt::Unpark(w)
                }
                DispatcherAt::Unpark(w) => {
                    token[w] = true;
                    if w + 1 < workers {
                        DispatcherAt::Publish(w + 1)
                    } else {
                        DispatcherAt::ExecuteOwn
                    }
                }
                DispatcherAt::ExecuteOwn => {
                    violation = execute_block(&case, &mut executed, &mut steps, 0, merge_no);
                    DispatcherAt::Check
                }
                DispatcherAt::Check => {
                    if joinable(remaining) {
                        DispatcherAt::Join
                    } else {
                        DispatcherAt::Parked
                    }
                }
                DispatcherAt::Parked => {
                    token[0] = false;
                    DispatcherAt::Check
                }
                DispatcherAt::Join => {
                    let case = case.as_mut().expect("a merge is open");
                    let plan = case.plan.take().expect("joined once per merge");
                    plan.finish_staged(&case.arena, &mut case.b);
                    let late: Vec<usize> = (0..workers)
                        .filter(|&w| executed[w].last() != Some(&merge_no))
                        .collect();
                    if !late.is_empty() {
                        violation = Some(format!(
                            "early join: merge {merge_no} finished with the blocks of workers \
                             {late:?} outstanding"
                        ));
                    } else if let Err(e) = case.b.check_invariants(&case.arena) {
                        violation = Some(format!("merge {merge_no}: invariants violated: {e}"));
                    } else if contents(&case.arena, &case.b) != case.expected {
                        violation = Some(format!(
                            "merge {merge_no}: queue diverges from the sequential oracle"
                        ));
                    }
                    if merge_no < merges as u64 {
                        DispatcherAt::Reset
                    } else if workers > 1 {
                        DispatcherAt::Shutdown(1)
                    } else {
                        DispatcherAt::Done
                    }
                }
                DispatcherAt::Shutdown(w) => {
                    generation[w] = SHUTDOWN;
                    token[w] = true;
                    if w + 1 < workers {
                        DispatcherAt::Shutdown(w + 1)
                    } else {
                        DispatcherAt::Done
                    }
                }
                DispatcherAt::Done => unreachable!("a finished thread is not runnable"),
            };
        } else {
            let w = chosen;
            worker_at[w] = match worker_at[w] {
                WorkerAt::Check => {
                    if generation[w] == SHUTDOWN {
                        WorkerAt::Done
                    } else if generation[w] != served[w] {
                        served[w] = generation[w];
                        WorkerAt::Take
                    } else {
                        WorkerAt::Parked
                    }
                }
                WorkerAt::Parked => {
                    token[w] = false;
                    WorkerAt::Check
                }
                WorkerAt::Take => {
                    if !std::mem::take(&mut job_filled[w]) {
                        violation = Some(format!(
                            "worker {w} served generation {} but its job slot was empty",
                            served[w]
                        ));
                    }
                    WorkerAt::Execute
                }
                WorkerAt::Execute => {
                    violation = execute_block(&case, &mut executed, &mut steps, w, served[w]);
                    WorkerAt::CountDown
                }
                WorkerAt::CountDown => {
                    remaining = remaining.wrapping_sub(1);
                    if remaining == 0 {
                        WorkerAt::Wake
                    } else {
                        WorkerAt::Check
                    }
                }
                WorkerAt::Wake => {
                    token[0] = true;
                    WorkerAt::Check
                }
                WorkerAt::Done => unreachable!("a finished thread is not runnable"),
            };
        }

        // The countdown is all the dispatcher looks at, and `park` may
        // return spuriously right now: while a merge is open, a join
        // condition that reads true must mean every parked thread has
        // executed its block — and, once the dispatcher waits on it, that
        // block 0 is done too.
        let open = case.as_ref().is_some_and(|c| c.plan.is_some());
        let waiting = matches!(dispatcher, DispatcherAt::Check | DispatcherAt::Parked);
        if violation.is_none() && open && joinable(remaining) {
            let first = if waiting { 0 } else { 1 };
            if let Some(w) = (first..workers).find(|&w| executed[w].last() != Some(&merge_no)) {
                violation = Some(format!(
                    "early join possible: the dispatcher would join merge {merge_no} at \
                     countdown {remaining} while worker {w} has not executed its block"
                ));
            }
        }
    }

    if violation.is_none() {
        let every_merge: Vec<u64> = (1..=merges as u64).collect();
        if let Some(w) = (0..workers).find(|&w| executed[w] != every_merge) {
            violation = Some(format!(
                "worker {w} executed merges {:?}, expected each of 1..={merges} once",
                executed[w]
            ));
        }
    }

    Exploration {
        decisions,
        steps,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::testing::{assert_caught, assert_clean, POLICIES};

    #[test]
    fn all_policies_pass_on_the_real_splice_and_replay() {
        let cfg = SpliceExploreConfig::default();
        assert_clean(
            &[1, 42, 1337],
            |policy, seed| explore_splice(&cfg, policy, seed),
            |r| {
                assert_eq!(r.decisions.len(), r.steps.len());
                // The guaranteed duplicate pair produces ≥ 1 stepped
                // splice with a multi-node sub-list.
                assert!(r.steps.iter().any(|s| s.sub_len >= 2));
            },
        );
    }

    #[test]
    fn same_seed_replays_the_same_splices() {
        let cfg = SpliceExploreConfig::default();
        for policy in POLICIES {
            let (a, b) = (
                explore_splice(&cfg, policy, 7),
                explore_splice(&cfg, policy, 7),
            );
            assert_eq!(a.steps, b.steps, "policy {policy} must replay");
        }
    }

    #[test]
    fn planted_misorder_is_always_caught() {
        let cfg = SpliceExploreConfig {
            plant_misorder: true,
            ..SpliceExploreConfig::default()
        };
        assert_caught(&[1, 42, 1337], "", |policy, seed| {
            explore_splice(&cfg, policy, seed)
        });
    }

    #[test]
    fn handoff_passes_under_all_policies_and_replays() {
        for workers in [1usize, 2, 3, 8] {
            let cfg = HandoffExploreConfig {
                workers,
                ..HandoffExploreConfig::default()
            };
            assert_clean(
                &[1, 42, 1337],
                |policy, seed| explore_handoff(&cfg, policy, seed),
                |r| assert_eq!(r.steps.len(), workers * cfg.merges),
            );
        }
    }

    #[test]
    fn planted_early_join_is_always_caught() {
        let cfg = HandoffExploreConfig {
            plant_early_join: true,
            ..HandoffExploreConfig::default()
        };
        // The seeds CI's three matrix entries derive.
        let seeds = [1, 2, 3, 42, 43, 44, 1337, 1338, 1339];
        assert_caught(&seeds, "early join", |policy, seed| {
            explore_handoff(&cfg, policy, seed)
        });
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let cfg = SpliceExploreConfig {
            workers: 1,
            ..SpliceExploreConfig::default()
        };
        let r = explore_splice(&cfg, SchedulePolicy::RoundRobin, 5);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.decisions.iter().all(|&w| w == 0));
    }

    #[test]
    fn worker_counts_beyond_splices_still_pass() {
        let cfg = SpliceExploreConfig {
            workers: 16,
            b_len: 4,
            a_len: 2,
            ..SpliceExploreConfig::default()
        };
        for seed in [3u64, 11] {
            let r = explore_splice(&cfg, SchedulePolicy::Random, seed);
            assert!(r.violation.is_none(), "seed {seed}: {:?}", r.violation);
        }
    }
}
