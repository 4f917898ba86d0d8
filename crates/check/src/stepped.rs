//! The one stepped-schedule driver every explorer in this crate uses.
//!
//! Real concurrent runs exercise whatever interleavings the OS happens
//! to produce; the explorers exercise interleavings *deterministically*.
//! A run has a fixed set of **actors**, each with a budget of steps. The
//! driver repeatedly computes the runnable set (actors with budget
//! left), lets a seeded [`SchedulePolicy`] pick one, grants it exactly
//! one step and records the decision:
//!
//! * **round-robin** — the systematic baseline;
//! * **random** — uniform over runnable actors;
//! * **PCT** — priority-based probabilistic concurrency testing
//!   (Burckhardt et al., ASPLOS'10): random actor priorities with `d`
//!   seeded priority-change points, which finds ordering bugs of depth
//!   `d` with provable probability.
//!
//! One step completes before the next is granted, so the observed order
//! *is* a linearization an oracle can replay. [`run`] steps actors that
//! live on the calling thread; [`run_threaded`] puts each actor on its
//! own OS thread behind a command channel (thread-affine state — the warm
//! pool's per-thread shard pinning — then behaves as in production) and
//! stops and joins the threads before it returns. Re-running with the
//! same `(policy, seed, budgets)` replays the identical decision vector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::mpsc;

/// How the driver picks the next actor to step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Cycle through runnable actors in index order.
    RoundRobin,
    /// Uniformly random runnable actor (seeded).
    Random,
    /// PCT with the given bug depth `d` (`d − 1` priority-change
    /// points).
    Pct {
        /// Bug depth (≥ 1).
        depth: usize,
    },
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::RoundRobin => write!(f, "round-robin"),
            SchedulePolicy::Random => write!(f, "random"),
            SchedulePolicy::Pct { depth } => write!(f, "pct(d={depth})"),
        }
    }
}

/// Outcome of one exploration; `S` is what the explorer records per
/// granted step.
#[derive(Debug)]
pub struct Exploration<S> {
    /// Actor index granted each step, in order. Re-running with the same
    /// seed/policy/config replays the identical interleaving.
    pub decisions: Vec<usize>,
    /// Every executed step, in execution order.
    pub steps: Vec<S>,
    /// Error description if a check rejected the run.
    pub violation: Option<String>,
}

/// The seeded scheduler over runnable actors.
pub(crate) struct Scheduler {
    policy: SchedulePolicy,
    rng: StdRng,
    rr_next: usize,
    priorities: Vec<u64>,
    change_points: Vec<usize>,
}

impl Scheduler {
    pub(crate) fn new(
        policy: SchedulePolicy,
        seed: u64,
        actors: usize,
        total_steps: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut priorities: Vec<u64> = (0..actors as u64).map(|i| (i + 1) * 1_000).collect();
        // Shuffle initial priorities (Fisher–Yates on the seeded rng).
        for i in (1..priorities.len()).rev() {
            let j = rng.gen_range(0..=i);
            priorities.swap(i, j);
        }
        let change_points = match policy {
            SchedulePolicy::Pct { depth } if depth > 1 && total_steps > 0 => (0..depth - 1)
                .map(|_| rng.gen_range(0..total_steps))
                .collect(),
            _ => Vec::new(),
        };
        Self {
            policy,
            rng,
            rr_next: 0,
            priorities,
            change_points,
        }
    }

    /// Picks the next actor among `runnable` (non-empty) for step index
    /// `step`.
    pub(crate) fn pick(&mut self, runnable: &[usize], step: usize) -> usize {
        debug_assert!(!runnable.is_empty());
        match self.policy {
            SchedulePolicy::RoundRobin => {
                // Next runnable at or after the cursor, cyclically.
                let chosen = *runnable
                    .iter()
                    .find(|&&t| t >= self.rr_next)
                    .unwrap_or(&runnable[0]);
                self.rr_next = chosen + 1;
                chosen
            }
            SchedulePolicy::Random => runnable[self.rng.gen_range(0..runnable.len())],
            SchedulePolicy::Pct { .. } => {
                if self.change_points.contains(&step) {
                    // Demote the currently highest-priority runnable
                    // actor below everyone.
                    if let Some(&hi) = runnable.iter().max_by_key(|&&t| self.priorities[t]) {
                        let min = *self.priorities.iter().min().unwrap_or(&0);
                        self.priorities[hi] = min.saturating_sub(1);
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|&&t| self.priorities[t])
                    .expect("runnable is non-empty")
            }
        }
    }
}

/// Drives `budgets.len()` actors until every budget is spent:
/// `step(actor, index)` executes the chosen actor's next step and returns
/// its record. An `Err` becomes the exploration's violation and ends the
/// run at that step.
pub(crate) fn run<S>(
    policy: SchedulePolicy,
    seed: u64,
    budgets: &[usize],
    mut step: impl FnMut(usize, usize) -> Result<S, String>,
) -> Exploration<S> {
    let total: usize = budgets.iter().sum();
    let mut sched = Scheduler::new(policy, seed, budgets.len(), total);
    let mut remaining = budgets.to_vec();
    let mut out = Exploration {
        decisions: Vec::with_capacity(total),
        steps: Vec::with_capacity(total),
        violation: None,
    };
    for index in 0..total {
        let runnable: Vec<usize> = (0..remaining.len()).filter(|&a| remaining[a] > 0).collect();
        let actor = sched.pick(&runnable, index);
        remaining[actor] -= 1;
        out.decisions.push(actor);
        match step(actor, index) {
            Ok(record) => out.steps.push(record),
            Err(violation) => {
                out.violation = Some(violation);
                break;
            }
        }
    }
    out
}

/// One threaded actor: called once per granted step, on its own thread,
/// with the command the driver built for that step.
pub(crate) type Worker<'a, C, S> = Box<dyn FnMut(C) -> S + Send + 'a>;

/// [`run`] with actor `w` being `workers[w]` on its own OS thread. Each
/// granted step sends `command(index)` down the chosen worker's channel
/// and waits for its record; closing the channels stops the workers and
/// the scope joins them, so whatever they borrowed is readable again when
/// this returns.
pub(crate) fn run_threaded<C: Send, S: Send>(
    policy: SchedulePolicy,
    seed: u64,
    budgets: &[usize],
    workers: Vec<Worker<'_, C, S>>,
    mut command: impl FnMut(usize) -> C,
) -> Exploration<S> {
    assert_eq!(workers.len(), budgets.len(), "one budget per worker");
    std::thread::scope(|scope| {
        let (commands, records): (Vec<_>, Vec<_>) = workers
            .into_iter()
            .map(|mut worker| {
                let (command_tx, command_rx) = mpsc::channel::<C>();
                let (record_tx, record_rx) = mpsc::channel::<S>();
                scope.spawn(move || {
                    while let Ok(c) = command_rx.recv() {
                        if record_tx.send(worker(c)).is_err() {
                            return;
                        }
                    }
                });
                (command_tx, record_rx)
            })
            .unzip();
        run(policy, seed, budgets, |actor, index| {
            commands[actor]
                .send(command(index))
                .expect("worker alive: it only exits once its channel closes");
            // A worker that panicked mid-step drops its sender; the scope
            // re-raises the panic itself when it joins.
            records[actor]
                .recv()
                .map_err(|_| format!("worker {actor} died during step {index}"))
        })
    })
}

/// What every explorer's unit tests assert, written once.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Exploration, SchedulePolicy};

    pub(crate) const POLICIES: [SchedulePolicy; 3] = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::Random,
        SchedulePolicy::Pct { depth: 3 },
    ];

    /// Every policy × seed: the run reports no violation, passes the
    /// explorer's own `check`, and a second run replays its decisions.
    /// (What a step *observed* may differ between runs: which shard a warm
    /// pool pins a worker thread to depends on the threads created before
    /// it, process-wide.)
    pub(crate) fn assert_clean<S>(
        seeds: &[u64],
        explore: impl Fn(SchedulePolicy, u64) -> Exploration<S>,
        check: impl Fn(&Exploration<S>),
    ) {
        for policy in POLICIES {
            for &seed in seeds {
                let r = explore(policy, seed);
                assert!(
                    r.violation.is_none(),
                    "policy {policy} seed {seed}: {:?}\ndecisions: {:?}",
                    r.violation,
                    r.decisions
                );
                check(&r);
                let again = explore(policy, seed);
                assert_eq!(r.decisions, again.decisions, "policy {policy} must replay");
            }
        }
    }

    /// Every policy × seed: the planted bug is reported, in a violation
    /// that mentions `needle`.
    pub(crate) fn assert_caught<S>(
        seeds: &[u64],
        needle: &str,
        explore: impl Fn(SchedulePolicy, u64) -> Exploration<S>,
    ) {
        for policy in POLICIES {
            for &seed in seeds {
                let v = explore(policy, seed)
                    .violation
                    .unwrap_or_else(|| panic!("policy {policy} seed {seed}: planted bug escaped"));
                assert!(v.contains(needle), "policy {policy} seed {seed}: {v}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::POLICIES;
    use super::*;

    /// The decision vectors `Scheduler` produced for `(seed 42, budgets
    /// [3, 3, 7])` while it still lived in `explore.rs` (taken from
    /// `explore_ring` with 2 producers × 3 pushes and 1 slack pop at
    /// 0b8d1ef): every replay seed documented before the move must keep
    /// replaying.
    #[test]
    fn decisions_match_the_scheduler_before_the_move() {
        let pinned: [&[usize]; 3] = [
            &[0, 1, 2, 0, 1, 2, 0, 1, 2, 2, 2, 2, 2],
            &[2, 1, 1, 1, 2, 2, 0, 2, 0, 0, 2, 2, 2],
            &[2, 2, 2, 2, 2, 2, 2, 1, 0, 0, 0, 1, 1],
        ];
        for (policy, expected) in POLICIES.into_iter().zip(pinned) {
            let inline = run(policy, 42, &[3, 3, 7], |actor, _| Ok(actor));
            assert_eq!(inline.decisions, expected, "policy {policy}");
            assert_eq!(inline.steps, expected, "one record per decision");
            let workers: Vec<Worker<'_, (), usize>> = (0..3usize)
                .map(|w| Box::new(move |()| w) as Worker<'_, (), usize>)
                .collect();
            let threaded = run_threaded(policy, 42, &[3, 3, 7], workers, |_| ());
            assert_eq!(threaded.decisions, expected, "threaded, policy {policy}");
            assert_eq!(threaded.steps, expected, "each step ran on its own worker");
        }
    }

    #[test]
    fn a_failing_step_ends_the_run_with_its_violation() {
        let r = run(SchedulePolicy::RoundRobin, 1, &[2, 2], |actor, index| {
            if index == 2 {
                Err(format!("actor {actor} broke"))
            } else {
                Ok(index)
            }
        });
        assert_eq!(r.decisions, [0, 1, 0]);
        assert_eq!(r.steps, [0, 1]);
        assert_eq!(r.violation.as_deref(), Some("actor 0 broke"));
    }
}
