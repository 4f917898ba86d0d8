//! Seeded deterministic interleaving exploration of **lazy plan
//! maintenance** on one `Vmm`.
//!
//! A warm invoke is `resume(X)` → work → `pause(X)`; between the two, X
//! is its uLL queue's *resident* and the plans of the sandboxes paused
//! beside it are deliberately left describing the queue without X. That
//! is only sound if every other operation on the queue first brings them
//! up to date (`Vmm::settle`). Several drivers sharing one host interleave
//! exactly there, so this module steps them the way [`crate::explore`]
//! steps the warm pool: each driver is a script of `Vmm` operations, one
//! operation per granted step (a step is one `Mutex<Vmm>` critical
//! section — so the drivers need no threads of their own), and the seeded
//! [`SchedulePolicy`] decides who goes next.
//!
//! Checked after every step: [`Vmm::check_plans`] (every registered plan
//! matches its queue minus the resident), and no resume ever degrades.
//! At the end every sandbox left paused must resume cleanly.
//!
//! The planted bug is
//! [`Mutation::ResidentSkipsSettle`](crate::Mutation): `start` enqueues
//! beside a resident without settling. Each driver's first cycle starts a
//! sandbox right after its resume, so under *any* schedule the first
//! `start` of the run sees nothing but resumes before it — a resident is
//! marked, and the mutation must be caught.

use crate::stepped::{self, Exploration, SchedulePolicy};
use horse_sched::{CpuTopology, GovernorPolicy, RqId, SandboxId, SchedConfig, SchedFlavor};
use horse_vmm::{CostModel, PausePolicy, ResumeMode, SandboxConfig, Vmm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ResidentExploreConfig {
    /// Drivers sharing the host (≥ 1), each invoking its own sandbox.
    pub drivers: usize,
    /// Resume → work → pause cycles per driver.
    pub cycles: usize,
    /// Sandboxes that stay paused on the queue throughout: the plans a
    /// missed `settle` leaves stale.
    pub paused_peers: usize,
    /// Plant the skipped `settle` (`--mutate resident-skips-settle`). The
    /// run must then fail.
    pub plant_skip_settle: bool,
}

impl Default for ResidentExploreConfig {
    fn default() -> Self {
        Self {
            drivers: 3,
            cycles: 4,
            paused_peers: 3,
            plant_skip_settle: false,
        }
    }
}

/// One scripted driver operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Resume,
    /// Scale-up beside the running function: start a 1-vCPU sandbox with
    /// this credit (below every other, so it never lands at the tail).
    Start(i64),
    /// The scheduler picks the queue's next vCPU.
    Dispatch,
    Pause,
}

fn ull_config(vcpus: u32) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .ull(true)
        .build()
        .expect("valid config")
}

/// A fault-free HORSE resume that neither fails nor degrades.
fn resume_cleanly(vmm: &mut Vmm, id: SandboxId) -> Result<(), String> {
    match vmm.resume(id, ResumeMode::Horse) {
        Ok(outcome) if outcome.degradation.any() => Err(format!(
            "resume of {id} degraded: {:?}",
            outcome.degradation
        )),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("resume of {id}: {e}")),
    }
}

/// Cycle 0 always works by starting a sandbox (see the module docs); the
/// seed picks start or dispatch for the rest.
fn generate_scripts(cfg: &ResidentExploreConfig, seed: u64) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e51_de27_5e77_1e00);
    let mut next_credit = 0i64;
    (0..cfg.drivers.max(1))
        .map(|_| {
            (0..cfg.cycles.max(1))
                .flat_map(|cycle| {
                    let work = if cycle == 0 || rng.gen::<bool>() {
                        next_credit += 1;
                        Op::Start(next_credit)
                    } else {
                        Op::Dispatch
                    };
                    [Op::Resume, work, Op::Pause]
                })
                .collect()
        })
        .collect()
}

/// Runs one seeded exploration of drivers sharing a `Vmm`. `decisions`
/// names the driver granted each step.
pub fn explore_resident(
    cfg: &ResidentExploreConfig,
    policy: SchedulePolicy,
    seed: u64,
) -> Exploration<()> {
    let mut vmm = Vmm::new(
        SchedConfig {
            topology: CpuTopology::new(1, 8, false),
            ull_queues: 1,
            governor_policy: GovernorPolicy::Performance,
            flavor: SchedFlavor::Credit2,
        },
        CostModel::calibrated(),
    );
    let rq: RqId = vmm.sched().ull_queues()[0];
    let scripts = generate_scripts(cfg, seed);
    let drivers = scripts.len();

    // Peers then the drivers' sandboxes, two vCPUs each on distinct
    // credits above every later `Op::Start`, all paused HORSE-style.
    let mut fleet: Vec<SandboxId> = Vec::new();
    for i in 0..(cfg.paused_peers + drivers) as i64 {
        let id = vmm.create(ull_config(2));
        vmm.start_with_credits(id, &[1_000 + i, 2_000 + i])
            .expect("fresh sandbox starts");
        fleet.push(id);
    }
    for &id in &fleet {
        vmm.pause(id, PausePolicy::horse())
            .expect("running sandbox pauses");
    }
    let own = fleet.split_off(cfg.paused_peers);
    let mut paused = fleet;

    let budgets: Vec<usize> = scripts.iter().map(Vec::len).collect();
    let mut next_op = vec![0usize; drivers];
    let mut run = stepped::run(policy, seed, &budgets, |d, step| {
        let op = scripts[d][next_op[d]];
        next_op[d] += 1;
        let done = match op {
            Op::Resume => resume_cleanly(&mut vmm, own[d]),
            Op::Start(credit) => {
                let id = vmm.create(ull_config(1));
                if cfg.plant_skip_settle {
                    vmm.start_with_credits_unsettled(id, &[credit])
                } else {
                    vmm.start_with_credits(id, &[credit])
                }
                .map_err(|e| format!("start of {id}: {e}"))
            }
            Op::Dispatch => {
                vmm.ull_dispatch(rq);
                Ok(())
            }
            Op::Pause => vmm
                .pause(own[d], PausePolicy::horse())
                .map(|_| ())
                .map_err(|e| format!("pause of {}: {e}", own[d])),
        };
        done.and_then(|()| vmm.check_plans())
            .map_err(|e| format!("step {step} (driver {d}, {op:?}): {e}"))
    });

    // Black-box end state: whatever is still paused splices in cleanly.
    if run.violation.is_none() {
        paused.extend(own);
        run.violation = paused
            .into_iter()
            .find_map(|id| resume_cleanly(&mut vmm, id).err())
            .map(|e| format!("end of run: {e}"));
    }
    if run.violation.is_none() {
        let s = vmm.sched();
        if let Err(e) = s.queue_list(rq).check_invariants(s.arena()) {
            run.violation = Some(format!("{rq} invariants violated: {e}"));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepped::testing::{assert_caught, assert_clean};

    /// The seeds CI's three matrix entries derive.
    const SEEDS: [u64; 9] = [1, 2, 3, 42, 43, 44, 1337, 1338, 1339];

    #[test]
    fn all_policies_pass_on_the_real_vmm_and_replay() {
        let cfg = ResidentExploreConfig::default();
        assert_clean(
            &SEEDS,
            |policy, seed| explore_resident(&cfg, policy, seed),
            |r| assert_eq!(r.decisions.len(), cfg.drivers * cfg.cycles * 3),
        );
    }

    #[test]
    fn planted_skipped_settle_is_always_caught() {
        let cfg = ResidentExploreConfig {
            plant_skip_settle: true,
            ..ResidentExploreConfig::default()
        };
        assert_caught(&SEEDS, "", |policy, seed| {
            explore_resident(&cfg, policy, seed)
        });
    }

    #[test]
    fn single_driver_degenerates_to_a_warm_loop() {
        let cfg = ResidentExploreConfig {
            drivers: 1,
            ..ResidentExploreConfig::default()
        };
        let r = explore_resident(&cfg, SchedulePolicy::RoundRobin, 42);
        assert!(r.violation.is_none(), "{:?}", r.violation);
    }
}
