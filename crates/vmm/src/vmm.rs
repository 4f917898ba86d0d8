//! The virtual machine monitor: sandbox lifecycle orchestration.
//!
//! [`Vmm`] glues the scheduler substrate to the sandbox state machine and
//! implements the paper's pause and resume paths:
//!
//! * **pause** (§4.1.3/§4.2.2): dequeue the sandbox's vCPUs, and — under a
//!   HORSE [`PausePolicy`] — build `merge_vcpus`, assign an
//!   `ull_runqueue`, precompute the 𝒫²𝒮ℳ plan and the coalesced load
//!   update;
//! * **resume** (§3.1 / §5.1): the instrumented six-step pipeline in the
//!   four evaluation setups (`vanil`, `ppsm`, `coal`, `horse`);
//! * **plan maintenance**: a mutation of an `ull_runqueue` updates the
//!   plans of the paused sandboxes assigned to it, charging the cost to
//!   their off-critical-path maintenance budget (the §5.2 overhead) —
//!   except the one mutation a warm invoke makes. `resume(X)` merges X's
//!   vCPUs in and the re-pause takes exactly those nodes out again, so
//!   the queue every peer's plan was built against comes back node for
//!   node. `resume` therefore only records X as the queue's *resident*;
//!   `pause(X)` clears the mark; and any other operation that reads or
//!   mutates the queue or a plan on it first calls `Vmm::settle`, which
//!   does the deferred rebuild. A warm invoke costs the same however
//!   many sandboxes are paused beside it.

use crate::config::SandboxConfig;
use crate::cost::CostModel;
use crate::pause::{PauseBreakdown, PauseStep};
use crate::resume::{ResumeBreakdown, ResumeMode, ResumeStep};
use crate::sandbox::{PausePolicy, PausedState, Sandbox, SandboxState, VcpuPlacement};
use crate::snapshot::{RestoreModel, SandboxSnapshot};
use crate::splice_pool::{SplicePool, SplicePoolStats};
use horse_core::{
    MergeReport, PlanBuffers, PlanCorruption, SortedList, SpliceMode, StalePlanError,
};
use horse_faults::{FaultId, FaultInjector, FaultSite, RecoveryOutcome};
use horse_sched::{
    HostScheduler, RqId, RqKind, SandboxId, SchedConfig, SpliceWatchdog, Vcpu, VcpuId,
};
use horse_telemetry::alloc::{note_buffer_recycled, AllocPhase, AllocScope};
use horse_telemetry::{Counter, EventKind, Gauge, Recorder};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Errors returned by [`Vmm`] operations.
///
/// Marked `#[non_exhaustive]`: the fault plane grows new failure classes
/// (crashes, exhausted queues) without breaking downstream matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmmError {
    /// The sandbox id is unknown (or destroyed and reaped).
    NotFound(SandboxId),
    /// The operation is invalid in the sandbox's current state — e.g.
    /// resuming a sandbox that is not paused (the paper's step ③ sanity
    /// check).
    InvalidState {
        /// Target sandbox.
        id: SandboxId,
        /// State required by the operation.
        expected: SandboxState,
        /// State the sandbox is actually in.
        actual: SandboxState,
    },
    /// The resume mode requires precomputed state the pause did not build
    /// (or built precomputed state the mode would leak).
    ModeMismatch {
        /// Target sandbox.
        id: SandboxId,
        /// The offending mode.
        mode: ResumeMode,
    },
    /// The 𝒫²𝒮ℳ plan no longer matches its ull_runqueue.
    Stale(StalePlanError),
    /// The sandbox crashed mid-pause or mid-resume (fault injection or a
    /// real microVM death). Partial scheduler state was rolled back and
    /// the sandbox destroyed — the id is gone.
    Crashed {
        /// The sandbox that crashed.
        id: SandboxId,
        /// `true` if the crash hit the resume path, `false` the pause
        /// path.
        mid_resume: bool,
    },
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::NotFound(id) => write!(f, "sandbox {id} not found"),
            VmmError::InvalidState {
                id,
                expected,
                actual,
            } => {
                write!(f, "sandbox {id} is {actual}, operation requires {expected}")
            }
            VmmError::ModeMismatch { id, mode } => {
                write!(f, "sandbox {id} was not paused for resume mode {mode}")
            }
            VmmError::Stale(e) => write!(f, "{e}"),
            VmmError::Crashed { id, mid_resume } => write!(
                f,
                "sandbox {id} crashed mid-{}; state rolled back, sandbox destroyed",
                if *mid_resume { "resume" } else { "pause" }
            ),
        }
    }
}

impl Error for VmmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VmmError::Stale(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StalePlanError> for VmmError {
    fn from(e: StalePlanError) -> Self {
        VmmError::Stale(e)
    }
}

/// Outcome of a pause: its off-critical-path cost and what it precomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseReport {
    /// Modeled pause-path cost in virtual nanoseconds (dequeues plus any
    /// HORSE precomputation).
    pub cost_ns: u64,
    /// Per-step breakdown of where the pause time went.
    pub breakdown: PauseBreakdown,
    /// Heap bytes of the 𝒫²𝒮ℳ structures (0 without precomputation).
    pub plan_bytes: usize,
    /// The ull_runqueue assigned for the future resume, if any.
    pub ull_rq: Option<RqId>,
}

/// What degraded during a resume, and what it cost.
///
/// All-zeroes/`false` means the clean path ran; any set field means a
/// fault-plane recovery fired. `penalty_ns` is the total virtual-time
/// latency charged over the clean path for the same mode (the
/// "degradation must be measured" requirement — it is also the arg of
/// the `horse_fallback` telemetry event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeDegradation {
    /// Step ④: the 𝒫²𝒮ℳ plan failed `check_consistent` and the resume
    /// fell back to the vanilla sorted merge.
    pub plan_fallback: bool,
    /// Step ④: splice points reclaimed from straggling/dead splice
    /// threads and completed sequentially (0 = no rescue).
    pub straggler_rescued_splices: u32,
    /// Step ⑤: the coalesced factors failed validation and per-vCPU load
    /// updates ran instead.
    pub coalesce_bypassed: bool,
    /// Total latency charged over the clean path, in virtual ns.
    pub penalty_ns: u64,
}

impl ResumeDegradation {
    /// Whether any degradation fired.
    pub fn any(&self) -> bool {
        self.plan_fallback || self.straggler_rescued_splices > 0 || self.coalesce_bypassed
    }
}

/// What [`Vmm::fail_ull_queue`] did to evacuate a failed uLL queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueFailover {
    /// Running vCPUs drained from the failed queue and re-enqueued on a
    /// healthy queue.
    pub migrated_running: usize,
    /// Paused sandboxes whose 𝒫²𝒮ℳ state was rebuilt against a healthy
    /// uLL queue (they keep their HORSE fast path).
    pub replanned: usize,
    /// Paused sandboxes downgraded to a vanilla pause because no healthy
    /// uLL queue was left (they must resume through the vanilla path).
    pub degraded: usize,
}

/// Outcome of a resume: per-step breakdown plus merge statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeOutcome {
    /// Mode the resume executed in.
    pub mode: ResumeMode,
    /// Per-step virtual-nanosecond breakdown (Figures 2–3).
    pub breakdown: ResumeBreakdown,
    /// 𝒫²𝒮ℳ merge statistics when the mode used the splice path.
    pub merge: Option<MergeReport>,
    /// Degradations the fault plane forced on this resume (defaults —
    /// clean path).
    pub degradation: ResumeDegradation,
}

/// Cumulative operation counters of a [`Vmm`] — the observability
/// surface an operator dashboards (resume counts and latencies per
/// mode, pause counts, lifecycle totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmmStats {
    /// Sandboxes created.
    pub created: u64,
    /// Sandboxes started.
    pub started: u64,
    /// Pauses performed.
    pub pauses: u64,
    /// Sandboxes destroyed.
    pub destroyed: u64,
    /// Resumes performed, indexed by [`ResumeMode::ALL`] order
    /// (vanil, ppsm, coal, horse).
    pub resumes_by_mode: [u64; 4],
    /// Cumulative virtual nanoseconds spent in resume pipelines, same
    /// indexing.
    pub resume_ns_by_mode: [u64; 4],
}

impl VmmStats {
    /// Total resumes across all modes.
    pub fn total_resumes(&self) -> u64 {
        self.resumes_by_mode.iter().sum()
    }

    /// Mean resume duration for a mode, in ns (0 if none ran).
    pub fn mean_resume_ns(&self, mode: ResumeMode) -> u64 {
        let i = ResumeMode::ALL
            .iter()
            .position(|m| *m == mode)
            .expect("known mode");
        self.resume_ns_by_mode[i]
            .checked_div(self.resumes_by_mode[i])
            .unwrap_or(0)
    }
}

/// Recycled buffers for the steady-state pause/resume loop.
///
/// A warm invocation pauses and resumes the same sandbox over and over;
/// without recycling, every cycle re-allocates the save-buffer, the
/// placement vector, the 𝒫²𝒮ℳ plan buffers and the per-queue load-update
/// scratch. The scratch pools close that loop: a pause recycles what the
/// previous resume (or `start`) allocated and vice versa, so after the
/// first cycle the hot path performs **zero heap allocations**
/// (`gate.allocs_per_warm_invoke == 0`). Reuses are attributed via
/// [`note_buffer_recycled`] so the profiling plane can distinguish a
/// pooled steady state from an idle one.
///
/// Pools are bounded by the number of concurrently paused sandboxes on
/// the host; buffers are stored cleared.
///
/// # Sharing discipline
///
/// The pools are **per host**: `HotScratch` lives inside one [`Vmm`] and
/// is only reached through `&mut Vmm`, so two hosts resuming concurrently
/// on different threads can never hand each other a recycled buffer —
/// each host's recycle loop is closed over its own pools (asserted by the
/// `scratch_isolation` integration test via the global recycle counters).
/// Within a host, the parallel splice workers never touch these pools
/// either: their per-worker scratch is the [`SplicePool`]'s explicit
/// slots, one slot per worker, so a dispatch cannot alias scratch across
/// workers no matter how the threads interleave.
#[derive(Debug, Default)]
struct HotScratch {
    /// Free `(credit, vcpu)` save-buffers (pause fills, resume returns).
    saved: Vec<Vec<(i64, Vcpu)>>,
    /// Free placement buffers (resume fills, pause returns).
    placements: Vec<Vec<VcpuPlacement>>,
    /// Recycled 𝒫²𝒮ℳ plan buffers (merge/teardown returns, precompute
    /// takes).
    plans: Vec<PlanBuffers>,
    /// Pause-path scratch: the queue of every dequeued vCPU, then the
    /// uLL queues among them.
    touched: Vec<RqId>,
    /// Resume-path scratch: per-queue vCPU counts for the vanilla load
    /// update (find-or-push over a handful of queues — no tree nodes).
    per_rq: Vec<(RqId, u32)>,
}

/// Plan-maintenance state of one run queue (only uLL queues ever hold
/// any).
#[derive(Debug, Default)]
struct QueuePlans {
    /// Paused sandboxes holding a plan against this queue.
    paused: Vec<SandboxId>,
    /// The running sandbox whose resume is the only change to this queue
    /// since the plans in `paused` were last fresh: they match the queue
    /// minus its vCPUs, and match the queue again once it re-pauses.
    resident: Option<SandboxId>,
}

impl HotScratch {
    /// Pops a pooled buffer (or a fresh empty one), noting the recycle
    /// when the buffer actually carries reusable capacity.
    fn take_buf<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
        let buf = pool.pop().unwrap_or_default();
        if buf.capacity() > 0 {
            note_buffer_recycled();
        }
        buf
    }
}

/// The virtual machine monitor.
///
/// # Example
///
/// ```
/// use horse_vmm::{PausePolicy, ResumeMode, SandboxConfig, Vmm};
///
/// let mut vmm = Vmm::with_defaults();
/// let cfg = SandboxConfig::builder().vcpus(4).ull(true).build()?;
/// let id = vmm.create(cfg);
/// vmm.start(id)?;
/// vmm.pause(id, PausePolicy::horse())?;
/// let outcome = vmm.resume(id, ResumeMode::Horse)?;
/// assert!(outcome.breakdown.total_ns() < 1_000, "HORSE resumes in O(100ns)");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Vmm {
    sched: HostScheduler,
    cost: CostModel,
    sandboxes: BTreeMap<u64, Sandbox>,
    next_sandbox: u64,
    next_vcpu: u64,
    /// Plan maintenance per run queue, indexed by [`RqId::as_usize`].
    plans_on: Vec<QueuePlans>,
    stats: VmmStats,
    /// Telemetry sink; disabled (and inert) by default.
    recorder: Recorder,
    /// Fault-injection plane; disabled (and inert) by default.
    injector: FaultInjector,
    /// Straggler budget for the parallel splice.
    watchdog: SpliceWatchdog,
    /// Real-thread worker pool for the clean-path staged splice
    /// (inline by default; see [`SplicePool`]).
    pool: SplicePool,
    /// Emulated wake-IPI cost per merged vCPU, in wall-clock nanoseconds.
    /// 0 (the default) disables the emulation entirely; the wall-clock
    /// bench sets it to make the resume's real latency scale with the
    /// work a kernel would do. Never feeds the virtual cost axis.
    wake_emulation_nanos: u64,
    /// Recycled hot-path buffers (see [`HotScratch`]).
    scratch: HotScratch,
    /// List nodes the pause path has stepped over (see
    /// [`Vmm::pause_walk_steps`]).
    pause_walk_steps: u64,
}

impl Vmm {
    /// Creates a VMM over a freshly-built scheduler.
    pub fn new(sched_config: SchedConfig, cost: CostModel) -> Self {
        let sched = HostScheduler::new(sched_config);
        let plans_on = (0..sched.num_queues())
            .map(|_| QueuePlans::default())
            .collect();
        Self {
            sched,
            cost,
            sandboxes: BTreeMap::new(),
            next_sandbox: 0,
            next_vcpu: 0,
            plans_on,
            stats: VmmStats::default(),
            recorder: Recorder::disabled(),
            injector: FaultInjector::disabled(),
            watchdog: SpliceWatchdog::default(),
            pool: SplicePool::default(),
            wake_emulation_nanos: 0,
            scratch: HotScratch::default(),
            pause_walk_steps: 0,
        }
    }

    /// Installs a telemetry recorder, shared with the scheduler (all
    /// clones of a [`Recorder`] feed one sink). Pause/resume spans land
    /// on the recorder's virtual-time cursor.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.sched.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The active telemetry recorder (disabled unless one was installed).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Installs a fault injector (clones share one injection plane, so
    /// the platform typically passes the same handle to the VMM, pools
    /// and cluster).
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// The active fault injector (disabled unless one was installed).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Replaces the splice worker pool (default: [`SplicePool::inline`],
    /// which never spawns). Install a [`SplicePool::parallel`] pool to
    /// execute the clean-path resume splice on real threads.
    pub fn set_splice_pool(&mut self, pool: SplicePool) {
        self.pool = pool;
    }

    /// Cumulative splice-pool counters.
    pub fn splice_pool_stats(&self) -> SplicePoolStats {
        self.pool.stats()
    }

    /// List nodes every [`Vmm::pause`] so far has stepped over: the
    /// queue nodes its dequeue walks visited plus the merge-list nodes
    /// it appended. Test hook pinning the pause to O(n + q) steps by
    /// count rather than by time.
    #[doc(hidden)]
    pub fn pause_walk_steps(&self) -> u64 {
        self.pause_walk_steps
    }

    /// Sets the emulated wake-IPI cost per merged vCPU, in wall-clock
    /// nanoseconds (default 0 = disabled). With a value set, resume
    /// executions sleep that long per woken vCPU — HORSE's splice workers
    /// in parallel, the vanilla per-vCPU path serially — so wall-clock
    /// measurements see the scaling shape a kernel would. Purely a
    /// wall-clock lever: virtual `*_ns` accounting is untouched.
    pub fn set_wake_emulation_nanos(&mut self, nanos: u64) {
        self.wake_emulation_nanos = nanos;
    }

    /// Creates a VMM with the default r650 topology and calibrated costs.
    pub fn with_defaults() -> Self {
        Self::new(SchedConfig::default(), CostModel::calibrated())
    }

    /// The underlying scheduler (read access).
    pub fn sched(&self) -> &HostScheduler {
        &self.sched
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> VmmStats {
        self.stats
    }

    /// Looks up a sandbox.
    pub fn sandbox(&self, id: SandboxId) -> Option<&Sandbox> {
        self.sandboxes.get(&id.as_u64())
    }

    /// Number of managed (non-destroyed) sandboxes.
    pub fn sandbox_count(&self) -> usize {
        self.sandboxes.len()
    }

    /// Creates a sandbox in the `Configured` state.
    pub fn create(&mut self, config: SandboxConfig) -> SandboxId {
        let id = SandboxId::new(self.next_sandbox);
        self.next_sandbox += 1;
        self.stats.created += 1;
        self.sandboxes.insert(id.as_u64(), Sandbox::new(id, config));
        self.recorder
            .gauge(Gauge::LiveSandboxes, self.sandboxes.len() as u64);
        id
    }

    /// Starts a configured sandbox: places its vCPUs on run queues
    /// (general queues, or an ull_runqueue for uLL sandboxes) and flips it
    /// to `Running`.
    ///
    /// # Errors
    ///
    /// [`VmmError::InvalidState`] unless the sandbox is `Configured`.
    pub fn start(&mut self, id: SandboxId) -> Result<(), VmmError> {
        self.start_inner(id, None)
    }

    /// Starts a configured sandbox like [`Vmm::start`], but with an
    /// explicit credit per vCPU instead of the uniform initial credit.
    ///
    /// Benches and tests use this to shape run-queue interleavings — e.g.
    /// a background sandbox on even credits and a measured sandbox on odd
    /// credits, so the measured sandbox's resume splice hits a distinct
    /// splice point per vCPU instead of one contiguous head splice.
    ///
    /// # Panics
    ///
    /// If `credits.len()` differs from the sandbox's configured vCPU
    /// count.
    ///
    /// # Errors
    ///
    /// [`VmmError::InvalidState`] unless the sandbox is `Configured`.
    pub fn start_with_credits(&mut self, id: SandboxId, credits: &[i64]) -> Result<(), VmmError> {
        self.start_inner(id, Some(credits))
    }

    /// Deliberately buggy variant of [`Vmm::start_with_credits`] that
    /// forgets to `settle`: it enqueues beside a resident
    /// as if no sandbox were in transit, and leaves the mark standing.
    /// Exists solely for the check plane's seeded `--mutate
    /// resident-skips-settle` bug — never called by a real start.
    #[doc(hidden)]
    pub fn start_with_credits_unsettled(
        &mut self,
        id: SandboxId,
        credits: &[i64],
    ) -> Result<(), VmmError> {
        let marks: Vec<_> = self
            .plans_on
            .iter_mut()
            .map(|q| q.resident.take())
            .collect();
        let started = self.start_inner(id, Some(credits));
        for (q, mark) in self.plans_on.iter_mut().zip(marks) {
            q.resident = mark;
        }
        started
    }

    fn start_inner(&mut self, id: SandboxId, credits: Option<&[i64]>) -> Result<(), VmmError> {
        self.expect_state(id, SandboxState::Configured)?;
        let config = self.sandboxes[&id.as_u64()].config();
        if let Some(credits) = credits {
            assert_eq!(
                credits.len(),
                config.vcpus() as usize,
                "one explicit credit per configured vCPU"
            );
        }
        let mut placements = Vec::with_capacity(config.vcpus() as usize);
        for i in 0..config.vcpus() {
            let vcpu = Vcpu::new(VcpuId::new(self.next_vcpu), id);
            self.next_vcpu += 1;
            let credit = match credits {
                Some(credits) => credits[i as usize],
                None => self.initial_credit(),
            };
            let (rq, node) = match self
                .shortest_healthy_ull_queue()
                .filter(|_| config.is_ull())
            {
                Some(rq) => {
                    let node = self.enqueue_on_ull(rq, credit, vcpu, Some(id));
                    (rq, node)
                }
                // Non-uLL sandbox — or every uLL queue failed, in which
                // case uLL starts degrade to the general queues.
                None => {
                    let rq = self.sched.least_loaded_general();
                    (rq, self.sched.enqueue_vcpu(rq, credit, vcpu))
                }
            };
            self.sched.load_update_per_vcpu(rq, 1);
            placements.push(VcpuPlacement { rq, node, vcpu });
        }
        let sb = self.sandboxes.get_mut(&id.as_u64()).expect("checked above");
        sb.placements = placements;
        sb.set_state(SandboxState::Running);
        self.stats.started += 1;
        self.recorder
            .gauge_add(Gauge::QueuedVcpus, i64::from(config.vcpus()));
        Ok(())
    }

    /// Pauses a running sandbox (keep-alive path): removes its vCPUs from
    /// the run queues and, per the policy, performs HORSE's pause-time
    /// precomputation.
    ///
    /// # Errors
    ///
    /// [`VmmError::InvalidState`] unless the sandbox is `Running`.
    pub fn pause(&mut self, id: SandboxId, policy: PausePolicy) -> Result<PauseReport, VmmError> {
        // Allocation attribution: the pause pipeline defaults to `Pause`;
        // the plan and coalesce precomputations re-scope below.
        let _alloc = AllocScope::enter(AllocPhase::Pause);
        self.expect_state(id, SandboxState::Running)?;
        let sb = self.sandboxes.get_mut(&id.as_u64()).expect("checked above");
        let mut placements = std::mem::take(&mut sb.placements);
        let n = placements.len() as u32;

        // Dequeue every vCPU, remembering credits for re-insertion: one
        // walk per queue the sandbox sits on, taking all its vCPUs there
        // (a per-vCPU `dequeue_vcpu` walks to each node's predecessor —
        // O(n·q) where this is O(q)). If the vCPUs sit on an
        // ull_runqueue, other paused sandboxes' plans against that queue
        // go stale and must be rebuilt afterwards — unless this sandbox
        // is the queue's resident.
        // The save-buffer comes from the scratch pool (filled by earlier
        // resumes); the drained placement buffer goes back for the next
        // resume — a warm pause/resume cycle allocates nothing.
        let mut saved: Vec<(i64, Vcpu)> = HotScratch::take_buf(&mut self.scratch.saved);
        let mut touched = std::mem::take(&mut self.scratch.touched);
        touched.extend(placements.drain(..).map(|p| p.rq));
        self.scratch.placements.push(placements);
        touched.sort_unstable_by_key(|rq| rq.as_usize());
        let mut rest = &touched[..];
        while let Some(&rq) = rest.first() {
            let on_rq = rest.iter().take_while(|r| **r == rq).count();
            self.pause_walk_steps += self.sched.dequeue_sandbox(rq, id, on_rq, &mut saved) as u64;
            rest = &rest[on_rq..];
        }
        touched.retain(|rq| self.sched.queue(*rq).kind() == RqKind::Ull);
        self.vacate(&mut touched, id);
        // Unstable sort: `(credit, vcpu.id)` keys are unique, so the
        // order is identical to the stable sort — without its temporary
        // merge buffer.
        saved.sort_unstable_by_key(|(credit, vcpu)| (*credit, vcpu.id));
        let mut breakdown = PauseBreakdown::default();
        breakdown.set(
            PauseStep::DequeueVcpus,
            (f64::from(n) * self.cost.pause_dequeue_per_vcpu_ns).round() as u64,
        );

        // Chaos: crash mid-pause — vCPUs are off the queues but nothing
        // precomputed yet. Recovery rolls the sandbox forward to a clean
        // `Destroyed` state (the vCPU nodes are already freed by the
        // dequeues) and rebuilds the plans the dequeues staled.
        if let Some(fault) = self.injector.should_inject(FaultSite::CrashMidPause) {
            self.note_fault(FaultSite::CrashMidPause);
            let sb = self.sandboxes.get_mut(&id.as_u64()).expect("checked above");
            sb.set_state(SandboxState::Destroyed);
            self.sandboxes.remove(&id.as_u64());
            self.stats.destroyed += 1;
            self.recorder.gauge_add(Gauge::QueuedVcpus, -i64::from(n));
            self.recorder
                .gauge(Gauge::LiveSandboxes, self.sandboxes.len() as u64);
            for &rq in &touched {
                self.rebuild_plans_on(rq, None);
            }
            touched.clear();
            self.scratch.touched = touched;
            saved.clear();
            self.scratch.saved.push(saved);
            self.injector
                .resolve(fault, RecoveryOutcome::CrashContained { mid_resume: false });
            return Err(VmmError::Crashed {
                id,
                mid_resume: false,
            });
        }

        // Degrade gracefully when every uLL queue has failed: pause
        // without precomputation (the sandbox then resumes through the
        // vanilla path) rather than refusing the pause.
        let mut policy = policy;
        let needs_ull_target = policy.precompute_merge || policy.precompute_coalesce;
        let ull_rq = if needs_ull_target {
            match self.sched.try_assign_ull_queue() {
                Some(rq) => {
                    breakdown.set(
                        PauseStep::AssignUllQueue,
                        self.cost.ull_assign_ns.round() as u64,
                    );
                    Some(rq)
                }
                None => {
                    policy = PausePolicy::vanilla();
                    None
                }
            }
        } else {
            None
        };

        let plan = if policy.precompute_merge {
            let _alloc = AllocScope::enter(AllocPhase::PlanPrecompute);
            let rq = ull_rq.expect("assigned above");
            // The plan must be built against what its future peers'
            // plans describe, not against another sandbox's transit.
            self.settle(rq);
            let before = self.sched.arena_stats();
            // `saved` is sorted: appending at the tail builds the list a
            // sorted insert per vCPU would, and books the same counts.
            let mut merge_vcpus = SortedList::new();
            for &(credit, vcpu) in &saved {
                merge_vcpus.push_back(self.sched.arena_mut(), credit, vcpu);
            }
            self.pause_walk_steps += u64::from(n);
            let ops = self.sched.arena_stats() - before;
            breakdown.set(
                PauseStep::BuildMergeList,
                (ops.allocs as f64 * self.cost.alloc_ns
                    + ops.comparisons as f64 * self.cost.cmp_ns
                    + ops.pointer_writes as f64 * self.cost.ptr_write_ns)
                    .round() as u64,
            );
            // Plan buffers recycle from earlier merges/teardowns; the
            // merge-list nodes themselves reuse the arena slots the
            // dequeues above just freed.
            let bufs = self.scratch.plans.pop().unwrap_or_default();
            if bufs.has_capacity() {
                note_buffer_recycled();
            }
            let plan = self.sched.ull_precompute_in(rq, merge_vcpus, bufs);
            breakdown.set(
                PauseStep::PrecomputePlan,
                ((plan.a_len() + plan.b_len()) as f64 * self.cost.plan_precompute_per_elem_ns)
                    .round() as u64,
            );
            Some(plan)
        } else {
            None
        };

        let coalesced = if policy.precompute_coalesce {
            let _alloc = AllocScope::enter(AllocPhase::Coalesce);
            breakdown.set(
                PauseStep::PrecomputeCoalesce,
                self.cost.coalesce_precompute_ns.round() as u64,
            );
            Some(self.sched.tracker().coalesce(n))
        } else {
            None
        };
        let cost = breakdown.total_ns();

        let plan_bytes = plan.as_ref().map_or(0, |p| p.memory_bytes());
        let sb = self.sandboxes.get_mut(&id.as_u64()).expect("still present");
        sb.paused = Some(PausedState {
            policy,
            saved_vcpus: saved,
            plan,
            coalesced,
            ull_rq,
        });
        sb.set_state(SandboxState::Paused);
        sb.maintenance_ns += cost;

        if let Some(rq) = ull_rq {
            if policy.precompute_merge {
                self.plans_on[rq.as_usize()].paused.push(id);
            }
        }
        // Rebuild plans of other paused sandboxes whose B we mutated.
        for &rq in &touched {
            self.rebuild_plans_on(rq, Some(id));
        }
        touched.clear();
        self.scratch.touched = touched;

        self.stats.pauses += 1;
        self.record_pause(id, policy, &breakdown, n);
        Ok(PauseReport {
            cost_ns: cost,
            breakdown,
            plan_bytes,
            ull_rq,
        })
    }

    /// Lays the pause pipeline onto the telemetry cursor (no-op when the
    /// recorder is disabled): one child span per non-zero step in
    /// execution order, under a parent [`EventKind::Pause`] span.
    fn record_pause(
        &self,
        id: SandboxId,
        policy: PausePolicy,
        breakdown: &PauseBreakdown,
        vcpus: u32,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let start = self.recorder.now_ns();
        const STEPS: [(PauseStep, EventKind); 5] = [
            (PauseStep::DequeueVcpus, EventKind::PauseDequeue),
            (PauseStep::AssignUllQueue, EventKind::PauseAssignQueue),
            (PauseStep::BuildMergeList, EventKind::PauseBuildList),
            (PauseStep::PrecomputePlan, EventKind::PausePlan),
            (PauseStep::PrecomputeCoalesce, EventKind::PauseCoalesce),
        ];
        // One batched claim: the parent span plus every non-zero step.
        // The batch is stamped with the current trace context: a
        // keep-alive re-pause carries the invocation it served, while a
        // provisioning pause is untraced (invocation 0).
        let ctx = self.recorder.context();
        let mut events = [horse_telemetry::Event {
            kind: EventKind::Pause,
            track: 0,
            start_ns: start,
            dur_ns: breakdown.total_ns(),
            arg: id.as_u64(),
            invocation: ctx.invocation,
            parent: ctx.parent,
        }; 6];
        let mut filled = 1;
        let mut cursor = start;
        for (step, kind) in STEPS {
            let ns = breakdown.get(step);
            if ns > 0 {
                events[filled] = horse_telemetry::Event {
                    kind,
                    track: 0,
                    start_ns: cursor,
                    dur_ns: ns,
                    arg: 0,
                    invocation: ctx.invocation,
                    parent: Some(EventKind::Pause),
                };
                filled += 1;
                cursor += ns;
            }
        }
        self.recorder.set_now(cursor);
        self.recorder.span_batch(events.into_iter().take(filled));
        let horse_pause = policy.precompute_merge || policy.precompute_coalesce;
        self.recorder.count(
            if horse_pause {
                Counter::PausesHorse
            } else {
                Counter::PausesVanilla
            },
            1,
        );
        // Delta, not a recount: scanning every runqueue here would put
        // an O(queues) walk on the pause hot path.
        self.recorder
            .gauge_add(Gauge::QueuedVcpus, -i64::from(vcpus));
    }

    /// Resumes a paused sandbox in one of the paper's four setups,
    /// returning the instrumented per-step breakdown.
    ///
    /// The data-structure work of steps ④ and ⑤ is **executed for real**
    /// on the scheduler substrate; the step durations are the cost model
    /// applied to the operations counted during execution.
    ///
    /// # Errors
    ///
    /// * [`VmmError::InvalidState`] unless the sandbox is `Paused` (the
    ///   paper's step ③ sanity check);
    /// * [`VmmError::ModeMismatch`] if the pause policy did not precompute
    ///   what the mode consumes (or precomputed state the mode would
    ///   leak);
    /// * [`VmmError::Stale`] if the 𝒫²𝒮ℳ plan went stale (a bug in plan
    ///   maintenance — surfaced, never silently absorbed).
    pub fn resume(&mut self, id: SandboxId, mode: ResumeMode) -> Result<ResumeOutcome, VmmError> {
        // Allocation attribution: resume steps ①–⑥ (splice merge
        // included) default to `ResumeSplice`; the coalesced load update
        // re-scopes below.
        let _alloc = AllocScope::enter(AllocPhase::ResumeSplice);
        self.expect_state(id, SandboxState::Paused)?;
        let ull_rq = {
            let paused = self.sandboxes[&id.as_u64()]
                .paused
                .as_ref()
                .expect("paused sandboxes carry paused state");
            let p = paused.policy;
            if mode.uses_ppsm() != p.precompute_merge
                || mode.uses_coalescing() != p.precompute_coalesce
            {
                return Err(VmmError::ModeMismatch { id, mode });
            }
            paused.ull_rq
        };

        // Chaos: crash mid-resume — the sanity checks passed but the
        // sandbox dies before touching the queues. `destroy` already
        // knows how to unwind a paused sandbox completely (plan nodes,
        // queue assignment, plan maintenance on the queue), so crash
        // containment *is* a destroy.
        if let Some(fault) = self.injector.should_inject(FaultSite::CrashMidResume) {
            self.note_fault(FaultSite::CrashMidResume);
            self.destroy(id).expect("sandbox exists; checked above");
            self.injector
                .resolve(fault, RecoveryOutcome::CrashContained { mid_resume: true });
            return Err(VmmError::Crashed {
                id,
                mid_resume: true,
            });
        }

        // Another sandbox may be in transit on the target queue: bring
        // every plan on it (this sandbox's included) up to the queue as
        // it is now, before step ④ verifies and splices.
        if let Some(rq) = ull_rq {
            self.settle(rq);
        }

        let mut degradation = ResumeDegradation::default();
        let mut breakdown = ResumeBreakdown::default();
        breakdown.set(ResumeStep::ParseInput, self.cost.parse_ns.round() as u64);
        breakdown.set(
            ResumeStep::AcquireLock,
            self.cost.resume_lock_ns.round() as u64,
        );
        breakdown.set(ResumeStep::SanityChecks, self.cost.sanity_ns.round() as u64);

        // Telemetry: advance the virtual cursor past steps ①–③ now, so
        // the scheduler's own instants (merge, load update) land inside
        // the step-④/⑤ windows. The step spans themselves are emitted in
        // one batch at the end of the pipeline — a push per step would
        // double the recorder's hot-path cost.
        let resume_start = self.recorder.now_ns();
        self.recorder.set_now(
            resume_start
                + breakdown.get(ResumeStep::ParseInput)
                + breakdown.get(ResumeStep::AcquireLock)
                + breakdown.get(ResumeStep::SanityChecks),
        );
        // The context the platform installed (invocation + invoke-phase
        // parent). Steps ④/⑤ re-parent the context around their work so
        // scheduler instants and fault events attach to the right step;
        // restored before returning.
        let base_ctx = self.recorder.context();

        let sb = self.sandboxes.get_mut(&id.as_u64()).expect("present");
        let paused = sb.paused.take().expect("paused state present");
        let n = paused.saved_vcpus.len() as u32;

        // --- step ④: sorted merge ---
        self.recorder.set_parent(Some(EventKind::ResumeSortedMerge));
        let merge_start = self.recorder.now_ns();
        let mut merge_report = None;
        // Placement buffer recycled from the previous pause (or `start`).
        let mut placements: Vec<VcpuPlacement> = HotScratch::take_buf(&mut self.scratch.placements);
        let merge_ns = if mode.uses_ppsm() {
            let rq = paused.ull_rq.expect("ppsm pause assigned a queue");
            let mut plan = paused.plan.expect("ppsm pause built a plan");
            let splices = plan.splice_count();

            // Chaos: stale/corrupted-plan injections. Corruption is
            // metadata-only ([`PlanCorruption`]), so the verification
            // below detects it while `into_list` still reconstructs A
            // exactly — the fallback is sound by construction.
            let mut plan_faults: Vec<FaultId> = Vec::new();
            for site in [FaultSite::ResumePlanStale, FaultSite::ResumePlanCorrupt] {
                let Some(fault) = self.injector.should_inject(site) else {
                    continue;
                };
                self.note_fault(site);
                let preferred = match site {
                    FaultSite::ResumePlanStale => PlanCorruption::StaleBHead,
                    _ if self.injector.arrivals_at(site) % 2 == 0 => {
                        PlanCorruption::TruncatedArrayB
                    }
                    _ => PlanCorruption::AnchorSkew,
                };
                let applied = plan.corrupt(preferred)
                    || PlanCorruption::ALL
                        .into_iter()
                        .any(|c| c != preferred && plan.corrupt(c));
                if applied {
                    plan_faults.push(fault);
                } else {
                    // Degenerate plan with nothing to corrupt: the fault
                    // is a no-op and the clean path continues.
                    self.injector.resolve(
                        fault,
                        RecoveryOutcome::FellBackToVanillaMerge { penalty_ns: 0 },
                    );
                }
            }

            // Step-④ safety net: *always* verify the plan against its
            // queue before splicing — a corrupted plan must never reach
            // `ull_merge`. On the clean path the walk is folded into the
            // step-③ sanity budget; a failed check falls back to the
            // vanilla sorted merge of the plan's reconstructed A.
            let verified = plan
                .check_consistent(self.sched.arena(), self.sched.queue_list(rq))
                .is_ok();
            let ns = if verified {
                debug_assert!(
                    plan_faults.is_empty(),
                    "corrupted plans must fail verification"
                );
                // Chaos: straggling or dead splice threads. The watchdog
                // reclaims their splice points and completes them
                // sequentially via a chunked splice (order-equivalent —
                // splices are disjoint); only the latency differs.
                let straggler = self.injector.should_inject(FaultSite::SpliceStraggler);
                let death = self.injector.should_inject(FaultSite::SpliceThreadDeath);
                let lost = usize::from(straggler.is_some()) + usize::from(death.is_some());
                let mut rescue_penalty = 0u64;
                let (report, bufs) = if lost > 0 {
                    let rescue = self.watchdog.plan_rescue(splices, lost);
                    let splice_mode = SpliceMode::ParallelChunked {
                        threads: rescue.healthy_threads,
                    };
                    // Rescued splices re-run sequentially: one unlink plus
                    // one link per splice point, ptr-write bound.
                    let per_splice_ns = 2.0 * self.cost.ptr_write_ns;
                    rescue_penalty = if straggler.is_some() {
                        // A straggler makes the merge wait out the full
                        // budget; a dead thread is detected immediately.
                        self.watchdog
                            .rescue_penalty_ns(rescue.rescued_splices, per_splice_ns)
                    } else {
                        (rescue.rescued_splices as f64 * per_splice_ns).round() as u64
                    };
                    for (fault, site) in [
                        (straggler, FaultSite::SpliceStraggler),
                        (death, FaultSite::SpliceThreadDeath),
                    ] {
                        if let Some(fault) = fault {
                            self.note_fault(site);
                            self.injector.resolve(
                                fault,
                                RecoveryOutcome::StragglerRescued {
                                    rescued_splices: rescue.rescued_splices as u64,
                                },
                            );
                        }
                    }
                    degradation.straggler_rescued_splices = rescue.rescued_splices as u32;
                    degradation.penalty_ns += rescue_penalty;
                    self.recorder.count(Counter::StragglerRescues, 1);
                    self.recorder.instant(
                        EventKind::StragglerRescue,
                        0,
                        rescue.rescued_splices as u64,
                    );
                    self.sched.ull_merge_recycling(rq, plan, splice_mode)?
                } else {
                    // Clean path: stage the splice and execute it on the
                    // VMM's worker pool — its parked worker threads when
                    // the pool is parallel, the calling thread by default.
                    // `ull_finish_staged` emits the same telemetry and
                    // report as `ull_merge_recycling`, so the two
                    // execution strategies are indistinguishable on the
                    // virtual axis.
                    {
                        let staged = plan.stage(self.sched.queue_list(rq))?;
                        self.pool.run(
                            self.sched.arena(),
                            &staged,
                            &self.watchdog,
                            self.wake_emulation_nanos,
                        );
                    }
                    self.sched.ull_finish_staged(rq, plan)
                };
                self.scratch.plans.push(bufs);
                merge_report = Some(report);
                self.cost.horse_merge_ns(splices, true) + rescue_penalty as f64
            } else {
                // Degraded step ④: reconstruct A from the plan (exact —
                // `into_list` ignores the corruptible metadata) and run
                // the vanilla sorted merge into the queue. Same queue
                // contents as a successful splice, vanilla latency.
                let (list, bufs) = plan.into_list_recycling(self.sched.arena());
                self.scratch.plans.push(bufs);
                let before = self.sched.arena_stats(); // time only the fallback walk
                let merged = self.sched.fallback_merge(rq, list);
                assert_eq!(merged as u32, n, "fallback must merge all of A");
                let ops = self.sched.arena_stats() - before;
                let vanilla_ns = self.cost.vanilla_merge_ns(ops);
                let penalty = (vanilla_ns - self.cost.horse_merge_ns(splices, true))
                    .max(0.0)
                    .round() as u64;
                degradation.plan_fallback = true;
                degradation.penalty_ns += penalty;
                self.recorder.count(Counter::HorseFallbacks, 1);
                self.recorder.instant(EventKind::HorseFallback, 0, penalty);
                for fault in plan_faults.drain(..) {
                    self.injector.resolve(
                        fault,
                        RecoveryOutcome::FellBackToVanillaMerge {
                            penalty_ns: penalty,
                        },
                    );
                }
                vanilla_ns
            };
            // Bookkeeping (untimed): recover the node handles of this
            // sandbox's vCPUs from the queue for the next pause.
            for (node, credit, vcpu) in self.sched.queue_list(rq).iter(self.sched.arena()) {
                let _ = credit;
                if vcpu.sandbox == id {
                    placements.push(VcpuPlacement {
                        rq,
                        node,
                        vcpu: *vcpu,
                    });
                }
            }
            ns
        } else {
            // Per-vCPU sorted inserts. Vanilla scatters across general
            // queues; coal concentrates on the assigned ull_runqueue
            // (coalescing requires a single target queue, §4.2).
            let before = self.sched.arena_stats();
            for &(credit, vcpu) in &paused.saved_vcpus {
                let (rq, node) = match paused.ull_rq {
                    Some(rq) => (rq, self.sched.enqueue_vcpu(rq, credit, vcpu)),
                    None => {
                        let rq = self.sched.least_loaded_general();
                        (rq, self.sched.enqueue_vcpu(rq, credit, vcpu))
                    }
                };
                placements.push(VcpuPlacement { rq, node, vcpu });
                // Wake-IPI emulation (wall-clock only): vanilla wakes each
                // vCPU on the resuming thread as it is re-inserted, so the
                // real latency grows one sleep per vCPU.
                if self.wake_emulation_nanos > 0 {
                    std::thread::sleep(std::time::Duration::from_nanos(self.wake_emulation_nanos));
                }
            }
            let ops = self.sched.arena_stats() - before;
            self.cost.vanilla_merge_ns(ops)
        };
        let merge_dur = merge_ns.round() as u64;
        breakdown.set(ResumeStep::SortedMerge, merge_dur);
        self.recorder.set_now(merge_start + merge_dur);
        if let Some(report) = &merge_report {
            // Synthesize the per-merge-thread view: in parallel splice
            // mode every splice point is one thread's work, and the
            // threads run concurrently across the step-④ window
            // (tracks 1..=N; track 0 is the resume pipeline itself).
            self.recorder
                .span_batch((0..report.splices).map(|thread| horse_telemetry::Event {
                    kind: EventKind::SpliceWork,
                    track: thread as u32 + 1,
                    start_ns: merge_start,
                    dur_ns: merge_dur,
                    arg: 1,
                    invocation: base_ctx.invocation,
                    parent: Some(EventKind::ResumeSortedMerge),
                }));
        }

        // --- step ⑤: load update ---
        self.recorder.set_parent(Some(EventKind::ResumeLoadUpdate));
        let load_ns = if mode.uses_coalescing() {
            let _alloc = AllocScope::enter(AllocPhase::Coalesce);
            let rq = paused.ull_rq.expect("coalescing pause assigned a queue");
            let coalesced = paused.coalesced.expect("coalescing pause precomputed");
            // Chaos: poisoned coalescing factors (corrupted between pause
            // and resume).
            let poison = self.injector.should_inject(FaultSite::CoalescePoisoned);
            let coalesced = match poison {
                Some(_) => {
                    self.note_fault(FaultSite::CoalescePoisoned);
                    coalesced.poisoned()
                }
                None => coalesced,
            };
            // Step-⑤ safety net: validate the precomputed factors before
            // the one-shot multiply-add; invalid factors degrade to the
            // vanilla per-vCPU updates (same final load, vanilla latency).
            if coalesced.is_valid_for(n) {
                self.sched.load_update_coalesced(rq, coalesced);
                self.cost.horse_load_ns()
            } else {
                self.sched.load_update_per_vcpu(rq, n);
                let vanilla_ns = self.cost.vanilla_load_ns(u64::from(n), u64::from(n));
                let penalty = (vanilla_ns - self.cost.horse_load_ns()).max(0.0).round() as u64;
                degradation.coalesce_bypassed = true;
                degradation.penalty_ns += penalty;
                self.recorder.count(Counter::HorseFallbacks, 1);
                self.recorder.instant(EventKind::HorseFallback, 0, penalty);
                if let Some(fault) = poison {
                    self.injector.resolve(
                        fault,
                        RecoveryOutcome::CoalesceBypassed {
                            vcpus: u64::from(n),
                        },
                    );
                }
                vanilla_ns
            }
        } else {
            // One lock-protected update per vCPU, on each vCPU's queue.
            // Persistent find-or-push scratch instead of a BTreeMap: a
            // sandbox lands on a handful of queues, and the map's node
            // allocations were the last heap traffic on the warm path.
            // Sorting by queue id preserves the map's update order.
            let mut per_rq = std::mem::take(&mut self.scratch.per_rq);
            if per_rq.capacity() > 0 {
                note_buffer_recycled();
            }
            for p in &placements {
                match per_rq.iter_mut().find(|(rq, _)| *rq == p.rq) {
                    Some((_, count)) => *count += 1,
                    None => per_rq.push((p.rq, 1)),
                }
            }
            per_rq.sort_unstable_by_key(|(rq, _)| rq.as_usize());
            for &(rq, count) in &per_rq {
                self.sched.load_update_per_vcpu(rq, count);
            }
            per_rq.clear();
            self.scratch.per_rq = per_rq;
            self.cost.vanilla_load_ns(u64::from(n), u64::from(n))
        };
        let load_dur = load_ns.round() as u64;
        breakdown.set(ResumeStep::LoadUpdate, load_dur);
        self.recorder.set_parent(base_ctx.parent);

        let finalize_dur = self.cost.finalize_ns.round() as u64;
        breakdown.set(ResumeStep::Finalize, finalize_dur);

        // Post-pipeline bookkeeping.
        if let Some(rq) = paused.ull_rq {
            self.sched.release_ull_queue(rq);
            let on_rq = &mut self.plans_on[rq.as_usize()];
            on_rq.paused.retain(|s| *s != id);
            // The queue changed, but only by this sandbox's vCPUs: the
            // other plans on it are rebuilt when something else needs
            // them (`settle`), or not at all if this sandbox re-pauses
            // first.
            on_rq.resident = Some(id);
        }
        // Recycle the save-buffer for the next pause.
        let mut saved = paused.saved_vcpus;
        saved.clear();
        self.scratch.saved.push(saved);
        let sb = self.sandboxes.get_mut(&id.as_u64()).expect("present");
        sb.placements = placements;
        sb.set_state(SandboxState::Running);

        let mode_idx = ResumeMode::ALL
            .iter()
            .position(|m| *m == mode)
            .expect("known mode");
        self.stats.resumes_by_mode[mode_idx] += 1;
        self.stats.resume_ns_by_mode[mode_idx] += breakdown.total_ns();

        if self.recorder.is_enabled() {
            // One batched claim for the six step spans plus the parent:
            // starts derive from the cursor laid down during execution.
            const STEPS: [(ResumeStep, EventKind); 6] = [
                (ResumeStep::ParseInput, EventKind::ResumeParse),
                (ResumeStep::AcquireLock, EventKind::ResumeLock),
                (ResumeStep::SanityChecks, EventKind::ResumeSanity),
                (ResumeStep::SortedMerge, EventKind::ResumeSortedMerge),
                (ResumeStep::LoadUpdate, EventKind::ResumeLoadUpdate),
                (ResumeStep::Finalize, EventKind::ResumeFinalize),
            ];
            let mut events = [horse_telemetry::Event {
                kind: EventKind::Resume,
                track: 0,
                start_ns: resume_start,
                dur_ns: breakdown.total_ns(),
                arg: id.as_u64(),
                invocation: base_ctx.invocation,
                parent: base_ctx.parent,
            }; 7];
            let mut cursor = resume_start;
            for (i, (step, kind)) in STEPS.iter().enumerate() {
                let dur = breakdown.get(*step);
                events[i] = horse_telemetry::Event {
                    kind: *kind,
                    track: 0,
                    start_ns: cursor,
                    dur_ns: dur,
                    arg: 0,
                    invocation: base_ctx.invocation,
                    parent: Some(EventKind::Resume),
                };
                cursor += dur;
            }
            self.recorder.set_now(cursor);
            self.recorder.span_batch(events);
            self.recorder.count(
                match mode {
                    ResumeMode::Vanilla => Counter::ResumesVanil,
                    ResumeMode::Ppsm => Counter::ResumesPpsm,
                    ResumeMode::Coal => Counter::ResumesCoal,
                    ResumeMode::Horse => Counter::ResumesHorse,
                },
                1,
            );
            self.recorder.gauge_add(Gauge::QueuedVcpus, i64::from(n));
        }

        Ok(ResumeOutcome {
            mode,
            breakdown,
            merge: merge_report,
            degradation,
        })
    }

    /// Destroys a sandbox from any non-destroyed state, releasing every
    /// queue node and pause-time structure.
    ///
    /// # Errors
    ///
    /// [`VmmError::NotFound`] if the id is unknown.
    pub fn destroy(&mut self, id: SandboxId) -> Result<(), VmmError> {
        let sb = self
            .sandboxes
            .get_mut(&id.as_u64())
            .ok_or(VmmError::NotFound(id))?;
        let placements = std::mem::take(&mut sb.placements);
        let paused = sb.paused.take();
        sb.set_state(SandboxState::Destroyed);
        self.recorder
            .gauge_add(Gauge::QueuedVcpus, -(placements.len() as i64));
        let mut touched: Vec<RqId> = Vec::new();
        for p in placements {
            self.sched.dequeue_vcpu(p.rq, p.node);
            if self.sched.queue(p.rq).kind() == RqKind::Ull {
                touched.push(p.rq);
            }
        }
        touched.sort_unstable_by_key(|rq| rq.as_usize());
        self.vacate(&mut touched, id);
        if let Some(paused) = paused {
            if let Some(plan) = paused.plan {
                let mut list = plan.into_list(self.sched.arena());
                list.drain_all(self.sched.arena_mut());
            }
            if let Some(rq) = paused.ull_rq {
                self.sched.release_ull_queue(rq);
                self.plans_on[rq.as_usize()].paused.retain(|s| *s != id);
            }
        }
        for rq in touched {
            self.rebuild_plans_on(rq, None);
        }
        self.sandboxes.remove(&id.as_u64());
        self.stats.destroyed += 1;
        self.recorder
            .gauge(Gauge::LiveSandboxes, self.sandboxes.len() as u64);
        Ok(())
    }

    /// Captures a snapshot of a **paused** sandbox: its configuration and
    /// per-vCPU scheduling keys (the FaaSnap-style artifact the *restore*
    /// start path rehydrates).
    ///
    /// # Errors
    ///
    /// [`VmmError::InvalidState`] unless the sandbox is `Paused`.
    pub fn snapshot(&self, id: SandboxId) -> Result<SandboxSnapshot, VmmError> {
        let sb = self
            .sandboxes
            .get(&id.as_u64())
            .ok_or(VmmError::NotFound(id))?;
        if sb.state() != SandboxState::Paused {
            return Err(VmmError::InvalidState {
                id,
                expected: SandboxState::Paused,
                actual: sb.state(),
            });
        }
        let paused = sb.paused.as_ref().expect("paused sandboxes carry state");
        let keys = paused.saved_vcpus.iter().map(|(k, _)| *k).collect();
        Ok(SandboxSnapshot::new(sb.config(), keys))
    }

    /// Restores a snapshot into a **new** paused sandbox (fresh identity,
    /// fresh vCPU ids, captured scheduling keys), returning the new
    /// sandbox id and the modeled restore duration.
    ///
    /// The restored sandbox is paused with a vanilla policy — a restore
    /// start then resumes it through the vanilla path, exactly like the
    /// paper's *restore* scenario; pausing it again with
    /// [`PausePolicy::horse`] upgrades it to the fast path.
    pub fn restore_snapshot(
        &mut self,
        snapshot: &SandboxSnapshot,
        model: &RestoreModel,
    ) -> (SandboxId, u64) {
        let cost_ns = model.restore_ns(snapshot.config());
        let id = self.create(snapshot.config());
        let saved: Vec<(i64, Vcpu)> = snapshot
            .vcpu_keys()
            .iter()
            .map(|&key| {
                let vcpu = Vcpu::new(VcpuId::new(self.next_vcpu), id);
                self.next_vcpu += 1;
                (key, vcpu)
            })
            .collect();
        let sb = self.sandboxes.get_mut(&id.as_u64()).expect("just created");
        sb.paused = Some(PausedState {
            policy: PausePolicy::vanilla(),
            saved_vcpus: saved,
            plan: None,
            coalesced: None,
            ull_rq: None,
        });
        sb.set_state(SandboxState::Paused);
        (id, cost_ns)
    }

    /// Dispatches the front vCPU of an ull_runqueue (the scheduler picking
    /// the next task), updating every paused plan incrementally —
    /// the paper's "updates are performed each time ull_runqueue is
    /// updated" (§4.1.3). Returns the dispatched vCPU.
    pub fn ull_dispatch(&mut self, rq: RqId) -> Option<(i64, Vcpu)> {
        self.settle(rq);
        let popped = self.sched.pick_next(rq)?;
        // Drop the placement from the owning (running) sandbox.
        if let Some(sb) = self.sandboxes.get_mut(&popped.1.sandbox.as_u64()) {
            sb.placements.retain(|p| p.vcpu.id != popped.1.id);
        }
        self.for_each_paused_on(rq, None, |vmm, sid| {
            let sb = vmm.sandboxes.get_mut(&sid.as_u64()).expect("registered");
            if let Some(state) = sb.paused.as_mut() {
                if let Some(plan) = state.plan.as_mut() {
                    plan.on_b_pop_front(vmm.sched.arena(), vmm.sched.queue_list(rq));
                    sb.maintenance_ns += vmm.cost.plan_update_pop_ns.round() as u64;
                }
            }
        });
        Some(popped)
    }

    /// Fails a uLL run queue (whole-host / per-CPU failure plane) and
    /// evacuates it: running vCPUs are drained and re-enqueued on healthy
    /// queues, and paused sandboxes assigned to it are re-planned against
    /// a healthy uLL queue — or, when none is left, downgraded to a
    /// vanilla pause so they stay resumable (through the slow path).
    ///
    /// The queue stays failed (skipped by every assignment) until
    /// [`HostScheduler::revive_queue`] is called through a future
    /// recovery plane.
    ///
    /// # Panics
    ///
    /// Panics if `rq` is not a reserved uLL queue.
    pub fn fail_ull_queue(&mut self, rq: RqId) -> QueueFailover {
        assert!(
            self.sched.ull_queues().contains(&rq),
            "fail_ull_queue targets reserved uLL queues"
        );
        self.settle(rq);
        self.sched.fail_queue(rq);
        let mut report = QueueFailover::default();

        // 1. Migrate the queue's running vCPUs to healthy queues,
        //    updating the owning sandboxes' placements.
        for (credit, vcpu) in self.sched.drain_queue(rq) {
            let (target, node) = match self.shortest_healthy_ull_queue() {
                Some(target) => (target, self.enqueue_on_ull(target, credit, vcpu, None)),
                None => {
                    let target = self.sched.least_loaded_general();
                    (target, self.sched.enqueue_vcpu(target, credit, vcpu))
                }
            };
            self.sched.load_update_per_vcpu(target, 1);
            if let Some(sb) = self.sandboxes.get_mut(&vcpu.sandbox.as_u64()) {
                if let Some(p) = sb.placements.iter_mut().find(|p| p.vcpu.id == vcpu.id) {
                    p.rq = target;
                    p.node = node;
                }
            }
            report.migrated_running += 1;
        }

        // 2. Re-home every paused sandbox assigned to the failed queue.
        let affected: Vec<SandboxId> = self
            .sandboxes
            .values()
            .filter(|s| s.paused.as_ref().is_some_and(|p| p.ull_rq == Some(rq)))
            .map(|s| s.id())
            .collect();
        for sid in affected {
            self.sched.release_ull_queue(rq);
            self.plans_on[rq.as_usize()].paused.retain(|s| *s != sid);
            match self.sched.try_assign_ull_queue() {
                Some(new_rq) => {
                    // Keep the fast path: rebuild the plan against the
                    // new queue (the coalesced factors only depend on the
                    // vCPU count and stay valid).
                    let sb = self.sandboxes.get_mut(&sid.as_u64()).expect("listed above");
                    let state = sb.paused.as_mut().expect("paused");
                    state.ull_rq = Some(new_rq);
                    if state.plan.is_some() {
                        self.settle(new_rq);
                        self.plans_on[new_rq.as_usize()].paused.push(sid);
                        self.rebuild_plan_for(sid, new_rq);
                    }
                    report.replanned += 1;
                }
                None => {
                    // No healthy uLL queue left: free the precomputed
                    // state and downgrade to a vanilla pause.
                    let sb = self.sandboxes.get_mut(&sid.as_u64()).expect("listed above");
                    let state = sb.paused.as_mut().expect("paused");
                    state.ull_rq = None;
                    state.coalesced = None;
                    state.policy = PausePolicy::vanilla();
                    let plan = state.plan.take();
                    if let Some(plan) = plan {
                        let mut list = plan.into_list(self.sched.arena());
                        list.drain_all(self.sched.arena_mut());
                    }
                    report.degraded += 1;
                }
            }
        }
        report
    }

    /// Multi-line operator summary: per-sandbox states plus the
    /// scheduler's own snapshot.
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = self.stats;
        let _ = writeln!(
            out,
            "vmm: {} sandboxes (created {}, destroyed {}), {} pauses, {} resumes",
            self.sandboxes.len(),
            s.created,
            s.destroyed,
            s.pauses,
            s.total_resumes()
        );
        for sb in self.sandboxes.values() {
            let _ = writeln!(
                out,
                "  {} [{}] {}vcpu {}MB{}{}",
                sb.id(),
                sb.state(),
                sb.config().vcpus(),
                sb.config().memory_mb(),
                if sb.config().is_ull() { " uLL" } else { "" },
                if sb.plan_memory_bytes() > 0 {
                    format!(" plan={}B", sb.plan_memory_bytes())
                } else {
                    String::new()
                }
            );
        }
        out.push_str(&self.sched.debug_snapshot());
        out
    }

    /// Total 𝒫²𝒮ℳ memory across all paused sandboxes (the §5.2 metric).
    pub fn total_plan_memory_bytes(&self) -> usize {
        self.sandboxes.values().map(|s| s.plan_memory_bytes()).sum()
    }

    /// Total pause-time maintenance cost across all sandboxes.
    pub fn total_maintenance_ns(&self) -> u64 {
        self.sandboxes.values().map(|s| s.maintenance_ns()).sum()
    }

    /// Verifies the plan-maintenance invariant on every uLL queue: each
    /// plan registered on it is consistent with the queue — minus the
    /// resident's vCPUs where a resident is marked. A failure here is a
    /// resume that would fall back to the vanilla merge (or a missed
    /// `settle`); the oracle of the `plan_freshness` suite.
    pub fn check_plans(&self) -> Result<(), String> {
        let arena = self.sched.arena();
        for &rq in self.sched.ull_queues() {
            let QueuePlans { paused, resident } = &self.plans_on[rq.as_usize()];
            let queue = self.sched.queue_list(rq);
            for sid in paused {
                let state = self.sandbox(*sid).and_then(|sb| sb.paused.as_ref());
                let Some(plan) = state
                    .filter(|s| s.ull_rq == Some(rq))
                    .and_then(|s| s.plan.as_ref())
                else {
                    return Err(format!("{sid} is registered on {rq} without a plan"));
                };
                match resident {
                    Some(x) => plan.check_consistent_without(arena, queue, |v| v.sandbox == *x),
                    None => plan.check_consistent(arena, queue),
                }
                .map_err(|e| format!("plan of {sid} on {rq}, resident {resident:?}: {e}"))?;
            }
        }
        Ok(())
    }

    // --- internals ---

    fn expect_state(&self, id: SandboxId, expected: SandboxState) -> Result<(), VmmError> {
        let sb = self
            .sandboxes
            .get(&id.as_u64())
            .ok_or(VmmError::NotFound(id))?;
        if sb.state() != expected {
            return Err(VmmError::InvalidState {
                id,
                expected,
                actual: sb.state(),
            });
        }
        Ok(())
    }

    fn initial_credit(&self) -> i64 {
        // credit2 refills to a fixed budget; entities then burn credit as
        // they run. A constant here keeps placement deterministic.
        10_000
    }

    /// Emits the fault-injection telemetry pair (counter + instant with
    /// the site index as arg) for a fault that just fired.
    fn note_fault(&self, site: FaultSite) {
        self.recorder.count(Counter::FaultsInjected, 1);
        self.recorder
            .instant(EventKind::FaultInjected, 0, site.index() as u64);
    }

    fn shortest_healthy_ull_queue(&self) -> Option<RqId> {
        self.sched
            .healthy_ull_queues()
            .min_by_key(|id| self.sched.queue(*id).len())
    }

    /// Enqueues on an ull_runqueue and keeps other paused plans fresh.
    fn enqueue_on_ull(
        &mut self,
        rq: RqId,
        credit: i64,
        vcpu: Vcpu,
        exclude: Option<SandboxId>,
    ) -> horse_core::NodeRef {
        self.settle(rq);
        let node = self.sched.enqueue_vcpu(rq, credit, vcpu);
        let at_tail = self.sched.queue_list(rq).tail() == Some(node);
        self.for_each_paused_on(rq, exclude, |vmm, sid| {
            if at_tail {
                let sb = vmm.sandboxes.get_mut(&sid.as_u64()).expect("registered");
                if let Some(state) = sb.paused.as_mut() {
                    if let Some(plan) = state.plan.as_mut() {
                        plan.on_b_push_back(vmm.sched.arena(), vmm.sched.queue_list(rq), node);
                        sb.maintenance_ns += vmm.cost.plan_update_pop_ns.round() as u64;
                    }
                }
            } else {
                vmm.rebuild_plan_for(sid, rq);
            }
        });
        node
    }

    /// Calls `f` for every paused sandbox holding a plan against `rq`,
    /// except `exclude`. The id list is lent out for the walk rather than
    /// cloned — this runs on uLL pauses, which must not allocate — so `f`
    /// must not register sandboxes on `rq`.
    fn for_each_paused_on(
        &mut self,
        rq: RqId,
        exclude: Option<SandboxId>,
        mut f: impl FnMut(&mut Self, SandboxId),
    ) {
        let ids = std::mem::take(&mut self.plans_on[rq.as_usize()].paused);
        for &sid in ids.iter().filter(|sid| Some(**sid) != exclude) {
            f(self, sid);
        }
        self.plans_on[rq.as_usize()].paused = ids;
    }

    /// The choke point of plan maintenance: brings every plan on `rq` up
    /// to the queue as it is now, if a resident's transit left them
    /// behind. Everything that reads or mutates a uLL queue or a plan on
    /// it calls this first — except the resident's own re-pause, which
    /// restores the queue instead (`vacate`).
    fn settle(&mut self, rq: RqId) {
        if self.plans_on[rq.as_usize()].resident.take().is_some() {
            self.rebuild_plans_on(rq, None);
        }
    }

    /// Sandbox `id` just dequeued its vCPUs from the uLL queues in
    /// `touched` (one entry per vCPU, sorted by queue). Leaves in
    /// `touched` each queue once whose plans now need rebuilding: not the
    /// queue `id` was the resident of, which is back to what its plans
    /// describe. Clears the mark either way — the rebuild the caller owes
    /// covers any other resident's transit too.
    fn vacate(&mut self, touched: &mut Vec<RqId>, id: SandboxId) {
        touched.dedup();
        touched.retain(|rq| self.plans_on[rq.as_usize()].resident.take() != Some(id));
    }

    /// Rebuilds the plans of every paused sandbox assigned to `rq`
    /// (except `exclude`), charging the cost as maintenance.
    fn rebuild_plans_on(&mut self, rq: RqId, exclude: Option<SandboxId>) {
        self.for_each_paused_on(rq, exclude, |vmm, sid| vmm.rebuild_plan_for(sid, rq));
    }

    fn rebuild_plan_for(&mut self, sid: SandboxId, rq: RqId) {
        let sb = self.sandboxes.get_mut(&sid.as_u64()).expect("registered");
        let Some(state) = sb.paused.as_mut() else {
            return;
        };
        let Some(plan) = state.plan.take() else {
            return;
        };
        // Tear down and rebuild into the same buffers — maintenance on a
        // busy queue stays allocation-free too.
        let (list, bufs) = plan.into_list_recycling(self.sched.arena());
        let rebuilt = self.sched.ull_precompute_in(rq, list, bufs);
        let cost =
            (rebuilt.a_len() + rebuilt.b_len()) as f64 * self.cost.plan_precompute_per_elem_ns;
        state.plan = Some(rebuilt);
        sb.maintenance_ns += cost.round() as u64;
    }
}
