//! # horse-vmm — sandbox lifecycle substrate
//!
//! The virtualization-system layer of the HORSE reproduction: a
//! Firecracker-shaped [`Vmm`] managing sandbox (microVM) lifecycles on top
//! of the `horse-sched` scheduler substrate.
//!
//! * [`Vmm::pause`] implements the keep-alive pause, optionally with
//!   HORSE's pause-time precomputation ([`PausePolicy::horse`]):
//!   `merge_vcpus` construction, ull_runqueue assignment, 𝒫²𝒮ℳ plan and
//!   coalesced load update.
//! * [`Vmm::resume`] implements the six-step resume pipeline (paper §3.1)
//!   in the four evaluation setups ([`ResumeMode`]), returning a per-step
//!   [`ResumeBreakdown`] — the raw material of the paper's Figures 2–3.
//! * [`BootModel`] / [`RestoreModel`] provide the calibrated macro cost
//!   models for cold boots and FaaSnap-style snapshot restores (Table 1).
//!
//! Steps ④ (sorted merge) and ⑤ (load update) are executed for real on
//! the scheduler's data structures; their durations come from the
//! deterministic [`CostModel`] applied to each step's inputs (see its
//! module docs).

#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]
#![forbid(unsafe_code)]

mod config;
mod cost;
mod pause;
mod resume;
mod sandbox;
mod snapshot;
mod splice_pool;
mod vmm;

pub use config::{InvalidConfigError, SandboxConfig, SandboxConfigBuilder, SandboxKind};
pub use cost::CostModel;
pub use pause::{PauseBreakdown, PauseStep};
pub use resume::{ResumeBreakdown, ResumeMode, ResumeStep};
pub use sandbox::{PausePolicy, Sandbox, SandboxState};
pub use snapshot::{BootBreakdown, BootModel, BootStage, RestoreModel, SandboxSnapshot};
pub use splice_pool::{SplicePool, SplicePoolStats, SpliceRun, DEFAULT_WALL_BUDGET_NANOS};
pub use vmm::{
    PauseReport, QueueFailover, ResumeDegradation, ResumeOutcome, Vmm, VmmError, VmmStats,
};
