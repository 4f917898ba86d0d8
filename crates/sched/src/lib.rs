//! # horse-sched — hypervisor scheduler substrate
//!
//! The HORSE paper modifies the host scheduler of Linux-KVM (under
//! Firecracker) and Xen. This crate is that substrate, rebuilt in Rust:
//!
//! * per-CPU **run queues** sorted by credit ([`RunQueue`], credit2
//!   semantics: least remaining credit first — paper §3.1 step ④);
//! * a **lock-protected load variable** per queue with PELT-style affine
//!   updates ([`RqLoad`], paper step ⑤) feeding a DVFS [`Governor`];
//! * **reserved uLL run queues** with a 1 µs time slice, pause-time
//!   assignment balancing, and 𝒫²𝒮ℳ merge entry points
//!   ([`HostScheduler::ull_precompute`] /
//!   [`HostScheduler::ull_finish_staged`] — paper §4.1.3).
//!
//! The resume pipelines themselves (vanilla and HORSE) live one layer up
//! in `horse-vmm`; this crate provides the mechanisms they are built from.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dispatch;
mod flavor;
mod governor;
mod load;
mod runqueue;
mod scheduler;
mod topology;
mod vcpu;
mod watchdog;

pub use flavor::{SchedFlavor, CFS_WEIGHT_BASELINE, CREDIT2_INIT};
pub use governor::{Governor, GovernorPolicy, PState};
pub use load::{LoadTracker, RqLoad, PELT_DECAY, VCPU_LOAD_CONTRIB};
pub use runqueue::{RqId, RqKind, RunQueue, GENERAL_TIMESLICE_NS, ULL_TIMESLICE_NS};
pub use scheduler::{HostScheduler, SchedConfig};
pub use topology::{CpuId, CpuTopology};
pub use vcpu::{SandboxId, Vcpu, VcpuId};
pub use watchdog::{RescuePlan, SpliceWatchdog, DEFAULT_SPLICE_BUDGET_NS};
