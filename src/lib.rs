//! # HORSE — ultra-low latency workloads on FaaS platforms
//!
//! A full Rust reproduction of **"HORSE: Ultra-low latency workloads on
//! FaaS platforms"** (Mvondo, Taïani & Bromberg, *Middleware '24*,
//! DOI 10.1145/3652892.3700784).
//!
//! HORSE ("hot resume") makes resuming a paused warm sandbox fast enough
//! for workloads that finish in nanoseconds-to-microseconds, by attacking
//! the two dominant resume costs:
//!
//! 1. **𝒫²𝒮ℳ** ([`core::MergePlan`]) — an O(1) parallel precomputed
//!    sorted merge of the sandbox's vCPUs into a reserved run queue;
//! 2. **load-update coalescing** ([`core::LoadUpdate::coalesce`]) —
//!    replacing *n* lock-protected affine load updates with one
//!    precomputed multiply-add.
//!
//! This facade crate re-exports the whole stack:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`core`] | `horse-core` | 𝒫²𝒮ℳ + coalescing (the paper's §4) |
//! | [`sched`] | `horse-sched` | run queues, PELT load, DVFS, uLL reservation |
//! | [`vmm`] | `horse-vmm` | sandbox lifecycle, instrumented resume pipeline |
//! | [`faas`] | `horse-faas` | platform, start strategies, experiments |
//! | [`workloads`] | `horse-workloads` | firewall / NAT / filter / thumbnail |
//! | [`traces`] | `horse-traces` | Azure-style trace model |
//! | [`sim`] | `horse-sim` | virtual clock, event engine, seeded RNG |
//! | [`metrics`] | `horse-metrics` | histograms, CIs, reporting |
//!
//! # Quick start
//!
//! ```
//! use horse::prelude::*;
//!
//! // A FaaS platform with provisioned concurrency for a NAT function.
//! let mut platform = FaasPlatform::new(PlatformConfig::default());
//! let cfg = SandboxConfig::builder().vcpus(2).ull(true).build()?;
//! let nat = platform.register("nat", Category::Cat2, cfg);
//! platform.provision(nat, 1, StartStrategy::Horse)?;
//!
//! // Trigger it through HORSE's fast path.
//! let record = platform.invoke(nat, StartStrategy::Horse)?;
//! assert!(record.init_ns < 1_000);
//! println!(
//!     "init {} ns, exec {} ns, init share {:.2}%",
//!     record.init_ns,
//!     record.exec_ns,
//!     100.0 * record.init_share()
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use horse_core as core;
pub use horse_faas as faas;
pub use horse_faults as faults;
pub use horse_metrics as metrics;
pub use horse_sched as sched;
pub use horse_sim as sim;
pub use horse_telemetry as telemetry;
pub use horse_traces as traces;
pub use horse_vmm as vmm;
pub use horse_workloads as workloads;

/// The most common types, importable with `use horse::prelude::*`.
pub mod prelude {
    pub use horse_core::{Arena, LoadUpdate, MergePlan, SortedList, SpliceMode};
    pub use horse_faas::{
        Cluster, DispatchPolicy, FaasError, FaasPlatform, FunctionId, HostId, InvocationRecord,
        KeepAlive, PlatformConfig, StartStrategy, UllScaler,
    };
    pub use horse_faults::{
        FaultInjector, FaultPlan, FaultSite, FaultTrigger, RecoveryOutcome, RetryPolicy,
    };
    pub use horse_metrics::{Histogram, RunningStats};
    pub use horse_sched::{CpuTopology, GovernorPolicy, HostScheduler, SchedConfig, SchedFlavor};
    pub use horse_sim::rng::SeedFactory;
    pub use horse_sim::{SimDuration, SimTime};
    pub use horse_telemetry::{Recorder, TelemetryConfig, TraceSnapshot};
    pub use horse_traces::{ArrivalSampler, SynthConfig, Trace};
    pub use horse_vmm::{
        BootModel, CostModel, PausePolicy, RestoreModel, ResumeBreakdown, ResumeMode, ResumeStep,
        SandboxConfig, SandboxSnapshot, Vmm,
    };
    pub use horse_workloads::{
        Category, Firewall, IndexFilter, MicroKv, MlInference, NatTable, OrderBook, Thumbnail,
    };
}
