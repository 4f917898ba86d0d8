//! # horse-faas — the FaaS platform layer
//!
//! The serverless platform of the HORSE reproduction, tying the VMM and
//! scheduler substrates to the paper's end-to-end experiments:
//!
//! * [`FaasPlatform`] — function registry, provisioned-concurrency warm
//!   pools with keep-alive, and the four start strategies
//!   ([`StartStrategy`]: cold / restore / warm / horse) whose
//!   initialization-vs-execution split is Table 1 and Figures 1 & 4;
//! * [`overhead`] — the §5.2 CPU/memory overhead experiment;
//! * [`colocation`] — the §5.4 uLL-with-long-running colocation
//!   experiment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
pub mod colocation;
mod invocation;
pub mod overhead;
mod platform;
mod pool;
mod registry;
pub mod replay;
mod ring;
mod sharded_pool;

pub use cluster::{Cluster, DispatchPolicy, Disposition, HostId, Request};
pub use invocation::{InvocationRecord, StartStrategy};
pub use platform::{FaasError, FaasPlatform, PlatformConfig, WARM_TRIGGER_NS};
pub use pool::{KeepAlive, PoolStats};
pub use registry::{FunctionId, FunctionMeta, FunctionRegistry};
pub use ring::{RingFull, SubmissionRing};
pub use sharded_pool::{ShardedWarmPool, SHARD_COUNT, SLOTS_PER_SHARD};
