//! The five workloads. Each one is a type implementing [`Workload`]:
//! `setup` builds the fleet, provisions it and runs a fixed-count
//! warm-up; `run` drives the measured window and verifies the outputs.
//!
//! Load is sized for a 2-core shared box: one process, ≤ 2 driver
//! threads, no sockets.

use horse_faas::{Cluster, DispatchPolicy, FunctionId, HostId, PlatformConfig, StartStrategy};
use horse_metrics::Histogram;
use horse_vmm::SandboxConfig;
use horse_workloads::Category;

use crate::report::Metric;
use crate::trace::Tracer;
use crate::window::Window;

pub mod reliab_open;
pub mod traced_mix;
pub mod ull_batch_2t;
pub mod ull_seq;
pub mod wide_resume;

/// Name of the root span every per-op span of a traced workload pass
/// hangs under.
pub const ROOT_SPAN: &str = "driver.workload";

/// One correctness check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared, for the report.
    pub detail: String,
}

impl Check {
    /// A check that `left == right`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: &'static str, left: T, right: T) -> Self {
        Self {
            name,
            ok: left == right,
            detail: format!("{left:?} vs {right:?}"),
        }
    }
}

/// What one measured window produced.
#[derive(Debug)]
pub struct Measured {
    /// Per-slice wall latencies and op counts (drivers merged).
    pub window: Window,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Simulated initialization latency per successful op, ns.
    pub virt_init: Histogram,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Workload-specific numbers, printed beside the end-to-end metrics
    /// (a `per_layer` name where one exists).
    pub extras: Vec<Metric>,
}

/// A benchmark workload.
pub trait Workload {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Driver threads the measured window uses.
    const THREADS: usize;
    /// The inputs generated from the seed before anything is timed
    /// (`()` for the closed loops, whose only input is the seed).
    type Input;
    /// Whatever `setup` builds and `run` drives.
    type State;

    /// Generates the inputs of a `seconds`-long window: a pure function
    /// of its arguments. The program under test sees only what `run`
    /// feeds it from here.
    fn input(seed: u64, seconds: f64) -> Self::Input;

    /// Fleet construction + provisioning + fixed-count warm-up — the
    /// interval `setup_s` times. Returns the state and a fingerprint of
    /// the warm-up's *virtual* results: set-up runs several times per
    /// process and the fingerprints must agree bit for bit.
    fn setup(seed: u64, input: &Self::Input) -> (Self::State, u64);

    /// Drives a `seconds`-long measured window, then verifies outputs.
    /// With a tracer, every call into the program is also a span.
    fn run(
        state: &mut Self::State,
        input: &Self::Input,
        seconds: f64,
        tracer: Option<&mut Tracer>,
    ) -> Measured;
}

/// Folds one value into an FNV-1a style fingerprint.
#[inline]
pub fn fold(fingerprint: &mut u64, value: u64) {
    *fingerprint = (*fingerprint ^ value).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Seed of [`fold`].
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The paper's headline sandbox: 2-vCPU uLL.
pub fn ull_config(vcpus: u32) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .ull(true)
        .build()
        .expect("static config is valid")
}

/// A non-uLL sandbox for the `Warm` (vanilla-resume) path.
pub fn vanilla_config(vcpus: u32) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .build()
        .expect("static config is valid")
}

/// A round-robin cluster of `hosts` hosts with one `Cat3` 2-vCPU uLL
/// function provisioned `per_host` deep for `Horse` starts — the fleet
/// of `ull_seq` and `ull_batch_2t`, and the state the layer probes call
/// `Cluster::invoke` on.
pub fn ull_cluster(seed: u64, hosts: usize, per_host: usize) -> (Cluster, FunctionId) {
    let mut cluster = Cluster::with_config(
        hosts,
        DispatchPolicy::RoundRobin,
        seed,
        PlatformConfig::default(),
    );
    let f = cluster.register("filter", Category::Cat3, ull_config(2));
    cluster
        .provision_all(f, per_host, StartStrategy::Horse)
        .expect("provisioning a fresh fleet succeeds");
    (cluster, f)
}

/// Warm inventory of `function` across the fleet.
pub fn inventory(cluster: &Cluster, function: FunctionId, strategy: StartStrategy) -> usize {
    (0..cluster.len())
        .map(|i| cluster.host(HostId(i)).pool_size(function, strategy))
        .sum()
}

/// The pool-conservation checks shared by the cluster workloads: every
/// sandbox re-paused into its pool, one pool hit per served attempt, no
/// evictions on an idle keep-alive clock.
pub fn pool_checks(
    cluster: &Cluster,
    pools: &[(FunctionId, StartStrategy, usize)],
    hits_before: u64,
    served: u64,
    checks: &mut Vec<Check>,
) {
    let mut hits = 0;
    let mut evictions = 0;
    for &(f, strategy, provisioned) in pools {
        checks.push(Check::eq(
            "warm inventory == provisioned",
            inventory(cluster, f, strategy),
            provisioned,
        ));
        let stats = cluster.aggregate_pool_stats(f, strategy);
        hits += stats.hits;
        evictions += stats.evictions;
    }
    checks.push(Check::eq(
        "pool hits == served attempts",
        hits - hits_before,
        served,
    ));
    checks.push(Check::eq("pool evictions == 0", evictions, 0));
}

/// Sum of pool hits over `pools`.
pub fn pool_hits(cluster: &Cluster, pools: &[(FunctionId, StartStrategy, usize)]) -> u64 {
    pools
        .iter()
        .map(|&(f, s, _)| cluster.aggregate_pool_stats(f, s).hits)
        .sum()
}
