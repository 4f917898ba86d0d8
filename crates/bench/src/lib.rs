//! # horse-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index); per-layer wall-clock costs live in the separate `benchmark/`
//! package. This library holds the shared measurement helpers so every
//! binary reports with the paper's methodology: 10 repetitions, 95 %
//! confidence intervals, and paper-vs-measured columns.
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Table 1  | `cargo run -p horse-bench --bin table1` |
//! | Figure 1 | `cargo run -p horse-bench --bin fig1` |
//! | Figure 2 | `cargo run -p horse-bench --bin fig2` |
//! | Figure 3 | `cargo run -p horse-bench --bin fig3` |
//! | §5.2     | `cargo run -p horse-bench --bin overhead` |
//! | Figure 4 | `cargo run -p horse-bench --bin fig4` |
//! | §5.4     | `cargo run -p horse-bench --bin colocation` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;

use horse_metrics::RunningStats;
use horse_sched::{CpuTopology, GovernorPolicy, SchedConfig, SchedFlavor};
use horse_vmm::{CostModel, PausePolicy, ResumeBreakdown, ResumeMode, SandboxConfig, Vmm};

/// Repetitions per experiment point — the paper runs each experiment 10×.
pub const REPETITIONS: u32 = 10;

/// The vCPU sweep used throughout the paper's Figures 2–3 (1 to 36).
pub const VCPU_SWEEP: [u32; 9] = [1, 2, 4, 8, 12, 16, 24, 30, 36];

/// The r650-like scheduler configuration used by all resume experiments.
pub fn paper_sched_config() -> SchedConfig {
    SchedConfig {
        topology: CpuTopology::r650(false),
        ull_queues: 1,
        governor_policy: GovernorPolicy::Performance,
        flavor: horse_sched::SchedFlavor::default(),
    }
}

/// The pause policy matching a resume mode (what HORSE precomputes at
/// pause time is exactly what the mode consumes).
pub fn policy_for(mode: ResumeMode) -> PausePolicy {
    PausePolicy {
        precompute_merge: mode.uses_ppsm(),
        precompute_coalesce: mode.uses_coalescing(),
    }
}

/// The hypervisor whose calibration and scheduler flavor an experiment
/// runs under (the paper implements HORSE in both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Hypervisor {
    /// Firecracker / Linux-KVM: CFS flavor, Firecracker calibration.
    #[default]
    Firecracker,
    /// Xen 4.17: credit2 flavor, Xen calibration.
    Xen,
}

impl Hypervisor {
    /// Cost calibration for this hypervisor.
    pub fn cost_model(self) -> CostModel {
        match self {
            Hypervisor::Firecracker => CostModel::calibrated(),
            Hypervisor::Xen => CostModel::xen_calibrated(),
        }
    }

    /// Scheduler flavor for this hypervisor.
    pub fn flavor(self) -> SchedFlavor {
        match self {
            Hypervisor::Firecracker => SchedFlavor::Cfs,
            Hypervisor::Xen => SchedFlavor::Credit2,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Hypervisor::Firecracker => "Firecracker/KVM",
            Hypervisor::Xen => "Xen 4.17",
        }
    }
}

/// Runs one pause/resume cycle on a given hypervisor's substrate.
pub fn one_resume_on(hv: Hypervisor, vcpus: u32, mode: ResumeMode) -> ResumeBreakdown {
    let mut config = paper_sched_config();
    config.flavor = hv.flavor();
    let mut vmm = Vmm::new(config, hv.cost_model());
    let cfg = SandboxConfig::builder()
        .vcpus(vcpus)
        .memory_mb(512)
        .ull(true)
        .build()
        .expect("static config is valid");
    let id = vmm.create(cfg);
    vmm.start(id).expect("fresh sandbox starts");
    vmm.pause(id, policy_for(mode))
        .expect("running sandbox pauses");
    vmm.resume(id, mode)
        .expect("paused sandbox resumes")
        .breakdown
}

/// Runs one pause/resume cycle of a fresh sandbox and returns the
/// instrumented breakdown.
pub fn one_resume(vcpus: u32, mode: ResumeMode) -> ResumeBreakdown {
    let mut vmm = Vmm::new(paper_sched_config(), CostModel::calibrated());
    let cfg = SandboxConfig::builder()
        .vcpus(vcpus)
        .memory_mb(512)
        .ull(true)
        .build()
        .expect("static config is valid");
    let id = vmm.create(cfg);
    vmm.start(id).expect("fresh sandbox starts");
    vmm.pause(id, policy_for(mode))
        .expect("running sandbox pauses");
    vmm.resume(id, mode)
        .expect("paused sandbox resumes")
        .breakdown
}

/// Measured resume statistics at one sweep point: per-step means over
/// [`REPETITIONS`] runs plus the total's confidence interval.
#[derive(Debug, Clone)]
pub struct ResumePoint {
    /// vCPU count of the sweep point.
    pub vcpus: u32,
    /// Resume mode measured.
    pub mode: ResumeMode,
    /// Mean duration of each pipeline step (ns), pipeline order.
    pub step_means: [f64; 6],
    /// Statistics of the total resume duration.
    pub total: RunningStats,
}

impl ResumePoint {
    /// Mean total resume duration (ns).
    pub fn mean_total_ns(&self) -> f64 {
        self.total.mean()
    }

    /// Mean share of steps ④+⑤ (the paper's dominant-cost metric).
    pub fn dominant_share(&self) -> f64 {
        let total: f64 = self.step_means.iter().sum();
        if total == 0.0 {
            0.0
        } else {
            (self.step_means[3] + self.step_means[4]) / total
        }
    }
}

/// Measures one `(vcpus, mode)` point with the paper's repetition count.
pub fn measure_resume(vcpus: u32, mode: ResumeMode) -> ResumePoint {
    measure_resume_on(Hypervisor::Firecracker, vcpus, mode)
}

/// Measures one `(hypervisor, vcpus, mode)` point.
pub fn measure_resume_on(hv: Hypervisor, vcpus: u32, mode: ResumeMode) -> ResumePoint {
    let mut step_sums = [0f64; 6];
    let mut total = RunningStats::new();
    for _ in 0..REPETITIONS {
        let b = one_resume_on(hv, vcpus, mode);
        for (i, step) in horse_vmm::ResumeStep::ALL.iter().enumerate() {
            step_sums[i] += b.get(*step) as f64;
        }
        total.push(b.total_ns() as f64);
    }
    let step_means = step_sums.map(|s| s / f64::from(REPETITIONS));
    ResumePoint {
        vcpus,
        mode,
        step_means,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_reproducible_and_tight() {
        let p = measure_resume(8, ResumeMode::Vanilla);
        assert_eq!(p.total.len(), u64::from(REPETITIONS));
        // The model is deterministic: CI collapses to ~0, far below the
        // paper's 3% budget.
        assert!(p.total.ci95().relative() <= 0.03);
        assert!(p.mean_total_ns() > 0.0);
        assert!((0.8..1.0).contains(&p.dominant_share()));
    }

    #[test]
    fn sweep_covers_paper_range() {
        assert_eq!(*VCPU_SWEEP.first().unwrap(), 1);
        assert_eq!(*VCPU_SWEEP.last().unwrap(), 36);
    }

    #[test]
    fn one_resume_mode_variants() {
        for mode in ResumeMode::ALL {
            let b = one_resume(4, mode);
            assert!(b.total_ns() > 0, "{mode}");
        }
    }
}

/// Minimal command-line options shared by the experiment binaries
/// (hand-rolled to stay inside the allowed dependency set).
///
/// Supported flags: `--seed <u64>`, `--vcpus <a,b,c>`, `--out <dir>`.
/// Unknown flags abort with a usage message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOptions {
    /// Master seed (default 42).
    pub seed: u64,
    /// vCPU sweep override (default: the binary's own sweep).
    pub vcpus: Option<Vec<u32>>,
    /// Output directory for CSV artifacts (default: none).
    pub out: Option<String>,
    /// Run on the Xen calibration/flavor instead of Firecracker/KVM.
    pub xen: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            vcpus: None,
            out: None,
            xen: false,
        }
    }
}

impl CliOptions {
    /// Parses options from an argument iterator (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns a usage string on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        const USAGE: &str = "usage: [--seed <u64>] [--vcpus <a,b,c>] [--out <dir>] [--xen]";
        let mut opts = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))
            };
            match flag.as_str() {
                "--seed" => {
                    opts.seed = value()?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}; {USAGE}"))?;
                }
                "--vcpus" => {
                    let list = value()?
                        .split(',')
                        .map(|s| s.trim().parse::<u32>())
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("bad --vcpus: {e}; {USAGE}"))?;
                    if list.is_empty() || list.contains(&0) {
                        return Err(format!("--vcpus needs positive values; {USAGE}"));
                    }
                    opts.vcpus = Some(list);
                }
                "--out" => opts.out = Some(value()?),
                "--xen" => opts.xen = true,
                other => return Err(format!("unknown flag {other}; {USAGE}")),
            }
        }
        Ok(opts)
    }

    /// Parses from the process arguments, exiting with the usage message
    /// on error (binary entry-point convenience).
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The sweep to use: the override or the given default.
    pub fn sweep_or(&self, default: &[u32]) -> Vec<u32> {
        self.vcpus.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The hypervisor selected by `--xen`.
    pub fn hypervisor(&self) -> Hypervisor {
        if self.xen {
            Hypervisor::Xen
        } else {
            Hypervisor::Firecracker
        }
    }
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        CliOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_empty() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, CliOptions::default());
        assert_eq!(o.sweep_or(&[1, 2]), vec![1, 2]);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&["--seed", "7", "--vcpus", "1,8,36", "--out", "results"]).unwrap();
        assert_eq!(o.seed, 7);
        assert_eq!(o.vcpus.as_deref(), Some(&[1, 8, 36][..]));
        assert_eq!(o.out.as_deref(), Some("results"));
        assert_eq!(o.sweep_or(&[99]), vec![1, 8, 36]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--vcpus", "1,0"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }
}
