//! Ablation: number of reserved uLL run queues (DESIGN.md §5.3).
//!
//! Paper §4.1.3 supports multiple `ull_runqueue`s under high trigger
//! frequency. This ablation quantifies the trade-off: with more queues,
//! paused sandboxes spread out, so each queue mutation invalidates fewer
//! plans — pause-time maintenance drops — while the resume itself stays
//! O(1) regardless.
//!
//! Run: `cargo run -p horse-bench --bin ablation_queues`

use horse_metrics::report::Table;
use horse_sched::{CpuTopology, GovernorPolicy, SchedConfig, SchedFlavor};
use horse_vmm::{CostModel, PausePolicy, ResumeMode, SandboxConfig, Vmm};

fn main() {
    let mut table = Table::new(
        "Ablation — reserved uLL queue count (16 paused uLL sandboxes, 8 vCPUs each)",
        &[
            "ull queues",
            "mean resume (ns)",
            "total maintenance (ns)",
            "of which warm invokes (ns)",
            "max paused/queue",
        ],
    );

    for queues in [1usize, 2, 4, 8] {
        let mut vmm = Vmm::new(
            SchedConfig {
                topology: CpuTopology::r650(false),
                ull_queues: queues,
                governor_policy: GovernorPolicy::Performance,
                flavor: SchedFlavor::default(),
            },
            CostModel::calibrated(),
        );
        let cfg = SandboxConfig::builder()
            .vcpus(8)
            .ull(true)
            .build()
            .expect("valid");

        // 16 sandboxes, all paused with plans.
        let ids: Vec<_> = (0..16)
            .map(|_| {
                let id = vmm.create(cfg);
                vmm.start(id).expect("starts");
                id
            })
            .collect();
        for &id in &ids {
            vmm.pause(id, PausePolicy::horse()).expect("pauses");
        }
        let max_paused = vmm
            .sched()
            .ull_queues()
            .iter()
            .map(|q| vmm.sched().queue(*q).paused_assigned())
            .max()
            .unwrap_or(0);

        // Churn: resume and re-pause everything twice; every resume
        // beside another running sandbox mutates its queue for good and
        // forces the *other* paused plans on that queue to rebuild — the
        // maintenance cost under ablation.
        for _ in 0..2 {
            for &id in &ids {
                vmm.resume(id, ResumeMode::Horse).expect("resumes");
            }
            for &id in &ids {
                vmm.pause(id, PausePolicy::horse()).expect("pauses");
            }
        }
        // Warm invokes: each sandbox resumed and re-paused with nothing in
        // between, twice. The queue comes back as the other plans
        // describe it, so only the invoked sandbox's own pause is charged.
        let before_invokes = vmm.total_maintenance_ns();
        for _ in 0..2 {
            for &id in &ids {
                vmm.resume(id, ResumeMode::Horse).expect("resumes");
                vmm.pause(id, PausePolicy::horse()).expect("pauses");
            }
        }
        let invokes_ns = vmm.total_maintenance_ns() - before_invokes;

        let stats = vmm.stats();
        let mean_resume = stats.mean_resume_ns(ResumeMode::Horse);
        table.row_owned(vec![
            queues.to_string(),
            mean_resume.to_string(),
            vmm.total_maintenance_ns().to_string(),
            invokes_ns.to_string(),
            max_paused.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "more reserved queues -> fewer co-paused sandboxes per queue -> less plan\n\
         maintenance under churn, at the cost of cores removed from general use;\n\
         the resume itself is O(1) at every setting, and a warm invoke (resume,\n\
         then pause, nothing between) charges no other sandbox at any setting."
    );
}
