//! Workload-level integration: the paper's actual functions running
//! behind HORSE-managed sandboxes, plus trace-driven platform smoke.

use horse::prelude::*;
use horse_sim::rng::SeedFactory;
use horse_workloads::{
    index_filter, Category, FirewallRule, Image, NatRule, Protocol, RequestHeader, Verdict,
};

#[test]
fn firewall_then_nat_chain_processes_packets() {
    // The paper's two NFV use cases composed: only allowed packets are
    // translated.
    let fw = Firewall::new(vec![FirewallRule::any_source(443, Protocol::Tcp)]);
    let nat = NatTable::new(vec![NatRule::new(
        ([203, 0, 113, 1], 443),
        Protocol::Tcp,
        ([10, 0, 0, 5], 8443),
    )]);
    let allowed = RequestHeader::new([1, 2, 3, 4], 5000, [203, 0, 113, 1], 443, Protocol::Tcp);
    let denied = RequestHeader::new([1, 2, 3, 4], 5000, [203, 0, 113, 1], 22, Protocol::Tcp);

    assert_eq!(fw.evaluate(&allowed), Verdict::Allow);
    let translated = nat.translate(&allowed).unwrap();
    assert_eq!(translated.dst_port, 8443);
    assert_eq!(fw.evaluate(&denied), Verdict::Deny);
}

#[test]
fn filter_workload_runs_in_a_horse_resumed_sandbox() {
    // Category 3 end-to-end: resume through HORSE, run the real filter,
    // pause again — many times.
    let mut vmm = Vmm::with_defaults();
    let cfg = SandboxConfig::builder().vcpus(1).ull(true).build().unwrap();
    let id = vmm.create(cfg);
    vmm.start(id).unwrap();
    vmm.pause(id, PausePolicy::horse()).unwrap();

    let mut filter = IndexFilter::from_seed(99);
    let mut total_hits = 0usize;
    for threshold in [0, 1 << 20, 1 << 28, i32::MAX] {
        let out = vmm.resume(id, ResumeMode::Horse).unwrap();
        assert!(out.breakdown.total_ns() < 300);
        total_hits += filter.invoke(threshold).len();
        vmm.pause(id, PausePolicy::horse()).unwrap();
    }
    assert!(total_hits > 0);
    assert_eq!(filter.invocations(), 4);
    // Monotonicity: higher threshold, fewer hits.
    let low = index_filter(filter.data(), 0).len();
    let high = index_filter(filter.data(), i32::MAX - 1).len();
    assert!(low >= high);
}

#[test]
fn thumbnail_workload_does_real_work() {
    let mut thumb = Thumbnail::new(32, 32);
    let img = Image::synthetic(320, 240, 5);
    let t = thumb.invoke(&img);
    assert_eq!(t.width(), 32);
    assert!(t.height() < 32 * 240 / 320 + 2);
}

#[test]
fn trace_driven_invocation_smoke() {
    // Drive the platform with a synthetic Azure-like chunk: every
    // arrival triggers a HORSE start; the pool keeps up via keep-alive.
    let seeds = SeedFactory::new(17);
    let trace = SynthConfig {
        apps: 5,
        max_functions_per_app: 2,
        median_rpm: 30.0,
        rate_sigma: 0.5,
        minutes: 3,
        diurnal_amplitude: 0.0,
    }
    .generate(&seeds);
    let sampler = ArrivalSampler::new(&trace, seeds);
    let arrivals = sampler.chunk(SimDuration::ZERO, SimDuration::from_secs(10));
    assert!(!arrivals.is_empty());

    let mut platform = FaasPlatform::new(PlatformConfig::default());
    let cfg = SandboxConfig::builder().vcpus(1).ull(true).build().unwrap();
    let f = platform.register("nat", Category::Cat2, cfg);
    platform.provision(f, 1, StartStrategy::Horse).unwrap();

    let mut inits = RunningStats::new();
    for _ in &arrivals {
        let r = platform.invoke(f, StartStrategy::Horse).unwrap();
        inits.push(r.init_ns as f64);
    }
    assert_eq!(inits.len(), arrivals.len() as u64);
    assert!(
        inits.mean() < 300.0,
        "HORSE keeps init sub-300ns under load"
    );
    assert!(inits.ci95().relative() < 0.05);
}

#[test]
fn deterministic_experiments_replay_exactly() {
    // The entire stack is seeded: re-running a scenario yields identical
    // numbers (the reproducibility requirement of DESIGN.md §5.5).
    let run = || {
        let mut platform = FaasPlatform::new(PlatformConfig::default());
        let cfg = SandboxConfig::builder().vcpus(3).ull(true).build().unwrap();
        let f = platform.register("fw", Category::Cat1, cfg);
        platform.provision(f, 1, StartStrategy::Horse).unwrap();
        (0..10)
            .map(|_| {
                let r = platform.invoke(f, StartStrategy::Horse).unwrap();
                (r.init_ns, r.exec_ns)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
