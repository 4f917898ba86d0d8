//! The VMM's telemetry wiring: pause/resume pipelines land on the
//! recorder as coherent span trees, with per-merge-thread splice work.

use horse_faults::{FaultInjector, FaultPlan, FaultSite, FaultTrigger};
use horse_telemetry::{Counter, EventKind, Recorder};
use horse_vmm::{PausePolicy, ResumeMode, SandboxConfig, Vmm};

fn cfg(vcpus: u32) -> SandboxConfig {
    SandboxConfig::builder()
        .vcpus(vcpus)
        .ull(true)
        .build()
        .unwrap()
}

#[test]
fn disabled_recorder_changes_nothing() {
    let mut plain = Vmm::with_defaults();
    let mut traced = Vmm::with_defaults();
    traced.set_recorder(Recorder::enabled());
    for vmm in [&mut plain, &mut traced] {
        let id = vmm.create(cfg(4));
        vmm.start(id).unwrap();
        vmm.pause(id, PausePolicy::horse()).unwrap();
        vmm.resume(id, ResumeMode::Horse).unwrap();
    }
    assert_eq!(
        plain.stats(),
        traced.stats(),
        "recording must not perturb the modeled pipeline"
    );
    assert!(plain.recorder().drain().events.is_empty());
}

#[test]
fn horse_resume_emits_all_six_steps_under_a_parent_span() {
    let mut vmm = Vmm::with_defaults();
    vmm.set_recorder(Recorder::enabled());
    let id = vmm.create(cfg(4));
    vmm.start(id).unwrap();
    vmm.pause(id, PausePolicy::horse()).unwrap();
    let outcome = vmm.resume(id, ResumeMode::Horse).unwrap();

    let snap = vmm.recorder().drain();
    assert_eq!(snap.dropped, 0);

    let resume = snap
        .events
        .iter()
        .find(|e| e.kind == EventKind::Resume)
        .expect("parent resume span");
    assert_eq!(resume.dur_ns, outcome.breakdown.total_ns());
    assert_eq!(resume.arg, id.as_u64());

    // All six steps present, contiguous, inside the parent, summing to it.
    let steps = [
        EventKind::ResumeParse,
        EventKind::ResumeLock,
        EventKind::ResumeSanity,
        EventKind::ResumeSortedMerge,
        EventKind::ResumeLoadUpdate,
        EventKind::ResumeFinalize,
    ];
    let mut cursor = resume.start_ns;
    let mut sum = 0;
    for kind in steps {
        let span = snap
            .events
            .iter()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("missing step span {kind:?}"));
        assert_eq!(span.start_ns, cursor, "steps lay end-to-end");
        cursor = span.end_ns();
        sum += span.dur_ns;
    }
    assert_eq!(sum, resume.dur_ns);

    // 𝒫²𝒮ℳ: one splice span per merge thread, on distinct tracks, inside
    // the sorted-merge window.
    let merge = snap
        .events
        .iter()
        .find(|e| e.kind == EventKind::ResumeSortedMerge)
        .unwrap();
    let splices: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::SpliceWork)
        .collect();
    let report = outcome.merge.expect("horse resume splices");
    assert_eq!(splices.len(), report.splices);
    let mut tracks: Vec<u32> = splices.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(tracks.len(), splices.len(), "one track per merge thread");
    for s in &splices {
        assert!(s.track >= 1, "track 0 is the resume pipeline");
        assert_eq!(s.start_ns, merge.start_ns);
        assert!(s.end_ns() <= merge.end_ns());
    }

    // The scheduler's own instants landed inside the right step windows.
    let rq_merge = snap
        .events
        .iter()
        .find(|e| e.kind == EventKind::RunqueueMerge)
        .expect("scheduler merge instant");
    assert_eq!(rq_merge.start_ns, merge.start_ns);
    let load = snap
        .events
        .iter()
        .find(|e| e.kind == EventKind::ResumeLoadUpdate)
        .unwrap();
    let coalesce = snap
        .events
        .iter()
        .find(|e| e.kind == EventKind::LoadCoalesce)
        .expect("coalesced load instant");
    assert_eq!(coalesce.start_ns, load.start_ns);
}

#[test]
fn pause_spans_and_counters_distinguish_policies() {
    let mut vmm = Vmm::with_defaults();
    vmm.set_recorder(Recorder::enabled());
    let a = vmm.create(cfg(2));
    let b = vmm.create(cfg(2));
    vmm.start(a).unwrap();
    vmm.start(b).unwrap();
    vmm.pause(a, PausePolicy::horse()).unwrap();
    vmm.pause(b, PausePolicy::vanilla()).unwrap();

    let rec = vmm.recorder();
    assert_eq!(rec.counter_value(Counter::PausesHorse), 1);
    assert_eq!(rec.counter_value(Counter::PausesVanilla), 1);

    let snap = rec.drain();
    let pauses: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Pause)
        .collect();
    assert_eq!(pauses.len(), 2);
    // The HORSE pause carries precompute child spans; the vanilla one
    // only dequeues.
    assert!(snap.events.iter().any(|e| e.kind == EventKind::PausePlan));
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == EventKind::PauseCoalesce));
    let dequeues = snap
        .events
        .iter()
        .filter(|e| e.kind == EventKind::PauseDequeue)
        .count();
    assert_eq!(dequeues, 2);
}

#[test]
fn resume_counters_track_modes() {
    let mut vmm = Vmm::with_defaults();
    vmm.set_recorder(Recorder::enabled());
    let id = vmm.create(cfg(2));
    vmm.start(id).unwrap();
    for _ in 0..3 {
        vmm.pause(id, PausePolicy::horse()).unwrap();
        vmm.resume(id, ResumeMode::Horse).unwrap();
    }
    vmm.pause(id, PausePolicy::vanilla()).unwrap();
    vmm.resume(id, ResumeMode::Vanilla).unwrap();

    let rec = vmm.recorder();
    assert_eq!(rec.counter_value(Counter::ResumesHorse), 3);
    assert_eq!(rec.counter_value(Counter::ResumesVanil), 1);
    assert_eq!(rec.counter_value(Counter::ResumesPpsm), 0);
    assert!(rec.counter_value(Counter::Splices) > 0);
    assert_eq!(rec.dropped(), 0);
}

#[test]
fn degraded_resume_instants_stay_inside_their_step() {
    use EventKind::{FaultInjected, HorseFallback, StragglerRescue};
    use EventKind::{ResumeLoadUpdate as Load, ResumeSortedMerge as Merge};
    // The fault-path instants a case must leave, each with the step it
    // happens in.
    type Expected = &'static [(EventKind, EventKind)];
    let cases: [(Option<FaultSite>, Expected); 5] = [
        (None, &[]),
        (
            Some(FaultSite::ResumePlanStale),
            &[(FaultInjected, Merge), (HorseFallback, Merge)],
        ),
        (
            Some(FaultSite::ResumePlanCorrupt),
            &[(FaultInjected, Merge), (HorseFallback, Merge)],
        ),
        (
            Some(FaultSite::SpliceStraggler),
            &[(FaultInjected, Merge), (StragglerRescue, Merge)],
        ),
        (
            Some(FaultSite::CoalescePoisoned),
            &[(FaultInjected, Load), (HorseFallback, Load)],
        ),
    ];
    let steps = [
        EventKind::ResumeParse,
        EventKind::ResumeLock,
        EventKind::ResumeSanity,
        Merge,
        Load,
        EventKind::ResumeFinalize,
    ];
    for (site, expected) in cases {
        let plan = site.map_or(FaultPlan::new(), |s| {
            FaultPlan::new().with(s, FaultTrigger::Once(1))
        });
        let mut vmm = Vmm::with_defaults();
        vmm.set_recorder(Recorder::enabled());
        vmm.set_injector(FaultInjector::new(7, plan));
        // A sandbox already on the queue gives the plan real splice
        // points.
        let background = vmm.create(cfg(3));
        vmm.start(background).unwrap();
        let id = vmm.create(cfg(4));
        vmm.start(id).unwrap();
        vmm.pause(id, PausePolicy::horse()).unwrap();
        vmm.recorder().drain();
        let outcome = vmm.resume(id, ResumeMode::Horse).unwrap();
        assert_eq!(outcome.degradation.any(), site.is_some(), "{site:?}");

        let events = vmm.recorder().drain().events;
        let span = |kind| {
            events
                .iter()
                .find(|e| e.kind == kind && !e.is_instant())
                .unwrap_or_else(|| panic!("{site:?}: missing span {kind:?}"))
        };
        let resume = span(EventKind::Resume);
        let sum: u64 = steps.iter().map(|&k| span(k).dur_ns).sum();
        assert_eq!(sum, resume.dur_ns, "{site:?}: steps sum to the resume");

        for instant in events.iter().filter(|e| e.is_instant()) {
            let parent = instant.parent.expect("resume instants carry a step");
            assert!(
                parent == Merge || parent == Load,
                "{site:?}: {:?} parented to {parent:?}",
                instant.kind
            );
            let step = span(parent);
            assert!(
                (step.start_ns..=step.end_ns()).contains(&instant.start_ns),
                "{site:?}: {:?} at {} outside {parent:?} [{}, {}]",
                instant.kind,
                instant.start_ns,
                step.start_ns,
                step.end_ns()
            );
        }
        for &(kind, parent) in expected {
            assert!(
                events
                    .iter()
                    .any(|e| e.is_instant() && e.kind == kind && e.parent == Some(parent)),
                "{site:?}: no {kind:?} instant under {parent:?}"
            );
        }
    }
}
