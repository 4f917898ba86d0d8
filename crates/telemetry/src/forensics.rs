//! Request forensics: stitching per-thread ring buffers into one causal
//! span tree per submission.
//!
//! PR 3's causal tracing stamps every event with an invocation id and a
//! *kind-valued* parent; PR 7's reliability plane made tail outcomes
//! depend on decisions (admission, breaker gating, routing, retries,
//! hedges) that were only visible as counters. This module closes the
//! gap: [`ForensicIndex::stitch`] groups a drained [`TraceSnapshot`] by
//! invocation id and resolves each event's kind-valued parent to a
//! concrete parent *span instance* by time containment, producing one
//! [`SpanTree`] per submission that runs
//!
//! ```text
//! submit → admission → route_attempt(host) → pool take → resume ①–⑥
//!        → retry_backoff → route_attempt(host') → …
//!        → hedge_attempt(host'') → …
//! ```
//!
//! The tree's root is the [`EventKind::Submit`] span emitted by
//! `Cluster::submit`; its `arg` is a packed [`RootStamp`] carrying the
//! submission-scoped root id (`horse_reliability::SubmissionId`) plus
//! the request class and final disposition, so a tree is joinable back
//! to both the reliability ledger and the burn-rate monitor without any
//! side table.
//!
//! **Parent resolution.** The causal parent stored per event is an
//! [`EventKind`], not a span id (the hot path stays allocation-free).
//! Within one invocation the parent *instance* is recovered as the
//! latest-starting event of the parent kind whose closed interval
//! `[start, end]` contains the child's start — or, when no instance
//! contains it, the latest-starting instance that starts at or before
//! the child (some children causally trail their parent's window: a
//! `pause` span follows the `horse` invoke span that triggered it, the
//! invoke span itself covering only guest init). Hedge and retry
//! attempts reuse kinds (two `horse` invoke spans under one
//! submission), and latest-start-first resolution disambiguates them:
//! each attempt's children start inside or right after that attempt's
//! window, never before it. An event whose parent kind has no instance
//! at or before its start is an **orphan** — zero orphans is the
//! completeness gate.

use crate::event::{Event, EventKind, TraceContext};
use crate::json::JsonValue;
use crate::recorder::TraceSnapshot;
use std::collections::BTreeMap;

/// Submission outcome codes carried in a [`RootStamp`].
pub mod outcome {
    /// The submission completed (deadline met or not — see the stamp's
    /// `met_deadline` flag).
    pub const COMPLETED: u8 = 0;
    /// Admission control or open breakers shed the submission.
    pub const SHED: u8 = 1;
    /// A deadline boundary (routing / pool take / resume) fired.
    pub const DEADLINE: u8 = 2;
    /// Retries exhausted against real errors.
    pub const FAILED: u8 = 3;

    /// Human label for an outcome code.
    pub fn label(code: u8) -> &'static str {
        match code {
            COMPLETED => "completed",
            SHED => "shed",
            DEADLINE => "deadline_exceeded",
            FAILED => "failed",
            _ => "unknown",
        }
    }
}

/// The submission-scoped identity packed into the root
/// [`EventKind::Submit`] span's `arg`.
///
/// Layout (low to high): bits 0..48 the submission-scoped root id
/// (`horse_reliability::SubmissionId`, the reliability plane's
/// submission tick), bits 48..50 the request class (0 = uLL, 1 =
/// background, 2 = unclassed), bits 50..53 the [`outcome`] code, bit 53
/// whether the submission hedged, bit 54 whether it met its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootStamp {
    /// Submission-scoped root id (48 bits used).
    pub submission: u64,
    /// Request class code (0 = uLL, 1 = background, 2 = unclassed).
    pub class: u8,
    /// Final disposition, one of the [`outcome`] codes.
    pub outcome: u8,
    /// Whether a hedge was launched for this submission.
    pub hedged: bool,
    /// Whether the submission met its deadline (vacuously true without
    /// one; false for sheds, misses and failures).
    pub met_deadline: bool,
}

impl RootStamp {
    const SUBMISSION_BITS: u64 = 48;
    const SUBMISSION_MASK: u64 = (1 << Self::SUBMISSION_BITS) - 1;

    /// Packs the stamp into a `u64` event arg.
    pub fn encode(self) -> u64 {
        (self.submission & Self::SUBMISSION_MASK)
            | (u64::from(self.class & 0b11) << 48)
            | (u64::from(self.outcome & 0b111) << 50)
            | (u64::from(self.hedged) << 53)
            | (u64::from(self.met_deadline) << 54)
    }

    /// Unpacks a stamp from a `u64` event arg.
    pub fn decode(arg: u64) -> Self {
        Self {
            submission: arg & Self::SUBMISSION_MASK,
            class: ((arg >> 48) & 0b11) as u8,
            outcome: ((arg >> 50) & 0b111) as u8,
            hedged: (arg >> 53) & 1 == 1,
            met_deadline: (arg >> 54) & 1 == 1,
        }
    }

    /// Class label ("ull" / "background" / "unclassed").
    pub fn class_label(&self) -> &'static str {
        match self.class {
            0 => "ull",
            1 => "background",
            _ => "unclassed",
        }
    }
}

/// One node of a stitched span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The stitched event.
    pub event: Event,
    /// Index of the parent node within the tree (`None` for the root).
    pub parent: Option<usize>,
    /// Indices of child nodes, in canonical (time-sorted) order.
    pub children: Vec<usize>,
}

/// One causal tree: every event of one invocation, parent-resolved.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The invocation id shared by every node.
    pub invocation: u64,
    /// Nodes in canonical order (start asc, duration desc); node 0 need
    /// not be the root.
    pub nodes: Vec<SpanNode>,
    /// Index of the root node.
    pub root: usize,
}

impl SpanTree {
    /// The root event.
    pub fn root_event(&self) -> &Event {
        &self.nodes[self.root].event
    }

    /// The decoded [`RootStamp`] when the root is a reliability-plane
    /// [`EventKind::Submit`] span; `None` for plain invocation trees.
    pub fn stamp(&self) -> Option<RootStamp> {
        (self.root_event().kind == EventKind::Submit)
            .then(|| RootStamp::decode(self.root_event().arg))
    }

    /// Total virtual duration covered by the root span.
    pub fn duration_ns(&self) -> u64 {
        self.root_event().dur_ns
    }

    /// Number of nodes (hops) in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never true for stitched trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether any node is of `kind` (e.g. did this submission hedge).
    pub fn contains_kind(&self, kind: EventKind) -> bool {
        self.nodes.iter().any(|n| n.event.kind == kind)
    }

    /// Checks the structural invariants every complete tree must hold:
    /// exactly one root, and every child starts no earlier than its
    /// parent (parent-before-child order — children may *end* after
    /// their parent's window, e.g. a `pause` trailing its invoke span).
    /// Returns the violations (empty = sound).
    pub fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let roots = self.nodes.iter().filter(|n| n.parent.is_none()).count();
        if roots != 1 {
            violations.push(format!(
                "invocation {}: {} roots (expected exactly 1)",
                self.invocation, roots
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                let parent = &self.nodes[p].event;
                let child = &node.event;
                if child.start_ns < parent.start_ns {
                    violations.push(format!(
                        "invocation {}: node {i} ({}) starts before its parent ({})",
                        self.invocation,
                        child.kind.label(),
                        parent.kind.label()
                    ));
                }
            }
        }
        violations
    }

    /// Deterministic FNV-1a fingerprint over the tree's canonical form —
    /// bit-identical across same-seed runs, the flight recorder's replay
    /// check.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        h = fnv1a(h, self.invocation);
        // DFS from the root so the fingerprint covers the *structure*,
        // not just the node multiset.
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![(self.root, 0u64)];
        while let Some((idx, depth)) = stack.pop() {
            visited[idx] = true;
            let e = &self.nodes[idx].event;
            for word in [
                depth,
                e.kind as u64,
                u64::from(e.track),
                e.start_ns,
                e.dur_ns,
                e.arg,
                e.parent.map_or(0, |p| p as u64 + 1),
            ] {
                h = fnv1a(h, word);
            }
            // Children are pushed in reverse so DFS visits them in
            // canonical order.
            for &c in self.nodes[idx].children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        // Nodes unreachable from this root (orphaned subtrees, or other
        // roots' components in a multi-root slab) still shape the
        // fingerprint — a lossy tree must not hash equal to a complete
        // one. Depth sentinel u64::MAX marks them as detached.
        for (idx, seen) in visited.iter().enumerate() {
            if *seen {
                continue;
            }
            let e = &self.nodes[idx].event;
            for word in [
                u64::MAX,
                e.kind as u64,
                u64::from(e.track),
                e.start_ns,
                e.dur_ns,
                e.arg,
            ] {
                h = fnv1a(h, word);
            }
        }
        h
    }

    /// Renders the tree as an indented ASCII outline (the postmortem
    /// view printed by `slo_report` and pasted in the README).
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let mut stack = vec![(self.root, 0usize)];
        while let Some((idx, depth)) = stack.pop() {
            let e = &self.nodes[idx].event;
            out.push_str(&"  ".repeat(depth));
            out.push_str(e.kind.label());
            if e.is_instant() {
                out.push_str(&format!(" @{}ns", e.start_ns));
            } else {
                out.push_str(&format!(" [{}ns +{}ns]", e.start_ns, e.dur_ns));
            }
            if let Some(arg_name) = e.kind.arg_name() {
                if e.kind == EventKind::Submit {
                    let s = RootStamp::decode(e.arg);
                    out.push_str(&format!(
                        " submission={} class={} outcome={} hedged={} met={}",
                        s.submission,
                        s.class_label(),
                        outcome::label(s.outcome),
                        s.hedged,
                        s.met_deadline
                    ));
                } else {
                    out.push_str(&format!(" {arg_name}={}", e.arg));
                }
            }
            out.push('\n');
            for &c in self.nodes[idx].children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        out
    }
}

fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Canonical event order for stitching: start ascending, then duration
/// descending (a parent sorts before the children it contains when they
/// share a start), then stable tie-breakers so the order — and with it
/// every fingerprint — is a pure function of the event multiset.
fn canonical_order(a: &Event, b: &Event) -> std::cmp::Ordering {
    a.start_ns
        .cmp(&b.start_ns)
        .then(b.dur_ns.cmp(&a.dur_ns))
        .then((a.kind as u8).cmp(&(b.kind as u8)))
        .then(a.track.cmp(&b.track))
        .then(a.arg.cmp(&b.arg))
}

/// Every stitched tree of a snapshot plus the stitching ledger.
#[derive(Debug, Clone, Default)]
pub struct ForensicIndex {
    /// One tree per (invocation, root) — an invocation with several
    /// parentless events contributes several trees and bumps
    /// `extra_roots`.
    pub trees: Vec<SpanTree>,
    /// Events whose kind-valued parent had no containing instance in
    /// their invocation. Zero in a correctly threaded pipeline.
    pub orphan_events: u64,
    /// Roots beyond the first within a single invocation (a submission
    /// tree must have exactly one — its `Submit` span).
    pub extra_roots: u64,
    /// Events with invocation id 0 (provisioning and other
    /// out-of-invocation work), excluded from stitching.
    pub untraced_events: u64,
    /// Ring-buffer drops in the source snapshot's window: a lossy stream
    /// cannot promise complete trees.
    pub dropped_events: u64,
}

impl ForensicIndex {
    /// Stitches a drained snapshot into span trees.
    pub fn stitch(snapshot: &TraceSnapshot) -> Self {
        let mut by_invocation: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
        let mut untraced = 0u64;
        for event in &snapshot.events {
            if event.invocation == 0 {
                untraced += 1;
                continue;
            }
            by_invocation
                .entry(event.invocation)
                .or_default()
                .push(*event);
        }

        let mut index = ForensicIndex {
            untraced_events: untraced,
            dropped_events: snapshot.dropped_in_window,
            ..ForensicIndex::default()
        };
        for (invocation, mut events) in by_invocation {
            events.sort_by(canonical_order);
            index.stitch_invocation(invocation, events);
        }
        index
    }

    /// Stitches one invocation's canonically ordered events, appending
    /// the resulting tree(s) and tallying orphans.
    ///
    /// Two passes: first every event becomes a node and is indexed by
    /// kind, then parents are resolved against the *full* per-kind
    /// lists. Single-pass resolution would orphan a child that sorts
    /// before its parent under an exact (start, duration) tie — the
    /// canonical order cannot know kind-level nesting.
    fn stitch_invocation(&mut self, invocation: u64, events: Vec<Event>) {
        let mut nodes: Vec<SpanNode> = events
            .into_iter()
            .map(|event| SpanNode {
                event,
                parent: None,
                children: Vec::new(),
            })
            .collect();
        // Node indices per kind, in canonical (ascending-start) order —
        // the parent candidates for events of a child kind.
        let mut by_kind: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            by_kind.entry(node.event.kind as u8).or_default().push(i);
        }
        let mut roots: Vec<usize> = Vec::new();
        for i in 0..nodes.len() {
            match nodes[i].event.parent {
                None => roots.push(i),
                Some(kind) => {
                    // Latest-starting instance of the parent kind whose
                    // closed interval contains the child's start; among
                    // equal starts the reverse scan meets the smallest
                    // (most specific) containing span first, because
                    // per-kind lists are in canonical order (start asc,
                    // duration desc). Children that causally *trail*
                    // their parent's window (a `pause` after the invoke
                    // span that triggered it) fall back to the
                    // latest-starting instance at or before their start.
                    let event = nodes[i].event;
                    let found = by_kind.get(&(kind as u8)).and_then(|candidates| {
                        candidates
                            .iter()
                            .rev()
                            .copied()
                            .find(|&c| {
                                let p = &nodes[c].event;
                                p.start_ns <= event.start_ns && event.start_ns <= p.end_ns()
                            })
                            .or_else(|| {
                                candidates
                                    .iter()
                                    .rev()
                                    .copied()
                                    .find(|&c| nodes[c].event.start_ns <= event.start_ns)
                            })
                    });
                    match found {
                        Some(p) => {
                            nodes[i].parent = Some(p);
                            nodes[p].children.push(i);
                        }
                        None => self.orphan_events += 1,
                    }
                }
            }
        }
        match roots.len() {
            0 => {
                // No parentless event at all (possible only on a lossy
                // stream): the invocation yields no tree, and its
                // unattachable events were already counted as orphans.
            }
            n => {
                self.extra_roots += (n - 1) as u64;
                // One tree per root: each keeps the full node slab (the
                // slab is shared structure; only `root` differs). For
                // the common single-root case this is exactly one tree.
                if n == 1 {
                    self.trees.push(SpanTree {
                        invocation,
                        root: roots[0],
                        nodes,
                    });
                } else {
                    for &root in &roots {
                        self.trees.push(SpanTree {
                            invocation,
                            root,
                            nodes: nodes.clone(),
                        });
                    }
                }
            }
        }
    }

    /// Trees rooted at a reliability-plane `Submit` span.
    pub fn submission_trees(&self) -> impl Iterator<Item = &SpanTree> {
        self.trees
            .iter()
            .filter(|t| t.root_event().kind == EventKind::Submit)
    }

    /// Whether stitching was complete: no orphans, no extra roots, no
    /// ring drops.
    pub fn is_complete(&self) -> bool {
        self.orphan_events == 0 && self.extra_roots == 0 && self.dropped_events == 0
    }

    /// Deterministic fingerprint over every tree (trees are already in
    /// ascending invocation order).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for tree in &self.trees {
            h = fnv1a(h, tree.fingerprint());
        }
        h = fnv1a(h, self.orphan_events);
        h = fnv1a(h, self.extra_roots);
        h
    }
}

/// Renders trees as Chrome trace-event JSON **with flow events**: every
/// cross-host hop (`route_attempt` / `hedge_attempt` edge) gets a
/// `"ph":"s"` → `"ph":"f"` flow arrow from its parent, so Perfetto draws
/// the submission's causal path across attempts. Each tree renders as
/// its own process (`pid` = invocation id) with the usual track lanes.
pub fn chrome_trace_with_flows<'a>(trees: impl IntoIterator<Item = &'a SpanTree>) -> String {
    let mut events: Vec<JsonValue> = Vec::new();
    let mut flow_id = 0u64;
    for tree in trees {
        let pid = tree.invocation as f64;
        for node in &tree.nodes {
            let e = &node.event;
            let mut obj = BTreeMap::new();
            obj.insert("name".into(), JsonValue::String(e.kind.label().into()));
            obj.insert("cat".into(), JsonValue::String(e.kind.category().into()));
            obj.insert("pid".into(), JsonValue::Number(pid));
            obj.insert("tid".into(), JsonValue::Number(f64::from(e.track)));
            obj.insert("ts".into(), JsonValue::Number(e.start_ns as f64 / 1_000.0));
            if e.is_instant() {
                obj.insert("ph".into(), JsonValue::String("i".into()));
                obj.insert("s".into(), JsonValue::String("t".into()));
            } else {
                obj.insert("ph".into(), JsonValue::String("X".into()));
                obj.insert("dur".into(), JsonValue::Number(e.dur_ns as f64 / 1_000.0));
            }
            let mut args = BTreeMap::new();
            if let Some(arg_name) = e.kind.arg_name() {
                args.insert(arg_name.into(), JsonValue::Number(e.arg as f64));
            }
            args.insert("invocation".into(), JsonValue::Number(pid));
            if let Some(p) = e.parent {
                args.insert("parent".into(), JsonValue::String(p.label().into()));
            }
            obj.insert("args".into(), JsonValue::Object(args));
            events.push(JsonValue::Object(obj));
        }
        // Flow arrows: one per routing/hedge hop, from the parent span's
        // start to the attempt span's start.
        for node in &tree.nodes {
            let e = &node.event;
            if !matches!(e.kind, EventKind::RouteAttempt | EventKind::HedgeAttempt) {
                continue;
            }
            let Some(p) = node.parent else { continue };
            let parent = &tree.nodes[p].event;
            flow_id += 1;
            for (ph, src) in [("s", parent), ("f", e)] {
                let mut obj = BTreeMap::new();
                obj.insert("name".into(), JsonValue::String("hop".into()));
                obj.insert("cat".into(), JsonValue::String("flow".into()));
                obj.insert("ph".into(), JsonValue::String(ph.into()));
                obj.insert("id".into(), JsonValue::Number(flow_id as f64));
                obj.insert("pid".into(), JsonValue::Number(pid));
                obj.insert("tid".into(), JsonValue::Number(f64::from(src.track)));
                obj.insert(
                    "ts".into(),
                    JsonValue::Number(src.start_ns as f64 / 1_000.0),
                );
                if ph == "f" {
                    obj.insert("bp".into(), JsonValue::String("e".into()));
                }
                events.push(JsonValue::Object(obj));
            }
        }
    }
    let mut root = BTreeMap::new();
    root.insert("displayTimeUnit".into(), JsonValue::String("ns".into()));
    root.insert("traceEvents".into(), JsonValue::Array(events));
    JsonValue::Object(root).render()
}

/// Convenience: the ambient context helpers used by the emission side.
///
/// `Cluster::submit` installs `TraceContext::root(invocation)` and
/// re-parents between hops; this helper names the Submit-rooted child
/// context so the emission code reads declaratively.
pub fn submit_child_context(invocation: u64) -> TraceContext {
    TraceContext {
        invocation,
        parent: Some(EventKind::Submit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: EventKind,
        start: u64,
        dur: u64,
        arg: u64,
        inv: u64,
        parent: Option<EventKind>,
    ) -> Event {
        Event {
            kind,
            track: 0,
            start_ns: start,
            dur_ns: dur,
            arg,
            invocation: inv,
            parent,
        }
    }

    /// A hedged, retried submission: attempt on host 0 fails, backoff,
    /// attempt on host 1 completes slow, hedge on host 2 wins.
    fn hedged_submission(inv: u64) -> Vec<Event> {
        let stamp = RootStamp {
            submission: 7,
            class: 0,
            outcome: outcome::COMPLETED,
            hedged: true,
            met_deadline: true,
        };
        vec![
            ev(EventKind::Submit, 0, 1_000, stamp.encode(), inv, None),
            ev(
                EventKind::AdmissionGate,
                0,
                0,
                0,
                inv,
                Some(EventKind::Submit),
            ),
            ev(
                EventKind::RouteAttempt,
                0,
                100,
                0,
                inv,
                Some(EventKind::Submit),
            ),
            ev(
                EventKind::InvokeHorse,
                0,
                100,
                0,
                inv,
                Some(EventKind::RouteAttempt),
            ),
            ev(
                EventKind::RetryBackoff,
                100,
                50,
                1,
                inv,
                Some(EventKind::Submit),
            ),
            ev(
                EventKind::RouteAttempt,
                150,
                400,
                1,
                inv,
                Some(EventKind::Submit),
            ),
            ev(
                EventKind::InvokeHorse,
                150,
                400,
                400,
                inv,
                Some(EventKind::RouteAttempt),
            ),
            ev(
                EventKind::Resume,
                160,
                200,
                3,
                inv,
                Some(EventKind::InvokeHorse),
            ),
            ev(
                EventKind::HedgeAttempt,
                550,
                300,
                2,
                inv,
                Some(EventKind::Submit),
            ),
            ev(
                EventKind::InvokeHorse,
                550,
                300,
                300,
                inv,
                Some(EventKind::HedgeAttempt),
            ),
            ev(
                EventKind::Resume,
                560,
                150,
                4,
                inv,
                Some(EventKind::InvokeHorse),
            ),
        ]
    }

    #[test]
    fn root_stamp_round_trips() {
        for (submission, class, outcome_code, hedged, met) in [
            (0u64, 0u8, outcome::COMPLETED, false, true),
            (12_345, 1, outcome::SHED, false, false),
            ((1 << 48) - 1, 2, outcome::DEADLINE, true, false),
            (42, 0, outcome::FAILED, true, true),
        ] {
            let stamp = RootStamp {
                submission,
                class,
                outcome: outcome_code,
                hedged,
                met_deadline: met,
            };
            assert_eq!(RootStamp::decode(stamp.encode()), stamp);
        }
    }

    #[test]
    fn stitches_a_hedged_retried_submission_into_one_tree() {
        let snapshot = TraceSnapshot {
            events: hedged_submission(9),
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        };
        let index = ForensicIndex::stitch(&snapshot);
        assert!(index.is_complete(), "orphans: {}", index.orphan_events);
        assert_eq!(index.trees.len(), 1);
        let tree = &index.trees[0];
        assert_eq!(tree.len(), 11);
        assert!(tree.check().is_empty(), "{:?}", tree.check());
        let stamp = tree.stamp().expect("submit root");
        assert!(stamp.hedged);
        assert_eq!(stamp.class_label(), "ull");
        // Containment disambiguates the three same-kind invoke spans:
        // each Resume hangs off the invoke attempt that contains it.
        let resumes: Vec<_> = tree
            .nodes
            .iter()
            .filter(|n| n.event.kind == EventKind::Resume)
            .collect();
        assert_eq!(resumes.len(), 2);
        for r in resumes {
            let p = &tree.nodes[r.parent.expect("resume has a parent")].event;
            assert_eq!(p.kind, EventKind::InvokeHorse);
            assert!(p.start_ns <= r.event.start_ns && r.event.start_ns <= p.end_ns());
        }
        // The hedge's invoke parents under HedgeAttempt, not the
        // primary's RouteAttempt.
        let hedge_invoke = tree
            .nodes
            .iter()
            .find(|n| n.event.kind == EventKind::InvokeHorse && n.event.start_ns == 550)
            .unwrap();
        assert_eq!(
            tree.nodes[hedge_invoke.parent.unwrap()].event.kind,
            EventKind::HedgeAttempt
        );
    }

    #[test]
    fn orphans_and_extra_roots_are_counted() {
        let events = vec![
            // A child whose parent kind never appears.
            ev(EventKind::Resume, 10, 5, 0, 3, Some(EventKind::InvokeWarm)),
            // Two parentless events in one invocation.
            ev(EventKind::Submit, 0, 100, 0, 4, None),
            ev(EventKind::InvokeWarm, 200, 10, 0, 4, None),
        ];
        let snapshot = TraceSnapshot {
            events,
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        };
        let index = ForensicIndex::stitch(&snapshot);
        assert_eq!(index.orphan_events, 1);
        assert_eq!(index.extra_roots, 1);
        assert!(!index.is_complete());
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_content_sensitive() {
        let mut shuffled = hedged_submission(5);
        shuffled.reverse();
        let a = ForensicIndex::stitch(&TraceSnapshot {
            events: hedged_submission(5),
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        });
        let b = ForensicIndex::stitch(&TraceSnapshot {
            events: shuffled,
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        });
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut mutated = hedged_submission(5);
        mutated[3].dur_ns += 1;
        let c = ForensicIndex::stitch(&TraceSnapshot {
            events: mutated,
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        });
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn chrome_flow_export_is_valid_json_with_flow_phases() {
        let index = ForensicIndex::stitch(&TraceSnapshot {
            events: hedged_submission(2),
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        });
        let text = chrome_trace_with_flows(index.trees.iter());
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<_> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        // 3 hops (2 route attempts + 1 hedge) → 3 "s"/"f" pairs.
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 3);
        assert!(phases.contains(&"X"));
    }

    #[test]
    fn ascii_render_names_every_hop() {
        let index = ForensicIndex::stitch(&TraceSnapshot {
            events: hedged_submission(2),
            counters: vec![],
            gauges: vec![],
            dropped: 0,
            dropped_in_window: 0,
            dropped_by_shard: vec![0],
        });
        let text = index.trees[0].render_ascii();
        for needle in [
            "submit",
            "admission",
            "route_attempt",
            "retry_backoff",
            "hedge_attempt",
            "resume",
            "outcome=completed",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn submit_child_context_names_the_root() {
        let ctx = submit_child_context(11);
        assert_eq!(ctx.invocation, 11);
        assert_eq!(ctx.parent, Some(EventKind::Submit));
    }
}
