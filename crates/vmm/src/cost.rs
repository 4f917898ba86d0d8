//! Deterministic resume-path cost model.
//!
//! The paper measures the resume pipeline in nanoseconds on a CloudLab
//! r650. A reproduction cannot measure a patched KVM, so we do the next
//! best thing: this model is the one place a virtual step is priced, in
//! per-operation costs calibrated so that the paper's anchor points hold:
//!
//! * vanilla resume ≈ 0.6 µs at 1 vCPU growing to ≈ 1.1 µs at 36 vCPUs
//!   (the paper's "resuming a sandbox can take up to 1.1 µs");
//! * steps ④+⑤ account for 87.5 %–93.1 % of the vanilla resume;
//! * HORSE resume ≈ 150 ns, flat in the vCPU count;
//! * the resulting speedup at 36 vCPUs ≈ 7×.
//!
//! A step is priced from its *inputs* — the vCPU count, the plan's splice
//! count — by the operation-count rule of the kernel algorithm it models,
//! in closed form. Only where the code still executes that algorithm (the
//! vanilla sorted insert, the fallback merge walk) is the step priced from
//! the arena's counted operations instead. Either way the model is exact
//! and machine-independent: two runs produce identical breakdowns.
//! Wall-clock measurements of the same code paths are reported separately
//! by the `benchmark/` package.

use horse_core::ArenaStats;
use serde::{Deserialize, Serialize};

/// Per-operation and per-step costs, in nanoseconds (fractional; summed
/// then rounded once per step).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    // --- fixed pipeline steps (vCPU-count independent, paper §3.1) ---
    /// Step ①: parsing the resume command's input parameters.
    pub parse_ns: f64,
    /// Step ②: acquiring the global resume lock.
    pub resume_lock_ns: f64,
    /// Step ③: sanity checks (pause-state verification).
    pub sanity_ns: f64,
    /// Step ⑥: releasing the lock and flipping the sandbox state.
    pub finalize_ns: f64,

    // --- step ④ (sorted merge) ---
    /// Fixed entry cost of the vanilla merge loop (run-queue selection,
    /// cache warm-up of the queue spine).
    pub merge_base_ns: f64,
    /// Fixed entry cost of the 𝒫²𝒮ℳ splice (plan fetch + thread kickoff).
    pub horse_merge_base_ns: f64,
    /// Cost per node allocation.
    pub alloc_ns: f64,
    /// Cost per sort-key comparison during list scans.
    pub cmp_ns: f64,
    /// Cost per intrusive pointer write.
    pub ptr_write_ns: f64,
    /// Cost of dispatching one splice thread (parallel 𝒫²𝒮ℳ); splices
    /// run concurrently, so only the max over threads is serialized but
    /// the kickoff is paid per thread.
    pub splice_thread_ns: f64,

    // --- step ⑤ (load update) ---
    /// Fixed entry cost of the vanilla load-update loop.
    pub load_base_ns: f64,
    /// Fixed entry cost of the coalesced update.
    pub horse_load_base_ns: f64,
    /// Cost per load-variable lock acquisition.
    pub lock_acq_ns: f64,
    /// Cost per affine load update applied.
    pub load_upd_ns: f64,

    // --- pause-time costs (off the critical path; §5.2 overhead) ---
    /// Cost of dequeuing one vCPU at pause time.
    pub pause_dequeue_per_vcpu_ns: f64,
    /// Cost per element (|A| + |B|) of (re)building a 𝒫²𝒮ℳ plan.
    pub plan_precompute_per_elem_ns: f64,
    /// Cost of precomputing the coalesced load update (two powers and a
    /// division, paper §4.2.2).
    pub coalesce_precompute_ns: f64,
    /// Cost of one incremental plan update (pop-front shift or tail push).
    pub plan_update_pop_ns: f64,
    /// Cost of selecting and recording the target ull_runqueue at pause
    /// time (§4.1.3 balancing decision).
    pub ull_assign_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl CostModel {
    /// A Xen-flavored calibration. The paper implements HORSE in Xen 4.17
    /// as well and reports "similar observations" (§3.2, §5) without
    /// publishing separate numbers; Xen's resume path differs mainly in
    /// control-plane cost (the XenStore round-trips, reduced by moving it
    /// to an in-memory shared space per LightVM — §3.2), which lands in
    /// the fixed steps and the merge/load loop bases.
    pub fn xen_calibrated() -> Self {
        let base = Self::calibrated();
        Self {
            parse_ns: base.parse_ns * 1.3,
            resume_lock_ns: base.resume_lock_ns * 1.2,
            sanity_ns: base.sanity_ns * 1.2,
            finalize_ns: base.finalize_ns * 1.3,
            merge_base_ns: base.merge_base_ns * 1.15,
            load_base_ns: base.load_base_ns * 1.15,
            ..base
        }
    }

    /// The calibration used throughout the reproduction (see module docs
    /// for the anchor points).
    pub fn calibrated() -> Self {
        Self {
            parse_ns: 25.0,
            resume_lock_ns: 20.0,
            sanity_ns: 16.0,
            finalize_ns: 15.0,
            merge_base_ns: 375.0,
            horse_merge_base_ns: 60.0,
            alloc_ns: 2.5,
            cmp_ns: 0.4,
            ptr_write_ns: 2.0,
            splice_thread_ns: 8.0,
            load_base_ns: 150.0,
            horse_load_base_ns: 20.0,
            lock_acq_ns: 1.0,
            load_upd_ns: 0.5,
            pause_dequeue_per_vcpu_ns: 25.0,
            plan_precompute_per_elem_ns: 4.0,
            coalesce_precompute_ns: 18.0,
            plan_update_pop_ns: 6.0,
            ull_assign_ns: 12.0,
        }
    }

    /// Total fixed cost of steps ①②③⑥.
    pub fn fixed_steps_ns(&self) -> f64 {
        self.parse_ns + self.resume_lock_ns + self.sanity_ns + self.finalize_ns
    }

    /// Cost of a vanilla step ④ given the arena operation counts it
    /// generated.
    pub fn vanilla_merge_ns(&self, ops: ArenaStats) -> f64 {
        self.merge_base_ns
            + ops.allocs as f64 * self.alloc_ns
            + ops.comparisons as f64 * self.cmp_ns
            + ops.pointer_writes as f64 * self.ptr_write_ns
    }

    /// Cost of a 𝒫²𝒮ℳ step ④: splice threads run in parallel, so the
    /// serialized cost is the kickoff per thread plus one splice's pointer
    /// writes (two), not the sum over threads.
    pub fn horse_merge_ns(&self, splices: usize) -> f64 {
        let per_splice = 2.0 * self.ptr_write_ns;
        self.horse_merge_base_ns
            + splices as f64 * self.splice_thread_ns
            + if splices > 0 { per_splice } else { 0.0 }
    }

    /// Cost of the pause's `BuildMergeList` step: the kernel's sorted
    /// insert of `n` ascending keys, each scanning the list built so far
    /// — `n` allocations, `n(n − 1)/2` comparisons, and 2 pointer writes
    /// for the first node and 3 for each later one.
    pub fn build_merge_list_ns(&self, vcpus: u64) -> f64 {
        let comparisons = vcpus * vcpus.saturating_sub(1) / 2;
        let pointer_writes = (3 * vcpus).saturating_sub(1);
        vcpus as f64 * self.alloc_ns
            + comparisons as f64 * self.cmp_ns
            + pointer_writes as f64 * self.ptr_write_ns
    }

    /// Cost of a vanilla step ⑤: one lock-protected update per vCPU.
    pub fn vanilla_load_ns(&self, vcpus: u64) -> f64 {
        self.load_base_ns + vcpus as f64 * self.lock_acq_ns + vcpus as f64 * self.load_upd_ns
    }

    /// Cost of the coalesced step ⑤: one lock, one multiply-add.
    pub fn horse_load_ns(&self) -> f64 {
        self.horse_load_base_ns + self.lock_acq_ns + self.load_upd_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_steps_sum() {
        let m = CostModel::calibrated();
        assert!((m.fixed_steps_ns() - 76.0).abs() < 1e-9);
    }

    #[test]
    fn vanilla_merge_scales_with_ops() {
        let m = CostModel::calibrated();
        let small = m.vanilla_merge_ns(ArenaStats {
            comparisons: 0,
            pointer_writes: 2,
            allocs: 1,
            frees: 0,
        });
        let large = m.vanilla_merge_ns(ArenaStats {
            comparisons: 630,
            pointer_writes: 72,
            allocs: 36,
            frees: 0,
        });
        assert!(large > small);
        assert!(
            large - m.merge_base_ns > 300.0,
            "36 vCPUs add substantial cost"
        );
    }

    #[test]
    fn horse_merge_is_flat_in_splice_mode() {
        let m = CostModel::calibrated();
        // Even 36 splices cost well under the vanilla loop.
        let horse = m.horse_merge_ns(4);
        let vanilla = m.vanilla_merge_ns(ArenaStats {
            comparisons: 630,
            pointer_writes: 72,
            allocs: 36,
            frees: 0,
        });
        assert!(horse * 5.0 < vanilla);
        // Zero splices ≈ base.
        assert!((m.horse_merge_ns(0) - m.horse_merge_base_ns).abs() < 1e-9);
    }

    #[test]
    fn coalesced_load_beats_per_vcpu() {
        let m = CostModel::calibrated();
        let vanilla = m.vanilla_load_ns(36);
        let horse = m.horse_load_ns();
        assert!(horse < vanilla / 5.0);
    }

    #[test]
    fn anchor_vanilla_resume_near_paper() {
        // Reconstruct the full vanilla resume at 1 and 36 vCPUs with the
        // op counts the substrate actually generates (empty target
        // queues) and check the paper's anchors.
        let m = CostModel::calibrated();
        let resume = |n: u64| {
            let cmp = n * (n - 1) / 2; // sorted inserts into empty queue
            let merge = m.vanilla_merge_ns(ArenaStats {
                comparisons: cmp,
                pointer_writes: 2 * n,
                allocs: n,
                frees: 0,
            });
            let load = m.vanilla_load_ns(n);
            m.fixed_steps_ns() + merge + load
        };
        let one = resume(1);
        let many = resume(36);
        assert!((550.0..750.0).contains(&one), "1 vCPU: {one}");
        assert!((950.0..1300.0).contains(&many), "36 vCPUs: {many}");
        // Steps 4+5 share within the paper's 87.5–93.1 % envelope.
        let share1 = (one - m.fixed_steps_ns()) / one;
        let share36 = (many - m.fixed_steps_ns()) / many;
        assert!(share1 > 0.85 && share1 < share36 && share36 < 0.95);
    }
}
