//! # horse-core — the HORSE paper's core contribution
//!
//! This crate implements the two mechanisms of **HORSE** ("hot resume",
//! Mvondo, Taïani & Bromberg, *Middleware '24*) as a reusable library:
//!
//! 1. **𝒫²𝒮ℳ** (*parallel precomputed sorted merge*, [`MergePlan`]):
//!    merge a sorted linked list into another in O(1) at the critical
//!    moment, by precomputing the positional index of the destination
//!    (`arrayB`) and the splice table of the source (`posA`) off the
//!    critical path, then executing two pointer writes per splice point —
//!    in parallel, with no mutual exclusion.
//! 2. **Load-update coalescing** ([`LoadUpdate::coalesce`]): replace *n*
//!    sequential applications of the affine load update `L(x)=αx+β` with a
//!    single precomputed multiply-add `αⁿx + β(1−αⁿ)/(1−α)`.
//!
//! The supporting data structures — a slab [`Arena`] with atomic intrusive
//! next pointers and a [`SortedList`] over it — model the kernel's
//! credit-sorted run queues and are shared with the `horse-sched`
//! scheduler substrate.
//!
//! # Quick start
//!
//! ```
//! use horse_core::{Arena, LoadUpdate, MergePlan, SortedList, SpliceMode};
//!
//! // The destination run queue B and the paused sandbox's vCPU list A.
//! let mut arena = Arena::new();
//! let mut runqueue = SortedList::new();
//! for credit in [100, 300, 500] {
//!     runqueue.insert_sorted(&mut arena, credit, "running vcpu");
//! }
//! let mut merge_vcpus = SortedList::new();
//! for credit in [200, 400] {
//!     merge_vcpus.insert_sorted(&mut arena, credit, "resuming vcpu");
//! }
//!
//! // Pause time: precompute arrayB/posA and the coalesced load update.
//! let plan = MergePlan::precompute(&arena, &runqueue, merge_vcpus);
//! let load = LoadUpdate::new(0.9785, 16.0)?.coalesce(2);
//!
//! // Resume time: O(1) splice + single load update.
//! let report = plan.merge(&arena, &mut runqueue, SpliceMode::Parallel)?;
//! assert_eq!(report.merged, 2);
//! assert_eq!(runqueue.keys(&arena), vec![100, 200, 300, 400, 500]);
//! let new_load = load.apply(1000.0);
//! assert!(new_load > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod coalesce;
mod list;
mod p2sm;

pub use arena::{Arena, ArenaStats, LinkTable, NodeRef};
pub use coalesce::{CoalescedUpdate, InvalidCoefficientsError, LoadUpdate};
pub use list::{Iter, SortedList};
pub use p2sm::{
    DetachedBlock, MergePlan, MergeReport, PlanBuffers, PlanCorruption, SpliceBlock, SpliceMode,
    StagedMerge, StalePlanError,
};
