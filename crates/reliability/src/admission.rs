//! Admission control / load shedding at cluster ingress.
//!
//! Two gates run before a request touches any host:
//!
//! * **Capacity** — a fixed pool of inflight slots. Background traffic
//!   may use at most `max_inflight − ull_reserve` of them; the reserve
//!   is capacity only uLL-class requests can claim, so a background
//!   storm can never starve the HORSE fast path.
//! * **Deadline feasibility** — a request whose budget is already below
//!   the caller-supplied floor (the cheapest possible service time for
//!   its function) is shed at the door instead of burning a slot on a
//!   guaranteed miss.
//!
//! Slots are released through an RAII guard so every admission is paired
//! with exactly one release on every exit path — the conservation
//! invariant depends on it.

use crate::deadline::RequestClass;
use std::sync::atomic::{AtomicU64, Ordering};

/// Admission tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Total inflight slots across both classes.
    pub max_inflight: u64,
    /// Slots only uLL-class requests may claim (must be ≤
    /// `max_inflight`; clamped at evaluation time).
    pub ull_reserve: u64,
}

impl Default for AdmissionConfig {
    /// 32 slots, 8 reserved for uLL.
    fn default() -> Self {
        Self {
            max_inflight: 32,
            ull_reserve: 8,
        }
    }
}

/// Why a request was shed at ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// All inflight slots are taken.
    QueueFull,
    /// Only reserved-for-uLL slots remain and the request is background
    /// class.
    ReservedForUll,
    /// The deadline budget is below the cheapest feasible service time —
    /// admitting it could only produce a deadline miss.
    DeadlineInfeasible,
    /// Every candidate host's breaker is open for this function; nothing
    /// can serve it right now.
    BreakersOpen,
}

impl ShedReason {
    /// Every reason, in gate order.
    pub const ALL: [ShedReason; 4] = [
        ShedReason::QueueFull,
        ShedReason::ReservedForUll,
        ShedReason::DeadlineInfeasible,
        ShedReason::BreakersOpen,
    ];

    /// Export label.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::ReservedForUll => "reserved_for_ull",
            ShedReason::DeadlineInfeasible => "deadline_infeasible",
            ShedReason::BreakersOpen => "breakers_open",
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The ingress admission controller: lock-free slot accounting plus the
/// deadline-feasibility gate.
///
/// Two counters: total inflight (capped at `max_inflight` for everyone)
/// and background inflight (capped at `max_inflight − ull_reserve`).
/// uLL traffic occupying slots never shrinks background's own cap — the
/// reserve only *reserves*, so the two classes interfere as little as
/// the math allows.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    total: AtomicU64,
    background: AtomicU64,
}

/// RAII inflight-slot guard: dropping it releases the slot. Exactly one
/// guard exists per admitted request, on every exit path. It borrows
/// the controller that admitted it.
#[derive(Debug)]
pub struct AdmissionSlot<'a> {
    controller: &'a AdmissionController,
    /// Whether the slot also counts against the background cap.
    background: bool,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        if self.background {
            self.controller.background.fetch_sub(1, Ordering::AcqRel);
        }
        self.controller.total.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An [`AdmissionSlot`] detached from its borrow of the controller, so
/// a batch can keep the slots it holds in storage that outlives the
/// call (reused buffers). It still *is* the slot: hand it back through
/// [`AdmissionController::unpark`], or the slot stays occupied.
#[derive(Debug)]
#[must_use = "a parked slot stays occupied until it is unparked and dropped"]
pub struct ParkedSlot {
    background: bool,
}

impl AdmissionSlot<'_> {
    /// Detaches the slot from its controller without releasing it.
    pub fn park(self) -> ParkedSlot {
        let parked = ParkedSlot {
            background: self.background,
        };
        std::mem::forget(self);
        parked
    }
}

/// CAS-increments `counter` while it stays below `limit`; false when the
/// limit was already reached.
fn try_acquire(counter: &AtomicU64, limit: u64) -> bool {
    let mut current = counter.load(Ordering::Acquire);
    loop {
        if current >= limit {
            return false;
        }
        match counter.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

impl AdmissionController {
    /// A controller with the given slot configuration.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            total: AtomicU64::new(0),
            background: AtomicU64::new(0),
        }
    }

    /// Inflight requests right now (both classes).
    pub fn inflight(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// The slot configuration.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Tries to admit a request. `feasibility_floor_ns` is the cheapest
    /// possible service time for the function (0 disables the gate);
    /// `budget_ns` is the request's deadline budget (`None` = no
    /// deadline). On success the returned guard holds the slot until
    /// dropped.
    pub fn admit(
        &self,
        class: RequestClass,
        budget_ns: Option<u64>,
        feasibility_floor_ns: u64,
    ) -> Result<AdmissionSlot<'_>, ShedReason> {
        if let Some(budget) = budget_ns {
            if budget < feasibility_floor_ns {
                return Err(ShedReason::DeadlineInfeasible);
            }
        }
        let background = class == RequestClass::Background;
        if background {
            let bg_limit = self
                .cfg
                .max_inflight
                .saturating_sub(self.cfg.ull_reserve.min(self.cfg.max_inflight));
            if !try_acquire(&self.background, bg_limit) {
                return Err(ShedReason::ReservedForUll);
            }
        }
        if !try_acquire(&self.total, self.cfg.max_inflight) {
            if background {
                self.background.fetch_sub(1, Ordering::AcqRel);
            }
            return Err(ShedReason::QueueFull);
        }
        Ok(AdmissionSlot {
            controller: self,
            background,
        })
    }

    /// Re-attaches a slot this controller admitted and the caller
    /// [`park`](AdmissionSlot::park)ed.
    pub fn unpark(&self, parked: ParkedSlot) -> AdmissionSlot<'_> {
        AdmissionSlot {
            controller: self,
            background: parked.background,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_protects_ull_capacity() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 4,
            ull_reserve: 2,
        });
        // Background may take only max_inflight - reserve = 2 slots.
        let b1 = ctl.admit(RequestClass::Background, None, 0).unwrap();
        let _b2 = ctl.admit(RequestClass::Background, None, 0).unwrap();
        assert_eq!(
            ctl.admit(RequestClass::Background, None, 0).unwrap_err(),
            ShedReason::ReservedForUll
        );
        // uLL can still claim the reserved slots.
        let _u1 = ctl.admit(RequestClass::Ull, None, 0).unwrap();
        let _u2 = ctl.admit(RequestClass::Ull, None, 0).unwrap();
        assert_eq!(
            ctl.admit(RequestClass::Ull, None, 0).unwrap_err(),
            ShedReason::QueueFull
        );
        assert_eq!(ctl.inflight(), 4);
        // Releasing a background slot reopens background admission.
        drop(b1);
        assert_eq!(ctl.inflight(), 3);
        assert!(ctl.admit(RequestClass::Background, None, 0).is_ok());
    }

    #[test]
    fn infeasible_deadlines_shed_at_the_door() {
        let ctl = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(
            ctl.admit(RequestClass::Ull, Some(999), 1_000).unwrap_err(),
            ShedReason::DeadlineInfeasible
        );
        assert_eq!(ctl.inflight(), 0, "an infeasible request burns no slot");
        assert!(ctl.admit(RequestClass::Ull, Some(1_000), 1_000).is_ok());
        assert!(
            ctl.admit(RequestClass::Ull, None, 1_000).is_ok(),
            "no deadline = no gate"
        );
    }

    #[test]
    fn every_guard_drop_releases_exactly_one_slot() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 8,
            ull_reserve: 0,
        });
        let slots: Vec<_> = (0..8)
            .map(|_| ctl.admit(RequestClass::Background, None, 0).unwrap())
            .collect();
        assert_eq!(ctl.inflight(), 8);
        drop(slots);
        assert_eq!(ctl.inflight(), 0);
    }

    #[test]
    fn a_parked_slot_stays_held_until_unparked_and_dropped() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_inflight: 2,
            ull_reserve: 1,
        });
        let parked = ctl.admit(RequestClass::Background, None, 0).unwrap().park();
        assert_eq!(ctl.inflight(), 1, "parking releases nothing");
        assert_eq!(
            ctl.admit(RequestClass::Background, None, 0).unwrap_err(),
            ShedReason::ReservedForUll,
            "the background cap still counts it"
        );
        drop(ctl.unpark(parked));
        assert_eq!(ctl.inflight(), 0);
        assert!(ctl.admit(RequestClass::Background, None, 0).is_ok());
    }
}
