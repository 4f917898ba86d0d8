//! The keep-alive expiry *boundary* contract, shared by every pool.
//!
//! An entry parked at `since` under `KeepAlive::Ttl(ttl)` expires
//! **strictly after** `since + ttl`:
//!
//! * at exactly `since + ttl` it is still warm (`age > ttl` is false);
//! * one nanosecond later it is expired and must never be handed out;
//! * entries stamped in the future count as age zero (clock skew
//!   between a put and a take must not evict a fresh sandbox);
//! * provisioned entries never expire.
//!
//! `ShardedWarmPool` and the `horse-check` reference model
//! (`spec_expired`) were audited to agree on this; this test pins both to
//! the same boundary so a drive-by change to either (`>` → `>=` is the
//! classic off-by-one) fails loudly instead of silently desynchronizing
//! the pool from its oracle.

use horse_check::spec_expired;
use horse_faas::{KeepAlive, ShardedWarmPool};
use horse_sched::SandboxId;
use horse_sim::{SimDuration, SimTime};

const TTL_NS: u64 = 10_000;

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// Whether a `take(now)` hits on a pool holding one entry parked at
/// `since`, for the pool and for the spec. Both answers must agree.
fn take_hits(since: SimTime, now: SimTime) -> (bool, bool) {
    let ka = KeepAlive::Ttl(SimDuration::from_nanos(TTL_NS));
    let id = SandboxId::new(1);

    let sharded = ShardedWarmPool::new(ka);
    sharded.put(id, since);
    let sharded_hit = sharded.take(now) == Some(id);

    (sharded_hit, !spec_expired(ka, since, now))
}

#[test]
fn boundary_is_strictly_greater_than_ttl() {
    let since = at(5_000);
    for (now, expect_hit, label) in [
        (since, true, "age zero"),
        (at(5_000 + TTL_NS - 1), true, "one ns inside the ttl"),
        (
            at(5_000 + TTL_NS),
            true,
            "exactly since + ttl is still warm",
        ),
        (at(5_000 + TTL_NS + 1), false, "one ns past the ttl expires"),
        (at(5_000 + 10 * TTL_NS), false, "long past the ttl"),
    ] {
        let (sharded, spec) = take_hits(since, now);
        assert_eq!(sharded, expect_hit, "ShardedWarmPool at {label}");
        assert_eq!(spec, expect_hit, "spec_expired at {label}");
    }
}

#[test]
fn future_stamps_count_as_age_zero() {
    // `since` after `now`: saturating age arithmetic, never expired.
    let (sharded, spec) = take_hits(at(50_000), at(1));
    assert!(sharded && spec, "future-stamped entries stay warm");
}

#[test]
fn eager_sweeps_share_the_take_boundary() {
    // evict_expired must use the identical strict-`>` comparison: an
    // entry at exactly since + ttl survives the sweep.
    let ka = KeepAlive::Ttl(SimDuration::from_nanos(TTL_NS));
    let id = SandboxId::new(2);
    let since = at(0);

    let sharded = ShardedWarmPool::new(ka);
    sharded.put(id, since);
    assert!(sharded.evict_expired(at(TTL_NS)).is_empty(), "still warm");
    assert_eq!(sharded.evict_expired(at(TTL_NS + 1)), vec![id]);
}

#[test]
fn provisioned_entries_never_cross_the_boundary() {
    let id = SandboxId::new(3);
    let far = at(u64::MAX / 2);

    let sharded = ShardedWarmPool::new(KeepAlive::Provisioned);
    sharded.put(id, at(0));
    assert_eq!(sharded.take(far), Some(id));

    assert!(!spec_expired(KeepAlive::Provisioned, at(0), far));
}
