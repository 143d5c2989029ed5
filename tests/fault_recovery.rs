//! Fault-tolerance integration tests: the fabric under fail-stop
//! failures — core relay crashes, trunk link cuts, and controller-shard
//! silence (ARCHITECTURE.md "Failure domains").
//!
//! Each scenario follows the same arc the `bench::fault` gate measures:
//! a healthy warm-up, a deterministic failure at a chosen instant, a
//! visible impact window (media blackholes — break-before-make is
//! forced by a crash), the control-plane repair pass, and a recovery
//! check back above the fabric floor (25 fps) with zero stranded
//! meetings.

use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::netsim::time::SimDuration;

/// A 2-edge campus with `cores` core relays: participants round-robin
/// onto edges 0 and 1, so the cross-edge pair (P0 → P1) always rides a
/// trunk.
fn campus(cores: usize, seed: u64) -> ScallopHarness {
    ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .switches(2)
            .cores(cores)
            .seed(seed),
    )
}

fn cross_edge_fps(h: &mut ScallopHarness, window_secs: u64) -> f64 {
    h.fps_between(0, 1, SimDuration::from_secs(window_secs))
        .unwrap_or(0.0)
}

#[test]
fn core_kill_blackholes_then_recovers_after_repair() {
    let mut h = campus(2, 0xFA210);
    h.run_for_secs(3.0);
    assert!(cross_edge_fps(&mut h, 2) > 24.0, "healthy before the kill");

    // Kill the core carrying the 0↔1 trunk. Its relay counters freeze
    // at the crash and the cross-edge stream blackholes.
    let victim = h.fabric.topology.core_between(0, 1).expect("trunk core");
    let frozen = h.core_stats(victim).relayed_bytes;
    assert!(frozen > 0, "the victim core was carrying trunk media");
    h.kill_core(victim);
    assert_eq!(h.fabric.dead_cores(&h.sim), vec![victim]);
    h.run_for_secs(2.0);
    assert!(
        cross_edge_fps(&mut h, 1) < 5.0,
        "trunk media must blackhole while the core is down"
    );
    assert_eq!(
        h.core_stats(victim).relayed_bytes,
        frozen,
        "a dead core's counters freeze"
    );
    assert!(
        h.sim.stats.packets_failstopped > 0,
        "packets toward the dead core are accounted as fail-stopped"
    );

    // Repair: every affected branch re-aims at the surviving core, and
    // a second pass finds nothing left to move.
    let repaired = h.repair_trunks();
    assert!(repaired > 0, "the repair pass must re-aim trunk branches");
    assert_eq!(h.repair_trunks(), 0, "the pass is idempotent by count");
    h.run_for_secs(3.0);
    assert!(
        cross_edge_fps(&mut h, 2) > 24.0,
        "cross-edge stream recovers over the surviving core"
    );
    assert_eq!(
        h.core_stats(victim).relayed_bytes,
        frozen,
        "recovered traffic avoids the dead core"
    );
    // No meeting was stranded: the roster and home survived intact.
    assert_eq!(h.controller.fabric_members(h.fabric_meeting).len(), 4);

    // The core comes back: the same pass returns the branches to their
    // preferred core, which relays again.
    h.revive_core(victim);
    assert_eq!(h.repair_trunks(), repaired, "every branch moves back");
    h.run_for_secs(2.0);
    assert!(cross_edge_fps(&mut h, 1) > 24.0);
    assert!(
        h.core_stats(victim).relayed_bytes > frozen,
        "the revived core carries the trunk again"
    );
}

#[test]
fn trunk_cut_fails_over_to_the_alternate_core() {
    let mut h = campus(2, 0xFA211);
    h.run_for_secs(3.0);
    assert!(cross_edge_fps(&mut h, 2) > 24.0, "healthy before the cut");

    // Cut edge 0's link to the trunk-carrying core: both directions of
    // the 0↔1 media die (each rides that edge↔core pair somewhere).
    let core = h.fabric.topology.core_between(0, 1).expect("trunk core");
    h.cut_trunk(0, core);
    h.run_for_secs(2.0);
    assert!(
        cross_edge_fps(&mut h, 1) < 5.0,
        "trunk media must blackhole while the link is cut"
    );

    // Failover: only branches touching the cut edge re-aim; they land
    // on the alternate core, which starts relaying.
    let alternate = 1 - core;
    let alt_before = h.core_stats(alternate).relayed_bytes;
    let repaired = h.repair_trunks();
    assert!(repaired > 0, "the failover pass must re-aim trunk branches");
    assert_eq!(h.repair_trunks(), 0, "the pass is idempotent by count");
    h.run_for_secs(3.0);
    assert!(
        cross_edge_fps(&mut h, 2) > 24.0,
        "cross-edge stream recovers over the alternate core"
    );
    assert!(
        h.core_stats(alternate).relayed_bytes > alt_before,
        "failed-over media rides the alternate core"
    );

    // The link comes back: the same pass returns the moved branches to
    // their preferred core, which relays again.
    let preferred_before = h.core_stats(core).relayed_bytes;
    h.restore_trunk(0, core);
    assert_eq!(h.repair_trunks(), repaired, "every branch moves back");
    assert_eq!(h.repair_trunks(), 0, "the pass is idempotent by count");
    h.run_for_secs(2.0);
    assert!(cross_edge_fps(&mut h, 1) > 25.0);
    assert!(
        h.core_stats(core).relayed_bytes > preferred_before,
        "the restored link carries the trunk again"
    );
}

#[test]
fn coreless_fallback_survives_total_core_loss() {
    // One core only: killing it leaves no alternate, so the repair
    // falls back to direct edge-to-edge trunk addressing.
    let mut h = campus(1, 0xFA212);
    h.run_for_secs(3.0);
    assert!(cross_edge_fps(&mut h, 2) > 24.0);
    h.kill_core(0);
    h.run_for_secs(1.5);
    assert!(cross_edge_fps(&mut h, 1) < 5.0);
    let repaired = h.repair_trunks();
    assert!(repaired > 0);
    assert_eq!(h.repair_trunks(), 0, "the pass is idempotent by count");
    h.run_for_secs(3.0);
    assert!(
        cross_edge_fps(&mut h, 2) > 24.0,
        "direct edge addressing carries the trunk when no core survives"
    );
}

#[test]
fn sender_joining_after_a_repaired_core_kill_avoids_the_dead_core() {
    let mut h = campus(2, 0xFA215);
    h.run_for_secs(2.0);
    let victim = h.fabric.topology.core_between(0, 1).expect("trunk core");
    h.kill_core(victim);
    let frozen = h.core_stats(victim).relayed_bytes;
    assert!(h.repair_trunks() > 0);
    // The core is still down when a new sender joins edge 0: its fresh
    // trunk branch must be aimed by the rule the repair used, not at
    // the pair's preferred (dead) core.
    let late = h.join_late(0, true);
    h.run_for_secs(3.0);
    assert!(
        h.fps_between(late, 1, SimDuration::from_secs(2))
            .unwrap_or(0.0)
            > 24.0,
        "a post-repair sender reaches the remote edge"
    );
    assert_eq!(
        h.core_stats(victim).relayed_bytes,
        frozen,
        "nothing was aimed at the dead core"
    );
}

#[test]
fn successive_failures_compose_down_to_direct_addressing() {
    let mut h = campus(2, 0xFA216);
    h.run_for_secs(2.0);
    let core = h.fabric.topology.core_between(0, 1).expect("trunk core");
    h.cut_trunk(0, core);
    assert!(h.repair_trunks() > 0, "failover to the alternate core");
    // Now the alternate dies too. The cut is still in force, so no
    // core is usable for the pair: the second repair must see both
    // failures at once and fall back to direct edge addressing.
    h.kill_core(1 - core);
    assert!(
        h.repair_trunks() > 0,
        "the second failure re-aims the branches the first one moved"
    );
    h.run_for_secs(3.0);
    assert!(
        cross_edge_fps(&mut h, 2) > 24.0,
        "direct edge addressing carries the trunk once no core is usable"
    );
}

#[test]
fn shard_silence_steals_ownership_and_fences_the_resurrected_owner() {
    // Explicit shard count: the liveness protocol needs a live peer to
    // steal, whatever SCALLOP_SHARDS says.
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .switches(2)
            .cores(1)
            .shards(3)
            .seed(0xFA213),
    );
    h.run_for_secs(2.0);
    let owner = h.shard_of_meeting();

    // The owner goes silent. Media is control-plane-independent, so
    // the call is unaffected while the lease drains.
    h.controller.silence_shard(owner);
    for _ in 0..scallop::core::shard::LEASE_TICKS {
        h.controller.tick_leases();
        h.run_for_secs(0.5);
    }
    assert!(
        cross_edge_fps(&mut h, 1) > 24.0,
        "media ignores shard death"
    );

    // Lease expired: a live peer steals the meeting under a bumped
    // epoch, and the meeting is fully operable through the thief.
    assert_eq!(h.controller.steal_expired_leases(), 1);
    let thief = h.shard_of_meeting();
    assert_ne!(thief, owner, "a live peer must own the meeting now");
    assert!(!h.controller.shard_is_silent(thief));
    assert_eq!(h.controller.meeting_epoch(h.fabric_meeting), Some(2));
    assert_eq!(h.controller.lease_steal_total(), 1);
    let idx = h.join_late(0, false);
    h.run_for_secs(2.0);
    assert!(
        h.fps_between(1, idx, SimDuration::from_secs(1))
            .unwrap_or(0.0)
            > 24.0,
        "a post-steal join is admitted by the new owner"
    );

    // Resurrection: the stale owner's re-assertion carries the old
    // epoch, is rejected, and the shard rejoins the eligible set.
    assert_eq!(h.revive_shard(owner), 1);
    assert!(h.controller.stale_epoch_writes_rejected() >= 1);
    assert!(!h.controller.shard_is_silent(owner));
    // Re-admission is immediate: the ownership rebalance that rides
    // revival hands the meeting back to its preferred (now live) owner
    // under the stolen epoch — a cooperative handoff, no bump.
    assert_eq!(h.shard_of_meeting(), owner);
    assert_eq!(h.controller.meeting_epoch(h.fabric_meeting), Some(2));
    // Protocol accounting reconciles after the full crash/revive arc.
    assert_eq!(
        h.controller.meetings_released_total(),
        h.controller.handoff_total()
    );
    // The revived shard is re-admitted: a burst of new meetings must
    // spread onto it (the bounded-loads cap forces the spread).
    for i in 0..6 {
        h.controller
            .create_fabric_meeting(&mut h.sim, &h.fabric, i % 2);
    }
    assert!(
        h.controller.meetings_per_shard()[owner] > 0,
        "revived shard wins new meetings again"
    );
    h.run_for_secs(1.0);
    assert!(cross_edge_fps(&mut h, 1) > 24.0, "media healthy end to end");
}

#[test]
fn edge_death_evacuates_and_the_meeting_survives() {
    let mut h = campus(1, 0xFA214);
    h.run_for_secs(2.0);
    // Kill edge 1 (P1 and P3 crash with it) and evacuate.
    h.kill_edge(1);
    let dropped = h.evacuate_edge(1);
    assert_eq!(dropped, 2, "both edge-1 members crash with their switch");
    let members = h.controller.fabric_members(h.fabric_meeting);
    assert_eq!(members.len(), 2, "edge-0 members survive");
    assert_eq!(h.home_edge(), 0, "home stays on the surviving edge");
    assert_eq!(
        h.controller.segment_of(h.fabric_meeting, 1),
        None,
        "the dead edge's segment is collected from the bookkeeping"
    );
    // The survivors keep talking on their own edge.
    h.run_for_secs(3.0);
    assert!(
        h.fps_between(0, 2, SimDuration::from_secs(2))
            .unwrap_or(0.0)
            > 24.0,
        "co-located survivors are unaffected"
    );
}
