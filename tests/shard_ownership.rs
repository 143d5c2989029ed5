//! Sharded control plane: ownership, handoff, and media transparency.
//!
//! The campus fabric's control plane partitions meeting ownership over
//! N controller shards (`scallop::core::shard`). This suite pins the
//! three properties that make sharding safe to deploy:
//!
//! 1. **Transparency**: sharding is control-plane bookkeeping only —
//!    the media-plane report of a run is identical for any shard
//!    count.
//! 2. **Handoff under churn**: a churn-driven re-home that crosses a
//!    shard boundary hands the meeting to the hash-chosen shard
//!    make-before-break, and cross-switch decode rates never dip below
//!    the fabric floor (25 fps) through the double cutover
//!    (home edge *and* owning shard move together).
//! 3. **Balance**: meeting ownership stays within the bounded-loads
//!    cap `ceil(meetings/shards) + 1` as meetings come and go.

use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::netsim::time::SimDuration;

/// A 4-edge + 1-core campus with a 4-shard control plane (the
/// acceptance configuration) and no initial participants.
fn campus4(shards: usize) -> ScallopHarness {
    ScallopHarness::new(
        HarnessConfig::default()
            .participants(0)
            .switches(4)
            .cores(1)
            .shards(shards)
            .seed(0x54A2D),
    )
}

#[test]
fn sharding_is_transparent_to_the_media_plane() {
    // Identical runs except for the shard count: every media-plane
    // metric must match exactly, because shards only partition control
    // bookkeeping — no switch rule or packet path depends on them.
    let run = |shards: usize| {
        let mut h = ScallopHarness::new(
            HarnessConfig::default()
                .participants(6)
                .switches(4)
                .cores(1)
                .shards(shards)
                .seed(77),
        );
        let r = h.run_for_secs(3.0);
        (
            r.media_packets_forwarded,
            r.cpu_packets,
            r.frames_decoded,
            r.freezes,
            r.trunk_packets,
        )
    };
    assert_eq!(run(1), run(4), "shard count must not perturb media");
}

#[test]
fn churn_driven_rehome_crosses_a_shard_boundary_at_full_rate() {
    let mut h = campus4(4);
    let gmid = h.fabric_meeting;
    let shard0 = h.shard_of_meeting();
    // Pick the drift target among the remote edges whose hash names a
    // different owner shard, so the re-home must carry a handoff. The
    // hash is fixed, so the pick is deterministic.
    let to = (1..4)
        .find(|&e| h.controller.planned_owner(gmid, e) != shard0)
        .expect("some edge maps to another shard");

    // Four members (two senders) start on the home edge 0.
    let s0 = h.join_late(0, true);
    let s1 = h.join_late(0, true);
    let r2 = h.join_late(0, false);
    let r3 = h.join_late(0, false);
    h.run_for_secs(3.0);
    assert_eq!(h.home_edge(), 0);

    // The population drifts to edge `to`; the first replacement sender
    // toward the last original receiver is the monitored cross-switch
    // stream that lives through the double cutover.
    let mut moved = Vec::new();
    let mut rehomes = 0usize;
    for (i, &leaver) in [s0, s1, r2].iter().enumerate() {
        h.leave(leaver);
        moved.push(h.join_late(to, i < 2));
        if h.rebalance().is_some() {
            rehomes += 1;
        }
        for _ in 0..4 {
            h.run_for_secs(0.5);
            if i >= 1 {
                let fps = h
                    .fps_between(moved[0], r3, SimDuration::from_secs(1))
                    .expect("monitored cross-switch stream");
                assert!(fps > 25.0, "fps floor broken at swap {i}: {fps}");
            }
        }
    }
    assert_eq!(rehomes, 1, "exactly the decisive majority re-homes");
    assert_eq!(h.home_edge(), to);

    // The ownership handoff rode along with the re-home.
    let shard1 = h.shard_of_meeting();
    assert_ne!(shard1, shard0, "re-home must cross the shard boundary");
    assert_eq!(
        h.controller.handoff_total(),
        1,
        "one make-before-break handoff"
    );
    assert_eq!(
        h.controller.shard(shard1).meetings_acquired,
        1,
        "the new owner acquired the meeting"
    );
    assert_eq!(
        h.controller.shard(shard0).meetings_released,
        1,
        "the old owner released it after the acquire"
    );

    // The meeting stays fully operational under its new owner: joins,
    // leaves, segment GC, and full-rate decode all work.
    h.leave(r3);
    let late = h.join_late(to, false);
    h.run_for_secs(3.0);
    let fps = h
        .fps_between(moved[0], late, SimDuration::from_secs(2))
        .expect("post-handoff stream");
    assert!(fps > 25.0, "post-handoff fps {fps}");
    assert_eq!(
        h.edge_occupancy(0).participants,
        0,
        "drained old home reclaimed through the new owner"
    );
}

#[test]
fn scatter_churn_forwards_cross_shard_joins_and_keeps_ownership_coherent() {
    use scallop::workload::churn::{ChurnEvent, ChurnPlan};

    // A meeting rotated over all four edges: joins keep landing on
    // ingress shards that do not own the meeting (forwarded to the
    // owner), and every transient-majority re-home the rotation causes
    // keeps the ownership bookkeeping coherent.
    let mut h = campus4(4);
    let gmid = h.fabric_meeting;
    let plan = ChurnPlan::scatter(4, 8, 4, h.sim.now(), SimDuration::from_secs(1));
    let mut slots: Vec<usize> = Vec::new();
    let mut rehomed_total = 0usize;
    let mut handoffs_total = 0usize;
    for &(at, ev) in &plan.events {
        while h.sim.now() < at {
            let step = SimDuration::from_millis(500).min(at.saturating_since(h.sim.now()));
            h.sim.run_for(step);
        }
        match ev {
            ChurnEvent::Join { edge, sends } => slots.push(h.join_late(edge, sends)),
            ChurnEvent::Leave { slot } => h.leave(slots[slot]),
        }
        // The all-meetings pass returns its counts; they must add up.
        let summary = h.rebalance_all();
        assert!(summary.shard_handoffs <= summary.rehomed);
        rehomed_total += summary.rehomed;
        handoffs_total += summary.shard_handoffs;
        // Ownership invariant after every event: exactly the owner
        // shard tracks the meeting.
        let owner = h.controller.owner_of(gmid).expect("meeting owned");
        let tracked: Vec<usize> = (0..4)
            .filter(|&s| h.controller.shard(s).meetings_owned() > 0)
            .collect();
        assert_eq!(tracked, vec![owner], "only the owner tracks the meeting");
    }
    h.run_for_secs(1.0);
    assert!(
        h.controller.forward_total() > 0,
        "scatter churn must drive cross-shard joins"
    );
    // Acquire/release telemetry must account for every handoff, and
    // the per-pass summaries must sum to the plane totals — the counts
    // rebalance_all returns are live, not decorative.
    let acquired: u64 = (0..4)
        .map(|s| h.controller.shard(s).meetings_acquired)
        .sum();
    let released: u64 = (0..4)
        .map(|s| h.controller.shard(s).meetings_released)
        .sum();
    assert_eq!(acquired, h.controller.handoff_total());
    assert_eq!(released, h.controller.handoff_total());
    assert_eq!(handoffs_total as u64, h.controller.handoff_total());
    assert!(rehomed_total >= handoffs_total);
    let report = h.report();
    assert!(report.frames_decoded > 500, "the meeting stays healthy");
    assert_eq!(h.controller.fabric_members(gmid).len(), 8);
}

#[test]
fn ownership_stays_balanced_as_meetings_accumulate() {
    let mut h = campus4(4);
    // The harness meeting plus 10 more, homed round-robin.
    for i in 0..10 {
        h.controller
            .create_fabric_meeting(&mut h.sim, &h.fabric, i % 4);
    }
    let counts = h.controller.meetings_per_shard();
    let total: usize = counts.iter().sum();
    assert_eq!(total, 11);
    let cap = total.div_ceil(4) + 1;
    assert!(
        counts.iter().all(|&c| c <= cap),
        "cap ceil({total}/4)+1 = {cap} violated: {counts:?}"
    );
    // Re-sharding to 5 keeps every meeting reachable and balanced.
    let moved = h.controller.set_shard_count(5);
    assert!(moved > 0, "growing must populate the new shard");
    let counts = h.controller.meetings_per_shard();
    assert_eq!(counts.iter().sum::<usize>(), 11);
    assert_eq!(counts.len(), 5);
}
