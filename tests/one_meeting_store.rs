//! The sharded control plane keeps one meeting store: each record
//! names its owning shard, and no shard holds a copy of one.
//!
//! The consequence pinned here: the shard count decides who keeps a
//! meeting's books and nothing else, so one media-free history —
//! re-sharding included — compiles every edge identically at 1 and at
//! 4 shards: the two runs end in equal [`FabricState`]s, with the same
//! data-plane counters and ledger telemetry. Every control operation is
//! followed by the fabric check ([`Fabric::check`]).

use scallop::core::capacity::{AdmissionCounts, FabricBudgets};
use scallop::core::controller::{GlobalMeetingId, JoinRequest};
use scallop::core::fabric::{Fabric, FabricState};
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::dataplane::switch::DataPlaneCounters;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::flashcrowd::flash_crowd;
use std::net::Ipv4Addr;

fn world(topology: Topology) -> (Simulator, Fabric) {
    let mut sim = Simulator::new(0xD1FF);
    let fabric = Fabric::build(
        &mut sim,
        topology,
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    (sim, fabric)
}

/// The `k`-th distinct client address of a history.
fn addr(k: usize) -> HostAddr {
    HostAddr::new(
        Ipv4Addr::new(10, 7, (k / 200) as u8, (k % 200) as u8 + 1),
        5000,
    )
}

/// Join requests for `(edge, sends)` pairs, each from a client address
/// not used before (`clients` counts them).
fn burst(clients: &mut usize, joins: impl IntoIterator<Item = (usize, bool)>) -> Vec<JoinRequest> {
    joins
        .into_iter()
        .map(|(edge, sends)| {
            *clients += 1;
            JoinRequest {
                edge,
                addr: addr(*clients),
                sends,
            }
        })
        .collect()
}

/// What a history leaves behind that must not depend on the shard
/// count.
struct Outcome {
    /// Every edge's tables and the ledger's books.
    state: FabricState,
    /// Each live edge's data-plane counters: a rebuild cannot reproduce
    /// them, but an extra compile on one shard count would move them.
    counters: Vec<DataPlaneCounters>,
    /// The ledger's admission counts, debits and credits.
    ledger: (AdmissionCounts, u64, u64),
    /// Signaling exchanges, less the one per claim taken over or given
    /// up — claims move only between shards.
    signaling_net_of_claims: u64,
    /// Joins forwarded before the re-shard leg: none on one shard.
    forwards_before_reshard: u64,
    /// Every meeting's roster.
    rosters: Vec<Vec<u32>>,
}

const EDGES: usize = 4;
const DEAD_EDGE: usize = 3;

/// One media-free history on a 4-edge, 2-core campus with the ledger
/// armed: creates homed on every edge with a join burst each, drift and
/// `rebalance_all`, a re-shard that grows the ring by one shard and
/// joins through it before shrinking it back, a core kill and
/// `repair_trunks`, an edge kill and `handle_edge_failure`, then joins
/// after the failure.
fn history(shards: usize) -> (Outcome, ShardedControlPlane) {
    let (mut sim, fabric) = world(Topology::campus(EDGES, 2));
    let mut plane = ShardedControlPlane::new(shards);
    plane.set_capacity_budgets(FabricBudgets::from_model(), &fabric.topology);
    let mut clients = 0usize;

    let mut meetings: Vec<GlobalMeetingId> = Vec::new();
    for k in 0..2 * EDGES {
        let home = k % EDGES;
        let gmid = plane.create_fabric_meeting(&mut sim, &fabric, home);
        fabric.check(&mut sim, &plane).unwrap();
        let crowd = flash_crowd(EDGES, 2, 4 + k);
        let reqs = burst(
            &mut clients,
            crowd.iter().map(|j| ((j.edge + home) % EDGES, j.sends)),
        );
        plane.join(&mut sim, &fabric, gmid, &reqs);
        fabric.check(&mut sim, &plane).unwrap();
        meetings.push(gmid);
    }
    // Drift: every other meeting gains a decisive majority one edge
    // over, so the pass re-homes it.
    for (k, &gmid) in meetings.iter().enumerate().filter(|(k, _)| k % 2 == 1) {
        let to = (k % EDGES + 1) % EDGES;
        let reqs = burst(&mut clients, (0..6).map(|i| (to, i == 0)));
        plane.join(&mut sim, &fabric, gmid, &reqs);
        fabric.check(&mut sim, &plane).unwrap();
    }
    assert!(plane.rebalance_all(&mut sim, &fabric).rehomed > 0);
    fabric.check(&mut sim, &plane).unwrap();

    // Re-shard: the added shard takes meetings over and executes joins
    // while it exists, then hands them back when the ring shrinks.
    let forwards_before_reshard = plane.forward_total();
    assert!(plane.set_shard_count(shards + 1) > 0);
    fabric.check(&mut sim, &plane).unwrap();
    for &gmid in &meetings {
        let reqs = burst(&mut clients, [(1, true), (2, false)]);
        plane.join(&mut sim, &fabric, gmid, &reqs);
        fabric.check(&mut sim, &plane).unwrap();
    }
    assert!(plane.set_shard_count(shards) > 0);
    fabric.check(&mut sim, &plane).unwrap();

    sim.kill_node(fabric.core_ids[0]);
    assert!(plane.repair_trunks(&mut sim, &fabric) > 0);
    fabric.check(&mut sim, &plane).unwrap();

    sim.kill_node(fabric.edge_ids[DEAD_EDGE]);
    assert!(plane.handle_edge_failure(&mut sim, &fabric, DEAD_EDGE) > 0);
    fabric.check(&mut sim, &plane).unwrap();

    for (k, &gmid) in meetings.iter().enumerate() {
        let reqs = burst(
            &mut clients,
            [(k % DEAD_EDGE, true), ((k + 1) % DEAD_EDGE, false)],
        );
        plane.join(&mut sim, &fabric, gmid, &reqs);
        fabric.check(&mut sim, &plane).unwrap();
    }

    let ledger = plane.ledger();
    let outcome = Outcome {
        state: fabric.state(&mut sim, &plane).unwrap(),
        counters: (0..EDGES)
            .filter(|&e| e != DEAD_EDGE)
            .map(|e| fabric.edge_counters(&mut sim, e))
            .collect(),
        ledger: (ledger.counts(), ledger.debits, ledger.credits),
        signaling_net_of_claims: plane.signaling_exchanges() - 2 * plane.handoff_total(),
        forwards_before_reshard,
        rosters: meetings.iter().map(|&g| plane.fabric_members(g)).collect(),
    };
    (outcome, plane)
}

#[test]
fn one_history_compiles_identically_at_one_and_four_shards() {
    let (one, plane1) = history(1);
    let (four, plane4) = history(4);
    // Before re-sharding, the four-shard run forwarded joins; the
    // one-shard run cannot. Both moved claims when they re-sharded.
    assert_eq!(one.forwards_before_reshard, 0);
    assert!(four.forwards_before_reshard > 0);
    assert!(plane1.handoff_total() > 0);
    assert!(plane4.handoff_total() > 0);
    assert_eq!((plane1.shard_count(), plane4.shard_count()), (1, 4));

    assert!(one.state == four.state, "the fabric states differ");
    assert_eq!(one.counters, four.counters, "live edges' counters");
    assert_eq!(one.ledger, four.ledger, "ledger telemetry");
    assert_eq!(one.signaling_net_of_claims, four.signaling_net_of_claims);
    assert_eq!(one.rosters, four.rosters);
}

/// A meeting whose home edge dies is re-homed by the one re-home path,
/// so its ownership follows it exactly as a rebalance's would: homed in
/// zone 0 with its survivors in zone 1, each meeting crosses the WAN,
/// and under zone-affine sharding a cross-zone re-home always hands the
/// meeting to one of the new zone's shards.
#[test]
fn a_dead_home_edge_hands_its_meetings_to_the_new_zones_shards() {
    let (mut sim, fabric) = world(Topology::federation(2, 2, 0));
    let mut plane = ShardedControlPlane::new(4).with_zone_affinity(2, 2);
    let mut clients = 0usize;
    let meetings: Vec<GlobalMeetingId> = (0..16)
        .map(|_| {
            let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 0);
            let reqs = burst(&mut clients, [(0, true), (3, false), (3, false)]);
            let out = plane.join(&mut sim, &fabric, gmid, &reqs);
            assert!(out.iter().all(|o| o.grant.is_some()));
            gmid
        })
        .collect();
    fabric.check(&mut sim, &plane).unwrap();

    sim.kill_node(fabric.edge_ids[0]);
    assert_eq!(plane.handle_edge_failure(&mut sim, &fabric, 0), 16);
    fabric.check(&mut sim, &plane).unwrap();
    let zone1 = plane.zone_shards(1);
    for &gmid in &meetings {
        assert_eq!(plane.home_edge_of(gmid), Some(3));
        let owner = plane.owner_of(gmid).expect("live");
        assert!(zone1.contains(&owner), "meeting {gmid} owned by {owner}");
        assert_eq!(owner, plane.planned_owner(gmid, 3));
    }
    assert_eq!(plane.cross_zone_handoff_total(), 16);
    assert_eq!(plane.set_shard_count(4), 0, "nothing left to move");
}
