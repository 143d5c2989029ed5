//! The sharded control plane keeps one meeting store: a shard holds
//! claims on meeting records, never a copy of one.
//!
//! Two consequences are pinned here. A lease steal leaves the silent
//! owner a stale *claim*, which no operation walks, so an edge failure
//! evacuates each member exactly once. And the shard count decides who
//! keeps a meeting's books and nothing else: one media-free history
//! compiles every edge identically at 1 and at 4 shards. Every control
//! operation is followed by [`Fabric::check_compiled`].

use scallop::core::capacity::FabricBudgets;
use scallop::core::controller::{GlobalMeetingId, JoinRequest};
use scallop::core::fabric::Fabric;
use scallop::core::shard::{ShardedControlPlane, LEASE_TICKS};
use scallop::dataplane::seqrewrite::SeqRewriteMode;
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

/// Every edge compiled as a rebuild of its rosters would be, with no
/// orphans — called after every control operation.
fn check(sim: &mut Simulator, fabric: &Fabric) {
    if let Err(e) = fabric.check_compiled(sim) {
        panic!("{e}");
    }
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

#[test]
fn a_stolen_meetings_members_are_evacuated_once() {
    let (mut sim, fabric) = world(Topology::campus(3, 0));
    let mut plane = ShardedControlPlane::new(2);
    let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 0);
    for edge in 0..3 {
        let req = JoinRequest {
            edge,
            addr: addr(edge),
            sends: true,
        };
        assert!(plane.join(&mut sim, &fabric, gmid, &[req])[0]
            .grant
            .is_some());
        check(&mut sim, &fabric);
    }
    let owner = plane.owner_of(gmid).expect("live");
    plane.silence_shard(owner);
    for _ in 0..LEASE_TICKS {
        plane.tick_leases();
    }
    assert_eq!(plane.steal_expired_leases(), 1);
    check(&mut sim, &fabric);

    // The silent owner still claims the meeting under epoch 1, but a
    // claim is not a copy: edge 2's one member is dropped once, with
    // one leave and one segment collection.
    sim.kill_node(fabric.edge_ids[2]);
    let before = plane.signaling_exchanges();
    assert_eq!(plane.handle_edge_failure(&mut sim, &fabric, 2), 1);
    assert_eq!(plane.signaling_exchanges() - before, 2);
    check(&mut sim, &fabric);
    assert_eq!(plane.fabric_members(gmid).len(), 2);

    assert_eq!(plane.revive_shard(owner), 1, "the stale claim is fenced");
    assert_eq!(plane.stale_epoch_writes_rejected(), 1);
    assert_eq!(plane.shard(owner).epoch_held(gmid), None);
    check(&mut sim, &fabric);
}

/// What a history leaves behind that must not depend on the shard
/// count.
struct Outcome {
    /// `Debug` dump of each live edge's data plane.
    dataplanes: Vec<String>,
    /// `Debug` dump of the load ledger (books and admission counts).
    ledger: String,
    /// Signaling exchanges, less the one per claim taken over or given
    /// up — claims move only between shards.
    signaling_net_of_claims: u64,
    /// Every meeting's roster.
    rosters: Vec<Vec<u32>>,
}

const EDGES: usize = 4;
const DEAD_EDGE: usize = 3;

/// One media-free history on a 4-edge, 2-core campus with the ledger
/// armed: creates homed on every edge with a join burst each, drift and
/// `rebalance_all`, silence → steal → revive → `rebalance_ownership`, a
/// core kill and `repair_trunks`, an edge kill and
/// `handle_edge_failure`, then joins after the failure.
fn history(shards: usize) -> (Outcome, ShardedControlPlane) {
    let (mut sim, fabric) = world(Topology::campus(EDGES, 2));
    let mut plane = ShardedControlPlane::new(shards);
    plane.set_capacity_budgets(FabricBudgets::from_model(), &fabric.topology);
    let mut clients = 0usize;

    let mut meetings: Vec<GlobalMeetingId> = Vec::new();
    for k in 0..2 * EDGES {
        let home = k % EDGES;
        let gmid = plane.create_fabric_meeting(&mut sim, &fabric, home);
        check(&mut sim, &fabric);
        let crowd = flash_crowd(EDGES, 2, 4 + k);
        let reqs = burst(
            &mut clients,
            crowd.iter().map(|j| ((j.edge + home) % EDGES, j.sends)),
        );
        plane.join(&mut sim, &fabric, gmid, &reqs);
        check(&mut sim, &fabric);
        meetings.push(gmid);
    }
    // Drift: every other meeting gains a decisive majority one edge
    // over, so the pass re-homes it.
    for (k, &gmid) in meetings.iter().enumerate().filter(|(k, _)| k % 2 == 1) {
        let to = (k % EDGES + 1) % EDGES;
        let reqs = burst(&mut clients, (0..6).map(|i| (to, i == 0)));
        plane.join(&mut sim, &fabric, gmid, &reqs);
        check(&mut sim, &fabric);
    }
    assert!(plane.rebalance_all(&mut sim, &fabric).rehomed > 0);
    check(&mut sim, &fabric);

    // A shard goes silent; its meetings are stolen (on one shard there
    // is no peer to steal them), joined while it is away, and fenced
    // and re-spread when it comes back.
    let victim = plane.owner_of(meetings[0]).expect("live");
    plane.silence_shard(victim);
    for _ in 0..LEASE_TICKS {
        plane.tick_leases();
    }
    plane.steal_expired_leases();
    check(&mut sim, &fabric);
    let reqs = burst(&mut clients, [(1, true), (2, false)]);
    plane.join(&mut sim, &fabric, meetings[0], &reqs);
    check(&mut sim, &fabric);
    plane.revive_shard(victim);
    check(&mut sim, &fabric);
    plane.rebalance_ownership();
    check(&mut sim, &fabric);

    sim.kill_node(fabric.core_ids[0]);
    assert!(plane.repair_trunks(&mut sim, &fabric) > 0);
    check(&mut sim, &fabric);

    sim.kill_node(fabric.edge_ids[DEAD_EDGE]);
    assert!(plane.handle_edge_failure(&mut sim, &fabric, DEAD_EDGE) > 0);
    check(&mut sim, &fabric);

    for (k, &gmid) in meetings.iter().enumerate() {
        let reqs = burst(
            &mut clients,
            [(k % DEAD_EDGE, true), ((k + 1) % DEAD_EDGE, false)],
        );
        plane.join(&mut sim, &fabric, gmid, &reqs);
        check(&mut sim, &fabric);
    }

    let outcome = Outcome {
        dataplanes: (0..EDGES)
            .filter(|&e| e != DEAD_EDGE)
            .map(|e| format!("{:?}", fabric.edge_mut(&mut sim, e).dp))
            .collect(),
        ledger: format!("{:?}", plane.ledger()),
        signaling_net_of_claims: plane.signaling_exchanges()
            - plane.handoff_total()
            - plane.meetings_released_total(),
        rosters: meetings.iter().map(|&g| plane.fabric_members(g)).collect(),
    };
    (outcome, plane)
}

#[test]
fn one_history_compiles_identically_at_one_and_four_shards() {
    let (one, plane1) = history(1);
    let (four, plane4) = history(4);
    // The four-shard run did move claims and forward joins; the
    // one-shard run cannot.
    assert_eq!((plane1.forward_total(), plane1.handoff_total()), (0, 0));
    assert!(plane4.forward_total() > 0);
    assert!(plane4.handoff_total() > 0);
    assert!(plane4.lease_steal_total() > 0);
    assert_eq!(
        plane4.stale_epoch_writes_rejected(),
        plane4.lease_steal_total()
    );

    for (e, (a, b)) in one.dataplanes.iter().zip(&four.dataplanes).enumerate() {
        assert!(a == b, "live edge {e}'s data plane differs");
    }
    assert!(one.ledger == four.ledger, "the ledgers differ");
    assert_eq!(one.signaling_net_of_claims, four.signaling_net_of_claims);
    assert_eq!(one.rosters, four.rosters);
}
