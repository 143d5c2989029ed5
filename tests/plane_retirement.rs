//! A drained fabric meeting is retired: the control plane's cost and
//! memory follow the meetings that are live, not the ones that ever
//! were.
//!
//! When a meeting's last member leaves, its record — owner included —
//! leaves the plane's one store, its owner's load count drops, and
//! nothing of it stays behind. A join naming the retired id revives it
//! like a new meeting — homed on the first request's edge, placed by
//! the plane's normal walk.
//! Every control operation here is followed by the fabric check
//! ([`Fabric::check`]): retiring and reviving must leave each edge
//! compiled as a rebuild of its rosters would be, with nothing
//! orphaned, and the books equal to the load the store records.

use scallop::core::capacity::{AdmissionDecision, FabricBudgets};
use scallop::core::controller::{GlobalMeetingId, GlobalParticipantId, JoinOutcome, JoinRequest};
use scallop::core::fabric::Fabric;
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::rng::DetRng;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::flashcrowd::{flash_crowd, webinar};
use std::net::Ipv4Addr;

const EDGES: usize = 4;

fn world(shards: usize) -> (Simulator, Fabric, ShardedControlPlane) {
    let mut sim = Simulator::new(0x5EED);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(EDGES, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut plane = ShardedControlPlane::new(shards);
    plane.set_capacity_budgets(FabricBudgets::from_model(), &fabric.topology);
    (sim, fabric, plane)
}

fn addr(crowd: u8, k: usize) -> HostAddr {
    HostAddr::new(
        Ipv4Addr::new(10, 8 + crowd, (k / 200) as u8, (k % 200) as u8 + 1),
        5000,
    )
}

/// A join is a burst of one.
fn join(
    sim: &mut Simulator,
    fabric: &Fabric,
    plane: &mut ShardedControlPlane,
    gmid: GlobalMeetingId,
    (edge, addr, sends): (usize, HostAddr, bool),
) -> JoinOutcome {
    let outcome = plane.join(sim, fabric, gmid, &[JoinRequest { edge, addr, sends }])[0];
    fabric.check(sim, plane).unwrap();
    outcome
}

/// Hang up, then check.
fn leave(
    sim: &mut Simulator,
    fabric: &Fabric,
    plane: &mut ShardedControlPlane,
    gmid: GlobalMeetingId,
    global: GlobalParticipantId,
) {
    plane.leave_fabric(sim, fabric, gmid, global);
    fabric.check(sim, plane).unwrap();
}

/// One cycle: create → flash crowd join by join → rebalance → webinar
/// as one burst → everyone leaves in shuffled order. Returns the two
/// meeting ids, both drained.
fn cycle(
    sim: &mut Simulator,
    fabric: &Fabric,
    plane: &mut ShardedControlPlane,
    rng: &mut DetRng,
) -> [GlobalMeetingId; 2] {
    let storm = flash_crowd(EDGES, 3, 29);
    let audience = webinar(EDGES, 24);
    let mut members = Vec::new();

    let g_storm = plane.create_fabric_meeting(sim, fabric, storm[0].edge);
    fabric.check(sim, plane).unwrap();
    for (k, j) in storm.iter().enumerate() {
        let o = join(sim, fabric, plane, g_storm, (j.edge, addr(0, k), j.sends));
        assert_eq!(o.decision, AdmissionDecision::Admitted);
        members.push((g_storm, o.grant.expect("admitted").global));
    }
    plane.rebalance_fabric(sim, fabric, g_storm);
    fabric.check(sim, plane).unwrap();

    let g_web = plane.create_fabric_meeting(sim, fabric, audience[0].edge);
    fabric.check(sim, plane).unwrap();
    let joins: Vec<JoinRequest> = audience
        .iter()
        .enumerate()
        .map(|(k, j)| JoinRequest {
            edge: j.edge,
            addr: addr(1, k),
            sends: j.sends,
        })
        .collect();
    let outcomes = plane.join(sim, fabric, g_web, &joins);
    fabric.check(sim, plane).unwrap();
    members.extend(
        outcomes
            .iter()
            .map(|o| (g_web, o.grant.expect("admitted").global)),
    );

    for i in (1..members.len()).rev() {
        members.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
    }
    for (gmid, global) in members {
        leave(sim, fabric, plane, gmid, global);
    }
    [g_storm, g_web]
}

/// Nothing of `gmid` is left in any live map of the plane.
fn assert_retired(plane: &ShardedControlPlane, gmid: GlobalMeetingId) {
    assert_eq!(plane.owner_of(gmid), None, "meeting {gmid} still owned");
    assert!(
        plane.meeting(gmid).is_none(),
        "meeting {gmid} keeps a record"
    );
}

fn cycles_leave_nothing_behind(shards: usize) {
    let (mut sim, fabric, mut plane) = world(shards);
    let mut rng = DetRng::new(7);
    let mut retired = Vec::new();
    for _ in 0..12 {
        retired.extend(cycle(&mut sim, &fabric, &mut plane, &mut rng));
        // The live maps are after every cycle what they were after the
        // first: empty.
        assert_eq!(plane.meetings_per_shard(), vec![0; shards]);
        assert!(plane.ledger().reconciled());
    }
    for &gmid in &retired {
        assert_retired(&plane, gmid);
    }
    for e in 0..EDGES {
        let sw = fabric.edge_mut(&mut sim, e);
        assert_eq!(sw.agent.ports_in_use(), 0, "edge {e}");
        assert_eq!(sw.agent.meetings_tracked(), 0, "edge {e}");
    }
}

#[test]
fn cycles_leave_nothing_behind_unsharded() {
    cycles_leave_nothing_behind(1);
}

#[test]
fn cycles_leave_nothing_behind_on_four_shards() {
    cycles_leave_nothing_behind(4);
}

fn rejoin_revives_where_the_plane_would_place_it(shards: usize) {
    let (mut sim, fabric, mut plane) = world(shards);
    // Other live meetings, so the bounded-loads walk has loads to weigh.
    for home in 0..EDGES {
        plane.create_fabric_meeting(&mut sim, &fabric, home);
    }
    let home = 2;
    let gmid = plane.create_fabric_meeting(&mut sim, &fabric, home);
    let a = join(
        &mut sim,
        &fabric,
        &mut plane,
        gmid,
        (home, addr(0, 0), true),
    )
    .grant
    .unwrap();
    let b = join(&mut sim, &fabric, &mut plane, gmid, (0, addr(0, 1), false))
        .grant
        .unwrap();
    leave(&mut sim, &fabric, &mut plane, gmid, a.global);
    leave(&mut sim, &fabric, &mut plane, gmid, b.global);
    assert_retired(&plane, gmid);
    let live: usize = plane.meetings_per_shard().iter().sum();
    assert_eq!(live, EDGES);

    let planned = plane.planned_owner(gmid, 1);
    let JoinOutcome { decision, grant } =
        join(&mut sim, &fabric, &mut plane, gmid, (1, addr(0, 2), true));
    assert_eq!(decision, AdmissionDecision::Admitted);
    assert_eq!(plane.owner_of(gmid), Some(planned));
    assert_eq!(
        plane.home_edge_of(gmid),
        Some(1),
        "revived on its first request's edge"
    );
    assert_eq!(
        plane.fabric_members(gmid),
        vec![grant.expect("admitted").global]
    );
    let live: usize = plane.meetings_per_shard().iter().sum();
    assert_eq!(live, EDGES + 1);
}

#[test]
fn rejoin_revives_where_the_plane_would_place_it_unsharded() {
    rejoin_revives_where_the_plane_would_place_it(1);
}

#[test]
fn rejoin_revives_where_the_plane_would_place_it_on_four_shards() {
    rejoin_revives_where_the_plane_would_place_it(4);
}

#[test]
fn a_refused_revival_stays_retired() {
    let (mut sim, fabric, mut plane) = world(4);
    let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 1);
    let a = join(&mut sim, &fabric, &mut plane, gmid, (1, addr(0, 0), true))
        .grant
        .unwrap();
    leave(&mut sim, &fabric, &mut plane, gmid, a.global);
    assert_retired(&plane, gmid);

    // No port may be booked any more: the rejoin is refused, and the
    // meeting it named must be as retired as before it asked — singly
    // or as a burst.
    let mut none = FabricBudgets::from_model();
    none.edge_ports = Some(0);
    plane.set_capacity_budgets(none, &fabric.topology);
    let burst: Vec<JoinRequest> = (1..4)
        .map(|k| JoinRequest {
            edge: k,
            addr: addr(0, k),
            sends: k == 1,
        })
        .collect();
    for reqs in [&burst[..1], &burst[..]] {
        for o in plane.join(&mut sim, &fabric, gmid, reqs) {
            assert!(matches!(o.decision, AdmissionDecision::Refused(_)));
            assert!(o.grant.is_none());
        }
        fabric.check(&mut sim, &plane).unwrap();
        assert_retired(&plane, gmid);
        assert_eq!(plane.meetings_per_shard(), vec![0; 4]);
    }

    // Budgets back: the same id revives on its first request's edge,
    // and the refusals consumed no participant id.
    plane.set_capacity_budgets(FabricBudgets::from_model(), &fabric.topology);
    let b = join(&mut sim, &fabric, &mut plane, gmid, (2, addr(0, 4), false));
    assert_eq!(b.decision, AdmissionDecision::Admitted);
    assert_eq!(b.grant.unwrap().global, a.global + 1);
    assert_eq!(plane.home_edge_of(gmid), Some(2));
}

#[test]
#[should_panic(expected = "fabric meeting")]
fn a_join_naming_an_id_never_issued_panics() {
    let (mut sim, fabric, mut plane) = world(4);
    let never = plane.create_fabric_meeting(&mut sim, &fabric, 1) + 1;
    join(&mut sim, &fabric, &mut plane, never, (1, addr(0, 0), true));
}
