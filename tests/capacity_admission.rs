//! Capacity planner + admission control: the flash-crowd-into-a-thin-
//! trunk suite.
//!
//! The scenario is the campus failure mode the planner exists for: every
//! camera-on participant sits in one building (`hotspot_crowd`) and the
//! audience spreads over the remaining edges, so the hot edge's trunk
//! uplink is the contended line. With budgets **enforced** the suite
//! demands the three-way admission contract of
//! [`scallop::core::capacity::AdmissionDecision`]:
//!
//! * joins that fit are admitted at full rate and hold ≥ 25 fps,
//! * joins that would oversubscribe a trunk are degraded to SVC-thin —
//!   alive at the thin decode target, **not** frozen,
//! * joins that fit nowhere (even thin) are refused with a typed
//!   [`RefusalReason`] and never get a client node,
//! * no budget line is ever booked over, and the load ledger reconciles
//!   to zero once everyone hangs up.
//!
//! The same crowd submitted as **one burst** must get the same answers
//! (every request is priced against what the requests before it left
//! behind — there is no unpriced way in), and a proptest replays
//! randomized join/burst/leave/re-home/degrade histories through the
//! sharded control plane and checks the ledger invariants and every
//! edge's compiled state ([`Fabric::check_compiled`]) after every
//! single step. The REMB test pins the cross-fabric feedback
//! behavior: on a federation, where every remote edge reports to the
//! sender's home-edge sink, the min filter tracks the slowest involved
//! edge.
//!
//! Everything here honors `SCALLOP_SHARDS` — CI runs the suite plain
//! and under 4 shards.
//!
//! [`RefusalReason`]: scallop::core::capacity::RefusalReason

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use scallop::core::capacity::{
    AdmissionDecision, CapacityModel, FabricBudgets, RefusalReason, THIN_DECODE_TARGET,
};
use scallop::core::controller::{JoinOutcome, JoinRequest};
use scallop::core::fabric::Fabric;
use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::hotspot_crowd;
use std::net::Ipv4Addr;

/// Edges of the hotspot campus (senders on 0, viewers on 1..4).
const EDGES: usize = 4;
/// Camera-on participants in the hot building.
const SENDERS: usize = 2;
/// Viewers round-robined over the remote edges.
const RECEIVERS: usize = 9;
/// Trunk budget sized so the deterministic join sequence exercises all
/// three admission outcomes: the first remote segment fits full
/// (2 × 6 Mb/s), the second only thin (+ 2 × 3 Mb/s), the third not at
/// all (same sizing as the `BENCH_capacity` rows).
const TRUNK_BPS: u64 = 20_000_000;

/// Shard count under test (the same `SCALLOP_SHARDS` knob the harness
/// and the compile-equivalence suite honor).
fn shards_from_env() -> usize {
    match std::env::var("SCALLOP_SHARDS") {
        Err(_) => 1,
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("SCALLOP_SHARDS must be a positive integer, got {raw:?}"),
        },
    }
}

/// The bench budgets: model defaults with the deliberately thin trunk.
fn thin_trunk_budgets() -> FabricBudgets {
    let mut b = CapacityModel::default().fabric_budgets();
    b.trunk_bps = TRUNK_BPS;
    b
}

#[test]
fn flash_crowd_into_thin_trunk_exercises_every_admission_outcome() {
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(0)
            .switches(EDGES)
            .cores(1)
            .seed(0xADA117)
            .admission(thin_trunk_budgets()),
    );
    let mut full_viewers = Vec::new();
    let mut thin_viewers = Vec::new();
    let mut refusals = Vec::new();
    for j in hotspot_crowd(EDGES, SENDERS, RECEIVERS) {
        let (decision, idx) = h.try_join_late(j.edge, j.sends);
        // Gentle pacing: GCC needs the previous joiner's warm-up burst
        // absorbed before the next, or early REMBs down-switch layers.
        h.run_for_secs(0.5);
        if j.sends {
            assert_eq!(decision, AdmissionDecision::Admitted, "sender on hot edge");
            continue;
        }
        // The planner's answer is a pure function of the viewer's edge:
        // segment 1 (edge 1) fits full, segment 2 (edge 2) only thin,
        // segment 3 (edge 3) not even thin.
        match j.edge {
            1 => {
                assert_eq!(decision, AdmissionDecision::Admitted, "edge 1 fits full");
                full_viewers.push(idx.expect("admitted viewers get a client"));
            }
            2 => {
                assert_eq!(
                    decision,
                    AdmissionDecision::AdmittedThin,
                    "edge 2 fits only SVC-thin"
                );
                thin_viewers.push(idx.expect("thin viewers get a client"));
            }
            _ => {
                assert!(
                    matches!(
                        decision,
                        AdmissionDecision::Refused(RefusalReason::TrunkOversubscribed { .. })
                    ),
                    "edge {} must be refused on the trunk line, got {decision:?}",
                    j.edge
                );
                assert!(idx.is_none(), "refused joins must not create a client");
                refusals.push(decision);
            }
        }
        // The whole point: enforcement never books a line over budget,
        // not even transiently between joins.
        let led = h.controller.ledger();
        assert_eq!(led.oversubscribed_links(), 0);
        let out = led.trunk_out_bps(0);
        assert!(out <= TRUNK_BPS, "hot trunk booked {out} > {TRUNK_BPS}");
    }
    assert_eq!(full_viewers.len(), 3);
    assert_eq!(thin_viewers.len(), 3);
    assert_eq!(refusals.len(), 3);
    let counts = h.controller.ledger().counts();
    assert_eq!(counts.admitted_full as usize, SENDERS + full_viewers.len());
    assert_eq!(counts.admitted_thin as usize, thin_viewers.len());
    assert_eq!(counts.refused as usize, refusals.len());
    assert_eq!(counts.refused_trunk, counts.refused, "refusals are typed");

    // Let adaptation settle, then hold every admitted viewer to the
    // contract: full viewers at the fabric floor, thin viewers alive at
    // the reduced rate — degraded, never frozen.
    h.run_for_secs(3.0);
    let window = SimDuration::from_secs(1);
    for (s, label, set, lo, hi) in [
        (0usize, "full", &full_viewers, 25.0, f64::MAX),
        (0, "thin", &thin_viewers, 5.0, 25.0),
    ] {
        for &r in set.iter() {
            let fps = h.fps_between(s, r, window).expect("stream plumbed");
            assert!(
                fps >= lo && fps < hi,
                "{label} viewer {r} at {fps:.1} fps (wanted [{lo}, {hi}))"
            );
        }
    }

    // Full teardown: every debit must come back as a credit.
    for idx in 0..h.client_ids.len() {
        h.leave(idx);
    }
    h.run_for_secs(0.5);
    let led = h.controller.ledger();
    assert!(led.reconciled(), "ledger left open entries");
    assert_eq!(led.oversubscribed_links(), 0);
    let (out, inn) = (led.trunk_out_bps(0), led.trunk_in_bps(0));
    assert_eq!((out, inn), (0, 0), "trunk accounts must drain to zero");
    for e in 0..EDGES {
        assert_eq!(led.ports_used(e), 0, "edge {e} ports must drain to zero");
    }
}

#[test]
fn advisory_budgets_measure_the_oversubscription_enforcement_prevents() {
    // Identical join sequence, budgets armed for measurement only: no
    // join is refused or thinned, and the ledger shows the hot trunk
    // visibly over budget — the baseline the enforced row is judged
    // against.
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(0)
            .switches(EDGES)
            .cores(1)
            .seed(0xADA117)
            .admission(thin_trunk_budgets().advisory()),
    );
    for j in hotspot_crowd(EDGES, SENDERS, RECEIVERS) {
        let (decision, idx) = h.try_join_late(j.edge, j.sends);
        assert_eq!(
            decision,
            AdmissionDecision::Admitted,
            "advisory refuses nothing"
        );
        assert!(idx.is_some());
        h.run_for_secs(0.2);
    }
    let led = h.controller.ledger();
    let counts = led.counts();
    assert_eq!(counts.admitted_full, (SENDERS + RECEIVERS) as u64);
    assert_eq!(counts.admitted_thin, 0);
    assert_eq!(counts.refused, 0);
    assert!(led.oversubscribed_links() >= 1, "overrun must be visible");
    let out = led.trunk_out_bps(0);
    assert!(out > TRUNK_BPS, "hot trunk booked {out} <= {TRUNK_BPS}");
    // Measurement-only bookkeeping still balances on teardown.
    for idx in 0..h.client_ids.len() {
        h.leave(idx);
    }
    h.run_for_secs(0.2);
    let led = h.controller.ledger();
    assert!(led.reconciled());
    assert_eq!(led.oversubscribed_links(), 0);
}

// --------------------------------------------------------------------
// Bursts are priced request by request
// --------------------------------------------------------------------

/// The hotspot campus with `budgets` enforced and one meeting homed on
/// the hot edge.
fn hotspot_plane(budgets: FabricBudgets) -> (Simulator, Fabric, ShardedControlPlane, u32) {
    let mut sim = Simulator::new(0xB0257);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(EDGES, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut plane = ShardedControlPlane::new(shards_from_env());
    plane.set_capacity_budgets(budgets, &fabric.topology);
    let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 0);
    (sim, fabric, plane, gmid)
}

fn request(i: usize, edge: usize, sends: bool) -> JoinRequest {
    let addr = HostAddr::new(Ipv4Addr::new(10, 9, 0, i as u8 + 1), 5000);
    JoinRequest { edge, addr, sends }
}

#[test]
fn hotspot_crowd_as_one_burst_gets_the_sequential_decisions() {
    let (mut sim, fabric, mut plane, gmid) = hotspot_plane(thin_trunk_budgets());
    let burst: Vec<JoinRequest> = hotspot_crowd(EDGES, SENDERS, RECEIVERS)
        .iter()
        .enumerate()
        .map(|(i, j)| request(i, j.edge, j.sends))
        .collect();
    let outcomes = plane.join(&mut sim, &fabric, gmid, &burst);
    for (r, o) in burst.iter().zip(&outcomes) {
        // Same pure function of the edge as the join-by-join test above.
        match r.edge {
            0 | 1 => assert_eq!(o.decision, AdmissionDecision::Admitted, "edge {}", r.edge),
            2 => assert_eq!(o.decision, AdmissionDecision::AdmittedThin),
            _ => assert!(
                matches!(
                    o.decision,
                    AdmissionDecision::Refused(RefusalReason::TrunkOversubscribed { .. })
                ),
                "edge 3 must be refused on the trunk line, got {:?}",
                o.decision
            ),
        }
        assert_eq!(o.grant.is_some(), r.edge != 3, "a grant iff admitted");
    }
    assert_eq!(outcomes.iter().filter(|o| o.grant.is_some()).count(), 8);
    assert_eq!(plane.ledger().oversubscribed_links(), 0);
    let c = plane.ledger().counts();
    assert_eq!((c.admitted_full, c.admitted_thin, c.refused), (5, 3, 3));
    assert_eq!(plane.fabric_members(gmid).len(), 8);
}

#[test]
fn senders_bursting_from_one_edge_are_priced_against_each_other() {
    let (mut sim, fabric, mut plane, gmid) = hotspot_plane(thin_trunk_budgets());
    let viewer = plane.join(&mut sim, &fabric, gmid, &[request(0, 1, false)]);
    assert_eq!(viewer[0].decision, AdmissionDecision::Admitted);
    // Six cameras on the hot edge in one burst: each adds a 6 Mb/s
    // branch toward the viewer's edge, and the 20 Mb/s trunk takes
    // three. The fourth must see the first three's branches even though
    // all six arrived together.
    let burst: Vec<JoinRequest> = (1..=6).map(|i| request(i, 0, true)).collect();
    let outcomes = plane.join(&mut sim, &fabric, gmid, &burst);
    let admitted: Vec<bool> = outcomes.iter().map(|o| o.grant.is_some()).collect();
    assert_eq!(admitted, [true, true, true, false, false, false]);
    for o in &outcomes[3..] {
        assert_eq!(
            o.decision,
            AdmissionDecision::Refused(RefusalReason::TrunkOversubscribed { edge: 0 })
        );
    }
    assert_eq!(plane.ledger().oversubscribed_links(), 0);
    assert_eq!(plane.ledger().trunk_out_bps(0), 18_000_000);
}

// --------------------------------------------------------------------
// Randomized ledger invariants
// --------------------------------------------------------------------

/// One event of a randomized membership history.
#[derive(Debug, Clone)]
enum Op {
    /// `(edge, sends)` participants ask to join in one burst (a single
    /// join is a burst of one).
    Burst(Vec<(usize, bool)>),
    /// The `idx % live`-th admitted participant hangs up.
    Leave { idx: usize },
    /// The controller's ledger-aware re-homing pass runs.
    Rebalance,
    /// The `idx % live`-th participant's decode is capped to the thin
    /// target (the admission-degrade path, driven directly).
    Degrade { idx: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let join = || (0..EDGES, any::<bool>()).prop_map(|j| Op::Burst(vec![j]));
    prop_oneof![
        // The vendored proptest's Union is unweighted; repeating the
        // join arm biases histories toward growth like a real meeting.
        join(),
        join(),
        join(),
        pvec((0..EDGES, any::<bool>()), 1..6).prop_map(Op::Burst),
        any::<usize>().prop_map(|idx| Op::Leave { idx }),
        Just(Op::Rebalance),
        any::<usize>().prop_map(|idx| Op::Degrade { idx }),
    ]
}

/// Tight budgets so random histories actually hit every refusal line:
/// a trunk two full branches exhaust and a port span four members fill.
fn tight_budgets() -> FabricBudgets {
    let mut b = CapacityModel::default().fabric_budgets();
    b.trunk_bps = 15_000_000;
    b.edge_ports = Some(8);
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No step of any membership history may book a budget line over,
    /// and once every member has left the ledger must reconcile to
    /// zero — a leak means some leave/GC path lost its credit.
    #[test]
    fn random_histories_never_oversubscribe_and_reconcile(ops in pvec(arb_op(), 1..40)) {
        let mut sim = Simulator::new(0x1ED6E2);
        let fabric = Fabric::build(
            &mut sim,
            Topology::campus(EDGES, 1),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let mut plane = ShardedControlPlane::new(shards_from_env());
        plane.set_capacity_budgets(tight_budgets(), &fabric.topology);
        let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 0);
        // Live members: (global id, home edge, local participant).
        let mut live = Vec::new();
        let mut asked = 0u32;
        for op in &ops {
            match *op {
                Op::Burst(ref joins) => {
                    let reqs: Vec<JoinRequest> = joins
                        .iter()
                        .map(|&(edge, sends)| {
                            let i = asked;
                            asked += 1;
                            let addr = HostAddr::new(
                                Ipv4Addr::new(10, 9, (i / 200) as u8, (i % 200 + 1) as u8),
                                5000,
                            );
                            JoinRequest { edge, addr, sends }
                        })
                        .collect();
                    for JoinOutcome { decision, grant } in plane.join(&mut sim, &fabric, gmid, &reqs) {
                        match (decision, grant) {
                            (AdmissionDecision::Refused(_), g) => prop_assert!(g.is_none()),
                            (_, Some(g)) => live.push((g.global, g.edge, g.local.participant)),
                            (d, None) => prop_assert!(false, "admitted {d:?} without a grant"),
                        }
                    }
                }
                Op::Leave { idx } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (global, _, _) = live.remove(idx % live.len());
                    plane.leave_fabric(&mut sim, &fabric, gmid, global);
                }
                Op::Rebalance => {
                    plane.rebalance_fabric(&mut sim, &fabric, gmid);
                }
                Op::Degrade { idx } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (_, edge, pid) = live[idx % live.len()];
                    let sw = fabric.edge_mut(&mut sim, edge);
                    sw.agent.set_dt_cap(&mut sw.dp, pid, THIN_DECODE_TARGET);
                }
            }
            // The invariants, after every single step: every edge is
            // compiled as a rebuild of its rosters would be, enforcement
            // means no line is ever over, and the port book never
            // exceeds the configured span.
            if let Err(e) = fabric.check_compiled(&mut sim) {
                panic!("after {op:?}: {e}");
            }
            let l = plane.ledger();
            prop_assert_eq!(l.oversubscribed_links(), 0);
            for e in 0..EDGES {
                prop_assert!(
                    l.ports_used(e) <= 8,
                    "edge {} books {} ports of 8",
                    e,
                    l.ports_used(e)
                );
            }
        }
        // Teardown: the book must balance exactly.
        for (global, _, _) in live.drain(..) {
            plane.leave_fabric(&mut sim, &fabric, gmid, global);
            if let Err(e) = fabric.check_compiled(&mut sim) {
                panic!("after teardown leave of {global}: {e}");
            }
        }
        let l = plane.ledger();
        prop_assert!(l.reconciled(), "{} open entries after teardown", l.open_entries());
        let c = l.counts();
        prop_assert_eq!(c.refused, c.refused_ports + c.refused_trunk + c.refused_wan);
    }
}

// --------------------------------------------------------------------
// Cross-fabric REMB aggregation
// --------------------------------------------------------------------

/// A 2-zone federation (two edges a zone) with a sender on edge 0 and
/// one viewer per edge: the local path, a trunk-fed segment in the home
/// zone and two WAN-fed segments in the other, every remote edge
/// reporting to the sender's home-edge feedback sink.
fn remb_harness() -> ScallopHarness {
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(0)
            .zones(2)
            .switches(2)
            .cores(1)
            .seed(0x2E3B),
    );
    h.join_late(0, true);
    for e in 0..4 {
        h.join_late(e, false);
    }
    h
}

#[test]
fn aggregated_remb_is_min_filtered_across_edges() {
    let mut h = remb_harness();
    h.run_for_secs(4.0);
    let healthy = h.client_stats(0).sender.target_bitrate_bps;
    // Constrain the edge-2 viewer (client 3, across the WAN) below the
    // stream rate: the slowest involved edge must drag the min filter —
    // and with it the encoder target — down, even though the other
    // three edges still report a healthy estimate.
    h.degrade_downlink(3, 1_200_000);
    h.run_for_secs(8.0);
    let constrained = h.client_stats(0).sender.target_bitrate_bps;
    assert!(
        constrained < healthy,
        "min filter ignored the slow edge: target {constrained} after degrade \
         (was {healthy})"
    );
    assert!(
        constrained <= 1_600_000,
        "target {constrained} not tracking the 1.2 Mb/s bottleneck edge"
    );
    assert!(
        constrained >= 300_000,
        "target {constrained} collapsed below the degraded edge's real rate"
    );
}
