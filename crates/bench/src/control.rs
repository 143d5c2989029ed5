//! Deterministic control-plane compilation smoke (CI regression gate).
//!
//! Drives the flash-crowd and webinar join shapes from
//! [`scallop_workload::flashcrowd`] into one fabric meeting two ways —
//! join by join, and as one batched [`ShardedControlPlane::join`] burst
//! — and reports the flow-mod bill of each from the switches' own
//! `rule_installs` / `rule_removals` / `tree_allocs` counters.
//!
//! Everything in a [`ControlRow`] is a function of the fixed join
//! shape, so `bench_smoke` gates the fields at the usual 20 % drift
//! rule plus one hard invariant per run: the fabric passes the fabric
//! check ([`Fabric::check`]) — every edge's installed state equals a
//! from-scratch rebuild of it with nothing orphaned, and the load
//! ledger equals the ledger replayed from the meeting store.

use scallop_core::controller::JoinRequest;
use scallop_core::fabric::Fabric;
use scallop_core::shard::ShardedControlPlane;
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::Simulator;
use scallop_netsim::time::SimDuration;
use scallop_netsim::topology::Topology;
use scallop_workload::flashcrowd::{flash_crowd, webinar, CrowdJoin};
use serde::Serialize;
use std::net::Ipv4Addr;

/// Edge switches the crowd spreads over.
const EDGES: usize = 4;
/// Total joins of the flash-crowd storm (the §7-style all-hands burst).
const STORM_JOINS: usize = 64;
/// Camera-on participants leading the storm.
const STORM_SENDERS: usize = 3;
/// Receive-only audience of the webinar shape.
const WEBINAR_AUDIENCE: usize = 48;

/// Deterministic fields of one scenario row (all gated in CI).
#[derive(Serialize)]
pub struct ControlRow {
    /// Scenario id: 0 = flash crowd, 1 = webinar.
    pub scenario: u64,
    /// Joins admitted into the one fabric meeting.
    pub joins: u64,
    /// Camera-on participants among them.
    pub senders: u64,
    /// Edge switches the crowd spread over.
    pub edges: u64,
    /// Flow-mod installs, join by join.
    pub incr_installs: u64,
    /// Flow-mod removals, join by join.
    pub incr_removals: u64,
    /// PRE trees allocated, join by join.
    pub incr_trees: u64,
    /// Joins the delta compiler grafted (vs. falling back to rebuild).
    pub incr_grafts: u64,
    /// Flow-mod installs, one batched admission.
    pub batch_installs: u64,
    /// Flow-mod removals, one batched admission.
    pub batch_removals: u64,
    /// PRE trees allocated, one batched admission.
    pub batch_trees: u64,
    /// 1 iff the fabric check ([`Fabric::check`]) passed after the
    /// join-by-join run.
    pub equivalent: u64,
    /// 1 iff the fabric check ([`Fabric::check`]) passed after the
    /// batched run.
    pub batch_equivalent: u64,
}

/// Flow-mod bill and fabric-check verdict of one run.
struct RunOutcome {
    installs: u64,
    removals: u64,
    trees: u64,
    grafts: u64,
    checked: bool,
}

/// Admit `joins` into a fresh fabric meeting — join by join, or as one
/// burst — and total the compile cost across all edges. The fabric,
/// seed, and addressing are fixed.
fn run_crowd(joins: &[CrowdJoin], shards: usize, batched: bool) -> RunOutcome {
    let mut sim = Simulator::new(0xC7011);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(EDGES, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut controller = ShardedControlPlane::new(shards);

    let gmid = controller.create_fabric_meeting(&mut sim, &fabric, joins[0].edge);
    let addr_of = |i: usize| {
        HostAddr::new(
            Ipv4Addr::new(10, 7, (i / 200) as u8, (i % 200 + 1) as u8),
            5000,
        )
    };
    let reqs: Vec<JoinRequest> = joins
        .iter()
        .enumerate()
        .map(|(i, j)| JoinRequest {
            edge: j.edge,
            addr: addr_of(i),
            sends: j.sends,
        })
        .collect();
    if batched {
        controller.join(&mut sim, &fabric, gmid, &reqs);
    } else {
        for req in &reqs {
            controller.join(&mut sim, &fabric, gmid, std::slice::from_ref(req));
        }
    }

    let mut out = RunOutcome {
        installs: 0,
        removals: 0,
        trees: 0,
        grafts: 0,
        checked: fabric.check(&mut sim, &controller).is_ok(),
    };
    for e in 0..EDGES {
        let c = fabric.edge_counters(&mut sim, e);
        out.installs += c.rule_installs;
        out.removals += c.rule_removals;
        out.trees += c.tree_allocs;
        out.grafts += fabric.edge_mut(&mut sim, e).agent.counters.graft_joins;
    }
    out
}

/// Run one join shape join by join and batched, and assemble its row.
fn run_scenario(scenario: u64, joins: &[CrowdJoin], shards: usize) -> ControlRow {
    let incr = run_crowd(joins, shards, false);
    let batch = run_crowd(joins, shards, true);
    ControlRow {
        scenario,
        joins: joins.len() as u64,
        senders: joins.iter().filter(|j| j.sends).count() as u64,
        edges: EDGES as u64,
        incr_installs: incr.installs,
        incr_removals: incr.removals,
        incr_trees: incr.trees,
        incr_grafts: incr.grafts,
        batch_installs: batch.installs,
        batch_removals: batch.removals,
        batch_trees: batch.trees,
        equivalent: u64::from(incr.checked),
        batch_equivalent: u64::from(batch.checked),
    }
}

/// Run the smoke: the 64-join flash-crowd storm and the webinar shape,
/// each join by join and batched, with meeting ownership over `shards`
/// controller shards.
pub fn run_control_smoke(shards: usize) -> Vec<ControlRow> {
    vec![
        run_scenario(
            0,
            &flash_crowd(EDGES, STORM_SENDERS, STORM_JOINS - STORM_SENDERS),
            shards,
        ),
        run_scenario(1, &webinar(EDGES, WEBINAR_AUDIENCE), shards),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_equivalent_and_cheaper() {
        for row in &run_control_smoke(1) {
            assert_eq!(row.equivalent, 1, "join-by-join compile failed its check");
            assert_eq!(row.batch_equivalent, 1, "batched compile failed its check");
            assert!(row.incr_grafts > 0, "delta compiler never grafted");
            // The bench_smoke gate: grafting bills O(1) flow-mods a join.
            assert!(
                row.incr_installs <= 16 * row.joins,
                "{} installs for {} joins",
                row.incr_installs,
                row.joins
            );
        }
    }

    #[test]
    fn smoke_is_deterministic_and_shard_invariant() {
        let a = run_control_smoke(1);
        let b = run_control_smoke(4);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.incr_installs, rb.incr_installs);
            assert_eq!(ra.batch_installs, rb.batch_installs);
            assert_eq!(ra.equivalent, 1);
            assert_eq!(rb.equivalent, 1);
        }
    }
}
