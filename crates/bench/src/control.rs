//! Deterministic control-plane compilation smoke (CI regression gate).
//!
//! Drives the flash-crowd and webinar join shapes from
//! [`scallop_workload::flashcrowd`] into one fabric meeting three ways —
//! per-join with the delta compiler, per-join with full rebuilds (the
//! pre-delta reference, via
//! [`SwitchAgent::set_incremental_compile`][set]), and as one batched
//! [`ShardedControlPlane::join`] burst — and reports
//! the flow-mod bill of each path from the switches' own
//! `rule_installs` / `rule_removals` / `tree_allocs` counters.
//!
//! Everything in a [`ControlRow`] is a function of the fixed join
//! shape, so `bench_smoke` gates the fields at the usual 20 % drift
//! rule plus two hard invariants: the incremental path's final
//! data-plane state must be byte-identical to the full-rebuild
//! reference (same join order, so the comparison is exact down to
//! participant ids), and the storm's full-rebuild bill must exceed the
//! incremental bill by the headline factor.
//!
//! [set]: scallop_core::agent::SwitchAgent::set_incremental_compile

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
    /// Flow-mod installs, per-join with the delta compiler.
    pub incr_installs: u64,
    /// Flow-mod removals, per-join with the delta compiler.
    pub incr_removals: u64,
    /// PRE trees allocated, per-join with the delta compiler.
    pub incr_trees: u64,
    /// Joins the delta compiler grafted (vs. falling back to rebuild).
    pub incr_grafts: u64,
    /// Flow-mod installs, per-join with full rebuilds (baseline).
    pub full_installs: u64,
    /// Flow-mod removals, per-join with full rebuilds (baseline).
    pub full_removals: u64,
    /// PRE trees allocated, per-join with full rebuilds (baseline).
    pub full_trees: u64,
    /// Flow-mod installs, one batched admission.
    pub batch_installs: u64,
    /// Flow-mod removals, one batched admission.
    pub batch_removals: u64,
    /// PRE trees allocated, one batched admission.
    pub batch_trees: u64,
    /// 1 iff the delta compiler's final data-plane state matched the
    /// full-rebuild reference byte for byte on every edge.
    pub equivalent: u64,
    /// 1 iff the batched admission's final state matched a batched
    /// full-rebuild run byte for byte on every edge.
    pub batch_equivalent: u64,
}

/// How a run compiles the joins.
#[derive(Clone, Copy, PartialEq)]
enum CompileMode {
    /// Sequential joins, delta compiler on (the shipping default).
    Incremental,
    /// Sequential joins, every change recompiles the whole segment.
    FullRebuild,
    /// One burst of all the joins, delta compiler on.
    Batched,
    /// One burst of all the joins, delta compiler off.
    BatchedFullRebuild,
}

/// Flow-mod bill and final state of one run.
struct RunOutcome {
    installs: u64,
    removals: u64,
    trees: u64,
    grafts: u64,
    /// Per-edge canonical data-plane + agent state dumps.
    states: Vec<String>,
}

/// Admit `joins` into a fresh fabric meeting under `mode` and total the
/// compile cost across all edges. The fabric, seed, and addressing are
/// fixed, so two runs differing only in `mode` admit byte-identical
/// membership.
fn run_crowd(joins: &[CrowdJoin], shards: usize, mode: CompileMode) -> RunOutcome {
    let mut sim = Simulator::new(0xC7011);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(EDGES, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut controller = ShardedControlPlane::new(shards);
    if matches!(
        mode,
        CompileMode::FullRebuild | CompileMode::BatchedFullRebuild
    ) {
        for e in 0..EDGES {
            fabric
                .edge_mut(&mut sim, e)
                .agent
                .set_incremental_compile(false);
        }
    }

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
    match mode {
        CompileMode::Incremental | CompileMode::FullRebuild => {
            for req in &reqs {
                controller.join(&mut sim, &fabric, gmid, std::slice::from_ref(req));
            }
        }
        CompileMode::Batched | CompileMode::BatchedFullRebuild => {
            controller.join(&mut sim, &fabric, gmid, &reqs);
        }
    }

    let mut out = RunOutcome {
        installs: 0,
        removals: 0,
        trees: 0,
        grafts: 0,
        states: Vec::with_capacity(EDGES),
    };
    for e in 0..EDGES {
        let c = fabric.edge_counters(&mut sim, e);
        out.installs += c.rule_installs;
        out.removals += c.rule_removals;
        out.trees += c.tree_allocs;
        let node = fabric.edge_mut(&mut sim, e);
        out.grafts += node.agent.counters.graft_joins;
        out.states.push(node.agent.canonical_state(&node.dp));
    }
    out
}

/// Run one join shape through all four modes and assemble its row.
fn run_scenario(scenario: u64, joins: &[CrowdJoin], shards: usize) -> ControlRow {
    let incr = run_crowd(joins, shards, CompileMode::Incremental);
    let full = run_crowd(joins, shards, CompileMode::FullRebuild);
    let batch = run_crowd(joins, shards, CompileMode::Batched);
    let batch_full = run_crowd(joins, shards, CompileMode::BatchedFullRebuild);
    ControlRow {
        scenario,
        joins: joins.len() as u64,
        senders: joins.iter().filter(|j| j.sends).count() as u64,
        edges: EDGES as u64,
        incr_installs: incr.installs,
        incr_removals: incr.removals,
        incr_trees: incr.trees,
        incr_grafts: incr.grafts,
        full_installs: full.installs,
        full_removals: full.removals,
        full_trees: full.trees,
        batch_installs: batch.installs,
        batch_removals: batch.removals,
        batch_trees: batch.trees,
        equivalent: u64::from(incr.states == full.states),
        batch_equivalent: u64::from(batch.states == batch_full.states),
    }
}

/// Run the smoke: the 64-join flash-crowd storm and the webinar shape,
/// each through incremental / full-rebuild / batched compilation, with
/// meeting ownership over `shards` controller shards.
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
        let rows = run_control_smoke(1);
        for row in &rows {
            assert_eq!(row.equivalent, 1, "delta compile diverged from rebuild");
            assert_eq!(row.batch_equivalent, 1, "batched compile diverged");
            assert!(row.incr_grafts > 0, "delta compiler never grafted");
            assert!(
                row.full_installs > row.incr_installs,
                "rebuilds must out-bill grafts: {} vs {}",
                row.full_installs,
                row.incr_installs
            );
            // The batched path's win is one compile transaction per
            // segment, not a lower install count than grafting — its
            // per-segment rebuild re-installs the local rule set once —
            // but it must stay far under the per-join rebuild bill.
            assert!(
                4 * row.batch_installs < row.full_installs,
                "batched compile must undercut per-join rebuilds: {} vs {}",
                row.batch_installs,
                row.full_installs
            );
            assert!(row.incr_trees <= row.full_trees);
        }
        // The headline: a flash-crowd storm of rebuilds is ≥5× the
        // incremental bill.
        assert!(
            rows[0].full_installs >= 5 * rows[0].incr_installs,
            "storm: {} rebuilds vs {} incremental",
            rows[0].full_installs,
            rows[0].incr_installs
        );
    }

    #[test]
    fn smoke_is_deterministic_and_shard_invariant() {
        let a = run_control_smoke(1);
        let b = run_control_smoke(4);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.incr_installs, rb.incr_installs);
            assert_eq!(ra.full_installs, rb.full_installs);
            assert_eq!(ra.batch_installs, rb.batch_installs);
            assert_eq!(ra.equivalent, 1);
            assert_eq!(rb.equivalent, 1);
        }
    }
}
