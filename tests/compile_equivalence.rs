//! Compile-path equivalence: the delta compiler must be a pure
//! optimization of the control plane.
//!
//! Every run here replays one membership history twice over identical
//! fabrics — once with the delta compiler (grafted joins, pruned
//! leaves, re-aimed trunks), once with
//! [`SwitchAgent::set_incremental_compile`]`(false)` so every change
//! recompiles its whole segment — and demands the final data-plane
//! state be **byte-identical** on every edge, down to participant ids,
//! PRE tree contents, and feedback gates (via
//! [`SwitchAgent::canonical_state`]). Histories are both handcrafted
//! (the 64-join flash-crowd storm, a drift + re-home) and
//! proptest-randomized join/burst/leave/re-home sequences — a join is a
//! burst of one, so bursts of 1–5 exercise both sides of the agent's
//! graft-or-rebuild rule.
//!
//! The suite honors `SCALLOP_SHARDS` (CI runs the whole corpus under
//! `SCALLOP_SHARDS=4`) — compilation must be identical no matter how
//! the control plane is partitioned.
//!
//! [`SwitchAgent::set_incremental_compile`]: scallop::core::agent::SwitchAgent::set_incremental_compile
//! [`SwitchAgent::canonical_state`]: scallop::core::agent::SwitchAgent::canonical_state

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use scallop::core::controller::JoinRequest;
use scallop::core::fabric::Fabric;
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::flashcrowd::{flash_crowd, webinar};
use std::net::Ipv4Addr;

/// Edge switches of the test fabric.
const EDGES: usize = 3;

/// Shard count under test (1 unless `SCALLOP_SHARDS` says otherwise —
/// the same knob the harness corpus honors).
fn shards_from_env() -> usize {
    match std::env::var("SCALLOP_SHARDS") {
        Err(_) => 1,
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("SCALLOP_SHARDS must be a positive integer, got {raw:?}"),
        },
    }
}

/// One membership event of a replayed history.
#[derive(Debug, Clone)]
enum Op {
    /// A participant joins `edge` (sending iff `sends`).
    Join { edge: usize, sends: bool },
    /// Several `(edge, sends)` participants join in one burst.
    Burst(Vec<(usize, bool)>),
    /// The `idx % live`-th admitted-and-present participant hangs up.
    Leave { idx: usize },
    /// The controller's re-homing pass runs over the meeting.
    Rebalance,
}

/// Replay `ops` into one fabric meeting and return the per-edge
/// canonical data-plane + agent state dumps. Fabric, seed, and
/// addressing are fixed: two runs differing only in `incremental`
/// admit byte-identical membership through identical participant ids.
fn run_ops(ops: &[Op], incremental: bool) -> Vec<String> {
    let mut sim = Simulator::new(0xDE17A);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(EDGES, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut controller = ShardedControlPlane::new(shards_from_env());
    if !incremental {
        for e in 0..EDGES {
            fabric
                .edge_mut(&mut sim, e)
                .agent
                .set_incremental_compile(false);
        }
    }
    let gmid = controller.create_fabric_meeting(&mut sim, &fabric, 0);
    let mut live = Vec::new();
    let mut admitted = 0u32;
    let mut request = |(edge, sends): (usize, bool)| {
        let i = admitted;
        admitted += 1;
        JoinRequest {
            edge: edge % EDGES,
            addr: HostAddr::new(
                Ipv4Addr::new(10, 8, (i / 200) as u8, (i % 200 + 1) as u8),
                5000,
            ),
            sends,
        }
    };
    for op in ops {
        match *op {
            Op::Join { edge, sends } => {
                let req = request((edge, sends));
                let outcomes = controller.join(&mut sim, &fabric, gmid, &[req]);
                live.push(outcomes[0].grant.expect("no budgets armed").global);
            }
            Op::Burst(ref joins) => {
                let reqs: Vec<JoinRequest> = joins.iter().copied().map(&mut request).collect();
                let outcomes = controller.join(&mut sim, &fabric, gmid, &reqs);
                live.extend(outcomes.iter().map(|o| o.grant.expect("admitted").global));
            }
            Op::Leave { idx } => {
                if live.is_empty() {
                    continue;
                }
                let global = live.remove(idx % live.len());
                controller.leave_fabric(&mut sim, &fabric, gmid, global);
            }
            Op::Rebalance => {
                controller.rebalance_fabric(&mut sim, &fabric, gmid);
            }
        }
    }
    (0..EDGES)
        .map(|e| {
            let node = fabric.edge_mut(&mut sim, e);
            node.agent.canonical_state(&node.dp)
        })
        .collect()
}

/// Assert both compile paths land on the same state, edge by edge.
fn assert_paths_agree(ops: &[Op]) {
    let inc = run_ops(ops, true);
    let full = run_ops(ops, false);
    for (e, (i, f)) in inc.iter().zip(&full).enumerate() {
        assert_eq!(i, f, "edge {e} state diverged between compile paths");
    }
}

#[test]
fn flash_crowd_storm_compiles_identically() {
    let ops: Vec<Op> = flash_crowd(EDGES, 3, 61)
        .into_iter()
        .map(|j| Op::Join {
            edge: j.edge,
            sends: j.sends,
        })
        .collect();
    assert_paths_agree(&ops);
}

#[test]
fn webinar_with_churn_compiles_identically() {
    // The webinar audience churns: every 6th viewer leaves again.
    let mut ops: Vec<Op> = webinar(EDGES, 30)
        .into_iter()
        .map(|j| Op::Join {
            edge: j.edge,
            sends: j.sends,
        })
        .collect();
    for k in 0..5 {
        ops.push(Op::Leave { idx: 6 * k + 1 });
    }
    assert_paths_agree(&ops);
}

#[test]
fn drift_and_rehome_compiles_identically() {
    // Population drifts from edge 0 to edge 1 with a re-home pass after
    // every event — the trunk re-aim (make-before-break vs. the delta
    // path's pointer swing) must land on the same rules.
    let mut ops = vec![
        Op::Join {
            edge: 0,
            sends: true,
        },
        Op::Join {
            edge: 0,
            sends: true,
        },
        Op::Join {
            edge: 0,
            sends: false,
        },
        Op::Join {
            edge: 0,
            sends: false,
        },
    ];
    for i in 0..4 {
        ops.push(Op::Join {
            edge: 1,
            sends: i < 2,
        });
        ops.push(Op::Leave { idx: 0 });
        ops.push(Op::Rebalance);
    }
    assert_paths_agree(&ops);
}

fn arb_op() -> impl Strategy<Value = Op> {
    let join = || (0..EDGES, any::<bool>()).prop_map(|(edge, sends)| Op::Join { edge, sends });
    prop_oneof![
        // The vendored proptest's Union is unweighted; repeating the
        // join arm biases histories toward growth like a real meeting.
        join(),
        join(),
        join(),
        pvec((0..EDGES, any::<bool>()), 1..6).prop_map(Op::Burst),
        any::<usize>().prop_map(|idx| Op::Leave { idx }),
        Just(Op::Rebalance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any randomized join/burst/leave/re-home history compiles to the same
    /// final data-plane state through grafts as through full rebuilds.
    #[test]
    fn random_histories_compile_identically(ops in pvec(arb_op(), 1..48)) {
        assert_paths_agree(&ops);
    }
}

#[test]
fn batched_storm_admission_matches_sequential_reference() {
    // The bench control smoke runs the same storm through sequential
    // incremental, sequential full-rebuild, and batched admission;
    // its equivalence bits are the cross-check that batching changes
    // the compile count, never the compiled state. Run it with the
    // matrix shard count so `SCALLOP_SHARDS=4` exercises burst
    // grouping by owner shard.
    for row in scallop_bench::control::run_control_smoke(shards_from_env()) {
        assert_eq!(
            row.equivalent, 1,
            "scenario {}: delta compile diverged from rebuild",
            row.scenario
        );
        assert_eq!(
            row.batch_equivalent, 1,
            "scenario {}: batched admission diverged from its rebuild reference",
            row.scenario
        );
        assert!(
            row.incr_grafts > 0,
            "scenario {}: the delta compiler never grafted",
            row.scenario
        );
    }
}
