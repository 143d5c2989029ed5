//! The fabric check after every control operation.
//!
//! The agent compiles one way: grafted joins, pruned leaves and re-aimed
//! trunks, with a full rebuild of the segment as the fallback. Every
//! history here runs the fabric check ([`Fabric::check`]) after
//! **every** operation: on each edge the installed state must equal what a
//! from-scratch rebuild of every meeting installs (trees named by their
//! owner, so which MGID a tree drew is invisible), and nothing
//! installed may be orphaned. Histories are handcrafted (the 64-join
//! flash-crowd storm, webinar churn, a drift + re-home, two meetings
//! whose MGIDs interleave) and proptest-randomized over three fabric
//! meetings and one local-only meeting (every member on its home edge,
//! so its trees are packed) on a two-core campus and on a two-zone
//! federation (where gateway migration and WAN branches run): joins,
//! bursts of 1–5 (a join is a burst of one, so both sides of the
//! graft-or-rebuild rule run), leaves, re-homes, decode-target changes
//! (RA-R, amended or rebuilt), per-sender decode targets (RA-SR), and
//! core kills/revives and trunk cuts/restores each followed by the
//! controller's repair pass. After every operation the plane's load
//! ledger must also equal the ledger replayed from its store.
//!
//! The suite honors `SCALLOP_SHARDS` (CI runs the whole corpus under
//! `SCALLOP_SHARDS=4`) — compilation must be identical no matter how
//! the control plane is partitioned.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use scallop::core::agent::TreeDesign;
use scallop::core::controller::{GlobalMeetingId, GlobalParticipantId, JoinRequest};
use scallop::core::fabric::Fabric;
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::flashcrowd::{flash_crowd, webinar};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// Edge switches of the test campus.
const EDGES: usize = 3;
/// Core relays of the test campus (two, so a failure has a detour).
const CORES: usize = 2;
/// Random edge picks are drawn below this and taken modulo the world's
/// edge count: a multiple of both worlds' counts (3 and 4), so every
/// edge is equally likely.
const EDGE_PICKS: usize = 12;
/// Fabric meetings every history can address.
const MEETINGS: usize = 4;
/// The meeting whose members all join on its home edge: a local-only
/// segment, on packed trees.
const LOCAL: usize = MEETINGS - 1;

/// What the decode-target changes of the histories run on one thread
/// did: amends on exclusive (`[0]`) and packed (`[1]`) trees, by case —
/// RA-R stays RA-R, NRA → RA-R, RA-R → NRA — and the agents' own
/// `dt_deltas` and `dt_rebuilds`, summed over every edge of every world.
#[derive(Debug, Default, Clone, Copy)]
struct DtCoverage {
    amends: [[u64; 3]; 2],
    deltas: u64,
    rebuilds: u64,
}

thread_local! {
    static COVERAGE: Cell<DtCoverage> = Cell::default();
}

fn cover(add: impl FnOnce(&mut DtCoverage)) {
    COVERAGE.with(|c| {
        let mut v = c.get();
        add(&mut v);
        c.set(v);
    });
}

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

/// One control operation of a replayed history.
#[derive(Debug, Clone)]
enum Op {
    /// A participant joins `meeting` on `edge` (sending iff `sends`).
    Join {
        meeting: usize,
        edge: usize,
        sends: bool,
    },
    /// Several `(edge, sends)` participants join `meeting` in one burst.
    Burst(usize, Vec<(usize, bool)>),
    /// The `idx % live`-th admitted-and-present participant hangs up.
    Leave { idx: usize },
    /// The controller's re-homing pass runs over `meeting`.
    Rebalance(usize),
    /// The `idx % live`-th participant's decode target becomes `dt % 3`.
    Dt { idx: usize, dt: u8 },
    /// The `idx % live`-th participant takes the `sender`-th sender of
    /// its meeting at decode target `dt % 3` (forces RA-SR).
    SenderDt { idx: usize, sender: usize, dt: u8 },
    /// Core `core % cores` dies (or comes back), then repair runs.
    ToggleCore(usize),
    /// The trunk between `edge % edges` and `core % cores` is cut (or
    /// restored), then repair runs.
    ToggleTrunk { edge: usize, core: usize },
}

/// A fabric with [`MEETINGS`] fabric meetings, and the members
/// currently in them.
struct World {
    sim: Simulator,
    fabric: Fabric,
    plane: ShardedControlPlane,
    gmids: Vec<GlobalMeetingId>,
    /// `(meeting index, global id, sends)` of every present member.
    live: Vec<(usize, GlobalParticipantId, bool)>,
    admitted: u32,
}

impl World {
    fn new(topology: Topology) -> World {
        let mut sim = Simulator::new(0xDE17A);
        let fabric = Fabric::build(
            &mut sim,
            topology,
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let mut plane = ShardedControlPlane::new(shards_from_env());
        let gmids = (0..MEETINGS)
            .map(|m| plane.create_fabric_meeting(&mut sim, &fabric, m % fabric.edges()))
            .collect();
        World {
            sim,
            fabric,
            plane,
            gmids,
            live: Vec::new(),
            admitted: 0,
        }
    }

    fn join(&mut self, meeting: usize, joins: &[(usize, bool)]) {
        let meeting = meeting % MEETINGS;
        let edges = self.fabric.edges();
        let reqs: Vec<JoinRequest> = joins
            .iter()
            .map(|&(edge, sends)| {
                let i = self.admitted;
                self.admitted += 1;
                JoinRequest {
                    edge: if meeting == LOCAL { LOCAL } else { edge } % edges,
                    addr: HostAddr::new(
                        Ipv4Addr::new(10, 8, (i / 200) as u8, (i % 200 + 1) as u8),
                        5000,
                    ),
                    sends,
                }
            })
            .collect();
        let gmid = self.gmids[meeting];
        let outcomes = self.plane.join(&mut self.sim, &self.fabric, gmid, &reqs);
        for (o, r) in outcomes.iter().zip(&reqs) {
            let global = o.grant.expect("no budgets armed").global;
            self.live.push((meeting, global, r.sends));
        }
    }

    /// The edge, sender pid and receiver pid of the `sender` → `idx`-th
    /// member pair on the receiver's edge (`sender: None` names the
    /// receiver itself).
    fn pair(&self, idx: usize, sender: Option<usize>) -> Option<(usize, u16, u16)> {
        let (meeting, r, _) = *self.live.get(idx % self.live.len().max(1))?;
        let s = match sender {
            None => r,
            Some(k) => {
                let senders: Vec<GlobalParticipantId> = self
                    .live
                    .iter()
                    .filter(|&&(m, g, sends)| m == meeting && sends && g != r)
                    .map(|&(_, g, _)| g)
                    .collect();
                *senders.get(k % senders.len().max(1))?
            }
        };
        self.plane.pair_on_receiver_edge(self.gmids[meeting], s, r)
    }

    fn apply(&mut self, op: &Op) {
        let (sim, fabric) = (&mut self.sim, &self.fabric);
        let (edges, cores) = (fabric.edges(), fabric.core_ids.len());
        match *op {
            Op::Join {
                meeting,
                edge,
                sends,
            } => self.join(meeting, &[(edge, sends)]),
            Op::Burst(meeting, ref joins) => self.join(meeting, joins),
            Op::Leave { idx } => {
                if self.live.is_empty() {
                    return;
                }
                let (meeting, global, _) = self.live.remove(idx % self.live.len());
                self.plane
                    .leave_fabric(sim, fabric, self.gmids[meeting], global);
            }
            Op::Rebalance(meeting) => {
                self.plane
                    .rebalance_fabric(sim, fabric, self.gmids[meeting % MEETINGS]);
            }
            Op::Dt { idx, dt } => {
                if let Some((edge, _, r)) = self.pair(idx, None) {
                    let gmid = self.gmids[self.live[idx % self.live.len()].0];
                    let segment = self.plane.segment_of(gmid, edge).expect("a segment");
                    let sw = self.fabric.edge_mut(&mut self.sim, edge);
                    let (was, deltas) = (sw.agent.design_of(segment), sw.agent.counters.dt_deltas);
                    sw.agent.apply_dt_change(&mut sw.dp, r, dt % 3);
                    if sw.agent.counters.dt_deltas > deltas {
                        let case = match (was, sw.agent.design_of(segment)) {
                            (Some(TreeDesign::Nra), Some(TreeDesign::RaR)) => 1,
                            (Some(TreeDesign::RaR), Some(TreeDesign::Nra)) => 2,
                            _ => 0,
                        };
                        // A local branch prunes its packing slot only on
                        // a packed tree.
                        let mut nodes = sw.dp.pre.groups().flat_map(|(_, nodes)| nodes);
                        let packed = nodes.any(|n| n.rid == r && n.prune_enabled);
                        cover(|c| c.amends[usize::from(packed)][case] += 1);
                    }
                }
            }
            Op::SenderDt { idx, sender, dt } => {
                if let Some((edge, s, r)) = self.pair(idx, Some(sender)) {
                    let sw = self.fabric.edge_mut(&mut self.sim, edge);
                    sw.agent.set_sender_dt(&mut sw.dp, s, r, dt % 3);
                }
            }
            Op::ToggleCore(core) => {
                let id = fabric.core_ids[core % cores];
                if sim.node_is_dead(id) {
                    sim.revive_node(id);
                } else {
                    sim.kill_node(id);
                }
                self.plane.repair_trunks(sim, fabric);
            }
            Op::ToggleTrunk { edge, core } => {
                let (e, c) = (fabric.edge_ids[edge % edges], fabric.core_ids[core % cores]);
                if sim.link_is_cut(e, c) {
                    sim.restore_link(e, c);
                } else {
                    sim.cut_link(e, c);
                }
                self.plane.repair_trunks(sim, fabric);
            }
        }
    }
}

/// The two-core campus the handcrafted histories run on.
fn campus() -> Topology {
    Topology::campus(EDGES, CORES)
}

/// Replay `ops` on `topology`, checking every edge's compiled state and
/// the plane's ledger after each one.
fn replay(topology: Topology, ops: &[Op]) {
    let mut world = World::new(topology);
    for (i, op) in ops.iter().enumerate() {
        world.apply(op);
        if let Err(e) = world.fabric.check(&mut world.sim, &world.plane) {
            let zones = world.fabric.topology.zone_count();
            panic!("{zones}-zone fabric, after op {i} ({op:?}) of {ops:?}:\n{e}");
        }
    }
    for i in 0..world.fabric.edges() {
        let c = world.fabric.edge_mut(&mut world.sim, i).agent.counters;
        cover(|v| (v.deltas, v.rebuilds) = (v.deltas + c.dt_deltas, v.rebuilds + c.dt_rebuilds));
    }
}

fn joins_of(meeting: usize, crowd: impl IntoIterator<Item = (usize, bool)>) -> Vec<Op> {
    crowd
        .into_iter()
        .map(|(edge, sends)| Op::Join {
            meeting,
            edge,
            sends,
        })
        .collect()
}

#[test]
fn flash_crowd_storm_compiles_identically() {
    let storm = flash_crowd(EDGES, 3, 61);
    replay(
        campus(),
        &joins_of(0, storm.iter().map(|j| (j.edge, j.sends))),
    );
}

#[test]
fn webinar_with_churn_compiles_identically() {
    // The webinar audience churns: every 6th viewer leaves again.
    let audience = webinar(EDGES, 30);
    let mut ops = joins_of(0, audience.iter().map(|j| (j.edge, j.sends)));
    for k in 0..5 {
        ops.push(Op::Leave { idx: 6 * k + 1 });
    }
    replay(campus(), &ops);
}

#[test]
fn drift_and_rehome_compiles_identically() {
    // Population drifts from edge 0 to edge 1 with a re-home pass after
    // every event — the trunk re-aim (the delta path's pointer swing)
    // must land on the rules a rebuild installs.
    let mut ops = joins_of(0, [(0, true), (0, true), (0, false), (0, false)]);
    for i in 0..4 {
        ops.extend(joins_of(0, [(1, i < 2)]));
        ops.push(Op::Leave { idx: 0 });
        ops.push(Op::Rebalance(0));
    }
    replay(campus(), &ops);
}

#[test]
fn two_meetings_on_one_edge_compile_like_their_rebuild() {
    // Meetings A and B each hold a sender on every edge; A drains, then
    // B takes three joins. B's grafts keep the MGIDs it drew, while a
    // rebuild of B would draw the lower ones A freed — a difference in
    // naming only, which a comparison of raw MGIDs reports on every edge.
    let mut ops = joins_of(0, (0..EDGES).map(|e| (e, true)));
    ops.extend(joins_of(1, (0..EDGES).map(|e| (e, true))));
    ops.extend((0..EDGES).map(|_| Op::Leave { idx: 0 }));
    ops.extend(joins_of(1, (0..EDGES).map(|e| (e, false))));
    replay(campus(), &ops);
}

fn arb_op() -> impl Strategy<Value = Op> {
    let dt = || (any::<usize>(), 0..3u8).prop_map(|(idx, dt)| Op::Dt { idx, dt });
    let join = || {
        (0..MEETINGS, 0..EDGE_PICKS, any::<bool>()).prop_map(|(meeting, edge, sends)| Op::Join {
            meeting,
            edge,
            sends,
        })
    };
    prop_oneof![
        // The vendored proptest's Union is unweighted; repeating the
        // join arm biases histories toward growth like a real meeting.
        join(),
        join(),
        join(),
        (0..MEETINGS, pvec((0..EDGE_PICKS, any::<bool>()), 1..6))
            .prop_map(|(meeting, joins)| Op::Burst(meeting, joins)),
        any::<usize>().prop_map(|idx| Op::Leave { idx }),
        (0..MEETINGS).prop_map(Op::Rebalance),
        // Repeated, as the join arm is, so that decode-target changes
        // amend often enough in every case.
        dt(),
        dt(),
        dt(),
        (any::<usize>(), any::<usize>(), 0..3u8).prop_map(|(idx, sender, dt)| Op::SenderDt {
            idx,
            sender,
            dt
        }),
        (0..CORES).prop_map(Op::ToggleCore),
        (0..EDGE_PICKS, 0..CORES).prop_map(|(edge, core)| Op::ToggleTrunk { edge, core }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn random_histories(ops in pvec(arb_op(), 1..48)) {
        replay(campus(), &ops);
        replay(Topology::federation(2, 2, 1), &ops);
    }
}

/// Every step of any randomized history leaves every edge compiled
/// exactly as a rebuild of its rosters would be, with no orphans, and
/// the ledger equal to the store's load — on the campus, and on a
/// two-zone federation with a core per zone. The histories' decode-
/// target changes amend in place at least 100 times, in all three
/// cases on both exclusive and packed trees.
#[test]
fn random_histories_compile_identically() {
    random_histories();
    let cov = COVERAGE.with(Cell::get);
    eprintln!("decode-target changes: {cov:?}");
    let amends: u64 = cov.amends.iter().flatten().sum();
    assert!(
        amends >= 100 && cov.amends.iter().flatten().all(|&n| n > 0),
        "amends by tree kind and case: {cov:?}"
    );
    assert_eq!(amends, cov.deltas, "every amend is counted once");
}

#[test]
fn batched_storm_admission_matches_sequential_reference() {
    // The bench control smoke runs the same storm join by join and as
    // one batched admission; each run must pass the compile check —
    // batching changes the compile count, never the compiled state.
    // Run it with the matrix shard count so `SCALLOP_SHARDS=4`
    // exercises burst grouping by owner shard.
    for row in scallop_bench::control::run_control_smoke(shards_from_env()) {
        assert_eq!(
            row.equivalent, 1,
            "scenario {}: join-by-join compile failed its check",
            row.scenario
        );
        assert_eq!(
            row.batch_equivalent, 1,
            "scenario {}: batched admission failed its check",
            row.scenario
        );
        assert!(
            row.incr_grafts > 0,
            "scenario {}: the delta compiler never grafted",
            row.scenario
        );
    }
}
