//! Allocation budget of the control plane's write path.
//!
//! A membership change on a fabric runs price → debit → agent admit and
//! compile → PRE install → shard placement. Once the tables have grown
//! to a cycle's peak — one warm-up cycle — a second identical cycle of
//! flash-crowd joins, a webinar burst and shuffled leaves must cost a
//! small, stated number of heap allocations per membership change.
//!
//! The cycle cost 1.98 allocations per change when this was written
//! (448 for 226 changes), and 7.29 before ledger entries became
//! fixed-size charges, compiles walked a reused roster copy and PRE
//! nodes held their one port inline. Most of what is left is the
//! agent's roster: the port-ownership and participant B-trees split and
//! merge nodes as ports and ids come and go. The per-stream state is one
//! table of (sender → receiver) pairs, which stays at its peak size once
//! warm instead of a map per receiver growing from empty. `join` returns
//! one vector per call, and the single joins count it too.
//!
//! Every cycle retires the two meetings it created, and the plane keeps
//! nothing per retired meeting: once warm, the live heap is the same
//! after any number of further cycles.

use scallop::core::capacity::FabricBudgets;
use scallop::core::controller::JoinRequest;
use scallop::core::fabric::Fabric;
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::flashcrowd::{flash_crowd, webinar, CrowdJoin};
use std::net::Ipv4Addr;

mod common;
use common::{allocs_in, live_bytes};

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

const EDGES: usize = 4;

/// A 4-edge campus fabric's control plane with the capacity budgets
/// armed, and the two crowd shapes it admits every cycle.
struct Crowds {
    sim: Simulator,
    fabric: Fabric,
    plane: ShardedControlPlane,
    storm: Vec<CrowdJoin>,
    burst: Vec<JoinRequest>,
    /// `(meeting, global id)` of the members, in leave order.
    members: Vec<(u32, u32)>,
    /// Seed of the leave-order shuffle.
    rng: u64,
}

fn addr(net: u8, i: usize) -> HostAddr {
    HostAddr::new(
        Ipv4Addr::new(10, net, (i / 200) as u8, (i % 200 + 1) as u8),
        5000,
    )
}

impl Crowds {
    fn new() -> Crowds {
        let mut sim = Simulator::new(1);
        let fabric = Fabric::build(
            &mut sim,
            Topology::campus(EDGES, 1),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let mut plane = ShardedControlPlane::new(EDGES);
        plane.set_capacity_budgets(FabricBudgets::from_model(), &fabric.topology);
        let burst: Vec<JoinRequest> = (webinar(EDGES, 48).iter().enumerate())
            .map(|(k, j)| JoinRequest {
                edge: j.edge,
                addr: addr(8, k),
                sends: j.sends,
            })
            .collect();
        let storm = flash_crowd(EDGES, 3, 61);
        Crowds {
            members: Vec::with_capacity(storm.len() + burst.len()),
            sim,
            fabric,
            plane,
            storm,
            burst,
            rng: 7,
        }
    }

    /// One cycle: the storm joins one by one into a fresh meeting, its
    /// home is re-evaluated, the webinar joins a second meeting as one
    /// burst, then every member leaves in a shuffled order. Returns the
    /// membership changes made, and asserts the plane drained.
    fn cycle(&mut self) -> u64 {
        let Crowds {
            sim, fabric, plane, ..
        } = self;
        let storm = plane.create_fabric_meeting(sim, fabric, self.storm[0].edge);
        for (k, j) in self.storm.iter().enumerate() {
            let req = JoinRequest {
                edge: j.edge,
                addr: addr(7, k),
                sends: j.sends,
            };
            let grant = plane.join(sim, fabric, storm, &[req])[0].grant;
            let grant = grant.expect("generous budgets admit every join");
            self.members.push((storm, grant.global));
        }
        plane.rebalance_fabric(sim, fabric, storm);
        let talk = plane.create_fabric_meeting(sim, fabric, self.burst[0].edge);
        for outcome in plane.join(sim, fabric, talk, &self.burst) {
            let grant = outcome.grant.expect("generous budgets admit every join");
            self.members.push((talk, grant.global));
        }
        assert!(!plane.ledger().reconciled(), "joins book the ledger");
        let joined = self.members.len() as u64;
        for i in (1..self.members.len()).rev() {
            self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.members.swap(i, (self.rng >> 33) as usize % (i + 1));
        }
        while let Some((gmid, global)) = self.members.pop() {
            plane.leave_fabric(sim, fabric, gmid, global);
        }
        assert!(plane.meeting(storm).is_none() && plane.meeting(talk).is_none());
        2 * joined
    }
}

#[test]
fn a_warm_membership_change_allocates_at_most_three_times() {
    let mut crowds = Crowds::new();
    crowds.cycle();
    let mut changes = 0;
    let allocs = allocs_in(|| changes = crowds.cycle());
    assert_eq!(changes, 2 * (64 + 49), "the storm and the webinar");
    let per_change = allocs as f64 / changes as f64;
    assert!(
        per_change <= 3.0,
        "{allocs} allocations for {changes} membership changes ({per_change:.2} each)"
    );
}

#[test]
fn a_meeting_booked_and_fully_credited_leaves_no_ledger_entry() {
    let mut crowds = Crowds::new();
    for _ in 0..2 {
        crowds.cycle();
        let ledger = crowds.plane.ledger();
        assert!(
            ledger.reconciled(),
            "every entry credited, every account at zero"
        );
        assert_eq!(ledger.debits, ledger.credits);
    }
}

#[test]
fn retired_meetings_leave_no_live_heap_behind() {
    let mut crowds = Crowds::new();
    for _ in 0..10 {
        crowds.cycle();
    }
    let before = live_bytes();
    for _ in 0..200 {
        crowds.cycle();
    }
    let kept = live_bytes() - before;
    assert_eq!(kept, 0, "200 cycles kept {kept} bytes of live heap");
}
