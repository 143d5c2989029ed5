//! Campus replay: generate the two-week campus meeting population and
//! install its busiest bin's meeting mix across a real **switching
//! fabric** — four edge switches (buildings stripe onto them) joined by
//! one core relay — reporting per-edge data-plane scale and headroom.
//!
//! ```sh
//! cargo run --release --example campus_replay
//! ```
//!
//! This is the workload side of the paper's story at campus scale: the
//! same switches that handled the 3-party quickstart absorb an entire
//! campus's concurrent meetings with enormous headroom (§7.2: one
//! switch supports 128K NRA meetings; a campus peak needs a few hundred
//! spread over a handful of edges). Meetings whose participants sit in
//! several buildings span edges: the controller compiles trunk
//! forwarding so each sender's media crosses the fabric once per remote
//! switch.

use scallop::core::controller::JoinRequest;
use scallop::core::fabric::Fabric;
use scallop::core::shard::ShardedControlPlane;
use scallop::dataplane::seqrewrite::SeqRewriteMode;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::HostAddr;
use scallop::netsim::sim::Simulator;
use scallop::netsim::time::SimDuration;
use scallop::netsim::topology::Topology;
use scallop::workload::campus::{CampusModel, CampusParams};
use scallop::workload::scenario::sfu_load_series;
use std::net::Ipv4Addr;

const EDGES: usize = 4;

fn main() {
    println!("generating the 14-day campus population...");
    let params = CampusParams::default();
    let mut model = CampusModel::new(params, 0xCA0905);
    let population = model.generate();
    println!(
        "meetings: {} across {} buildings",
        population.len(),
        params.buildings
    );

    let series = sfu_load_series(&population, SimDuration::from_secs(600));
    let peak = series
        .iter()
        .max_by(|a, b| a.participants.cmp(&b.participants))
        .expect("series");
    println!(
        "peak bin: day {} hour {}: {} concurrent meetings, {} participants",
        peak.t_secs as u64 / 86_400,
        (peak.t_secs as u64 % 86_400) / 3_600,
        peak.meetings,
        peak.participants
    );

    // Install the peak's meeting mix across the fabric through the
    // controller: each meeting is placed on its home building's edge;
    // cross-building participants pull trunk plumbing into place.
    println!("\ninstalling the peak meeting mix on a {EDGES}-edge fabric (1 core)...");
    let mut sim = Simulator::new(0xCA0905);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(EDGES, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut controller = ShardedControlPlane::new(1);
    let mut installed = 0u64;
    let mut participants = 0u32;
    let mut spanning = 0u64;
    for rec in population.iter().filter(|m| m.size <= 60) {
        if installed >= peak.meetings {
            break;
        }
        let home = rec.edge_switch(EDGES);
        let gmid = controller.create_fabric_meeting(&mut sim, &fabric, home);
        let mut edges_used = std::collections::BTreeSet::new();
        for i in 0..rec.size {
            participants += 1;
            let edge = rec.participant_edge(i, params.buildings, EDGES);
            edges_used.insert(edge);
            let ip = Ipv4Addr::new(
                10,
                (participants >> 14) as u8 & 0x3F,
                (participants >> 7) as u8 & 0x7F,
                (participants & 0x7F) as u8 + 1,
            );
            let req = JoinRequest {
                edge,
                addr: HostAddr::new(ip, 5000),
                sends: true,
            };
            controller.join(&mut sim, &fabric, gmid, &[req]);
        }
        if edges_used.len() > 1 {
            spanning += 1;
        }
        installed += 1;
    }
    println!(
        "installed {installed} meetings / {participants} participants ({spanning} span >1 edge)"
    );

    for e in 0..EDGES {
        let sw = fabric.edge_mut(&mut sim, e);
        println!(
            "edge {e}: PRE {} trees ({}% of 64K), {} L1 nodes ({}% of 16.8M), {} port rules, {} egress entries",
            sw.dp.pre.groups_used(),
            sw.dp.pre.groups_used() * 100 / 65_536,
            sw.dp.pre.l1_nodes_used(),
            sw.dp.pre.l1_nodes_used() * 100 / (1 << 24),
            sw.dp.port_rules.len(),
            sw.dp.egress.len()
        );
    }

    println!(
        "\nheadroom: each edge supports 128K NRA meetings; the campus peak homed {} per edge on average",
        installed / EDGES as u64
    );
    println!(
        "software-SFU byte rate at this peak: {:.0} Mbit/s; switch agents: {:.2} Mbit/s",
        peak.software_sfu_bps / 1e6,
        peak.agent_bps / 1e6
    );
}
