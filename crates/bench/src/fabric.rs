//! Shared campus-fabric experiment phases.
//!
//! `fig20_21_campus_load` and the CI `bench_smoke` regression gate must
//! run byte-identical scenarios for the checked-in `results/` baselines
//! to be comparable, so the live fabric slice and the churn/migration
//! phase live here rather than in either binary.

use scallop_client::{ClientConfig, ClientNode};
use scallop_core::controller::JoinRequest;
use scallop_core::fabric::Fabric;
use scallop_core::harness::{HarnessConfig, ScallopHarness};
use scallop_core::shard::ShardedControlPlane;
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::Simulator;
use scallop_netsim::stats::TimeSeries;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_netsim::topology::Topology;
use scallop_workload::campus::{CampusParams, MeetingRecord};
use scallop_workload::churn::{ChurnEvent, ChurnPlan};
use serde::Serialize;
use std::net::Ipv4Addr;

/// Start of the peak-concurrency bin of a meeting series (argmax over
/// the binned points; the earliest bin wins ties). Both the figure
/// binary and the CI gate select their replay slice through this one
/// function — the slice compared against the checked-in baseline must
/// be the slice that produced it.
pub fn peak_time(series: &TimeSeries) -> SimTime {
    let (t, _) =
        series.points().iter().fold(
            (0.0f64, 0.0f64),
            |acc, &(t, v)| if v > acc.1 { (t, v) } else { acc },
        );
    SimTime::from_secs(t as u64)
}

/// Per-edge counters of the live fabric slice (one JSON row).
#[derive(Serialize)]
pub struct EdgeRow {
    /// Edge switch index.
    pub edge: usize,
    /// Meetings homed on this edge.
    pub meetings_homed: u64,
    /// Media packets received from local senders.
    pub rtp_in_pkts: u64,
    /// Replicas forwarded.
    pub forwarded_pkts: u64,
    /// Replicas sent toward trunks.
    pub trunk_out_pkts: u64,
    /// Media packets that arrived over trunks.
    pub trunk_in_pkts: u64,
}

/// Everything the live slice reports.
pub struct FabricSliceReport {
    /// Per-edge counter rows (the `fig20_21_fabric_slice.json` payload).
    pub edge_rows: Vec<EdgeRow>,
    /// Meetings replayed.
    pub meetings: usize,
    /// Meetings spanning more than one edge.
    pub cross_switch_meetings: u64,
    /// Clients attached.
    pub clients: usize,
    /// Packets the core relay carried.
    pub core_relayed_pkts: u64,
    /// Bytes the core relay carried.
    pub core_relayed_bytes: u64,
    /// Frames decoded across all clients.
    pub frames_decoded: u64,
    /// Meetings owned per controller shard (index = shard id) — the
    /// control-load balance the sharded plane guarantees: no entry may
    /// exceed `ceil(meetings / shards) + 1`.
    pub shard_meetings: Vec<usize>,
    /// Cross-shard joins forwarded while installing the slice.
    pub join_forwards: u64,
    /// Signaling transactions served, summed over all shards.
    pub signaling_exchanges: u64,
    /// Flow-mod installs compiling the slice cost, summed over edges.
    pub rule_installs: u64,
    /// Flow-mod removals, summed over edges.
    pub rule_removals: u64,
    /// PRE trees allocated, summed over edges.
    pub tree_allocs: u64,
}

/// Replay a sample of the peak bin's meetings over a real
/// `edges`-edge + 1-core fabric for `run_secs` of simulated time,
/// with meeting ownership partitioned over `shards` controller shards
/// (deterministic: fixed seed, fixed slice-selection rule).
pub fn run_fabric_slice(
    population: &[MeetingRecord],
    params: &CampusParams,
    peak_t: SimTime,
    edges: usize,
    shards: usize,
    run_secs: f64,
) -> FabricSliceReport {
    let slice: Vec<&MeetingRecord> = population
        .iter()
        .filter(|m| m.start <= peak_t && peak_t < m.end() && (3..=6).contains(&m.size))
        .take(6)
        .collect();

    let mut sim = Simulator::new(0xFAB21C);
    let fabric = Fabric::build(
        &mut sim,
        Topology::campus(edges, 1),
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut controller = ShardedControlPlane::new(shards);
    let client_link = LinkConfig::infinite(SimDuration::from_millis(10))
        .with_rate(50_000_000)
        .with_queue_bytes(128 * 1024);

    let mut meetings_homed = vec![0u64; edges];
    let mut client_ids = Vec::new();
    let mut cross_switch_meetings = 0u64;
    for (mi, rec) in slice.iter().enumerate() {
        let home = rec.edge_switch(edges);
        meetings_homed[home] += 1;
        let gmid = controller.create_fabric_meeting(&mut sim, &fabric, home);
        let mut edges_used = std::collections::BTreeSet::new();
        for i in 0..rec.size {
            let edge = rec.participant_edge(i, params.buildings, edges);
            edges_used.insert(edge);
            let ip = Ipv4Addr::new(10, 2, mi as u8, i as u8 + 1);
            let addr = HostAddr::new(ip, 5000);
            let sends = i < rec.video_senders.max(1);
            let req = JoinRequest { edge, addr, sends };
            let grant = controller.join(&mut sim, &fabric, gmid, &[req])[0]
                .grant
                .expect("no budgets armed");
            let ccfg = if sends {
                ClientConfig::sender(ip, 5000, 0x10_0000 * (mi as u32 + 1) + i)
                    .sending_to(grant.local.video_uplink, grant.local.audio_uplink)
            } else {
                ClientConfig::receiver_only(ip, 5000, 0x10_0000 * (mi as u32 + 1) + i)
            };
            let id = sim.add_node(
                Box::new(ClientNode::new(ccfg)),
                &[ip],
                client_link,
                client_link,
            );
            client_ids.push(id);
        }
        if edges_used.len() > 1 {
            cross_switch_meetings += 1;
        }
    }

    sim.run_for(SimDuration::from_secs_f64(run_secs));

    let mut edge_rows = Vec::new();
    let (mut rule_installs, mut rule_removals, mut tree_allocs) = (0u64, 0u64, 0u64);
    for (e, &homed) in meetings_homed.iter().enumerate() {
        let c = fabric.edge_counters(&mut sim, e);
        rule_installs += c.rule_installs;
        rule_removals += c.rule_removals;
        tree_allocs += c.tree_allocs;
        edge_rows.push(EdgeRow {
            edge: e,
            meetings_homed: homed,
            rtp_in_pkts: c.rtp_in_pkts,
            forwarded_pkts: c.forwarded_pkts,
            trunk_out_pkts: c.trunk_out_pkts,
            trunk_in_pkts: c.trunk_in_pkts,
        });
    }
    let core = fabric.core_stats(&mut sim, 0);
    let mut frames = 0u64;
    for &id in &client_ids {
        let c: &mut ClientNode = sim.node_mut(id).expect("client");
        frames += c
            .stats()
            .streams
            .iter()
            .map(|(_, r)| r.frames_decoded)
            .sum::<u64>();
    }
    FabricSliceReport {
        edge_rows,
        meetings: slice.len(),
        cross_switch_meetings,
        clients: client_ids.len(),
        core_relayed_pkts: core.relayed_pkts,
        core_relayed_bytes: core.relayed_bytes,
        frames_decoded: frames,
        shard_meetings: controller.meetings_per_shard(),
        join_forwards: controller.forward_total(),
        signaling_exchanges: controller.signaling_exchanges(),
        rule_installs,
        rule_removals,
        tree_allocs,
    }
}

/// Per-WAN-link counters of the federated slice (one JSON row of
/// `results/BENCH_wan.json`; every field numeric so the baseline
/// parser can read it back).
#[derive(Serialize)]
pub struct WanLinkRow {
    /// WAN link index (order of `Topology::federation`'s full mesh).
    pub link: usize,
    /// Lower endpoint zone.
    pub zone_a: usize,
    /// Higher endpoint zone.
    pub zone_b: usize,
    /// Packets the link's relay carried (both directions).
    pub relayed_pkts: u64,
    /// Bytes the link's relay carried — the tracked baseline metric.
    pub relayed_bytes: u64,
    /// Packets the relay could not route (must stay 0).
    pub unroutable_pkts: u64,
    /// Media + SR packets offered to this link by the slice's senders,
    /// counted **once per remote zone**: for every meeting and every
    /// sender edge, the edge's `rtp_in + rtcp_sr` is added to the link
    /// toward each *other* zone the meeting spans. A healthy WAN tier
    /// relays ≈ this much (plus a little reverse feedback) — roughly
    /// 2× means a zone was fanned out twice.
    pub offered_pkts: u64,
}

/// Everything the federated WAN slice reports.
pub struct WanSliceReport {
    /// Per-WAN-link counter rows (the `BENCH_wan.json` payload).
    pub wan_rows: Vec<WanLinkRow>,
    /// Meetings replayed.
    pub meetings: usize,
    /// Meetings spanning more than one zone.
    pub cross_zone_meetings: u64,
    /// Clients attached.
    pub clients: usize,
    /// Frames decoded across all clients.
    pub frames_decoded: u64,
    /// Meetings homed per zone (the zone-balance telemetry).
    pub zone_meetings: Vec<usize>,
    /// Meetings owned per controller shard.
    pub shard_meetings: Vec<usize>,
    /// Meetings whose owner shard sits in their home zone's shard set.
    pub owners_in_home_zone: u64,
    /// Cross-zone ownership handoffs (0: nothing rebalances here).
    pub cross_zone_handoffs: u64,
}

/// Replay a sample of the continental population's cross-zone meetings
/// over a real `zones × edges_per_zone`-edge federation (one core per
/// zone) for `run_secs` of simulated time, with meeting ownership
/// partitioned zone-affinely over `shards` controller shards.
///
/// Selection is deterministic and keeps the chosen meetings
/// **edge-disjoint**, so each WAN link's offered load can be attributed
/// exactly from per-edge counters (the WAN-once regression gate needs
/// an expected per-link packet count, and shared edges would smear it).
pub fn run_wan_slice(
    population: &[MeetingRecord],
    params: &CampusParams,
    peak_t: SimTime,
    zones: usize,
    edges_per_zone: usize,
    shards: usize,
    run_secs: f64,
) -> WanSliceReport {
    let edges = zones * edges_per_zone;
    // Pick active, small cross-zone meetings whose edge footprints do
    // not overlap (first-fit in population order: deterministic).
    let mut used_edges = std::collections::BTreeSet::new();
    let mut slice: Vec<(&MeetingRecord, Vec<usize>)> = Vec::new();
    for m in population {
        if slice.len() >= 3 {
            break;
        }
        if !(m.start <= peak_t && peak_t < m.end() && (3..=6).contains(&m.size)) {
            continue;
        }
        let footprint: Vec<usize> = (0..m.size)
            .map(|i| {
                m.participant_edge_federated(i, params.buildings, zones as u32, edges_per_zone)
            })
            .collect();
        let span: std::collections::BTreeSet<usize> =
            footprint.iter().map(|&e| e / edges_per_zone).collect();
        if span.len() < 2 || footprint.iter().any(|e| used_edges.contains(e)) {
            continue;
        }
        used_edges.extend(footprint.iter().copied());
        slice.push((m, footprint));
    }

    let mut sim = Simulator::new(0xFEDC0DE);
    let topology = Topology::federation(zones, edges_per_zone, 1);
    let fabric = Fabric::build(
        &mut sim,
        topology,
        LinkConfig::infinite(SimDuration::from_micros(50)),
        SeqRewriteMode::LowRetransmission,
    );
    let mut controller = ShardedControlPlane::new(shards).with_zone_affinity(zones, edges_per_zone);
    let client_link = LinkConfig::infinite(SimDuration::from_millis(10))
        .with_rate(50_000_000)
        .with_queue_bytes(128 * 1024);

    let mut client_ids = Vec::new();
    let mut cross_zone_meetings = 0u64;
    let mut owners_in_home_zone = 0u64;
    // Per meeting: zone span and the edges its senders occupy (for the
    // per-link offered-load attribution below).
    let mut spans: Vec<std::collections::BTreeSet<usize>> = Vec::new();
    let mut sender_edges: Vec<std::collections::BTreeSet<usize>> = Vec::new();
    for (mi, (rec, footprint)) in slice.iter().enumerate() {
        let home = rec.edge_switch_federated(zones as u32, edges_per_zone);
        let gmid = controller.create_fabric_meeting(&mut sim, &fabric, home);
        let span: std::collections::BTreeSet<usize> =
            footprint.iter().map(|&e| e / edges_per_zone).collect();
        if span.len() > 1 {
            cross_zone_meetings += 1;
        }
        let owner = controller.owner_of(gmid).expect("owner");
        if controller
            .zone_shards(fabric.topology.zone_of_edge(home))
            .contains(&owner)
        {
            owners_in_home_zone += 1;
        }
        let mut senders = std::collections::BTreeSet::new();
        for (i, &edge) in footprint.iter().enumerate() {
            let ip = Ipv4Addr::new(10, 3, mi as u8, i as u8 + 1);
            let addr = HostAddr::new(ip, 5000);
            let sends = (i as u32) < rec.video_senders.max(1);
            let req = JoinRequest { edge, addr, sends };
            let grant = controller.join(&mut sim, &fabric, gmid, &[req])[0]
                .grant
                .expect("no budgets armed");
            if sends {
                senders.insert(edge);
            }
            let ccfg = if sends {
                ClientConfig::sender(ip, 5000, 0x20_0000 * (mi as u32 + 1) + i as u32)
                    .sending_to(grant.local.video_uplink, grant.local.audio_uplink)
            } else {
                ClientConfig::receiver_only(ip, 5000, 0x20_0000 * (mi as u32 + 1) + i as u32)
            };
            let id = sim.add_node(
                Box::new(ClientNode::new(ccfg)),
                &[ip],
                client_link,
                client_link,
            );
            client_ids.push(id);
        }
        spans.push(span);
        sender_edges.push(senders);
    }

    sim.run_for(SimDuration::from_secs_f64(run_secs));

    // Expected once-per-remote-zone load per link, attributed from the
    // (meeting-disjoint) sender edges' ingress counters.
    let mut offered_edge = vec![0u64; edges];
    for (e, offered) in offered_edge.iter_mut().enumerate() {
        let c = fabric.edge_counters(&mut sim, e);
        // `rtp_in`/`rtcp_sr` also count trunk-arrived packets; subtract
        // `trunk_in` so only locally-offered media attributes to links.
        *offered = c.rtp_in_pkts + c.rtcp_sr_pkts - c.trunk_in_pkts;
    }
    let mut offered_link = vec![0u64; fabric.topology.wan_links.len()];
    for (mi, span) in spans.iter().enumerate() {
        for &e in &sender_edges[mi] {
            let z = fabric.topology.zone_of_edge(e);
            for &zr in span.iter().filter(|&&zr| zr != z) {
                if let Some(l) = fabric.topology.wan_link_between(z, zr) {
                    offered_link[l] += offered_edge[e];
                }
            }
        }
    }

    let mut wan_rows = Vec::new();
    for (l, wl) in fabric.topology.wan_links.iter().enumerate() {
        let s = fabric.wan_stats(&mut sim, l);
        wan_rows.push(WanLinkRow {
            link: l,
            zone_a: wl.zone_a,
            zone_b: wl.zone_b,
            relayed_pkts: s.relayed_pkts,
            relayed_bytes: s.relayed_bytes,
            unroutable_pkts: s.unroutable_pkts,
            offered_pkts: offered_link[l],
        });
    }
    let mut frames = 0u64;
    for &id in &client_ids {
        let c: &mut ClientNode = sim.node_mut(id).expect("client");
        frames += c
            .stats()
            .streams
            .iter()
            .map(|(_, r)| r.frames_decoded)
            .sum::<u64>();
    }
    WanSliceReport {
        wan_rows,
        meetings: slice.len(),
        cross_zone_meetings,
        clients: client_ids.len(),
        frames_decoded: frames,
        zone_meetings: controller.zone_meeting_counts(),
        shard_meetings: controller.meetings_per_shard(),
        owners_in_home_zone,
        cross_zone_handoffs: controller.cross_zone_handoff_total(),
    }
}

/// What the churn/migration phase measures.
#[derive(Serialize)]
pub struct ChurnReport {
    /// Whether the controller's rebalance pass ran after each event.
    pub migrate: bool,
    /// Whether the meeting actually re-homed during the drift.
    pub rehomed: bool,
    /// The meeting's home edge when the phase ended.
    pub final_home: usize,
    /// Lowest cross-switch decode rate sampled through the drift and
    /// (when migrating) the re-home cutover.
    pub min_cutover_fps: f64,
    /// Fabric-wide trunk bytes emitted during the post-drift
    /// measurement window — what the fabric keeps paying after the
    /// population finished moving.
    pub post_drift_trunk_out_bytes: u64,
    /// Trunk packets still arriving at the *old* home edge during the
    /// post-drift window (0 once the drained segment is collected).
    pub post_drift_old_home_trunk_in_pkts: u64,
    /// Frames decoded by the clients still attached when the phase
    /// ends (a leaver's receive stats are discarded with its hangup).
    pub frames_decoded: u64,
    /// Re-homes the rebalance pass performed (0 without migration).
    pub rehome_count: u64,
    /// Controller-shard ownership handoffs that rode along with the
    /// re-homes (0 when a single shard runs the control plane).
    pub shard_handoffs: u64,
    /// Cross-shard joins forwarded during the drift.
    pub join_forwards: u64,
    /// Meetings owned per controller shard when the phase ended.
    pub shard_meetings: Vec<usize>,
}

/// Drive the drift churn scenario over a 2-edge + 1-core fabric: four
/// members (two sending) start on edge 0, and every 2 s one is replaced
/// by a counterpart on edge 1 until the population has fully moved.
/// With `migrate` the controller rebalances after every membership
/// change, re-homing the meeting once edge 1 holds a decisive majority
/// and collecting the drained edge-0 segment; without it the meeting
/// stays homed on edge 0 forever. The report's post-drift trunk counters
/// quantify what migration saves.
///
/// The control plane runs `shards` controller instances; the re-home
/// may carry the meeting's ownership to another shard (reported as
/// `shard_handoffs`), and joins landing on a non-owner ingress shard
/// are forwarded (reported as `join_forwards`).
pub fn run_churn_phase(migrate: bool, shards: usize) -> ChurnReport {
    const MEMBERS: usize = 4;
    const SENDERS: usize = 2;
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(0)
            .switches(2)
            .cores(1)
            .shards(shards)
            .seed(0xC0FFEE),
    );
    // Initial joins fire at plan start (= now); the population then
    // gets one full step of ramp before the first swap.
    let plan = ChurnPlan::drift(0, 1, MEMBERS, SENDERS, h.now(), SimDuration::from_secs(2));
    let mut rehomed = false;
    let mut rehome_count = 0u64;
    let mut min_fps = f64::INFINITY;
    let window = SimDuration::from_secs(1);
    // The monitored cross-switch pair: the first replacement sender
    // (slot MEMBERS, joins edge 1 at the first swap) toward the last
    // original receiver (slot MEMBERS-1, stays on edge 0 until the
    // final swap) — it exists through the re-home cutover.
    let (mon_s, mon_r) = (MEMBERS, MEMBERS - 1);
    let mut slots: Vec<usize> = Vec::new();
    let mut mon_live_at: Option<SimTime> = None;
    for &(at, ev) in &plan.events {
        // Advance to the event in 500 ms steps, sampling the monitored
        // pair once both endpoints are live and the stream has had
        // 1.5 s to ramp (a fresh sender's trailing-window fps is not a
        // cutover artifact).
        while h.now() < at {
            let step = SimDuration::from_millis(500).min(at.saturating_since(h.now()));
            h.sim.run_for(step);
            let warmed = mon_live_at
                .map(|t| h.now().saturating_since(t) >= SimDuration::from_millis(1_500))
                .unwrap_or(false);
            if warmed && slots[mon_r] != usize::MAX && slots[mon_s] != usize::MAX {
                if let Some(fps) = h.fps_between(slots[mon_s], slots[mon_r], window) {
                    min_fps = min_fps.min(fps);
                }
            }
        }
        match ev {
            ChurnEvent::Join { edge, sends } => {
                slots.push(h.join_late(edge, sends));
                if slots.len() == mon_s + 1 {
                    mon_live_at = Some(h.now());
                }
            }
            ChurnEvent::Leave { slot } => {
                h.leave(slots[slot]);
                slots[slot] = usize::MAX;
            }
        }
        if migrate && h.rebalance().is_some() {
            rehomed = true;
            rehome_count += 1;
        }
    }

    // Post-drift measurement window: 1 s settle, then a 3 s window.
    h.run_for_secs(1.0);
    let before_home = h.counters_at(0);
    let before_total = h.total_counters();
    h.run_for_secs(3.0);
    let after_home = h.counters_at(0);
    let after_total = h.total_counters();
    let report = h.report();
    ChurnReport {
        migrate,
        rehomed,
        final_home: h.home_edge(),
        min_cutover_fps: if min_fps.is_finite() { min_fps } else { 0.0 },
        post_drift_trunk_out_bytes: after_total.trunk_out_bytes - before_total.trunk_out_bytes,
        post_drift_old_home_trunk_in_pkts: after_home.trunk_in_pkts - before_home.trunk_in_pkts,
        frames_decoded: report.frames_decoded,
        rehome_count,
        shard_handoffs: h.shard_handoffs(),
        join_forwards: h.shard_forwards(),
        shard_meetings: h.shard_meeting_counts(),
    }
}
