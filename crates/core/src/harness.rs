//! Turn-key experiment assembly: meetings of simulated WebRTC clients
//! wired through a Scallop switching fabric.
//!
//! Every evaluation scenario in §7 is some configuration of this
//! harness: N participants (K of them sending), per-client access links,
//! optional mid-run impairments (the Fig. 14 downlink degradations), and
//! report extraction (client stats, data-plane counters, per-stream
//! frame rates).
//!
//! With one edge switch (the default) the harness builds exactly the
//! seed's single-switch deployment ([`Topology::single`]) — same node
//! order, same addresses, same agent operations, so reports are
//! bit-for-bit reproducible under a fixed seed. Any larger fabric is a
//! [`Topology::federation`] of `zones` campuses of `switches` edges and
//! `cores` core relays each (one zone is a plain campus): clients are
//! sharded round-robin across all edges, the meeting is placed on home
//! edge 0, and the controller compiles cross-switch forwarding so each
//! sender's media crosses every trunk once per remote switch and every
//! WAN link once per remote zone. Per-WAN-link byte counters are
//! exposed via [`ScallopHarness::wan_stats`].
//!
//! The control plane behind the harness is always a
//! [`ShardedControlPlane`] with zone affinity
//! ([`ShardedControlPlane::with_zone_affinity`]); the `shards` knob
//! picks how many controller instances partition meeting ownership
//! (`1` = the classic single controller). Sharding is control-plane
//! bookkeeping only, so every media-plane report is identical whatever
//! the shard count — a property the `tests/shard_ownership.rs` suite
//! pins. The harness does not rename the plane's, the fabric's or the
//! simulator's readings: read them on [`ScallopHarness::controller`],
//! [`ScallopHarness::fabric`] and [`ScallopHarness::sim`].

use crate::agent::{JoinGrant, MeetingId};
use crate::capacity::{AdmissionDecision, FabricBudgets};
use crate::controller::{FabricGrant, GlobalMeetingId, JoinRequest};
use crate::fabric::Fabric;
use crate::shard::{RebalanceSummary, ShardedControlPlane};
use scallop_client::{ClientConfig, ClientNode, ClientStats};
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::switch::DataPlaneCounters;
use scallop_media::encoder::EncoderConfig;
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::{NodeId, Simulator};
use scallop_netsim::time::SimDuration;
use scallop_netsim::topology::Topology;
use std::net::Ipv4Addr;

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Number of participants in the meeting.
    pub participants: usize,
    /// How many of them send media (the rest receive only); defaults to
    /// all.
    pub senders: Option<usize>,
    /// Number of edge switches; participants shard round-robin across
    /// them. `1` reproduces the seed single-switch behavior exactly.
    /// With `zones > 1` this is the edge count **per zone**.
    pub switches: usize,
    /// Number of core relays (only meaningful with `switches > 1`; `0`
    /// means edges trunk directly to each other). With `zones > 1`
    /// this is the core count **per zone**.
    pub cores: usize,
    /// Number of federation zones: the fabric is
    /// [`Topology::federation`] — `zones` campuses of `switches` edges
    /// each, joined by WAN links — and the control plane shards with
    /// affinity to them. `1` (the default) is a single campus with no
    /// WAN links.
    pub zones: usize,
    /// Number of controller shards the control plane runs
    /// ([`crate::shard::ShardedControlPlane`]). `1` (the default) is a
    /// single controller owning every meeting; sharding is transparent
    /// to the media plane, so reports are identical for any value. The
    /// default can be overridden with the `SCALLOP_SHARDS` environment
    /// variable, which lets the whole harness-based test corpus run
    /// against a sharded control plane unchanged
    /// (`SCALLOP_SHARDS=4 cargo test`).
    pub shards: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Sequence-rewrite heuristic.
    pub rewrite_mode: SeqRewriteMode,
    /// Per-client uplink.
    pub client_uplink: LinkConfig,
    /// Per-client downlink.
    pub client_downlink: LinkConfig,
    /// Switch access link (both directions).
    pub switch_link: LinkConfig,
    /// Video encoder settings for sending clients.
    pub video: EncoderConfig,
    /// Capacity budgets armed on the control plane before any join
    /// (`None`, the default, refuses and thins nothing). With budgets
    /// set, every join —
    /// the initial participants included — is priced against the shared
    /// [`crate::capacity::FabricLoadLedger`] and may be thinned or
    /// refused.
    pub admission: Option<FabricBudgets>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            participants: 3,
            senders: None,
            switches: 1,
            cores: 0,
            zones: 1,
            // A set-but-invalid override must fail loudly: silently
            // falling back to 1 would run the whole corpus unsharded
            // while the operator believes it exercised the sharded
            // control plane.
            shards: match std::env::var("SCALLOP_SHARDS") {
                Err(_) => 1,
                Ok(raw) => match raw.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => panic!("SCALLOP_SHARDS must be a positive integer, got {raw:?}"),
                },
            },
            seed: 0x5CA1_10B5,
            rewrite_mode: SeqRewriteMode::LowRetransmission,
            client_uplink: LinkConfig::infinite(SimDuration::from_millis(10))
                .with_rate(50_000_000)
                .with_queue_bytes(128 * 1024),
            // Modest queue: 128 KB absorbs correlated multi-sender frame
            // bursts at full rate (10-party: ~80 KB per tick) yet stays
            // under half a second at the Fig. 14 degraded rates, so
            // loss-based recovery is not stalled by bufferbloat.
            client_downlink: LinkConfig::infinite(SimDuration::from_millis(10))
                .with_rate(50_000_000)
                .with_queue_bytes(128 * 1024),
            switch_link: LinkConfig::infinite(SimDuration::from_micros(50)),
            video: EncoderConfig::default(),
            admission: None,
        }
    }
}

impl HarnessConfig {
    /// Builder: participant count.
    pub fn participants(mut self, n: usize) -> Self {
        self.participants = n;
        self
    }

    /// Builder: sender count.
    pub fn senders(mut self, k: usize) -> Self {
        self.senders = Some(k);
        self
    }

    /// Builder: edge switch count (clients shard round-robin).
    pub fn switches(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one switch");
        self.switches = n;
        self
    }

    /// Builder: core relay count.
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Builder: federation zone count (`switches`/`cores` become
    /// per-zone counts when `n > 1`).
    pub fn zones(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one zone");
        self.zones = n;
        self
    }

    /// Total edge switches across all zones.
    pub fn edge_count(&self) -> usize {
        self.zones * self.switches
    }

    /// Builder: controller shard count.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one shard");
        self.shards = n;
        self
    }

    /// Builder: seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Builder: rewrite heuristic.
    pub fn rewrite_mode(mut self, m: SeqRewriteMode) -> Self {
        self.rewrite_mode = m;
        self
    }

    /// Builder: arm capacity budgets (admission control) on the control
    /// plane.
    pub fn admission(mut self, budgets: FabricBudgets) -> Self {
        self.admission = Some(budgets);
        self
    }
}

/// Summary of a harness run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HarnessReport {
    /// Participants simulated.
    pub participants: usize,
    /// Media packets the data plane forwarded (all edges).
    pub media_packets_forwarded: u64,
    /// Packets punted to switch agents (all edges).
    pub cpu_packets: u64,
    /// Total frames decoded across all clients.
    pub frames_decoded: u64,
    /// Total decoder freezes across all clients.
    pub freezes: u64,
    /// Replicas suppressed by rate adaptation (all edges).
    pub rate_adapt_drops: u64,
    /// Replicas that crossed a trunk (0 on a single switch).
    pub trunk_packets: u64,
}

/// Snapshot of one edge switch's resource occupancy (ports, ids, PRE
/// groups, rules). Meeting GC must return an edge to its pre-meeting
/// snapshot; tests compare these for equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOccupancy {
    /// SFU UDP ports allocated.
    pub ports_in_use: usize,
    /// Participant entries tracked by the agent (all classes).
    pub participants: usize,
    /// Meeting segments tracked by the agent.
    pub meetings: usize,
    /// PRE multicast groups in use.
    pub pre_groups: usize,
    /// L2 XID pruning entries registered.
    pub l2_xids: usize,
    /// Installed port rules.
    pub port_rules: usize,
    /// Installed egress entries.
    pub egress_rules: usize,
}

/// The assembled experiment.
pub struct ScallopHarness {
    /// The simulator (exposed for custom impairments / inspection).
    pub sim: Simulator,
    /// The switching fabric (edge switch node ids, core relays).
    pub fabric: Fabric,
    /// Edge-0 switch node id (the only switch when `switches = 1`).
    pub switch_id: NodeId,
    /// Client node ids, by participant index.
    pub client_ids: Vec<NodeId>,
    /// Per-participant local join grants (on each one's home edge).
    pub grants: Vec<JoinGrant>,
    /// Per-participant fabric grants (global id + home edge).
    pub fabric_grants: Vec<FabricGrant>,
    /// The control plane (one or more controller shards behind one
    /// fabric-meeting API).
    pub controller: ShardedControlPlane,
    /// The home-edge local segment id (the meeting id on edge 0).
    pub meeting: MeetingId,
    /// The fabric-wide meeting id.
    pub fabric_meeting: GlobalMeetingId,
    cfg: HarnessConfig,
}

/// The switch's IP in harness topologies (edge 0 of the fabric).
pub const SWITCH_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn client_ip(idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, (idx / 250) as u8, (idx % 250 + 1) as u8)
}

impl ScallopHarness {
    /// Build the topology and join all participants.
    pub fn new(cfg: HarnessConfig) -> Self {
        let mut sim = Simulator::new(cfg.seed);
        let topology = if cfg.edge_count() == 1 {
            Topology::single(SWITCH_IP)
        } else {
            Topology::federation(cfg.zones, cfg.switches, cfg.cores)
        };
        let fabric = Fabric::build(&mut sim, topology, cfg.switch_link, cfg.rewrite_mode);
        let switch_id = fabric.edge_ids[0];
        let mut controller =
            ShardedControlPlane::new(cfg.shards).with_zone_affinity(cfg.zones, cfg.switches);
        if let Some(budgets) = cfg.admission {
            controller.set_capacity_budgets(budgets, &fabric.topology);
        }
        let senders = cfg.senders.unwrap_or(cfg.participants);
        let fabric_meeting = controller.create_fabric_meeting(&mut sim, &fabric, 0);
        let meeting = controller
            .segment_of(fabric_meeting, 0)
            .expect("home segment");
        let mut harness = ScallopHarness {
            sim,
            fabric,
            switch_id,
            client_ids: Vec::new(),
            grants: Vec::new(),
            fabric_grants: Vec::new(),
            controller,
            meeting,
            fabric_meeting,
            cfg,
        };
        // Initial joins go through the same path as mid-run churn joins
        // (one attach procedure, no drift between the two).
        for i in 0..cfg.participants {
            harness.join_late(i % cfg.edge_count(), i < senders);
        }
        harness
    }

    /// Run the simulation forward and summarize.
    pub fn run_for_secs(&mut self, secs: f64) -> HarnessReport {
        self.sim.run_for(SimDuration::from_secs_f64(secs));
        self.report()
    }

    /// Summarize the current state (counters aggregated over all edges).
    pub fn report(&mut self) -> HarnessReport {
        let mut frames = 0;
        let mut freezes = 0;
        for idx in 0..self.client_ids.len() {
            let stats = self.client_stats(idx);
            for (_, rx) in stats.streams {
                frames += rx.frames_decoded;
                freezes += rx.freezes;
            }
        }
        let c = self.total_counters();
        HarnessReport {
            participants: self.cfg.participants,
            media_packets_forwarded: c.forwarded_pkts,
            cpu_packets: c.cpu_pkts,
            frames_decoded: frames,
            freezes,
            rate_adapt_drops: c.rate_adapt_drops,
            trunk_packets: c.trunk_out_pkts,
        }
    }

    /// Data-plane counters of edge 0 (the whole system when
    /// `switches = 1`).
    pub fn switch_counters(&mut self) -> DataPlaneCounters {
        self.fabric.edge_counters(&mut self.sim, 0)
    }

    /// Data-plane counters of edge `i`.
    pub fn counters_at(&mut self, i: usize) -> DataPlaneCounters {
        self.fabric.edge_counters(&mut self.sim, i)
    }

    /// Aggregate data-plane counters across the fabric.
    pub fn total_counters(&mut self) -> DataPlaneCounters {
        self.fabric.total_counters(&mut self.sim)
    }

    /// Mutable access to the edge-0 switch node.
    pub fn switch(&mut self) -> &mut crate::switchnode::ScallopSwitchNode {
        self.fabric.edge_mut(&mut self.sim, 0)
    }

    /// Mutable access to edge switch `i`.
    pub fn switch_at(&mut self, i: usize) -> &mut crate::switchnode::ScallopSwitchNode {
        self.fabric.edge_mut(&mut self.sim, i)
    }

    /// The home edge index of participant `idx`.
    pub fn edge_of(&self, idx: usize) -> usize {
        self.fabric_grants[idx].edge
    }

    /// Relay statistics of WAN link `idx` — the per-link byte counters
    /// the federation benches and tests gate on.
    pub fn wan_stats(&mut self, idx: usize) -> scallop_netsim::relay::RelayStats {
        self.fabric.wan_stats(&mut self.sim, idx)
    }

    // ------------------------------------------------------------------
    // Churn hooks: membership changes and re-homing mid-run.
    // ------------------------------------------------------------------

    /// Join a new participant on `edge` mid-run; returns its index.
    /// Panics if the capacity planner refuses the join — use
    /// [`Self::try_join_late`] where budgets may bind.
    pub fn join_late(&mut self, edge: usize, sends: bool) -> usize {
        self.try_join_late(edge, sends)
            .1
            .expect("join refused by the capacity planner")
    }

    /// Join a new participant on `edge` mid-run through the control
    /// plane's one join path ([`crate::shard::ShardedControlPlane::join`]),
    /// which prices it against the capacity ledger. A refusal creates no
    /// client node and returns `None` alongside the typed decision; an
    /// admitted join (full or SVC-thin) attaches a client and returns
    /// its index.
    pub fn try_join_late(
        &mut self,
        edge: usize,
        sends: bool,
    ) -> (AdmissionDecision, Option<usize>) {
        let addr = HostAddr::new(client_ip(self.client_ids.len()), 5000);
        let req = JoinRequest { edge, addr, sends };
        let outcome =
            self.controller
                .join(&mut self.sim, &self.fabric, self.fabric_meeting, &[req])[0];
        let idx = outcome.grant.map(|grant| self.attach_client(grant, sends));
        (outcome.decision, idx)
    }

    /// Wire a granted join up as a simulated client node.
    fn attach_client(&mut self, grant: FabricGrant, sends: bool) -> usize {
        let idx = self.client_ids.len();
        let ip = client_ip(idx);
        let mut ccfg = if sends {
            ClientConfig::sender(ip, 5000, 0x1_0000u32 * (idx as u32 + 1))
                .sending_to(grant.local.video_uplink, grant.local.audio_uplink)
        } else {
            ClientConfig::receiver_only(ip, 5000, 0x1_0000u32 * (idx as u32 + 1))
        };
        ccfg.video = ccfg.video.map(|_| self.cfg.video);
        let id = self.sim.add_node(
            Box::new(ClientNode::new(ccfg)),
            &[ip],
            self.cfg.client_uplink,
            self.cfg.client_downlink,
        );
        self.grants.push(grant.local);
        self.fabric_grants.push(grant);
        self.client_ids.push(id);
        idx
    }

    /// Remove participant `idx` from the meeting: the controller tears
    /// down (and possibly garbage-collects) its fabric state and the
    /// client node goes quiescent.
    pub fn leave(&mut self, idx: usize) {
        let global = self.fabric_grants[idx].global;
        self.controller
            .leave_fabric(&mut self.sim, &self.fabric, self.fabric_meeting, global);
        let c: &mut ClientNode = self.sim.node_mut(self.client_ids[idx]).expect("client");
        c.hangup();
    }

    /// Run the controller's re-homing pass over the harness meeting;
    /// returns `Some((old_home, new_home))` when the meeting re-homed.
    /// A re-home may also hand the meeting to another controller shard
    /// (visible via [`ShardedControlPlane::handoff_total`] /
    /// [`Self::shard_of_meeting`]).
    pub fn rebalance(&mut self) -> Option<(usize, usize)> {
        self.controller
            .rebalance_fabric(&mut self.sim, &self.fabric, self.fabric_meeting)
    }

    /// Run the re-homing pass over **every** meeting the control plane
    /// tracks and report what it did — re-home and shard-handoff
    /// counts are returned so callers can assert on them instead of
    /// discarding them.
    pub fn rebalance_all(&mut self) -> RebalanceSummary {
        self.controller.rebalance_all(&mut self.sim, &self.fabric)
    }

    /// The controller shard currently owning the harness meeting.
    pub fn shard_of_meeting(&self) -> usize {
        self.controller
            .owner_of(self.fabric_meeting)
            .expect("fabric meeting exists")
    }

    /// The meeting's current home edge.
    pub fn home_edge(&self) -> usize {
        self.controller
            .home_edge_of(self.fabric_meeting)
            .expect("fabric meeting exists")
    }

    /// Switch-resource occupancy of edge `i` (for reclaim auditing).
    pub fn edge_occupancy(&mut self, i: usize) -> EdgeOccupancy {
        let sw = self.fabric.edge_mut(&mut self.sim, i);
        EdgeOccupancy {
            ports_in_use: sw.agent.ports_in_use(),
            participants: sw.agent.participants_tracked(),
            meetings: sw.agent.meetings_tracked(),
            pre_groups: sw.dp.pre.groups_used(),
            l2_xids: sw.dp.pre.l2_xids_used(),
            port_rules: sw.dp.port_rules.len(),
            egress_rules: sw.dp.egress.len(),
        }
    }

    // ------------------------------------------------------------------
    // Fault hooks: fail-stop injection and repair (ARCHITECTURE.md
    // "Failure domains").
    // ------------------------------------------------------------------

    /// Fail-stop core relay `j`: packets toward it are discarded and
    /// its timers stop until [`Self::revive_core`]. Media riding the
    /// dead core blackholes until [`Self::repair_trunks`] re-routes
    /// it — that gap is the measured recovery window.
    pub fn kill_core(&mut self, j: usize) {
        self.sim.kill_node(self.fabric.core_ids[j]);
    }

    /// Revive core relay `j` (relays are reactive, so delivery resumes
    /// immediately; see [`scallop_netsim::sim::Simulator::revive_node`]).
    pub fn revive_core(&mut self, j: usize) {
        self.sim.revive_node(self.fabric.core_ids[j]);
    }

    /// Control-plane repair: re-aim every trunk branch against the
    /// network as it is now — around dead cores and cut trunk links
    /// (next usable core of the zone, or direct edge addressing when
    /// none remains), and back once they return. *When* this runs is
    /// the failure-detection delay the caller models. Returns the
    /// number of branches that moved.
    pub fn repair_trunks(&mut self) -> u64 {
        self.controller.repair_trunks(&mut self.sim, &self.fabric)
    }

    /// Cut the trunk link between edge `edge` and core `core` (both
    /// directions; in-flight packets still arrive).
    pub fn cut_trunk(&mut self, edge: usize, core: usize) {
        self.sim
            .cut_link(self.fabric.edge_ids[edge], self.fabric.core_ids[core]);
    }

    /// Restore a previously cut edge↔core trunk link.
    pub fn restore_trunk(&mut self, edge: usize, core: usize) {
        self.sim
            .restore_link(self.fabric.edge_ids[edge], self.fabric.core_ids[core]);
    }

    /// Fail-stop edge switch `i` (its clients crash with it).
    pub fn kill_edge(&mut self, i: usize) {
        self.sim.kill_node(self.fabric.edge_ids[i]);
    }

    /// Evacuate all control-plane state off a fail-stopped edge (see
    /// [`ShardedControlPlane::handle_edge_failure`]). Returns the number
    /// of members dropped with the edge.
    pub fn evacuate_edge(&mut self, i: usize) -> u64 {
        self.controller
            .handle_edge_failure(&mut self.sim, &self.fabric, i)
    }

    /// Relay statistics of core `j` (frozen while the core is dead —
    /// useful for asserting a dead core stopped carrying traffic).
    pub fn core_stats(&mut self, j: usize) -> scallop_netsim::relay::RelayStats {
        self.fabric.core_stats(&mut self.sim, j)
    }

    /// Revive controller shard `s`: its stale ownership re-assertions
    /// are fenced (returned count) and a
    /// [`crate::shard::ShardedControlPlane::rebalance_ownership`] pass
    /// folds the shard back into the bounded-loads spread.
    pub fn revive_shard(&mut self, s: usize) -> u64 {
        let rejected = self.controller.revive_shard(s);
        self.controller.rebalance_ownership();
        rejected
    }

    /// A client's statistics.
    pub fn client_stats(&mut self, idx: usize) -> ClientStats {
        let c: &mut ClientNode = self.sim.node_mut(self.client_ids[idx]).expect("client");
        c.stats()
    }

    /// Constrain participant `idx`'s downlink to `rate_bps` (the Fig. 14
    /// degradation).
    pub fn degrade_downlink(&mut self, idx: usize, rate_bps: u64) {
        self.sim
            .downlink_mut(self.client_ids[idx])
            .set_rate_bps(rate_bps);
    }

    /// Decoded frame rate at `receiver_idx` for the stream sent by
    /// `sender_idx`, over a trailing window. Works across edges: the
    /// receiver is served from its own edge's per-pair port, whether the
    /// sender is local or arrives over a trunk.
    pub fn fps_between(
        &mut self,
        sender_idx: usize,
        receiver_idx: usize,
        window: SimDuration,
    ) -> Option<f64> {
        let (edge, s_pid, r_pid) = self.controller.pair_on_receiver_edge(
            self.fabric_meeting,
            self.fabric_grants[sender_idx].global,
            self.fabric_grants[receiver_idx].global,
        )?;
        let src = {
            let sw = self.fabric.edge_mut(&mut self.sim, edge);
            sw.agent.video_pair_addr(s_pid, r_pid)?
        };
        let now = self.sim.now();
        let c: &mut ClientNode = self.sim.node_mut(self.client_ids[receiver_idx])?;
        c.fps_from(src, window, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::TreeDesign;

    #[test]
    fn three_party_call_through_scallop() {
        let mut h = ScallopHarness::new(HarnessConfig::default().participants(3));
        let report = h.run_for_secs(5.0);
        assert_eq!(report.participants, 3);
        assert!(report.media_packets_forwarded > 3_000);
        assert!(report.cpu_packets > 0, "STUN/feedback copies must punt");
        // 3 participants × 2 remote senders × ~150 frames in 5 s.
        assert!(
            report.frames_decoded > 600,
            "decoded {}",
            report.frames_decoded
        );
        assert_eq!(report.freezes, 0);
        assert_eq!(report.trunk_packets, 0, "single switch has no trunks");
        // Full quality: NRA design, no adaptation drops.
        let meeting = h.meeting;
        assert_eq!(h.switch().agent.design_of(meeting), Some(TreeDesign::Nra));
    }

    #[test]
    fn two_party_uses_fast_path_end_to_end() {
        let mut h = ScallopHarness::new(HarnessConfig::default().participants(2));
        let report = h.run_for_secs(3.0);
        let meeting = h.meeting;
        assert_eq!(
            h.switch().agent.design_of(meeting),
            Some(TreeDesign::TwoParty)
        );
        assert_eq!(h.switch().dp.pre.groups_used(), 0);
        assert!(report.frames_decoded > 120);
        assert_eq!(report.freezes, 0);
    }

    #[test]
    fn constrained_downlink_triggers_adaptation() {
        let mut h = ScallopHarness::new(HarnessConfig::default().participants(3).seed(7));
        h.run_for_secs(3.0);
        // Degrade P2's downlink below the ~4.5 Mbit/s it receives but
        // above what the 15 fps tier needs (~2.3 Mbit/s): the adaptation
        // has a satisfiable operating point, as in Fig. 14.
        h.degrade_downlink(2, 2_600_000);
        h.run_for_secs(10.0);
        let meeting = h.meeting;
        let constrained = h.grants[2].participant;
        let sw = h.switch();
        let design = sw.agent.design_of(meeting);
        let dt = sw.agent.dt_of(constrained).expect("participant tracked");
        assert_eq!(design, Some(TreeDesign::RaR), "meeting must migrate");
        assert!(dt < 2, "P2's decode target must drop, got {dt}");
        // The other receivers keep full rate.
        let fps01 = h
            .fps_between(0, 1, SimDuration::from_secs(2))
            .expect("stream exists");
        assert!(fps01 > 24.0, "unconstrained receiver fps {fps01}");
        // The constrained receiver sees a reduced-but-smooth rate.
        let fps02 = h
            .fps_between(0, 2, SimDuration::from_secs(2))
            .expect("stream exists");
        assert!(
            (7.0..22.0).contains(&fps02),
            "constrained receiver fps {fps02}"
        );
    }

    #[test]
    fn receiver_only_participants_supported() {
        let mut h =
            ScallopHarness::new(HarnessConfig::default().participants(4).senders(1).seed(3));
        let report = h.run_for_secs(4.0);
        // 3 receivers × 1 sender × ~120 frames.
        assert!(report.frames_decoded > 250);
        let stats = h.client_stats(0);
        assert!(stats.sender.video_packets > 400);
        let stats3 = h.client_stats(3);
        assert_eq!(stats3.sender.video_packets, 0);
        assert!(!stats3.streams.is_empty());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let mut h = ScallopHarness::new(HarnessConfig::default().participants(3).seed(99));
            let r = h.run_for_secs(3.0);
            (r.media_packets_forwarded, r.cpu_packets, r.frames_decoded)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_switch_meeting_delivers_cross_switch_media() {
        let mut h = ScallopHarness::new(
            HarnessConfig::default()
                .participants(4)
                .switches(2)
                .seed(11),
        );
        let report = h.run_for_secs(5.0);
        assert!(
            report.frames_decoded > 1_000,
            "decoded {}",
            report.frames_decoded
        );
        assert_eq!(report.freezes, 0);
        assert!(report.trunk_packets > 0, "cross-switch media must trunk");
        // Every cross-edge (sender, receiver) pair decodes near 30 fps.
        for s in 0..4 {
            for r in 0..4 {
                if s == r || h.edge_of(s) == h.edge_of(r) {
                    continue;
                }
                let fps = h
                    .fps_between(s, r, SimDuration::from_secs(2))
                    .expect("cross-switch stream");
                assert!(fps > 24.0, "P{s}->P{r} fps {fps}");
            }
        }
    }

    #[test]
    fn federated_meeting_delivers_cross_zone_media() {
        // 2 zones × 2 edges × 1 core: participants land on edges
        // 0,1 (zone 0) and 2,3 (zone 1), all sending.
        let mut h = ScallopHarness::new(
            HarnessConfig::default()
                .participants(4)
                .switches(2)
                .cores(1)
                .zones(2)
                .seed(31),
        );
        assert_eq!(h.fabric.topology.wan_links.len(), 1);
        let report = h.run_for_secs(5.0);
        assert_eq!(report.freezes, 0);
        assert!(report.trunk_packets > 0);
        assert!(
            h.wan_stats(0).relayed_bytes > 0,
            "cross-zone media rides the WAN"
        );
        // Every cross-zone pair decodes near full rate despite the WAN
        // hop (10 ms round trip on the canonical metric plan).
        for s in 0..4 {
            for r in 0..4 {
                if s == r
                    || h.fabric.topology.zone_of_edge(h.edge_of(s))
                        == h.fabric.topology.zone_of_edge(h.edge_of(r))
                {
                    continue;
                }
                let fps = h
                    .fps_between(s, r, SimDuration::from_secs(2))
                    .expect("cross-zone stream");
                assert!(fps > 24.0, "P{s}->P{r} fps {fps}");
            }
        }
    }

    #[test]
    fn fabric_determinism_same_seed_same_report() {
        let run = || {
            let mut h = ScallopHarness::new(
                HarnessConfig::default()
                    .participants(5)
                    .switches(2)
                    .cores(1)
                    .seed(123),
            );
            let r = h.run_for_secs(3.0);
            (
                r.media_packets_forwarded,
                r.cpu_packets,
                r.frames_decoded,
                r.trunk_packets,
            )
        };
        assert_eq!(run(), run());
    }
}
