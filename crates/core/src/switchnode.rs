//! The deployable Scallop switch: data plane + agent as one simulation
//! node.
//!
//! Packet path timing mirrors the hardware/software split:
//!
//! * media replicas leave after the **pipeline latency** — a fixed
//!   ~1.5 µs (hardware forwarding has "fixed per-packet delays to
//!   eliminate SFU-induced jitter", §1);
//! * CPU-port work (STUN answers, feedback analysis, DD analysis) pays
//!   the **agent latency** (~250 µs of switch-CPU path) before any
//!   effect is visible;
//! * the agent's periodic filter re-evaluation runs on a timer (§5.3's
//!   "periodically selects the maximum").

use crate::agent::{JoinGrant, MeetingId, ParticipantId, SwitchAgent, Tier};
use scallop_dataplane::batch::BatchOutput;
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::switch::{DataPlaneCounters, ScallopDataPlane};
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::sim::{Ctx, Node, TimerToken};
use scallop_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

const TIMER_FLUSH: TimerToken = TimerToken(200);
const TIMER_AGENT: TimerToken = TimerToken(201);

/// Switch deployment configuration.
#[derive(Debug, Clone, Copy)]
pub struct SwitchConfig {
    /// The switch's IP (all SFU ports live on it).
    pub ip: Ipv4Addr,
    /// Sequence-rewrite heuristic for the Stream Tracker.
    pub rewrite_mode: SeqRewriteMode,
    /// Fixed data-plane forwarding latency.
    pub pipeline_latency: SimDuration,
    /// Switch-CPU path latency for agent-handled packets.
    pub agent_latency: SimDuration,
    /// Agent feedback-filter tick interval.
    pub agent_tick: SimDuration,
    /// First SFU UDP port this switch allocates. Fabric deployments give
    /// every edge a disjoint range so trunk routing can match on the
    /// destination port (`scallop_netsim::topology`).
    pub port_base: u16,
    /// Exclusive upper bound of the port range (allocation past it would
    /// misroute trunk traffic and panics instead).
    pub port_limit: u16,
}

impl SwitchConfig {
    /// Defaults on the given IP.
    pub fn new(ip: Ipv4Addr) -> Self {
        SwitchConfig {
            ip,
            rewrite_mode: SeqRewriteMode::LowRetransmission,
            pipeline_latency: SimDuration::from_nanos(1_500),
            agent_latency: SimDuration::from_micros(250),
            agent_tick: SimDuration::from_millis(100),
            port_base: 10_000,
            port_limit: u16::MAX,
        }
    }

    /// Builder: choose the rewrite heuristic.
    pub fn with_mode(mut self, mode: SeqRewriteMode) -> Self {
        self.rewrite_mode = mode;
        self
    }

    /// Builder: set this switch's SFU port range `[base, limit)`.
    pub fn with_port_range(mut self, base: u16, limit: u16) -> Self {
        assert!(base < limit);
        self.port_base = base;
        self.port_limit = limit;
        self
    }
}

/// A packet waiting for its departure instant; `seq` is its emission
/// order across both lanes.
struct Departure {
    at: SimTime,
    seq: u64,
    pkt: Packet,
}

/// Which fixed latency a packet leaves after. The clock never runs
/// backwards and a lane's latency is one constant, so each lane is FIFO
/// by construction; [`Departures::flush_due`] merges the two fronts by
/// `(at, seq)`: the earliest leaves first, same-instant packets in the
/// order they were emitted.
enum Lane {
    /// Data-plane forwards, at [`SwitchConfig::pipeline_latency`].
    Pipeline,
    /// Agent responses and tick emissions, at
    /// [`SwitchConfig::agent_latency`].
    Agent,
}

/// The switch node.
pub struct ScallopSwitchNode {
    /// Deployment config.
    pub cfg: SwitchConfig,
    /// The Tofino-model data plane.
    pub dp: ScallopDataPlane,
    /// The on-switch agent.
    pub agent: SwitchAgent,
    /// Emitted packets that have not left yet.
    departures: Departures,
    /// Reused data-plane output (forwards, punt ring, parse arena — see
    /// `scallop_dataplane::batch`), so an arriving packet allocates none
    /// of them.
    batch_out: BatchOutput,
}

/// The packets a switch has emitted and not yet sent, one queue per
/// [`Lane`].
#[derive(Default)]
struct Departures {
    forwards: VecDeque<Departure>,
    responses: VecDeque<Departure>,
    pending_seq: u64,
    /// Departure instants a `TIMER_FLUSH` is on its way for. A fan-out-24
    /// packet emits 24 replicas for one instant and needs one flush, not
    /// 24. An instant leaves the list when a flush at or after it runs,
    /// so a packet emitted for the current instant after its flush fired
    /// (zero latency) arms a new one, and an instant whose timer died
    /// with a killed switch is forgotten by the first flush after the
    /// revive, which also releases the packets that were waiting for it.
    armed: Vec<SimTime>,
}

impl ScallopSwitchNode {
    /// Build a switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        ScallopSwitchNode {
            // Ingress matches on the exact port table alone. A
            // port-indexed mirror of the switch's range (`dataplane::soa`)
            // would cost ≈ 50 B per port of it to build (2.8 MB for a
            // whole edge range) and measured slower per lookup.
            dp: ScallopDataPlane::new(cfg.rewrite_mode),
            agent: SwitchAgent::new(cfg.ip).with_port_range(cfg.port_base, cfg.port_limit),
            cfg,
            departures: Departures::default(),
            batch_out: BatchOutput::default(),
        }
    }

    /// Controller RPC: add a participant.
    pub fn join(&mut self, meeting: MeetingId, addr: HostAddr, sends: bool) -> JoinGrant {
        self.agent.join(&mut self.dp, meeting, addr, sends)
    }

    /// Controller RPC: remove a participant.
    pub fn leave(&mut self, meeting: MeetingId, participant: ParticipantId) {
        self.agent.leave(&mut self.dp, meeting, participant);
    }

    /// Controller RPC: destroy a drained meeting segment (fabric GC).
    pub fn destroy_meeting(&mut self, meeting: MeetingId) {
        self.agent.destroy_meeting(&mut self.dp, meeting);
    }

    /// Controller RPC: register a sender homed on another edge, whose
    /// media arrives over `tier` (and prunes that branch tier); returns
    /// the trunk-ingress grant (where the upstream edge must send its
    /// one fabric copy).
    pub fn join_remote_sender(
        &mut self,
        meeting: MeetingId,
        home_addr: HostAddr,
        tier: Tier,
    ) -> JoinGrant {
        self.agent
            .join_remote_sender(&mut self.dp, meeting, home_addr, tier)
    }

    /// Controller RPC: add a trunk-egress branch toward a remote edge —
    /// on [`Tier::Wan`], toward a remote zone's gateway edge (only a
    /// zone gateway holds these).
    pub fn join_egress(&mut self, meeting: MeetingId, tier: Tier) -> ParticipantId {
        self.agent.join_egress(&mut self.dp, meeting, tier)
    }

    /// Controller RPC: allocate (idempotently) the feedback-sink port
    /// for a fabric-shared local sender — remote edges forward their
    /// per-edge selected REMB and NACK/PLI here for min-aggregation.
    pub fn feedback_sink(&mut self, sender: ParticipantId) -> u16 {
        self.agent.feedback_sink(&mut self.dp, sender)
    }

    /// Controller RPC: point trunk branch `trunk` at the remote ingress
    /// addresses for local sender `sender`; returns whether that moved
    /// the branch.
    pub fn set_trunk_dst(
        &mut self,
        trunk: ParticipantId,
        sender: ParticipantId,
        video_dst: HostAddr,
        audio_dst: HostAddr,
    ) -> bool {
        self.agent
            .set_trunk_dst(&mut self.dp, trunk, sender, video_dst, audio_dst)
    }

    /// Controller RPC: forget a garbage-collected remote edge's REMB
    /// estimate for local sender `sender`.
    pub fn clear_remote_est(&mut self, sender: ParticipantId, edge_ip: std::net::Ipv4Addr) {
        self.agent.clear_remote_est(sender, edge_ip);
    }

    /// Data-plane counters (Table 1 / Fig. 22 accounting).
    pub fn counters(&self) -> DataPlaneCounters {
        self.dp.counters
    }
}

impl Departures {
    fn emit(&mut self, ctx: &mut Ctx<'_>, cfg: &SwitchConfig, lane: Lane, pkt: Packet) {
        let (queue, latency) = match lane {
            Lane::Pipeline => (&mut self.forwards, cfg.pipeline_latency),
            Lane::Agent => (&mut self.responses, cfg.agent_latency),
        };
        let at = ctx.now() + latency;
        assert!(
            queue.back().is_none_or(|last| last.at <= at),
            "a lane's latency changed with departures pending"
        );
        self.pending_seq += 1;
        queue.push_back(Departure {
            at,
            seq: self.pending_seq,
            pkt,
        });
        // Newest instants are at the back, and a burst repeats the last.
        if !self.armed.iter().rev().any(|&t| t == at) {
            self.armed.push(at);
            ctx.schedule(latency, TIMER_FLUSH);
        }
    }

    fn flush_due(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.armed.retain(|&t| t > now);
        let due = |lane: &VecDeque<Departure>| {
            lane.front().filter(|d| d.at <= now).map(|d| (d.at, d.seq))
        };
        loop {
            let lane = match (due(&self.forwards), due(&self.responses)) {
                (None, None) => break,
                (Some(f), Some(r)) if r < f => &mut self.responses,
                (Some(_), _) => &mut self.forwards,
                (None, Some(_)) => &mut self.responses,
            };
            ctx.send(lane.pop_front().expect("due departure").pkt);
        }
    }
}

impl Node for ScallopSwitchNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.cfg.agent_tick, TIMER_AGENT);
    }

    /// One packet through the data plane as a batch of one. The agent
    /// may rewrite tables when it handles a punt, so it gets the packet
    /// before the data plane looks at the next one. A batch of one still
    /// replays every flow the data plane resolved since the tables were
    /// last written; a write by the agent empties that flow table, so the
    /// next packet meets the tables as the agent left them.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let out = &mut self.batch_out;
        self.dp.process_batch(std::slice::from_ref(&pkt), out);
        for f in out.forwards.drain(..) {
            self.departures.emit(ctx, &self.cfg, Lane::Pipeline, f);
        }
        if !out.cpu_punts.is_empty() {
            for r in self.agent.handle_cpu_packet(ctx.now(), &pkt, &mut self.dp) {
                self.departures.emit(ctx, &self.cfg, Lane::Agent, r);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        match timer {
            TIMER_FLUSH => self.departures.flush_due(ctx),
            TIMER_AGENT => {
                self.agent.tick(ctx.now(), &mut self.dp);
                ctx.schedule(self.cfg.agent_tick, TIMER_AGENT);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
    use scallop_media::packetizer::Packetizer;
    use scallop_netsim::link::LinkConfig;
    use scallop_netsim::sim::{NodeId, Simulator};
    use scallop_proto::rtcp::{self, RtcpPacket};
    use scallop_proto::stun::StunMessage;

    const SWITCH_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    /// Stands in for every client: records what arrives, and when.
    #[derive(Default)]
    struct Clients {
        arrivals: Vec<(SimTime, HostAddr)>,
    }
    impl Node for Clients {
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.arrivals.push((ctx.now(), pkt.dst));
        }
    }

    fn client(last: u8) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 1, 0, last), 5000)
    }

    fn switch_and_clients() -> (Simulator, NodeId, NodeId) {
        switch_and_clients_with(SwitchConfig::new(SWITCH_IP))
    }

    /// A switch and a [`Clients`] node owning `client(1..=3)`, joined by
    /// zero-delay links: a packet arrives the instant it departs.
    fn switch_and_clients_with(cfg: SwitchConfig) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(3);
        let link = LinkConfig::infinite(SimDuration::ZERO);
        let node = ScallopSwitchNode::new(cfg);
        let sw = sim.add_node(Box::new(node), &[SWITCH_IP], link, link);
        let ips = [client(1).ip, client(2).ip, client(3).ip];
        let clients = sim.add_node(Box::<Clients>::default(), &ips, link, link);
        (sim, sw, clients)
    }

    #[test]
    fn stun_answered_with_agent_latency() {
        let (mut sim, sw, clients) = switch_and_clients();
        let sent_at = SimTime::from_millis(1);
        let req = StunMessage::binding_request([5; 12]).serialize();
        sim.inject(
            sent_at,
            Packet::new(client(1), HostAddr::new(SWITCH_IP, 10_000), req),
        );
        sim.run_until(SimTime::from_secs(1));
        // Links are zero-delay: the RTT is exactly the agent CPU path.
        let c: &mut Clients = sim.node_mut(clients).unwrap();
        assert_eq!(
            c.arrivals,
            vec![(sent_at + SimDuration::from_micros(250), client(1))]
        );
        let sw: &mut ScallopSwitchNode = sim.node_mut(sw).unwrap();
        assert_eq!(sw.agent.counters.stun_answered, 1);
        assert_eq!(sw.dp.counters.stun_pkts, 1);
    }

    /// A punt is handled before the next same-instant packet is matched:
    /// a REMB that lowers P3's decode target, then a T2 frame of the
    /// stream it reports on, then a STUN request, all arriving at once.
    #[test]
    fn punt_reaches_the_agent_before_the_next_same_instant_packet() {
        let (mut sim, sw_id, clients) = switch_and_clients();
        let sw: &mut ScallopSwitchNode = sim.node_mut(sw_id).unwrap();
        let m = sw.agent.create_meeting();
        let g1 = sw.join(m, client(1), true);
        let _g2 = sw.join(m, client(2), false);
        let g3 = sw.join(m, client(3), false);
        let feedback_port = sw
            .agent
            .video_pair_addr(g1.participant, g3.participant)
            .unwrap();

        // 1 Mbit/s sits between the default thresholds: DT 2 -> 1.
        let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
            sender_ssrc: 0x33,
            bitrate_bps: 1_000_000,
            ssrcs: vec![0x11],
        })]);
        // Template 3 is a T2 frame: above DT 1, within DT 2.
        let t2 = media_packet(2, 3);
        let stun = StunMessage::binding_request([5; 12]).serialize();
        let at = SimTime::from_millis(1);
        sim.inject(at, Packet::new(client(3), feedback_port, remb));
        sim.inject(at, Packet::new(client(1), g1.video_uplink, t2));
        sim.inject(at, Packet::new(client(2), g1.video_uplink, stun));
        sim.run_until(SimTime::from_millis(50));

        let sw: &mut ScallopSwitchNode = sim.node_mut(sw_id).unwrap();
        assert_eq!(sw.agent.dt_of(g3.participant), Some(1));
        // The frame met the tables as the agent left them: it reaches P2
        // only. Forwards (the REMB toward the sender, then the frame)
        // leave at pipeline latency, the STUN answer at agent latency.
        let pipeline = at + sw.cfg.pipeline_latency;
        let agent = at + sw.cfg.agent_latency;
        let c: &mut Clients = sim.node_mut(clients).unwrap();
        assert_eq!(
            c.arrivals,
            vec![
                (pipeline, client(1)),
                (pipeline, client(2)),
                (agent, client(2)),
            ]
        );
    }
    /// One single-packet delta frame of SSRC 0x11, on the wire.
    fn media_packet(temporal_id: u8, template_id: u8) -> Vec<u8> {
        let pkts = Packetizer::new(0x11, 96, 1200).packetize(&EncodedFrame {
            frame_number: 1,
            label: FrameLabelCompact {
                temporal_id,
                template_id,
                is_key: false,
            },
            size_bytes: 500,
            captured_at: SimTime::ZERO,
            rtp_timestamp: 3000,
        });
        assert_eq!(pkts.len(), 1);
        pkts[0].serialize()
    }

    /// `client(1)` sends to `client(2)` and `client(3)`; returns the
    /// sender's video uplink.
    fn three_party_meeting(sim: &mut Simulator, sw: NodeId) -> HostAddr {
        let sw: &mut ScallopSwitchNode = sim.node_mut(sw).unwrap();
        let m = sw.agent.create_meeting();
        let uplink = sw.join(m, client(1), true).video_uplink;
        sw.join(m, client(2), false);
        sw.join(m, client(3), false);
        uplink
    }

    /// The lanes are independent: a STUN answer waiting out the agent
    /// latency does not hold back forwards emitted after it.
    #[test]
    fn a_pending_agent_response_does_not_delay_later_forwards() {
        let (mut sim, sw, clients) = switch_and_clients();
        let uplink = three_party_meeting(&mut sim, sw);
        let stun_at = SimTime::from_millis(1);
        let media_at = stun_at + SimDuration::from_micros(100);
        let stun = StunMessage::binding_request([5; 12]).serialize();
        sim.inject(stun_at, Packet::new(client(1), uplink, stun));
        sim.inject(media_at, Packet::new(client(1), uplink, media_packet(0, 1)));
        sim.run_until(SimTime::from_millis(50));
        let pipeline = media_at + SimDuration::from_nanos(1_500);
        let c: &mut Clients = sim.node_mut(clients).unwrap();
        assert_eq!(
            c.arrivals,
            vec![
                (pipeline, client(2)),
                (pipeline, client(3)),
                (stun_at + SimDuration::from_micros(250), client(1)),
            ]
        );
    }

    /// With both latencies equal every departure below is for the same
    /// instant: the lanes are merged back into emission order.
    #[test]
    fn same_instant_departures_from_both_lanes_leave_in_emission_order() {
        let mut cfg = SwitchConfig::new(SWITCH_IP);
        cfg.agent_latency = cfg.pipeline_latency;
        let (mut sim, sw, clients) = switch_and_clients_with(cfg);
        let uplink = three_party_meeting(&mut sim, sw);
        let at = SimTime::from_millis(1);
        let stun = || StunMessage::binding_request([5; 12]).serialize();
        sim.inject(at, Packet::new(client(1), uplink, stun()));
        sim.inject(at, Packet::new(client(1), uplink, media_packet(0, 1)));
        sim.inject(at, Packet::new(client(2), uplink, stun()));
        sim.run_until(SimTime::from_millis(50));
        let leaves = at + cfg.pipeline_latency;
        let c: &mut Clients = sim.node_mut(clients).unwrap();
        assert_eq!(
            c.arrivals,
            vec![
                (leaves, client(1)),
                (leaves, client(2)),
                (leaves, client(3)),
                (leaves, client(2)),
            ]
        );
    }
}
