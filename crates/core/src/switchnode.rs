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

use crate::agent::{JoinGrant, MeetingId, ParticipantId, SwitchAgent};
use scallop_dataplane::batch::BatchOutput;
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::switch::{DataPlaneCounters, ScallopDataPlane};
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::sim::{Ctx, Node, TimerToken};
use scallop_netsim::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
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

/// A packet waiting for its departure instant. Ordered by `(at, seq)`,
/// reversed: [`BinaryHeap`] is a max-heap and the earliest leaves first,
/// same-instant packets in the order they were emitted.
struct Departure {
    at: SimTime,
    seq: u64,
    pkt: Packet,
}

impl PartialEq for Departure {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Departure {}
impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Departure {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
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
    pending: BinaryHeap<Departure>,
    pending_seq: u64,
    /// Departure instants a `TIMER_FLUSH` is on its way for. A fan-out-24
    /// packet emits 24 replicas for one instant and needs one flush, not
    /// 24. An instant leaves the list when a flush at or after it runs,
    /// so a packet emitted for the current instant after its flush fired
    /// (zero latency) arms a new one, and an instant whose timer died
    /// with a killed switch is forgotten by the first flush after the
    /// revive, which also releases the packets that were waiting for it.
    armed: Vec<SimTime>,
    /// Reused per-packet data-plane output (scratch; avoids allocating
    /// fresh forward/CPU vectors for every arriving packet).
    dp_out: scallop_dataplane::switch::DataPlaneOutput,
    /// Reused batch output for wave deliveries (parse arena, punt ring,
    /// amortization stats — see `scallop_dataplane::batch`).
    batch_out: BatchOutput,
}

impl ScallopSwitchNode {
    /// Build a switch.
    pub fn new(cfg: SwitchConfig) -> Self {
        let mut dp = ScallopDataPlane::new(cfg.rewrite_mode);
        // The switch's SFU ports all come from its contiguous range, so
        // the hot ingress match runs on the dense SoA registers; only
        // out-of-range ports (none, in practice) hit the hash table.
        dp.enable_dense_ports(cfg.port_base, cfg.port_limit);
        ScallopSwitchNode {
            dp,
            agent: SwitchAgent::new(cfg.ip).with_port_range(cfg.port_base, cfg.port_limit),
            cfg,
            pending: BinaryHeap::new(),
            pending_seq: 0,
            armed: Vec::new(),
            dp_out: Default::default(),
            batch_out: BatchOutput::default(),
        }
    }

    /// Controller RPC: add a participant.
    pub fn join(&mut self, meeting: MeetingId, addr: HostAddr, sends: bool) -> JoinGrant {
        self.agent.join(&mut self.dp, meeting, addr, sends)
    }

    /// Controller RPC: admit a burst of local participants with one
    /// compile for the whole batch (flash-crowd admission).
    pub fn join_many(&mut self, meeting: MeetingId, joins: &[(HostAddr, bool)]) -> Vec<JoinGrant> {
        self.agent.join_many(&mut self.dp, meeting, joins)
    }

    /// Controller RPC: remove a participant.
    pub fn leave(&mut self, meeting: MeetingId, participant: ParticipantId) {
        self.agent.leave(&mut self.dp, meeting, participant);
    }

    /// Controller RPC: destroy a drained meeting segment (fabric GC).
    pub fn destroy_meeting(&mut self, meeting: MeetingId) {
        self.agent.destroy_meeting(&mut self.dp, meeting);
    }

    /// Controller RPC: register a sender homed on another edge; returns
    /// the trunk-ingress grant (where the home edge must send its one
    /// fabric copy).
    pub fn join_remote_sender(&mut self, meeting: MeetingId, home_addr: HostAddr) -> JoinGrant {
        self.agent
            .join_remote_sender(&mut self.dp, meeting, home_addr)
    }

    /// Controller RPC: register a sender whose media arrives over a WAN
    /// link (prunes the WAN branch tier instead of the trunk tier).
    pub fn join_wan_sender(&mut self, meeting: MeetingId, home_addr: HostAddr) -> JoinGrant {
        self.agent.join_wan_sender(&mut self.dp, meeting, home_addr)
    }

    /// Controller RPC: add a trunk-egress branch toward a remote edge.
    pub fn join_trunk_egress(&mut self, meeting: MeetingId) -> ParticipantId {
        self.agent.join_trunk_egress(&mut self.dp, meeting)
    }

    /// Controller RPC: add a WAN-tier trunk-egress branch toward a
    /// remote zone's gateway edge (only a zone gateway holds these).
    pub fn join_wan_egress(&mut self, meeting: MeetingId) -> ParticipantId {
        self.agent.join_wan_egress(&mut self.dp, meeting)
    }

    /// Controller RPC: allocate (idempotently) the feedback-sink port
    /// for a fabric-shared local sender — remote edges forward their
    /// per-edge selected REMB and NACK/PLI here for min-aggregation.
    pub fn feedback_sink(&mut self, sender: ParticipantId) -> u16 {
        self.agent.feedback_sink(&mut self.dp, sender)
    }

    /// Controller RPC: point trunk branch `trunk` at the remote ingress
    /// addresses for local sender `sender`.
    pub fn set_trunk_dst(
        &mut self,
        trunk: ParticipantId,
        sender: ParticipantId,
        video_dst: HostAddr,
        audio_dst: HostAddr,
    ) {
        self.agent
            .set_trunk_dst(&mut self.dp, trunk, sender, video_dst, audio_dst);
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

    fn emit_at(&mut self, ctx: &mut Ctx<'_>, at: SimTime, pkt: Packet) {
        self.pending_seq += 1;
        self.pending.push(Departure {
            at,
            seq: self.pending_seq,
            pkt,
        });
        // Newest instants are at the back, and a burst repeats the last.
        if !self.armed.iter().rev().any(|&t| t == at) {
            self.armed.push(at);
            ctx.schedule(at.saturating_since(ctx.now()), TIMER_FLUSH);
        }
    }

    fn flush_due(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.armed.retain(|&t| t > now);
        while self.pending.peek().is_some_and(|d| d.at <= now) {
            let due = self.pending.pop().expect("peeked departure");
            ctx.send(due.pkt);
        }
    }
}

impl Node for ScallopSwitchNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.cfg.agent_tick, TIMER_AGENT);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let mut out = std::mem::take(&mut self.dp_out);
        self.dp.process_into(&pkt, &mut out);
        let dp_at = ctx.now() + self.cfg.pipeline_latency;
        for f in out.forwards.drain(..) {
            self.emit_at(ctx, dp_at, f);
        }
        if !out.cpu_copies.is_empty() {
            let agent_at = ctx.now() + self.cfg.agent_latency;
            let now = ctx.now();
            for c in out.cpu_copies.drain(..) {
                let responses = self.agent.handle_cpu_packet(now, &c, &mut self.dp);
                for r in responses {
                    self.emit_at(ctx, agent_at, r);
                }
            }
        }
        self.dp_out = out;
    }

    /// A wave of same-instant packets, run through the batched engine.
    /// Segments end at CPU punts so the agent (which may rewrite
    /// tables) observes exactly the per-packet interleaving: a
    /// segment's forwards are emitted first, then the punting packet's
    /// agent responses, then the next segment — the same `emit_at`
    /// order `on_packet` would have produced packet by packet.
    fn on_batch(&mut self, ctx: &mut Ctx<'_>, pkts: &mut Vec<Packet>) {
        let mut out = std::mem::take(&mut self.batch_out);
        out.clear();
        let now = ctx.now();
        let dp_at = now + self.cfg.pipeline_latency;
        let agent_at = now + self.cfg.agent_latency;
        let mut start = 0;
        let mut punt_cursor = 0;
        while start < pkts.len() {
            start = self.dp.process_batch_from(pkts, start, true, &mut out);
            for f in out.forwards.drain(..) {
                self.emit_at(ctx, dp_at, f);
            }
            while punt_cursor < out.cpu_punts.len() {
                let punted = &pkts[out.cpu_punts[punt_cursor] as usize];
                punt_cursor += 1;
                let responses = self.agent.handle_cpu_packet(now, punted, &mut self.dp);
                for r in responses {
                    self.emit_at(ctx, agent_at, r);
                }
            }
        }
        self.batch_out = out;
    }

    /// The switch qualifies for wave batching: `on_packet`/`on_batch`
    /// emit exclusively through `emit_at` (the departure heap drained by
    /// `TIMER_FLUSH`), never `ctx.send`, and draw no randomness.
    fn parallel_safe(&self) -> bool {
        true
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        match timer {
            TIMER_FLUSH => self.flush_due(ctx),
            TIMER_AGENT => {
                let now = ctx.now();
                let emitted = self.agent.tick(now, &mut self.dp);
                // Window-paced sink REMBs (empty unless the agent was
                // opted in) leave at agent latency like any response.
                let agent_at = now + self.cfg.agent_latency;
                for pkt in emitted {
                    self.emit_at(ctx, agent_at, pkt);
                }
                ctx.schedule(self.cfg.agent_tick, TIMER_AGENT);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_netsim::link::LinkConfig;
    use scallop_netsim::sim::Simulator;
    use scallop_proto::stun::StunMessage;

    #[test]
    fn stun_answered_with_agent_latency() {
        let mut sim = Simulator::new(3);
        let ip = Ipv4Addr::new(10, 0, 0, 100);
        let node = ScallopSwitchNode::new(SwitchConfig::new(ip));
        let link = LinkConfig::infinite(SimDuration::ZERO);
        let id = sim.add_node(Box::new(node), &[ip], link, link);

        // A raw probe node that fires one STUN request and records the
        // response time.
        struct Probe {
            target: HostAddr,
            me: HostAddr,
            rtt: Option<SimDuration>,
            sent_at: SimTime,
        }
        impl Node for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(SimDuration::from_millis(1), TimerToken(1));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                self.sent_at = ctx.now();
                let req = StunMessage::binding_request([5; 12]).serialize();
                ctx.send(Packet::new(self.me, self.target, req));
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
                self.rtt = Some(ctx.now().saturating_since(self.sent_at));
            }
        }
        let probe_ip = Ipv4Addr::new(10, 1, 0, 1);
        let probe = sim.add_node(
            Box::new(Probe {
                target: HostAddr::new(ip, 10_000),
                me: HostAddr::new(probe_ip, 4000),
                rtt: None,
                sent_at: SimTime::ZERO,
            }),
            &[probe_ip],
            link,
            link,
        );
        sim.run_until(SimTime::from_secs(1));
        let p: &mut Probe = sim.node_mut(probe).unwrap();
        let rtt = p.rtt.expect("stun response");
        // Links are zero-delay: the RTT is exactly the agent CPU path.
        assert!(
            rtt >= SimDuration::from_micros(250) && rtt < SimDuration::from_micros(400),
            "rtt {rtt}"
        );
        let sw: &mut ScallopSwitchNode = sim.node_mut(id).unwrap();
        assert_eq!(sw.agent.counters.stun_answered, 1);
        assert_eq!(sw.dp.counters.stun_pkts, 1);
    }
}
