//! The split-proxy software SFU (Fig. 5 left; MediaSoup-like).
//!
//! Each participant has a terminated connection to the SFU. Media from a
//! sender is re-originated per receiver with the SFU's own sequence
//! spaces — software rewriting is exact, which is why the baseline never
//! shows the S-LM/S-LR error modes. Rate adaptation (SVC layer
//! selection) runs per receiver from its REMB feedback; NACKs are served
//! from the SFU's own per-stream history; PLIs are relayed to the
//! sender; STUN is answered locally.
//!
//! Every packet in and out is billed to the [`crate::cpumodel`]: under
//! light load the SFU adds its pass-through latency (Fig. 19's gap);
//! past saturation, queueing delay and drops produce the Fig. 3/4
//! collapse.

use crate::cpumodel::{CpuConfig, CpuModel};
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::sim::{Ctx, Node, TimerToken};
use scallop_netsim::time::SimTime;
use scallop_proto::av1::{l1t3, DependencyDescriptor, DD_EXTENSION_ID};
use scallop_proto::demux::{classify, PacketClass};
use scallop_proto::rtcp::{self, RtcpPacket};
use scallop_proto::rtp::{set_sequence_number, RtpView};
use scallop_proto::stun::StunMessage;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::Ipv4Addr;

const TIMER_FLUSH: TimerToken = TimerToken(100);

/// REMB thresholds (bits/s) mapping receiver estimates to SVC decode
/// targets: below `[0]` → 7.5 fps tier, below `[1]` → 15 fps, else 30.
/// Aligned with the Scallop agent's defaults (tier loads of the default
/// 2.2 Mbit/s encoder).
pub(crate) const DEFAULT_REMB_THRESHOLDS: [u64; 2] = [680_000, 1_350_000];

/// SFU configuration.
#[derive(Debug, Clone, Copy)]
pub struct SoftwareSfuConfig {
    /// Server IP.
    pub ip: Ipv4Addr,
    /// First UDP port to allocate from.
    pub base_port: u16,
    /// CPU model.
    pub cpu: CpuConfig,
    /// Pin all flows to one core (the Fig. 3/4 methodology: "we pinned
    /// the Mediasoup server to a single CPU").
    pub pinned_core: Option<usize>,
    /// REMB → decode-target thresholds.
    pub remb_thresholds: [u64; 2],
}

impl SoftwareSfuConfig {
    /// Defaults on the given address.
    pub fn new(ip: Ipv4Addr) -> Self {
        SoftwareSfuConfig {
            ip,
            base_port: 20_000,
            cpu: CpuConfig::default(),
            pinned_core: None,
            remb_thresholds: DEFAULT_REMB_THRESHOLDS,
        }
    }
}

#[derive(Debug)]
struct Participant {
    addr: HostAddr,
    meeting: u32,
    /// Port this participant sends media to.
    uplink_port: u16,
    /// Decode target selected from this participant's REMBs (as receiver).
    max_temporal: u8,
    /// Best REMB seen recently (relayed to senders).
    last_remb: Option<u64>,
}

#[derive(Debug, Default)]
struct OutStream {
    next_seq: u16,
    /// Recent packets for NACK service: (rewritten seq, wire bytes).
    history: VecDeque<(u16, Vec<u8>)>,
}

/// Forwarding counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SfuCounters {
    /// Media packets received.
    pub media_in: u64,
    /// Media packets sent (replicas).
    pub media_out: u64,
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// Packets dropped by the CPU model.
    pub cpu_drops: u64,
    /// Replicas suppressed by layer selection.
    pub adapt_drops: u64,
    /// Retransmissions served from history.
    pub retransmissions: u64,
}

/// The software SFU node.
pub struct SoftwareSfu {
    cfg: SoftwareSfuConfig,
    cpu: CpuModel,
    participants: Vec<Participant>,
    /// uplink port -> participant index.
    by_uplink: HashMap<u16, usize>,
    /// (sender, receiver) pair port -> (sender idx, receiver idx).
    by_pair_port: HashMap<u16, (usize, usize)>,
    /// pair (sender, receiver) -> SFU-local port media to the receiver
    /// uses as source (and feedback comes back to).
    pair_port: HashMap<(usize, usize), u16>,
    /// Out-streams keyed by (sender, receiver, SSRC): each re-originated
    /// stream owns its sequence space (audio and video must not share a
    /// counter or receivers would see permanent interleaving gaps).
    out_streams: HashMap<(usize, usize, u32), OutStream>,
    next_port: u16,
    /// Packets waiting for their CPU completion time. Service times
    /// vary per packet and per core, so completions are not FIFO: a heap.
    pending: BinaryHeap<Pending>,
    pending_seq: u64,
    /// Counters.
    pub counters: SfuCounters,
}

/// A packet waiting for its CPU completion instant. Ordered by
/// `(at, seq)`, reversed: [`BinaryHeap`] is a max-heap and the earliest
/// leaves first, same-instant packets in the order they were billed.
struct Pending {
    at: SimTime,
    seq: u64,
    pkt: Packet,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl SoftwareSfu {
    /// Build an SFU node.
    pub fn new(cfg: SoftwareSfuConfig) -> Self {
        SoftwareSfu {
            cpu: CpuModel::new(cfg.cpu),
            next_port: cfg.base_port,
            cfg,
            participants: Vec::new(),
            by_uplink: HashMap::new(),
            by_pair_port: HashMap::new(),
            pair_port: HashMap::new(),
            out_streams: HashMap::new(),
            pending: BinaryHeap::new(),
            pending_seq: 0,
            counters: SfuCounters::default(),
        }
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1);
        p
    }

    /// Register a participant in a meeting; returns the SFU port it must
    /// send its media to (the signaling exchange of §5.1, performed by
    /// MediaSoup's own signaling in the baseline).
    pub fn add_participant(&mut self, meeting: u32, addr: HostAddr) -> HostAddr {
        let idx = self.participants.len();
        let uplink_port = self.alloc_port();
        self.by_uplink.insert(uplink_port, idx);
        // Pair ports with every existing co-meeting participant, both
        // directions.
        for (other, p) in self
            .participants
            .iter()
            .enumerate()
            .filter(|(_, p)| p.meeting == meeting)
            .map(|(i, p)| (i, p.addr))
            .collect::<Vec<_>>()
        {
            let _ = p;
            let port_sr = self.alloc_port();
            self.by_pair_port.insert(port_sr, (other, idx));
            self.pair_port.insert((other, idx), port_sr);
            let port_rs = self.alloc_port();
            self.by_pair_port.insert(port_rs, (idx, other));
            self.pair_port.insert((idx, other), port_rs);
        }
        self.participants.push(Participant {
            addr,
            meeting,
            uplink_port,
            max_temporal: 2,
            last_remb: None,
        });
        HostAddr::new(self.cfg.ip, uplink_port)
    }

    /// Number of registered participants.
    pub fn participant_count(&self) -> usize {
        self.participants.len()
    }

    /// Current CPU utilization.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    fn core_for(&self, flow: usize) -> usize {
        self.cfg.pinned_core.unwrap_or(flow)
    }

    /// Bill a packet to the CPU and queue it for delayed emission.
    fn emit_after_cpu(&mut self, ctx: &mut Ctx<'_>, flow: usize, pkt: Packet) {
        let core = self.core_for(flow);
        match self.cpu.service(ctx.now(), core, ctx.rng()) {
            Some(done) => {
                self.pending_seq += 1;
                self.pending.push(Pending {
                    at: done,
                    seq: self.pending_seq,
                    pkt,
                });
                let delay = done.saturating_since(ctx.now());
                ctx.schedule(delay, TIMER_FLUSH);
            }
            None => {
                self.counters.cpu_drops += 1;
            }
        }
    }

    fn flush_due(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while self.pending.peek().is_some_and(|p| p.at <= now) {
            let pkt = self.pending.pop().expect("peeked packet").pkt;
            self.counters.bytes_out += pkt.payload.len() as u64;
            ctx.send(pkt);
        }
    }

    fn handle_media(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet, sender_idx: usize) {
        self.counters.media_in += 1;
        self.counters.bytes_in += pkt.payload.len() as u64;
        // Parse layer info (software parses the full DD).
        let temporal = RtpView::new(&pkt.payload)
            .ok()
            .and_then(|v| v.find_extension(DD_EXTENSION_ID).ok().flatten())
            .and_then(|dd| DependencyDescriptor::parse_mandatory(dd).ok())
            .map(|(_, _, template_id, _, _)| l1t3::temporal_of(template_id));

        let meeting = self.participants[sender_idx].meeting;
        let ssrc = RtpView::new(&pkt.payload).ok().map(|v| v.ssrc());
        let receivers: Vec<usize> = self
            .participants
            .iter()
            .enumerate()
            .filter(|(i, p)| *i != sender_idx && p.meeting == meeting)
            .map(|(i, _)| i)
            .collect();
        for r in receivers {
            if let Some(t) = temporal {
                if t > self.participants[r].max_temporal {
                    self.counters.adapt_drops += 1;
                    continue;
                }
            }
            let port = match self.pair_port.get(&(sender_idx, r)) {
                Some(&p) => p,
                None => continue,
            };
            let stream = self
                .out_streams
                .entry((sender_idx, r, ssrc.unwrap_or(0)))
                .or_default();
            let mut bytes = pkt.payload.to_vec();
            // Exact software sequence rewrite: per-out-stream counter.
            if ssrc.is_some() && classify(&pkt.payload) == PacketClass::Rtp {
                let seq = stream.next_seq;
                stream.next_seq = stream.next_seq.wrapping_add(1);
                let _ = set_sequence_number(&mut bytes, seq);
                stream.history.push_back((seq, bytes.clone()));
                if stream.history.len() > 512 {
                    stream.history.pop_front();
                }
            }
            let out = Packet::new(
                HostAddr::new(self.cfg.ip, port),
                self.participants[r].addr,
                bytes,
            );
            self.counters.media_out += 1;
            self.emit_after_cpu(ctx, sender_idx, out);
        }
    }

    fn handle_feedback(
        &mut self,
        ctx: &mut Ctx<'_>,
        pkt: &Packet,
        sender_idx: usize,
        receiver_idx: usize,
    ) {
        let Ok(pkts) = rtcp::parse_compound(&pkt.payload) else {
            return;
        };
        for p in pkts {
            match p {
                RtcpPacket::Remb(remb) => {
                    // Layer selection for this receiver (split-proxy rate
                    // adaptation runs at the SFU).
                    let t = if remb.bitrate_bps < self.cfg.remb_thresholds[0] {
                        0
                    } else if remb.bitrate_bps < self.cfg.remb_thresholds[1] {
                        1
                    } else {
                        2
                    };
                    self.participants[receiver_idx].max_temporal = t;
                    self.participants[receiver_idx].last_remb = Some(remb.bitrate_bps);
                    // Relay the best receiver estimate to the sender so
                    // its encoder is only constrained by its uplink and
                    // the best downlink (keeps the baseline comparable).
                    let meeting = self.participants[sender_idx].meeting;
                    let best = self
                        .participants
                        .iter()
                        .filter(|q| q.meeting == meeting)
                        .filter_map(|q| q.last_remb)
                        .max()
                        .unwrap_or(remb.bitrate_bps);
                    let fwd = RtcpPacket::Remb(rtcp::Remb {
                        sender_ssrc: remb.sender_ssrc,
                        bitrate_bps: best,
                        ssrcs: remb.ssrcs.clone(),
                    });
                    let sender = &self.participants[sender_idx];
                    let out = Packet::new(
                        HostAddr::new(self.cfg.ip, sender.uplink_port),
                        sender.addr,
                        rtcp::serialize(&fwd),
                    );
                    self.emit_after_cpu(ctx, sender_idx, out);
                }
                RtcpPacket::Nack(nack) => {
                    // Serve from our own history (split proxy owns the
                    // out-stream).
                    let mut resends = Vec::new();
                    if let Some(stream) =
                        self.out_streams
                            .get(&(sender_idx, receiver_idx, nack.media_ssrc))
                    {
                        for seq in nack.lost_sequences() {
                            if let Some((_, bytes)) = stream.history.iter().find(|(s, _)| *s == seq)
                            {
                                resends.push(bytes.clone());
                            }
                        }
                    }
                    let port = self.pair_port[&(sender_idx, receiver_idx)];
                    let dst = self.participants[receiver_idx].addr;
                    for bytes in resends {
                        self.counters.retransmissions += 1;
                        self.counters.media_out += 1;
                        let out = Packet::new(HostAddr::new(self.cfg.ip, port), dst, bytes);
                        self.emit_after_cpu(ctx, sender_idx, out);
                    }
                }
                RtcpPacket::Pli(pli) => {
                    // Relay to the sender for a key frame.
                    let sender = &self.participants[sender_idx];
                    let out = Packet::new(
                        HostAddr::new(self.cfg.ip, sender.uplink_port),
                        sender.addr,
                        rtcp::serialize(&RtcpPacket::Pli(pli)),
                    );
                    self.emit_after_cpu(ctx, sender_idx, out);
                }
                RtcpPacket::Rr(_) => { /* absorbed: split proxy terminates reporting */ }
                _ => {}
            }
        }
    }
}

impl Node for SoftwareSfu {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match classify(&pkt.payload) {
            PacketClass::Stun => {
                let Ok(msg) = StunMessage::parse(&pkt.payload) else {
                    return;
                };
                if msg.is_request() {
                    let resp =
                        StunMessage::binding_success(msg.transaction_id, pkt.src.ip, pkt.src.port);
                    let out = Packet::new(pkt.dst, pkt.src, resp.serialize());
                    self.emit_after_cpu(ctx, pkt.dst.port as usize, out);
                }
            }
            PacketClass::Rtp => {
                if let Some(&sender_idx) = self.by_uplink.get(&pkt.dst.port) {
                    self.handle_media(ctx, &pkt, sender_idx);
                }
            }
            PacketClass::Rtcp => {
                let pt = pkt.payload.get(1).copied().unwrap_or(0);
                if pt == rtcp::PT_SR || pt == rtcp::PT_SDES {
                    // Sender reports fan out to receivers like media.
                    if let Some(&sender_idx) = self.by_uplink.get(&pkt.dst.port) {
                        self.handle_media(ctx, &pkt, sender_idx);
                    }
                } else if let Some(&(sender_idx, receiver_idx)) =
                    self.by_pair_port.get(&pkt.dst.port)
                {
                    self.handle_feedback(ctx, &pkt, sender_idx, receiver_idx);
                }
            }
            PacketClass::Unknown => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if timer == TIMER_FLUSH {
            self.flush_due(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_client::{ClientConfig, ClientNode};
    use scallop_netsim::link::LinkConfig;
    use scallop_netsim::sim::{NodeId, Simulator};
    use scallop_netsim::time::SimDuration;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 1, last)
    }

    /// Wire a meeting of `n` clients through one software SFU.
    fn meeting(
        sim: &mut Simulator,
        sfu_cfg: SoftwareSfuConfig,
        n: usize,
        client_link: LinkConfig,
    ) -> (NodeId, Vec<NodeId>) {
        let sfu_ip = sfu_cfg.ip;
        let mut sfu = SoftwareSfu::new(sfu_cfg);
        let mut uplinks = Vec::new();
        for i in 0..n {
            let addr = HostAddr::new(ip(10 + i as u8), 5000);
            uplinks.push(sfu.add_participant(1, addr));
        }
        let sfu_id = sim.add_node(
            Box::new(sfu),
            &[sfu_ip],
            LinkConfig::infinite(SimDuration::from_micros(50)),
            LinkConfig::infinite(SimDuration::from_micros(50)),
        );
        let mut ids = Vec::new();
        for (i, &up) in uplinks.iter().enumerate().take(n) {
            let c = ClientNode::new(
                ClientConfig::sender(ip(10 + i as u8), 5000, 0x1000 * (i as u32 + 1))
                    .sending_to(up, up),
            );
            ids.push(sim.add_node(Box::new(c), &[ip(10 + i as u8)], client_link, client_link));
        }
        (sfu_id, ids)
    }

    #[test]
    fn three_party_meeting_flows() {
        let mut sim = Simulator::new(11);
        let link = LinkConfig::infinite(SimDuration::from_millis(5));
        let (sfu_id, clients) = meeting(
            &mut sim,
            SoftwareSfuConfig::new(Ipv4Addr::new(10, 0, 1, 1)),
            3,
            link,
        );
        sim.run_until(SimTime::from_secs(4));
        for &cid in &clients {
            let c: &mut ClientNode = sim.node_mut(cid).unwrap();
            let stats = c.stats();
            // Each client receives 2 peers × (video + audio) = 4 streams
            // (audio and video share the pair port, demuxed by SSRC).
            assert_eq!(stats.streams.len(), 4, "streams {:?}", stats.streams.len());
            let decoded: Vec<u64> = stats
                .streams
                .iter()
                .map(|(_, r)| r.frames_decoded)
                .filter(|&d| d > 0)
                .collect();
            assert_eq!(decoded.len(), 2, "two video streams decode");
            for d in decoded {
                assert!(d > 60, "decoded {d}");
            }
            for (_, rx) in &stats.streams {
                assert_eq!(rx.freezes, 0);
            }
        }
        let sfu: &mut SoftwareSfu = sim.node_mut(sfu_id).unwrap();
        assert!(sfu.counters.media_out >= 2 * sfu.counters.media_in / 2);
        assert_eq!(sfu.counters.cpu_drops, 0);
    }

    #[test]
    fn constrained_receiver_gets_layer_dropped() {
        let mut sim = Simulator::new(12);
        let clean = LinkConfig::infinite(SimDuration::from_millis(5));
        // Client 2's downlink is ~800 kbit/s: REMB will land between the
        // thresholds -> decode target T1 (15 fps).
        let mut sfu_cfg = SoftwareSfuConfig::new(Ipv4Addr::new(10, 0, 1, 1));
        sfu_cfg.cpu.max_queue_delay = SimDuration::from_secs(1);
        let (sfu_id, clients) = meeting(&mut sim, sfu_cfg, 3, clean);
        sim.downlink_mut(clients[2]).set_rate_bps(800_000);
        sim.run_until(SimTime::from_secs(15));
        let sfu: &mut SoftwareSfu = sim.node_mut(sfu_id).unwrap();
        // The decode target the SFU selected for a receiver.
        let layer_of = |last: u8| {
            let addr = HostAddr::new(ip(last), 5000);
            let p = sfu.participants.iter().find(|p| p.addr == addr);
            p.expect("participant registered").max_temporal
        };
        assert!(layer_of(12) < 2, "constrained receiver still at full rate");
        assert!(sfu.counters.adapt_drops > 0);
        // Unconstrained receiver untouched.
        assert_eq!(layer_of(10), 2);
    }

    #[test]
    fn overloaded_core_degrades_quality() {
        let mut sim = Simulator::new(13);
        let link = LinkConfig::infinite(SimDuration::from_millis(2));
        // Shrink the per-core budget so 5 participants overload one core
        // (keeps the test fast while exercising the same mechanism as
        // Fig. 3/4).
        let mut cfg = SoftwareSfuConfig::new(Ipv4Addr::new(10, 0, 1, 1));
        cfg.cpu.per_packet = SimDuration::from_micros(200);
        cfg.pinned_core = Some(0);
        let (sfu_id, clients) = meeting(&mut sim, cfg, 5, link);
        sim.run_until(SimTime::from_secs(6));
        let sfu: &mut SoftwareSfu = sim.node_mut(sfu_id).unwrap();
        assert!(
            sfu.cpu_utilization(SimTime::from_secs(6)) > 0.95,
            "core should be saturated"
        );
        assert!(sfu.counters.cpu_drops > 0, "overload must drop packets");
        // Receive fps collapses below the clean 30 fps.
        let c: &mut ClientNode = sim.node_mut(clients[0]).unwrap();
        let src = c.stats().streams.first().map(|(a, _)| *a).unwrap();
        let fps = c
            .fps_from(src, SimDuration::from_secs(2), SimTime::from_secs(6))
            .unwrap();
        assert!(fps < 25.0, "fps should degrade, got {fps}");
    }

    #[test]
    fn stun_answered_through_cpu() {
        let mut sim = Simulator::new(14);
        let link = LinkConfig::infinite(SimDuration::from_millis(3));
        let (_sfu_id, clients) = meeting(
            &mut sim,
            SoftwareSfuConfig::new(Ipv4Addr::new(10, 0, 1, 1)),
            2,
            link,
        );
        sim.run_until(SimTime::from_secs(5));
        let c: &mut ClientNode = sim.node_mut(clients[0]).unwrap();
        let rtt = c.rtt_samples.median().expect("stun rtt measured");
        // client uplink 3 ms + SFU access 0.05 ms each way, plus the
        // SFU's CPU pass-through (~0.3 ms): ≈6.4 ms.
        assert!((6.0..9.0).contains(&rtt), "rtt {rtt}");
    }

    #[test]
    fn meetings_are_isolated() {
        let mut sim = Simulator::new(15);
        let link = LinkConfig::infinite(SimDuration::from_millis(5));
        let sfu_ip = Ipv4Addr::new(10, 0, 1, 1);
        let mut sfu = SoftwareSfu::new(SoftwareSfuConfig::new(sfu_ip));
        let a = sfu.add_participant(1, HostAddr::new(ip(10), 5000));
        let b = sfu.add_participant(1, HostAddr::new(ip(11), 5000));
        let c = sfu.add_participant(2, HostAddr::new(ip(12), 5000));
        let d = sfu.add_participant(2, HostAddr::new(ip(13), 5000));
        sim.add_node(
            Box::new(sfu),
            &[sfu_ip],
            LinkConfig::infinite(SimDuration::from_micros(50)),
            LinkConfig::infinite(SimDuration::from_micros(50)),
        );
        let mk = |sim: &mut Simulator, last: u8, up: HostAddr, ssrc: u32| {
            let cn = ClientNode::new(ClientConfig::sender(ip(last), 5000, ssrc).sending_to(up, up));
            sim.add_node(Box::new(cn), &[ip(last)], link, link)
        };
        let ids = [
            mk(&mut sim, 10, a, 0x100),
            mk(&mut sim, 11, b, 0x200),
            mk(&mut sim, 12, c, 0x300),
            mk(&mut sim, 13, d, 0x400),
        ];
        sim.run_until(SimTime::from_secs(3));
        for &id in &ids {
            let cn: &mut ClientNode = sim.node_mut(id).unwrap();
            // Exactly one remote peer: video + audio streams only.
            assert_eq!(cn.stats().streams.len(), 2);
            let addrs: Vec<_> = cn.stats().streams.iter().map(|(a, _)| *a).collect();
            assert_eq!(addrs[0], addrs[1], "both streams share the pair port");
        }
    }
}
