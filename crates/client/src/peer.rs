//! The participant node: a WebRTC-behaviour endpoint in the simulation.
//!
//! `ClientNode` wires the sender and per-stream receivers onto the
//! simulator's timer/packet interfaces. Its wire behaviour — and only
//! that — is what the SFU sees:
//!
//! * media ticks on capture clocks (video frame interval, audio ptime),
//! * RTCP SR+SDES per ~350 ms per sender, RR(+REMB) per ~440 ms per
//!   received stream (rates calibrated to Table 1),
//! * STUN binding keepalives per ~870 ms with RTT measurement,
//! * symmetric-RTP feedback: RTCP about a stream goes to the address the
//!   stream's media arrives from — which in Scallop is the per-(sender,
//!   receiver) SFU port, making per-sender feedback filtering possible
//!   (§5.3),
//! * NACK on sequence gaps, PLI on decoder freeze, retransmission on
//!   NACK, key frame on PLI, encoder-target update on REMB.

use crate::gcc::GccConfig;
use crate::receiver::{MediaHeader, ReceiverState, StreamRxStats};
use crate::sender::{MediaSender, SenderStats};
use scallop_media::audio::AudioConfig;
use scallop_media::encoder::EncoderConfig;
use scallop_netsim::packet::{BufPool, HostAddr, Packet};
use scallop_netsim::sim::{Ctx, Node, TimerToken};
use scallop_netsim::stats::Percentiles;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::demux::{classify, PacketClass};
use scallop_proto::rtcp::{self, RtcpRef};
use scallop_proto::stun::{self, StunView};
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

const TIMER_VIDEO: TimerToken = TimerToken(1);
const TIMER_AUDIO: TimerToken = TimerToken(2);
const TIMER_SR: TimerToken = TimerToken(3);
const TIMER_FEEDBACK: TimerToken = TimerToken(4);
const TIMER_STUN: TimerToken = TimerToken(5);
const TIMER_POLL: TimerToken = TimerToken(6);

/// A STUN probe is given up on after this many `stun_interval`s. Far
/// beyond any round trip the links can produce (a full 128 KiB queue on
/// a 1 Mb/s link drains in a second), so every response that does come
/// back still finds its probe.
const STUN_PROBE_LIFETIME_INTERVALS: u64 = 4;

/// Most RTCP and STUN buffers a client keeps: about what a client whose
/// feedback and retransmission requests wait behind a full constrained
/// queue has in flight.
const CONTROL_POOL_LIMIT: usize = 128;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The client's IP.
    pub ip: Ipv4Addr,
    /// The client's single local UDP port (WebRTC bundle style).
    pub port: u16,
    /// Video encoder config; `None` = does not send video.
    pub video: Option<EncoderConfig>,
    /// Audio config; `None` = does not send audio.
    pub audio: Option<AudioConfig>,
    /// Video SSRC.
    pub video_ssrc: u32,
    /// Audio SSRC.
    pub audio_ssrc: u32,
    /// Where to send video media (SFU uplink address from signaling).
    pub video_send_to: Option<HostAddr>,
    /// Where to send audio media.
    pub audio_send_to: Option<HostAddr>,
    /// SR+SDES interval (calibrated to Table 1's 5.75 SR/s over 2 SSRCs).
    pub sr_interval: SimDuration,
    /// RR(+REMB) interval per received stream (Table 1: 9.07/s over 4
    /// streams in a 3-party call).
    pub feedback_interval: SimDuration,
    /// STUN keepalive interval (Table 1: 1.15/s).
    pub stun_interval: SimDuration,
    /// Decoder poll / NACK-scan interval.
    pub poll_interval: SimDuration,
    /// GCC tuning for this client's receivers.
    pub gcc: GccConfig,
    /// CNAME in SDES.
    pub cname: String,
}

impl ClientConfig {
    /// A participant at `ip:port` that sends audio+video.
    pub fn sender(ip: Ipv4Addr, port: u16, ssrc_base: u32) -> Self {
        ClientConfig {
            ip,
            port,
            video: Some(EncoderConfig::default()),
            audio: Some(AudioConfig::default()),
            video_ssrc: ssrc_base,
            audio_ssrc: ssrc_base + 1,
            video_send_to: None,
            audio_send_to: None,
            sr_interval: SimDuration::from_millis(348),
            feedback_interval: SimDuration::from_millis(441),
            stun_interval: SimDuration::from_millis(870),
            poll_interval: SimDuration::from_millis(15),
            // Optimistic start: ramp-up REMBs must not sit below the
            // SFU's adaptation thresholds on an unconstrained path (the
            // estimator backs off within ~1 s under real congestion).
            gcc: GccConfig {
                start_bitrate_bps: 3_000_000.0,
                ..GccConfig::default()
            },
            cname: format!("client-{ip}"),
        }
    }

    /// A receive-only participant.
    pub fn receiver_only(ip: Ipv4Addr, port: u16, ssrc_base: u32) -> Self {
        let mut c = Self::sender(ip, port, ssrc_base);
        c.video = None;
        c.audio = None;
        c
    }

    /// Builder: set media destinations (from signaling).
    pub fn sending_to(mut self, video: HostAddr, audio: HostAddr) -> Self {
        self.video_send_to = Some(video);
        self.audio_send_to = Some(audio);
        self
    }
}

/// One tapped received media packet (experiment instrumentation).
#[derive(Debug, Clone, Copy)]
pub struct RxTapRecord {
    /// Delivery time.
    pub at: SimTime,
    /// Source address (the SFU per-pair port, identifying the sender).
    pub src: HostAddr,
    /// Payload bytes.
    pub bytes: usize,
    /// Wire sequence number.
    pub seq: u16,
    /// Temporal tier from the AV1 DD (video only).
    pub tier: Option<u8>,
}

/// Aggregated client statistics (the WebRTC stats API surface used in
/// §2.2 and §7.3).
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Sender stats (if sending).
    pub sender: SenderStats,
    /// Per-remote-stream receive stats keyed by remote (source) address.
    pub streams: Vec<(HostAddr, StreamRxStats)>,
    /// PLIs sent.
    pub plis_sent: u64,
    /// NACK packets sent.
    pub nacks_sent: u64,
    /// REMBs sent.
    pub rembs_sent: u64,
}

/// The participant node.
pub struct ClientNode {
    cfg: ClientConfig,
    sender: Option<MediaSender>,
    /// Receivers keyed by (media source address, SSRC) — WebRTC demuxes
    /// streams by SSRC within a transport, so one SFU port may carry
    /// several streams (the software baseline does this; Scallop uses a
    /// port per stream). BTreeMap: iteration order must be deterministic
    /// because feedback packets are emitted while iterating.
    receivers: BTreeMap<(HostAddr, u32), ReceiverState>,
    /// Outstanding STUN transactions, oldest first: `(txid, send time)`.
    /// One is added per `stun_interval` and none lives longer than
    /// [`STUN_PROBE_LIFETIME_INTERVALS`] of them, so a response is
    /// matched by scanning a handful of entries.
    stun_pending: VecDeque<([u8; 12], SimTime)>,
    stun_counter: u64,
    /// The addresses the last STUN round chose its probe among, kept for
    /// the next round's.
    stun_targets: Vec<HostAddr>,
    /// Buffers of the RTCP and STUN packets this client has in flight.
    control: BufPool,
    next_local_ssrc: u32,
    /// RTT samples.
    pub rtt_samples: Percentiles,
    plis_sent: u64,
    nacks_sent: u64,
    rembs_sent: u64,
    /// Per-stream receive tap enabled by experiments that plot bitrate
    /// over time (Figs. 14c/23/24) or audit wire sequence continuity.
    pub rx_tap: Option<Vec<RxTapRecord>>,
    /// Left the meeting ([`Self::hangup`]): in-flight packets that
    /// arrive afterwards are dropped instead of resurrecting receiver
    /// state (and with it the feedback/STUN loops).
    hung_up: bool,
}

impl ClientNode {
    /// Build a client from its config.
    pub fn new(cfg: ClientConfig) -> Self {
        let sender = cfg.video.is_some().then(|| {
            MediaSender::new(
                cfg.video_ssrc,
                cfg.audio_ssrc,
                cfg.video.unwrap_or_default(),
                cfg.audio.unwrap_or_default(),
            )
        });
        ClientNode {
            next_local_ssrc: cfg.video_ssrc.wrapping_add(0x1000),
            cfg,
            sender,
            receivers: BTreeMap::new(),
            stun_pending: VecDeque::new(),
            stun_counter: 0,
            stun_targets: Vec::new(),
            control: BufPool::new(CONTROL_POOL_LIMIT),
            rtt_samples: Percentiles::new(),
            plis_sent: 0,
            nacks_sent: 0,
            rembs_sent: 0,
            rx_tap: None,
            hung_up: false,
        }
    }

    /// This client's address.
    pub(crate) fn local_addr(&self) -> HostAddr {
        HostAddr::new(self.cfg.ip, self.cfg.port)
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            sender: self.sender.as_ref().map(|s| s.stats()).unwrap_or_default(),
            streams: self
                .receivers
                .iter()
                .map(|((a, _), r)| (*a, r.stats()))
                .collect(),
            plis_sent: self.plis_sent,
            nacks_sent: self.nacks_sent,
            rembs_sent: self.rembs_sent,
        }
    }

    /// Key of the **live** video stream arriving from `src`: the most
    /// recently fed one. An SFU recycles a per-pair port for a new
    /// stream toward the same receiver, so one source address can have
    /// carried several SSRCs, all but the last of them dead.
    fn live_video_from(&self, src: HostAddr) -> Option<(HostAddr, u32)> {
        self.receivers
            .range((src, 0)..=(src, u32::MAX))
            .filter(|(_, r)| r.is_video)
            .max_by_key(|(_, r)| r.last_media_at())
            .map(|(&k, _)| k)
    }

    /// Decoder stats of the video stream arriving from `src`.
    pub fn receiver_decoder_stats(
        &self,
        src: HostAddr,
    ) -> Option<scallop_media::decoder::DecoderStats> {
        self.receivers[&self.live_video_from(src)?].decoder_stats()
    }

    /// Decoded fps of the video stream arriving from `src` over `window`.
    pub fn fps_from(&mut self, src: HostAddr, window: SimDuration, now: SimTime) -> Option<f64> {
        let key = self.live_video_from(src)?;
        self.receivers
            .get_mut(&key)
            .map(|r| r.fps_over(window, now))
    }

    /// Worst-case (max) receive jitter across video streams, ms.
    pub fn max_jitter_ms(&self) -> f64 {
        self.receivers
            .values()
            .filter(|r| r.is_video)
            .map(|r| r.stats().jitter_ms)
            .fold(0.0, f64::max)
    }

    /// Hang up: stop producing media and feedback. Used when the
    /// participant leaves its meeting mid-run — the simulator cannot
    /// remove a node, so the client goes quiescent instead (media and
    /// SR timers die with the sender; clearing the receivers starves
    /// the feedback and STUN loops of targets). Receive-side stats are
    /// discarded with the receivers.
    pub fn hangup(&mut self) {
        self.hung_up = true;
        self.sender = None;
        self.cfg.video_send_to = None;
        self.cfg.audio_send_to = None;
        self.receivers.clear();
        self.stun_pending.clear();
    }

    /// Act on an RTCP compound — read in place, and only if all of it
    /// parses. Sender reports time-synchronize streams, which this model
    /// derives from RTP timestamps directly, so only NACK, PLI and REMB
    /// do anything here.
    fn handle_rtcp(&mut self, ctx: &mut Ctx<'_>, payload: &[u8]) {
        let Ok(pkts) = rtcp::read_compound(payload) else {
            return;
        };
        let (local, to) = (self.local_addr(), self.cfg.video_send_to);
        let Some(s) = &mut self.sender else {
            return;
        };
        for p in pkts {
            match p {
                RtcpRef::Nack { entries, .. } => s.handle_nack(rtcp::nack_lost(entries), |wire| {
                    if let Some(to) = to {
                        ctx.send(Packet::new(local, to, wire));
                    }
                }),
                RtcpRef::Pli(_) => s.handle_pli(),
                RtcpRef::Remb { bitrate_bps, .. } => s.handle_remb(bitrate_bps),
                _ => {}
            }
        }
    }

    fn handle_stun(&mut self, ctx: &mut Ctx<'_>, from: HostAddr, payload: &[u8]) {
        let Ok(msg) = StunView::new(payload) else {
            return;
        };
        if msg.is_request() {
            let resp = self
                .control
                .build(|v| stun::write_binding_success(v, msg.transaction_id, from.ip, from.port));
            ctx.send(Packet::new(self.local_addr(), from, resp));
        } else if msg.is_success_response() {
            let probe = self
                .stun_pending
                .iter()
                .position(|(txid, _)| *txid == msg.transaction_id);
            if let Some((_, sent)) = probe.and_then(|i| self.stun_pending.remove(i)) {
                self.rtt_samples
                    .add(ctx.now().saturating_since(sent).as_millis_f64());
            }
        }
    }
}

impl Node for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.sender.is_some() {
            // Offset media clocks by a small deterministic stagger so
            // meetings do not tick in lockstep.
            let stagger = SimDuration::from_micros(ctx.rng().range_u64(0, 20_000));
            ctx.schedule(stagger + SimDuration::from_millis(5), TIMER_VIDEO);
            ctx.schedule(stagger + SimDuration::from_millis(7), TIMER_AUDIO);
            ctx.schedule(self.cfg.sr_interval, TIMER_SR);
        }
        ctx.schedule(self.cfg.feedback_interval, TIMER_FEEDBACK);
        ctx.schedule(self.cfg.stun_interval, TIMER_STUN);
        ctx.schedule(self.cfg.poll_interval, TIMER_POLL);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if self.hung_up {
            return;
        }
        match classify(&pkt.payload) {
            PacketClass::Rtp => {
                let Ok(mut rtp) = MediaHeader::parse(&pkt.payload) else {
                    return;
                };
                // A switch that renumbered the stream wrote the number
                // into the packet's overlay, not into the shared payload.
                if let Some(seq) = pkt.seq_overlay() {
                    rtp.sequence_number = seq;
                }
                let is_video = rtp.dd.is_some();
                if let Some(tap) = &mut self.rx_tap {
                    let tier = rtp
                        .dd
                        .and_then(|dd| {
                            scallop_proto::av1::DependencyDescriptor::parse_mandatory(dd).ok()
                        })
                        .map(|(_, _, template_id, _, _)| {
                            scallop_proto::av1::l1t3::temporal_of(template_id)
                        });
                    tap.push(RxTapRecord {
                        at: ctx.now(),
                        src: pkt.src,
                        bytes: pkt.payload.len(),
                        seq: rtp.sequence_number,
                        tier,
                    });
                }
                let local_ssrc = self.next_local_ssrc;
                let gcc = self.cfg.gcc;
                let rx = self
                    .receivers
                    .entry((pkt.src, rtp.ssrc))
                    .or_insert_with(|| ReceiverState::new(rtp.ssrc, local_ssrc, is_video, gcc));
                if rx.local_ssrc == local_ssrc {
                    self.next_local_ssrc = self.next_local_ssrc.wrapping_add(1);
                }
                rx.on_media(ctx.now(), rtp, pkt.wire_len());
            }
            PacketClass::Rtcp => self.handle_rtcp(ctx, &pkt.payload),
            PacketClass::Stun => self.handle_stun(ctx, pkt.src, &pkt.payload),
            PacketClass::Unknown => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        let now = ctx.now();
        match timer {
            TIMER_VIDEO => {
                let local = self.local_addr();
                if let (Some(s), Some(to)) = (&mut self.sender, self.cfg.video_send_to) {
                    for wire in s.video_tick(now) {
                        ctx.send(Packet::new(local, to, wire.clone()));
                    }
                    ctx.schedule(s.video_interval(), TIMER_VIDEO);
                } else if self.sender.is_some() {
                    // Destination not yet signaled; retry shortly.
                    ctx.schedule(SimDuration::from_millis(100), TIMER_VIDEO);
                }
            }
            TIMER_AUDIO => {
                let local = self.local_addr();
                if let (Some(s), Some(to)) = (&mut self.sender, self.cfg.audio_send_to) {
                    ctx.send(Packet::new(local, to, s.audio_tick(now)));
                    ctx.schedule(s.audio_interval(), TIMER_AUDIO);
                } else if self.sender.is_some() {
                    ctx.schedule(SimDuration::from_millis(100), TIMER_AUDIO);
                }
            }
            TIMER_SR => {
                if let (Some(s), Some(to)) = (&self.sender, self.cfg.video_send_to) {
                    let sr = self.control.build(|v| s.write_sr(now, &self.cfg.cname, v));
                    ctx.send(Packet::new(self.local_addr(), to, sr));
                }
                ctx.schedule(self.cfg.sr_interval, TIMER_SR);
            }
            TIMER_FEEDBACK => {
                let local = self.local_addr();
                let mut rembs = 0u64;
                for ((src, _ssrc), rx) in self.receivers.iter_mut() {
                    // Video feedback carries a REMB after the RR.
                    rembs += u64::from(rx.estimate_bps().is_some());
                    let bytes = self.control.build(|v| rx.write_feedback(v));
                    ctx.send(Packet::new(local, *src, bytes));
                }
                self.rembs_sent += rembs;
                ctx.schedule(self.cfg.feedback_interval, TIMER_FEEDBACK);
            }
            TIMER_STUN => {
                // Probes whose response was lost, or whose peer hung up,
                // never complete: forget them, or they pile up for the
                // life of the client.
                let lifetime = self.cfg.stun_interval * STUN_PROBE_LIFETIME_INTERVALS;
                while self
                    .stun_pending
                    .front()
                    .is_some_and(|(_, sent)| now.saturating_since(*sent) >= lifetime)
                {
                    self.stun_pending.pop_front();
                }
                // Keepalive + RTT probe to every media peer address.
                let local = self.local_addr();
                let targets = &mut self.stun_targets;
                targets.clear();
                targets.extend(self.receivers.keys().map(|(a, _)| *a));
                targets.dedup();
                if let Some(v) = self.cfg.video_send_to {
                    targets.push(v);
                }
                // One probe per interval round-robins across targets,
                // matching the ~1.15 STUN pkts/s of Table 1.
                if let Some(&target) =
                    targets.get(self.stun_counter as usize % targets.len().max(1))
                {
                    let mut txid = [0u8; 12];
                    txid[..8].copy_from_slice(&self.stun_counter.to_be_bytes());
                    txid[8..].copy_from_slice(&(self.cfg.port as u32).to_be_bytes());
                    self.stun_counter += 1;
                    self.stun_pending.push_back((txid, now));
                    let req = self.control.build(|v| stun::write_binding_request(v, txid));
                    ctx.send(Packet::new(local, target, req));
                }
                ctx.schedule(self.cfg.stun_interval, TIMER_STUN);
            }
            TIMER_POLL => {
                let local = self.local_addr();
                let mut nacks = 0u64;
                let mut plis = 0u64;
                for ((src, _ssrc), rx) in self.receivers.iter_mut() {
                    rx.poll(now);
                    if rx.due_nacks(now) {
                        nacks += 1;
                        let nack = self.control.build(|v| rx.write_nack(v));
                        ctx.send(Packet::new(local, *src, nack));
                    }
                    if rx.take_pli(now) {
                        plis += 1;
                        let pli = self.control.build(|v| rx.write_pli(v));
                        ctx.send(Packet::new(local, *src, pli));
                    }
                }
                self.nacks_sent += nacks;
                self.plis_sent += plis;
                ctx.schedule(self.cfg.poll_interval, TIMER_POLL);
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

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    /// Two clients wired directly to each other (true P2P) — the client
    /// must interoperate with itself before it meets any SFU.
    fn p2p_sim(
        rate_bps: u64,
    ) -> (
        Simulator,
        scallop_netsim::sim::NodeId,
        scallop_netsim::sim::NodeId,
    ) {
        let mut sim = Simulator::new(42);
        let link = LinkConfig::infinite(SimDuration::from_millis(10)).with_rate(rate_bps);
        let a_addr = HostAddr::new(ip(1), 5000);
        let b_addr = HostAddr::new(ip(2), 5000);
        let a =
            ClientNode::new(ClientConfig::sender(ip(1), 5000, 0x100).sending_to(b_addr, b_addr));
        let b =
            ClientNode::new(ClientConfig::sender(ip(2), 5000, 0x200).sending_to(a_addr, a_addr));
        let a_id = sim.add_node(Box::new(a), &[ip(1)], link, link);
        let b_id = sim.add_node(Box::new(b), &[ip(2)], link, link);
        (sim, a_id, b_id)
    }

    #[test]
    fn p2p_call_delivers_video_both_ways() {
        let (mut sim, a_id, b_id) = p2p_sim(20_000_000);
        sim.run_until(SimTime::from_secs(5));
        for id in [a_id, b_id] {
            let node: &mut ClientNode = sim.node_mut(id).unwrap();
            let stats = node.stats();
            // Each side receives one video + one audio stream (same peer
            // address, distinct SSRCs).
            assert_eq!(stats.streams.len(), 2, "video + audio streams");
            let video = stats
                .streams
                .iter()
                .map(|(_, r)| r)
                .find(|r| r.frames_decoded > 0)
                .expect("video stream");
            assert!(
                video.frames_decoded > 100,
                "decoded {}",
                video.frames_decoded
            );
            assert!(stats.streams.iter().all(|(_, r)| r.freezes == 0));
            assert!(stats.sender.video_packets > 500);
            assert!(stats.sender.audio_packets > 200);
        }
    }

    #[test]
    fn fps_measured_near_30() {
        let (mut sim, a_id, _) = p2p_sim(20_000_000);
        sim.run_until(SimTime::from_secs(5));
        let node: &mut ClientNode = sim.node_mut(a_id).unwrap();
        let src = node.stats().streams[0].0;
        let fps = node
            .fps_from(src, SimDuration::from_secs(1), SimTime::from_secs(5))
            .unwrap();
        assert!((25.0..35.0).contains(&fps), "fps {fps}");
    }

    /// Forwards everything to `to` from one fixed source address — an
    /// SFU pair port, as the receiver sees it.
    struct PairPort {
        src: HostAddr,
        to: HostAddr,
    }

    impl Node for PairPort {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            ctx.send(Packet::new(self.src, self.to, pkt.payload));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: TimerToken) {}
    }

    /// An SFU recycles a pair port: a second stream (new SSRC) reaches
    /// the receiver from the address a dead one used. `fps_from` used to
    /// read the first receiver matching the address — the dead stream.
    #[test]
    fn fps_from_reads_the_live_stream_behind_a_recycled_source() {
        let mut sim = Simulator::new(5);
        let link = LinkConfig::infinite(SimDuration::from_millis(5));
        let port = HostAddr::new(ip(9), 7000);
        let b_addr = HostAddr::new(ip(2), 5000);
        let first =
            ClientNode::new(ClientConfig::sender(ip(1), 5000, 0x100).sending_to(port, port));
        let b = ClientNode::new(ClientConfig::receiver_only(ip(2), 5000, 0x200));
        let relay = PairPort {
            src: port,
            to: b_addr,
        };
        let first_id = sim.add_node(Box::new(first), &[ip(1)], link, link);
        let b_id = sim.add_node(Box::new(b), &[ip(2)], link, link);
        sim.add_node(Box::new(relay), &[ip(9)], link, link);
        sim.run_until(SimTime::from_secs(3));
        sim.node_mut::<ClientNode>(first_id).unwrap().hangup();
        let second =
            ClientNode::new(ClientConfig::sender(ip(3), 5000, 0x300).sending_to(port, port));
        sim.add_node(Box::new(second), &[ip(3)], link, link);
        sim.run_until(SimTime::from_secs(8));
        let node: &mut ClientNode = sim.node_mut(b_id).unwrap();
        let video_from_port = node
            .receivers
            .iter()
            .filter(|((a, _), r)| *a == port && r.is_video)
            .count();
        assert_eq!(video_from_port, 2, "two SSRCs behind one source address");
        let fps = node
            .fps_from(port, SimDuration::from_secs(2), SimTime::from_secs(8))
            .unwrap();
        assert!((25.0..35.0).contains(&fps), "fps {fps}");
        assert!(node.receiver_decoder_stats(port).is_some());
    }

    #[test]
    fn stun_rtt_measured() {
        let (mut sim, a_id, _) = p2p_sim(20_000_000);
        sim.run_until(SimTime::from_secs(5));
        let node: &mut ClientNode = sim.node_mut(a_id).unwrap();
        let median = node.rtt_samples.median().expect("rtt samples");
        // 2 × 2 hops × 10 ms prop = 40 ms RTT (plus serialization).
        assert!((39.0..55.0).contains(&median), "median rtt {median}");
    }

    #[test]
    fn congestion_backs_off_sender_via_remb() {
        // 1.2 Mbit/s bottleneck: the 2.2 Mbit/s default encoder must be
        // driven down by the peer's REMB feedback.
        let (mut sim, a_id, _) = p2p_sim(1_200_000);
        sim.run_until(SimTime::from_secs(12));
        let node: &mut ClientNode = sim.node_mut(a_id).unwrap();
        let target = node.stats().sender.target_bitrate_bps;
        // GCC oscillates around the bottleneck (probe up, delay/loss
        // back-off); at any sampling instant the target must sit well
        // below the 2.2 Mbit/s start and near the link rate.
        assert!(
            target < 1_900_000,
            "sender should back off below link rate, target {target}"
        );
        assert!(node.stats().rembs_sent > 0);
    }

    #[test]
    fn loss_triggers_nacks_and_recovery() {
        use scallop_netsim::fault::FaultConfig;
        let mut sim = Simulator::new(7);
        let clean = LinkConfig::infinite(SimDuration::from_millis(5));
        let lossy = clean.with_faults(FaultConfig::clean().with_loss(0.05));
        let a_addr = HostAddr::new(ip(1), 5000);
        let b_addr = HostAddr::new(ip(2), 5000);
        let a =
            ClientNode::new(ClientConfig::sender(ip(1), 5000, 0x100).sending_to(b_addr, b_addr));
        let b =
            ClientNode::new(ClientConfig::sender(ip(2), 5000, 0x200).sending_to(a_addr, a_addr));
        let _a_id = sim.add_node(Box::new(a), &[ip(1)], clean, clean);
        // B's downlink drops 5% of packets.
        let b_id = sim.add_node(Box::new(b), &[ip(2)], clean, lossy);
        sim.run_until(SimTime::from_secs(6));
        let node: &mut ClientNode = sim.node_mut(b_id).unwrap();
        let stats = node.stats();
        assert!(stats.nacks_sent > 0, "expected NACKs under loss");
        let (_, rx) = stats.streams[0];
        // Retransmissions keep the stream mostly decodable.
        assert!(
            rx.frames_decoded > 120,
            "decoded only {} frames",
            rx.frames_decoded
        );
    }

    /// A probe whose response is lost used to stay in `stun_pending`
    /// for good. Over a lossy link the set must stay bounded, and the
    /// responses that do arrive must still be matched.
    #[test]
    fn lost_stun_probes_are_forgotten() {
        use scallop_netsim::fault::FaultConfig;
        let mut sim = Simulator::new(11);
        let lossy = LinkConfig::infinite(SimDuration::from_millis(5))
            .with_faults(FaultConfig::clean().with_loss(0.05));
        let a_addr = HostAddr::new(ip(1), 5000);
        let b_addr = HostAddr::new(ip(2), 5000);
        let a =
            ClientNode::new(ClientConfig::sender(ip(1), 5000, 0x100).sending_to(b_addr, b_addr));
        let b =
            ClientNode::new(ClientConfig::sender(ip(2), 5000, 0x200).sending_to(a_addr, a_addr));
        let a_id = sim.add_node(Box::new(a), &[ip(1)], lossy, lossy);
        let _ = sim.add_node(Box::new(b), &[ip(2)], lossy, lossy);
        let mut most = 0;
        for s in 1..=60 {
            sim.run_until(SimTime::from_secs(s));
            let node: &mut ClientNode = sim.node_mut(a_id).unwrap();
            most = most.max(node.stun_pending.len());
        }
        let node: &mut ClientNode = sim.node_mut(a_id).unwrap();
        // 68 probes went out and each crosses four lossy links there and
        // back: about a fifth are never answered.
        assert_eq!(node.stun_counter, 68);
        let answered = node.rtt_samples.count() as u64;
        assert!((40..68).contains(&answered), "answered {answered}");
        // The unanswered ones are forgotten after four intervals: at
        // most that many, plus the probe in flight, are ever pending.
        assert!(most <= STUN_PROBE_LIFETIME_INTERVALS as usize + 1, "{most}");
    }

    #[test]
    fn receiver_only_client_sends_no_media() {
        let mut sim = Simulator::new(9);
        let link = LinkConfig::infinite(SimDuration::from_millis(5));
        let b_addr = HostAddr::new(ip(2), 5000);
        let a =
            ClientNode::new(ClientConfig::sender(ip(1), 5000, 0x100).sending_to(b_addr, b_addr));
        let b = ClientNode::new(ClientConfig::receiver_only(ip(2), 5000, 0x200));
        let _ = sim.add_node(Box::new(a), &[ip(1)], link, link);
        let b_id = sim.add_node(Box::new(b), &[ip(2)], link, link);
        sim.run_until(SimTime::from_secs(3));
        let node: &mut ClientNode = sim.node_mut(b_id).unwrap();
        let stats = node.stats();
        assert_eq!(stats.sender.video_packets, 0);
        let decoded: u64 = stats.streams.iter().map(|(_, r)| r.frames_decoded).sum();
        assert!(decoded > 50, "decoded {decoded}");
    }
}
