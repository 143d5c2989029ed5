//! Allocation, heap and event budgets of the endpoints and the event
//! loop.
//!
//! `tests/replica_allocs.rs` pins the data plane's half of the
//! allocation-free hot path; this is the other half. Once a meeting has
//! settled — buffers grown, pools filled, decoders and estimators created
//! — delivering a packet through the simulator, the switch node and a
//! client must cost a small, stated number of heap allocations, and
//! forwarding a packet must cost the switch one flush timer however many
//! replicas it makes.
//!
//! What is still allocated once a meeting has settled:
//!
//! * a video frame's buffer when the recycled one is too small for the
//!   frame or half again too large (a right-sized one replaces it);
//! * a buffer, and its reference count, whenever a pool's oldest buffer is
//!   still in flight — a frame (which every replica of its packets
//!   shares), a retransmission, an audio or an RTCP packet waiting in a
//!   constrained receiver's downlink queue;
//! * the decoder's bookkeeping of a gap (a loss), and the agent's work on a
//!   decode-target change or a re-homed meeting.
//!
//! RTCP, STUN and audio are written in place into pooled buffers, read in
//! place, and the agent's responses go out through one reused vector, so
//! none of them allocates.
//!
//! What stays allocated is pinned too, from live bytes (allocated minus
//! freed, `common::live_bytes`): a settled sender retains under 128 KB,
//! because its retransmission history keeps headers rather than the
//! buffers its packets were cut from, and a settled meeting's heap at
//! 20 s is within a stated bound of its heap at 10 s.

use scallop::client::{ClientConfig, ClientNode, MediaSender};
use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::core::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop::media::audio::AudioConfig;
use scallop::media::encoder::{EncodedFrame, EncoderConfig, FrameLabelCompact};
use scallop::media::packetizer::Packetizer;
use scallop::netsim::fault::FaultConfig;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::{HostAddr, Packet};
use scallop::netsim::sim::{Ctx, Node, NodeId, Simulator, TimerToken};
use scallop::netsim::time::{SimDuration, SimTime};
use scallop::proto::demux::{classify, PacketClass};
use scallop::proto::rtcp::{self, RtcpRef};
use std::net::Ipv4Addr;

mod common;
use common::{allocs_in, live_bytes};

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

/// Settle `h` for five simulated seconds, then run one more and return
/// `(allocations, packets delivered)` of that second.
fn settled_second(mut h: ScallopHarness) -> (u64, u64) {
    h.run_for_secs(5.0);
    let before = h.sim.stats.packets_delivered;
    let allocs = allocs_in(|| h.sim.run_for(SimDuration::from_secs(1)));
    let delivered = h.sim.stats.packets_delivered - before;
    let report = h.report();
    assert_eq!(report.freezes, 0, "the meeting is healthy");
    (allocs, delivered)
}

/// Three senders on one switch: under one allocation per thousand
/// delivered packets — none at all in this second when this was written
/// (2 673 packets). Before RTCP, STUN, audio, video frames and replica
/// slabs were built in reused buffers it was 0.35 per packet, and 6.0
/// before the endpoints read datagrams in place.
#[test]
fn settled_single_switch_meeting_allocates_under_once_per_thousand_delivered_packets() {
    let (allocs, delivered) = settled_second(ScallopHarness::new(
        HarnessConfig::default().participants(3),
    ));
    assert!(delivered > 2_000, "three senders at full rate: {delivered}");
    assert!(
        allocs * 1_000 < delivered,
        "{allocs} allocations for {delivered} delivered packets"
    );
}

/// The same across a WAN: two zones of two edges and a core, two of four
/// members sending. Relays and trunk hops allocate nothing of their own:
/// under one allocation per thousand delivered packets — none in this
/// second of 5 916 when this was written — from 0.15 per packet.
#[test]
fn settled_two_zone_federation_allocates_under_once_per_thousand_delivered_packets() {
    let (allocs, delivered) = settled_second(ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .senders(2)
            .switches(2)
            .cores(1)
            .zones(2),
    ));
    assert!(delivered > 4_000, "two senders across a WAN: {delivered}");
    assert!(
        allocs * 1_000 < delivered,
        "{allocs} allocations for {delivered} delivered packets"
    );
}

// ---------------------------------------------------------------------
// What stays allocated.
// ---------------------------------------------------------------------

/// A sender keeps headers, not payloads. After ten seconds at full
/// rate, every packet delivered and dropped and a NACK served every
/// tenth frame, it retains under 128 KB: a 1 024-slot ring of headers
/// (45 KB) and a buffer or two of each kind, 71 KB when this was written.
/// While its history kept every packet's bytes, pinning the buffers of
/// the frames they came from, it retained 1.36 MB.
#[test]
fn a_settled_sender_retains_under_128_kb() {
    let before = live_bytes();
    let mut sender = MediaSender::new(
        0x100,
        0x101,
        EncoderConfig::default(),
        AudioConfig::default(),
    );
    let (mut video_at, mut audio_at) = (SimTime::ZERO, SimTime::ZERO);
    for frame in 0..300 {
        let first = &sender.video_tick(video_at)[0];
        let first_seq = u16::from_be_bytes([first[2], first[3]]);
        if frame % 10 == 9 {
            sender.handle_nack([first_seq], drop);
        }
        video_at += sender.video_interval();
        while audio_at < video_at {
            drop(sender.audio_tick(audio_at));
            audio_at += sender.audio_interval();
        }
    }
    assert_eq!(sender.stats().retransmissions, 30);
    let kept = live_bytes() - before;
    assert!(kept <= 128 * 1024, "{kept} bytes retained");
}

/// A settled meeting's heap does not grow with simulated time. Across
/// two zones (two senders, six received video streams), the live heap at
/// 20 s is within 4 KB per received stream of the heap at 10 s: 14 KB
/// when this was written, all of it GCC's half-second arrival windows
/// doubling as the encoders still ramp up. (Decoders used to record a
/// 513th decode instant before dropping the oldest, doubling each one's
/// deque at 17 s: 39 KB.) While senders' histories held each packet's
/// bytes, the heap at 10 s was 2.9 MB; it is 0.24 MB.
#[test]
fn a_settled_meetings_heap_does_not_grow_with_time() {
    let mut h = ScallopHarness::new(
        HarnessConfig::default()
            .participants(4)
            .senders(2)
            .switches(2)
            .cores(1)
            .zones(2),
    );
    let start = live_bytes();
    h.sim.run_for(SimDuration::from_secs(10));
    let at_10 = live_bytes() - start;
    h.sim.run_for(SimDuration::from_secs(10));
    let at_20 = live_bytes() - start;
    let streams = 6;
    assert!(
        (at_20 - at_10).abs() <= streams * 4 * 1024,
        "heap {at_10} B at 10 s, {at_20} B at 20 s"
    );
}

// ---------------------------------------------------------------------
// Two clients alone: every kind of packet a participant makes.
// ---------------------------------------------------------------------

/// What the [`Tap`] saw go by, by kind (RTCP packets one by one, not
/// compounds).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Seen {
    rtp: u64,
    sr: u64,
    rr: u64,
    remb: u64,
    nack: u64,
    stun: u64,
}

/// Stands between two clients the way an SFU pair port does: what
/// arrives on one port leaves for the other client from the other port,
/// so each client sends its feedback and STUN probes back through the
/// tap, which counts every packet by kind.
struct Tap {
    ports: [(u16, HostAddr); 2],
    ip: Ipv4Addr,
    seen: Seen,
}

impl Node for Tap {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match classify(&pkt.payload) {
            PacketClass::Rtp => self.seen.rtp += 1,
            PacketClass::Stun => self.seen.stun += 1,
            PacketClass::Rtcp => {
                for p in rtcp::read_compound(&pkt.payload).expect("clients send valid RTCP") {
                    match p {
                        RtcpRef::Sr { .. } => self.seen.sr += 1,
                        RtcpRef::Rr { .. } => self.seen.rr += 1,
                        RtcpRef::Remb { .. } => self.seen.remb += 1,
                        RtcpRef::Nack { .. } => self.seen.nack += 1,
                        _ => {}
                    }
                }
            }
            PacketClass::Unknown => {}
        }
        // In on port `i`: out to the client behind the other port, from it.
        let i = usize::from(self.ports[1].0 == pkt.dst.port);
        let (out_port, to) = self.ports[1 - i];
        ctx.send(pkt.readdressed(HostAddr::new(self.ip, out_port), to));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
}

/// Two all-sending clients through a [`Tap`], one of them behind a
/// downlink that loses 2 % of packets: video, audio, RR with REMB, NACK,
/// SR and STUN all run in the settled second, and the whole second —
/// about 1 200 packets delivered — allocates at most 30 times (15 when
/// this was written, for the decoder's record of each gap). Before RTCP,
/// STUN and audio were written into reused buffers, and NACKs read in
/// place, each of those packets allocated two to six times.
#[test]
fn a_settled_client_pair_sends_every_kind_of_packet_almost_without_allocating() {
    let tap_ip = Ipv4Addr::new(10, 0, 0, 9);
    let (a, b) = (member_addr(0), member_addr(1));
    let (a_side, b_side) = (HostAddr::new(tap_ip, 7_001), HostAddr::new(tap_ip, 7_002));
    let clean = LinkConfig::infinite(SimDuration::from_millis(5));
    let lossy = clean.with_faults(FaultConfig::clean().with_loss(0.02));
    let mut sim = Simulator::new(7);
    let tap = sim.add_node(
        Box::new(Tap {
            ports: [(a_side.port, a), (b_side.port, b)],
            ip: tap_ip,
            seen: Seen::default(),
        }),
        &[tap_ip],
        clean,
        clean,
    );
    let client = |addr: HostAddr, ssrc, to| {
        Box::new(ClientNode::new(
            ClientConfig::sender(addr.ip, addr.port, ssrc).sending_to(to, to),
        ))
    };
    sim.add_node(client(a, 0x100, b_side), &[a.ip], clean, clean);
    let b_id = sim.add_node(client(b, 0x200, a_side), &[b.ip], clean, lossy);

    sim.run_for(SimDuration::from_secs(5));
    let before = sim.node_mut::<Tap>(tap).expect("the tap").seen;
    let delivered = sim.stats.packets_delivered;
    let allocs = allocs_in(|| sim.run_for(SimDuration::from_secs(1)));
    let delivered = sim.stats.packets_delivered - delivered;
    let seen = sim.node_mut::<Tap>(tap).expect("the tap").seen;
    let ran = |kind: &str, n: u64| assert!(n > 0, "no {kind} in the settled second: {seen:?}");
    ran("RTP", seen.rtp - before.rtp);
    ran("SR", seen.sr - before.sr);
    ran("RR", seen.rr - before.rr);
    ran("NACK", seen.nack - before.nack);
    ran("REMB", seen.remb - before.remb);
    ran("STUN", seen.stun - before.stun);
    let b_stats = sim.node_mut::<ClientNode>(b_id).expect("client b").stats();
    assert!(b_stats.rembs_sent > 0 && b_stats.nacks_sent > 0);
    assert!(delivered > 500, "{delivered} delivered");
    assert!(
        allocs <= 30,
        "{allocs} allocations for {delivered} delivered packets"
    );
}

// ---------------------------------------------------------------------
// The event loop alone.
// ---------------------------------------------------------------------

/// Sends every packet back where it came from.
struct Echo;

impl Node for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        ctx.send(pkt.readdressed(pkt.dst, pkt.src));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
}

/// Sixteen packets bouncing between two nodes for ever: the number of
/// pending events is constant, so once the event queue's slab and the
/// invoke buffers have grown to it, a simulated second — 160 000
/// deliveries, the clock through fifteen revolutions of the queue's ring
/// — allocates nothing at all.
#[test]
fn a_settled_event_loop_allocates_nothing() {
    let link = LinkConfig::infinite(SimDuration::from_micros(50));
    let (a, b) = (member_addr(0), member_addr(1));
    let mut sim = Simulator::new(1);
    sim.add_node(Box::new(Echo), &[a.ip], link, link);
    sim.add_node(Box::new(Echo), &[b.ip], link, link);
    for k in 0..16 {
        sim.inject(
            SimTime::from_micros(k * 7),
            Packet::new(a, b, vec![0u8; 200]),
        );
    }
    sim.run_for(SimDuration::from_secs(1));
    assert_eq!(sim.pending_events(), 16);
    let before = sim.stats.packets_delivered;
    let allocs = allocs_in(|| sim.run_for(SimDuration::from_secs(1)));
    assert!(sim.stats.packets_delivered - before > 100_000);
    assert_eq!(sim.pending_events(), 16);
    assert_eq!(allocs, 0);
}

// ---------------------------------------------------------------------
// One switch node in a bare simulator.
// ---------------------------------------------------------------------

const SFU_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn member_addr(i: usize) -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 9, 0, i as u8 + 1), 5000)
}

/// Counts what it is sent.
#[derive(Default)]
struct Sink {
    received: u64,
}

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
        self.received += 1;
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
}

/// A switch with `members` all-sending participants, each a [`Sink`].
/// Returns the simulator, the switch, the sinks and every member's
/// `(address, video uplink)`.
fn bare_switch(
    cfg: SwitchConfig,
    members: usize,
    link: LinkConfig,
) -> (Simulator, NodeId, Vec<NodeId>, Vec<(HostAddr, HostAddr)>) {
    let mut sim = Simulator::new(1);
    let mut node = ScallopSwitchNode::new(cfg);
    let meeting = node.agent.create_meeting();
    let uplinks: Vec<(HostAddr, HostAddr)> = (0..members)
        .map(|i| {
            let addr = member_addr(i);
            (addr, node.join(meeting, addr, true).video_uplink)
        })
        .collect();
    let switch = sim.add_node(Box::new(node), &[SFU_IP], link, link);
    let sinks = (0..members)
        .map(|i| sim.add_node(Box::<Sink>::default(), &[member_addr(i).ip], link, link))
        .collect();
    (sim, switch, sinks, uplinks)
}

/// The `n`-th single-packet delta frame of a stream, on the wire.
fn delta_packet(pz: &mut Packetizer, n: u16) -> Vec<u8> {
    let pkts = pz.packetize(&EncodedFrame {
        frame_number: n,
        label: FrameLabelCompact {
            temporal_id: 0,
            template_id: 1,
            is_key: false,
        },
        size_bytes: 1_000,
        captured_at: SimTime::ZERO,
        rtp_timestamp: n as u32 * 3_000,
    });
    assert_eq!(pkts.len(), 1);
    pkts[0].serialize()
}

fn received(sim: &mut Simulator, sink: NodeId) -> u64 {
    sim.node_mut::<Sink>(sink).expect("a sink").received
}

/// A packet replicated to 24 receivers leaves in one flush: the events of
/// its whole journey are its own admission and delivery (it is injected),
/// one flush timer, and a delivery per replica. The sinks sit behind
/// infinite, clean 50 µs downlinks, pure delays that admit a replica as
/// it is sent, so a replica's hop is one event. (One timer per replica
/// made this 24 timers, 23 of which found nothing to send.)
#[test]
fn a_fanned_out_packet_arms_one_flush_timer() {
    const MEMBERS: usize = 25;
    let link = LinkConfig::infinite(SimDuration::from_micros(50));
    let (mut sim, _, sinks, uplinks) = bare_switch(SwitchConfig::new(SFU_IP), MEMBERS, link);
    let (src, uplink) = uplinks[0];
    let mut pz = Packetizer::new(0x1000, 96, 1200);
    let before = sim.stats.events;
    sim.inject(
        SimTime::from_millis(1),
        Packet::new(src, uplink, delta_packet(&mut pz, 1)),
    );
    // Short of the agent's first 100 ms tick.
    sim.run_until(SimTime::from_millis(50));
    let replicas = (MEMBERS - 1) as u64;
    for (i, &sink) in sinks.iter().enumerate() {
        assert_eq!(received(&mut sim, sink), u64::from(i != 0), "member {i}");
    }
    assert_eq!(sim.stats.events - before, 2 + 1 + replicas);
}

/// The flush timer of a killed switch is discarded with the node's other
/// events. The switch must not go on believing a flush is on its way:
/// traffic after the revive is forwarded, and what was waiting when the
/// switch died leaves with it, as it always did.
#[test]
fn a_switch_killed_with_departures_pending_forwards_after_revive() {
    let link = LinkConfig::infinite(SimDuration::from_micros(50));
    let (mut sim, switch, sinks, uplinks) = bare_switch(SwitchConfig::new(SFU_IP), 3, link);
    let (src, uplink) = uplinks[0];
    let mut pz = Packetizer::new(0x1000, 96, 1200);
    let at = SimTime::from_millis(1);
    sim.inject(at, Packet::new(src, uplink, delta_packet(&mut pz, 1)));
    // Delivered after the 50 µs downlink; replicas leave 1.5 µs later.
    sim.run_until(at + SimDuration::from_micros(51));
    sim.kill_node(switch);
    sim.run_until(SimTime::from_millis(2));
    assert_eq!(received(&mut sim, sinks[1]), 0, "died before the flush");
    sim.revive_node(switch);
    sim.inject(
        SimTime::from_millis(3),
        Packet::new(src, uplink, delta_packet(&mut pz, 2)),
    );
    sim.run_until(SimTime::from_millis(4));
    for &sink in &sinks[1..] {
        assert_eq!(received(&mut sim, sink), 2);
    }
}

/// Sends one media packet of its own the first time it receives one.
struct Reflector {
    me: HostAddr,
    uplink: HostAddr,
    wire: Option<Vec<u8>>,
}

impl Node for Reflector {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
        if let Some(wire) = self.wire.take() {
            ctx.send(Packet::new(self.me, self.uplink, wire));
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
}

/// With no latency anywhere, a packet can reach the switch at an instant
/// whose flush has already run: member 0's packet is flushed to the
/// reflector, whose answer arrives back in the same instant. That answer
/// needs a flush of its own.
#[test]
fn a_packet_for_an_instant_already_flushed_arms_a_new_flush() {
    let link = LinkConfig::infinite(SimDuration::ZERO);
    let mut cfg = SwitchConfig::new(SFU_IP);
    cfg.pipeline_latency = SimDuration::ZERO;
    let mut sim = Simulator::new(1);
    let mut node = ScallopSwitchNode::new(cfg);
    let meeting = node.agent.create_meeting();
    let (a, b) = (member_addr(0), member_addr(1));
    let a_uplink = node.join(meeting, a, true).video_uplink;
    let b_uplink = node.join(meeting, b, true).video_uplink;
    sim.add_node(Box::new(node), &[SFU_IP], link, link);
    let a_sink = sim.add_node(Box::<Sink>::default(), &[a.ip], link, link);
    sim.add_node(
        Box::new(Reflector {
            me: b,
            uplink: b_uplink,
            wire: Some(delta_packet(&mut Packetizer::new(0x2000, 96, 1200), 1)),
        }),
        &[b.ip],
        link,
        link,
    );
    let at = SimTime::from_millis(1);
    sim.inject(
        at,
        Packet::new(
            a,
            a_uplink,
            delta_packet(&mut Packetizer::new(0x1000, 96, 1200), 1),
        ),
    );
    sim.run_until(at);
    assert_eq!(sim.now(), at);
    assert_eq!(
        received(&mut sim, a_sink),
        1,
        "the reflected packet arrived"
    );
}
