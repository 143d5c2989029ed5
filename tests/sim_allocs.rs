//! Allocation and event budgets of the endpoints and the event loop.
//!
//! `tests/replica_allocs.rs` pins the data plane's half of the
//! allocation-free hot path; this is the other half. Once a meeting has
//! settled — buffers grown, decoders and estimators created — delivering a
//! packet through the simulator, the switch node and a client must cost a
//! small, stated number of heap allocations, and forwarding a packet must
//! cost the switch one flush timer however many replicas it makes.

use scallop::core::harness::{HarnessConfig, ScallopHarness};
use scallop::core::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop::media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop::media::packetizer::Packetizer;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::{HostAddr, Packet};
use scallop::netsim::sim::{Ctx, Node, NodeId, Simulator, TimerToken};
use scallop::netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

mod common;
use common::allocs_in;

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

/// What is left per delivered packet: per video frame the sender's one
/// wire buffer and its reference count, and on the switch the replica
/// slab of each forwarded burst; per audio packet its buffer; RTCP and
/// STUN, which are built as owned values: 0.35 per delivered packet.
/// Before the endpoints read datagrams in place and the event loop
/// reused its buffers it was 6.0.
#[test]
fn settled_single_switch_meeting_allocates_under_half_a_time_per_delivered_packet() {
    let (allocs, delivered) = settled_second(ScallopHarness::new(
        HarnessConfig::default().participants(3),
    ));
    assert!(delivered > 2_000, "three senders at full rate: {delivered}");
    assert!(
        allocs * 2 < delivered,
        "{allocs} allocations for {delivered} delivered packets"
    );
}

/// The same across a WAN: two zones of two edges and a core, two of four
/// members sending. Relays and trunk hops deliver more packets per frame
/// and allocate nothing of their own: 0.15 per delivered packet, from 3.9.
#[test]
fn settled_two_zone_federation_allocates_under_a_quarter_time_per_delivered_packet() {
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
        allocs * 4 < delivered,
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
/// its whole journey are its own admission and delivery, one flush timer,
/// and an admission and a delivery per replica. (One timer per replica
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
    assert_eq!(sim.stats.events - before, 2 + 1 + 2 * replicas);
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
