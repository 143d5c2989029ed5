//! Receivers see gap-free sequence numbers on rewritten streams (§6.2).
//!
//! A lossless single-switch meeting: three senders whose video starts
//! just short of the u16 wrap, four receiving clients. While media flows,
//! every receiver is thinned to a lower decode target and restored, three
//! times, so the switch suppresses frames of every stream and renumbers
//! every stream with a non-zero offset from then on. A receiver counts a
//! gap whenever a packet's extended sequence number jumps by more than
//! one (`StreamRxStats::seq_gaps`, the continuity check of a media
//! server's receive path); on a lossless link every one of those counts
//! must stay zero, across each thinning, each restore and the wrap.
//!
//! Each restore lands just after a frame the thinned receivers kept. A
//! receiver thinned by the PRE is absent from the trees of the layers it
//! drops, so the Stream Tracker never sees those frames; it masks the
//! hole when the next kept frame arrives, by the skip cadence it has
//! *then*. A decode target raised while such a hole is still open resets
//! the cadence to "nothing skipped" first, and the hole reaches the
//! receiver as one lost frame: a limit of S-LR, not of the replicas.

use scallop::client::{ClientConfig, ClientNode};
use scallop::core::agent::ParticipantId;
use scallop::core::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop::media::encoder::EncodedFrame;
use scallop::media::packetizer::Packetizer;
use scallop::media::svc::L1T3Schedule;
use scallop::netsim::link::LinkConfig;
use scallop::netsim::packet::{HostAddr, Packet};
use scallop::netsim::sim::{Ctx, Node, NodeId, Simulator, TimerToken};
use scallop::netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::rc::Rc;

const SFU_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const SENDERS: usize = 3;
const RECEIVERS: usize = 4;
const PKTS_PER_FRAME: usize = 4;
/// 360 packets short of the wrap: frame 90, three seconds in.
const FIRST_SEQ: u16 = u16::MAX - 359;
/// When a source sends its first frame, and how often after that.
const FIRST_FRAME_US: u64 = 5_000;
const FRAME_US: u64 = 33_333;
/// Delay of every node's uplink and of every node's downlink.
const LINK_US: u64 = 5_000;
const TIMER_FRAME: TimerToken = TimerToken(1);

/// An L1T3 video source at 30 fps whose sequence numbers start at
/// [`FIRST_SEQ`]; it ignores whatever it is sent. Frame `k` sits at
/// position `k % 4` of the cadence: T0, T2, T1, T2.
struct VideoSource {
    me: HostAddr,
    uplink: HostAddr,
    schedule: L1T3Schedule,
    packetizer: Packetizer,
    frame_no: u16,
}

impl Node for VideoSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(SimDuration::from_micros(FIRST_FRAME_US), TIMER_FRAME);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerToken) {
        let frame = EncodedFrame {
            frame_number: self.frame_no,
            label: self.schedule.next_label().into(),
            size_bytes: PKTS_PER_FRAME * 1_200 - 200,
            captured_at: ctx.now(),
            rtp_timestamp: u32::from(self.frame_no) * 3_000,
        };
        self.frame_no = self.frame_no.wrapping_add(1);
        for rtp in self.packetizer.packetize(&frame) {
            ctx.send(Packet::new(self.me, self.uplink, rtp.serialize()));
        }
        ctx.schedule(SimDuration::from_micros(FRAME_US), TIMER_FRAME);
    }
}

/// A millisecond after frame `k` reached the switch (over the source's
/// uplink and the switch's downlink), well before `k + 1`.
fn after_frame(k: u64) -> SimTime {
    SimTime::from_micros(FIRST_FRAME_US + k * FRAME_US + 2 * LINK_US + 1_000)
}

fn member(i: usize) -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 9, 0, i as u8 + 1), 5000)
}

struct Meeting {
    sim: Simulator,
    switch: NodeId,
    receivers: Vec<(NodeId, ParticipantId)>,
}

impl Meeting {
    fn new() -> Meeting {
        let link = LinkConfig::infinite(SimDuration::from_micros(LINK_US));
        let mut sim = Simulator::new(11);
        let mut node = ScallopSwitchNode::new(SwitchConfig::new(SFU_IP));
        // Decode targets move when the test says so, not on REMB.
        node.agent.set_policy(Rc::new(|dt, _, _| dt));
        let meeting = node.agent.create_meeting();
        let mut sources = Vec::new();
        for i in 0..SENDERS {
            let me = member(i);
            let uplink = node.join(meeting, me, true).video_uplink;
            let mut packetizer = Packetizer::new(0x1000 + i as u32, 96, 1200);
            packetizer.set_next_seq(FIRST_SEQ);
            sources.push(VideoSource {
                me,
                uplink,
                schedule: L1T3Schedule::new(),
                packetizer,
                frame_no: 0,
            });
        }
        let pids: Vec<ParticipantId> = (SENDERS..SENDERS + RECEIVERS)
            .map(|i| node.join(meeting, member(i), false).participant)
            .collect();
        let switch = sim.add_node(Box::new(node), &[SFU_IP], link, link);
        for (i, source) in sources.into_iter().enumerate() {
            sim.add_node(Box::new(source), &[member(i).ip], link, link);
        }
        let receivers = pids
            .into_iter()
            .enumerate()
            .map(|(k, pid)| {
                let addr = member(SENDERS + k);
                let cfg = ClientConfig::receiver_only(addr.ip, addr.port, 0x9000 + k as u32);
                let id = sim.add_node(Box::new(ClientNode::new(cfg)), &[addr.ip], link, link);
                (id, pid)
            })
            .collect();
        Meeting {
            sim,
            switch,
            receivers,
        }
    }

    fn switch(&mut self) -> &mut ScallopSwitchNode {
        self.sim.node_mut(self.switch).expect("the switch")
    }

    /// Move every receiver to decode target `dt` at `at`, media flowing.
    fn set_every_dt(&mut self, at: SimTime, dt: u8) {
        self.sim.run_until(at);
        let pids: Vec<ParticipantId> = self.receivers.iter().map(|&(_, pid)| pid).collect();
        let sw = self.switch();
        for pid in pids {
            sw.agent.apply_dt_change(&mut sw.dp, pid, dt);
            assert_eq!(sw.agent.dt_of(pid), Some(dt));
        }
    }
}

#[test]
fn thinned_and_restored_receivers_see_no_sequence_gaps_across_the_wrap() {
    let mut m = Meeting::new();
    // (thinned after frame, to decode target, restored after frame): the
    // dips start at cadence positions 1, 2 and 3, and each ends after a
    // T0 frame. The second spans the wrap (frame 90).
    for (from, dt, to) in [(29, 1, 48), (58, 0, 96), (103, 1, 120)] {
        m.set_every_dt(after_frame(from), dt);
        m.set_every_dt(after_frame(to), 2);
    }
    m.sim.run_until(after_frame(150));

    // Every stream was thinned under media: each is renumbered, and by a
    // non-zero offset.
    let sw = m.switch();
    let offsets: Vec<u16> = sw
        .dp
        .egress
        .iter()
        .filter_map(|(_, spec)| spec.rewrite_index)
        .map(|idx| sw.dp.tracker.offset_of(idx as usize))
        .collect();
    assert_eq!(offsets.len(), SENDERS * RECEIVERS, "every stream tracked");
    assert!(offsets.iter().all(|&o| o != 0), "offsets {offsets:?}");

    for k in 0..RECEIVERS {
        let id = m.receivers[k].0;
        let stats = m
            .sim
            .node_mut::<ClientNode>(id)
            .expect("a receiver")
            .stats();
        assert_eq!(stats.streams.len(), SENDERS, "receiver {k}");
        for (src, s) in &stats.streams {
            assert!(s.frames_decoded > 100, "receiver {k} from {src}: {s:?}");
            assert!(s.highest_seq > 65_535, "receiver {k} from {src} wrapped");
            assert_eq!(s.seq_gaps, 0, "receiver {k} from {src}: {s:?}");
            assert_eq!(s.cumulative_lost, 0, "receiver {k} from {src}");
        }
    }
}
