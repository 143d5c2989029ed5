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
//!
//! A second test churns the meeting after those cycles, media flowing:
//! one receiver leaves, which clears and frees its tracker slots, and a
//! newcomer joins and is thinned, which takes and re-initialises them.
//! The newcomer must see no gap and the other receivers must not notice.

use scallop::client::receiver::StreamRxStats;
use scallop::client::{ClientConfig, ClientNode};
use scallop::core::agent::{MeetingId, ParticipantId};
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
    meeting: MeetingId,
    receivers: Vec<(NodeId, ParticipantId)>,
}

impl Meeting {
    fn new() -> Meeting {
        let link = LinkConfig::infinite(SimDuration::from_micros(LINK_US));
        let mut sim = Simulator::new(11);
        let mut node = ScallopSwitchNode::new(SwitchConfig::new(SFU_IP));
        // Decode targets move when the test says so, not on REMB.
        node.agent.set_policy(Rc::new(|dt, _| dt));
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
        let mut m = Meeting {
            sim,
            switch,
            meeting,
            receivers: Vec::new(),
        };
        for (k, pid) in pids.into_iter().enumerate() {
            m.add_receiver(k, pid);
        }
        m
    }

    /// Add the client of receiver `k` (address `member(SENDERS + k)`),
    /// whose participant the switch already knows as `pid`.
    fn add_receiver(&mut self, k: usize, pid: ParticipantId) {
        let link = LinkConfig::infinite(SimDuration::from_micros(LINK_US));
        let addr = member(SENDERS + k);
        let cfg = ClientConfig::receiver_only(addr.ip, addr.port, 0x9000 + k as u32);
        let id = self
            .sim
            .add_node(Box::new(ClientNode::new(cfg)), &[addr.ip], link, link);
        self.receivers.push((id, pid));
    }

    fn switch(&mut self) -> &mut ScallopSwitchNode {
        self.sim.node_mut(self.switch).expect("the switch")
    }

    /// Move the receivers `pids` to decode target `dt` at `at`, media
    /// flowing.
    fn set_dt(&mut self, at: SimTime, pids: &[ParticipantId], dt: u8) {
        self.sim.run_until(at);
        let sw = self.switch();
        for &pid in pids {
            sw.agent.apply_dt_change(&mut sw.dp, pid, dt);
            assert_eq!(sw.agent.dt_of(pid), Some(dt));
        }
    }

    /// Thin every receiver and restore it, three times: (thinned after
    /// frame, to decode target, restored after frame). The dips start at
    /// cadence positions 1, 2 and 3, and each ends after a T0 frame. The
    /// second spans the wrap (frame 90).
    fn thin_and_restore_everyone(&mut self) {
        let pids: Vec<ParticipantId> = self.receivers.iter().map(|&(_, pid)| pid).collect();
        for (from, dt, to) in [(29, 1, 48), (58, 0, 96), (103, 1, 120)] {
            self.set_dt(after_frame(from), &pids, dt);
            self.set_dt(after_frame(to), &pids, 2);
        }
    }

    /// The tracker slots of the streams toward `addr`, each with its
    /// rewrite offset, in slot order.
    fn slots_of(&mut self, addr: HostAddr) -> Vec<(u16, u16)> {
        let sw = self.switch();
        let mut slots: Vec<(u16, u16)> = sw
            .dp
            .egress
            .iter()
            .filter(|(_, spec)| spec.dst == addr)
            .filter_map(|(_, spec)| spec.rewrite_index)
            .map(|idx| (idx, sw.dp.tracker.offset_of(idx as usize)))
            .collect();
        // A stream has an egress entry in each tree it is a member of.
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Receiver `k`'s per-stream receive counters.
    fn streams_of(&mut self, k: usize) -> Vec<(HostAddr, StreamRxStats)> {
        let id = self.receivers[k].0;
        let client = self.sim.node_mut::<ClientNode>(id).expect("a receiver");
        client.stats().streams
    }
}

#[test]
fn thinned_and_restored_receivers_see_no_sequence_gaps_across_the_wrap() {
    let mut m = Meeting::new();
    m.thin_and_restore_everyone();
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
        let streams = m.streams_of(k);
        assert_eq!(streams.len(), SENDERS, "receiver {k}");
        for (src, s) in &streams {
            assert!(s.frames_decoded > 100, "receiver {k} from {src}: {s:?}");
            assert!(s.highest_seq > 65_535, "receiver {k} from {src} wrapped");
            assert_eq!(s.seq_gaps, 0, "receiver {k} from {src}: {s:?}");
            assert_eq!(s.cumulative_lost, 0, "receiver {k} from {src}");
        }
    }
}

#[test]
fn a_newcomer_takes_a_leavers_tracker_slots_without_gaps() {
    let mut m = Meeting::new();
    m.thin_and_restore_everyone();
    m.sim.run_until(after_frame(124));
    let leaver = m.receivers[0].1;
    let freed: Vec<u16> = m
        .slots_of(member(SENDERS))
        .iter()
        .map(|&(idx, _)| idx)
        .collect();
    assert_eq!(freed.len(), SENDERS, "the leaver's streams are tracked");
    // The survivors' slots, offsets and receive counters before the churn.
    let survivors = 1..RECEIVERS;
    let before: Vec<_> = survivors
        .clone()
        .map(|k| (m.slots_of(member(SENDERS + k)), m.streams_of(k)))
        .collect();

    // Receiver 0 leaves: its slots are cleared and freed.
    m.sim.run_until(after_frame(125));
    let meeting = m.meeting;
    m.switch().leave(meeting, leaver);
    assert!(m.slots_of(member(SENDERS)).is_empty());
    for &idx in &freed {
        assert_eq!(
            m.switch().dp.tracker.offset_of(idx as usize),
            0,
            "slot {idx} cleared"
        );
    }

    // A newcomer joins at full rate (no slots), then is thinned after a
    // frame whose successor it keeps and restored after a T0 frame: it
    // takes the freed slots, each re-initialised by its first packet.
    m.sim.run_until(after_frame(126));
    let newcomer = m
        .switch()
        .join(meeting, member(SENDERS + RECEIVERS), false)
        .participant;
    m.add_receiver(RECEIVERS, newcomer);
    m.set_dt(after_frame(129), &[newcomer], 1);
    let taken: Vec<u16> = m
        .slots_of(member(SENDERS + RECEIVERS))
        .iter()
        .map(|&(idx, _)| idx)
        .collect();
    assert_eq!(taken, freed, "the newcomer reuses the freed slots");
    m.set_dt(after_frame(140), &[newcomer], 2);
    m.sim.run_until(after_frame(170));

    let slots = m.slots_of(member(SENDERS + RECEIVERS));
    assert!(
        slots.iter().all(|&(_, offset)| offset != 0),
        "thinned under media: {slots:?}"
    );
    let streams = m.streams_of(RECEIVERS);
    assert_eq!(streams.len(), SENDERS);
    for (src, s) in &streams {
        assert!(s.packets > 100, "newcomer from {src}: {s:?}");
        assert_eq!(s.seq_gaps, 0, "newcomer from {src}: {s:?}");
        assert_eq!(s.cumulative_lost, 0, "newcomer from {src}");
    }
    for (k, (slots, streams)) in survivors.zip(before) {
        assert_eq!(
            m.slots_of(member(SENDERS + k)),
            slots,
            "receiver {k}'s offsets"
        );
        let gaps = |streams: &[(HostAddr, StreamRxStats)]| -> Vec<(u64, u64)> {
            streams
                .iter()
                .map(|(_, s)| (s.seq_gaps, s.cumulative_lost))
                .collect()
        };
        assert_eq!(
            gaps(&m.streams_of(k)),
            gaps(&streams),
            "receiver {k}'s gaps"
        );
    }
}
