//! Allocation budget and byte-exactness of sequence-rewritten replicas.
//!
//! The repo benchmark's fan-out workload dips its receivers with no media
//! in flight, so every stream's rewrite offset stays 0 there. Here the
//! dip happens *under* media: all 600 (sender, receiver) streams of a
//! 25-party meeting carry a non-zero offset, so every replica's wire
//! bytes differ from the ingress packet's. The forwarding path must still
//! copy no payload — each replica shares the ingress buffer and carries
//! its new number in the packet's overlay — and allocate nothing per
//! burst. The Stream Tracker under it holds one row per stream, allocated
//! as the streams arrive: none in a fresh data plane, and in this world
//! rows up to its highest stream index only. A simulated switch matches
//! on its exact port table alone, so building one holds no port-indexed
//! copy of its range either.

use scallop::core::agent::SwitchAgent;
use scallop::core::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop::dataplane::batch::BatchOutput;
use scallop::dataplane::seqrewrite::{SeqRewriteMode, StreamTracker};
use scallop::dataplane::switch::{ScallopDataPlane, STREAM_TRACKER_CAPACITY};
use scallop::media::encoder::EncodedFrame;
use scallop::media::packetizer::Packetizer;
use scallop::media::svc::L1T3Schedule;
use scallop::netsim::packet::{HostAddr, Packet};
use scallop::netsim::time::SimTime;
use scallop::proto::rtp::{set_sequence_number, RtpView};
use std::collections::HashMap;
use std::net::Ipv4Addr;

mod common;
use common::{allocs_in, live_bytes};

#[global_allocator]
static GLOBAL: common::Counting = common::Counting;

const PARTIES: usize = 25;
const PKTS_PER_FRAME: usize = 5;
const BURST: usize = PARTIES * PKTS_PER_FRAME;
/// First sequence number of every sender: both the ingress numbers and
/// the (lagging) rewritten ones cross the u16 wrap inside the test.
const FIRST_SEQ: u16 = 65_476;

struct Sender {
    addr: HostAddr,
    uplink: HostAddr,
    schedule: L1T3Schedule,
    packetizer: Packetizer,
    frame_no: u16,
}

/// A 25-party all-sending meeting built through the real agent, whose
/// receivers dipped to DT1 for two L1T3 cycles *of media* and recovered.
struct World {
    dp: ScallopDataPlane,
    out: BatchOutput,
    senders: Vec<Sender>,
}

impl World {
    fn new() -> World {
        let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        dp.enable_dense_ports(10_000, 12_000);
        let mut agent =
            SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)).with_port_range(10_000, 12_000);
        let meeting = agent.create_meeting();
        let mut pids = Vec::new();
        let mut senders = Vec::new();
        for i in 0..PARTIES {
            let addr = HostAddr::new(Ipv4Addr::new(10, 9, 0, (i + 1) as u8), 5000);
            let grant = agent.join(&mut dp, meeting, addr, true);
            pids.push(grant.participant);
            let mut packetizer = Packetizer::new(0x1000 + i as u32, 96, 1200);
            packetizer.set_next_seq(FIRST_SEQ);
            senders.push(Sender {
                addr,
                uplink: grant.video_uplink,
                schedule: L1T3Schedule::new(),
                packetizer,
                frame_no: 0,
            });
        }
        let mut world = World {
            dp,
            out: BatchOutput::default(),
            senders,
        };
        // The dip, with media flowing: each receiver misses the T2 frames
        // of two cycles, so each of its 24 streams ends 20 packets behind.
        for &pid in &pids {
            agent.apply_dt_change(&mut world.dp, pid, 1);
        }
        for _ in 0..8 {
            let burst = world.next_burst();
            world.dp.process_batch(&burst, &mut world.out);
        }
        for &pid in &pids {
            agent.apply_dt_change(&mut world.dp, pid, 2);
        }
        let offsets: Vec<u16> = world
            .dp
            .egress
            .iter()
            .filter_map(|(_, spec)| spec.rewrite_index)
            .map(|idx| world.dp.tracker.offset_of(idx as usize))
            .collect();
        assert_eq!(
            offsets.len(),
            PARTIES * (PARTIES - 1),
            "600 tracked streams"
        );
        assert!(
            offsets.iter().all(|&o| o != 0),
            "every stream was thinned under media"
        );
        world
    }

    /// One whole five-packet frame from every sender, sender-major.
    fn next_burst(&mut self) -> Vec<Packet> {
        let mut pkts = Vec::with_capacity(BURST);
        for s in &mut self.senders {
            let frame = EncodedFrame {
                frame_number: s.frame_no,
                label: s.schedule.next_label().into(),
                size_bytes: PKTS_PER_FRAME * 1200 - 300,
                captured_at: SimTime::ZERO,
                rtp_timestamp: u32::from(s.frame_no) * 3_000,
            };
            s.frame_no = s.frame_no.wrapping_add(1);
            let rtp = s.packetizer.packetize(&frame);
            assert_eq!(rtp.len(), PKTS_PER_FRAME);
            pkts.extend(
                rtp.iter()
                    .map(|p| Packet::new(s.addr, s.uplink, p.serialize())),
            );
        }
        pkts
    }
}

#[test]
fn steady_state_bursts_allocate_a_constant_not_per_replica() {
    let mut w = World::new();
    let burst = w.next_burst();
    w.dp.process_batch(&burst, &mut w.out); // warm-up: sizes every arena

    // A caller that lets go of a burst's outputs before the next one (as
    // `process_batch` does by clearing `out`): nothing is allocated.
    for _ in 0..8 {
        let burst = w.next_burst();
        let n = allocs_in(|| w.dp.process_batch(&burst, &mut w.out));
        assert_eq!(w.out.forwards.len(), BURST * (PARTIES - 1));
        assert_eq!(n, 0, "allocations for one closed-loop burst");
    }

    // A caller that keeps every output alive holds views of the ingress
    // buffers and nothing of the data plane's: still nothing allocated.
    let mut kept = Vec::new();
    for _ in 0..8 {
        let copies: Vec<Vec<u8>> = w
            .out
            .forwards
            .iter()
            .map(|p| p.wire_bytes().into_owned())
            .collect();
        kept.push((w.out.forwards.clone(), copies));
        let burst = w.next_burst();
        let n = allocs_in(|| w.dp.process_batch(&burst, &mut w.out));
        assert_eq!(n, 0, "allocations for one burst with every output kept");
    }
    // A kept replica reads what it read when it was made.
    for (replicas, copies) in &kept {
        assert!(replicas
            .iter()
            .zip(copies)
            .all(|(r, c)| r.wire_bytes()[..] == c[..]));
    }
}

#[test]
fn rewritten_replicas_are_the_ingress_bytes_with_a_new_sequence_number() {
    let mut w = World::new();
    // Last rewritten sequence number per (pair address, receiver) stream.
    let mut last: HashMap<(HostAddr, HostAddr), u16> = HashMap::new();
    let mut wrapped = 0usize;
    for _ in 0..12 {
        let burst = w.next_burst();
        w.dp.process_batch(&burst, &mut w.out);
        let fanout = PARTIES - 1;
        assert_eq!(w.out.forwards.len(), burst.len() * fanout);
        for (i, ingress) in burst.iter().enumerate() {
            let in_seq = RtpView::new(&ingress.payload).unwrap().sequence_number();
            let replicas = &w.out.forwards[i * fanout..(i + 1) * fanout];
            for fwd in replicas {
                let wire = fwd.wire_bytes();
                let seq = RtpView::new(&wire).unwrap().sequence_number();
                assert_ne!(seq, in_seq, "offset is non-zero on every stream");
                // On the wire: the ingress bytes with the new number in.
                let mut expect = ingress.payload.to_vec();
                set_sequence_number(&mut expect, seq).unwrap();
                assert_eq!(wire[..], expect[..]);
                // In memory: the ingress buffer itself, untouched.
                assert_eq!(fwd.payload.as_ptr(), ingress.payload.as_ptr());
                assert_eq!(fwd.payload, ingress.payload);
                // Gap-free per stream, across the u16 wrap.
                if let Some(prev) = last.insert((fwd.src, fwd.dst), seq) {
                    assert_eq!(
                        seq,
                        prev.wrapping_add(1),
                        "stream {} -> {}",
                        fwd.src,
                        fwd.dst
                    );
                    wrapped += usize::from(seq == 0);
                }
            }
        }
    }
    assert_eq!(last.len(), PARTIES * (PARTIES - 1));
    assert_eq!(wrapped, last.len(), "every stream crossed 65535 -> 0");
}

#[test]
fn a_fresh_data_plane_holds_no_tracker_rows() {
    let before = live_bytes();
    let dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    let held = live_bytes() - before;
    // Six up-front 65 536-cell register arrays alone would be 1.5 MB.
    assert!(held <= 64 * 1024, "a fresh data plane holds {held} B");
    drop(dp);
}

#[test]
fn the_tracker_holds_rows_up_to_its_highest_stream_only() {
    let mut w = World::new();
    let highest =
        w.dp.egress
            .iter()
            .filter_map(|(_, spec)| spec.rewrite_index)
            .max()
            .expect("tracked streams");
    let used = (i64::from(highest) + 1) * std::mem::size_of::<[u32; 6]>() as i64;
    // What the tracker holds is what dropping it frees; its stand-in
    // allocates nothing.
    let fresh = StreamTracker::new(SeqRewriteMode::LowRetransmission, STREAM_TRACKER_CAPACITY);
    let before = live_bytes();
    drop(std::mem::replace(&mut w.dp.tracker, fresh));
    let held = before - live_bytes();
    // A row per index up to the highest, and no more spare room than a
    // vector that doubles as it grows keeps.
    assert!(
        (used..=2 * used).contains(&held),
        "{held} B of tracker rows for streams 0..={highest} ({used} B of rows)"
    );
}

#[test]
fn a_switch_over_a_whole_edge_range_holds_no_port_mirror() {
    let cfg = SwitchConfig::new(Ipv4Addr::new(10, 0, 0, 100));
    assert_eq!((cfg.port_base, cfg.port_limit), (10_000, u16::MAX));
    let before = live_bytes();
    let node = ScallopSwitchNode::new(cfg);
    let held = live_bytes() - before;
    // A port-indexed mirror of those 55 535 ports would hold 2.8 MB.
    assert!(held <= 64 * 1024, "a fresh switch holds {held} B");
    drop(node);
}
