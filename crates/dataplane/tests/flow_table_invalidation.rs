//! Differential test of the flow table's invalidation.
//!
//! The data plane keeps each port's rule until the rule is written, and
//! every PRE flow it resolved until the PRE or the egress table is
//! written. Two twin data planes see the same random
//! interleaving of packets and table writes — egress upserts and
//! removals, group creation and destruction, L1 nodes added and removed,
//! L2 XID sets set and cleared. The warm twin takes each packet step as
//! one call and replays whatever it resolved since the last write. The
//! cold twin takes the same packets one call each, after a write that
//! changes nothing but its egress table's version, so it resolves every
//! packet from the tables. After every step both must have forwarded the
//! same replicas (addresses and wire bytes, rewritten sequence numbers
//! included), punted the same packets and kept the same counters.
//!
//! Port-rule writes are checked case by case, each against a twin that
//! takes the packets one call each and matches every one of them in the
//! tables: a rule rewritten with no other table written, a port-rule
//! table swapped in whole, and a rule removed.

use proptest::collection::vec;
use proptest::prelude::*;
use scallop_dataplane::batch::BatchOutput;
use scallop_dataplane::pre::{L1Node, PortList};
use scallop_dataplane::rules::{EgressKey, EgressSpec, PortRule, ReplicationAction};
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_dataplane::switch::ScallopDataPlane;
use scallop_dataplane::tables::ExactTable;
use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
use scallop_media::packetizer::Packetizer;
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::time::SimTime;
use scallop_proto::rtp::RtpPacket;
use std::net::Ipv4Addr;

/// Senders with an uplink rule; one more sends to a port without one.
const SENDERS: u16 = 4;
/// Multicast groups in play: MGIDs `1..=GROUPS`.
const GROUPS: u16 = 4;
/// Replication ids in play: `1..=RIDS`.
const RIDS: u16 = 6;
/// Stream Tracker rows the egress specs rewrite through.
const STREAMS: u16 = 4;
/// An egress key no write ever installs: removing it changes nothing
/// but the table's version.
const NO_SUCH_EGRESS: EgressKey = EgressKey {
    mgid: u16::MAX,
    rid: u16::MAX,
    in_port: 0,
};
/// A port no rule is ever installed on: removing its rule through the
/// `pub` table changes nothing but the port-rule table's version.
const NO_SUCH_PORT: u16 = u16::MAX;

fn sfu(port: u16) -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), port)
}

fn client(last: u16, port: u16) -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 9, 0, last as u8), port)
}

/// Sender `s`'s uplink port on the SFU.
fn uplink(s: u16) -> u16 {
    10 + s
}

fn spec(rid: u16, max_temporal: u8, rewrite_index: Option<u16>) -> EgressSpec {
    EgressSpec {
        src: sfu(1000 + rid),
        dst: client(rid, 5000),
        max_temporal,
        rewrite_index,
    }
}

/// Four senders over four trees: each tree holds every RID, each
/// sender's tiers map onto different trees, each sender's L1/L2 XIDs
/// prune something, and every (tree, RID, uplink) has an egress entry,
/// some of them rate-adapted and sequence-rewritten.
fn plane() -> ScallopDataPlane {
    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    for idx in 0..STREAMS {
        dp.tracker.init_stream(usize::from(idx), 2);
    }
    for mgid in 1..=GROUPS {
        dp.create_tree(mgid).unwrap();
        for rid in 1..=RIDS {
            let node = L1Node {
                rid,
                xid: rid % 3,
                prune_enabled: rid.is_multiple_of(2),
                ports: PortList::One(rid),
            };
            dp.pre.add_node(mgid, node).unwrap();
        }
    }
    for s in 0..SENDERS {
        dp.pre.set_l2_xid_ports(s, vec![1 + s]);
        let action = ReplicationAction::Multicast {
            mgid_by_tier: [1 + s % 2, 2 + s % 3, 4 - s % 2],
            l1_xid: s % 3,
            rid: 1 + s,
            l2_xid: s,
        };
        let rule = PortRule::SenderUplink {
            action,
            punt_extended_dd: true,
        };
        dp.install_port_rule(uplink(s), rule).unwrap();
        for mgid in 1..=GROUPS {
            for rid in 1..=RIDS {
                let key = EgressKey {
                    mgid,
                    rid,
                    in_port: uplink(s),
                };
                let rewrite = rid.is_multiple_of(3).then_some((rid + s) % STREAMS);
                let max_temporal = if rewrite.is_some() { 1 } else { 2 };
                dp.install_egress(key, spec(rid, max_temporal, rewrite))
                    .unwrap();
            }
        }
    }
    dp
}

/// One step: `(kind, a, b, c, d)`. Kinds below 8 are packet steps; the
/// others are one table write each, their operands drawn from small
/// ranges so that writes hit live trees, nodes and entries.
type Step = (u8, u16, u16, u16, u16);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        (
            0u8..16,
            0u16..=SENDERS,
            0u16..=RIDS,
            0u16..=SENDERS,
            any::<u16>(),
        ),
        1..120,
    )
}

/// The packets of one step: `count` packets from sender `s` (the one
/// past the last sends to a port without a rule), video of one template
/// or audio, a key frame's head now and then.
struct Senders {
    packetizers: Vec<Packetizer>,
    frame: u16,
    audio_seq: u16,
}

impl Senders {
    fn new() -> Senders {
        Senders {
            packetizers: (0..=SENDERS)
                .map(|s| Packetizer::new(0x1000 + u32::from(s), 96, 1200))
                .collect(),
            frame: 0,
            audio_seq: 0,
        }
    }

    fn packets(&mut self, s: u16, count: u16, template: u16, d: u16) -> Vec<Packet> {
        let src = client(20 + s, 4000);
        let dst = sfu(uplink(s));
        if d.is_multiple_of(5) {
            return (0..count)
                .map(|_| {
                    self.audio_seq = self.audio_seq.wrapping_add(1);
                    let mut rtp = RtpPacket::new(111, self.audio_seq, 960, 0x2000);
                    rtp.payload = vec![0u8; 80].into();
                    Packet::new(src, dst, rtp.serialize())
                })
                .collect();
        }
        let is_key = d.is_multiple_of(7);
        let template_id = if is_key { 0 } else { (template % 4 + 1) as u8 };
        self.frame = self.frame.wrapping_add(1);
        let frame = EncodedFrame {
            frame_number: self.frame,
            label: FrameLabelCompact {
                temporal_id: match template_id {
                    0 | 1 => 0,
                    2 => 1,
                    _ => 2,
                },
                template_id,
                is_key,
            },
            size_bytes: 1100 * usize::from(count),
            captured_at: SimTime::ZERO,
            rtp_timestamp: u32::from(self.frame) * 3000,
        };
        self.packetizers[usize::from(s)]
            .packetize(&frame)
            .iter()
            .map(|p| Packet::new(src, dst, p.serialize()))
            .collect()
    }
}

/// Apply write step `(kind, a, b, c, d)` to `dp`, returning what the
/// write reported (so the twins' results can be compared too).
fn write(dp: &mut ScallopDataPlane, (kind, a, b, c, d): Step) -> String {
    let mgid = 1 + a % GROUPS;
    let rid = 1 + b % RIDS;
    match kind {
        8 => {
            let key = EgressKey {
                mgid,
                rid,
                in_port: uplink(c),
            };
            let rewrite = d.is_multiple_of(2).then_some(d % STREAMS);
            let spec = spec(rid + d % 3, (d % 3) as u8, rewrite);
            format!("{:?}", dp.install_egress(key, spec))
        }
        9 => {
            let key = EgressKey {
                mgid,
                rid,
                in_port: uplink(c),
            };
            format!("{:?}", dp.remove_egress(key))
        }
        10 => format!("{:?}", dp.pre.create_group(mgid)),
        11 => format!("{:?}", dp.pre.destroy_group(mgid)),
        12 => {
            let node = L1Node {
                rid,
                xid: c % 3,
                prune_enabled: d.is_multiple_of(2),
                ports: vec![d % 8, 1 + d % 5].into(),
            };
            format!("{:?}", dp.pre.add_node(mgid, node))
        }
        13 => format!("{:?}", dp.pre.remove_node(mgid, rid)),
        14 => {
            dp.pre.set_l2_xid_ports(c, vec![d % 8]);
            String::new()
        }
        _ => {
            dp.pre.clear_l2_xid_ports(c);
            String::new()
        }
    }
}

/// What a forward puts on the wire: addresses and datagram.
fn wire(f: &Packet) -> (HostAddr, HostAddr, Vec<u8>) {
    (f.src, f.dst, f.wire_bytes().into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_replayed_flow_equals_a_cold_resolution_under_any_write(steps in arb_steps()) {
        let (mut warm, mut cold) = (plane(), plane());
        let (mut warm_out, mut cold_out) = (BatchOutput::default(), BatchOutput::default());
        let mut senders = Senders::new();
        for (i, &step) in steps.iter().enumerate() {
            let (kind, a, b, c, d) = step;
            if kind >= 8 {
                prop_assert_eq!(write(&mut warm, step), write(&mut cold, step), "step {}", i);
                continue;
            }
            let pkts = senders.packets(a, 1 + b % 3, c, d);
            warm.process_batch(&pkts, &mut warm_out);
            let (mut forwards, mut punts) = (Vec::new(), Vec::new());
            for (j, pkt) in pkts.iter().enumerate() {
                cold.remove_egress(NO_SUCH_EGRESS);
                cold.process_batch(std::slice::from_ref(pkt), &mut cold_out);
                forwards.extend(cold_out.forwards.iter().map(wire));
                punts.extend(cold_out.cpu_punts.iter().map(|&p| p + j as u32));
            }
            let warm_forwards: Vec<_> = warm_out.forwards.iter().map(wire).collect();
            prop_assert_eq!(warm_forwards, forwards, "forwards at step {}", i);
            prop_assert_eq!(&warm_out.cpu_punts, &punts, "punts at step {}", i);
            prop_assert_eq!(warm.counters, cold.counters, "counters at step {}", i);
            prop_assert_eq!(cold_out.stats.pre_walks_saved, 0, "the cold twin replayed");
        }
    }
}

/// The warm twin of the differential test does replay: a write-free run
/// of the same packets saves every walk but the first of each flow.
#[test]
fn without_writes_each_flow_is_walked_once() {
    let mut dp = plane();
    let mut out = BatchOutput::default();
    let mut senders = Senders::new();
    for _ in 0..8 {
        for s in 0..SENDERS {
            // A T0 video packet, one a call.
            for pkt in senders.packets(s, 1, 0, 1) {
                dp.process_batch(std::slice::from_ref(&pkt), &mut out);
            }
        }
    }
    assert_eq!(out.stats.batch_pkts, 32);
    assert_eq!(out.stats.pre_walks_saved, 32 - u64::from(SENDERS));
    assert_eq!(dp.resolved_flows(), usize::from(SENDERS));
}

/// A flow whose walk reaches no receiver names no egress entry, yet is
/// kept like any other: its room comes from the port rule that starts
/// it. Two hundred such flows, more than the plane has egress entries,
/// are each walked once.
#[test]
fn flows_that_reach_no_receiver_are_kept_too() {
    const EMPTY_TREE: u16 = 100;
    const PORTS: u16 = 200;
    let mut dp = plane();
    assert!(dp.egress.len() < usize::from(PORTS));
    dp.create_tree(EMPTY_TREE).unwrap();
    let rule = PortRule::SenderUplink {
        action: ReplicationAction::Multicast {
            mgid_by_tier: [EMPTY_TREE; 3],
            l1_xid: 0,
            rid: 0,
            l2_xid: 0,
        },
        punt_extended_dd: false,
    };
    for p in 0..PORTS {
        dp.install_port_rule(2000 + p, rule).unwrap();
    }
    let mut out = BatchOutput::default();
    for _ in 0..2 {
        for p in 0..PORTS {
            let mut rtp = RtpPacket::new(111, p, 960, 0x3000);
            rtp.payload = vec![0u8; 80].into();
            let pkt = Packet::new(client(30, 4000), sfu(2000 + p), rtp.serialize());
            dp.process_batch(std::slice::from_ref(&pkt), &mut out);
        }
    }
    assert_eq!(dp.counters.forwarded_pkts, 0);
    assert_eq!(out.stats.pre_walks_saved, u64::from(PORTS));
    assert_eq!(dp.resolved_flows(), usize::from(PORTS));
}

/// Sender 0's uplink rule with temporal tier `t` replicated through tree
/// `mgid_by_tier[t]`.
fn sender0_rule(mgid_by_tier: [u16; 3]) -> PortRule {
    PortRule::SenderUplink {
        action: ReplicationAction::Multicast {
            mgid_by_tier,
            l1_xid: 0,
            rid: 1,
            l2_xid: 0,
        },
        punt_extended_dd: true,
    }
}

/// [`plane`] with sender 0 on one tree for every tier (tree 1), and tree
/// `GROUPS` without RIDs 1 and 2, so that a T2 packet fans out to fewer
/// receivers through it than through tree 1.
fn one_tree_plane() -> ScallopDataPlane {
    let mut dp = plane();
    for rid in [1, 2] {
        dp.pre.remove_node(GROUPS, rid).unwrap();
    }
    dp.install_port_rule(uplink(0), sender0_rule([1; 3]))
        .unwrap();
    dp
}

/// Both twins take `pkts`: `warm` in one call, `cold` one call a packet,
/// each after a write that changes nothing but the versions of its
/// port-rule and egress tables, so that it matches the packet's rule and
/// resolves its flow in the tables. Both must forward the same replicas,
/// punt the same packets and keep the same counters. Returns the replicas
/// forwarded.
fn twins(warm: &mut ScallopDataPlane, cold: &mut ScallopDataPlane, pkts: &[Packet]) -> usize {
    let mut out = BatchOutput::default();
    warm.process_batch(pkts, &mut out);
    let (mut forwards, mut punts) = (Vec::new(), Vec::new());
    let mut cold_out = BatchOutput::default();
    for (j, pkt) in pkts.iter().enumerate() {
        cold.port_rules.remove(&NO_SUCH_PORT);
        cold.remove_egress(NO_SUCH_EGRESS);
        cold.process_batch(std::slice::from_ref(pkt), &mut cold_out);
        forwards.extend(cold_out.forwards.iter().map(wire));
        punts.extend(cold_out.cpu_punts.iter().map(|&p| p + j as u32));
    }
    let warm_forwards: Vec<_> = out.forwards.iter().map(wire).collect();
    assert_eq!(warm_forwards, forwards, "forwards");
    assert_eq!(out.cpu_punts, punts, "punts");
    assert_eq!(warm.counters, cold.counters, "counters");
    assert_eq!(
        cold_out.stats.port_lookups_saved, 0,
        "the cold twin kept a rule"
    );
    out.forwards.len()
}

/// T2 video from sender `s`: `count` packets of one frame.
fn t2_video(senders: &mut Senders, s: u16, count: u16) -> Vec<Packet> {
    senders.packets(s, count, 2, 1)
}

/// A DT change that moves a sender to per-tier trees rewrites its uplink
/// rule and writes neither the PRE nor the egress table. The port's next
/// packet follows the new rule.
#[test]
fn a_rewritten_port_rule_takes_effect_on_the_next_packet() {
    let (mut warm, mut cold) = (one_tree_plane(), one_tree_plane());
    let mut senders = Senders::new();
    // Through tree 1: RIDs 2, 4 and 5 (RID 1 is the sender's own, 3 and 6
    // decode below T2).
    let pkts = t2_video(&mut senders, 0, 3);
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 3 * 3);
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 3 * 3);

    for dp in [&mut warm, &mut cold] {
        dp.install_port_rule(uplink(0), sender0_rule([1, 2, GROUPS]))
            .unwrap();
    }
    // Through tree `GROUPS`, which lacks RID 2.
    let pkts = t2_video(&mut senders, 0, 3);
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 3 * 2);
    assert_eq!(warm.resolved_flows(), 1);
}

/// A port-rule table swapped in whole through the `pub` field drops
/// every kept rule — even a table holding the very entries the kept rules
/// were first matched from.
#[test]
fn a_port_rule_table_swapped_in_whole_drops_every_kept_rule() {
    let (mut warm, mut cold) = (one_tree_plane(), one_tree_plane());
    let first = warm.port_rules.clone();
    let mut senders = Senders::new();
    // Sender 0's T2 packets reach three receivers through tree 1 and two
    // through tree `GROUPS`; sender 1's reach two.
    let mut pkts = t2_video(&mut senders, 0, 2);
    pkts.extend(t2_video(&mut senders, 1, 2));
    let fanout = twins(&mut warm, &mut cold, &pkts);
    assert_eq!(fanout, 2 * 3 + 2 * 2);

    for dp in [&mut warm, &mut cold] {
        dp.install_port_rule(uplink(0), sender0_rule([GROUPS; 3]))
            .unwrap();
    }
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 2 * 2 + 2 * 2);

    // The table from before the install: sender 0 is back on tree 1, even
    // when another port's rule is installed before the next packet.
    let sender1 = *first.peek(&uplink(1)).unwrap();
    for dp in [&mut warm, &mut cold] {
        dp.port_rules = first.clone();
        dp.install_port_rule(uplink(1), sender1).unwrap();
    }
    assert_eq!(twins(&mut warm, &mut cold, &pkts), fanout);

    // A table without any rule: every packet is a drop.
    let drops = warm.counters.no_rule_drops;
    for dp in [&mut warm, &mut cold] {
        dp.port_rules = ExactTable::new("port_rules", 16, 160);
    }
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 0);
    assert_eq!(warm.counters.no_rule_drops, drops + pkts.len() as u64);
}

/// A removed port rule turns its port's packets into `no_rule_drops`;
/// another port's kept rule and flows still serve its packets.
#[test]
fn a_removed_port_rule_turns_the_ports_packets_into_drops() {
    let (mut warm, mut cold) = (plane(), plane());
    let mut senders = Senders::new();
    // Sender 0's T2 packets reach three receivers, sender 1's two.
    let mut pkts = t2_video(&mut senders, 0, 2);
    pkts.extend(t2_video(&mut senders, 1, 2));
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 2 * 3 + 2 * 2);

    for dp in [&mut warm, &mut cold] {
        dp.remove_port_rule(uplink(0)).unwrap();
    }
    let drops = warm.counters.no_rule_drops;
    // Sender 1's flow is still kept: both its packets replay it.
    let probe = t2_video(&mut senders, 1, 2);
    let mut out = BatchOutput::default();
    warm.process_batch(&probe, &mut out);
    assert_eq!(out.stats.pre_walks_saved, 2);
    cold.process_batch(&probe, &mut BatchOutput::default());

    let mut pkts = t2_video(&mut senders, 0, 2);
    pkts.extend(t2_video(&mut senders, 1, 2));
    assert_eq!(twins(&mut warm, &mut cold, &pkts), 2 * 2);
    assert_eq!(warm.counters.no_rule_drops, drops + 2);
}
