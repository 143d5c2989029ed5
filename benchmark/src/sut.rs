//! The adapter: every call into the `scallop-*` crates lives in this file.
//!
//! Later changes to the system may not edit the benchmark, so the surface
//! it stands on is kept small and is listed in `benchmark/README.md`. The
//! entry points preferred are the ones the ROADMAP says survive
//! (`process_batch`, `ShardedControlPlane`, `Fabric::build`, `Simulator`,
//! `workload::*`), not their twins slated for removal.
//!
//! Three *worlds* hold a configured system under test and its inputs:
//! [`FwdWorld`] (one data plane, in-memory packet bursts), [`CtlWorld`]
//! (a campus fabric's control plane, no media) and [`SimWorld`] (a
//! federated fabric with live clients). The workloads in
//! `crate::workloads` drive them through the few methods below and never
//! name a `scallop-*` type themselves.

use crate::trace::{SpanId, Tracer};
use scallop_client::{BandwidthEstimator, ClientConfig, ClientNode, GccConfig};
use scallop_core::agent::{cadence_for_dt, ParticipantId, SwitchAgent};
use scallop_core::capacity::{AdmissionDecision, BranchRoute, FabricBudgets, LoadDelta};
use scallop_core::fabric::Fabric;
use scallop_core::shard::ShardedControlPlane;
use scallop_core::switchnode::{ScallopSwitchNode, SwitchConfig};
use scallop_dataplane::batch::BatchOutput;
use scallop_dataplane::parser::{self, ParsedPacket};
use scallop_dataplane::pre::Replica;
use scallop_dataplane::rules::{EgressKey, EgressSpec, PortRule, ReplicationAction};
use scallop_dataplane::seqrewrite::{PacketVerdict, SeqRewriteMode, StreamTracker};
use scallop_dataplane::switch::{DataPlaneCounters, ScallopDataPlane, STREAM_TRACKER_CAPACITY};
use scallop_media::decoder::{Decoder, DecoderConfig};
use scallop_media::encoder::{EncodedFrame, EncoderConfig, VideoEncoder};
use scallop_media::packetizer::{Packetizer, DEFAULT_MTU};
use scallop_media::svc::L1T3Schedule;
use scallop_netsim::fault::FaultConfig;
use scallop_netsim::link::{Link, LinkConfig};
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::rng::DetRng;
use scallop_netsim::sim::{Ctx, Node, NodeId, Simulator, TimerToken};
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_netsim::topology::Topology;
use scallop_proto::av1::l1t3::TEMPLATE_TEMPORAL;
use scallop_proto::demux::PacketClass;
use scallop_proto::rtcp::{self, Nack, ReceiverReport, Remb, RtcpPacket, SenderReport};
use scallop_proto::rtp::RtpPacket;
use scallop_proto::stun::StunMessage;
use scallop_workload::campus::{CampusModel, CampusParams, MeetingRecord};
use scallop_workload::flashcrowd::{flash_crowd, webinar, CrowdJoin};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// The switch's address in the single-switch forwarding worlds.
const SFU_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
/// SFU port span handed to the agent and mirrored by the dense registers,
/// as `core/switchnode.rs` does for an edge's span from the topology.
const PORT_BASE: u16 = 10_000;
const PORT_LIMIT: u16 = 30_000;

/// `sizes × scale`, never below `floor`.
fn scaled(size: usize, scale: f64, floor: usize) -> usize {
    ((size as f64 * scale).round() as usize).max(floor)
}

fn client_addr(net: u8, i: usize) -> HostAddr {
    HostAddr::new(
        Ipv4Addr::new(10, net, (i / 200) as u8, (i % 200 + 1) as u8),
        5000,
    )
}

// ---------------------------------------------------------------------
// Forwarding worlds: fwd_fanout and fwd_mixed
// ---------------------------------------------------------------------

/// Which forwarding workload a [`FwdWorld`] is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwdKind {
    /// One 25-party all-sending meeting, whole ~5 400-byte frames.
    Fanout,
    /// 400 three-party meetings, a Table-1-like mix of small packets.
    Mixed,
}

/// One participant of a forwarding world and its media sources.
struct Member {
    addr: HostAddr,
    pid: ParticipantId,
    video_up: HostAddr,
    audio_up: HostAddr,
    /// Decode target the benchmark left this member at (as a receiver).
    dt: u8,
    meeting: usize,
    ssrc: u32,
    schedule: L1T3Schedule,
    packetizer: Packetizer,
    frame_no: u16,
    audio_seq: u16,
    /// Bytes of every video frame this member sends.
    frame_bytes: usize,
}

/// What one slot of a burst carries. Media is regenerated by every
/// [`FwdWorld::refill`] so each stream stays in order across repetitions
/// (including the u16 wrap); everything else is built once.
#[derive(Debug, Clone, Copy)]
enum Item {
    Video {
        sender: usize,
        at: usize,
        pkts: usize,
    },
    Audio {
        sender: usize,
        at: usize,
    },
    /// SR, RR+REMB, NACK, STUN or unparseable bytes, built at plan time.
    Static,
}

/// One burst of ingress packets and what forwarding it must produce.
struct Burst {
    pkts: Vec<Packet>,
    items: Vec<Item>,
    /// Distinct destination ports, in first-seen order.
    ports: Vec<u16>,
    /// Per packet: index into `ports`.
    port_slot: Vec<u16>,
    /// Replicas the static packets (SR, NACK) must produce.
    expect_static: u64,
    /// Replicas the roster says media, SR and NACK packets produce; the
    /// media's share is recomputed by every refill.
    expect_fixed: u64,
    /// RR+REMB packets: each is forwarded or counted as `remb_filtered`.
    rr_pkts: u64,
    /// Unparseable packets injected.
    garbage: u64,
}

/// Work the replays did, for per-call costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Packets parsed.
    pub parsed: u64,
    /// Dense-register port lookups.
    pub dense_lookups: u64,
    /// Exact-table port lookups (comparison probe).
    pub exact_lookups: u64,
    /// PRE tree walks.
    pub pre_walks: u64,
    /// Replicas those walks produced.
    pub replicas: u64,
    /// Egress-table lookups.
    pub egress_lookups: u64,
    /// Stream-Tracker calls.
    pub tracker_calls: u64,
    /// Of those, calls with a suppress verdict.
    pub tracker_suppressed: u64,
}

/// Counters the switch kept while the benchmark ran bursts through it
/// (deltas over `process_batch` calls only; replays are excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FwdCounts {
    /// Ingress packets.
    pub pkts: u64,
    /// Replicas emitted.
    pub forwarded: u64,
    /// Bytes emitted.
    pub forwarded_bytes: u64,
    /// Replicas suppressed by the SVC gate.
    pub suppressed: u64,
    /// Packets punted to the CPU ring.
    pub punts: u64,
    /// Packets dropped for lacking a rule.
    pub no_rule_drops: u64,
    /// Unparseable packets dropped.
    pub unknown_drops: u64,
    /// RR+REMB blocked by the feedback filter.
    pub remb_filtered: u64,
    /// Port resolutions served by the dense registers.
    pub dense_lookups: u64,
    /// Port resolutions served by the exact table.
    pub exact_port_lookups: u64,
    /// Port resolutions served by the per-batch cache.
    pub port_cache_hits: u64,
    /// PRE walks performed.
    pub pre_walks: u64,
    /// PRE walks served by the per-batch flow cache.
    pub pre_cache_hits: u64,
    /// Egress-table lookups performed.
    pub egress_lookups: u64,
    /// Egress resolutions served by the per-batch flow cache.
    pub egress_cache_hits: u64,
    /// Stream-Tracker calls.
    pub tracker_calls: u64,
    /// Highest parse depth seen.
    pub max_parse_depth: u64,
}

/// Cumulative switch-side counters, for deltas around a batch.
#[derive(Debug, Clone, Copy, Default)]
struct SwitchSnapshot {
    c: DataPlaneCounters,
    dense: u64,
    exact_port: u64,
    pre_walks: u64,
    egress: u64,
    tracker: u64,
    port_saved: u64,
    pre_saved: u64,
    egress_saved: u64,
}

/// One configured data plane plus its pool of ingress bursts.
pub struct FwdWorld {
    dp: ScallopDataPlane,
    agent: SwitchAgent,
    out: BatchOutput,
    members: Vec<Member>,
    /// Member indices per meeting.
    meetings: Vec<Vec<usize>>,
    pool: Vec<Burst>,
    last: SwitchSnapshot,
    counts: FwdCounts,
    /// Ingress packets whose burst missed its expectation.
    failed: u64,
    // Replay state: a tracker of its own (replaying on the switch's would
    // corrupt live rewrite state) and scratch reused across bursts.
    shadow_tracker: StreamTracker,
    replay: ReplayCounts,
    parsed: Vec<ParsedPacket>,
    rules: Vec<Option<PortRule>>,
    flows: Vec<Flow>,
    pkt_flow: Vec<u32>,
    walk: Vec<Replica>,
    replicas: Vec<Replica>,
    specs: Vec<Option<EgressSpec>>,
}

/// One distinct (port, tier) flow of a burst during a replay.
#[derive(Debug, Clone, Copy)]
struct Flow {
    slot: u16,
    tier: u8,
    mgid: u16,
    /// Range of this flow's replicas in `replicas` / `specs`.
    start: u32,
    len: u32,
}

const NO_FLOW: u32 = u32::MAX;

impl FwdWorld {
    /// Build the meetings through `SwitchAgent::join`, pin decode targets
    /// and plan the bursts from `seed`. The pool's media is generated by
    /// the first [`refill`](Self::refill).
    pub fn build(kind: FwdKind, seed: u64, scale: f64) -> FwdWorld {
        let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        dp.enable_dense_ports(PORT_BASE, PORT_LIMIT);
        let mut agent = SwitchAgent::new(SFU_IP).with_port_range(PORT_BASE, PORT_LIMIT);
        let mut rng = DetRng::new(seed);

        // Frame sizes are per sender and seeded, within one packet count:
        // five MTU-sized packets (the last one partly filled) for the
        // fan-out's whole frames, one small packet for the mix.
        let (n_meetings, size, frame_bytes) = match kind {
            FwdKind::Fanout => (
                1,
                scaled(25, scale, 3),
                (4 * DEFAULT_MTU + 1, 5 * DEFAULT_MTU),
            ),
            FwdKind::Mixed => (scaled(400, scale, 2), 3, (200, 400)),
        };
        let mut members = Vec::with_capacity(n_meetings * size);
        let mut meetings = Vec::with_capacity(n_meetings);
        for m in 0..n_meetings {
            let mid = agent.create_meeting();
            let mut roster = Vec::with_capacity(size);
            for _ in 0..size {
                let i = members.len();
                let addr = client_addr(9, i);
                let grant = agent.join(&mut dp, mid, addr, true);
                let ssrc = 0x1000 + 2 * i as u32;
                roster.push(i);
                members.push(Member {
                    addr,
                    pid: grant.participant,
                    video_up: grant.video_uplink,
                    audio_up: grant.audio_uplink,
                    dt: 2,
                    meeting: m,
                    ssrc,
                    schedule: L1T3Schedule::new(),
                    packetizer: Packetizer::new(ssrc, 96, DEFAULT_MTU),
                    frame_no: 0,
                    audio_seq: 0,
                    frame_bytes: rng.range_u64(frame_bytes.0 as u64, frame_bytes.1 as u64 + 1)
                        as usize,
                });
            }
            meetings.push(roster);
        }
        match kind {
            // Every receiver dips to DT1 and recovers, as after transient
            // congestion: each (sender, receiver) stream keeps its Stream
            // Tracker slot, so every replica is sequence-rewritten while
            // all receivers sit at the full decode target.
            FwdKind::Fanout => {
                for m in &members {
                    agent.apply_dt_change(&mut dp, m.pid, 1);
                    agent.apply_dt_change(&mut dp, m.pid, 2);
                }
            }
            // One seeded receiver per meeting is pinned to the lowest
            // decode target: the meeting moves to per-tier trees (RA-R)
            // and the receiver is left out of the T1/T2 ones, so three
            // frames in four fan out to one receiver fewer and its T0
            // replicas are sequence-rewritten.
            FwdKind::Mixed => {
                for roster in &meetings {
                    let r = roster[rng.range_u64(0, roster.len() as u64) as usize];
                    agent.apply_dt_change(&mut dp, members[r].pid, 0);
                    members[r].dt = 0;
                }
            }
        }

        let mut shadow_tracker =
            StreamTracker::new(SeqRewriteMode::LowRetransmission, STREAM_TRACKER_CAPACITY);
        for (_, spec) in dp.egress.iter() {
            if let Some(idx) = spec.rewrite_index {
                shadow_tracker.init_stream(idx as usize, cadence_for_dt(spec.max_temporal));
            }
        }

        let mut world = FwdWorld {
            dp,
            agent,
            out: BatchOutput::default(),
            members,
            meetings,
            pool: Vec::new(),
            last: SwitchSnapshot::default(),
            counts: FwdCounts::default(),
            failed: 0,
            shadow_tracker,
            replay: ReplayCounts::default(),
            parsed: Vec::new(),
            rules: Vec::new(),
            flows: Vec::new(),
            pkt_flow: Vec::new(),
            walk: Vec::new(),
            replicas: Vec::new(),
            specs: Vec::new(),
        };
        world.pool = match kind {
            FwdKind::Fanout => world.plan_fanout(scaled(64, scale, 2)),
            FwdKind::Mixed => world.plan_mixed(scaled(256, scale, 2), &mut rng),
        };
        world.last = world.snapshot();
        world
    }

    /// Fan-out plan: every burst is one whole frame from every sender,
    /// sender-major, so packets of a flow arrive back to back.
    fn plan_fanout(&self, bursts: usize) -> Vec<Burst> {
        (0..bursts)
            .map(|_| {
                let mut b = BurstPlan::default();
                for (sender, m) in self.members.iter().enumerate() {
                    b.video(sender, m.video_up, m.frame_bytes.div_ceil(DEFAULT_MTU));
                }
                b.finish()
            })
            .collect()
    }

    /// Mixed plan: 128 packets per burst, each a seeded draw of sender and
    /// kind in roughly Table 1's proportions, at the smallest sizes.
    fn plan_mixed(&self, bursts: usize, rng: &mut DetRng) -> Vec<Burst> {
        (0..bursts)
            .map(|_| {
                let mut b = BurstPlan::default();
                for _ in 0..128 {
                    let s = rng.range_u64(0, self.members.len() as u64) as usize;
                    let sender = &self.members[s];
                    let roster = &self.meetings[sender.meeting];
                    // A receiver of `s`, for the feedback kinds.
                    let r = loop {
                        let r = roster[rng.range_u64(0, roster.len() as u64) as usize];
                        if r != s {
                            break &self.members[r];
                        }
                    };
                    let pair = self
                        .agent
                        .video_pair_addr(sender.pid, r.pid)
                        .expect("receivers hold a pair port per sender");
                    let receivers = (roster.len() - 1) as u64;
                    match rng.range_u64(0, 100) {
                        0..=44 => b.video(s, sender.video_up, 1),
                        45..=84 => b.audio(s, sender.audio_up),
                        85..=87 => {
                            let sr = rtcp::serialize(&RtcpPacket::Sr(SenderReport {
                                ssrc: sender.ssrc,
                                ntp_sec: 1,
                                ntp_frac: 0,
                                rtp_ts: 3_000,
                                packet_count: 1,
                                octet_count: 300,
                                reports: vec![],
                            }));
                            b.fixed(Packet::new(sender.addr, sender.video_up, sr), receivers);
                        }
                        88..=92 => {
                            let rr = rtcp::serialize_compound(&[
                                RtcpPacket::Rr(ReceiverReport {
                                    ssrc: r.ssrc,
                                    reports: vec![],
                                }),
                                RtcpPacket::Remb(Remb {
                                    sender_ssrc: r.ssrc,
                                    bitrate_bps: 2_000_000,
                                    ssrcs: vec![sender.ssrc],
                                }),
                            ]);
                            b.fixed(Packet::new(r.addr, pair, rr), 0);
                            b.rr_pkts += 1;
                        }
                        93 => {
                            let nack = rtcp::serialize(&RtcpPacket::Nack(Nack {
                                sender_ssrc: r.ssrc,
                                media_ssrc: sender.ssrc,
                                entries: vec![(1, 0)],
                            }));
                            b.fixed(Packet::new(r.addr, pair, nack), 1);
                        }
                        94..=97 => {
                            let stun = StunMessage::binding_request([s as u8; 12]).serialize();
                            b.fixed(Packet::new(sender.addr, sender.video_up, stun), 0);
                        }
                        _ => {
                            b.fixed(
                                Packet::new(sender.addr, sender.video_up, vec![0xFFu8; 24]),
                                0,
                            );
                            b.garbage += 1;
                        }
                    }
                }
                b.finish()
            })
            .collect()
    }

    /// Number of bursts in the pool.
    pub fn bursts(&self) -> usize {
        self.pool.len()
    }

    /// Ingress packets in burst `i`.
    pub fn burst_pkts(&self, i: usize) -> usize {
        self.pool[i].pkts.len()
    }

    /// Regenerate the pool's media so every stream continues in order:
    /// each sender's next frames through the real packetizer, the next
    /// audio packets, and the replica counts the roster implies for them.
    /// Runs outside every timed region.
    pub fn refill(&mut self) {
        for b in &mut self.pool {
            let mut expect = b.expect_static;
            for item in &b.items {
                match *item {
                    Item::Video { sender, at, pkts } => {
                        let m = &mut self.members[sender];
                        let label = m.schedule.next_label();
                        let frame = EncodedFrame {
                            frame_number: m.frame_no,
                            label: label.into(),
                            size_bytes: m.frame_bytes,
                            captured_at: SimTime::ZERO,
                            rtp_timestamp: u32::from(m.frame_no) * 3_000,
                        };
                        m.frame_no = m.frame_no.wrapping_add(1);
                        let rtp = m.packetizer.packetize(&frame);
                        assert_eq!(rtp.len(), pkts, "frame size is fixed");
                        let (src, dst, meeting) = (m.addr, m.video_up, m.meeting);
                        for (k, p) in rtp.iter().enumerate() {
                            b.pkts[at + k] = Packet::new(src, dst, p.serialize());
                        }
                        let tier = label.temporal.id();
                        let takers = self.meetings[meeting]
                            .iter()
                            .filter(|&&r| r != sender && self.members[r].dt >= tier)
                            .count();
                        expect += (pkts * takers) as u64;
                    }
                    Item::Audio { sender, at } => {
                        let m = &mut self.members[sender];
                        let mut rtp = RtpPacket::new(
                            111,
                            m.audio_seq,
                            u32::from(m.audio_seq) * 960,
                            m.ssrc + 1,
                        );
                        m.audio_seq = m.audio_seq.wrapping_add(1);
                        rtp.marker = true;
                        rtp.payload = vec![0u8; 100].into();
                        b.pkts[at] = Packet::new(m.addr, m.audio_up, rtp.serialize());
                        expect += (self.meetings[m.meeting].len() - 1) as u64;
                    }
                    Item::Static => {}
                }
            }
            b.expect_fixed = expect;
        }
    }

    /// The timed call: one burst through `process_batch`. Returns the
    /// number of replicas emitted.
    #[inline(never)]
    pub fn forward(&mut self, i: usize) -> usize {
        self.dp.process_batch(&self.pool[i].pkts, &mut self.out);
        self.out.forwards.len()
    }

    /// Check the last [`forward`](Self::forward) of burst `i` against the
    /// roster and fold its counter deltas into [`counts`](Self::counts).
    /// A burst that misses fails all of its packets.
    pub fn check(&mut self, i: usize) {
        let now = self.snapshot();
        let (a, b) = (&self.last, &now);
        let burst = &self.pool[i];
        let forwarded = b.c.forwarded_pkts - a.c.forwarded_pkts;
        let filtered = b.c.remb_filtered - a.c.remb_filtered;
        let no_rule = b.c.no_rule_drops - a.c.no_rule_drops;
        let unknown = b.c.unknown_drops - a.c.unknown_drops;
        let ok = forwarded == self.out.forwards.len() as u64
            && forwarded + filtered == burst.expect_fixed + burst.rr_pkts
            && filtered <= burst.rr_pkts
            && no_rule == 0
            && unknown == burst.garbage;
        let c = &mut self.counts;
        c.pkts += burst.pkts.len() as u64;
        c.forwarded += forwarded;
        c.forwarded_bytes += b.c.forwarded_bytes - a.c.forwarded_bytes;
        c.suppressed += b.c.rate_adapt_drops - a.c.rate_adapt_drops;
        c.punts += self.out.cpu_punts.len() as u64;
        c.no_rule_drops += no_rule;
        c.unknown_drops += unknown;
        c.remb_filtered += filtered;
        c.dense_lookups += b.dense - a.dense;
        c.exact_port_lookups += b.exact_port - a.exact_port;
        c.port_cache_hits += b.port_saved - a.port_saved;
        c.pre_walks += b.pre_walks - a.pre_walks;
        c.pre_cache_hits += b.pre_saved - a.pre_saved;
        c.egress_lookups += b.egress - a.egress;
        c.egress_cache_hits += b.egress_saved - a.egress_saved;
        c.tracker_calls += b.tracker - a.tracker;
        c.max_parse_depth = u64::from(self.dp.max_parse_depth);
        if !ok {
            self.failed += burst.pkts.len() as u64;
        }
        self.last = now;
    }

    fn snapshot(&self) -> SwitchSnapshot {
        SwitchSnapshot {
            c: self.dp.counters,
            dense: self.dp.dense_ports.as_ref().map_or(0, |d| d.dense_lookups),
            exact_port: self.dp.port_rules.hits + self.dp.port_rules.misses,
            pre_walks: self.dp.pre.invocations,
            egress: self.dp.egress.hits + self.dp.egress.misses,
            tracker: self.dp.tracker.packets_processed,
            port_saved: self.out.stats.port_lookups_saved,
            pre_saved: self.out.stats.pre_walks_saved,
            egress_saved: self.out.stats.egress_lookups_saved,
        }
    }

    /// Switch counters accumulated over all checked bursts.
    pub fn counts(&self) -> FwdCounts {
        self.counts
    }

    /// Ingress packets of bursts that missed their expectation.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Work the replays have done so far.
    pub fn replay_counts(&self) -> ReplayCounts {
        self.replay
    }

    /// Push burst `i`'s packets through each data-plane layer's public
    /// function alone, on the switch's own configured tables, doing the
    /// work `process_batch` does for the burst (one port resolution per
    /// distinct port, one PRE walk and one egress resolution per distinct
    /// flow, one Stream-Tracker call per rewritten replica) and nothing
    /// else. Each layer's loop is one span under `parent`; the exact-table
    /// port lookup, which the batch path does not use inside the dense
    /// span, is recorded as a parentless probe.
    pub fn replay(&mut self, i: usize, tracer: &mut Tracer, parent: SpanId, op: u64) {
        let burst = &self.pool[i];
        let pkts = &burst.pkts;
        let parent = Some(parent);

        let t = Instant::now();
        self.parsed.clear();
        self.parsed
            .extend(pkts.iter().map(|p| parser::parse(&p.payload)));
        tracer.record("dataplane.parser.parse", parent, op, t, Instant::now());
        self.replay.parsed += pkts.len() as u64;

        let dense = self.dp.dense_ports.as_mut().expect("dense ports enabled");
        let t = Instant::now();
        self.rules.clear();
        self.rules
            .extend(burst.ports.iter().map(|&p| dense.lookup(p)));
        tracer.record("dataplane.soa.port_lookup", parent, op, t, Instant::now());
        self.replay.dense_lookups += burst.ports.len() as u64;

        let t = Instant::now();
        for port in &burst.ports {
            black_box(self.dp.port_rules.lookup(port));
        }
        tracer.record("dataplane.tables.port_lookup", None, op, t, Instant::now());
        self.replay.exact_lookups += burst.ports.len() as u64;

        // Group media and SR packets into distinct (port, tier) flows, the
        // way the per-batch flow cache does.
        self.flows.clear();
        self.pkt_flow.clear();
        for (p, &slot) in self.parsed.iter().zip(&burst.port_slot) {
            let media = match p.class {
                PacketClass::Rtp => true,
                PacketClass::Rtcp => p.rtcp_pt.is_some_and(parser::rtcp_is_sender_report),
                _ => false,
            };
            let action = match self.rules[slot as usize] {
                Some(PortRule::SenderUplink { action, .. }) if media => action,
                _ => {
                    self.pkt_flow.push(NO_FLOW);
                    continue;
                }
            };
            let tier = p
                .rtp
                .and_then(|r| r.dd)
                .map_or(0, |d| TEMPLATE_TEMPORAL[usize::from(d.template_id).min(4)]);
            let at = self
                .flows
                .iter()
                .position(|f| f.slot == slot && f.tier == tier)
                .unwrap_or_else(|| {
                    let mgid = match action {
                        ReplicationAction::Multicast { mgid_by_tier, .. } => {
                            mgid_by_tier[usize::from(tier)]
                        }
                        ReplicationAction::TwoParty { .. } => 0,
                    };
                    self.flows.push(Flow {
                        slot,
                        tier,
                        mgid,
                        start: 0,
                        len: 0,
                    });
                    self.flows.len() - 1
                });
            self.pkt_flow.push(at as u32);
        }

        let t = Instant::now();
        self.replicas.clear();
        for f in &mut self.flows {
            f.start = self.replicas.len() as u32;
            if let Some(PortRule::SenderUplink {
                action:
                    ReplicationAction::Multicast {
                        l1_xid,
                        rid,
                        l2_xid,
                        ..
                    },
                ..
            }) = self.rules[f.slot as usize]
            {
                if self
                    .dp
                    .pre
                    .replicate_into(f.mgid, l1_xid, rid, l2_xid, &mut self.walk)
                    .is_ok()
                {
                    self.replicas.extend_from_slice(&self.walk);
                }
            }
            f.len = self.replicas.len() as u32 - f.start;
        }
        tracer.record("dataplane.pre.replicate", parent, op, t, Instant::now());
        self.replay.pre_walks += self.flows.len() as u64;
        self.replay.replicas += self.replicas.len() as u64;

        let t = Instant::now();
        self.specs.clear();
        for f in &self.flows {
            let in_port = burst.ports[f.slot as usize];
            let range = f.start as usize..(f.start + f.len) as usize;
            for rep in &self.replicas[range] {
                let key = EgressKey {
                    mgid: f.mgid,
                    rid: rep.rid,
                    in_port,
                };
                self.specs.push(self.dp.egress.lookup(&key).copied());
            }
        }
        tracer.record(
            "dataplane.tables.egress_lookup",
            parent,
            op,
            t,
            Instant::now(),
        );
        self.replay.egress_lookups += self.specs.len() as u64;

        let (mut calls, mut suppressed) = (0u64, 0u64);
        let t = Instant::now();
        for (p, &at) in self.parsed.iter().zip(&self.pkt_flow) {
            let Some((rtp, dd)) = p.rtp.and_then(|r| r.dd.map(|d| (r, d))) else {
                continue;
            };
            if at == NO_FLOW {
                continue;
            }
            let f = self.flows[at as usize];
            for spec in self.specs[f.start as usize..(f.start + f.len) as usize]
                .iter()
                .flatten()
            {
                let Some(idx) = spec.rewrite_index else {
                    continue;
                };
                let suppress = f.tier > spec.max_temporal;
                let verdict = if suppress {
                    PacketVerdict::Suppress
                } else {
                    PacketVerdict::Forward
                };
                black_box(self.shadow_tracker.process(
                    idx as usize,
                    rtp.seq,
                    dd.frame_number,
                    dd.start_of_frame,
                    dd.end_of_frame,
                    verdict,
                ));
                calls += 1;
                suppressed += u64::from(suppress);
            }
        }
        tracer.record(
            "dataplane.seqrewrite.process",
            parent,
            op,
            t,
            Instant::now(),
        );
        self.replay.tracker_calls += calls;
        self.replay.tracker_suppressed += suppressed;
        // The replays bumped the tables' own lookup counters; they must
        // not leak into the next burst's deltas.
        self.last = self.snapshot();
    }

    /// Everything the system produced that must repeat exactly for a seed.
    pub fn fingerprint(&self) -> Vec<(&'static str, u64)> {
        let c = &self.counts;
        vec![
            ("pkts", c.pkts),
            ("forwarded", c.forwarded),
            ("forwarded_bytes", c.forwarded_bytes),
            ("suppressed", c.suppressed),
            ("punts", c.punts),
            ("remb_filtered", c.remb_filtered),
            ("unknown_drops", c.unknown_drops),
            ("no_rule_drops", c.no_rule_drops),
        ]
    }
}

/// A burst under construction.
#[derive(Default)]
struct BurstPlan {
    pkts: Vec<Packet>,
    items: Vec<Item>,
    static_expect: u64,
    rr_pkts: u64,
    garbage: u64,
}

impl BurstPlan {
    /// A packet slot for media, filled by [`FwdWorld::refill`]; only its
    /// destination (which names the flow) is known at plan time.
    fn placeholder(dst: HostAddr) -> Packet {
        Packet::new(HostAddr::new(Ipv4Addr::UNSPECIFIED, 0), dst, Vec::new())
    }

    fn video(&mut self, sender: usize, dst: HostAddr, pkts: usize) {
        self.items.push(Item::Video {
            sender,
            at: self.pkts.len(),
            pkts,
        });
        self.pkts.extend((0..pkts).map(|_| Self::placeholder(dst)));
    }

    fn audio(&mut self, sender: usize, dst: HostAddr) {
        self.items.push(Item::Audio {
            sender,
            at: self.pkts.len(),
        });
        self.pkts.push(Self::placeholder(dst));
    }

    /// A packet that never changes, and the replicas it must produce.
    fn fixed(&mut self, pkt: Packet, expect: u64) {
        self.items.push(Item::Static);
        self.pkts.push(pkt);
        self.static_expect += expect;
    }

    fn finish(self) -> Burst {
        let mut ports: Vec<u16> = Vec::new();
        let port_slot = self
            .pkts
            .iter()
            .map(|p| {
                let port = p.dst.port;
                let slot = ports.iter().position(|&q| q == port).unwrap_or_else(|| {
                    ports.push(port);
                    ports.len() - 1
                });
                slot as u16
            })
            .collect();
        Burst {
            pkts: self.pkts,
            items: self.items,
            ports,
            port_slot,
            expect_static: self.static_expect,
            expect_fixed: self.static_expect,
            rr_pkts: self.rr_pkts,
            garbage: self.garbage,
        }
    }
}

// ---------------------------------------------------------------------
// Control world: ctl_flashcrowd
// ---------------------------------------------------------------------

/// Edge switches of the control world's campus.
const CTL_EDGES: usize = 4;

/// Which of a cycle's two meetings a call is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crowd {
    /// The flash crowd: 3 senders then 61 receivers, admitted one by one.
    Storm,
    /// The webinar: a presenter and 48 viewers, admitted as one burst.
    Webinar,
}

/// What the control plane did over all cycles so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtlCounts {
    /// Completed cycles.
    pub cycles: u64,
    /// Single admission-checked joins.
    pub joins: u64,
    /// Members admitted through bursts.
    pub burst_joins: u64,
    /// Leaves.
    pub leaves: u64,
    /// Control calls that were not `Admitted`, plus members of cycles
    /// that ended with state left on an edge or an unreconciled ledger.
    pub failed: u64,
    /// Flow-mod installs while joining (all edges).
    pub installs: u64,
    /// Flow-mod removals while leaving (all edges).
    pub removals: u64,
    /// PRE trees allocated while joining (all edges).
    pub tree_allocs: u64,
    /// Media packets any edge saw (must stay 0).
    pub media_pkts: u64,
}

/// A bare agent and data plane the traced pass replays joins and leaves
/// on, to separate the agent's compile cost from the controller's. It
/// plays edge 0: it sees the members that attach there (a quarter of
/// each crowd) and nothing of the other edges. Its meetings hold one
/// trunk-egress branch, like every segment of a fabric meeting: that
/// gives them exclusive trees, which the delta compiler grafts onto (a
/// purely local meeting waiting for a partner to share its tree is
/// rebuilt on every join instead).
struct Shadow {
    dp: ScallopDataPlane,
    agent: SwitchAgent,
    /// Per crowd: the meeting and its trunk-egress branch.
    meeting: [(u32, ParticipantId); 2],
    /// Parallel to `CtlWorld::members`: the member's entry on the shadow,
    /// if it attached to edge 0.
    pids: Vec<Option<(u32, ParticipantId)>>,
}

/// The edge the shadow agent plays.
const SHADOW_EDGE: usize = 0;

/// A 4-edge campus fabric's control plane with the capacity ledger armed.
pub struct CtlWorld {
    sim: Simulator,
    fabric: Fabric,
    plane: ShardedControlPlane,
    shapes: [Vec<CrowdJoin>; 2],
    gmid: [u32; 2],
    /// `(meeting, global id)` of the cycle's members, in leave order.
    members: Vec<(u32, u32)>,
    rng: DetRng,
    counts: CtlCounts,
    fabric_build_ns: u64,
    before: DataPlaneCounters,
    shadow: Option<Shadow>,
}

impl CtlWorld {
    /// Build the fabric and the sharded plane; `shadow` adds the bare
    /// agent the traced pass replays on. Sizes shrink with `scale`.
    pub fn build(seed: u64, scale: f64, shadow: bool) -> CtlWorld {
        let mut sim = Simulator::new(seed);
        sim.set_workers(1);
        let t = Instant::now();
        let fabric = Fabric::build(
            &mut sim,
            Topology::campus(CTL_EDGES, 1),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let fabric_build_ns = t.elapsed().as_nanos() as u64;
        let mut plane = ShardedControlPlane::new(CTL_EDGES);
        // Generous budgets, enforced: every admission prices its load and
        // debits the ledger, and none is thinned or refused.
        plane.set_capacity_budgets(FabricBudgets::from_model(), &fabric.topology);
        let shadow = shadow.then(|| {
            let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
            dp.enable_dense_ports(PORT_BASE, u16::MAX);
            Shadow {
                dp,
                agent: SwitchAgent::new(SFU_IP).with_port_range(PORT_BASE, u16::MAX),
                meeting: [(0, 0); 2],
                pids: Vec::new(),
            }
        });
        CtlWorld {
            sim,
            fabric,
            plane,
            shapes: [
                flash_crowd(CTL_EDGES, 3, scaled(61, scale, 3)),
                webinar(CTL_EDGES, scaled(48, scale, 3)),
            ],
            gmid: [0; 2],
            members: Vec::new(),
            rng: DetRng::new(seed),
            counts: CtlCounts::default(),
            fabric_build_ns,
            before: DataPlaneCounters::default(),
            shadow,
        }
    }

    /// Wall ns `Fabric::build` took.
    pub fn fabric_build_ns(&self) -> u64 {
        self.fabric_build_ns
    }

    /// Joins in a crowd's shape.
    pub fn crowd_size(&self, crowd: Crowd) -> usize {
        self.shapes[crowd as usize].len()
    }

    /// Members currently joined.
    pub fn members(&self) -> usize {
        self.members.len()
    }

    fn addr_of(crowd: Crowd, k: usize) -> HostAddr {
        client_addr(7 + crowd as u8, k)
    }

    /// Timed call: create the crowd's meeting, homed on its first edge.
    pub fn create_meeting(&mut self, crowd: Crowd) {
        let home = self.shapes[crowd as usize][0].edge;
        self.gmid[crowd as usize] =
            self.plane
                .create_fabric_meeting(&mut self.sim, &self.fabric, home);
    }

    /// Timed call: admission-checked join of the storm's `k`-th member.
    pub fn join(&mut self, k: usize) {
        let j = self.shapes[Crowd::Storm as usize][k];
        let gmid = self.gmid[Crowd::Storm as usize];
        let (decision, grant) = self.plane.try_join_fabric(
            &mut self.sim,
            &self.fabric,
            gmid,
            j.edge,
            Self::addr_of(Crowd::Storm, k),
            j.sends,
        );
        self.counts.joins += 1;
        match (decision, grant) {
            (AdmissionDecision::Admitted, Some(g)) => self.members.push((gmid, g.global)),
            (_, Some(g)) => {
                self.members.push((gmid, g.global));
                self.counts.failed += 1;
            }
            (_, None) => self.counts.failed += 1,
        }
    }

    /// Timed call: re-evaluate the storm meeting's home edge.
    pub fn rebalance(&mut self) {
        let gmid = self.gmid[Crowd::Storm as usize];
        black_box(
            self.plane
                .rebalance_fabric(&mut self.sim, &self.fabric, gmid),
        );
    }

    /// Timed call: admit the whole webinar as one `join_fabric_many`.
    pub fn burst_join(&mut self) {
        let gmid = self.gmid[Crowd::Webinar as usize];
        let joins: Vec<(usize, HostAddr, bool)> = self.shapes[Crowd::Webinar as usize]
            .iter()
            .enumerate()
            .map(|(k, j)| (j.edge, Self::addr_of(Crowd::Webinar, k), j.sends))
            .collect();
        let grants = self
            .plane
            .join_fabric_many(&mut self.sim, &self.fabric, gmid, &joins);
        self.counts.burst_joins += grants.len() as u64;
        self.counts.failed += (joins.len() - grants.len()) as u64;
        self.members.extend(grants.iter().map(|g| (gmid, g.global)));
    }

    /// Untimed: note the edges' flow-mod counters before a phase.
    pub fn begin_phase(&mut self) {
        self.before = self.fabric.total_counters(&mut self.sim);
    }

    /// Untimed: fold the phase's flow-mod bill into the counts.
    pub fn end_phase(&mut self, joining: bool) {
        let now = self.fabric.total_counters(&mut self.sim);
        if joining {
            self.counts.installs += now.rule_installs - self.before.rule_installs;
            self.counts.tree_allocs += now.tree_allocs - self.before.tree_allocs;
        } else {
            self.counts.removals += now.rule_removals - self.before.rule_removals;
        }
    }

    /// Untimed: put the members in a seeded random leave order.
    pub fn shuffle_leaves(&mut self) {
        for i in (1..self.members.len()).rev() {
            let j = self.rng.range_u64(0, i as u64 + 1) as usize;
            self.members.swap(i, j);
            if let Some(s) = &mut self.shadow {
                s.pids.swap(i, j);
            }
        }
    }

    /// Timed call: the last member in leave order leaves.
    pub fn leave(&mut self) {
        let (gmid, global) = self.members.pop().expect("a member to leave");
        self.plane
            .leave_fabric(&mut self.sim, &self.fabric, gmid, global);
        self.counts.leaves += 1;
    }

    /// Untimed: the cycle is over. Every edge must be back to empty
    /// occupancy and the ledger reconciled, and no media may have flowed;
    /// otherwise all of the cycle's membership changes count as failed.
    pub fn end_cycle(&mut self, changes: u64) -> bool {
        let mut drained = self.plane.ledger_handle().borrow().reconciled();
        for e in 0..self.fabric.edges() {
            let sw = self.fabric.edge_mut(&mut self.sim, e);
            drained &= sw.agent.ports_in_use() == 0
                && sw.agent.participants_tracked() == 0
                && sw.agent.meetings_tracked() == 0
                && sw.dp.pre.groups_used() == 0
                && sw.dp.port_rules.is_empty()
                && sw.dp.egress.is_empty();
        }
        let total = self.fabric.total_counters(&mut self.sim);
        self.counts.media_pkts = total.rtp_in_pkts + total.rtcp_sr_pkts + total.rtcp_fb_pkts;
        drained &= self.counts.media_pkts == 0;
        if !drained {
            self.counts.failed += changes;
        }
        self.counts.cycles += 1;
        if let Some(s) = &mut self.shadow {
            for (m, trunk) in s.meeting {
                s.agent.leave(&mut s.dp, m, trunk);
                s.agent.destroy_meeting(&mut s.dp, m);
            }
        }
        drained
    }

    /// What the plane did so far.
    pub fn counts(&self) -> CtlCounts {
        self.counts
    }

    /// Admission outcomes and routing telemetry:
    /// `(admitted_full, admitted_thin, refused, forwards, handoffs)`.
    pub fn admission(&self) -> (u64, u64, u64, u64, u64) {
        let c = self.plane.ledger_handle().borrow().counts();
        (
            c.admitted_full,
            c.admitted_thin,
            c.refused,
            self.plane.forward_total(),
            self.plane.handoff_total(),
        )
    }

    /// Everything that must repeat exactly for a seed.
    pub fn fingerprint(&mut self) -> Vec<(&'static str, u64)> {
        let c = self.counts;
        let (full, thin, refused, forwards, handoffs) = self.admission();
        let ledger = self.plane.ledger_handle();
        let (debits, credits) = (ledger.borrow().debits, ledger.borrow().credits);
        vec![
            ("cycles", c.cycles),
            ("joins", c.joins),
            ("burst_joins", c.burst_joins),
            ("leaves", c.leaves),
            ("installs", c.installs),
            ("removals", c.removals),
            ("tree_allocs", c.tree_allocs),
            ("admitted_full", full),
            ("admitted_thin", thin),
            ("refused", refused),
            ("forwards", forwards),
            ("handoffs", handoffs),
            ("ledger_debits", debits),
            ("ledger_credits", credits),
            ("signaling_exchanges", self.plane.signaling_exchanges()),
        ]
    }

    // -- replays on the shadow agent (traced pass only) ----------------

    fn shadow(&mut self) -> &mut Shadow {
        self.shadow
            .as_mut()
            .expect("traced world has a shadow agent")
    }

    /// Replay: the shadow creates the crowd's meeting (untimed).
    pub fn shadow_create(&mut self, crowd: Crowd) {
        let s = self.shadow();
        let m = s.agent.create_meeting();
        s.meeting[crowd as usize] = (m, s.agent.join_trunk_egress(&mut s.dp, m));
    }

    /// Replay span `core.agent.join`: the storm's `k`-th join on the
    /// shadow agent alone, if that member attaches to the shadow's edge.
    pub fn shadow_join(&mut self, k: usize, tracer: &mut Tracer, parent: SpanId, op: u64) {
        let j = self.shapes[Crowd::Storm as usize][k];
        let s = self.shadow();
        if j.edge != SHADOW_EDGE {
            s.pids.push(None);
            return;
        }
        let (m, _) = s.meeting[Crowd::Storm as usize];
        let t = Instant::now();
        let grant = s
            .agent
            .join(&mut s.dp, m, Self::addr_of(Crowd::Storm, k), j.sends);
        tracer.record("core.agent.join", Some(parent), op, t, Instant::now());
        s.pids.push(Some((m, grant.participant)));
    }

    /// Replay span `core.agent.join_many`: the shadow edge's share of the
    /// webinar burst on the shadow agent alone.
    pub fn shadow_burst(&mut self, tracer: &mut Tracer, parent: SpanId, op: u64) {
        let shape = &self.shapes[Crowd::Webinar as usize];
        let local: Vec<bool> = shape.iter().map(|j| j.edge == SHADOW_EDGE).collect();
        let joins: Vec<(HostAddr, bool)> = shape
            .iter()
            .enumerate()
            .filter(|(_, j)| j.edge == SHADOW_EDGE)
            .map(|(k, j)| (Self::addr_of(Crowd::Webinar, k), j.sends))
            .collect();
        let s = self.shadow();
        let (m, _) = s.meeting[Crowd::Webinar as usize];
        let t = Instant::now();
        let grants = s.agent.join_many(&mut s.dp, m, &joins);
        tracer.record("core.agent.join_many", Some(parent), op, t, Instant::now());
        let mut grants = grants.iter();
        s.pids.extend(local.iter().map(|&here| {
            here.then(|| {
                (
                    m,
                    grants.next().expect("a grant per local join").participant,
                )
            })
        }));
    }

    /// Replay span `core.agent.leave`: the member the plane just removed
    /// leaves the shadow too, if it was attached there.
    pub fn shadow_leave(&mut self, tracer: &mut Tracer, parent: SpanId, op: u64) {
        let s = self.shadow();
        let Some((m, pid)) = s.pids.pop().expect("parallel to the members") else {
            return;
        };
        let t = Instant::now();
        s.agent.leave(&mut s.dp, m, pid);
        tracer.record("core.agent.leave", Some(parent), op, t, Instant::now());
    }

    /// Shadow agent telemetry: `(graft_joins, prune_leaves)`.
    pub fn shadow_compile_counts(&self) -> (u64, u64) {
        self.shadow.as_ref().map_or((0, 0), |s| {
            (s.agent.counters.graft_joins, s.agent.counters.prune_leaves)
        })
    }

    /// Probe span `core.capacity.fits`: price a sender's join (ports at
    /// its edge, a trunk branch to every other edge) against the live
    /// ledger `calls` times.
    pub fn probe_fits(&mut self, calls: u64, tracer: &mut Tracer) {
        let ledger = self.plane.ledger_handle();
        let ledger = ledger.borrow();
        let mut delta = LoadDelta::default();
        delta.add_ports(0, 2);
        for to in 1..CTL_EDGES {
            delta.add_ports(to, 2);
            delta.add_route(&BranchRoute::Trunk { from: 0, to }, ledger.stream_bps());
        }
        let t = Instant::now();
        for _ in 0..calls {
            black_box(ledger.fits(black_box(&delta)).is_ok());
        }
        tracer.record("core.capacity.fits", None, 0, t, Instant::now());
    }

    /// Probe span `core.shard.route`: which shard a join enters at and
    /// which shard owns its meeting, `calls` times.
    pub fn probe_route(&mut self, calls: u64, tracer: &mut Tracer) {
        let gmid = self.gmid[Crowd::Storm as usize];
        let t = Instant::now();
        for k in 0..calls {
            let edge = black_box(k as usize % CTL_EDGES);
            black_box(self.plane.ingress_shard(edge));
            black_box(self.plane.owner_of(black_box(gmid)));
        }
        tracer.record("core.shard.route", None, 0, t, Instant::now());
    }
}

/// Probe span `dataplane.switch.install`: `calls` flow-mod installs (half
/// port rules with their dense mirror, half egress specs) into a fresh
/// data plane.
pub fn probe_installs(calls: u64, tracer: &mut Tracer) {
    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    dp.enable_dense_ports(PORT_BASE, u16::MAX);
    let spec = EgressSpec::passthrough(HostAddr::new(SFU_IP, 1), client_addr(9, 0));
    let rule = PortRule::SenderUplink {
        action: ReplicationAction::Multicast {
            mgid_by_tier: [1, 2, 3],
            l1_xid: 0,
            rid: 1,
            l2_xid: 1,
        },
        punt_extended_dd: true,
    };
    let t = Instant::now();
    for k in 0..calls / 2 {
        let port = PORT_BASE + (k % 40_000) as u16;
        dp.install_port_rule(port, black_box(rule))
            .expect("capacity");
        let key = EgressKey {
            mgid: (k % 1_000) as u16,
            rid: (k / 1_000 % 200) as u16,
            in_port: port,
        };
        dp.install_egress(key, black_box(spec)).expect("capacity");
    }
    tracer.record("dataplane.switch.install", None, 0, t, Instant::now());
}

// ---------------------------------------------------------------------
// Simulation world: sim_federation
// ---------------------------------------------------------------------

const ZONES: usize = 3;
const EDGES_PER_ZONE: usize = 2;

/// `(size, meetings, senders)` of each size class of the federated slice.
/// Fixed, so every seed simulates the same participants and streams
/// (178 and 280) and the wall-clock metrics compare across seeds; which
/// meetings fill the classes and where their members sit (buildings,
/// edges, zones, and so which trunks and WAN links they load) comes from
/// the generator.
const SIZE_CLASSES: [(u32, usize, u32); 6] = [
    (3, 14, 1),
    (4, 10, 2),
    (5, 7, 2),
    (6, 4, 2),
    (7, 3, 3),
    (8, 2, 3),
];
/// Every second meeting has constrained downlinks: every second member
/// after the first, a quarter of all participants. The rate leaves room
/// for the lowest decode target of each stream received, not for more.
const CONSTRAINED_BPS_PER_STREAM: u64 = 1_000_000;
const CONSTRAINED_BPS_MIN: u64 = 1_500_000;
/// Loss on the client links of zone 0.
const ZONE0_LOSS: f64 = 0.01;
/// Simulated seconds run inside `build` before anything is measured.
const SETTLE_SECS: u64 = 5;

struct Client {
    id: NodeId,
    /// Index of the client's meeting in [`SimWorld::impaired`].
    meeting: usize,
}

/// Packets, frames and freezes of one received video stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StreamMark {
    packets: u64,
    frames: u64,
    freezes: u64,
}

/// What the simulation has done since it was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Simulated nanoseconds elapsed.
    pub sim_ns: u64,
    /// Events processed.
    pub events: u64,
    /// Packets delivered to nodes.
    pub delivered: u64,
    /// Packets dropped on links.
    pub dropped: u64,
    /// Frames decoded by all clients.
    pub frames_decoded: u64,
    /// Packets the core and WAN relays carried.
    pub relayed_pkts: u64,
    /// Bytes the WAN relays carried.
    pub wan_relayed_bytes: u64,
    /// Packets a relay could not route.
    pub relay_unroutable: u64,
    /// Packets that entered an edge switch.
    pub switch_in_pkts: u64,
    /// Packets punted to an edge's agent.
    pub cpu_pkts: u64,
    /// Decode-target changes the agents applied.
    pub dt_changes: u64,
    /// Media packets clients sent (video, audio, retransmissions).
    pub client_tx_pkts: u64,
    /// Media packets clients received.
    pub client_rx_pkts: u64,
    /// Video frames clients encoded.
    pub frames_encoded: u64,
    /// RTCP packets that entered an edge switch.
    pub rtcp_pkts: u64,
}

/// Quality the receivers saw over the measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimQuality {
    /// Received video streams.
    pub streams: u64,
    /// Streams that fail: under 25 fps in an unimpaired meeting, no
    /// packet delivered in an impaired one, or all of them if a relay
    /// could not route a packet.
    pub failed: u64,
    /// Streams of unimpaired meetings.
    pub strict_streams: u64,
    /// 10th-percentile decoded fps over streams of unimpaired meetings.
    pub rx_fps_p10: f64,
    /// Streams with at least one decoder freeze ÷ streams.
    pub freeze_share: f64,
    /// Streams decoding under 1 fps over the window ÷ streams.
    pub stalled_share: f64,
    /// Median over clients of their median STUN RTT, ms.
    pub rtt_ms_p50: f64,
}

/// A 3-zone federation with live clients.
pub struct SimWorld {
    sim: Simulator,
    fabric: Fabric,
    clients: Vec<Client>,
    /// Per meeting: some member sits behind a constrained downlink or a
    /// lossy link. One slow or lossy receiver thins the whole meeting
    /// (the federation min-filters REMB across edges before the sender,
    /// and a decode target lowered under loss does not come back up), and
    /// a decoder that loses a reference under loss can stay frozen (key
    /// frame recovery is a parked ROADMAP item). Streams of such meetings
    /// are held to what the fabric owes them: packets keep arriving.
    impaired: Vec<bool>,
    senders: u64,
    marks: Vec<StreamMark>,
    marked_at: SimTime,
    generate_ns: u64,
    fabric_build_ns: u64,
}

impl SimWorld {
    /// Generate the population from `seed`, build the federation, join
    /// everyone through the sharded plane, attach the clients and let
    /// the system settle for [`SETTLE_SECS`] simulated seconds.
    pub fn build(seed: u64, scale: f64, workers: usize) -> SimWorld {
        let params = CampusParams::continental(ZONES as u32);
        let t = Instant::now();
        let population = CampusModel::new(params, seed).generate();
        let generate_ns = t.elapsed().as_nanos() as u64;
        let (series, _) = CampusModel::concurrency_series(&population, SimDuration::from_secs(600));
        let peak = series
            .points()
            .iter()
            .fold(
                (0.0f64, 0.0f64),
                |acc, &(t, v)| if v > acc.1 { (t, v) } else { acc },
            )
            .0;
        let peak = SimTime::from_secs(peak as u64);
        // Fill each size class with the first meetings of that size that
        // are live in the peak bin, falling back to the whole period.
        let mut slice: Vec<(&MeetingRecord, u32)> = Vec::new();
        for (size, want, senders) in SIZE_CLASSES {
            let want = scaled(want, scale, 1);
            let live = population
                .iter()
                .filter(|m| m.size == size && m.start <= peak && peak < m.end());
            let rest = population
                .iter()
                .filter(|m| m.size == size && !(m.start <= peak && peak < m.end()));
            slice.extend(live.chain(rest).take(want).map(|m| (m, senders)));
        }

        let mut sim = Simulator::new(seed);
        sim.set_workers(workers);
        let t = Instant::now();
        let fabric = Fabric::build(
            &mut sim,
            Topology::federation(ZONES, EDGES_PER_ZONE, 1),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let fabric_build_ns = t.elapsed().as_nanos() as u64;
        let mut plane = ShardedControlPlane::new(ZONES).with_zone_affinity(ZONES, EDGES_PER_ZONE);
        let clean = LinkConfig::infinite(SimDuration::from_millis(10))
            .with_rate(50_000_000)
            .with_queue_bytes(128 * 1024);
        let lossy = clean.with_faults(FaultConfig::clean().with_loss(ZONE0_LOSS));

        let mut clients = Vec::new();
        // Meetings with a constrained downlink start out impaired; so
        // does any meeting a lossy link turns out to carry.
        let mut impaired: Vec<bool> = (0..slice.len()).map(|mi| mi % 2 == 1).collect();
        let mut senders = 0;
        for (mi, &(rec, n_senders)) in slice.iter().enumerate() {
            let home = rec.edge_switch_federated(ZONES as u32, EDGES_PER_ZONE);
            let gmid = plane.create_fabric_meeting(&mut sim, &fabric, home);
            for i in 0..rec.size {
                let edge = rec.participant_edge_federated(
                    i,
                    params.buildings,
                    ZONES as u32,
                    EDGES_PER_ZONE,
                );
                let ip = Ipv4Addr::new(10, 3, mi as u8, i as u8 + 1);
                let sends = i < n_senders;
                let grant = plane.join_fabric(
                    &mut sim,
                    &fabric,
                    gmid,
                    edge,
                    HostAddr::new(ip, 5000),
                    sends,
                );
                let ssrc = 0x20_0000 * (mi as u32 + 1) + i;
                let cfg = if sends {
                    senders += 1;
                    ClientConfig::sender(ip, 5000, ssrc)
                        .sending_to(grant.local.video_uplink, grant.local.audio_uplink)
                } else {
                    ClientConfig::receiver_only(ip, 5000, ssrc)
                };
                let lossy_zone = fabric.topology.zone_of_edge(edge) == 0;
                let link = if lossy_zone { lossy } else { clean };
                let id = sim.add_node(Box::new(ClientNode::new(cfg)), &[ip], link, link);
                if mi % 2 == 1 && i % 2 == 1 {
                    let streams = u64::from(n_senders - u32::from(sends));
                    let bps = (streams * CONSTRAINED_BPS_PER_STREAM).max(CONSTRAINED_BPS_MIN);
                    sim.downlink_mut(id).set_rate_bps(bps);
                }
                impaired[mi] |= lossy_zone;
                clients.push(Client { id, meeting: mi });
            }
        }
        sim.run_for(SimDuration::from_secs(SETTLE_SECS));

        let mut world = SimWorld {
            sim,
            fabric,
            clients,
            impaired,
            senders,
            marks: Vec::new(),
            marked_at: SimTime::ZERO,
            generate_ns,
            fabric_build_ns,
        };
        world.marks = world.stream_marks().into_iter().map(|(_, m)| m).collect();
        world.marked_at = world.sim.now();
        world
    }

    /// Wall ns the population generator took.
    pub fn generate_ns(&self) -> u64 {
        self.generate_ns
    }

    /// Wall ns `Fabric::build` took.
    pub fn fabric_build_ns(&self) -> u64 {
        self.fabric_build_ns
    }

    /// The timed call: advance the simulation by `ms` simulated ms.
    #[inline(never)]
    pub fn advance(&mut self, ms: u64) {
        self.sim.run_for(SimDuration::from_millis(ms));
    }

    /// Events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.sim.pending_events()
    }

    /// `(impaired, frames, freezes)` of every received video stream, in
    /// client then source-address order.
    fn stream_marks(&mut self) -> Vec<(bool, StreamMark)> {
        let mut out = Vec::new();
        for c in &self.clients {
            let node: &mut ClientNode = self.sim.node_mut(c.id).expect("client node");
            for (src, rx) in node.stats().streams {
                if node.receiver_decoder_stats(src).is_some() {
                    out.push((
                        self.impaired[c.meeting],
                        StreamMark {
                            packets: rx.packets,
                            frames: rx.frames_decoded,
                            freezes: rx.freezes,
                        },
                    ));
                }
            }
        }
        out
    }

    /// Receiver-side quality since the world settled.
    pub fn quality(&mut self) -> SimQuality {
        let secs = self
            .sim
            .now()
            .saturating_since(self.marked_at)
            .as_secs_f64();
        let now = self.stream_marks();
        let mut fps_free = Vec::new();
        let (mut failed, mut froze, mut stalled) = (0u64, 0u64, 0u64);
        for (i, (impaired, m)) in now.iter().enumerate() {
            let base = self.marks.get(i).copied().unwrap_or_default();
            let fps = (m.frames - base.frames) as f64 / secs.max(f64::MIN_POSITIVE);
            froze += u64::from(m.freezes > base.freezes);
            stalled += u64::from(fps < 1.0);
            if *impaired {
                failed += u64::from(m.packets == base.packets);
            } else {
                failed += u64::from(fps < 25.0);
                fps_free.push(fps);
            }
        }
        fps_free.sort_by(f64::total_cmp);
        let mut rtts: Vec<f64> = Vec::new();
        for c in &self.clients {
            let node: &mut ClientNode = self.sim.node_mut(c.id).expect("client node");
            rtts.extend(node.rtt_samples.median());
        }
        rtts.sort_by(f64::total_cmp);
        let relay_unroutable = self.counts().relay_unroutable;
        SimQuality {
            streams: now.len() as u64,
            strict_streams: fps_free.len() as u64,
            failed: if relay_unroutable > 0 {
                now.len() as u64
            } else {
                failed
            },
            rx_fps_p10: fps_free.get(fps_free.len() / 10).copied().unwrap_or(0.0),
            freeze_share: froze as f64 / (now.len() as f64).max(1.0),
            stalled_share: stalled as f64 / (now.len() as f64).max(1.0),
            rtt_ms_p50: rtts.get(rtts.len() / 2).copied().unwrap_or(0.0),
        }
    }

    /// Cumulative counters of the simulator, switches, relays and clients.
    pub fn counts(&mut self) -> SimCounts {
        let mut c = SimCounts {
            sim_ns: self.sim.now().as_nanos(),
            events: self.sim.stats.events,
            delivered: self.sim.stats.packets_delivered,
            dropped: self.sim.stats.packets_dropped,
            ..SimCounts::default()
        };
        for j in 0..self.fabric.core_ids.len() {
            let s = self.fabric.core_stats(&mut self.sim, j);
            c.relayed_pkts += s.relayed_pkts;
            c.relay_unroutable += s.unroutable_pkts;
        }
        for l in 0..self.fabric.wan_ids.len() {
            let s = self.fabric.wan_stats(&mut self.sim, l);
            c.relayed_pkts += s.relayed_pkts;
            c.wan_relayed_bytes += s.relayed_bytes;
            c.relay_unroutable += s.unroutable_pkts;
        }
        for e in 0..self.fabric.edges() {
            let sw = self.fabric.edge_mut(&mut self.sim, e);
            let d = sw.dp.counters;
            c.rtcp_pkts += d.rtcp_sr_pkts + d.rtcp_fb_pkts;
            c.switch_in_pkts += d.rtp_in_pkts + d.rtcp_sr_pkts + d.rtcp_fb_pkts + d.stun_pkts;
            c.cpu_pkts += d.cpu_pkts;
            c.dt_changes += sw.agent.counters.dt_changes;
        }
        for cl in &self.clients {
            let node: &mut ClientNode = self.sim.node_mut(cl.id).expect("client node");
            let s = node.stats();
            c.client_tx_pkts +=
                s.sender.video_packets + s.sender.audio_packets + s.sender.retransmissions;
            for (_, rx) in &s.streams {
                c.client_rx_pkts += rx.packets;
                c.frames_decoded += rx.frames_decoded;
            }
        }
        c.frames_encoded = (self.senders as f64 * 30.0 * c.sim_ns as f64 / 1e9) as u64;
        c
    }

    /// Everything that must repeat exactly for a seed.
    pub fn fingerprint(&mut self) -> Vec<(&'static str, u64)> {
        let c = self.counts();
        vec![
            ("sim_ns", c.sim_ns),
            ("events", c.events),
            ("delivered", c.delivered),
            ("dropped", c.dropped),
            ("frames_decoded", c.frames_decoded),
            ("relayed_pkts", c.relayed_pkts),
            ("wan_relayed_bytes", c.wan_relayed_bytes),
            ("switch_in_pkts", c.switch_in_pkts),
            ("cpu_pkts", c.cpu_pkts),
            ("dt_changes", c.dt_changes),
            ("client_tx_pkts", c.client_tx_pkts),
            ("client_rx_pkts", c.client_rx_pkts),
        ]
    }
}

// ---------------------------------------------------------------------
// Layer probes for sim_federation: each layer's public function alone, on
// packets and frames made the way the workload's clients make them.
// ---------------------------------------------------------------------

/// A node that swallows what it is sent.
struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        black_box(pkt);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _timer: TimerToken) {}
}

/// Calls each probe span covers, by span name.
#[derive(Debug, Clone, Default)]
pub struct ProbeCalls(pub Vec<(&'static str, u64)>);

impl ProbeCalls {
    fn span(&mut self, tracer: &mut Tracer, name: &'static str, calls: u64, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        tracer.record(name, None, 0, t, Instant::now());
        self.0.push((name, calls));
    }

    /// Calls covered by span `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, c)| *c)
    }
}

/// Run every protocol, media, client, simulator and switch-node probe,
/// one parentless span each, `scale` shrinking the iteration counts.
pub fn probe_sim_layers(scale: f64, tracer: &mut Tracer) -> ProbeCalls {
    let mut calls = ProbeCalls::default();
    let n = scaled(200_000, scale, 2_000);

    // Ten simulated seconds of one default-config sender's video.
    let mut encoder = VideoEncoder::new(EncoderConfig::default());
    let mut packetizer = Packetizer::new(0xABCD, 96, DEFAULT_MTU);
    let interval = encoder.frame_interval();
    let mut now = SimTime::ZERO;
    let mut frames = Vec::new();
    let mut rtp: Vec<(SimTime, RtpPacket)> = Vec::new();
    for _ in 0..300 {
        let f = encoder.produce(now);
        rtp.extend(packetizer.packetize(&f).into_iter().map(|p| (now, p)));
        frames.push(f);
        now += interval;
    }
    let wire: Vec<Vec<u8>> = rtp.iter().map(|(_, p)| p.serialize()).collect();
    let rr_remb = rtcp::serialize_compound(&[
        RtcpPacket::Rr(ReceiverReport {
            ssrc: 3,
            reports: vec![],
        }),
        RtcpPacket::Remb(Remb {
            sender_ssrc: 3,
            bitrate_bps: 2_000_000,
            ssrcs: vec![0xABCD],
        }),
    ]);

    calls.span(tracer, "proto.rtp.parse", n as u64, || {
        for k in 0..n {
            black_box(RtpPacket::parse(black_box(&wire[k % wire.len()])).is_ok());
        }
    });
    calls.span(tracer, "proto.rtp.serialize", n as u64, || {
        for k in 0..n {
            black_box(black_box(&rtp[k % rtp.len()].1).serialize());
        }
    });
    calls.span(tracer, "proto.rtcp.parse", n as u64, || {
        for _ in 0..n {
            black_box(rtcp::parse_compound(black_box(&rr_remb)).is_ok());
        }
    });
    calls.span(tracer, "proto.demux.classify", n as u64, || {
        for k in 0..n {
            let bytes = if k % 8 == 0 {
                &rr_remb
            } else {
                &wire[k % wire.len()]
            };
            black_box(scallop_proto::demux::classify(black_box(bytes)));
        }
    });
    calls.span(tracer, "media.encoder.produce", n as u64, || {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        let mut at = SimTime::ZERO;
        for _ in 0..n {
            black_box(enc.produce(at));
            at += interval;
        }
    });
    calls.span(tracer, "media.packetizer.packetize", n as u64 / 4, || {
        let mut pz = Packetizer::new(0xABCD, 96, DEFAULT_MTU);
        for k in 0..n / 4 {
            black_box(pz.packetize(black_box(&frames[k % frames.len()])));
        }
    });
    calls.span(tracer, "media.decoder.on_packet", rtp.len() as u64, || {
        let mut dec = Decoder::new(DecoderConfig::default());
        for (at, p) in &rtp {
            black_box(dec.on_packet(*at, p));
        }
    });
    calls.span(tracer, "client.gcc.on_packet", n as u64, || {
        let mut gcc = BandwidthEstimator::new(GccConfig::default());
        for k in 0..n {
            let ms = k as f64 * 6.6;
            gcc.on_packet(SimTime::from_micros(k as u64 * 6_600 + 20_000), ms, 1_242);
        }
        black_box(gcc.estimate_bps());
    });
    calls.span(tracer, "netsim.link.offer", n as u64, || {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::from_millis(10))
                .with_rate(50_000_000)
                .with_queue_bytes(128 * 1024),
        );
        let mut rng = DetRng::new(1);
        for k in 0..n {
            black_box(link.offer(SimTime::from_micros(k as u64 * 250), 1_242, &mut rng));
        }
    });

    // The bare event queue: two sinks, `n` staggered injections.
    let sink_link = LinkConfig::infinite(SimDuration::from_micros(50));
    let mut sim = Simulator::new(1);
    sim.set_workers(1);
    let a = Ipv4Addr::new(10, 8, 0, 1);
    let b = Ipv4Addr::new(10, 8, 0, 2);
    sim.add_node(Box::new(Sink), &[a], sink_link, sink_link);
    sim.add_node(Box::new(Sink), &[b], sink_link, sink_link);
    for k in 0..n {
        let dst = if k % 2 == 0 { a } else { b };
        let pkt = Packet::new(HostAddr::new(b, 1), HostAddr::new(dst, 2), vec![0u8; 64]);
        sim.inject(SimTime::from_micros(k as u64 * 10), pkt);
    }
    let mut queue_events = 0;
    calls.span(tracer, "netsim.sim.queue", 0, || {
        sim.run_for(SimDuration::from_secs(n as u64));
        queue_events = sim.stats.events;
    });
    calls.0.last_mut().expect("queue span").1 = queue_events;

    // One edge switch node in a bare simulator, sinks for clients.
    let mut sim = Simulator::new(1);
    sim.set_workers(1);
    let mut node = ScallopSwitchNode::new(SwitchConfig::new(SFU_IP));
    let meeting = node.agent.create_meeting();
    let mut uplink = None;
    let mut member_ips = Vec::new();
    for i in 0..3 {
        let addr = client_addr(9, i);
        let grant = node.join(meeting, addr, true);
        uplink.get_or_insert((addr, grant.video_uplink));
        member_ips.push(addr.ip);
    }
    sim.add_node(Box::new(node), &[SFU_IP], sink_link, sink_link);
    for ip in member_ips {
        sim.add_node(Box::new(Sink), &[ip], sink_link, sink_link);
    }
    let (src, dst) = uplink.expect("a sender joined");
    let injected = n / 4;
    let mut pz = Packetizer::new(0x1000, 96, DEFAULT_MTU);
    let mut k = 0usize;
    'fill: loop {
        for f in &frames {
            // Frame numbers keep counting past the 300 prepared frames.
            let f = EncodedFrame {
                frame_number: k as u16,
                ..*f
            };
            for p in pz.packetize(&f) {
                let at = SimTime::from_micros(k as u64 * 33_000);
                sim.inject(at, Packet::new(src, dst, p.serialize()));
            }
            k += 1;
            if k * 5 >= injected {
                break 'fill;
            }
        }
    }
    let in_before = sim.stats.events;
    let mut node_events = 0;
    calls.span(tracer, "core.switchnode.run", 0, || {
        sim.run_for(SimDuration::from_millis(k as u64 * 33 + 1_000));
        node_events = sim.stats.events - in_before;
    });
    calls.0.last_mut().expect("switchnode span").1 = node_events;
    let edge: &mut ScallopSwitchNode = sim
        .node_mut(sim.route(SFU_IP).expect("switch route"))
        .expect("switch node");
    calls
        .0
        .push(("core.switchnode.pkts", edge.dp.counters.rtp_in_pkts));

    // The agent alone: feedback punts and periodic ticks.
    let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
    let mut agent = SwitchAgent::new(SFU_IP);
    let mut feedback = Vec::new();
    for m in 0..8 {
        let mid = agent.create_meeting();
        let grants: Vec<_> = (0..4)
            .map(|i| {
                let addr = client_addr(9, m * 4 + i);
                (addr, agent.join(&mut dp, mid, addr, i < 2))
            })
            .collect();
        let (_, sender) = grants[0];
        for (addr, g) in &grants[1..] {
            let pair = agent
                .video_pair_addr(sender.participant, g.participant)
                .expect("pair port");
            feedback.push(Packet::new(*addr, pair, rr_remb.clone()));
        }
    }
    let agent_calls = n / 10;
    calls.span(tracer, "core.agent.cpu_packet", agent_calls as u64, || {
        for k in 0..agent_calls {
            let at = SimTime::from_millis(k as u64 * 10);
            black_box(agent.handle_cpu_packet(at, &feedback[k % feedback.len()], &mut dp));
        }
    });
    let ticks = (n / 100).max(100);
    calls.span(tracer, "core.agent.tick", ticks as u64, || {
        for k in 0..ticks {
            black_box(agent.tick(SimTime::from_millis(k as u64 * 100), &mut dp));
        }
    });
    calls
}
