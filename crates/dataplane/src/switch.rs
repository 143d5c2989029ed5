//! The assembled Scallop data-plane program (§6, Fig. 7 bottom tier).
//!
//! Per-packet pipeline:
//!
//! 1. **Parse** (Appendix E): first-nibble classification, RTP/PHV field
//!    extraction, depth-limited walk to the AV1 dependency descriptor.
//! 2. **Ingress match**: the destination UDP port names the rule — a
//!    sender-uplink (media in) or receiver-feedback (RTCP back) port.
//! 3. **Replicate**: two-party unicast bypass, or PRE fan-out with L1/L2
//!    exclusion-id pruning (§6.1, §6.3).
//! 4. **Egress per replica**: SVC-layer gate (drop templates above the
//!    receiver's decode target), Stream-Tracker sequence rewrite
//!    (S-LM/S-LR, §6.2), and source/destination address rewrite so each
//!    copy is unicast-addressed to its receiver (§6.1). Every replica
//!    shares the ingress buffer; a rewritten one carries its new number
//!    in the packet's sequence-number overlay ([`crate::batch`]).
//! 5. **CPU port**: STUN, receiver feedback copies, and extended-DD key
//!    frames are copied to the switch agent; media never is (§4).
//!
//! All packet/byte accounting for Table 1 and Fig. 22 happens here.

use crate::batch::{BatchOutput, BatchStats};
use crate::flows::{FlowTable, Resolution};
use crate::parser::{self, ParsedPacket};
use crate::pre::PacketReplicationEngine;
use crate::rules::{EgressKey, EgressSpec, PortRule, ReplicationAction};
use crate::seqrewrite::{PacketVerdict, RewriteVerdict, SeqRewriteMode, StreamTracker};
use crate::soa::DensePortRules;
use crate::tables::{ExactTable, TableError, WriteVersion};
use scallop_netsim::packet::{BufPool, Packet};
use scallop_proto::av1::l1t3;
use scallop_proto::demux::{classify, PacketClass};
use scallop_proto::rtcp::{self, RtcpRef};

/// Capacity of the port-rule table (one entry per (sender,receiver) pair
/// stream plus one per sender uplink).
pub(crate) const PORT_RULE_CAPACITY: usize = 131_072;
/// Capacity of the egress table.
pub(crate) const EGRESS_CAPACITY: usize = 262_144;
/// Stream Tracker slots (§6.3: 65,536 concurrent rewritten streams).
pub const STREAM_TRACKER_CAPACITY: usize = 65_536;
/// First replication id reserved for trunk-egress branches. RIDs at or
/// above this value name a *remote switch* rather than a participant, so
/// the egress pipeline accounts those replicas as trunk traffic (one
/// copy per remote switch, fanned out again by that switch's own PRE).
pub const TRUNK_RID_BASE: u16 = 0xF000;

/// Most shifted-NACK buffers a data plane keeps; past this many in
/// flight, the oldest is left to whoever still reads it.
const NACK_POOL_LIMIT: usize = 128;

/// Packet/byte counters (Table 1 / Fig. 22 accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPlaneCounters {
    /// RTP packets entering the switch.
    pub rtp_in_pkts: u64,
    /// RTP bytes entering (payload bytes).
    pub rtp_in_bytes: u64,
    /// RTP packets with a dependency descriptor (video).
    pub video_in_pkts: u64,
    /// Video bytes in.
    pub video_in_bytes: u64,
    /// RTP without a DD (audio).
    pub audio_in_pkts: u64,
    /// Audio bytes in.
    pub audio_in_bytes: u64,
    /// RTCP sender reports / SDES replicated in the data plane.
    pub rtcp_sr_pkts: u64,
    /// RTCP SR/SDES bytes.
    pub rtcp_sr_bytes: u64,
    /// RTCP feedback (RR/REMB/NACK/PLI) packets seen.
    pub rtcp_fb_pkts: u64,
    /// RTCP feedback bytes.
    pub rtcp_fb_bytes: u64,
    /// STUN packets (always punted).
    pub stun_pkts: u64,
    /// STUN bytes.
    pub stun_bytes: u64,
    /// Packets copied to the CPU port.
    pub cpu_pkts: u64,
    /// Bytes copied to the CPU port.
    pub cpu_bytes: u64,
    /// Replicas emitted toward receivers.
    pub forwarded_pkts: u64,
    /// Bytes emitted toward receivers.
    pub forwarded_bytes: u64,
    /// Replicas suppressed by the SVC layer gate.
    pub rate_adapt_drops: u64,
    /// Packets dropped for lacking any rule.
    pub no_rule_drops: u64,
    /// Unparseable packets dropped.
    pub unknown_drops: u64,
    /// REMB feedback blocked by the §5.3 filter.
    pub remb_filtered: u64,
    /// Replicas emitted toward trunk links (one per remote switch).
    pub trunk_out_pkts: u64,
    /// Bytes emitted toward trunk links.
    pub trunk_out_bytes: u64,
    /// Media packets arriving over a trunk (remote senders' streams).
    pub trunk_in_pkts: u64,
    /// Bytes arriving over a trunk.
    pub trunk_in_bytes: u64,
    /// Flow-mod writes: port-rule and egress installs (upserts count —
    /// every write crosses the control channel, new entry or not).
    pub rule_installs: u64,
    /// Flow-mod deletes that removed a live port-rule or egress entry.
    pub rule_removals: u64,
    /// PRE multicast groups allocated (tree setups).
    pub tree_allocs: u64,
}

/// Field-wise aggregation (fabric-wide totals). Kept next to the
/// struct so adding a counter forces this impl into view.
impl std::ops::AddAssign for DataPlaneCounters {
    fn add_assign(&mut self, c: Self) {
        let DataPlaneCounters {
            rtp_in_pkts,
            rtp_in_bytes,
            video_in_pkts,
            video_in_bytes,
            audio_in_pkts,
            audio_in_bytes,
            rtcp_sr_pkts,
            rtcp_sr_bytes,
            rtcp_fb_pkts,
            rtcp_fb_bytes,
            stun_pkts,
            stun_bytes,
            cpu_pkts,
            cpu_bytes,
            forwarded_pkts,
            forwarded_bytes,
            rate_adapt_drops,
            no_rule_drops,
            unknown_drops,
            remb_filtered,
            trunk_out_pkts,
            trunk_out_bytes,
            trunk_in_pkts,
            trunk_in_bytes,
            rule_installs,
            rule_removals,
            tree_allocs,
        } = c; // exhaustive destructure: a new field fails to compile here
        self.rtp_in_pkts += rtp_in_pkts;
        self.rtp_in_bytes += rtp_in_bytes;
        self.video_in_pkts += video_in_pkts;
        self.video_in_bytes += video_in_bytes;
        self.audio_in_pkts += audio_in_pkts;
        self.audio_in_bytes += audio_in_bytes;
        self.rtcp_sr_pkts += rtcp_sr_pkts;
        self.rtcp_sr_bytes += rtcp_sr_bytes;
        self.rtcp_fb_pkts += rtcp_fb_pkts;
        self.rtcp_fb_bytes += rtcp_fb_bytes;
        self.stun_pkts += stun_pkts;
        self.stun_bytes += stun_bytes;
        self.cpu_pkts += cpu_pkts;
        self.cpu_bytes += cpu_bytes;
        self.forwarded_pkts += forwarded_pkts;
        self.forwarded_bytes += forwarded_bytes;
        self.rate_adapt_drops += rate_adapt_drops;
        self.no_rule_drops += no_rule_drops;
        self.unknown_drops += unknown_drops;
        self.remb_filtered += remb_filtered;
        self.trunk_out_pkts += trunk_out_pkts;
        self.trunk_out_bytes += trunk_out_bytes;
        self.trunk_in_pkts += trunk_in_pkts;
        self.trunk_in_bytes += trunk_in_bytes;
        self.rule_installs += rule_installs;
        self.rule_removals += rule_removals;
        self.tree_allocs += tree_allocs;
    }
}

/// The Scallop switch data plane.
#[derive(Debug)]
pub struct ScallopDataPlane {
    /// Ingress port-rule table (keyed by SFU-local UDP port).
    pub port_rules: ExactTable<u16, PortRule>,
    /// Egress per-replica table.
    pub egress: ExactTable<EgressKey, EgressSpec>,
    /// The replication engine.
    pub pre: PacketReplicationEngine,
    /// Sequence-rewrite state.
    pub tracker: StreamTracker,
    /// Counters.
    pub counters: DataPlaneCounters,
    /// Highest parse depth observed (Table 3).
    pub max_parse_depth: u8,
    /// Every port rule matched since it was installed, with the flows it
    /// started since the PRE or the egress table was last written
    /// ([`crate::batch`]).
    flows: FlowTable,
    /// Buffers for NACKs shifted back to their sender's numbers.
    nack_pool: BufPool,
    /// Dense struct-of-arrays mirror of `port_rules` over the switch's
    /// contiguous SFU port span (`None` until
    /// [`enable_dense_ports`](Self::enable_dense_ports)). The exact
    /// table stays authoritative for occupancy/SRAM accounting; the
    /// dense registers serve the hot match.
    pub dense_ports: Option<DensePortRules>,
}

impl ScallopDataPlane {
    /// Build a data plane using the given rewrite heuristic.
    pub fn new(mode: SeqRewriteMode) -> Self {
        ScallopDataPlane {
            port_rules: ExactTable::new("port_rules", PORT_RULE_CAPACITY, 160),
            egress: ExactTable::new("egress", EGRESS_CAPACITY, 128),
            pre: PacketReplicationEngine::new(),
            tracker: StreamTracker::new(mode, STREAM_TRACKER_CAPACITY),
            counters: DataPlaneCounters::default(),
            max_parse_depth: 0,
            flows: FlowTable::default(),
            nack_pool: BufPool::new(NACK_POOL_LIMIT),
            dense_ports: None,
        }
    }

    /// Enable the dense SoA port registers over `[base, limit)` — an
    /// edge switch's contiguous SFU port span from the topology.
    /// Existing in-range rules are copied into the mirror; rules
    /// outside the span (the sparse tail) keep matching through the
    /// exact table.
    pub fn enable_dense_ports(&mut self, base: u16, limit: u16) {
        let mut dense = DensePortRules::new(base, limit);
        for (port, rule) in self.port_rules.iter() {
            dense.set(*port, *rule);
        }
        self.dense_ports = Some(dense);
    }

    /// Install a port rule (control-plane API). The port's next packet
    /// matches it afresh, and the flow table has room to keep it, so that
    /// keeping it on the packet path allocates nothing.
    pub fn install_port_rule(&mut self, port: u16, rule: PortRule) -> Result<(), TableError> {
        let before = self.port_rules.version();
        let old = self.port_rules.peek(&port).copied();
        // A full table refuses only a new port: the rule stays `old`.
        let written = self.port_rules.upsert(port, rule);
        let new = written.is_ok().then_some(rule).or(old);
        self.port_rule_written(port, before, old, new);
        written?;
        self.counters.rule_installs += 1;
        if let Some(d) = self.dense_ports.as_mut() {
            d.set(port, rule);
        }
        Ok(())
    }

    /// Remove a port rule.
    pub fn remove_port_rule(&mut self, port: u16) -> Option<PortRule> {
        if let Some(d) = self.dense_ports.as_mut() {
            d.unset(port);
        }
        let before = self.port_rules.version();
        let removed = self.port_rules.remove(&port);
        self.port_rule_written(port, before, removed, None);
        if removed.is_some() {
            self.counters.rule_removals += 1;
        }
        removed
    }

    /// Tell the flow table that `port`'s rule `old` was replaced by `new`,
    /// the port-rule table having stood at version `before`.
    fn port_rule_written(
        &mut self,
        port: u16,
        before: WriteVersion,
        old: Option<PortRule>,
        new: Option<PortRule>,
    ) {
        let versions = (before, self.port_rules.version());
        self.flows
            .port_rule_written(port, versions, old.as_ref(), new.as_ref());
    }

    /// Install an egress spec for a (MGID, RID) replica, and make room in
    /// the flow table for one more resolved replica.
    pub fn install_egress(&mut self, key: EgressKey, spec: EgressSpec) -> Result<(), TableError> {
        self.egress.upsert(key, spec)?;
        self.counters.rule_installs += 1;
        self.flows.reserve_replicas(self.egress.len());
        Ok(())
    }

    /// Remove an egress spec.
    pub fn remove_egress(&mut self, key: EgressKey) -> Option<EgressSpec> {
        let removed = self.egress.remove(&key);
        if removed.is_some() {
            self.counters.rule_removals += 1;
        }
        removed
    }

    /// Flows held resolved: each a PRE walk with its replicas' egress
    /// specs, one per distinct tree a port rule's tiers name. The first
    /// `process_batch` after a write to the PRE or the egress table drops
    /// them all.
    pub fn resolved_flows(&self) -> usize {
        self.flows.len()
    }

    /// Create a PRE replication group (control-plane API): counted as a
    /// tree allocation alongside the flow-mod counters, so control-plane
    /// churn is visible per switch.
    pub fn create_tree(&mut self, mgid: u16) -> Result<(), crate::pre::PreError> {
        self.pre.create_group(mgid)?;
        self.counters.tree_allocs += 1;
        Ok(())
    }

    /// Process the packets arriving at the switch, in order — the one
    /// packet entry point; a single packet is a batch of one (see
    /// [`crate::batch`]). `out` is cleared first. Forwards land in
    /// [`BatchOutput::forwards`], CPU punts as indices into `pkts` in
    /// [`BatchOutput::cpu_punts`]. Outputs, counters and savings do not
    /// depend on how a packet sequence is cut into batches: a rule or a
    /// flow kept by an earlier call is used only while no table it was
    /// read from was written.
    pub fn process_batch(&mut self, pkts: &[Packet], out: &mut BatchOutput) {
        out.clear();
        let BatchOutput {
            forwards,
            cpu_punts,
            stats,
            parsed,
        } = out;
        // Stage 1: classify the whole batch from each packet's first bytes,
        // in a loop whose loads do not depend on each other, so that the
        // burst's payload cache misses overlap; then parse each packet as
        // its class. A packet rewritten upstream carries its wire sequence
        // number in the overlay, not in its payload.
        parsed.extend(pkts.iter().map(|p| ParsedPacket {
            class: classify(&p.payload),
            rtp: None,
            rtcp_pt: None,
            parse_depth: 0,
        }));
        for (parsed, p) in parsed.iter_mut().zip(pkts) {
            *parsed = parser::parse_as(parsed.class, &p.payload);
            if let (Some(rtp), Some(seq)) = (parsed.rtp.as_mut(), p.seq_overlay()) {
                rtp.seq = seq;
            }
        }
        // Stage 2: match/replicate. A port's entry holds while its rule
        // stands, its flows while the PRE and egress table stand still.
        self.flows.validate(
            self.port_rules.version(),
            (self.pre.version(), self.egress.version()),
        );
        stats.batches += 1;
        stats.batch_pkts += pkts.len() as u64;
        for (i, (pkt, p)) in pkts.iter().zip(parsed.iter()).enumerate() {
            let mut sink = EmitSink {
                forwards,
                cpu_punts,
                index: i as u32,
            };
            self.run_pipeline(pkt, p, stats, &mut sink);
        }
    }

    /// One packet through the pipeline: classify, match, replicate, emit
    /// into `sink`.
    fn run_pipeline(
        &mut self,
        pkt: &Packet,
        parsed: &ParsedPacket,
        stats: &mut BatchStats,
        sink: &mut EmitSink,
    ) {
        self.max_parse_depth = self.max_parse_depth.max(parsed.parse_depth);
        let len = pkt.payload.len() as u64;

        match parsed.class {
            PacketClass::Stun => {
                self.counters.stun_pkts += 1;
                self.counters.stun_bytes += len;
                self.punt(pkt, sink);
            }
            PacketClass::Unknown => {
                self.counters.unknown_drops += 1;
            }
            PacketClass::Rtcp => self.process_rtcp(pkt, parsed, stats, sink),
            PacketClass::Rtp => self.process_rtp(pkt, parsed, stats, sink),
        }
    }

    fn punt(&mut self, pkt: &Packet, sink: &mut EmitSink) {
        self.counters.cpu_pkts += 1;
        self.counters.cpu_bytes += pkt.payload.len() as u64;
        sink.cpu_punts.push(sink.index);
    }

    /// Ingress match for `port`, and the resolution of its flow for
    /// temporal tier `tier` when one is held: one probe of the flow table.
    /// A port without an entry is matched in the dense registers (when it
    /// falls in the enabled span), else in the exact table's sparse tail,
    /// and its rule kept. The rule is copied out — no borrow survives.
    #[inline]
    fn match_port(
        &mut self,
        stats: &mut BatchStats,
        port: u16,
        tier: usize,
    ) -> Option<(PortRule, Option<Resolution>)> {
        if let Some(hit) = self.flows.get(port, tier) {
            stats.port_lookups_saved += 1;
            return Some(hit);
        }
        let rule = self.match_port_rule(port)?;
        self.flows.insert(port, rule);
        Some((rule, None))
    }

    fn match_port_rule(&mut self, port: u16) -> Option<PortRule> {
        if let Some(d) = self.dense_ports.as_mut() {
            if d.covers(port) {
                return d.lookup(port);
            }
        }
        self.port_rules.lookup(&port).copied()
    }

    fn process_rtcp(
        &mut self,
        pkt: &Packet,
        parsed: &ParsedPacket,
        stats: &mut BatchStats,
        sink: &mut EmitSink,
    ) {
        let len = pkt.payload.len() as u64;
        let pt = parsed.rtcp_pt.unwrap_or(0);
        if parser::rtcp_is_sender_report(pt) {
            // SR/SDES travel sender -> receivers like media (§5.5).
            self.counters.rtcp_sr_pkts += 1;
            self.counters.rtcp_sr_bytes += len;
            let Some((rule, flow)) = self.match_port(stats, pkt.dst.port, 0) else {
                self.counters.no_rule_drops += 1;
                return;
            };
            match rule {
                PortRule::SenderUplink { action, .. } => {
                    self.replicate_media(pkt, None, 0, &action, flow, stats, sink);
                }
                PortRule::TrunkIngress { action } => {
                    self.counters.trunk_in_pkts += 1;
                    self.counters.trunk_in_bytes += len;
                    self.replicate_media(pkt, None, 0, &action, flow, stats, sink);
                }
                _ => self.counters.no_rule_drops += 1,
            }
            return;
        }
        // Receiver feedback: RR/REMB gated by the filter, NACK/PLI always
        // forwarded; everything is copied to the CPU for analysis (§5.5).
        self.counters.rtcp_fb_pkts += 1;
        self.counters.rtcp_fb_bytes += len;
        let Some((rule, _)) = self.match_port(stats, pkt.dst.port, 0) else {
            self.counters.no_rule_drops += 1;
            return;
        };
        let (sender_addr, forward_src, remb_allowed, rewrite_index) = match rule {
            PortRule::ReceiverFeedback {
                sender_addr,
                forward_src,
                remb_allowed,
                rewrite_index,
            } => (sender_addr, forward_src, remb_allowed, rewrite_index),
            // Per-edge feedback for a fabric-shared sender: CPU-only.
            // The agent min-aggregates remote REMB estimates and
            // re-emits NACK/PLI itself; the fast path forwards nothing.
            PortRule::FeedbackSink => {
                self.punt(pkt, sink);
                return;
            }
            _ => {
                self.counters.no_rule_drops += 1;
                return;
            }
        };
        self.punt(pkt, sink);
        let is_rr_remb = pt == rtcp::PT_RR;
        if is_rr_remb && !remb_allowed {
            self.counters.remb_filtered += 1;
            return;
        }
        // NACKs from rate-adapted receivers carry *rewritten* sequence
        // numbers; shift each packet-id by the stream's current offset so
        // the sender can locate the originals in its history (one
        // register read per NACK — the Fig. 12 offset). The shifted
        // compound is written into a pooled buffer and swapped into the
        // forwarded copy; one that does not parse is forwarded as it came.
        let fwd = pkt.push_replica(sink.forwards, forward_src, sender_addr, None);
        if pt == rtcp::PT_RTPFB {
            if let Some(idx) = rewrite_index {
                let offset = self.tracker.offset_of(idx as usize);
                if offset != 0 {
                    let mut shifted = false;
                    let buf = self
                        .nack_pool
                        .build(|buf| shifted = shift_nacks(&pkt.payload, offset, buf));
                    if shifted {
                        fwd.payload = buf;
                    }
                }
            }
        }
        self.counters.forwarded_pkts += 1;
        self.counters.forwarded_bytes += len;
    }

    fn process_rtp(
        &mut self,
        pkt: &Packet,
        parsed: &ParsedPacket,
        stats: &mut BatchStats,
        sink: &mut EmitSink,
    ) {
        let len = pkt.payload.len() as u64;
        self.counters.rtp_in_pkts += 1;
        self.counters.rtp_in_bytes += len;
        let rtp = parsed.rtp.expect("Rtp class implies summary");
        if rtp.dd.is_some() {
            self.counters.video_in_pkts += 1;
            self.counters.video_in_bytes += len;
        } else {
            self.counters.audio_in_pkts += 1;
            self.counters.audio_in_bytes += len;
        }
        // The packet's temporal layer, read once: it picks the tier's
        // flow and gates every replica. A packet without a DD is tier 0
        // and passes every gate.
        let temporal = rtp.dd.map_or(0, |d| l1t3::temporal_of(d.template_id));
        let Some((rule, flow)) = self.match_port(stats, pkt.dst.port, tier_of(temporal)) else {
            self.counters.no_rule_drops += 1;
            return;
        };
        let (action, punt_extended_dd) = match rule {
            PortRule::SenderUplink {
                action,
                punt_extended_dd,
            } => (action, punt_extended_dd),
            PortRule::TrunkIngress { action } => {
                // Remote sender's stream arriving over the fabric: the
                // home switch already punted its DDs to an agent.
                self.counters.trunk_in_pkts += 1;
                self.counters.trunk_in_bytes += len;
                (action, false)
            }
            _ => {
                self.counters.no_rule_drops += 1;
                return;
            }
        };
        if punt_extended_dd && rtp.dd.map(|d| d.extended).unwrap_or(false) {
            self.punt(pkt, sink);
        }
        let rtp = parsed.rtp.as_ref();
        self.replicate_media(pkt, rtp, temporal, &action, flow, stats, sink);
    }

    /// Fan a media (or SR) packet of temporal layer `temporal` out to its
    /// receivers, replaying `flow` — the resolution of the tier's flow the
    /// port match found, if any.
    #[allow(clippy::too_many_arguments)]
    fn replicate_media(
        &mut self,
        pkt: &Packet,
        rtp: Option<&parser::RtpSummary>,
        temporal: u8,
        action: &ReplicationAction,
        flow: Option<Resolution>,
        stats: &mut BatchStats,
        sink: &mut EmitSink,
    ) {
        match action {
            ReplicationAction::TwoParty { egress } => {
                self.emit_replica(pkt, rtp, temporal, *egress, false, sink);
            }
            ReplicationAction::Multicast {
                mgid_by_tier,
                l1_xid,
                rid,
                l2_xid,
            } => {
                // Replay the flow's egress-resolved replicas when it was
                // resolved since the last table write, else walk the PRE,
                // resolve each replica's egress and keep the lot. A failed
                // walk (no such group) is kept too, and still charged as a
                // drop per packet.
                let tier = tier_of(temporal);
                let (walked, replicas) = match flow {
                    Some((walked, replicas)) => {
                        stats.pre_walks_saved += 1;
                        stats.egress_lookups_saved += replicas.len() as u64;
                        (walked, replicas)
                    }
                    None => {
                        let flow = (mgid_by_tier[tier], *l1_xid, *rid, *l2_xid);
                        self.resolve_flow(pkt.dst.port, tier, flow)
                    }
                };
                if !walked {
                    self.counters.no_rule_drops += 1;
                    return;
                }
                for i in replicas {
                    let (rep, spec) = self.flows.replica(i);
                    let Some(spec) = spec else {
                        self.counters.no_rule_drops += 1;
                        continue;
                    };
                    // RIDs in the reserved trunk range name remote
                    // switches: one fabric copy each, re-fanned by the
                    // remote PRE.
                    let is_trunk = rep.rid >= TRUNK_RID_BASE;
                    self.emit_replica(pkt, rtp, temporal, spec, is_trunk, sink);
                }
            }
        }
    }

    /// Walk the PRE for the flow `(mgid, l1_xid, rid, l2_xid)` that
    /// `in_port`'s rule starts for `tier`, match every replica's egress
    /// rule and keep the result in the port's flow-table entry. Returns
    /// whether the walk succeeded (`false` — and no replicas — when there
    /// is no such group) and where the replicas lie in the table.
    fn resolve_flow(
        &mut self,
        in_port: u16,
        tier: usize,
        (mgid, l1_xid, rid, l2_xid): (u16, u16, u16, u16),
    ) -> Resolution {
        let (pre, egress) = (&mut self.pre, &mut self.egress);
        self.flows.resolve(
            in_port,
            tier,
            // `replicate_into` leaves the walk empty when it fails.
            |walk| pre.replicate_into(mgid, l1_xid, rid, l2_xid, walk).is_ok(),
            |rep| {
                let key = EgressKey {
                    mgid,
                    rid: rep.rid,
                    in_port,
                };
                egress.lookup(&key).copied()
            },
        )
    }

    /// Egress pipeline for one replica of a packet in layer `temporal`:
    /// SVC gate, sequence rewrite, address rewrite. Always inlined, so
    /// that it and the Stream Tracker's in-order rewrite run in
    /// `replicate_media`'s replica loop: a plain `#[inline]` leaves it
    /// out of line there.
    #[inline(always)]
    fn emit_replica(
        &mut self,
        pkt: &Packet,
        rtp: Option<&parser::RtpSummary>,
        temporal: u8,
        spec: EgressSpec,
        is_trunk: bool,
        sink: &mut EmitSink,
    ) {
        let mut rewritten_seq: Option<u16> = None;
        if let Some(rtp) = rtp {
            if let Some(dd) = rtp.dd {
                let suppress = temporal > spec.max_temporal;
                if let Some(idx) = spec.rewrite_index {
                    let verdict = if suppress {
                        PacketVerdict::Suppress
                    } else {
                        PacketVerdict::Forward
                    };
                    match self.tracker.process(
                        idx as usize,
                        rtp.seq,
                        dd.frame_number,
                        dd.start_of_frame,
                        dd.end_of_frame,
                        verdict,
                    ) {
                        RewriteVerdict::Emit(s) => rewritten_seq = Some(s),
                        RewriteVerdict::Drop => {
                            self.counters.rate_adapt_drops += u64::from(suppress);
                            return;
                        }
                    }
                } else if suppress {
                    self.counters.rate_adapt_drops += 1;
                    return;
                }
            }
        }
        // The PRE replicates the descriptor, not the bytes: every replica
        // shares the ingress buffer, and a rewritten one carries its new
        // number in the packet's overlay, as the egress deparser would
        // write it over bytes 2..4. Counted first, then written once, in
        // its slot of `forwards`: building it before the counter updates
        // measured slower on `fwd_mixed`, and building it on the stack
        // stalls on the reload that copies it in.
        let len = pkt.payload.len() as u64;
        self.counters.forwarded_pkts += 1;
        self.counters.forwarded_bytes += len;
        if is_trunk {
            self.counters.trunk_out_pkts += 1;
            self.counters.trunk_out_bytes += len;
        }
        pkt.push_replica(sink.forwards, spec.src, spec.dst, rewritten_seq);
    }
}

/// The tier of a packet of temporal layer `temporal`: the index of the
/// tree it replicates through in a multicast action's `mgid_by_tier`.
#[inline]
fn tier_of(temporal: u8) -> usize {
    usize::from(temporal).min(2)
}

/// Append `compound` with every NACK packet id shifted by `offset`, each
/// packet re-encoded as `rtcp::serialize` would; `false` when the
/// compound does not parse.
fn shift_nacks(compound: &[u8], offset: u16, out: &mut Vec<u8>) -> bool {
    let Ok(pkts) = rtcp::read_compound(compound) else {
        return false;
    };
    for p in pkts {
        match p {
            RtcpRef::Nack {
                sender_ssrc,
                media_ssrc,
                entries,
            } => rtcp::write_nack(
                out,
                sender_ssrc,
                media_ssrc,
                entries.map(|(pid, blp)| (pid.wrapping_add(offset), blp)),
            ),
            other => other.write_into(out),
        }
    }
    true
}

/// Where the pipeline's outputs land while packet `index` of the batch
/// is processed: its forwards, and the punt ring its index goes into.
struct EmitSink<'a> {
    forwards: &'a mut Vec<Packet>,
    cpu_punts: &'a mut Vec<u32>,
    index: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pre::{L1Node, PortList};
    use bytes::Bytes;
    use scallop_media::encoder::{EncodedFrame, FrameLabelCompact};
    use scallop_media::packetizer::Packetizer;
    use scallop_netsim::packet::HostAddr;
    use scallop_netsim::time::SimTime;
    use scallop_proto::rtcp::{self, Pli, ReceiverReport, Remb, RtcpPacket};
    use scallop_proto::rtp::{RtpPacket, RtpView};
    use scallop_proto::stun::StunMessage;
    use std::net::Ipv4Addr;

    fn addr(last: u8, port: u16) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    fn sfu(port: u16) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 100), port)
    }

    /// One packet through the one entry point: a batch of one.
    fn process(dp: &mut ScallopDataPlane, pkt: &Packet) -> BatchOutput {
        let mut out = BatchOutput::default();
        dp.process_batch(std::slice::from_ref(pkt), &mut out);
        out
    }

    fn video_frame_packets(
        pz: &mut Packetizer,
        number: u16,
        template_id: u8,
        is_key: bool,
        size: usize,
    ) -> Vec<RtpPacket> {
        let temporal_id = match template_id {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        pz.packetize(&EncodedFrame {
            frame_number: number,
            label: FrameLabelCompact {
                temporal_id,
                template_id,
                is_key,
            },
            size_bytes: size,
            captured_at: SimTime::ZERO,
            rtp_timestamp: number as u32 * 3000,
        })
    }

    /// A 3-participant meeting on one multicast tree: sender P1 (port 10),
    /// receivers P2/P3.
    fn three_party_dp(max_temporal_p3: u8, rewrite_p3: bool) -> ScallopDataPlane {
        let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        dp.pre.create_group(1).unwrap();
        dp.pre
            .add_node(
                1,
                L1Node {
                    rid: 2,
                    xid: 1,
                    prune_enabled: true,
                    ports: PortList::One(2),
                },
            )
            .unwrap();
        dp.pre
            .add_node(
                1,
                L1Node {
                    rid: 3,
                    xid: 1,
                    prune_enabled: true,
                    ports: PortList::One(3),
                },
            )
            .unwrap();
        dp.install_port_rule(
            10,
            PortRule::SenderUplink {
                action: ReplicationAction::Multicast {
                    mgid_by_tier: [1, 1, 1],
                    l1_xid: 99, // nobody pruned at L1 (single meeting)
                    rid: 1,
                    l2_xid: 0,
                },
                punt_extended_dd: true,
            },
        )
        .unwrap();
        let rewrite_index = if rewrite_p3 {
            dp.tracker.init_stream(7, 2);
            Some(7)
        } else {
            None
        };
        dp.install_egress(
            EgressKey {
                mgid: 1,
                rid: 2,
                in_port: 10,
            },
            EgressSpec {
                src: sfu(1002),
                dst: addr(2, 5000),
                max_temporal: 2,
                rewrite_index: None,
            },
        )
        .unwrap();
        dp.install_egress(
            EgressKey {
                mgid: 1,
                rid: 3,
                in_port: 10,
            },
            EgressSpec {
                src: sfu(1003),
                dst: addr(3, 5000),
                max_temporal: max_temporal_p3,
                rewrite_index,
            },
        )
        .unwrap();
        dp
    }

    #[test]
    fn media_replicated_and_readdressed() {
        let mut dp = three_party_dp(2, false);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        let pkts = video_frame_packets(&mut pz, 0, 1, false, 1000);
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
        );
        assert_eq!(out.forwards.len(), 2);
        let dsts: Vec<HostAddr> = out.forwards.iter().map(|p| p.dst).collect();
        assert!(dsts.contains(&addr(2, 5000)));
        assert!(dsts.contains(&addr(3, 5000)));
        // Source rewritten to the SFU's per-pair address (§6.1).
        assert!(out
            .forwards
            .iter()
            .all(|p| p.src.ip == Ipv4Addr::new(10, 0, 0, 100)));
        // Payload identical (Zoom-like exact copy).
        assert!(out
            .forwards
            .iter()
            .all(|p| p.payload == out.forwards[0].payload));
        assert!(out.cpu_punts.is_empty());
    }

    #[test]
    fn svc_gate_drops_high_layers_for_constrained_receiver() {
        let mut dp = three_party_dp(1, false); // P3 capped at 15 fps
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        // T2 frame (template 3): only P2 receives.
        let pkts = video_frame_packets(&mut pz, 1, 3, false, 1000);
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
        );
        assert_eq!(out.forwards.len(), 1);
        assert_eq!(out.forwards[0].dst, addr(2, 5000));
        assert_eq!(dp.counters.rate_adapt_drops, 1);
        // T1 frame (template 2): both receive.
        let pkts = video_frame_packets(&mut pz, 2, 2, false, 1000);
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
        );
        assert_eq!(out.forwards.len(), 2);
    }

    #[test]
    fn rate_adapted_stream_rewrites_sequence_numbers() {
        let mut dp = three_party_dp(1, true);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        let mut p3_seqs = Vec::new();
        // Frames: T0(t1) T2(t3) T1(t2) T2(t4) | T0 T2 T1 T2 — one packet
        // each; P3 keeps T0/T1 = cadence step 2.
        for (i, tpl) in [1u8, 3, 2, 4, 1, 3, 2, 4].iter().enumerate() {
            let pkts = video_frame_packets(&mut pz, i as u16, *tpl, false, 500);
            let out = process(
                &mut dp,
                &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
            );
            for f in out.forwards {
                if f.dst == addr(3, 5000) {
                    p3_seqs.push(RtpView::new(&f.wire_bytes()).unwrap().sequence_number());
                }
            }
        }
        // P3 received 4 packets (T0,T1,T0,T1) renumbered contiguously.
        assert_eq!(p3_seqs, vec![0, 1, 2, 3]);
    }

    /// A rewritten replica that reaches another data plane is tracked
    /// under its wire number: the second plane's rate-adapted stream
    /// renumbers what the first plane's receiver would have seen, not
    /// the sender's originals underneath the overlay.
    #[test]
    fn a_second_plane_rewrites_the_wire_numbers_of_a_rewritten_stream() {
        let mut first = three_party_dp(1, true);
        let mut second = three_party_dp(0, true);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        // T0 T2 T1 T2 T0 T2 T1 T2 T0: the first plane keeps T0/T1 for P3
        // (wire numbers 0..5), the second keeps T0 only for its P3.
        let (mut wire, mut twice) = (Vec::new(), Vec::new());
        for (i, tpl) in [1u8, 3, 2, 4, 1, 3, 2, 4, 1].iter().enumerate() {
            let pkts = video_frame_packets(&mut pz, i as u16, *tpl, false, 500);
            let out = process(
                &mut first,
                &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
            );
            for f in out.forwards.iter().filter(|f| f.dst == addr(3, 5000)) {
                assert!(f.seq_overlay().is_some(), "rewritten in place");
                wire.push(RtpView::new(&f.wire_bytes()).unwrap().sequence_number());
                // The replica, as it arrives on the second plane's uplink.
                let hop = f.readdressed(addr(1, 4000), sfu(10));
                let out = process(&mut second, &hop);
                for g in out.forwards.iter().filter(|g| g.dst == addr(3, 5000)) {
                    twice.push(RtpView::new(&g.wire_bytes()).unwrap().sequence_number());
                }
            }
        }
        assert_eq!(wire, vec![0, 1, 2, 3, 4]);
        // The second plane's P3 keeps the T0 packets, wire 0, 2, 4
        // (originals 0, 4, 8), renumbered contiguously either way. Its
        // offset is what tells them apart: a NACK for 2 must reach the
        // first plane as wire number 4, not as the sender's 8.
        assert_eq!(twice, vec![0, 1, 2]);
        assert_eq!(second.tracker.offset_of(7), 2, "wire 4 went out as 2");
    }

    /// A NACK from a rate-adapted receiver names rewritten numbers; the
    /// sender gets them shifted back by the stream's offset, every packet
    /// of the compound re-encoded, and a compound that does not parse as
    /// it came.
    #[test]
    fn nacks_of_a_rewritten_stream_reach_the_sender_in_original_numbers() {
        let mut dp = three_party_dp(1, true);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        for (i, tpl) in [1u8, 3, 2, 4, 1, 3, 2].iter().enumerate() {
            let pkts = video_frame_packets(&mut pz, i as u16, *tpl, false, 500);
            process(
                &mut dp,
                &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
            );
        }
        let offset = dp.tracker.offset_of(7);
        assert_ne!(offset, 0, "T2 frames were suppressed");
        dp.install_port_rule(
            1003,
            PortRule::ReceiverFeedback {
                sender_addr: addr(1, 4000),
                forward_src: sfu(10),
                remb_allowed: false,
                rewrite_index: Some(7),
            },
        )
        .unwrap();
        let pli = RtcpPacket::Pli(Pli {
            sender_ssrc: 3,
            media_ssrc: 0xAA,
        });
        let nack = |pid: u16| {
            RtcpPacket::Nack(rtcp::Nack {
                sender_ssrc: 3,
                media_ssrc: 0xAA,
                entries: vec![(pid, 0b101)],
            })
        };
        let sent = rtcp::serialize_compound(&[nack(1), pli.clone()]);
        let out = process(&mut dp, &Packet::new(addr(3, 5000), sfu(1003), sent));
        assert_eq!(out.forwards.len(), 1);
        assert_eq!(out.forwards[0].dst, addr(1, 4000));
        assert_eq!(
            out.forwards[0].payload,
            rtcp::serialize_compound(&[nack(1 + offset), pli])
        );
        let mut broken = rtcp::serialize(&nack(1));
        broken.extend_from_slice(&[0x80, 204, 0, 0]);
        let out = process(
            &mut dp,
            &Packet::new(addr(3, 5000), sfu(1003), broken.clone()),
        );
        assert_eq!(out.forwards[0].payload, broken);
    }

    #[test]
    fn extended_dd_punted_to_cpu() {
        let mut dp = three_party_dp(2, false);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        let pkts = video_frame_packets(&mut pz, 0, 0, true, 2400);
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(10), pkts[0].serialize()),
        );
        assert_eq!(out.cpu_punts.len(), 1, "key-frame head goes to agent");
        assert_eq!(out.forwards.len(), 2, "and is still forwarded");
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(10), pkts[1].serialize()),
        );
        assert!(out.cpu_punts.is_empty());
    }

    #[test]
    fn stun_punted_only() {
        let mut dp = three_party_dp(2, false);
        let stun = StunMessage::binding_request([1; 12]).serialize();
        let out = process(&mut dp, &Packet::new(addr(2, 5000), sfu(1002), stun));
        assert_eq!(out.cpu_punts.len(), 1);
        assert!(out.forwards.is_empty());
        assert_eq!(dp.counters.stun_pkts, 1);
    }

    #[test]
    fn feedback_forwarding_and_remb_filter() {
        let mut dp = three_party_dp(2, false);
        // P3's feedback port for sender P1 is 1003.
        dp.install_port_rule(
            1003,
            PortRule::ReceiverFeedback {
                sender_addr: addr(1, 4000),
                forward_src: sfu(10),
                remb_allowed: false,
                rewrite_index: None,
            },
        )
        .unwrap();
        // NACK forwarded despite the filter.
        let nack = rtcp::serialize(&RtcpPacket::Nack(rtcp::Nack {
            sender_ssrc: 3,
            media_ssrc: 0xAA,
            entries: vec![(5, 0)],
        }));
        let out = process(&mut dp, &Packet::new(addr(3, 5000), sfu(1003), nack));
        assert_eq!(out.forwards.len(), 1);
        assert_eq!(out.forwards[0].dst, addr(1, 4000));
        assert_eq!(out.forwards[0].src, sfu(10));
        assert_eq!(out.cpu_punts.len(), 1, "copy to agent");
        // RR+REMB blocked by the filter but still copied to the agent.
        let rr = rtcp::serialize_compound(&[
            RtcpPacket::Rr(ReceiverReport {
                ssrc: 3,
                reports: vec![],
            }),
            RtcpPacket::Remb(Remb {
                sender_ssrc: 3,
                bitrate_bps: 500_000,
                ssrcs: vec![0xAA],
            }),
        ]);
        let out = process(&mut dp, &Packet::new(addr(3, 5000), sfu(1003), rr));
        assert!(out.forwards.is_empty());
        assert_eq!(out.cpu_punts.len(), 1);
        assert_eq!(dp.counters.remb_filtered, 1);
        // PLI forwarded.
        let pli = rtcp::serialize(&RtcpPacket::Pli(Pli {
            sender_ssrc: 3,
            media_ssrc: 0xAA,
        }));
        let out = process(&mut dp, &Packet::new(addr(3, 5000), sfu(1003), pli));
        assert_eq!(out.forwards.len(), 1);
    }

    #[test]
    fn sender_report_replicated_like_media() {
        let mut dp = three_party_dp(2, false);
        let sr = rtcp::serialize(&RtcpPacket::Sr(rtcp::SenderReport {
            ssrc: 0xAA,
            ntp_sec: 1,
            ntp_frac: 2,
            rtp_ts: 3,
            packet_count: 4,
            octet_count: 5,
            reports: vec![],
        }));
        let out = process(&mut dp, &Packet::new(addr(1, 4000), sfu(10), sr));
        assert_eq!(out.forwards.len(), 2, "SR fans out to both receivers");
        assert_eq!(dp.counters.rtcp_sr_pkts, 1);
    }

    #[test]
    fn audio_never_rate_adapted() {
        let mut dp = three_party_dp(0, false); // P3 at lowest quality
        let mut audio = RtpPacket::new(111, 9, 100, 0xBB);
        audio.payload = Bytes::from(vec![0u8; 128]);
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(10), audio.serialize()),
        );
        assert_eq!(out.forwards.len(), 2, "audio reaches even capped receivers");
        assert_eq!(dp.counters.audio_in_pkts, 1);
    }

    #[test]
    fn packets_without_rules_dropped() {
        let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowMemory);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        let pkts = video_frame_packets(&mut pz, 0, 1, false, 500);
        let out = process(
            &mut dp,
            &Packet::new(addr(1, 4000), sfu(77), pkts[0].serialize()),
        );
        assert!(out.forwards.is_empty());
        assert_eq!(dp.counters.no_rule_drops, 1);
        // Garbage dropped as unknown.
        let out = process(&mut dp, &Packet::new(addr(1, 1), sfu(77), vec![0xFFu8; 8]));
        assert!(out.forwards.is_empty());
        assert_eq!(dp.counters.unknown_drops, 1);
    }

    /// A deterministic RTP/RTCP/STUN/garbage mix against the
    /// three-party fixture.
    fn mixed_traffic() -> Vec<Packet> {
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        let mut batch = Vec::new();
        for (i, tpl) in [1u8, 3, 2, 4, 1, 3].iter().enumerate() {
            for rtp in video_frame_packets(&mut pz, i as u16, *tpl, i == 0, 1800) {
                batch.push(Packet::new(addr(1, 4000), sfu(10), rtp.serialize()));
            }
        }
        batch.push(Packet::new(
            addr(2, 5000),
            sfu(1002),
            StunMessage::binding_request([2; 12]).serialize(),
        ));
        batch.push(Packet::new(
            addr(1, 4000),
            sfu(10),
            rtcp::serialize(&RtcpPacket::Sr(rtcp::SenderReport {
                ssrc: 0xAA,
                ntp_sec: 1,
                ntp_frac: 2,
                rtp_ts: 3,
                packet_count: 4,
                octet_count: 5,
                reports: vec![],
            })),
        ));
        batch.push(Packet::new(addr(9, 9), sfu(77), vec![0xFFu8; 16]));
        batch
    }

    #[test]
    fn one_batch_matches_batches_of_one() {
        let batch = mixed_traffic();
        let mut seq_dp = three_party_dp(1, true);
        let mut bat_dp = three_party_dp(1, true);

        let mut seq_fwd = Vec::new();
        let mut seq_punts = Vec::new();
        for (i, pkt) in batch.iter().enumerate() {
            let mut out = process(&mut seq_dp, pkt);
            seq_fwd.append(&mut out.forwards);
            if !out.cpu_punts.is_empty() {
                seq_punts.push(i as u32);
            }
        }

        let mut bout = BatchOutput::default();
        bat_dp.process_batch(&batch, &mut bout);
        assert_eq!(bout.forwards, seq_fwd);
        assert_eq!(bout.cpu_punts, seq_punts);
        assert_eq!(bat_dp.counters, seq_dp.counters);
        assert_eq!(bat_dp.max_parse_depth, seq_dp.max_parse_depth);
        // Every packet but the STUN and the garbage resolves port 10 and
        // its one flow (two replicas): all but the first are repeats.
        let repeats = batch.len() as u64 - 3;
        assert_eq!(bout.stats.port_lookups_saved, repeats);
        assert_eq!(bout.stats.pre_walks_saved, repeats);
        assert_eq!(bout.stats.egress_lookups_saved, 2 * repeats);
        assert_eq!(bout.stats.batch_pkts, batch.len() as u64);
    }

    #[test]
    fn dense_registers_mirror_the_exact_table() {
        let mut plain = three_party_dp(1, true);
        let mut dense = three_party_dp(1, true);
        dense.enable_dense_ports(0, 2000); // covers ports 10/1002/1003
        assert_eq!(
            dense.dense_ports.as_ref().unwrap().occupied(),
            dense.port_rules.len(),
            "existing rules copied into the mirror"
        );
        // Install/remove after enabling keeps the mirror coherent.
        dense
            .install_port_rule(
                1003,
                PortRule::ReceiverFeedback {
                    sender_addr: addr(1, 4000),
                    forward_src: sfu(10),
                    remb_allowed: true,
                    rewrite_index: None,
                },
            )
            .unwrap();
        plain
            .install_port_rule(
                1003,
                PortRule::ReceiverFeedback {
                    sender_addr: addr(1, 4000),
                    forward_src: sfu(10),
                    remb_allowed: true,
                    rewrite_index: None,
                },
            )
            .unwrap();
        let mut batch = mixed_traffic();
        batch.push(Packet::new(
            addr(3, 5000),
            sfu(1003),
            rtcp::serialize(&RtcpPacket::Pli(Pli {
                sender_ssrc: 3,
                media_ssrc: 0xAA,
            })),
        ));
        let mut a = BatchOutput::default();
        let mut b = BatchOutput::default();
        plain.process_batch(&batch, &mut a);
        dense.process_batch(&batch, &mut b);
        assert_eq!(a.forwards, b.forwards);
        assert_eq!(a.cpu_punts, b.cpu_punts);
        assert_eq!(plain.counters, dense.counters);
        assert!(
            dense.dense_ports.as_ref().unwrap().dense_lookups > 0,
            "in-span matches served by the registers"
        );
        dense.remove_port_rule(1003);
        assert_eq!(
            dense.dense_ports.as_mut().unwrap().lookup(1003),
            None,
            "removal clears the mirror slot"
        );
    }

    #[test]
    fn counters_track_byte_volumes() {
        let mut dp = three_party_dp(2, false);
        let mut pz = Packetizer::new(0xAA, 96, 1200);
        let pkts = video_frame_packets(&mut pz, 0, 1, false, 2400);
        let mut in_bytes = 0u64;
        for p in &pkts {
            let bytes = p.serialize();
            in_bytes += bytes.len() as u64;
            process(&mut dp, &Packet::new(addr(1, 4000), sfu(10), bytes));
        }
        assert_eq!(dp.counters.video_in_bytes, in_bytes);
        assert_eq!(dp.counters.forwarded_bytes, 2 * in_bytes);
    }
}
