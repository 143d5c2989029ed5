//! The switch agent (§4, §5, §6.1): Scallop's on-switch control program.
//!
//! The agent runs on the switch CPU and owns everything between the
//! centralized controller (infrequent, session-level) and the data plane
//! (per-packet). Its jobs, with paper references:
//!
//! * **Port/session plumbing** (§5.3): every (sender → receiver) pair
//!   gets its own SFU UDP port per media type, so receivers' feedback is
//!   per-sender by construction.
//! * **Feedback analysis** (§5.3): per-downlink EWMAs over REMB
//!   estimates; the filter `f` periodically selects the best-performing
//!   downlink per sender and programs the data plane to forward only that
//!   receiver's REMBs to the sender.
//! * **Decode-target selection** (§5.4): the pluggable
//!   `selectDecodeTarget(currDT, estHist, newEst) → newDT` hook; the
//!   default is the paper's threshold heuristic (with hysteresis).
//! * **SVC dependency-descriptor analysis** (§5.4): extended DDs punted
//!   by the data plane are parsed to track each sender's template
//!   structure epoch.
//! * **STUN handling** (§5.1): binding requests are answered from the
//!   switch CPU.
//! * **Replication-tree management** (§6.1): builds two-party / NRA /
//!   RA-R / RA-SR tree layouts (NRA and RA-R aggregate m = 2 meetings
//!   per tree with L1-XID pruning), and migrates meetings between
//!   designs make-before-break: new trees are created, sender rules are
//!   swapped, then the old trees are deallocated.

use scallop_dataplane::pre::L1Node;
use scallop_dataplane::rules::{EgressKey, EgressSpec, PortRule, ReplicationAction};
use scallop_dataplane::switch::ScallopDataPlane;
use scallop_netsim::packet::{BufPool, HostAddr, Packet};
use scallop_netsim::stats::Ewma;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::av1::{DependencyDescriptor, DD_EXTENSION_ID};
use scallop_proto::demux::{classify, PacketClass};
use scallop_proto::rtcp::{self, RtcpRef};
use scallop_proto::rtp::RtpView;
use scallop_proto::stun::{self, StunView};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Meeting identifier.
pub type MeetingId = u32;
/// Participant identifier (also used as RID / abstract egress port).
pub type ParticipantId = u16;

/// L1 exclusion id stamped by *remote* senders so their fabric traffic
/// is never re-trunked: every trunk-egress branch carries this XID, and
/// a packet that already crossed a trunk prunes all of them (§6.3's
/// XID-pruning mechanism, applied to the fabric tier).
pub const TRUNK_XID: u16 = 0xFFFE;

/// L1 exclusion id of the *WAN* pruning tier: trunk-egress branches
/// pointing across a WAN link (zone-gateway branches) carry this XID
/// instead of [`TRUNK_XID`]. A sender arriving over a WAN link prunes
/// exactly the WAN branches (its media must not re-cross a WAN link)
/// while still traversing the intra-zone [`TRUNK_XID`] branches — the
/// gateway edge fans the stream out to its zone's other edges. A sender
/// arriving over an intra-zone trunk prunes [`TRUNK_XID`] and still
/// traverses the WAN branches, which only exist at its zone's gateway
/// edge — so cross-zone media crosses each WAN link exactly once per
/// remote zone.
pub const WAN_XID: u16 = 0xFFFD;

/// The fabric tier a trunk-egress branch points across, or a
/// remote-sender entry's media arrived over: the controller's routing
/// rule answers in these terms, and each tier's value is the L1 XID its
/// branches carry and its arrivals prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Tier {
    /// An intra-zone trunk.
    Trunk = TRUNK_XID,
    /// A WAN link between two zones' gateway edges.
    Wan = WAN_XID,
}

/// What role a participant entry plays on *this* switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParticipantClass {
    /// A real client attached to this switch.
    Local,
    /// A sender homed on another edge switch; its media arrives on this
    /// switch's trunk-ingress ports and fans out to local receivers.
    /// Never a receiver here.
    RemoteSender,
    /// A remote edge switch, modeled as one full-quality receiver: it
    /// gets exactly one copy of each local sender's stream (per-receiver
    /// thinning happens on the remote edge, after its own PRE).
    TrunkEgress,
}

/// Decode-target → skip-cadence mapping (frame-number step between
/// forwarded frames in L1T3): DT2 → 1, DT1 → 2, DT0 → 4.
pub fn cadence_for_dt(dt: u8) -> u16 {
    1 << (2 - dt.min(2)) as u16
}

/// The `selectDecodeTarget` policy hook (§5.4). Arguments: current
/// decode target, history of past estimates (bits/s), newest estimate.
pub type AdaptationPolicy = Rc<dyn Fn(u8, &[u64], u64) -> u8>;

/// The paper's simple threshold heuristic, with a conservative 2.2×
/// upward hysteresis: moving a decode target up instantly *doubles* the
/// offered load, and a temporal-only SFU cannot probe for headroom with
/// padding, so the gate demands estimates that clearly cover the next
/// tier's needs. (Consequence: recovery to a higher tier requires the
/// estimate to rise well past the threshold — the paper's evaluation
/// likewise never exercises an automatic up-switch under constraint.)
pub fn default_policy(thresholds: [u64; 2]) -> AdaptationPolicy {
    Rc::new(move |curr, _hist, new_est| {
        let up = |t: u64| t * 22 / 10;
        let target = if new_est < thresholds[0] {
            0
        } else if new_est < thresholds[1] {
            1
        } else {
            2
        };
        if target > curr {
            // Only move up once safely past the threshold.
            let gate = match curr {
                0 => up(thresholds[0]),
                _ => up(thresholds[1]),
            };
            if new_est >= gate {
                target
            } else {
                curr
            }
        } else {
            target
        }
    })
}

/// Default REMB thresholds (bits/s) for DT selection — aligned with the
/// tier loads of the default 2.2 Mbit/s encoder (DT0 ≈ 0.63 Mb/s with
/// key overhead, DT1 ≈ 1.26 Mb/s): an estimate inside a band must be
/// able to actually carry that band's tier, or the selector pins the
/// receiver in permanent congestion. Matches the software baseline.
pub const DEFAULT_DT_THRESHOLDS: [u64; 2] = [680_000, 1_350_000];

/// Most response and REMB buffers an agent keeps; past this many in
/// flight, the oldest is left to whoever still reads it.
const RESPONSE_POOL_LIMIT: usize = 128;

/// What the agent granted a joining participant (consumed by signaling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinGrant {
    /// Assigned participant id.
    pub participant: ParticipantId,
    /// Where the participant must send its video.
    pub video_uplink: HostAddr,
    /// Where the participant must send its audio.
    pub audio_uplink: HostAddr,
}

/// Replication design currently serving a meeting (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeDesign {
    /// ≤ 2 participants: unicast fast path, no trees.
    TwoParty,
    /// No rate adaptation: one (paired) tree per meeting.
    Nra,
    /// Receiver-specific adaptation: one (paired) tree per quality tier.
    RaR,
    /// Sender-receiver-specific adaptation: trees per 2-sender group per
    /// tier.
    RaSr,
}

/// Agent telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentCounters {
    /// REMB messages analyzed.
    pub rembs_analyzed: u64,
    /// RR messages analyzed.
    pub rrs_analyzed: u64,
    /// Extended dependency descriptors analyzed.
    pub dds_analyzed: u64,
    /// STUN requests answered.
    pub stun_answered: u64,
    /// Decode-target changes applied.
    pub dt_changes: u64,
    /// Meeting design migrations performed.
    pub migrations: u64,
    /// Feedback-filter reprogram events.
    pub filter_updates: u64,
    /// Fabric-wide aggregate REMBs emitted toward local senders (home
    /// edge min-filter over per-edge estimates).
    pub rembs_aggregated: u64,
    /// Joins compiled incrementally (grafted onto the installed trees
    /// instead of a full rebuild).
    pub graft_joins: u64,
    /// Leaves compiled incrementally (pruned from the installed trees
    /// instead of a full rebuild).
    pub prune_leaves: u64,
}

#[derive(Debug, Clone)]
struct Pinfo {
    meeting: MeetingId,
    class: ParticipantClass,
    /// Local: the client's address. RemoteSender: the sender's real
    /// client address (feedback forwarding target). TrunkEgress: unused.
    addr: HostAddr,
    sends: bool,
    /// TrunkEgress only: per-local-sender (video, audio) trunk-ingress
    /// addresses on the remote edge (or its relaying core / WAN
    /// gateway).
    trunk_dst: HashMap<ParticipantId, (HostAddr, HostAddr)>,
    /// Fabric pruning tier. TrunkEgress: the L1 XID its branches carry
    /// ([`TRUNK_XID`] for intra-zone branches, [`WAN_XID`] for a zone
    /// gateway's cross-WAN branches). RemoteSender: the XID its media
    /// prunes (how it arrived: over an intra-zone trunk or a WAN link).
    /// Local participants never consult it.
    fabric_xid: u16,
    /// Senders only: the CPU-only feedback-sink port remote edges
    /// forward their per-edge selected REMB (and NACK/PLI) to, when
    /// this sender is shared across the fabric. `Some` switches the
    /// sender's REMB source from direct per-receiver forwarding to the
    /// agent's min-aggregate.
    sink_port: Option<u16>,
    /// Senders only: last REMB estimate received from each remote edge
    /// (keyed by the forwarding edge's IP), min-folded into the
    /// aggregate REMB.
    remote_ests: HashMap<Ipv4Addr, u64>,
    video_up: u16,
    audio_up: u16,
    /// Receiver-specific decode target.
    dt: u8,
    /// Admission-imposed ceiling on the decode target: rate adaptation
    /// may move `dt` freely **below** the cap but never above it (an
    /// SVC-thin admission stays thin no matter how much downlink
    /// headroom the receiver reports). `2` = uncapped.
    dt_cap: u8,
    /// RA-SR overrides: per-sender decode target.
    dt_per_sender: HashMap<ParticipantId, u8>,
    /// Per-sender downlink EWMA (this participant as receiver).
    ewma: HashMap<ParticipantId, Ewma>,
    /// Per-sender estimate history (for the policy hook).
    est_hist: HashMap<ParticipantId, Vec<u64>>,
    /// Ports we send this participant media from, per sender:
    /// (video pair port, audio pair port).
    pair_from: HashMap<ParticipantId, (u16, u16)>,
    /// Stream-tracker slot per sender (video), when rate-adapted.
    tracker_idx: HashMap<ParticipantId, u16>,
    /// When this receiver's decode target last changed (dwell control).
    last_dt_change: Option<SimTime>,
}

#[derive(Debug, Clone)]
struct MeetingState {
    participants: Vec<ParticipantId>,
    design: TreeDesign,
    /// Owned (mgid, slot-xid) pairs; slot 0 = exclusive tree.
    trees: Vec<(u16, u8)>,
    /// Installed egress keys (for teardown on rebuild).
    egress_keys: Vec<EgressKey>,
    /// A forwarding configuration has been installed at least once
    /// (design changes after this count as migrations).
    configured: bool,
}

/// Who a port belongs to (the agent's reverse map for CPU-copy routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortUse {
    VideoUplink(ParticipantId),
    AudioUplink(ParticipantId),
    /// Feedback about `sender`'s video from `receiver`.
    PairVideo {
        sender: ParticipantId,
        receiver: ParticipantId,
    },
    /// Feedback about `sender`'s audio from `receiver`.
    PairAudio {
        sender: ParticipantId,
        receiver: ParticipantId,
    },
    /// Per-edge fabric feedback about `sender` (REMB aggregation sink).
    FeedbackSink {
        sender: ParticipantId,
    },
}

/// A half-occupied paired tree: `(mgids, free_slot_xid)`.
#[derive(Debug, Clone)]
struct HalfTree {
    mgids: Vec<u16>,
    free_slot: u8,
}

/// A tree named by its owner: `(meeting, index in its trees)`.
type TreeName = (MeetingId, usize);

/// One entry of [`SwitchAgent::canonical_state`]. MGIDs appear only as
/// [`TreeName`]s (a multicast action's `mgid_by_tier` holds tree
/// indices of its sender's meeting), and packed-tree slot XIDs as seen
/// from their owner: 1 for its own slot, 2 for its partner's.
#[derive(Debug, PartialEq)]
enum Line {
    Port(u16, PortRule),
    Egress(TreeName, u16, u16, EgressSpec),
    Node(TreeName, L1Node),
    Meeting {
        id: MeetingId,
        design: TreeDesign,
        participants: Vec<ParticipantId>,
        /// Per tree: 0 exclusive, 1 packed.
        packed: Vec<u8>,
        /// `(tree index, rid, in_port)` of the tracked egress keys.
        keys: Vec<(usize, u16, u16)>,
    },
}

/// The switch agent.
#[derive(Clone)]
pub struct SwitchAgent {
    sfu_ip: Ipv4Addr,
    next_port: u16,
    /// Exclusive upper bound of this switch's SFU port range.
    port_limit: u16,
    /// Ports released by `leave` awaiting reuse. Essential on a fabric:
    /// per-edge port ranges are narrow slices of the u16 space, and
    /// meeting churn would exhaust them without recycling.
    free_ports: FreeList<u16>,
    next_pid: ParticipantId,
    /// Participant ids released by `leave` awaiting reuse. Like ports,
    /// RIDs are a finite per-switch resource (they double as PRE RIDs,
    /// L2 XIDs, and abstract egress ports); fabric meeting churn and
    /// segment GC must hand them back or the id space only ever grows.
    free_pids: FreeList<ParticipantId>,
    /// Trunk-egress pseudo-participants draw RIDs from the reserved
    /// high range so the data plane accounts their replicas as trunk
    /// traffic ([`scallop_dataplane::switch::TRUNK_RID_BASE`]).
    next_trunk_pid: ParticipantId,
    /// Recycled trunk-egress ids (segment GC returns them).
    free_trunk_pids: FreeList<ParticipantId>,
    next_mgid: u16,
    free_mgids: FreeList<u16>,
    next_tracker: u16,
    free_trackers: FreeList<u16>,
    meetings: BTreeMap<MeetingId, MeetingState>,
    next_meeting: MeetingId,
    pinfo: BTreeMap<ParticipantId, Pinfo>,
    port_use: BTreeMap<u16, PortUse>,
    /// Half-open NRA trees awaiting a second meeting (m = 2 packing).
    nra_half: Vec<HalfTree>,
    /// Half-open RA-R tree triplets.
    rar_half: Vec<HalfTree>,
    policy: AdaptationPolicy,
    ewma_alpha: f64,
    /// What the last [`Self::handle_cpu_packet`] sends, drained by its
    /// caller; the vector is kept across calls.
    out: Vec<Packet>,
    /// Buffers of the responses and REMBs in flight.
    pool: BufPool,
    /// Telemetry.
    pub counters: AgentCounters,
}

/// Ids released for reuse, handed back **lowest first** in O(log n).
/// Reuse must be a function of the free *set*, never the release
/// *order*: teardown retires ids while iterating hash maps whose order
/// varies per instance, and a deterministic simulation must not let
/// that order leak into the ids later joins receive. Ports, pids and
/// tracker slots are never re-drawn by a recompile, so they match any
/// rebuild of the same roster; MGIDs are — a rebuild frees a tree
/// before drawing one — which is why [`SwitchAgent::check_compiled`]
/// names trees by their owner instead of comparing MGIDs.
#[derive(Debug, Default, Clone)]
pub struct FreeList<T: Ord>(BinaryHeap<Reverse<T>>);

impl<T: Ord> FreeList<T> {
    /// Return `id` to the pool.
    pub fn push(&mut self, id: T) {
        self.0.push(Reverse(id));
    }

    /// Take the smallest pooled id.
    pub fn take(&mut self) -> Option<T> {
        self.0.pop().map(|Reverse(id)| id)
    }
}

impl SwitchAgent {
    /// Create an agent managing the switch at `sfu_ip`.
    pub fn new(sfu_ip: Ipv4Addr) -> Self {
        SwitchAgent {
            sfu_ip,
            next_port: 10_000,
            port_limit: u16::MAX,
            free_ports: FreeList::default(),
            next_pid: 1,
            free_pids: FreeList::default(),
            next_trunk_pid: scallop_dataplane::switch::TRUNK_RID_BASE,
            free_trunk_pids: FreeList::default(),
            next_mgid: 1,
            free_mgids: FreeList::default(),
            next_tracker: 0,
            free_trackers: FreeList::default(),
            meetings: BTreeMap::new(),
            next_meeting: 1,
            pinfo: BTreeMap::new(),
            port_use: BTreeMap::new(),
            nra_half: Vec::new(),
            rar_half: Vec::new(),
            policy: default_policy(DEFAULT_DT_THRESHOLDS),
            // React within ~2 feedback intervals: the point of SFU-side
            // adaptation is to shed layers *before* the receiver's queue
            // overflows (§5.3).
            ewma_alpha: 0.5,
            out: Vec::new(),
            pool: BufPool::new(RESPONSE_POOL_LIMIT),
            counters: AgentCounters::default(),
        }
    }

    /// Builder: allocate SFU ports from `[base, limit)` instead of
    /// 10 000 and up. In a fabric, every edge gets a disjoint port range
    /// so trunk packets route on the destination port alone
    /// (`netsim::topology`); allocating past the range would silently
    /// misroute, so it panics instead.
    pub fn with_port_range(mut self, base: u16, limit: u16) -> Self {
        assert!(base < limit);
        self.next_port = base;
        self.port_limit = limit;
        self
    }

    /// Replace the decode-target policy (the §5.4 extension point).
    pub fn set_policy(&mut self, policy: AdaptationPolicy) {
        self.policy = policy;
    }

    /// The switch's IP.
    pub fn sfu_ip(&self) -> Ipv4Addr {
        self.sfu_ip
    }

    /// Create a meeting.
    pub fn create_meeting(&mut self) -> MeetingId {
        let id = self.next_meeting;
        self.next_meeting += 1;
        self.meetings.insert(
            id,
            MeetingState {
                participants: Vec::new(),
                design: TreeDesign::TwoParty,
                trees: Vec::new(),
                egress_keys: Vec::new(),
                configured: false,
            },
        );
        id
    }

    /// Current design of a meeting.
    pub fn design_of(&self, meeting: MeetingId) -> Option<TreeDesign> {
        self.meetings.get(&meeting).map(|m| m.design)
    }

    /// Decode target currently applied to a participant (as receiver).
    pub fn dt_of(&self, pid: ParticipantId) -> Option<u8> {
        self.pinfo.get(&pid).map(|p| p.dt)
    }

    /// The SFU address `receiver` gets `sender`'s video from (and sends
    /// video feedback to).
    pub fn video_pair_addr(
        &self,
        sender: ParticipantId,
        receiver: ParticipantId,
    ) -> Option<HostAddr> {
        self.pinfo
            .get(&receiver)
            .and_then(|p| p.pair_from.get(&sender))
            .map(|&(v, _)| HostAddr::new(self.sfu_ip, v))
    }

    fn alloc_port(&mut self, usage: PortUse) -> u16 {
        let p = self.free_ports.take().unwrap_or_else(|| {
            let p = self.next_port;
            assert!(
                p < self.port_limit,
                "SFU port range exhausted (limit {})",
                self.port_limit
            );
            self.next_port += 1;
            p
        });
        self.port_use.insert(p, usage);
        p
    }

    /// Retire a port allocated by [`Self::alloc_port`]: drop its usage
    /// entry and data-plane rule, and queue the number for reuse.
    fn release_port(&mut self, dp: &mut ScallopDataPlane, port: u16) {
        if self.port_use.remove(&port).is_some() {
            self.free_ports.push(port);
        }
        dp.remove_port_rule(port);
    }

    fn alloc_mgid(&mut self) -> u16 {
        self.free_mgids.take().unwrap_or_else(|| {
            let m = self.next_mgid;
            self.next_mgid = self.next_mgid.wrapping_add(1);
            m
        })
    }

    fn alloc_tracker(&mut self) -> u16 {
        self.free_trackers.take().unwrap_or_else(|| {
            let t = self.next_tracker;
            self.next_tracker = self.next_tracker.wrapping_add(1);
            t
        })
    }

    /// Add a local participant to a meeting; installs all data-plane
    /// state. A join is a burst of one: this is [`Self::join_many`] with
    /// a one-element batch.
    pub fn join(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        addr: HostAddr,
        sends: bool,
    ) -> JoinGrant {
        self.join_many(dp, meeting, &[(addr, sends)])[0]
    }

    /// Register a sender homed on another edge switch, whose media
    /// arrives over `tier` and prunes that tier's branches here
    /// ([`TRUNK_XID`], [`WAN_XID`]). The returned grant's uplink
    /// addresses are this switch's **trunk-ingress** ports: the upstream
    /// switch points its trunk-egress branch at them. `home_addr` is
    /// where receivers' feedback for this sender is forwarded — the
    /// sender's real client address, or its home edge's feedback-sink
    /// port when the home edge aggregates REMBs fabric-wide.
    pub fn join_remote_sender(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        home_addr: HostAddr,
        tier: Tier,
    ) -> JoinGrant {
        let class = ParticipantClass::RemoteSender;
        let grant = self.admit(dp, meeting, home_addr, true, class, tier as u16);
        self.compile_joined(dp, meeting, &[grant]);
        grant
    }

    /// Register a remote edge switch as a trunk-egress pseudo-receiver:
    /// it joins every tree at full quality, so each local sender's
    /// stream crosses the fabric exactly once per remote switch. Use
    /// [`Self::set_trunk_dst`] to point it at the remote switch's
    /// trunk-ingress ports as remote senders are granted. On
    /// [`Tier::Wan`] the remote switch is another zone's gateway edge,
    /// and only a zone's gateway edge holds such branches ([`WAN_XID`]).
    pub fn join_egress(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        tier: Tier,
    ) -> ParticipantId {
        // Placeholder address — trunk replicas resolve their destination
        // per sender through `trunk_dst`.
        let addr = HostAddr::new(self.sfu_ip, 0);
        let class = ParticipantClass::TrunkEgress;
        let grant = self.admit(dp, meeting, addr, false, class, tier as u16);
        self.compile_joined(dp, meeting, &[grant]);
        grant.participant
    }

    /// [`Self::join_egress`] on the trunk tier, under the name the
    /// frozen `benchmark/src/sut.rs` calls — its only caller.
    pub fn join_trunk_egress(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
    ) -> ParticipantId {
        self.join_egress(dp, meeting, Tier::Trunk)
    }

    /// Point the trunk-egress branch `trunk` at the remote trunk-ingress
    /// addresses for local sender `sender`, then recompile the meeting —
    /// incrementally (only the one re-aimed branch) when the installed
    /// layout holds, with a full rebuild as the fallback. Returns
    /// whether the destination changed; a branch already aimed there is
    /// left alone, which is what makes a repair pass idempotent.
    pub fn set_trunk_dst(
        &mut self,
        dp: &mut ScallopDataPlane,
        trunk: ParticipantId,
        sender: ParticipantId,
        video_dst: HostAddr,
        audio_dst: HostAddr,
    ) -> bool {
        let Some(p) = self.pinfo.get_mut(&trunk) else {
            return false;
        };
        debug_assert_eq!(p.class, ParticipantClass::TrunkEgress);
        let dst = (video_dst, audio_dst);
        if p.trunk_dst.insert(sender, dst) == Some(dst) {
            return false;
        }
        let meeting = p.meeting;
        if !self.try_point_trunk(dp, meeting, trunk, sender) {
            self.rebuild_meeting(dp, meeting);
        }
        true
    }

    /// Allocate (idempotently) the feedback-sink port for local sender
    /// `sender`: a CPU-only port remote edges forward their per-edge
    /// selected REMB and NACK/PLI to. Activating the sink switches the
    /// sender's REMB source to the agent's fabric-wide min-aggregate
    /// (§5.3's single selection, one level up), so direct REMB
    /// forwarding on the sender's local pair ports is disabled here.
    pub fn feedback_sink(&mut self, dp: &mut ScallopDataPlane, sender: ParticipantId) -> u16 {
        let p = self.pinfo.get(&sender).expect("sender tracked");
        debug_assert!(p.sends, "feedback sink only serves senders");
        if let Some(port) = p.sink_port {
            return port;
        }
        let meeting = p.meeting;
        let port = self.alloc_port(PortUse::FeedbackSink { sender });
        dp.install_port_rule(port, PortRule::FeedbackSink)
            .expect("port rule capacity");
        self.pinfo.get_mut(&sender).unwrap().sink_port = Some(port);
        // Take over REMB forwarding immediately: local pairs stop
        // forwarding raw REMBs the moment remote edges start reporting.
        let receivers: Vec<ParticipantId> = self
            .meetings
            .get(&meeting)
            .map(|m| m.participants.clone())
            .unwrap_or_default()
            .into_iter()
            .filter(|&r| {
                r != sender
                    && self.pinfo[&r].class == ParticipantClass::Local
                    && self.pinfo[&r].pair_from.contains_key(&sender)
            })
            .collect();
        for r in receivers {
            self.install_feedback_rules(dp, sender, r, false);
        }
        port
    }

    /// Forget the REMB estimate previously reported by the remote edge
    /// at `edge_ip` for `sender` (its segment was garbage-collected; a
    /// stale estimate must not cap the aggregate forever).
    pub fn clear_remote_est(&mut self, sender: ParticipantId, edge_ip: Ipv4Addr) {
        if let Some(p) = self.pinfo.get_mut(&sender) {
            p.remote_ests.remove(&edge_ip);
        }
    }

    /// The (video, audio) uplink ports of a tracked participant entry —
    /// for a remote-sender entry, its trunk-ingress ports (the
    /// controller re-derives trunk destinations from these when a zone
    /// gateway migrates).
    pub fn uplink_ports(&self, pid: ParticipantId) -> Option<(u16, u16)> {
        self.pinfo.get(&pid).map(|p| (p.video_up, p.audio_up))
    }

    /// Admit a burst of local participants with **one** compile: each
    /// joiner's ids, ports, and pair ports are allocated in input order,
    /// then the meeting is compiled once for the whole batch — a batch of
    /// one is grafted onto the installed layout when it can be amended
    /// in place, anything else rebuilds the meeting once. A flash-crowd
    /// storm of N admissions costs one O(N) compile instead of N of
    /// them.
    pub fn join_many(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        joins: &[(HostAddr, bool)],
    ) -> Vec<JoinGrant> {
        let mut grants = Vec::with_capacity(joins.len());
        self.join_many_into(dp, meeting, joins.iter().copied(), &mut grants);
        grants
    }

    /// [`Self::join_many`] appending the grants to a caller-held buffer
    /// (the controller reuses one across joins).
    pub(crate) fn join_many_into(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        joins: impl Iterator<Item = (HostAddr, bool)>,
        grants: &mut Vec<JoinGrant>,
    ) {
        let first = grants.len();
        for (addr, sends) in joins {
            grants.push(self.admit(dp, meeting, addr, sends, ParticipantClass::Local, TRUNK_XID));
        }
        self.compile_joined(dp, meeting, &grants[first..]);
    }

    /// The one compile rule for admitted participants: a batch of one
    /// is grafted onto the installed layout when it can be amended in
    /// place ([`Self::graft_tiers`]); anything else — a larger batch, or
    /// a layout that cannot take a graft — rebuilds the meeting once.
    fn compile_joined(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        joined: &[JoinGrant],
    ) {
        match joined {
            [] => {}
            [one] if self.try_graft_join(dp, meeting, one.participant) => {}
            _ => self.rebuild_meeting(dp, meeting),
        }
    }

    /// Allocate a participant's admission state — id, uplink ports,
    /// pair ports, bookkeeping — without compiling the meeting. The
    /// caller compiles once per batch ([`Self::compile_joined`]).
    fn admit(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        addr: HostAddr,
        sends: bool,
        class: ParticipantClass,
        fabric_xid: u16,
    ) -> JoinGrant {
        let pid = if class == ParticipantClass::TrunkEgress {
            self.free_trunk_pids.take().unwrap_or_else(|| {
                let p = self.next_trunk_pid;
                // Wrapping below the reserved range would collide with
                // live local participants and silently unaccount trunk
                // traffic — fail loudly instead (GC recycles ids, so
                // only a true high-water mark can reach this).
                assert!(
                    p >= scallop_dataplane::switch::TRUNK_RID_BASE,
                    "trunk-egress id space exhausted"
                );
                self.next_trunk_pid = p.wrapping_add(1);
                p
            })
        } else {
            self.free_pids.take().unwrap_or_else(|| {
                let p = self.next_pid;
                self.next_pid += 1;
                p
            })
        };
        let (video_up, audio_up) = if class == ParticipantClass::TrunkEgress {
            (0, 0) // receives through trunk branches, has no uplink
        } else {
            (
                self.alloc_port(PortUse::VideoUplink(pid)),
                self.alloc_port(PortUse::AudioUplink(pid)),
            )
        };
        // The participant's abstract egress port (for PRE pruning) is its
        // pid; register the L2 XID -> port mapping once.
        dp.pre.set_l2_xid_ports(pid, vec![pid]);
        self.pinfo.insert(
            pid,
            Pinfo {
                meeting,
                class,
                addr,
                sends,
                trunk_dst: HashMap::new(),
                fabric_xid,
                sink_port: None,
                remote_ests: HashMap::new(),
                video_up,
                audio_up,
                dt: 2,
                dt_cap: 2,
                dt_per_sender: HashMap::new(),
                ewma: HashMap::new(),
                est_hist: HashMap::new(),
                pair_from: HashMap::new(),
                tracker_idx: HashMap::new(),
                last_dt_change: None,
            },
        );
        // Allocate pair ports against every existing co-participant, in
        // both directions (each skipped when the would-be sender does
        // not send or the would-be receiver does not receive on this
        // switch).
        let existing: Vec<ParticipantId> = self.meetings[&meeting].participants.clone();
        for other in existing {
            self.ensure_pair_ports(other, pid);
            self.ensure_pair_ports(pid, other);
        }
        self.meetings
            .get_mut(&meeting)
            .expect("meeting exists")
            .participants
            .push(pid);
        JoinGrant {
            participant: pid,
            video_uplink: HostAddr::new(self.sfu_ip, video_up),
            audio_uplink: HostAddr::new(self.sfu_ip, audio_up),
        }
    }

    /// Whether `pid` receives media on this switch.
    fn receives(&self, pid: ParticipantId) -> bool {
        self.pinfo
            .get(&pid)
            .map(|p| p.class != ParticipantClass::RemoteSender)
            .unwrap_or(false)
    }

    /// Whether a meeting segment spans the fabric (has any non-local
    /// participant entries).
    fn is_fabric_segment(&self, meeting: MeetingId) -> bool {
        self.meetings
            .get(&meeting)
            .map(|m| {
                m.participants
                    .iter()
                    .any(|p| self.pinfo[p].class != ParticipantClass::Local)
            })
            .unwrap_or(false)
    }

    /// Remove a participant; prunes its branches from the installed
    /// layout when the design holds, or tears down and rebuilds the
    /// meeting state otherwise.
    pub fn leave(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId, pid: ParticipantId) {
        let Some(m) = self.meetings.get_mut(&meeting) else {
            return;
        };
        m.participants.retain(|&p| p != pid);
        // Remove the leaver's replication branches before its state goes.
        let trees = m.trees.clone();
        for (mgid, _) in trees {
            let _ = dp.pre.remove_node(mgid, pid);
        }
        // The leaver's uplink ports identify its sender-side egress
        // entries; capture them before the entry is dropped so the
        // prune can find them.
        let mut leaver_uplinks = (0u16, 0u16);
        if let Some(p) = self.pinfo.remove(&pid) {
            leaver_uplinks = (p.video_up, p.audio_up);
            self.release_port(dp, p.video_up);
            self.release_port(dp, p.audio_up);
            if let Some(sp) = p.sink_port {
                self.release_port(dp, sp);
            }
            for &(v, a) in p.pair_from.values() {
                self.release_port(dp, v);
                self.release_port(dp, a);
            }
            for (_, idx) in p.tracker_idx {
                dp.tracker.clear_stream(idx as usize);
                self.free_trackers.push(idx);
            }
            // Recycle the id: pids double as PRE RIDs / L2 XIDs, and a
            // fabric edge under churn would otherwise exhaust them.
            dp.pre.clear_l2_xid_ports(pid);
            if p.class == ParticipantClass::TrunkEgress {
                self.free_trunk_pids.push(pid);
            } else {
                self.free_pids.push(pid);
            }
        }
        // Drop pair ports (and trunk destinations) the meeting's other
        // participants held toward `pid` (pairs never span meetings),
        // plus any feedback state keyed by the dead id — a later
        // participant recycling the pid must not inherit another
        // receiver's EWMA history or per-sender decode targets.
        let mut freed_pairs = Vec::new();
        for q in &self.meetings[&meeting].participants {
            let q = self.pinfo.get_mut(q).expect("participant tracked");
            if let Some((v, a)) = q.pair_from.remove(&pid) {
                freed_pairs.push(v);
                freed_pairs.push(a);
            }
            if let Some(idx) = q.tracker_idx.remove(&pid) {
                dp.tracker.clear_stream(idx as usize);
                self.free_trackers.push(idx);
            }
            q.trunk_dst.remove(&pid);
            q.ewma.remove(&pid);
            q.est_hist.remove(&pid);
            q.dt_per_sender.remove(&pid);
        }
        for port in freed_pairs {
            self.release_port(dp, port);
        }
        if !self.try_prune_leave(dp, meeting, pid, leaver_uplinks) {
            self.rebuild_meeting(dp, meeting);
        }
    }

    /// Destroy an **empty** meeting (fabric segment GC): releases any
    /// trees and egress rules still held and drops the bookkeeping
    /// entry, returning its MGIDs to the pool. Panics if participants
    /// remain — the controller must drain a segment before collecting
    /// it.
    pub fn destroy_meeting(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId) {
        let Some(m) = self.meetings.get(&meeting) else {
            return;
        };
        assert!(
            m.participants.is_empty(),
            "destroy_meeting on a non-empty meeting"
        );
        let trees = m.trees.clone();
        let keys = m.egress_keys.clone();
        for key in &keys {
            dp.remove_egress(*key);
        }
        if !trees.is_empty() {
            self.release_trees(dp, &trees, meeting);
        }
        self.meetings.remove(&meeting);
    }

    /// SFU ports currently allocated (uplinks + pair ports). Under churn
    /// with GC this must return to its pre-meeting value.
    pub fn ports_in_use(&self) -> usize {
        self.port_use.len()
    }

    /// Participant entries (local, remote-sender, and trunk-egress)
    /// currently tracked on this switch.
    pub fn participants_tracked(&self) -> usize {
        self.pinfo.len()
    }

    /// Meetings (local segments) currently tracked on this switch.
    pub fn meetings_tracked(&self) -> usize {
        self.meetings.len()
    }

    /// Ports `receiver` is served `sender`'s media from.
    fn ensure_pair_ports(&mut self, sender: ParticipantId, receiver: ParticipantId) {
        if !self.receives(receiver) {
            return; // remote senders never receive on this switch
        }
        if !self.pinfo[&sender].sends {
            // No rule, egress spec or feedback gate is ever installed
            // toward a non-sender (trunk egress included): a pair port
            // exists per (sending participant → receiver) stream.
            return;
        }
        if self.pinfo[&sender].class == ParticipantClass::RemoteSender
            && self.pinfo[&receiver].class == ParticipantClass::TrunkEgress
            && self.pinfo[&sender].fabric_xid == self.pinfo[&receiver].fabric_xid
        {
            // Fabric traffic never re-crosses its own tier: a
            // trunk-arrived sender skips trunk branches and a
            // WAN-arrived sender skips WAN branches. The *other* tier's
            // branches are traversed (a WAN-arrived stream fans out
            // over this gateway's intra-zone trunks), so those pairs
            // are still plumbed.
            return;
        }
        if self
            .pinfo
            .get(&receiver)
            .map(|p| p.pair_from.contains_key(&sender))
            .unwrap_or(true)
        {
            return;
        }
        let v = self.alloc_port(PortUse::PairVideo { sender, receiver });
        let a = self.alloc_port(PortUse::PairAudio { sender, receiver });
        self.pinfo
            .get_mut(&receiver)
            .expect("receiver exists")
            .pair_from
            .insert(sender, (v, a));
    }

    /// Decide the design a meeting currently needs.
    fn desired_design(&self, meeting: MeetingId) -> TreeDesign {
        let m = &self.meetings[&meeting];
        // The two-party fast path is a strictly local optimization: a
        // fabric segment always needs trees (trunk branches live there).
        if m.participants.len() <= 2 && !self.is_fabric_segment(meeting) {
            return TreeDesign::TwoParty;
        }
        let any_per_sender = m
            .participants
            .iter()
            .any(|p| !self.pinfo[p].dt_per_sender.is_empty());
        if any_per_sender {
            return TreeDesign::RaSr;
        }
        let any_adapted = m.participants.iter().any(|p| self.pinfo[p].dt < 2);
        if any_adapted {
            TreeDesign::RaR
        } else {
            TreeDesign::Nra
        }
    }

    /// Effective decode target of `receiver` for `sender`'s stream.
    fn effective_dt(&self, sender: ParticipantId, receiver: ParticipantId) -> u8 {
        let p = &self.pinfo[&receiver];
        *p.dt_per_sender.get(&sender).unwrap_or(&p.dt)
    }

    /// Allocate `count` exclusive (unshared) trees. Fabric segments use
    /// these: their L1 XIDs carry trunk pruning, not packing slots.
    fn alloc_exclusive_trees(&mut self, dp: &mut ScallopDataPlane, count: usize) -> Vec<u16> {
        let mut mgids = Vec::with_capacity(count);
        for _ in 0..count {
            let mgid = self.alloc_mgid();
            dp.create_tree(mgid).expect("PRE group budget exhausted");
            mgids.push(mgid);
        }
        mgids
    }

    /// Allocate a paired tree set (NRA: 1 mgid; RA-R: 3) — reuses a
    /// half-open tree from another meeting when possible (m = 2 packing,
    /// §6.1/Fig. 11c). Returns (mgids, slot_xid).
    fn alloc_paired_trees(
        &mut self,
        dp: &mut ScallopDataPlane,
        count: usize,
        half_pool: fn(&mut Self) -> &mut Vec<HalfTree>,
    ) -> (Vec<u16>, u8) {
        if let Some(half) = half_pool(self).pop() {
            return (half.mgids, half.free_slot);
        }
        let mut mgids = Vec::with_capacity(count);
        for _ in 0..count {
            let mgid = self.alloc_mgid();
            dp.create_tree(mgid).expect("PRE group budget exhausted");
            mgids.push(mgid);
        }
        // This meeting takes slot 1; slot 2 goes back to the pool.
        half_pool(self).push(HalfTree {
            mgids: mgids.clone(),
            free_slot: 2,
        });
        (mgids, 1)
    }

    /// Release a meeting's trees: clear its nodes; paired trees are
    /// handed back to the half-open pool (or destroyed when the partner
    /// slot is still unclaimed / already gone); exclusive trees are
    /// destroyed outright.
    fn release_trees(
        &mut self,
        dp: &mut ScallopDataPlane,
        trees: &[(u16, u8)],
        meeting: MeetingId,
    ) {
        if trees.is_empty() {
            return;
        }
        // Remove this meeting's nodes from every tree it owned.
        let participants = self.meetings[&meeting].participants.clone();
        for &(mgid, _) in trees {
            for &pid in &participants {
                let _ = dp.pre.remove_node(mgid, pid);
            }
        }
        // Exclusive trees (slot 0, RA-SR): destroy each.
        let exclusive: Vec<u16> = trees
            .iter()
            .filter(|&&(_, slot)| slot == 0)
            .map(|&(g, _)| g)
            .collect();
        for g in &exclusive {
            let _ = dp.pre.destroy_group(*g);
            self.free_mgids.push(*g);
        }
        let shared: Vec<(u16, u8)> = trees
            .iter()
            .copied()
            .filter(|&(_, slot)| slot != 0)
            .collect();
        if shared.is_empty() {
            return;
        }
        let mgids: Vec<u16> = shared.iter().map(|&(g, _)| g).collect();
        let my_slot = shared[0].1;
        // If the partner slot is still waiting in a half pool, the trees
        // are now empty: destroy them and drop the pool entry. Otherwise
        // the partner meeting is live: return our slot to the pool.
        let pool = if mgids.len() == 1 {
            &mut self.nra_half
        } else {
            &mut self.rar_half
        };
        if let Some(i) = pool.iter().position(|h| h.mgids == mgids) {
            pool.remove(i);
            for g in mgids {
                let _ = dp.pre.destroy_group(g);
                self.free_mgids.push(g);
            }
        } else {
            pool.push(HalfTree {
                mgids,
                free_slot: my_slot,
            });
        }
    }

    /// Recompute and install all data-plane state for a meeting
    /// (make-before-break: new trees first, rule swap, old trees last).
    fn rebuild_meeting(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId) {
        let design = self.desired_design(meeting);
        let old_design = self.meetings[&meeting].design;
        if old_design != design && self.meetings[&meeting].configured {
            self.counters.migrations += 1;
        }
        let participants = self.meetings[&meeting].participants.clone();
        let old_trees = std::mem::take(&mut self.meetings.get_mut(&meeting).unwrap().trees);
        let old_keys = std::mem::take(&mut self.meetings.get_mut(&meeting).unwrap().egress_keys);

        // Release the old layout first. The swap is atomic at simulation
        // granularity (no packet is processed mid-rebuild), so this is
        // observationally equivalent to the real agent's make-before-break
        // migration (§6.1) while preventing the rebuild from re-acquiring
        // its own half-open trees.
        for key in &old_keys {
            dp.remove_egress(*key);
        }
        if !old_trees.is_empty() {
            self.release_trees(dp, &old_trees, meeting);
        }

        let mut new_trees: Vec<(u16, u8)> = Vec::new();
        let mut new_keys: Vec<EgressKey> = Vec::new();
        // Fabric segments use exclusive trees: the L1 XID budget is
        // spent on trunk pruning (TRUNK_XID) rather than on the m = 2
        // meeting-packing slots, so they never share trees with another
        // meeting. Purely local meetings keep the packed layout.
        let fabric = self.is_fabric_segment(meeting);

        // Nothing to forward (no sender, or no one left who receives —
        // e.g. a drained fabric segment holding only its trunk-egress
        // branch): keep the segment treeless instead of leaking a PRE
        // group per churned meeting.
        let any_sender = participants.iter().any(|p| self.pinfo[p].sends);
        let any_receiver = participants.iter().any(|&p| self.receives(p));
        if (!any_sender || !any_receiver) && design != TreeDesign::TwoParty {
            let m = self.meetings.get_mut(&meeting).unwrap();
            m.design = design;
            return;
        }

        match design {
            TreeDesign::TwoParty => {
                self.install_two_party(dp, &participants);
            }
            TreeDesign::Nra => {
                let (mgids, slot) = if fabric {
                    (self.alloc_exclusive_trees(dp, 1), 0)
                } else {
                    self.alloc_paired_trees(dp, 1, |a| &mut a.nra_half)
                };
                let mgid = mgids[0];
                new_trees.push((mgid, slot));
                self.populate_tier_trees(
                    dp,
                    meeting,
                    &participants,
                    &[mgid, mgid, mgid],
                    slot,
                    &mut new_keys,
                );
            }
            TreeDesign::RaR => {
                let (mgids, slot) = if fabric {
                    (self.alloc_exclusive_trees(dp, 3), 0)
                } else {
                    self.alloc_paired_trees(dp, 3, |a| &mut a.rar_half)
                };
                for &g in &mgids {
                    new_trees.push((g, slot));
                }
                let tiers = [mgids[0], mgids[1], mgids[2]];
                self.populate_tier_trees(dp, meeting, &participants, &tiers, slot, &mut new_keys);
            }
            TreeDesign::RaSr => {
                self.install_ra_sr(dp, &participants, &mut new_trees, &mut new_keys);
            }
        }

        let m = self.meetings.get_mut(&meeting).unwrap();
        m.design = design;
        m.trees = new_trees;
        m.egress_keys = new_keys;
        m.configured = m.configured || m.participants.len() >= 2;
    }

    /// Preconditions under which the installed layout can be amended in
    /// place, plus the per-tier MGIDs to amend. `None` means the delta
    /// compiler must fall back to a full rebuild: no trees installed
    /// (two-party or treeless segment), a design flip (make-before-break
    /// migration), RA-SR (whose per-sender-chunk tree sets re-chunk on
    /// membership change), a fabric-ness flip (exclusive vs packed trees
    /// must swap), or a packed tree whose partner slot sits unclaimed in
    /// the half pool (a full rebuild would repack onto it, so the delta
    /// path must converge to the same layout by rebuilding too).
    fn graft_tiers(&self, meeting: MeetingId) -> Option<[u16; 3]> {
        let m = self.meetings.get(&meeting)?;
        if m.trees.is_empty() {
            return None;
        }
        if self.desired_design(meeting) != m.design {
            return None;
        }
        let expected = match m.design {
            TreeDesign::Nra => 1,
            TreeDesign::RaR => 3,
            _ => return None,
        };
        if m.trees.len() != expected {
            return None;
        }
        let slot = m.trees[0].1;
        if self.is_fabric_segment(meeting) != (slot == 0) {
            return None;
        }
        if slot != 0 {
            let mgids: Vec<u16> = m.trees.iter().map(|&(g, _)| g).collect();
            let pool = if expected == 1 {
                &self.nra_half
            } else {
                &self.rar_half
            };
            if pool.iter().any(|h| h.mgids == mgids) {
                return None;
            }
        }
        Some(if expected == 1 {
            [m.trees[0].0; 3]
        } else {
            [m.trees[0].0, m.trees[1].0, m.trees[2].0]
        })
    }

    /// Graft a just-admitted participant onto the installed layout:
    /// its L1 receiver branches, its egress specs against every
    /// existing sender, its uplink rules and branches toward every
    /// existing receiver — without touching any other pair. Returns
    /// `false` when the layout cannot be amended in place (the caller
    /// falls back to [`Self::rebuild_meeting`]).
    fn try_graft_join(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        pid: ParticipantId,
    ) -> bool {
        let Some(tiers) = self.graft_tiers(meeting) else {
            return false;
        };
        self.counters.graft_joins += 1;
        let fabric = self.is_fabric_segment(meeting);
        let slot = self.meetings[&meeting].trees[0].1;
        let nra = tiers[0] == tiers[1]; // single-tree design
        let participants = self.meetings[&meeting].participants.clone();
        let mut new_keys: Vec<EgressKey> = Vec::new();

        if self.receives(pid) {
            // One L1 branch per tier tree (a fresh joiner's dt is 2, so
            // an RA-R graft lands in all three tiers).
            let is_trunk = self.pinfo[&pid].class == ParticipantClass::TrunkEgress;
            let dt = if is_trunk { 2 } else { self.pinfo[&pid].dt };
            for (t, &mgid) in tiers.iter().enumerate() {
                if !nra && (t as u8) > dt {
                    continue;
                }
                if nra && t > 0 {
                    continue;
                }
                let (xid, prune_enabled) = if is_trunk {
                    (self.pinfo[&pid].fabric_xid, true)
                } else if fabric {
                    (0, false)
                } else {
                    (slot as u16, true)
                };
                dp.pre
                    .add_node(
                        mgid,
                        L1Node {
                            rid: pid,
                            xid,
                            prune_enabled,
                            ports: vec![pid],
                        },
                    )
                    .expect("L1 node budget");
            }
            // Every existing sender reaches the new receiver.
            for &s in &participants {
                if s == pid || !self.pinfo[&s].sends || self.skip_fabric_recross(s, pid) {
                    continue;
                }
                self.install_pair_egress(dp, s, pid, &tiers, &mut new_keys);
            }
        }
        if self.pinfo[&pid].sends {
            // The new sender's uplink rules, plus branches toward every
            // existing receiver.
            self.install_sender_uplinks(dp, pid, &tiers, slot, fabric);
            for &r in &participants {
                if r == pid || !self.receives(r) || self.skip_fabric_recross(pid, r) {
                    continue;
                }
                self.install_pair_egress(dp, pid, r, &tiers, &mut new_keys);
            }
        }
        // The join may displace a best-downlink selection (a fresh
        // receiver's unknown EWMA scores as best, §5.3), and the new
        // pairs need their feedback rules installed: re-run the filter,
        // which touches only the rules whose gate is missing or wrong.
        self.refresh_feedback_gates(dp, meeting, false);
        let m = self.meetings.get_mut(&meeting).unwrap();
        m.egress_keys.extend(new_keys);
        m.configured = m.configured || m.participants.len() >= 2;
        true
    }

    /// Prune a departed participant's branches from the installed
    /// layout (its L1 nodes are already gone): drop its egress entries
    /// — as receiver (keyed by its rid) and as sender (keyed by its
    /// uplink in-ports) — and re-run the feedback filter, since the
    /// leaver may have held a sender's best-downlink selection. Returns
    /// `false` when the layout must be rebuilt instead.
    fn try_prune_leave(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        pid: ParticipantId,
        leaver_uplinks: (u16, u16),
    ) -> bool {
        if self.graft_tiers(meeting).is_none() {
            return false;
        }
        // A rebuild would go treeless when no sender or no receiver
        // remains — converge by rebuilding.
        let m = &self.meetings[&meeting];
        let any_sender = m.participants.iter().any(|p| self.pinfo[p].sends);
        let any_receiver = m.participants.iter().any(|&p| self.receives(p));
        if !any_sender || !any_receiver {
            return false;
        }
        self.counters.prune_leaves += 1;
        let (leaver_vup, leaver_aup) = leaver_uplinks;
        let m = self.meetings.get_mut(&meeting).unwrap();
        let mut dropped = Vec::new();
        m.egress_keys.retain(|k| {
            // A trunk-egress leaver's uplinks are (0, 0), which no
            // egress entry keys on — only the rid test fires for it.
            if k.rid == pid || k.in_port == leaver_vup || k.in_port == leaver_aup {
                dropped.push(*k);
                false
            } else {
                true
            }
        });
        for k in dropped {
            dp.remove_egress(k);
        }
        self.refresh_feedback_gates(dp, meeting, false);
        true
    }

    /// Re-aim (or light up) the single (sender → trunk) egress branch a
    /// `set_trunk_dst` changes, leaving the rest of the compiled
    /// meeting untouched. Returns `false` when the caller must fall
    /// back to a full rebuild.
    fn try_point_trunk(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        trunk: ParticipantId,
        sender: ParticipantId,
    ) -> bool {
        let Some(tiers) = self.graft_tiers(meeting) else {
            return false;
        };
        let Some(sp) = self.pinfo.get(&sender) else {
            return false;
        };
        if !sp.sends {
            return false;
        }
        if self.skip_fabric_recross(sender, trunk) {
            return true; // deliberately unplumbed pair: nothing to install
        }
        if !self.pinfo[&trunk].pair_from.contains_key(&sender) {
            return false;
        }
        let mut new_keys = Vec::new();
        self.install_trunk_egress(dp, sender, trunk, &tiers, &mut new_keys);
        let m = self.meetings.get_mut(&meeting).unwrap();
        for k in new_keys {
            // A re-aim overwrites entries the meeting already tracks.
            if !m.egress_keys.contains(&k) {
                m.egress_keys.push(k);
            }
        }
        true
    }

    /// Whether fabric traffic from sender `s` must not reach receiver
    /// `r`: media that already crossed the fabric never re-crosses the
    /// tier (trunk or WAN) it arrived on.
    fn skip_fabric_recross(&self, s: ParticipantId, r: ParticipantId) -> bool {
        self.pinfo[&r].class == ParticipantClass::TrunkEgress
            && self.pinfo[&s].class == ParticipantClass::RemoteSender
            && self.pinfo[&r].fabric_xid == self.pinfo[&s].fabric_xid
    }

    /// Check this switch's compiled state against its roster; read-only,
    /// `Err` names the first violation.
    ///
    /// * **Ownership.** Every installed port rule has a `port_use`
    ///   entry, every tracked participant one L2 XID, every installed
    ///   egress entry is tracked by exactly one meeting, every PRE group
    ///   is in some meeting's trees or a half pool with no slot claimed
    ///   twice, and no port, pid, MGID or tracker slot is both free and
    ///   in use. Orphans survive a rebuild, so only this half sees them.
    /// * **Equivalence.** A copy of the agent and of the data plane's
    ///   tables rebuilds every meeting from scratch (`rebuild_meeting`,
    ///   the delta compiler's fallback), and its canonical state must
    ///   equal the installed one. Trees are named by their owner, so
    ///   which MGID a tree drew, and which meeting shares a packed tree,
    ///   never count as a difference.
    ///
    /// REMB gates are re-evaluated on the agent tick, not per feedback
    /// copy, so while media flows a rebuild computes gates fresher than
    /// the installed ones: this is a check for media-free control
    /// histories.
    pub fn check_compiled(&self, dp: &ScallopDataPlane) -> Result<(), String> {
        self.check_ownership(dp)?;
        let live = self.canonical_state(dp)?;
        let (mut agent, mut copy) = self.copy_with(dp);
        for &meeting in self.meetings.keys() {
            agent.rebuild_meeting(&mut copy, meeting);
        }
        let rebuilt = agent.canonical_state(&copy)?;
        let first_diff =
            (0..live.len().max(rebuilt.len())).find(|&i| live.get(i) != rebuilt.get(i));
        match first_diff {
            None => Ok(()),
            Some(i) => Err(format!(
                "installed state differs from a rebuild at line {i}: installed {:?}, rebuilt {:?}",
                live.get(i),
                rebuilt.get(i)
            )),
        }
    }

    /// A copy of this agent and of `dp`'s compiled tables to compile on
    /// the side, with zeroed counters. The compile writes cadences but
    /// never reads tracker state, so a fresh tracker, which costs nothing
    /// until a stream is initialised, stands in for a copy of it.
    fn copy_with(&self, dp: &ScallopDataPlane) -> (SwitchAgent, ScallopDataPlane) {
        let mut copy = ScallopDataPlane::new(dp.tracker.mode());
        copy.port_rules = dp.port_rules.clone();
        copy.egress = dp.egress.clone();
        copy.pre = dp.pre.clone();
        (self.clone(), copy)
    }

    /// The ownership half of [`Self::check_compiled`].
    fn check_ownership(&self, dp: &ScallopDataPlane) -> Result<(), String> {
        if let Some((port, _)) = dp
            .port_rules
            .iter()
            .find(|(p, _)| !self.port_use.contains_key(p))
        {
            return Err(format!("port rule on {port} has no port_use entry"));
        }
        // Admission registers one L2 XID per entry and leave retires it.
        if dp.pre.l2_xids_used() != self.pinfo.len() {
            return Err(format!(
                "{} L2 XIDs for {} tracked participants",
                dp.pre.l2_xids_used(),
                self.pinfo.len()
            ));
        }
        let mut tracked: HashMap<EgressKey, usize> = HashMap::new();
        for key in self.meetings.values().flat_map(|m| &m.egress_keys) {
            *tracked.entry(*key).or_default() += 1;
        }
        for (key, _) in dp.egress.iter() {
            let n = tracked.get(key).copied().unwrap_or(0);
            if n != 1 {
                return Err(format!("egress {key:?} is tracked by {n} meetings"));
            }
        }
        // The slots each tree is held in, by meetings and half pools.
        let mut holders: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
        let halves = self.nra_half.iter().chain(&self.rar_half);
        for (mgid, slot) in self
            .meetings
            .values()
            .flat_map(|m| m.trees.iter().copied())
            .chain(halves.flat_map(|h| h.mgids.iter().map(|&g| (g, h.free_slot))))
        {
            holders.entry(mgid).or_default().push(slot);
        }
        // An exclusive tree (slot 0) has one holder, a packed one one per
        // slot.
        for (mgid, slots) in &mut holders {
            slots.sort_unstable();
            if !matches!(slots.as_slice(), [0] | [1] | [2] | [1, 2]) {
                return Err(format!("MGID {mgid} is held in slots {slots:?}"));
            }
        }
        let groups = dp.pre.canonical_config();
        if let Some((mgid, _)) = groups.iter().find(|(g, _)| !holders.contains_key(g)) {
            return Err(format!(
                "PRE group {mgid} is in no meeting's trees or half pool"
            ));
        }
        fn none_used(
            what: &str,
            free: &FreeList<u16>,
            used: impl Fn(&u16) -> bool,
        ) -> Result<(), String> {
            match free.0.iter().find(|Reverse(id)| used(id)) {
                Some(Reverse(id)) => Err(format!("{what} {id} is both free and in use")),
                None => Ok(()),
            }
        }
        let trackers: BTreeSet<u16> = self
            .pinfo
            .values()
            .flat_map(|p| p.tracker_idx.values().copied())
            .collect();
        none_used("port", &self.free_ports, |p| self.port_use.contains_key(p))?;
        none_used("pid", &self.free_pids, |p| self.pinfo.contains_key(p))?;
        none_used("pid", &self.free_trunk_pids, |p| self.pinfo.contains_key(p))?;
        none_used("MGID", &self.free_mgids, |g| holders.contains_key(g))?;
        none_used("tracker slot", &self.free_trackers, |t| {
            trackers.contains(t)
        })
    }

    /// The meeting of a tracked participant entry.
    fn meeting_of(&self, pid: ParticipantId) -> Result<MeetingId, String> {
        self.pinfo
            .get(&pid)
            .map(|p| p.meeting)
            .ok_or_else(|| format!("an entry names untracked participant {pid}"))
    }

    /// `mgid`'s index in `meeting`'s trees.
    fn tree_index(&self, meeting: MeetingId, mgid: u16) -> Result<usize, String> {
        self.meetings
            .get(&meeting)
            .and_then(|m| m.trees.iter().position(|&(g, _)| g == mgid))
            .ok_or_else(|| format!("an entry of meeting {meeting} names MGID {mgid}, not its tree"))
    }

    /// L1 XID `xid` as seen from `meeting`: on a packed tree its own
    /// slot reads 1 and its partner's 2, whichever slot it drew.
    fn slot_view(&self, meeting: MeetingId, xid: u16) -> u16 {
        match self.meetings[&meeting].trees.first() {
            Some(&(_, 2)) if xid == 1 || xid == 2 => 3 - xid,
            _ => xid,
        }
    }

    /// Deterministic dump of this switch's compiled state: installed
    /// port rules, egress entries and PRE nodes plus each meeting's
    /// design/tree/key bookkeeping, with every MGID named by its owner
    /// ([`Line`]) and every section sorted after renaming, so neither
    /// installation order nor MGID allocation is visible. (L2 XIDs are
    /// set at admission, never compiled.) `Err` when an entry names a
    /// tree its meeting does not own.
    fn canonical_state(&self, dp: &ScallopDataPlane) -> Result<Vec<Line>, String> {
        let ports: BTreeMap<u16, PortRule> = dp.port_rules.iter().map(|(&p, &r)| (p, r)).collect();
        let mut lines = Vec::with_capacity(ports.len() + dp.egress.len());
        for (port, mut rule) in ports {
            if let PortRule::SenderUplink { action, .. } | PortRule::TrunkIngress { action } =
                &mut rule
            {
                if let ReplicationAction::Multicast {
                    mgid_by_tier,
                    l1_xid,
                    rid,
                    ..
                } = action
                {
                    let meeting = self.meeting_of(*rid)?;
                    for g in mgid_by_tier.iter_mut() {
                        *g = self.tree_index(meeting, *g)? as u16;
                    }
                    *l1_xid = self.slot_view(meeting, *l1_xid);
                }
            }
            lines.push(Line::Port(port, rule));
        }
        let mut egress = BTreeMap::new();
        for (key, &spec) in dp.egress.iter() {
            let meeting = self.meeting_of(key.rid)?;
            let tree = (meeting, self.tree_index(meeting, key.mgid)?);
            egress.insert((tree, key.rid, key.in_port), spec);
        }
        lines.extend(
            egress
                .into_iter()
                .map(|((t, r, p), s)| Line::Egress(t, r, p, s)),
        );
        let mut nodes = Vec::new();
        for (mgid, group) in dp.pre.canonical_config() {
            for node in group {
                let meeting = self.meeting_of(node.rid)?;
                let tree = (meeting, self.tree_index(meeting, mgid)?);
                let xid = self.slot_view(meeting, node.xid);
                nodes.push((
                    tree,
                    L1Node {
                        xid,
                        ..node.clone()
                    },
                ));
            }
        }
        // A receiver holds one node per sender slot of an RA-SR tree, so
        // the whole node is the sort key.
        nodes.sort_by_cached_key(|(t, n)| (*t, n.rid, n.xid, n.prune_enabled, n.ports.clone()));
        lines.extend(nodes.into_iter().map(|(t, n)| Line::Node(t, n)));
        for (&id, m) in &self.meetings {
            let mut keys = Vec::with_capacity(m.egress_keys.len());
            for k in &m.egress_keys {
                keys.push((self.tree_index(id, k.mgid)?, k.rid, k.in_port));
            }
            keys.sort_unstable();
            lines.push(Line::Meeting {
                id,
                design: m.design,
                participants: m.participants.clone(),
                packed: m.trees.iter().map(|&(_, slot)| slot.min(1)).collect(),
                keys,
            });
        }
        Ok(lines)
    }

    /// Install the two-party fast path (§6.1): direct unicast, no trees.
    fn install_two_party(&mut self, dp: &mut ScallopDataPlane, participants: &[ParticipantId]) {
        for &s in participants {
            let (s_video_up, s_audio_up, s_sends) = {
                let p = &self.pinfo[&s];
                (p.video_up, p.audio_up, p.sends)
            };
            let receiver = participants.iter().copied().find(|&r| r != s);
            let Some(r) = receiver else {
                // Lone participant: nothing to forward yet.
                dp.remove_port_rule(s_video_up);
                dp.remove_port_rule(s_audio_up);
                continue;
            };
            if !s_sends {
                continue;
            }
            let (vp, ap) = self.pinfo[&r].pair_from[&s];
            let r_addr = self.pinfo[&r].addr;
            let video_spec = EgressSpec {
                src: HostAddr::new(self.sfu_ip, vp),
                dst: r_addr,
                max_temporal: 2,
                rewrite_index: None,
            };
            let audio_spec = EgressSpec {
                src: HostAddr::new(self.sfu_ip, ap),
                dst: r_addr,
                max_temporal: 2,
                rewrite_index: None,
            };
            dp.install_port_rule(
                s_video_up,
                PortRule::SenderUplink {
                    action: ReplicationAction::TwoParty { egress: video_spec },
                    punt_extended_dd: true,
                },
            )
            .expect("port rule capacity");
            dp.install_port_rule(
                s_audio_up,
                PortRule::SenderUplink {
                    action: ReplicationAction::TwoParty { egress: audio_spec },
                    punt_extended_dd: false,
                },
            )
            .expect("port rule capacity");
            self.install_feedback_rules(dp, s, r, true);
        }
    }

    /// Populate (possibly shared) tier trees for NRA/RA-R and install all
    /// sender rules, egress specs, and feedback rules.
    fn populate_tier_trees(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        participants: &[ParticipantId],
        tiers: &[u16; 3],
        slot: u8,
        new_keys: &mut Vec<EgressKey>,
    ) {
        let fabric = self.is_fabric_segment(meeting);
        let distinct: Vec<u16> = {
            let mut d = tiers.to_vec();
            d.dedup();
            d
        };
        // Add one L1 node per receiving participant per tier tree it
        // belongs to. In a fabric segment, trunk-egress branches carry
        // TRUNK_XID (pruned by remote senders, so fabric media is never
        // re-trunked) and sit in every tier tree — the trunk always
        // carries full quality; thinning is the remote edge's job.
        for &r in participants {
            if !self.receives(r) {
                continue;
            }
            let is_trunk = self.pinfo[&r].class == ParticipantClass::TrunkEgress;
            let dt = if is_trunk { 2 } else { self.pinfo[&r].dt };
            for (t, &mgid) in tiers.iter().enumerate() {
                if distinct.len() > 1 && (t as u8) > dt {
                    continue; // receiver not in higher tiers it dropped
                }
                if distinct.len() == 1 && t > 0 {
                    continue; // NRA: single tree, add node once
                }
                let (xid, prune_enabled) = if is_trunk {
                    // TRUNK_XID for intra-zone branches, WAN_XID for a
                    // zone gateway's cross-WAN branches.
                    (self.pinfo[&r].fabric_xid, true)
                } else if fabric {
                    // Exclusive tree: no packing slot to prune.
                    (0, false)
                } else {
                    (slot as u16, true)
                };
                dp.pre
                    .add_node(
                        mgid,
                        L1Node {
                            rid: r,
                            xid,
                            prune_enabled,
                            ports: vec![r],
                        },
                    )
                    .expect("L1 node budget");
            }
        }
        // Sender rules + egress specs.
        for &s in participants {
            if !self.pinfo[&s].sends {
                continue;
            }
            self.install_sender_uplinks(dp, s, tiers, slot, fabric);
            for &r in participants {
                if r == s || !self.receives(r) || self.skip_fabric_recross(s, r) {
                    continue;
                }
                self.install_pair_egress(dp, s, r, tiers, new_keys);
                if self.pinfo[&r].class != ParticipantClass::TrunkEgress {
                    // While the sender's home edge aggregates REMBs
                    // fabric-wide, no local pair forwards REMB directly.
                    let best = self.is_best_downlink(s, r) && self.pinfo[&s].sink_port.is_none();
                    self.install_feedback_rules(dp, s, r, best);
                }
            }
        }
    }

    /// Install sender `s`'s uplink port rules for a tiered (NRA/RA-R)
    /// layout: the replication action over `tiers`, with the L1 XID its
    /// media prunes.
    fn install_sender_uplinks(
        &mut self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        tiers: &[u16; 3],
        slot: u8,
        fabric: bool,
    ) {
        let s_class = self.pinfo[&s].class;
        let (s_video_up, s_audio_up) = {
            let p = &self.pinfo[&s];
            (p.video_up, p.audio_up)
        };
        let other_slot = if slot == 1 { 2u16 } else { 1u16 };
        let l1_xid = match s_class {
            // Media that already crossed the fabric prunes every
            // branch of the tier it arrived on (trunk or WAN).
            ParticipantClass::RemoteSender => self.pinfo[&s].fabric_xid,
            _ if fabric => 0,
            _ => other_slot,
        };
        let action = ReplicationAction::Multicast {
            mgid_by_tier: *tiers,
            l1_xid,
            rid: s,
            l2_xid: s,
        };
        if s_class == ParticipantClass::RemoteSender {
            dp.install_port_rule(s_video_up, PortRule::TrunkIngress { action })
                .expect("port rule capacity");
            dp.install_port_rule(s_audio_up, PortRule::TrunkIngress { action })
                .expect("port rule capacity");
        } else {
            dp.install_port_rule(
                s_video_up,
                PortRule::SenderUplink {
                    action,
                    punt_extended_dd: true,
                },
            )
            .expect("port rule capacity");
            dp.install_port_rule(
                s_audio_up,
                PortRule::SenderUplink {
                    action,
                    punt_extended_dd: false,
                },
            )
            .expect("port rule capacity");
        }
    }

    /// RA-SR layout: for each group of two senders, q = 3 tier trees;
    /// within a tree, sender 1's receiver nodes carry XID 1 and sender
    /// 2's XID 2 (§6.1).
    fn install_ra_sr(
        &mut self,
        dp: &mut ScallopDataPlane,
        participants: &[ParticipantId],
        new_trees: &mut Vec<(u16, u8)>,
        new_keys: &mut Vec<EgressKey>,
    ) {
        let senders: Vec<ParticipantId> = participants
            .iter()
            .copied()
            .filter(|p| self.pinfo[p].sends)
            .collect();
        for pair in senders.chunks(2) {
            let mut tiers = [0u16; 3];
            for tier_slot in &mut tiers {
                let mgid = self.alloc_mgid();
                dp.create_tree(mgid).expect("PRE group budget");
                *tier_slot = mgid;
                new_trees.push((mgid, 0)); // exclusive trees
            }
            for (i, &s) in pair.iter().enumerate() {
                let sender_xid = (i + 1) as u16;
                let s_class = self.pinfo[&s].class;
                // Nodes: receivers of s at each tier. RA-SR trees are
                // per-sender sets already, so trunk-egress branches are
                // simply omitted from remote senders' sets.
                for &r in participants {
                    if r == s || !self.receives(r) || self.skip_fabric_recross(s, r) {
                        continue;
                    }
                    let r_trunk = self.pinfo[&r].class == ParticipantClass::TrunkEgress;
                    let dt = if r_trunk { 2 } else { self.effective_dt(s, r) };
                    for (t, &mgid) in tiers.iter().enumerate() {
                        if (t as u8) > dt {
                            continue;
                        }
                        dp.pre
                            .add_node(
                                mgid,
                                L1Node {
                                    rid: r,
                                    xid: sender_xid,
                                    prune_enabled: true,
                                    ports: vec![r],
                                },
                            )
                            .expect("L1 node budget");
                    }
                    self.install_pair_egress(dp, s, r, &tiers, new_keys);
                    if !r_trunk {
                        let best =
                            self.is_best_downlink(s, r) && self.pinfo[&s].sink_port.is_none();
                        self.install_feedback_rules(dp, s, r, best);
                    }
                }
                let other_xid = if sender_xid == 1 { 2 } else { 1 };
                let (s_video_up, s_audio_up) = {
                    let p = &self.pinfo[&s];
                    (p.video_up, p.audio_up)
                };
                let action = ReplicationAction::Multicast {
                    mgid_by_tier: tiers,
                    l1_xid: other_xid,
                    rid: s,
                    l2_xid: s,
                };
                if s_class == ParticipantClass::RemoteSender {
                    dp.install_port_rule(s_video_up, PortRule::TrunkIngress { action })
                        .expect("port rule capacity");
                    dp.install_port_rule(s_audio_up, PortRule::TrunkIngress { action })
                        .expect("port rule capacity");
                } else {
                    dp.install_port_rule(
                        s_video_up,
                        PortRule::SenderUplink {
                            action,
                            punt_extended_dd: true,
                        },
                    )
                    .expect("port rule capacity");
                    dp.install_port_rule(
                        s_audio_up,
                        PortRule::SenderUplink {
                            action,
                            punt_extended_dd: false,
                        },
                    )
                    .expect("port rule capacity");
                }
            }
        }
    }

    /// Install egress specs for (sender → receiver) across tier trees.
    fn install_pair_egress(
        &mut self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        r: ParticipantId,
        tiers: &[u16; 3],
        new_keys: &mut Vec<EgressKey>,
    ) {
        if self.pinfo[&r].class == ParticipantClass::TrunkEgress {
            self.install_trunk_egress(dp, s, r, tiers, new_keys);
            return;
        }
        let dt = self.effective_dt(s, r);
        let adapted = dt < 2 || self.pinfo[&r].tracker_idx.contains_key(&s);
        let tracker = if adapted {
            let idx = match self.pinfo[&r].tracker_idx.get(&s) {
                Some(&i) => i,
                None => {
                    let i = self.alloc_tracker();
                    dp.tracker.init_stream(i as usize, cadence_for_dt(dt));
                    self.pinfo.get_mut(&r).unwrap().tracker_idx.insert(s, i);
                    i
                }
            };
            dp.tracker.set_cadence(idx as usize, cadence_for_dt(dt));
            Some(idx)
        } else {
            None
        };
        let (vp, ap) = self.pinfo[&r].pair_from[&s];
        let r_addr = self.pinfo[&r].addr;
        let (s_video_up, s_audio_up) = {
            let p = &self.pinfo[&s];
            (p.video_up, p.audio_up)
        };
        let video_spec = EgressSpec {
            src: HostAddr::new(self.sfu_ip, vp),
            dst: r_addr,
            max_temporal: dt,
            rewrite_index: tracker,
        };
        let audio_spec = EgressSpec {
            src: HostAddr::new(self.sfu_ip, ap),
            dst: r_addr,
            max_temporal: 2,
            rewrite_index: None,
        };
        let mut seen = Vec::new();
        for (t, &mgid) in tiers.iter().enumerate() {
            if seen.contains(&mgid) {
                continue;
            }
            seen.push(mgid);
            if (t as u8) <= dt || t == 0 {
                let vkey = EgressKey {
                    mgid,
                    rid: r,
                    in_port: s_video_up,
                };
                dp.install_egress(vkey, video_spec)
                    .expect("egress capacity");
                new_keys.push(vkey);
            }
            if t == 0 {
                let akey = EgressKey {
                    mgid,
                    rid: r,
                    in_port: s_audio_up,
                };
                dp.install_egress(akey, audio_spec)
                    .expect("egress capacity");
                new_keys.push(akey);
            }
        }
    }

    /// Install egress specs for a trunk-egress branch: one full-quality,
    /// unrewritten copy of sender `s` toward the remote switch's
    /// trunk-ingress ports, in every tier tree (the trunk never thins).
    fn install_trunk_egress(
        &mut self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        r: ParticipantId,
        tiers: &[u16; 3],
        new_keys: &mut Vec<EgressKey>,
    ) {
        // Destination unknown until the controller has granted the
        // remote-sender entry on the far edge; the branch stays dark
        // until `set_trunk_dst` triggers a rebuild.
        let Some(&(video_dst, audio_dst)) = self.pinfo[&r].trunk_dst.get(&s) else {
            return;
        };
        let (vp, ap) = self.pinfo[&r].pair_from[&s];
        let (s_video_up, s_audio_up) = {
            let p = &self.pinfo[&s];
            (p.video_up, p.audio_up)
        };
        let video_spec = EgressSpec {
            src: HostAddr::new(self.sfu_ip, vp),
            dst: video_dst,
            max_temporal: 2,
            rewrite_index: None,
        };
        let audio_spec = EgressSpec {
            src: HostAddr::new(self.sfu_ip, ap),
            dst: audio_dst,
            max_temporal: 2,
            rewrite_index: None,
        };
        let mut seen = Vec::new();
        for (t, &mgid) in tiers.iter().enumerate() {
            if seen.contains(&mgid) {
                continue;
            }
            seen.push(mgid);
            let vkey = EgressKey {
                mgid,
                rid: r,
                in_port: s_video_up,
            };
            dp.install_egress(vkey, video_spec)
                .expect("egress capacity");
            new_keys.push(vkey);
            if t == 0 {
                let akey = EgressKey {
                    mgid,
                    rid: r,
                    in_port: s_audio_up,
                };
                dp.install_egress(akey, audio_spec)
                    .expect("egress capacity");
                new_keys.push(akey);
            }
        }
    }

    /// Whether `r` currently holds the best-downlink selection for
    /// sender `s` (initially: the first receiver does).
    fn is_best_downlink(&self, s: ParticipantId, r: ParticipantId) -> bool {
        let meeting = self.pinfo[&s].meeting;
        let best = self.best_downlink_for(s, meeting);
        best == Some(r)
    }

    fn best_downlink_for(&self, s: ParticipantId, meeting: MeetingId) -> Option<ParticipantId> {
        self.best_downlink_among(s, &self.meetings.get(&meeting)?.participants)
    }

    /// [`Self::best_downlink_for`] over the meeting roster `participants`.
    fn best_downlink_among(
        &self,
        s: ParticipantId,
        participants: &[ParticipantId],
    ) -> Option<ParticipantId> {
        let mut best: Option<(ParticipantId, f64)> = None;
        // Only local receivers compete: a trunk-egress branch reports no
        // feedback here (the remote edge runs its own filter), and a
        // remote sender receives nothing on this switch. Decode-capped
        // (SVC-thin) receivers are excluded too — they receive a
        // deliberately reduced layer set, so their estimates reflect
        // the cap, not the downlink; feeding them back to the sender
        // would drag the encoder below what full receivers can use.
        for &r in participants.iter().filter(|&&r| {
            r != s && self.pinfo[&r].class == ParticipantClass::Local && self.pinfo[&r].dt_cap >= 2
        }) {
            let score = self.pinfo[&r]
                .ewma
                .get(&s)
                .and_then(|e| e.value())
                .unwrap_or(f64::MAX); // unknown downlinks treated as best
            match best {
                None => best = Some((r, score)),
                Some((_, b)) if score > b => best = Some((r, score)),
                _ => {}
            }
        }
        best.map(|(r, _)| r)
    }

    /// Install/refresh feedback-forwarding rules for (s → r) pair ports.
    fn install_feedback_rules(
        &mut self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        r: ParticipantId,
        remb_allowed: bool,
    ) {
        let (vp, ap) = self.pinfo[&r].pair_from[&s];
        let s_addr = self.pinfo[&s].addr;
        let rewrite_index = self.pinfo[&r].tracker_idx.get(&s).copied();
        let (s_video_up, s_audio_up) = {
            let p = &self.pinfo[&s];
            (p.video_up, p.audio_up)
        };
        dp.install_port_rule(
            vp,
            PortRule::ReceiverFeedback {
                sender_addr: s_addr,
                forward_src: HostAddr::new(self.sfu_ip, s_video_up),
                remb_allowed,
                rewrite_index,
            },
        )
        .expect("port rule capacity");
        dp.install_port_rule(
            ap,
            PortRule::ReceiverFeedback {
                sender_addr: s_addr,
                forward_src: HostAddr::new(self.sfu_ip, s_audio_up),
                remb_allowed: false, // audio RRs are absorbed
                rewrite_index: None,
            },
        )
        .expect("port rule capacity");
    }

    /// Handle one CPU-port packet; returns the packets the agent sends
    /// back through the data plane (STUN responses, aggregate REMBs,
    /// relayed NACK/PLI), to be drained before the next call.
    pub fn handle_cpu_packet(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        dp: &mut ScallopDataPlane,
    ) -> std::vec::Drain<'_, Packet> {
        self.out.clear();
        match classify(&pkt.payload) {
            PacketClass::Stun => {
                if let Ok(msg) = StunView::new(&pkt.payload) {
                    if msg.is_request() {
                        self.counters.stun_answered += 1;
                        let (to, txid) = (pkt.src, msg.transaction_id);
                        let resp = self
                            .pool
                            .build(|v| stun::write_binding_success(v, txid, to.ip, to.port));
                        self.out.push(Packet::new(pkt.dst, to, resp));
                    }
                }
            }
            PacketClass::Rtcp => self.handle_feedback_copy(now, pkt, dp),
            PacketClass::Rtp => self.handle_extended_dd(pkt),
            PacketClass::Unknown => {}
        }
        self.out.drain(..)
    }

    fn handle_extended_dd(&mut self, pkt: &Packet) {
        let Ok(view) = RtpView::new(&pkt.payload) else {
            return;
        };
        let Ok(Some(dd_bytes)) = view.find_extension(DD_EXTENSION_ID) else {
            return;
        };
        let Ok(dd) = DependencyDescriptor::parse(dd_bytes) else {
            return;
        };
        if dd.structure.is_some() {
            self.counters.dds_analyzed += 1;
        }
    }

    fn handle_feedback_copy(&mut self, now: SimTime, pkt: &Packet, dp: &mut ScallopDataPlane) {
        let Ok(pkts) = rtcp::read_compound(&pkt.payload) else {
            return;
        };
        let (sender, receiver) = match self.port_use.get(&pkt.dst.port) {
            Some(&PortUse::PairVideo { sender, receiver }) => (sender, receiver),
            Some(&PortUse::FeedbackSink { sender }) => {
                return self.handle_sink_copy(sender, pkt);
            }
            _ => {
                // Audio feedback / unknown ports: count RRs and move on.
                self.counters.rrs_analyzed +=
                    pkts.filter(|p| matches!(p, RtcpRef::Rr { .. })).count() as u64;
                return;
            }
        };
        let mut saw_remb = false;
        for p in pkts {
            match p {
                RtcpRef::Rr { .. } => self.counters.rrs_analyzed += 1,
                RtcpRef::Remb { bitrate_bps, .. } => {
                    self.counters.rembs_analyzed += 1;
                    saw_remb = true;
                    let alpha = self.ewma_alpha;
                    let (curr_dt, new_dt, dwell_ok) = {
                        let pr = self.pinfo.get_mut(&receiver).expect("receiver known");
                        let smoothed = pr
                            .ewma
                            .entry(sender)
                            .or_insert_with(|| Ewma::new(alpha))
                            .update(bitrate_bps as f64);
                        let hist = pr.est_hist.entry(sender).or_default();
                        hist.push(bitrate_bps);
                        if hist.len() > 32 {
                            hist.remove(0);
                        }
                        let curr = pr.dt;
                        // Asymmetric damping (fast down, slow up): a
                        // single collapsed REMB may reflect real queue
                        // growth and must shed layers quickly; climbing
                        // back doubles the offered load instantly, so it
                        // requires a *sustained* high smoothed estimate.
                        let decision_est = (smoothed as u64).min(bitrate_bps);
                        // An admission-imposed cap bounds what the
                        // policy may climb to (SVC-thin stays thin).
                        let new = (self.policy)(curr, hist, decision_est).min(pr.dt_cap);
                        // Down-switches shed load and must be fast; an
                        // up-switch doubles the offered load with no way
                        // to probe headroom first (the switch cannot send
                        // padding), so it is attempted rarely.
                        let dwell = if new < curr {
                            SimDuration::from_millis(500)
                        } else {
                            SimDuration::from_millis(12_000)
                        };
                        let dwell_ok = pr
                            .last_dt_change
                            .map(|t| now.saturating_since(t) >= dwell)
                            .unwrap_or(true);
                        (curr, new, dwell_ok)
                    };
                    if new_dt != curr_dt && dwell_ok {
                        self.apply_dt_change(dp, receiver, new_dt);
                        if let Some(pr) = self.pinfo.get_mut(&receiver) {
                            pr.last_dt_change = Some(now);
                        }
                    }
                }
                _ => {}
            }
        }
        // A sink-aggregating sender hears the min-aggregate instead of
        // raw per-receiver REMBs (the data plane filters those); a new
        // local estimate may move the aggregate, so re-emit it.
        if saw_remb
            && self
                .pinfo
                .get(&sender)
                .map(|p| p.sink_port.is_some())
                .unwrap_or(false)
        {
            self.emit_aggregate_remb(sender);
        }
    }

    /// Handle a CPU copy punted off the feedback-sink port: record the
    /// reporting edge's REMB estimate, min-aggregate across all edges
    /// (and the local filter's best downlink), and re-emit toward the
    /// sender; NACK/PLI ride through verbatim, re-addressed as if the
    /// home edge had forwarded them directly.
    fn handle_sink_copy(&mut self, sender: ParticipantId, pkt: &Packet) {
        let Ok(pkts) = rtcp::read_compound(&pkt.payload) else {
            return;
        };
        let Some(p) = self.pinfo.get_mut(&sender) else {
            return;
        };
        let (s_addr, s_video_up) = (p.addr, p.video_up);
        let mut saw_remb = false;
        let mut passthrough = false;
        for r in pkts.clone() {
            match r {
                RtcpRef::Remb { bitrate_bps, .. } => {
                    self.counters.rembs_analyzed += 1;
                    saw_remb = true;
                    // One estimate per reporting edge (the remote edge
                    // already selected its best downlink).
                    p.remote_ests.insert(pkt.src.ip, bitrate_bps);
                }
                RtcpRef::Rr { .. } => self.counters.rrs_analyzed += 1,
                _ => passthrough = true,
            }
        }
        if passthrough {
            // NACK packet-ids were already de-rewritten by the remote
            // edge (the trunk carries unrewritten media), so they pass
            // through untouched.
            let relayed = self.pool.build(|v| {
                for r in pkts.filter(|r| !matches!(r, RtcpRef::Remb { .. } | RtcpRef::Rr { .. })) {
                    r.write_into(v);
                }
            });
            self.out.push(Packet::new(
                HostAddr::new(self.sfu_ip, s_video_up),
                s_addr,
                relayed,
            ));
        }
        if saw_remb {
            self.emit_aggregate_remb(sender);
        }
    }

    /// The fabric-wide REMB for a sink-aggregating sender: the minimum
    /// of the local filter's best-downlink estimate and every remote
    /// edge's reported estimate — the whole fabric behaves like one
    /// switch running the §5.3 single-selection filter. Emits nothing
    /// until at least one component is known.
    fn emit_aggregate_remb(&mut self, sender: ParticipantId) {
        let (meeting, s_addr, s_video_up, remote) = {
            let Some(p) = self.pinfo.get(&sender) else {
                return;
            };
            (
                p.meeting,
                p.addr,
                p.video_up,
                p.remote_ests.values().copied().min(),
            )
        };
        let local = self
            .best_downlink_for(sender, meeting)
            .and_then(|r| self.pinfo[&r].ewma.get(&sender))
            .and_then(|e| e.value())
            .map(|v| v as u64);
        let agg = match (local, remote) {
            (Some(l), Some(r)) => l.min(r),
            (Some(l), None) => l,
            (None, Some(r)) => r,
            (None, None) => return,
        };
        self.counters.rembs_aggregated += 1;
        let payload = self.pool.build(|v| rtcp::write_remb(v, 0, agg, []));
        self.out.push(Packet::new(
            HostAddr::new(self.sfu_ip, s_video_up),
            s_addr,
            payload,
        ));
    }

    /// Cap a receiver's decode target from above (SVC-thin admission,
    /// §5.4 semantics): the current target is lowered to the cap
    /// immediately, and rate adaptation may later move it further down
    /// but never back above the cap.
    pub fn set_dt_cap(&mut self, dp: &mut ScallopDataPlane, receiver: ParticipantId, cap: u8) {
        let target = match self.pinfo.get_mut(&receiver) {
            Some(p) => {
                p.dt_cap = cap;
                p.dt.min(cap)
            }
            None => return,
        };
        self.apply_dt_change(dp, receiver, target);
    }

    /// Apply a receiver-specific decode-target change (§5.4): update
    /// cadences and egress gates; migrate the meeting design if needed.
    pub fn apply_dt_change(&mut self, dp: &mut ScallopDataPlane, receiver: ParticipantId, dt: u8) {
        let meeting = match self.pinfo.get_mut(&receiver) {
            Some(p) => {
                if p.dt == dt || p.class == ParticipantClass::TrunkEgress {
                    // Trunk branches always carry full quality; remote
                    // receivers adapt on their own edge.
                    return;
                }
                p.dt = dt;
                p.meeting
            }
            None => return,
        };
        self.counters.dt_changes += 1;
        self.rebuild_meeting(dp, meeting);
    }

    /// Set a sender-receiver-specific decode target (forces RA-SR).
    pub fn set_sender_dt(
        &mut self,
        dp: &mut ScallopDataPlane,
        sender: ParticipantId,
        receiver: ParticipantId,
        dt: u8,
    ) {
        let meeting = match self.pinfo.get_mut(&receiver) {
            Some(p) => {
                p.dt_per_sender.insert(sender, dt);
                p.meeting
            }
            None => return,
        };
        self.counters.dt_changes += 1;
        self.rebuild_meeting(dp, meeting);
    }

    /// Periodic agent work (§5.3): re-evaluate the feedback filter and
    /// reprogram REMB forwarding toward each sender.
    pub fn tick(&mut self, _now: SimTime, dp: &mut ScallopDataPlane) {
        let mut next = self.meetings.keys().next().copied();
        while let Some(mid) = next {
            self.refresh_feedback_gates(dp, mid, true);
            next = self.meetings.range(mid + 1..).next().map(|(&mid, _)| mid);
        }
    }

    /// Re-run the §5.3 feedback filter for every sender of one meeting,
    /// reprogramming only the pair rules whose REMB gate is missing or
    /// wrong. [`Self::tick`] counts the reprograms as filter updates;
    /// the delta compiler calls this silently, where a full rebuild
    /// would have recomputed every gate as a side effect.
    fn refresh_feedback_gates(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        count_updates: bool,
    ) {
        // The roster is lent out of the meeting for the walk rather than
        // copied: this runs for every meeting on every tick, and the rules
        // it rewrites never read it.
        let Some(m) = self.meetings.get_mut(&meeting) else {
            return;
        };
        let participants = std::mem::take(&mut m.participants);
        for &s in &participants {
            if !self.pinfo[&s].sends {
                continue;
            }
            let best = self.best_downlink_among(s, &participants);
            // While the home edge aggregates this sender's REMBs
            // fabric-wide, no local pair forwards them directly.
            let has_sink = self.pinfo[&s].sink_port.is_some();
            for &r in &participants {
                if r == s
                    || self.pinfo[&r].class != ParticipantClass::Local
                    || !self.pinfo[&r].pair_from.contains_key(&s)
                {
                    continue;
                }
                let allowed = best == Some(r) && !has_sink;
                let (vp, _) = self.pinfo[&r].pair_from[&s];
                // Only touch the rule when the gate actually changes.
                let needs_update = match dp.port_rules.peek(&vp) {
                    Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => {
                        *remb_allowed != allowed
                    }
                    _ => true,
                };
                if needs_update {
                    if count_updates {
                        self.counters.filter_updates += 1;
                    }
                    self.install_feedback_rules(dp, s, r, allowed);
                }
            }
        }
        self.meetings
            .get_mut(&meeting)
            .expect("the meeting is still there")
            .participants = participants;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_dataplane::seqrewrite::SeqRewriteMode;
    use scallop_proto::rtcp::RtcpPacket;
    use scallop_proto::stun::StunMessage;

    fn mk() -> (SwitchAgent, ScallopDataPlane) {
        (
            SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)),
            ScallopDataPlane::new(SeqRewriteMode::LowRetransmission),
        )
    }

    fn addr(last: u8) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 1, 0, last), 5000)
    }

    #[test]
    fn two_party_meeting_uses_fast_path() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let _g1 = agent.join(&mut dp, m, addr(1), true);
        let g2 = agent.join(&mut dp, m, addr(2), true);
        assert_eq!(agent.design_of(m), Some(TreeDesign::TwoParty));
        assert_eq!(dp.pre.groups_used(), 0, "no trees for two-party");
        // Distinct uplink ports allocated.
        assert_ne!(g2.video_uplink.port, g2.audio_uplink.port);
    }

    #[test]
    fn third_join_migrates_to_nra() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        agent.join(&mut dp, m, addr(1), true);
        agent.join(&mut dp, m, addr(2), true);
        agent.join(&mut dp, m, addr(3), true);
        assert_eq!(agent.design_of(m), Some(TreeDesign::Nra));
        assert_eq!(dp.pre.groups_used(), 1, "one tree per NRA meeting pair");
        assert_eq!(dp.pre.group_size(dp_first_group(&dp)).unwrap(), 3);
        assert_eq!(agent.counters.migrations, 1, "TwoParty -> NRA");
    }

    fn dp_first_group(dp: &ScallopDataPlane) -> u16 {
        // The agent allocates MGIDs from 1.
        (1..100)
            .find(|&g| dp.pre.group_size(g).is_some())
            .expect("a group exists")
    }

    #[test]
    fn nra_trees_pack_two_meetings() {
        let (mut agent, mut dp) = mk();
        let m1 = agent.create_meeting();
        for i in 1..=3 {
            agent.join(&mut dp, m1, addr(i), true);
        }
        let m2 = agent.create_meeting();
        for i in 11..=13 {
            agent.join(&mut dp, m2, addr(i), true);
        }
        // m = 2 packing: both meetings share one tree.
        assert_eq!(dp.pre.groups_used(), 1, "two meetings share a tree");
        assert_eq!(dp.pre.group_size(dp_first_group(&dp)).unwrap(), 6);
    }

    #[test]
    fn dt_change_migrates_to_ra_r_and_back() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let g1 = agent.join(&mut dp, m, addr(1), true);
        let _g2 = agent.join(&mut dp, m, addr(2), true);
        let g3 = agent.join(&mut dp, m, addr(3), true);
        assert_eq!(agent.design_of(m), Some(TreeDesign::Nra));
        // Receiver 3 degrades to 15 fps.
        agent.apply_dt_change(&mut dp, g3.participant, 1);
        assert_eq!(agent.design_of(m), Some(TreeDesign::RaR));
        assert_eq!(dp.pre.groups_used(), 3, "one tree per quality tier");
        assert_eq!(agent.dt_of(g3.participant), Some(1));
        // Tracker slot allocated for the adapted streams toward g3.
        assert!(dp.tracker.packets_processed == 0);
        // Recovery: back to NRA.
        agent.apply_dt_change(&mut dp, g3.participant, 2);
        assert_eq!(agent.design_of(m), Some(TreeDesign::Nra));
        assert_eq!(dp.pre.groups_used(), 1);
        let _ = g1;
    }

    #[test]
    fn per_sender_dt_forces_ra_sr() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let g1 = agent.join(&mut dp, m, addr(1), true);
        let _g2 = agent.join(&mut dp, m, addr(2), true);
        let g3 = agent.join(&mut dp, m, addr(3), true);
        agent.set_sender_dt(&mut dp, g1.participant, g3.participant, 0);
        assert_eq!(agent.design_of(m), Some(TreeDesign::RaSr));
        // 3 senders -> 2 sender-groups × 3 tiers = 6 trees.
        assert_eq!(dp.pre.groups_used(), 6);
    }

    #[test]
    fn leave_cleans_up() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let g1 = agent.join(&mut dp, m, addr(1), true);
        let _g2 = agent.join(&mut dp, m, addr(2), true);
        let g3 = agent.join(&mut dp, m, addr(3), true);
        let rules_at_three = dp.port_rules.len();
        agent.leave(&mut dp, m, g3.participant);
        assert_eq!(agent.design_of(m), Some(TreeDesign::TwoParty));
        assert_eq!(dp.pre.groups_used(), 0, "trees released");
        assert!(dp.port_rules.len() < rules_at_three);
        agent.leave(&mut dp, m, g1.participant);
        // Lone participant: media rules removed.
        assert_eq!(dp.pre.groups_used(), 0);
    }

    #[test]
    fn ports_recycle_under_meeting_churn() {
        // A fabric edge owns a narrow port slice; meeting churn must
        // recycle released ports or the range exhausts while nearly
        // empty. 40 rounds × ~18 ports/round only fits in 50 ports if
        // leave() returns them.
        let mut agent =
            SwitchAgent::new(Ipv4Addr::new(10, 0, 0, 100)).with_port_range(10_000, 10_050);
        let mut dp = ScallopDataPlane::new(SeqRewriteMode::LowRetransmission);
        for round in 0..40u8 {
            let m = agent.create_meeting();
            let grants: Vec<_> = (1..=3)
                .map(|i| agent.join(&mut dp, m, addr(round.wrapping_mul(3) + i), true))
                .collect();
            for g in grants {
                agent.leave(&mut dp, m, g.participant);
            }
        }
        assert_eq!(dp.pre.groups_used(), 0, "all trees released");
    }

    #[test]
    fn stun_answered_from_cpu() {
        let (mut agent, mut dp) = mk();
        let req = StunMessage::binding_request([9; 12]).serialize();
        let pkt = Packet::new(addr(1), HostAddr::new(agent.sfu_ip(), 10_000), req);
        let out: Vec<Packet> = agent
            .handle_cpu_packet(SimTime::ZERO, &pkt, &mut dp)
            .collect();
        assert_eq!(out.len(), 1);
        let resp = StunMessage::parse(&out[0].payload).unwrap();
        assert!(resp.is_success_response());
        assert_eq!(resp.xor_mapped_address(), Some((addr(1).ip, addr(1).port)));
        assert_eq!(agent.counters.stun_answered, 1);
    }

    #[test]
    fn remb_copy_drives_dt_selection() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let g1 = agent.join(&mut dp, m, addr(1), true);
        let _g2 = agent.join(&mut dp, m, addr(2), true);
        let g3 = agent.join(&mut dp, m, addr(3), true);
        // Feedback copy: g3 reports a 1 Mbit/s downlink for g1's video.
        let vp = agent
            .video_pair_addr(g1.participant, g3.participant)
            .unwrap();
        let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
            sender_ssrc: 0x33,
            bitrate_bps: 1_000_000,
            ssrcs: vec![0x11],
        })]);
        let pkt = Packet::new(addr(3), vp, remb);
        agent.handle_cpu_packet(SimTime::ZERO, &pkt, &mut dp);
        assert_eq!(agent.counters.rembs_analyzed, 1);
        // 1 Mbit/s sits between the default thresholds -> DT 1.
        assert_eq!(agent.dt_of(g3.participant), Some(1));
        assert_eq!(agent.design_of(m), Some(TreeDesign::RaR));
    }

    #[test]
    fn feedback_filter_selects_best_downlink() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let g1 = agent.join(&mut dp, m, addr(1), true);
        let g2 = agent.join(&mut dp, m, addr(2), true);
        let g3 = agent.join(&mut dp, m, addr(3), true);
        // g2 reports 2.5 Mbit/s, g3 reports 0.9 Mbit/s about g1.
        for (rcv, raddr, bps) in [
            (g2.participant, addr(2), 2_500_000u64),
            (g3.participant, addr(3), 900_000),
        ] {
            let vp = agent.video_pair_addr(g1.participant, rcv).unwrap();
            let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
                sender_ssrc: 1,
                bitrate_bps: bps,
                ssrcs: vec![0x11],
            })]);
            agent.handle_cpu_packet(SimTime::ZERO, &Packet::new(raddr, vp, remb), &mut dp);
        }
        agent.tick(SimTime::from_millis(100), &mut dp);
        // Only g2's pair port may forward REMB to g1.
        let vp2 = agent
            .video_pair_addr(g1.participant, g2.participant)
            .unwrap();
        let vp3 = agent
            .video_pair_addr(g1.participant, g3.participant)
            .unwrap();
        let allowed = |dp: &ScallopDataPlane, port: u16| match dp.port_rules.peek(&port) {
            Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => *remb_allowed,
            other => panic!("missing feedback rule: {other:?}"),
        };
        assert!(allowed(&dp, vp2.port), "best downlink must be selected");
        assert!(!allowed(&dp, vp3.port), "worse downlink must be filtered");
    }

    #[test]
    fn feedback_sink_min_aggregates_remote_estimates() {
        let (mut agent, mut dp) = mk();
        let m = agent.create_meeting();
        let g1 = agent.join(&mut dp, m, addr(1), true);
        let g2 = agent.join(&mut dp, m, addr(2), false);
        let g3 = agent.join(&mut dp, m, addr(3), false);
        let sink = agent.feedback_sink(&mut dp, g1.participant);
        assert_eq!(
            agent.feedback_sink(&mut dp, g1.participant),
            sink,
            "sink port is idempotent"
        );
        // While the sink is live, no local pair forwards REMB directly.
        let vp2 = agent
            .video_pair_addr(g1.participant, g2.participant)
            .unwrap();
        match dp.port_rules.peek(&vp2.port) {
            Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => {
                assert!(!remb_allowed, "sink takes over REMB forwarding")
            }
            other => panic!("missing feedback rule: {other:?}"),
        }
        let send_local = |agent: &mut SwitchAgent, dp: &mut _, rcv, raddr, bps| {
            let vp = agent.video_pair_addr(g1.participant, rcv).unwrap();
            let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
                sender_ssrc: 1,
                bitrate_bps: bps,
                ssrcs: vec![0x11],
            })]);
            agent
                .handle_cpu_packet(SimTime::ZERO, &Packet::new(raddr, vp, remb), dp)
                .collect::<Vec<_>>()
        };
        // Both local receivers report; the filter's best (g2 at 3 Mb/s)
        // becomes the local component and the aggregate.
        send_local(&mut agent, &mut dp, g2.participant, addr(2), 3_000_000);
        let out = send_local(&mut agent, &mut dp, g3.participant, addr(3), 2_500_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, addr(1), "aggregate goes to the sender");
        let parsed = rtcp::parse_compound(&out[0].payload).unwrap();
        let RtcpPacket::Remb(agg) = &parsed[0] else {
            panic!("expected REMB");
        };
        assert_eq!(agg.bitrate_bps, 3_000_000);
        // A remote edge reporting 1 Mb/s at the sink caps the aggregate.
        let remote_edge = HostAddr::new(Ipv4Addr::new(10, 0, 1, 100), 20_000);
        let sink_addr = HostAddr::new(agent.sfu_ip(), sink);
        let remb = rtcp::serialize_compound(&[RtcpPacket::Remb(rtcp::Remb {
            sender_ssrc: 1,
            bitrate_bps: 1_000_000,
            ssrcs: vec![0x11],
        })]);
        let out: Vec<Packet> = agent
            .handle_cpu_packet(
                SimTime::ZERO,
                &Packet::new(remote_edge, sink_addr, remb),
                &mut dp,
            )
            .collect();
        let parsed = rtcp::parse_compound(&out[0].payload).unwrap();
        let RtcpPacket::Remb(agg) = &parsed[0] else {
            panic!("expected REMB");
        };
        assert_eq!(agg.bitrate_bps, 1_000_000, "min over per-edge estimates");
        assert!(agent.counters.rembs_aggregated >= 2);
        // NACKs arriving at the sink ride through to the sender, sourced
        // like a locally forwarded NACK.
        let nack = rtcp::serialize_compound(&[RtcpPacket::Nack(rtcp::Nack {
            sender_ssrc: 3,
            media_ssrc: 0xAA,
            entries: vec![(5, 0)],
        })]);
        let out: Vec<Packet> = agent
            .handle_cpu_packet(
                SimTime::ZERO,
                &Packet::new(remote_edge, sink_addr, nack.clone()),
                &mut dp,
            )
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, addr(1));
        assert_eq!(out[0].src, g1.video_uplink);
        assert_eq!(out[0].payload, nack, "relayed byte for byte");
        // GC of the remote segment lifts the cap.
        agent.clear_remote_est(g1.participant, remote_edge.ip);
        let out = send_local(&mut agent, &mut dp, g2.participant, addr(2), 3_000_000);
        let parsed = rtcp::parse_compound(&out[0].payload).unwrap();
        let RtcpPacket::Remb(agg) = &parsed[0] else {
            panic!("expected REMB");
        };
        assert_eq!(agg.bitrate_bps, 3_000_000, "stale remote estimate cleared");
    }

    #[test]
    fn cadence_mapping() {
        assert_eq!(cadence_for_dt(2), 1);
        assert_eq!(cadence_for_dt(1), 2);
        assert_eq!(cadence_for_dt(0), 4);
        assert_eq!(cadence_for_dt(9), 1);
    }

    #[test]
    fn default_policy_hysteresis() {
        let p = default_policy([450_000, 1_100_000]);
        // (explicit thresholds: the test pins the policy's arithmetic,
        // not the deployment defaults)
        assert_eq!(p(2, &[], 2_000_000), 2);
        assert_eq!(p(2, &[], 800_000), 1); // drop below threshold
        assert_eq!(p(1, &[], 1_400_000), 1); // within the 2.2x up-gate band
        assert_eq!(p(1, &[], 2_500_000), 2); // clearly past 2.42M
        assert_eq!(p(1, &[], 300_000), 0);
        assert_eq!(p(0, &[], 900_000), 0); // 450k*2.2 = 990k > 900k
        assert_eq!(p(0, &[], 1_050_000), 1);
    }

    /// A 3-party partner meeting, then a fresh meeting `m` on the same
    /// switch: the partner's tree half waits in the packing pool, so
    /// `m`'s first tree pairs with it at once (a half still waiting
    /// there pins every change of its meeting to the rebuild path —
    /// see [`SwitchAgent::graft_tiers`]'s re-pack guard).
    fn with_partner() -> (SwitchAgent, ScallopDataPlane, MeetingId) {
        let (mut agent, mut dp) = mk();
        let partner = agent.create_meeting();
        for i in 101..=103 {
            agent.join(&mut dp, partner, addr(i), true);
        }
        let m = agent.create_meeting();
        (agent, dp, m)
    }

    /// What compiling `joins` into `m` by one full rebuild bills,
    /// `(installs, removals)`: admit them into a copy, rebuild once.
    fn rebuild_bill(
        agent: &SwitchAgent,
        dp: &ScallopDataPlane,
        m: MeetingId,
        joins: &[(HostAddr, bool)],
    ) -> (u64, u64) {
        let (mut agent, mut dp) = agent.copy_with(dp);
        for &(a, sends) in joins {
            agent.admit(&mut dp, m, a, sends, ParticipantClass::Local, TRUNK_XID);
        }
        agent.rebuild_meeting(&mut dp, m);
        (dp.counters.rule_installs, dp.counters.rule_removals)
    }

    #[test]
    fn grafted_joins_match_full_rebuild() {
        // 6 joins: TwoParty -> NRA migration, then three grafted joins.
        let (mut agent, mut dp, m) = with_partner();
        for i in 1..=6 {
            agent.join(&mut dp, m, addr(i), i % 2 == 1);
            agent
                .check_compiled(&dp)
                .expect("grafted state is its rebuild");
        }
        assert!(agent.counters.graft_joins >= 3, "joins 4..6 must graft");
    }

    #[test]
    fn pruned_leaves_match_full_rebuild() {
        // Leave a receiver (3) and a sender (0) from a 7-party meeting;
        // both prunes must land on the rebuild reference.
        let (mut agent, mut dp, m) = with_partner();
        let grants: Vec<JoinGrant> = (1..=7)
            .map(|i| agent.join(&mut dp, m, addr(i), i % 2 == 1))
            .collect();
        for l in [3, 0] {
            agent.leave(&mut dp, m, grants[l].participant);
            agent
                .check_compiled(&dp)
                .expect("pruned state is its rebuild");
        }
        assert!(agent.counters.prune_leaves >= 1, "a leave must prune");
    }

    #[test]
    fn grafts_bill_fewer_flow_mods_than_rebuilds() {
        let (mut agent, mut dp, m) = with_partner();
        let (installs_before, mut rebuilt) = (dp.counters.rule_installs, 0);
        for i in 1..=12 {
            let join = (addr(i), i <= 2);
            rebuilt += rebuild_bill(&agent, &dp, m, &[join]).0;
            agent.join(&mut dp, m, join.0, join.1);
        }
        let grafted = dp.counters.rule_installs - installs_before;
        assert!(
            rebuilt > 2 * grafted,
            "per-join rebuilds must out-bill grafts: {rebuilt} vs {grafted}"
        );
    }

    #[test]
    fn a_batch_of_one_grafts_and_a_batch_of_two_rebuilds_once() {
        // A graftable layout: the partner meeting pairs the tree half,
        // three members put the meeting on NRA.
        let graftable = || {
            let (mut agent, mut dp, m) = with_partner();
            for i in 1..=3 {
                agent.join(&mut dp, m, addr(i), i == 1);
            }
            (agent, dp, m)
        };
        // What `joins` bill on that layout: (grafts, installs, removals).
        let bill = |joins: &[(HostAddr, bool)]| {
            let (mut agent, mut dp, m) = graftable();
            let (grafts, before) = (agent.counters.graft_joins, dp.counters);
            assert_eq!(agent.join_many(&mut dp, m, joins).len(), joins.len());
            (
                agent.counters.graft_joins - grafts,
                dp.counters.rule_installs - before.rule_installs,
                dp.counters.rule_removals - before.rule_removals,
            )
        };
        let (agent, dp, m) = graftable();
        // A join is a burst of one: one graft, touching nothing that
        // was installed — far below the rebuild bill for the same join.
        let one = bill(&[(addr(4), false)]);
        let one_rebuilt = rebuild_bill(&agent, &dp, m, &[(addr(4), false)]);
        assert_eq!((one.0, one.2), (1, 0), "a batch of one grafts");
        assert!(one.1 < one_rebuilt.0, "{} vs {}", one.1, one_rebuilt.0);
        // `join` is that same batch of one.
        let (mut agent1, mut dp1, _) = graftable();
        let before = dp1.counters.rule_installs;
        agent1.join(&mut dp1, m, addr(4), false);
        assert_eq!(dp1.counters.rule_installs - before, one.1);
        // Two joiners: no graft, exactly the bill of one full rebuild.
        let two = [(addr(4), false), (addr(5), true)];
        let (grafts, installs, removals) = bill(&two);
        assert_eq!(grafts, 0, "a batch of two does not graft");
        assert_eq!(
            (installs, removals),
            rebuild_bill(&agent, &dp, m, &two),
            "one rebuild"
        );
    }

    #[test]
    fn join_many_matches_sequential_joins() {
        // Batched admission admits in input order, so its final state
        // is byte-identical to sequential joins — one compile instead
        // of ten.
        let batch: Vec<(HostAddr, bool)> = (1..=10).map(|i| (addr(i), i <= 2)).collect();
        let (mut seq_agent, mut seq_dp) = mk();
        let m = seq_agent.create_meeting();
        for &(a, sends) in &batch {
            seq_agent.join(&mut seq_dp, m, a, sends);
        }
        let (mut bat_agent, mut bat_dp) = mk();
        let mb = bat_agent.create_meeting();
        let grants = bat_agent.join_many(&mut bat_dp, mb, &batch);
        assert_eq!(grants.len(), batch.len());
        assert_eq!(
            bat_agent.canonical_state(&bat_dp),
            seq_agent.canonical_state(&seq_dp),
            "batched admission diverged from sequential joins"
        );
        bat_agent.check_compiled(&bat_dp).expect("batch compiles");
        assert!(
            bat_dp.counters.rule_installs < seq_dp.counters.rule_installs,
            "one batch compile must bill less than per-join compiles"
        );
    }

    #[test]
    fn check_ignores_which_meeting_shares_a_packed_tree() {
        // A and B pack one NRA tree, C holds a second one alone. B falls
        // back to two-party, leaving A and C alone on half-empty trees:
        // a rebuild of A repacks it onto C's tree, in C's free slot,
        // while the installed A stays put until A itself changes.
        let (mut agent, mut dp) = mk();
        let mut grants = Vec::new();
        let meetings: Vec<MeetingId> = (0..3).map(|_| agent.create_meeting()).collect();
        for (k, &m) in meetings.iter().enumerate() {
            for i in 1..=3 {
                grants.push(agent.join(&mut dp, m, addr(10 * k as u8 + i), true));
            }
        }
        agent.leave(&mut dp, meetings[1], grants[3].participant);
        assert_eq!(dp.pre.groups_used(), 2);
        let (mut copy, mut copy_dp) = agent.copy_with(&dp);
        copy.rebuild_meeting(&mut copy_dp, meetings[0]);
        assert_eq!(copy_dp.pre.groups_used(), 1, "a rebuild repacks A onto C");
        // Partner and slot are naming, like the MGID: not a difference.
        agent
            .check_compiled(&dp)
            .expect("a lone packed meeting compiles");
    }
}
