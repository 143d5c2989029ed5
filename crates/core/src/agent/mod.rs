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
//!
//! # Layout: one file per job, one writer per table
//!
//! * This file holds the roster — each participant entry and meeting
//!   segment the switch serves — and the membership calls that change it.
//! * `alloc` hands out every id by one rule, the `IdPool`: SFU ports,
//!   participant ids (local and trunk-egress), MGIDs and Stream Tracker
//!   slots. It writes the two data-plane tables keyed by those ids, the
//!   L2 XIDs and the tracker rows, as ids are taken and given back.
//! * `compile` turns a meeting's roster into port rules, egress specs
//!   and PRE trees: the delta compiler (graft, re-aim, amend; a leave's
//!   prune is the removal of its pairs) and the full rebuild it falls
//!   back to. No list of installed entries is kept beside the tables: a
//!   (sender → receiver) pair names its egress entries, and is removed
//!   the way it was installed.
//! * `feedback` is the CPU path: feedback copies, the §5.3 filter,
//!   fabric REMB aggregation and decode-target changes.
//! * `check` is the per-edge half of the fabric check ([`crate::fabric::Fabric::check`]).
//!
//! Each data-plane table operation — install or remove a port rule or an
//! egress entry, create or destroy a tree, add or remove a branch, set or
//! clear an L2 XID, initialise, re-cadence or clear a tracker row — is
//! called from exactly one function of the agent.

mod alloc;
pub(crate) mod check;
mod compile;
mod feedback;

pub use alloc::FreeList;

use alloc::{IdPool, PortUse};
use compile::HalfTree;
use scallop_dataplane::switch::{ScallopDataPlane, STREAM_TRACKER_CAPACITY, TRUNK_RID_BASE};
use scallop_netsim::packet::{BufPool, HostAddr, Packet};
use scallop_netsim::stats::Ewma;
use scallop_netsim::time::SimTime;
use std::collections::{BTreeMap, HashMap};
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
pub(crate) const TRUNK_XID: u16 = 0xFFFE;

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
pub(crate) const WAN_XID: u16 = 0xFFFD;

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
/// decode target, newest (damped) estimate in bits/s.
pub type AdaptationPolicy = Rc<dyn Fn(u8, u64) -> u8>;

/// The paper's simple threshold heuristic, with a conservative 2.2×
/// upward hysteresis: moving a decode target up instantly *doubles* the
/// offered load, and a temporal-only SFU cannot probe for headroom with
/// padding, so the gate demands estimates that clearly cover the next
/// tier's needs. (Consequence: recovery to a higher tier requires the
/// estimate to rise well past the threshold — the paper's evaluation
/// likewise never exercises an automatic up-switch under constraint.)
pub(crate) fn default_policy(thresholds: [u64; 2]) -> AdaptationPolicy {
    Rc::new(move |curr, new_est| {
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
pub(crate) const DEFAULT_DT_THRESHOLDS: [u64; 2] = [680_000, 1_350_000];

/// Smoothing weight of the per-downlink REMB EWMA: react within ~2
/// feedback intervals, since the point of SFU-side adaptation is to
/// shed layers *before* the receiver's queue overflows (§5.3).
const EWMA_ALPHA: f64 = 0.5;

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
    /// Decode-target changes amended into the installed layout.
    pub dt_deltas: u64,
    /// Decode-target changes that rebuilt their meeting.
    pub dt_rebuilds: u64,
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
    /// A forwarding configuration has been installed at least once
    /// (design changes after this count as migrations).
    configured: bool,
}

/// The switch agent.
#[derive(Clone)]
pub struct SwitchAgent {
    sfu_ip: Ipv4Addr,
    /// SFU ports, `[10 000, 65 535)` unless [`Self::with_port_range`]
    /// narrows them to an edge's slice. Essential to recycle on a
    /// fabric: per-edge port ranges are narrow slices of the u16 space,
    /// and meeting churn would exhaust them.
    ports: IdPool,
    /// Local and remote-sender participant ids, below the trunk range.
    /// Like ports, RIDs are a finite per-switch resource (they double as
    /// PRE RIDs, L2 XIDs, and abstract egress ports); fabric meeting
    /// churn and segment GC hand them back.
    pids: IdPool,
    /// Trunk-egress pseudo-participants draw RIDs from the reserved
    /// high range so the data plane accounts their replicas as trunk
    /// traffic ([`TRUNK_RID_BASE`]).
    trunk_pids: IdPool,
    mgids: IdPool,
    trackers: IdPool,
    meetings: BTreeMap<MeetingId, MeetingState>,
    next_meeting: MeetingId,
    pinfo: BTreeMap<ParticipantId, Pinfo>,
    port_use: BTreeMap<u16, PortUse>,
    /// Half-open paired trees awaiting a second meeting (m = 2
    /// packing): NRA singles and RA-R triplets.
    half_trees: Vec<HalfTree>,
    /// A copy of one meeting's roster, for a walk that amends the agent
    /// as it goes ([`Self::take_roster`]); kept across calls.
    roster: Vec<ParticipantId>,
    /// Destroyed meetings, their vectors emptied but not freed: the
    /// next meeting created takes one, so segment churn re-grows none.
    spare_meetings: Vec<MeetingState>,
    policy: AdaptationPolicy,
    /// What the last [`Self::handle_cpu_packet`] sends, drained by its
    /// caller; the vector is kept across calls.
    out: Vec<Packet>,
    /// Buffers of the responses and REMBs in flight.
    pool: BufPool,
    /// Telemetry.
    pub counters: AgentCounters,
}

impl SwitchAgent {
    /// Create an agent managing the switch at `sfu_ip`.
    pub fn new(sfu_ip: Ipv4Addr) -> Self {
        SwitchAgent {
            sfu_ip,
            ports: IdPool::new("SFU port", 10_000, u16::MAX.into()),
            pids: IdPool::new("participant id", 1, TRUNK_RID_BASE.into()),
            trunk_pids: IdPool::new("trunk-egress id", TRUNK_RID_BASE, 1 << 16),
            mgids: IdPool::new("MGID", 1, 1 << 16),
            trackers: IdPool::new("tracker slot", 0, STREAM_TRACKER_CAPACITY as u32),
            meetings: BTreeMap::new(),
            next_meeting: 1,
            pinfo: BTreeMap::new(),
            port_use: BTreeMap::new(),
            half_trees: Vec::new(),
            roster: Vec::new(),
            spare_meetings: Vec::new(),
            policy: default_policy(DEFAULT_DT_THRESHOLDS),
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
        self.ports = IdPool::new("SFU port", base, limit.into());
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
        let (participants, trees) = match self.spare_meetings.pop() {
            Some(m) => (m.participants, m.trees),
            None => Default::default(),
        };
        self.meetings.insert(
            id,
            MeetingState {
                participants,
                design: TreeDesign::TwoParty,
                trees,
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
    pub(crate) fn join_remote_sender(
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
    pub(crate) fn join_egress(
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

    /// `Self::join_egress` on the trunk tier, under the name the
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
    pub(crate) fn set_trunk_dst(
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

    /// The (video, audio) uplink ports of a tracked participant entry —
    /// for a remote-sender entry, its trunk-ingress ports (the
    /// controller re-derives trunk destinations from these when a zone
    /// gateway migrates).
    pub(crate) fn uplink_ports(&self, pid: ParticipantId) -> Option<(u16, u16)> {
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

    /// `meeting`'s roster, copied into the agent's reused buffer so the
    /// caller can walk it while it amends the agent. Hand it back by
    /// storing it in `self.roster` again.
    fn take_roster(&mut self, meeting: MeetingId) -> Vec<ParticipantId> {
        let mut roster = std::mem::take(&mut self.roster);
        roster.clear();
        roster.extend_from_slice(&self.meetings[&meeting].participants);
        roster
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

    /// Remove a participant. Its branches and its pairs' egress entries,
    /// both ways, go before its state does; that is the whole prune when
    /// the installed layout holds (`graft_tiers`) and the meeting
    /// still forwards, and the meeting is rebuilt otherwise.
    pub fn leave(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId, pid: ParticipantId) {
        let Some(m) = self.meetings.get_mut(&meeting) else {
            return;
        };
        m.participants.retain(|&p| p != pid);
        let m = &self.meetings[&meeting];
        Self::remove_branches(dp, &m.trees, &[pid]);
        if let Some(p) = self.pinfo.get(&pid) {
            // The senders `pid` receives from are those it holds pair ports from.
            self.remove_pairs_egress(dp, [&pid], &m.participants, &m.trees, true);
            self.remove_pairs_egress(dp, p.pair_from.keys(), &[pid], &m.trees, true);
        }
        self.retire(dp, meeting, pid);
        if self.graft_tiers(meeting).is_some() && self.forwards_anything(meeting) {
            self.counters.prune_leaves += 1;
            // The leaver may have held a sender's best-downlink selection.
            self.refresh_feedback_gates(dp, meeting);
        } else {
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
        self.tear_down(dp, meeting);
        let m = self.meetings.remove(&meeting).expect("meeting exists");
        self.spare_meetings.push(m);
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
}

#[cfg(test)]
mod tests;
