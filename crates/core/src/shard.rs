//! Multi-controller sharding of the fabric control plane.
//!
//! A single controller ([`crate::controller`]) owning every meeting
//! across the whole campus is the control-plane bottleneck the SDN
//! literature warns about (east–west distribution in Kreutz et al.'s
//! SDN survey; per-tree controller state in Noghani & Sunay's SDN
//! multicast streaming).
//! This module partitions that ownership the way a distributed SDN
//! controller partitions one logically centralized view: a
//! [`ShardedControlPlane`] keeps **one** meeting store (a single
//! [`crate::controller`] holding every meeting's record) and runs `N`
//! [`ControllerShard`]s, each holding *claims* — the right to write a
//! record, under an epoch — on a **disjoint** set of fabric meetings.
//! No shard holds a copy of a record. Every shard shares the same
//! read-only [`Fabric`] / topology view (the fabric is passed by
//! `&Fabric` into every operation; no shard ever mutates it).
//!
//! # The sharding function
//!
//! Ownership is decided by **consistent hashing with bounded loads**:
//!
//! * A [`HashRing`] places [`VNODES_PER_SHARD`] virtual nodes per shard
//!   on a 64-bit ring (FNV-1a of `(shard, vnode)`; fully deterministic,
//!   no RNG). [`HashRing::shard_for`] maps a key to the owner of the
//!   first virtual node at or after it. Changing the shard count moves
//!   only the keys whose arc gained a new virtual node — when a shard
//!   is added, keys move **only to the new shard**, never between
//!   surviving shards (pinned by this module's tests).
//! * The ring key for a meeting is [`meeting_key`]`(gmid, home_edge)`:
//!   the meeting id hashed together with its **home edge**. Placement
//!   stays uniform (the hash decorrelates both inputs); folding the
//!   home edge in exists so that a data-plane re-home *changes the
//!   key* and thereby re-evaluates control ownership (see the handoff
//!   protocol below).
//! * The raw ring choice is post-processed by a **bounded-loads** walk
//!   ([`HashRing::preference`] order): a shard already owning
//!   `ceil(meetings/shards)` meetings is skipped, so no shard ever owns
//!   more than `ceil(meetings/shards) + 1` meetings — control load
//!   provably scales with the number of shards (edges), not with the
//!   fabric.
//!
//! # The ownership handoff
//!
//! A handoff moves a claim, not a record: the acquiring shard takes a
//! claim on the meeting under its current epoch, then the releasing
//! shard gives its claim up, so the meeting is never unowned
//! (make-before-break, mirroring the data-plane cutover invariant of
//! [`ShardedControlPlane::rebalance_fabric`]). The record stays in the
//! one store and references only edge-switch ids, so no switch rule
//! changes during a handoff — media never blips. Each claim taken and
//! each claim given up counts as one east–west signaling exchange.
//!
//! Joins need no message of their own: each edge's signaling terminates
//! at the shard fronting that edge
//! ([`ShardedControlPlane::ingress_shard`]), and
//! [`ShardedControlPlane::join`] hands every request to the meeting's
//! owner, counting one forward per request that entered elsewhere.
//!
//! # When does a handoff fire?
//!
//! 1. **Re-homing.** [`ShardedControlPlane::rebalance_fabric`] first
//!    runs the re-homing pass ([`crate::controller`] module
//!    docs; hysteresis [`crate::controller::REBALANCE_HYSTERESIS`]).
//!    When the meeting re-homes, its ring key changes, and if the
//!    bounded-loads walk now names a different shard the meeting is
//!    handed off in the same pass — "the hash says so".
//! 2. **Re-sharding.** [`ShardedControlPlane::set_shard_count`] resizes
//!    the ring and re-evaluates every meeting; consistent hashing keeps
//!    the number of handoffs near `meetings / new_shards` instead of
//!    re-shuffling everything.
//! 3. **Lease expiry.** A shard that goes silent stops renewing its
//!    ownership lease; once it drains, peers steal its meetings (next
//!    section).
//!
//! # Ownership liveness: leases and epoch fencing
//!
//! The handoff above is *cooperative* — both sides are alive.
//! Fail-stop shard death needs a liveness escape hatch, modeled after
//! the standard lease + fencing-token construction:
//!
//! * **Leases.** Every shard holds an ownership lease of
//!   [`LEASE_TICKS`] ticks, renewed implicitly while it is live. A
//!   shard marked silent ([`ShardedControlPlane::silence_shard`])
//!   stops renewing; [`ShardedControlPlane::tick_leases`] drains its
//!   lease one tick at a time.
//! * **Steal.** Once the lease hits zero,
//!   [`ShardedControlPlane::steal_expired_leases`] re-assigns each of
//!   the silent shard's meetings to a live peer (silent shards are
//!   excluded from the bounded-loads walk) by the same transfer a
//!   cooperative handoff uses, with two differences: the epoch is
//!   bumped first, and the silent owner's claim is not released — it
//!   cannot hear the release. The record itself never moved, so the
//!   thief writes the one the silent owner was writing.
//! * **Epoch fencing.** Every meeting record carries an **epoch**
//!   (fencing token), bumped on each steal. The stale claim held by a
//!   silent owner keeps its old epoch, so when the shard resurrects
//!   ([`ShardedControlPlane::revive_shard`]) and tries to re-assert
//!   ownership, the write is rejected (counted in
//!   [`ShardedControlPlane::stale_epoch_writes_rejected`]) and the
//!   shard drops its stale claim. A stale claim is only a claim: no
//!   operation walks it, so a silent owner's meetings are never
//!   evacuated or repaired twice. A follow-up
//!   [`ShardedControlPlane::rebalance_ownership`] re-admits the
//!   revived shard into the bounded-loads spread.
//!
//! # Retirement
//!
//! When a meeting's last member leaves, its record leaves the store and
//! its ownership, load count and claim leave the plane: the maps and
//! the bounded-loads counts hold live meetings only. One `(home,
//! epoch)` tombstone per retired id stays behind in the store; a join
//! naming such an id revives the meeting through the ordinary placement
//! walk for its old home, at its old epoch.
//!
//! ```
//! use scallop_core::fabric::Fabric;
//! use scallop_core::shard::{ShardedControlPlane, LEASE_TICKS};
//! use scallop_dataplane::seqrewrite::SeqRewriteMode;
//! use scallop_netsim::link::LinkConfig;
//! use scallop_netsim::sim::Simulator;
//! use scallop_netsim::time::SimDuration;
//! use scallop_netsim::topology::Topology;
//!
//! let mut sim = Simulator::new(1);
//! let fabric = Fabric::build(
//!     &mut sim,
//!     Topology::campus(2, 0),
//!     LinkConfig::infinite(SimDuration::from_micros(50)),
//!     SeqRewriteMode::LowRetransmission,
//! );
//! let mut plane = ShardedControlPlane::new(2);
//! let gmid = plane.create_fabric_meeting(&mut sim, &fabric, 0);
//! let owner = plane.owner_of(gmid).unwrap();
//!
//! // The owner goes silent; its lease drains and a peer steals the
//! // meeting under a bumped epoch.
//! plane.silence_shard(owner);
//! for _ in 0..LEASE_TICKS {
//!     plane.tick_leases();
//! }
//! assert_eq!(plane.steal_expired_leases(), 1);
//! assert_ne!(plane.owner_of(gmid), Some(owner));
//! assert_eq!(plane.meeting_epoch(gmid), Some(2));
//!
//! // The resurrected owner's re-assertion carries the stale epoch and
//! // is fenced off.
//! assert_eq!(plane.revive_shard(owner), 1);
//! assert_eq!(plane.stale_epoch_writes_rejected(), 1);
//! ```

use crate::agent::{MeetingId, ParticipantId};
use crate::capacity::{AdmissionDecision, FabricBudgets, FabricLoadLedger};
use crate::controller::{
    Controller, FabricGrant, GlobalMeetingId, GlobalParticipantId, JoinOutcome, JoinRequest,
};
use crate::fabric::Fabric;
use crate::meeting::FabricMeetingState;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::Simulator;
use scallop_netsim::topology::Topology;
use std::collections::BTreeMap;

/// Virtual nodes per shard on the consistent-hash ring. More virtual
/// nodes smooth the arc distribution (so the pure hash is already
/// nearly balanced before the bounded-loads walk corrects the tail).
pub const VNODES_PER_SHARD: usize = 64;

/// Ownership-lease duration, in lease ticks: a silent shard's meetings
/// become stealable after this many [`ShardedControlPlane::tick_leases`]
/// calls without a renewal (live shards renew implicitly every tick).
pub const LEASE_TICKS: u64 = 3;

/// 64-bit FNV-1a with a splitmix64 finalizer — deterministic and
/// dependency-free. Raw FNV-1a has poor high-bit avalanche on the
/// short, structured inputs hashed here (sequential ids, small edge
/// indices), which clusters ring points onto one arc; the finalizer
/// restores a uniform spread.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// splitmix64's avalanche finalizer.
fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The ring key of a fabric meeting: its id hashed together with its
/// current home edge, so re-homing a meeting changes its key and
/// re-evaluates shard ownership (module docs).
pub fn meeting_key(gmid: GlobalMeetingId, home_edge: usize) -> u64 {
    let mut buf = [0u8; 12];
    buf[..4].copy_from_slice(&gmid.to_le_bytes());
    buf[4..].copy_from_slice(&(home_edge as u64).to_le_bytes());
    fnv1a64(&buf)
}

/// The ring key of an edge switch (decides which shard fronts that
/// edge's signaling).
pub fn edge_key(edge: usize) -> u64 {
    fnv1a64(&(edge as u64).to_le_bytes())
}

/// A deterministic consistent-hash ring with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, shard)` pairs, sorted by position.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Build a ring for `shards` shards ([`VNODES_PER_SHARD`] virtual
    /// nodes each).
    pub fn new(shards: usize) -> HashRing {
        assert!(shards >= 1, "at least one shard");
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for s in 0..shards {
            for v in 0..VNODES_PER_SHARD {
                let mut buf = [0u8; 16];
                buf[..8].copy_from_slice(&(s as u64).to_le_bytes());
                buf[8..].copy_from_slice(&(v as u64).to_le_bytes());
                points.push((fnv1a64(&buf), s));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The pure consistent-hash choice: the shard owning the first
    /// virtual node at or after `key` (wrapping).
    pub fn shard_for(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }

    /// Every shard in ring order starting at `key`, deduplicated — the
    /// probe sequence of the bounded-loads walk. The first element is
    /// [`Self::shard_for`]`(key)`.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.shards];
        let mut order = Vec::with_capacity(self.shards);
        for off in 0..self.points.len() {
            let (_, s) = self.points[(start + off) % self.points.len()];
            if !seen[s] {
                seen[s] = true;
                order.push(s);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

/// One controller shard: its claims on meetings whose records live in
/// the plane's one store, plus protocol telemetry.
#[derive(Debug, Default)]
pub struct ControllerShard {
    /// Claims this shard took over from another shard (handoff or
    /// steal).
    pub meetings_acquired: u64,
    /// Claims this shard gave up (handoff, or fenced at revival).
    pub meetings_released: u64,
    /// Cross-shard joins this shard executed for other ingress shards.
    pub joins_forwarded: u64,
    /// The epoch each claimed meeting was acquired (or created) under —
    /// the shard's half of the fencing comparison.
    claims: BTreeMap<GlobalMeetingId, u64>,
}

impl ControllerShard {
    /// Meetings this shard claims — stale claims of a silent shard
    /// included until its revival fences them.
    pub fn meetings_owned(&self) -> usize {
        self.claims.len()
    }

    /// The epoch this shard claims a meeting under, if it claims it.
    pub fn epoch_held(&self, gmid: GlobalMeetingId) -> Option<u64> {
        self.claims.get(&gmid).copied()
    }
}

/// What one [`ShardedControlPlane::rebalance_all`] pass did — callers
/// (harness, benches, tests) assert on these counts instead of
/// discarding them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RebalanceSummary {
    /// Meetings whose home edge moved.
    pub rehomed: usize,
    /// Meetings whose owning shard moved (always ≤ `rehomed` during a
    /// rebalance pass; re-sharding handoffs are reported by
    /// [`ShardedControlPlane::set_shard_count`] directly).
    pub shard_handoffs: usize,
    /// Re-homes that crossed a zone boundary during this pass. Under
    /// zone-affine sharding each of these implies a shard handoff (the
    /// eligible shard sets of two zones are disjoint).
    pub cross_zone_handoffs: usize,
    /// Meetings per home zone after the pass (index = zone; a single
    /// `vec![total]` on an unzoned plane).
    pub zone_meetings: Vec<usize>,
}

/// The sharded control plane — the fabric's one public control
/// surface: one meeting store and `N` [`ControllerShard`]s claiming its
/// records behind one fabric-meeting API (create, [`Self::join`],
/// leave, rebalance, repair), plus the ownership map, the
/// [`HashRing`], id allocation, and protocol telemetry.
///
/// With one shard this is exactly a single controller: nothing is ever
/// forwarded or handed off. Sharding changes who keeps a meeting's
/// books, never the ids allocated or the per-edge operation sequence,
/// so the whole test corpus also runs under `SCALLOP_SHARDS=4`.
#[derive(Debug)]
pub struct ShardedControlPlane {
    ring: HashRing,
    /// The one meeting store: every meeting's record and tombstone,
    /// whichever shard owns it.
    controller: Controller,
    shards: Vec<ControllerShard>,
    /// Current owner of every tracked meeting.
    owner: BTreeMap<GlobalMeetingId, usize>,
    /// Meetings owned per shard, maintained incrementally (index =
    /// shard id; always consistent with `owner`) so the bounded-loads
    /// walk is O(shards), not O(meetings).
    loads: Vec<usize>,
    next_global_meeting: GlobalMeetingId,
    next_global_participant: GlobalParticipantId,
    handoffs: u64,
    forwards: u64,
    /// Cumulative re-homes that crossed a zone boundary.
    cross_zone_handoffs: u64,
    /// Zone count for zone-affine assignment (1 = unzoned: every shard
    /// is eligible for every meeting).
    zones: usize,
    /// Edges per zone (zone of a home edge = `home / edges_per_zone`).
    edges_per_zone: usize,
    /// Shards currently considered silent (fail-stopped).
    silent: Vec<bool>,
    /// Lease ticks remaining per shard; live shards renew to
    /// [`LEASE_TICKS`] on every [`Self::tick_leases`].
    lease_left: Vec<u64>,
    /// Meetings stolen from silent owners after lease expiry.
    lease_steals: u64,
    /// Stale-epoch ownership re-assertions fenced off at revival.
    stale_epoch_writes_rejected: u64,
    /// The fabric-load ledger — the capacity planner's single book,
    /// lent to the controller for every call that prices, debits or
    /// credits, so the plane-wide budgets hold regardless of which
    /// shard owns a meeting.
    ledger: FabricLoadLedger,
}

impl ShardedControlPlane {
    /// Create a control plane of `shards` controller instances.
    pub fn new(shards: usize) -> ShardedControlPlane {
        assert!(shards >= 1, "at least one shard");
        ShardedControlPlane {
            ring: HashRing::new(shards),
            controller: Controller::default(),
            shards: (0..shards).map(|_| ControllerShard::default()).collect(),
            owner: BTreeMap::new(),
            loads: vec![0; shards],
            next_global_meeting: 0,
            next_global_participant: 0,
            handoffs: 0,
            forwards: 0,
            cross_zone_handoffs: 0,
            zones: 1,
            edges_per_zone: usize::MAX,
            silent: vec![false; shards],
            lease_left: vec![LEASE_TICKS; shards],
            lease_steals: 0,
            stale_epoch_writes_rejected: 0,
            ledger: FabricLoadLedger::default(),
        }
    }

    /// Builder: shard affinity = campus. A zone-`z` meeting may only be
    /// owned by shards `s` with `s % zones == z` (falling back to
    /// `z % shards` when no such shard exists), so an intra-zone
    /// re-home never hands ownership to another campus's controllers
    /// and a **cross**-zone re-home always does — through the ordinary
    /// handoff. The rule has no special case: with `zones == 1` (the
    /// default) every home is in zone 0 and every shard is eligible,
    /// which is the unzoned bounded-loads assignment.
    pub fn with_zone_affinity(mut self, zones: usize, edges_per_zone: usize) -> Self {
        assert!(zones >= 1 && edges_per_zone >= 1);
        self.zones = zones;
        self.edges_per_zone = edges_per_zone;
        self
    }

    /// The zone a home edge falls in (always zone 0 on an unzoned
    /// plane, whose one zone spans every edge).
    fn zone_of_home(&self, home: usize) -> usize {
        (home / self.edges_per_zone).min(self.zones - 1)
    }

    /// The shards eligible to own zone `zone`'s meetings: those `s` with
    /// `s % zones == zone`, or `zone % shards` when none is (every
    /// shard on an unzoned plane).
    pub fn zone_shards(&self, zone: usize) -> Vec<usize> {
        let eligible: Vec<usize> = (0..self.ring.shards())
            .filter(|s| s % self.zones == zone)
            .collect();
        if eligible.is_empty() {
            vec![zone % self.ring.shards()]
        } else {
            eligible
        }
    }

    /// Number of controller shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `i` (telemetry, tests).
    pub fn shard(&self, i: usize) -> &ControllerShard {
        &self.shards[i]
    }

    /// The shard currently owning a meeting.
    pub fn owner_of(&self, gmid: GlobalMeetingId) -> Option<usize> {
        self.owner.get(&gmid).copied()
    }

    /// The shard fronting an edge's signaling: joins from this edge
    /// enter the control plane here and are forwarded when the meeting
    /// is owned elsewhere.
    pub fn ingress_shard(&self, edge: usize) -> usize {
        self.ring.shard_for(edge_key(edge))
    }

    /// Meetings owned per shard (index = shard id).
    pub fn meetings_per_shard(&self) -> Vec<usize> {
        self.loads.clone()
    }

    /// Total ownership handoffs performed (re-homing + re-sharding).
    pub fn handoff_total(&self) -> u64 {
        self.handoffs
    }

    /// Total cross-shard joins forwarded.
    pub fn forward_total(&self) -> u64 {
        self.forwards
    }

    /// Signaling transactions served: the controller's, plus one per
    /// claim taken over and one per claim given up.
    pub fn signaling_exchanges(&self) -> u64 {
        self.controller.signaling_exchanges
    }

    /// Claims given up, by every shard there ever was: one per
    /// cooperative handoff and one per stale claim fenced at revival.
    pub fn meetings_released_total(&self) -> u64 {
        self.handoffs - self.lease_steals + self.stale_epoch_writes_rejected
    }

    /// The bounded-loads owner choice for ring key `key`, restricted to
    /// the home zone's eligible shards, with `exclude` (a meeting being
    /// re-evaluated) not counted against any shard's load. See the
    /// module docs for the balance bound; on an unzoned plane every
    /// shard is eligible.
    fn assign(&self, key: u64, exclude: Option<GlobalMeetingId>, zone: usize) -> usize {
        // O(shards): the per-shard loads are maintained incrementally.
        // During a shrink the shards vec is longer than the ring while
        // dropped shards are evacuated; the ring's shard count is the
        // live one, and only ring shards can win the walk.
        let mut loads = self.loads.clone();
        let mut total = self.owner.len();
        if let Some(&s) = exclude.and_then(|g| self.owner.get(&g)) {
            loads[s] -= 1;
            total -= 1;
        }
        // Silent shards cannot win ownership — a stolen or new meeting
        // must land on a live peer. If every eligible shard is silent
        // (total control-plane outage) the unfiltered set is kept so
        // the walk still terminates; nothing better exists.
        let all = self.zone_shards(zone);
        let live: Vec<usize> = all.iter().copied().filter(|&s| !self.silent[s]).collect();
        let eligible = if live.is_empty() { all } else { live };
        let cap = (total + 1).div_ceil(eligible.len());
        self.ring
            .preference(key)
            .into_iter()
            .find(|&s| eligible.contains(&s) && loads[s] < cap)
            .expect("cap * eligible >= total + 1, so a shard has room")
    }

    /// The shard the plane would pick if `gmid` were homed on `home`
    /// (placement introspection for tests and benches; does not move
    /// anything).
    pub fn planned_owner(&self, gmid: GlobalMeetingId, home: usize) -> usize {
        self.assign(meeting_key(gmid, home), Some(gmid), self.zone_of_home(home))
    }

    /// Place `gmid`, homed on `home`, on the bounded-loads walk's shard
    /// and give that shard a claim under `epoch`.
    fn place(&mut self, gmid: GlobalMeetingId, home: usize, epoch: u64) -> usize {
        let owner = self.assign(meeting_key(gmid, home), None, self.zone_of_home(home));
        self.shards[owner].claims.insert(gmid, epoch);
        self.owner.insert(gmid, owner);
        self.loads[owner] += 1;
        owner
    }

    /// The owner of `gmid` for a join. A retired meeting is placed
    /// first, by the ordinary walk for its tombstone's home and at its
    /// tombstone's epoch (the controller's join path re-creates the
    /// record).
    fn owner_or_revive(&mut self, gmid: GlobalMeetingId) -> usize {
        if let Some(&owner) = self.owner.get(&gmid) {
            return owner;
        }
        let &(home, epoch) = self
            .controller
            .tombstones
            .get(&gmid)
            .expect("fabric meeting");
        self.place(gmid, home, epoch)
    }

    /// Retire `gmid` from the plane if its record just left the store
    /// (last member gone, or a revival fully refused): its ownership
    /// entry, load count and claim go; the store keeps its tombstone.
    fn settle(&mut self, gmid: GlobalMeetingId) {
        if self.controller.fabric_meetings.contains_key(&gmid) {
            return;
        }
        if let Some(s) = self.owner.remove(&gmid) {
            self.loads[s] -= 1;
            self.shards[s].claims.remove(&gmid);
        }
    }

    // ------------------------------------------------------------------
    // The fabric-meeting API (executed on the one store)
    // ------------------------------------------------------------------

    /// Arm the capacity planner: every join, whichever shard owns its
    /// meeting, is booked against the plane's one [`FabricLoadLedger`]
    /// under the same budgets.
    pub fn set_capacity_budgets(&mut self, budgets: FabricBudgets, topo: &Topology) {
        self.ledger.set_budgets(budgets, topo);
    }

    /// The plane's fabric-load ledger (telemetry).
    pub fn ledger(&self) -> &FabricLoadLedger {
        &self.ledger
    }

    /// Shim: a copy of [`Self::ledger`] in a fresh cell. The frozen
    /// `benchmark/src/sut.rs` names it and is its only caller;
    /// benchmark v2 deletes it.
    pub fn ledger_handle(&self) -> std::rc::Rc<std::cell::RefCell<FabricLoadLedger>> {
        std::rc::Rc::new(self.ledger.clone().into())
    }

    /// Place a meeting on the fabric with `home` as its home edge and
    /// assign it to a shard (sharding function in the module docs).
    pub fn create_fabric_meeting(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        home: usize,
    ) -> GlobalMeetingId {
        self.next_global_meeting += 1;
        let gmid = self.next_global_meeting;
        self.controller
            .create_fabric_meeting_as(sim, fabric, home, gmid);
        // Every meeting is born in epoch 1; steals bump it.
        self.place(gmid, home, 1);
        gmid
    }

    /// The one way into a fabric meeting: decide and execute a burst of
    /// join requests (a single join is a burst of one), answering each
    /// in input order.
    ///
    /// Every request enters at its edge's ingress shard and is executed
    /// by the meeting's owner; one whose ingress shard is not the owner
    /// is counted as one forward — verdict and grant travel back over
    /// the same east–west path. The owner takes the requests edge by
    /// edge (edges in first-appearance order) and **prices** each
    /// against the shared ledger as the requests before it left it
    /// (always [`AdmissionDecision::Admitted`] while no budgets are
    /// enforced; a refusal is typed, counted, and executes nothing),
    /// **materializes** the edge's segment on the first admission,
    /// **admits** each edge's joiners into its switch agent as one batch
    /// — one compile per affected segment — then **records** them,
    /// books their ports, caps SVC-thin receivers' decode target, and
    /// **plumbs** the senders toward every other segment.
    ///
    /// Ids: admitted request `i` gets the next unused participant id
    /// `+ i`, so a fully admitted burst numbers its members
    /// consecutively in input order and a refused single join consumes
    /// nothing; a burst with refusals in the middle leaves gaps.
    pub fn join(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        reqs: &[JoinRequest],
    ) -> Vec<JoinOutcome> {
        let mut out = vec![JoinOutcome::UNDECIDED; reqs.len()];
        self.join_into(sim, fabric, gmid, reqs, &mut out);
        out
    }

    /// [`Self::join`] into a caller-held buffer of `reqs.len()` slots
    /// (a single join answers into a stack slot).
    fn join_into(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        reqs: &[JoinRequest],
        out: &mut [JoinOutcome],
    ) {
        let owner = self.owner_or_revive(gmid);
        let forwarded = reqs
            .iter()
            .filter(|r| self.ingress_shard(r.edge) != owner)
            .count() as u64;
        self.forwards += forwarded;
        self.shards[owner].joins_forwarded += forwarded;
        let first = self.next_global_participant + 1;
        self.controller
            .join(sim, fabric, &mut self.ledger, gmid, reqs, first, out);
        if let Some(last) = out.iter().rposition(|o| o.grant.is_some()) {
            self.next_global_participant += last as GlobalParticipantId + 1;
        }
        // A fully refused revival stays retired.
        self.settle(gmid);
    }

    /// Shim: [`Self::join`] of one, panicking on a refusal. The frozen
    /// `benchmark/src/sut.rs` names it and is its only caller;
    /// benchmark v2 deletes it.
    pub fn join_fabric(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        edge: usize,
        addr: HostAddr,
        sends: bool,
    ) -> FabricGrant {
        let mut out = [JoinOutcome::UNDECIDED];
        let req = JoinRequest { edge, addr, sends };
        self.join_into(sim, fabric, gmid, &[req], &mut out);
        out[0].grant.expect("join refused")
    }

    /// Shim: [`Self::join`] of one, as a `(decision, grant)` pair. The
    /// frozen `benchmark/src/sut.rs` names it and is its only caller;
    /// benchmark v2 deletes it.
    pub fn try_join_fabric(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        edge: usize,
        addr: HostAddr,
        sends: bool,
    ) -> (AdmissionDecision, Option<FabricGrant>) {
        let mut out = [JoinOutcome::UNDECIDED];
        let req = JoinRequest { edge, addr, sends };
        self.join_into(sim, fabric, gmid, &[req], &mut out);
        (out[0].decision, out[0].grant)
    }

    /// Shim: [`Self::join`] over `(edge, addr, sends)` tuples, keeping
    /// only the admitted joins' grants. The frozen
    /// `benchmark/src/sut.rs` names it and is its only caller;
    /// benchmark v2 deletes it.
    pub fn join_fabric_many(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        joins: &[(usize, HostAddr, bool)],
    ) -> Vec<FabricGrant> {
        let reqs: Vec<JoinRequest> = joins
            .iter()
            .map(|&(edge, addr, sends)| JoinRequest { edge, addr, sends })
            .collect();
        let outcomes = self.join(sim, fabric, gmid, &reqs);
        outcomes.into_iter().filter_map(|o| o.grant).collect()
    }

    /// Remove a fabric participant (including the segment GC of the
    /// [`crate::controller`] module docs). When the last member leaves,
    /// the meeting is retired from the plane.
    pub fn leave_fabric(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        global: GlobalParticipantId,
    ) {
        self.controller
            .leave_fabric(sim, fabric, &mut self.ledger, gmid, global);
        self.settle(gmid);
    }

    /// Revisit one meeting's placement: run the re-homing pass
    /// ([`crate::controller`] module docs; home-edge hysteresis), and if
    /// the meeting re-homed, re-evaluate shard ownership for the new
    /// key and hand the meeting off when the hash names another shard.
    /// Returns the re-home `(old_home, new_home)` if one happened.
    pub fn rebalance_fabric(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
    ) -> Option<(usize, usize)> {
        let moved = self
            .controller
            .rebalance_fabric(sim, fabric, &mut self.ledger, gmid);
        if let Some((old_home, new_home)) = moved {
            if self.zone_of_home(old_home) != self.zone_of_home(new_home) {
                self.cross_zone_handoffs += 1;
            }
            self.hand_off(gmid, false);
        }
        moved
    }

    /// Hand `gmid` to the bounded-loads choice for its current home's
    /// key if that differs from its owner — the one transfer a
    /// cooperative handoff and a lease steal (`steal`) share. The
    /// record never moves: the target takes a claim under the meeting's
    /// epoch, which a steal bumps first, and then the old owner gives
    /// its claim up — except on a steal, whose silent owner cannot hear
    /// the release ([`Self::revive_shard`] fences its stale claim).
    /// Returns whether a handoff happened.
    fn hand_off(&mut self, gmid: GlobalMeetingId, steal: bool) -> bool {
        let rec = &self.controller.fabric_meetings[&gmid];
        let (home, owner) = (rec.home, self.owner[&gmid]);
        let target = self.assign(meeting_key(gmid, home), Some(gmid), self.zone_of_home(home));
        if target == owner {
            return false;
        }
        let rec = self
            .controller
            .fabric_meetings
            .get_mut(&gmid)
            .expect("fabric meeting");
        rec.epoch += u64::from(steal);
        self.shards[target].claims.insert(gmid, rec.epoch);
        self.shards[target].meetings_acquired += 1;
        self.controller.signaling_exchanges += 1;
        self.owner.insert(gmid, target);
        self.loads[owner] -= 1;
        self.loads[target] += 1;
        self.handoffs += 1;
        if steal {
            self.lease_steals += 1;
        } else {
            self.release_claim(owner, gmid);
        }
        true
    }

    /// Shard `s` gives up its claim on `gmid`.
    fn release_claim(&mut self, s: usize, gmid: GlobalMeetingId) {
        self.shards[s].claims.remove(&gmid);
        self.shards[s].meetings_released += 1;
        self.controller.signaling_exchanges += 1;
    }

    /// Run [`Self::rebalance_fabric`] over every tracked meeting and
    /// report how many re-homed and how many changed shards — callers
    /// must no longer discard these counts silently.
    pub fn rebalance_all(&mut self, sim: &mut Simulator, fabric: &Fabric) -> RebalanceSummary {
        let before = self.handoffs;
        let before_cross = self.cross_zone_handoffs;
        let gmids: Vec<GlobalMeetingId> = self.owner.keys().copied().collect();
        let rehomed = gmids
            .into_iter()
            .filter(|&g| self.rebalance_fabric(sim, fabric, g).is_some())
            .count();
        RebalanceSummary {
            rehomed,
            shard_handoffs: (self.handoffs - before) as usize,
            cross_zone_handoffs: (self.cross_zone_handoffs - before_cross) as usize,
            zone_meetings: self.zone_meeting_counts(),
        }
    }

    /// Meetings per home zone (index = zone; `vec![total]` on an
    /// unzoned plane).
    pub fn zone_meeting_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.zones];
        for rec in self.controller.fabric_meetings.values() {
            counts[self.zone_of_home(rec.home)] += 1;
        }
        counts
    }

    /// Cumulative re-homes that crossed a zone boundary.
    pub fn cross_zone_handoff_total(&self) -> u64 {
        self.cross_zone_handoffs
    }

    /// Re-shard the control plane to `n` shards: rebuild the ring,
    /// re-evaluate every meeting in id order
    /// ([`Self::rebalance_ownership`]), and hand off the ones whose
    /// owner changed. Consistent hashing keeps the movement near
    /// `meetings / n` when growing (and pinned tests verify keys only
    /// move *to* a freshly added shard on the raw ring). Returns the
    /// number of handoffs performed.
    pub fn set_shard_count(&mut self, n: usize) -> usize {
        assert!(n >= 1, "at least one shard");
        self.ring = HashRing::new(n);
        while self.shards.len() < n {
            self.shards.push(ControllerShard::default());
            self.loads.push(0);
            self.silent.push(false);
            self.lease_left.push(LEASE_TICKS);
        }
        let moved = self.rebalance_ownership();
        // Shrinking: every meeting has been evacuated off the dropped
        // shards by the bounded walk (their ring points are gone).
        debug_assert!(
            self.loads[n..].iter().all(|&l| l == 0),
            "dropped shards were evacuated"
        );
        self.shards.truncate(n);
        self.loads.truncate(n);
        self.silent.truncate(n);
        self.lease_left.truncate(n);
        moved
    }

    // ------------------------------------------------------------------
    // Ownership liveness: leases, steals, epoch fencing (module docs)
    // ------------------------------------------------------------------

    /// Mark a shard silent (fail-stopped): it stops renewing its
    /// ownership lease and is excluded from new assignments. Its
    /// meetings stay nominally owned until the lease expires — a real
    /// deployment cannot distinguish a dead peer from a slow one any
    /// faster than the lease allows.
    pub fn silence_shard(&mut self, s: usize) {
        self.silent[s] = true;
    }

    /// Whether a shard is currently marked silent.
    pub fn shard_is_silent(&self, s: usize) -> bool {
        self.silent[s]
    }

    /// Advance lease time by one tick: live shards renew to
    /// [`LEASE_TICKS`], silent shards drain toward expiry.
    pub fn tick_leases(&mut self) {
        for s in 0..self.shards.len().min(self.lease_left.len()) {
            if self.silent[s] {
                self.lease_left[s] = self.lease_left[s].saturating_sub(1);
            } else {
                self.lease_left[s] = LEASE_TICKS;
            }
        }
    }

    /// Lease ticks a shard has left before its meetings become
    /// stealable ([`LEASE_TICKS`] for any live shard).
    pub fn lease_remaining(&self, s: usize) -> u64 {
        self.lease_left[s]
    }

    /// Steal every meeting whose owner's lease has expired: each is
    /// re-assigned to a live peer by the bounded-loads walk and claimed
    /// under a **bumped epoch**, by the transfer a cooperative handoff
    /// uses. No release is sent to the silent owner (it cannot hear
    /// one); its stale claim is fenced by the epoch and dropped by
    /// [`Self::revive_shard`]. Returns the number of meetings stolen.
    pub fn steal_expired_leases(&mut self) -> u64 {
        let victims: Vec<GlobalMeetingId> = self
            .owner
            .iter()
            .filter(|&(_, &o)| self.silent[o] && self.lease_left[o] == 0)
            .map(|(&g, _)| g)
            .collect();
        // A victim stays put when every eligible peer is silent too.
        victims
            .into_iter()
            .filter(|&g| self.hand_off(g, true))
            .count() as u64
    }

    /// Re-admit a resurrected shard: clear its silence, restore its
    /// lease, and reconcile its stale claims — for every meeting it
    /// still claims but no longer owns, its re-assertion carries the
    /// old epoch, is fenced off (the record's epoch, or its
    /// tombstone's, is strictly newer), and the shard drops the claim.
    /// Returns the number of stale writes rejected. Follow with
    /// [`Self::rebalance_ownership`] to fold the shard back into the
    /// bounded-loads spread.
    pub fn revive_shard(&mut self, s: usize) -> u64 {
        self.silent[s] = false;
        self.lease_left[s] = LEASE_TICKS;
        let stale: Vec<(GlobalMeetingId, u64)> = self.shards[s]
            .claims
            .iter()
            .filter(|&(g, _)| self.owner.get(g) != Some(&s))
            .map(|(&g, &held)| (g, held))
            .collect();
        for &(gmid, held) in &stale {
            let store = &self.controller;
            let current = match store.fabric_meetings.get(&gmid) {
                Some(rec) => rec.epoch,
                None => store.tombstones.get(&gmid).map_or(0, |&(_, e)| e),
            };
            assert!(
                held < current,
                "a stolen meeting's record epoch is strictly newer"
            );
            self.release_claim(s, gmid);
        }
        self.stale_epoch_writes_rejected += stale.len() as u64;
        stale.len() as u64
    }

    /// Re-evaluate shard ownership of every meeting against the
    /// current ring and load state without touching any home edge —
    /// the re-admission pass run after [`Self::revive_shard`] so the
    /// revived shard (empty-handed after the steals) wins back its
    /// share of meetings through the ordinary cooperative handoff.
    /// Returns the number of handoffs performed.
    pub fn rebalance_ownership(&mut self) -> usize {
        let gmids: Vec<GlobalMeetingId> = self.owner.keys().copied().collect();
        gmids
            .into_iter()
            .filter(|&g| self.hand_off(g, false))
            .count()
    }

    /// The current fencing epoch of a meeting (1 at creation; +1 per
    /// lease steal).
    pub fn meeting_epoch(&self, gmid: GlobalMeetingId) -> Option<u64> {
        self.controller.fabric_meetings.get(&gmid).map(|r| r.epoch)
    }

    /// Meetings stolen from silent owners after lease expiry.
    pub fn lease_steal_total(&self) -> u64 {
        self.lease_steals
    }

    /// Stale-epoch ownership re-assertions fenced off at revival.
    pub fn stale_epoch_writes_rejected(&self) -> u64 {
        self.stale_epoch_writes_rejected
    }

    // ------------------------------------------------------------------
    // Data-plane failure repair
    // ------------------------------------------------------------------

    /// Re-aim every trunk branch of every meeting against the network
    /// as it is now — [`Fabric::trunk_addr`] routes around dead cores
    /// and cut trunk links, or back over them once they return — and
    /// return how many branches moved (0 on an unchanged network).
    pub fn repair_trunks(&mut self, sim: &mut Simulator, fabric: &Fabric) -> u64 {
        self.controller.repair_trunks(sim, fabric)
    }

    /// Evacuate every meeting off fail-stopped edge switch `edge`: its
    /// members are dropped, its segments collected without RPCs into
    /// the dead switch, and meetings homed there re-homed to a
    /// surviving edge. Meetings whose last members died with the edge
    /// are retired. Returns the total members dropped with the edge.
    pub fn handle_edge_failure(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        edge: usize,
    ) -> u64 {
        let lost = self
            .controller
            .handle_edge_failure(sim, fabric, &mut self.ledger, edge);
        let gmids: Vec<GlobalMeetingId> = self.owner.keys().copied().collect();
        for gmid in gmids {
            self.settle(gmid);
        }
        lost
    }

    // ------------------------------------------------------------------
    // Read API over the one store
    // ------------------------------------------------------------------

    /// A live fabric meeting's record.
    pub fn meeting(&self, gmid: GlobalMeetingId) -> Option<&FabricMeetingState> {
        self.controller.fabric_meetings.get(&gmid)
    }

    /// The local segment of a fabric meeting on `edge`, if materialized.
    pub fn segment_of(&self, gmid: GlobalMeetingId, edge: usize) -> Option<MeetingId> {
        self.meeting(gmid)?.segments.get(&edge).copied()
    }

    /// The home edge a fabric meeting is currently placed on.
    pub fn home_edge_of(&self, gmid: GlobalMeetingId) -> Option<usize> {
        self.meeting(gmid).map(|r| r.home)
    }

    /// Global participant ids of a fabric meeting, in join order.
    pub fn fabric_members(&self, gmid: GlobalMeetingId) -> Vec<GlobalParticipantId> {
        self.meeting(gmid)
            .map(|r| r.members.iter().map(|m| m.global).collect())
            .unwrap_or_default()
    }

    /// Resolve the (edge, sender-pid, receiver-pid) triple for a
    /// (sender, receiver) pair on the receiver's edge: the sender pid is
    /// its local entry when co-located, else its remote-sender entry.
    pub fn pair_on_receiver_edge(
        &self,
        gmid: GlobalMeetingId,
        sender: GlobalParticipantId,
        receiver: GlobalParticipantId,
    ) -> Option<(usize, ParticipantId, ParticipantId)> {
        let rec = self.meeting(gmid)?;
        let r = rec.members.iter().find(|m| m.global == receiver)?;
        let s = rec.members.iter().find(|m| m.global == sender)?;
        let s_pid = if s.edge == r.edge {
            s.local_pid
        } else {
            *s.remote_pids.get(&r.edge)?
        };
        Some((r.edge, s_pid, r.local_pid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_dataplane::seqrewrite::SeqRewriteMode;
    use scallop_netsim::link::LinkConfig;
    use scallop_netsim::time::SimDuration;
    use scallop_netsim::topology::Topology;
    use std::net::Ipv4Addr;

    fn campus(edges: usize) -> (Simulator, Fabric) {
        let mut sim = Simulator::new(17);
        let f = Fabric::build(
            &mut sim,
            Topology::campus(edges, 0),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        (sim, f)
    }

    fn caddr(last: u8) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 9, 1, last), 5000)
    }

    /// A join is a burst of one.
    fn join(
        plane: &mut ShardedControlPlane,
        sim: &mut Simulator,
        f: &Fabric,
        gmid: GlobalMeetingId,
        (edge, addr, sends): (usize, HostAddr, bool),
    ) -> FabricGrant {
        let req = JoinRequest { edge, addr, sends };
        plane.join(sim, f, gmid, &[req])[0].grant.expect("admitted")
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(4);
        let b = HashRing::new(4);
        for k in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(a.shard_for(k), b.shard_for(k));
        }
        // Every shard owns some arc.
        let mut hit = [false; 4];
        for k in 0..4_000u64 {
            hit[a.shard_for(fnv1a64(&k.to_le_bytes()))] = true;
        }
        assert!(hit.iter().all(|&h| h), "every shard serves keys");
        // The preference walk enumerates each shard exactly once.
        let pref = a.preference(12345);
        let mut sorted = pref.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(pref[0], a.shard_for(12345));
    }

    #[test]
    fn adding_a_shard_moves_keys_only_to_the_new_shard() {
        // The consistent-hashing stability property: growing N -> N+1
        // re-homes only the keys the new shard's virtual nodes capture.
        let old = HashRing::new(4);
        let new = HashRing::new(5);
        let keys: Vec<u64> = (0..10_000u64).map(|k| fnv1a64(&k.to_le_bytes())).collect();
        let mut moved = 0usize;
        for &k in &keys {
            let (o, n) = (old.shard_for(k), new.shard_for(k));
            if o != n {
                moved += 1;
                assert_eq!(n, 4, "a moved key must land on the added shard");
            }
        }
        // Expected movement ~ 1/5 of keys; allow generous slack but
        // reject wholesale reshuffles.
        let frac = moved as f64 / keys.len() as f64;
        assert!(frac > 0.05, "some keys must move, moved {frac}");
        assert!(frac < 0.40, "movement must stay ~1/(N+1), moved {frac}");
    }

    #[test]
    fn meeting_key_depends_on_home_edge() {
        let k0 = meeting_key(7, 0);
        let k1 = meeting_key(7, 1);
        assert_ne!(k0, k1, "re-homing must be able to change the key");
        assert_eq!(k0, meeting_key(7, 0), "keys are deterministic");
    }

    #[test]
    fn bounded_assignment_keeps_shards_balanced() {
        let (mut sim, f) = campus(4);
        let mut plane = ShardedControlPlane::new(4);
        for i in 0..13 {
            plane.create_fabric_meeting(&mut sim, &f, i % 4);
        }
        let counts = plane.meetings_per_shard();
        assert_eq!(counts.iter().sum::<usize>(), 13);
        let cap = 13usize.div_ceil(4) + 1;
        assert!(
            counts.iter().all(|&c| c <= cap),
            "no shard may own more than ceil(13/4)+1 = {cap}: {counts:?}"
        );
        // The bounded walk is stronger than the +1 bound at admission
        // time: incremental caps give a perfectly tight spread.
        assert!(
            counts.iter().all(|&c| c >= 3),
            "spread is tight: {counts:?}"
        );
    }

    #[test]
    fn cross_shard_joins_are_forwarded_to_the_owner() {
        let (mut sim, f) = campus(4);
        let mut plane = ShardedControlPlane::new(4);
        let gmid = plane.create_fabric_meeting(&mut sim, &f, 0);
        let owner = plane.owner_of(gmid).unwrap();
        // Join from every edge; joins entering at a non-owner ingress
        // shard must be forwarded and still produce a working grant.
        let mut expected_forwards = 0;
        for e in 0..4 {
            if plane.ingress_shard(e) != owner {
                expected_forwards += 1;
            }
            let g = join(
                &mut plane,
                &mut sim,
                &f,
                gmid,
                (e, caddr(e as u8 + 1), true),
            );
            assert_eq!(g.edge, e);
        }
        assert!(expected_forwards > 0, "4 edges over 4 shards must split");
        assert_eq!(plane.forward_total(), expected_forwards);
        assert_eq!(
            plane.shard(owner).joins_forwarded,
            expected_forwards,
            "the owner executed every forwarded join"
        );
        assert_eq!(plane.fabric_members(gmid).len(), 4);
        // A burst is accounted per request, exactly like singles: the
        // same four edges again in one call double both counters.
        let burst: Vec<JoinRequest> = (0..4)
            .map(|edge| JoinRequest {
                edge,
                addr: caddr(edge as u8 + 11),
                sends: false,
            })
            .collect();
        let outcomes = plane.join(&mut sim, &f, gmid, &burst);
        let ids: Vec<_> = outcomes.iter().map(|o| o.grant.unwrap().global).collect();
        assert_eq!(ids, vec![5, 6, 7, 8], "ids follow input order");
        assert_eq!(plane.forward_total(), 2 * expected_forwards);
        assert_eq!(plane.shard(owner).joins_forwarded, 2 * expected_forwards);
    }

    #[test]
    fn handoff_preserves_meeting_state_and_gc_still_works() {
        let (mut sim, f) = campus(4);
        let mut plane = ShardedControlPlane::new(2);
        // Two meetings over two shards: the bounded walk forces them
        // onto different shards, so one of them is NOT on shard 0 and
        // shrinking to one shard must hand it off deterministically.
        let g1 = plane.create_fabric_meeting(&mut sim, &f, 0);
        let g2 = plane.create_fabric_meeting(&mut sim, &f, 0);
        let gmid = if plane.owner_of(g1) != Some(0) {
            g1
        } else {
            g2
        };
        let owner = plane.owner_of(gmid).unwrap();
        assert_ne!(owner, 0, "bounded loads spread 2 meetings on 2 shards");

        let a = join(&mut plane, &mut sim, &f, gmid, (0, caddr(1), true));
        let b = join(&mut plane, &mut sim, &f, gmid, (1, caddr(2), true));
        let before_members = plane.fabric_members(gmid);

        plane.set_shard_count(1);
        let new_owner = plane.owner_of(gmid).unwrap();
        assert_eq!(new_owner, 0, "everything evacuates to the last shard");
        assert!(plane.handoff_total() >= 1);
        assert!(plane.shard(new_owner).meetings_acquired >= 1);

        // The roster, segments, and pair resolution all survived.
        assert_eq!(plane.fabric_members(gmid), before_members);
        assert_eq!(plane.home_edge_of(gmid), Some(0));
        assert!(plane.segment_of(gmid, 1).is_some());
        assert!(plane
            .pair_on_receiver_edge(gmid, a.global, b.global)
            .is_some());

        // GC through the new owner: draining edge 1 collects it.
        plane.leave_fabric(&mut sim, &f, gmid, b.global);
        assert_eq!(plane.segment_of(gmid, 1), None, "segment GC after handoff");
        plane.leave_fabric(&mut sim, &f, gmid, a.global);
        assert_eq!(plane.fabric_members(gmid), vec![]);
    }

    #[test]
    fn rehome_hands_off_when_the_hash_says_so() {
        let (mut sim, f) = campus(8);
        let mut plane = ShardedControlPlane::new(4);
        let gmid = plane.create_fabric_meeting(&mut sim, &f, 0);
        let owner0 = plane.owner_of(gmid).unwrap();
        // Pick a drift target whose key names a different shard (the
        // keys are fixed by the hash, so with 7 candidate edges over 4
        // shards this always exists and the pick is deterministic).
        let to = (1..8)
            .find(|&e| plane.planned_owner(gmid, e) != owner0)
            .expect("an edge mapping to another shard exists");

        let a = join(&mut plane, &mut sim, &f, gmid, (0, caddr(1), true));
        for i in 0..3 {
            join(&mut plane, &mut sim, &f, gmid, (to, caddr(10 + i), i == 0));
        }
        // 3 vs 1: decisive majority -> re-home, and the owning shard
        // must follow the hash.
        assert_eq!(
            plane.rebalance_fabric(&mut sim, &f, gmid),
            Some((0, to)),
            "decisive majority must re-home"
        );
        let owner1 = plane.owner_of(gmid).unwrap();
        assert_ne!(owner1, owner0, "ownership follows the re-home");
        assert_eq!(plane.handoff_total(), 1);
        assert_eq!(plane.shard(owner0).meetings_released, 1);
        assert_eq!(plane.shard(owner1).meetings_acquired, 1);
        // The old owner no longer tracks the meeting; the new one does.
        assert_eq!(plane.shard(owner0).meetings_owned(), 0);
        assert_eq!(plane.shard(owner1).meetings_owned(), 1);
        // Meeting still fully operational after the handoff.
        plane.leave_fabric(&mut sim, &f, gmid, a.global);
        assert_eq!(plane.segment_of(gmid, 0), None, "drained edge collected");
    }

    /// 2 zones × 2 edges, no cores: edges 0,1 in zone 0 and 2,3 in
    /// zone 1.
    fn federation22() -> (Simulator, Fabric) {
        let mut sim = Simulator::new(23);
        let f = Fabric::build(
            &mut sim,
            Topology::federation(2, 2, 0),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        (sim, f)
    }

    #[test]
    fn zone_affinity_pins_owner_shards_to_the_home_zone() {
        let (mut sim, f) = federation22();
        let mut plane = ShardedControlPlane::new(4).with_zone_affinity(2, 2);
        assert_eq!(plane.zone_shards(0), vec![0, 2]);
        assert_eq!(plane.zone_shards(1), vec![1, 3]);
        for i in 0..12 {
            let home = i % 4;
            let g = plane.create_fabric_meeting(&mut sim, &f, home);
            let owner = plane.owner_of(g).unwrap();
            assert_eq!(
                owner % 2,
                home / 2,
                "meeting homed on edge {home} must be owned inside its zone"
            );
            assert_eq!(plane.planned_owner(g, home), owner);
        }
        assert_eq!(plane.zone_meeting_counts(), vec![6, 6]);
    }

    #[test]
    fn cross_zone_rehome_hands_off_to_the_new_zones_shards() {
        let (mut sim, f) = federation22();
        let mut plane = ShardedControlPlane::new(4).with_zone_affinity(2, 2);
        let gmid = plane.create_fabric_meeting(&mut sim, &f, 0);
        let owner0 = plane.owner_of(gmid).unwrap();
        assert_eq!(owner0 % 2, 0);
        let _a = join(&mut plane, &mut sim, &f, gmid, (0, caddr(1), true));
        for i in 0..3 {
            join(&mut plane, &mut sim, &f, gmid, (2, caddr(10 + i), false));
        }
        // Zone 1 holds a decisive majority: the re-home crosses the WAN
        // and — eligible sets being disjoint — must hand ownership to a
        // zone-1 shard.
        assert_eq!(plane.rebalance_fabric(&mut sim, &f, gmid), Some((0, 2)));
        let owner1 = plane.owner_of(gmid).unwrap();
        assert_eq!(owner1 % 2, 1, "ownership followed the meeting's zone");
        assert_eq!(plane.cross_zone_handoff_total(), 1);
        assert_eq!(plane.handoff_total(), 1);
        assert_eq!(plane.zone_meeting_counts(), vec![0, 1]);
    }

    #[test]
    fn lease_steal_after_silence_fences_the_stale_owner() {
        let (mut sim, f) = campus(2);
        let mut plane = ShardedControlPlane::new(2);
        let gmid = plane.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut plane, &mut sim, &f, gmid, (0, caddr(1), true));
        let owner = plane.owner_of(gmid).unwrap();
        assert_eq!(plane.meeting_epoch(gmid), Some(1));
        assert_eq!(plane.shard(owner).epoch_held(gmid), Some(1));

        // Silence the owner. Before the lease expires nothing moves —
        // a slow shard must not be robbed.
        plane.silence_shard(owner);
        plane.tick_leases();
        assert_eq!(plane.steal_expired_leases(), 0);
        for _ in 1..LEASE_TICKS {
            plane.tick_leases();
        }
        assert_eq!(plane.lease_remaining(owner), 0);

        // Expired: the peer steals under a bumped epoch.
        assert_eq!(plane.steal_expired_leases(), 1);
        let thief = plane.owner_of(gmid).unwrap();
        assert_ne!(thief, owner);
        assert!(!plane.shard_is_silent(thief));
        assert_eq!(plane.meeting_epoch(gmid), Some(2));
        assert_eq!(plane.shard(thief).epoch_held(gmid), Some(2));
        assert_eq!(plane.lease_steal_total(), 1);
        // The silent owner still holds its stale copy (no release was
        // deliverable), under the old epoch.
        assert_eq!(plane.shard(owner).epoch_held(gmid), Some(1));

        // The meeting is fully operable through the thief.
        let b = join(&mut plane, &mut sim, &f, gmid, (1, caddr(2), false));
        assert_eq!(plane.fabric_members(gmid), vec![a.global, b.global]);

        // Resurrection: the stale re-assertion is fenced and the copy
        // released; protocol accounting reconciles.
        assert_eq!(plane.revive_shard(owner), 1);
        assert_eq!(plane.stale_epoch_writes_rejected(), 1);
        assert_eq!(plane.shard(owner).epoch_held(gmid), None);
        assert_eq!(plane.shard(owner).meetings_owned(), 0);
        assert_eq!(plane.meetings_released_total(), plane.handoff_total());
    }

    #[test]
    fn revived_shard_is_readmitted_by_ownership_rebalance() {
        let (mut sim, f) = campus(4);
        let mut plane = ShardedControlPlane::new(2);
        for i in 0..8 {
            plane.create_fabric_meeting(&mut sim, &f, i % 4);
        }
        let victim = 0usize;
        let survivor = 1usize;
        let victim_load = plane.meetings_per_shard()[victim];
        assert!(victim_load > 0);
        plane.silence_shard(victim);
        for _ in 0..LEASE_TICKS {
            plane.tick_leases();
        }
        // Every meeting of the silent shard lands on the survivor.
        assert_eq!(plane.steal_expired_leases(), victim_load as u64);
        assert_eq!(plane.meetings_per_shard()[victim], 0);
        assert_eq!(plane.meetings_per_shard()[survivor], 8);

        plane.revive_shard(victim);
        // The re-admission pass folds the revived shard back into the
        // bounded-loads spread: no shard may exceed ceil(8/2)+1.
        let moved = plane.rebalance_ownership();
        assert!(moved > 0, "the revived shard wins meetings back");
        let counts = plane.meetings_per_shard();
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts[victim] > 0, "re-admitted: {counts:?}");
        let cap = 8usize.div_ceil(2) + 1;
        assert!(counts.iter().all(|&c| c <= cap), "balanced: {counts:?}");
        // Cooperative handoffs never bump epochs.
        for g in 1..=8u32 {
            assert!(plane.meeting_epoch(g).unwrap() <= 2);
        }
    }

    #[test]
    fn silent_shard_never_wins_new_meetings() {
        let (mut sim, f) = campus(4);
        let mut plane = ShardedControlPlane::new(2);
        plane.silence_shard(0);
        for i in 0..6 {
            let g = plane.create_fabric_meeting(&mut sim, &f, i % 4);
            assert_eq!(plane.owner_of(g), Some(1), "only the live shard admits");
        }
    }

    #[test]
    fn resharded_shards_share_the_planes_one_book() {
        let (mut sim, f) = campus(2);
        let mut plane = ShardedControlPlane::new(1);
        // Edge 0's span holds two members (two ports each).
        let mut budgets = FabricBudgets::from_model();
        budgets.edge_ports = Some(4);
        plane.set_capacity_budgets(budgets, &f.topology);
        let first = plane.create_fabric_meeting(&mut sim, &f, 0);
        join(&mut plane, &mut sim, &f, first, (0, caddr(1), false));
        assert_eq!(plane.ledger().ports_used(0), 2);

        plane.set_shard_count(4);
        let gmid = loop {
            let g = plane.create_fabric_meeting(&mut sim, &f, 0);
            if plane.owner_of(g) != Some(0) {
                break g;
            }
        };
        // The added shard prices and debits against the plane's book:
        // it sees the first meeting's member, so edge 0 fits one more.
        let req = |last| JoinRequest {
            edge: 0,
            addr: caddr(last),
            sends: false,
        };
        let debits = plane.ledger().debits;
        let fits = plane.join(&mut sim, &f, gmid, &[req(2)]);
        assert_eq!(fits[0].decision, AdmissionDecision::Admitted);
        assert_eq!(plane.ledger().ports_used(0), 4);
        assert_eq!(plane.ledger().debits, debits + 1);
        let over = plane.join(&mut sim, &f, gmid, &[req(3)]);
        assert_eq!(
            over[0].decision,
            AdmissionDecision::Refused(crate::capacity::RefusalReason::EdgePortsExhausted {
                edge: 0
            })
        );
        assert!(over[0].grant.is_none());
        assert_eq!(plane.ledger().counts().refused, 1);
    }

    #[test]
    fn resharding_moves_a_bounded_fraction() {
        let (mut sim, f) = campus(4);
        let mut plane = ShardedControlPlane::new(4);
        const MEETINGS: usize = 24;
        for i in 0..MEETINGS {
            plane.create_fabric_meeting(&mut sim, &f, i % 4);
        }
        let moved = plane.set_shard_count(5);
        assert!(moved > 0, "growing must populate the new shard");
        assert!(
            moved <= MEETINGS / 2,
            "consistent hashing bounds movement, moved {moved}/{MEETINGS}"
        );
        let counts = plane.meetings_per_shard();
        assert_eq!(counts.len(), 5);
        assert_eq!(counts.iter().sum::<usize>(), MEETINGS);
        let cap = MEETINGS.div_ceil(5) + 1;
        assert!(
            counts.iter().all(|&c| c <= cap),
            "balance holds: {counts:?}"
        );

        // Shrinking evacuates the dropped shards entirely.
        let signaling_before = plane.signaling_exchanges();
        let moved_back = plane.set_shard_count(2);
        assert!(moved_back > 0);
        let counts = plane.meetings_per_shard();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts.iter().sum::<usize>(), MEETINGS);
        // Retired shards' telemetry folds into the plane totals: the
        // protocol accounting reconciles and signaling stays monotonic.
        assert_eq!(plane.meetings_released_total(), plane.handoff_total());
        assert!(
            plane.signaling_exchanges() > signaling_before,
            "handoffs count as signaling; the total never goes backwards"
        );
    }
}
