//! Multi-controller sharding of the fabric control plane.
//!
//! A single controller owning every meeting across the whole campus is
//! the control-plane bottleneck the SDN literature warns about
//! (east–west distribution in Kreutz et al.'s SDN survey; per-tree
//! controller state in Noghani & Sunay's SDN multicast streaming).
//! [`ShardedControlPlane`] is the paper's one logically centralized
//! controller, physically distributed the way a distributed SDN
//! controller partitions one view: it keeps **one** meeting store
//! (every meeting's record, operated on by the meeting operations of
//! [`crate::controller`]) and splits it over `N` shards, each owning —
//! holding the right to write — a **disjoint** set of fabric meetings.
//! The owner is a field of the record, so no shard holds a copy of a
//! record or a map of its own; a shard is a load count. This module
//! keeps the ring, the shards' loads, and the readers of the store, the
//! fabric check's ledger replay ([`Fabric::check`]) among them.
//! Every shard shares the same read-only [`Fabric`] / topology view
//! (the fabric is passed by `&Fabric` into every operation; no shard
//! ever mutates it).
//!
//! # The sharding function
//!
//! Ownership is decided by **consistent hashing with bounded loads**:
//!
//! * A [`HashRing`] places `VNODES_PER_SHARD` virtual nodes per shard
//!   on a 64-bit ring (FNV-1a of `(shard, vnode)`; fully deterministic,
//!   no RNG). `HashRing::shard_for` maps a key to the owner of the
//!   first virtual node at or after it. Changing the shard count moves
//!   only the keys whose arc gained a new virtual node — when a shard
//!   is added, keys move **only to the new shard**, never between
//!   surviving shards (pinned by this module's tests).
//! * The ring key for a meeting is `meeting_key(gmid, home_edge)`:
//!   the meeting id hashed together with its **home edge**. Placement
//!   stays uniform (the hash decorrelates both inputs); folding the
//!   home edge in exists so that a data-plane re-home *changes the
//!   key* and thereby re-evaluates control ownership (see the handoff
//!   protocol below).
//! * The raw ring choice is post-processed by a **bounded-loads** walk
//!   (ring order from the key, `HashRing::walk`): a shard already owning
//!   `ceil(meetings/shards)` meetings is skipped, so no shard ever owns
//!   more than `ceil(meetings/shards) + 1` meetings — control load
//!   provably scales with the number of shards (edges), not with the
//!   fabric.
//!
//! # The ownership handoff
//!
//! A handoff moves a claim, not a record: the record's owner becomes
//! the acquiring shard, which takes the meeting on, then the releasing
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
//! 1. **Re-homing.** [`ShardedControlPlane::rebalance_fabric`] — the
//!    one re-home path, which a home-edge failure takes too — runs the
//!    re-homing pass ([`crate::controller`] module docs; hysteresis
//!    `crate::controller::REBALANCE_HYSTERESIS`). When the meeting
//!    re-homes, its ring key changes, and if the bounded-loads walk now
//!    names a different shard the meeting is handed off in the same
//!    pass — "the hash says so".
//! 2. **Re-sharding.** [`ShardedControlPlane::set_shard_count`] resizes
//!    the ring and re-evaluates every meeting; consistent hashing keeps
//!    the number of handoffs near `meetings / new_shards` instead of
//!    re-shuffling everything.
//!
//! # Retirement
//!
//! When a meeting's last member leaves, its record — and with it its
//! owner — leaves the store, and its owner's load count drops: the
//! store and the bounded-loads counts hold live meetings only. Nothing
//! is kept per retired meeting. A join naming a retired id revives it
//! like a new meeting — homed on the first request's edge and placed by
//! the ordinary walk. A join naming an id the plane never issued
//! panics.

use crate::agent::{MeetingId, ParticipantId};
use crate::capacity::{AdmissionDecision, FabricBudgets, FabricLoadLedger};
use crate::controller::{
    FabricGrant, GlobalMeetingId, GlobalParticipantId, JoinOutcome, JoinRequest, JoinScratch,
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
pub(crate) const VNODES_PER_SHARD: usize = 64;

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
pub(crate) fn meeting_key(gmid: GlobalMeetingId, home_edge: usize) -> u64 {
    let mut buf = [0u8; 12];
    buf[..4].copy_from_slice(&gmid.to_le_bytes());
    buf[4..].copy_from_slice(&(home_edge as u64).to_le_bytes());
    fnv1a64(&buf)
}

/// The ring key of an edge switch (decides which shard fronts that
/// edge's signaling).
pub(crate) fn edge_key(edge: usize) -> u64 {
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
    /// Build a ring for `shards` shards (`VNODES_PER_SHARD` virtual
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
    pub(crate) fn shard_for(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }

    /// The shard of every virtual node in ring order, starting at the
    /// first at or after `key` and wrapping once — the probe sequence
    /// of the bounded-loads walk. A shard recurs once per virtual node;
    /// the first element is [`Self::shard_for`]`(key)`.
    pub(crate) fn walk(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let (head, tail) = self.points.split_at(start);
        tail.iter().chain(head).map(|&(_, s)| s)
    }

    /// Every shard in ring order starting at `key`, deduplicated: the
    /// preference order the bounded-loads rule was first written over,
    /// kept as written for the test oracle.
    #[cfg(test)]
    pub(crate) fn preference(&self, key: u64) -> Vec<usize> {
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

/// The fabric controller: the one public control surface, holding the
/// one meeting store and `N` shards owning its records behind one
/// fabric-meeting API (create, [`Self::join`], leave, rebalance,
/// repair, evacuate — the operations of [`crate::controller`]), plus
/// the [`HashRing`], id allocation, the load ledger and protocol
/// telemetry.
///
/// With one shard this is exactly a single controller: nothing is ever
/// forwarded or handed off. Sharding changes who keeps a meeting's
/// books, never the ids allocated or the per-edge operation sequence,
/// so the whole test corpus also runs under `SCALLOP_SHARDS=4`.
#[derive(Debug)]
pub struct ShardedControlPlane {
    ring: HashRing,
    /// Meetings whose record names each shard the owner (index =
    /// shard), kept in step with the records so the bounded-loads walk
    /// is O(shards), not O(meetings).
    loads: Vec<usize>,
    /// Every live fabric meeting's record, its owner included — the
    /// plane's one store.
    pub(crate) fabric_meetings: BTreeMap<GlobalMeetingId, FabricMeetingState>,
    /// Signaling transactions served: one per meeting operation's
    /// exchange with a switch, one per claim taken over and one per
    /// claim given up.
    pub(crate) signaling_exchanges: u64,
    /// Buffers the join path reuses across calls.
    pub(crate) scratch: JoinScratch,
    pub(crate) next_global_meeting: GlobalMeetingId,
    pub(crate) next_global_participant: GlobalParticipantId,
    handoffs: u64,
    forwards: u64,
    /// Cumulative re-homes that crossed a zone boundary.
    pub(crate) cross_zone_handoffs: u64,
    /// Zone count for zone-affine assignment (1 = unzoned: every shard
    /// is eligible for every meeting).
    zones: usize,
    /// Edges per zone (zone of a home edge = `home / edges_per_zone`).
    edges_per_zone: usize,
    /// The fabric-load ledger — the capacity planner's single book,
    /// which every operation that prices, debits or credits reads, so
    /// the plane-wide budgets hold regardless of which shard owns a
    /// meeting.
    pub(crate) ledger: FabricLoadLedger,
}

impl ShardedControlPlane {
    /// Create a control plane of `shards` controller instances.
    pub fn new(shards: usize) -> ShardedControlPlane {
        assert!(shards >= 1, "at least one shard");
        ShardedControlPlane {
            ring: HashRing::new(shards),
            loads: vec![0; shards],
            fabric_meetings: BTreeMap::new(),
            signaling_exchanges: 0,
            scratch: JoinScratch::default(),
            next_global_meeting: 0,
            next_global_participant: 0,
            handoffs: 0,
            forwards: 0,
            cross_zone_handoffs: 0,
            zones: 1,
            edges_per_zone: usize::MAX,
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
    pub(crate) fn zone_of_home(&self, home: usize) -> usize {
        (home / self.edges_per_zone).min(self.zones - 1)
    }

    /// The shards eligible to own zone `zone`'s meetings: those `s` with
    /// `s % zones == zone`, or `zone % shards` when none is (every
    /// shard on an unzoned plane).
    pub fn zone_shards(&self, zone: usize) -> Vec<usize> {
        (0..self.ring.shards())
            .filter(|&s| self.in_zone(s, zone))
            .collect()
    }

    /// Whether ring shard `s` is one of [`Self::zone_shards`]`(zone)`.
    fn in_zone(&self, s: usize, zone: usize) -> bool {
        let shards = self.ring.shards();
        // The lowest `s` with `s % zones == zone` is `zone` itself.
        if zone < self.zones && zone < shards {
            s % self.zones == zone
        } else {
            s == zone % shards
        }
    }

    /// Number of controller shards.
    pub fn shard_count(&self) -> usize {
        self.loads.len()
    }

    /// The shard currently owning a meeting.
    pub fn owner_of(&self, gmid: GlobalMeetingId) -> Option<usize> {
        self.fabric_meetings.get(&gmid).map(|r| r.owner)
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

    /// Signaling transactions served: one per meeting operation's
    /// exchange with a switch, plus one per claim taken over and one
    /// per claim given up.
    pub fn signaling_exchanges(&self) -> u64 {
        self.signaling_exchanges
    }

    /// The bounded-loads owner choice for ring key `key`, restricted to
    /// the home zone's eligible shards, with `exclude` (a meeting being
    /// re-evaluated) not counted against any shard's load. See the
    /// module docs for the balance bound; on an unzoned plane every
    /// shard is eligible.
    fn assign(&self, key: u64, exclude: Option<GlobalMeetingId>, zone: usize) -> usize {
        // O(shards): the per-shard loads are maintained incrementally.
        // During a shrink `loads` is longer than the ring while dropped
        // shards are evacuated; the ring's shard count is the live one,
        // and only ring shards can win the walk.
        let excluded = exclude.and_then(|g| self.owner_of(g));
        let load = |s: usize| self.loads[s] - usize::from(excluded == Some(s));
        let total = self.fabric_meetings.len() - usize::from(excluded.is_some());
        let eligible = |s: usize| self.in_zone(s, zone);
        let cap = (total + 1).div_ceil((0..self.ring.shards()).filter(|&s| eligible(s)).count());
        // A shard that fails the test fails it at each of its virtual
        // nodes, so the first passing node names the first passing
        // shard of the deduplicated preference order.
        self.ring
            .walk(key)
            .find(|&s| eligible(s) && load(s) < cap)
            .expect("cap * eligible >= total + 1, so a shard has room")
    }

    /// The shard the plane would pick if `gmid` were homed on `home`
    /// (placement introspection for tests and benches; does not move
    /// anything).
    pub fn planned_owner(&self, gmid: GlobalMeetingId, home: usize) -> usize {
        self.assign(meeting_key(gmid, home), Some(gmid), self.zone_of_home(home))
    }

    /// Place `gmid`, homed on `home`, on the bounded-loads walk's shard,
    /// which takes it on; the caller builds the meeting's record with
    /// the returned shard as its owner.
    pub(crate) fn place(&mut self, gmid: GlobalMeetingId, home: usize) -> usize {
        let owner = self.assign(meeting_key(gmid, home), None, self.zone_of_home(home));
        self.loads[owner] += 1;
        owner
    }

    /// Route a join of `reqs` into `gmid` to the meeting's owner,
    /// counting one forward per request that entered at another shard.
    /// A retired meeting is revived first, like a new meeting: homed on
    /// its first request's edge, with no segments, and placed by the
    /// ordinary walk. An empty burst revives nothing. Returns whether
    /// it was revived.
    pub(crate) fn route_to_owner(&mut self, gmid: GlobalMeetingId, reqs: &[JoinRequest]) -> bool {
        let revived = !self.fabric_meetings.contains_key(&gmid);
        if revived {
            let issued = (1..=self.next_global_meeting).contains(&gmid);
            assert!(issued, "no fabric meeting {gmid} was ever created");
            let Some(&JoinRequest { edge: home, .. }) = reqs.first() else {
                return false;
            };
            let owner = self.place(gmid, home);
            let rec = FabricMeetingState {
                home,
                owner,
                ..Default::default()
            };
            self.fabric_meetings.insert(gmid, rec);
        }
        let owner = self.fabric_meetings[&gmid].owner;
        let forwarded = reqs
            .iter()
            .filter(|r| self.ingress_shard(r.edge) != owner)
            .count() as u64;
        self.forwards += forwarded;
        revived
    }

    /// Retire `gmid` (last member gone, or a revival fully refused):
    /// its record leaves the store and its owner's load drops.
    pub(crate) fn retire(&mut self, gmid: GlobalMeetingId) {
        let rec = self.fabric_meetings.remove(&gmid).expect("fabric meeting");
        self.loads[rec.owner] -= 1;
    }

    // ------------------------------------------------------------------
    // The ledger and the ways into a meeting (the meeting operations
    // themselves are core::controller's)
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

    /// The ledger the store books, replayed from scratch: per member
    /// its uplink ports at its edge, per remote entry the entry's ports
    /// there and one branch along the route [`Self::books`] names, at
    /// the segment's thin or full rate. A route depends on the zones'
    /// gateways, so `Err` names the first meeting with a segment in a
    /// zone that has none.
    pub(crate) fn replayed_ledger(&self, tz: &Topology) -> Result<FabricLoadLedger, String> {
        let mut want = FabricLoadLedger::default();
        if let Some(budgets) = self.ledger.budgets() {
            want.set_budgets(budgets, tz);
        }
        for (&gmid, rec) in &self.fabric_meetings {
            let gateway = |e| rec.zone_gateways.get(&tz.zone_of_edge(e));
            let no_gateway = |e| !gateway(e).is_some_and(|g| rec.segments.contains_key(g));
            if let Some(e) = rec.segments.keys().copied().find(|&e| no_gateway(e)) {
                return Err(format!("meeting {gmid}: edge {e}'s zone has no gateway"));
            }
            for m in &rec.members {
                want.debit_member(gmid, m.global, m.edge);
                for &to in m.remote_pids.keys() {
                    want.debit_remote(gmid, m.global, to);
                    let thin = rec.thin_segments.contains(&to);
                    want.debit_branch(gmid, m.global, to, Self::books(tz, rec, m.edge, to), thin);
                }
            }
        }
        Ok(want)
    }

    /// Shim: a copy of [`Self::ledger`] in a fresh cell. The frozen
    /// `benchmark/src/sut.rs` names it and is its only caller;
    /// benchmark v2 deletes it.
    pub fn ledger_handle(&self) -> std::rc::Rc<std::cell::RefCell<FabricLoadLedger>> {
        std::rc::Rc::new(self.ledger.clone().into())
    }

    /// The one way into a fabric meeting: decide and execute a burst of
    /// join requests (a single join is a burst of one), answering each
    /// in input order.
    ///
    /// Every request enters at its edge's ingress shard and is executed
    /// by the meeting's owner; one whose ingress shard is not the owner
    /// is counted as one forward — verdict and grant travel back over
    /// the same east–west path. A join naming a retired meeting revives
    /// it first. The owner takes the requests edge by edge (edges in
    /// first-appearance order), each through the same five steps:
    ///
    /// 1. **price** — against the record and the plane's one ledger as
    ///    the requests before it in the burst left them (always
    ///    [`AdmissionDecision::Admitted`] while no budgets are
    ///    enforced); a refusal is typed, counted on the ledger, and
    ///    executes nothing;
    /// 2. **materialize** — the first admission on an edge without a
    ///    segment creates and wires it, marked thin when that admission
    ///    is SVC-thin so its branches are booked and compiled against
    ///    the thin plan;
    /// 3. **admit** — an edge's admitted joiners enter its switch agent
    ///    as **one** batch, i.e. one compile per affected segment;
    /// 4. **record / debit** — each becomes a member (in a thin segment:
    ///    marked thin and, if it only receives, decode target capped at
    ///    [`crate::capacity::THIN_DECODE_TARGET`] — reduced cadence,
    ///    never frozen) and its uplink ports are booked;
    /// 5. **plumb** — the batch's senders are wired toward the segments
    ///    that exist so far; segments materialized later in the burst
    ///    pick them up when they are wired in, exactly as sequential
    ///    joins would.
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

    /// Hand `gmid` to the bounded-loads choice for its current home's
    /// key if that differs from its owner. The record never moves: the
    /// target becomes its owner, and then the old owner gives its claim
    /// up. Returns whether a handoff happened.
    pub(crate) fn hand_off(&mut self, gmid: GlobalMeetingId) -> bool {
        let rec = &self.fabric_meetings[&gmid];
        let (home, owner) = (rec.home, rec.owner);
        let target = self.assign(meeting_key(gmid, home), Some(gmid), self.zone_of_home(home));
        if target == owner {
            return false;
        }
        self.fabric_meetings
            .get_mut(&gmid)
            .expect("fabric meeting")
            .owner = target;
        self.loads[owner] -= 1;
        self.loads[target] += 1;
        // One exchange for the claim taken, one for the claim given up.
        self.signaling_exchanges += 2;
        self.handoffs += 1;
        true
    }

    /// Run [`Self::rebalance_fabric`] over every tracked meeting and
    /// report how many re-homed and how many changed shards — callers
    /// must no longer discard these counts silently.
    pub fn rebalance_all(&mut self, sim: &mut Simulator, fabric: &Fabric) -> RebalanceSummary {
        let before = self.handoffs;
        let before_cross = self.cross_zone_handoffs;
        let gmids: Vec<GlobalMeetingId> = self.fabric_meetings.keys().copied().collect();
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
        for rec in self.fabric_meetings.values() {
            counts[self.zone_of_home(rec.home)] += 1;
        }
        counts
    }

    /// Cumulative re-homes that crossed a zone boundary.
    pub fn cross_zone_handoff_total(&self) -> u64 {
        self.cross_zone_handoffs
    }

    /// Re-shard the control plane to `n` shards: rebuild the ring,
    /// re-evaluate every meeting's owner in id order against the new
    /// ring and the current loads, without touching any home edge, and
    /// hand off the ones whose owner changed. Consistent hashing keeps
    /// the movement near `meetings / n` when growing (and pinned tests
    /// verify keys only move *to* a freshly added shard on the raw
    /// ring). Returns the number of handoffs performed.
    pub fn set_shard_count(&mut self, n: usize) -> usize {
        assert!(n >= 1, "at least one shard");
        self.ring = HashRing::new(n);
        if self.loads.len() < n {
            self.loads.resize(n, 0);
        }
        let gmids: Vec<GlobalMeetingId> = self.fabric_meetings.keys().copied().collect();
        let moved = gmids.into_iter().filter(|&g| self.hand_off(g)).count();
        // Shrinking: every meeting has been evacuated off the dropped
        // shards by the bounded walk (their ring points are gone).
        debug_assert!(
            self.loads[n..].iter().all(|&l| l == 0),
            "dropped shards were evacuated"
        );
        self.loads.truncate(n);
        moved
    }

    // ------------------------------------------------------------------
    // Read API over the one store
    // ------------------------------------------------------------------

    /// A live fabric meeting's record.
    pub fn meeting(&self, gmid: GlobalMeetingId) -> Option<&FabricMeetingState> {
        self.fabric_meetings.get(&gmid)
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
        // The old owner no longer tracks the meeting; the new one does.
        assert_eq!(plane.meetings_per_shard()[owner0], 0);
        assert_eq!(plane.meetings_per_shard()[owner1], 1);
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
        // Retired shards' telemetry folds into the plane totals:
        // signaling stays monotonic.
        assert!(
            plane.signaling_exchanges() > signaling_before,
            "handoffs count as signaling; the total never goes backwards"
        );
    }

    /// The bounded-loads rule as first written: the eligible set
    /// materialised, then the deduplicated preference order searched.
    /// [`ShardedControlPlane::assign`]'s single walk must agree with it.
    fn assign_by_preference(
        plane: &ShardedControlPlane,
        key: u64,
        exclude: Option<GlobalMeetingId>,
        zone: usize,
    ) -> usize {
        let excluded = exclude.and_then(|g| plane.owner_of(g));
        let load = |s: usize| plane.loads[s] - usize::from(excluded == Some(s));
        let total = plane.fabric_meetings.len() - usize::from(excluded.is_some());
        let eligible = plane.zone_shards(zone);
        let cap = (total + 1).div_ceil(eligible.len());
        plane
            .ring
            .preference(key)
            .into_iter()
            .find(|&s| eligible.contains(&s) && load(s) < cap)
            .expect("a shard has room")
    }

    #[test]
    fn the_single_ring_walk_matches_the_preference_order_oracle() {
        const HOMES: usize = 6;
        for shards in 1..=8 {
            for zones in 1..=3 {
                let mut plane = ShardedControlPlane::new(shards)
                    .with_zone_affinity(zones, HOMES.div_ceil(zones));
                // Loads that make the cap bite, then every placement
                // question both ways: re-evaluating a placed meeting and
                // placing a new one.
                for gmid in 1..=(3 * shards as u32) {
                    let home = gmid as usize % HOMES;
                    let owner = plane.place(gmid, home);
                    let rec = FabricMeetingState {
                        home,
                        owner,
                        ..Default::default()
                    };
                    plane.fabric_meetings.insert(gmid, rec);
                }
                for gmid in 1..=(4 * shards as u32) {
                    for home in 0..HOMES {
                        let (key, zone) = (meeting_key(gmid, home), plane.zone_of_home(home));
                        for exclude in [Some(gmid), None] {
                            assert_eq!(
                                plane.assign(key, exclude, zone),
                                assign_by_preference(&plane, key, exclude, zone),
                                "{shards} shards, {zones} zones, \
                                 meeting {gmid} at {home}, exclude {exclude:?}"
                            );
                        }
                        assert_eq!(
                            plane.planned_owner(gmid, home),
                            assign_by_preference(&plane, key, Some(gmid), zone)
                        );
                    }
                }
            }
        }
    }
}
