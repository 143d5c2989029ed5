//! The centralized controller (§5.1).
//!
//! The controller is Scallop's session-level brain: it runs the signaling
//! (web) server, intercepts SDP offers/answers, rewrites ICE candidates
//! so the switch becomes every participant's sole apparent peer, and
//! pushes meeting configuration to the switch agent. It is involved only
//! when (1) a session is created, (2) a participant joins or leaves, or
//! (3) media sharing starts/stops (§4) — never on the media path.
//!
//! In this reproduction the controller↔agent RPC channel is a direct
//! method call onto the [`crate::switchnode::ScallopSwitchNode`] held by
//! the simulation; the call frequency (a handful per membership change)
//! is what the paper's Table 1 shows to be negligible.
//!
//! # Fabric re-homing and segment GC
//!
//! On a campus fabric the controller also owns meeting *placement*:
//!
//! * **Segment GC** — [`ShardedControlPlane::leave_fabric`] collects a
//!   meeting segment as soon as its edge loses its last local member:
//!   every surviving sender's remote-sender entry there is retired
//!   (freeing its trunk-ingress ports and RID), the trunk-egress
//!   branches toward and from that edge are torn down on both sides (so
//!   senders stop paying trunk crossings toward an edge with no
//!   receivers), and the drained segment's meeting state is destroyed,
//!   returning its MGIDs, RIDs, and ports to their pools. The *home*
//!   segment is exempt — it anchors the meeting — until rebalancing
//!   moves the home away. Teardown is the build run backwards: a
//!   remote entry leaves a record only through
//!   `unplumb_sender_from_edge`, the inverse of `plumb_sender_to_edge`
//!   (leave, GC and gateway migration all call it, and it credits the
//!   entry's books), and every teardown RPC reaches its switch through
//!   `Fabric::live_edge`, which skips a fail-stopped switch while the
//!   bookkeeping runs exactly once.
//!
//! * **Live re-homing** — [`ShardedControlPlane::rebalance_fabric`]
//!   revisits the placement decision made when the meeting was created.
//!   When another edge holds strictly more than
//!   `home + REBALANCE_HYSTERESIS` local members, the meeting re-homes
//!   there. The move is make-before-break by construction: the fabric
//!   compiles a full mesh of per-edge segments (every segment already
//!   carries every remote sender's trunk-ingress entry and every
//!   trunk-egress branch), so the new home is live *before* the flip
//!   and only the drained old home's plumbing is torn down afterwards —
//!   in-flight media toward real receivers never traverses state that
//!   is being destroyed, and decode rates hold through the cutover.
//!   The hysteresis (default: majority of ≥ 2 members) keeps a meeting
//!   whose population oscillates by one member from flapping between
//!   homes, since every re-home costs signaling and a teardown.
//!
//! The bench-regression CI gate (`bench_smoke`, `.github/workflows/ci.yml`)
//! replays a deterministic campus slice plus a churn phase over this
//! machinery and fails CI when trunk-byte or quality metrics drift >20 %
//! from the checked-in `results/` baselines.
//!
//! # The zone tier (federation)
//!
//! On a federated fabric ([`scallop_netsim::topology::Topology::federation`])
//! the controller adds one level to the trunk-once compilation. Each
//! zone a meeting touches gets a **WAN gateway**: the zone's first
//! materialized segment edge. WAN-tier trunk branches exist only
//! between gateway pairs, so a sender's uplink crosses each WAN link
//! **once per remote zone** — the receiving gateway holds a WAN-pruned
//! remote-sender entry whose media re-trunks to the zone's other
//! segments but never re-crosses a WAN link (the two-tier XID pruning
//! of [`crate::agent`]). Remote edges forward their per-edge selected
//! REMB to the sender's home-edge **feedback sink**, which
//! min-aggregates them into the single fabric-wide estimate of §5.3
//! (on a single-zone campus each edge sends the sender its own selected
//! REMB). Home placement becomes two-level:
//! zone majority first, then the best edge within the winning zone.
//!
//! # One route per fabric branch
//!
//! *Which upstream (edge, pid), over which tier, through which relay,
//! carries sender S toward the segment on edge T* is decided in one
//! place. `route` names the upstream edge and the tier from the
//! meeting's gateway map; `aim` — the only caller of `set_trunk_dst` —
//! resolves the upstream pid and swings the branch at the address
//! `Fabric::trunk_addr` gives, and that rule *observes* dead cores
//! and cut trunk links in the simulator (which stands in for the
//! liveness service a deployed controller would read). Admission
//! pricing, the first plumb, gateway migration and
//! [`ShardedControlPlane::repair_trunks`] all ask the pair, so what is
//! priced is what is plumbed, and a branch plumbed after a failure
//! avoids it exactly as a repaired one does.
//!
//! # Relation to the sharded control plane
//!
//! The plane is the controller: this module is the second `impl` block
//! of [`ShardedControlPlane`], holding its meeting operations — create,
//! join, leave, rebalance, repair and edge evacuation, each defined
//! once — while [`crate::shard`] holds the ring, the shards' loads and
//! the readers. Every live fabric meeting has one
//! [`crate::meeting::FabricMeetingState`] record in the plane's one
//! store, naming its owning shard, so a handoff rewrites an owner and
//! never moves a record. The operations read the
//! plane's one [`FabricLoadLedger`] directly; only the two helpers that
//! run while a record is borrowed take it as a parameter. There is one
//! re-home path: [`ShardedControlPlane::rebalance_fabric`] re-homes,
//! counts a cross-zone move and hands the meeting off, and an edge
//! failure that takes a meeting's home re-homes through it.

use crate::agent::{JoinGrant, MeetingId, ParticipantId, Tier};
use crate::capacity::{
    AdmissionDecision, BranchRoute, FabricLoadLedger, LoadDelta, MEMBER_PORTS, REMOTE_PORTS,
    THIN_DECODE_TARGET,
};
use crate::fabric::Fabric;
use crate::meeting::{FabricMeetingState, FabricMemberState};
use crate::shard::ShardedControlPlane;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::Simulator;
use scallop_netsim::topology::Topology;
use scallop_proto::sdp::{Candidate, MediaKind, SessionDescription};
use scallop_proto::ProtoError;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Fabric-wide meeting identifier (controller-allocated; each involved
/// edge hosts its own local segment [`MeetingId`] underneath it).
pub type GlobalMeetingId = u32;

/// Fabric-wide participant identifier. Wide on purpose: unlike
/// per-switch participant ids (recycled on leave), global ids are
/// allocated monotonically and never reused, and a churny campus
/// meeting population would exhaust a 16-bit space.
pub type GlobalParticipantId = u32;

/// Re-homing hysteresis: an edge must hold **strictly more than**
/// `home_members + REBALANCE_HYSTERESIS` local members before
/// [`ShardedControlPlane::rebalance_fabric`] moves the meeting there.
/// With the default of 1 the majority must be decisive (≥ 2 members
/// ahead), so a single join/leave oscillating across a 1-member margin
/// can never flap the home back and forth.
pub(crate) const REBALANCE_HYSTERESIS: usize = 1;

/// What a participant joining through the fabric controller receives.
#[derive(Debug, Clone, Copy)]
pub struct FabricGrant {
    /// Fabric-wide participant id.
    pub global: GlobalParticipantId,
    /// Home edge switch index.
    pub edge: usize,
    /// The grant on the home edge (uplink addresses to send media to).
    pub local: JoinGrant,
}

/// One participant asking to join a fabric meeting — the input of
/// [`crate::shard::ShardedControlPlane::join`], which takes a slice of
/// these (a single join is a burst of one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinRequest {
    /// Edge switch the participant attaches to.
    pub edge: usize,
    /// The participant's media address.
    pub addr: HostAddr,
    /// Whether the participant offers media.
    pub sends: bool,
}

impl JoinRequest {
    /// Build the request an SDP offer arriving at `edge` asks for (§5.1
    /// "Controlling Signaling to Create Proxy Topology"): the client's
    /// address is its first candidate, and it sends iff some media
    /// section is `sendrecv`/`sendonly`. An offer without candidates is
    /// an error — nothing has been touched yet, so nothing is undone.
    pub fn from_offer(edge: usize, offer: &SessionDescription) -> Result<Self, ProtoError> {
        let cand = offer
            .all_candidates()
            .next()
            .ok_or(ProtoError::Malformed("offer without candidates"))?;
        let sends = offer
            .media
            .iter()
            .any(|m| m.direction == "sendrecv" || m.direction == "sendonly");
        Ok(JoinRequest {
            edge,
            addr: HostAddr::new(cand.ip, cand.port),
            sends,
        })
    }
}

/// The SDP answer to `offer` once its [`JoinRequest`] was granted: the
/// offer's media sections mirrored back with every candidate replaced
/// by the switch's per-media uplink address — the client believes the
/// SFU is its sole peer.
pub fn sdp_answer(offer: &SessionDescription, grant: &JoinGrant) -> String {
    let mut answer = offer.clone();
    answer.origin = "scallop".into();
    answer.connection_ip = Some(grant.video_uplink.ip);
    for m in &mut answer.media {
        let uplink = match m.kind {
            MediaKind::Video => grant.video_uplink,
            MediaKind::Audio => grant.audio_uplink,
        };
        m.candidates = vec![Candidate::host(uplink.ip, uplink.port)];
        m.port = uplink.port;
    }
    answer.serialize()
}

/// What the control plane answered one [`JoinRequest`].
#[derive(Debug, Clone, Copy)]
pub struct JoinOutcome {
    /// The capacity planner's verdict (always
    /// [`AdmissionDecision::Admitted`] while no budgets are enforced).
    pub decision: AdmissionDecision,
    /// The grant; `None` exactly when the join was refused.
    pub grant: Option<FabricGrant>,
}

impl JoinOutcome {
    /// Placeholder a result buffer is filled with before the owner
    /// shard decides each request.
    pub(crate) const UNDECIDED: JoinOutcome = JoinOutcome {
        decision: AdmissionDecision::Admitted,
        grant: None,
    };
}

/// Buffers the join path reuses across calls, so a join that is a
/// burst of one allocates nothing for the burst machinery.
#[derive(Debug, Default)]
pub(crate) struct JoinScratch {
    /// The burst's distinct edges, in first-appearance order.
    edges: Vec<usize>,
    /// Input indices admitted on the current edge, not yet executed.
    pending: Vec<usize>,
    /// The agent's grants for `pending`, in the same order.
    grants: Vec<JoinGrant>,
    /// The admission plan [`ShardedControlPlane::price`] draws up.
    plan: LoadDelta,
    /// The edges a joined sender is plumbed toward, in dependency order.
    targets: Vec<usize>,
}

impl ShardedControlPlane {
    // ------------------------------------------------------------------
    // Fabric placement (§5.1 generalized to a campus of edge switches)
    // ------------------------------------------------------------------

    /// Place a meeting on the fabric with `home` as its home edge and
    /// assign it to a shard (sharding function in the [`crate::shard`]
    /// module docs). Global ids are allocated here, centrally, so the
    /// id space stays collision-free across shards. The home segment is
    /// created immediately; segments on other edges materialize when
    /// their first participant joins.
    pub fn create_fabric_meeting(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        home: usize,
    ) -> GlobalMeetingId {
        assert!(home < fabric.edges(), "home edge out of range");
        self.next_global_meeting += 1;
        let gmid = self.next_global_meeting;
        let seg = fabric.edge_mut(sim, home).agent.create_meeting();
        let mut rec = FabricMeetingState {
            home,
            owner: self.place(gmid, home),
            ..Default::default()
        };
        rec.segments.insert(home, seg);
        // The home edge is by definition the first segment in its zone,
        // so it anchors the zone's WAN gateway role.
        rec.zone_gateways
            .insert(fabric.topology.zone_of_edge(home), home);
        self.fabric_meetings.insert(gmid, rec);
        self.signaling_exchanges += 1;
        gmid
    }

    // ------------------------------------------------------------------
    // Online capacity planning (§7.4 made live)
    // ------------------------------------------------------------------

    /// The one routing rule: which upstream edge holds the branch that
    /// carries media of a sender homed on `se` toward the segment at
    /// `to`, and over which tier. Pricing, plumbing, repair and gateway
    /// migration all ask here.
    ///
    /// * **same zone** — the sender's home edge trunks directly (the
    ///   original campus path);
    /// * **remote zone's gateway** — the sender zone's own gateway holds
    ///   the WAN-tier branch (arriving media re-trunks inside the zone
    ///   but never re-crosses a WAN link);
    /// * **remote zone, non-gateway** — that zone's gateway re-trunks
    ///   from the sender's remote entry there (which is why gateways are
    ///   always plumbed first).
    ///
    /// Pricing asks before the join exists, so the rule is *predictive*
    /// about gateways: a zone without one gets the asking edge — `to`,
    /// or `se` on the sending side — since its segment, about to be the
    /// zone's first, will take the role.
    fn route(tz: &Topology, rec: &FabricMeetingState, se: usize, to: usize) -> (usize, Tier) {
        let (zs, zt) = (tz.zone_of_edge(se), tz.zone_of_edge(to));
        if zs == zt {
            return (se, Tier::Trunk);
        }
        match rec.zone_gateways.get(&zt) {
            Some(&g) if g != to => (g, Tier::Trunk),
            _ => (rec.zone_gateways.get(&zs).copied().unwrap_or(se), Tier::Wan),
        }
    }

    /// What the ledger books for [`Self::route`]'s answer: the trunk
    /// hop out of the upstream edge, or the WAN links between the two
    /// zones.
    pub(crate) fn books(
        tz: &Topology,
        rec: &FabricMeetingState,
        se: usize,
        to: usize,
    ) -> BranchRoute {
        match Self::route(tz, rec, se, to) {
            (from, Tier::Trunk) => BranchRoute::Trunk { from, to },
            (_, Tier::Wan) => BranchRoute::Wan {
                links: tz.wan_path(tz.zone_of_edge(se), tz.zone_of_edge(to)),
            },
        }
    }

    /// Swing the branch that carries `member`'s media toward its remote
    /// entry on `to` — the only place a trunk destination is set. The
    /// upstream is [`Self::route`]'s (the member's own entry when
    /// co-located with it, else its remote entry there), the target is
    /// the remote entry's trunk-ingress ports, and the address between
    /// them is [`Fabric::trunk_addr`]'s, which routes around whatever
    /// is down *now*: a first plumb, a repair pass and a gateway
    /// migration all land on the same answer. Returns whether the
    /// branch moved.
    fn aim(
        sim: &mut Simulator,
        fabric: &Fabric,
        rec: &FabricMeetingState,
        member: &FabricMemberState,
        to: usize,
    ) -> bool {
        let (up_edge, _) = Self::route(&fabric.topology, rec, member.edge, to);
        let up_pid = if up_edge == member.edge {
            member.local_pid
        } else {
            member.remote_pids[&up_edge]
        };
        let (vp, ap) = fabric
            .edge_mut(sim, to)
            .agent
            .uplink_ports(member.remote_pids[&to])
            .expect("remote entry has trunk-ingress ports");
        let video_dst = fabric.trunk_addr(sim, up_edge, to, vp);
        let audio_dst = fabric.trunk_addr(sim, up_edge, to, ap);
        let te = rec.trunk_egress[&(up_edge, to)];
        fabric
            .edge_mut(sim, up_edge)
            .set_trunk_dst(te, up_pid, video_dst, audio_dst)
    }

    /// Would admitting a join of `edge` (sending or not) into `rec` hold
    /// every budget line? Answers [`AdmissionDecision::Admitted`] when
    /// the full-rate plan fits, [`AdmissionDecision::AdmittedThin`] when
    /// only the SVC-thin plan does (receivers only — a thin receiver's
    /// branches are booked at half rate and its decode target capped),
    /// and a typed refusal otherwise. Always `Admitted` while budgets
    /// are not enforced. Read-only: the books are not touched; the plan
    /// is drawn up in `plan`, the plane's reused buffer.
    fn price(
        tz: &Topology,
        rec: &FabricMeetingState,
        led: &FabricLoadLedger,
        plan: &mut LoadDelta,
        edge: usize,
        sends: bool,
    ) -> AdmissionDecision {
        if !led.enforcing() {
            return AdmissionDecision::Admitted;
        }
        let new_segment = !rec.segments.contains_key(&edge);
        // Every join charges the joiner's uplink ports. One that
        // materializes the segment also pulls, per established sender
        // elsewhere, a remote entry here and a branch toward here.
        let plan_at = |plan: &mut LoadDelta, inbound_bps: u64| {
            plan.clear();
            plan.add_ports(edge, MEMBER_PORTS);
            if new_segment {
                for m in rec.members.iter().filter(|m| m.sends && m.edge != edge) {
                    plan.add_ports(edge, REMOTE_PORTS);
                    plan.add_route(&Self::books(tz, rec, m.edge, edge), inbound_bps);
                }
            }
        };
        plan_at(plan, led.stream_bps());
        if sends {
            // A sender reaches every existing segment: a remote entry
            // and a branch each (branches toward thin segments are
            // booked thin). No thin fallback for senders — degrading
            // a sender would degrade every full receiver it serves.
            for o in rec.segments.keys().copied().filter(|&o| o != edge) {
                plan.add_ports(o, REMOTE_PORTS);
                let route = Self::books(tz, rec, edge, o);
                plan.add_route(&route, led.branch_bps(rec.thin_segments.contains(&o)));
            }
            return match led.fits(plan) {
                Ok(()) => AdmissionDecision::Admitted,
                Err(reason) => AdmissionDecision::Refused(reason),
            };
        }
        match led.fits(plan) {
            // A receiver joining a live thin segment stays thin.
            Ok(()) if rec.thin_segments.contains(&edge) => AdmissionDecision::AdmittedThin,
            Ok(()) => AdmissionDecision::Admitted,
            // Joining a live segment adds no trunk/WAN load: only the
            // port line can refuse, and thinning would not help.
            Err(reason) if !new_segment => AdmissionDecision::Refused(reason),
            // A receiver materializing a segment falls back to pulling
            // its branches SVC-thin.
            Err(_) => {
                plan_at(plan, led.thin_stream_bps());
                match led.fits(plan) {
                    Ok(()) => AdmissionDecision::AdmittedThin,
                    Err(reason) => AdmissionDecision::Refused(reason),
                }
            }
        }
    }

    /// [`Self::join`] into a caller-held buffer of `reqs.len()` slots
    /// (a single join answers into a stack slot): route the burst to the
    /// meeting's owner, then take each request through `join`'s five
    /// numbered steps, answering request `i` in `out[i]`.
    pub(crate) fn join_into(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        reqs: &[JoinRequest],
        out: &mut [JoinOutcome],
    ) {
        assert_eq!(reqs.len(), out.len(), "one outcome slot per request");
        let revived = self.route_to_owner(gmid, reqs);
        let first_global = self.next_global_participant + 1;
        let (scratch, ledger) = (&mut self.scratch, &mut self.ledger);
        let signaling = &mut self.signaling_exchanges;
        // Only an empty burst naming a retired meeting finds no record.
        let Some(rec) = self.fabric_meetings.get_mut(&gmid) else {
            return;
        };
        let id_of = |i: usize| first_global + i as GlobalParticipantId;
        scratch.edges.clear();
        for r in reqs {
            assert!(r.edge < fabric.edges(), "edge out of range");
            if !scratch.edges.contains(&r.edge) {
                scratch.edges.push(r.edge);
            }
        }
        for e in 0..scratch.edges.len() {
            let edge = scratch.edges[e];
            let mut group = reqs.iter().enumerate().filter(|(_, r)| r.edge == edge);
            loop {
                let next = group.next();
                // Steps 3–5 for the joiners admitted so far, once the
                // group is through — and already before a second sender
                // is priced: a pending sender's branches are booked only
                // when it is plumbed, and the next sender's price
                // depends on them. (Receivers add ports only, debited
                // as they are admitted, so a group with at most one
                // sender stays one batch.)
                let sender_pending = || scratch.pending.iter().any(|&p| reqs[p].sends);
                let due = next.is_none_or(|(_, r)| r.sends && sender_pending());
                if due && !scratch.pending.is_empty() {
                    let segment = rec.segments[&edge];
                    let thin = rec.thin_segments.contains(&edge);
                    scratch.grants.clear();
                    let batch = scratch
                        .pending
                        .iter()
                        .map(|&i| (reqs[i].addr, reqs[i].sends));
                    let sw = fabric.edge_mut(sim, edge);
                    sw.agent
                        .join_many_into(&mut sw.dp, segment, batch, &mut scratch.grants);
                    let first = rec.members.len();
                    for (&i, &local) in scratch.pending.iter().zip(&scratch.grants) {
                        let JoinRequest { addr, sends, .. } = reqs[i];
                        let global = id_of(i);
                        rec.members.push(FabricMemberState {
                            global,
                            edge,
                            addr,
                            sends,
                            local_pid: local.participant,
                            remote_pids: BTreeMap::new(),
                        });
                        *signaling += 1;
                        if let Some(sw) = fabric.live_edge(sim, edge).filter(|_| thin && !sends) {
                            sw.agent
                                .set_dt_cap(&mut sw.dp, local.participant, THIN_DECODE_TARGET);
                        }
                        out[i].grant = Some(FabricGrant {
                            global,
                            edge,
                            local,
                        });
                    }
                    for (k, i) in scratch.pending.drain(..).enumerate() {
                        if !reqs[i].sends {
                            continue;
                        }
                        Self::plumb_targets(fabric, rec, edge, &mut scratch.targets);
                        for &o in &scratch.targets {
                            Self::plumb_sender_to_edge(
                                sim,
                                fabric,
                                rec,
                                signaling,
                                ledger,
                                gmid,
                                first + k,
                                o,
                            );
                        }
                    }
                }
                let Some((i, r)) = next else {
                    break;
                };
                // Steps 1–2, and the port debit of step 4.
                let decision = Self::price(
                    &fabric.topology,
                    rec,
                    ledger,
                    &mut scratch.plan,
                    edge,
                    r.sends,
                );
                out[i] = JoinOutcome {
                    decision,
                    grant: None,
                };
                if let AdmissionDecision::Refused(reason) = decision {
                    ledger.note_refusal(reason);
                    continue;
                }
                if !rec.segments.contains_key(&edge) {
                    if decision == AdmissionDecision::AdmittedThin {
                        rec.thin_segments.insert(edge);
                    }
                    Self::materialize_segment(sim, fabric, rec, signaling, ledger, gmid, edge);
                }
                ledger.debit_member(gmid, id_of(i), edge);
                ledger.note_admission(rec.thin_segments.contains(&edge));
                scratch.pending.push(i);
            }
        }
        if let Some(last) = out.iter().rposition(|o| o.grant.is_some()) {
            self.next_global_participant += last as GlobalParticipantId + 1;
        }
        // A revival whose every request was refused stays retired.
        if revived && self.fabric_meetings[&gmid].members.is_empty() {
            self.retire(gmid);
        }
    }

    /// Materialize `edge`'s segment of a fabric meeting and wire it in:
    /// trunk-egress branches to every same-zone segment in both
    /// directions; if this is the zone's first segment, the edge
    /// becomes the zone's WAN gateway and gets WAN-tier branches to
    /// every other zone's gateway. Then every established sender on
    /// other edges becomes a remote sender here.
    fn materialize_segment(
        sim: &mut Simulator,
        fabric: &Fabric,
        rec: &mut FabricMeetingState,
        signaling: &mut u64,
        ledger: &mut FabricLoadLedger,
        gmid: GlobalMeetingId,
        edge: usize,
    ) {
        let segment = fabric.edge_mut(sim, edge).agent.create_meeting();
        rec.segments.insert(edge, segment);
        let (zone, here) = (fabric.topology.zone_of_edge(edge), (edge, segment));
        // `segments` (and, in `anchor_gateway`, `zone_gateways`) is
        // iterated while `trunk_egress` is inserted into — disjoint
        // fields of the one record, so no snapshot clones are needed.
        let (segments, trunk_egress) = (&rec.segments, &mut rec.trunk_egress);
        for (&o, &o_seg) in segments
            .iter()
            .filter(|&(&o, _)| o != edge && fabric.topology.zone_of_edge(o) == zone)
        {
            Self::open_branch_pair(sim, fabric, trunk_egress, Tier::Trunk, here, (o, o_seg));
        }
        if !rec.zone_gateways.contains_key(&zone) {
            Self::anchor_gateway(sim, fabric, rec, zone, edge);
        }
        // Established senders elsewhere become remote senders here.
        for mi in 0..rec.members.len() {
            if rec.members[mi].sends && rec.members[mi].edge != edge {
                Self::plumb_sender_to_edge(sim, fabric, rec, signaling, ledger, gmid, mi, edge);
            }
        }
    }

    /// Open the branch pair between the segments `near` and `far` (each
    /// an `(edge, segment)`): an egress branch of `tier` on either
    /// side, the near one first, recorded in `trunk_egress` under
    /// `(near, far)` and `(far, near)`.
    fn open_branch_pair(
        sim: &mut Simulator,
        fabric: &Fabric,
        trunk_egress: &mut BTreeMap<(usize, usize), ParticipantId>,
        tier: Tier,
        (near, near_seg): (usize, MeetingId),
        (far, far_seg): (usize, MeetingId),
    ) {
        let te_near = fabric.edge_mut(sim, near).join_egress(near_seg, tier);
        let te_far = fabric.edge_mut(sim, far).join_egress(far_seg, tier);
        trunk_egress.insert((near, far), te_near);
        trunk_egress.insert((far, near), te_far);
    }

    /// Make `g` zone `zone`'s WAN gateway and open a WAN-tier branch
    /// pair between it and every other zone's gateway, in zone order —
    /// the step a zone's first segment and a gateway migration share.
    fn anchor_gateway(
        sim: &mut Simulator,
        fabric: &Fabric,
        rec: &mut FabricMeetingState,
        zone: usize,
        g: usize,
    ) {
        rec.zone_gateways.insert(zone, g);
        let here = (g, rec.segments[&g]);
        for (_, &far) in rec.zone_gateways.iter().filter(|&(&z, _)| z != zone) {
            let far = (far, rec.segments[&far]);
            Self::open_branch_pair(sim, fabric, &mut rec.trunk_egress, Tier::Wan, here, far);
        }
    }

    /// The edges a sender homed on `edge` must be plumbed toward, in
    /// dependency order, into `out`: remote-zone gateways before that
    /// zone's other edges — the in-zone fan-out hop rides the sender's
    /// remote entry at the gateway, which the gateway plumb creates.
    fn plumb_targets(fabric: &Fabric, rec: &FabricMeetingState, edge: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(rec.segments.keys().copied().filter(|&o| o != edge));
        // Edges are distinct, so the unstable sort is deterministic.
        out.sort_unstable_by_key(|&o| {
            let stage = match Self::route(&fabric.topology, rec, edge, o) {
                (up, Tier::Trunk) if up == edge => 0,
                (_, Tier::Wan) => 1,
                (_, Tier::Trunk) => 2,
            };
            (stage, o)
        });
    }

    /// Compile forwarding of the sender at `rec.members[mi]` toward edge
    /// `to`: grant a remote-sender entry (trunk-ingress ports) on `to`,
    /// pruning the tier [`Self::route`] says its media arrives over,
    /// then [`Self::aim`] the upstream branch at it.
    ///
    /// On a federated fabric the remote edge reports feedback to the
    /// home edge's REMB sink (min-aggregation, §5.3 fabric-wide); on a
    /// single-zone campus it sends the sender its own selected REMB.
    #[allow(clippy::too_many_arguments)]
    fn plumb_sender_to_edge(
        sim: &mut Simulator,
        fabric: &Fabric,
        rec: &mut FabricMeetingState,
        signaling: &mut u64,
        ledger: &mut FabricLoadLedger,
        gmid: GlobalMeetingId,
        mi: usize,
        to: usize,
    ) {
        let m = &rec.members[mi];
        debug_assert!(m.sends && m.edge != to);
        let (global, m_edge) = (m.global, m.edge);
        let tz = &fabric.topology;
        let home_addr = if tz.zone_count() > 1 {
            let sink = fabric.edge_mut(sim, m_edge).feedback_sink(m.local_pid);
            HostAddr::new(tz.edge_spec(m_edge).ip, sink)
        } else {
            m.addr
        };
        let to_seg = rec.segments[&to];
        let (_, tier) = Self::route(tz, rec, m_edge, to);
        let remote = fabric
            .edge_mut(sim, to)
            .join_remote_sender(to_seg, home_addr, tier);
        rec.members[mi].remote_pids.insert(to, remote.participant);
        Self::aim(sim, fabric, rec, &rec.members[mi], to);
        // Book the compile: the remote entry's trunk-ingress ports at
        // `to`, and the branch's planned bits on the trunk or WAN
        // accounts it rides (thin segments book the thin rate).
        ledger.debit_remote(gmid, global, to);
        let route = Self::books(tz, rec, m_edge, to);
        ledger.debit_branch(gmid, global, to, route, rec.thin_segments.contains(&to));
        *signaling += 1;
    }

    /// Undo [`Self::plumb_sender_to_edge`] — the only place a remote
    /// entry leaves the record: drop `m`'s remote-sender entry on edge
    /// `to`, leave it there (freeing its trunk-ingress ports and RID),
    /// and credit its remote entry and its branch toward `to`. A
    /// fail-stopped switch already lost its rules with the crash, so the
    /// RPC is skipped while the bookkeeping still runs exactly once —
    /// which keeps the free-lists of a later revival coherent. Returns
    /// whether `m` held an entry on `to`.
    fn unplumb_sender_from_edge(
        sim: &mut Simulator,
        fabric: &Fabric,
        segments: &BTreeMap<usize, MeetingId>,
        ledger: &mut FabricLoadLedger,
        gmid: GlobalMeetingId,
        m: &mut FabricMemberState,
        to: usize,
    ) -> bool {
        let Some(pid) = m.remote_pids.remove(&to) else {
            return false;
        };
        if let Some(sw) = fabric.live_edge(sim, to) {
            sw.leave(segments[&to], pid);
        }
        ledger.credit_remote(gmid, m.global, to);
        ledger.credit_branch(gmid, m.global, to);
        true
    }

    /// Remove a fabric participant: leaves its home segment, retires its
    /// remote-sender entries everywhere, and garbage-collects any
    /// segment the departure drained (see the module docs). The home
    /// segment is collected only once the whole meeting is empty —
    /// otherwise it waits for [`Self::rebalance_fabric`] to move the
    /// home first. When the last member leaves, the meeting is retired
    /// from the plane at once.
    pub fn leave_fabric(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        global: GlobalParticipantId,
    ) {
        let ledger = &mut self.ledger;
        let Some(rec) = self.fabric_meetings.get_mut(&gmid) else {
            return;
        };
        let Some(pos) = rec.members.iter().position(|m| m.global == global) else {
            return;
        };
        let mut m = rec.members.remove(pos);
        // A fail-stopped switch already lost its rules with the crash:
        // skipping the RPC (here and in the unplumb) keeps the
        // free-lists of a later revival coherent — the bookkeeping
        // still runs exactly once.
        if let Some(sw) = fabric.live_edge(sim, m.edge) {
            sw.leave(rec.segments[&m.edge], m.local_pid);
        }
        // Credit the departure: the member's uplink ports, and — if it
        // sent — every remote entry and branch it held.
        ledger.credit_member(gmid, global);
        while let Some((&o, _)) = m.remote_pids.first_key_value() {
            Self::unplumb_sender_from_edge(sim, fabric, &rec.segments, ledger, gmid, &mut m, o);
        }
        self.signaling_exchanges += 1;

        // Segment GC.
        if rec.members.is_empty() {
            // Meeting over: collect every segment, home included, and
            // retire the record. Nothing of it stays behind, so a later
            // join re-materializes segments from scratch.
            for e in 0..fabric.edges() {
                self.gc_segment_if_drained(sim, fabric, gmid, e);
            }
            self.retire(gmid);
        } else if m.edge != rec.home {
            self.gc_segment_if_drained(sim, fabric, gmid, m.edge);
        }
    }

    /// Collect a meeting segment whose edge no longer hosts any local
    /// member: retire every surviving sender's remote-sender entry
    /// there, tear down the trunk-egress branches toward and from that
    /// edge, and destroy the drained segment so its rules, RIDs, and
    /// ports return to their pools. Each affected sender's home edge
    /// also forgets the collected edge's REMB estimate so a stale
    /// report cannot pin the fabric-wide minimum. If the edge was its
    /// zone's WAN gateway and the zone keeps other segments, the
    /// gateway role migrates to the zone's lowest remaining segment
    /// edge that is alive — a dead one only when no live segment is left
    /// (see [`Self::migrate_zone_gateway`]). No-op while a local member
    /// remains. Returns whether the segment was collected.
    fn gc_segment_if_drained(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        edge: usize,
    ) -> bool {
        let ledger = &mut self.ledger;
        let Some(rec) = self.fabric_meetings.get_mut(&gmid) else {
            return false;
        };
        let Some(&seg) = rec.segments.get(&edge) else {
            return false;
        };
        if rec.members.iter().any(|m| m.edge == edge) {
            return false;
        }
        // 1. Retire remote-sender entries surviving senders hold here
        //    (frees their trunk-ingress ports and RIDs, and credits
        //    their books), and drop the edge's REMB estimate from each
        //    sender's home-edge sink. RPCs into a fail-stopped switch
        //    are skipped: its rules died with it, and replaying frees
        //    on revival would double-free RIDs and ports. The
        //    bookkeeping runs regardless.
        let edge_ip = fabric.topology.edge_spec(edge).ip;
        for m in &mut rec.members {
            if Self::unplumb_sender_from_edge(sim, fabric, &rec.segments, ledger, gmid, m, edge) {
                if let Some(sw) = fabric.live_edge(sim, m.edge) {
                    sw.clear_remote_est(m.local_pid, edge_ip);
                }
            }
        }
        // 2. Tear down trunk-egress branches in both directions — this
        //    is what stops every other edge from trunking media toward
        //    the drained edge. WAN-tier branches live in the same table
        //    and are collected by the same sweep.
        let segments = &rec.segments;
        rec.trunk_egress.retain(|&(on, toward), &mut te| {
            let keep = on != edge && toward != edge;
            if let Some(sw) = fabric.live_edge(sim, on).filter(|_| !keep) {
                sw.leave(segments[&on], te);
            }
            keep
        });
        rec.segments.remove(&edge);
        rec.thin_segments.remove(&edge);
        // 3. Destroy the now-empty segment (returns its MGIDs).
        if let Some(sw) = fabric.live_edge(sim, edge) {
            sw.destroy_meeting(seg);
        }
        self.signaling_exchanges += 1;
        // 4. If the collected edge anchored its zone's WAN gateway, the
        //    role moves to a surviving segment in the zone, on a live
        //    switch if the zone has one (or retires with the zone).
        let (tz, zone) = (&fabric.topology, fabric.topology.zone_of_edge(edge));
        if rec.zone_gateways.get(&zone) == Some(&edge) {
            rec.zone_gateways.remove(&zone);
            let in_zone = |o: &usize| tz.zone_of_edge(*o) == zone;
            let mut segs = rec.segments.keys().copied().filter(in_zone);
            let lowest = segs.clone().next();
            let live = segs.find(|&o| fabric.live_edge(sim, o).is_some());
            if let Some(new_g) = live.or(lowest) {
                self.migrate_zone_gateway(sim, fabric, gmid, zone, new_g);
            }
        }
        true
    }

    /// Re-anchor zone `zone`'s WAN gateway on `new_g` after the old
    /// gateway's segment was collected: create WAN-tier branches (both
    /// directions) between `new_g` and every other zone's gateway, then
    /// re-route every cross-zone flow through them —
    ///
    /// * senders homed **outside** the zone get a fresh WAN-pruned
    ///   remote entry at `new_g` (their old entry there was trunk-pruned
    ///   and would re-cross the WAN), their zone's WAN branch re-aims at
    ///   it, and `new_g`'s in-zone trunk branches re-fan-out from it;
    /// * senders homed **inside** the zone have their outbound WAN
    ///   branches re-aimed at their (unchanged) remote entries on the
    ///   other zones' gateways.
    fn migrate_zone_gateway(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
        zone: usize,
        new_g: usize,
    ) {
        let (ledger, signaling) = (&mut self.ledger, &mut self.signaling_exchanges);
        let rec = self.fabric_meetings.get_mut(&gmid).expect("fabric meeting");
        Self::anchor_gateway(sim, fabric, rec, zone, new_g);
        let tz = &fabric.topology;
        for mi in 0..rec.members.len() {
            let m = &rec.members[mi];
            if !m.sends {
                continue;
            }
            let (m_global, m_edge) = (m.global, m.edge);
            if tz.zone_of_edge(m_edge) != zone {
                // Retire the trunk-pruned entry and re-plumb through the
                // WAN tier (plumb re-grants, re-aims the sender zone's
                // WAN branch, and records the new remote pid). The
                // trunk-pruned entry's books are retired with it; the
                // WAN-tier plumb re-debits both.
                let m = &mut rec.members[mi];
                Self::unplumb_sender_from_edge(sim, fabric, &rec.segments, ledger, gmid, m, new_g);
                Self::plumb_sender_to_edge(sim, fabric, rec, signaling, ledger, gmid, mi, new_g);
                // Re-fan-out inside the zone from the fresh entry: the
                // in-zone trunk branches keep their downstream entries,
                // only the upstream pid at `new_g` changed.
                for &o in rec
                    .segments
                    .keys()
                    .filter(|&&o| o != new_g && tz.zone_of_edge(o) == zone)
                {
                    Self::aim(sim, fabric, rec, &rec.members[mi], o);
                    // Rebind the fan-out branch's books: same
                    // destination, new upstream trunk (the debit
                    // replaces the old-gateway entry).
                    ledger.debit_branch(
                        gmid,
                        m_global,
                        o,
                        Self::books(tz, rec, m_edge, o),
                        rec.thin_segments.contains(&o),
                    );
                }
            } else {
                // In-zone sender: its entries on other zones' gateways
                // are intact; only the outbound WAN branch moved here.
                for (_, &g) in rec.zone_gateways.iter().filter(|&(&z, _)| z != zone) {
                    Self::aim(sim, fabric, rec, &rec.members[mi], g);
                }
            }
        }
        *signaling += 1;
    }

    /// Revisit a fabric meeting's home placement (module docs): when an
    /// edge holds strictly more than `home + REBALANCE_HYSTERESIS`
    /// local members, re-home the meeting there and collect the old
    /// home's segment if the population fully drained away from it. A
    /// **fully drained** home (zero local members) is re-homed to any
    /// edge that still hosts members, bypassing the hysteresis — there
    /// is no flap risk (flapping back would require the new home to
    /// drain too) and every tick spent waiting trunks full-quality
    /// media toward an edge with no receivers. Ties in member count
    /// prefer the edge (or zone) with the lower ledger load score, then
    /// the lowest index (deterministic). On a federated fabric the decision
    /// is two-level: the home **zone** is picked first by member
    /// majority under the same hysteresis, then the best edge within
    /// it — so a meeting whose population has migrated to another
    /// campus re-homes across the WAN, while intra-zone drift never
    /// moves the home out of the zone.
    ///
    /// A re-home changes the meeting's ring key, so ownership is then
    /// re-evaluated and the meeting handed off when the hash names
    /// another shard (a re-home across zones is counted, and under zone
    /// affinity always hands off). Returns `Some((old_home, new_home))`
    /// when a re-home happened.
    pub fn rebalance_fabric(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        gmid: GlobalMeetingId,
    ) -> Option<(usize, usize)> {
        let rec = self.fabric_meetings.get(&gmid)?;
        let home = rec.home;
        // Zone majority first (federation): the home *zone* only moves
        // when another zone's population beats it past the same
        // hysteresis (or the home zone is empty). With one zone this
        // selects zone 0 and only the edge-level rule below decides.
        let home_zone = fabric.topology.zone_of_edge(home);
        let mut zone_count: BTreeMap<usize, usize> = BTreeMap::new();
        for m in &rec.members {
            *zone_count
                .entry(fabric.topology.zone_of_edge(m.edge))
                .or_default() += 1;
        }
        let home_zone_count = zone_count.get(&home_zone).copied().unwrap_or(0);
        // Equal member counts break toward capacity headroom (the
        // ledger's load score, booked whether or not budgets are armed),
        // then toward the lowest index: migrations target headroom, not
        // just receiver majority.
        let zone_load = |z: usize| {
            fabric
                .topology
                .zone_edges(z)
                .map(|e| self.ledger.load_score(e))
                .fold((0u64, 0u64), |a, s| (a.0 + s.0, a.1 + s.1))
        };
        let (&best_zone, &best_zone_count) = zone_count
            .iter()
            .max_by_key(|&(&z, &c)| (c, Reverse(zone_load(z)), Reverse(z)))?;
        let target_zone = if best_zone != home_zone
            && (home_zone_count == 0 || best_zone_count > home_zone_count + REBALANCE_HYSTERESIS)
        {
            best_zone
        } else {
            home_zone
        };
        // Best edge within the target zone.
        let mut count: BTreeMap<usize, usize> = BTreeMap::new();
        for m in &rec.members {
            if fabric.topology.zone_of_edge(m.edge) == target_zone {
                *count.entry(m.edge).or_default() += 1;
            }
        }
        let home_count = count.get(&home).copied().unwrap_or(0);
        let (&best, &best_count) = count
            .iter()
            .max_by_key(|&(&e, &c)| (c, Reverse(self.ledger.load_score(e)), Reverse(e)))?;
        if best == home
            || (target_zone == home_zone
                && home_count > 0
                && best_count <= home_count + REBALANCE_HYSTERESIS)
        {
            return None;
        }
        // Make-before-break: the winning edge hosts local members, so
        // its segment is already live and fully plumbed (every remote
        // sender, every trunk branch) — the flip changes bookkeeping
        // first and only then tears down the drained old home.
        debug_assert!(rec.segments.contains_key(&best), "majority edge is live");
        self.fabric_meetings
            .get_mut(&gmid)
            .expect("fabric meeting")
            .home = best;
        self.signaling_exchanges += 1;
        if home_count == 0 {
            self.gc_segment_if_drained(sim, fabric, gmid, home);
        }
        if self.zone_of_home(home) != self.zone_of_home(best) {
            self.cross_zone_handoffs += 1;
        }
        self.hand_off(gmid);
        Some((home, best))
    }

    // ------------------------------------------------------------------
    // Failure repair (fail-stop recovery; ARCHITECTURE.md "Failure
    // domains")
    // ------------------------------------------------------------------

    /// Re-aim every branch of every meeting against the
    /// network as it is now, and return how many moved. Nothing tells
    /// the pass *what* failed: `Fabric::trunk_addr` observes dead
    /// cores and cut trunk links itself, so successive failures
    /// compose, a branch whose path is still good (or that rides the
    /// WAN tier, which no core carries) stays where it is, a second
    /// pass over the same network returns 0, and after a core revives
    /// or a link is restored the same pass moves branches back to their
    /// preferred core.
    ///
    /// Unlike re-homing, this repair is **break-before-make** by
    /// nature: media already in flight toward the dead core was
    /// fail-stopped at the kill, so the gap between the crash and this
    /// repair is real, visible decode-rate loss (measured by
    /// `bench::fault`).
    pub fn repair_trunks(&mut self, sim: &mut Simulator, fabric: &Fabric) -> u64 {
        let mut repaired = 0u64;
        for rec in self.fabric_meetings.values() {
            for m in rec.members.iter().filter(|m| m.sends) {
                for &to in m.remote_pids.keys() {
                    repaired += u64::from(Self::aim(sim, fabric, rec, m, to));
                }
            }
        }
        self.signaling_exchanges += repaired;
        repaired
    }

    /// Evacuate every meeting's state off a fail-stopped edge switch:
    /// its local members are removed (their clients crashed with the
    /// switch), its segment is collected — live edges tear down their
    /// branches toward it while RPCs *into* the dead switch are
    /// skipped (`Fabric::live_edge`) — and a meeting whose home
    /// anchored there is re-homed to a surviving edge, and handed off
    /// with it, via the drained-home bypass of [`Self::rebalance_fabric`].
    /// Meetings whose last members died with the edge are retired.
    /// Bookkeeping runs exactly once per member/branch either way, so a
    /// later revival of the switch cannot be double-freed against.
    /// Returns the number of members dropped with the edge.
    pub fn handle_edge_failure(
        &mut self,
        sim: &mut Simulator,
        fabric: &Fabric,
        edge: usize,
    ) -> u64 {
        let gmids: Vec<GlobalMeetingId> = self.fabric_meetings.keys().copied().collect();
        let mut lost_total = 0u64;
        for gmid in gmids {
            let lost = |plane: &Self| {
                let rec = plane.fabric_meetings.get(&gmid)?;
                rec.members
                    .iter()
                    .find(|m| m.edge == edge)
                    .map(|m| m.global)
            };
            while let Some(g) = lost(self) {
                lost_total += 1;
                self.leave_fabric(sim, fabric, gmid, g);
            }
            let Some(rec) = self.fabric_meetings.get(&gmid) else {
                continue; // its last members died with the edge: retired
            };
            if rec.home == edge && !rec.members.is_empty() {
                // The dead edge anchored the home: the drained-home
                // bypass re-homes to a surviving edge and collects the
                // dead home's live-side plumbing.
                self.rebalance_fabric(sim, fabric, gmid);
            } else {
                self.gc_segment_if_drained(sim, fabric, gmid, edge);
            }
        }
        lost_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_dataplane::seqrewrite::SeqRewriteMode;
    use scallop_netsim::link::LinkConfig;
    use scallop_netsim::time::SimDuration;
    use scallop_proto::sdp::MediaSection;
    use std::net::Ipv4Addr;

    const SWITCH_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    fn fabric(seed: u64, topology: Topology) -> (Simulator, Fabric) {
        let mut sim = Simulator::new(seed);
        let f = Fabric::build(
            &mut sim,
            topology,
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        (sim, f)
    }

    /// The controller is reached the way everything reaches it: through
    /// a (one-shard) plane's one join path.
    fn join(
        ctl: &mut ShardedControlPlane,
        sim: &mut Simulator,
        f: &Fabric,
        gmid: GlobalMeetingId,
        req: JoinRequest,
    ) -> FabricGrant {
        ctl.join(sim, f, gmid, &[req])[0].grant.expect("admitted")
    }

    fn offer(ip: Ipv4Addr, port: u16) -> String {
        let mut sd = SessionDescription::new("alice");
        let mut v = MediaSection::new(MediaKind::Video, port);
        v.candidates.push(Candidate::host(ip, port));
        v.ssrcs = vec![0x1111];
        let mut a = MediaSection::new(MediaKind::Audio, port);
        a.candidates.push(Candidate::host(ip, port));
        a.ssrcs = vec![0x2222];
        sd.media = vec![v, a];
        sd.serialize()
    }

    #[test]
    fn sdp_join_rewrites_candidates_to_switch() {
        let (mut sim, f) = fabric(9, Topology::single(SWITCH_IP));
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let client_ip = Ipv4Addr::new(10, 1, 0, 1);
        let offer = SessionDescription::parse(&offer(client_ip, 5000)).unwrap();
        let req = JoinRequest::from_offer(0, &offer).unwrap();
        assert_eq!(req.addr, HostAddr::new(client_ip, 5000));
        assert!(req.sends);
        let grant = join(&mut ctl, &mut sim, &f, gmid, req).local;
        let answer = sdp_answer(&offer, &grant);
        let parsed = SessionDescription::parse(&answer).unwrap();
        // Every candidate in the answer points at the switch, not the
        // client: the proxy splice of §5.1.
        for c in parsed.all_candidates() {
            assert_eq!(c.ip, SWITCH_IP);
        }
        let video_port = parsed
            .media
            .iter()
            .find(|ms| ms.kind == MediaKind::Video)
            .unwrap()
            .candidates[0]
            .port;
        assert_eq!(video_port, grant.video_uplink.port);
        assert_eq!(ctl.fabric_members(gmid).len(), 1);
    }

    #[test]
    fn offer_without_candidates_rejected() {
        let bare = "v=0\r\no=x 0 0 IN IP4 0.0.0.0\r\ns=-\r\nt=0 0\r\nm=video 1 UDP/RTP/AVPF 96\r\n";
        let req = SessionDescription::parse(bare).and_then(|o| JoinRequest::from_offer(0, &o));
        assert!(req.is_err());
    }

    fn campus2() -> (Simulator, Fabric) {
        fabric(9, Topology::campus(2, 0))
    }

    fn req(edge: usize, last: u8, sends: bool) -> JoinRequest {
        let addr = HostAddr::new(Ipv4Addr::new(10, 9, 0, last), 5000);
        JoinRequest { edge, addr, sends }
    }

    /// Snapshot of edge `i`'s switch occupancy for reclaim assertions.
    fn occupancy(sim: &mut Simulator, f: &Fabric, i: usize) -> (usize, usize, usize, usize, usize) {
        let sw = f.edge_mut(sim, i);
        (
            sw.agent.ports_in_use(),
            sw.agent.participants_tracked(),
            sw.agent.meetings_tracked(),
            sw.dp.pre.groups_used(),
            sw.dp.pre.l2_xids_used(),
        )
    }

    #[test]
    fn last_local_leave_collects_remote_segment() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let baseline1 = occupancy(&mut sim, &f, 0);
        let base_remote = occupancy(&mut sim, &f, 1);
        let _a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(0, 2, true));
        let c = join(&mut ctl, &mut sim, &f, gmid, req(1, 3, true));
        assert!(ctl.segment_of(gmid, 1).is_some());
        let occupied = occupancy(&mut sim, &f, 1);
        assert!(occupied.0 > base_remote.0, "remote segment allocates ports");

        // The only edge-1 member leaves: the whole remote segment — its
        // remote senders, trunk branches, ports, RIDs — must go.
        ctl.leave_fabric(&mut sim, &f, gmid, c.global);
        assert_eq!(ctl.segment_of(gmid, 1), None, "remote segment collected");
        assert_eq!(
            occupancy(&mut sim, &f, 1),
            base_remote,
            "edge 1 back to pre-meeting occupancy"
        );
        // The home edge dropped its trunk-egress branch toward edge 1.
        let home_members = ctl.fabric_members(gmid);
        assert_eq!(home_members.len(), 2);
        let _ = baseline1;
    }

    #[test]
    fn meeting_over_collects_everything_and_allows_rejoin() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let base0 = occupancy(&mut sim, &f, 0);
        let base1 = occupancy(&mut sim, &f, 1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        ctl.leave_fabric(&mut sim, &f, gmid, a.global);
        ctl.leave_fabric(&mut sim, &f, gmid, b.global);
        // Note: base0 was taken before create_fabric_meeting made the
        // home segment, so full GC must land exactly back on it.
        assert_eq!(occupancy(&mut sim, &f, 0), base0);
        assert_eq!(occupancy(&mut sim, &f, 1), base1);
        assert_eq!(ctl.segment_of(gmid, 0), None);
        // The meeting record survives: a later join re-materializes.
        let c = join(&mut ctl, &mut sim, &f, gmid, req(1, 3, true));
        assert!(ctl.segment_of(gmid, 1).is_some());
        assert_eq!(ctl.fabric_members(gmid), vec![c.global]);
    }

    #[test]
    fn rebalance_respects_hysteresis_then_rehomes() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        let _c = join(&mut ctl, &mut sim, &f, gmid, req(1, 3, true));
        // 2 vs 1: margin of one member sits inside the hysteresis band.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), None);
        assert_eq!(ctl.home_edge_of(gmid), Some(0));
        let _d = join(&mut ctl, &mut sim, &f, gmid, req(1, 4, false));
        // 3 vs 1: decisive majority → re-home, but edge 0 still hosts a
        // member so its segment stays live.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), Some((0, 1)));
        assert_eq!(ctl.home_edge_of(gmid), Some(1));
        assert!(ctl.segment_of(gmid, 0).is_some());
        // Idempotent: already home.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), None);
        // Drain edge 0: now a non-home edge, collected on leave.
        ctl.leave_fabric(&mut sim, &f, gmid, a.global);
        assert_eq!(ctl.segment_of(gmid, 0), None);
    }

    #[test]
    fn drained_home_rehomes_without_hysteresis() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        // 1 vs 1: hysteresis holds while home still hosts a member.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), None);
        ctl.leave_fabric(&mut sim, &f, gmid, a.global);
        // Home fully drained: even a single-member edge wins
        // immediately — waiting would trunk media to no one.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), Some((0, 1)));
        assert_eq!(ctl.segment_of(gmid, 0), None, "drained old home collected");
        assert_eq!(ctl.home_edge_of(gmid), Some(1));
    }

    #[test]
    fn a_tied_rehome_goes_to_the_emptier_edge() {
        // No budgets armed: the ledger still books load, and a tie in
        // member count breaks toward it before the edge index.
        let (mut sim, f) = fabric(9, Topology::campus(3, 0));
        let mut ctl = ShardedControlPlane::new(1);
        let other = ctl.create_fabric_meeting(&mut sim, &f, 1);
        for last in 1..=3 {
            join(&mut ctl, &mut sim, &f, other, req(1, last, false));
        }
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(0, 10, true));
        for (edge, last) in [(1, 11), (1, 12), (2, 13), (2, 14)] {
            join(&mut ctl, &mut sim, &f, gmid, req(edge, last, true));
        }
        ctl.leave_fabric(&mut sim, &f, gmid, a.global);
        let led = ctl.ledger();
        assert!(led.load_score(2) < led.load_score(1));
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), Some((0, 2)));
    }

    #[test]
    fn rebalance_collects_fully_drained_old_home() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let base1 = occupancy(&mut sim, &f, 1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 1);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(1, 1, true));
        let b = join(&mut ctl, &mut sim, &f, gmid, req(0, 2, true));
        let _c = join(&mut ctl, &mut sim, &f, gmid, req(0, 3, true));
        // Population drifts off the home edge entirely.
        ctl.leave_fabric(&mut sim, &f, gmid, a.global);
        // Home (edge 1) is drained but exempt from leave-time GC...
        assert!(ctl.segment_of(gmid, 1).is_some(), "home survives drain");
        // ...until rebalance moves the home and collects it.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), Some((1, 0)));
        assert_eq!(ctl.segment_of(gmid, 1), None, "old home collected");
        assert_eq!(occupancy(&mut sim, &f, 1), base1);
        // Surviving members unaffected.
        assert_eq!(ctl.fabric_members(gmid).len(), 2);
        let _ = b;
    }

    /// Campus with real core relays, so trunk failover has somewhere
    /// to go.
    fn campus_with_cores(edges: usize, cores: usize) -> (Simulator, Fabric) {
        fabric(13, Topology::campus(edges, cores))
    }

    #[test]
    fn core_failure_repair_reaims_affected_branches() {
        let (mut sim, f) = campus_with_cores(2, 2);
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let _a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        // Healthy network: the pass is a no-op.
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 0);
        let preferred = f.topology.core_between(0, 1).unwrap();
        sim.kill_node(f.core_ids[preferred]);
        // Each sender's single cross-edge branch routes via the dead
        // core: both re-aim at the survivor.
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 2);
        // Idempotent by count: nothing is left to move.
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 0);
        // Lose the last core too: branches fall back to direct edge
        // addressing rather than stranding.
        sim.kill_node(f.core_ids[1 - preferred]);
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 2);
        // Both cores return: the branches go home to the preferred one.
        sim.revive_node(f.core_ids[0]);
        sim.revive_node(f.core_ids[1]);
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 2);
    }

    #[test]
    fn trunk_cut_repair_is_scoped_to_the_cut_edge() {
        let (mut sim, f) = campus_with_cores(3, 2);
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let _a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        let _c = join(&mut ctl, &mut sim, &f, gmid, req(2, 3, false));
        // With 2 cores over 3 edges: (0,1) and (1,2) route via core 1,
        // (0,2) via core 0.
        assert_eq!(f.topology.core_between(0, 1), Some(1));
        assert_eq!(f.topology.core_between(1, 2), Some(1));
        assert_eq!(f.topology.core_between(0, 2), Some(0));
        // Cutting a link no branch uses (edge 1 never routes via
        // core 0) repairs nothing.
        sim.cut_link(f.edge_ids[1], f.core_ids[0]);
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 0);
        sim.restore_link(f.edge_ids[1], f.core_ids[0]);
        // Cutting edge 1's link to core 1 affects exactly the branches
        // touching edge 1 on that core — sender a's 0→1 and sender b's
        // 1→0, 1→2 — while a's 0→2 branch keeps its healthy core.
        sim.cut_link(f.edge_ids[1], f.core_ids[1]);
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 3);
        // Restored: the same three move back.
        sim.restore_link(f.edge_ids[1], f.core_ids[1]);
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 3);
    }

    #[test]
    fn dead_edge_failure_evacuates_without_double_free() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let base0 = occupancy(&mut sim, &f, 0);
        let base1 = occupancy(&mut sim, &f, 1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        sim.kill_node(f.edge_ids[1]);
        assert_eq!(ctl.handle_edge_failure(&mut sim, &f, 1), 1);
        // Bookkeeping dropped the dead segment and its member...
        assert_eq!(ctl.segment_of(gmid, 1), None);
        assert_eq!(ctl.fabric_members(gmid), vec![a.global]);
        // ...and the evacuation is idempotent.
        assert_eq!(ctl.handle_edge_failure(&mut sim, &f, 1), 0);
        // The crashed switch was never RPC'd: on revival its tables
        // still hold the pre-crash rules (an operator reset, not the
        // GC, reclaims them) — proof the GC skipped the dead side.
        sim.revive_node(f.edge_ids[1]);
        assert!(
            occupancy(&mut sim, &f, 1).0 > base1.0,
            "dead-side rules untouched by evacuation"
        );
        // The live side was torn down exactly once: ending the meeting
        // returns edge 0 to its pre-meeting occupancy.
        ctl.leave_fabric(&mut sim, &f, gmid, a.global);
        assert_eq!(occupancy(&mut sim, &f, 0), base0);
    }

    #[test]
    fn dead_home_edge_rehomes_to_survivor() {
        let (mut sim, f) = campus2();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let b = join(&mut ctl, &mut sim, &f, gmid, req(1, 2, true));
        sim.kill_node(f.edge_ids[0]);
        assert_eq!(ctl.handle_edge_failure(&mut sim, &f, 0), 1);
        // The meeting survives its home edge: re-homed onto the
        // survivor, dead segment collected, survivor membership intact.
        assert_eq!(ctl.home_edge_of(gmid), Some(1));
        assert_eq!(ctl.segment_of(gmid, 0), None);
        assert_eq!(ctl.fabric_members(gmid), vec![b.global]);
        let _ = a;
    }

    /// 2 zones × 2 edges (+1 core per zone): edges 0,1 in zone 0 and
    /// 2,3 in zone 1.
    fn federation22() -> (Simulator, Fabric) {
        fabric(11, Topology::federation(2, 2, 1))
    }

    #[test]
    fn cross_zone_segments_wire_wan_branches_at_gateways_only() {
        let (mut sim, f) = federation22();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let s = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        // First zone-1 segment: edge 2 becomes the zone's gateway.
        let _r1 = join(&mut ctl, &mut sim, &f, gmid, req(2, 2, false));
        let rec = ctl.meeting(gmid).expect("live");
        assert_eq!(rec.zone_gateways.get(&0).copied(), Some(0));
        assert_eq!(rec.zone_gateways.get(&1).copied(), Some(2));
        assert!(rec.trunk_egress.contains_key(&(0, 2)), "WAN branch out");
        assert!(rec.trunk_egress.contains_key(&(2, 0)), "WAN branch back");
        // Second zone-1 segment is a non-gateway: it is trunk-wired to
        // its gateway, not WAN-wired to zone 0.
        let _r2 = join(&mut ctl, &mut sim, &f, gmid, req(3, 3, false));
        let rec = ctl.meeting(gmid).expect("live");
        assert_eq!(
            rec.zone_gateways.get(&1).copied(),
            Some(2),
            "gateway is sticky"
        );
        assert!(rec.trunk_egress.contains_key(&(2, 3)));
        assert!(rec.trunk_egress.contains_key(&(3, 2)));
        assert!(
            !rec.trunk_egress.contains_key(&(0, 3)),
            "no direct WAN branch to a non-gateway"
        );
        // The sender reaches every involved edge exactly once.
        let m = rec.members.iter().find(|m| m.global == s.global).unwrap();
        assert_eq!(
            m.remote_pids.keys().copied().collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    /// 2 zones × 3 edges, 2 cores per zone: edges 0–2 and cores 0–1 in
    /// zone 0, edges 3–5 and cores 2–3 in zone 1.
    fn federation232() -> (Simulator, Fabric) {
        fabric(17, Topology::federation(2, 3, 2))
    }

    #[test]
    fn gateway_gc_migrates_wan_branches_and_reclaims_the_edge() {
        let (mut sim, f) = federation232();
        let mut ctl = ShardedControlPlane::new(1);
        let base3 = occupancy(&mut sim, &f, 3);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let _s = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let r1 = join(&mut ctl, &mut sim, &f, gmid, req(3, 2, false));
        let _r2 = join(&mut ctl, &mut sim, &f, gmid, req(4, 3, false));
        let _r3 = join(&mut ctl, &mut sim, &f, gmid, req(5, 4, false));
        // The core the next gateway (edge 4) would fan out to edge 5
        // over dies. Then drain the zone-1 gateway: the role must
        // migrate to edge 4 and the WAN branches must follow it.
        let preferred = f.topology.core_between(4, 5).unwrap();
        sim.kill_node(f.core_ids[preferred]);
        ctl.leave_fabric(&mut sim, &f, gmid, r1.global);
        let rec = ctl.meeting(gmid).expect("live");
        assert_eq!(ctl.segment_of(gmid, 3), None, "gateway segment collected");
        assert_eq!(rec.zone_gateways.get(&1).copied(), Some(4));
        assert!(rec.trunk_egress.contains_key(&(0, 4)), "WAN branch moved");
        assert!(rec.trunk_egress.contains_key(&(4, 0)));
        assert!(!rec.trunk_egress.contains_key(&(0, 3)));
        let m = &rec.members.iter().find(|m| m.sends).unwrap();
        assert!(m.remote_pids.contains_key(&4), "sender re-granted at 4");
        // The re-fanned 4→5 branch asked the rule a repair asks: its
        // egress rules point at the zone's surviving core already.
        let (vp, _) = (f.edge_mut(&mut sim, 5).agent)
            .uplink_ports(m.remote_pids[&5])
            .unwrap();
        let survivor = f.topology.zone_cores(1).find(|&c| c != preferred).unwrap();
        let aimed: Vec<_> = (f.edge_mut(&mut sim, 4).dp.egress.iter())
            .filter(|(_, spec)| spec.dst.port == vp)
            .map(|(_, spec)| spec.dst.ip)
            .collect();
        assert!(!aimed.is_empty(), "the fan-out branch is installed");
        assert!(aimed.iter().all(|&ip| ip == Topology::core_ip(survivor)));
        assert_eq!(ctl.repair_trunks(&mut sim, &f), 0, "nothing left to fix");
        assert_eq!(
            occupancy(&mut sim, &f, 3),
            base3,
            "old gateway edge fully reclaimed"
        );
    }

    /// A fail-stopped switch gets no frees, whichever teardown runs: the
    /// zone-1 gateway role moving onto a dead edge retires the sender's
    /// trunk-pruned entry there in the books only. Freed into the dead
    /// switch, its pid would come straight back (the pools hand out the
    /// lowest free id first) as the WAN-pruned entry that replaces it.
    #[test]
    fn gateway_migration_frees_nothing_into_a_dead_switch() {
        let (mut sim, f) = federation232();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let s = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let r1 = join(&mut ctl, &mut sim, &f, gmid, req(3, 2, false));
        let _r2 = join(&mut ctl, &mut sim, &f, gmid, req(4, 3, false));
        let remote_at_4 = |ctl: &ShardedControlPlane| {
            let rec = ctl.meeting(gmid).expect("live");
            let m = rec.members.iter().find(|m| m.global == s.global);
            m.expect("sender").remote_pids[&4]
        };
        let old = remote_at_4(&ctl);
        // Edge 4 dies and is not evacuated; then the zone-1 gateway
        // (edge 3) drains, so the role moves onto the dead edge.
        sim.kill_node(f.edge_ids[4]);
        ctl.leave_fabric(&mut sim, &f, gmid, r1.global);
        let rec = ctl.meeting(gmid).expect("live");
        assert_eq!(rec.zone_gateways.get(&1).copied(), Some(4));
        let sw = f.edge_mut(&mut sim, 4);
        assert!(sw.agent.uplink_ports(old).is_some(), "old entry kept");
        assert_ne!(remote_at_4(&ctl), old, "the WAN-pruned entry is new");
        assert_eq!(f.check(&mut sim, &ctl), Ok(()));
    }

    #[test]
    fn a_drained_gateways_role_goes_to_a_live_segment() {
        let (mut sim, f) = federation232();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let r1 = join(&mut ctl, &mut sim, &f, gmid, req(3, 2, false));
        join(&mut ctl, &mut sim, &f, gmid, req(4, 3, false));
        join(&mut ctl, &mut sim, &f, gmid, req(5, 4, false));
        // Edge 4 dies and is not evacuated; then the zone-1 gateway
        // (edge 3) drains. The role skips the lower, dead edge 4 for
        // the live edge 5.
        sim.kill_node(f.edge_ids[4]);
        ctl.leave_fabric(&mut sim, &f, gmid, r1.global);
        let rec = ctl.meeting(gmid).expect("live");
        assert_eq!(rec.zone_gateways[&1], 5);
        assert_eq!(f.check(&mut sim, &ctl), Ok(()));
    }

    #[test]
    fn route_is_pinned_for_every_pair_and_priced_as_plumbed() {
        // ROUTES[se], one cell per `to`: the route of a sender on `se`
        // toward `to` before/after `to`'s zone has a gateway, written
        // <upstream edge><T = trunk | W = WAN>. The meeting's home —
        // its zone's gateway — is the lowest edge of `se`'s zone that is
        // neither `se` nor `to`; the target zone's gateway, once there,
        // is the lowest edge of that zone other than `to`.
        const ROUTES: [&str; 6] = [
            "--/-- 0T/0T 0T/0T 1W/4T 1W/3T 1W/3T",
            "1T/1T --/-- 1T/1T 0W/4T 0W/3T 0W/3T",
            "2T/2T 2T/2T --/-- 0W/4T 0W/3T 0W/3T",
            "4W/1T 4W/0T 4W/0T --/-- 3T/3T 3T/3T",
            "3W/1T 3W/0T 3W/0T 4T/4T --/-- 4T/4T",
            "3W/1T 3W/0T 3W/0T 5T/5T 5T/5T --/--",
        ];
        let parse = |s: &str| {
            let tier = [Tier::Trunk, Tier::Wan][usize::from(s.ends_with('W'))];
            (s[..1].parse::<usize>().unwrap(), tier)
        };
        let cells = ROUTES.iter().enumerate().flat_map(|(se, row)| {
            let row = row.split(' ').enumerate().filter(move |&(to, _)| to != se);
            row.flat_map(move |(to, cell)| {
                let (before, after) = cell.split_once('/').unwrap();
                [(se, to, false, parse(before)), (se, to, true, parse(after))]
            })
        });
        for (se, to, with_gateway, want) in cells {
            let (mut sim, f) = federation232();
            let tz = &f.topology;
            let zone = |e: usize| tz.zone_of_edge(e);
            let lowest =
                |z: usize, not: [usize; 2]| tz.zone_edges(z).find(|e| !not.contains(e)).unwrap();
            let mut ctl = ShardedControlPlane::new(1);
            let home = lowest(zone(se), [se, to]);
            let gmid = ctl.create_fabric_meeting(&mut sim, &f, home);
            join(&mut ctl, &mut sim, &f, gmid, req(home, 1, false));
            join(&mut ctl, &mut sim, &f, gmid, req(se, 2, true));
            if with_gateway && zone(se) != zone(to) {
                let gateway = lowest(zone(to), [to, to]);
                join(&mut ctl, &mut sim, &f, gmid, req(gateway, 3, false));
            }
            let rec = ctl.meeting(gmid).expect("live");
            assert_eq!(
                ShardedControlPlane::route(tz, rec, se, to),
                want,
                "{se}→{to}"
            );
            // Price what you plumb: a receiver joining on `to` plumbs
            // the sender toward it, and the trunk and WAN accounts that
            // moves are the ones `price` would have booked beforehand.
            let accounts = |led: &FabricLoadLedger| -> Vec<u64> {
                let edges =
                    (0..f.edges()).flat_map(|e| [led.trunk_out_bps(e), led.trunk_in_bps(e)]);
                edges.chain([led.wan_bps(0)]).collect()
            };
            let mut priced = ctl.ledger().clone();
            priced.debit_branch(
                gmid,
                u32::MAX,
                to,
                ShardedControlPlane::books(tz, rec, se, to),
                false,
            );
            join(&mut ctl, &mut sim, &f, gmid, req(to, 4, false));
            let booked = accounts(ctl.ledger());
            assert_eq!(booked, accounts(&priced), "{se}→{to} books");
        }
    }

    #[test]
    fn zone_majority_rebalance_rehomes_across_the_wan() {
        let (mut sim, f) = federation22();
        let mut ctl = ShardedControlPlane::new(1);
        let gmid = ctl.create_fabric_meeting(&mut sim, &f, 0);
        let _a = join(&mut ctl, &mut sim, &f, gmid, req(0, 1, true));
        let _b = join(&mut ctl, &mut sim, &f, gmid, req(2, 2, false));
        let _c = join(&mut ctl, &mut sim, &f, gmid, req(2, 3, false));
        // 2 vs 1 across zones: inside the hysteresis band, no move.
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), None);
        let _d = join(&mut ctl, &mut sim, &f, gmid, req(3, 4, false));
        // Zone 1 now holds 3 vs 1: decisive — home crosses the WAN to
        // the zone's busiest edge (edge 2, ties broken low).
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), Some((0, 2)));
        assert_eq!(ctl.home_edge_of(gmid), Some(2));
        // Intra-zone drift alone never moves the home out of its zone:
        // zone 0 gaining an edge-1 member is not a zone majority.
        let _e = join(&mut ctl, &mut sim, &f, gmid, req(1, 5, false));
        assert_eq!(ctl.rebalance_fabric(&mut sim, &f, gmid), None);
    }
}
