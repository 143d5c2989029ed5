//! Compiling a meeting's roster into data-plane state (§6.1): port
//! rules, egress specs and PRE trees. The delta compiler has four verbs,
//! each writing only what its change moves: graft a join, prune a leave
//! (in [`SwitchAgent::leave`]), re-aim one trunk branch, and amend one
//! receiver's decode-target change (an NRA ↔ RA-R flip grows or drops
//! the upper tier trees around the NRA tree). Whatever it cannot amend
//! falls back to [`SwitchAgent::rebuild_meeting`], the make-before-break
//! full rebuild, which picks each sender's REMB-gate holder once: O(S·R)
//! for S senders and R receivers, not O(S·R·P).
//!
//! The egress table is the agent's only record of its entries. A pair
//! names its own — tree, receiver rid, sender uplink — so
//! [`SwitchAgent::remove_pairs_egress`] removes them the way
//! `install_pair_egress` installed them, with no list kept beside the
//! table.
//!
//! The last section holds the writers: each operation on the port-rule,
//! egress and PRE tables is called from one function there.

use super::{
    cadence_for_dt, JoinGrant, MeetingId, Pair, ParticipantClass, ParticipantId, SwitchAgent,
    TreeDesign,
};
use scallop_dataplane::pre::{L1Node, PortList};
use scallop_dataplane::rules::{EgressKey, EgressSpec, PortRule, ReplicationAction};
use scallop_dataplane::switch::ScallopDataPlane;
use scallop_netsim::packet::HostAddr;
use std::ops::Range;

/// A half-occupied paired tree set: its MGIDs (one for NRA, three for
/// RA-R) and the slot XID still free.
#[derive(Debug, Clone)]
pub(super) struct HalfTree {
    pub(super) mgids: Vec<u16>,
    pub(super) free_slot: u8,
}

/// A pair's egress entries: video in tier trees 0..3, then audio ([`AUDIO`]) on tree 0.
const PAIR: Range<usize> = 0..4;
const AUDIO: usize = 3;

/// The trees a tiered design holds: NRA one, RA-R one per tier.
fn tier_trees(design: TreeDesign) -> Option<usize> {
    match design {
        TreeDesign::Nra => Some(1),
        TreeDesign::RaR => Some(3),
        _ => None,
    }
}

/// A tiered (NRA / RA-R) layout's tree per tier: NRA's one tree serves
/// all three.
fn tiers_of(trees: &[(u16, u8)]) -> [u16; 3] {
    match *trees {
        [(g, _)] => [g; 3],
        [(a, _), (b, _), (c, _)] => [a, b, c],
        _ => unreachable!("a tiered layout holds one tree or three"),
    }
}

impl SwitchAgent {
    /// The one compile rule for admitted participants: a batch of one
    /// is grafted onto the installed layout when it can be amended in
    /// place ([`Self::graft_tiers`]); anything else — a larger batch, or
    /// a layout that cannot take a graft — rebuilds the meeting once.
    pub(super) fn compile_joined(
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

    /// Recompute and install all data-plane state for a meeting
    /// (make-before-break: new trees first, rule swap, old trees last).
    pub(super) fn rebuild_meeting(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId) {
        let design = self.desired_design(meeting);
        let m = &self.meetings[&meeting];
        if m.design != design && m.configured {
            self.counters.migrations += 1;
        }

        // Release the old layout first. The swap is atomic at simulation
        // granularity (no packet is processed mid-rebuild), so this is
        // observationally equivalent to the real agent's make-before-break
        // migration (§6.1) while preventing the rebuild from re-acquiring
        // its own half-open trees.
        self.tear_down(dp, meeting);

        // Fabric segments use exclusive trees: the L1 XID budget is
        // spent on trunk pruning (TRUNK_XID) rather than on the m = 2
        // meeting-packing slots, so they never share trees with another
        // meeting. Purely local meetings keep the packed layout.
        let fabric = self.is_fabric_segment(meeting);

        // Nothing to forward (no sender, or no one left who receives —
        // e.g. a drained fabric segment holding only its trunk-egress
        // branch): keep the segment treeless instead of leaking a PRE
        // group per churned meeting.
        let participants = self.take_roster(meeting);
        if !self.forwards_anything(meeting) && design != TreeDesign::TwoParty {
            self.meetings.get_mut(&meeting).unwrap().design = design;
            self.roster = participants;
            return;
        }

        // The torn-down layout's emptied vectors take the new one.
        let m = self.meetings.get_mut(&meeting).unwrap();
        let mut new_trees = std::mem::take(&mut m.trees);
        match design {
            TreeDesign::TwoParty => self.install_two_party(dp, &participants),
            TreeDesign::Nra | TreeDesign::RaR => {
                let count = if design == TreeDesign::Nra { 1 } else { 3 };
                self.alloc_trees(dp, count, fabric, &mut new_trees);
                let (tiers, slot) = (tiers_of(&new_trees), new_trees[0].1);
                self.populate_tier_trees(dp, &participants, &tiers, slot, fabric);
            }
            TreeDesign::RaSr => {
                self.install_ra_sr(dp, &participants, &mut new_trees);
            }
        }
        self.roster = participants;

        let m = self.meetings.get_mut(&meeting).unwrap();
        m.design = design;
        m.trees = new_trees;
        m.configured = m.configured || m.participants.len() >= 2;
    }

    /// Remove a meeting's installed layout: every pair's egress entries,
    /// then its trees ([`Self::release_trees`]). The meeting keeps the
    /// emptied tree vector for its next layout.
    pub(super) fn tear_down(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId) {
        let m = &self.meetings[&meeting];
        self.remove_pairs_egress(dp, &m.participants, &m.participants, &m.trees, true);
        let m = self.meetings.get_mut(&meeting).expect("meeting exists");
        let mut trees = std::mem::take(&mut m.trees);
        self.release_trees(dp, &trees, meeting);
        trees.clear();
        self.meetings
            .get_mut(&meeting)
            .expect("meeting exists")
            .trees = trees;
    }

    /// The per-tier MGIDs a membership change can be amended into: a
    /// [`Self::tiered_layout`] whose design holds, and not a packed set
    /// whose partner slot sits unclaimed in the half pool (a rebuild would
    /// repack onto it). `None` means rebuild.
    pub(super) fn graft_tiers(&self, meeting: MeetingId) -> Option<[u16; 3]> {
        let (design, own) = self.tiered_layout(meeting)?;
        let m = &self.meetings[&meeting];
        (design == m.design && own.is_none()).then(|| tiers_of(&m.trees))
    }

    /// The design `meeting` needs and its packed set's own half-pool entry,
    /// when both it and the installed layout are tiered (NRA or RA-R, trees
    /// installed; not two-party, treeless or RA-SR, whose tree sets
    /// re-chunk) and fabric-ness matches the slot (exclusive or packed).
    fn tiered_layout(&self, meeting: MeetingId) -> Option<(TreeDesign, Option<usize>)> {
        let m = self.meetings.get(&meeting)?;
        let slot = m.trees.first().map(|&(_, slot)| slot)?;
        let design = self.desired_design(meeting);
        tier_trees(design)?;
        let fits = m.trees.len() == tier_trees(m.design)?
            && self.is_fabric_segment(meeting) == (slot == 0);
        let mgids = || m.trees.iter().map(|&(g, _)| g);
        let own = || (self.half_trees.iter()).position(|h| h.mgids.iter().copied().eq(mgids()));
        // Only a packed set is ever in the half pool.
        fits.then(|| (design, (slot != 0).then(own).flatten()))
    }

    /// Whether a meeting has a sender and a receiver: a rebuild keeps a
    /// meeting without either treeless.
    pub(super) fn forwards_anything(&self, meeting: MeetingId) -> bool {
        let m = &self.meetings[&meeting];
        m.participants.iter().any(|p| self.pinfo[p].sends)
            && m.participants.iter().any(|&p| self.receives(p))
    }

    /// Where receiver `r`'s decode-target change can be amended: where a
    /// rebuild installs the same tree set. A configured tiered layout, a
    /// local `r`, a sender and a receiver, and exclusive trees or packed
    /// ones a rebuild keeps: it destroys a set whose own half-pool entry
    /// exists for another entry of the size it needs, and on a flip leaves
    /// a set shared with a live partner to it. `None` means rebuild.
    fn dt_amend_design(
        &self,
        meeting: MeetingId,
        r: ParticipantId,
    ) -> Option<(TreeDesign, Option<usize>)> {
        let m = &self.meetings[&meeting];
        if !m.configured || self.pinfo[&r].class != ParticipantClass::Local {
            return None;
        }
        let (design, own) = self.tiered_layout(meeting)?;
        let mut rivals = (self.half_trees.iter().enumerate()).filter(|&(i, _)| Some(i) != own);
        let repacks = match own {
            None => design != m.design && m.trees[0].1 != 0,
            Some(_) => rivals.any(|(_, h)| Some(h.mgids.len()) == tier_trees(design)),
        };
        (!repacks && self.forwards_anything(meeting)).then_some((design, own))
    }

    /// Amend receiver `r`'s decode-target change from `old` in place, as a
    /// rebuild would leave it ([`Self::dt_amend_design`]), or return
    /// `false`. A flip keeps the NRA tree as T0 and grows or drops T1/T2;
    /// otherwise the trees whose membership `r` changes are re-laid in
    /// roster order. Branches first, then `r`'s entries and cadences, then
    /// the REMB gates, all at one instant.
    pub(super) fn try_amend_dt(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        r: ParticipantId,
        old: u8,
    ) -> bool {
        let Some((design, own)) = self.dt_amend_design(meeting, r) else {
            return false;
        };
        self.counters.dt_deltas += 1;
        let fabric = self.is_fabric_segment(meeting);
        let participants = self.take_roster(meeting);
        let m = self.meetings.get_mut(&meeting).unwrap();
        let (was, (_, slot), new) = (m.design, m.trees[0], self.pinfo[&r].dt);
        let mut trees = std::mem::take(&mut m.trees);
        // The trees whose membership changes: a grow's new T1 and T2, none
        // after a drop, else those between the two targets.
        let (lo, hi) = (usize::from(old.min(new)), usize::from(old.max(new)));
        let relaid = match (was, design) {
            (TreeDesign::RaR, TreeDesign::RaR) => lo + 1..hi + 1,
            (_, TreeDesign::RaR) => 1..3,
            _ => 0..0,
        };
        if design == TreeDesign::Nra {
            self.remove_pairs_egress(dp, &participants, &participants, &trees[1..], false);
        }
        // A flip keeps the NRA tree as T0 and the slot; the own half-pool
        // entry takes the new MGIDs, at the pool's end, as a rebuild's.
        let count = tier_trees(design).expect("tiered");
        while trees.len() < count {
            trees.push((self.new_tree(dp), slot));
        }
        for (mgid, _) in trees.drain(count..) {
            self.drop_tree(dp, mgid);
        }
        if let Some(i) = own {
            let mut half = self.half_trees.remove(i);
            half.mgids.clear();
            half.mgids.extend(trees.iter().map(|&(g, _)| g));
            self.half_trees.push(half);
        }
        Self::remove_branches(dp, &trees[relaid.clone()], &participants);
        let tiers = tiers_of(&trees);
        self.meetings.get_mut(&meeting).unwrap().trees = trees;
        for &q in &participants {
            if self.receives(q) {
                self.add_receiver_branches(dp, q, &tiers, relaid.clone(), slot, fabric);
            }
        }
        if was != design {
            self.counters.migrations += 1;
            // A grow gives every other pair its video entries in T1 and T2.
            let grown = (design == TreeDesign::RaR).then_some(&participants[..]);
            for &s in &participants {
                if !self.pinfo[&s].sends {
                    continue;
                }
                let l1_xid = self.tiered_uplink_xid(s, slot, fabric);
                self.install_sender_uplinks(dp, s, &tiers, l1_xid);
                for &q in grown.unwrap_or_default() {
                    if q != r && self.pairs.contains_key(&(s, q)) {
                        self.install_pair_egress(dp, s, q, &tiers, 1..3);
                    }
                }
            }
        }
        // `r`'s video entries and cadences against every sender, audio kept; a pair's
        // first adaptation puts its new tracker slot in its feedback rules, gate kept.
        let trees = &self.meetings[&meeting].trees;
        self.remove_pairs_egress(dp, &participants, &[r], trees, false);
        for &s in &participants {
            let Some(&Pair { video, tracker, .. }) = self.pairs.get(&(s, r)) else {
                continue;
            };
            self.install_pair_egress(dp, s, r, &tiers, 0..AUDIO);
            if let Some(&PortRule::ReceiverFeedback { remb_allowed, .. }) =
                dp.port_rules.peek(&video)
            {
                if tracker.is_none() && self.pairs[&(s, r)].tracker.is_some() {
                    self.install_feedback_rules(dp, s, r, remb_allowed);
                }
            }
        }
        self.roster = participants;
        self.meetings.get_mut(&meeting).unwrap().design = design;
        // Media moves EWMAs between ticks; a rebuild would recompute
        // every gate from them.
        self.refresh_feedback_gates(dp, meeting);
        true
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
        let participants = self.take_roster(meeting);

        if self.receives(pid) {
            // A fresh joiner's dt is 2, so an RA-R graft lands in all
            // three tiers.
            self.add_receiver_branches(dp, pid, &tiers, 0..3, slot, fabric);
            // Every existing sender it has a pair with reaches it.
            for &s in &participants {
                if self.pairs.contains_key(&(s, pid)) {
                    self.install_pair_egress(dp, s, pid, &tiers, PAIR);
                }
            }
        }
        if self.pinfo[&pid].sends {
            // The new sender's uplink rules, plus branches toward every
            // existing receiver.
            let l1_xid = self.tiered_uplink_xid(pid, slot, fabric);
            self.install_sender_uplinks(dp, pid, &tiers, l1_xid);
            for &r in &participants {
                if self.pairs.contains_key(&(pid, r)) {
                    self.install_pair_egress(dp, pid, r, &tiers, PAIR);
                }
            }
        }
        self.roster = participants;
        let m = self.meetings.get_mut(&meeting).unwrap();
        m.configured = m.configured || m.participants.len() >= 2;
        // The join may displace a best-downlink selection (a fresh
        // receiver's unknown EWMA scores as best, §5.3), and the new
        // pairs need their feedback rules installed: re-run the filter,
        // which touches only the rules whose gate is missing or wrong.
        self.refresh_feedback_gates(dp, meeting);
        true
    }

    /// Re-aim (or light up) the single (sender → trunk) egress branch a
    /// `set_trunk_dst` changes, leaving the rest of the compiled
    /// meeting untouched. Returns `false` when the caller must fall
    /// back to a full rebuild.
    pub(super) fn try_point_trunk(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        trunk: ParticipantId,
        sender: ParticipantId,
    ) -> bool {
        let Some(tiers) = self.graft_tiers(meeting) else {
            return false;
        };
        self.install_pair_egress(dp, sender, trunk, &tiers, PAIR);
        true
    }

    /// Install the two-party fast path (§6.1): direct unicast, no trees.
    fn install_two_party(&mut self, dp: &mut ScallopDataPlane, participants: &[ParticipantId]) {
        for &s in participants {
            let Some(r) = participants.iter().copied().find(|&r| r != s) else {
                // Lone participant: nothing to forward yet.
                let p = &self.pinfo[&s];
                Self::remove_rule(dp, p.video_up);
                Self::remove_rule(dp, p.audio_up);
                continue;
            };
            let Some(&Pair { video, audio, .. }) = self.pairs.get(&(s, r)) else {
                continue;
            };
            let dst = self.pinfo[&r].addr;
            let unicast = |port| ReplicationAction::TwoParty {
                egress: EgressSpec {
                    src: HostAddr::new(self.sfu_ip, port),
                    dst,
                    max_temporal: 2,
                    rewrite_index: None,
                },
            };
            self.install_uplinks(dp, s, unicast(video), unicast(audio));
            // Unicast renumbers nothing: a slot left from a tiered layout
            // would shift the receiver's NACKs by an offset its media no
            // longer carries.
            if let Some(idx) = self.pairs.get_mut(&(s, r)).and_then(|p| p.tracker.take()) {
                self.release_tracker(dp, idx);
            }
            let open = self.remb_gate_holder(s, participants) == Some(r);
            self.install_feedback_rules(dp, s, r, open);
        }
    }

    /// Populate (possibly shared) tier trees for NRA/RA-R and install all
    /// sender rules, egress specs, and feedback rules.
    fn populate_tier_trees(
        &mut self,
        dp: &mut ScallopDataPlane,
        participants: &[ParticipantId],
        tiers: &[u16; 3],
        slot: u8,
        fabric: bool,
    ) {
        for &r in participants {
            if self.receives(r) {
                self.add_receiver_branches(dp, r, tiers, 0..3, slot, fabric);
            }
        }
        // Sender rules + egress specs.
        for &s in participants {
            if !self.pinfo[&s].sends {
                continue;
            }
            let l1_xid = self.tiered_uplink_xid(s, slot, fabric);
            self.install_sender_uplinks(dp, s, tiers, l1_xid);
            let holder = self.remb_gate_holder(s, participants);
            for &r in participants {
                if self.pairs.contains_key(&(s, r)) {
                    self.install_pair(dp, s, r, tiers, holder);
                }
            }
        }
    }

    /// Receiver `r`'s L1 branches in the tier trees of `range`: one per
    /// tier tree up to its decode target, NRA's one tree once. A
    /// trunk-egress branch sits in every tier — the trunk always carries full
    /// quality; thinning is the remote edge's job — and carries its
    /// tier's XID ([`TRUNK_XID`](super::TRUNK_XID) for intra-zone
    /// branches, [`WAN_XID`](super::WAN_XID) for a zone gateway's
    /// cross-WAN ones), which remote senders prune, so fabric media is
    /// never re-trunked.
    fn add_receiver_branches(
        &self,
        dp: &mut ScallopDataPlane,
        r: ParticipantId,
        tiers: &[u16; 3],
        range: Range<usize>,
        slot: u8,
        fabric: bool,
    ) {
        let p = &self.pinfo[&r];
        let is_trunk = p.class == ParticipantClass::TrunkEgress;
        let dt = if is_trunk { 2 } else { p.dt };
        let (xid, prune_enabled) = if is_trunk {
            (p.fabric_xid, true)
        } else if fabric {
            // Exclusive tree: no packing slot to prune.
            (0, false)
        } else {
            (slot as u16, true)
        };
        for t in range {
            let mgid = tiers[t];
            if (t as u8) <= dt && !tiers[..t].contains(&mgid) {
                Self::add_branch(dp, mgid, r, xid, prune_enabled);
            }
        }
    }

    /// The L1 XID sender `s`'s media prunes in a tiered layout.
    fn tiered_uplink_xid(&self, s: ParticipantId, slot: u8, fabric: bool) -> u16 {
        match self.pinfo[&s].class {
            // Media that already crossed the fabric prunes every
            // branch of the tier it arrived on (trunk or WAN).
            ParticipantClass::RemoteSender => self.pinfo[&s].fabric_xid,
            _ if fabric => 0,
            _ if slot == 1 => 2,
            _ => 1,
        }
    }

    /// Install sender `s`'s uplink port rules: replication over `tiers`,
    /// pruning the branches that carry `l1_xid`.
    fn install_sender_uplinks(
        &self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        tiers: &[u16; 3],
        l1_xid: u16,
    ) {
        let action = ReplicationAction::Multicast {
            mgid_by_tier: *tiers,
            l1_xid,
            rid: s,
            l2_xid: s,
        };
        self.install_uplinks(dp, s, action, action);
    }

    /// Sender `s`'s two uplink rules: a remote sender's trunk-ingress
    /// ports replicate as media arrives; a local sender's uplinks also
    /// punt its video's extended dependency descriptors.
    fn install_uplinks(
        &self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        video: ReplicationAction,
        audio: ReplicationAction,
    ) {
        let p = &self.pinfo[&s];
        let remote = p.class == ParticipantClass::RemoteSender;
        let rule = |action, punt_extended_dd| {
            if remote {
                PortRule::TrunkIngress { action }
            } else {
                PortRule::SenderUplink {
                    action,
                    punt_extended_dd,
                }
            }
        };
        Self::install_rule(dp, p.video_up, rule(video, true));
        Self::install_rule(dp, p.audio_up, rule(audio, false));
    }

    /// RA-SR layout: for each group of two senders, q = 3 tier trees;
    /// within a tree, sender 1's receiver nodes carry XID 1 and sender
    /// 2's XID 2 (§6.1).
    fn install_ra_sr(
        &mut self,
        dp: &mut ScallopDataPlane,
        participants: &[ParticipantId],
        new_trees: &mut Vec<(u16, u8)>,
    ) {
        let senders: Vec<ParticipantId> = participants
            .iter()
            .copied()
            .filter(|p| self.pinfo[p].sends)
            .collect();
        for pair in senders.chunks(2) {
            let tiers = [self.new_tree(dp), self.new_tree(dp), self.new_tree(dp)];
            new_trees.extend(tiers.map(|g| (g, 0))); // exclusive trees
            for (i, &s) in pair.iter().enumerate() {
                let sender_xid = (i + 1) as u16;
                let holder = self.remb_gate_holder(s, participants);
                // Nodes: receivers of s at each tier. RA-SR trees are
                // per-sender sets already, so trunk-egress branches are
                // simply omitted from remote senders' sets.
                for &r in participants {
                    if !self.pairs.contains_key(&(s, r)) {
                        continue;
                    }
                    let r_trunk = self.pinfo[&r].class == ParticipantClass::TrunkEgress;
                    let dt = if r_trunk { 2 } else { self.effective_dt(s, r) };
                    for (t, &mgid) in tiers.iter().enumerate() {
                        if (t as u8) <= dt {
                            Self::add_branch(dp, mgid, r, sender_xid, true);
                        }
                    }
                    self.install_pair(dp, s, r, &tiers, holder);
                }
                self.install_sender_uplinks(dp, s, &tiers, 3 - sender_xid);
            }
        }
    }

    /// Compile the (sender → receiver) pair: its egress specs and, for a
    /// local receiver, its feedback rules, whose REMB gate is open when
    /// `r` is `holder`, the sender's [`Self::remb_gate_holder`].
    fn install_pair(
        &mut self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        r: ParticipantId,
        tiers: &[u16; 3],
        holder: Option<ParticipantId>,
    ) {
        self.install_pair_egress(dp, s, r, tiers, PAIR);
        if self.pinfo[&r].class != ParticipantClass::TrunkEgress {
            self.install_feedback_rules(dp, s, r, holder == Some(r));
        }
    }

    /// Install the egress specs of (sender → receiver) that `entries`
    /// picks ([`PAIR`]): video up to the receiver's decode target,
    /// rewritten by a tracker slot once the pair is adapted, and audio on
    /// the first tree. A trunk-egress branch gets one full-quality,
    /// unrewritten copy toward the remote switch's trunk-ingress ports in
    /// every tier (the trunk never thins) — and nothing until the
    /// controller has granted the remote-sender entry on the far edge:
    /// the branch stays dark until `set_trunk_dst` aims it.
    fn install_pair_egress(
        &mut self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        r: ParticipantId,
        tiers: &[u16; 3],
        entries: Range<usize>,
    ) {
        let Pair {
            video,
            audio,
            tracker,
            trunk_dst,
            ..
        } = self.pairs[&(s, r)];
        let (dt, video_dst, audio_dst, rewrite_index) =
            if self.pinfo[&r].class == ParticipantClass::TrunkEgress {
                let Some((video, audio)) = trunk_dst else {
                    return;
                };
                (2, video, audio, None)
            } else {
                let dt = self.effective_dt(s, r);
                let adapted = dt < 2 || tracker.is_some();
                let tracker = adapted.then(|| self.tracker_slot(dp, s, r, cadence_for_dt(dt)));
                let addr = self.pinfo[&r].addr;
                (dt, addr, addr, tracker)
            };
        let (s_video_up, s_audio_up) = (self.pinfo[&s].video_up, self.pinfo[&s].audio_up);
        let video_spec = EgressSpec {
            src: HostAddr::new(self.sfu_ip, video),
            dst: video_dst,
            max_temporal: dt,
            rewrite_index,
        };
        let audio_spec = EgressSpec {
            src: HostAddr::new(self.sfu_ip, audio),
            dst: audio_dst,
            max_temporal: 2,
            rewrite_index: None,
        };
        for (t, &mgid) in tiers.iter().enumerate() {
            if tiers[..t].contains(&mgid) {
                continue; // NRA: one tree, one entry
            }
            let key = |in_port| EgressKey {
                mgid,
                rid: r,
                in_port,
            };
            if (t as u8) <= dt && entries.contains(&t) {
                Self::install_egress(dp, key(s_video_up), video_spec);
            }
            if t == 0 && entries.contains(&AUDIO) {
                Self::install_egress(dp, key(s_audio_up), audio_spec);
            }
        }
    }

    /// The inverse of [`Self::install_pair_egress`]: remove the video
    /// entries in `trees` of every pair of `senders` × `receivers`, and
    /// its audio entry when `audio` is set. A pair names its entries —
    /// the tree, the receiver's rid, the sender's uplink — so nothing
    /// needs to remember them; keys the table does not hold are skipped.
    pub(super) fn remove_pairs_egress(
        &self,
        dp: &mut ScallopDataPlane,
        senders: &[ParticipantId],
        receivers: &[ParticipantId],
        trees: &[(u16, u8)],
        audio: bool,
    ) {
        for &s in senders {
            let Some(p) = self.pinfo.get(&s).filter(|p| p.sends) else {
                continue;
            };
            let uplinks = [p.video_up, p.audio_up];
            for &rid in receivers
                .iter()
                .filter(|&&r| self.pairs.contains_key(&(s, r)))
            {
                for &(mgid, _) in trees {
                    for &in_port in &uplinks[..1 + usize::from(audio)] {
                        Self::remove_egress(dp, EgressKey { mgid, rid, in_port });
                    }
                }
            }
        }
    }

    /// `count` trees for a tiered layout, appended to `trees` with the
    /// slot XID this meeting holds in them. A fabric segment takes
    /// exclusive trees (slot 0): their L1 XIDs carry trunk pruning, not
    /// packing slots. A local meeting takes the free half of a tree set
    /// another meeting left open (m = 2 packing, §6.1/Fig. 11c), or
    /// opens one in slot 1 and leaves slot 2 to the next.
    fn alloc_trees(
        &mut self,
        dp: &mut ScallopDataPlane,
        count: usize,
        fabric: bool,
        trees: &mut Vec<(u16, u8)>,
    ) {
        let half = self.half_trees.iter().rposition(|h| h.mgids.len() == count);
        if let (false, Some(i)) = (fabric, half) {
            let half = self.half_trees.remove(i);
            trees.extend(half.mgids.iter().map(|&g| (g, half.free_slot)));
            return;
        }
        let (first, slot) = (trees.len(), if fabric { 0 } else { 1 });
        for _ in 0..count {
            let mgid = self.new_tree(dp);
            trees.push((mgid, slot));
        }
        if !fabric {
            self.half_trees.push(HalfTree {
                mgids: trees[first..].iter().map(|&(g, _)| g).collect(),
                free_slot: 2,
            });
        }
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
        Self::remove_branches(dp, trees, &self.meetings[&meeting].participants);
        let mut shared = Vec::new();
        let mut my_slot = 0;
        for &(mgid, slot) in trees {
            if slot == 0 {
                self.drop_tree(dp, mgid);
            } else {
                shared.push(mgid);
                my_slot = slot;
            }
        }
        if shared.is_empty() {
            return;
        }
        // If the partner slot is still waiting in the half pool, the
        // trees are now empty: destroy them and drop the pool entry.
        // Otherwise the partner meeting is live: return our slot to the
        // pool.
        match self.half_trees.iter().position(|h| h.mgids == shared) {
            Some(i) => {
                self.half_trees.remove(i);
                for mgid in shared {
                    self.drop_tree(dp, mgid);
                }
            }
            None => self.half_trees.push(HalfTree {
                mgids: shared,
                free_slot: my_slot,
            }),
        }
    }

    // The writers. Every port-rule, egress and PRE table operation the
    // agent performs is called from one of these, and from nowhere else.

    /// Install (or overwrite) the rule on `port`.
    pub(super) fn install_rule(dp: &mut ScallopDataPlane, port: u16, rule: PortRule) {
        dp.install_port_rule(port, rule)
            .expect("port rule capacity");
    }

    /// Remove the rule on `port`, if any.
    pub(super) fn remove_rule(dp: &mut ScallopDataPlane, port: u16) {
        dp.remove_port_rule(port);
    }

    /// Install (or overwrite) the egress entry under `key`.
    fn install_egress(dp: &mut ScallopDataPlane, key: EgressKey, spec: EgressSpec) {
        dp.install_egress(key, spec).expect("egress capacity");
    }

    /// Remove the egress entry under `key`, if the table holds one.
    fn remove_egress(dp: &mut ScallopDataPlane, key: EgressKey) {
        if dp.egress.peek(&key).is_some() {
            dp.remove_egress(key);
        }
    }

    /// A new, empty tree under the lowest free MGID.
    fn new_tree(&mut self, dp: &mut ScallopDataPlane) -> u16 {
        let mgid = self.mgids.take();
        dp.create_tree(mgid).expect("PRE group budget exhausted");
        mgid
    }

    /// Destroy a tree and free its MGID.
    fn drop_tree(&mut self, dp: &mut ScallopDataPlane, mgid: u16) {
        let _ = dp.pre.destroy_group(mgid);
        self.mgids.give(mgid);
    }

    /// Add receiver `rid`'s L1 branch to tree `mgid`.
    fn add_branch(dp: &mut ScallopDataPlane, mgid: u16, rid: u16, xid: u16, prune_enabled: bool) {
        let node = L1Node {
            rid,
            xid,
            prune_enabled,
            ports: PortList::One(rid),
        };
        dp.pre.add_node(mgid, node).expect("L1 node budget");
    }

    /// Remove every branch of `rids` from every tree of `trees`.
    pub(super) fn remove_branches(
        dp: &mut ScallopDataPlane,
        trees: &[(u16, u8)],
        rids: &[ParticipantId],
    ) {
        for &(mgid, _) in trees {
            for &rid in rids {
                let _ = dp.pre.remove_node(mgid, rid);
            }
        }
    }
}
