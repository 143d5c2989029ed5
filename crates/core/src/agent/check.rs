//! The per-edge half of the fabric check ([`crate::fabric::Fabric::check`]):
//! the ownership audit and the installed and rebuilt canonical states.

use super::alloc::PortUse;
use super::{MeetingId, ParticipantClass, ParticipantId, SwitchAgent, TreeDesign};
use scallop_dataplane::pre::L1Node;
use scallop_dataplane::rules::{EgressSpec, PortRule, ReplicationAction};
use scallop_dataplane::switch::ScallopDataPlane;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// A tree named by its owner: `(meeting, index in its trees)`.
type TreeName = (MeetingId, usize);

/// One entry of [`SwitchAgent::canonical_state`]. MGIDs appear only as
/// [`TreeName`]s (a multicast action's `mgid_by_tier` holds tree
/// indices of its sender's meeting), and packed-tree slot XIDs as seen
/// from their owner: 1 for its own slot, 2 for its partner's.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Line {
    Port(u16, PortRule),
    Egress(TreeName, u16, u16, EgressSpec),
    Node(TreeName, L1Node),
    Meeting {
        id: MeetingId,
        design: TreeDesign,
        participants: Vec<ParticipantId>,
        /// Per tree: 0 exclusive, 1 packed.
        packed: Vec<u8>,
    },
}

impl SwitchAgent {
    /// The canonical state of a copy of this switch with every meeting
    /// rebuilt from scratch (`rebuild_meeting`), once the switch passes
    /// its ownership audit: orphans survive a rebuild. REMB gates refresh
    /// on the agent tick, so while media flows a rebuild's gates are
    /// fresher than the installed ones: compare on media-free histories.
    pub(crate) fn rebuilt_state(&self, dp: &ScallopDataPlane) -> Result<Vec<Line>, String> {
        self.check_ownership(dp)?;
        let (mut agent, mut copy) = self.copy_with(dp);
        for &meeting in self.meetings.keys() {
            agent.rebuild_meeting(&mut copy, meeting);
        }
        agent.canonical_state(&copy)
    }

    /// A copy of this agent and of `dp`'s compiled tables to compile on
    /// the side, with zeroed counters. The compile writes cadences but
    /// never reads tracker state, so a fresh tracker, which costs nothing
    /// until a stream is initialised, stands in for a copy of it.
    pub(super) fn copy_with(&self, dp: &ScallopDataPlane) -> (SwitchAgent, ScallopDataPlane) {
        let mut copy = ScallopDataPlane::new(dp.tracker.mode());
        copy.port_rules = dp.port_rules.clone();
        copy.egress = dp.egress.clone();
        copy.pre = dp.pre.clone();
        (self.clone(), copy)
    }

    /// The ownership audit, read-only; `Err` names the first violation.
    /// Every installed port rule has a `port_use` entry, every tracked
    /// participant one L2 XID, every installed egress entry is a pair of
    /// one meeting (its `in_port` is the uplink of a sending co-member of
    /// its rid; [`Self::canonical_state`] checks its tree), every PRE
    /// group is in some meeting's trees or the half pool with no slot
    /// claimed twice. A pair exists for exactly the co-members whose
    /// media [`flows`](Self::flows), and both its ports are labelled with
    /// it. Every port, pid, MGID and
    /// tracker slot in use was drawn from its own pool and is not also
    /// free, and every id a pool has drawn is held once or free once: none
    /// leaked, none freed twice.
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
        for (key, _) in dp.egress.iter() {
            let sender = match self.port_use.get(&key.in_port) {
                Some(&(PortUse::VideoUplink(s) | PortUse::AudioUplink(s))) if s != key.rid => {
                    self.pinfo.get(&s)
                }
                _ => None,
            };
            let pair = (sender.zip(self.pinfo.get(&key.rid)))
                .is_some_and(|(s, r)| s.sends && s.meeting == r.meeting);
            if !pair {
                return Err(format!("egress {key:?} is no pair of one meeting"));
            }
        }
        // The slots each tree is held in, by meetings and the half pool.
        let mut holders: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
        let halves = self.half_trees.iter();
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
        if let Some((mgid, _)) = dp.pre.groups().find(|(g, _)| !holders.contains_key(g)) {
            return Err(format!(
                "PRE group {mgid} is in no meeting's trees or half pool"
            ));
        }
        self.check_pairs()?;
        let slots = || self.pairs.values().filter_map(|p| p.tracker);
        let trackers: BTreeSet<u16> = slots().collect();
        let ports = &self.port_use;
        let trunk = |p: &&u16| self.pinfo[*p].class == ParticipantClass::TrunkEgress;
        let (pids, tracked) = (self.pinfo.keys(), |p: &u16| self.pinfo.contains_key(p));
        self.ports
            .audit(ports.keys().copied(), |p| ports.contains_key(p))?;
        self.pids
            .audit(pids.clone().filter(|p| !trunk(p)).copied(), tracked)?;
        self.trunk_pids
            .audit(pids.filter(trunk).copied(), tracked)?;
        self.mgids
            .audit(holders.keys().copied(), |g| holders.contains_key(g))?;
        self.trackers.audit(slots(), |t| trackers.contains(t))
    }

    /// Every pair names two tracked co-members whose media flows, every
    /// two such have one, its two ports are labelled with it, and no
    /// other port is labelled with a pair.
    fn check_pairs(&self) -> Result<(), String> {
        let meeting = |p: &ParticipantId| self.pinfo.get(p).map(|p| p.meeting);
        let stream =
            |&&(s, r): &&_| meeting(&s).is_some_and(|m| meeting(&r) == Some(m) && self.flows(s, r));
        if let Some((s, r)) = self.pairs.keys().filter(|k| !stream(k)).min() {
            return Err(format!("pair {s} → {r} is no stream of one meeting"));
        }
        for m in self.meetings.values() {
            for &sender in &m.participants {
                for &receiver in m.participants.iter().filter(|&&r| self.flows(sender, r)) {
                    let (s, r) = (sender, receiver);
                    let missing = || format!("no pair carries {s} → {r}");
                    let p = self.pairs.get(&(s, r)).ok_or_else(missing)?;
                    let labels = [
                        PortUse::PairVideo { sender, receiver },
                        PortUse::PairAudio { sender, receiver },
                    ];
                    for (port, label) in [p.video, p.audio].into_iter().zip(labels) {
                        let found = self.port_use.get(&port);
                        if found != Some(&label) {
                            return Err(format!(
                                "port {port} of pair {s} → {r} is labelled {found:?}"
                            ));
                        }
                    }
                }
            }
        }
        let pair_port = |u: &&_| matches!(u, PortUse::PairVideo { .. } | PortUse::PairAudio { .. });
        let (labels, pairs) = (
            self.port_use.values().filter(pair_port).count(),
            self.pairs.len(),
        );
        if labels != 2 * pairs {
            return Err(format!("{labels} ports labelled for {pairs} pairs"));
        }
        Ok(())
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
    /// design and tree bookkeeping, with every MGID named by its owner
    /// ([`Line`]) and every section sorted after renaming, so neither
    /// installation order nor MGID allocation is visible. (L2 XIDs are
    /// set at admission, never compiled.) `Err` when an entry names a
    /// tree its meeting does not own.
    pub(crate) fn canonical_state(&self, dp: &ScallopDataPlane) -> Result<Vec<Line>, String> {
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
        for (mgid, group) in dp.pre.groups() {
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
        nodes.sort_by_cached_key(|(t, n)| {
            let ports = n.ports.as_slice().to_vec();
            (*t, n.rid, n.xid, n.prune_enabled, ports)
        });
        lines.extend(nodes.into_iter().map(|(t, n)| Line::Node(t, n)));
        for (&id, m) in &self.meetings {
            lines.push(Line::Meeting {
                id,
                design: m.design,
                participants: m.participants.clone(),
                packed: m.trees.iter().map(|&(_, slot)| slot.min(1)).collect(),
            });
        }
        Ok(lines)
    }
}

/// The first line at which `installed` and `rebuilt` differ, named as a
/// line of `part`; a missing line reads `None`.
pub(crate) fn first_difference<T: PartialEq + Debug>(
    part: &str,
    installed: &[T],
    rebuilt: &[T],
) -> Result<(), String> {
    match (0..installed.len().max(rebuilt.len())).find(|&i| installed.get(i) != rebuilt.get(i)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{part} differ from a rebuild at line {i}: installed {:?}, rebuilt {:?}",
            installed.get(i),
            rebuilt.get(i)
        )),
    }
}
