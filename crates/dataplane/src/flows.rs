//! The flow table: each PRE flow resolved once per table version.
//!
//! A flow is what a media packet's port rule hands the PRE — `(mgid,
//! l1_xid, rid, l2_xid)` — plus the ingress port the egress match is
//! keyed by. Its resolution is a tree walk and one egress match per
//! replica, and it depends on two tables only: the PRE and the egress
//! table. The control plane writes them rarely (§6.1–6.3); packets read
//! them all the time. So the data plane keeps every flow it resolved,
//! with every replica's egress spec, and replays it for every later
//! packet of that flow — in the same call or any later one — until
//! either table is written.
//!
//! **Validity.** Every mutator of the PRE and of an exact-match table
//! redraws its table's write version from one process-wide counter
//! (`tables::WriteVersion`). The table remembers the two versions
//! it was filled under and empties itself when either differs, so no
//! write — through a data-plane method, the agent's direct PRE calls, or
//! a table swapped in whole through a `pub` field — can leave a stale
//! resolution behind.
//!
//! **Room.** The table never allocates on the packet path. Its room is
//! reserved when entries are installed: a flow for each distinct tree a
//! port rule's action names (one per tier at most; no other flow can
//! start at its port), and a replica for every egress entry (the
//! replicas of distinct flows name distinct entries). A flow whose walk
//! finds no receiver takes room too, so the egress table alone does not
//! bound the flows. When a new flow does not fit, the table is emptied
//! and starts over. A map sized up front instead would hold a page per
//! entry it ever saw, in every data plane, however few flows cross it.
//! The room is sizing only: a table swapped in whole through a `pub`
//! field leaves it too small or too large, never wrong.
//!
//! Every key inserted names agent-allocated ids — the ingress port is
//! one whose rule resolved a flow — so the map hashes with the fixed
//! `tables::IdHasher`.

use crate::pre::Replica;
use crate::rules::{EgressSpec, PortRule, ReplicationAction};
use crate::tables::{IdMap, WriteVersion};
use std::ops::Range;

/// A PRE flow identity: `(mgid, l1_xid, rid, l2_xid, in_port)`. The
/// ingress port rides along because the egress match is keyed by it —
/// two packets with the same key resolve to the *same* replica list
/// **and** the same egress specs, so the whole resolution is replayed.
pub(crate) type FlowKey = (u16, u16, u16, u16, u16);

/// One fully-resolved replica: where the PRE fanned the packet, and
/// the egress rewrite it matched (`None` = no egress rule, which a
/// cold lookup charges as a `no_rule_drops` per packet — the replay
/// must too).
pub(crate) type ResolvedReplica = (Replica, Option<EgressSpec>);

/// Flows `rule` can start: one per distinct tree its action maps a
/// temporal tier to, none when it does not replicate through the PRE.
fn flows_of(rule: &PortRule) -> usize {
    match rule {
        PortRule::SenderUplink { action, .. } | PortRule::TrunkIngress { action } => match action {
            ReplicationAction::Multicast {
                mgid_by_tier: [t0, t1, t2],
                ..
            } => 1 + usize::from(t1 != t0) + usize::from(t2 != t0 && t2 != t1),
            ReplicationAction::TwoParty { .. } => 0,
        },
        _ => 0,
    }
}

/// Where one flow's resolution lies in the replica arena.
#[derive(Debug, Clone, Copy)]
struct Flow {
    start: u32,
    len: u32,
    /// `false` = the walk failed (no such group); `len` is then 0.
    walked: bool,
}

/// Every flow resolved since the last write to the PRE or the egress
/// table.
#[derive(Debug, Default)]
pub(crate) struct FlowTable {
    /// `(PRE, egress)` write versions the entries were resolved under.
    versions: (WriteVersion, WriteVersion),
    flows: IdMap<FlowKey, Flow>,
    /// Flows the installed port rules can start ([`flows_of`]).
    flow_room: usize,
    /// Every flow's replicas, back to back.
    replicas: Vec<ResolvedReplica>,
    /// One PRE walk, before its replicas' egress specs are matched.
    walk: Vec<Replica>,
}

impl FlowTable {
    /// Count the flows a port rule replaced by another (`None` for an
    /// install or a removal) can start, and make room for them all
    /// (control path).
    pub(crate) fn port_rule_changed(&mut self, old: Option<&PortRule>, new: Option<&PortRule>) {
        self.flow_room =
            (self.flow_room + new.map_or(0, flows_of)).saturating_sub(old.map_or(0, flows_of));
        self.flows
            .reserve(self.flow_room.saturating_sub(self.flows.len()));
    }

    /// Room for `n` replicas, and for a walk of `n` (control path).
    pub(crate) fn reserve_replicas(&mut self, n: usize) {
        self.replicas.reserve(n.saturating_sub(self.replicas.len()));
        self.walk.reserve(n.saturating_sub(self.walk.len()));
    }

    /// Empty the table unless it was filled under `versions`.
    #[inline]
    pub(crate) fn validate(&mut self, versions: (WriteVersion, WriteVersion)) {
        if self.versions != versions {
            self.versions = versions;
            self.forget();
        }
    }

    /// `key`'s resolution: whether the walk succeeded, and where its
    /// replicas lie (see [`Self::replica`]).
    #[inline]
    pub(crate) fn get(&self, key: &FlowKey) -> Option<(bool, Range<usize>)> {
        self.flows.get(key).map(|f| {
            let start = f.start as usize;
            (f.walked, start..start + f.len as usize)
        })
    }

    /// Replica `i` of the arena.
    #[inline]
    pub(crate) fn replica(&self, i: usize) -> ResolvedReplica {
        self.replicas[i]
    }

    /// Resolve `key` and keep the resolution: `walk` refills a buffer
    /// with the PRE's replicas (clearing it first) and says whether the
    /// walk succeeded, and `egress` matches each replica's egress rule.
    /// Returns what [`Self::get`] would. When the reserved room cannot
    /// take the flow, the table is emptied first. A table with no room at
    /// all (no media port rule installed) keeps the resolution for this
    /// packet only.
    pub(crate) fn resolve(
        &mut self,
        key: FlowKey,
        walk: impl FnOnce(&mut Vec<Replica>) -> bool,
        mut egress: impl FnMut(&Replica) -> Option<EgressSpec>,
    ) -> (bool, Range<usize>) {
        let walked = walk(&mut self.walk);
        let n = self.walk.len();
        if self.flows.len() == self.flows.capacity()
            || self.replicas.len() + n > self.replicas.capacity()
        {
            self.forget();
        }
        let start = self.replicas.len();
        self.replicas
            .extend(self.walk.iter().map(|rep| (*rep, egress(rep))));
        if self.flows.len() < self.flows.capacity() {
            let flow = Flow {
                start: start as u32,
                len: n as u32,
                walked,
            };
            self.flows.insert(key, flow);
        }
        (walked, start..start + n)
    }

    /// Flows held.
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    fn forget(&mut self) {
        self.flows.clear();
        self.replicas.clear();
    }
}
