//! The flow table: one ingress match per packet.
//!
//! A media packet's port rule hands the PRE a flow — `(mgid, l1_xid,
//! rid, l2_xid)`, the MGID picked by the packet's temporal tier — and
//! the egress match is keyed by the ingress port as well. So for a given
//! rule, the flow is a function of `(in_port, tier)`. The table keeps
//! one entry per media ingress port (a sender uplink or a trunk
//! ingress): the port's rule, and for each tier the flow's resolution —
//! whether the PRE walk succeeded, and where its replicas, each with its
//! egress spec already matched, lie in one arena. Tiers that name the
//! same tree share one resolution. One probe keyed by the destination
//! port therefore returns everything a packet needs, the way one ingress
//! lookup does in the hardware (§6.1). The control plane writes the
//! tables rarely (§6.1–6.3); packets read them all the time. Feedback
//! ports are not kept: their packets are few, and a meeting has a
//! feedback rule per (sender, receiver) pair, so keeping them would cost
//! room quadratic in its size.
//!
//! **Validity.** Every mutator of the PRE and of an exact-match table
//! redraws its table's write version from one process-wide counter
//! (`tables::WriteVersion`).
//!
//! * A port's entry holds while its rule stands.
//!   `ScallopDataPlane::install_port_rule`/`remove_port_rule` drop only
//!   their port's entry and tell the table the version they wrote. A
//!   port-rule table at any other version — written through its `pub`
//!   field, or swapped in whole — drops every entry.
//! * The resolutions depend on two more tables: the PRE and the egress
//!   table. The table remembers the two versions it resolved under; when
//!   either differs, every resolution is dropped (the rules stay).
//!
//! So no write can leave a stale rule or resolution behind.
//!
//! **Room.** The table never allocates on the packet path. Room for an
//! entry per installed media rule is reserved when the rule is installed
//! (a port without a rule gets no entry: that key comes from the wire),
//! and room for a replica per egress entry when the entry is installed
//! (the replicas of distinct flows name distinct entries). A flow whose
//! walk finds no receiver needs no replica room, so the egress table
//! alone does not bound the flows; the entries do. When a new entry or
//! replica does not fit — after a table swapped in whole, or once
//! replaced entries' replicas fill the arena — the entries or the
//! resolutions are dropped and the table starts over. The room is sizing
//! only: it can leave the table too small or too large, never wrong.
//!
//! Every key inserted is a port whose rule the agent installed, so the
//! map hashes with the fixed `tables::IdHasher`.

use crate::pre::Replica;
use crate::rules::{EgressSpec, PortRule, ReplicationAction};
use crate::tables::{IdMap, WriteVersion};
use std::ops::Range;

/// One fully-resolved replica: where the PRE fanned the packet, and
/// the egress rewrite it matched (`None` = no egress rule, which a
/// cold lookup charges as a `no_rule_drops` per packet — the replay
/// must too).
pub(crate) type ResolvedReplica = (Replica, Option<EgressSpec>);

/// A flow's resolution: whether the PRE walk succeeded (`false` = no
/// such group, and no replicas), and where its replicas lie in the
/// arena (see [`FlowTable::replica`]).
pub(crate) type Resolution = (bool, Range<usize>);

/// Where one flow's resolution lies in the replica arena.
#[derive(Debug, Clone, Copy)]
struct Flow {
    start: u32,
    len: u32,
    /// `false` = the walk failed (no such group); `len` is then 0.
    walked: bool,
}

/// Whether the table keeps `rule`: a media rule, which starts the flows.
fn kept(rule: &PortRule) -> bool {
    matches!(
        rule,
        PortRule::SenderUplink { .. } | PortRule::TrunkIngress { .. }
    )
}

/// What the table keeps for one media ingress port.
#[derive(Debug, Clone, Copy)]
struct PortEntry {
    rule: PortRule,
    /// Per temporal tier, the slot of the tree it names: the first tier
    /// naming the same tree.
    slot_of_tier: [u8; 3],
    /// The [`FlowTable::epoch`] `flows` were resolved in; the slots of
    /// an older epoch are empty.
    epoch: u64,
    flows: [Option<Flow>; 3],
}

impl PortEntry {
    fn new(rule: PortRule, epoch: u64) -> PortEntry {
        let slot_of_tier = match rule {
            PortRule::SenderUplink {
                action: ReplicationAction::Multicast { mgid_by_tier, .. },
                ..
            }
            | PortRule::TrunkIngress {
                action: ReplicationAction::Multicast { mgid_by_tier, .. },
            } => mgid_by_tier.map(|m| {
                let first = mgid_by_tier.iter().position(|&n| n == m);
                first.map_or(0, |t| t as u8)
            }),
            _ => [0; 3],
        };
        PortEntry {
            rule,
            slot_of_tier,
            epoch,
            flows: [None; 3],
        }
    }

    /// Resolutions held in `epoch`.
    fn live(&self, epoch: u64) -> usize {
        if self.epoch == epoch {
            self.flows.iter().flatten().count()
        } else {
            0
        }
    }
}

/// Every installed media rule matched since it was installed, each with
/// the flows it started since the PRE or the egress table was last
/// written.
#[derive(Debug, Default)]
pub(crate) struct FlowTable {
    /// Port-rule table version the entries were matched under.
    port_version: WriteVersion,
    /// `(PRE, egress)` write versions the resolutions were made under.
    versions: (WriteVersion, WriteVersion),
    /// Advanced whenever the resolutions are dropped.
    epoch: u64,
    ports: IdMap<u16, PortEntry>,
    /// Media rules installed: the entries room is reserved for.
    room: usize,
    /// Resolutions held: distinct trees over all entries.
    resolved: usize,
    /// Every flow's replicas, back to back.
    replicas: Vec<ResolvedReplica>,
    /// One PRE walk, before its replicas' egress specs are matched.
    walk: Vec<Replica>,
}

impl FlowTable {
    /// Drop `port`'s entry after its rule `old` was replaced by `new`
    /// (`None` for none), the port-rule table going from version `before`
    /// to `after`, and make room for an entry per installed media rule
    /// (control path). A table the flow table did not see at `before` was
    /// written elsewhere: every entry goes.
    pub(crate) fn port_rule_written(
        &mut self,
        port: u16,
        (before, after): (WriteVersion, WriteVersion),
        old: Option<&PortRule>,
        new: Option<&PortRule>,
    ) {
        if self.port_version != before {
            self.forget_ports();
        } else if let Some(entry) = self.ports.remove(&port) {
            self.resolved -= entry.live(self.epoch);
        }
        self.port_version = after;
        let count = |rule: Option<&PortRule>| usize::from(rule.is_some_and(kept));
        self.room = (self.room + count(new)).saturating_sub(count(old));
        self.ports
            .reserve(self.room.saturating_sub(self.ports.len()));
    }

    /// Room for `n` replicas, and for a walk of `n` (control path).
    pub(crate) fn reserve_replicas(&mut self, n: usize) {
        self.replicas.reserve(n.saturating_sub(self.replicas.len()));
        self.walk.reserve(n.saturating_sub(self.walk.len()));
    }

    /// Drop every entry unless they were matched under port-rule table
    /// version `ports`, and every resolution unless it was made under the
    /// `(PRE, egress)` versions `flows`.
    #[inline]
    pub(crate) fn validate(&mut self, ports: WriteVersion, flows: (WriteVersion, WriteVersion)) {
        if self.port_version != ports {
            self.port_version = ports;
            self.forget_ports();
        }
        if self.versions != flows {
            self.versions = flows;
            self.forget_flows();
        }
    }

    /// One probe: `port`'s rule, if it was matched since it was
    /// installed, and the resolution of `tier`'s flow if one is held
    /// (only ever for a rule that replicates through the PRE).
    #[inline]
    pub(crate) fn get(&self, port: u16, tier: usize) -> Option<(PortRule, Option<Resolution>)> {
        self.ports.get(&port).map(|e| {
            let flow = if e.epoch == self.epoch {
                e.flows[usize::from(e.slot_of_tier[tier])]
            } else {
                None
            };
            let resolution = flow.map(|f| {
                let start = f.start as usize;
                (f.walked, start..start + f.len as usize)
            });
            (e.rule, resolution)
        })
    }

    /// Keep `rule`, just matched in the tables, as `port`'s entry if it is
    /// a media rule. When the reserved room is full, every entry is dropped
    /// first; a table with no room at all keeps nothing.
    pub(crate) fn insert(&mut self, port: u16, rule: PortRule) {
        if !kept(&rule) {
            return;
        }
        if self.ports.len() == self.ports.capacity() {
            self.forget_ports();
            if self.ports.capacity() == 0 {
                return;
            }
        }
        self.ports.insert(port, PortEntry::new(rule, self.epoch));
    }

    /// Replica `i` of the arena.
    #[inline]
    pub(crate) fn replica(&self, i: usize) -> ResolvedReplica {
        self.replicas[i]
    }

    /// Resolve `port`'s flow for `tier` and keep the resolution in its
    /// entry: `walk` refills a buffer with the PRE's replicas (clearing
    /// it first) and says whether the walk succeeded, and `egress`
    /// matches each replica's egress rule. Returns what [`Self::get`]
    /// would. When the arena cannot take the replicas, every resolution
    /// is dropped first. A port without an entry keeps the resolution for
    /// this packet only.
    pub(crate) fn resolve(
        &mut self,
        port: u16,
        tier: usize,
        walk: impl FnOnce(&mut Vec<Replica>) -> bool,
        mut egress: impl FnMut(&Replica) -> Option<EgressSpec>,
    ) -> Resolution {
        let walked = walk(&mut self.walk);
        let n = self.walk.len();
        if self.replicas.len() + n > self.replicas.capacity() {
            self.forget_flows();
        }
        let start = self.replicas.len();
        self.replicas
            .extend(self.walk.iter().map(|rep| (*rep, egress(rep))));
        if let Some(entry) = self.ports.get_mut(&port) {
            if entry.epoch != self.epoch {
                entry.epoch = self.epoch;
                entry.flows = [None; 3];
            }
            let slot = &mut entry.flows[usize::from(entry.slot_of_tier[tier])];
            if slot.is_none() {
                self.resolved += 1;
            }
            *slot = Some(Flow {
                start: start as u32,
                len: n as u32,
                walked,
            });
        }
        (walked, start..start + n)
    }

    /// Resolutions held: one per distinct tree a kept port rule started a
    /// flow on.
    pub(crate) fn len(&self) -> usize {
        self.resolved
    }

    fn forget_ports(&mut self) {
        self.ports.clear();
        self.replicas.clear();
        self.resolved = 0;
    }

    fn forget_flows(&mut self) {
        self.epoch += 1;
        self.replicas.clear();
        self.resolved = 0;
    }
}
