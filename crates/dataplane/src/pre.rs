//! Packet Replication Engine (PRE) — §6.3, Fig. 13.
//!
//! The PRE is a hierarchical replication block: a packet is assigned a
//! multicast group id (MGID); the group's level-1 nodes each carry a
//! replication id (RID) and an optional L1 exclusion id (XID); each L1
//! node fans out to egress ports, prunable per packet through an L2 XID
//! that names a port set. The model enforces Tofino's documented budgets:
//!
//! * 64 K multicast groups,
//! * 16.8 M (2²⁴) L1 nodes total across the PRE,
//! * 64 K distinct RIDs usable per tree,
//!
//! and implements both pruning mechanisms exactly as §6.3 describes:
//! an L1 node is skipped when `packet.l1_xid == node.xid` (used to keep
//! meeting *m*'s packets away from meeting *m+1*'s participants when two
//! meetings share a tree), and a port is skipped when `packet.rid ==
//! node.rid && port ∈ l2_xid_ports(packet.l2_xid)` (used to suppress the
//! copy back to the sender).

use crate::tables::{IdMap, TableError, WriteVersion};

/// Maximum multicast groups (trees).
pub const MAX_MULTICAST_GROUPS: usize = 65_536;
/// Maximum L1 nodes across the whole PRE.
pub const MAX_L1_NODES: usize = 1 << 24;
/// Maximum RIDs per tree.
pub(crate) const MAX_RIDS_PER_TREE: usize = 65_536;

/// Errors configuring the PRE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreError {
    /// All multicast groups are in use.
    GroupsExhausted,
    /// The global L1-node budget is exhausted.
    L1NodesExhausted,
    /// The per-tree RID space is exhausted.
    RidsExhausted,
    /// Unknown multicast group.
    NoSuchGroup,
    /// Unknown node within the group.
    NoSuchNode,
    /// Table bookkeeping error.
    Table(TableError),
}

/// The egress ports of an L1 node, or the port set an L2 XID prunes.
/// Every node and XID the switch agent compiles names exactly one port
/// (a participant's abstract egress port is its RID), which is held
/// inline; a longer list is held on the heap. Two lists are equal when
/// they name the same ports in the same order, whichever way each is
/// held.
#[derive(Debug, Clone)]
pub enum PortList {
    /// A single port.
    One(u16),
    /// Any number of ports.
    Many(Vec<u16>),
}

impl PortList {
    /// The ports, in order.
    pub fn as_slice(&self) -> &[u16] {
        match self {
            PortList::One(port) => std::slice::from_ref(port),
            PortList::Many(ports) => ports,
        }
    }
}

impl From<u16> for PortList {
    fn from(port: u16) -> Self {
        PortList::One(port)
    }
}

impl From<Vec<u16>> for PortList {
    fn from(ports: Vec<u16>) -> Self {
        PortList::Many(ports)
    }
}

impl PartialEq for PortList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PortList {}

/// One L1 node: a (RID, XID, ports) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L1Node {
    /// Replication id, unique within the tree; identifies the replica in
    /// the egress pipeline.
    pub rid: u16,
    /// L1 exclusion id; pruned when it equals the packet's L1 XID and
    /// pruning is enabled.
    pub xid: u16,
    /// Whether L1-XID pruning applies to this node.
    pub prune_enabled: bool,
    /// Egress ports this node replicates to.
    pub ports: PortList,
}

/// One produced replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Replica {
    /// RID of the L1 node that produced this copy (keys the egress
    /// match-action lookup).
    pub rid: u16,
    /// Egress port.
    pub port: u16,
}

/// A multicast group (tree).
#[derive(Debug, Clone)]
struct Group {
    nodes: Vec<L1Node>,
}

/// The PRE.
#[derive(Debug, Clone)]
pub struct PacketReplicationEngine {
    groups: IdMap<u16, Group>,
    /// L2 XID -> set of ports it prunes.
    l2_xid_ports: IdMap<u16, PortList>,
    l1_nodes_used: usize,
    /// Node vectors of destroyed groups, emptied with their capacity
    /// kept, for the next created group to reuse.
    spare: Vec<Vec<L1Node>>,
    /// Redrawn by every call to a mutator.
    version: WriteVersion,
    /// Replication invocations (for throughput reporting).
    pub invocations: u64,
    /// Replicas produced.
    pub replicas_produced: u64,
}

impl Default for PacketReplicationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketReplicationEngine {
    /// An empty PRE.
    pub fn new() -> Self {
        PacketReplicationEngine {
            groups: IdMap::default(),
            l2_xid_ports: IdMap::default(),
            l1_nodes_used: 0,
            spare: Vec::new(),
            version: WriteVersion::next(),
            invocations: 0,
            replicas_produced: 0,
        }
    }

    /// Write version: changes with every call to a mutator (groups, L1
    /// nodes, L2 XID sets), whether or not it changed the trees.
    /// Replicating does not change it.
    pub(crate) fn version(&self) -> WriteVersion {
        self.version
    }

    /// Number of configured trees.
    pub fn groups_used(&self) -> usize {
        self.groups.len()
    }

    /// Number of L1 nodes across all trees.
    pub fn l1_nodes_used(&self) -> usize {
        self.l1_nodes_used
    }

    /// Create an empty multicast group. Fails when the 64 K budget is
    /// exhausted or the MGID is taken.
    pub(crate) fn create_group(&mut self, mgid: u16) -> Result<(), PreError> {
        self.version = WriteVersion::next();
        if self.groups.len() >= MAX_MULTICAST_GROUPS {
            return Err(PreError::GroupsExhausted);
        }
        if self.groups.contains_key(&mgid) {
            return Err(PreError::Table(TableError::Duplicate));
        }
        let nodes = self.spare.pop().unwrap_or_default();
        self.groups.insert(mgid, Group { nodes });
        Ok(())
    }

    /// Destroy a group, releasing its L1 nodes.
    pub fn destroy_group(&mut self, mgid: u16) -> Result<(), PreError> {
        self.version = WriteVersion::next();
        let mut g = self.groups.remove(&mgid).ok_or(PreError::NoSuchGroup)?;
        self.l1_nodes_used -= g.nodes.len();
        g.nodes.clear();
        self.spare.push(g.nodes);
        Ok(())
    }

    /// Add an L1 node to a group.
    pub fn add_node(&mut self, mgid: u16, node: L1Node) -> Result<(), PreError> {
        self.version = WriteVersion::next();
        if self.l1_nodes_used >= MAX_L1_NODES {
            return Err(PreError::L1NodesExhausted);
        }
        let g = self.groups.get_mut(&mgid).ok_or(PreError::NoSuchGroup)?;
        if g.nodes.len() >= MAX_RIDS_PER_TREE {
            return Err(PreError::RidsExhausted);
        }
        g.nodes.push(node);
        self.l1_nodes_used += 1;
        Ok(())
    }

    /// Remove the L1 node with the given RID from a group.
    pub fn remove_node(&mut self, mgid: u16, rid: u16) -> Result<(), PreError> {
        self.version = WriteVersion::next();
        let g = self.groups.get_mut(&mgid).ok_or(PreError::NoSuchGroup)?;
        let before = g.nodes.len();
        g.nodes.retain(|n| n.rid != rid);
        if g.nodes.len() == before {
            return Err(PreError::NoSuchNode);
        }
        self.l1_nodes_used -= before - g.nodes.len();
        Ok(())
    }

    /// Map an L2 XID to the port set it prunes: one port, or a list.
    pub fn set_l2_xid_ports(&mut self, xid: u16, ports: impl Into<PortList>) {
        self.version = WriteVersion::next();
        self.l2_xid_ports.insert(xid, ports.into());
    }

    /// Retire an L2 XID mapping (participant GC): frees the pruning
    /// entry so the XID — and the RID it shadows — can be recycled for a
    /// later participant without inheriting a stale port set.
    pub fn clear_l2_xid_ports(&mut self, xid: u16) {
        self.version = WriteVersion::next();
        self.l2_xid_ports.remove(&xid);
    }

    /// Number of live L2 XID pruning entries (occupancy auditing).
    pub fn l2_xids_used(&self) -> usize {
        self.l2_xid_ports.len()
    }

    /// Number of nodes in a group.
    pub fn group_size(&self, mgid: u16) -> Option<usize> {
        self.groups.get(&mgid).map(|g| g.nodes.len())
    }

    /// The tree configuration as data: every group's MGID with its L1
    /// nodes, in no fixed order. Statistics counters are excluded. The
    /// fabric check reads it (`Fabric::check` in `scallop-core`).
    pub fn groups(&self) -> impl Iterator<Item = (u16, &[L1Node])> {
        (self.groups.iter()).map(|(&g, group)| (g, group.nodes.as_slice()))
    }

    /// Replicate a packet: the ingress pipeline supplies the packet's
    /// MGID, L1 XID, RID, and L2 XID metadata (Fig. 13).
    pub fn replicate(
        &mut self,
        mgid: u16,
        pkt_l1_xid: u16,
        pkt_rid: u16,
        pkt_l2_xid: u16,
    ) -> Result<Vec<Replica>, PreError> {
        let mut out = Vec::new();
        self.replicate_into(mgid, pkt_l1_xid, pkt_rid, pkt_l2_xid, &mut out)?;
        Ok(out)
    }

    /// [`Self::replicate`] into a caller-owned buffer (cleared first), so
    /// the per-packet hot path can reuse one allocation across packets.
    pub fn replicate_into(
        &mut self,
        mgid: u16,
        pkt_l1_xid: u16,
        pkt_rid: u16,
        pkt_l2_xid: u16,
        out: &mut Vec<Replica>,
    ) -> Result<(), PreError> {
        out.clear();
        let g = self.groups.get(&mgid).ok_or(PreError::NoSuchGroup)?;
        self.invocations += 1;
        let pruned_ports: &[u16] = self
            .l2_xid_ports
            .get(&pkt_l2_xid)
            .map(PortList::as_slice)
            .unwrap_or(&[]);
        for node in &g.nodes {
            if node.prune_enabled && node.xid == pkt_l1_xid {
                continue; // L1 pruning (e.g. other meeting's participants)
            }
            for &port in node.ports.as_slice() {
                if node.rid == pkt_rid && pruned_ports.contains(&port) {
                    continue; // L2 pruning (e.g. copy back to the sender)
                }
                out.push(Replica {
                    rid: node.rid,
                    port,
                });
            }
        }
        self.replicas_produced += out.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(rid: u16, xid: u16, ports: &[u16]) -> L1Node {
        L1Node {
            rid,
            xid,
            prune_enabled: true,
            ports: ports.to_vec().into(),
        }
    }

    /// Build Fig. 11(c): two meetings (M1: P1..P3, M2: P1,P2) in one tree.
    fn two_meeting_tree() -> PacketReplicationEngine {
        let mut pre = PacketReplicationEngine::new();
        pre.create_group(1).unwrap();
        // Meeting 1 participants have XID 1, ports 10..12.
        pre.add_node(1, node(101, 1, &[10])).unwrap();
        pre.add_node(1, node(102, 1, &[11])).unwrap();
        pre.add_node(1, node(103, 1, &[12])).unwrap();
        // Meeting 2 participants have XID 2, ports 20..21.
        pre.add_node(1, node(201, 2, &[20])).unwrap();
        pre.add_node(1, node(202, 2, &[21])).unwrap();
        // L2 XIDs prune each participant's own port.
        for (xid, port) in [(10, 10), (11, 11), (12, 12), (20, 20), (21, 21)] {
            pre.set_l2_xid_ports(xid, vec![port]);
        }
        pre
    }

    #[test]
    fn meeting_aggregation_with_l1_pruning() {
        let mut pre = two_meeting_tree();
        // Packet from M1/P1 (rid 101, port 10): exclude meeting 2 (xid 2)
        // and self (rid 101 / l2 xid 10).
        let reps = pre.replicate(1, 2, 101, 10).unwrap();
        let ports: Vec<u16> = reps.iter().map(|r| r.port).collect();
        assert_eq!(ports, vec![11, 12], "only M1 peers receive");
        // Packet from M2/P1 (rid 201): exclude meeting 1 (xid 1) and self.
        let reps = pre.replicate(1, 1, 201, 20).unwrap();
        let ports: Vec<u16> = reps.iter().map(|r| r.port).collect();
        assert_eq!(ports, vec![21]);
    }

    #[test]
    fn l2_pruning_only_applies_to_matching_rid() {
        let mut pre = PacketReplicationEngine::new();
        pre.create_group(5).unwrap();
        // Two nodes that share a port (distinct receivers behind one port
        // is legal in the PRE model).
        pre.add_node(5, node(1, 0, &[7])).unwrap();
        pre.add_node(5, node(2, 0, &[7])).unwrap();
        pre.set_l2_xid_ports(99, vec![7]);
        let reps = pre.replicate(5, 0xFFFF, 1, 99).unwrap();
        // rid 1's port 7 pruned; rid 2's port 7 survives.
        assert_eq!(reps, vec![Replica { rid: 2, port: 7 }]);
    }

    #[test]
    fn no_pruning_when_xids_do_not_match() {
        let mut pre = two_meeting_tree();
        // L1 XID 0 matches nobody; RID 9999 matches nobody: full fan-out.
        let reps = pre.replicate(1, 0, 9999, 0).unwrap();
        assert_eq!(reps.len(), 5);
    }

    #[test]
    fn prune_disabled_nodes_always_replicate() {
        let mut pre = PacketReplicationEngine::new();
        pre.create_group(1).unwrap();
        pre.add_node(
            1,
            L1Node {
                rid: 1,
                xid: 7,
                prune_enabled: false,
                ports: PortList::One(3),
            },
        )
        .unwrap();
        let reps = pre.replicate(1, 7, 0, 0).unwrap();
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn a_port_held_inline_is_a_list_of_one() {
        assert_eq!(PortList::One(7), PortList::Many(vec![7]));
        assert_ne!(PortList::One(7), PortList::Many(vec![7, 8]));
        let mut pre = PacketReplicationEngine::new();
        pre.create_group(1).unwrap();
        for (rid, ports) in [(1, PortList::One(7)), (2, PortList::Many(vec![7, 8]))] {
            let node = L1Node {
                rid,
                xid: 0,
                prune_enabled: false,
                ports,
            };
            pre.add_node(1, node).unwrap();
        }
        // An inline L2 XID set prunes its port from the matching RID only.
        pre.set_l2_xid_ports(5, 7);
        let reps = pre.replicate(1, 0, 1, 5).unwrap();
        let rep = |rid, port| Replica { rid, port };
        assert_eq!(reps, vec![rep(2, 7), rep(2, 8)]);
        let reps = pre.replicate(1, 0, 2, 5).unwrap();
        assert_eq!(reps, vec![rep(1, 7), rep(2, 8)]);
    }

    #[test]
    fn budgets_enforced() {
        let mut pre = PacketReplicationEngine::new();
        pre.create_group(1).unwrap();
        assert_eq!(
            pre.create_group(1),
            Err(PreError::Table(TableError::Duplicate))
        );
        assert_eq!(pre.replicate(99, 0, 0, 0), Err(PreError::NoSuchGroup));
        assert_eq!(pre.remove_node(1, 42), Err(PreError::NoSuchNode));
    }

    #[test]
    fn node_accounting_across_destroy() {
        let mut pre = two_meeting_tree();
        assert_eq!(pre.l1_nodes_used(), 5);
        assert_eq!(pre.groups_used(), 1);
        pre.remove_node(1, 103).unwrap();
        assert_eq!(pre.l1_nodes_used(), 4);
        pre.destroy_group(1).unwrap();
        assert_eq!(pre.l1_nodes_used(), 0);
        assert_eq!(pre.groups_used(), 0);
    }

    #[test]
    fn replica_counters() {
        let mut pre = two_meeting_tree();
        let _ = pre.replicate(1, 2, 101, 10).unwrap();
        assert_eq!(pre.invocations, 1);
        assert_eq!(pre.replicas_produced, 2);
    }
}
