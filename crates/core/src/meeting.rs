//! Per-meeting control-plane state, extracted from the controller so
//! that one meeting's bookkeeping can move between controller shards
//! wholesale.
//!
//! Everything a controller knows about one fabric meeting lives in a
//! single self-contained [`FabricMeetingState`] value: the home edge,
//! the per-edge segment map, the trunk-egress branch table, and the
//! member roster with each sender's remote-sender entries. None of it
//! references the owning controller, so the ownership-handoff protocol
//! of [`crate::shard`] can clone the value into the acquiring shard
//! *before* the releasing shard drops its copy (make-before-break at
//! the control plane, mirroring the data-plane cutover invariant of
//! [`crate::shard::ShardedControlPlane::rebalance_fabric`]).
//!
//! The data plane is deliberately **not** part of this state: segments,
//! PRE trees, and trunk rules live on the edge switches and are keyed
//! by ids recorded here. A shard handoff therefore never touches a
//! switch — media keeps flowing through rules that do not change while
//! the bookkeeping moves.

use crate::agent::{MeetingId, ParticipantId};
use crate::controller::GlobalParticipantId;
use scallop_netsim::packet::HostAddr;
use std::collections::BTreeMap;

/// One fabric meeting member, as the control plane tracks it.
#[derive(Debug, Clone)]
pub struct FabricMemberState {
    /// Fabric-wide participant id.
    pub(crate) global: GlobalParticipantId,
    /// Edge the participant is attached to.
    pub(crate) edge: usize,
    /// The participant's media address (for remote-sender plumbing).
    pub(crate) addr: HostAddr,
    /// Whether the participant offers media.
    pub(crate) sends: bool,
    /// Participant id inside the home edge's local segment.
    pub(crate) local_pid: ParticipantId,
    /// Per remote edge: the remote-sender entry (and its trunk-ingress
    /// ports) representing this sender there.
    pub(crate) remote_pids: BTreeMap<usize, ParticipantId>,
    /// Whether the member was admitted SVC-thin (capacity planner
    /// degraded it: top temporal layer dropped, decode target capped).
    pub(crate) thin: bool,
}

impl FabricMemberState {
    /// Fabric-wide participant id.
    pub fn global(&self) -> GlobalParticipantId {
        self.global
    }

    /// Edge the participant is attached to.
    pub fn edge(&self) -> usize {
        self.edge
    }

    /// Whether the participant offers media.
    pub fn sends(&self) -> bool {
        self.sends
    }

    /// Whether the member was admitted SVC-thin by the capacity
    /// planner.
    pub fn thin(&self) -> bool {
        self.thin
    }
}

/// The complete control-plane state of one meeting placed across the
/// fabric — the unit of ownership a [`crate::shard::ControllerShard`]
/// acquires and releases.
#[derive(Debug, Default, Clone)]
pub struct FabricMeetingState {
    /// The home edge this meeting is currently placed on.
    pub(crate) home: usize,
    /// Local segment meeting id per involved edge.
    pub(crate) segments: BTreeMap<usize, MeetingId>,
    /// Trunk-egress branch per (on_edge, toward_edge) pair. WAN-tier
    /// branches (between two zones' gateway edges) share this table —
    /// the key is still the (on_edge, toward_edge) pair; only the
    /// branch's prune tier differs on the switch.
    pub(crate) trunk_egress: BTreeMap<(usize, usize), ParticipantId>,
    /// Per zone: the gateway edge — the meeting's first materialized
    /// segment edge in that zone. All of the meeting's WAN branches
    /// terminate on gateway edges; a gateway re-trunks arriving WAN
    /// media to the zone's other segments.
    pub(crate) zone_gateways: BTreeMap<usize, usize>,
    /// Edges whose segment was materialized under an SVC-thin
    /// admission: the capacity planner books this segment's trunk/WAN
    /// branches at the thin rate, and members joining it are admitted
    /// thin.
    pub(crate) thin_segments: std::collections::BTreeSet<usize>,
    /// Member roster, in join order.
    pub(crate) members: Vec<FabricMemberState>,
}

impl FabricMeetingState {
    /// The home edge this meeting is currently placed on.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Number of members currently in the meeting.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Edges on which this meeting has a materialized segment.
    pub fn segment_edges(&self) -> impl Iterator<Item = usize> + '_ {
        self.segments.keys().copied()
    }

    /// The member roster, in join order.
    pub fn members(&self) -> &[FabricMemberState] {
        &self.members
    }

    /// The meeting's gateway edge in `zone`, if the meeting has a
    /// segment there.
    pub fn zone_gateway(&self, zone: usize) -> Option<usize> {
        self.zone_gateways.get(&zone).copied()
    }

    /// Whether the segment at `edge` was admitted SVC-thin.
    pub fn segment_is_thin(&self, edge: usize) -> bool {
        self.thin_segments.contains(&edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_is_self_contained_and_cloneable() {
        let mut st = FabricMeetingState {
            home: 2,
            ..Default::default()
        };
        st.segments.insert(2, 7);
        st.members.push(FabricMemberState {
            global: 1,
            edge: 2,
            addr: HostAddr::new(std::net::Ipv4Addr::new(10, 0, 0, 1), 5000),
            sends: true,
            local_pid: 3,
            remote_pids: BTreeMap::new(),
            thin: false,
        });
        st.thin_segments.insert(5);
        let copy = st.clone();
        assert_eq!(copy.home(), 2);
        assert_eq!(copy.member_count(), 1);
        assert_eq!(copy.segment_edges().collect::<Vec<_>>(), vec![2]);
        assert!(copy.segment_is_thin(5) && !copy.segment_is_thin(2));
        assert!(copy.members()[0].sends());
        assert!(!copy.members()[0].thin());
        assert_eq!(copy.members()[0].edge(), 2);
        assert_eq!(copy.members()[0].global(), 1);
    }
}
