//! Per-meeting control-plane state, extracted from the controller so
//! that one meeting's bookkeeping is one value in the plane's one store.
//!
//! Everything the control plane knows about one fabric meeting lives in
//! a single self-contained [`FabricMeetingState`] record: the home edge,
//! the owning shard, the per-edge segment map, the trunk-egress branch
//! table, and the member roster with each sender's remote-sender
//! entries. The sharded plane ([`crate::shard`]) keeps exactly one
//! record per live meeting, in its one store, and nothing once it
//! retires. An ownership handoff rewrites the record's owner and leaves
//! the record where it is — neither type derives `Clone`, so no second
//! copy of a record can exist; a shard keeps only its load count.
//!
//! The data plane is deliberately **not** part of this state: segments,
//! PRE trees, and trunk rules live on the edge switches and are keyed
//! by ids recorded here. A shard handoff therefore never touches a
//! switch — media keeps flowing through rules that do not change while
//! the claim moves.

use crate::agent::{MeetingId, ParticipantId};
use crate::controller::GlobalParticipantId;
use scallop_netsim::packet::HostAddr;
use std::collections::BTreeMap;

/// One fabric meeting member, as the control plane tracks it.
#[derive(Debug)]
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
}

/// The complete control-plane state of one meeting placed across the
/// fabric, owned by one shard of [`crate::shard::ShardedControlPlane`].
#[derive(Debug, Default)]
pub struct FabricMeetingState {
    /// The home edge this meeting is currently placed on.
    pub(crate) home: usize,
    /// The shard that owns the meeting: the bounded-loads walk's choice
    /// at placement, rewritten by each handoff.
    pub(crate) owner: usize,
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

    /// The member roster, in join order.
    pub fn members(&self) -> &[FabricMemberState] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_is_self_contained() {
        let mut st = FabricMeetingState {
            home: 2,
            ..Default::default()
        };
        st.members.push(FabricMemberState {
            global: 1,
            edge: 2,
            addr: HostAddr::new(std::net::Ipv4Addr::new(10, 0, 0, 1), 5000),
            sends: true,
            local_pid: 3,
            remote_pids: BTreeMap::new(),
        });
        assert_eq!(st.home(), 2);
        assert_eq!(st.members().len(), 1);
        assert!(st.members()[0].sends());
        assert_eq!(st.members()[0].edge(), 2);
        assert_eq!(st.members()[0].global(), 1);
    }
}
