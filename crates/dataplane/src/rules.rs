//! Rule schema: what the switch agent installs into the data plane.
//!
//! Scallop splits each participant's WebRTC session into per-(sender,
//! receiver) UDP streams (§5.3 "Split WebRTC Connections"), so every SFU
//! UDP port unambiguously names a role:
//!
//! * a **sender uplink** port receives one participant's media stream and
//!   maps to a replication action;
//! * a **receiver feedback** port is the port a receiver gets one
//!   sender's media *from*, and therefore the port its RTCP feedback for
//!   that sender comes back *to* (symmetric RTP). Its rule names the
//!   sender to forward feedback to and whether this receiver's REMBs are
//!   currently selected by the §5.3 filter.

use scallop_netsim::packet::HostAddr;

/// A stream's slot in the Stream Tracker (its row of rewrite state).
pub type StreamIndex = u16;

/// How a sender's packets are replicated.
///
/// `Copy`: every field is plain action data (addresses, ids), so the
/// forwarding pipeline copies the resolved action out of the match
/// structure instead of cloning through a borrow — the hot path never
/// holds a table reference across the replicate/emit stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationAction {
    /// Two-party optimization (§6.1): unicast straight to the single
    /// receiver, no PRE involvement.
    TwoParty {
        /// The egress rewrite for the lone receiver.
        egress: EgressSpec,
    },
    /// Replicate through the PRE.
    Multicast {
        /// Multicast group selected at ingress. For RA-R/RA-SR designs
        /// the ingress picks one of these by the packet's SVC tier:
        /// `mgid_by_tier[t]` is used for packets of temporal layer `t`.
        /// NRA designs use the same MGID for all tiers.
        mgid_by_tier: [u16; 3],
        /// L1 exclusion id to stamp (prunes the *other* meeting sharing
        /// the tree, §6.3).
        l1_xid: u16,
        /// This sender's RID (so its own copy is pruned at L2).
        rid: u16,
        /// L2 exclusion id naming the sender's egress port.
        l2_xid: u16,
    },
}

/// Per-receiver egress rewrite configuration (the (MGID, RID) → receiver
/// match in the egress pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressSpec {
    /// Rewritten source: the SFU's per-(sender,receiver) address.
    pub src: HostAddr,
    /// Rewritten destination: the receiver's address.
    pub dst: HostAddr,
    /// Highest temporal layer forwarded to this receiver (decode target).
    pub max_temporal: u8,
    /// Stream Tracker slot for sequence rewriting; `None` when the stream
    /// is not rate-adapted (no rewriting needed).
    pub rewrite_index: Option<StreamIndex>,
}

impl EgressSpec {
    /// A full-quality spec without rewriting.
    pub fn passthrough(src: HostAddr, dst: HostAddr) -> Self {
        EgressSpec {
            src,
            dst,
            max_temporal: 2,
            rewrite_index: None,
        }
    }
}

/// Rule attached to an SFU UDP port.
///
/// `Copy` for the same reason as [`ReplicationAction`]: a match result
/// is a small bundle of action data, copied out of whichever structure
/// matched it (exact table or dense port registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRule {
    /// Media arrives here from a sender.
    SenderUplink {
        /// Replication behaviour.
        action: ReplicationAction,
        /// Copy extended-DD packets (key frames) to the CPU port (§5.4).
        punt_extended_dd: bool,
    },
    /// Media arrives here over a fabric trunk: one full-quality copy of a
    /// remote sender's stream, re-replicated to this switch's local
    /// receivers. Behaves like a sender uplink (the remote sender *is*
    /// the sender, proxied by its home switch) but is accounted as trunk
    /// ingress and never punts DDs — the sender's home switch already
    /// analyzes them.
    TrunkIngress {
        /// Replication behaviour (local fan-out only; trunk egress
        /// branches are pruned by the L1 XID stamp, so media is never
        /// re-trunked).
        action: ReplicationAction,
    },
    /// Feedback arrives here from a receiver (about exactly one sender).
    ReceiverFeedback {
        /// Where to forward NACK/PLI/REMB: the sender's client address.
        sender_addr: HostAddr,
        /// Source address for forwarded feedback (the SFU port the sender
        /// sends media to, so feedback appears to come from its peer).
        forward_src: HostAddr,
        /// Whether this receiver's REMB is currently selected by the
        /// feedback filter `f` (§5.3). NACK/PLI forward regardless.
        remb_allowed: bool,
        /// Stream-tracker slot of the (sender → receiver) video stream,
        /// when rate-adapted: forwarded NACK packet-ids are shifted by
        /// its offset so the sender can find them in its history.
        rewrite_index: Option<StreamIndex>,
    },
    /// Feedback arrives here from a *remote edge switch* of the fabric
    /// (the per-edge selected REMB plus NACK/PLI for one fabric-shared
    /// sender). The data plane only punts it to the agent, which
    /// min-aggregates the per-edge estimates into the single REMB the
    /// sender hears (§5.3 single-selection, fabric-wide) and re-emits
    /// NACK/PLI toward the sender itself — nothing is forwarded in the
    /// fast path.
    FeedbackSink,
}

/// Key for the egress match-action lookup after PRE replication.
///
/// The RID identifies the *receiver* branch of the tree; the sender is
/// recovered from the replica's still-unrewritten destination port (the
/// sender's uplink port) — both are available to the egress match, which
/// is how one tree can serve every sender of a meeting while each copy
/// still gets its per-(sender, receiver) source address (§6.1, §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EgressKey {
    /// Multicast group the packet traversed.
    pub mgid: u16,
    /// Replication id of the copy (names the receiver).
    pub rid: u16,
    /// SFU uplink port the packet arrived on (names the sender stream).
    pub in_port: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn addr(last: u8, port: u16) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    #[test]
    fn passthrough_spec_defaults() {
        let e = EgressSpec::passthrough(addr(1, 10), addr(2, 20));
        assert_eq!(e.max_temporal, 2);
        assert!(e.rewrite_index.is_none());
    }

    #[test]
    fn rule_variants_compare() {
        let a = PortRule::ReceiverFeedback {
            sender_addr: addr(1, 1),
            forward_src: addr(9, 9),
            remb_allowed: true,
            rewrite_index: None,
        };
        let b = a;
        assert_eq!(a, b);
        let c = PortRule::SenderUplink {
            action: ReplicationAction::TwoParty {
                egress: EgressSpec::passthrough(addr(1, 1), addr(2, 2)),
            },
            punt_extended_dd: true,
        };
        assert_ne!(std::mem::discriminant(&a), std::mem::discriminant(&c));
    }
}
