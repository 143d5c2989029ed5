//! Dense struct-of-arrays port-rule registers — the batched engine's
//! hot match state.
//!
//! The exact-match [`crate::tables::ExactTable`] models the Tofino's
//! hash tables faithfully (capacity, SRAM accounting, hit/miss
//! counters), but a software hash lookup per packet is exactly the
//! per-packet cost the batched forwarding path is built to amortize.
//! Each edge switch owns one *contiguous* SFU port range
//! (`scallop_netsim::topology` hands every edge a disjoint
//! `[port_base, port_limit)` span), so the hot `port_rules` match state
//! flattens into port-indexed register arrays: subtract the base, index
//! the slot, done — no hashing, no probing.
//!
//! The layout is struct-of-arrays, mirroring how a pipeline stage would
//! hold it: one discriminant register (`kinds`) consulted by the match
//! stage, and per-field action-data arrays (`mgid_by_tier`, `l1_xid`,
//! `rid`, … ) read only by the action that fires. Reassembling a
//! [`PortRule`] from the arrays is a handful of indexed copies.
//!
//! The dense registers are a **mirror**, not a replacement: the
//! `ExactTable` stays authoritative (occupancy auditing, SRAM reports,
//! control-plane sweeps all keep reading it), rules outside the enabled
//! span — the sparse tail — are matched through the table as before,
//! and both structures are updated together by
//! [`crate::switch::ScallopDataPlane::install_port_rule`] /
//! [`remove_port_rule`](crate::switch::ScallopDataPlane::remove_port_rule).

use crate::rules::{EgressSpec, PortRule, ReplicationAction, StreamIndex};
use scallop_netsim::packet::HostAddr;
use std::net::Ipv4Addr;

/// Match-stage discriminant: what kind of rule a port slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum SlotKind {
    /// No rule installed on this port.
    Empty = 0,
    /// [`PortRule::SenderUplink`].
    SenderUplink = 1,
    /// [`PortRule::TrunkIngress`].
    TrunkIngress = 2,
    /// [`PortRule::ReceiverFeedback`].
    ReceiverFeedback = 3,
    /// [`PortRule::FeedbackSink`].
    FeedbackSink = 4,
}

fn zero_addr() -> HostAddr {
    HostAddr::new(Ipv4Addr::UNSPECIFIED, 0)
}

fn zero_spec() -> EgressSpec {
    EgressSpec::passthrough(zero_addr(), zero_addr())
}

/// Port-indexed struct-of-arrays registers over one contiguous port
/// span `[base, limit)`.
#[derive(Debug)]
pub struct DensePortRules {
    base: u16,
    limit: u16,
    /// Match register: one discriminant byte per port slot.
    kinds: Vec<SlotKind>,
    /// `SenderUplink`: copy extended-DD packets to the CPU port.
    punt_dd: Vec<bool>,
    /// Media rules: whether the action replicates through the PRE
    /// (`true`) or is the two-party unicast bypass (`false`).
    act_is_multicast: Vec<bool>,
    /// Two-party bypass: the lone receiver's egress rewrite.
    two_party: Vec<EgressSpec>,
    /// Multicast: per-SVC-tier multicast group ids.
    mgid_by_tier: Vec<[u16; 3]>,
    /// Multicast: L1 exclusion id stamped on the packet.
    l1_xid: Vec<u16>,
    /// Multicast: the sender's replication id.
    rid: Vec<u16>,
    /// Multicast: L2 exclusion id naming the sender's egress port.
    l2_xid: Vec<u16>,
    /// Feedback: the sender's client address.
    fb_sender: Vec<HostAddr>,
    /// Feedback: rewritten source for forwarded feedback.
    fb_forward_src: Vec<HostAddr>,
    /// Feedback: REMB currently selected by the §5.3 filter.
    fb_remb: Vec<bool>,
    /// Feedback: Stream-Tracker slot for NACK packet-id shifting.
    fb_rewrite: Vec<Option<StreamIndex>>,
    /// Slots currently holding a rule (mirror-coherence auditing).
    occupied: usize,
    /// Lookups served by the dense registers instead of the hash table.
    pub dense_lookups: u64,
}

impl DensePortRules {
    /// Registers covering `[base, limit)`, initially empty.
    pub fn new(base: u16, limit: u16) -> Self {
        assert!(base < limit, "dense port span must be non-empty");
        let span = (limit - base) as usize;
        DensePortRules {
            base,
            limit,
            kinds: vec![SlotKind::Empty; span],
            punt_dd: vec![false; span],
            act_is_multicast: vec![false; span],
            two_party: vec![zero_spec(); span],
            mgid_by_tier: vec![[0; 3]; span],
            l1_xid: vec![0; span],
            rid: vec![0; span],
            l2_xid: vec![0; span],
            fb_sender: vec![zero_addr(); span],
            fb_forward_src: vec![zero_addr(); span],
            fb_remb: vec![false; span],
            fb_rewrite: vec![None; span],
            occupied: 0,
            dense_lookups: 0,
        }
    }

    /// Whether `port` falls inside the dense span.
    pub(crate) fn covers(&self, port: u16) -> bool {
        self.base <= port && port < self.limit
    }

    /// First port of the span.
    pub fn base(&self) -> u16 {
        self.base
    }

    /// Exclusive upper bound of the span.
    pub fn limit(&self) -> u16 {
        self.limit
    }

    /// Slots currently holding a rule.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    fn slot(&self, port: u16) -> usize {
        debug_assert!(self.covers(port));
        (port - self.base) as usize
    }

    fn store_action(&mut self, s: usize, action: &ReplicationAction) {
        match action {
            ReplicationAction::TwoParty { egress } => {
                self.act_is_multicast[s] = false;
                self.two_party[s] = *egress;
            }
            ReplicationAction::Multicast {
                mgid_by_tier,
                l1_xid,
                rid,
                l2_xid,
            } => {
                self.act_is_multicast[s] = true;
                self.mgid_by_tier[s] = *mgid_by_tier;
                self.l1_xid[s] = *l1_xid;
                self.rid[s] = *rid;
                self.l2_xid[s] = *l2_xid;
            }
        }
    }

    fn load_action(&self, s: usize) -> ReplicationAction {
        if self.act_is_multicast[s] {
            ReplicationAction::Multicast {
                mgid_by_tier: self.mgid_by_tier[s],
                l1_xid: self.l1_xid[s],
                rid: self.rid[s],
                l2_xid: self.l2_xid[s],
            }
        } else {
            ReplicationAction::TwoParty {
                egress: self.two_party[s],
            }
        }
    }

    /// Mirror an install: decompose `rule` into the register arrays.
    /// Ports outside the span are ignored (they live in the sparse
    /// tail of the exact table).
    pub fn set(&mut self, port: u16, rule: PortRule) {
        if !self.covers(port) {
            return;
        }
        let s = self.slot(port);
        if self.kinds[s] == SlotKind::Empty {
            self.occupied += 1;
        }
        match rule {
            PortRule::SenderUplink {
                action,
                punt_extended_dd,
            } => {
                self.kinds[s] = SlotKind::SenderUplink;
                self.punt_dd[s] = punt_extended_dd;
                self.store_action(s, &action);
            }
            PortRule::TrunkIngress { action } => {
                self.kinds[s] = SlotKind::TrunkIngress;
                self.store_action(s, &action);
            }
            PortRule::ReceiverFeedback {
                sender_addr,
                forward_src,
                remb_allowed,
                rewrite_index,
            } => {
                self.kinds[s] = SlotKind::ReceiverFeedback;
                self.fb_sender[s] = sender_addr;
                self.fb_forward_src[s] = forward_src;
                self.fb_remb[s] = remb_allowed;
                self.fb_rewrite[s] = rewrite_index;
            }
            PortRule::FeedbackSink => {
                self.kinds[s] = SlotKind::FeedbackSink;
            }
        }
    }

    /// Mirror a removal: clear the slot's match discriminant. Action
    /// data is left in place (an empty discriminant makes it dead, the
    /// way hardware retires an entry without scrubbing its SRAM).
    pub(crate) fn unset(&mut self, port: u16) {
        if !self.covers(port) {
            return;
        }
        let s = self.slot(port);
        if self.kinds[s] != SlotKind::Empty {
            self.occupied -= 1;
        }
        self.kinds[s] = SlotKind::Empty;
    }

    /// Match a port: reassemble the rule from the register arrays.
    pub fn lookup(&mut self, port: u16) -> Option<PortRule> {
        self.dense_lookups += 1;
        let s = self.slot(port);
        match self.kinds[s] {
            SlotKind::Empty => None,
            SlotKind::SenderUplink => Some(PortRule::SenderUplink {
                action: self.load_action(s),
                punt_extended_dd: self.punt_dd[s],
            }),
            SlotKind::TrunkIngress => Some(PortRule::TrunkIngress {
                action: self.load_action(s),
            }),
            SlotKind::ReceiverFeedback => Some(PortRule::ReceiverFeedback {
                sender_addr: self.fb_sender[s],
                forward_src: self.fb_forward_src[s],
                remb_allowed: self.fb_remb[s],
                rewrite_index: self.fb_rewrite[s],
            }),
            SlotKind::FeedbackSink => Some(PortRule::FeedbackSink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8, port: u16) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    fn sample_rules() -> Vec<(u16, PortRule)> {
        vec![
            (
                10_000,
                PortRule::SenderUplink {
                    action: ReplicationAction::Multicast {
                        mgid_by_tier: [1, 2, 3],
                        l1_xid: 7,
                        rid: 9,
                        l2_xid: 11,
                    },
                    punt_extended_dd: true,
                },
            ),
            (
                10_001,
                PortRule::SenderUplink {
                    action: ReplicationAction::TwoParty {
                        egress: EgressSpec::passthrough(addr(1, 1), addr(2, 2)),
                    },
                    punt_extended_dd: false,
                },
            ),
            (
                10_002,
                PortRule::TrunkIngress {
                    action: ReplicationAction::Multicast {
                        mgid_by_tier: [4, 4, 4],
                        l1_xid: 0,
                        rid: 0xF001,
                        l2_xid: 0,
                    },
                },
            ),
            (
                10_003,
                PortRule::ReceiverFeedback {
                    sender_addr: addr(3, 4000),
                    forward_src: addr(9, 10),
                    remb_allowed: true,
                    rewrite_index: Some(42),
                },
            ),
            (10_004, PortRule::FeedbackSink),
        ]
    }

    #[test]
    fn roundtrips_every_rule_kind() {
        let mut d = DensePortRules::new(10_000, 10_100);
        for (port, rule) in sample_rules() {
            d.set(port, rule);
            assert_eq!(d.lookup(port), Some(rule), "port {port}");
        }
        assert_eq!(d.occupied(), 5);
    }

    #[test]
    fn unset_empties_the_slot_and_reinstall_overwrites() {
        let mut d = DensePortRules::new(10_000, 10_100);
        let rules = sample_rules();
        d.set(rules[0].0, rules[0].1);
        d.unset(rules[0].0);
        assert_eq!(d.lookup(rules[0].0), None);
        assert_eq!(d.occupied(), 0);
        // Overwriting an occupied slot does not double-count.
        d.set(10_000, rules[3].1);
        d.set(10_000, rules[4].1);
        assert_eq!(d.occupied(), 1);
        assert_eq!(d.lookup(10_000), Some(PortRule::FeedbackSink));
    }

    #[test]
    fn out_of_span_ports_are_ignored() {
        let mut d = DensePortRules::new(10_000, 10_010);
        d.set(9_999, PortRule::FeedbackSink);
        d.set(10_010, PortRule::FeedbackSink);
        assert_eq!(d.occupied(), 0);
        assert!(!d.covers(9_999));
        assert!(!d.covers(10_010));
        assert!(d.covers(10_009));
    }

    #[test]
    fn lookup_counter_advances() {
        let mut d = DensePortRules::new(10_000, 10_010);
        let _ = d.lookup(10_001);
        let _ = d.lookup(10_002);
        assert_eq!(d.dense_lookups, 2);
    }
}
