//! Membership-churn scenarios: meetings whose population drifts
//! between buildings (and therefore fabric edges) over time.
//!
//! Campus meetings are churny — lectures where the audience trickles
//! over from another building, office hours that migrate with their
//! attendees. A meeting placed on its organizing building's edge switch
//! keeps paying trunk crossings toward that edge even after every
//! receiver has drifted away; the controller's `rebalance_fabric` pass
//! exists for exactly this population shape. This module generates the
//! deterministic drift timelines the benches and integration tests
//! drive through the fabric harness.

use scallop_netsim::time::{SimDuration, SimTime};

/// One churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new participant joins.
    Join {
        /// The edge switch it attaches to.
        edge: usize,
        /// Whether it offers media.
        sends: bool,
    },
    /// A participant leaves.
    Leave {
        /// Which one: the participant created by the `slot`-th `Join`
        /// of this plan (0-based, in event order).
        slot: usize,
    },
}

/// A deterministic, timed churn plan.
#[derive(Debug, Clone, Default)]
pub struct ChurnPlan {
    /// Events with their absolute fire times, in nondecreasing order.
    pub events: Vec<(SimTime, ChurnEvent)>,
}

impl ChurnPlan {
    /// Population drift between two buildings: `members` participants
    /// (the first `senders` of them sending) join on edge `from` at
    /// `start`; then every `step`, one of the original members leaves
    /// and a replacement with the same role joins on edge `to`, until
    /// the entire population has moved.
    pub fn drift(
        from: usize,
        to: usize,
        members: usize,
        senders: usize,
        start: SimTime,
        step: SimDuration,
    ) -> ChurnPlan {
        let mut events = Vec::with_capacity(3 * members);
        for i in 0..members {
            events.push((
                start,
                ChurnEvent::Join {
                    edge: from,
                    sends: i < senders,
                },
            ));
        }
        let mut t = start;
        for i in 0..members {
            t += step;
            events.push((t, ChurnEvent::Leave { slot: i }));
            events.push((
                t,
                ChurnEvent::Join {
                    edge: to,
                    sends: i < senders,
                },
            ));
        }
        ChurnPlan { events }
    }

    /// All-buildings churn: `members` participants (the first `senders`
    /// of them sending) join round-robin across `edges` edge switches
    /// at `start`; then every `step`, one original member leaves and a
    /// replacement with the same role joins on the **next** edge over
    /// (`(edge + 1) % edges`), rotating the whole population one
    /// building ahead.
    ///
    /// Where [`ChurnPlan::drift`] stresses one re-home between two
    /// buildings, `scatter` stresses the sharded control plane: with a
    /// meeting spread over every edge, most joins enter at an ingress
    /// shard that does not own the meeting and must be forwarded (one
    /// count of `ShardedControlPlane::forward_total` in `scallop-core`
    /// each), and no single edge
    /// ever gains the decisive majority that would re-home the meeting.
    pub fn scatter(
        edges: usize,
        members: usize,
        senders: usize,
        start: SimTime,
        step: SimDuration,
    ) -> ChurnPlan {
        assert!(edges >= 1, "at least one edge");
        let mut events = Vec::with_capacity(3 * members);
        for i in 0..members {
            events.push((
                start,
                ChurnEvent::Join {
                    edge: i % edges,
                    sends: i < senders,
                },
            ));
        }
        let mut t = start;
        for i in 0..members {
            t += step;
            events.push((t, ChurnEvent::Leave { slot: i }));
            events.push((
                t,
                ChurnEvent::Join {
                    edge: (i + 1) % edges,
                    sends: i < senders,
                },
            ));
        }
        ChurnPlan { events }
    }

    /// Time of the last event.
    pub fn end(&self) -> SimTime {
        self.events.last().map(|&(t, _)| t).unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Live population per edge after every event of `p` at or before `t`
    /// has fired: pins the drift shape without running a simulation.
    fn population_at(p: &ChurnPlan, t: SimTime) -> BTreeMap<usize, usize> {
        let mut slot_edges: Vec<Option<usize>> = Vec::new();
        for &(at, ev) in &p.events {
            if at > t {
                break;
            }
            match ev {
                ChurnEvent::Join { edge, .. } => slot_edges.push(Some(edge)),
                ChurnEvent::Leave { slot } => {
                    if let Some(e) = slot_edges.get_mut(slot) {
                        *e = None;
                    }
                }
            }
        }
        let mut pop = BTreeMap::new();
        for e in slot_edges.into_iter().flatten() {
            *pop.entry(e).or_insert(0) += 1;
        }
        pop
    }

    fn plan() -> ChurnPlan {
        ChurnPlan::drift(0, 1, 4, 2, SimTime::ZERO, SimDuration::from_secs(1))
    }

    #[test]
    fn drift_event_shape() {
        let p = plan();
        // 4 initial joins + 4 × (leave + replacement join).
        assert_eq!(p.events.len(), 12);
        let joins = p
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Join { .. }))
            .count();
        assert_eq!(joins, 8);
        // Times are nondecreasing; the plan ends after the last swap.
        for w in p.events.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert_eq!(p.end(), SimTime::from_secs(4));
    }

    #[test]
    fn drift_moves_the_whole_population() {
        let p = plan();
        let before = population_at(&p, SimTime::from_millis(500));
        assert_eq!(before.get(&0), Some(&4));
        assert_eq!(before.get(&1), None);
        // Mid-drift the population straddles both edges.
        let mid = population_at(&p, SimTime::from_millis(2_500));
        assert_eq!(mid.get(&0), Some(&2));
        assert_eq!(mid.get(&1), Some(&2));
        // After the plan completes, everyone lives on the target edge.
        let after = population_at(&p, p.end());
        assert_eq!(after.get(&0), None);
        assert_eq!(after.get(&1), Some(&4));
    }

    #[test]
    fn sender_roles_are_preserved() {
        let p = plan();
        let sends: Vec<bool> = p
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ChurnEvent::Join { sends, .. } => Some(*sends),
                _ => None,
            })
            .collect();
        // 2 of 4 send in the initial wave and 2 of 4 among replacements.
        assert_eq!(sends.iter().filter(|&&s| s).count(), 4);
        assert!(sends[0]);
        assert!(!sends[3]);
    }

    #[test]
    fn scatter_spreads_and_rotates_across_all_edges() {
        let p = ChurnPlan::scatter(4, 8, 3, SimTime::ZERO, SimDuration::from_secs(1));
        // 8 initial joins + 8 swaps.
        assert_eq!(p.events.len(), 24);
        // Initially two members per edge.
        let before = population_at(&p, SimTime::from_millis(500));
        for e in 0..4 {
            assert_eq!(before.get(&e), Some(&2), "edge {e} starts with 2");
        }
        // After the full rotation the population is again 2 per edge —
        // every member has moved one building over, so no edge ever
        // held a majority (the plan drives forwards, not re-homes).
        let after = population_at(&p, p.end());
        for e in 0..4 {
            assert_eq!(after.get(&e), Some(&2), "edge {e} ends with 2");
        }
        // Sender roles preserved across the rotation.
        let sends: Vec<bool> = p
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ChurnEvent::Join { sends, .. } => Some(*sends),
                _ => None,
            })
            .collect();
        assert_eq!(sends.iter().filter(|&&s| s).count(), 6);
        // Replacement i joins one edge over from original i.
        let edges: Vec<usize> = p
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                ChurnEvent::Join { edge, .. } => Some(*edge),
                _ => None,
            })
            .collect();
        for i in 0..8 {
            assert_eq!(edges[8 + i], (edges[i] + 1) % 4);
        }
    }

    #[test]
    fn empty_plan_is_benign() {
        let p = ChurnPlan::default();
        assert_eq!(p.end(), SimTime::ZERO);
        assert!(population_at(&p, SimTime::from_secs(10)).is_empty());
    }
}
