//! Id allocation: every id the agent hands out comes from an [`IdPool`],
//! and a participant's admission state is allocated and given back here.
//!
//! Two data-plane tables are keyed by these ids, so they are written
//! where the id is taken and given back: a participant id's L2 XID (its
//! PRE pruning entry) and a tracker slot's Stream Tracker row.

use super::{JoinGrant, MeetingId, ParticipantClass, ParticipantId, Pinfo, SwitchAgent};
use scallop_dataplane::switch::ScallopDataPlane;
use scallop_netsim::packet::HostAddr;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ids released for reuse, handed back **lowest first** in O(log n).
/// Reuse must be a function of the free *set*, never the release
/// *order*: teardown retires ids while iterating hash maps whose order
/// varies per instance, and a deterministic simulation must not let
/// that order leak into the ids later joins receive. Ports, pids and
/// tracker slots are never re-drawn by a recompile, so they match any
/// rebuild of the same roster; MGIDs are — a rebuild frees a tree
/// before drawing one — which is why the fabric check
/// ([`crate::fabric::Fabric::check`]) names trees by their owner
/// instead of comparing MGIDs.
#[derive(Debug, Default, Clone)]
pub struct FreeList<T: Ord>(BinaryHeap<Reverse<T>>);

impl<T: Ord> FreeList<T> {
    /// Return `id` to the pool.
    pub fn push(&mut self, id: T) {
        self.0.push(Reverse(id));
    }

    /// Take the smallest pooled id.
    pub fn take(&mut self) -> Option<T> {
        self.0.pop().map(|Reverse(id)| id)
    }
}

/// One id space, `[first, end)`: the lowest released id first, else the
/// next never-used one. Running past `end` panics — a port past an
/// edge's slice would misroute, a participant id past
/// [`TRUNK_RID_BASE`](scallop_dataplane::switch::TRUNK_RID_BASE) would be
/// accounted as trunk traffic, and a tracker slot past the tracker's
/// capacity would keep no state.
#[derive(Debug, Clone)]
pub(super) struct IdPool {
    what: &'static str,
    first: u32,
    next: u32,
    end: u32,
    free: FreeList<u16>,
}

impl IdPool {
    pub(super) fn new(what: &'static str, first: u16, end: u32) -> Self {
        IdPool {
            what,
            first: first.into(),
            next: first.into(),
            end,
            free: FreeList::default(),
        }
    }

    pub(super) fn take(&mut self) -> u16 {
        self.free.take().unwrap_or_else(|| {
            let id = self.next;
            assert!(
                id < self.end,
                "{} range exhausted (limit {})",
                self.what,
                self.end
            );
            self.next += 1;
            id as u16
        })
    }

    pub(super) fn give(&mut self, id: u16) {
        self.free.push(id);
    }

    /// The ownership rule of one id space, for the fabric check. Every
    /// id in use (`ids`, one item per holder; `in_use` answers the same
    /// set) was drawn from this pool and is not also free, and every id
    /// drawn is held once or free once: none leaked, none freed twice.
    pub(super) fn audit(
        &self,
        ids: impl IntoIterator<Item = u16>,
        in_use: impl Fn(&u16) -> bool,
    ) -> Result<(), String> {
        let what = self.what;
        let mut held = 0;
        for id in ids {
            if !(self.first..self.next).contains(&id.into()) {
                return Err(format!("{what} {id} was never drawn from its pool"));
            }
            held += 1;
        }
        if let Some(Reverse(id)) = self.free.0.iter().find(|Reverse(id)| in_use(id)) {
            return Err(format!("{what} {id} is both free and in use"));
        }
        let (drawn, free) = ((self.next - self.first) as usize, self.free.0.len());
        if held + free != drawn {
            return Err(format!(
                "{drawn} {what}s drawn, but {held} held and {free} free"
            ));
        }
        Ok(())
    }
}

/// Who a port belongs to (the agent's reverse map for CPU-copy routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PortUse {
    VideoUplink(ParticipantId),
    AudioUplink(ParticipantId),
    /// Feedback about `sender`'s video from `receiver`.
    PairVideo {
        sender: ParticipantId,
        receiver: ParticipantId,
    },
    /// Feedback about `sender`'s audio from `receiver`.
    PairAudio {
        sender: ParticipantId,
        receiver: ParticipantId,
    },
    /// Per-edge fabric feedback about `sender` (REMB aggregation sink).
    FeedbackSink {
        sender: ParticipantId,
    },
}

impl SwitchAgent {
    pub(super) fn alloc_port(&mut self, usage: PortUse) -> u16 {
        let p = self.ports.take();
        self.port_use.insert(p, usage);
        p
    }

    /// Retire a port allocated by [`Self::alloc_port`]: drop its usage
    /// entry and data-plane rule, and queue the number for reuse.
    fn release_port(&mut self, dp: &mut ScallopDataPlane, port: u16) {
        if self.port_use.remove(&port).is_some() {
            self.ports.give(port);
        }
        Self::remove_rule(dp, port);
    }

    /// The tracker slot rewriting `sender`'s video toward `receiver`, at
    /// `cadence`: the pair's own slot, or a fresh one with its row
    /// initialised.
    pub(super) fn tracker_slot(
        &mut self,
        dp: &mut ScallopDataPlane,
        sender: ParticipantId,
        receiver: ParticipantId,
        cadence: u16,
    ) -> u16 {
        let idx = match self.pinfo[&receiver].tracker_idx.get(&sender) {
            Some(&i) => i,
            None => {
                let i = self.trackers.take();
                dp.tracker.init_stream(i as usize, cadence);
                let r = self.pinfo.get_mut(&receiver).expect("receiver exists");
                r.tracker_idx.insert(sender, i);
                i
            }
        };
        dp.tracker.set_cadence(idx as usize, cadence);
        idx
    }

    /// Clear a tracker slot's row and free the slot (§6.3 "immediate
    /// cleanup when a stream ends").
    pub(super) fn release_tracker(&mut self, dp: &mut ScallopDataPlane, idx: u16) {
        dp.tracker.clear_stream(idx as usize);
        self.trackers.give(idx);
    }

    /// Allocate a participant's admission state — id, uplink ports,
    /// pair ports, bookkeeping — without compiling the meeting. The
    /// caller compiles once per batch ([`Self::compile_joined`]).
    pub(super) fn admit(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        addr: HostAddr,
        sends: bool,
        class: ParticipantClass,
        fabric_xid: u16,
    ) -> JoinGrant {
        let trunk = class == ParticipantClass::TrunkEgress;
        let pid = if trunk {
            self.trunk_pids.take()
        } else {
            self.pids.take()
        };
        let (video_up, audio_up) = if trunk {
            (0, 0) // receives through trunk branches, has no uplink
        } else {
            (
                self.alloc_port(PortUse::VideoUplink(pid)),
                self.alloc_port(PortUse::AudioUplink(pid)),
            )
        };
        // The participant's abstract egress port (for PRE pruning) is its
        // pid; register the L2 XID -> port mapping once.
        dp.pre.set_l2_xid_ports(pid, pid);
        self.pinfo.insert(
            pid,
            Pinfo {
                meeting,
                class,
                addr,
                sends,
                trunk_dst: HashMap::new(),
                fabric_xid,
                sink_port: None,
                remote_ests: HashMap::new(),
                video_up,
                audio_up,
                dt: 2,
                dt_cap: 2,
                dt_per_sender: HashMap::new(),
                ewma: HashMap::new(),
                pair_from: HashMap::new(),
                tracker_idx: HashMap::new(),
                last_dt_change: None,
            },
        );
        // Allocate pair ports against every existing co-participant, in
        // both directions (each skipped when the would-be sender does
        // not send or the would-be receiver does not receive on this
        // switch).
        let existing = self.take_roster(meeting);
        for &other in &existing {
            self.ensure_pair_ports(other, pid);
            self.ensure_pair_ports(pid, other);
        }
        self.roster = existing;
        self.meetings
            .get_mut(&meeting)
            .expect("meeting exists")
            .participants
            .push(pid);
        JoinGrant {
            participant: pid,
            video_uplink: HostAddr::new(self.sfu_ip, video_up),
            audio_uplink: HostAddr::new(self.sfu_ip, audio_up),
        }
    }

    /// Give back everything [`Self::admit`] and the compile allocated
    /// for `pid` — its ports, tracker slots, L2 XID and id — and scrub
    /// what `meeting`'s other participants held toward it (pairs never
    /// span meetings).
    pub(super) fn retire(
        &mut self,
        dp: &mut ScallopDataPlane,
        meeting: MeetingId,
        pid: ParticipantId,
    ) {
        if let Some(p) = self.pinfo.remove(&pid) {
            self.release_port(dp, p.video_up);
            self.release_port(dp, p.audio_up);
            if let Some(sp) = p.sink_port {
                self.release_port(dp, sp);
            }
            for &(v, a) in p.pair_from.values() {
                self.release_port(dp, v);
                self.release_port(dp, a);
            }
            for (_, idx) in p.tracker_idx {
                self.release_tracker(dp, idx);
            }
            // Recycle the id: pids double as PRE RIDs / L2 XIDs, and a
            // fabric edge under churn would otherwise exhaust them.
            dp.pre.clear_l2_xid_ports(pid);
            if p.class == ParticipantClass::TrunkEgress {
                self.trunk_pids.give(pid);
            } else {
                self.pids.give(pid);
            }
        }
        // Drop pair ports (and trunk destinations) the meeting's other
        // participants held toward `pid`, plus any feedback state keyed
        // by the dead id — a later participant recycling the pid must
        // not inherit another receiver's EWMA history or per-sender
        // decode targets.
        let roster = self.take_roster(meeting);
        for &q in &roster {
            let q = self.pinfo.get_mut(&q).expect("participant tracked");
            let pair = q.pair_from.remove(&pid);
            let tracker = q.tracker_idx.remove(&pid);
            q.trunk_dst.remove(&pid);
            q.ewma.remove(&pid);
            q.dt_per_sender.remove(&pid);
            if let Some(idx) = tracker {
                self.release_tracker(dp, idx);
            }
            if let Some((v, a)) = pair {
                self.release_port(dp, v);
                self.release_port(dp, a);
            }
        }
        self.roster = roster;
    }

    /// Ports `receiver` is served `sender`'s media from.
    fn ensure_pair_ports(&mut self, sender: ParticipantId, receiver: ParticipantId) {
        if !self.receives(receiver) {
            return; // remote senders never receive on this switch
        }
        if !self.pinfo[&sender].sends {
            // No rule, egress spec or feedback gate is ever installed
            // toward a non-sender (trunk egress included): a pair port
            // exists per (sending participant → receiver) stream.
            return;
        }
        if self.skip_fabric_recross(sender, receiver) {
            // Fabric traffic never re-crosses its own tier: a
            // trunk-arrived sender skips trunk branches and a
            // WAN-arrived sender skips WAN branches. The *other* tier's
            // branches are traversed (a WAN-arrived stream fans out
            // over this gateway's intra-zone trunks), so those pairs
            // are still plumbed.
            return;
        }
        if self
            .pinfo
            .get(&receiver)
            .map(|p| p.pair_from.contains_key(&sender))
            .unwrap_or(true)
        {
            return;
        }
        let v = self.alloc_port(PortUse::PairVideo { sender, receiver });
        let a = self.alloc_port(PortUse::PairAudio { sender, receiver });
        self.pinfo
            .get_mut(&receiver)
            .expect("receiver exists")
            .pair_from
            .insert(sender, (v, a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scallop_dataplane::switch::TRUNK_RID_BASE;

    #[test]
    fn pools_hand_out_the_lowest_free_id_then_the_next_new_one() {
        let mut pool = IdPool::new("MGID", 1, 6);
        assert_eq!([pool.take(), pool.take(), pool.take()], [1, 2, 3]);
        pool.give(3);
        pool.give(1);
        assert_eq!([pool.take(), pool.take(), pool.take()], [1, 3, 4]);
        assert_eq!(pool.audit([1, 2, 3, 4], |_| true), Ok(()));
        pool.give(2);
        assert!(pool.audit([1, 2], |&id| id == 2).is_err(), "free and used");
        assert!(pool.audit([5], |_| false).is_err(), "never drawn");
        assert_eq!(pool.take(), 2);
        assert_eq!(pool.take(), 5);
    }

    #[test]
    #[should_panic(expected = "SFU port range exhausted (limit 10002)")]
    fn a_pool_panics_past_its_range() {
        let mut ports = IdPool::new("SFU port", 10_000, 10_002);
        for _ in 0..3 {
            ports.take();
        }
    }

    #[test]
    #[should_panic(expected = "participant id range exhausted")]
    fn local_ids_never_reach_the_trunk_range() {
        let mut agent = SwitchAgent::new(std::net::Ipv4Addr::new(10, 0, 0, 100));
        agent.pids.next = agent.pids.end - 1;
        assert_eq!(agent.pids.take(), TRUNK_RID_BASE - 1);
        agent.pids.take();
    }
}
