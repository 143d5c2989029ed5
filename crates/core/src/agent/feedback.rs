//! The CPU path (§5.2–5.4): feedback copies punted by the data plane,
//! the §5.3 best-downlink filter and the REMB gates it programs, fabric
//! REMB aggregation at a sender's feedback sink, decode-target changes,
//! STUN and extended dependency descriptors. The filter's one pick per
//! sender, [`SwitchAgent::remb_gate_holder`], is what the tick and every
//! compile path compare each receiver with.

use super::alloc::PortUse;
use super::{MeetingId, ParticipantClass, ParticipantId, SwitchAgent, EWMA_ALPHA};
use scallop_dataplane::rules::PortRule;
use scallop_dataplane::switch::ScallopDataPlane;
use scallop_netsim::packet::{HostAddr, Packet};
use scallop_netsim::stats::Ewma;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_proto::av1::{DependencyDescriptor, DD_EXTENSION_ID};
use scallop_proto::demux::{classify, PacketClass};
use scallop_proto::rtcp::{self, RtcpRef};
use scallop_proto::rtp::RtpView;
use scallop_proto::stun::{self, StunView};
use std::net::Ipv4Addr;

impl SwitchAgent {
    /// Allocate (idempotently) the feedback-sink port for local sender
    /// `sender`: a CPU-only port remote edges forward their per-edge
    /// selected REMB and NACK/PLI to. Activating the sink switches the
    /// sender's REMB source to the agent's fabric-wide min-aggregate
    /// (§5.3's single selection, one level up), so direct REMB
    /// forwarding on the sender's local pair ports is disabled here.
    pub(crate) fn feedback_sink(
        &mut self,
        dp: &mut ScallopDataPlane,
        sender: ParticipantId,
    ) -> u16 {
        let p = self.pinfo.get(&sender).expect("sender tracked");
        debug_assert!(p.sends, "feedback sink only serves senders");
        if let Some(port) = p.sink_port {
            return port;
        }
        let meeting = p.meeting;
        let port = self.alloc_port(PortUse::FeedbackSink { sender });
        Self::install_rule(dp, port, PortRule::FeedbackSink);
        self.pinfo.get_mut(&sender).unwrap().sink_port = Some(port);
        // Take over REMB forwarding immediately: local pairs stop
        // forwarding raw REMBs the moment remote edges start reporting.
        if let Some(m) = self.meetings.get(&meeting) {
            for &r in &m.participants {
                let p = &self.pinfo[&r];
                if r != sender
                    && p.class == ParticipantClass::Local
                    && p.pair_from.contains_key(&sender)
                {
                    self.install_feedback_rules(dp, sender, r, false);
                }
            }
        }
        port
    }

    /// Forget the REMB estimate previously reported by the remote edge
    /// at `edge_ip` for `sender` (its segment was garbage-collected; a
    /// stale estimate must not cap the aggregate forever).
    pub(crate) fn clear_remote_est(&mut self, sender: ParticipantId, edge_ip: Ipv4Addr) {
        if let Some(p) = self.pinfo.get_mut(&sender) {
            p.remote_ests.remove(&edge_ip);
        }
    }

    /// The receiver whose pair may forward sender `s`'s REMB: none
    /// while `s` has a feedback sink (its home edge aggregates REMBs
    /// fabric-wide), else its best downlink among `participants`. One
    /// roster scan, which each compile path makes once per sender.
    pub(super) fn remb_gate_holder(
        &self,
        s: ParticipantId,
        participants: &[ParticipantId],
    ) -> Option<ParticipantId> {
        let sink = self.pinfo[&s].sink_port.is_some();
        (!sink).then(|| self.best_downlink_among(s, participants))?
    }

    /// Sender `s`'s best downlink in `participants` (initially: the first receiver).
    fn best_downlink_among(
        &self,
        s: ParticipantId,
        participants: &[ParticipantId],
    ) -> Option<ParticipantId> {
        let mut best: Option<(ParticipantId, f64)> = None;
        // Only local receivers compete: a trunk-egress branch reports no
        // feedback here (the remote edge runs its own filter), and a
        // remote sender receives nothing on this switch. Decode-capped
        // (SVC-thin) receivers are excluded too — they receive a
        // deliberately reduced layer set, so their estimates reflect
        // the cap, not the downlink; feeding them back to the sender
        // would drag the encoder below what full receivers can use.
        for &r in participants.iter().filter(|&&r| {
            r != s && self.pinfo[&r].class == ParticipantClass::Local && self.pinfo[&r].dt_cap >= 2
        }) {
            let score = self.pinfo[&r]
                .ewma
                .get(&s)
                .and_then(|e| e.value())
                .unwrap_or(f64::MAX); // unknown downlinks treated as best
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((r, score));
            }
        }
        best.map(|(r, _)| r)
    }

    /// Install/refresh feedback-forwarding rules for (s → r) pair ports.
    pub(super) fn install_feedback_rules(
        &self,
        dp: &mut ScallopDataPlane,
        s: ParticipantId,
        r: ParticipantId,
        remb_allowed: bool,
    ) {
        let (vp, ap) = self.pinfo[&r].pair_from[&s];
        let s_addr = self.pinfo[&s].addr;
        let rewrite_index = self.pinfo[&r].tracker_idx.get(&s).copied();
        let (s_video_up, s_audio_up) = (self.pinfo[&s].video_up, self.pinfo[&s].audio_up);
        let video = PortRule::ReceiverFeedback {
            sender_addr: s_addr,
            forward_src: HostAddr::new(self.sfu_ip, s_video_up),
            remb_allowed,
            rewrite_index,
        };
        let audio = PortRule::ReceiverFeedback {
            sender_addr: s_addr,
            forward_src: HostAddr::new(self.sfu_ip, s_audio_up),
            remb_allowed: false, // audio RRs are absorbed
            rewrite_index: None,
        };
        Self::install_rule(dp, vp, video);
        Self::install_rule(dp, ap, audio);
    }

    /// Handle one CPU-port packet; returns the packets the agent sends
    /// back through the data plane (STUN responses, aggregate REMBs,
    /// relayed NACK/PLI), to be drained before the next call.
    pub fn handle_cpu_packet(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        dp: &mut ScallopDataPlane,
    ) -> std::vec::Drain<'_, Packet> {
        self.out.clear();
        match classify(&pkt.payload) {
            PacketClass::Stun => {
                if let Ok(msg) = StunView::new(&pkt.payload) {
                    if msg.is_request() {
                        self.counters.stun_answered += 1;
                        let (to, txid) = (pkt.src, msg.transaction_id);
                        let resp = self
                            .pool
                            .build(|v| stun::write_binding_success(v, txid, to.ip, to.port));
                        self.out.push(Packet::new(pkt.dst, to, resp));
                    }
                }
            }
            PacketClass::Rtcp => self.handle_feedback_copy(now, pkt, dp),
            PacketClass::Rtp => self.handle_extended_dd(pkt),
            PacketClass::Unknown => {}
        }
        self.out.drain(..)
    }

    fn handle_extended_dd(&mut self, pkt: &Packet) {
        let Ok(view) = RtpView::new(&pkt.payload) else {
            return;
        };
        let Ok(Some(dd_bytes)) = view.find_extension(DD_EXTENSION_ID) else {
            return;
        };
        let Ok(dd) = DependencyDescriptor::parse(dd_bytes) else {
            return;
        };
        if dd.structure.is_some() {
            self.counters.dds_analyzed += 1;
        }
    }

    fn handle_feedback_copy(&mut self, now: SimTime, pkt: &Packet, dp: &mut ScallopDataPlane) {
        let Ok(pkts) = rtcp::read_compound(&pkt.payload) else {
            return;
        };
        let (sender, receiver) = match self.port_use.get(&pkt.dst.port) {
            Some(&PortUse::PairVideo { sender, receiver }) => (sender, receiver),
            Some(&PortUse::FeedbackSink { sender }) => {
                return self.handle_sink_copy(sender, pkt);
            }
            _ => {
                // Audio feedback / unknown ports: count RRs and move on.
                self.counters.rrs_analyzed +=
                    pkts.filter(|p| matches!(p, RtcpRef::Rr { .. })).count() as u64;
                return;
            }
        };
        let mut saw_remb = false;
        for p in pkts {
            match p {
                RtcpRef::Rr { .. } => self.counters.rrs_analyzed += 1,
                RtcpRef::Remb { bitrate_bps, .. } => {
                    self.counters.rembs_analyzed += 1;
                    saw_remb = true;
                    let (curr_dt, new_dt, dwell_ok) = {
                        let pr = self.pinfo.get_mut(&receiver).expect("receiver known");
                        let smoothed = pr
                            .ewma
                            .entry(sender)
                            .or_insert_with(|| Ewma::new(EWMA_ALPHA))
                            .update(bitrate_bps as f64);
                        let curr = pr.dt;
                        // Asymmetric damping (fast down, slow up): a
                        // single collapsed REMB may reflect real queue
                        // growth and must shed layers quickly; climbing
                        // back doubles the offered load instantly, so it
                        // requires a *sustained* high smoothed estimate.
                        let decision_est = (smoothed as u64).min(bitrate_bps);
                        // An admission-imposed cap bounds what the
                        // policy may climb to (SVC-thin stays thin).
                        let new = (self.policy)(curr, decision_est).min(pr.dt_cap);
                        // Down-switches shed load and must be fast; an
                        // up-switch doubles the offered load with no way
                        // to probe headroom first (the switch cannot send
                        // padding), so it is attempted rarely.
                        let dwell = if new < curr {
                            SimDuration::from_millis(500)
                        } else {
                            SimDuration::from_millis(12_000)
                        };
                        let dwell_ok = pr
                            .last_dt_change
                            .map(|t| now.saturating_since(t) >= dwell)
                            .unwrap_or(true);
                        (curr, new, dwell_ok)
                    };
                    if new_dt != curr_dt && dwell_ok {
                        self.apply_dt_change(dp, receiver, new_dt);
                        if let Some(pr) = self.pinfo.get_mut(&receiver) {
                            pr.last_dt_change = Some(now);
                        }
                    }
                }
                _ => {}
            }
        }
        // A sink-aggregating sender hears the min-aggregate instead of
        // raw per-receiver REMBs (the data plane filters those); a new
        // local estimate may move the aggregate, so re-emit it.
        if saw_remb
            && self
                .pinfo
                .get(&sender)
                .is_some_and(|p| p.sink_port.is_some())
        {
            self.emit_aggregate_remb(sender);
        }
    }

    /// Handle a CPU copy punted off the feedback-sink port: record the
    /// reporting edge's REMB estimate, min-aggregate across all edges
    /// (and the local filter's best downlink), and re-emit toward the
    /// sender; NACK/PLI ride through verbatim, re-addressed as if the
    /// home edge had forwarded them directly.
    fn handle_sink_copy(&mut self, sender: ParticipantId, pkt: &Packet) {
        let Ok(pkts) = rtcp::read_compound(&pkt.payload) else {
            return;
        };
        let Some(p) = self.pinfo.get_mut(&sender) else {
            return;
        };
        let (s_addr, s_video_up) = (p.addr, p.video_up);
        let mut saw_remb = false;
        let mut passthrough = false;
        for r in pkts.clone() {
            match r {
                RtcpRef::Remb { bitrate_bps, .. } => {
                    self.counters.rembs_analyzed += 1;
                    saw_remb = true;
                    // One estimate per reporting edge (the remote edge
                    // already selected its best downlink).
                    p.remote_ests.insert(pkt.src.ip, bitrate_bps);
                }
                RtcpRef::Rr { .. } => self.counters.rrs_analyzed += 1,
                _ => passthrough = true,
            }
        }
        if passthrough {
            // NACK packet-ids were already de-rewritten by the remote
            // edge (the trunk carries unrewritten media), so they pass
            // through untouched.
            let relayed = self.pool.build(|v| {
                for r in pkts.filter(|r| !matches!(r, RtcpRef::Remb { .. } | RtcpRef::Rr { .. })) {
                    r.write_into(v);
                }
            });
            self.out.push(Packet::new(
                HostAddr::new(self.sfu_ip, s_video_up),
                s_addr,
                relayed,
            ));
        }
        if saw_remb {
            self.emit_aggregate_remb(sender);
        }
    }

    /// The fabric-wide REMB for a sink-aggregating sender: the minimum
    /// of the local filter's best-downlink estimate and every remote
    /// edge's reported estimate — the whole fabric behaves like one
    /// switch running the §5.3 single-selection filter. Emits nothing
    /// until at least one component is known.
    fn emit_aggregate_remb(&mut self, sender: ParticipantId) {
        let (meeting, s_addr, s_video_up, remote) = {
            let Some(p) = self.pinfo.get(&sender) else {
                return;
            };
            (
                p.meeting,
                p.addr,
                p.video_up,
                p.remote_ests.values().copied().min(),
            )
        };
        let local = (self.meetings.get(&meeting))
            .and_then(|m| self.best_downlink_among(sender, &m.participants))
            .and_then(|r| self.pinfo[&r].ewma.get(&sender))
            .and_then(|e| e.value())
            .map(|v| v as u64);
        let agg = match (local, remote) {
            (Some(l), Some(r)) => l.min(r),
            (Some(l), None) => l,
            (None, Some(r)) => r,
            (None, None) => return,
        };
        self.counters.rembs_aggregated += 1;
        let payload = self.pool.build(|v| rtcp::write_remb(v, 0, agg, []));
        self.out.push(Packet::new(
            HostAddr::new(self.sfu_ip, s_video_up),
            s_addr,
            payload,
        ));
    }

    /// Cap a receiver's decode target from above (SVC-thin admission,
    /// §5.4 semantics): the current target is lowered to the cap
    /// immediately, and rate adaptation may later move it further down
    /// but never back above the cap; lowering it is a decode-target
    /// change ([`Self::apply_dt_change`]).
    pub fn set_dt_cap(&mut self, dp: &mut ScallopDataPlane, receiver: ParticipantId, cap: u8) {
        let target = match self.pinfo.get_mut(&receiver) {
            Some(p) => {
                p.dt_cap = cap;
                p.dt.min(cap)
            }
            None => return,
        };
        self.apply_dt_change(dp, receiver, target);
    }

    /// Apply a receiver-specific decode-target change (§5.4), migrating
    /// NRA ↔ RA-R when the design flips: amended in place, writing only
    /// what it moves, where a rebuild would install the same tree set
    /// (`try_amend_dt`); rebuilt otherwise.
    pub fn apply_dt_change(&mut self, dp: &mut ScallopDataPlane, receiver: ParticipantId, dt: u8) {
        let (meeting, old) = match self.pinfo.get_mut(&receiver) {
            Some(p) => {
                if p.dt == dt || p.class == ParticipantClass::TrunkEgress {
                    // Trunk branches always carry full quality; remote
                    // receivers adapt on their own edge.
                    return;
                }
                (p.meeting, std::mem::replace(&mut p.dt, dt))
            }
            None => return,
        };
        self.counters.dt_changes += 1;
        if !self.try_amend_dt(dp, meeting, receiver, old) {
            self.counters.dt_rebuilds += 1;
            self.rebuild_meeting(dp, meeting);
        }
    }

    /// Set a sender-receiver-specific decode target (forces RA-SR).
    pub fn set_sender_dt(
        &mut self,
        dp: &mut ScallopDataPlane,
        sender: ParticipantId,
        receiver: ParticipantId,
        dt: u8,
    ) {
        let meeting = match self.pinfo.get_mut(&receiver) {
            Some(p) => {
                p.dt_per_sender.insert(sender, dt);
                p.meeting
            }
            None => return,
        };
        self.counters.dt_changes += 1;
        self.counters.dt_rebuilds += 1;
        self.rebuild_meeting(dp, meeting);
    }

    /// Periodic agent work (§5.3): re-evaluate the feedback filter and
    /// reprogram REMB forwarding toward each sender.
    pub fn tick(&mut self, _now: SimTime, dp: &mut ScallopDataPlane) {
        let mut next = self.meetings.keys().next().copied();
        while let Some(mid) = next {
            self.refresh_feedback_gates(dp, mid);
            next = self.meetings.range(mid + 1..).next().map(|(&mid, _)| mid);
        }
    }

    /// Re-run the §5.3 feedback filter for every sender of one meeting,
    /// reprogramming only the pair rules whose REMB gate is missing or
    /// wrong, each counted as a filter update. [`Self::tick`] calls it,
    /// and so does the delta compiler, where a full rebuild would have
    /// recomputed every gate as a side effect.
    pub(super) fn refresh_feedback_gates(&mut self, dp: &mut ScallopDataPlane, meeting: MeetingId) {
        let Some(m) = self.meetings.get(&meeting) else {
            return;
        };
        let participants = &m.participants;
        let mut updates = 0;
        for &s in participants {
            if !self.pinfo[&s].sends {
                continue;
            }
            let holder = self.remb_gate_holder(s, participants);
            for &r in participants {
                if r == s
                    || self.pinfo[&r].class != ParticipantClass::Local
                    || !self.pinfo[&r].pair_from.contains_key(&s)
                {
                    continue;
                }
                let allowed = holder == Some(r);
                let (vp, _) = self.pinfo[&r].pair_from[&s];
                let open = match dp.port_rules.peek(&vp) {
                    Some(PortRule::ReceiverFeedback { remb_allowed, .. }) => Some(*remb_allowed),
                    _ => None,
                };
                // Only touch the rule when the gate actually changes.
                if open != Some(allowed) {
                    updates += 1;
                    self.install_feedback_rules(dp, s, r, allowed);
                }
            }
        }
        self.counters.filter_updates += updates;
    }
}
