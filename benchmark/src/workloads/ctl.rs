//! `ctl_flashcrowd`: the control plane's write side, no media.

use super::{Recorder, RunConfig, World};
use crate::stats;
use crate::sut::{probe_installs, Crowd, CtlCounts, CtlWorld};

/// Edges of the control world; the shadow agent replays one of them.
const EDGES: u64 = 4;

/// The control world and the counters of its fixed-work segment.
pub struct CtlRun {
    world: CtlWorld,
    fixed: CtlCounts,
    fixed_handoffs: u64,
}

impl CtlRun {
    /// Build the fabric and plane; the traced world adds the shadow agent.
    pub fn new(cfg: &RunConfig, traced: bool) -> Self {
        CtlRun {
            world: CtlWorld::build(cfg.seed, cfg.scale, traced),
            fixed: CtlCounts::default(),
            fixed_handoffs: 0,
        }
    }
}

impl World for CtlRun {
    fn fixed_reps(scale: f64) -> usize {
        ((20.0 * scale).round() as usize).max(2)
    }

    /// One cycle: create → flash crowd join by join → rebalance → webinar
    /// as one burst → everyone leaves in shuffled order → drained check.
    /// Every plane call is timed; the single joins are the primary calls.
    fn rep(&mut self, rec: &mut Recorder) {
        let w = &mut self.world;
        let traced = rec.tracer.is_some();
        let op = rec.next_op();
        rec.timed("core.shard.create_fabric_meeting", false, op, || {
            w.create_meeting(Crowd::Storm)
        });
        if traced {
            w.shadow_create(Crowd::Storm);
            w.shadow_create(Crowd::Webinar);
        }
        w.begin_phase();
        for k in 0..w.crowd_size(Crowd::Storm) {
            let op = rec.next_op();
            let (_, span) = rec.timed("core.shard.try_join_fabric", true, op, || w.join(k));
            if let (Some(span), Some(tracer)) = (span, rec.tracer.as_mut()) {
                w.shadow_join(k, tracer, span, op);
            }
        }
        let op = rec.next_op();
        rec.timed("core.shard.rebalance_fabric", false, op, || w.rebalance());
        let op = rec.next_op();
        rec.timed("core.shard.create_fabric_meeting", false, op, || {
            w.create_meeting(Crowd::Webinar)
        });
        let op = rec.next_op();
        let (_, span) = rec.timed("core.shard.join_fabric_many", false, op, || w.burst_join());
        if let (Some(span), Some(tracer)) = (span, rec.tracer.as_mut()) {
            w.shadow_burst(tracer, span, op);
        }
        w.end_phase(true);

        let joined = w.members() as u64;
        w.shuffle_leaves();
        w.begin_phase();
        while w.members() > 0 {
            let op = rec.next_op();
            let (_, span) = rec.timed("core.shard.leave_fabric", false, op, || w.leave());
            if let (Some(span), Some(tracer)) = (span, rec.tracer.as_mut()) {
                w.shadow_leave(tracer, span, op);
            }
        }
        w.end_phase(false);
        w.end_cycle(2 * joined);
        rec.end_rep(2 * joined);
    }

    fn fingerprint(&mut self) -> Vec<(&'static str, u64)> {
        self.fixed = self.world.counts();
        self.fixed_handoffs = self.world.admission().4;
        self.world.fingerprint()
    }

    fn verdict(&mut self) -> (u64, u64) {
        let c = self.world.counts();
        (c.joins + c.burst_joins + c.leaves, c.failed)
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Vec<(&'static str, f64)>) {
        // Probes first, on a tracer of their own: one span each.
        let mut probes = crate::trace::Tracer::with_capacity(8);
        const PROBE_CALLS: u64 = 200_000;
        self.world.probe_fits(PROBE_CALLS, &mut probes);
        self.world.probe_route(PROBE_CALLS, &mut probes);
        probe_installs(PROBE_CALLS, &mut probes);
        let probe_ns = |name: &str| {
            probes.totals().get(name).map_or(0.0, |t| t.total_ns as f64) / PROBE_CALLS as f64
        };

        let tracer = rec.tracer.as_ref().expect("traced pass");
        let totals = tracer.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let mean_us = |ns: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                ns as f64 / n as f64 / 1e3
            }
        };
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let durations_us = |name: &str| -> Vec<f64> {
            tracer
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e3)
                .collect()
        };
        let c = self.world.counts();
        let (full, thin, refused, forwards, _) = self.world.admission();
        let (grafts, prunes) = self.world.shadow_compile_counts();
        // The shadow plays one edge, so only that edge's joins have a
        // replay child: the controller's share is taken over those.
        let spans = tracer.spans();
        let (mut replayed, mut plane_of_replayed, mut agent_of_replayed) = (0u64, 0u64, 0u64);
        for s in spans.iter().filter(|s| s.name == "core.agent.join") {
            let parent = &spans[s.parent.expect("a replay has a parent") as usize];
            replayed += 1;
            plane_of_replayed += parent.duration_ns();
            agent_of_replayed += s.duration_ns();
        }
        let agent_join = get("core.agent.join");
        let agent_leave = get("core.agent.leave");
        let mut joins = durations_us("core.shard.try_join_fabric");
        let mut leaves = durations_us("core.shard.leave_fabric");
        let mut bursts = durations_us("core.shard.join_fabric_many");
        // Explained: what the shadow edge's agent accounts for, scaled to
        // all edges, over the plane calls' wall time. The probes explain
        // nothing of the cycle and are left out.
        let sum = |prefix: &str| -> u64 {
            totals
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, t)| t.total_ns)
                .sum()
        };
        let (plane_ns, shadow_ns) = (sum("core.shard."), sum("core.agent.") * EDGES);
        out.extend([
            ("ctl.join_us_p50", stats::summarize(&mut joins).median),
            ("ctl.join_us_p99", stats::tail(&mut joins, 99.0)),
            ("ctl.leave_us_p50", stats::summarize(&mut leaves).median),
            (
                "ctl.burst_join_ms_p50",
                stats::summarize(&mut bursts).median / 1e3,
            ),
            (
                "core.agent.join_us",
                mean_us(agent_join.total_ns, agent_join.spans),
            ),
            (
                "core.agent.leave_us",
                mean_us(agent_leave.total_ns, agent_leave.spans),
            ),
            ("core.agent.graft_share", per(grafts, agent_join.spans)),
            ("core.agent.prune_share", per(prunes, agent_leave.spans)),
            (
                "core.controller.self_us_per_join",
                mean_us(
                    plane_of_replayed.saturating_sub(agent_of_replayed),
                    replayed,
                ),
            ),
            ("core.capacity.fits_ns", probe_ns("core.capacity.fits")),
            ("core.capacity.thin_share", per(thin, full + thin + refused)),
            (
                "core.capacity.refused_share",
                per(refused, full + thin + refused),
            ),
            ("core.shard.route_ns", probe_ns("core.shard.route")),
            (
                "core.shard.forward_share",
                per(forwards, c.joins + c.burst_joins),
            ),
            ("core.shard.handoffs", self.fixed_handoffs as f64),
            (
                "core.fabric.build_ms",
                self.world.fabric_build_ns() as f64 / 1e6,
            ),
            (
                "dataplane.switch.install_ns",
                probe_ns("dataplane.switch.install"),
            ),
            (
                "dataplane.switch.installs_per_join",
                per(c.installs, c.joins + c.burst_joins),
            ),
            (
                "dataplane.switch.removals_per_leave",
                per(c.removals, c.leaves),
            ),
            (
                "dataplane.switch.tree_allocs_per_join",
                per(c.tree_allocs, c.joins + c.burst_joins),
            ),
            ("bench.media_pkts", c.media_pkts as f64),
            ("bench.explained_share", per(shadow_ns, plane_ns)),
        ]);
    }
}
