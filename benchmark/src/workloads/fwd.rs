//! `fwd_fanout` and `fwd_mixed`: bursts through one data plane.

use super::{Recorder, RunConfig, World};
use crate::sut::{FwdCounts, FwdKind, FwdWorld};

/// A forwarding world and the counters of its fixed-work segment.
pub struct FwdRun {
    world: FwdWorld,
    fixed: FwdCounts,
}

impl FwdRun {
    /// Build the world for `kind` from the run's seed and scale.
    pub fn new(kind: FwdKind, cfg: &RunConfig, _traced: bool) -> Self {
        FwdRun {
            world: FwdWorld::build(kind, cfg.seed, cfg.scale),
            fixed: FwdCounts::default(),
        }
    }
}

impl World for FwdRun {
    fn fixed_reps(_scale: f64) -> usize {
        2
    }

    /// One pass over the pool: media is regenerated first, outside any
    /// timed region, so every stream continues in order.
    fn rep(&mut self, rec: &mut Recorder) {
        self.world.refill();
        let mut pkts = 0;
        for i in 0..self.world.bursts() {
            let op = rec.next_op();
            let (_, span) = rec.timed("dataplane.switch.process_batch", true, op, || {
                self.world.forward(i)
            });
            self.world.check(i);
            if let (Some(span), Some(tracer)) = (span, rec.tracer.as_mut()) {
                self.world.replay(i, tracer, span, op);
            }
            pkts += self.world.burst_pkts(i) as u64;
        }
        rec.end_rep(pkts);
    }

    fn fingerprint(&mut self) -> Vec<(&'static str, u64)> {
        self.fixed = self.world.counts();
        self.world.fingerprint()
    }

    fn verdict(&mut self) -> (u64, u64) {
        (self.world.counts().pkts, self.world.failed())
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Vec<(&'static str, f64)>) {
        let totals = rec.tracer.as_ref().expect("traced pass").totals();
        let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let share = |part: u64, rest: u64| per(part as f64, part + rest);
        let c = self.world.counts();
        let r = self.world.replay_counts();
        let batch = totals
            .get("dataplane.switch.process_batch")
            .copied()
            .unwrap_or_default();
        let port_lookups = c.dense_lookups + c.exact_port_lookups;
        out.extend([
            (
                "dataplane.parser.parse_ns",
                per(ns("dataplane.parser.parse"), r.parsed),
            ),
            ("dataplane.parser.max_depth", c.max_parse_depth as f64),
            (
                "dataplane.tables.port_lookup_ns",
                per(ns("dataplane.tables.port_lookup"), r.exact_lookups),
            ),
            (
                "dataplane.soa.port_lookup_ns",
                per(ns("dataplane.soa.port_lookup"), r.dense_lookups),
            ),
            (
                "dataplane.soa.dense_hit_share",
                share(c.dense_lookups, c.exact_port_lookups),
            ),
            (
                "dataplane.batch.port_cache_hit_share",
                share(c.port_cache_hits, port_lookups),
            ),
            (
                "dataplane.pre.replicate_ns_per_replica",
                per(ns("dataplane.pre.replicate"), r.replicas),
            ),
            (
                "dataplane.pre.replicas_per_pkt",
                per(c.forwarded as f64, c.pkts),
            ),
            (
                "dataplane.batch.pre_cache_hit_share",
                share(c.pre_cache_hits, c.pre_walks),
            ),
            (
                "dataplane.tables.egress_lookup_ns",
                per(ns("dataplane.tables.egress_lookup"), r.egress_lookups),
            ),
            (
                "dataplane.batch.egress_cache_hit_share",
                share(c.egress_cache_hits, c.egress_lookups),
            ),
            (
                "dataplane.seqrewrite.process_ns",
                per(ns("dataplane.seqrewrite.process"), r.tracker_calls),
            ),
            (
                "dataplane.seqrewrite.suppress_share",
                share(c.suppressed, c.forwarded),
            ),
            (
                "dataplane.switch.batch_ns_per_pkt",
                per(batch.total_ns as f64, c.pkts),
            ),
            (
                "dataplane.switch.residual_ns_per_pkt",
                per(batch.self_ns as f64, c.pkts),
            ),
            (
                "dataplane.switch.residual_share",
                per(batch.self_ns as f64, batch.total_ns),
            ),
            (
                "dataplane.switch.cpu_punt_share",
                per(c.punts as f64, c.pkts),
            ),
            (
                "dataplane.switch.no_rule_drops",
                self.fixed.no_rule_drops as f64,
            ),
            (
                "dataplane.switch.unknown_drops",
                self.fixed.unknown_drops as f64,
            ),
            (
                "bench.explained_share",
                per((batch.total_ns - batch.self_ns) as f64, batch.total_ns),
            ),
        ]);
    }
}
