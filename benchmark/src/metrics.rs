//! The names every later change refers to: each metric with its unit,
//! direction, bound and the prediction of what should move it.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two equal.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them; what an *op* and a *call* are is the
/// workload's (see `workloads::WORKLOADS`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Repeats exactly for a seed: `compare` uses `==`, not the bound.
    pub exact: bool,
    /// What it is.
    pub what: &'static str,
}

/// A per-layer metric, from the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name: `crate.module.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload, and
    /// where the prediction is no change.
    pub moves: &'static str,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "wall s to build the world and run its fixed warm-up (fabric build, joins, packet pool, sim settling); median of several set-ups",
    },
    EndToEnd {
        name: "wall_ns_per_op",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "wall ns inside timed calls per op, median over repetitions",
    },
    EndToEnd {
        name: "call_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "wall us of one primary call, median",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
        exact: true,
        what: "heap allocations inside timed calls per op, over the fixed-work segment",
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.12,
        exact: true,
        what: "heap bytes requested inside timed calls per op, over the fixed-work segment",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        what: "VmHWM of the process at the end of the timed pass",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

// `metric@workload` is what the layer should move; `∅` is where the
// prediction is no change.
const SIM: &str =
    "wall_ns_per_op@sim_federation; ∅ fwd_* (packets are built in set-up), ∅ ctl_flashcrowd";
const SIM_SETUP: &str = "wall_ns_per_op@sim_federation, setup_s@fwd_*; ∅ ctl_flashcrowd";
const MIXED: &str =
    "wall_ns_per_op@fwd_mixed; ∅ fwd_fanout (25 ports: the batch cache absorbs them)";
const FANOUT: &str = "wall_ns_per_op@fwd_fanout; ∅ fwd_mixed";
const BOTH_FWD: &str = "wall_ns_per_op, allocs_per_op @fwd_*";
const CTL: &str = "wall_ns_per_op, call_us_p50 @ctl_flashcrowd; ∅ fwd_*";
const DESCRIPTOR: &str = "describes the workload: moves only if inputs or roster change";

/// The per-layer metrics. Units are per-call rates (`ns/pkt`, `us/join`)
/// so that a layer a workload does not exercise reads 0 without looking
/// like a constant clock reading.
pub const PER_LAYER: [PerLayer; 77] = [
    layer("proto.rtp.parse_ns", "ns/pkt", Lower, SIM),
    layer("proto.rtp.serialize_ns", "ns/pkt", Lower, SIM),
    layer("proto.rtcp.parse_ns", "ns/pkt", Lower, SIM),
    layer("proto.demux.classify_ns", "ns/pkt", Lower, SIM),
    layer("media.encoder.produce_ns", "ns/frame", Lower, SIM_SETUP),
    layer("media.packetizer.packetize_ns", "ns/frame", Lower, SIM_SETUP),
    layer("media.decoder.on_packet_ns", "ns/pkt", Lower, SIM),
    layer("client.gcc.on_packet_ns", "ns/pkt", Lower, SIM),
    layer("dataplane.parser.parse_ns", "ns/pkt", Lower, "wall_ns_per_op@fwd_mixed; small @fwd_fanout"),
    layer("dataplane.parser.max_depth", "count", Lower, DESCRIPTOR),
    layer("dataplane.tables.port_lookup_ns", "ns/lookup", Lower, MIXED),
    layer("dataplane.soa.port_lookup_ns", "ns/lookup", Lower, MIXED),
    layer("dataplane.soa.dense_hit_share", "share", Higher, MIXED),
    layer("dataplane.batch.port_cache_hit_share", "share", Higher, MIXED),
    layer("dataplane.pre.replicate_ns_per_replica", "ns/replica", Lower, FANOUT),
    layer("dataplane.pre.replicas_per_pkt", "count", Lower, DESCRIPTOR),
    layer("dataplane.batch.pre_cache_hit_share", "share", Higher, FANOUT),
    layer("dataplane.tables.egress_lookup_ns", "ns/lookup", Lower, FANOUT),
    layer("dataplane.batch.egress_cache_hit_share", "share", Higher, FANOUT),
    layer("dataplane.seqrewrite.process_ns", "ns/call", Lower, "wall_ns_per_op@fwd_* (every replica on fwd_fanout; the pinned receivers' T0 replicas on fwd_mixed)"),
    layer("dataplane.seqrewrite.suppress_share", "share", Lower, DESCRIPTOR),
    layer("dataplane.switch.batch_ns_per_pkt", "ns/pkt", Lower, BOTH_FWD),
    layer("dataplane.switch.residual_ns_per_pkt", "ns/pkt", Lower, BOTH_FWD),
    layer("dataplane.switch.residual_share", "share", Lower, BOTH_FWD),
    layer("dataplane.switch.cpu_punt_share", "share", Lower, DESCRIPTOR),
    layer("dataplane.switch.no_rule_drops", "count", Lower, "must stay 0: any drop fails its burst"),
    layer("dataplane.switch.unknown_drops", "count", Lower, "equals the unparseable packets injected"),
    layer("dataplane.switch.install_ns", "ns/install", Lower, CTL),
    layer("dataplane.switch.installs_per_join", "count", Lower, CTL),
    layer("dataplane.switch.removals_per_leave", "count", Lower, CTL),
    layer("dataplane.switch.tree_allocs_per_join", "count", Lower, CTL),
    layer("netsim.sim.events", "count", Lower, "wall_ns_per_op, allocs_per_op @sim_federation; ∅ elsewhere"),
    layer("netsim.sim.wall_ns_per_event", "ns/event", Lower, SIM),
    layer("netsim.sim.events_per_delivered_pkt", "count", Lower, SIM),
    layer("netsim.sim.queue_ns_per_event", "ns/event", Lower, SIM),
    layer("netsim.sim.pending_events_p50", "count", Lower, SIM),
    layer("netsim.sim.workers2_ratio", "ratio", Higher, "reported, never gated: wall(1 worker) / wall(2 workers) on a 3-sim-s replay"),
    layer("netsim.link.offer_ns", "ns/pkt", Lower, SIM),
    layer("netsim.link.drop_share", "share", Lower, DESCRIPTOR),
    layer("netsim.relay.relayed_pkts", "count", Lower, DESCRIPTOR),
    layer("netsim.relay.unroutable_pkts", "count", Lower, "must stay 0: any unroutable packet fails every stream"),
    layer("core.switchnode.ns_per_pkt", "ns/pkt", Lower, SIM),
    layer("core.switchnode.wall_share", "share", Lower, "the data plane's share of sim_federation wall time: a minority"),
    layer("core.agent.join_us", "us/join", Lower, CTL),
    layer("core.agent.leave_us", "us/leave", Lower, CTL),
    layer("core.agent.graft_share", "share", Higher, CTL),
    layer("core.agent.prune_share", "share", Higher, CTL),
    layer("core.agent.cpu_packet_ns", "ns/pkt", Lower, SIM),
    layer("core.agent.tick_ns", "ns/tick", Lower, SIM),
    layer("core.agent.dt_changes", "count", Lower, DESCRIPTOR),
    layer("core.controller.self_us_per_join", "us/join", Lower, CTL),
    layer("core.capacity.fits_ns", "ns/call", Lower, CTL),
    layer("core.capacity.thin_share", "share", Lower, "must stay 0: a thinned join is a failed op"),
    layer("core.capacity.refused_share", "share", Lower, "must stay 0: a refused join is a failed op"),
    layer("core.shard.route_ns", "ns/call", Lower, CTL),
    layer("core.shard.forward_share", "share", Lower, DESCRIPTOR),
    layer("core.shard.handoffs", "count", Lower, DESCRIPTOR),
    layer("core.fabric.build_ms", "ms/build", Lower, "setup_s on ctl_flashcrowd and sim_federation"),
    layer("workload.campus.generate_ms", "ms/run", Lower, "setup_s@sim_federation"),
    layer("ctl.join_us_p50", "us/join", Lower, "call_us_p50@ctl_flashcrowd measured on the traced pass"),
    layer("ctl.join_us_p99", "us/join", Lower, "tail of call_us_p50@ctl_flashcrowd, measured on the traced pass"),
    layer("ctl.leave_us_p50", "us/leave", Lower, "wall_ns_per_op@ctl_flashcrowd"),
    layer("ctl.burst_join_ms_p50", "ms/burst", Lower, "wall_ns_per_op@ctl_flashcrowd"),
    layer("sim.s_per_wall_s", "s/s", Higher, "1e6 / wall_ns_per_op@sim_federation"),
    layer("sim.strict_stream_share", "share", Higher, "streams of unimpaired meetings (held to 25 fps) / all streams; the rest must only keep receiving packets"),
    layer("sim.rx_fps_p10", "fps", Higher, "simulated result: repeats exactly for a seed"),
    layer("sim.freeze_share", "share", Lower, "simulated result: repeats exactly for a seed"),
    layer("sim.stalled_share", "share", Lower, "streams decoding under 1 fps (all in impaired meetings); simulated result: repeats exactly for a seed"),
    layer("sim.rtt_ms_p50", "sim_ms", Lower, "simulated result (Fig. 19's forwarding-induced latency): repeats exactly for a seed"),
    layer("bench.media_pkts", "count", Lower, "must stay 0 on ctl_flashcrowd"),
    layer("bench.explained_share", "share", Higher, "layer time / end-to-end wall of the traced calls; the remainder is a finding"),
    layer("bench.trace_overhead_share", "share", Lower, "traced / untraced ns per op of the same calls, minus 1"),
    layer("bench.call_us_p99", "us/call", Lower, "tail of call_us_p50: 99th percentile of the primary call on the untraced reference world; too noisy on the shared sandbox to carry a bound"),
    layer("bench.traced_ns_per_op", "ns/op", Lower, "wall_ns_per_op as seen by the traced pass"),
    layer("bench.untraced_ns_per_op", "ns/op", Lower, "wall_ns_per_op of the traced pass's untraced reference world"),
    layer("bench.spans", "count", Lower, "spans recorded"),
    layer("bench.ops", "count", Higher, "ops done in the traced pass"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is `describe`'s output, checked in.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let checked_in =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(checked_in, crate::report::benchmark_json());
        let keys: Vec<&str> = checked_in
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 * 1024);
    }
}
