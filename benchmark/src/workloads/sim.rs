//! `sim_federation`: the whole system, as a researcher runs it.

use super::{Recorder, RunConfig, World};
use crate::stats;
use crate::sut::{probe_sim_layers, SimCounts, SimWorld};
use crate::trace::Tracer;
use std::time::Instant;

/// Simulated milliseconds per timed call and per repetition.
const CALL_MS: u64 = 10;
const REP_MS: u64 = 1_000;
/// Simulated seconds of the worker-count replay.
const WORKERS_REPLAY_MS: u64 = 3_000;

/// The federated world, its fixed-segment counters and queue samples.
pub struct SimRun {
    world: SimWorld,
    cfg: RunConfig,
    fixed: SimCounts,
    /// Counters when the world was handed over, after settling.
    built: SimCounts,
    pending: Vec<f64>,
}

impl SimRun {
    /// Build and settle the federation.
    pub fn new(cfg: &RunConfig, _traced: bool) -> Self {
        let mut world = SimWorld::build(cfg.seed, cfg.scale, 1);
        let built = world.counts();
        SimRun {
            world,
            cfg: *cfg,
            fixed: SimCounts::default(),
            built,
            pending: Vec::new(),
        }
    }
}

impl World for SimRun {
    fn fixed_reps(scale: f64) -> usize {
        ((2.0 * scale).ceil() as usize).max(1)
    }

    /// One simulated second in 10 ms calls.
    fn rep(&mut self, rec: &mut Recorder) {
        for _ in 0..REP_MS / CALL_MS {
            let op = rec.next_op();
            rec.timed("netsim.sim.run_for", true, op, || {
                self.world.advance(CALL_MS)
            });
        }
        self.pending.push(self.world.pending_events() as f64);
        rec.end_rep(REP_MS);
    }

    fn fingerprint(&mut self) -> Vec<(&'static str, u64)> {
        self.fixed = self.world.counts();
        self.world.fingerprint()
    }

    fn verdict(&mut self) -> (u64, u64) {
        let q = self.world.quality();
        (q.streams, q.failed)
    }

    fn layers(&mut self, rec: &Recorder, out: &mut Vec<(&'static str, f64)>) {
        let q = self.world.quality();
        let now = self.world.counts();
        let per = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        // Work done while this recorder was timing (since the hand-over).
        let d = |f: fn(&SimCounts) -> u64| (f(&now) - f(&self.built)) as f64;
        let wall = rec.wall_ns as f64;
        let events = d(|c| c.events);

        // Each layer alone, then scaled by how often the workload used it.
        let mut probes = Tracer::with_capacity(32);
        let calls = probe_sim_layers(self.cfg.scale, &mut probes);
        let totals = probes.totals();
        let cost = |name: &str| {
            per(
                totals.get(name).map_or(0.0, |t| t.total_ns as f64),
                calls.calls(name) as f64,
            )
        };
        let queue = cost("netsim.sim.queue");
        // The switch-node probe's wall includes its own event-queue work.
        let node_wall = totals
            .get("core.switchnode.run")
            .map_or(0.0, |t| t.total_ns as f64);
        let node_pkts = calls.calls("core.switchnode.pkts") as f64;
        let node_events = calls.calls("core.switchnode.run") as f64;
        let switchnode = per((node_wall - node_events * queue).max(0.0), node_pkts);
        let rx = d(|c| c.client_rx_pkts);
        let tx = d(|c| c.client_tx_pkts);
        let frames = d(|c| c.frames_encoded);
        let ticks = d(|c| c.sim_ns) / 1e8 * 6.0;
        let explained = events * queue
            + 2.0 * d(|c| c.delivered) * cost("netsim.link.offer")
            + tx * cost("proto.rtp.serialize")
            + frames * (cost("media.encoder.produce") + cost("media.packetizer.packetize"))
            + rx * (cost("proto.demux.classify")
                + cost("proto.rtp.parse")
                + cost("media.decoder.on_packet")
                + cost("client.gcc.on_packet"))
            + d(|c| c.rtcp_pkts) * cost("proto.rtcp.parse")
            + d(|c| c.switch_in_pkts) * switchnode
            + d(|c| c.cpu_pkts) * cost("core.agent.cpu_packet")
            + ticks * cost("core.agent.tick");

        // The worker-count question: the same settled world stepped for
        // the same simulated stretch with one worker and with two.
        let replay = |workers: usize| {
            let mut w = SimWorld::build(self.cfg.seed, self.cfg.scale, workers);
            let t = Instant::now();
            w.advance(WORKERS_REPLAY_MS);
            (t.elapsed().as_secs_f64(), w.counts().events)
        };
        let (one, events_one) = replay(1);
        let (two, events_two) = replay(2);
        assert_eq!(events_one, events_two, "worker count changed the run");

        let fixed = |f: fn(&SimCounts) -> u64| (f(&self.fixed) - f(&self.built)) as f64;
        out.extend([
            ("sim.s_per_wall_s", per(d(|c| c.sim_ns), wall)),
            (
                "sim.strict_stream_share",
                per(q.strict_streams as f64, q.streams as f64),
            ),
            ("sim.rx_fps_p10", q.rx_fps_p10),
            ("sim.freeze_share", q.freeze_share),
            ("sim.stalled_share", q.stalled_share),
            ("sim.rtt_ms_p50", q.rtt_ms_p50),
            ("proto.rtp.parse_ns", cost("proto.rtp.parse")),
            ("proto.rtp.serialize_ns", cost("proto.rtp.serialize")),
            ("proto.rtcp.parse_ns", cost("proto.rtcp.parse")),
            ("proto.demux.classify_ns", cost("proto.demux.classify")),
            ("media.encoder.produce_ns", cost("media.encoder.produce")),
            (
                "media.packetizer.packetize_ns",
                cost("media.packetizer.packetize"),
            ),
            (
                "media.decoder.on_packet_ns",
                cost("media.decoder.on_packet"),
            ),
            ("client.gcc.on_packet_ns", cost("client.gcc.on_packet")),
            ("netsim.sim.events", fixed(|c| c.events)),
            ("netsim.sim.wall_ns_per_event", per(wall, events)),
            (
                "netsim.sim.events_per_delivered_pkt",
                per(events, d(|c| c.delivered)),
            ),
            ("netsim.sim.queue_ns_per_event", queue),
            (
                "netsim.sim.pending_events_p50",
                stats::summarize(&mut self.pending.clone()).median,
            ),
            ("netsim.link.offer_ns", cost("netsim.link.offer")),
            (
                "netsim.link.drop_share",
                per(d(|c| c.dropped), d(|c| c.dropped) + d(|c| c.delivered)),
            ),
            ("netsim.relay.relayed_pkts", fixed(|c| c.relayed_pkts)),
            ("netsim.relay.unroutable_pkts", now.relay_unroutable as f64),
            ("netsim.sim.workers2_ratio", per(one, two)),
            ("core.switchnode.ns_per_pkt", switchnode),
            (
                "core.switchnode.wall_share",
                per(d(|c| c.switch_in_pkts) * switchnode, wall),
            ),
            ("core.agent.cpu_packet_ns", cost("core.agent.cpu_packet")),
            ("core.agent.tick_ns", cost("core.agent.tick")),
            ("core.agent.dt_changes", now.dt_changes as f64),
            (
                "core.fabric.build_ms",
                self.world.fabric_build_ns() as f64 / 1e6,
            ),
            (
                "workload.campus.generate_ms",
                self.world.generate_ns() as f64 / 1e6,
            ),
            ("bench.explained_share", per(explained, wall)),
        ]);
    }
}
