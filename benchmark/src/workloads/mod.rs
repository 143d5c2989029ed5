//! The four workloads and the two passes every workload gets.
//!
//! A *call* is one timed call into the system (one `process_batch` burst,
//! one 10-sim-ms `run_for`, one control-plane call). A *repetition* is a
//! fixed group of calls (one pass over the burst pool, one simulated
//! second, one flash-crowd cycle) and is the unit medians are taken over.
//! An *op* is what a repetition's cost is divided by (ingress packet,
//! simulated millisecond, membership change).
//!
//! The **timed pass** builds several worlds, one after the other, from
//! seeds derived from `--seed` (set-up time is a metric, and it is their
//! median). On each it runs a fixed number of repetitions with the
//! allocation counter on (work that repeats exactly for a seed: the source
//! of the counts and of the fingerprint), then repeats for its share of
//! `--seconds` with nothing but two clock reads around each call. The **traced pass** does
//! the same fixed work on two fresh worlds, one untraced and one recording
//! spans and layer replays, requires their fingerprints to be identical,
//! and derives the per-layer metrics from the spans.

pub mod ctl;
pub mod fwd;
pub mod sim;

use crate::alloc::{self, AllocCount};
use crate::stats::{self, Summary};
use crate::sut::FwdKind;
use crate::trace::{SpanId, Tracer};
use std::time::{Duration, Instant};

/// What every pass is told.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Size factor applied to populations, pools and fixed work (1 = the
    /// sizes in the README; tests use 0.01).
    pub scale: f64,
}

/// A workload: name, reason, and how to build its world.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// What one op is.
    pub op: &'static str,
    /// What one timed call is.
    pub call: &'static str,
    run: fn(&RunConfig, bool) -> Pass,
}

impl Workload {
    /// Untraced pass: the end-to-end metrics.
    pub fn timed(&self, cfg: &RunConfig) -> Pass {
        (self.run)(cfg, false)
    }

    /// Traced pass: the per-layer metrics and the spans.
    pub fn traced(&self, cfg: &RunConfig) -> Pass {
        (self.run)(cfg, true)
    }
}

/// Either pass of the workload whose world `build` makes.
fn run<W: World>(cfg: &RunConfig, traced: bool, build: impl Fn(&RunConfig, bool) -> W) -> Pass {
    if traced {
        traced_pass(cfg, build)
    } else {
        timed_pass(cfg, build)
    }
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fwd_fanout",
        why: "one 25-party all-sending meeting, whole frames: replication, egress and per-replica sequence rewrite do the work, per-batch caches hit, parser and port match are a small share",
        op: "ingress packet",
        call: "process_batch on one 125-packet burst",
        run: |cfg, traced| run(cfg, traced, |c, t| fwd::FwdRun::new(FwdKind::Fanout, c, t)),
    },
    Workload {
        name: "fwd_mixed",
        why: "400 three-party meetings, small mixed packets over 1200 senders: parse and port match dominate, fan-out is 2, batch caches mostly miss, suppress and CPU-punt paths run",
        op: "ingress packet",
        call: "process_batch on one 128-packet burst",
        run: |cfg, traced| run(cfg, traced, |c, t| fwd::FwdRun::new(FwdKind::Mixed, c, t)),
    },
    Workload {
        name: "sim_federation",
        why: "40 meetings on a 3-zone federation with live clients, constrained and lossy links: the whole system as a researcher runs it; event queue, clients and links dominate",
        op: "simulated millisecond",
        call: "Simulator::run_for(10 ms)",
        run: |cfg, traced| run(cfg, traced, sim::SimRun::new),
    },
    Workload {
        name: "ctl_flashcrowd",
        why: "flash-crowd joins, a webinar burst and shuffled leaves on a 4-edge fabric with the ledger armed: the write side of the tables; agent compile, controller, shard routing, installs; no media",
        op: "membership change",
        call: "one admission-checked join",
        run: |cfg, traced| run(cfg, traced, ctl::CtlRun::new),
    },
];

/// What a world must offer the two passes.
pub trait World {
    /// Repetitions in the fixed-work segment at `scale`.
    fn fixed_reps(scale: f64) -> usize;

    /// One repetition: make its calls through `rec`.
    fn rep(&mut self, rec: &mut Recorder);

    /// Counters that must repeat exactly for a seed after the same
    /// number of repetitions.
    fn fingerprint(&mut self) -> Vec<(&'static str, u64)>;

    /// Operations attempted and failed so far.
    fn verdict(&mut self) -> (u64, u64);

    /// Per-layer metrics, from the traced recorder's spans and the
    /// world's own counters.
    fn layers(&mut self, rec: &Recorder, out: &mut Vec<(&'static str, f64)>);
}

/// Times calls, and optionally counts their allocations and records spans.
pub struct Recorder {
    /// Wall ns of every primary call.
    pub calls: Vec<f64>,
    /// Wall ns per op of every repetition.
    pub reps: Vec<f64>,
    /// Ops done.
    pub ops: u64,
    /// Wall ns spent inside timed calls.
    pub wall_ns: u64,
    /// Allocations made inside timed calls while counting.
    pub allocs: AllocCount,
    /// Spans, in the traced pass.
    pub tracer: Option<Tracer>,
    counting: bool,
    rep_ns: u64,
    next_op: u64,
}

impl Recorder {
    fn new(tracer: Option<Tracer>) -> Self {
        Recorder {
            calls: Vec::new(),
            reps: Vec::new(),
            ops: 0,
            wall_ns: 0,
            allocs: AllocCount::default(),
            tracer,
            counting: false,
            rep_ns: 0,
            next_op: 0,
        }
    }

    /// A fresh operation id, shared by the spans of one operation.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Time `f` as a call into the system. `primary` calls are the ones
    /// `call_us_p50` is taken over. Returns `f`'s result and, when tracing,
    /// the call's span.
    #[inline]
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        primary: bool,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<SpanId>) {
        let (r, start, end) = if self.counting {
            let start = Instant::now();
            let (r, a) = alloc::counted(f);
            let end = Instant::now();
            self.allocs += a;
            (r, start, end)
        } else {
            let start = Instant::now();
            let r = f();
            (r, start, Instant::now())
        };
        let ns = (end - start).as_nanos() as u64;
        self.rep_ns += ns;
        if primary {
            self.calls.push(ns as f64);
        }
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.record(name, None, op, start, end));
        (r, span)
    }

    /// Close a repetition that did `ops` ops.
    pub fn end_rep(&mut self, ops: u64) {
        self.reps.push(self.rep_ns as f64 / ops as f64);
        self.ops += ops;
        self.wall_ns += self.rep_ns;
        self.rep_ns = 0;
    }

    /// Median ns per op over repetitions.
    pub fn ns_per_op(&self) -> Summary {
        stats::summarize(&mut self.reps.clone())
    }
}

/// One pass's outcome.
pub struct Pass {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Quartiles and sample counts of the timings, for the printed table.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Counters of the fixed-work segment.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// The spans, in the traced pass.
    pub tracer: Option<Tracer>,
}

fn run_fixed<W: World>(world: &mut W, rec: &mut Recorder, cfg: &RunConfig) {
    for _ in 0..W::fixed_reps(cfg.scale) {
        world.rep(rec);
    }
}

fn run_for<W: World>(world: &mut W, rec: &mut Recorder, seconds: f64) {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        world.rep(rec);
        if Instant::now() >= until {
            break;
        }
    }
}

/// Restart the kernel's high-water mark of this process's resident set,
/// so that a pass run after others (all workloads in one process) reports
/// its own peak. Best effort: where the kernel refuses, the peak stays
/// the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worlds per timed pass. Each is built from its own seed derived from
/// `--seed` and measured for an equal share of `--seconds`: set-up time is
/// the median of the builds, and the timing medians pool every world's
/// repetitions, so one placement of meetings onto edges (which changes
/// how much work a simulated second is) does not decide the run.
const WORLDS: u64 = 4;

/// Wall time per world within which set-up is repeated.
const SETUP_BUDGET: Duration = Duration::from_millis(300);

/// The seed of the `j`-th world of a run seeded `seed`.
fn world_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(WORLDS).wrapping_add(j)
}

/// Calls per chunk when the tail percentile is taken chunk by chunk.
const TAIL_CHUNK: usize = 1_000;

/// The 99th percentile of `calls` (in time order), robust to a burst of
/// interference from the host: the median over consecutive chunks of each
/// chunk's own 99th percentile.
fn chunked_p99(calls: &[f64]) -> f64 {
    let chunks = (calls.len() / TAIL_CHUNK).clamp(1, 64);
    let size = calls.len().div_ceil(chunks);
    let mut tails: Vec<f64> = calls
        .chunks(size)
        .map(|c| stats::tail(&mut c.to_vec(), 99.0))
        .collect();
    stats::summarize(&mut tails).median
}

fn timed_pass<W: World>(cfg: &RunConfig, build: impl Fn(&RunConfig, bool) -> W) -> Pass {
    reset_peak_rss();
    let mut setup_s = Vec::new();
    let mut rec = Recorder::new(None);
    let mut fixed_allocs = AllocCount::default();
    let (mut fixed_ops, mut attempted, mut failed) = (0, 0, 0);
    let mut fingerprint = Vec::new();
    for j in 0..WORLDS {
        let sub = RunConfig {
            seed: world_seed(cfg.seed, j),
            ..*cfg
        };
        // A world that is cheap to set up is set up again until
        // `SETUP_BUDGET` has gone by, so that the median has samples.
        let began = Instant::now();
        let (mut world, fixed) = loop {
            let t = Instant::now();
            let mut world = build(&sub, false);
            let mut fixed = Recorder::new(None);
            fixed.counting = true;
            run_fixed(&mut world, &mut fixed, &sub);
            setup_s.push(t.elapsed().as_secs_f64());
            if began.elapsed() >= SETUP_BUDGET {
                break (world, fixed);
            }
        };
        if j == 0 {
            fingerprint = world.fingerprint();
        }
        fixed_allocs += fixed.allocs;
        fixed_ops += fixed.ops;

        run_for(&mut world, &mut rec, cfg.seconds / WORLDS as f64);
        let (a, f) = world.verdict();
        attempted += a;
        failed += f;
    }

    let setup = stats::summarize(&mut setup_s);
    let per_op = rec.ns_per_op();
    let mut calls_us: Vec<f64> = rec.calls.iter().map(|ns| ns / 1e3).collect();
    let calls = stats::summarize(&mut calls_us);
    let metrics = vec![
        ("setup_s", setup.median),
        ("wall_ns_per_op", per_op.median),
        ("call_us_p50", calls.median),
        (
            "allocs_per_op",
            fixed_allocs.allocs as f64 / fixed_ops as f64,
        ),
        (
            "alloc_bytes_per_op",
            fixed_allocs.bytes as f64 / fixed_ops as f64,
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    Pass {
        attempted,
        failed,
        metrics,
        summaries: vec![
            ("setup_s", setup),
            ("wall_ns_per_op", per_op),
            ("call_us_p50", calls),
        ],
        fingerprint,
        tracer: None,
    }
}

/// Share of `--seconds` the traced pass spends on its untraced reference.
const REFERENCE_SHARE: f64 = 0.2;

fn traced_pass<W: World>(cfg: &RunConfig, build: impl Fn(&RunConfig, bool) -> W) -> Pass {
    // The timed pass's first world.
    let cfg = &RunConfig {
        seed: world_seed(cfg.seed, 0),
        ..*cfg
    };
    // Untraced reference: same fixed work, then a short timed stretch.
    let mut reference = build(cfg, false);
    let mut rec = Recorder::new(None);
    run_fixed(&mut reference, &mut rec, cfg);
    let expected = reference.fingerprint();
    let mut rec = Recorder::new(None);
    run_for(&mut reference, &mut rec, cfg.seconds * REFERENCE_SHARE);
    let untraced = rec.ns_per_op();
    let reference_calls_us: Vec<f64> = rec.calls.iter().map(|ns| ns / 1e3).collect();
    drop(reference);

    let mut world = build(cfg, true);
    let mut rec = Recorder::new(Some(Tracer::with_capacity(1 << 16)));
    run_fixed(&mut world, &mut rec, cfg);
    let fingerprint = world.fingerprint();
    assert_eq!(
        fingerprint, expected,
        "tracing changed what the system did: the run is invalid"
    );
    run_for(&mut world, &mut rec, cfg.seconds * (1.0 - REFERENCE_SHARE));

    let (attempted, failed) = world.verdict();
    let traced = rec.ns_per_op();
    let spans = rec.tracer.as_ref().map_or(0, |t| t.spans().len());
    let mut metrics = vec![
        (
            "bench.trace_overhead_share",
            traced.median / untraced.median - 1.0,
        ),
        ("bench.call_us_p99", chunked_p99(&reference_calls_us)),
        ("bench.traced_ns_per_op", traced.median),
        ("bench.untraced_ns_per_op", untraced.median),
        ("bench.spans", spans as f64),
        ("bench.ops", rec.ops as f64),
    ];
    world.layers(&rec, &mut metrics);
    Pass {
        attempted,
        failed,
        metrics,
        summaries: vec![
            ("bench.untraced_ns_per_op", untraced),
            ("bench.traced_ns_per_op", traced),
        ],
        fingerprint,
        tracer: rec.tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    const TINY: RunConfig = RunConfig {
        seed: 7,
        seconds: 0.05,
        scale: 0.01,
    };

    /// Build one world and run its fixed-work segment only.
    fn fixed_only<W: World>(
        cfg: &RunConfig,
        build: impl Fn(&RunConfig, bool) -> W,
    ) -> (Vec<(&'static str, u64)>, u64, u64) {
        let mut world = build(cfg, false);
        let mut rec = Recorder::new(None);
        run_fixed(&mut world, &mut rec, cfg);
        let fingerprint = world.fingerprint();
        let (attempted, failed) = world.verdict();
        (fingerprint, attempted, failed)
    }

    fn fixed(name: &str, cfg: &RunConfig) -> (Vec<(&'static str, u64)>, u64, u64) {
        match name {
            "fwd_fanout" => fixed_only(cfg, |c, t| fwd::FwdRun::new(FwdKind::Fanout, c, t)),
            "fwd_mixed" => fixed_only(cfg, |c, t| fwd::FwdRun::new(FwdKind::Mixed, c, t)),
            "sim_federation" => fixed_only(cfg, sim::SimRun::new),
            "ctl_flashcrowd" => fixed_only(cfg, ctl::CtlRun::new),
            other => panic!("no workload {other}"),
        }
    }

    #[test]
    fn every_workload_is_deterministic_for_a_seed_and_differs_across_seeds() {
        for w in &WORKLOADS {
            let (a, attempted, failed) = fixed(w.name, &TINY);
            assert!(attempted > 0, "{}", w.name);
            assert_eq!(failed, 0, "{}", w.name);
            let (b, _, failed_again) = fixed(w.name, &TINY);
            assert_eq!(failed_again, 0, "{}", w.name);
            assert_eq!(a, b, "{}: same seed, different counters", w.name);
            let other = RunConfig { seed: 8, ..TINY };
            let (c, _, failed_other) = fixed(w.name, &other);
            assert_eq!(failed_other, 0, "{}", w.name);
            assert_ne!(a, c, "{}: another seed, same counters", w.name);
        }
    }

    #[test]
    fn both_passes_report_every_metric_they_owe() {
        for w in &WORKLOADS {
            let timed = w.timed(&TINY);
            assert_eq!(timed.failed, 0, "{}", w.name);
            for m in &END_TO_END {
                let v = timed.metrics.iter().find(|(n, _)| *n == m.name);
                let (_, v) = v.unwrap_or_else(|| panic!("{}: no {}", w.name, m.name));
                assert!(v.is_finite() && *v > 0.0, "{}: {} = {v}", w.name, m.name);
            }
            let traced = w.traced(&TINY);
            assert_eq!(traced.failed, 0, "{}", w.name);
            assert_eq!(timed.fingerprint, traced.fingerprint, "{}", w.name);
            assert!(traced
                .tracer
                .as_ref()
                .is_some_and(|t| !t.spans().is_empty()));
            for (name, v) in &traced.metrics {
                assert!(
                    PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not in the table"
                );
                assert!(v.is_finite(), "{}: {name} = {v}", w.name);
            }
        }
    }

    #[test]
    fn chunked_p99_ignores_one_bad_stretch() {
        // 10 000 calls of ~100 with a 1 % tail of 200, and one stretch of
        // 400 disturbed calls that a plain p99 would report.
        let mut calls: Vec<f64> = (0..10_000)
            .map(|i| {
                if i % 100 == 99 {
                    200.0
                } else {
                    100.0 + (i % 7) as f64
                }
            })
            .collect();
        for c in &mut calls[3_000..3_400] {
            *c = 5_000.0;
        }
        let robust = chunked_p99(&calls);
        assert!((100.0..=200.0).contains(&robust), "{robust}");
        assert!(stats::tail(&mut calls.clone(), 99.0) >= 5_000.0);
    }
}
