//! Server CPU cost model for the software SFU.
//!
//! §2.2: "software packet processing is subject to operating-system level
//! delay artifacts stemming from scheduling, context switches,
//! interrupts … copying significant amounts of data among socket
//! buffers". The model bills every forwarded packet three costs:
//!
//! 1. **Service time** on a core (`per_packet`): the core is a FIFO
//!    server; when offered load exceeds `1/per_packet` packets/s the run
//!    queue — and therefore the queueing delay — grows without bound,
//!    which is exactly the Fig. 3/4 overload regime.
//! 2. **Pass-through latency** (`base_latency`): the socket-read →
//!    process → socket-write path cost that exists even on an idle
//!    server (the reason Fig. 19's MediaSoup CDF sits hundreds of
//!    microseconds right of Scallop's).
//! 3. **Scheduling jitter**: exponential noise whose mean scales with
//!    the current queueing delay — context switches hurt more on a busy
//!    box.
//!
//! Packets whose queueing delay exceeds `max_queue_delay` are dropped
//! (socket buffer overflow).
//!
//! ## Calibration (documented, DESIGN.md §4)
//!
//! One core saturates at ≈97,000 packets/s (`per_packet` = 10.3 µs).
//! A 10-party all-sending meeting offers ≈28,500 pkt/s to the SFU
//! (285 pkt/s per participant uplink, ×9 replication on egress), i.e.
//! ≈142.5 pkt/s per stream over its 200 streams — so a core saturates at
//! ≈680 streams and degrades visibly from ≈60 % load, matching the
//! paper's ≈1,200-stream-per-core envelope for the lighter average
//! campus mix (not all participants send video at once) and the Fig. 3/4
//! collapse with 6–8 ten-party meetings on one core.

use scallop_netsim::rng::DetRng;
use scallop_netsim::time::{SimDuration, SimTime};

/// CPU model configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-packet service time on a core.
    pub per_packet: SimDuration,
    /// Idle pass-through latency (syscalls, copies, wakeups).
    pub base_latency: SimDuration,
    /// Mean of the exponential scheduling jitter at idle.
    pub jitter_mean: SimDuration,
    /// Drop packets that would wait longer than this.
    pub max_queue_delay: SimDuration,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 1,
            per_packet: SimDuration::from_nanos(10_300),
            base_latency: SimDuration::from_micros(220),
            jitter_mean: SimDuration::from_micros(90),
            max_queue_delay: SimDuration::from_millis(300),
        }
    }
}

/// CPU statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuStats {
    /// Packets serviced.
    pub processed: u64,
    /// Packets dropped on queue overflow.
    pub dropped: u64,
    /// Cumulative busy time across cores (utilization accounting).
    pub busy: SimDuration,
}

/// The CPU model.
#[derive(Debug)]
pub struct CpuModel {
    cfg: CpuConfig,
    /// Per-core transmit-queue horizon.
    busy_until: Vec<SimTime>,
    /// Statistics.
    pub stats: CpuStats,
    started_at: Option<SimTime>,
}

impl CpuModel {
    /// Build a model.
    pub fn new(cfg: CpuConfig) -> Self {
        CpuModel {
            busy_until: vec![SimTime::ZERO; cfg.cores],
            cfg,
            stats: CpuStats::default(),
            started_at: None,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Service one packet on the core selected by `flow_hash`
    /// (flow-pinned scheduling, as SFU workers do). Returns the time the
    /// packet leaves the server, or `None` when it is dropped.
    pub fn service(&mut self, now: SimTime, flow_hash: usize, rng: &mut DetRng) -> Option<SimTime> {
        self.started_at.get_or_insert(now);
        let core = flow_hash % self.busy_until.len();
        let busy = &mut self.busy_until[core];
        let queue_wait = busy.saturating_since(now);
        if queue_wait > self.cfg.max_queue_delay {
            self.stats.dropped += 1;
            return None;
        }
        let start = (*busy).max(now);
        *busy = start + self.cfg.per_packet;
        self.stats.processed += 1;
        self.stats.busy += self.cfg.per_packet;

        // Scheduling jitter grows with how congested the run queue is.
        let load_scale = 1.0 + queue_wait.as_millis_f64();
        let jitter =
            SimDuration::from_secs_f64(rng.exp(self.cfg.jitter_mean.as_secs_f64() * load_scale));
        Some(start + self.cfg.per_packet + self.cfg.base_latency + jitter)
    }

    /// Average utilization since the first serviced packet.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let Some(t0) = self.started_at else {
            return 0.0;
        };
        let elapsed = now.saturating_since(t0).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        (self.stats.busy.as_secs_f64() / (elapsed * self.cfg.cores as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_latency_is_base_plus_jitter() {
        let mut cpu = CpuModel::new(CpuConfig::default());
        let mut rng = DetRng::new(1);
        let now = SimTime::from_secs(1);
        let mut total = 0.0;
        let n = 1000;
        for i in 0..n {
            // Space packets far apart: no queueing.
            let t = now + SimDuration::from_millis(10 * i);
            let done = cpu.service(t, 0, &mut rng).unwrap();
            total += done.saturating_since(t).as_micros_f64();
        }
        let mean = total / n as f64;
        // per_packet 10.3 + base 220 + jitter 90 = ~320 µs.
        assert!((250.0..420.0).contains(&mean), "mean latency {mean}µs");
    }

    #[test]
    fn overload_grows_queue_then_drops() {
        let mut cpu = CpuModel::new(CpuConfig::default());
        let mut rng = DetRng::new(2);
        let now = SimTime::from_secs(1);
        // Offer 200k packets at one instant: far beyond 1 core's budget.
        let mut dropped = 0;
        let mut last_done = SimTime::ZERO;
        for _ in 0..200_000 {
            match cpu.service(now, 0, &mut rng) {
                Some(d) => last_done = last_done.max(d),
                None => dropped += 1,
            }
        }
        assert!(dropped > 100_000, "most packets must drop, got {dropped}");
        // Accepted backlog is bounded by max_queue_delay (plus service,
        // base latency, and the load-scaled jitter tail) — far below the
        // ~2 s an unbounded queue would reach.
        assert!(last_done.saturating_since(now) <= SimDuration::from_millis(800));
    }

    #[test]
    fn cores_are_independent() {
        let mut cpu = CpuModel::new(CpuConfig {
            cores: 2,
            ..CpuConfig::default()
        });
        let mut rng = DetRng::new(3);
        let now = SimTime::from_secs(1);
        // Saturate core 0: its queue is full, the next packet is dropped.
        for _ in 0..40_000 {
            let _ = cpu.service(now, 0, &mut rng);
        }
        assert_eq!(cpu.service(now, 0, &mut rng), None);
        // Core 1 still serves promptly.
        let done = cpu.service(now, 1, &mut rng).unwrap();
        assert!(done.saturating_since(now) < SimDuration::from_millis(5));
    }

    #[test]
    fn utilization_tracks_load() {
        let mut cpu = CpuModel::new(CpuConfig::default());
        let mut rng = DetRng::new(4);
        // 50k packets over 1 second at 10.3 µs each = ~51% of one core.
        for i in 0..50_000u64 {
            let t = SimTime::from_nanos(i * 20_000);
            let _ = cpu.service(t, 0, &mut rng);
        }
        let u = cpu.utilization(SimTime::from_secs(1));
        assert!((0.4..0.65).contains(&u), "utilization {u}");
    }

    #[test]
    fn saturation_point_matches_calibration() {
        // One core's saturation rate must be ~1/per_packet = 97k pkt/s.
        let cfg = CpuConfig::default();
        let rate = 1.0 / cfg.per_packet.as_secs_f64();
        assert!((90_000.0..105_000.0).contains(&rate), "rate {rate}");
    }
}
