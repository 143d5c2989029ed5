//! Access-link model: rate limiting, drop-tail queueing, propagation delay.
//!
//! Every node attaches to the network through an uplink/downlink pair. A
//! [`Link`] is a fluid transmitter: packets serialize one at a time at
//! `rate_bps`, waiting in a bounded drop-tail queue when the transmitter is
//! busy. This produces the congestion signals (queueing delay growth, tail
//! drops) that drive the GCC bandwidth estimator in `scallop-client`,
//! which in turn drives the paper's rate-adaptation experiments (Fig. 14).

use crate::fault::{FaultConfig, FaultInjector};
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Static description of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Transmission rate in bits/s; `0` means infinite (no serialization
    /// delay, no queueing).
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Drop-tail queue capacity in bytes (on-the-wire bytes). Ignored for
    /// infinite-rate links.
    pub queue_bytes: usize,
    /// Fault injection applied after queueing.
    pub faults: FaultConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            rate_bps: 0,
            prop_delay: SimDuration::from_millis(5),
            queue_bytes: 256 * 1024,
            faults: FaultConfig::clean(),
        }
    }
}

impl LinkConfig {
    /// An unconstrained link with the given propagation delay.
    pub fn infinite(prop_delay: SimDuration) -> Self {
        LinkConfig {
            rate_bps: 0,
            prop_delay,
            ..Default::default()
        }
    }

    /// A rate-limited link.
    pub fn with_rate(mut self, rate_bps: u64) -> Self {
        self.rate_bps = rate_bps;
        self
    }

    /// Set the queue capacity in bytes.
    pub fn with_queue_bytes(mut self, b: usize) -> Self {
        self.queue_bytes = b;
        self
    }

    /// Set the fault configuration.
    pub fn with_faults(mut self, f: FaultConfig) -> Self {
        self.faults = f;
        self
    }
}

/// Why a link refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The drop-tail queue was full.
    QueueOverflow,
    /// The fault injector dropped it.
    Fault,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver at the far end at the given time; optionally also deliver a
    /// duplicate at the (possibly different) second time.
    Deliver {
        /// Arrival time of the packet at the far end of the link.
        at: SimTime,
        /// Arrival time of an injected duplicate, if any.
        duplicate_at: Option<SimTime>,
    },
    /// The packet was dropped.
    Drop(DropReason),
}

/// Counters exported by a link for the byte/packet accounting experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered_packets: u64,
    /// Bytes offered (wire bytes).
    pub offered_bytes: u64,
    /// Packets delivered (duplicates excluded).
    pub delivered_packets: u64,
    /// Packets dropped due to queue overflow.
    pub queue_drops: u64,
    /// Packets dropped by fault injection.
    pub fault_drops: u64,
}

/// One direction of an access link.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    injector: FaultInjector,
    /// Time at which the transmitter finishes its current backlog.
    busy_until: SimTime,
    /// Statistics.
    pub stats: LinkStats,
}

impl Link {
    /// Build a link from its configuration.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            injector: FaultInjector::new(config.faults),
            config,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Change the transmission rate at runtime (used to emulate congestion
    /// onset in the Fig. 14 experiment).
    pub fn set_rate_bps(&mut self, rate_bps: u64) {
        self.config.rate_bps = rate_bps;
    }

    /// Replace the fault configuration at runtime.
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.config.faults = faults;
        self.injector.set_config(faults);
    }

    /// Backlog currently queued ahead of a new arrival, in bytes
    /// (0 for infinite-rate links).
    pub fn backlog_bytes(&self, now: SimTime) -> usize {
        // An idle transmitter has nothing queued: 0, as the formula below
        // gives for a zero backlog, without the float math.
        if self.config.rate_bps == 0 || self.busy_until <= now {
            return 0;
        }
        let backlog = self.busy_until.saturating_since(now);
        // bytes = time * rate / 8
        ((backlog.as_secs_f64() * self.config.rate_bps as f64) / 8.0) as usize
    }

    /// Offer one packet of `wire_bytes` to the link at time `now`.
    pub fn offer(&mut self, now: SimTime, wire_bytes: usize, rng: &mut DetRng) -> LinkVerdict {
        self.stats.offered_packets += 1;
        self.stats.offered_bytes += wire_bytes as u64;

        // Drop-tail admission against the current backlog.
        if self.config.rate_bps != 0 {
            let backlog = self.backlog_bytes(now);
            if backlog + wire_bytes > self.config.queue_bytes {
                self.stats.queue_drops += 1;
                return LinkVerdict::Drop(DropReason::QueueOverflow);
            }
        }

        let verdict = self.injector.judge(rng);
        if verdict.dropped {
            self.stats.fault_drops += 1;
            return LinkVerdict::Drop(DropReason::Fault);
        }

        // Serialization: the transmitter is FIFO, so this packet starts when
        // the backlog clears.
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let ser = SimDuration::serialization(wire_bytes, self.config.rate_bps);
        let tx_done = start + ser;
        if self.config.rate_bps != 0 {
            self.busy_until = tx_done;
        }

        let arrival = tx_done + self.config.prop_delay + verdict.extra_delay;
        self.stats.delivered_packets += 1;
        let duplicate_at = if verdict.duplicate {
            // Duplicates trail the original by one serialization time.
            Some(arrival + ser)
        } else {
            None
        };
        LinkVerdict::Deliver {
            at: arrival,
            duplicate_at,
        }
    }

    /// Utilization estimate over an interval: delivered bits / capacity.
    /// Returns `None` for infinite-rate links.
    pub fn utilization(&self, elapsed: SimDuration) -> Option<f64> {
        if self.config.rate_bps == 0 || elapsed == SimDuration::ZERO {
            return None;
        }
        let capacity_bits = self.config.rate_bps as f64 * elapsed.as_secs_f64();
        Some((self.stats.offered_bytes as f64 * 8.0 / capacity_bits).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rate: u64) -> (Link, DetRng) {
        (
            Link::new(
                LinkConfig::infinite(SimDuration::from_millis(10))
                    .with_rate(rate)
                    .with_queue_bytes(10_000),
            ),
            DetRng::new(1),
        )
    }

    #[test]
    fn infinite_link_adds_only_propagation() {
        let (mut link, mut rng) = mk(0);
        match link.offer(SimTime::from_millis(100), 1500, &mut rng) {
            LinkVerdict::Deliver { at, duplicate_at } => {
                assert_eq!(at, SimTime::from_millis(110));
                assert!(duplicate_at.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serialization_delay_applied() {
        // 1250 wire bytes at 1 Mbit/s = 10 ms serialization + 10 ms prop.
        let (mut link, mut rng) = mk(1_000_000);
        match link.offer(SimTime::ZERO, 1250, &mut rng) {
            LinkVerdict::Deliver { at, .. } => assert_eq!(at, SimTime::from_millis(20)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let (mut link, mut rng) = mk(1_000_000);
        // Three back-to-back 1250B packets at t=0: arrivals at 20, 30, 40 ms.
        let mut arrivals = vec![];
        for _ in 0..3 {
            if let LinkVerdict::Deliver { at, .. } = link.offer(SimTime::ZERO, 1250, &mut rng) {
                arrivals.push(at.as_millis_f64());
            }
        }
        assert_eq!(arrivals, vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::ZERO)
                .with_rate(1_000_000)
                .with_queue_bytes(3000),
        );
        let mut rng = DetRng::new(2);
        let mut drops = 0;
        for _ in 0..10 {
            if let LinkVerdict::Drop(DropReason::QueueOverflow) =
                link.offer(SimTime::ZERO, 1250, &mut rng)
            {
                drops += 1;
            }
        }
        assert!(drops >= 7, "expected most packets to overflow, got {drops}");
        assert_eq!(link.stats.queue_drops, drops);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::ZERO)
                .with_rate(1_000_000)
                .with_queue_bytes(2500),
        );
        let mut rng = DetRng::new(3);
        assert!(matches!(
            link.offer(SimTime::ZERO, 1250, &mut rng),
            LinkVerdict::Deliver { .. }
        ));
        assert!(matches!(
            link.offer(SimTime::ZERO, 1250, &mut rng),
            LinkVerdict::Deliver { .. }
        ));
        // Queue full now.
        assert!(matches!(
            link.offer(SimTime::ZERO, 1250, &mut rng),
            LinkVerdict::Drop(DropReason::QueueOverflow)
        ));
        // 20 ms later the backlog has drained; admission succeeds again.
        assert!(matches!(
            link.offer(SimTime::from_millis(20), 1250, &mut rng),
            LinkVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn fault_drop_counted() {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::ZERO)
                .with_faults(FaultConfig::clean().with_loss(1.0)),
        );
        let mut rng = DetRng::new(4);
        assert!(matches!(
            link.offer(SimTime::ZERO, 100, &mut rng),
            LinkVerdict::Drop(DropReason::Fault)
        ));
        assert_eq!(link.stats.fault_drops, 1);
    }

    #[test]
    fn duplicate_scheduled_after_original() {
        let mut link = Link::new(
            LinkConfig::infinite(SimDuration::from_millis(1))
                .with_rate(1_000_000)
                .with_faults(FaultConfig::clean().with_duplication(1.0)),
        );
        let mut rng = DetRng::new(5);
        match link.offer(SimTime::ZERO, 1250, &mut rng) {
            LinkVerdict::Deliver { at, duplicate_at } => {
                let dup = duplicate_at.expect("duplicate expected");
                assert!(dup > at);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn runtime_rate_change_takes_effect() {
        let (mut link, mut rng) = mk(1_000_000);
        link.set_rate_bps(2_000_000);
        match link.offer(SimTime::ZERO, 1250, &mut rng) {
            // 5 ms serialization at 2 Mbit/s + 10 ms prop.
            LinkVerdict::Deliver { at, .. } => assert_eq!(at, SimTime::from_millis(15)),
            other => panic!("unexpected {other:?}"),
        }
    }

    proptest::proptest! {
        /// The idle shortcut returns what the formula does: 0 whenever
        /// the transmitter has drained, the formula's value while busy.
        #[test]
        fn backlog_is_the_formula_busy_or_idle(
            busy in 0u64..10_000_000_000,
            now in 0u64..10_000_000_000,
            rate in 1u64..10_000_000_000,
        ) {
            let (mut link, _) = mk(rate);
            link.busy_until = SimTime::from_nanos(busy);
            let now = SimTime::from_nanos(now);
            let backlog = link.busy_until.saturating_since(now);
            let formula = ((backlog.as_secs_f64() * rate as f64) / 8.0) as usize;
            proptest::prop_assert_eq!(link.backlog_bytes(now), formula);
        }
    }

    #[test]
    fn utilization_reported() {
        let (mut link, mut rng) = mk(1_000_000);
        for _ in 0..10 {
            let _ = link.offer(SimTime::ZERO, 1250, &mut rng);
        }
        // 12_500 bytes = 100_000 bits over 1 s on a 1 Mbit/s link = 10%.
        let u = link.utilization(SimDuration::from_secs(1)).unwrap();
        assert!((u - 0.1).abs() < 1e-9);
        let inf = Link::new(LinkConfig::infinite(SimDuration::ZERO));
        assert!(inf.utilization(SimDuration::from_secs(1)).is_none());
    }
}
