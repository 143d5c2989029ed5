//! Receiver-side Google Congestion Control (GCC, §5.2).
//!
//! The paper adopts GCC's receiver-driven mode: each receiver estimates
//! available bandwidth from packet arrival-time variation and reports it
//! periodically via REMB. This module implements the three classic GCC
//! stages in their modern (trendline) form:
//!
//! 1. **Arrival filter**: packets are coalesced into 5 ms send-time
//!    groups; each group yields an inter-group delay-variation sample
//!    `(Δarrival − Δsend)`.
//! 2. **Trendline over-use detector**: a linear regression over the
//!    smoothed accumulated delay estimates the queueing-delay gradient;
//!    an adaptive threshold (the `γ` update of Carlucci et al.) converts
//!    it into Normal / Overuse / Underuse signals.
//! 3. **AIMD remote-rate controller**: multiplicative increase far from
//!    convergence, additive near it, and a `0.85 × measured rate`
//!    backoff on over-use.
//!
//! Simplifications (documented): groups are keyed by fixed 5 ms
//! send-time buckets rather than burst heuristics, and the additive
//! increase uses a response-time constant rather than a full RTT
//! estimate. Neither affects the closed-loop property the experiments
//! need: the estimate converges just below link capacity and tracks
//! capacity drops within a few seconds (Fig. 14).

use scallop_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// GCC tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct GccConfig {
    /// Initial bandwidth estimate.
    pub start_bitrate_bps: f64,
    /// Estimate floor.
    pub min_bitrate_bps: f64,
    /// Estimate ceiling.
    pub max_bitrate_bps: f64,
    /// Trendline regression window (number of delay samples).
    pub window: usize,
    /// Gain applied to the regression slope before thresholding.
    pub threshold_gain: f64,
    /// Initial adaptive threshold (ms).
    pub initial_threshold_ms: f64,
    /// Backoff factor applied to the measured rate on over-use.
    pub beta: f64,
    /// Multiplicative increase rate per second (e.g. 0.08 = 8 %/s).
    pub eta: f64,
}

impl Default for GccConfig {
    fn default() -> Self {
        GccConfig {
            start_bitrate_bps: 1_000_000.0,
            min_bitrate_bps: 100_000.0,
            max_bitrate_bps: 20_000_000.0,
            window: 20,
            threshold_gain: 4.0,
            initial_threshold_ms: 12.5,
            beta: 0.85,
            eta: 0.08,
        }
    }
}

/// Detector signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthUsage {
    /// Queues stable.
    Normal,
    /// Queueing delay growing: over-use.
    Overuse,
    /// Queueing delay draining.
    Underuse,
}

/// AIMD controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RateControlState {
    Hold,
    Increase,
    Decrease,
}

/// Span of the throughput measurement.
const RATE_WINDOW: SimDuration = SimDuration::from_millis(500);

/// Bits per second of `bytes` received within one [`RATE_WINDOW`].
fn rate_bps(bytes: usize) -> f64 {
    bytes as f64 * 8.0 / 0.5
}

/// The receiver-side bandwidth estimator for one media stream.
#[derive(Debug)]
pub struct BandwidthEstimator {
    cfg: GccConfig,
    // --- arrival filter ---
    cur_group_send_bucket: Option<u64>,
    cur_group_first_arrival: SimTime,
    cur_group_last_arrival: SimTime,
    cur_group_last_send_ms: f64,
    prev_group: Option<(SimTime, f64)>, // (last arrival, last send ms)
    // --- trendline ---
    accumulated_delay_ms: f64,
    smoothed_delay_ms: f64,
    history: VecDeque<(f64, f64)>, // (arrival ms, smoothed delay)
    threshold_ms: f64,
    last_update: Option<SimTime>,
    overuse_start: Option<SimTime>,
    usage: BandwidthUsage,
    // --- throughput measurement ---
    /// Arrivals of the trailing [`RATE_WINDOW`], oldest first.
    rx_window: VecDeque<(SimTime, usize)>,
    /// Bytes in `rx_window`, kept as packets enter and leave it so that
    /// the rate costs one addition per packet, not a pass over the window.
    rx_window_bytes: usize,
    first_packet_at: Option<SimTime>,
    // --- AIMD ---
    state: RateControlState,
    estimate_bps: f64,
    last_rate_update: Option<SimTime>,
    /// Count of over-use events (telemetry).
    pub overuse_events: u64,
}

impl BandwidthEstimator {
    /// Create an estimator.
    pub fn new(cfg: GccConfig) -> Self {
        BandwidthEstimator {
            estimate_bps: cfg.start_bitrate_bps,
            threshold_ms: cfg.initial_threshold_ms,
            cfg,
            cur_group_send_bucket: None,
            cur_group_first_arrival: SimTime::ZERO,
            cur_group_last_arrival: SimTime::ZERO,
            cur_group_last_send_ms: 0.0,
            prev_group: None,
            accumulated_delay_ms: 0.0,
            smoothed_delay_ms: 0.0,
            history: VecDeque::new(),
            last_update: None,
            overuse_start: None,
            usage: BandwidthUsage::Normal,
            rx_window: VecDeque::new(),
            rx_window_bytes: 0,
            first_packet_at: None,
            state: RateControlState::Increase,
            last_rate_update: None,
            overuse_events: 0,
        }
    }

    /// Current bandwidth estimate (the value REMB carries).
    pub fn estimate_bps(&self) -> u64 {
        self.estimate_bps as u64
    }

    /// Current detector signal.
    pub fn usage(&self) -> BandwidthUsage {
        self.usage
    }

    /// Slide the throughput window to end at `now` and take `size` in.
    fn admit_to_window(&mut self, now: SimTime, size: usize) {
        // A clock that restarts leaves arrivals stamped in its future;
        // they say nothing about the rate now.
        if self.rx_window.back().is_some_and(|(t, _)| *t > now) {
            self.rx_window.clear();
            self.rx_window_bytes = 0;
        }
        self.rx_window.push_back((now, size));
        self.rx_window_bytes += size;
        let cutoff = now - RATE_WINDOW;
        while let Some(&(t, bytes)) = self.rx_window.front() {
            if t >= cutoff {
                break;
            }
            self.rx_window.pop_front();
            self.rx_window_bytes -= bytes;
        }
    }

    /// Loss-based controller (RFC 8698-era GCC): the delay gradient is
    /// blind to a *full* drop-tail queue (delay plateaus while loss
    /// rages), so the estimate is additionally cut multiplicatively when
    /// the reported loss fraction exceeds 10 %.
    pub(crate) fn on_loss(&mut self, fraction: f64) {
        let f = fraction.clamp(0.0, 1.0);
        if f > 0.10 {
            self.estimate_bps *= 1.0 - 0.5 * f;
            self.estimate_bps = self
                .estimate_bps
                .clamp(self.cfg.min_bitrate_bps, self.cfg.max_bitrate_bps);
            self.state = RateControlState::Hold;
        }
    }

    /// Feed one received packet. `send_time_ms` is the sender-side
    /// timestamp (derived from the RTP timestamp); `size` is the wire
    /// size in bytes.
    pub fn on_packet(&mut self, now: SimTime, send_time_ms: f64, size: usize) {
        if self.first_packet_at.is_none() {
            self.first_packet_at = Some(now);
        }
        self.admit_to_window(now, size);

        // 5 ms send-time grouping.
        let bucket = (send_time_ms / 5.0).floor() as u64;
        match self.cur_group_send_bucket {
            Some(b) if b == bucket => {
                self.cur_group_last_arrival = now;
                self.cur_group_last_send_ms = send_time_ms;
            }
            Some(_) => {
                // Close the previous group and emit a delay sample.
                let closed = (self.cur_group_last_arrival, self.cur_group_last_send_ms);
                if let Some((prev_arrival, prev_send)) = self.prev_group {
                    let d_arrival = closed.0.saturating_since(prev_arrival).as_millis_f64();
                    let d_send = closed.1 - prev_send;
                    let delay_var = d_arrival - d_send;
                    self.add_delay_sample(now, delay_var);
                }
                self.prev_group = Some(closed);
                self.cur_group_send_bucket = Some(bucket);
                self.cur_group_first_arrival = now;
                self.cur_group_last_arrival = now;
                self.cur_group_last_send_ms = send_time_ms;
            }
            None => {
                self.cur_group_send_bucket = Some(bucket);
                self.cur_group_first_arrival = now;
                self.cur_group_last_arrival = now;
                self.cur_group_last_send_ms = send_time_ms;
            }
        }
        self.update_rate(now);
    }

    fn add_delay_sample(&mut self, now: SimTime, delay_var_ms: f64) {
        self.accumulated_delay_ms += delay_var_ms;
        self.smoothed_delay_ms = 0.9 * self.smoothed_delay_ms + 0.1 * self.accumulated_delay_ms;
        self.history
            .push_back((now.as_millis_f64(), self.smoothed_delay_ms));
        while self.history.len() > self.cfg.window {
            self.history.pop_front();
        }
        if self.history.len() < self.cfg.window / 2 {
            return;
        }
        let slope = self.regress_slope();
        let modified_trend =
            slope * (self.history.len() as f64).min(60.0) * self.cfg.threshold_gain;

        // Adaptive threshold (Carlucci et al. §IV-B).
        let dt_ms = self
            .last_update
            .map(|t| now.saturating_since(t).as_millis_f64())
            .unwrap_or(0.0)
            .min(100.0);
        self.last_update = Some(now);
        let k = if modified_trend.abs() > self.threshold_ms {
            0.01
        } else {
            0.00018
        };
        self.threshold_ms += dt_ms * k * (modified_trend.abs() - self.threshold_ms);
        self.threshold_ms = self.threshold_ms.clamp(6.0, 600.0);

        self.usage = if modified_trend > self.threshold_ms {
            match self.overuse_start {
                None => {
                    self.overuse_start = Some(now);
                    self.usage // need sustained over-use before signaling
                }
                Some(t0) if now.saturating_since(t0) >= SimDuration::from_millis(10) => {
                    if self.usage != BandwidthUsage::Overuse {
                        self.overuse_events += 1;
                    }
                    BandwidthUsage::Overuse
                }
                Some(_) => self.usage,
            }
        } else if modified_trend < -self.threshold_ms {
            self.overuse_start = None;
            BandwidthUsage::Underuse
        } else {
            self.overuse_start = None;
            BandwidthUsage::Normal
        };
    }

    /// Least-squares slope of smoothed delay vs. arrival time.
    fn regress_slope(&self) -> f64 {
        let n = self.history.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        let (mut sx, mut sy) = (0.0, 0.0);
        for (x, y) in &self.history {
            sx += x;
            sy += y;
        }
        let (mx, my) = (sx / n, sy / n);
        let (mut num, mut den) = (0.0, 0.0);
        for (x, y) in &self.history {
            num += (x - mx) * (y - my);
            den += (x - mx) * (x - mx);
        }
        if den.abs() < f64::EPSILON {
            0.0
        } else {
            num / den
        }
    }

    fn update_rate(&mut self, now: SimTime) {
        let dt = self
            .last_rate_update
            .map(|t| now.saturating_since(t).as_secs_f64())
            .unwrap_or(0.0)
            .min(1.0);
        let measured = rate_bps(self.rx_window_bytes);

        match self.usage {
            BandwidthUsage::Overuse => {
                if self.state != RateControlState::Decrease {
                    self.state = RateControlState::Decrease;
                    let target = self.cfg.beta * measured.max(self.cfg.min_bitrate_bps);
                    self.estimate_bps = self.estimate_bps.min(target);
                }
            }
            BandwidthUsage::Underuse => {
                self.state = RateControlState::Hold;
            }
            BandwidthUsage::Normal => {
                // The measured-rate window is meaningless until it spans
                // its full 500 ms; skip measured-based decisions before.
                let warm = self
                    .first_packet_at
                    .map(|t| now.saturating_since(t) >= SimDuration::from_millis(500))
                    .unwrap_or(false);
                // Hold -> Increase transition after the queues drained.
                if self.state != RateControlState::Increase {
                    self.state = RateControlState::Increase;
                } else if dt > 0.0 && warm {
                    if self.estimate_bps < measured {
                        // Clearly below what is arriving: multiplicative
                        // ramp (eta per second, compounded per update).
                        self.estimate_bps *= 1.0 + self.cfg.eta * dt;
                        // Catch-up floor: never estimate below what is
                        // demonstrably being delivered.
                        self.estimate_bps = self.estimate_bps.max(0.9 * measured);
                    } else {
                        // Probing beyond the current arrival rate:
                        // additive, bounded by the 1.5x-measured guard
                        // (libwebrtc's remote-rate cap). The cap has a
                        // floor: real senders pad toward the estimate,
                        // so a tiny media rate must not deadlock the
                        // estimator at the bottom.
                        self.estimate_bps += 8_000.0f64.max(0.02 * self.estimate_bps) * dt * 10.0;
                        self.estimate_bps = self.estimate_bps.min((1.5 * measured).max(350_000.0));
                    }
                }
            }
        }
        self.estimate_bps = self
            .estimate_bps
            .clamp(self.cfg.min_bitrate_bps, self.cfg.max_bitrate_bps);
        self.last_rate_update = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the estimator with packets crossing an emulated bottleneck:
    /// packets are "sent" every `send_gap_ms` but arrive spaced by the
    /// bottleneck serialization time, so queues grow when offered > link.
    fn drive(
        est: &mut BandwidthEstimator,
        secs: f64,
        offered_bps: f64,
        link_bps: f64,
        pkt_bytes: usize,
    ) {
        let send_gap = pkt_bytes as f64 * 8.0 / offered_bps * 1000.0; // ms
        let service = pkt_bytes as f64 * 8.0 / link_bps * 1000.0; // ms
        let n = (secs * 1000.0 / send_gap) as usize;
        let mut queue_free_at = 0.0f64; // ms
        let mut fed: Vec<(SimTime, usize)> = Vec::new();
        for i in 0..n {
            let send_ms = i as f64 * send_gap;
            let start = send_ms.max(queue_free_at);
            let arrival_ms = start + service;
            queue_free_at = arrival_ms;
            let now = SimTime::from_secs_f64(arrival_ms / 1000.0);
            est.on_packet(now, send_ms, pkt_bytes);
            // The rate the controller just used is the running sum; at
            // every packet it must be, bit for bit, what a pass over the
            // window gives and what a pass over everything fed gives.
            fed.push((now, pkt_bytes));
            let cutoff = now - RATE_WINDOW;
            let resummed: usize = fed
                .iter()
                .filter(|(t, _)| *t >= cutoff)
                .map(|(_, b)| b)
                .sum();
            let running = rate_bps(est.rx_window_bytes).to_bits();
            assert_eq!(running, rate_bps(resummed).to_bits(), "packet {i}");
        }
    }

    #[test]
    fn overuse_detected_and_rate_backs_off() {
        let mut est = BandwidthEstimator::new(GccConfig {
            start_bitrate_bps: 2_000_000.0,
            ..Default::default()
        });
        // Offered 2 Mbit/s through a 1 Mbit/s link: persistent queue growth.
        drive(&mut est, 3.0, 2_000_000.0, 1_000_000.0, 1200);
        // Over-use must have been signaled at least once (the adaptive
        // threshold chases a persistent trend in this open-loop drive, so
        // the *final* signal may have settled back to Normal).
        assert!(est.overuse_events >= 1, "no over-use detected");
        // Estimate near beta * measured (measured ~= 1 Mbit/s delivered).
        let e = est.estimate_bps() as f64;
        assert!(e < 1_250_000.0, "estimate should back off, got {e}");
        assert!(e > 400_000.0, "estimate should not collapse, got {e}");
    }

    #[test]
    fn clean_link_grows_estimate() {
        let mut est = BandwidthEstimator::new(GccConfig {
            start_bitrate_bps: 500_000.0,
            ..Default::default()
        });
        // Offered 2 Mbit/s through a 10 Mbit/s link: no queueing.
        drive(&mut est, 15.0, 2_000_000.0, 10_000_000.0, 1200);
        assert_eq!(est.usage(), BandwidthUsage::Normal);
        let e = est.estimate_bps() as f64;
        assert!(e > 1_500_000.0, "estimate should grow, got {e}");
        // Bounded by the 2x-measured guard.
        assert!(e <= 2.0 * 2_100_000.0, "estimate runaway: {e}");
    }

    #[test]
    fn estimate_recovers_after_congestion_clears() {
        let mut est = BandwidthEstimator::new(GccConfig {
            start_bitrate_bps: 2_000_000.0,
            ..Default::default()
        });
        drive(&mut est, 2.0, 2_000_000.0, 1_000_000.0, 1200);
        let backed_off = est.estimate_bps();
        assert!(backed_off < 1_100_000);
        // Re-drive on a clean link, continuing the clock.
        let mut est2 = est; // same estimator, fresh traffic pattern
                            // Note: drive() restarts its clock; the estimator only looks at
                            // deltas so this is equivalent to a long quiet gap then recovery.
        drive(&mut est2, 4.0, 1_500_000.0, 10_000_000.0, 1200);
        assert!(
            est2.estimate_bps() > backed_off,
            "estimate should recover: {} -> {}",
            backed_off,
            est2.estimate_bps()
        );
    }

    #[test]
    fn incoming_rate_measured() {
        let mut est = BandwidthEstimator::new(GccConfig::default());
        // 100 packets of 1250 B over 1 s = 1 Mbit/s.
        for i in 0..100 {
            est.on_packet(SimTime::from_millis(10 * i), (10 * i) as f64, 1250);
        }
        let r = rate_bps(est.rx_window_bytes);
        assert!((r - 1_000_000.0).abs() < 150_000.0, "rate {r}");
    }

    #[test]
    fn window_holds_half_a_second_whatever_the_rate() {
        let mut est = BandwidthEstimator::new(GccConfig::default());
        drive(&mut est, 5.0, 4_000_000.0, 100_000_000.0, 500);
        // 1000 packets per second offered: 500 ms of them, give or take
        // the boundary packet.
        assert!((499..=501).contains(&est.rx_window.len()));
    }

    #[test]
    fn estimate_respects_bounds() {
        let cfg = GccConfig {
            start_bitrate_bps: 1_000_000.0,
            min_bitrate_bps: 600_000.0,
            max_bitrate_bps: 1_200_000.0,
            ..Default::default()
        };
        let mut est = BandwidthEstimator::new(cfg);
        drive(&mut est, 3.0, 2_000_000.0, 300_000.0, 1200); // brutal congestion
        assert!(est.estimate_bps() >= 600_000);
        let mut est = BandwidthEstimator::new(cfg);
        drive(&mut est, 10.0, 1_000_000.0, 100_000_000.0, 1200);
        assert!(est.estimate_bps() <= 1_200_000);
    }
}
