//! Synthetic AV1-SVC video encoder.
//!
//! Produces layer-labeled, sized frames on a fixed clock. Nothing is
//! actually compressed — the SFU and all experiments only observe frame
//! sizes, cadence, and layer labels. Per-frame bits are equal across
//! layers, so dropping the T2 layer (half the frames) halves the bitrate
//! and dropping T1 too quarters it — matching the halvings visible in the
//! paper's Fig. 14c and the Zoom traces of Appendix D.

use crate::svc::{FrameLabel, L1T3Schedule};
use scallop_netsim::time::{SimDuration, SimTime};

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Full frame rate (L1T3 top tier), frames/s.
    pub fps: f64,
    /// Initial target bitrate, bits/s.
    pub start_bitrate_bps: u64,
    /// Floor for REMB-driven bitrate reductions.
    pub min_bitrate_bps: u64,
    /// Ceiling for REMB-driven bitrate increases.
    pub max_bitrate_bps: u64,
    /// Key frames are this many times larger than delta frames.
    pub key_frame_scale: f64,
    /// Periodic key-frame interval (refresh); `None` = only on request.
    pub key_interval: Option<SimDuration>,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        // Defaults calibrated to the paper's Table 1: a 720p AV1 stream at
        // ≈2.2 Mbit/s, 30 fps → ≈235 video packets/s at a 1200 B MTU.
        EncoderConfig {
            fps: 30.0,
            start_bitrate_bps: 2_200_000,
            min_bitrate_bps: 150_000,
            // Real encoders cap at the resolution's ceiling (Chrome's
            // 720p ≈ 2.5 Mbit/s); REMB can lower the rate but "best
            // downlink" feedback must not push the base tier beyond what
            // constrained receivers can absorb.
            max_bitrate_bps: 2_200_000,
            key_frame_scale: 3.0,
            key_interval: Some(SimDuration::from_secs(10)),
        }
    }
}

impl EncoderConfig {
    /// Builder: set the starting/max bitrate (max = 2× start unless set).
    pub fn bitrate(mut self, bps: u64) -> Self {
        self.start_bitrate_bps = bps;
        self.max_bitrate_bps = self.max_bitrate_bps.max(bps);
        self
    }
}

/// One encoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Monotone frame number (wraps at u16 like the DD field).
    pub frame_number: u16,
    /// Layer/template labeling.
    pub label: FrameLabelCompact,
    /// Encoded size in bytes.
    pub size_bytes: usize,
    /// Capture timestamp.
    pub captured_at: SimTime,
    /// RTP timestamp (90 kHz clock).
    pub rtp_timestamp: u32,
}

/// Copy-friendly frame label (mirror of [`FrameLabel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLabelCompact {
    /// Temporal layer id (0–2).
    pub temporal_id: u8,
    /// AV1 template id (0–4).
    pub template_id: u8,
    /// Key frame flag.
    pub is_key: bool,
}

impl From<FrameLabel> for FrameLabelCompact {
    fn from(l: FrameLabel) -> Self {
        FrameLabelCompact {
            temporal_id: l.temporal.id(),
            template_id: l.template_id,
            is_key: l.is_key,
        }
    }
}

/// The synthetic encoder.
#[derive(Debug, Clone)]
pub struct VideoEncoder {
    config: EncoderConfig,
    schedule: L1T3Schedule,
    target_bitrate_bps: u64,
    next_frame_number: u16,
    last_key_at: Option<SimTime>,
    /// Rate-control debt: bytes emitted above the per-frame budget.
    /// Oversized key frames are amortized by shrinking the following
    /// delta frames, keeping the *average* rate at the target — without
    /// this, a PLI-triggered key frame raises the average load and can
    /// keep a congested link saturated forever.
    debt_bytes: f64,
}

impl VideoEncoder {
    /// Create an encoder.
    pub fn new(config: EncoderConfig) -> Self {
        VideoEncoder {
            target_bitrate_bps: config.start_bitrate_bps,
            config,
            schedule: L1T3Schedule::new(),
            next_frame_number: 0,
            last_key_at: None,
            debt_bytes: 0.0,
        }
    }

    /// Interval between frame captures.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.config.fps)
    }

    /// Current target bitrate.
    pub fn target_bitrate_bps(&self) -> u64 {
        self.target_bitrate_bps
    }

    /// Apply a REMB-style bitrate target (clamped to config bounds). This
    /// is what the media *sender* does when feedback arrives (§5.3: the
    /// sender transmits at the rate allowed by its uplink and the best
    /// downlink).
    pub fn set_target_bitrate(&mut self, bps: u64) {
        self.target_bitrate_bps =
            bps.clamp(self.config.min_bitrate_bps, self.config.max_bitrate_bps);
    }

    /// Request an intra refresh (PLI handling, §5.5).
    pub fn request_key_frame(&mut self) {
        self.schedule.request_key();
    }

    /// Produce the frame captured at `now`. The caller ticks this on the
    /// frame clock ([`Self::frame_interval`]).
    pub fn produce(&mut self, now: SimTime) -> EncodedFrame {
        // Periodic refresh.
        if let Some(interval) = self.config.key_interval {
            match self.last_key_at {
                Some(t) if now.saturating_since(t) >= interval => self.schedule.request_key(),
                None => {} // first frame is a key frame already
                _ => {}
            }
        }
        let label = self.schedule.next_label();
        if label.is_key {
            self.last_key_at = Some(now);
        }
        // Equal bits per frame; key frames scaled up, then amortized by
        // shrinking subsequent deltas (rate-control debt).
        let base = self.target_bitrate_bps as f64 / self.config.fps / 8.0;
        let size = if label.is_key {
            base * self.config.key_frame_scale
        } else {
            (base - self.debt_bytes * 0.5).max(base * 0.25)
        };
        let size_bytes = (size.round() as usize).max(64);
        self.debt_bytes = (self.debt_bytes + size_bytes as f64 - base).max(0.0);
        let frame_number = self.next_frame_number;
        self.next_frame_number = self.next_frame_number.wrapping_add(1);
        EncodedFrame {
            frame_number,
            label: label.into(),
            size_bytes,
            captured_at: now,
            rtp_timestamp: ((now.as_secs_f64() * 90_000.0) as u64 & 0xFFFF_FFFF) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_encoder(cfg: EncoderConfig, secs: u64) -> (VideoEncoder, Vec<EncodedFrame>) {
        let mut enc = VideoEncoder::new(cfg);
        let dt = enc.frame_interval();
        let mut t = SimTime::ZERO;
        let mut frames = Vec::new();
        let n = (secs as f64 * cfg.fps) as u64;
        for _ in 0..n {
            frames.push(enc.produce(t));
            t += dt;
        }
        (enc, frames)
    }

    #[test]
    fn bitrate_is_close_to_target() {
        let cfg = EncoderConfig {
            key_interval: None,
            ..Default::default()
        };
        let (_, frames) = run_encoder(cfg, 10);
        let bits = frames.iter().map(|f| f.size_bytes).sum::<usize>() as f64 * 8.0;
        let rate = bits / 10.0;
        // One key frame adds a little; within 5 %.
        assert!(
            (rate - 2_200_000.0).abs() / 2_200_000.0 < 0.05,
            "rate {rate}"
        );
    }

    #[test]
    fn frame_numbers_increment_and_wrap() {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        enc.next_frame_number = u16::MAX;
        let a = enc.produce(SimTime::ZERO);
        let b = enc.produce(SimTime::from_millis(33));
        assert_eq!(a.frame_number, u16::MAX);
        assert_eq!(b.frame_number, 0);
    }

    #[test]
    fn key_frames_bigger_and_periodic() {
        let cfg = EncoderConfig {
            key_interval: Some(SimDuration::from_secs(2)),
            ..Default::default()
        };
        let (_, frames) = run_encoder(cfg, 10);
        let keys: Vec<&EncodedFrame> = frames.iter().filter(|f| f.label.is_key).collect();
        // t=0 plus one every 2 s.
        assert!(keys.len() >= 5, "got {} key frames", keys.len());
        let delta_size = frames.iter().find(|f| !f.label.is_key).unwrap().size_bytes;
        for k in keys {
            assert!(k.size_bytes > 2 * delta_size);
        }
    }

    #[test]
    fn rate_change_scales_frame_size() {
        let mut enc = VideoEncoder::new(EncoderConfig {
            key_interval: None,
            ..Default::default()
        });
        let f1 = enc.produce(SimTime::ZERO); // key
        let f2 = enc.produce(SimTime::from_millis(33));
        enc.set_target_bitrate(1_100_000);
        let f3 = enc.produce(SimTime::from_millis(66));
        assert!(f1.label.is_key);
        assert!((f3.size_bytes as f64 / f2.size_bytes as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn rate_clamped_to_bounds() {
        let mut enc = VideoEncoder::new(EncoderConfig::default());
        enc.set_target_bitrate(1);
        assert_eq!(enc.target_bitrate_bps(), 150_000);
        enc.set_target_bitrate(u64::MAX);
        assert_eq!(enc.target_bitrate_bps(), 2_200_000);
    }

    #[test]
    fn pli_forces_key_frame() {
        let mut enc = VideoEncoder::new(EncoderConfig {
            key_interval: None,
            ..Default::default()
        });
        let _ = enc.produce(SimTime::ZERO);
        let f = enc.produce(SimTime::from_millis(33));
        assert!(!f.label.is_key);
        enc.request_key_frame();
        let k = enc.produce(SimTime::from_millis(66));
        assert!(k.label.is_key);
    }

    #[test]
    fn packet_rate_matches_table1_calibration() {
        // ≈2.2 Mbit/s at 30 fps into 1200 B packets ≈ 235 packets/s.
        let cfg = EncoderConfig {
            key_interval: None,
            ..Default::default()
        };
        let (_, frames) = run_encoder(cfg, 10);
        let pkts: usize = frames
            .iter()
            .map(|f| f.size_bytes.div_ceil(crate::packetizer::DEFAULT_MTU))
            .sum();
        let rate = pkts as f64 / 10.0;
        assert!(
            (200.0..280.0).contains(&rate),
            "video packet rate {rate}/s out of Table-1 band"
        );
    }
}
