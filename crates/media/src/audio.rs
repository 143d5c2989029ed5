//! Opus-like constant-bitrate audio source.
//!
//! Table 1 anchors the model: ≈50 audio packets/s per participant at
//! ≈128 B average payload (29,746 packets / 3,826 KB over 10 minutes).
//! Audio is never layered or rate-adapted by the SFU — it is replicated
//! verbatim — so a fixed-cadence source is exact.

use scallop_netsim::time::{SimDuration, SimTime};

/// Audio source configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AudioConfig {
    /// Packet time (interval between packets); Opus default 20 ms.
    pub ptime: SimDuration,
    /// Payload bytes per packet.
    pub payload_bytes: usize,
}

impl Default for AudioConfig {
    fn default() -> Self {
        AudioConfig {
            ptime: SimDuration::from_millis(20),
            payload_bytes: 128,
        }
    }
}

/// One produced audio packet descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AudioPacket {
    /// Payload size.
    pub size_bytes: usize,
    /// Capture time.
    pub captured_at: SimTime,
    /// RTP timestamp (48 kHz clock).
    pub rtp_timestamp: u32,
}

/// The audio source.
#[derive(Debug, Clone)]
pub struct AudioSource {
    config: AudioConfig,
}

impl AudioSource {
    /// Create a source.
    pub fn new(config: AudioConfig) -> Self {
        AudioSource { config }
    }

    /// Interval between packets.
    pub fn packet_interval(&self) -> SimDuration {
        self.config.ptime
    }

    /// Bitrate of the source in bits/s.
    pub fn bitrate_bps(&self) -> u64 {
        (self.config.payload_bytes as f64 * 8.0 / self.config.ptime.as_secs_f64()) as u64
    }

    /// Produce the packet captured at `now`.
    pub fn produce(&mut self, now: SimTime) -> AudioPacket {
        AudioPacket {
            size_bytes: self.config.payload_bytes,
            captured_at: now,
            rtp_timestamp: ((now.as_secs_f64() * 48_000.0) as u64 & 0xFFFF_FFFF) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let src = AudioSource::new(AudioConfig::default());
        // 50 packets/s.
        assert_eq!(src.packet_interval(), SimDuration::from_millis(20));
        // 128 B * 8 / 0.02 s = 51.2 kbit/s.
        assert_eq!(src.bitrate_bps(), 51_200);
    }

    #[test]
    fn produce_counts_and_timestamps() {
        let mut src = AudioSource::new(AudioConfig::default());
        let p1 = src.produce(SimTime::ZERO);
        let p2 = src.produce(SimTime::from_millis(20));
        assert_eq!(p1.size_bytes, 128);
        // 20 ms at 48 kHz = 960 ticks.
        assert_eq!(p2.rtp_timestamp - p1.rtp_timestamp, 960);
    }
}
