//! The L1T3 temporal-layer schedule (Fig. 9).
//!
//! One spatial layer, three temporal layers. In a 4-frame cadence at the
//! full frame rate:
//!
//! ```text
//! frame index mod 4:   0    1    2    3
//! temporal layer:      T0   T2   T1   T2
//! delivered at:        7.5  30   15   30   fps tier
//! ```
//!
//! Template ids follow §5.4: ids 0,1 → T0 (0 for key frames, 1 steady
//! state), id 2 → T1, ids 3,4 → T2 (alternating phases). Dropping ids
//! {3,4} halves 30 fps to 15; additionally dropping id 2 halves again to
//! 7.5.

/// A temporal layer in the L1T3 hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TemporalLayer {
    /// Base layer, 7.5 fps tier.
    T0 = 0,
    /// First enhancement, 15 fps tier.
    T1 = 1,
    /// Second enhancement, 30 fps tier.
    T2 = 2,
}

impl TemporalLayer {
    /// Numeric id (0–2).
    pub fn id(self) -> u8 {
        self as u8
    }
}

/// Layer/template labeling for one frame position in the cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLabel {
    /// Temporal layer of this frame.
    pub temporal: TemporalLayer,
    /// AV1 dependency template id (0–4, per §5.4).
    pub template_id: u8,
    /// True if this position is a key frame.
    pub is_key: bool,
}

/// Stateful generator of the L1T3 cadence.
#[derive(Debug, Clone)]
pub struct L1T3Schedule {
    /// Frames emitted so far (drives the cadence position).
    count: u64,
    /// Emit a key frame at the next tick.
    key_pending: bool,
}

impl Default for L1T3Schedule {
    fn default() -> Self {
        Self::new()
    }
}

impl L1T3Schedule {
    /// A fresh schedule; the first frame is a key frame.
    pub fn new() -> Self {
        L1T3Schedule {
            count: 0,
            key_pending: true,
        }
    }

    /// Request that the next emitted frame be a key frame (PLI handling,
    /// §5.5). The cadence restarts at the key frame.
    pub(crate) fn request_key(&mut self) {
        self.key_pending = true;
    }

    /// Label for the next frame, advancing the schedule.
    pub fn next_label(&mut self) -> FrameLabel {
        if self.key_pending {
            self.key_pending = false;
            self.count = 1; // key frame occupies cadence position 0
            return FrameLabel {
                temporal: TemporalLayer::T0,
                template_id: 0,
                is_key: true,
            };
        }
        let pos = self.count % 4;
        self.count += 1;
        match pos {
            0 => FrameLabel {
                temporal: TemporalLayer::T0,
                template_id: 1,
                is_key: false,
            },
            2 => FrameLabel {
                temporal: TemporalLayer::T1,
                template_id: 2,
                is_key: false,
            },
            1 => FrameLabel {
                temporal: TemporalLayer::T2,
                template_id: 3,
                is_key: false,
            },
            _ => FrameLabel {
                temporal: TemporalLayer::T2,
                template_id: 4,
                is_key: false,
            },
        }
    }
}

/// Whether a frame of layer `t` is forwarded when the receiver's decode
/// target keeps layers up to `max_layer`.
pub fn forwarded(t: TemporalLayer, max_layer: TemporalLayer) -> bool {
    t <= max_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_is_key() {
        let mut s = L1T3Schedule::new();
        let l = s.next_label();
        assert!(l.is_key);
        assert_eq!(l.template_id, 0);
        assert_eq!(l.temporal, TemporalLayer::T0);
    }

    #[test]
    fn cadence_matches_fig9() {
        let mut s = L1T3Schedule::new();
        let labels: Vec<FrameLabel> = (0..9).map(|_| s.next_label()).collect();
        // key, then T2 T1 T2 | T0 T2 T1 T2 | T0 ...
        let temporals: Vec<TemporalLayer> = labels.iter().map(|l| l.temporal).collect();
        use TemporalLayer::*;
        assert_eq!(temporals, vec![T0, T2, T1, T2, T0, T2, T1, T2, T0]);
        // Template ids match §5.4's mapping.
        for l in &labels {
            match l.temporal {
                T0 => assert!(l.template_id <= 1),
                T1 => assert_eq!(l.template_id, 2),
                T2 => assert!(l.template_id == 3 || l.template_id == 4),
            }
        }
        // T2 templates alternate 3,4.
        let t2: Vec<u8> = labels
            .iter()
            .filter(|l| l.temporal == T2)
            .map(|l| l.template_id)
            .collect();
        assert_eq!(t2, vec![3, 4, 3, 4]);
    }

    #[test]
    fn layer_frequencies_over_long_run() {
        let mut s = L1T3Schedule::new();
        let n = 4000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[s.next_label().temporal.id() as usize] += 1;
        }
        // T0 = 25%, T1 = 25%, T2 = 50% of frames.
        assert!((counts[0] as f64 / n as f64 - 0.25).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.25).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.50).abs() < 0.01);
    }

    #[test]
    fn key_request_restarts_cadence() {
        let mut s = L1T3Schedule::new();
        for _ in 0..6 {
            s.next_label();
        }
        s.request_key();
        let k = s.next_label();
        assert!(k.is_key);
        // After the key, cadence resumes T2 T1 T2 T0.
        use TemporalLayer::*;
        let next: Vec<TemporalLayer> = (0..4).map(|_| s.next_label().temporal).collect();
        assert_eq!(next, vec![T2, T1, T2, T0]);
    }

    #[test]
    fn rate_fractions_and_forwarding() {
        use TemporalLayer::*;
        // Dropping ids 3,4 = keeping up to T1 = 15 fps (§5.4).
        assert!(forwarded(T0, T1));
        assert!(forwarded(T1, T1));
        assert!(!forwarded(T2, T1));
        assert!(forwarded(T2, T2));
        assert!(!forwarded(T1, T0));
    }
}
