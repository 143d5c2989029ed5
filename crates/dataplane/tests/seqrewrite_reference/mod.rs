//! The Stream Tracker as it was written before its state moved into one
//! row per stream: six register arrays, each allocated whole at
//! construction, one word of every stream in each.
//! Kept verbatim (it shares the crate's verdict and mode types) as the
//! oracle the differential test holds the row layout to.

#[allow(dead_code)] // `name`, `len` and `is_empty` are never called here.
mod registers;

use registers::RegisterArray;
use scallop_dataplane::seqrewrite::{PacketVerdict, RewriteVerdict, SeqRewriteMode};

/// Decoded per-stream state (packed into register cells on the wire).
#[derive(Debug, Clone, Copy, Default)]
struct StreamState {
    initialized: bool,
    highest_seq: u16,
    highest_frame: u16,
    offset: u16,
    /// Highest rewritten sequence number emitted (duplicate guard).
    last_out: u16,
    /// Whether anything has been emitted yet.
    emitted_any: bool,
    /// Frame-number step between forwarded frames (1, 2, or 4 for L1T3).
    cadence_step: u16,
    // --- S-LR extras ---
    cur_frame_first_seq: u16,
    cur_frame_number: u16,
    /// Offset snapshot taken at the current frame's start packet. Late
    /// intra-frame packets are rewritten with this value: the live offset
    /// may already have advanced past the frame (a newer suppressed frame
    /// processed in between), which would re-emit a used number.
    cur_frame_offset: u16,
    /// Highest sequence observed when the offset last changed. Late
    /// packets (retransmissions) above this point can safely be emitted
    /// with the current offset: every in-between slot used it too, so
    /// the mapping is injective.
    last_mask_seq: u16,
    last_frame_ended: bool,
    /// The most recently observed frame was a suppressed one.
    last_frame_suppressed: bool,
    /// Learned packets-per-frame estimate (EWMA over observed frames).
    /// S-LR uses it to estimate how many of an unseen gap's numbers
    /// belonged to cadence-suppressed frames.
    frame_size_est: u16,
    highest_suppressed_frame: u16,
    has_suppressed: bool,
    /// The most recent forward step masked a gap (or suppressed packets),
    /// i.e. the offset changed just behind `highest_seq`. Late packets
    /// from before that point must be dropped, not rewritten, because the
    /// offset that applied to their position is gone (duplicate hazard).
    offset_changed_recently: bool,
}

/// Forward wrapping distance `a -> b` as a signed 16-bit-window delta.
fn seq_delta(from: u16, to: u16) -> i32 {
    let d = to.wrapping_sub(from);
    if d < 0x8000 {
        d as i32
    } else {
        -((from.wrapping_sub(to)) as i32)
    }
}

/// The Stream Tracker: six register arrays in the egress pipeline, one
/// slot per rate-adapted stream, indexed by the collision-free stream
/// index the control plane assigns (§6.2 "Stream Index" table).
#[derive(Debug)]
pub struct StreamTracker {
    mode: SeqRewriteMode,
    // Six arrays, mirroring the prototype ("six hash tables, always
    // accessed in order"). S-LM touches only the first three.
    arr: [RegisterArray; 6],
    capacity: usize,
    /// Packets processed through the rewrite stage.
    pub packets_processed: u64,
    /// Packets dropped by the rewrite stage.
    pub packets_dropped: u64,
}

impl StreamTracker {
    /// Create a tracker with `capacity` stream slots per array.
    pub fn new(mode: SeqRewriteMode, capacity: usize) -> Self {
        StreamTracker {
            mode,
            arr: [
                RegisterArray::new("st0_seq_frame", capacity),
                RegisterArray::new("st1_offset_flags", capacity),
                RegisterArray::new("st2_lastout_suppr", capacity),
                RegisterArray::new("st3_curframe", capacity),
                RegisterArray::new("st4_aux", capacity),
                RegisterArray::new("st5_aux", capacity),
            ],
            capacity,
            packets_processed: 0,
            packets_dropped: 0,
        }
    }

    /// Heuristic in use.
    pub fn mode(&self) -> SeqRewriteMode {
        self.mode
    }

    /// Stream slots per array.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total SRAM bits of the stream-tracker arrays actually needed by
    /// the configured mode.
    pub fn sram_bits(&self) -> usize {
        self.capacity * 32 * self.mode.words_per_stream()
    }

    fn load(&self, idx: usize) -> StreamState {
        let w0 = self.arr[0].read_cp(idx).unwrap_or(0);
        let w1 = self.arr[1].read_cp(idx).unwrap_or(0);
        let w2 = self.arr[2].read_cp(idx).unwrap_or(0);
        let w3 = self.arr[3].read_cp(idx).unwrap_or(0);
        let w4 = self.arr[4].read_cp(idx).unwrap_or(0);
        let w5 = self.arr[5].read_cp(idx).unwrap_or(0);
        StreamState {
            highest_seq: (w0 >> 16) as u16,
            highest_frame: (w0 & 0xFFFF) as u16,
            offset: (w1 >> 16) as u16,
            initialized: w1 & 0x1 != 0,
            last_frame_ended: w1 & 0x2 != 0,
            emitted_any: w1 & 0x4 != 0,
            has_suppressed: w1 & 0x8 != 0,
            cadence_step: ((w1 >> 8) & 0xFF) as u16,
            offset_changed_recently: w1 & 0x10 != 0,
            last_frame_suppressed: w1 & 0x20 != 0,
            last_out: (w2 >> 16) as u16,
            highest_suppressed_frame: (w2 & 0xFFFF) as u16,
            cur_frame_first_seq: (w3 >> 16) as u16,
            cur_frame_number: (w3 & 0xFFFF) as u16,
            cur_frame_offset: (w4 >> 16) as u16,
            last_mask_seq: (w4 & 0xFFFF) as u16,
            frame_size_est: ((w5 & 0xFFFF) as u16).max(1),
        }
    }

    fn store(&mut self, idx: usize, s: &StreamState) {
        let w0 = ((s.highest_seq as u32) << 16) | s.highest_frame as u32;
        let mut flags = 0u32;
        if s.initialized {
            flags |= 0x1;
        }
        if s.last_frame_ended {
            flags |= 0x2;
        }
        if s.emitted_any {
            flags |= 0x4;
        }
        if s.has_suppressed {
            flags |= 0x8;
        }
        if s.offset_changed_recently {
            flags |= 0x10;
        }
        if s.last_frame_suppressed {
            flags |= 0x20;
        }
        let w1 = ((s.offset as u32) << 16) | ((s.cadence_step as u32 & 0xFF) << 8) | flags;
        let w2 = ((s.last_out as u32) << 16) | s.highest_suppressed_frame as u32;
        let w3 = ((s.cur_frame_first_seq as u32) << 16) | s.cur_frame_number as u32;
        // One write per array, mirroring the in-order access discipline.
        let _ = self.arr[0].rmw(idx, |c| {
            *c = w0;
            *c
        });
        let _ = self.arr[1].rmw(idx, |c| {
            *c = w1;
            *c
        });
        let _ = self.arr[2].rmw(idx, |c| {
            *c = w2;
            *c
        });
        if matches!(self.mode, SeqRewriteMode::LowRetransmission) {
            let w4 = ((s.cur_frame_offset as u32) << 16) | s.last_mask_seq as u32;
            let _ = self.arr[3].rmw(idx, |c| {
                *c = w3;
                *c
            });
            let _ = self.arr[4].rmw(idx, |c| {
                *c = w4;
                *c
            });
            let w5 = s.frame_size_est as u32;
            let _ = self.arr[5].rmw(idx, |c| {
                *c = w5;
                *c
            });
        }
    }

    /// Control plane: initialize a stream slot with its skip cadence
    /// (frame-number step between forwarded frames; 1 = nothing skipped).
    pub fn init_stream(&mut self, idx: usize, cadence_step: u16) {
        let s = StreamState {
            cadence_step: cadence_step.clamp(1, 255),
            frame_size_est: 4,
            ..Default::default()
        };
        self.store_cp(idx, &s);
    }

    /// Control plane: update the cadence when the decode target changes.
    pub fn set_cadence(&mut self, idx: usize, cadence_step: u16) {
        let mut s = self.load(idx);
        s.cadence_step = cadence_step.clamp(1, 255);
        self.store_cp(idx, &s);
    }

    /// Current rewrite offset of a stream (read by the ingress NACK-
    /// mapping stage: receivers NACK *rewritten* numbers, the sender's
    /// history holds *original* numbers, so forwarded NACK packet-ids
    /// must be shifted by the offset — one register read, Fig. 12).
    pub fn offset_of(&self, idx: usize) -> u16 {
        self.load(idx).offset
    }

    /// Control plane: release a slot (§6.3 "immediate cleanup when a
    /// stream ends").
    pub fn clear_stream(&mut self, idx: usize) {
        for a in &mut self.arr {
            let _ = a.clear_cp(idx);
        }
    }

    fn store_cp(&mut self, idx: usize, s: &StreamState) {
        // Same packing as `store`, without access counting.
        let w0 = ((s.highest_seq as u32) << 16) | s.highest_frame as u32;
        let mut flags = 0u32;
        if s.initialized {
            flags |= 0x1;
        }
        if s.last_frame_ended {
            flags |= 0x2;
        }
        if s.emitted_any {
            flags |= 0x4;
        }
        if s.has_suppressed {
            flags |= 0x8;
        }
        if s.offset_changed_recently {
            flags |= 0x10;
        }
        if s.last_frame_suppressed {
            flags |= 0x20;
        }
        let w1 = ((s.offset as u32) << 16) | ((s.cadence_step as u32 & 0xFF) << 8) | flags;
        let w2 = ((s.last_out as u32) << 16) | s.highest_suppressed_frame as u32;
        let w3 = ((s.cur_frame_first_seq as u32) << 16) | s.cur_frame_number as u32;
        let _ = self.arr[0].write_cp(idx, w0);
        let _ = self.arr[1].write_cp(idx, w1);
        let _ = self.arr[2].write_cp(idx, w2);
        let _ = self.arr[3].write_cp(idx, w3);
        let _ = self.arr[4].write_cp(
            idx,
            ((s.cur_frame_offset as u32) << 16) | s.last_mask_seq as u32,
        );
        let _ = self.arr[5].write_cp(idx, s.frame_size_est as u32);
    }

    /// Process one packet of the stream through the rewrite stage.
    ///
    /// `seq`/`frame` are the *original* numbers; `start`/`end` are the
    /// DD frame-boundary flags; `verdict` is the adaptation decision made
    /// earlier in the pipeline. Suppressed packets update state and are
    /// always dropped; forwarded packets yield an [`RewriteVerdict`].
    #[allow(clippy::too_many_arguments)]
    pub fn process(
        &mut self,
        idx: usize,
        seq: u16,
        frame: u16,
        start: bool,
        end: bool,
        verdict: PacketVerdict,
    ) -> RewriteVerdict {
        self.packets_processed += 1;
        let mut s = self.load(idx);
        let out = self.step(&mut s, seq, frame, start, end, verdict);
        self.store(idx, &s);
        if matches!(out, RewriteVerdict::Drop) {
            self.packets_dropped += 1;
        }
        out
    }

    fn step(
        &self,
        s: &mut StreamState,
        seq: u16,
        frame: u16,
        start: bool,
        end: bool,
        verdict: PacketVerdict,
    ) -> RewriteVerdict {
        if !s.initialized {
            s.initialized = true;
            s.highest_seq = seq;
            s.highest_frame = frame;
            s.offset = 0;
            s.cur_frame_first_seq = seq;
            s.cur_frame_number = frame;
            s.cur_frame_offset = 0;
            s.last_frame_ended = end;
            return match verdict {
                PacketVerdict::Forward => {
                    s.last_out = seq;
                    s.emitted_any = true;
                    RewriteVerdict::Emit(seq)
                }
                PacketVerdict::Suppress => {
                    s.offset = 1;
                    s.has_suppressed = true;
                    s.highest_suppressed_frame = frame;
                    RewriteVerdict::Drop
                }
            };
        }

        let ds = seq_delta(s.highest_seq, seq);
        let df = seq_delta(s.highest_frame, frame);

        match verdict {
            PacketVerdict::Suppress => {
                match ds.cmp(&0) {
                    std::cmp::Ordering::Greater => {
                        // Mask this packet; an unseen gap ending *inside*
                        // a suppressed frame is attributable for S-LR
                        // (df 0: frames are layer-atomic, so the missing
                        // numbers belong to this suppressed frame). A gap
                        // *entering* a suppressed frame (df 1) is not —
                        // it may straddle the previous forwarded frame's
                        // lost tail, and mis-masking there risks the
                        // §6.2 duplicate catastrophe, so S-LR leaves it
                        // (the residual error Fig. 18 measures). S-LM
                        // lacks the state and applies only the cadence
                        // rule.
                        let gap = ds as u16 - 1;
                        match self.mode {
                            SeqRewriteMode::LowMemory => {
                                if gap > 0 && self.gap_attributable(s, df, start) {
                                    s.offset = s.offset.wrapping_add(gap);
                                }
                            }
                            SeqRewriteMode::LowRetransmission => {
                                if gap > 0 && df == 0 {
                                    // Intra-suppressed-frame hole: the
                                    // missing numbers are this frame's
                                    // own (layer-atomic) packets.
                                    s.offset = s.offset.wrapping_add(gap);
                                } else {
                                    let est = self.slr_gap_estimate(s, df, gap);
                                    s.offset = s.offset.wrapping_add(est);
                                }
                            }
                        }
                        s.offset = s.offset.wrapping_add(1);
                        s.offset_changed_recently = true;
                        s.last_mask_seq = seq;
                        s.highest_seq = seq;
                        s.highest_frame = frame;
                        if start {
                            s.cur_frame_first_seq = seq;
                            s.cur_frame_number = frame;
                            s.cur_frame_offset = s.offset;
                        }
                        Self::learn_frame_size(s, seq, frame, end);
                        s.last_frame_ended = end;
                        s.last_frame_suppressed = true;
                        if !s.has_suppressed || seq_delta(s.highest_suppressed_frame, frame) > 0 {
                            s.highest_suppressed_frame = frame;
                        }
                        s.has_suppressed = true;
                    }
                    _ => { /* late duplicate/reorder of suppressed pkt: ignore */ }
                }
                RewriteVerdict::Drop
            }
            PacketVerdict::Forward => {
                if ds == 0 {
                    return RewriteVerdict::Drop; // duplicate original
                }
                if ds < 0 {
                    return self.handle_reorder(s, seq, frame, ds);
                }
                let gap = ds as u16 - 1;
                let masked = match self.mode {
                    SeqRewriteMode::LowMemory => {
                        let m = gap > 0 && self.gap_attributable(s, df, start);
                        if m {
                            s.offset = s.offset.wrapping_add(gap);
                        }
                        m
                    }
                    SeqRewriteMode::LowRetransmission => {
                        let est = self.slr_gap_estimate(s, df, gap);
                        if est > 0 {
                            s.offset = s.offset.wrapping_add(est);
                        }
                        est > 0
                    }
                };
                // Duplicate guard: the emitted number must advance past
                // last_out; clamp the offset if a masking mistake would
                // ever re-emit a used number.
                let mut out = seq.wrapping_sub(s.offset);
                let mut clamped = false;
                if s.emitted_any && seq_delta(s.last_out, out) <= 0 {
                    out = s.last_out.wrapping_add(1);
                    s.offset = seq.wrapping_sub(out);
                    clamped = true;
                }
                s.offset_changed_recently = masked || clamped;
                if masked || clamped {
                    s.last_mask_seq = seq;
                }
                s.highest_seq = seq;
                s.highest_frame = frame;
                if start {
                    s.cur_frame_first_seq = seq;
                    s.cur_frame_number = frame;
                    s.cur_frame_offset = s.offset;
                }
                Self::learn_frame_size(s, seq, frame, end);
                s.last_frame_ended = end;
                s.last_frame_suppressed = false;
                s.last_out = out;
                s.emitted_any = true;
                RewriteVerdict::Emit(out)
            }
        }
    }

    /// S-LR's gap-mask estimate: the number of missing sequence numbers
    /// attributable to cadence-suppressed frames strictly between the
    /// last observed frame and this one, valued at the learned
    /// packets-per-frame estimate. Partial-frame losses at the gap's
    /// edges are deliberately not attributed (duplicate safety); the
    /// estimator's error against true frame sizes is the residual
    /// Fig. 18 measures.
    fn slr_gap_estimate(&self, s: &StreamState, df: i32, gap: u16) -> u16 {
        if gap == 0 || s.cadence_step <= 1 || df < 2 {
            return 0;
        }
        let between = (df - 1) as u16;
        let forwarded_between = between / s.cadence_step;
        let suppressed_between = between - forwarded_between;
        gap.min(suppressed_between.saturating_mul(s.frame_size_est))
    }

    /// Fold a completed observed frame's size into the estimator.
    fn learn_frame_size(s: &mut StreamState, seq: u16, frame: u16, end: bool) {
        if end && frame == s.cur_frame_number {
            let size = seq_delta(s.cur_frame_first_seq, seq);
            if (0..=255).contains(&size) {
                let observed = size as u16 + 1;
                s.frame_size_est = ((3 * s.frame_size_est + observed) / 4).max(1);
            }
        }
    }

    /// Can an *unseen* gap (packets lost before the SFU) be attributed
    /// entirely to frames this receiver suppresses?
    fn gap_attributable(&self, s: &StreamState, df: i32, start: bool) -> bool {
        // cadence 1 means nothing is suppressed: every unseen gap is loss.
        if s.cadence_step <= 1 {
            return false;
        }
        match self.mode {
            // S-LM: mask whenever the frame delta matches the skip
            // cadence — boundary-blind (the paper's rule 2).
            SeqRewriteMode::LowMemory => df == s.cadence_step as i32,
            // S-LR: additionally require that this packet *starts* its
            // frame: if the new frame's head was lost too, part of the
            // gap belongs to a forwarded frame and masking would swallow
            // a real loss. (The previous frame's lost tail, if any, is
            // knowingly swallowed — the §6.2 trade-off: fewer erroneous
            // retransmissions at the cost of an occasional silently
            // incomplete frame.)
            SeqRewriteMode::LowRetransmission => df == s.cadence_step as i32 && start,
        }
    }

    fn handle_reorder(&self, s: &mut StreamState, seq: u16, frame: u16, ds: i32) -> RewriteVerdict {
        match self.mode {
            SeqRewriteMode::LowMemory => {
                // Rule 3: exactly one less than the last observed — but
                // only if the offset is known not to have shifted under
                // that position (duplicate hazard otherwise).
                if ds == -1 && !s.offset_changed_recently {
                    RewriteVerdict::Emit(seq.wrapping_sub(s.offset))
                } else {
                    RewriteVerdict::Drop
                }
            }
            SeqRewriteMode::LowRetransmission => {
                // Late packets newer than the last offset change
                // (retransmissions filling an unmasked loss gap) rewrite
                // exactly with the current offset: every slot between
                // last_mask_seq and highest_seq used this offset, so the
                // mapping is injective and the gap slot is unused.
                if seq_delta(s.last_mask_seq, seq) > 0 {
                    return RewriteVerdict::Emit(seq.wrapping_sub(s.offset));
                }
                // Within the current frame the offset snapshot applies
                // for any reordering depth. Both the sequence position
                // AND the frame number must match — a late packet of a
                // *newer* frame can sit above the stale
                // cur_frame_first_seq while the offset has since moved
                // (duplicate hazard).
                let within_cur_frame =
                    seq_delta(s.cur_frame_first_seq, seq) >= 0 && frame == s.cur_frame_number;
                if within_cur_frame {
                    let out = seq.wrapping_sub(s.cur_frame_offset);
                    if seq_delta(s.last_out, out) > 0 {
                        s.last_out = out;
                    }
                    RewriteVerdict::Emit(out)
                } else {
                    RewriteVerdict::Drop
                }
            }
        }
    }
}

// Not part of the old tracker: the differential test compares persisted
// state, not only verdicts, because S-LM never reads words 3–5 back.
impl StreamTracker {
    /// Slot `idx`'s six words, one from each array (zeros past capacity).
    pub fn words(&self, idx: usize) -> [u32; 6] {
        std::array::from_fn(|k| self.arr[k].read_cp(idx).unwrap_or(0))
    }
}
