//! Hardware sequence-number rewriting (§6.2, Fig. 12).
//!
//! When the SFU suppresses packets for rate adaptation it leaves gaps in
//! the RTP sequence space; receivers would mistake them for loss and
//! request retransmissions. Scallop rewrites sequence numbers in the
//! egress pipeline to mask *intentional* gaps while preserving gaps from
//! genuine network loss. Perfect rewriting is impossible when loss and
//! reordering interleave with suppression, so two heuristics with
//! different state/accuracy trade-offs are provided:
//!
//! * **S-LM (low memory)** — 3 state words per stream: highest sequence
//!   number, highest frame number, offset. Masks unseen gaps whenever the
//!   frame-number delta matches the configured skip cadence; tolerates
//!   only 1-deep reordering.
//! * **S-LR (low retransmission)** — 6 state words: adds the first
//!   sequence number of the latest frame, whether that frame ended, and
//!   the highest suppressed frame number. Masks unseen gaps only when
//!   frame boundaries prove the gap belongs to suppressed frames, handles
//!   reordering within the current frame, and silently drops late packets
//!   of frames it already suppressed.
//!
//! Both heuristics enforce the paper's cardinal rule: **never emit a
//! duplicate sequence number** ("if we duplicate sequence numbers, the
//! decoder's state breaks and the video freezes indefinitely") — a
//! monotonicity guard clamps the offset rather than ever re-emitting an
//! already-used output number.
//!
//! The hardware keeps a stream's state words in six register arrays,
//! word `k` of every stream in array `k`. The [`StreamTracker`] models
//! them as one row of six packed words per stream, so one packet's rewrite
//! reads and writes one cache line; S-LM persists three of the words.
//!
//! Almost every packet a receiver gets is simply its stream's next
//! number, forwarded. [`StreamTracker::process`] rewrites those on the
//! row's words, inline in the caller: when the row is initialised and has
//! emitted, the packet is `highest_seq + 1` and the duplicate guard would
//! not clamp, no gap needs masking, so it writes only the words the state
//! machine's forward step would change (highest sequence and frame
//! numbers, `last_out` and the flags; for S-LR the frame-start words on a
//! frame's first packet and the frame-size estimate on its last) and
//! emits `seq - offset`. Every other packet goes through one out-of-line
//! function that decodes the row, runs the state machine and encodes it
//! again. A proptest in this module holds the in-order path to that
//! function on rows packed from arbitrary states, in both modes: same
//! verdict and same persisted words whenever it takes a packet, and it
//! declines exactly when the row is uninitialised, has not emitted, or
//! the guard clamps.
//!
//! The [`OracleRewriter`] is the software reference used by Fig. 18: it is
//! told the ground truth for every original sequence number (forwarded or
//! suppressed) and produces the ideal rewritten stream.

/// Whether the adaptation stage decided to forward or suppress a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketVerdict {
    /// Packet is forwarded to this receiver.
    Forward,
    /// Packet is suppressed (its SVC layer exceeds the decode target).
    Suppress,
}

/// Result of the rewrite stage for a forwarded packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteVerdict {
    /// Emit the packet with this rewritten sequence number.
    Emit(u16),
    /// Drop the packet (duplicate / deep reorder / late suppressed frame).
    Drop,
}

/// Which heuristic a stream uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqRewriteMode {
    /// S-LM: 3 words/stream.
    LowMemory,
    /// S-LR: 6 words/stream.
    LowRetransmission,
}

impl SeqRewriteMode {
    /// Register words consumed per stream.
    pub fn words_per_stream(self) -> usize {
        match self {
            SeqRewriteMode::LowMemory => 3,
            SeqRewriteMode::LowRetransmission => 6,
        }
    }
}

/// Decoded per-stream state (packed into six words in the tracker).
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

/// Flag bits of word 1 (its low byte; the cadence sits above them).
const INITIALIZED: u32 = 0x1;
const LAST_FRAME_ENDED: u32 = 0x2;
const EMITTED_ANY: u32 = 0x4;
const HAS_SUPPRESSED: u32 = 0x8;
const OFFSET_CHANGED_RECENTLY: u32 = 0x10;
const LAST_FRAME_SUPPRESSED: u32 = 0x20;

/// Two 16-bit fields in one word, `hi` in the upper half.
fn hi_lo(hi: u16, lo: u16) -> u32 {
    (u32::from(hi) << 16) | u32::from(lo)
}

/// A word's 16-bit halves, upper first.
fn halves(w: u32) -> (u16, u16) {
    ((w >> 16) as u16, w as u16)
}

impl StreamState {
    /// Decode a stream's six words (all zeros for a never-used slot).
    fn unpack([w0, w1, w2, w3, w4, w5]: [u32; 6]) -> Self {
        let (highest_seq, highest_frame) = halves(w0);
        let (last_out, highest_suppressed_frame) = halves(w2);
        let (cur_frame_first_seq, cur_frame_number) = halves(w3);
        let (cur_frame_offset, last_mask_seq) = halves(w4);
        StreamState {
            highest_seq,
            highest_frame,
            offset: (w1 >> 16) as u16,
            initialized: w1 & INITIALIZED != 0,
            last_frame_ended: w1 & LAST_FRAME_ENDED != 0,
            emitted_any: w1 & EMITTED_ANY != 0,
            has_suppressed: w1 & HAS_SUPPRESSED != 0,
            cadence_step: ((w1 >> 8) & 0xFF) as u16,
            offset_changed_recently: w1 & OFFSET_CHANGED_RECENTLY != 0,
            last_frame_suppressed: w1 & LAST_FRAME_SUPPRESSED != 0,
            last_out,
            highest_suppressed_frame,
            cur_frame_first_seq,
            cur_frame_number,
            cur_frame_offset,
            last_mask_seq,
            frame_size_est: (w5 as u16).max(1),
        }
    }

    /// Encode into six words: S-LM's three first, S-LR's extras after.
    fn pack(&self) -> [u32; 6] {
        let flag = |set: bool, bit: u32| if set { bit } else { 0 };
        let flags = flag(self.initialized, INITIALIZED)
            | flag(self.last_frame_ended, LAST_FRAME_ENDED)
            | flag(self.emitted_any, EMITTED_ANY)
            | flag(self.has_suppressed, HAS_SUPPRESSED)
            | flag(self.offset_changed_recently, OFFSET_CHANGED_RECENTLY)
            | flag(self.last_frame_suppressed, LAST_FRAME_SUPPRESSED);
        [
            hi_lo(self.highest_seq, self.highest_frame),
            (u32::from(self.offset) << 16) | ((u32::from(self.cadence_step) & 0xFF) << 8) | flags,
            hi_lo(self.last_out, self.highest_suppressed_frame),
            hi_lo(self.cur_frame_first_seq, self.cur_frame_number),
            hi_lo(self.cur_frame_offset, self.last_mask_seq),
            u32::from(self.frame_size_est),
        ]
    }
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

/// The frame-size estimate `est` after a frame that ran from `first_seq`
/// to `last_seq` (an EWMA; implausible sizes leave it as it is).
fn learned_frame_size(est: u16, first_seq: u16, last_seq: u16) -> u16 {
    let size = seq_delta(first_seq, last_seq);
    if (0..=255).contains(&size) {
        let observed = size as u16 + 1;
        ((3 * est + observed) / 4).max(1)
    } else {
        est
    }
}

/// The rewrite of a forwarded packet that is its stream's next number
/// (`highest_seq + 1`), done on the row's words: `Some(seq - offset)`,
/// or `None` — with the row untouched — when the state machine must
/// decide. It decides when the stream has not yet emitted (or has no
/// state), and when the duplicate guard would clamp the offset.
///
/// Otherwise no gap needs masking, so `step`'s `Forward` branch changes
/// only these words, and this writes exactly those: the highest
/// sequence and frame numbers, `last_out` and the flags (words 0–2, all
/// S-LM persists), and for S-LR the frame-start words on a frame's first
/// packet and the frame-size estimate on its last.
#[inline]
fn forward_in_order(
    mode: SeqRewriteMode,
    row: &mut [u32; 6],
    seq: u16,
    frame: u16,
    start: bool,
    end: bool,
) -> Option<u16> {
    let [w0, w1, w2, w3, w4, w5] = *row;
    let (highest_seq, _) = halves(w0);
    let offset = (w1 >> 16) as u16;
    let (last_out, highest_suppressed_frame) = halves(w2);
    let out = seq.wrapping_sub(offset);
    let live = INITIALIZED | EMITTED_ANY;
    if w1 & live != live || seq != highest_seq.wrapping_add(1) || seq_delta(last_out, out) <= 0 {
        return None;
    }
    let ended = if end { LAST_FRAME_ENDED } else { 0 };
    row[0] = hi_lo(seq, frame);
    row[1] = (w1 & !(LAST_FRAME_ENDED | OFFSET_CHANGED_RECENTLY | LAST_FRAME_SUPPRESSED)) | ended;
    row[2] = hi_lo(out, highest_suppressed_frame);
    if mode == SeqRewriteMode::LowRetransmission {
        let (first_seq, frame_number) = if start {
            row[3] = hi_lo(seq, frame);
            row[4] = hi_lo(offset, w4 as u16);
            (seq, frame)
        } else {
            halves(w3)
        };
        if end && frame == frame_number {
            row[5] = u32::from(learned_frame_size((w5 as u16).max(1), first_seq, seq));
        }
    }
    Some(out)
}

/// The Stream Tracker in the egress pipeline: one slot per rate-adapted
/// stream, indexed by the collision-free stream index the control plane
/// assigns (§6.2 "Stream Index" table).
///
/// The prototype spreads a slot over six register arrays ("six hash
/// tables, always accessed in order"); here a slot is one row holding the
/// same six words, and S-LM persists only words 0–2, the arrays it
/// touches. Rows exist up to the highest index initialised or processed,
/// never past `capacity`. A slot without a row reads as zeros, as an
/// untouched register does, and an index at or past `capacity` reads as
/// zeros and keeps nothing. [`Self::sram_bits`] charges the full arrays.
#[derive(Debug)]
pub struct StreamTracker {
    mode: SeqRewriteMode,
    rows: Vec<[u32; 6]>,
    capacity: usize,
    /// Packets processed through the rewrite stage.
    pub packets_processed: u64,
    /// Packets dropped by the rewrite stage.
    pub packets_dropped: u64,
}

impl StreamTracker {
    /// Create a tracker with `capacity` stream slots; it holds no row
    /// until a stream uses one.
    pub fn new(mode: SeqRewriteMode, capacity: usize) -> Self {
        StreamTracker {
            mode,
            rows: Vec::new(),
            capacity,
            packets_processed: 0,
            packets_dropped: 0,
        }
    }

    /// Heuristic in use.
    pub fn mode(&self) -> SeqRewriteMode {
        self.mode
    }

    /// Stream slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total SRAM bits of the stream-tracker arrays actually needed by
    /// the configured mode.
    pub fn sram_bits(&self) -> usize {
        self.capacity * 32 * self.mode.words_per_stream()
    }

    fn load(&self, idx: usize) -> StreamState {
        StreamState::unpack(self.rows.get(idx).copied().unwrap_or_default())
    }

    /// Write `s` to slot `idx`: all six words from the control plane, the
    /// mode's words from the rewrite stage. A write past the last row
    /// grows the rows through `idx`; past `capacity` nothing is kept.
    /// Inlined so that `process_in_full` packs its state straight into the
    /// row.
    #[inline]
    fn store(&mut self, idx: usize, s: &StreamState, all_words: bool) {
        if idx >= self.capacity {
            return;
        }
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, [0; 6]);
        }
        let words = s.pack();
        let row = &mut self.rows[idx];
        if all_words || self.mode == SeqRewriteMode::LowRetransmission {
            *row = words;
        } else {
            row[..3].copy_from_slice(&words[..3]);
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
        self.store(idx, &s, true);
    }

    /// Control plane: update the cadence when the decode target changes.
    pub fn set_cadence(&mut self, idx: usize, cadence_step: u16) {
        let mut s = self.load(idx);
        s.cadence_step = cadence_step.clamp(1, 255);
        self.store(idx, &s, true);
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
        if let Some(row) = self.rows.get_mut(idx) {
            *row = [0; 6];
        }
    }

    /// Process one packet of the stream through the rewrite stage.
    ///
    /// `seq`/`frame` are the *original* numbers; `start`/`end` are the
    /// DD frame-boundary flags; `verdict` is the adaptation decision made
    /// earlier in the pipeline. Suppressed packets update state and are
    /// always dropped; forwarded packets yield an [`RewriteVerdict`].
    ///
    /// Almost every packet is the next number of its stream, forwarded:
    /// `forward_in_order` rewrites those on the row's words, inline in the
    /// caller. Every other packet runs the whole state machine, out of
    /// line in `process_in_full`. Always inlined: a plain `#[inline]`
    /// left it out of line in `emit_replica`'s replica loop.
    #[inline(always)]
    pub fn process(
        &mut self,
        idx: usize,
        seq: u16,
        frame: u16,
        start: bool,
        end: bool,
        verdict: PacketVerdict,
    ) -> RewriteVerdict {
        if verdict == PacketVerdict::Forward {
            if let Some(row) = self.rows.get_mut(idx) {
                if let Some(out) = forward_in_order(self.mode, row, seq, frame, start, end) {
                    self.packets_processed += 1;
                    return RewriteVerdict::Emit(out);
                }
            }
        }
        self.process_in_full(idx, seq, frame, start, end, verdict)
    }

    /// [`Self::process`] through the state machine: decode the row, step,
    /// encode it again.
    #[inline(never)]
    fn process_in_full(
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
        self.store(idx, &s, false);
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
            s.frame_size_est = learned_frame_size(s.frame_size_est, s.cur_frame_first_seq, seq);
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

/// Software oracle: told the ground truth for every original sequence
/// number, produces the ideal rewrite (Fig. 18's reference).
#[derive(Debug, Default)]
pub struct OracleRewriter {
    /// Count of suppressed originals seen so far, keyed monotonically.
    suppressed_before: std::collections::BTreeMap<u64, u64>,
    count: u64,
}

impl OracleRewriter {
    /// Create an oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the verdict for original (extended) sequence `seq`; calls
    /// must cover every original in order. Returns the ideal output
    /// number for forwarded packets.
    pub fn record(&mut self, seq: u64, verdict: PacketVerdict) -> Option<u64> {
        match verdict {
            PacketVerdict::Suppress => {
                self.count += 1;
                self.suppressed_before.insert(seq, self.count);
                None
            }
            PacketVerdict::Forward => {
                self.suppressed_before.insert(seq, self.count);
                Some(seq - self.count)
            }
        }
    }

    /// Ideal output number for a previously recorded forwarded original.
    pub fn ideal(&self, seq: u64) -> Option<u64> {
        self.suppressed_before.get(&seq).map(|c| seq - c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed a clean 2-packets-per-frame stream where every second frame is
    /// suppressed (cadence 2, i.e. 30 → 15 fps).
    fn drive_clean(mode: SeqRewriteMode) -> Vec<(u16, RewriteVerdict)> {
        let mut st = StreamTracker::new(mode, 16);
        st.init_stream(3, 2);
        let mut out = Vec::new();
        let mut seq = 0u16;
        for f in 0u16..10 {
            let suppress = f % 2 == 1;
            for p in 0..2 {
                let v = if suppress {
                    PacketVerdict::Suppress
                } else {
                    PacketVerdict::Forward
                };
                let r = st.process(3, seq, f, p == 0, p == 1, v);
                out.push((seq, r));
                seq = seq.wrapping_add(1);
            }
        }
        out
    }

    fn emitted(results: &[(u16, RewriteVerdict)]) -> Vec<u16> {
        results
            .iter()
            .filter_map(|(_, r)| match r {
                RewriteVerdict::Emit(s) => Some(*s),
                RewriteVerdict::Drop => None,
            })
            .collect()
    }

    #[test]
    fn clean_suppression_masks_perfectly_both_modes() {
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            let results = drive_clean(mode);
            let outs = emitted(&results);
            // 5 forwarded frames × 2 packets = 10 packets, renumbered
            // contiguously 0..9.
            assert_eq!(outs, (0..10).collect::<Vec<u16>>(), "{mode:?}");
        }
    }

    #[test]
    fn no_adaptation_passthrough() {
        let mut st = StreamTracker::new(SeqRewriteMode::LowMemory, 4);
        st.init_stream(0, 1);
        for seq in 0u16..20 {
            let r = st.process(
                0,
                seq,
                seq / 2,
                seq % 2 == 0,
                seq % 2 == 1,
                PacketVerdict::Forward,
            );
            assert_eq!(r, RewriteVerdict::Emit(seq));
        }
    }

    #[test]
    fn genuine_loss_leaves_gap() {
        // Forward everything (cadence 1) but skip feeding seq 5 (upstream
        // loss): output must preserve the gap so the receiver NACKs.
        let mut st = StreamTracker::new(SeqRewriteMode::LowRetransmission, 4);
        st.init_stream(0, 1);
        let mut outs = Vec::new();
        for seq in 0u16..10 {
            if seq == 5 {
                continue;
            }
            if let RewriteVerdict::Emit(s) =
                st.process(0, seq, seq, true, true, PacketVerdict::Forward)
            {
                outs.push(s);
            }
        }
        assert_eq!(outs, vec![0, 1, 2, 3, 4, 6, 7, 8, 9]);
    }

    #[test]
    fn lost_suppressed_frame_slm_masks_slr_masks_with_clean_boundaries() {
        // Frames: f0 fwd (seqs 0,1), f1 suppressed (2,3) LOST upstream,
        // f2 fwd (4,5). Both heuristics should attribute the unseen gap
        // to the suppressed frame (df == cadence 2, boundaries clean).
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            let mut st = StreamTracker::new(mode, 4);
            st.init_stream(0, 2);
            let mut outs = Vec::new();
            for (seq, f, s, e) in [
                (0, 0, true, false),
                (1, 0, false, true),
                (4, 2, true, false),
                (5, 2, false, true),
            ] {
                if let RewriteVerdict::Emit(o) = st.process(0, seq, f, s, e, PacketVerdict::Forward)
                {
                    outs.push(o);
                }
            }
            assert_eq!(outs, vec![0, 1, 2, 3], "{mode:?}");
        }
    }

    #[test]
    fn messy_boundary_masking_rules() {
        // Two-packet frames, cadence 2. Warm S-LR's frame-size estimator
        // with two clean cycles (est -> 2), then test the gap semantics.
        let warm = |mode| {
            let mut st = StreamTracker::new(mode, 4);
            st.init_stream(0, 2);
            let mut seq = 0u16;
            for f in 0u16..4 {
                let v = if f % 2 == 1 {
                    PacketVerdict::Suppress
                } else {
                    PacketVerdict::Forward
                };
                st.process(0, seq, f, true, false, v);
                st.process(0, seq + 1, f, false, true, v);
                seq += 2;
            }
            (st, seq) // 4 frames consumed, next frame number 4
        };

        // Case A (tail lost): f4 fwd, its tail seq 9 lost; f5 suppressed
        // and lost; f6 fwd arrives cleanly. S-LR's estimator masks the
        // suppressed frame's 2 slots; the lost tail slot remains a gap
        // (genuine loss the receiver should repair).
        let (mut st, base) = warm(SeqRewriteMode::LowRetransmission);
        let mut outs = Vec::new();
        for (seq, f, s0, e0) in [
            (base, 4u16, true, false),
            // base+1 (tail of f4) lost; f5 (base+2, base+3) lost.
            (base + 4, 6, true, false),
            (base + 5, 6, false, true),
        ] {
            if let RewriteVerdict::Emit(o) = st.process(0, seq, f, s0, e0, PacketVerdict::Forward) {
                outs.push(o);
            }
        }
        // Warmup emitted 0,1 (f0) and 2,3 (f2: gap of f1 masked exactly).
        // f4's head emits 4; the estimator masks f5's two slots, leaving
        // one slot (the lost tail) -> f6 emits 6,7.
        assert_eq!(outs, vec![4, 6, 7]);

        // Case B (suppressed frame lost + next head lost): S-LR masks the
        // estimated suppressed portion only; the lost forwarded head
        // remains visible as a gap.
        let (mut st, base) = warm(SeqRewriteMode::LowRetransmission);
        let mut outs = Vec::new();
        for (seq, f, s0, e0) in [
            (base, 4u16, true, false),
            (base + 1, 4, false, true),
            // f5 (base+2, base+3) suppressed + lost; head of f6 (base+4) lost.
            (base + 5, 6, false, true),
        ] {
            if let RewriteVerdict::Emit(o) = st.process(0, seq, f, s0, e0, PacketVerdict::Forward) {
                outs.push(o);
            }
        }
        // f4 emits 4,5; gap {base+2..base+4} = 3 slots, estimator masks 2
        // -> f6's tail emits at 7, leaving slot 6 for the lost head.
        assert_eq!(outs, vec![4, 5, 7]);

        // S-LM masks blindly on the cadence check: same case B swallows
        // the head loss entirely (contiguous output).
        let (mut st, base) = warm(SeqRewriteMode::LowMemory);
        let mut outs = Vec::new();
        for (seq, f, s0, e0) in [
            (base, 4u16, true, false),
            (base + 1, 4, false, true),
            (base + 5, 6, false, true),
        ] {
            if let RewriteVerdict::Emit(o) = st.process(0, seq, f, s0, e0, PacketVerdict::Forward) {
                outs.push(o);
            }
        }
        assert_eq!(outs, vec![4, 5, 6]);
    }

    #[test]
    fn duplicate_original_dropped() {
        let mut st = StreamTracker::new(SeqRewriteMode::LowMemory, 4);
        st.init_stream(0, 1);
        assert!(matches!(
            st.process(0, 0, 0, true, true, PacketVerdict::Forward),
            RewriteVerdict::Emit(0)
        ));
        assert_eq!(
            st.process(0, 0, 0, true, true, PacketVerdict::Forward),
            RewriteVerdict::Drop
        );
    }

    #[test]
    fn reordering_depth_tolerance() {
        // Sequence arrives 0,1,3,2 (swap) on a stream whose cadence never
        // matches (so the 3-gap is treated as loss, offset untouched).
        // S-LM rule 3 then admits the 1-deep late packet; deeper reorders
        // are dropped.
        let mut st = StreamTracker::new(SeqRewriteMode::LowMemory, 4);
        st.init_stream(0, 9);
        let feed = [(0u16, 0u16), (1, 0), (3, 1)];
        for (seq, f) in feed {
            st.process(0, seq, f, true, true, PacketVerdict::Forward);
        }
        assert_eq!(
            st.process(0, 2, 1, true, true, PacketVerdict::Forward),
            RewriteVerdict::Emit(2)
        );
        // A 3-deep late packet is dropped by S-LM.
        assert_eq!(
            st.process(0, 0, 0, true, true, PacketVerdict::Forward),
            RewriteVerdict::Drop
        );
    }

    #[test]
    fn masked_gap_blocks_rule3_late_packet() {
        // Frames of 2 packets, cadence 2: f0 (0,1) forwarded, f1 (2,3)
        // suppressed but lost upstream (never seen), f2 (4,5) forwarded.
        // f2's packets arrive out of order: 5 first (masking the unseen
        // gap), then 4 late. Emitting 4 with the post-mask offset would
        // duplicate an already-used number, so it must be dropped.
        let mut st = StreamTracker::new(SeqRewriteMode::LowMemory, 4);
        st.init_stream(0, 2);
        st.process(0, 0, 0, true, false, PacketVerdict::Forward);
        st.process(0, 1, 0, false, true, PacketVerdict::Forward);
        // Seq 5 (f2): gap {2,3,4}, df == cadence -> masked, offset = 3.
        assert_eq!(
            st.process(0, 5, 2, false, true, PacketVerdict::Forward),
            RewriteVerdict::Emit(2)
        );
        // Late seq 4: out would be 4 - 3 = 1, colliding with emitted 1.
        assert_eq!(
            st.process(0, 4, 2, true, false, PacketVerdict::Forward),
            RewriteVerdict::Drop
        );
    }

    #[test]
    fn rule3_late_packet_ok_when_gap_was_not_masked() {
        // Same layout but the suppressed frame IS observed (so the offset
        // is exact) and f2's packets swap: 5 then 4. S-LM's rule 3 can
        // rewrite the 1-deep late packet safely.
        let mut st = StreamTracker::new(SeqRewriteMode::LowMemory, 4);
        st.init_stream(0, 2);
        st.process(0, 0, 0, true, false, PacketVerdict::Forward);
        st.process(0, 1, 0, false, true, PacketVerdict::Forward);
        st.process(0, 2, 1, true, false, PacketVerdict::Suppress);
        st.process(0, 3, 1, false, true, PacketVerdict::Suppress);
        // Seq 5 (f2) first: ds = 2 from highest 3, gap = 1 but df = 1 (f1
        // -> f2) != cadence, so the gap is NOT masked; offset stays 2.
        assert_eq!(
            st.process(0, 5, 2, false, true, PacketVerdict::Forward),
            RewriteVerdict::Emit(3)
        );
        // Late seq 4 fills the unmasked hole exactly: emits 2.
        assert_eq!(
            st.process(0, 4, 2, true, false, PacketVerdict::Forward),
            RewriteVerdict::Emit(2)
        );
    }

    #[test]
    fn never_emits_duplicates_under_stress() {
        // Randomized loss + suppression + light reordering: the rewritten
        // stream must never reuse a sequence number (the §6.2 invariant).
        use scallop_netsim::rng::DetRng;
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            let mut rng = DetRng::new(0xABCD);
            let mut st = StreamTracker::new(mode, 4);
            st.init_stream(0, 2);
            let mut seen = std::collections::BTreeSet::new();
            let mut seq = 0u16;
            let mut pending: Option<(u16, u16, bool, bool, PacketVerdict)> = None;
            for f in 0u16..2000 {
                let suppress = f % 2 == 1;
                for p in 0..2 {
                    let v = if suppress {
                        PacketVerdict::Suppress
                    } else {
                        PacketVerdict::Forward
                    };
                    let tuple = (seq, f, p == 0, p == 1, v);
                    seq = seq.wrapping_add(1);
                    if rng.chance(0.15) {
                        continue; // upstream loss
                    }
                    if rng.chance(0.05) && pending.is_none() {
                        pending = Some(tuple); // hold back to reorder
                        continue;
                    }
                    let (s0, f0, st0, e0, v0) = tuple;
                    if let RewriteVerdict::Emit(o) = st.process(0, s0, f0, st0, e0, v0) {
                        assert!(seen.insert(o), "{mode:?} duplicated output seq {o}");
                    }
                    if let Some((s1, f1, st1, e1, v1)) = pending.take() {
                        if let RewriteVerdict::Emit(o) = st.process(0, s1, f1, st1, e1, v1) {
                            assert!(seen.insert(o), "{mode:?} duplicated late seq {o}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_produces_contiguous_ideal_stream() {
        let mut oracle = OracleRewriter::new();
        let mut outs = Vec::new();
        for seq in 0u64..12 {
            // Suppress seqs 2,3,6,7,10,11 (every second 2-packet frame).
            let v = if (seq / 2) % 2 == 1 {
                PacketVerdict::Suppress
            } else {
                PacketVerdict::Forward
            };
            if let Some(o) = oracle.record(seq, v) {
                outs.push(o);
            }
        }
        assert_eq!(outs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(oracle.ideal(4), Some(2));
        // Suppressed originals report the slot just below them (their
        // own suppression is already counted); only forwarded seqs are
        // queried by the Fig. 18 harness.
        assert_eq!(oracle.ideal(2), Some(1));
    }

    #[test]
    fn cadence_update_mid_stream() {
        let mut st = StreamTracker::new(SeqRewriteMode::LowRetransmission, 4);
        st.init_stream(0, 1);
        for seq in 0u16..4 {
            assert!(matches!(
                st.process(0, seq, seq, true, true, PacketVerdict::Forward),
                RewriteVerdict::Emit(_)
            ));
        }
        st.set_cadence(0, 2);
        // Now frames alternate forward/suppress.
        let mut outs = Vec::new();
        for f in 4u16..10 {
            let v = if f % 2 == 1 {
                PacketVerdict::Suppress
            } else {
                PacketVerdict::Forward
            };
            if let RewriteVerdict::Emit(o) = st.process(0, f, f, true, true, v) {
                outs.push(o);
            }
        }
        assert_eq!(outs, vec![4, 5, 6]);
    }

    #[test]
    fn clear_stream_resets() {
        let mut st = StreamTracker::new(SeqRewriteMode::LowMemory, 4);
        st.init_stream(1, 2);
        st.process(1, 100, 50, true, true, PacketVerdict::Forward);
        st.clear_stream(1);
        st.init_stream(1, 1);
        // Fresh stream state: first packet passes through unmodified.
        assert_eq!(
            st.process(1, 7, 0, true, true, PacketVerdict::Forward),
            RewriteVerdict::Emit(7)
        );
    }

    #[test]
    fn sram_accounting_by_mode() {
        let lm = StreamTracker::new(SeqRewriteMode::LowMemory, 65_536);
        let lr = StreamTracker::new(SeqRewriteMode::LowRetransmission, 65_536);
        assert_eq!(lm.sram_bits(), 65_536 * 32 * 3);
        assert_eq!(lr.sram_bits(), 65_536 * 32 * 6);
        assert_eq!(lr.sram_bits(), 2 * lm.sram_bits());
    }

    /// A tracker of one slot holding `row`, as if the stream's earlier
    /// packets had left it there.
    fn tracker_with(mode: SeqRewriteMode, row: [u32; 6]) -> StreamTracker {
        let mut st = StreamTracker::new(mode, 1);
        st.rows.push(row);
        st
    }

    #[test]
    fn thinned_then_restored_stream_rewrites_in_order_across_the_wrap() {
        // Two-packet frames from just short of the wrap, every second one
        // suppressed (cadence 2); then the decode target is restored and
        // six-packet frames run the input past seq 65 535 and the output
        // past 65 535. A twin takes every packet through the state machine.
        let frames = |from: u16, to: u16, ppf: u16| {
            (from..to).flat_map(move |f| (0..ppf).map(move |p| (f, p == 0, p + 1 == ppf)))
        };
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            let mut st = StreamTracker::new(mode, 4);
            let mut twin = StreamTracker::new(mode, 4);
            let mut outs = Vec::new();
            let mut seq = 65_480u16;
            for t in [&mut st, &mut twin] {
                t.init_stream(0, 2);
            }
            for (f, start, end) in frames(0, 8, 2) {
                let v = if f % 2 == 1 {
                    PacketVerdict::Suppress
                } else {
                    PacketVerdict::Forward
                };
                let got = st.process(0, seq, f, start, end, v);
                assert_eq!(got, twin.process_in_full(0, seq, f, start, end, v));
                if let RewriteVerdict::Emit(o) = got {
                    outs.push(o);
                }
                seq = seq.wrapping_add(1);
            }
            for t in [&mut st, &mut twin] {
                t.set_cadence(0, 1);
            }
            assert_eq!(st.offset_of(0), 8, "{mode:?}: four suppressed frames");
            for (f, start, end) in frames(8, 18, 6) {
                // The in-order path takes every packet from here on.
                let mut probe = st.rows[0];
                let out = forward_in_order(mode, &mut probe, seq, f, start, end);
                assert_eq!(out, Some(seq.wrapping_sub(8)), "{mode:?} seq {seq}");
                let est = st.load(0).frame_size_est;
                let got = st.process(0, seq, f, start, end, PacketVerdict::Forward);
                let want = twin.process_in_full(0, seq, f, start, end, PacketVerdict::Forward);
                assert_eq!(got, want, "{mode:?} seq {seq}");
                assert_eq!(st.rows, twin.rows, "{mode:?} seq {seq}");
                if mode == SeqRewriteMode::LowRetransmission && f == 8 && end {
                    assert_eq!((est, st.load(0).frame_size_est), (2, 3));
                }
                if let RewriteVerdict::Emit(o) = got {
                    outs.push(o);
                }
                seq = seq.wrapping_add(1);
            }
            assert_eq!(st.offset_of(0), 8, "{mode:?}: the offset stays");
            assert!(
                seq < 100 && outs.last() < Some(&100),
                "{mode:?}: both wrapped"
            );
            let contiguous: Vec<u16> = (0..outs.len() as u16)
                .map(|i| 65_480u16.wrapping_add(i))
                .collect();
            assert_eq!(outs, contiguous, "{mode:?}");
            assert_eq!(
                (st.packets_processed, st.packets_dropped),
                (twin.packets_processed, twin.packets_dropped)
            );
        }
    }

    /// The in-order path against `load → step → store` on the next packet
    /// (`highest_seq + 1`, forwarded) of the stream whose row is `row`.
    fn check_in_order(mode: SeqRewriteMode, row: [u32; 6], frame: u16, start: bool, end: bool) {
        let state = StreamState::unpack(row);
        let seq = state.highest_seq.wrapping_add(1);
        let mut full = tracker_with(mode, row);
        let want = full.process_in_full(0, seq, frame, start, end, PacketVerdict::Forward);
        // With no gap to mask, only the duplicate guard moves the offset.
        let clamped = full.offset_of(0) != state.offset;
        let declines = !state.initialized || !state.emitted_any || clamped;

        let mut words = row;
        match forward_in_order(mode, &mut words, seq, frame, start, end) {
            Some(out) => {
                assert!(
                    !declines,
                    "{mode:?} took a packet the state machine must decide"
                );
                assert_eq!(RewriteVerdict::Emit(out), want, "{mode:?}");
                assert_eq!(words, full.rows[0], "{mode:?}");
            }
            None => {
                assert!(declines, "{mode:?} left an in-order packet");
                assert_eq!(words, row, "{mode:?}");
            }
        }
        // `process` itself, whichever way it goes.
        let mut st = tracker_with(mode, row);
        let got = st.process(0, seq, frame, start, end, PacketVerdict::Forward);
        assert_eq!(got, want, "{mode:?}");
        assert_eq!(st.rows, full.rows, "{mode:?}");
        assert_eq!(
            (st.packets_processed, st.packets_dropped),
            (full.packets_processed, full.packets_dropped)
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Whenever the in-order path takes a packet, its verdict and
        /// every persisted word are the state machine's; it leaves the
        /// packet (and the row) alone exactly when the row is
        /// uninitialised, has not emitted, or the duplicate guard clamps.
        /// Rows are packed from arbitrary states, canonical ones only.
        #[test]
        fn in_order_path_matches_the_state_machine(
            head in any::<[u16; 5]>(),
            tail in any::<[u16; 5]>(),
            flags in any::<[bool; 6]>(),
            shape in (any::<bool>(), any::<bool>(), any::<u8>(), any::<u8>(), any::<u16>()),
            bounds in (any::<bool>(), any::<bool>()),
        ) {
            let [highest_seq, highest_frame, offset, last_out, cadence] = head;
            let [hsf, first_seq, number, cur_offset, mask_seq] = tail;
            let (steady, same_frame, frame_len, est, other_frame) = shape;
            let (start, end) = bounds;
            let seq = highest_seq.wrapping_add(1);
            let state = StreamState {
                initialized: flags[0],
                highest_seq,
                highest_frame,
                offset,
                // A stream in step has emitted `highest_seq - offset`.
                last_out: if steady { highest_seq.wrapping_sub(offset) } else { last_out },
                emitted_any: flags[1],
                cadence_step: cadence,
                // Half the time the current frame began a plausible
                // length ago, and the packet continues it.
                cur_frame_first_seq: if same_frame {
                    seq.wrapping_sub(frame_len.into())
                } else {
                    first_seq
                },
                cur_frame_number: number,
                cur_frame_offset: cur_offset,
                last_mask_seq: mask_seq,
                last_frame_ended: flags[2],
                last_frame_suppressed: flags[3],
                // The EWMA of frame sizes 1..=256, from 4, stays in 1..=256.
                frame_size_est: u16::from(est) + 1,
                highest_suppressed_frame: hsf,
                has_suppressed: flags[4],
                offset_changed_recently: flags[5],
            };
            let row = state.pack();
            prop_assume!(StreamState::unpack(row).pack() == row);
            let frame = if same_frame { number } else { other_frame };
            for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
                check_in_order(mode, row, frame, start, end);
            }
        }

        /// Setting the cadence already in force changes none of a row's
        /// six words, in either mode: the control plane may re-send a
        /// stream's cadence without disturbing its rewrite. Rows are
        /// packed from arbitrary states, canonical ones with a cadence
        /// `init_stream` could set.
        #[test]
        fn setting_the_cadence_in_force_is_a_no_op(words in any::<[u32; 6]>()) {
            let row = StreamState::unpack(words).pack();
            let current = StreamState::unpack(row).cadence_step;
            prop_assume!(current >= 1);
            for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
                let mut st = tracker_with(mode, row);
                st.set_cadence(0, current);
                prop_assert_eq!(st.rows[0], row, "{:?}", mode);
            }
        }
    }
}
