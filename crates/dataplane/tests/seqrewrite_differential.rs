//! The Stream Tracker's one row per stream, held to the six register
//! arrays it replaced (`seqrewrite_reference`), call for call.
//!
//! Each case is a random history of control-plane calls (`init_stream`,
//! `set_cadence`, `clear_stream`, `offset_of`) and packets (`process`)
//! on a small tracker, run in both modes. Calls land on slots that
//! already have a row, on slots past the last row, and at or past
//! capacity. Each slot's sequence and frame numbers start just short of
//! the u16 wrap and move in order, with gaps, backwards or to an
//! arbitrary value; start/end flags and verdicts are arbitrary. After
//! every call both trackers must agree on the call's result, on every
//! slot's offset and on both packet counters.
//!
//! Verdicts alone cannot tell whether S-LM persists words 3–5, since it
//! never reads them back, so the test also compares persisted state: the
//! row tracker's `Debug` form must show exactly the reference's words
//! for every slot up to the highest one written, and nothing past it.

mod seqrewrite_reference;

use proptest::collection::vec;
use proptest::prelude::*;
use scallop_dataplane::seqrewrite::{PacketVerdict, SeqRewriteMode, StreamTracker};
use seqrewrite_reference::StreamTracker as Reference;

/// Slots of both trackers: few, so histories revisit slots, write past
/// the last row and reach the capacity edge.
const CAPACITY: usize = 12;
/// Slots a call may name: four of them at or past capacity.
const SLOTS: u8 = CAPACITY as u8 + 4;

/// One scripted call: `(kind, slot, seq move, frame move, flags)`.
type Op = (u8, u8, u16, u16, u8);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    vec(
        (0u8..16, 0..SLOTS, any::<u16>(), any::<u16>(), any::<u8>()),
        1..300,
    )
}

/// A cadence: mostly the small steps the agent uses, sometimes one the
/// tracker must clamp (0, or past 255).
fn cadence(flags: u8, arbitrary: u16) -> u16 {
    if flags & 0x80 != 0 {
        arbitrary
    } else {
        u16::from(flags % 5)
    }
}

/// Next number from `cur`: usually the next one, sometimes past a gap,
/// a few back (reordering or a duplicate), or anywhere.
fn advance(cur: u16, mv: u16) -> u16 {
    match mv % 8 {
        0..=3 => cur.wrapping_add(1),
        4 => cur.wrapping_add(2 + (mv >> 3) % 8),
        5 => cur.wrapping_sub((mv >> 3) % 4),
        6 => cur,
        _ => mv,
    }
}

/// What the row tracker's `Debug` form must read when the reference is
/// in its current state and `rows` slots have been written.
fn expected_debug(reference: &Reference, rows: usize) -> String {
    let words: Vec<[u32; 6]> = (0..rows).map(|i| reference.words(i)).collect();
    format!(
        "StreamTracker {{ mode: {:?}, rows: {:?}, capacity: {}, packets_processed: {}, packets_dropped: {} }}",
        reference.mode(),
        words,
        reference.capacity(),
        reference.packets_processed,
        reference.packets_dropped
    )
}

fn check_history(mode: SeqRewriteMode, ops: &[Op]) {
    let mut rows = StreamTracker::new(mode, CAPACITY);
    let mut reference = Reference::new(mode, CAPACITY);
    assert_eq!(rows.sram_bits(), reference.sram_bits());
    // Per-slot (seq, frame), starting just short of the wrap.
    let mut cursor = [(65_500u16, 65_530u16); SLOTS as usize];
    // Slots written so far: the rows the tracker may hold.
    let mut written = 0usize;
    for (step, &(kind, slot, seq_mv, frame_mv, flags)) in ops.iter().enumerate() {
        let idx = usize::from(slot);
        let writes = match kind {
            0 => {
                let c = cadence(flags, seq_mv);
                rows.init_stream(idx, c);
                reference.init_stream(idx, c);
                true
            }
            1 => {
                let c = cadence(flags, seq_mv);
                rows.set_cadence(idx, c);
                reference.set_cadence(idx, c);
                true
            }
            2 => {
                rows.clear_stream(idx);
                reference.clear_stream(idx);
                false
            }
            3 => {
                assert_eq!(rows.offset_of(idx), reference.offset_of(idx));
                false
            }
            _ => {
                let (seq, frame) = &mut cursor[idx];
                *seq = advance(*seq, seq_mv);
                *frame = advance(*frame, frame_mv);
                let (start, end) = (flags & 1 != 0, flags & 2 != 0);
                let verdict = if flags & 4 != 0 {
                    PacketVerdict::Suppress
                } else {
                    PacketVerdict::Forward
                };
                let got = rows.process(idx, *seq, *frame, start, end, verdict);
                let want = reference.process(idx, *seq, *frame, start, end, verdict);
                assert_eq!(got, want, "{mode:?} call {step}: process at {idx}");
                true
            }
        };
        if writes && idx < CAPACITY {
            written = written.max(idx + 1);
        }
        for i in 0..usize::from(SLOTS) {
            assert_eq!(
                rows.offset_of(i),
                reference.offset_of(i),
                "{mode:?} call {step}: offset of {i}"
            );
        }
        assert_eq!(rows.packets_processed, reference.packets_processed);
        assert_eq!(rows.packets_dropped, reference.packets_dropped);
        assert_eq!(
            format!("{rows:?}"),
            expected_debug(&reference, written),
            "{mode:?} call {step}: persisted state"
        );
    }
}

proptest! {
    #[test]
    fn row_tracker_matches_the_six_array_tracker(ops in arb_ops()) {
        for mode in [SeqRewriteMode::LowMemory, SeqRewriteMode::LowRetransmission] {
            check_history(mode, &ops);
        }
    }
}
