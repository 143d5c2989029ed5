//! The simulator's event queue: a calendar queue that pops in exact
//! `(at, push order)` order.
//!
//! The order is the contract — every simulated counter, fingerprint and
//! checked-in baseline is a function of it — and the calendar is only how
//! it is met cheaply. A binary heap pays `O(log n)` cache-missing sift
//! steps on 64-byte events at every pop; discrete-event network traffic
//! is almost all *near* future (a link delay, a pipeline latency, the
//! next video tick), so a ring of narrow time buckets turns both push and
//! pop into a few loads.
//!
//! * **Near tier.** [`RING_BUCKETS`] buckets of 2^[`BUCKET_SHIFT`] ns
//!   each; an instant `at` belongs to absolute bucket `at >> BUCKET_SHIFT`
//!   and sits in ring slot `bucket % RING_BUCKETS`. The ring covers the
//!   absolute buckets `[origin, origin + RING_BUCKETS)`, so a slot holds
//!   events of exactly one absolute bucket. A bucket is a singly linked
//!   list through **one** free-listed slab of slots, kept sorted by
//!   `(at, seq)`, with a tail index so that the common push — later than
//!   everything already in its bucket — is an O(1) append. A switch's
//!   same-instant replica burst is why buckets are sorted rather than
//!   scanned for their minimum at pop: that scan is quadratic in the
//!   burst. A two-level occupancy bitmap finds the next non-empty bucket.
//! * **Far tier.** Events beyond the window wait in a `BinaryHeap` and are
//!   linked into the ring when the origin has advanced far enough. Every
//!   far event is later than every ring event, so the ring is always
//!   popped first.
//!
//! **The origin moves only when an event is popped**, to that event's
//! bucket — never when [`CalendarQueue::pop_until`] refuses because the
//! next event lies beyond the deadline. The caller's clock may run ahead
//! of the origin (to the deadline) but never falls behind it, so nothing
//! the caller may legally push (`at >= now`) lands behind the window. A
//! push that does is a bug in the caller and panics: silent mis-ordering
//! is the failure this structure must make impossible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one bucket: 2^13 ns = 8.192 µs. Bucket population is event
/// rate × width: on the repo benchmark's `sim_federation` (178 clients,
/// ≈ 350 k events per simulated second) that is ≈ 3 events, 74–76 % of
/// ring pushes append at their bucket's tail and the rest walk 3.0 slots
/// on average. Re-derive the width, against the differential test below,
/// if a workload ever runs ~30× that event rate: the sorted insert is
/// linear in the bucket.
const BUCKET_SHIFT: u32 = 13;

/// Ring size: 8 192 buckets × 8.192 µs is a 67 ms window. On
/// `sim_federation` every link and WAN delay, the switch's 1.5 µs
/// pipeline and 250 µs agent latencies and the 15/20/33 ms poll, audio
/// and video ticks land inside; only 0.8 % of pushes (RTCP SR/RR, STUN,
/// the 100 ms agent tick) go to the far heap. The bucket heads are 64 KB
/// and the slab peaks at ≈ 4 200 slots (≈ 330 KB), both cache-resident.
/// Measured against the `BinaryHeap` it replaced on that workload, five
/// alternating pairs: `wall_ns_per_op` 77 132 → 65 512 (0.85×).
const RING_BUCKETS: usize = 8192;

const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const WORDS: usize = RING_BUCKETS / 64;
const NIL: u32 = u32::MAX;

// One `u128` summarises the occupancy words.
const _: () = assert!(RING_BUCKETS.is_power_of_two() && WORDS <= 128);

/// The absolute bucket an instant belongs to.
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// A queued item with its ordering key.
pub(crate) struct Entry<T> {
    pub at: SimTime,
    /// Push order: ties at one instant pop lowest first.
    pub seq: u64,
    pub item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // Reversed: `BinaryHeap` is a max-heap, the far tier needs
    // earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// One slab slot: a linked entry, or a member of the free list.
struct Slot<T> {
    entry: Option<Entry<T>>,
    /// Next slot of the same bucket, or of the free list.
    next: u32,
}

#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// See the module docs.
pub(crate) struct CalendarQueue<T> {
    buckets: Box<[Bucket]>,
    /// Bit `b % 64` of word `b / 64` is set while ring slot `b` is
    /// non-empty; bit `w` of `summary` while word `w` is non-zero.
    words: [u64; WORDS],
    summary: u128,
    slab: Vec<Slot<T>>,
    free: u32,
    /// Absolute bucket of the window's start: that of the last pop.
    origin: u64,
    ring_len: usize,
    far: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: vec![
                Bucket {
                    head: NIL,
                    tail: NIL
                };
                RING_BUCKETS
            ]
            .into_boxed_slice(),
            words: [0; WORDS],
            summary: 0,
            slab: Vec::new(),
            free: NIL,
            origin: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Queue `item` for `at`, after everything already pushed for `at`.
    /// Panics when `at` lies before the bucket of the last popped event.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.seq += 1;
        let entry = Entry {
            at,
            seq: self.seq,
            item,
        };
        let bucket = bucket_of(at);
        assert!(
            bucket >= self.origin,
            "event at {at} pushed behind the queue's origin (bucket {bucket} < {})",
            self.origin
        );
        if bucket - self.origin < RING_BUCKETS as u64 {
            self.link(entry);
        } else {
            self.far.push(entry);
        }
    }

    /// Remove and return the earliest entry if it is due by `deadline`
    /// (inclusive). A refusal leaves the queue exactly as it was.
    pub(crate) fn pop_until(&mut self, deadline: SimTime) -> Option<Entry<T>> {
        if self.ring_len == 0 {
            // Nothing near: jump the window to the earliest far event.
            let next = self.far.peek()?;
            if next.at > deadline {
                return None;
            }
            self.origin = bucket_of(next.at);
            self.pull_far();
        }
        let b = self.first_occupied();
        let head = self.buckets[b].head;
        let slot = &mut self.slab[head as usize];
        if slot.entry.as_ref().is_some_and(|e| e.at > deadline) {
            return None;
        }
        let entry = slot.entry.take().expect("linked slot holds an entry");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = head;
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
            self.words[b / 64] &= !(1 << (b % 64));
            if self.words[b / 64] == 0 {
                self.summary &= !(1 << (b / 64));
            }
        }
        self.ring_len -= 1;
        let bucket = bucket_of(entry.at);
        if bucket != self.origin {
            self.origin = bucket;
            self.pull_far();
        }
        Some(entry)
    }

    /// Link every far event the window now covers into the ring.
    fn pull_far(&mut self) {
        while self
            .far
            .peek()
            .is_some_and(|e| bucket_of(e.at) - self.origin < RING_BUCKETS as u64)
        {
            let entry = self.far.pop().expect("peeked far event");
            self.link(entry);
        }
    }

    /// Sorted insert of an entry whose bucket the window covers.
    fn link(&mut self, entry: Entry<T>) {
        let b = (bucket_of(entry.at) & RING_MASK) as usize;
        let key = entry.key();
        let idx = self.alloc(entry);
        self.ring_len += 1;
        let Bucket { head, tail } = self.buckets[b];
        if tail == NIL {
            self.buckets[b] = Bucket {
                head: idx,
                tail: idx,
            };
            self.words[b / 64] |= 1 << (b % 64);
            self.summary |= 1 << (b / 64);
        } else if self.key_of(tail) < key {
            self.slab[tail as usize].next = idx;
            self.buckets[b].tail = idx;
        } else if key < self.key_of(head) {
            self.slab[idx as usize].next = head;
            self.buckets[b].head = idx;
        } else {
            // head < key < tail: goes after the last slot below it.
            let mut prev = head;
            loop {
                let next = self.slab[prev as usize].next;
                if key < self.key_of(next) {
                    self.slab[idx as usize].next = next;
                    self.slab[prev as usize].next = idx;
                    break;
                }
                prev = next;
            }
        }
    }

    fn key_of(&self, idx: u32) -> (SimTime, u64) {
        self.slab[idx as usize]
            .entry
            .as_ref()
            .expect("linked slot holds an entry")
            .key()
    }

    /// A slot holding `entry` with no successor, reusing a freed one.
    fn alloc(&mut self, entry: Entry<T>) -> u32 {
        if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "under 2^32 pending events");
            let idx = self.slab.len() as u32;
            self.slab.push(Slot {
                entry: Some(entry),
                next: NIL,
            });
            idx
        } else {
            let idx = self.free;
            let slot = &mut self.slab[idx as usize];
            self.free = std::mem::replace(&mut slot.next, NIL);
            slot.entry = Some(entry);
            idx
        }
    }

    /// The first non-empty ring slot at or after the origin's, wrapping.
    /// The ring must not be empty.
    fn first_occupied(&self) -> usize {
        let start = (self.origin & RING_MASK) as usize;
        let (w, bit) = (start / 64, start % 64);
        // The origin's own word, from the origin's bit up.
        let here = self.words[w] & (!0 << bit);
        if here != 0 {
            return w * 64 + here.trailing_zeros() as usize;
        }
        // Later words, then the wrap: earlier words and, last, the bits
        // of the origin's word below the origin.
        let later = self.summary & ((!0u128 << w) << 1);
        let w2 = if later != 0 {
            later.trailing_zeros() as usize
        } else {
            debug_assert!(self.summary != 0, "first_occupied on an empty ring");
            self.summary.trailing_zeros() as usize
        };
        w2 * 64 + self.words[w2].trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    #[derive(Debug, Clone)]
    enum Op {
        /// `burst` same-instant pushes `delay` ns after the clock
        /// (`u64::MAX`: at `SimTime::MAX`).
        Push { delay: u64, burst: usize },
        /// `run_until(clock + ahead)`, cut short after `limit` pops the
        /// way a caller of `step` may stop anywhere.
        Run { ahead: u64, limit: usize },
    }

    /// The delays the simulator sees: same instant, the switch's
    /// pipeline and agent latencies, link and tick delays inside the
    /// window, report intervals beyond it, and "never".
    fn delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1_500u64),
            Just(250_000u64),
            1_000_000u64..50_000_000,
            100_000_000u64..900_000_000,
            Just(u64::MAX),
        ]
    }

    /// Two pushes for every run.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..3, delay(), 1usize..=64, 1usize..200).prop_map(|(kind, delay, burst, limit)| {
            if kind < 2 {
                Op::Push { delay, burst }
            } else {
                Op::Run {
                    ahead: delay,
                    limit,
                }
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Differential test against the structure this queue replaced:
        /// a `BinaryHeap` keyed by `(at, seq)`. Same pops, same refusals,
        /// same length after every operation, with the clock driven the
        /// way `Simulator` drives it through several ring revolutions.
        #[test]
        fn pops_exactly_like_a_binary_heap(ops in prop::collection::vec(op(), 1..300)) {
            let mut queue = CalendarQueue::<u64>::new();
            let mut oracle = BinaryHeap::<Reverse<(u64, u64)>>::new();
            let oracle_pop = |oracle: &mut BinaryHeap<Reverse<(u64, u64)>>, deadline: u64| {
                let &Reverse((at, _)) = oracle.peek()?;
                (at <= deadline).then(|| oracle.pop().expect("peeked").0)
            };
            let (mut clock, mut seq) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Push { delay, burst } => {
                        let at = clock.saturating_add(delay);
                        for _ in 0..burst {
                            seq += 1;
                            queue.push(SimTime::from_nanos(at), seq);
                            oracle.push(Reverse((at, seq)));
                        }
                    }
                    Op::Run { ahead, limit } => {
                        // Run to "never" only at the end: once the clock
                        // is there every later push is the same instant.
                        let deadline = clock + if ahead == u64::MAX { 0 } else { ahead };
                        let mut pops = 0;
                        loop {
                            let got = queue.pop_until(SimTime::from_nanos(deadline));
                            let got = got.map(|e| (e.at.as_nanos(), e.seq, e.item));
                            let want = oracle_pop(&mut oracle, deadline).map(|(at, s)| (at, s, s));
                            prop_assert_eq!(got, want);
                            prop_assert_eq!(queue.len(), oracle.len());
                            match got {
                                Some((at, ..)) => clock = at,
                                None => {
                                    clock = deadline;
                                    break;
                                }
                            }
                            pops += 1;
                            if pops == limit {
                                break;
                            }
                        }
                    }
                }
                prop_assert_eq!(queue.len(), oracle.len());
            }
            while let Some((at, s)) = oracle_pop(&mut oracle, u64::MAX) {
                let got = queue.pop_until(SimTime::MAX).expect("as many as the oracle");
                prop_assert_eq!((got.at.as_nanos(), got.seq, got.item), (at, s, s));
            }
            prop_assert!(queue.pop_until(SimTime::MAX).is_none());
            prop_assert_eq!(queue.len(), 0);
        }
    }

    /// A drained queue reuses its slab: the steady state allocates no
    /// slots however long it runs.
    #[test]
    fn freed_slots_are_reused() {
        let mut queue = CalendarQueue::<u32>::new();
        for round in 0..1_000u64 {
            for k in 0..8 {
                queue.push(SimTime::from_micros(round * 100 + k), 0);
            }
            while queue.pop_until(SimTime::MAX).is_some() {}
        }
        assert_eq!(queue.slab.len(), 8);
    }

    #[test]
    #[should_panic(expected = "behind the queue's origin")]
    fn a_push_behind_the_origin_panics() {
        let mut queue = CalendarQueue::<u32>::new();
        queue.push(SimTime::from_millis(5), 0);
        queue.pop_until(SimTime::MAX);
        queue.push(SimTime::from_millis(4), 1);
    }
}
