//! In-memory spans recorded by the benchmark around calls into each layer.
//!
//! A span has a name (the layer, `crate.module.function`), a start and an
//! end in nanoseconds since the tracer was created, the span that caused
//! it, and the id of the operation it belongs to, which all spans of one
//! operation share. Spans are kept in memory and written out at exit.
//!
//! A child is either time-nested in its parent (a real sub-call) or a
//! *replay*: the same inputs pushed through one layer's public function
//! alone, right after the parent finished. Both are subtracted the same
//! way: a span's self time is its duration minus its children's durations.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation id shared by all spans of one operation.
    pub op: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate over all spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now, with room for `capacity` spans
    /// before the store first grows (spans are recorded between timed
    /// calls, never inside one).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations,
    /// never below zero.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own_ns;
        }
        out
    }

    /// The trace as JSON: at most `cap` spans in full, plus the per-name
    /// totals over all of them.
    pub fn to_json(&self, workload: &str, cap: usize) -> Value {
        let spans = self
            .spans
            .iter()
            .take(cap)
            .map(|s| {
                Value::object([
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    ("parent", s.parent.map_or(Value::Null, Value::from)),
                    ("op", Value::from(s.op)),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::object([
                        ("spans", Value::from(t.spans)),
                        ("total_ns", Value::from(t.total_ns)),
                        ("self_ns", Value::from(t.self_ns)),
                    ]),
                )
            })
            .collect();
        Value::object([
            ("workload", Value::from(workload)),
            ("spans_recorded", Value::from(self.spans.len() as u64)),
            (
                "spans_written",
                Value::from(self.spans.len().min(cap) as u64),
            ),
            ("totals", Value::Obj(totals)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let mut t = Tracer::with_capacity(8);
        let batch = t.push(span("switch", 0, 1_000, None));
        // A nested child and two replays that ran after the parent ended.
        t.push(span("parser", 100, 300, Some(batch)));
        t.push(span("pre", 1_000, 1_250, Some(batch)));
        let egress = t.push(span("egress", 1_250, 1_400, Some(batch)));
        t.push(span("tracker", 1_300, 1_350, Some(egress)));
        assert_eq!(t.self_times(), vec![400, 200, 250, 100, 50]);

        let totals = t.totals();
        assert_eq!(totals["switch"].total_ns, 1_000);
        assert_eq!(totals["switch"].self_ns, 400);
        assert_eq!(totals["egress"].self_ns, 100);
        assert_eq!(totals["tracker"].spans, 1);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut t = Tracer::with_capacity(4);
        let p = t.push(span("parent", 0, 100, None));
        t.push(span("replay", 100, 400, Some(p)));
        assert_eq!(t.self_times(), vec![0, 300]);
    }

    #[test]
    fn json_is_capped_but_totals_cover_everything() {
        let mut t = Tracer::with_capacity(4);
        for i in 0..4 {
            t.push(span("x", i * 10, i * 10 + 5, None));
        }
        let v = t.to_json("w", 2);
        assert_eq!(v.get("spans_recorded").and_then(Value::as_f64), Some(4.0));
        assert_eq!(
            v.get("spans").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        let total = v
            .get("totals")
            .and_then(|t| t.get("x"))
            .and_then(|x| x.get("total_ns"))
            .and_then(Value::as_f64);
        assert_eq!(total, Some(20.0));
    }
}
