//! In-simulation packet trace capture.
//!
//! The paper's Table 1 and Table 2 are produced by analyzing packet traces.
//! [`TraceSink`] records a [`TraceRecord`] per delivered packet when
//! enabled; the analysis code in `scallop-bench` then classifies records by
//! protocol exactly as the paper's trace analysis does.

use crate::packet::HostAddr;
use crate::time::SimTime;

/// Where the record was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDirection {
    /// Packet delivered into a node.
    Delivered,
}

/// One captured packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Delivery time.
    pub at: SimTime,
    /// Source endpoint.
    pub src: HostAddr,
    /// Destination endpoint.
    pub dst: HostAddr,
    /// UDP payload bytes.
    pub payload_bytes: usize,
    /// On-the-wire bytes.
    pub wire_bytes: usize,
    /// Capture point.
    pub direction: TraceDirection,
}

/// A bounded packet-trace recorder.
#[derive(Debug, Clone)]
pub struct TraceSink {
    enabled: bool,
    capacity: usize,
    records: Vec<TraceRecord>,
    /// Count of records discarded after the buffer filled.
    pub overflowed: u64,
}

impl TraceSink {
    /// A sink that records nothing (zero overhead).
    pub fn disabled() -> Self {
        TraceSink {
            enabled: false,
            capacity: 0,
            records: Vec::new(),
            overflowed: 0,
        }
    }

    /// A sink that keeps up to `capacity` records.
    pub fn bounded(capacity: usize) -> Self {
        TraceSink {
            enabled: true,
            capacity,
            records: Vec::with_capacity(capacity.min(1 << 16)),
            overflowed: 0,
        }
    }

    /// Record one packet (no-op when disabled or full).
    pub fn record(&mut self, rec: TraceRecord) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.capacity {
            self.overflowed += 1;
            return;
        }
        self.records.push(rec);
    }

    /// All captured records in delivery order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records but keep recording.
    pub fn clear(&mut self) {
        self.records.clear();
        self.overflowed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(t_ms: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(t_ms),
            src: HostAddr::new(Ipv4Addr::new(10, 0, 0, 1), 1),
            dst: HostAddr::new(Ipv4Addr::new(10, 0, 0, 2), 2),
            payload_bytes: 100,
            wire_bytes: 142,
            direction: TraceDirection::Delivered,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut sink = TraceSink::disabled();
        sink.record(rec(1));
        assert!(sink.is_empty());
    }

    #[test]
    fn bounded_capacity_enforced() {
        let mut sink = TraceSink::bounded(2);
        for t in 0..5 {
            sink.record(rec(t));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.overflowed, 3);
        assert_eq!(sink.records()[0].at, SimTime::from_millis(0));
    }

    #[test]
    fn clear_resets() {
        let mut sink = TraceSink::bounded(8);
        sink.record(rec(1));
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.overflowed, 0);
        sink.record(rec(2));
        assert_eq!(sink.len(), 1);
    }
}
