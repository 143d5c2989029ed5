//! The datagram type that flows through the simulation.
//!
//! All conferencing traffic in the paper is UDP (RTP/RTCP/STUN over UDP), so
//! the simulator models exactly one packet shape: a UDP datagram with an
//! opaque payload. Layer-2/3/4 headers are accounted for as a fixed
//! [`WIRE_OVERHEAD_BYTES`] when computing serialization times and byte
//! counters, matching how the paper reports on-the-wire byte volumes.

use bytes::Bytes;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::net::Ipv4Addr;

/// Ethernet (14) + IPv4 (20) + UDP (8) header bytes added to every payload
/// when computing wire sizes.
pub const WIRE_OVERHEAD_BYTES: usize = 42;

/// A host endpoint: IPv4 address + UDP port.
///
/// The simulator routes on the IPv4 address (a node may own several
/// addresses); the port disambiguates streams within a node, exactly like
/// the per-participant UDP streams Scallop splits in §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostAddr {
    /// IPv4 address identifying the node.
    pub ip: Ipv4Addr,
    /// UDP port within the node.
    pub port: u16,
}

impl HostAddr {
    /// Create an endpoint address.
    pub const fn new(ip: Ipv4Addr, port: u16) -> Self {
        HostAddr { ip, port }
    }
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// A UDP datagram in flight.
///
/// **The sequence-number overlay.** A switch that replicates a packet to
/// many receivers rewrites the RTP sequence number (payload bytes 2..4)
/// of some replicas and nothing else (§6.2). Such a replica shares the
/// ingress packet's `payload` — one reference-count bump, like every
/// other replica — and carries its new number in the overlay, which sits
/// in the padding the struct has anyway (it stays 32 bytes). The datagram
/// on the wire is `payload` with the overlay written over bytes 2..4:
/// [`Self::wire_bytes`] returns exactly that, and packets compare equal
/// when their addresses and wire bytes do. Whatever reads an RTP header
/// off a packet reads the sequence number through [`Self::seq_overlay`]:
/// the data plane's parse stage and the client's receive path do. The
/// overlay changes no length, so [`Self::wire_len`] and every byte
/// counter are those of the datagram. It belongs to the payload it was
/// set on: a packet built afresh with [`Self::new`] has none, and
/// [`Self::push_replica`] sets it on the replicas it writes.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source endpoint.
    pub src: HostAddr,
    /// Destination endpoint; the simulator routes on `dst.ip`.
    pub dst: HostAddr,
    /// UDP payload (RTP, RTCP, STUN, or application bytes), before the
    /// sequence-number overlay is applied.
    pub payload: Bytes,
    /// The RTP sequence number that replaces payload bytes 2..4 on the
    /// wire, when an egress stage rewrote it.
    seq_overlay: Option<u16>,
}

// The overlay lives in what was padding: a replica is no larger for it.
const _: () = assert!(std::mem::size_of::<Packet>() == 32);

impl Packet {
    /// Create a packet.
    pub fn new(src: HostAddr, dst: HostAddr, payload: impl Into<Bytes>) -> Self {
        Packet {
            src,
            dst,
            payload: payload.into(),
            seq_overlay: None,
        }
    }

    /// The RTP sequence number an egress stage wrote over payload bytes
    /// 2..4, if one did.
    pub fn seq_overlay(&self) -> Option<u16> {
        self.seq_overlay
    }

    /// The datagram exactly as it is on the wire: the payload, with the
    /// sequence-number overlay written in when there is one (a copy only
    /// then). For inspection; the hot paths read the overlay instead.
    pub fn wire_bytes(&self) -> Cow<'_, [u8]> {
        match self.seq_overlay {
            None => Cow::Borrowed(&self.payload),
            Some(seq) => {
                let mut bytes = self.payload.to_vec();
                bytes[2..4].copy_from_slice(&seq.to_be_bytes());
                Cow::Owned(bytes)
            }
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total on-the-wire size (payload + L2/L3/L4 headers).
    pub fn wire_len(&self) -> usize {
        self.payload.len() + WIRE_OVERHEAD_BYTES
    }

    /// Return a copy re-addressed to a new source/destination pair, sharing
    /// the payload buffer and keeping the overlay. A node that relays a
    /// packet sends this; a switch emits its replicas with
    /// [`Self::push_replica`].
    #[inline]
    pub fn readdressed(&self, src: HostAddr, dst: HostAddr) -> Packet {
        Packet {
            src,
            dst,
            payload: self.payload.clone(),
            seq_overlay: self.seq_overlay,
        }
    }

    /// Append to `out` a replica of this packet addressed `src → dst`, and
    /// return it. This is the address rewrite Scallop's egress pipeline
    /// performs on replicas (§6.1 "Addressing replicated packets"): the
    /// replica shares the payload buffer, and carries `seq` as its RTP
    /// sequence number on the wire when the rewrite stage gave one and the
    /// payload is long enough to hold it (a branch, not a panic: this runs
    /// once per replica); else the overlay this packet carried.
    ///
    /// The replica is written once, in the slot it leaves from: an empty
    /// packet is pushed and its fields filled in place. A replica built on
    /// the stack and then moved into `out` is reloaded for the copy before
    /// its stores have landed, a store-forwarding stall on every replica.
    #[inline(always)]
    pub fn push_replica<'a>(
        &self,
        out: &'a mut Vec<Packet>,
        src: HostAddr,
        dst: HostAddr,
        seq: Option<u16>,
    ) -> &'a mut Packet {
        const EMPTY: Packet = Packet {
            src: HostAddr::new(Ipv4Addr::UNSPECIFIED, 0),
            dst: HostAddr::new(Ipv4Addr::UNSPECIFIED, 0),
            payload: Bytes::new(),
            seq_overlay: None,
        };
        out.push(EMPTY);
        let slot = out.last_mut().expect("a packet was just pushed");
        slot.src = src;
        slot.dst = dst;
        slot.payload = self.payload.clone();
        slot.seq_overlay = match seq {
            Some(seq) if self.payload.len() >= 4 => Some(seq),
            _ => self.seq_overlay,
        };
        slot
    }
}

/// Equal addresses and equal datagrams on the wire: a packet with an
/// overlay equals one whose payload has the same number written in.
impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.src == other.src && self.dst == other.dst && self.wire_bytes() == other.wire_bytes()
    }
}

impl Eq for Packet {}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ({}B)", self.src, self.dst, self.payload.len())
    }
}

/// Payload buffers recycled once nothing else holds them.
///
/// A node that emits a steady stream of packets builds each payload with
/// [`BufPool::build`] instead of a fresh vector. The pool keeps one handle
/// per buffer, oldest first; once every copy of an old packet has been
/// delivered and dropped, the pool's handle is the last one and the
/// buffer — allocation and reference count — is refilled in place
/// ([`Bytes::edit`]). Only the oldest buffer is looked at: one node's
/// packets of one kind die in about the order they were made, so a pool
/// that finds its oldest buffer still in flight grows by one and, once it
/// holds as many buffers as that node has packets in flight, stops
/// growing. Past its limit the oldest buffer is let go of instead, and
/// freed by whatever still holds it. The ring of handles is allocated
/// whole when the pool is made, so the only allocations a pool makes
/// afterwards are the buffers it hands out. Nothing here changes a byte
/// on the wire.
#[derive(Debug, Clone)]
pub struct BufPool {
    ring: VecDeque<Bytes>,
    limit: usize,
}

impl BufPool {
    /// A pool that keeps at most `limit` buffers: as many as its node can
    /// have in flight at once, or a bound on what is worth keeping.
    pub fn new(limit: usize) -> BufPool {
        BufPool {
            ring: VecDeque::with_capacity(limit),
            limit,
        }
    }

    /// A payload holding what `fill` appends to an empty vector.
    pub fn build(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let mut buf = self.take();
        buf.edit(|v| {
            v.clear();
            fill(v);
        });
        self.put(buf.clone());
        buf
    }

    /// The oldest buffer when nothing else holds it, else an empty new
    /// one; hand it back with [`Self::put`] once filled.
    pub fn take(&mut self) -> Bytes {
        if self.ring.front().is_some_and(Bytes::is_unique) {
            return self.ring.pop_front().unwrap_or_default();
        }
        if self.ring.len() >= self.limit {
            self.ring.pop_front();
        }
        Bytes::new()
    }

    /// Keep `buf`, to refill it once every other handle on it is gone.
    pub fn put(&mut self, buf: Bytes) {
        self.ring.push_back(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(last: u8, port: u16) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    #[test]
    fn wire_size_includes_overhead() {
        let p = Packet::new(addr(1, 1000), addr(2, 2000), vec![0u8; 1200]);
        assert_eq!(p.payload_len(), 1200);
        assert_eq!(p.wire_len(), 1200 + WIRE_OVERHEAD_BYTES);
    }

    #[test]
    fn readdressing_shares_payload() {
        let p = Packet::new(addr(1, 1000), addr(2, 2000), vec![7u8; 64]);
        let q = p.readdressed(addr(9, 9), addr(3, 3000));
        assert_eq!(q.payload, p.payload);
        assert_eq!(q.src, addr(9, 9));
        assert_eq!(q.dst, addr(3, 3000));
        // Bytes clones are reference-counted views of the same allocation.
        assert_eq!(q.payload.as_ptr(), p.payload.as_ptr());
    }

    #[test]
    fn the_overlay_is_the_sequence_number_on_the_wire() {
        let bytes: Vec<u8> = (0u8..16).collect();
        let p = Packet::new(addr(1, 1000), addr(2, 2000), bytes.clone());
        assert_eq!(p.seq_overlay(), None);
        assert_eq!(p.wire_bytes()[..], bytes[..]);

        let mut out = Vec::new();
        let q = p
            .push_replica(&mut out, addr(9, 9), addr(3, 3000), Some(0xBEEF))
            .clone();
        let r = q
            .push_replica(&mut out, addr(9, 9), addr(4, 4000), None)
            .clone();
        assert_eq!(out, [q.clone(), r.clone()], "each replica is in its slot");
        let mut wire = bytes.clone();
        wire[2..4].copy_from_slice(&[0xBE, 0xEF]);
        for replica in [&q, &r] {
            assert_eq!(replica.seq_overlay(), Some(0xBEEF), "a replica keeps it");
            assert_eq!(replica.wire_bytes()[..], wire[..]);
            assert_eq!(replica.payload, p.payload, "the payload is untouched");
            assert_eq!(replica.payload.as_ptr(), p.payload.as_ptr(), "and shared");
            assert_eq!(replica.wire_len(), p.wire_len());
        }
        // Equality is by wire bytes: the overlay equals the number written in.
        assert_eq!(q, Packet::new(q.src, q.dst, wire));
        assert_ne!(q, p.readdressed(q.src, q.dst));
    }

    #[test]
    fn a_payload_without_a_sequence_number_takes_no_overlay() {
        let mut out = Vec::new();
        let p = Packet::new(addr(1, 1), addr(2, 2), vec![7u8; 3]);
        let q = p.push_replica(&mut out, addr(1, 1), addr(3, 3), Some(1));
        assert_eq!(q.seq_overlay(), None);
        assert_eq!(q.wire_bytes()[..], [7u8; 3]);
    }

    /// The by-value construction the writer replaced: a readdressed copy,
    /// then the rewritten number set on it when the payload holds one.
    fn replica_by_value(pkt: &Packet, src: HostAddr, dst: HostAddr, seq: Option<u16>) -> Packet {
        let mut fwd = pkt.readdressed(src, dst);
        if let Some(seq) = seq {
            if fwd.payload.len() >= 4 {
                fwd.seq_overlay = Some(seq);
            }
        }
        fwd
    }

    proptest! {
        /// Written in place, a replica is the packet the by-value
        /// construction built: same addresses, same datagram on the wire,
        /// same overlay, and the ingress payload's allocation, shared.
        #[test]
        fn a_replica_written_in_place_is_the_one_built_by_value(
            len in 0usize..=8,
            upstream in proptest::option::of(any::<u16>()),
            rewrite in proptest::option::of(any::<u16>()),
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
        ) {
            let payload: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let ingress = Packet::new(addr(1, 1000), addr(2, 2000), payload);
            // A packet that arrived already renumbered, or not.
            let ingress = replica_by_value(&ingress, ingress.src, ingress.dst, upstream);
            let (src, dst) = (addr(9, src_port), addr(3, dst_port));
            let oracle = replica_by_value(&ingress, src, dst, rewrite);

            let mut out = vec![Packet::new(addr(7, 7), addr(8, 8), vec![1u8; 5])];
            ingress.push_replica(&mut out, src, dst, rewrite);
            prop_assert_eq!(out.len(), 2);
            let replica = &out[1];
            prop_assert_eq!((replica.src, replica.dst), (oracle.src, oracle.dst));
            prop_assert_eq!(replica.wire_bytes(), oracle.wire_bytes());
            prop_assert_eq!(replica.seq_overlay(), oracle.seq_overlay());
            prop_assert_eq!(replica.payload.as_ptr(), ingress.payload.as_ptr());
        }
    }

    #[test]
    fn a_pool_refills_its_oldest_buffer_once_every_copy_is_gone() {
        let mut pool = BufPool::new(4);
        let a = pool.build(|v| v.extend_from_slice(b"first"));
        let in_flight = Packet::new(addr(1, 1), addr(2, 2), a.clone());
        let ptr = a.as_ptr();
        drop(a);
        // Still carried by a packet: a second buffer is made.
        let b = pool.build(|v| v.extend_from_slice(b"second"));
        assert_ne!(b.as_ptr(), ptr);
        assert_eq!(in_flight.payload, b"first"[..]);
        drop((in_flight, b));
        // Delivered: the oldest buffer is refilled in place, then the next.
        let c = pool.build(|v| v.extend_from_slice(b"third"));
        assert_eq!(c.as_ptr(), ptr);
        assert_eq!(c, b"third"[..]);
        assert_eq!(pool.ring.len(), 2);
    }

    #[test]
    fn a_pool_lets_go_of_buffers_held_for_good() {
        const LIMIT: usize = 16;
        let mut pool = BufPool::new(LIMIT);
        let capacity = pool.ring.capacity();
        let kept: Vec<Bytes> = (0..LIMIT + 10)
            .map(|i| pool.build(|v| v.push(i as u8)))
            .collect();
        assert_eq!(pool.ring.len(), LIMIT);
        assert_eq!(pool.ring.capacity(), capacity, "the ring never grew");
        assert_eq!(kept[LIMIT + 9], [(LIMIT + 9) as u8][..]);
    }

    #[test]
    fn display_is_reasonable() {
        let p = Packet::new(addr(1, 1000), addr(2, 2000), vec![0u8; 3]);
        assert_eq!(format!("{p}"), "10.0.0.1:1000 -> 10.0.0.2:2000 (3B)");
    }
}
