//! MSB-first bit reader/writer used by the AV1 dependency descriptor.
//!
//! The AV1 RTP extension packs fields at bit granularity (Appendix E of the
//! paper discusses why this is painful for switch parsers). These helpers
//! implement the `f(n)` fixed-width read/write primitive of the AV1 spec.

use crate::error::ProtoError;

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Bit offset from the start of `buf`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read `n` bits (0..=64) as a big-endian integer.
    pub fn read(&mut self, n: usize) -> Result<u64, ProtoError> {
        debug_assert!(n <= 64);
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                needed: (self.pos + n).div_ceil(8),
                got: self.buf.len(),
            });
        }
        let mut v: u64 = 0;
        for _ in 0..n {
            let byte = self.buf[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u64;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Read a single flag bit.
    pub fn read_bool(&mut self) -> Result<bool, ProtoError> {
        Ok(self.read(1)? == 1)
    }

    /// Skip to the next byte boundary (reading zero-bits).
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

/// MSB-first bit writer producing a `Vec<u8>`.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Number of valid bits in the last byte (0 = byte-aligned).
    bit_fill: usize,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `v`, MSB first.
    pub fn write(&mut self, v: u64, n: usize) {
        debug_assert!(n <= 64);
        debug_assert!(
            n == 64 || v < (1u64 << n),
            "value {v} does not fit in {n} bits"
        );
        for i in (0..n).rev() {
            let bit = ((v >> i) & 1) as u8;
            if self.bit_fill == 0 {
                self.out.push(0);
            }
            let last = self.out.last_mut().expect("just pushed");
            *last |= bit << (7 - self.bit_fill);
            self.bit_fill = (self.bit_fill + 1) % 8;
        }
    }

    /// Append a flag bit.
    pub fn write_bool(&mut self, b: bool) {
        self.write(b as u64, 1);
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        if self.bit_fill != 0 {
            self.bit_fill = 0;
        }
    }

    /// Finish, padding to a byte boundary with zeros.
    pub fn finish(mut self) -> Vec<u8> {
        self.align();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_fields() {
        let mut w = BitWriter::new();
        w.write_bool(true);
        w.write_bool(false);
        w.write(0x2A, 6); // 42 in 6 bits
        w.write(0xBEEF, 16);
        w.write(5, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bool().unwrap());
        assert!(!r.read_bool().unwrap());
        assert_eq!(r.read(6).unwrap(), 0x2A);
        assert_eq!(r.read(16).unwrap(), 0xBEEF);
        assert_eq!(r.read(3).unwrap(), 5);
    }

    #[test]
    fn reader_detects_truncation() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read(8).unwrap(), 0xFF);
        assert!(r.read(1).is_err());
    }

    #[test]
    fn alignment() {
        let mut w = BitWriter::new();
        w.write(1, 1);
        w.align();
        w.write(0xAB, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000, 0xAB]);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(1).unwrap(), 1);
        r.align();
        assert_eq!(r.read(8).unwrap(), 0xAB);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bit_order_is_msb_first() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn position_tracking() {
        let mut r = BitReader::new(&[0x00, 0x00]);
        assert_eq!(r.position(), 0);
        let _ = r.read(5).unwrap();
        assert_eq!(r.position(), 5);
        assert_eq!(r.remaining(), 11);
    }

    #[test]
    fn write_64_bit_values() {
        let mut w = BitWriter::new();
        w.write(u64::MAX, 64);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xFF; 8]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(64).unwrap(), u64::MAX);
    }
}
