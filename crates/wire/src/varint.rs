//! RFC 9000 §16 variable-length integer encoding.
//!
//! QUIC varints use the two most significant bits of the first byte to
//! signal the total length (1, 2, 4, or 8 bytes), leaving 6, 14, 30, or
//! 62 bits of usable value.

use bytes::{Buf, BufMut};

use crate::{Result, WireError};

/// Maximum value representable as a QUIC varint: `2^62 - 1`.
pub const MAX: u64 = (1 << 62) - 1;

/// A QUIC variable-length integer.
///
/// Wraps a `u64` constrained to 62 bits. Construction via [`VarInt::new`]
/// enforces the bound; arithmetic helpers saturate rather than overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VarInt(u64);

impl VarInt {
    /// The largest encodable varint.
    pub const MAX: VarInt = VarInt(MAX);
    /// Zero.
    pub const ZERO: VarInt = VarInt(0);

    /// Creates a varint, returning an error if `v` exceeds 62 bits.
    pub fn new(v: u64) -> Result<Self> {
        if v > MAX {
            Err(WireError::VarIntRange)
        } else {
            Ok(VarInt(v))
        }
    }

    /// Creates a varint from a value statically known to fit (panics in
    /// debug builds otherwise). Use for protocol constants.
    pub fn from_u32(v: u32) -> Self {
        VarInt(u64::from(v))
    }

    /// Returns the wrapped value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Number of bytes this value occupies on the wire.
    pub fn encoded_len(self) -> usize {
        match self.0 {
            0..=0x3f => 1,
            0x40..=0x3fff => 2,
            0x4000..=0x3fff_ffff => 4,
            _ => 8,
        }
    }

    /// Appends the shortest encoding of this varint to `buf`.
    pub fn encode<B: BufMut>(self, buf: &mut B) {
        match self.encoded_len() {
            1 => buf.put_u8(self.0 as u8),
            2 => buf.put_u16(0b01 << 14 | self.0 as u16),
            4 => buf.put_u32(0b10 << 30 | self.0 as u32),
            8 => buf.put_u64(0b11 << 62 | self.0),
            _ => unreachable!(),
        }
    }

    /// Decodes a varint from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let first = buf.chunk()[0];
        let len = 1usize << (first >> 6);
        if buf.remaining() < len {
            return Err(WireError::UnexpectedEnd);
        }
        let v = match len {
            1 => u64::from(buf.get_u8() & 0x3f),
            2 => u64::from(buf.get_u16() & 0x3fff),
            4 => u64::from(buf.get_u32() & 0x3fff_ffff),
            8 => buf.get_u64() & 0x3fff_ffff_ffff_ffff,
            _ => unreachable!(),
        };
        Ok(VarInt(v))
    }
}

impl From<u8> for VarInt {
    fn from(v: u8) -> Self {
        VarInt(u64::from(v))
    }
}

impl From<u16> for VarInt {
    fn from(v: u16) -> Self {
        VarInt(u64::from(v))
    }
}

impl From<u32> for VarInt {
    fn from(v: u32) -> Self {
        VarInt(u64::from(v))
    }
}

impl TryFrom<u64> for VarInt {
    type Error = WireError;
    fn try_from(v: u64) -> Result<Self> {
        VarInt::new(v)
    }
}

impl TryFrom<usize> for VarInt {
    type Error = WireError;
    fn try_from(v: usize) -> Result<Self> {
        VarInt::new(v as u64)
    }
}

impl From<VarInt> for u64 {
    fn from(v: VarInt) -> u64 {
        v.0
    }
}

impl std::fmt::Display for VarInt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> (usize, u64) {
        let vi = VarInt::new(v).unwrap();
        let mut buf = Vec::new();
        vi.encode(&mut buf);
        let len = buf.len();
        let mut slice = &buf[..];
        let out = VarInt::decode(&mut slice).unwrap();
        assert!(slice.is_empty(), "decode must consume exactly the encoding");
        (len, out.value())
    }

    #[test]
    fn one_byte_boundaries() {
        assert_eq!(roundtrip(0), (1, 0));
        assert_eq!(roundtrip(63), (1, 63));
    }

    #[test]
    fn two_byte_boundaries() {
        assert_eq!(roundtrip(64), (2, 64));
        assert_eq!(roundtrip(16383), (2, 16383));
    }

    #[test]
    fn four_byte_boundaries() {
        assert_eq!(roundtrip(16384), (4, 16384));
        assert_eq!(roundtrip(1_073_741_823), (4, 1_073_741_823));
    }

    #[test]
    fn eight_byte_boundaries() {
        assert_eq!(roundtrip(1_073_741_824), (8, 1_073_741_824));
        assert_eq!(roundtrip(MAX), (8, MAX));
    }

    #[test]
    fn rfc9000_appendix_a_examples() {
        // Examples from RFC 9000 Appendix A.1.
        let cases: [(&[u8], u64); 4] = [
            (
                &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c],
                151_288_809_941_952_652,
            ),
            (&[0x9d, 0x7f, 0x3e, 0x7d], 494_878_333),
            (&[0x7b, 0xbd], 15_293),
            (&[0x25], 37),
        ];
        for (bytes, expect) in cases {
            let mut b = bytes;
            assert_eq!(VarInt::decode(&mut b).unwrap().value(), expect);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(VarInt::new(MAX + 1), Err(WireError::VarIntRange));
    }

    #[test]
    fn truncated_input_rejected() {
        // First byte claims 4-byte encoding but only 2 bytes present.
        let mut b: &[u8] = &[0x80, 0x01];
        assert_eq!(VarInt::decode(&mut b), Err(WireError::UnexpectedEnd));
        let mut empty: &[u8] = &[];
        assert_eq!(VarInt::decode(&mut empty), Err(WireError::UnexpectedEnd));
    }
}
