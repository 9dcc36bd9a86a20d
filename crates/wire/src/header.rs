//! QUIC packet headers (RFC 9000 §17).
//!
//! Long headers carry Initial, 0-RTT, Handshake, and Retry packets; the
//! short header carries 1-RTT packets. Packet numbers are always encoded
//! with 4 bytes (see crate docs).

use bytes::{Buf, BufMut};

use crate::varint::VarInt;
use crate::{Result, WireError, QUIC_V1};

/// Maximum connection ID length (RFC 9000 §17.2).
const MAX_CID_LEN: usize = 20;

/// A QUIC connection ID: up to 20 opaque bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnectionId {
    len: u8,
    bytes: [u8; MAX_CID_LEN],
}

impl ConnectionId {
    /// Creates a connection ID from a byte slice.
    pub fn new(data: &[u8]) -> Result<Self> {
        if data.len() > MAX_CID_LEN {
            return Err(WireError::CidTooLong(data.len()));
        }
        let mut bytes = [0u8; MAX_CID_LEN];
        bytes[..data.len()].copy_from_slice(data);
        Ok(ConnectionId {
            len: data.len() as u8,
            bytes,
        })
    }

    /// The zero-length connection ID.
    pub const EMPTY: ConnectionId = ConnectionId {
        len: 0,
        bytes: [0; MAX_CID_LEN],
    };

    /// Builds an 8-byte connection ID from a `u64` (handy for simulations
    /// that want readable, unique CIDs).
    pub fn from_u64(v: u64) -> Self {
        let mut bytes = [0u8; MAX_CID_LEN];
        bytes[..8].copy_from_slice(&v.to_be_bytes());
        ConnectionId { len: 8, bytes }
    }

    /// Returns the CID bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Length in bytes (0–20).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if this is the zero-length CID.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for ConnectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cid:")?;
        for b in self.as_slice() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// QUIC packet types distinguished by the header form and long-header type
/// bits (RFC 9000 §17.2, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// Initial packet: carries the first CRYPTO flights and a token.
    Initial,
    /// 0-RTT packet: early application data.
    ZeroRtt,
    /// Handshake packet: CRYPTO data under handshake keys.
    Handshake,
    /// Retry packet: address-validation round trip (no packet number).
    Retry,
    /// Short-header 1-RTT packet.
    OneRtt,
}

impl PacketType {
    /// Long-header type bits for this packet type.
    fn long_type_bits(self) -> Option<u8> {
        match self {
            PacketType::Initial => Some(0b00),
            PacketType::ZeroRtt => Some(0b01),
            PacketType::Handshake => Some(0b10),
            PacketType::Retry => Some(0b11),
            PacketType::OneRtt => None,
        }
    }

    /// Human-readable name used in error messages and qlog events.
    pub fn name(self) -> &'static str {
        match self {
            PacketType::Initial => "initial",
            PacketType::ZeroRtt => "0rtt",
            PacketType::Handshake => "handshake",
            PacketType::Retry => "retry",
            PacketType::OneRtt => "1rtt",
        }
    }
}

/// A decoded QUIC packet header.
///
/// `pn` is absent for Retry packets. The Initial `token` is empty for all
/// other types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Packet type (header form + long type bits).
    pub ty: PacketType,
    /// QUIC version (long headers only; `QUIC_V1` here).
    pub version: u32,
    /// Destination connection ID.
    pub dcid: ConnectionId,
    /// Source connection ID (long headers only; empty for 1-RTT).
    pub scid: ConnectionId,
    /// Initial token (Initial and Retry packets).
    pub token: Vec<u8>,
    /// Full packet number (not on Retry packets).
    pub pn: u64,
}

impl Header {
    /// Builds an Initial header.
    pub fn initial(dcid: ConnectionId, scid: ConnectionId, token: Vec<u8>, pn: u64) -> Self {
        Header {
            ty: PacketType::Initial,
            version: QUIC_V1,
            dcid,
            scid,
            token,
            pn,
        }
    }

    /// Builds a Handshake header.
    pub fn handshake(dcid: ConnectionId, scid: ConnectionId, pn: u64) -> Self {
        Header {
            ty: PacketType::Handshake,
            version: QUIC_V1,
            dcid,
            scid,
            token: Vec::new(),
            pn,
        }
    }

    /// Builds a 0-RTT header.
    pub fn zero_rtt(dcid: ConnectionId, scid: ConnectionId, pn: u64) -> Self {
        Header {
            ty: PacketType::ZeroRtt,
            version: QUIC_V1,
            dcid,
            scid,
            token: Vec::new(),
            pn,
        }
    }

    /// Builds a Retry header carrying `token`.
    pub fn retry(dcid: ConnectionId, scid: ConnectionId, token: Vec<u8>) -> Self {
        Header {
            ty: PacketType::Retry,
            version: QUIC_V1,
            dcid,
            scid,
            token,
            pn: 0,
        }
    }

    /// Builds a short (1-RTT) header.
    pub fn one_rtt(dcid: ConnectionId, pn: u64) -> Self {
        Header {
            ty: PacketType::OneRtt,
            version: QUIC_V1,
            dcid,
            scid: ConnectionId::EMPTY,
            token: Vec::new(),
            pn,
        }
    }

    /// Serialized length of everything before the payload-length field
    /// (used for size budgeting during packet assembly).
    pub fn encoded_len(&self) -> usize {
        match self.ty {
            PacketType::OneRtt => 1 + self.dcid.len() + 4,
            // Retry tokens extend to the end of the packet: no length prefix.
            PacketType::Retry => {
                1 + 4 + 1 + self.dcid.len() + 1 + self.scid.len() + self.token.len()
            }
            PacketType::Initial => {
                1 + 4
                    + 1
                    + self.dcid.len()
                    + 1
                    + self.scid.len()
                    + VarInt::try_from(self.token.len()).unwrap().encoded_len()
                    + self.token.len()
                    + 4
            }
            _ => 1 + 4 + 1 + self.dcid.len() + 1 + self.scid.len() + 4,
        }
    }

    /// Encodes the header. For long headers with a payload, `length` is the
    /// byte count of packet number + payload + tag that will follow the
    /// length field (RFC 9000 §17.2).
    pub fn encode<B: BufMut>(&self, buf: &mut B, length: usize) -> Result<()> {
        match self.ty {
            PacketType::OneRtt => {
                // 0b0100_0011: fixed bit + 4-byte packet number.
                buf.put_u8(0b0100_0000 | 0b11);
                buf.put_slice(self.dcid.as_slice());
                buf.put_u32(self.pn as u32);
            }
            PacketType::Retry => {
                let ty = self.ty.long_type_bits().unwrap();
                buf.put_u8(0b1100_0000 | (ty << 4));
                buf.put_u32(self.version);
                buf.put_u8(self.dcid.len() as u8);
                buf.put_slice(self.dcid.as_slice());
                buf.put_u8(self.scid.len() as u8);
                buf.put_slice(self.scid.as_slice());
                // Retry tokens run to the end of the packet (no length).
                buf.put_slice(&self.token);
            }
            _ => {
                let ty = self.ty.long_type_bits().unwrap();
                // Low bits 0b11: 4-byte packet number encoding.
                buf.put_u8(0b1100_0000 | (ty << 4) | 0b11);
                buf.put_u32(self.version);
                buf.put_u8(self.dcid.len() as u8);
                buf.put_slice(self.dcid.as_slice());
                buf.put_u8(self.scid.len() as u8);
                buf.put_slice(self.scid.as_slice());
                if self.ty == PacketType::Initial {
                    VarInt::try_from(self.token.len())?.encode(buf);
                    buf.put_slice(&self.token);
                }
                VarInt::try_from(length)?.encode(buf);
                buf.put_u32(self.pn as u32);
            }
        }
        Ok(())
    }

    /// Decodes a header from `buf`.
    ///
    /// For long headers, returns the remaining `length` of packet number +
    /// payload + tag minus the already-consumed 4-byte packet number, i.e.
    /// the payload+tag byte count. Short headers extend to the end of the
    /// datagram, so `None` is returned and the caller uses the remainder.
    /// `short_dcid_len` tells the decoder how long 1-RTT destination CIDs
    /// are on this path (the receiver always knows its own CID length).
    pub fn decode<B: Buf>(buf: &mut B, short_dcid_len: usize) -> Result<(Header, Option<usize>)> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let first = buf.get_u8();
        if first & 0b0100_0000 == 0 {
            return Err(WireError::InvalidPacketType(first));
        }
        if first & 0b1000_0000 == 0 {
            // Short header.
            if buf.remaining() < short_dcid_len + 4 {
                return Err(WireError::UnexpectedEnd);
            }
            let dcid = take_cid(buf, short_dcid_len)?;
            let pn = u64::from(buf.get_u32());
            return Ok((Header::one_rtt(dcid, pn), None));
        }
        // Long header.
        if buf.remaining() < 4 {
            return Err(WireError::UnexpectedEnd);
        }
        let version = buf.get_u32();
        if version != QUIC_V1 {
            return Err(WireError::UnsupportedVersion(version));
        }
        let ty = match (first >> 4) & 0b11 {
            0b00 => PacketType::Initial,
            0b01 => PacketType::ZeroRtt,
            0b10 => PacketType::Handshake,
            0b11 => PacketType::Retry,
            _ => unreachable!(),
        };
        let dcid = decode_cid(buf)?;
        let scid = decode_cid(buf)?;
        let mut token = Vec::new();
        if matches!(ty, PacketType::Initial | PacketType::Retry) {
            let token_len = if ty == PacketType::Initial {
                VarInt::decode(buf)?.value() as usize
            } else {
                buf.remaining()
            };
            if buf.remaining() < token_len {
                return Err(WireError::UnexpectedEnd);
            }
            token.resize(token_len, 0);
            buf.copy_to_slice(&mut token);
        }
        if ty == PacketType::Retry {
            return Ok((
                Header {
                    ty,
                    version,
                    dcid,
                    scid,
                    token,
                    pn: 0,
                },
                Some(0),
            ));
        }
        let length = VarInt::decode(buf)?.value() as usize;
        if length < 4 || buf.remaining() < length {
            return Err(WireError::BadLength);
        }
        let pn = u64::from(buf.get_u32());
        Ok((
            Header {
                ty,
                version,
                dcid,
                scid,
                token,
                pn,
            },
            Some(length - 4),
        ))
    }
}

fn decode_cid<B: Buf>(buf: &mut B) -> Result<ConnectionId> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEnd);
    }
    let len = buf.get_u8() as usize;
    if len > MAX_CID_LEN {
        return Err(WireError::CidTooLong(len));
    }
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEnd);
    }
    take_cid(buf, len)
}

/// Reads a `len`-byte connection ID the caller has checked `buf` holds.
fn take_cid<B: Buf>(buf: &mut B, len: usize) -> Result<ConnectionId> {
    let mut bytes = [0u8; MAX_CID_LEN];
    let cid = bytes.get_mut(..len).ok_or(WireError::CidTooLong(len))?;
    buf.copy_to_slice(cid);
    Ok(ConnectionId {
        len: len as u8,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(v: u64) -> ConnectionId {
        ConnectionId::from_u64(v)
    }

    #[test]
    fn initial_header_roundtrip() {
        let h = Header::initial(cid(1), cid(2), vec![0xaa; 7], 42);
        let mut buf = Vec::new();
        h.encode(&mut buf, 4 + 100 + 16).unwrap();
        // Fill the declared payload so decode sees enough bytes.
        buf.extend_from_slice(&[0u8; 116]);
        let mut slice = &buf[..];
        let (out, rest) = Header::decode(&mut slice, 8).unwrap();
        assert_eq!(out, h);
        assert_eq!(rest, Some(116));
    }

    #[test]
    fn handshake_header_roundtrip() {
        let h = Header::handshake(cid(3), cid(4), 7);
        let mut buf = Vec::new();
        h.encode(&mut buf, 4 + 20).unwrap();
        buf.extend_from_slice(&[0u8; 20]);
        let mut slice = &buf[..];
        let (out, rest) = Header::decode(&mut slice, 8).unwrap();
        assert_eq!(out, h);
        assert_eq!(rest, Some(20));
    }

    #[test]
    fn short_header_roundtrip() {
        let h = Header::one_rtt(cid(9), 1234);
        let mut buf = Vec::new();
        h.encode(&mut buf, 0).unwrap();
        buf.extend_from_slice(b"payload");
        let mut slice = &buf[..];
        let (out, rest) = Header::decode(&mut slice, 8).unwrap();
        assert_eq!(out, h);
        assert_eq!(rest, None);
        assert_eq!(slice, b"payload");
    }

    #[test]
    fn retry_header_roundtrip() {
        let h = Header::retry(cid(5), cid(6), vec![1, 2, 3, 4]);
        let mut buf = Vec::new();
        h.encode(&mut buf, 0).unwrap();
        let mut slice = &buf[..];
        let (out, _) = Header::decode(&mut slice, 8).unwrap();
        assert_eq!(out.ty, PacketType::Retry);
        assert_eq!(out.token, vec![1, 2, 3, 4]);
    }

    #[test]
    fn rejects_missing_fixed_bit() {
        let mut slice: &[u8] = &[0b0000_0001, 0, 0, 0];
        assert!(matches!(
            Header::decode(&mut slice, 8),
            Err(WireError::InvalidPacketType(_))
        ));
    }

    #[test]
    fn rejects_unknown_version() {
        let h = Header::handshake(cid(1), cid(2), 0);
        let mut buf = Vec::new();
        h.encode(&mut buf, 4).unwrap();
        // Corrupt the version field (bytes 1..5).
        buf[1] = 0xde;
        let mut slice = &buf[..];
        assert!(matches!(
            Header::decode(&mut slice, 8),
            Err(WireError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn rejects_oversized_cid() {
        assert!(matches!(
            ConnectionId::new(&[0u8; 21]),
            Err(WireError::CidTooLong(21))
        ));
    }

    #[test]
    fn headers_roundtrip_at_every_cid_length() {
        for len in [0usize, 8, MAX_CID_LEN] {
            let dcid = ConnectionId::new(&vec![0xd0 | len as u8; len]).unwrap();
            let scid = ConnectionId::new(&vec![0x50 | len as u8; len]).unwrap();
            for h in [
                Header::initial(dcid, scid, vec![0xaa; 3], 5),
                Header::handshake(dcid, scid, 6),
                Header::zero_rtt(dcid, scid, 7),
            ] {
                let mut buf = Vec::new();
                h.encode(&mut buf, 4 + 9).unwrap();
                buf.extend_from_slice(&[0u8; 9]);
                let mut slice = &buf[..];
                let (out, rest) = Header::decode(&mut slice, len).unwrap();
                assert_eq!((out, rest), (h, Some(9)), "long header, {len}-byte CIDs");
                assert_eq!(slice.len(), 9);
            }
            let h = Header::one_rtt(dcid, 99);
            let mut buf = Vec::new();
            h.encode(&mut buf, 0).unwrap();
            buf.extend_from_slice(b"xyz");
            let mut slice = &buf[..];
            let (out, rest) = Header::decode(&mut slice, len).unwrap();
            assert_eq!((out, rest), (h, None), "short header, {len}-byte CID");
            assert_eq!(slice, b"xyz");
        }
    }

    #[test]
    fn rejects_21_byte_cids_on_the_wire() {
        // Long header: the DCID length byte (offset 5) says 21.
        let h = Header::handshake(ConnectionId::new(&[7; 20]).unwrap(), cid(2), 0);
        let mut buf = Vec::new();
        h.encode(&mut buf, 4).unwrap();
        buf.extend_from_slice(&[0u8; 8]);
        buf[5] = 21;
        let mut slice = &buf[..];
        assert!(matches!(
            Header::decode(&mut slice, 8),
            Err(WireError::CidTooLong(21))
        ));
        // ...and the same for the SCID (empty DCID, so its length is at 6).
        let h = Header::handshake(ConnectionId::EMPTY, ConnectionId::new(&[7; 20]).unwrap(), 0);
        let mut buf = Vec::new();
        h.encode(&mut buf, 4).unwrap();
        buf.extend_from_slice(&[0u8; 8]);
        buf[6] = 21;
        let mut slice = &buf[..];
        assert!(matches!(
            Header::decode(&mut slice, 8),
            Err(WireError::CidTooLong(21))
        ));
        // Short header: a receiver claiming a 21-byte local CID.
        let short = [0b0100_0011u8; 1 + 21 + 4 + 3];
        let mut slice = &short[..];
        assert!(matches!(
            Header::decode(&mut slice, MAX_CID_LEN + 1),
            Err(WireError::CidTooLong(21))
        ));
        // A datagram too short for the claimed CID is still just short.
        let mut slice = &short[..20];
        assert!(matches!(
            Header::decode(&mut slice, MAX_CID_LEN + 1),
            Err(WireError::UnexpectedEnd)
        ));
    }

    #[test]
    fn cid_from_u64_is_8_bytes() {
        let c = ConnectionId::from_u64(0x0102_0304_0506_0708);
        assert_eq!(c.len(), 8);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn length_must_cover_packet_number() {
        let h = Header::handshake(cid(1), cid(2), 0);
        let mut buf = Vec::new();
        h.encode(&mut buf, 2).unwrap(); // invalid: < 4
        let mut slice = &buf[..];
        assert!(matches!(
            Header::decode(&mut slice, 8),
            Err(WireError::BadLength)
        ));
    }
}
