//! Whole-packet serialization: header + frames + authentication tag.
//!
//! Packets are encoded in the clear and sealed with a 16-byte tag supplied
//! by the caller (`rq-tls` computes it from the space keys). Decoding
//! verifies nothing here — key gating and tag verification happen in the
//! connection layer, which knows which keys exist at which time.

use bytes::{BufMut, Bytes};

use crate::frame::Frame;
use crate::frame_list::FrameList;
use crate::header::{Header, PacketType};
use crate::{Result, WireError};

/// AEAD tag length appended to every protected packet (matches AES-128-GCM
/// so datagram sizes are byte-accurate versus real deployments).
pub const AEAD_TAG_LEN: usize = 16;

/// Packet number spaces (RFC 9002 §A.2): Initial, Handshake, and
/// application data (0-RTT + 1-RTT share the application space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PacketNumberSpace {
    /// Initial packets.
    Initial,
    /// Handshake packets.
    Handshake,
    /// 0-RTT and 1-RTT packets.
    Application,
}

impl PacketNumberSpace {
    /// All three spaces in order.
    pub const ALL: [PacketNumberSpace; 3] = [
        PacketNumberSpace::Initial,
        PacketNumberSpace::Handshake,
        PacketNumberSpace::Application,
    ];

    /// The space a packet type belongs to.
    fn for_type(ty: PacketType) -> Self {
        match ty {
            PacketType::Initial | PacketType::Retry => PacketNumberSpace::Initial,
            PacketType::Handshake => PacketNumberSpace::Handshake,
            PacketType::ZeroRtt | PacketType::OneRtt => PacketNumberSpace::Application,
        }
    }

    /// Index usable for per-space arrays.
    pub fn index(self) -> usize {
        match self {
            PacketNumberSpace::Initial => 0,
            PacketNumberSpace::Handshake => 1,
            PacketNumberSpace::Application => 2,
        }
    }

    /// qlog-style name.
    pub fn name(self) -> &'static str {
        match self {
            PacketNumberSpace::Initial => "initial",
            PacketNumberSpace::Handshake => "handshake",
            PacketNumberSpace::Application => "application_data",
        }
    }
}

/// A plaintext QUIC packet: header plus frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainPacket {
    /// The packet header.
    pub header: Header,
    /// Frames in wire order.
    pub frames: FrameList,
}

impl PlainPacket {
    /// Creates a packet, validating frame/packet-type permissions.
    pub fn new(header: Header, frames: impl Into<FrameList>) -> Result<Self> {
        let frames = frames.into();
        for f in &frames {
            if !f.permitted_in(header.ty) {
                return Err(WireError::FrameNotPermitted {
                    frame_type: f.type_id(),
                    packet_type: header.ty.name(),
                });
            }
        }
        Ok(PlainPacket { header, frames })
    }

    /// The packet number space this packet belongs to.
    pub fn space(&self) -> PacketNumberSpace {
        PacketNumberSpace::for_type(self.header.ty)
    }

    /// True if any frame is ack-eliciting (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        self.frames.iter().any(Frame::is_ack_eliciting)
    }

    /// True if the packet consists solely of ACK (and PADDING) frames —
    /// the shape of an instant ACK.
    pub fn is_ack_only(&self) -> bool {
        !self.frames.is_empty()
            && self
                .frames
                .iter()
                .all(|f| matches!(f, Frame::Ack(_) | Frame::Padding { .. }))
            && self.frames.iter().any(|f| matches!(f, Frame::Ack(_)))
    }

    /// True if every frame is a probing frame (RFC 9000 §9.1):
    /// PATH_CHALLENGE, PATH_RESPONSE, NEW_CONNECTION_ID or PADDING. A
    /// probing packet from a new address does not move a connection
    /// there.
    pub fn is_probing(&self) -> bool {
        self.frames.iter().all(|f| {
            matches!(
                f,
                Frame::PathChallenge { .. }
                    | Frame::PathResponse { .. }
                    | Frame::NewConnectionId { .. }
                    | Frame::Padding { .. }
            )
        })
    }

    /// Sum of frame encodings (excludes header and tag).
    pub fn payload_len(&self) -> usize {
        self.frames.iter().map(Frame::encoded_len).sum()
    }

    /// Total on-wire size of this packet including header and tag.
    pub fn encoded_len(&self) -> usize {
        Self::wire_len(&self.header, self.payload_len())
    }

    /// On-wire size of a packet with `header` and `payload_len` bytes of
    /// encoded frames. Packet numbers are always 4 bytes, so the size does
    /// not depend on which number the packet ends up carrying.
    pub fn wire_len(header: &Header, payload_len: usize) -> usize {
        match header.ty {
            PacketType::Retry => header.encoded_len(),
            PacketType::OneRtt => header.encoded_len() + payload_len + AEAD_TAG_LEN,
            _ => {
                let body = 4 + payload_len + AEAD_TAG_LEN; // pn + payload + tag
                header.encoded_len()
                    + crate::varint::VarInt::try_from(body).unwrap().encoded_len()
                    - 4 // header.encoded_len already counts pn for long headers
                    + body
            }
        }
    }

    /// Serializes the packet at the front of `out` exactly once — header,
    /// frames, then the tag `seal` computes over the payload bytes just
    /// written (the frames as they sit in `out`, which is what the receiver
    /// authenticates) — and returns the bytes written,
    /// [`PlainPacket::encoded_len`]. Panics when `out` is shorter than
    /// that. Retry packets carry no payload or tag, so `seal` is not called
    /// for them.
    pub fn encode_sealed(
        &self,
        out: &mut [u8],
        seal: impl FnOnce(&[u8]) -> [u8; AEAD_TAG_LEN],
    ) -> Result<usize> {
        let room = out.len();
        let mut cursor = &mut *out;
        let length = match self.header.ty {
            PacketType::Retry | PacketType::OneRtt => 0,
            _ => 4 + self.payload_len() + AEAD_TAG_LEN,
        };
        self.header.encode(&mut cursor, length)?;
        let payload_start = room - cursor.len();
        if self.header.ty == PacketType::Retry {
            return Ok(payload_start);
        }
        for f in &self.frames {
            f.encode(&mut cursor);
        }
        let payload_end = room - cursor.len();
        let tag = seal(&out[payload_start..payload_end]);
        out[payload_end..payload_end + AEAD_TAG_LEN].copy_from_slice(&tag);
        Ok(payload_end + AEAD_TAG_LEN)
    }

    /// Serializes the packet, appending `tag` after the payload.
    /// Retry packets carry no payload or tag.
    pub fn encode<B: BufMut>(&self, buf: &mut B, tag: &[u8; AEAD_TAG_LEN]) -> Result<()> {
        let mut out = vec![0; self.encoded_len()];
        self.encode_sealed(&mut out, |_| *tag)?;
        buf.put_slice(&out);
        Ok(())
    }

    /// Serializes into a fresh buffer: one allocation, written in place.
    pub fn to_bytes(&self, tag: &[u8; AEAD_TAG_LEN]) -> Bytes {
        Bytes::build(self.encoded_len(), |out| {
            self.encode_sealed(out, |_| *tag)
                .expect("encode cannot fail after construction");
        })
    }

    /// Decodes one packet from the front of `datagram`, returning the packet,
    /// its tag, and the number of bytes consumed. `short_dcid_len` is the
    /// receiver's CID length for short headers. Copies `datagram` once and
    /// runs [`PlainPacket::decode_with_payload`] over the copy.
    pub fn decode(
        datagram: &[u8],
        short_dcid_len: usize,
    ) -> Result<(PlainPacket, [u8; AEAD_TAG_LEN], usize)> {
        let datagram = Bytes::copy_from_slice(datagram);
        let (pkt, _, tag, consumed) = Self::decode_with_payload(&datagram, short_dcid_len)?;
        Ok((pkt, tag, consumed))
    }

    /// Decodes one packet from the front of `datagram` without copying
    /// any of it: CRYPTO, STREAM and NEW_TOKEN payloads come out as views
    /// of `datagram`, and so does the second element, the packet's
    /// payload (the encoded frames, between packet number and tag) — the
    /// wire bytes the tag authenticates; empty for Retry packets. A view
    /// keeps the whole datagram alive, so nothing long-lived should hold
    /// one. Also returns the tag and the number of bytes consumed.
    pub fn decode_with_payload(
        datagram: &Bytes,
        short_dcid_len: usize,
    ) -> Result<(PlainPacket, Bytes, [u8; AEAD_TAG_LEN], usize)> {
        let mut buf = datagram.clone();
        let (header, body) = Header::decode(&mut buf, short_dcid_len)?;
        let consumed_header = datagram.len() - buf.len();
        let body_len = match body {
            Some(n) => n,      // long header: explicit length
            None => buf.len(), // short header: rest of datagram
        };
        if header.ty == PacketType::Retry {
            return Ok((
                PlainPacket {
                    header,
                    frames: FrameList::new(),
                },
                Bytes::new(),
                [0; AEAD_TAG_LEN],
                consumed_header,
            ));
        }
        if body_len < AEAD_TAG_LEN || buf.len() < body_len {
            return Err(WireError::BadLength);
        }
        let payload = buf.split_to(body_len - AEAD_TAG_LEN);
        let mut tag = [0u8; AEAD_TAG_LEN];
        tag.copy_from_slice(&buf[..AEAD_TAG_LEN]);
        // The frames are decoded into the packet that is returned.
        let mut pkt = PlainPacket {
            header,
            frames: FrameList::new(),
        };
        let mut p = payload.clone();
        while !p.is_empty() {
            let f = Frame::decode(&mut p)?;
            if !f.permitted_in(pkt.header.ty) {
                return Err(WireError::FrameNotPermitted {
                    frame_type: f.type_id(),
                    packet_type: pkt.header.ty.name(),
                });
            }
            pkt.frames.push(f);
        }
        Ok((pkt, payload, tag, consumed_header + body_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::AckFrame;
    use crate::header::ConnectionId;
    use bytes::Bytes;

    const TAG: [u8; AEAD_TAG_LEN] = [0xAB; AEAD_TAG_LEN];

    fn cid(v: u64) -> ConnectionId {
        ConnectionId::from_u64(v)
    }

    #[test]
    fn initial_packet_roundtrip() {
        let pkt = PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 0),
            vec![
                Frame::Crypto {
                    offset: 0,
                    data: Bytes::from(vec![0x16; 300]),
                },
                Frame::Padding { len: 850 },
            ],
        )
        .unwrap();
        let bytes = pkt.to_bytes(&TAG);
        assert_eq!(bytes.len(), pkt.encoded_len());
        let (out, tag, consumed) = PlainPacket::decode(&bytes, 8).unwrap();
        assert_eq!(out, pkt);
        assert_eq!(tag, TAG);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn one_rtt_packet_roundtrip() {
        let pkt = PlainPacket::new(
            Header::one_rtt(cid(7), 3),
            vec![
                Frame::Stream {
                    id: 0,
                    offset: 0,
                    data: Bytes::copy_from_slice(b"GET / HTTP/1.1\r\n"),
                    fin: false,
                },
                Frame::Ack(AckFrame::single(1, 0)),
            ],
        )
        .unwrap();
        let bytes = pkt.to_bytes(&TAG);
        assert_eq!(bytes.len(), pkt.encoded_len());
        let (out, tag, consumed) = PlainPacket::decode(&bytes, 8).unwrap();
        assert_eq!(out, pkt);
        assert_eq!(tag, TAG);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn stream_frame_rejected_in_initial() {
        let err = PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 0),
            vec![Frame::Stream {
                id: 0,
                offset: 0,
                data: Bytes::new(),
                fin: false,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, WireError::FrameNotPermitted { .. }));
    }

    #[test]
    fn ack_only_detection() {
        let iack = PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 0),
            vec![Frame::Ack(AckFrame::single(0, 0))],
        )
        .unwrap();
        assert!(iack.is_ack_only());
        assert!(!iack.is_ack_eliciting());

        let padded_iack = PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 0),
            vec![
                Frame::Ack(AckFrame::single(0, 0)),
                Frame::Padding { len: 1100 },
            ],
        )
        .unwrap();
        assert!(padded_iack.is_ack_only());
        assert!(!padded_iack.is_ack_eliciting());

        let sh = PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 1),
            vec![
                Frame::Ack(AckFrame::single(0, 0)),
                Frame::Crypto {
                    offset: 0,
                    data: Bytes::copy_from_slice(&[2; 90]),
                },
            ],
        )
        .unwrap();
        assert!(!sh.is_ack_only());
        assert!(sh.is_ack_eliciting());
    }

    #[test]
    fn space_mapping() {
        assert_eq!(
            PacketNumberSpace::for_type(PacketType::Initial),
            PacketNumberSpace::Initial
        );
        assert_eq!(
            PacketNumberSpace::for_type(PacketType::Handshake),
            PacketNumberSpace::Handshake
        );
        assert_eq!(
            PacketNumberSpace::for_type(PacketType::OneRtt),
            PacketNumberSpace::Application
        );
        assert_eq!(
            PacketNumberSpace::for_type(PacketType::ZeroRtt),
            PacketNumberSpace::Application
        );
    }

    #[test]
    fn retry_packet_roundtrip() {
        let pkt = PlainPacket::new(Header::retry(cid(1), cid(2), vec![0xFE; 16]), vec![]).unwrap();
        let bytes = pkt.to_bytes(&TAG);
        let (out, _, consumed) = PlainPacket::decode(&bytes, 8).unwrap();
        assert_eq!(out.header.ty, PacketType::Retry);
        assert_eq!(out.header.token, vec![0xFE; 16]);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn truncated_packet_rejected() {
        let pkt = PlainPacket::new(
            Header::handshake(cid(1), cid(2), 0),
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::copy_from_slice(&[1; 64]),
            }],
        )
        .unwrap();
        let bytes = pkt.to_bytes(&TAG);
        assert!(PlainPacket::decode(&bytes[..bytes.len() - 1], 8).is_err());
    }
}
