//! UDP datagram coalescing and content classification (RFC 9000 §12.2).
//!
//! Implementations coalesce QUIC packets into UDP datagrams differently
//! (paper Table 4), so the testbed's loss rules match datagrams by their
//! QUIC *content*, not their index. This module decodes a datagram into
//! per-packet summaries that loss rules and the qlog pipeline consume.

use bytes::{Buf, Bytes};

use crate::frame::Frame;
use crate::header::PacketType;
use crate::packet::{PacketNumberSpace, PlainPacket};
use crate::Result;

/// Summary of one QUIC packet inside a datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSummary {
    /// Packet type.
    pub ty: PacketType,
    /// Packet number space.
    pub space: PacketNumberSpace,
    /// Packet number.
    pub pn: u64,
    /// True if the packet only carries ACK/PADDING.
    pub ack_only: bool,
    /// True if any frame elicits an acknowledgment.
    pub ack_eliciting: bool,
    /// Total CRYPTO payload bytes in this packet.
    pub crypto_bytes: usize,
    /// CRYPTO stream offset of the first CRYPTO frame, if any.
    pub crypto_offset: Option<u64>,
    /// Total STREAM payload bytes.
    pub stream_bytes: usize,
    /// True if the packet carries a PING frame.
    pub has_ping: bool,
    /// True if the packet carries HANDSHAKE_DONE.
    pub has_handshake_done: bool,
    /// True if the packet carries an ACK frame.
    pub has_ack: bool,
    /// On-wire size of this packet.
    pub size: usize,
}

impl PacketSummary {
    /// Builds a summary from a decoded packet and its wire size.
    pub fn of(pkt: &PlainPacket, size: usize) -> Self {
        let mut crypto_bytes = 0;
        let mut crypto_offset = None;
        let mut stream_bytes = 0;
        let mut has_ping = false;
        let mut has_handshake_done = false;
        let mut has_ack = false;
        for f in &pkt.frames {
            match f {
                Frame::Crypto { offset, data } => {
                    if crypto_offset.is_none() {
                        crypto_offset = Some(*offset);
                    }
                    crypto_bytes += data.len();
                }
                Frame::Stream { data, .. } => stream_bytes += data.len(),
                Frame::Ping => has_ping = true,
                Frame::HandshakeDone => has_handshake_done = true,
                Frame::Ack(_) => has_ack = true,
                _ => {}
            }
        }
        PacketSummary {
            ty: pkt.header.ty,
            space: pkt.space(),
            pn: pkt.header.pn,
            ack_only: pkt.is_ack_only(),
            ack_eliciting: pkt.is_ack_eliciting(),
            crypto_bytes,
            crypto_offset,
            stream_bytes,
            has_ping,
            has_handshake_done,
            has_ack,
            size,
        }
    }
}

/// Classification of a whole UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatagramInfo {
    /// Per-packet summaries in wire order.
    pub packets: Vec<PacketSummary>,
    /// UDP payload size in bytes.
    pub size: usize,
}

impl DatagramInfo {
    /// True if any contained packet is in `space`.
    pub fn has_space(&self, space: PacketNumberSpace) -> bool {
        self.packets.iter().any(|p| p.space == space)
    }

    /// True if the datagram is exactly an instant ACK as the paper defines
    /// it: a lone Initial packet that is ACK-only (optionally padded).
    pub fn is_instant_ack(&self) -> bool {
        self.packets.len() == 1
            && self.packets[0].ty == PacketType::Initial
            && self.packets[0].ack_only
    }

    /// True if the datagram carries CRYPTO bytes in the Initial space
    /// starting at offset 0 from the server side — i.e. the ServerHello.
    pub fn carries_server_hello(&self) -> bool {
        self.packets
            .iter()
            .any(|p| p.ty == PacketType::Initial && p.crypto_bytes > 0)
    }

    /// Total CRYPTO bytes in `space` within this datagram.
    pub fn crypto_bytes_in(&self, space: PacketNumberSpace) -> usize {
        self.packets
            .iter()
            .filter(|p| p.space == space)
            .map(|p| p.crypto_bytes)
            .sum()
    }

    /// Total STREAM (application payload) bytes in this datagram.
    pub fn stream_bytes(&self) -> usize {
        self.packets.iter().map(|p| p.stream_bytes).sum()
    }

    /// True if any packet carries a PING frame.
    pub fn has_ping(&self) -> bool {
        self.packets.iter().any(|p| p.has_ping)
    }

    /// True if any packet is ack-eliciting.
    pub fn ack_eliciting(&self) -> bool {
        self.packets.iter().any(|p| p.ack_eliciting)
    }
}

/// Decodes every packet in a UDP datagram and summarizes its content.
///
/// `short_dcid_len` is the receiver CID length used for short headers.
/// Packets after a short-header packet cannot exist (a short header consumes
/// the rest of the datagram), matching RFC 9000 §12.2.
pub fn classify_datagram(datagram: &[u8], short_dcid_len: usize) -> Result<DatagramInfo> {
    let mut packets = Vec::new();
    let mut rest = Bytes::copy_from_slice(datagram);
    while !rest.is_empty() {
        let (pkt, _, _, consumed) = PlainPacket::decode_with_payload(&rest, short_dcid_len)?;
        packets.push(PacketSummary::of(&pkt, consumed));
        rest.advance(consumed);
    }
    Ok(DatagramInfo {
        packets,
        size: datagram.len(),
    })
}

/// Assembles multiple packets into one datagram buffer (coalescing).
/// The tag for every packet is supplied by the caller per-packet.
pub fn coalesce(packets: &[(PlainPacket, [u8; crate::packet::AEAD_TAG_LEN])]) -> Vec<u8> {
    let mut out = vec![0; packets.iter().map(|(pkt, _)| pkt.encoded_len()).sum()];
    let mut at = 0;
    for (i, (pkt, tag)) in packets.iter().enumerate() {
        if pkt.header.ty == PacketType::OneRtt {
            debug_assert_eq!(i, packets.len() - 1, "short-header packet must be last");
        }
        at += pkt
            .encode_sealed(&mut out[at..], |_| *tag)
            .expect("encode cannot fail after construction");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::AckFrame;
    use crate::header::{ConnectionId, Header};
    use bytes::Bytes;

    const TAG: [u8; 16] = [0u8; 16];

    fn cid(v: u64) -> ConnectionId {
        ConnectionId::from_u64(v)
    }

    fn initial_ack() -> PlainPacket {
        PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 0),
            vec![Frame::Ack(AckFrame::single(0, 0))],
        )
        .unwrap()
    }

    fn initial_sh() -> PlainPacket {
        PlainPacket::new(
            Header::initial(cid(1), cid(2), vec![], 1),
            vec![
                Frame::Ack(AckFrame::single(0, 0)),
                Frame::Crypto {
                    offset: 0,
                    data: Bytes::from(vec![2u8; 90]),
                },
            ],
        )
        .unwrap()
    }

    fn handshake_flight() -> PlainPacket {
        PlainPacket::new(
            Header::handshake(cid(1), cid(2), 0),
            vec![Frame::Crypto {
                offset: 0,
                data: Bytes::from(vec![11u8; 700]),
            }],
        )
        .unwrap()
    }

    fn one_rtt_data() -> PlainPacket {
        PlainPacket::new(
            Header::one_rtt(cid(1), 0),
            vec![Frame::Stream {
                id: 3,
                offset: 0,
                data: Bytes::from(vec![5u8; 200]),
                fin: false,
            }],
        )
        .unwrap()
    }

    #[test]
    fn instant_ack_detected() {
        let dgram = coalesce(&[(initial_ack(), TAG)]);
        let info = classify_datagram(&dgram, 8).unwrap();
        assert!(info.is_instant_ack());
        assert!(!info.ack_eliciting());
        assert!(!info.carries_server_hello());
    }

    #[test]
    fn coalesced_first_server_flight() {
        // First server flight in WFC: Initial(ACK+SH) + Handshake + 1-RTT.
        let dgram = coalesce(&[
            (initial_sh(), TAG),
            (handshake_flight(), TAG),
            (one_rtt_data(), TAG),
        ]);
        let info = classify_datagram(&dgram, 8).unwrap();
        assert_eq!(info.packets.len(), 3);
        assert!(!info.is_instant_ack());
        assert!(info.carries_server_hello());
        assert_eq!(info.crypto_bytes_in(PacketNumberSpace::Initial), 90);
        assert_eq!(info.crypto_bytes_in(PacketNumberSpace::Handshake), 700);
        assert_eq!(info.stream_bytes(), 200);
        assert!(info.ack_eliciting());
    }

    #[test]
    fn summary_flags() {
        let ping = PlainPacket::new(Header::one_rtt(cid(1), 5), vec![Frame::Ping]).unwrap();
        let dgram = coalesce(&[(ping, TAG)]);
        let info = classify_datagram(&dgram, 8).unwrap();
        assert!(info.has_ping());
        assert_eq!(info.packets[0].pn, 5);
    }

    #[test]
    fn datagram_size_matches() {
        let dgram = coalesce(&[(initial_sh(), TAG), (handshake_flight(), TAG)]);
        let info = classify_datagram(&dgram, 8).unwrap();
        assert_eq!(info.size, dgram.len());
        assert_eq!(
            info.packets.iter().map(|p| p.size).sum::<usize>(),
            dgram.len()
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(classify_datagram(&[0u8; 40], 8).is_err());
    }
}
