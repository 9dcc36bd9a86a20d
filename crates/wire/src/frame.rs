//! QUIC frames (RFC 9000 §19).
//!
//! The frame set covers everything the ReACKed-QUICer experiments exercise:
//! handshake CRYPTO exchange, acknowledgments with ack-delay, application
//! STREAM data, flow-control updates, connection-ID management (needed for
//! the quiche duplicate-retirement quirk), PING probes, HANDSHAKE_DONE and
//! CONNECTION_CLOSE.

use std::ops::RangeInclusive;

use bytes::{Buf, BufMut, Bytes};

use crate::header::PacketType;
use crate::varint::VarInt;
use crate::{Result, WireError};

/// One ACK range: `gap` unacknowledged packets followed by `len + 1`
/// acknowledged packets, counting downward from the previous range
/// (RFC 9000 §19.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRange {
    /// Packets skipped below the smallest acked packet of the previous range.
    pub gap: u64,
    /// `length` field: number of acked packets in this range minus one.
    pub len: u64,
}

/// A decoded ACK frame.
///
/// `ack_delay` is carried in microseconds already scaled by the peer's
/// `ack_delay_exponent`; this crate stores the decoded microsecond value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckFrame {
    /// Largest packet number being acknowledged.
    pub largest: u64,
    /// Host-side delay between receiving `largest` and sending this ACK,
    /// in microseconds.
    pub ack_delay_us: u64,
    /// Length of the first (highest) contiguous acked range, i.e. number of
    /// packets below `largest` that are also acked.
    pub first_range: u64,
    /// Additional lower ranges.
    pub ranges: Vec<AckRange>,
}

impl AckFrame {
    /// Builds an ACK for a single packet number.
    pub fn single(pn: u64, ack_delay_us: u64) -> Self {
        AckFrame {
            largest: pn,
            ack_delay_us,
            first_range: 0,
            ranges: Vec::new(),
        }
    }

    /// Builds an ACK frame from a sorted-descending list of distinct packet
    /// numbers. Panics if `pns` is empty or unsorted.
    pub fn from_sorted_desc(pns: &[u64], ack_delay_us: u64) -> Self {
        let runs = pns.chunk_by(|above, pn| *above == pn + 1);
        Self::from_ranges_desc(runs.map(|run| run[run.len() - 1]..=run[0]), ack_delay_us)
            .expect("pns must not be empty")
    }

    /// Builds an ACK frame from packet-number ranges listed highest first;
    /// `None` if there are none. Panics unless the ranges are disjoint,
    /// non-adjacent and descending.
    pub fn from_ranges_desc(
        ranges: impl IntoIterator<Item = RangeInclusive<u64>>,
        ack_delay_us: u64,
    ) -> Option<Self> {
        let mut ranges = ranges.into_iter();
        let first = ranges.next()?;
        let mut smallest = *first.start();
        let lower = ranges.map(|r| {
            // RFC 9000 §19.3.1 gap encoding.
            let gap = smallest.checked_sub(r.end() + 2);
            smallest = *r.start();
            AckRange {
                gap: gap.expect("ranges must be descending with a gap between them"),
                len: r.end() - r.start(),
            }
        });
        Some(AckFrame {
            largest: *first.end(),
            ack_delay_us,
            first_range: first.end() - first.start(),
            ranges: lower.collect(),
        })
    }

    /// The acknowledged packet-number ranges, highest first, computed as
    /// they are asked for: a frame costs its range count, however many
    /// packet numbers the ranges span.
    pub fn acked_ranges(&self) -> impl Iterator<Item = RangeInclusive<u64>> + '_ {
        let first = self.largest.saturating_sub(self.first_range)..=self.largest;
        let mut smallest = *first.start();
        std::iter::once(first).chain(self.ranges.iter().map(move |r| {
            // Next range's largest = previous smallest - gap - 2. Decoded
            // frames never descend below 0; hand-built ones saturate.
            let hi = smallest.saturating_sub(r.gap.saturating_add(2));
            smallest = hi.saturating_sub(r.len);
            smallest..=hi
        }))
    }

    /// Iterates over all acknowledged packet numbers, highest first.
    pub fn iter_acked(&self) -> impl Iterator<Item = u64> + '_ {
        self.acked_ranges().flat_map(Iterator::rev)
    }

    /// True if `pn` is acknowledged by this frame.
    pub fn acks(&self, pn: u64) -> bool {
        self.acked_ranges().any(|r| r.contains(&pn))
    }
}

/// A QUIC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// PADDING (0x00). `len` adjacent padding bytes are merged on decode.
    Padding {
        /// Number of padding bytes this value represents.
        len: usize,
    },
    /// PING (0x01): ack-eliciting no-op.
    Ping,
    /// ACK (0x02). The ECN variant (0x03) is decoded but counts discarded.
    Ack(AckFrame),
    /// CRYPTO (0x06): TLS handshake bytes at `offset`.
    Crypto {
        /// Byte offset in the crypto stream for this packet number space.
        offset: u64,
        /// Handshake bytes.
        data: Bytes,
    },
    /// NEW_TOKEN (0x07).
    NewToken {
        /// Address-validation token for future connections.
        token: Bytes,
    },
    /// STREAM (0x08–0x0f).
    Stream {
        /// Stream ID.
        id: u64,
        /// Byte offset of `data` in the stream.
        offset: u64,
        /// Application bytes.
        data: Bytes,
        /// FIN bit: this frame ends the stream.
        fin: bool,
    },
    /// MAX_DATA (0x10): connection-level flow-control credit.
    MaxData {
        /// New connection data limit.
        max: u64,
    },
    /// MAX_STREAM_DATA (0x11).
    MaxStreamData {
        /// Stream ID.
        id: u64,
        /// New stream data limit.
        max: u64,
    },
    /// MAX_STREAMS (0x12 bidi / 0x13 uni).
    MaxStreams {
        /// Whether the limit applies to bidirectional streams.
        bidi: bool,
        /// New cumulative stream count limit.
        max: u64,
    },
    /// DATA_BLOCKED (0x14).
    DataBlocked {
        /// Limit at which blocking occurred.
        limit: u64,
    },
    /// NEW_CONNECTION_ID (0x18).
    NewConnectionId {
        /// Sequence number of the issued CID.
        seq: u64,
        /// Retire-prior-to threshold.
        retire_prior_to: u64,
        /// The connection ID bytes.
        cid: Vec<u8>,
    },
    /// RETIRE_CONNECTION_ID (0x19).
    RetireConnectionId {
        /// Sequence number being retired.
        seq: u64,
    },
    /// PATH_CHALLENGE (0x1a): probe a new path (RFC 9000 §8.2.1).
    PathChallenge {
        /// 8 arbitrary bytes the peer must echo back.
        data: u64,
    },
    /// PATH_RESPONSE (0x1b): echo of a received PATH_CHALLENGE.
    PathResponse {
        /// The echoed challenge data.
        data: u64,
    },
    /// CONNECTION_CLOSE (0x1c transport / 0x1d application).
    ConnectionClose {
        /// QUIC transport or application error code.
        error_code: u64,
        /// Human-readable reason phrase.
        reason: String,
        /// True for the application-initiated variant (0x1d).
        app: bool,
    },
    /// HANDSHAKE_DONE (0x1e): server signals handshake confirmation.
    HandshakeDone,
}

impl Frame {
    /// True if the frame elicits an acknowledgment (RFC 9002 §2).
    /// ACK, PADDING and CONNECTION_CLOSE do not.
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack(_) | Frame::Padding { .. } | Frame::ConnectionClose { .. }
        )
    }

    /// First-byte frame type used on the wire.
    pub fn type_id(&self) -> u64 {
        match self {
            Frame::Padding { .. } => 0x00,
            Frame::Ping => 0x01,
            Frame::Ack(_) => 0x02,
            Frame::Crypto { .. } => 0x06,
            Frame::NewToken { .. } => 0x07,
            Frame::Stream { offset, fin, .. } => {
                let mut t = 0x08 | 0x04; // always explicit length
                if *offset > 0 {
                    t |= 0x02;
                }
                if *fin {
                    t |= 0x01;
                }
                t
            }
            Frame::MaxData { .. } => 0x10,
            Frame::MaxStreamData { .. } => 0x11,
            Frame::MaxStreams { bidi: true, .. } => 0x12,
            Frame::MaxStreams { bidi: false, .. } => 0x13,
            Frame::DataBlocked { .. } => 0x14,
            Frame::NewConnectionId { .. } => 0x18,
            Frame::RetireConnectionId { .. } => 0x19,
            Frame::PathChallenge { .. } => 0x1a,
            Frame::PathResponse { .. } => 0x1b,
            Frame::ConnectionClose { app: false, .. } => 0x1c,
            Frame::ConnectionClose { app: true, .. } => 0x1d,
            Frame::HandshakeDone => 0x1e,
        }
    }

    /// qlog's snake_case frame name.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Padding { .. } => "padding",
            Frame::Ping => "ping",
            Frame::Ack(_) => "ack",
            Frame::Crypto { .. } => "crypto",
            Frame::NewToken { .. } => "new_token",
            Frame::Stream { .. } => "stream",
            Frame::MaxData { .. } => "max_data",
            Frame::MaxStreamData { .. } => "max_stream_data",
            Frame::MaxStreams { .. } => "max_streams",
            Frame::DataBlocked { .. } => "data_blocked",
            Frame::NewConnectionId { .. } => "new_connection_id",
            Frame::RetireConnectionId { .. } => "retire_connection_id",
            Frame::PathChallenge { .. } => "path_challenge",
            Frame::PathResponse { .. } => "path_response",
            Frame::ConnectionClose { .. } => "connection_close",
            Frame::HandshakeDone => "handshake_done",
        }
    }

    /// Bytes of data the frame carries (padding counts its length); 0 for
    /// frames that carry only control fields.
    pub fn data_len(&self) -> usize {
        match self {
            Frame::Padding { len } => *len,
            Frame::Crypto { data, .. } | Frame::Stream { data, .. } => data.len(),
            Frame::NewToken { token } => token.len(),
            _ => 0,
        }
    }

    /// Checks whether this frame may appear in packets of `ty`
    /// (RFC 9000 §12.4, Table 3). Initial/Handshake packets may carry only
    /// PADDING, PING, ACK, CRYPTO and CONNECTION_CLOSE (transport).
    pub fn permitted_in(&self, ty: PacketType) -> bool {
        match ty {
            PacketType::Initial | PacketType::Handshake => matches!(
                self,
                Frame::Padding { .. }
                    | Frame::Ping
                    | Frame::Ack(_)
                    | Frame::Crypto { .. }
                    | Frame::ConnectionClose { app: false, .. }
            ),
            PacketType::ZeroRtt => !matches!(
                self,
                Frame::Ack(_)
                    | Frame::Crypto { .. }
                    | Frame::NewToken { .. }
                    | Frame::HandshakeDone
                    | Frame::PathResponse { .. }
            ),
            PacketType::Retry => false,
            PacketType::OneRtt => true,
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        fn vlen(v: u64) -> usize {
            VarInt::new(v).expect("value fits varint").encoded_len()
        }
        match self {
            Frame::Padding { len } => *len,
            Frame::Ping => 1,
            Frame::Ack(a) => {
                let mut n = 1
                    + vlen(a.largest)
                    + vlen(a.ack_delay_us / ACK_DELAY_UNIT_US)
                    + vlen(a.ranges.len() as u64)
                    + vlen(a.first_range);
                for r in &a.ranges {
                    n += vlen(r.gap) + vlen(r.len);
                }
                n
            }
            Frame::Crypto { offset, data } => {
                1 + vlen(*offset) + vlen(data.len() as u64) + data.len()
            }
            Frame::NewToken { token } => 1 + vlen(token.len() as u64) + token.len(),
            Frame::Stream {
                id, offset, data, ..
            } => {
                let mut n = 1 + vlen(*id) + vlen(data.len() as u64) + data.len();
                if *offset > 0 {
                    n += vlen(*offset);
                }
                n
            }
            Frame::MaxData { max } => 1 + vlen(*max),
            Frame::MaxStreamData { id, max } => 1 + vlen(*id) + vlen(*max),
            Frame::MaxStreams { max, .. } => 1 + vlen(*max),
            Frame::DataBlocked { limit } => 1 + vlen(*limit),
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
            } => 1 + vlen(*seq) + vlen(*retire_prior_to) + 1 + cid.len() + 16,
            Frame::RetireConnectionId { seq } => 1 + vlen(*seq),
            Frame::PathChallenge { .. } | Frame::PathResponse { .. } => 1 + 8,
            Frame::ConnectionClose {
                error_code,
                reason,
                app,
            } => {
                1 + vlen(*error_code)
                    + if *app { 0 } else { 1 }
                    + vlen(reason.len() as u64)
                    + reason.len()
            }
            Frame::HandshakeDone => 1,
        }
    }

    /// Appends the wire encoding of this frame to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Frame::Padding { len } => buf.put_bytes(0x00, *len),
            Frame::Ping => buf.put_u8(0x01),
            Frame::Ack(a) => {
                buf.put_u8(0x02);
                VarInt::new(a.largest).unwrap().encode(buf);
                VarInt::new(a.ack_delay_us / ACK_DELAY_UNIT_US)
                    .unwrap()
                    .encode(buf);
                VarInt::new(a.ranges.len() as u64).unwrap().encode(buf);
                VarInt::new(a.first_range).unwrap().encode(buf);
                for r in &a.ranges {
                    VarInt::new(r.gap).unwrap().encode(buf);
                    VarInt::new(r.len).unwrap().encode(buf);
                }
            }
            Frame::Crypto { offset, data } => {
                buf.put_u8(0x06);
                VarInt::new(*offset).unwrap().encode(buf);
                VarInt::new(data.len() as u64).unwrap().encode(buf);
                buf.put_slice(data);
            }
            Frame::NewToken { token } => {
                buf.put_u8(0x07);
                VarInt::new(token.len() as u64).unwrap().encode(buf);
                buf.put_slice(token);
            }
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                buf.put_u8(self.type_id() as u8);
                VarInt::new(*id).unwrap().encode(buf);
                if *offset > 0 {
                    VarInt::new(*offset).unwrap().encode(buf);
                }
                VarInt::new(data.len() as u64).unwrap().encode(buf);
                buf.put_slice(data);
                let _ = fin;
            }
            Frame::MaxData { max } => {
                buf.put_u8(0x10);
                VarInt::new(*max).unwrap().encode(buf);
            }
            Frame::MaxStreamData { id, max } => {
                buf.put_u8(0x11);
                VarInt::new(*id).unwrap().encode(buf);
                VarInt::new(*max).unwrap().encode(buf);
            }
            Frame::MaxStreams { bidi, max } => {
                buf.put_u8(if *bidi { 0x12 } else { 0x13 });
                VarInt::new(*max).unwrap().encode(buf);
            }
            Frame::DataBlocked { limit } => {
                buf.put_u8(0x14);
                VarInt::new(*limit).unwrap().encode(buf);
            }
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
            } => {
                buf.put_u8(0x18);
                VarInt::new(*seq).unwrap().encode(buf);
                VarInt::new(*retire_prior_to).unwrap().encode(buf);
                buf.put_u8(cid.len() as u8);
                buf.put_slice(cid);
                // Stateless reset token (16 bytes, deterministic filler).
                buf.put_slice(&[0xEE; 16]);
            }
            Frame::RetireConnectionId { seq } => {
                buf.put_u8(0x19);
                VarInt::new(*seq).unwrap().encode(buf);
            }
            Frame::PathChallenge { data } => {
                buf.put_u8(0x1a);
                buf.put_u64(*data);
            }
            Frame::PathResponse { data } => {
                buf.put_u8(0x1b);
                buf.put_u64(*data);
            }
            Frame::ConnectionClose {
                error_code,
                reason,
                app,
            } => {
                buf.put_u8(if *app { 0x1d } else { 0x1c });
                VarInt::new(*error_code).unwrap().encode(buf);
                if !*app {
                    // Offending frame type; we always report 0 (unknown).
                    buf.put_u8(0x00);
                }
                VarInt::new(reason.len() as u64).unwrap().encode(buf);
                buf.put_slice(reason.as_bytes());
            }
            Frame::HandshakeDone => buf.put_u8(0x1e),
        }
    }

    /// Decodes one frame from `buf`. Adjacent PADDING bytes collapse into a
    /// single `Frame::Padding` with their total length.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Frame> {
        let ty = VarInt::decode(buf)?.value();
        match ty {
            0x00 => {
                let mut len = 1usize;
                while buf.has_remaining() && buf.chunk()[0] == 0x00 {
                    buf.advance(1);
                    len += 1;
                }
                Ok(Frame::Padding { len })
            }
            0x01 => Ok(Frame::Ping),
            0x02 | 0x03 => {
                let largest = VarInt::decode(buf)?.value();
                // Saturate: a hostile 62-bit delay field must not overflow
                // (found by the decoder_never_panics fuzz property).
                let ack_delay_us = VarInt::decode(buf)?
                    .value()
                    .saturating_mul(ACK_DELAY_UNIT_US);
                let range_count = VarInt::decode(buf)?.value();
                let first_range = VarInt::decode(buf)?.value();
                // No range may descend below packet number 0.
                let mut smallest = largest
                    .checked_sub(first_range)
                    .ok_or(WireError::MalformedAck)?;
                // A range is at least two bytes: the count field cannot
                // reserve more than the buffer could hold.
                let mut ranges =
                    Vec::with_capacity(range_count.min(buf.remaining() as u64 / 2) as usize);
                for _ in 0..range_count {
                    let gap = VarInt::decode(buf)?.value();
                    let len = VarInt::decode(buf)?.value();
                    smallest = smallest
                        .checked_sub(gap + 2)
                        .and_then(|hi| hi.checked_sub(len))
                        .ok_or(WireError::MalformedAck)?;
                    ranges.push(AckRange { gap, len });
                }
                if ty == 0x03 {
                    // ECN counts: ECT0, ECT1, CE — parsed and discarded.
                    for _ in 0..3 {
                        VarInt::decode(buf)?;
                    }
                }
                Ok(Frame::Ack(AckFrame {
                    largest,
                    ack_delay_us,
                    first_range,
                    ranges,
                }))
            }
            0x06 => {
                let offset = VarInt::decode(buf)?.value();
                let len = VarInt::decode(buf)?.value() as usize;
                Ok(Frame::Crypto {
                    offset,
                    data: take_bytes(buf, len)?,
                })
            }
            0x07 => {
                let len = VarInt::decode(buf)?.value() as usize;
                Ok(Frame::NewToken {
                    token: take_bytes(buf, len)?,
                })
            }
            0x08..=0x0f => {
                let id = VarInt::decode(buf)?.value();
                let offset = if ty & 0x02 != 0 {
                    VarInt::decode(buf)?.value()
                } else {
                    0
                };
                let data = if ty & 0x04 != 0 {
                    let len = VarInt::decode(buf)?.value() as usize;
                    take_bytes(buf, len)?
                } else {
                    take_bytes(buf, buf.remaining())?
                };
                Ok(Frame::Stream {
                    id,
                    offset,
                    data,
                    fin: ty & 0x01 != 0,
                })
            }
            0x10 => Ok(Frame::MaxData {
                max: VarInt::decode(buf)?.value(),
            }),
            0x11 => {
                let id = VarInt::decode(buf)?.value();
                let max = VarInt::decode(buf)?.value();
                Ok(Frame::MaxStreamData { id, max })
            }
            0x12 | 0x13 => Ok(Frame::MaxStreams {
                bidi: ty == 0x12,
                max: VarInt::decode(buf)?.value(),
            }),
            0x14 => Ok(Frame::DataBlocked {
                limit: VarInt::decode(buf)?.value(),
            }),
            0x18 => {
                let seq = VarInt::decode(buf)?.value();
                let retire_prior_to = VarInt::decode(buf)?.value();
                if !buf.has_remaining() {
                    return Err(WireError::UnexpectedEnd);
                }
                let cid_len = buf.get_u8() as usize;
                if cid_len > 20 {
                    return Err(WireError::CidTooLong(cid_len));
                }
                let cid = take_bytes(buf, cid_len)?.to_vec();
                // Skip the stateless reset token.
                if buf.remaining() < 16 {
                    return Err(WireError::UnexpectedEnd);
                }
                buf.advance(16);
                Ok(Frame::NewConnectionId {
                    seq,
                    retire_prior_to,
                    cid,
                })
            }
            0x19 => Ok(Frame::RetireConnectionId {
                seq: VarInt::decode(buf)?.value(),
            }),
            0x1a | 0x1b => {
                if buf.remaining() < 8 {
                    return Err(WireError::UnexpectedEnd);
                }
                let data = buf.get_u64();
                Ok(if ty == 0x1a {
                    Frame::PathChallenge { data }
                } else {
                    Frame::PathResponse { data }
                })
            }
            0x1c | 0x1d => {
                let error_code = VarInt::decode(buf)?.value();
                if ty == 0x1c {
                    // Offending frame type field.
                    VarInt::decode(buf)?;
                }
                let len = VarInt::decode(buf)?.value() as usize;
                let reason_bytes = take_bytes(buf, len)?;
                let reason = String::from_utf8_lossy(&reason_bytes).into_owned();
                Ok(Frame::ConnectionClose {
                    error_code,
                    reason,
                    app: ty == 0x1d,
                })
            }
            0x1e => Ok(Frame::HandshakeDone),
            other => Err(WireError::InvalidFrameType(other)),
        }
    }
}

/// Our fixed ack_delay_exponent is 3, so the on-wire unit is 8 µs
/// (the RFC 9000 default).
const ACK_DELAY_UNIT_US: u64 = 8;

fn take_bytes<B: Buf>(buf: &mut B, len: usize) -> Result<Bytes> {
    if buf.remaining() < len {
        return Err(WireError::UnexpectedEnd);
    }
    Ok(buf.copy_to_bytes(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = BytesMut::new();
        frame.encode(&mut buf);
        assert_eq!(
            buf.len(),
            frame.encoded_len(),
            "encoded_len mismatch for {frame:?}"
        );
        let mut slice = &buf[..];
        let out = Frame::decode(&mut slice).unwrap();
        assert!(
            slice.is_empty(),
            "decode left {} bytes for {frame:?}",
            slice.len()
        );
        out
    }

    #[test]
    fn ping_roundtrip() {
        assert_eq!(roundtrip(Frame::Ping), Frame::Ping);
    }

    #[test]
    fn padding_merges() {
        let f = Frame::Padding { len: 37 };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn crypto_roundtrip() {
        let f = Frame::Crypto {
            offset: 1200,
            data: Bytes::from(vec![7u8; 333]),
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn stream_roundtrip_with_offset_and_fin() {
        let f = Frame::Stream {
            id: 4,
            offset: 65536,
            data: Bytes::from_static(b"hello"),
            fin: true,
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn stream_roundtrip_zero_offset() {
        let f = Frame::Stream {
            id: 0,
            offset: 0,
            data: Bytes::from_static(b"GET /"),
            fin: false,
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn ack_single_roundtrip() {
        let f = Frame::Ack(AckFrame::single(9, 1600));
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn ack_delay_quantized_to_8us() {
        // 1601 µs is not a multiple of 8; the wire carries floor(1601/8)*8.
        let f = Frame::Ack(AckFrame::single(9, 1601));
        let out = roundtrip(f);
        match out {
            Frame::Ack(a) => assert_eq!(a.ack_delay_us, 1600),
            _ => panic!(),
        }
    }

    #[test]
    fn ack_multi_range_roundtrip() {
        let ack = AckFrame::from_sorted_desc(&[20, 19, 18, 10, 9, 3], 0);
        assert_eq!(ack.largest, 20);
        assert_eq!(ack.first_range, 2);
        assert_eq!(
            ack.ranges,
            [AckRange { gap: 6, len: 1 }, AckRange { gap: 4, len: 0 }]
        );
        assert_eq!(
            AckFrame::from_ranges_desc([18..=20, 9..=10, 3..=3], 0).as_ref(),
            Some(&ack)
        );
        assert_eq!(AckFrame::from_ranges_desc([], 0), None);
        let acked: Vec<u64> = ack.iter_acked().collect();
        assert_eq!(acked, vec![20, 19, 18, 10, 9, 3]);
        let f = Frame::Ack(ack);
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn ack_acks_predicate() {
        let ack = AckFrame::from_sorted_desc(&[7, 5, 4], 0);
        assert!(ack.acks(7));
        assert!(!ack.acks(6));
        assert!(ack.acks(5));
        assert!(ack.acks(4));
        assert!(!ack.acks(3));
    }

    #[test]
    fn malformed_ack_rejected() {
        // first_range > largest.
        let mut buf = BytesMut::new();
        buf.put_u8(0x02);
        VarInt::new(2).unwrap().encode(&mut buf);
        VarInt::new(0).unwrap().encode(&mut buf);
        VarInt::new(0).unwrap().encode(&mut buf);
        VarInt::new(5).unwrap().encode(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(Frame::decode(&mut slice), Err(WireError::MalformedAck));
    }

    #[test]
    fn connection_close_roundtrip() {
        let f = Frame::ConnectionClose {
            error_code: 0x0a,
            reason: "retired CID twice".into(),
            app: false,
        };
        assert_eq!(roundtrip(f.clone()), f);
        let g = Frame::ConnectionClose {
            error_code: 0x100,
            reason: String::new(),
            app: true,
        };
        assert_eq!(roundtrip(g.clone()), g);
    }

    #[test]
    fn new_connection_id_roundtrip() {
        let f = Frame::NewConnectionId {
            seq: 3,
            retire_prior_to: 1,
            cid: vec![1, 2, 3, 4, 5, 6, 7, 8],
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn retire_connection_id_roundtrip() {
        let f = Frame::RetireConnectionId { seq: 2 };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn path_challenge_response_roundtrip() {
        for f in [
            Frame::PathChallenge {
                data: 0xDEAD_BEEF_CAFE_F00D,
            },
            Frame::PathResponse { data: 0 },
            Frame::PathResponse { data: u64::MAX },
        ] {
            assert_eq!(roundtrip(f.clone()), f);
        }
    }

    #[test]
    fn path_frames_classification() {
        use crate::header::PacketType::*;
        let ch = Frame::PathChallenge { data: 1 };
        let re = Frame::PathResponse { data: 1 };
        assert!(ch.is_ack_eliciting());
        assert!(re.is_ack_eliciting());
        // RFC 9000 Table 3: PATH_CHALLENGE in 0-RTT and 1-RTT; PATH_RESPONSE
        // only in 1-RTT; neither in Initial or Handshake packets.
        assert!(!ch.permitted_in(Initial));
        assert!(!ch.permitted_in(Handshake));
        assert!(ch.permitted_in(ZeroRtt));
        assert!(ch.permitted_in(OneRtt));
        assert!(!re.permitted_in(ZeroRtt));
        assert!(re.permitted_in(OneRtt));
    }

    #[test]
    fn handshake_done_and_flow_control() {
        for f in [
            Frame::HandshakeDone,
            Frame::MaxData { max: 1 << 20 },
            Frame::MaxStreamData { id: 4, max: 99999 },
            Frame::MaxStreams {
                bidi: true,
                max: 16,
            },
            Frame::MaxStreams {
                bidi: false,
                max: 3,
            },
            Frame::DataBlocked { limit: 4096 },
            Frame::NewToken {
                token: Bytes::from_static(&[9; 32]),
            },
        ] {
            assert_eq!(roundtrip(f.clone()), f);
        }
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(!Frame::Ack(AckFrame::single(0, 0)).is_ack_eliciting());
        assert!(!Frame::Padding { len: 4 }.is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: String::new(),
            app: false
        }
        .is_ack_eliciting());
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::Crypto {
            offset: 0,
            data: Bytes::new()
        }
        .is_ack_eliciting());
        assert!(Frame::HandshakeDone.is_ack_eliciting());
    }

    #[test]
    fn frame_permissions_initial() {
        use crate::header::PacketType::*;
        assert!(Frame::Ping.permitted_in(Initial));
        assert!(Frame::Crypto {
            offset: 0,
            data: Bytes::new()
        }
        .permitted_in(Initial));
        assert!(!Frame::Stream {
            id: 0,
            offset: 0,
            data: Bytes::new(),
            fin: false
        }
        .permitted_in(Initial));
        assert!(!Frame::HandshakeDone.permitted_in(Handshake));
        assert!(Frame::HandshakeDone.permitted_in(OneRtt));
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: String::new(),
            app: true
        }
        .permitted_in(Initial));
    }

    #[test]
    fn unknown_frame_type_rejected() {
        let mut slice: &[u8] = &[0x21];
        assert_eq!(
            Frame::decode(&mut slice),
            Err(WireError::InvalidFrameType(0x21))
        );
    }
}
