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
struct AckRange {
    /// Packets skipped below the smallest acked packet of the previous range.
    gap: u64,
    /// `length` field: number of acked packets in this range minus one.
    len: u64,
}

/// An ACK frame's ranges below its first, held as their wire encoding:
/// each range's gap and length as two varints in their shortest form, so
/// two lists of the same ranges hold the same bytes, and equality and
/// [`Frame::encoded_len`] never depend on the varint widths a peer chose.
/// Up to 22 bytes (eleven ranges whose fields are below 64) live in the
/// value itself; a longer list takes one heap buffer. Iterating decodes
/// the pairs.
#[derive(Clone, Default)]
pub struct AckRanges(RangesRepr);

#[derive(Clone)]
enum RangesRepr {
    /// `bytes[..len]` are the ranges, the rest zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_RANGES],
    },
    Heap(Box<[u8]>),
}

/// Range bytes held without a heap allocation: what a tag byte and a
/// length byte leave of 24, which keeps `AckFrame` at 48 bytes and
/// `Frame` at 56 (a packet's frame list holds three frames inline).
const INLINE_RANGES: usize = 22;

impl Default for RangesRepr {
    fn default() -> Self {
        RangesRepr::Inline {
            len: 0,
            bytes: [0; INLINE_RANGES],
        }
    }
}

impl AckRanges {
    /// The wire encoding: gap/length varint pairs, highest range first.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            RangesRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            RangesRepr::Heap(bytes) => bytes,
        }
    }

    /// Number of ranges: half the varints, counted by their length bits.
    fn count(&self) -> u64 {
        let mut rest = self.as_bytes();
        let mut varints = 0;
        while let Some(&first) = rest.first() {
            rest = &rest[1 << (first >> 6)..];
            varints += 1;
        }
        varints / 2
    }

    /// The ranges, highest first.
    fn iter(&self) -> impl Iterator<Item = AckRange> + '_ {
        let mut rest = self.as_bytes();
        std::iter::from_fn(move || {
            let gap = VarInt::decode(&mut rest).ok()?.value();
            let len = VarInt::decode(&mut rest).expect("whole pairs").value();
            Some(AckRange { gap, len })
        })
    }
}

impl PartialEq for AckRanges {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for AckRanges {}

impl std::fmt::Debug for AckRanges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Builds an [`AckRanges`] one range at a time, in the value until the
/// ranges outgrow it.
#[derive(Default)]
struct RangesWriter {
    inline: [u8; INLINE_RANGES],
    len: usize,
    /// Every byte so far, once they no longer fit inline.
    heap: Vec<u8>,
}

impl RangesWriter {
    /// Appends `range` in the shortest encoding of each field.
    fn push(&mut self, range: AckRange) {
        for field in [range.gap, range.len] {
            let mut word = [0u8; 8];
            let mut rest = &mut word[..];
            VarInt::new(field)
                .expect("ACK range fields fit a varint")
                .encode(&mut rest);
            let n = 8 - rest.len();
            if self.heap.is_empty() && self.len + n <= INLINE_RANGES {
                self.inline[self.len..self.len + n].copy_from_slice(&word[..n]);
                self.len += n;
            } else {
                if self.heap.is_empty() {
                    self.heap.extend_from_slice(&self.inline[..self.len]);
                }
                self.heap.extend_from_slice(&word[..n]);
            }
        }
    }

    fn finish(self) -> AckRanges {
        AckRanges(if self.heap.is_empty() {
            RangesRepr::Inline {
                len: self.len as u8,
                bytes: self.inline,
            }
        } else {
            RangesRepr::Heap(self.heap.into_boxed_slice())
        })
    }
}

/// A decoded ACK frame.
///
/// `ack_delay_us` is carried in microseconds already scaled by the peer's
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
    pub ranges: AckRanges,
}

impl AckFrame {
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
        let mut lower = RangesWriter::default();
        for r in ranges {
            // RFC 9000 §19.3.1 gap encoding.
            let gap = smallest.checked_sub(r.end() + 2);
            smallest = *r.start();
            lower.push(AckRange {
                gap: gap.expect("ranges must be descending with a gap between them"),
                len: r.end() - r.start(),
            });
        }
        Some(AckFrame {
            largest: *first.end(),
            ack_delay_us,
            first_range: first.end() - first.start(),
            ranges: lower.finish(),
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
                1 + vlen(a.largest)
                    + vlen(a.ack_delay_us / ACK_DELAY_UNIT_US)
                    + vlen(a.ranges.count())
                    + vlen(a.first_range)
                    + a.ranges.as_bytes().len()
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
                VarInt::new(a.ranges.count()).unwrap().encode(buf);
                VarInt::new(a.first_range).unwrap().encode(buf);
                buf.put_slice(a.ranges.as_bytes());
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
                // The run of zeros goes in one scan of each chunk.
                let mut len = 1usize;
                loop {
                    let run = buf.chunk().iter().take_while(|&&b| b == 0x00).count();
                    if run == 0 {
                        break;
                    }
                    buf.advance(run);
                    len += run;
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
                // Each pair is written again in its shortest form, so the
                // frame equals the one its ranges build, however wide the
                // peer's varints; the count field reserves nothing.
                let mut ranges = RangesWriter::default();
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
                    ranges: ranges.finish(),
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
mod tests;
