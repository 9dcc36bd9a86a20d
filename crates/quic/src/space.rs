//! Per-packet-number-space state: packet number allocation, receive-side
//! ACK bookkeeping, crypto-stream assembly, and retransmittable content.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use bytes::Bytes;
use rq_sim::SimTime;
use rq_wire::{AckFrame, Frame};

use crate::bytestream::{Reassembler, Run, SendBuf};

/// Content of a sent packet that must be retransmitted if it is lost.
///
/// Stored per packet (keyed by `retx_token` in the recovery tracker) so the
/// connection can rebuild equivalent frames on loss or PTO.
#[derive(Debug, Clone, Default)]
pub struct RetxContent {
    /// CRYPTO runs.
    pub crypto: Vec<Run>,
    /// STREAM ranges: (id, offset, bytes, fin).
    pub stream: Vec<(u64, u64, Bytes, bool)>,
    /// HANDSHAKE_DONE was carried.
    pub handshake_done: bool,
    /// NEW_CONNECTION_ID frames carried: (seq, retire_prior_to, cid).
    pub new_cids: Vec<(u64, u64, Vec<u8>)>,
    /// MAX_DATA carried (value).
    pub max_data: Option<u64>,
    /// MAX_STREAM_DATA carried: (id, value).
    pub max_stream_data: Vec<(u64, u64)>,
}

impl RetxContent {
    /// True if nothing in this packet needs retransmission.
    pub fn is_empty(&self) -> bool {
        self.crypto.is_empty()
            && self.stream.is_empty()
            && !self.handshake_done
            && self.new_cids.is_empty()
            && self.max_data.is_none()
            && self.max_stream_data.is_empty()
    }
}

/// Receive-side tracking: which packet numbers we have received and must
/// acknowledge.
#[derive(Debug, Default)]
pub struct RecvState {
    /// Received packet numbers as disjoint, non-adjacent ranges, highest
    /// first — the shape an ACK frame carries them in.
    ranges: Vec<RangeInclusive<u64>>,
    /// Arrival time of the largest received packet (ack-delay basis).
    pub largest_recv_time: Option<SimTime>,
    /// Ack-eliciting packets received since the last ACK we sent.
    pub unacked_eliciting: usize,
    /// An ACK is owed (ack-eliciting data arrived).
    pub ack_pending: bool,
    /// Deadline by which a pending ACK must be sent (max_ack_delay).
    pub ack_deadline: Option<SimTime>,
    /// The deadline fired but the ACK could not be sent yet (e.g. the
    /// server is amplification-blocked): send at the next opportunity
    /// without re-arming a timer.
    pub ack_overdue: bool,
}

/// Packet numbers one ACK frame covers: the newest this many. Older
/// packets were acknowledged by earlier ACK frames, exactly as real
/// stacks bound their ACK state.
const ACK_FRAME_PNS: u64 = 128;

impl RecvState {
    /// Records a received packet. Returns `false` if it was a duplicate.
    ///
    /// An in-order arrival extends the first range in place; anything
    /// else is a binary search over the ranges, of which there is one
    /// per loss gap rather than one per packet.
    pub fn on_packet(&mut self, pn: u64, ack_eliciting: bool, now: SimTime) -> bool {
        // `ranges[..i]` lie wholly above `pn`.
        let i = self.ranges.partition_point(|r| *r.start() > pn);
        if self.ranges.get(i).is_some_and(|r| r.contains(&pn)) {
            return false; // duplicate
        }
        // The new range replaces whichever neighbours `pn` touches.
        let above = self.ranges[..i].last().filter(|r| *r.start() == pn + 1);
        let below = self.ranges.get(i).filter(|r| *r.end() + 1 == pn);
        let merged = below.map_or(pn, |r| *r.start())..=above.map_or(pn, |r| *r.end());
        let replaced = i - usize::from(above.is_some())..i + usize::from(below.is_some());
        self.ranges.splice(replaced, [merged]);
        if Some(pn) == self.largest() {
            self.largest_recv_time = Some(now);
        }
        if ack_eliciting {
            self.unacked_eliciting += 1;
            self.ack_pending = true;
        }
        true
    }

    /// Largest received packet number.
    pub fn largest(&self) -> Option<u64> {
        self.ranges.first().map(|r| *r.end())
    }

    /// The ACK frame for what was received so far, or `None` if that is
    /// nothing: the newest [`ACK_FRAME_PNS`] packet numbers.
    pub fn ack_frame(&self, ack_delay_us: u64) -> Option<AckFrame> {
        let mut left = ACK_FRAME_PNS;
        let newest = self.ranges.iter().map_while(|r| {
            let n = left.min(r.end() - r.start() + 1);
            left -= n;
            (n > 0).then(|| r.end() + 1 - n..=*r.end())
        });
        AckFrame::from_ranges_desc(newest, ack_delay_us)
    }

    /// Marks an ACK as sent.
    pub fn on_ack_sent(&mut self) {
        self.ack_pending = false;
        self.unacked_eliciting = 0;
        self.ack_deadline = None;
        self.ack_overdue = false;
    }

    /// True if the received packet numbers form `0..=largest` with no gap
    /// (a gap means at least one peer packet was lost or dropped).
    pub fn is_contiguous_from_zero(&self) -> bool {
        match self.ranges.as_slice() {
            [] => true,
            [only] => *only.start() == 0,
            _ => false,
        }
    }
}

/// Crypto stream of one space: a [`SendBuf`] out, a [`Reassembler`] in.
#[derive(Debug, Default)]
pub struct CryptoStream {
    tx: SendBuf,
    rx: Reassembler,
}

impl CryptoStream {
    /// Queues outgoing handshake bytes.
    pub fn queue_tx(&mut self, data: &[u8]) {
        self.tx.write(data);
    }

    /// Takes up to `max` pending bytes for a CRYPTO frame, advancing the
    /// send offset.
    pub fn take_tx(&mut self, max: usize) -> Option<Run> {
        self.tx.take(max)
    }

    /// Accepts a received CRYPTO frame; returns newly contiguous bytes (may
    /// be empty for duplicates/out-of-order data). `true` in the second
    /// tuple slot if any byte of the frame was a retransmission overlap.
    pub fn on_rx(&mut self, offset: u64, data: &[u8]) -> (Vec<u8>, bool) {
        let overlap = offset < self.rx.offset() && !data.is_empty();
        (self.rx.insert(offset, data), overlap)
    }

    /// Bytes waiting to be sent.
    pub fn tx_len(&self) -> usize {
        self.tx.len()
    }
}

/// All mutable state for one packet number space.
///
/// The Application instance doubles as the 0-RTT space: 0-RTT and 1-RTT
/// packets share its packet number sequence (RFC 9000 §12.3), with
/// [`SpaceState::zero_rtt_pns`] remembering which numbers went out as
/// 0-RTT so a server reject can surgically unwind exactly those sends.
#[derive(Debug, Default)]
pub struct SpaceState {
    /// Next packet number to assign.
    pub next_pn: u64,
    /// Receive bookkeeping.
    pub recv: RecvState,
    /// Crypto stream (unused in the Application space once complete).
    pub crypto: CryptoStream,
    /// Retransmittable content of sent packets, by retx token.
    pub retx: BTreeMap<u64, RetxContent>,
    /// Content queued for (re)transmission after loss.
    pub retx_queue: Vec<RetxContent>,
    /// Number of PING probes queued for immediate send.
    pub pending_pings: usize,
    /// Space has been discarded (keys dropped).
    pub discarded: bool,
    /// Packet numbers sent as 0-RTT packets (Application space only).
    pub zero_rtt_pns: Vec<u64>,
}

impl SpaceState {
    /// Allocates the next packet number.
    pub fn alloc_pn(&mut self) -> u64 {
        let pn = self.next_pn;
        self.next_pn += 1;
        pn
    }

    /// Records a packet number as sent in a 0-RTT packet.
    pub fn mark_zero_rtt(&mut self, pn: u64) {
        self.zero_rtt_pns.push(pn);
    }

    /// Whether `pn` was sent as 0-RTT.
    pub fn is_zero_rtt(&self, pn: u64) -> bool {
        self.zero_rtt_pns.contains(&pn)
    }

    /// Queues content for retransmission.
    pub fn queue_retx(&mut self, content: RetxContent) {
        if !content.is_empty() {
            self.retx_queue.push(content);
        }
    }

    /// Whether this space has anything useful to send (ACK not counted).
    pub fn has_data_to_send(&self) -> bool {
        self.crypto.tx_len() > 0 || !self.retx_queue.is_empty() || self.pending_pings > 0
    }
}

/// Extracts the retransmittable content from an encoded frame list (used
/// when registering sent packets).
pub fn retx_content_of(frames: &[Frame]) -> RetxContent {
    let mut c = RetxContent::default();
    for f in frames {
        match f {
            Frame::Crypto { offset, data } => c.crypto.push((*offset, data.clone())),
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => c.stream.push((*id, *offset, data.clone(), *fin)),
            Frame::HandshakeDone => c.handshake_done = true,
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
            } => c.new_cids.push((*seq, *retire_prior_to, cid.clone())),
            Frame::MaxData { max } => c.max_data = Some(*max),
            Frame::MaxStreamData { id, max } => c.max_stream_data.push((*id, *max)),
            _ => {}
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pn_allocation_monotonic() {
        let mut s = SpaceState::default();
        assert_eq!(s.alloc_pn(), 0);
        assert_eq!(s.alloc_pn(), 1);
        assert_eq!(s.alloc_pn(), 2);
    }

    #[test]
    fn zero_rtt_and_one_rtt_share_the_pn_sequence() {
        let mut s = SpaceState::default();
        let early = s.alloc_pn();
        s.mark_zero_rtt(early);
        let one_rtt = s.alloc_pn();
        assert_eq!((early, one_rtt), (0, 1));
        assert!(s.is_zero_rtt(early));
        assert!(!s.is_zero_rtt(one_rtt));
    }

    #[test]
    fn recv_tracks_and_dedups() {
        let mut r = RecvState::default();
        let t = SimTime::ZERO;
        assert!(r.on_packet(0, true, t));
        assert!(r.on_packet(2, true, t));
        assert!(!r.on_packet(0, true, t), "duplicate rejected");
        assert_eq!(r.largest(), Some(2));
        assert_eq!(r.ack_frame(0), Some(AckFrame::from_sorted_desc(&[2, 0], 0)));
        assert!(!r.is_contiguous_from_zero());
        // Filling the gap merges the two ranges into one.
        assert!(r.on_packet(1, false, t));
        assert!(r.is_contiguous_from_zero());
        assert_eq!(
            r.ack_frame(0),
            Some(AckFrame::from_sorted_desc(&[2, 1, 0], 0))
        );
        assert_eq!(r.unacked_eliciting, 2);
        r.on_ack_sent();
        assert!(!r.ack_pending);
        assert_eq!(r.unacked_eliciting, 0);
    }

    #[test]
    fn non_eliciting_packets_do_not_demand_ack() {
        let mut r = RecvState::default();
        r.on_packet(0, false, SimTime::ZERO);
        assert!(!r.ack_pending);
        assert_eq!(r.largest(), Some(0));
    }

    #[test]
    fn crypto_tx_chunks_respect_max() {
        let mut c = CryptoStream::default();
        c.queue_tx(&[1u8; 100]);
        let (off, data) = c.take_tx(60).unwrap();
        assert_eq!((off, data.len()), (0, 60));
        let (off, data) = c.take_tx(60).unwrap();
        assert_eq!((off, data.len()), (60, 40));
        assert!(c.take_tx(60).is_none());
    }

    #[test]
    fn crypto_rx_in_order() {
        let mut c = CryptoStream::default();
        let (out, dup) = c.on_rx(0, b"hello");
        assert_eq!(out, b"hello");
        assert!(!dup);
        let (out, _) = c.on_rx(5, b" world");
        assert_eq!(out, b" world");
    }

    #[test]
    fn crypto_rx_out_of_order_buffers() {
        let mut c = CryptoStream::default();
        let (out, _) = c.on_rx(5, b"world");
        assert!(out.is_empty());
        let (out, _) = c.on_rx(0, b"hello");
        assert_eq!(out, b"helloworld");
    }

    #[test]
    fn crypto_rx_duplicate_flagged() {
        let mut c = CryptoStream::default();
        let _ = c.on_rx(0, b"hello");
        let (out, dup) = c.on_rx(0, b"hello");
        assert!(out.is_empty());
        assert!(dup, "full duplicate must be flagged");
        // Partial overlap delivers only the new tail.
        let (out, dup) = c.on_rx(3, b"lo more");
        assert_eq!(out, b" more");
        assert!(dup);
    }

    #[test]
    fn retx_content_extraction() {
        let frames = vec![
            Frame::Ping,
            Frame::Crypto {
                offset: 10,
                data: Bytes::from_static(b"abc"),
            },
            Frame::Stream {
                id: 0,
                offset: 0,
                data: Bytes::from_static(b"req"),
                fin: true,
            },
            Frame::HandshakeDone,
            Frame::MaxData { max: 4096 },
        ];
        let c = retx_content_of(&frames);
        assert_eq!(c.crypto.len(), 1);
        assert_eq!(c.stream.len(), 1);
        assert!(c.handshake_done);
        assert_eq!(c.max_data, Some(4096));
        assert!(!c.is_empty());
        assert!(retx_content_of(&[Frame::Ping]).is_empty());
    }
}
