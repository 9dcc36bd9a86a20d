//! Per-packet-number-space state: keys, packet number allocation,
//! receive-side ACK bookkeeping, crypto-stream assembly, sent-packet
//! tracking and what is retransmitted when a sent packet is lost.

use std::collections::VecDeque;
use std::ops::{Range, RangeInclusive};

use bytes::Bytes;
use rq_recovery::{AckOutcome, Acked, RttEstimator, SentPacket, SentTracker, SmallDeque, FLIGHT};
use rq_sim::SimTime;
use rq_tls::LevelKeys;
use rq_wire::{AckFrame, Frame, FrameList, PacketType};

use crate::bytestream::{Reassembler, Run, SendBuf};

/// Receive-side tracking: which packet numbers we have received and must
/// acknowledge.
#[derive(Debug, Default)]
pub struct RecvState {
    /// Received packet numbers as disjoint, non-adjacent ranges, highest
    /// first — the shape an ACK frame carries them in. Without loss there
    /// is one, held inline.
    ranges: SmallDeque<RangeInclusive<u64>>,
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
        let above = i.checked_sub(1).and_then(|j| self.ranges.get(j));
        let above = above.filter(|r| *r.start() == pn + 1);
        let below = self.ranges.get(i).filter(|r| *r.end() + 1 == pn);
        let merged = below.map_or(pn, |r| *r.start())..=above.map_or(pn, |r| *r.end());
        let replaced = i - usize::from(above.is_some())..i + usize::from(below.is_some());
        self.ranges.replace(replaced, merged);
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
    fn largest(&self) -> Option<u64> {
        self.ranges.front().map(|r| *r.end())
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
        match self.ranges.len() {
            0 => true,
            1 => self.ranges.front().is_some_and(|only| *only.start() == 0),
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
    /// Queues outgoing handshake bytes: the caller's storage, not a copy.
    pub fn queue_tx(&mut self, data: Bytes) {
        self.tx.write_owned(data);
    }

    /// Takes up to `max` pending bytes for a CRYPTO frame, advancing the
    /// send offset.
    pub fn take_tx(&mut self, max: usize) -> Option<Run> {
        self.tx.take(max)
    }

    /// Accepts a received CRYPTO frame; returns newly contiguous bytes (may
    /// be empty for duplicates/out-of-order data). `true` in the second
    /// tuple slot if any byte of the frame was a retransmission overlap.
    pub fn on_rx(&mut self, offset: u64, data: Bytes) -> (Bytes, bool) {
        let overlap = offset < self.rx.offset() && !data.is_empty();
        (self.rx.insert(offset, data), overlap)
    }

    /// Bytes waiting to be sent.
    fn tx_len(&self) -> usize {
        self.tx.len()
    }
}

/// The one owner of a packet number space: its keys, packet numbers,
/// receive and crypto state, the packets in flight, what each carried,
/// and what is queued to be sent again.
///
/// The Application instance doubles as the 0-RTT space: 0-RTT and 1-RTT
/// packets share its packet number sequence (RFC 9000 §12.3) and it holds
/// the 0-RTT keys beside the 1-RTT ones, with `zero_rtt_pns` remembering
/// which numbers went out as 0-RTT.
#[derive(Debug, Default)]
pub struct Space {
    /// Packet protection keys: `None` until installed and after discard.
    pub keys: Option<LevelKeys>,
    /// 0-RTT packet protection (Application space only): the client
    /// derives these from its ticket before the first flight, the server
    /// after validating the ticket.
    pub early_keys: Option<LevelKeys>,
    /// Receive bookkeeping.
    pub recv: RecvState,
    /// Crypto stream (unused in the Application space once complete).
    pub crypto: CryptoStream,
    /// Number of PING probes queued for immediate send.
    pub pending_pings: usize,
    /// Next packet number to assign.
    next_pn: u64,
    /// Sent packets not yet acknowledged or declared lost.
    sent: SentTracker,
    /// The retransmittable frames of each tracked packet that has any.
    carried: Carried,
    /// Frames queued for retransmission, oldest first.
    requeued: Vec<Frame>,
    /// Space has been discarded (keys dropped).
    discarded: bool,
    /// Packet numbers sent as 0-RTT packets (Application space only).
    zero_rtt_pns: Vec<u64>,
}

impl Space {
    /// Allocates the next packet number.
    pub fn alloc_pn(&mut self) -> u64 {
        let pn = self.next_pn;
        self.next_pn += 1;
        pn
    }

    /// The keys protecting packets of type `ty` in this space.
    pub fn keys_for(&self, ty: PacketType) -> Option<&LevelKeys> {
        match ty {
            PacketType::ZeroRtt => self.early_keys.as_ref(),
            _ => self.keys.as_ref(),
        }
    }

    /// Whether keys are installed and the space has not been discarded.
    pub fn usable(&self) -> bool {
        self.keys.is_some() && !self.discarded
    }

    /// Whether the space has been discarded.
    pub fn is_discarded(&self) -> bool {
        self.discarded
    }

    /// Whether packet number `pn` has been sent in this space.
    pub fn has_sent(&self, pn: u64) -> bool {
        pn < self.next_pn
    }

    /// The packets in flight (read-only view).
    pub fn sent(&self) -> &SentTracker {
        &self.sent
    }

    /// Registers a sent packet and keeps the retransmittable part of the
    /// `frames` it carried until it is acknowledged or lost. `zero_rtt`
    /// marks a 0-RTT send so a server reject can [`Space::unwind`] it.
    pub fn on_sent(&mut self, packet: SentPacket, frames: impl Into<FrameList>, zero_rtt: bool) {
        if zero_rtt {
            self.zero_rtt_pns.push(packet.pn);
        }
        self.carried.insert(packet.pn, retransmittable(frames));
        self.sent.on_sent(packet);
    }

    /// Processes a received ACK frame: forgets what the newly acked
    /// packets carried and requeues what the newly lost ones did. A frame
    /// acknowledging a packet never sent (forged or corrupt) changes nothing.
    pub fn on_ack(&mut self, ack: &AckFrame, now: SimTime, rtt: &RttEstimator) -> AckOutcome {
        if !self.has_sent(ack.largest) {
            return AckOutcome::default();
        }
        let outcome = self
            .sent
            .on_ack_ranges(ack.acked_ranges(), ack.largest, now, rtt);
        for p in outcome.newly_acked.iter() {
            drop(self.carried.take(p.pn));
        }
        self.requeue_carried(&outcome.lost);
        outcome
    }

    /// Time-threshold loss detection at `now` (the `loss_time` timer):
    /// requeues what the lost packets carried and returns them.
    pub fn detect_lost(&mut self, now: SimTime, rtt: &RttEstimator) -> Acked {
        let lost = self.sent.detect_time_lost(now, rtt);
        self.requeue_carried(&lost);
        lost
    }

    /// Queues what `packets`, no longer tracked, carried.
    fn requeue_carried(&mut self, packets: &[SentPacket]) {
        for p in packets {
            self.requeued.extend(self.carried.take(p.pn));
        }
    }

    /// Queues the retransmittable ones of `frames` to be sent again.
    pub fn requeue(&mut self, frames: impl Into<FrameList>) {
        self.requeued.extend(retransmittable(frames));
    }

    /// Probe content (RFC 9002 §6.2.4): queues a copy of what the oldest
    /// unacknowledged ack-eliciting packet carried, leaving the packet
    /// tracked. `false` when there is no such packet or it carried
    /// nothing retransmittable.
    pub fn requeue_oldest(&mut self) -> bool {
        let Some(oldest) = self.sent.oldest_ack_eliciting() else {
            return false;
        };
        let queued = self.requeued.len();
        self.requeued.extend(self.carried.of(oldest.pn).cloned());
        self.requeued.len() > queued
    }

    /// 0-RTT was rejected (RFC 9001 §4.6.2): stops tracking the early
    /// packets — they are neither acknowledged nor declared lost — and
    /// requeues what they carried for 1-RTT transmission. Returns the
    /// bytes that leave flight.
    pub fn unwind(&mut self) -> usize {
        if self.zero_rtt_pns.is_empty() {
            return 0;
        }
        let mut freed = 0;
        for p in self.sent.drain() {
            debug_assert!(
                self.zero_rtt_pns.contains(&p.pn),
                "only 0-RTT packets live in the app space before 1-RTT keys"
            );
            self.requeue_carried(std::slice::from_ref(&p));
            freed += if p.in_flight { p.size } else { 0 };
        }
        freed
    }

    /// Discards the space (RFC 9002 §6.2.2): drops the keys and stops
    /// tracking and retransmitting — what was kept for that holds views
    /// into the crypto flight, which would stay allocated with them.
    /// Returns the bytes that leave flight.
    pub fn discard(&mut self) -> usize {
        self.discarded = true;
        self.keys = None;
        self.carried.clear();
        self.requeued.clear();
        self.sent.discard()
    }

    /// Restarts the space after a Retry: tracking, receive state and the
    /// crypto stream start over (RFC 9002 §6.3); the keys stay, and so do
    /// the packet numbers, which a client must not reset (RFC 9000
    /// §17.2.5.3).
    pub fn reset(&mut self) {
        *self = Space {
            keys: self.keys.take(),
            next_pn: self.next_pn,
            ..Space::default()
        };
    }

    /// Whether this space has anything useful to send (ACK not counted).
    pub fn has_data_to_send(&self) -> bool {
        self.crypto.tx_len() > 0 || !self.requeued.is_empty() || self.pending_pings > 0
    }

    /// Moves queued retransmissions onto `frames`, a packet payload of at
    /// most `max_payload` bytes of which `used` are taken. CRYPTO and
    /// STREAM data is cut to the room left and its tail stays queued;
    /// HANDSHAKE_DONE waits for a free byte; flow-control and
    /// connection-ID frames always go. What stays keeps its order.
    pub fn take_requeued(
        &mut self,
        frames: &mut impl Extend<Frame>,
        used: &mut usize,
        max_payload: usize,
    ) {
        for frame in std::mem::take(&mut self.requeued) {
            let (_, overhead) = retx_kind(&frame).expect("only retransmittable kinds are queued");
            let room = max_payload.saturating_sub(*used + overhead);
            let (now, later) = match frame {
                Frame::Crypto { .. } | Frame::Stream { .. } => split_data(frame, room),
                Frame::HandshakeDone if *used + overhead > max_payload => (None, Some(frame)),
                control => (Some(control), None),
            };
            if let Some(frame) = now {
                *used += overhead + frame.data_len();
                frames.extend([frame]);
            }
            self.requeued.extend(later);
        }
    }

    /// When the owed ACK must leave, if one is owed and timed.
    pub fn ack_deadline(&self) -> Option<SimTime> {
        self.recv.ack_deadline.filter(|_| self.recv.ack_pending)
    }

    /// The send the PTO timer of this space runs from (RFC 9002 A.8):
    /// the latest ack-eliciting one, while the space is usable and has
    /// ack-eliciting packets in flight.
    pub fn pto_base(&self) -> Option<SimTime> {
        let armed = self.usable() && self.sent.has_ack_eliciting_in_flight();
        self.sent.last_ack_eliciting_sent.filter(|_| armed)
    }
}

/// What the packets in flight carried, as one run of (packet number,
/// frame) in packet number order, a packet's frames side by side in the
/// order they are resent. Two thirds of the packets sent carry one
/// retransmittable frame, a third none and one in a hundred two, so a
/// packet costs its frames and nothing for holding them. Unlike the
/// tables beside it, it keeps no first entry inline: with one, the
/// `bulk_transfer` download measured a few per cent slower.
#[derive(Debug, Default)]
struct Carried {
    frames: VecDeque<(u64, Frame)>,
}

impl Carried {
    /// Where packet `pn`'s frames sit, or would. The newest packet
    /// (being recorded) and the oldest (being acknowledged) are the usual
    /// ones asked for and are found without a search.
    fn span(&self, pn: u64) -> Range<usize> {
        let start = match (self.frames.front(), self.frames.back()) {
            (_, Some((last, _))) if *last < pn => self.frames.len(),
            (Some((first, _)), _) if *first >= pn => 0,
            _ => self.frames.partition_point(|(k, _)| *k < pn),
        };
        let len = self.frames.range(start..).take_while(|(k, _)| *k == pn);
        start..start + len.count()
    }

    /// Records that packet `pn` carried `frames`; the first into room for
    /// a flight, like the sent-packet table beside it.
    fn insert(&mut self, pn: u64, frames: FrameList) {
        if frames.is_empty() {
            return;
        }
        if self.frames.capacity() == 0 {
            self.frames.reserve_exact(FLIGHT);
        }
        let at = self.span(pn).end;
        for (i, frame) in frames.into_iter().enumerate() {
            self.frames.insert(at + i, (pn, frame));
        }
    }

    /// What packet `pn` carried.
    fn of(&self, pn: u64) -> impl Iterator<Item = &Frame> {
        self.frames.range(self.span(pn)).map(|(_, f)| f)
    }

    /// Forgets packet `pn`, handing back what it carried.
    fn take(&mut self, pn: u64) -> impl Iterator<Item = Frame> + '_ {
        self.frames.drain(self.span(pn)).map(|(_, f)| f)
    }

    /// Drops everything and releases the storage.
    fn clear(&mut self) {
        self.frames = VecDeque::new();
    }
}

/// The frame kinds that are sent again when the packet carrying them is
/// lost, as (resend rank, payload bytes budgeted for the frame besides
/// its data); `None` for the rest — ACK, PING and PADDING are made afresh,
/// path and close frames run on timers of their own.
fn retx_kind(frame: &Frame) -> Option<(u8, usize)> {
    match frame {
        Frame::Crypto { .. } => Some((0, 10)),
        Frame::Stream { .. } => Some((1, 12)),
        Frame::HandshakeDone => Some((2, 1)),
        Frame::MaxData { .. } => Some((3, 9)),
        Frame::MaxStreamData { .. } => Some((4, 12)),
        Frame::NewConnectionId { .. } => Some((5, 30)),
        _ => None,
    }
}

/// What is resent if the packet that carried `frames` is lost: the
/// retransmittable kinds, in resend order.
fn retransmittable(frames: impl Into<FrameList>) -> FrameList {
    let mut frames = frames.into();
    frames.retain(|f| retx_kind(f).is_some());
    frames.sort_by_key(|f| retx_kind(f).map(|(rank, _)| rank));
    // Limits only grow: a packet's last MAX_DATA supersedes its others.
    frames.dedup_by(|later, kept| {
        let both = matches!(
            (&*later, &*kept),
            (Frame::MaxData { .. }, Frame::MaxData { .. })
        );
        both && {
            std::mem::swap(later, kept);
            true
        }
    });
    frames
}

/// Cuts a CRYPTO or STREAM retransmission to `room` data bytes: what goes
/// out now — the whole frame if it fits, else its head — and what stays
/// queued. FIN rides on the piece that carries the last byte.
fn split_data(frame: Frame, room: usize) -> (Option<Frame>, Option<Frame>) {
    if room == 0 {
        return (None, Some(frame));
    }
    if frame.data_len() <= room {
        return (Some(frame), None);
    }
    let cut = room as u64;
    match frame {
        Frame::Crypto { offset, mut data } => {
            let head = data.split_to(room);
            let tail = Frame::Crypto {
                offset: offset + cut,
                data,
            };
            (Some(Frame::Crypto { offset, data: head }), Some(tail))
        }
        Frame::Stream {
            id,
            offset,
            mut data,
            fin,
        } => {
            let head = Frame::Stream {
                id,
                offset,
                data: data.split_to(room),
                fin: false,
            };
            let tail = Frame::Stream {
                id,
                offset: offset + cut,
                data,
                fin,
            };
            (Some(head), Some(tail))
        }
        other => (Some(other), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_sim::SimDuration;
    use rq_tls::initial_keys;

    const SIZE: usize = 1200;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A 100 ms path: nothing sent in the last ~112 ms is lost by time.
    fn rtt() -> RttEstimator {
        let mut rtt = RttEstimator::new(SimDuration::ZERO);
        rtt.update(SimDuration::from_millis(100), SimDuration::ZERO, false);
        rtt
    }

    fn stream(offset: u64, data: &'static [u8], fin: bool) -> Frame {
        Frame::Stream {
            id: 0,
            offset,
            data: Bytes::copy_from_slice(data),
            fin,
        }
    }

    fn new_cid() -> Frame {
        Frame::NewConnectionId {
            seq: 1,
            retire_prior_to: 0,
            cid: vec![7; 8],
        }
    }

    /// Sends an in-flight `SIZE`-byte packet carrying `frames` at `ms`.
    fn send(s: &mut Space, ms: u64, frames: Vec<Frame>, zero_rtt: bool) -> u64 {
        let pn = s.alloc_pn();
        let packet = SentPacket {
            pn,
            time_sent: at(ms),
            ack_eliciting: frames.iter().any(Frame::is_ack_eliciting),
            in_flight: true,
            size: SIZE,
            retx_token: pn,
        };
        s.on_sent(packet, frames, zero_rtt);
        pn
    }

    /// Everything queued for retransmission, taken with ample room.
    fn requeued(s: &mut Space) -> Vec<Frame> {
        let mut frames = Vec::new();
        s.take_requeued(&mut frames, &mut 0, 10_000);
        frames
    }

    #[test]
    fn pn_allocation_monotonic() {
        let mut s = Space::default();
        assert_eq!(s.alloc_pn(), 0);
        assert_eq!(s.alloc_pn(), 1);
        assert_eq!(s.alloc_pn(), 2);
    }

    #[test]
    fn zero_rtt_and_one_rtt_share_the_pn_sequence() {
        let mut s = Space::default();
        let early = send(&mut s, 0, vec![Frame::Ping], true);
        let one_rtt = send(&mut s, 1, vec![Frame::Ping], false);
        assert_eq!((early, one_rtt), (0, 1));
        assert_eq!(s.zero_rtt_pns, [early]);
    }

    #[test]
    fn discard_leaves_nothing_tracked_queued_or_keyed() {
        let mut s = Space {
            keys: Some(initial_keys(&[1; 8])),
            ..Space::default()
        };
        send(&mut s, 0, vec![stream(0, b"lost", false)], false);
        send(&mut s, 1, vec![stream(4, b"kept", false)], false);
        s.requeue_oldest();
        assert!(s.usable() && s.has_data_to_send());
        assert_eq!(s.discard(), 2 * SIZE, "both packets leave flight");
        assert!(s.is_discarded() && !s.usable() && s.keys.is_none());
        assert_eq!(s.sent().tracked(), 0);
        assert!(!s.has_data_to_send());
        assert!(!s.requeue_oldest(), "what the packets carried is gone too");
        assert_eq!((s.sent().loss_time, s.pto_base()), (None, None));
    }

    #[test]
    fn reset_restarts_tracking_but_keeps_numbers_and_keys() {
        let keys = initial_keys(&[2; 8]);
        let mut s = Space {
            keys: Some(keys.clone()),
            ..Space::default()
        };
        s.crypto.queue_tx(Bytes::copy_from_slice(b"client hello"));
        send(&mut s, 0, vec![stream(0, b"x", false)], false);
        s.recv.on_packet(5, true, at(1));
        s.requeue_oldest();
        s.pending_pings = 1;
        s.reset();
        assert_eq!(s.keys, Some(keys));
        assert_eq!(s.alloc_pn(), 1, "packet numbers carry on");
        assert_eq!(s.sent().tracked(), 0);
        assert_eq!(s.recv.largest(), None);
        assert!(!s.has_data_to_send() && !s.is_discarded());
    }

    #[test]
    fn unwind_requeues_the_zero_rtt_packets() {
        let mut s = Space::default();
        assert_eq!(s.unwind(), 0, "nothing was sent early");
        send(&mut s, 0, vec![stream(0, b"GET /", false)], true);
        send(&mut s, 1, vec![Frame::Ping], true);
        send(&mut s, 2, vec![stream(5, b"index", true)], true);
        assert_eq!(s.unwind(), 3 * SIZE);
        assert_eq!(s.sent().tracked(), 0);
        assert_eq!(s.pto_base(), None, "no early packet arms a timer");
        assert_eq!(
            requeued(&mut s),
            [stream(0, b"GET /", false), stream(5, b"index", true)]
        );
    }

    #[test]
    fn requeue_oldest_copies_the_oldest_ack_eliciting_packet() {
        let mut s = Space::default();
        assert!(!s.requeue_oldest(), "nothing sent");
        send(
            &mut s,
            0,
            vec![Frame::Ack(AckFrame::from_sorted_desc(&[0], 0))],
            false,
        );
        send(&mut s, 1, vec![Frame::Ping], false);
        assert!(
            !s.requeue_oldest(),
            "the oldest probe-worthy packet is a PING"
        );
        let mut s = Space::default();
        send(
            &mut s,
            0,
            vec![Frame::Ack(AckFrame::from_sorted_desc(&[0], 0))],
            false,
        );
        send(&mut s, 1, vec![stream(0, b"old", false)], false);
        send(&mut s, 2, vec![stream(3, b"new", false)], false);
        assert!(s.requeue_oldest());
        assert_eq!(requeued(&mut s), [stream(0, b"old", false)]);
        assert_eq!(s.sent().tracked(), 3, "the packet itself stays in flight");
        // Still carried: a second probe resends it again.
        assert!(s.requeue_oldest());
    }

    #[test]
    fn lost_content_is_requeued_in_resend_order() {
        let mut s = Space::default();
        let carried = vec![Frame::HandshakeDone, new_cid(), stream(0, b"body", true)];
        send(&mut s, 0, carried, false);
        for ms in 1..=3 {
            send(&mut s, ms, vec![Frame::Ping], false);
        }
        // An ACK from beyond what was sent changes nothing.
        let forged = s.on_ack(&AckFrame::from_sorted_desc(&[4], 0), at(9), &rtt());
        assert_eq!(forged, AckOutcome::default());
        assert_eq!(s.sent().tracked(), 4);
        // Acking pn 3 puts pn 0 past the packet threshold.
        let outcome = s.on_ack(&AckFrame::from_sorted_desc(&[3], 0), at(10), &rtt());
        assert_eq!(outcome.lost.iter().map(|p| p.pn).collect::<Vec<_>>(), [0]);
        assert_eq!(
            requeued(&mut s),
            [stream(0, b"body", true), Frame::HandshakeDone, new_cid()]
        );
        assert!(!s.has_data_to_send());
    }

    #[test]
    fn what_packets_carried_is_one_run_by_packet_number() {
        let mut s = Space::default();
        send(&mut s, 0, vec![stream(0, b"a", false)], false);
        send(&mut s, 1, vec![Frame::Ping], false);
        let both = vec![Frame::MaxData { max: 9 }, stream(1, b"b", false)];
        send(&mut s, 2, both, false);
        send(&mut s, 3, vec![stream(2, b"c", true)], false);
        let pns = |s: &Space| {
            s.carried
                .frames
                .iter()
                .map(|(pn, _)| *pn)
                .collect::<Vec<_>>()
        };
        assert_eq!(pns(&s), [0, 2, 2, 3], "a PING is not carried");
        assert_eq!(s.carried.frames.capacity(), FLIGHT, "room for a flight");
        let of_2: Vec<_> = s.carried.of(2).cloned().collect();
        assert_eq!(of_2, [stream(1, b"b", false), Frame::MaxData { max: 9 }]);
        assert_eq!(s.carried.of(1).count() + s.carried.of(7).count(), 0);
        // Acknowledged from the middle: its neighbours keep theirs.
        s.on_ack(&AckFrame::from_sorted_desc(&[2], 0), at(5), &rtt());
        assert_eq!(pns(&s), [0, 3]);
        assert!(s.carried.take(3).eq([stream(2, b"c", true)]));
        assert!(s.requeue_oldest());
        assert_eq!(requeued(&mut s), [stream(0, b"a", false)]);
        s.discard();
        assert_eq!(s.carried.frames.capacity(), 0, "discarding frees the run");
    }

    #[test]
    fn oversized_stream_frame_goes_head_now_tail_later() {
        let mut s = Space::default();
        s.requeue(vec![stream(100, b"0123456789", true), Frame::HandshakeDone]);
        // 16 bytes left: 12 of STREAM overhead leave room for 4 of data,
        // and then none for HANDSHAKE_DONE.
        let (mut frames, mut used) = (Vec::new(), 84);
        s.take_requeued(&mut frames, &mut used, 100);
        assert_eq!(frames, [stream(100, b"0123", false)]);
        assert_eq!(used, 100);
        assert_eq!(
            requeued(&mut s),
            [stream(104, b"456789", true), Frame::HandshakeDone]
        );
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

    /// `RecvState`'s ranges as they were first kept, in a `Vec`: the
    /// oracle for the inline-first list.
    #[derive(Default)]
    struct VecRecv {
        ranges: Vec<RangeInclusive<u64>>,
    }

    impl VecRecv {
        fn on_packet(&mut self, pn: u64) -> bool {
            let i = self.ranges.partition_point(|r| *r.start() > pn);
            if self.ranges.get(i).is_some_and(|r| r.contains(&pn)) {
                return false;
            }
            let above = self.ranges[..i].last().filter(|r| *r.start() == pn + 1);
            let below = self.ranges.get(i).filter(|r| *r.end() + 1 == pn);
            let merged = below.map_or(pn, |r| *r.start())..=above.map_or(pn, |r| *r.end());
            let replaced = i - usize::from(above.is_some())..i + usize::from(below.is_some());
            self.ranges.splice(replaced, [merged]);
            true
        }

        fn ack_frame(&self, ack_delay_us: u64) -> Option<AckFrame> {
            let mut left = ACK_FRAME_PNS;
            let newest = self.ranges.iter().map_while(|r| {
                let n = left.min(r.end() - r.start() + 1);
                left -= n;
                (n > 0).then(|| r.end() + 1 - n..=*r.end())
            });
            AckFrame::from_ranges_desc(newest, ack_delay_us)
        }

        fn is_contiguous_from_zero(&self) -> bool {
            match self.ranges.as_slice() {
                [] => true,
                [only] => *only.start() == 0,
                _ => false,
            }
        }
    }

    /// Random packet-number streams — mostly ascending, with gaps,
    /// reordering and duplicates, some past the ACK frame's 128 — give
    /// the same verdicts, largest and ACK frame as the `Vec` list.
    #[test]
    fn recv_ranges_agree_with_the_vec_list() {
        rq_testkit::prop::cases(200, |rng| {
            let (mut recv, mut oracle) = (RecvState::default(), VecRecv::default());
            let (mut next, gaps) = (0u64, 1 + rng.gen_range(6));
            for _ in 0..40 + rng.gen_range(200) {
                let pn = match rng.gen_range(8) {
                    0 => rng.gen_range(next + 1),
                    1 => next.saturating_sub(1),
                    _ => {
                        next += 1 + rng.gen_range(gaps) / 2;
                        next
                    }
                };
                assert_eq!(
                    recv.on_packet(pn, true, at(1)),
                    oracle.on_packet(pn),
                    "{pn}"
                );
                assert_eq!(recv.largest(), oracle.ranges.first().map(|r| *r.end()));
                assert_eq!(recv.ack_frame(9), oracle.ack_frame(9));
                let contiguous = oracle.is_contiguous_from_zero();
                assert_eq!(recv.is_contiguous_from_zero(), contiguous);
            }
            assert!(recv.ranges.iter().eq(oracle.ranges.iter()));
        });
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
        c.queue_tx(Bytes::from(vec![1u8; 100]));
        let (off, data) = c.take_tx(60).unwrap();
        assert_eq!((off, data.len()), (0, 60));
        let (off, data) = c.take_tx(60).unwrap();
        assert_eq!((off, data.len()), (60, 40));
        assert!(c.take_tx(60).is_none());
    }

    #[test]
    fn crypto_rx_in_order() {
        let mut c = CryptoStream::default();
        let (out, dup) = c.on_rx(0, Bytes::copy_from_slice(b"hello"));
        assert_eq!(out, b"hello"[..]);
        assert!(!dup);
        let (out, _) = c.on_rx(5, Bytes::copy_from_slice(b" world"));
        assert_eq!(out, b" world"[..]);
    }

    #[test]
    fn crypto_rx_out_of_order_buffers() {
        let mut c = CryptoStream::default();
        let (out, _) = c.on_rx(5, Bytes::copy_from_slice(b"world"));
        assert!(out.is_empty());
        let (out, _) = c.on_rx(0, Bytes::copy_from_slice(b"hello"));
        assert_eq!(out, b"helloworld"[..]);
    }

    #[test]
    fn crypto_rx_duplicate_flagged() {
        let mut c = CryptoStream::default();
        let _ = c.on_rx(0, Bytes::copy_from_slice(b"hello"));
        let (out, dup) = c.on_rx(0, Bytes::copy_from_slice(b"hello"));
        assert!(out.is_empty());
        assert!(dup, "full duplicate must be flagged");
        // Partial overlap delivers only the new tail.
        let (out, dup) = c.on_rx(3, Bytes::copy_from_slice(b"lo more"));
        assert_eq!(out, b" more"[..]);
        assert!(dup);
    }

    #[test]
    fn retx_content_extraction() {
        let crypto = Frame::Crypto {
            offset: 10,
            data: Bytes::copy_from_slice(b"abc"),
        };
        let frames = vec![
            Frame::Ping,
            Frame::MaxData { max: 1024 },
            Frame::HandshakeDone,
            stream(0, b"req", true),
            Frame::MaxData { max: 4096 },
            crypto.clone(),
            Frame::Ack(AckFrame::from_sorted_desc(&[0], 0)),
        ];
        assert_eq!(
            retransmittable(frames),
            [
                crypto,
                stream(0, b"req", true),
                Frame::HandshakeDone,
                Frame::MaxData { max: 4096 }
            ]
        );
        assert!(retransmittable(vec![Frame::Ping, Frame::Padding { len: 9 }]).is_empty());
    }
}
