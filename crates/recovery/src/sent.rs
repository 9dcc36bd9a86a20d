//! Sent-packet tracking and ACK-driven loss detection (RFC 9002 §6.1).

use std::ops::RangeInclusive;

use rq_sim::{SimDuration, SimTime};

use crate::congestion::{INITIAL_WINDOW, MAX_DATAGRAM};
use crate::rtt::RttEstimator;
use crate::seqmap::SeqMap;

/// Packet-reordering threshold, `kPacketThreshold` (RFC 9002 §6.1.1).
pub const PACKET_THRESHOLD: u64 = 3;

/// Metadata retained for each sent packet until it is acked or lost.
#[derive(Debug, Clone, PartialEq)]
pub struct SentPacket {
    /// Packet number.
    pub pn: u64,
    /// Send time.
    pub time_sent: SimTime,
    /// Whether the packet elicits an ACK.
    pub ack_eliciting: bool,
    /// Whether the packet counts toward bytes in flight.
    pub in_flight: bool,
    /// On-wire size in bytes.
    pub size: usize,
    /// Opaque retransmission token: the connection layer uses it to
    /// rebuild lost frames.
    pub retx_token: u64,
}

/// Result of processing one ACK frame.
#[derive(Debug, Default, PartialEq)]
pub struct AckOutcome {
    /// Packets newly acknowledged (ascending pn).
    pub newly_acked: Vec<SentPacket>,
    /// Packets declared lost by the packet threshold or time threshold.
    pub lost: Vec<SentPacket>,
    /// RTT sample, present iff the largest acked packet is newly acked and
    /// at least one newly acked packet is ack-eliciting (RFC 9002 §5.1).
    pub rtt_sample: Option<SimDuration>,
}

/// Packets a space's tables make room for when the first is sent: the
/// initial congestion window, which is all a sender can have in flight
/// before the first acknowledgment (a server's certificate flight is
/// five packets, a 10 KB response nine).
pub const FLIGHT: usize = INITIAL_WINDOW / MAX_DATAGRAM;

/// Per-packet-number-space sent-packet tracker.
#[derive(Debug, Default)]
pub struct SentTracker {
    /// By packet number.
    sent: SeqMap<SentPacket, FLIGHT>,
    /// Largest packet number acknowledged by the peer in this space.
    pub largest_acked: Option<u64>,
    /// Earliest time at which a tracked packet qualifies for time-threshold
    /// loss; the connection re-checks at this time.
    pub loss_time: Option<SimTime>,
    /// Time the most recent ack-eliciting packet was sent.
    pub last_ack_eliciting_sent: Option<SimTime>,
    bytes_in_flight: usize,
    ack_eliciting_outstanding: usize,
}

impl SentTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a sent packet.
    pub fn on_sent(&mut self, packet: SentPacket) {
        if packet.ack_eliciting {
            self.last_ack_eliciting_sent = Some(packet.time_sent);
            self.ack_eliciting_outstanding += 1;
        }
        if packet.in_flight {
            self.bytes_in_flight += packet.size;
        }
        let prev = self.sent.insert(packet.pn, packet);
        debug_assert!(prev.is_none(), "duplicate packet number in space");
    }

    /// Bytes currently in flight in this space.
    pub fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    /// Whether any ack-eliciting packet is outstanding.
    pub fn has_ack_eliciting_in_flight(&self) -> bool {
        self.ack_eliciting_outstanding > 0
    }

    /// Number of tracked (unacked, not-yet-lost) packets.
    pub fn tracked(&self) -> usize {
        self.sent.len()
    }

    /// The oldest unacked ack-eliciting packet (PTO retransmission target).
    pub fn oldest_ack_eliciting(&self) -> Option<&SentPacket> {
        self.sent.values().find(|p| p.ack_eliciting)
    }

    /// Processes an ACK of the individual packet numbers `acked_pns`,
    /// highest first: [`Self::on_ack_ranges`] for callers that hold
    /// packet numbers rather than ranges.
    pub fn on_ack(
        &mut self,
        acked_pns: &[u64],
        largest_in_frame: u64,
        now: SimTime,
        rtt: &RttEstimator,
    ) -> AckOutcome {
        let ranges = acked_pns.iter().map(|&pn| pn..=pn);
        self.on_ack_ranges(ranges, largest_in_frame, now, rtt)
    }

    /// Processes an ACK frame received at `now`: `acked` are its ranges,
    /// highest first as the frame carries them, `largest_in_frame` its
    /// largest acknowledged. Returns newly acked and newly lost packets
    /// plus an RTT sample when the rules produce one. Costs the tracked
    /// packets the ranges cover, not the packet numbers they span.
    pub fn on_ack_ranges(
        &mut self,
        acked: impl IntoIterator<Item = RangeInclusive<u64>>,
        largest_in_frame: u64,
        now: SimTime,
        rtt: &RttEstimator,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        for range in acked.into_iter().filter(|r| !r.is_empty()) {
            loop {
                let newest = self.sent.range(range.clone()).next_back();
                let Some(pn) = newest.map(|(pn, _)| pn) else {
                    break;
                };
                out.newly_acked.extend(self.remove(pn));
            }
        }
        // Collected highest first; reported ascending.
        out.newly_acked.reverse();
        let Some(newest) = out.newly_acked.last() else {
            return out;
        };
        // RTT sample only if the largest acknowledged packet is newly acked
        // and at least one newly acked packet was ack-eliciting.
        if newest.pn == largest_in_frame && out.newly_acked.iter().any(|p| p.ack_eliciting) {
            out.rtt_sample = Some(now.since(newest.time_sent));
        }
        self.largest_acked = self.largest_acked.max(Some(largest_in_frame));
        out.lost = self.detect_time_lost(now, rtt);
        out
    }

    /// Loss detection (RFC 9002 §6.1), run on every ACK that newly
    /// acknowledges something and again when `loss_time` fires: removes
    /// and returns the packets below `largest_acked` by kPacketThreshold
    /// or older than the time threshold at `now`, and re-arms `loss_time`
    /// for the younger ones.
    pub fn detect_time_lost(&mut self, now: SimTime, rtt: &RttEstimator) -> Vec<SentPacket> {
        let Some(largest) = self.largest_acked else {
            return Vec::new();
        };
        let loss_delay = rtt.loss_delay();
        let mut lost_pns = Vec::new();
        self.loss_time = None;
        for (pn, p) in self.sent.range(..=largest) {
            let lost_deadline = p.time_sent + loss_delay;
            if largest >= pn + PACKET_THRESHOLD || now >= lost_deadline {
                lost_pns.push(pn);
            } else {
                // Earliest pending time-threshold loss.
                self.loss_time = Some(
                    self.loss_time
                        .map_or(lost_deadline, |t| t.min(lost_deadline)),
                );
            }
        }
        lost_pns
            .into_iter()
            .filter_map(|pn| self.remove(pn))
            .collect()
    }

    /// Stops tracking `pn` (acknowledged or lost) and takes it out of the
    /// in-flight and ack-eliciting accounting.
    fn remove(&mut self, pn: u64) -> Option<SentPacket> {
        let p = self.sent.remove(pn)?;
        if p.ack_eliciting {
            self.ack_eliciting_outstanding -= 1;
        }
        if p.in_flight {
            self.bytes_in_flight -= p.size;
        }
        Some(p)
    }

    /// Discards all state (used when Initial/Handshake keys are dropped,
    /// RFC 9002 §6.2.2). Returns the bytes that were in flight.
    pub fn discard(&mut self) -> usize {
        let freed = self.bytes_in_flight;
        self.sent.clear();
        self.bytes_in_flight = 0;
        self.ack_eliciting_outstanding = 0;
        self.loss_time = None;
        self.largest_acked = None;
        self.last_ack_eliciting_sent = None;
        freed
    }

    /// Removes and returns every tracked packet, in packet-number order,
    /// resetting the in-flight accounting (RFC 9001 §4.6.2: when a server
    /// rejects 0-RTT, the client removes the early packets from tracking
    /// and retransmits their content under 1-RTT keys — they are neither
    /// acknowledged nor declared lost through the normal detectors).
    pub fn drain(&mut self) -> impl Iterator<Item = SentPacket> {
        self.bytes_in_flight = 0;
        self.ack_eliciting_outstanding = 0;
        self.loss_time = None;
        self.last_ack_eliciting_sent = None;
        std::mem::take(&mut self.sent).into_values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    fn pkt(pn: u64, t: u64, eliciting: bool) -> SentPacket {
        SentPacket {
            pn,
            time_sent: at(t),
            ack_eliciting: eliciting,
            in_flight: true,
            size: 1200,
            retx_token: pn,
        }
    }

    fn fresh_rtt() -> RttEstimator {
        let mut r = RttEstimator::new(SimDuration::ZERO);
        r.update(ms(10), SimDuration::ZERO, false);
        r
    }

    #[test]
    fn drain_returns_everything_and_resets_accounting() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, true));
        t.on_sent(pkt(1, 1, true));
        t.on_sent(pkt(2, 2, false));
        assert_eq!(t.bytes_in_flight(), 3600);
        let drained = t.drain();
        assert_eq!(drained.map(|p| p.pn).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(t.tracked(), 0);
        assert_eq!(t.bytes_in_flight(), 0);
        assert!(!t.has_ack_eliciting_in_flight());
    }

    #[test]
    fn ack_produces_rtt_sample_for_eliciting_largest() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, true));
        let out = t.on_ack(&[0], 0, at(12), &fresh_rtt());
        assert_eq!(out.newly_acked.len(), 1);
        assert_eq!(out.rtt_sample, Some(ms(12)));
        assert_eq!(t.bytes_in_flight(), 0);
    }

    #[test]
    fn ack_of_ack_only_packet_gives_no_rtt_sample() {
        // The IACK mechanic: ACK-only packets are not ack-eliciting, so an
        // ACK covering them yields no RTT sample at the sender (paper §4.2).
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, false));
        let out = t.on_ack(&[0], 0, at(12), &fresh_rtt());
        assert_eq!(out.newly_acked.len(), 1);
        assert_eq!(out.rtt_sample, None);
    }

    #[test]
    fn no_sample_when_largest_was_already_acked() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, true));
        t.on_sent(pkt(1, 1, true));
        let _ = t.on_ack(&[1], 1, at(10), &fresh_rtt());
        // Second ACK only newly-acks pn 0 although frame's largest is 1.
        let out = t.on_ack(&[1, 0], 1, at(20), &fresh_rtt());
        assert_eq!(out.newly_acked.len(), 1);
        assert_eq!(out.rtt_sample, None);
    }

    #[test]
    fn packet_threshold_loss() {
        let mut t = SentTracker::new();
        for pn in 0..5 {
            t.on_sent(pkt(pn, pn, true));
        }
        // Ack pn 4 at t=10 (before any time threshold fires): pns 0 and 1
        // are ≥3 below the largest acked → lost; 2 and 3 survive.
        let out = t.on_ack(&[4], 4, at(10), &fresh_rtt());
        let lost: Vec<u64> = out.lost.iter().map(|p| p.pn).collect();
        assert_eq!(lost, vec![0, 1]);
        assert_eq!(t.tracked(), 2);
    }

    #[test]
    fn time_threshold_loss() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, true));
        t.on_sent(pkt(1, 100, true));
        // loss_delay = 9/8 * 10ms = 11.25ms. Acking pn1 at t=112ms makes
        // pn0 (sent t=0) older than the threshold.
        let out = t.on_ack(&[1], 1, at(112), &fresh_rtt());
        assert_eq!(out.lost.len(), 1);
        assert_eq!(out.lost[0].pn, 0);
    }

    #[test]
    fn loss_time_armed_for_recent_packet() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 100, true));
        t.on_sent(pkt(1, 101, true));
        let out = t.on_ack(&[1], 1, at(111), &fresh_rtt());
        assert!(out.lost.is_empty());
        // pn0 pending time loss at 100ms + 11.25ms.
        let lt = t.loss_time.unwrap();
        assert_eq!(lt.as_millis_f64(), 111.25);
        // Firing the timer at/after the deadline declares it lost.
        let lost = t.detect_time_lost(at(112), &fresh_rtt());
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].pn, 0);
        assert!(t.loss_time.is_none());
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, true));
        let first = t.on_ack(&[0], 0, at(10), &fresh_rtt());
        assert_eq!(first.newly_acked.len(), 1);
        let second = t.on_ack(&[0], 0, at(20), &fresh_rtt());
        assert!(second.newly_acked.is_empty());
        assert!(second.rtt_sample.is_none());
    }

    #[test]
    fn discard_clears_everything() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, true));
        t.on_sent(pkt(1, 1, false));
        assert_eq!(t.bytes_in_flight(), 2400);
        let freed = t.discard();
        assert_eq!(freed, 2400);
        assert_eq!(t.tracked(), 0);
        assert!(!t.has_ack_eliciting_in_flight());
    }

    #[test]
    fn oldest_ack_eliciting_skips_ack_only() {
        let mut t = SentTracker::new();
        t.on_sent(pkt(0, 0, false));
        t.on_sent(pkt(1, 1, true));
        assert_eq!(t.oldest_ack_eliciting().unwrap().pn, 1);
    }
}
