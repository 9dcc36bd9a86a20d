//! Model-based property tests, one per primitive: the byte-stream
//! reassembler under `CryptoStream` and `RecvStream`, the send buffer
//! under slice and owned writes, and packet numbers as ranges from
//! `RecvState` through `AckFrame` into `SentTracker`.

use rq_quic::bytestream::SendBuf;
use rq_quic::space::{CryptoStream, RecvState};
use rq_quic::streams::RecvStream;
use rq_recovery::{AckOutcome, RttEstimator, SentPacket, SentTracker};
use rq_sim::{SimDuration, SimTime};
use rq_testkit::prop::cases;
use rq_wire::{AckFrame, Bytes};

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// RFC 9002 §6.1.1's `kPacketThreshold`.
const K_PACKET_THRESHOLD: u64 = 3;

/// The sender the range-walking `SentTracker` must agree with: a flat
/// list of sent packets, an ACK expanded to every packet number it
/// covers, and RFC 9002 §6.1 read off the page.
#[derive(Default)]
struct ExpandingTracker {
    sent: Vec<SentPacket>,
    largest_acked: Option<u64>,
}

impl ExpandingTracker {
    fn on_ack(&mut self, frame: &AckFrame, now: SimTime, rtt: &RttEstimator) -> AckOutcome {
        let acked: Vec<u64> = frame.acked_ranges().flat_map(Iterator::rev).collect();
        let mut out = AckOutcome::default();
        let (newly_acked, rest): (Vec<_>, _) = std::mem::take(&mut self.sent)
            .into_iter()
            .partition(|p| acked.contains(&p.pn));
        (out.newly_acked, self.sent) = (newly_acked.into_iter().collect(), rest);
        let Some(newest) = out.newly_acked.last() else {
            return out;
        };
        if newest.pn == frame.largest && out.newly_acked.iter().any(|p| p.ack_eliciting) {
            out.rtt_sample = Some(now.since(newest.time_sent));
        }
        let largest = self
            .largest_acked
            .map_or(frame.largest, |l| l.max(frame.largest));
        self.largest_acked = Some(largest);
        let (lost, rest) = std::mem::take(&mut self.sent).into_iter().partition(|p| {
            p.pn <= largest
                && (largest >= p.pn + K_PACKET_THRESHOLD || now >= p.time_sent + rtt.loss_delay())
        });
        (out.lost, self.sent) = (lost, rest);
        out
    }
}

/// Random segments of a known body — overlapping, duplicated, in any
/// order — through both users of the reassembler: what comes out is a
/// byte-exact prefix of the body with each byte delivered once, both
/// users agree, and CRYPTO's overlap flag is "starts below what was
/// already delivered".
#[test]
fn reassembly_delivers_a_prefix_once() {
    cases(256, |rng| {
        let body_len = 1 + rng.gen_range(2999) as usize;
        let cuts: Vec<u64> = (0..1 + rng.gen_range(79)).map(|_| rng.next_u64()).collect();
        let body: Vec<u8> = (0..body_len).map(|i| (i * 31 % 251) as u8).collect();
        let mut crypto = CryptoStream::default();
        let mut stream = RecvStream::default();
        let mut delivered = Vec::new();
        // The last segment is the whole body, so every case completes.
        let whole = (0, body_len);
        let segments = cuts.iter().map(|&c| {
            let start = (c % body_len as u64) as usize;
            let len = 1 + (c >> 32) as usize % 200;
            (start, (start + len).min(body_len))
        });
        for (start, end) in segments.chain([whole]) {
            let data = &body[start..end];
            let (out, overlap) = crypto.on_rx(start as u64, Bytes::copy_from_slice(data));
            assert_eq!(overlap, start < delivered.len());
            let fin = end == body_len;
            assert_eq!(&stream.on_frame(start as u64, data, fin), &out);
            delivered.extend_from_slice(&out);
            assert_eq!(&delivered[..], &body[..delivered.len()]);
            assert_eq!(stream.delivered, delivered.len() as u64);
            let ended = stream.fin_at == Some(body_len as u64);
            assert_eq!(stream.is_complete(), ended && delivered.len() == body_len);
        }
        assert_eq!(delivered, body);
    });
}

/// Any interleaving of slice and owned writes, taken in any sizes:
/// the runs are those of the concatenated stream cut at the same
/// offsets, whichever way each write went in.
#[test]
fn send_buf_runs_do_not_depend_on_how_writes_went_in() {
    cases(256, |rng| {
        let writes: Vec<usize> = (0..1 + rng.gen_range(7))
            .map(|_| rng.gen_range(6000) as usize)
            .collect();
        let takes: Vec<usize> = (0..1 + rng.gen_range(23))
            .map(|_| rng.gen_range(2500) as usize)
            .collect();
        let (mut mixed, mut slices) = (SendBuf::default(), SendBuf::default());
        let mut stream = Vec::new();
        for (i, &draw) in writes.iter().enumerate() {
            // Up to 3,000 bytes (a few packets' worth), either way in.
            let data: Vec<u8> = (0..draw / 2).map(|b| (b * 7 + i) as u8).collect();
            if draw % 2 == 1 {
                mixed.write_owned(Bytes::from(data.clone()));
            } else {
                mixed.write(&data);
            }
            slices.write(&data);
            stream.extend(data);
        }
        assert_eq!((mixed.len(), slices.len()), (stream.len(), stream.len()));
        let mut at = 0;
        for max in takes.into_iter().chain([usize::MAX]) {
            let n = max.min(stream.len() - at);
            let run = (n > 0).then(|| (at as u64, Bytes::copy_from_slice(&stream[at..at + n])));
            assert_eq!(mixed.take(max), run.clone());
            assert_eq!(slices.take(max), run);
            at += n;
        }
        assert!(mixed.is_empty() && slices.is_empty());
    });
}

/// A reordered, duplicated, gappy packet arrival sequence: the
/// receiver's range set agrees with a plain list of packet numbers
/// (duplicates, largest, contiguity, and the ACK frame over the
/// newest 128), and the sender fed those frames as ranges reports what
/// a sender fed every acknowledged packet number one by one reports.
#[test]
fn ack_ranges_agree_with_packet_number_lists() {
    const SENT: u64 = 400;
    cases(256, |rng| {
        let jitter: Vec<u64> = (0..1 + rng.gen_range(499))
            .map(|_| rng.gen_range(7))
            .collect();
        let ack_every = 1 + rng.gen_range(11) as usize;
        let mut rtt = RttEstimator::new(SimDuration::ZERO);
        rtt.update(SimDuration::from_millis(10), SimDuration::ZERO, false);
        let mut tracker = SentTracker::new();
        let mut model = ExpandingTracker::default();
        for pn in 0..SENT {
            let packet = SentPacket {
                pn,
                time_sent: at_us(pn * 100),
                ack_eliciting: pn % 3 != 0,
                in_flight: pn % 5 != 0,
                size: 1000 + pn as usize,
                retx_token: pn,
            };
            tracker.on_sent(packet.clone());
            model.sent.push(packet);
        }

        let mut recv = RecvState::default();
        let mut seen: Vec<u64> = Vec::new(); // descending
        for (i, j) in jitter.iter().enumerate() {
            // Mostly forward, with reordering, repeats and skipped numbers.
            let pn = (i as u64 * 3 / 4 + j).min(SENT - 1);
            let now = at_us(SENT * 100 + i as u64 * 50);
            let fresh = !seen.contains(&pn);
            assert_eq!(recv.on_packet(pn, true, now), fresh);
            if fresh {
                seen.push(pn);
                seen.sort_unstable_by(|a, b| b.cmp(a));
            }
            let largest = recv.ack_frame(0).map(|ack| ack.largest);
            assert_eq!(largest, seen.first().copied());
            let gapless = seen.len() as u64 == seen[0] + 1;
            assert_eq!(recv.is_contiguous_from_zero(), gapless);

            if i % ack_every != 0 {
                continue;
            }
            let frame = recv
                .ack_frame(8 * i as u64)
                .expect("something was received");
            let newest = &seen[..seen.len().min(128)];
            assert_eq!(&frame, &AckFrame::from_sorted_desc(newest, 8 * i as u64));

            let got = tracker.on_ack_ranges(frame.acked_ranges(), frame.largest, now, &rtt);
            assert_eq!(got, model.on_ack(&frame, now, &rtt));
            assert_eq!(tracker.tracked(), model.sent.len());
            assert_eq!(tracker.largest_acked, model.largest_acked);
            let in_flight = model.sent.iter().filter(|p| p.in_flight).map(|p| p.size);
            assert_eq!(tracker.bytes_in_flight(), in_flight.sum::<usize>());
            let eliciting = model.sent.iter().any(|p| p.ack_eliciting);
            assert_eq!(tracker.has_ack_eliciting_in_flight(), eliciting);
            let armed = model
                .sent
                .iter()
                .filter(|p| Some(p.pn) <= model.largest_acked);
            let armed = armed.map(|p| p.time_sent + rtt.loss_delay()).min();
            assert_eq!(tracker.loss_time, armed);
        }
    });
}
