//! Complexity regression tests for the send path (ROADMAP item 2): what
//! `SendStream::take` asks of the allocator must not depend on how much
//! is still queued behind the bytes it hands out, and tagging a packet
//! or deriving a level's keys must ask for nothing at all; and a
//! connection's tables ask for nothing while they hold one entry (ROADMAP
//! 3(f)). Counted in bytes requested, so the verdict is the same on any
//! machine; in a binary of its own because the counter is the process's
//! global allocator.

use std::hint::black_box;

use rq_quic::bytestream::SendBuf;
use rq_quic::space::RecvState;
use rq_quic::streams::SendStream;
use rq_recovery::{SentPacket, SentTracker, SeqMap, SmallDeque, FLIGHT};
use rq_sim::SimTime;
use rq_testkit::alloc::{requested_by, Counting};
use rq_tls::{application_keys, handshake_keys, initial_keys, seal_tag, verify_tag};
use rq_wire::Bytes;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes requested from the allocator by 100 packet-sized takes with
/// `pending` bytes queued (the layer benchmark's `take_us` kernel).
fn requested_by_100_takes(pending: usize) -> u64 {
    let body = vec![0xA5u8; pending];
    let mut s = SendStream {
        max_stream_data: u64::MAX,
        ..SendStream::default()
    };
    s.write(&body, true);
    let (_, bytes) = requested_by(|| {
        for _ in 0..100 {
            black_box(s.take(1150));
        }
    });
    bytes
}

#[test]
fn take_cost_is_independent_of_bytes_pending() {
    let small = requested_by_100_takes(256 * 1024);
    let large = requested_by_100_takes(5 * 1024 * 1024);
    assert_eq!(large, small, "take must not pay for what stays queued");
    // ...and is bounded by what it hands out (a draining buffer asked for
    // the whole remainder again on every call: ~500 MiB here).
    assert!(small <= 2 * 100 * 1150, "{small} bytes for 115,000 taken");
}

#[test]
fn packet_tags_are_computed_without_the_allocator() {
    let key = initial_keys(&[7; 8]).client;
    let payload = vec![0xA5u8; 1200];
    let tags = requested_by(|| {
        for pn in 0..100 {
            let tag = seal_tag(&key, pn, black_box(&payload));
            assert!(verify_tag(&key, pn, &payload, black_box(&tag)));
        }
    });
    assert_eq!(tags, (0, 0));
}

#[test]
fn level_keys_are_derived_without_the_allocator() {
    let transcript_hash = [0x5Au8; 32];
    let keys = requested_by(|| {
        (
            initial_keys(black_box(&[7; 8])),
            handshake_keys(black_box(&transcript_hash)),
            application_keys(black_box(&transcript_hash)),
        )
    });
    assert_eq!(keys, (0, 0));
}

fn packet(pn: u64) -> SentPacket {
    SentPacket {
        pn,
        time_sent: SimTime::ZERO,
        ack_eliciting: true,
        in_flight: true,
        size: 1200,
        retx_token: pn,
    }
}

/// Calls to the allocator for each of `n` steps, in order.
fn calls_per_step(n: u64, mut step: impl FnMut(u64)) -> Vec<u64> {
    (0..n).map(|i| requested_by(|| step(i)).0).collect()
}

/// Each kind of per-connection table holds its first entry inline and
/// makes its heap part once, for the second: the queue itself, the
/// ordered map over it (stream and request tables), the sent-packet
/// tracker, a send queue and the received ranges.
#[test]
fn a_one_entry_table_allocates_nothing_and_its_second_entry_once() {
    let mut queue: SmallDeque<u64> = SmallDeque::new();
    let pushes = calls_per_step(4, |i| queue.push_back(i));
    assert_eq!(pushes, [0, 1, 0, 0], "room for four in all");
    let pops = calls_per_step(4, |i| assert_eq!(queue.pop_front(), Some(i)));
    assert_eq!(pops, [0; 4]);

    let mut map: SeqMap<u64> = SeqMap::new();
    let inserts = calls_per_step(4, |i| assert_eq!(map.insert(i, i), None));
    assert_eq!(inserts, [0, 1, 0, 0]);

    // Room for a flight: the second packet makes room for the rest.
    let mut tracker = SentTracker::new();
    let sent = calls_per_step(FLIGHT as u64, |pn| tracker.on_sent(packet(pn)));
    assert_eq!(sent.iter().sum::<u64>(), 1, "{sent:?}");
    assert_eq!(sent[1], 1);

    let chunks: Vec<Bytes> = (0..3).map(|_| Bytes::copy_from_slice(b"flight")).collect();
    let mut buf = SendBuf::default();
    let writes = calls_per_step(3, |i| buf.write_owned(chunks[i as usize].clone()));
    assert_eq!(writes, [0, 1, 0]);

    // In order, one range however many packets; a gap opens a second.
    let mut recv = RecvState::default();
    let pns = [0, 1, 2, 3, 5, 6, 9];
    let received = calls_per_step(7, |i| {
        assert!(recv.on_packet(pns[i as usize], true, SimTime::ZERO));
    });
    assert_eq!(received, [0, 0, 0, 0, 1, 0, 0]);
}
