//! Complexity regression tests for the send path (ROADMAP item 2): what
//! `SendStream::take` asks of the allocator must not depend on how much
//! is still queued behind the bytes it hands out, and tagging a packet
//! or deriving a level's keys must ask for nothing at all. Counted in
//! bytes requested, so the verdict is the same on any machine; in a
//! binary of its own because the counter is the process's global
//! allocator.

use std::hint::black_box;

use rq_quic::streams::SendStream;
use rq_testkit::alloc::{requested_by, Counting};
use rq_tls::{application_keys, handshake_keys, initial_keys, seal_tag, verify_tag};

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
