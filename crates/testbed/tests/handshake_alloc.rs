//! Allocation ceilings for the fixed cost of one handshake and the cost
//! per delivered KiB of a download (ROADMAP item 3): what a run, a
//! metrics export, a header decode, a datagram sealed and decoded, and
//! an in-order stream segment may ask of the allocator. Counted per
//! thread in calls
//! (`alloc` + `realloc`) and bytes requested, like the benchmark's
//! `allocs_per_op` / `alloc_kib_per_op`, so the verdict is the same on
//! any machine and in debug and release builds; in a binary of its own
//! because the counter is the process's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_profiles::server::testbed_server;
use rq_quic::bytestream::Reassembler;
use rq_quic::{ConnStats, Role, ServerAckMode, ServerEngine};
use rq_recovery::CcAlgorithm;
use rq_sim::{EngineStats, Trace};
use rq_testbed::{run_scenario, Scenario};
use rq_tls::TicketKeySchedule;
use rq_wire::{Bytes, ConnectionId, Frame, Header, PlainPacket};

thread_local! {
    /// (calls, bytes requested) by this thread. Const-initialised and
    /// without a destructor, so the allocator can read it at any time.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    REQUESTED.with(|r| {
        let (calls, total) = r.get();
        r.set((calls + 1, total + bytes as u64));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// plain thread-local pair of integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// (calls, bytes) `f` asked of the allocator; its result is dropped
/// after the reading.
fn requested_by<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = REQUESTED.get();
    let out = black_box(f());
    let after = REQUESTED.get();
    drop(out);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn one_handshake_stays_under_its_ceiling() {
    let client = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let sc = Scenario::base(client, iack, HttpVersion::H1);
    let (calls, bytes) = requested_by(|| {
        let result = run_scenario(&sc);
        assert!(result.completed);
        result
    });
    // Measured 264 calls / 110,391 bytes at the end of PR 21, debug and
    // release alike (333 / 154,200 before it, 585 calls before PR 20);
    // the ceilings leave 2 %.
    assert!(calls <= 269, "{calls} allocations for one handshake");
    assert!(
        bytes <= 112_600,
        "{bytes} bytes requested for one handshake"
    );
}

#[test]
fn one_download_requests_five_times_what_it_delivers() {
    let client = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let sc = Scenario {
        streams: 2,
        file_size: 1024 * 1024,
        cc: CcAlgorithm::Cubic,
        ..Scenario::base(client, iack, HttpVersion::H3)
    };
    let (_, bytes) = requested_by(|| {
        let result = run_scenario(&sc);
        assert!(result.completed);
        result
    });
    // Per delivered KiB, measured at the end of PR 21, debug and release
    // alike: 5.13 KiB (10.1 before it) — the response body, the send
    // buffer's copy of it, the datagram, and a KiB of bookkeeping (frame
    // lists, sent-packet records, both qlogs). The datagram is the last
    // buffer a delivered byte is copied into.
    let delivered = (sc.streams * sc.file_size) as f64;
    let per_kib = bytes as f64 / delivered;
    assert!(
        per_kib <= 5.25,
        "{per_kib:.2} KiB requested per KiB delivered"
    );
}

#[test]
fn metrics_export_allocates_only_tree_nodes_and_then_nothing() {
    let engine = ServerEngine::new(
        testbed_server(ServerAckMode::WaitForCertificate, 1200),
        TicketKeySchedule::fixed(1),
        usize::MAX,
    );
    let (sim, conn) = (EngineStats::default(), ConnStats::default());
    let mut reg = rq_obs::Registry::new();
    let export = |reg: &mut rq_obs::Registry| {
        sim.export(reg);
        engine.export_metrics(reg);
        conn.export(Role::Client, reg);
        conn.export(Role::Server, reg);
    };
    let (first, _) = requested_by(|| export(&mut reg));
    // Names are `&'static str`, so an empty registry allocates B-tree
    // nodes only: at worst one per 5 entries (a node's minimum fill)
    // plus the spine above them.
    assert_eq!(reg.len(), 48);
    assert!(first <= 48 / 5 + 2, "{first} allocations for 48 new names");
    assert_eq!(requested_by(|| export(&mut reg)), (0, 0));
}

#[test]
fn header_decode_does_not_allocate() {
    let (dcid, scid) = (
        ConnectionId::from_u64(1),
        ConnectionId::new(&[7; 20]).unwrap(),
    );
    let mut short = Vec::new();
    Header::one_rtt(dcid, 9).encode(&mut short, 0).unwrap();
    short.extend_from_slice(b"payload and tag");
    let mut long = Vec::new();
    Header::handshake(dcid, scid, 3)
        .encode(&mut long, 4 + 20)
        .unwrap();
    long.extend_from_slice(&[0; 20]);
    let mut initial = Vec::new();
    Header::initial(dcid, scid, Vec::new(), 0)
        .encode(&mut initial, 4 + 20)
        .unwrap();
    initial.extend_from_slice(&[0; 20]);
    for (wire, ty) in [
        (&short, "short"),
        (&long, "handshake"),
        (&initial, "initial"),
    ] {
        let requested = requested_by(|| Header::decode(&mut &wire[..], 8).unwrap());
        assert_eq!(requested, (0, 0), "{ty} header");
    }
}

#[test]
fn a_datagram_is_one_allocation_and_its_frames_are_views() {
    // Shared storage written in place: the one allocation, its length
    // plus the two reference counts.
    assert_eq!(
        requested_by(|| Bytes::build(1200, |buf| buf.fill(7))),
        (1, 1216)
    );
    let pkt = PlainPacket::new(
        Header::one_rtt(ConnectionId::from_u64(1), 9),
        vec![Frame::Stream {
            id: 0,
            offset: 1 << 20,
            data: Bytes::from(vec![0x5A; 1150]),
            fin: false,
        }],
    )
    .unwrap();
    let mut wire = Bytes::new();
    let (calls, bytes) = requested_by(|| wire = pkt.to_bytes(&[0; 16]));
    assert_eq!(
        (calls, bytes / 8),
        (1, (wire.len() as u64 + 16).div_ceil(8))
    );
    // Decoding it allocates the frame list and nothing per payload; the
    // STREAM data is the datagram's own bytes.
    let mut decoded = None;
    let (calls, _) = requested_by(|| decoded = PlainPacket::decode_with_payload(&wire, 8).ok());
    assert_eq!(calls, 1);
    let (decoded, payload, _, used) = decoded.unwrap();
    assert_eq!((decoded == pkt, used), (true, wire.len()));
    let Frame::Stream { data, .. } = &decoded.frames[0] else {
        panic!("one STREAM frame");
    };
    assert!(wire.as_ptr_range().contains(&data.as_ptr()));
    assert!(wire.as_ptr_range().contains(&payload.as_ptr()));
    assert_eq!(
        requested_by(|| (wire.clone(), wire.slice(8..), wire.split_to(4))),
        (0, 0)
    );
}

#[test]
fn in_order_segments_and_empty_traces_cost_what_they_return() {
    let mut r = Reassembler::default();
    let segment = |fill: u8, len: usize| Bytes::from(vec![fill; len]);
    let (first, overlap, dup) = (segment(1, 1000), segment(2, 300), segment(3, 1200));
    assert_eq!(requested_by(|| r.insert(0, first)), (0, 0));
    // A retransmission overlapping the delivered prefix: a view of its tail.
    assert_eq!(requested_by(|| r.insert(900, overlap)), (0, 0));
    assert_eq!(requested_by(|| r.insert(0, dup)), (0, 0));
    assert_eq!(r.offset(), 1200);
    // Beyond a gap the view is stored (a map node), and the segment that
    // closes the gap gathers the run once, at its length.
    let (far, near) = (segment(4, 500), segment(5, 100));
    assert_eq!(requested_by(|| r.insert(1300, far)).0, 1);
    let (calls, bytes) = requested_by(|| r.insert(1200, near));
    assert_eq!(calls, 1);
    assert!((600..=600 + 16).contains(&bytes), "{bytes} bytes");
    assert_eq!(requested_by(Trace::default), (0, 0));
}
