//! Allocation ceilings for the fixed cost of one handshake, the cost
//! per delivered KiB of a download (ROADMAP item 3) and the weight of a
//! live connection (item 7): what a run, a metrics export, a header
//! decode, a datagram sealed and decoded, and an in-order stream segment
//! may ask of the allocator, and what a loaded server holds per
//! connection at its peak. Counted per thread in calls
//! (`alloc` + `realloc`), bytes requested and bytes live, like the
//! benchmark's `allocs_per_op` / `alloc_kib_per_op` / `peak_heap_mib`,
//! so the verdict is the same on any machine and in debug and release
//! builds; in a binary of its own because the counter is the process's
//! global allocator.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_profiles::server::testbed_server;
use rq_quic::bytestream::Reassembler;
use rq_quic::{ConnStats, Role, ServerAckMode, ServerEngine};
use rq_recovery::CcAlgorithm;
use rq_sim::{EngineStats, ImpairmentSpec, SimDuration, Trace};
use rq_testbed::{
    run_scenario, run_server_load, ArrivalProcess, ClassMix, Scenario, ServerLoadSpec,
};
use rq_testkit::alloc::{peak_live_during, requested_by, Counting};
use rq_tls::TicketKeySchedule;
use rq_wire::{Bytes, ConnectionId, Frame, Header, PlainPacket};

#[global_allocator]
static ALLOC: Counting = Counting;

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
    // Measured 194 calls / 83,167 bytes, debug and release alike, with
    // every known-length TLS body written in place. Earlier: 199 / 85,111
    // with those bodies built in a growable buffer and then copied into
    // shared storage; 263 / 95,113 with a heap list of frames per packet
    // decoded, built and in flight (46 of them); 264 / 110,391 before
    // live connections stopped holding unread qlogs; 333 / 154,200 before
    // a datagram was one buffer; 585 calls before that. The ceilings
    // leave 2 %.
    assert!(calls <= 197, "{calls} allocations for one handshake");
    assert!(bytes <= 84_800, "{bytes} bytes requested for one handshake");
}

#[test]
fn one_download_requests_three_and_a_half_times_what_it_delivers() {
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
    // Per delivered KiB, measured at the end of PR 24, debug and release
    // alike: 2.90 KiB (3.47 before it, 5.13 before PR 22, 10.1 before
    // PR 21) — half a KiB of response (built once, the second stream is
    // handed the first's), a little over one of datagrams, and the rest
    // bookkeeping (sent-packet records and what they carried, both
    // qlogs, the trace, the event queue). The send buffer holds the response itself, so the datagram
    // is the only buffer a delivered byte is copied into.
    let delivered = (sc.streams * sc.file_size) as f64;
    let per_kib = bytes as f64 / delivered;
    assert!(
        per_kib <= 2.96,
        "{per_kib:.2} KiB requested per KiB delivered"
    );
}

#[test]
fn a_live_connection_pair_stays_under_its_weight() {
    // The benchmark's steady `server_load` shape at a fifth of its size:
    // arrivals 200 µs apart on a 100 ms path, so every pair is on the
    // loop at once; 30 % resumed, 20 % 0-RTT, a quarter under 2 % loss.
    let client = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let mut base = Scenario::base(client, iack, HttpVersion::H1);
    base.rtt = SimDuration::from_millis(100);
    base.seed = 1;
    let gap = ArrivalProcess::Poisson {
        mean_gap: SimDuration::from_micros(200),
    };
    let mut spec = ServerLoadSpec::new(base, 600, gap);
    spec.mix = Some(ClassMix {
        resumed: 0.3,
        zero_rtt: 0.2,
    });
    spec.impaired = Some((0.25, ImpairmentSpec::none().with_iid_loss(0.02)));
    let (peak, run) = peak_live_during(|| run_server_load(&spec));
    let pairs = run.report.accounting.peak_active;
    assert_eq!(pairs, 600, "every arrival is live at the peak");
    // Everything the run holds at its peak — both connections, the
    // datagrams in flight, the timer heap and the testbed's own records
    // — per client–server pair. Measured 23,840 bytes at the
    // end of PR 24, debug and release alike (24,890 before it: a heap
    // list per packet in flight and a second copy of the ClientHello;
    // 40,385 before PR 22); the ceiling leaves 3 %.
    let per_pair = peak / pairs;
    assert!(per_pair <= 24_550, "{per_pair} bytes per live pair");
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
    // Decoding it allocates nothing: the frame list is inline and the
    // STREAM data is the datagram's own bytes.
    let mut decoded = None;
    let (calls, _) = requested_by(|| decoded = PlainPacket::decode_with_payload(&wire, 8).ok());
    assert_eq!(calls, 0);
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
