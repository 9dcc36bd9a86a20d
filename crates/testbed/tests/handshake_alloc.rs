//! Allocation ceilings for the fixed cost of one handshake, the cost
//! per delivered KiB of a download (ROADMAP item 3) and the weight of a
//! live connection (item 7): what a run, a TLS handshake, a metrics
//! export, a header decode, a datagram sealed and decoded, and an
//! in-order stream segment may ask of the allocator, and what a loaded
//! server holds per connection at its peak. Counted per thread in calls
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
    run_scenario, run_server_load, ArrivalProcess, ClassMix, LossSpec, Scenario, ServerLoadSpec,
};
use rq_testkit::alloc::{peak_live_during, requested_by, Counting};
use rq_tls::{
    ClientConfig, HandshakeMessage, Level, ServerConfig as TlsServerConfig, TlsEvent, TlsSession,
    CERT_LARGE, CERT_SMALL,
};
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
    // The thread's first run, so it sets up what the thread's worker
    // keeps, its network, server node, client node, driver tables and
    // response storage, too: each test runs on a thread of its own.
    // Measured 77 calls / 66,652 bytes, debug and release alike, once the
    // worker kept its nodes and tables and the link index became a list
    // per node (77 / 67,018 before). Earlier: 77 / 67,018 once the server
    // node's box held the lent storage (77 / 66,978 while the thread held
    // it). Earlier:
    // 77 / 66,978 once a run that returns no trace records none (78 /
    // 67,146 before, with a capture record per datagram). Earlier: 78 / 67,322 once the
    // list of spare storage made room for a handshake's worth at once (79 / 67,130 while it
    // grew to fit). Earlier: 79 / 67,130 once the network handed
    // senders the storage of delivered datagrams no one held: two of
    // the 23 datagrams are built in such storage, and the list that
    // keeps it grows once. Earlier: 79 / 67,050 once
    // the sent-packet, received-range, send-queue and stream tables held
    // their first entry inline. Earlier: 98 / 69,674 once each TLS flight was built at its final length and received CRYPTO
    // read in place, a qlog's vantage stopped being a built string, the
    // scenario label, request path and response header stopped growing
    // strings, and the metrics registry became one sorted list (137 /
    // 78,743 before). Earlier: 137 / 78,743 once
    // qlog packet events stopped listing their frames and an ACK frame's
    // newly acked packets stopped going to the heap (190 / 80,879
    // before). Earlier: 190 / 81,679 with
    // the client's status and ticket plain fields of its node (192 /
    // 81,967 with each a shared cell). Earlier: 190 / 82,127 before each
    // connection's handshake state was one box that confirmation drops;
    // 192 / 83,327 with each
    // connection's congestion controller held inline; 194 / 83,167 with
    // the controller a boxed trait object, one block per
    // connection; 199 / 85,111 with the TLS bodies built in a growable
    // buffer and then copied into shared storage; 263 / 95,113 with a
    // heap list of frames per packet decoded, built and in flight (46 of
    // them); 264 / 110,391 before live connections stopped holding unread
    // qlogs; 333 / 154,200 before a datagram was one buffer; 585 calls
    // before that. Both ceilings leave 2 %.
    assert!(calls <= 78, "{calls} allocations for one handshake");
    assert!(bytes <= 67_980, "{bytes} bytes requested for one handshake");
}

#[test]
fn a_warm_handshake_stays_under_its_ceiling() {
    let client = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let sc = Scenario::base(client, iack, HttpVersion::H1);
    assert!(run_scenario(&sc).completed);
    let (calls, bytes) = requested_by(|| {
        let result = run_scenario(&sc);
        assert!(result.completed);
        result
    });
    // The second identical run on one thread, on the thread's worker:
    // its network, reset, keeps its tables, its link index and the
    // storage of the first run's last datagrams, and 21 of the 23
    // datagrams are built in storage a datagram of the same length left;
    // the server node, its engine (a connection slot among its storage),
    // control block and response storage (the 10 KiB body already in it),
    // the client node and its connection's cell, and the driver's tables
    // are built in what the first run left; the request's path is
    // written on the stack, and the client's configuration in the
    // storage of the retired client's. What is left is per connection or
    // per result. Measured 28 calls / 25,976 bytes, debug and release
    // alike (77 / 66,652 on a new thread), once the client's
    // configuration was written into the retired client's (29 / 26,240
    // before). Earlier: 29 / 26,240 once the worker kept its nodes and
    // tables (46 / 33,866 before, with the server node, engine, client
    // node, driver tables, link index node and request path built anew).
    // Earlier: 46 / 33,866 once the server node's box held the lent
    // storage (46 / 33,826 while the thread held it); 46 / 33,826 once
    // the response was kept by the thread and a run that returns no
    // trace recorded none (48 / 44,498 before, with the response built
    // anew and a capture record per datagram). Both ceilings leave 2 %.
    assert!(calls <= 28, "{calls} allocations for a warm handshake");
    assert!(
        bytes <= 26_500,
        "{bytes} bytes requested for a warm handshake"
    );
}

/// An in-memory TLS handshake through the session's public calls, the
/// server's Handshake flight delivered `chunk` bytes at a time (the
/// whole flight when `None`). Returns the server's Handshake flight.
fn tls_handshake(cert_len: usize, chunk: Option<usize>) -> Bytes {
    let mut client = TlsSession::client(ClientConfig::full());
    let mut server = TlsSession::server(TlsServerConfig {
        cert_len,
        ..TlsServerConfig::default()
    });
    let mut server_flight = Bytes::new();
    client.start();
    loop {
        let mut progress = false;
        for level in [Level::Initial, Level::Handshake, Level::Application] {
            if let Some(out) = client.take_output(level) {
                let events = server.read_crypto(level, &out).unwrap();
                if events.contains(&TlsEvent::NeedCertificate) {
                    server.provide_certificate();
                }
                progress = true;
            }
            if let Some(out) = server.take_output(level) {
                let step = chunk.filter(|_| level == Level::Handshake);
                let step = step.unwrap_or(out.len());
                for at in (0..out.len()).step_by(step) {
                    let piece = out.slice(at..out.len().min(at + step));
                    client.read_crypto(level, &piece).unwrap();
                }
                if level == Level::Handshake {
                    server_flight = out;
                }
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    assert!(client.is_complete() && server.is_complete());
    server_flight
}

#[test]
fn a_tls_handshake_allocates_one_buffer_per_flight() {
    // ClientHello, ServerHello, the server's EE..FIN and the client's
    // Finished: each built once at its final length and handed over; the
    // bytes received are read in place, and the events come back inline.
    for cert_len in [CERT_SMALL, CERT_LARGE] {
        let (calls, _) = requested_by(|| tls_handshake(cert_len, None));
        assert_eq!(calls, 4, "cert {cert_len}");
    }
    // Delivered in datagram-sized pieces, a message that a piece ends
    // inside waits as a view, and the next piece joins it: one more
    // allocation per piece boundary inside a message. The large
    // certificate spans five pieces.
    const PIECE: usize = 1_150;
    for (cert_len, joins) in [(CERT_SMALL, 1), (CERT_LARGE, 4)] {
        let mut flight = Bytes::new();
        let (calls, _) = requested_by(|| flight = tls_handshake(cert_len, Some(PIECE)));
        let mut message_ends = Vec::new();
        let mut rest = flight.clone();
        while HandshakeMessage::decode(&mut rest).unwrap().is_some() {
            message_ends.push(flight.len() - rest.len());
        }
        let inside = (PIECE..flight.len()).step_by(PIECE);
        let inside = inside.filter(|at| !message_ends.contains(at)).count();
        assert_eq!(inside, joins, "cert {cert_len}");
        assert_eq!(calls, 4 + joins as u64, "cert {cert_len}");
    }
}

#[test]
fn a_warm_download_stays_under_its_ceiling() {
    let client = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let sc = Scenario {
        streams: 2,
        file_size: 1024 * 1024,
        cc: CcAlgorithm::Cubic,
        ..Scenario::base(client, iack, HttpVersion::H3)
    };
    // The thread's first run sets up what the thread's worker keeps, its
    // network, nodes and response storage, as on any thread of a sweep:
    // the second is what each later run asks.
    assert!(run_scenario(&sc).completed);
    let mut datagrams = 0;
    let (calls, bytes) = requested_by(|| {
        let result = run_scenario(&sc);
        assert!(result.completed);
        datagrams = result.client_datagrams + result.server_datagrams;
        result
    });
    // Per delivered KiB, debug and release alike: 1.35 KiB once the
    // thread kept its response and a run that returns no trace recorded
    // none (2.19 before on a warm thread, 2.20 on a new one; the new
    // thread's reading was 2.74 before a datagram was built in the
    // storage of one already delivered, 2.89 before qlog packet events
    // stopped listing their frames, and 2.90, 3.47, 5.13 and 10.1
    // before that, as the data path stopped copying). What is left is
    // about half a KiB of datagram storage (a little over one while each
    // datagram had its own) and bookkeeping: sent-packet records and
    // what they carried, both qlogs, the event queue. The response is
    // the thread's, built by its first run, and the send buffer holds a
    // view of it, so the datagram is the only buffer a delivered byte
    // is copied into.
    let delivered = (sc.streams * sc.file_size) as f64;
    let per_kib = bytes as f64 / delivered;
    assert!(
        per_kib <= 1.37,
        "{per_kib:.2} KiB requested per KiB delivered"
    );
    // Per datagram sent, either way: 0.40 calls. 2,759 datagrams took
    // 1,110 allocations (1,125 while an ACK frame with gaps kept its
    // ranges in a `Vec` and loss detection collected into new ones,
    // 1,155 with a capture record list growing), and
    // most of them are datagram storage: a datagram is built in the
    // storage of one delivered before it when the receiver kept no view
    // of that, so what is left is storage for the datagrams in flight at
    // once, most of them queued behind the 10 Mbit/s link (1.09 calls
    // per datagram while each was built in storage of its own, 3.76
    // while every qlog packet event listed its frames and every ACK frame
    // collected its acked packets on the heap). The ceilings leave 2 %.
    assert!(calls <= 1_132, "{calls} allocations for the download");
    let per_datagram = calls as f64 / datagrams as f64;
    assert!(
        per_datagram <= 0.41,
        "{per_datagram:.3} allocations per datagram"
    );
}

#[test]
fn a_warm_lossy_download_stays_under_its_ceiling() {
    // The benchmark's lossy `bulk_transfer` shape: under bursty loss
    // most ACK frames carry gaps and loss detection runs on most of them.
    let client = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let loss = ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.3, 0.0, 0.5);
    let sc = Scenario {
        streams: 2,
        file_size: 1024 * 1024,
        cc: CcAlgorithm::BbrLite,
        loss: LossSpec::Random(loss),
        ..Scenario::base(client, iack, HttpVersion::H3)
    };
    assert!(run_scenario(&sc).completed);
    let (calls, _) = requested_by(|| {
        let result = run_scenario(&sc);
        assert!(result.completed);
        result
    });
    // Measured 920 calls, debug and release alike: 2,530 while an ACK
    // frame's lower ranges were a `Vec` both where the receiver built the
    // frame and where the sender decoded it, and loss detection collected
    // the lost packets' numbers, the packets, their sizes and their send
    // times into four more. What is left is mostly datagram storage, as
    // in the clean download, and acknowledged packets past an `Acked`'s
    // inline five. The ceiling leaves 2 %.
    assert!(calls <= 938, "{calls} allocations for the lossy download");
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
    // — per client–server pair. Measured 20,022 bytes, debug and release
    // alike, as before ACK ranges travelled as their wire encoding: a
    // loaded server's clients are new nodes, so writing a client's
    // configuration into a retired client's storage moves nothing here.
    // Earlier: 20,009 with the response in the thread's storage, built in
    // this run as each server once built its own (20,009 before too).
    // Earlier: 20,072 once delivered datagrams' storage waited in the
    // network's list of spares for the next sender (20,009 before, once the
    // sent-packet, received-range, send-queue and stream
    // tables hold their first entry inline: each connection value grows
    // by 288 bytes, and the heap block of every such table that held one
    // entry is gone (21,948 before,
    // once connections share their endpoint's configuration; 22,596 with
    // a copy of it in every connection, client node and TLS session;
    // 22,739 with a 112-byte SHA-256 state; 22,899 with the client's
    // status and ticket in shared cells; 24,297 before a confirmed
    // connection dropped its handshake state; 24,890 with a heap list per
    // packet in flight and a second copy of the ClientHello, 40,385
    // before that); the ceiling leaves 3 %.
    let per_pair = peak / pairs;
    assert!(per_pair <= 20_600, "{per_pair} bytes per live pair");
}

#[test]
fn metrics_export_allocates_once_and_then_nothing() {
    let engine = ServerEngine::new(
        testbed_server(ServerAckMode::WaitForCertificate, 1200),
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
    // Names are `&'static str`, so an empty registry allocates only its
    // sorted list, once, with room for the whole export (one B-tree node
    // per 5 to 11 names while it was a map).
    assert_eq!(reg.len(), 48);
    assert_eq!(first, 1, "{first} allocations for 48 new names");
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
