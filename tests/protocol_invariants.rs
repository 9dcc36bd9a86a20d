//! Property-based and invariant tests across the protocol stack: whatever
//! the scenario parameters, certain protocol rules must always hold.

use std::collections::HashMap;

use reacked_quicer::http::{h3, H1Response};
use reacked_quicer::prelude::*;
use reacked_quicer::qlog::{EventData, EventLog, SpaceName};
use reacked_quicer::quic::MAX_DATAGRAM_SIZE;
use reacked_quicer::recovery::CcAlgorithm;
use reacked_quicer::sim::{CaptureRecord, DatagramFate, SimRng};
use reacked_quicer::testbed::{
    run_scenario_with_trace, FaultSpec, HandshakeClass, MigrationSpec, ReconnectPolicy, RunResult,
};
use reacked_quicer::tls::{CERT_LARGE, CERT_SMALL};
use reacked_quicer::wire::{classify_datagram, Bytes, Frame, PacketNumberSpace, PlainPacket};
use rq_testkit::prop::cases;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A scenario with every axis `run_scenario` takes drawn from `rng`: the
/// seed-era ones (client, ACK mode, RTT, Δt, certificate size, loss
/// pattern, seed) and the ones added after them (handshake class,
/// congestion controller, 1–3 request streams, iid loss as a fourth loss
/// kind and a drop mask over the first four datagrams each way as a
/// fifth). A test that holds an axis still sets it afterwards.
fn scenario(rng: &mut SimRng) -> Scenario {
    let clients = all_clients();
    let client = clients[rng.gen_range(clients.len() as u64) as usize].clone();
    let mode = if rng.gen_bool(0.5) {
        ServerAckMode::InstantAck { pad_to_mtu: false }
    } else {
        ServerAckMode::WaitForCertificate
    };
    let mut sc = Scenario::base(client, mode, HttpVersion::H1);
    sc.rtt = ms([1, 9, 20, 100][rng.gen_range(4) as usize]);
    sc.cert_delay = ms([0, 4, 25, 200][rng.gen_range(4) as usize]);
    if rng.gen_bool(0.5) {
        sc.cert_len = CERT_LARGE;
    }
    sc.loss = match rng.gen_range(5) {
        0 => LossSpec::None,
        1 => LossSpec::ServerFlightTail,
        2 => LossSpec::SecondClientFlight,
        3 => LossSpec::Random(ImpairmentSpec::none().with_iid_loss(0.05)),
        _ => LossSpec::Mask(rng.gen_range(16), rng.gen_range(16)),
    };
    sc.seed = rng.gen_range(1000);
    sc.handshake_class = HandshakeClass::ALL[rng.gen_range(3) as usize];
    sc.cc = CcAlgorithm::ALL[rng.gen_range(3) as usize];
    sc.streams = 1 + rng.gen_range(3) as usize;
    sc.capture_payloads = true;
    sc
}

/// The handshake lifecycle in one endpoint's qlog: the handshake is
/// confirmed at most once and never before it completes, and no Initial
/// or Handshake packet is received after confirmation (RFC 9001 §4.9:
/// those spaces are gone by then).
fn assert_handshake_lifecycle(log: &EventLog, label: &str) {
    let who = format!("{label} {}", log.vantage);
    let confirmations = log.count(|d| *d == EventData::HandshakeConfirmed);
    assert!(confirmations <= 1, "{who}: confirmed {confirmations} times");
    let at = |want: EventData| log.events.iter().position(|e| e.data == want);
    let Some(confirmed) = at(EventData::HandshakeConfirmed) else {
        return;
    };
    let complete = at(EventData::HandshakeComplete);
    assert!(
        complete.is_some_and(|c| c < confirmed),
        "{who}: confirmed before complete"
    );
    let confirmed_ms = log.events[confirmed].time_ms;
    for e in &log.events {
        if let EventData::PacketReceived {
            space: space @ (SpaceName::Initial | SpaceName::Handshake),
            pn,
            ..
        } = &e.data
        {
            assert!(
                e.time_ms <= confirmed_ms,
                "{who}: {space:?} packet {pn} received at {} ms, after confirmation at {confirmed_ms} ms",
                e.time_ms
            );
        }
    }
}

/// Every scenario either completes or aborts via the modeled quiche
/// quirk — the state machines never wedge silently. Each drawn case,
/// over either HTTP flavour, and each of the explicit cases goes
/// through [`check_run`].
#[test]
fn every_scenario_terminates() {
    let mut oversize = 0;
    cases(24, |rng| {
        let mut sc = scenario(rng);
        if rng.gen_bool(0.5) {
            sc.http = HttpVersion::H3;
        }
        oversize += check_run(&sc);
    });
    for sc in explicit_cases() {
        oversize += check_run(&sc);
    }
    println!("every_scenario_terminates: {oversize} client datagrams of 1,201 B (ROADMAP 14(a))");
}

/// The axes the draw leaves out, a case each: bursty loss that also
/// duplicates datagrams, a deliberate migration, and a server that
/// crashes under a reconnecting client. Then responses whose length goes
/// up, down and back, HTTP/1.1 and HTTP/3 interleaved, one after another
/// on this thread, which answers them all from one storage.
fn explicit_cases() -> Vec<Scenario> {
    use HttpVersion::{H1, H3};
    let quic_go = client_by_name("quic-go").unwrap();
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let base = |http, file_size| Scenario {
        file_size,
        capture_payloads: true,
        ..Scenario::base(quic_go.clone(), iack, http)
    };
    let bursty = ImpairmentSpec::none()
        .with_gilbert_elliott(0.02, 0.3, 0.0, 0.5)
        .with_duplication(0.05);
    let mut out = vec![
        Scenario {
            loss: LossSpec::Random(bursty),
            cc: CcAlgorithm::BbrLite,
            streams: 2,
            ..base(H3, 200 * 1024)
        },
        Scenario {
            migration: MigrationSpec::deliberate_at(ms(30), ms(20)),
            ..base(H1, 100 * 1024)
        },
        Scenario {
            rtt: ms(40),
            faults: FaultSpec {
                crash_every: Some(ms(400)),
                reconnect: Some(ReconnectPolicy),
                ..FaultSpec::none()
            },
            ..base(H1, 512 * 1024)
        },
    ];
    for (http, kib) in [(H1, 10), (H3, 300), (H1, 1), (H3, 1), (H1, 300), (H3, 10)] {
        out.push(base(http, kib * 1024));
    }
    out
}

/// Runs `sc` with and without its trace and checks the run: it ends
/// completed or aborted, each endpoint's handshake lifecycle holds, the
/// run without the trace reports what the run with it does, the counts
/// are the trace's, the registry agrees, each request stream delivered a
/// prefix of its response and, for a run of one connection, the wire
/// observer is clean. Returns the observer's count of 1,201-B client
/// datagrams.
fn check_run(sc: &Scenario) -> usize {
    let (res, trace) = run_scenario_with_trace(sc);
    assert!(
        res.completed || res.aborted,
        "{}: neither completed nor aborted",
        res.label
    );
    for log in [&res.client_log, &res.server_log] {
        assert_handshake_lifecycle(log, &res.label);
    }
    assert_same_result(&run_scenario(sc), &res);
    assert_counts_are_the_traces(&res, &trace.datagrams);

    // The registry's counters say what the trace, the connections'
    // counters and the qlogs say: a reader of the wrong node, link or
    // connection would split them.
    let count = |name| res.metrics.counter(name) as usize;
    let dropped = count("sim/datagrams/dropped");
    assert_eq!(dropped, res.dropped_datagrams, "{}", res.label);
    let duplicated = count("sim/datagrams/duplicated");
    assert_eq!(duplicated, res.duplicated_datagrams, "{}", res.label);
    let offered = count("sim/datagrams/forwarded") + dropped;
    assert_eq!(
        offered,
        res.client_datagrams + res.server_datagrams,
        "{}",
        res.label
    );
    let lost = (
        count("quic/client/packets_lost"),
        count("quic/server/packets_lost"),
    );
    let counted = (res.client_packets_lost, res.server_packets_lost);
    assert_eq!(lost, counted, "{}", res.label);
    let lost_events = |log: &EventLog| log.count(|d| matches!(d, EventData::PacketLost { .. }));
    let logged = (lost_events(&res.client_log), lost_events(&res.server_log));
    assert_eq!(counted, logged, "{}: lost packets", res.label);
    let amp = |d: &EventData| matches!(d, EventData::AmplificationBlocked { .. });
    let amp_logged = res.server_log.count(amp) > 0;
    assert_eq!(res.server_amp_blocked, amp_logged, "{}: amp", res.label);

    assert_responses_on_wire(sc, &trace.datagrams, &res);
    // The observer reads one connection a pair: a reconnect follows a
    // stateless reset, which is no QUIC packet, and starts its packet
    // numbers over.
    if sc.faults.reconnect.is_some() {
        return 0;
    }
    observe_wire(
        &trace.datagrams,
        [&res.client_log, &res.server_log],
        &res.label,
    )
}

/// `plain`, from `run_scenario`, reports what `traced`, from
/// `run_scenario_with_trace`, does: every field the benchmark's run
/// fingerprint reads, and the duplicate copies.
fn assert_same_result(plain: &RunResult, traced: &RunResult) {
    let fields = |r: &RunResult| {
        let ms = |v: Option<f64>| v.map(f64::to_bits);
        (
            (ms(r.ttfb_ms), ms(r.response_ms), ms(r.goodput_mbps)),
            (r.completed, r.aborted, r.resumed),
            (r.client_datagrams, r.server_datagrams, r.dropped_datagrams),
            (r.client_log.events.len(), r.server_log.events.len()),
            r.duplicated_datagrams,
        )
    };
    assert_eq!(fields(plain), fields(traced), "{}", traced.label);
}

/// The datagram counts of `res` are what its trace's capture counts:
/// sends each way (the duplicating channel's copies aside), drops and
/// copies. The server is node 0, the client node 1.
fn assert_counts_are_the_traces(res: &RunResult, datagrams: &[CaptureRecord]) {
    let sent_by = |node| {
        let sent = datagrams.iter().filter(|d| d.from.index() == node);
        sent.filter(|d| !d.duplicate).count()
    };
    let dropped = datagrams.iter().filter(|d| d.fate == DatagramFate::Dropped);
    let duplicated = datagrams.iter().filter(|d| d.duplicate).count();
    assert_eq!(
        (res.client_datagrams, res.server_datagrams),
        (sent_by(1), sent_by(0)),
        "{}",
        res.label
    );
    assert_eq!(
        (res.dropped_datagrams, res.duplicated_datagrams),
        (dropped.count(), duplicated),
        "{}",
        res.label
    );
}

/// Each request stream's bytes, reassembled from the STREAM frames of
/// the server's delivered datagrams, are a byte-exact prefix of the
/// response built on its own, and all of it once the run completed.
fn assert_responses_on_wire(sc: &Scenario, datagrams: &[CaptureRecord], res: &RunResult) {
    let response = match sc.http {
        HttpVersion::H1 => H1Response::ok(sc.file_size).to_bytes(),
        HttpVersion::H3 => h3::response_bytes(sc.file_size),
    };
    // Per request stream (client-initiated bidirectional: 0, 4, 8, ...),
    // the bytes delivered at each offset, and the ranges delivered.
    let mut bytes = vec![Vec::new(); sc.streams];
    let mut ranges = vec![Vec::new(); sc.streams];
    for d in datagrams.iter().filter(|d| d.from.index() == 0) {
        if d.fate == DatagramFate::Dropped {
            continue;
        }
        let payload = d.payload.as_deref().expect("payloads are captured");
        let mut rest = Bytes::copy_from_slice(payload);
        while !rest.is_empty() {
            let Ok((packet, _, _, used)) = PlainPacket::decode_with_payload(&rest, 8) else {
                break;
            };
            for frame in packet.frames.iter() {
                let Frame::Stream {
                    id, offset, data, ..
                } = frame
                else {
                    continue;
                };
                if id % 4 != 0 {
                    continue;
                }
                let stream = (id / 4) as usize;
                let (at, end) = (*offset as usize, *offset as usize + data.len());
                if bytes[stream].len() < end {
                    bytes[stream].resize(end, 0);
                }
                bytes[stream][at..end].copy_from_slice(data);
                ranges[stream].push((at, end));
            }
            rest = rest.slice(used..);
        }
    }
    for (i, (bytes, mut ranges)) in bytes.into_iter().zip(ranges).enumerate() {
        ranges.sort_unstable();
        let prefix = ranges.iter().fold(0, |covered, &(at, end)| {
            if at <= covered {
                covered.max(end)
            } else {
                covered
            }
        });
        let label = format!("{} stream {}", res.label, 4 * i);
        assert!(
            bytes[..prefix] == response[..prefix],
            "{label}: the first {prefix} bytes delivered are not the response's"
        );
        if res.completed {
            assert_eq!(prefix, response.len(), "{label}: delivered in part");
        }
    }
}

/// The loss atlas's tier-1 slice (ROADMAP 15(b)): every pair of drop
/// masks over the first four datagrams each way, for every client, under
/// WFC and IACK, at Δt 0 and 20 ms — 8,192 runs. Each run ends completed
/// or aborted, the link drops exactly the datagrams whose mask bit is set
/// and the wire observer is clean.
#[test]
fn loss_atlas_slice() {
    let modes = [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ];
    for client in all_clients() {
        for mode in modes {
            for delta_t in [0, 20] {
                for masks in 0..256 {
                    let (client_mask, server_mask) = (masks >> 4, masks & 0xF);
                    let mut sc = Scenario::base(client.clone(), mode, HttpVersion::H1);
                    sc.cert_delay = ms(delta_t);
                    sc.loss = LossSpec::Mask(client_mask, server_mask);
                    sc.capture_payloads = true;
                    let (res, trace) = run_scenario_with_trace(&sc);
                    let label = format!("{} Δt {delta_t} ms", res.label);
                    assert!(
                        res.completed || res.aborted,
                        "{label}: neither completed nor aborted"
                    );
                    for d in &trace.datagrams {
                        let from_client = d.from.index() == 1;
                        let mask = if from_client {
                            client_mask
                        } else {
                            server_mask
                        };
                        let bit = d.index < 64 && mask >> d.index & 1 == 1;
                        assert_eq!(
                            d.fate == DatagramFate::Dropped,
                            bit,
                            "{label}: datagram {} from the {}",
                            d.index,
                            if from_client { "client" } else { "server" }
                        );
                    }
                    observe_wire(&trace.datagrams, [&res.client_log, &res.server_log], &label);
                }
            }
        }
    }
}

/// The wire observer: one pass over a run's capture, in send order,
/// decoding every datagram. It checks
/// - anti-amplification: until a client datagram carries a Handshake
///   packet, the server has sent at most 3x what the client sent by then;
/// - every client datagram with an Initial packet is at least 1,200 B;
/// - each sender's packet numbers strictly increase within each packet
///   number space (RFC 9000 §12.3), the fabricated duplicate copies
///   aside;
/// - no datagram exceeds `MAX_DATAGRAM_SIZE`, but for client datagrams
///   of exactly one byte more (ROADMAP 14(a)), whose number it returns;
/// - each endpoint's qlog `packet_sent` events, in order, are the packets
///   its datagrams carry on the wire, in send order, the duplicate
///   copies aside: the same space, packet number, size and ack-eliciting
///   flag. `logs` are the client's and the server's.
fn observe_wire(datagrams: &[CaptureRecord], logs: [&EventLog; 2], label: &str) -> usize {
    let mut on_wire: [Vec<SentOnWire>; 2] = Default::default();
    let mut sent_by_client: u64 = 0;
    let mut sent_by_server: u64 = 0;
    let mut validated = false;
    let mut largest_pn: HashMap<(usize, PacketNumberSpace), u64> = HashMap::new();
    let mut oversize = 0;
    for d in datagrams {
        let from_client = d.from.index() == 1;
        let payload = d.payload.as_deref().expect("payloads are captured");
        let info = classify_datagram(payload, 8)
            .unwrap_or_else(|e| panic!("{label}: datagram {} does not decode: {e:?}", d.index));
        let has = |space| info.packets.iter().any(|p| p.space == space);
        if from_client {
            sent_by_client += d.size as u64;
            validated |= has(PacketNumberSpace::Handshake);
            if has(PacketNumberSpace::Initial) {
                assert!(
                    d.size >= 1200,
                    "{label}: client Initial datagram only {} B",
                    d.size
                );
            }
        } else {
            sent_by_server += d.size as u64;
            assert!(
                validated || sent_by_server <= 3 * sent_by_client,
                "{label}: server sent {sent_by_server} > 3x{sent_by_client}"
            );
        }
        if d.duplicate {
            continue;
        }
        for p in &info.packets {
            let space = match p.space {
                PacketNumberSpace::Initial => SpaceName::Initial,
                PacketNumberSpace::Handshake => SpaceName::Handshake,
                PacketNumberSpace::Application => SpaceName::ApplicationData,
            };
            on_wire[usize::from(!from_client)].push((space, p.pn, p.size, p.ack_eliciting));
            let previous = largest_pn.insert((d.from.index(), p.space), p.pn);
            assert!(
                previous < Some(p.pn),
                "{label}: node {} sent {:?} pn {} after pn {previous:?}",
                d.from.index(),
                p.space,
                p.pn
            );
        }
        if d.size > MAX_DATAGRAM_SIZE {
            assert!(
                from_client && d.size == MAX_DATAGRAM_SIZE + 1,
                "{label}: {} B datagram from node {}",
                d.size,
                d.from.index()
            );
            oversize += 1;
        }
    }
    for (log, wire) in logs.into_iter().zip(on_wire) {
        let logged: Vec<SentOnWire> = log
            .events
            .iter()
            .filter_map(|e| match e.data {
                EventData::PacketSent {
                    space,
                    pn,
                    size,
                    ack_eliciting,
                    ..
                } => Some((space, pn, size, ack_eliciting)),
                _ => None,
            })
            .collect();
        assert_eq!(
            logged, wire,
            "{label}: {}'s qlog against the wire",
            log.vantage
        );
    }
    oversize
}

/// A packet as both the qlog and the wire tell it: space, packet number,
/// size on the wire and whether it elicits an acknowledgment.
type SentOnWire = (SpaceName, u64, usize, bool);

/// Packet numbers are strictly monotonic per space in each endpoint's
/// qlog, and the first PTO never undercuts 3x the true minimum RTT
/// minus granularity slack.
#[test]
fn qlog_consistency() {
    cases(24, |rng| {
        let mut sc = scenario(rng);
        sc.rtt = ms(9);
        sc.cert_delay = ms([0, 25][rng.gen_range(2) as usize]);
        sc.cert_len = CERT_SMALL;
        sc.loss = LossSpec::None;
        let (res, _) = run_scenario_with_trace(&sc);
        assert!(res.completed, "{}", res.label);
        for log in [&res.client_log, &res.server_log] {
            assert_handshake_lifecycle(log, &res.label);
            let mut last_pn: std::collections::BTreeMap<SpaceName, u64> = Default::default();
            for ev in &log.events {
                if let EventData::PacketSent { space, pn, .. } = &ev.data {
                    if let Some(prev) = last_pn.get(space) {
                        assert!(pn > prev, "{}: pn regression in {space:?}", log.vantage);
                    }
                    last_pn.insert(*space, *pn);
                }
            }
        }
        if let Some(pto) = res.first_pto_ms {
            // 3 x RTT is the sample-based floor; the go-x-net quirk can
            // only inflate it.
            assert!(pto >= 3.0 * 9.0 - 1.0, "first PTO {pto:.2} below 3xRTT");
        }
    });
}

/// Determinism: identical scenarios produce identical outcomes.
#[test]
fn scenario_determinism() {
    cases(24, |rng| {
        let mut sc = scenario(rng);
        (sc.rtt, sc.cert_delay, sc.cert_len) = (ms(9), ms(4), CERT_SMALL);
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.ttfb_ms, b.ttfb_ms);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.client_rtt_samples, b.client_rtt_samples);
    });
}

/// The Retry handshake extension (paper §5 generalization): a server
/// demanding address validation still completes, with one extra RTT.
#[test]
fn retry_handshake_completes_with_extra_round_trip() {
    use reacked_quicer::quic::{Connection, EndpointConfig};
    use reacked_quicer::sim::SimTime;
    use reacked_quicer::wire::{ConnectionId, PlainPacket};

    let mut client = Connection::client(EndpointConfig::rfc_default(), 7, false);
    client.send_stream_data(0, b"GET / HTTP/1.1\r\n\r\n", true);
    let mut server: Option<Connection> = None;
    let mut now = SimTime::ZERO;
    let mut retries_seen = 0;
    for _ in 0..100 {
        while let Some(d) = client.poll_transmit(now) {
            let srv = server.get_or_insert_with(|| {
                let dcid = PlainPacket::decode(&d, 8)
                    .map(|(p, _, _)| p.header.dcid)
                    .unwrap();
                let mut s = Connection::server(EndpointConfig::rfc_default(), 8, dcid);
                s.use_retry = true;
                s
            });
            srv.handle_datagram(now, &d);
        }
        if let Some(srv) = server.as_mut() {
            while let Some(ev) = srv.poll_event() {
                if matches!(ev, reacked_quicer::quic::ConnEvent::CertificateNeeded) {
                    srv.certificate_ready(now);
                }
            }
            while let Some(d) = srv.poll_transmit(now) {
                if let Ok((pkt, _, _)) = PlainPacket::decode(&d, 8) {
                    if pkt.header.ty == reacked_quicer::wire::PacketType::Retry {
                        retries_seen += 1;
                    }
                }
                client.handle_datagram(now, &d);
            }
        }
        while client.poll_event().is_some() {}
        if client.is_confirmed() {
            break;
        }
        now = now + SimDuration::from_millis(1);
        if client.poll_timeout().map(|t| t <= now).unwrap_or(false) {
            client.handle_timeout(now);
        }
        if let Some(srv) = server.as_mut() {
            if srv.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                srv.handle_timeout(now);
            }
        }
    }
    assert_eq!(retries_seen, 1, "exactly one Retry round trip");
    assert!(client.is_established(), "handshake completes after Retry");
    let srv = server.unwrap();
    assert!(srv.is_established());
    // The token validated the address: no amplification blocking occurred.
    assert_eq!(srv.amplification_budget(), usize::MAX);
    let _ = ConnectionId::EMPTY;
}
