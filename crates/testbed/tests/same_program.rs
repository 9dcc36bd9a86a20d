//! Four choices that must not show on the wire: whether the
//! application hands a connection its stream data as a slice or as an
//! owned `Bytes`, whether the endpoints capture qlog, whether the
//! server built the response for this request or for an earlier one,
//! and whether a connection is asked for datagrams at wake-ups before
//! its deadline (the testbed's driver skips the asking: it re-arms the
//! deadline its last pump stored, without touching the connection).

use std::collections::VecDeque;

use rq_http::{h1, h3, HttpVersion};
use rq_profiles::client_by_name;
use rq_profiles::server::testbed_server;
use rq_quic::{ConnEvent, ConnStats, Connection, ServerAckMode};
use rq_sim::{
    Direction, ImpairedFate, Impairment, ImpairmentSpec, LinkConfig, Network, SimDuration, SimTime,
    Spares,
};
use rq_testbed::{ClientNode, ServerNode, TestbedNode};
use rq_wire::{Bytes, Frame, PlainPacket};

const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };
const ONE_WAY: SimDuration = SimDuration::from_millis(10);

/// How a run feeds and configures its two connections.
#[derive(Clone, Copy)]
struct Variant {
    /// Stream data goes in through `send_stream_data_owned`.
    owned: bool,
    /// Both endpoints capture qlog.
    capture: bool,
    /// Both endpoints are woken, and asked for a datagram, at instants
    /// strictly before the next deadline or arrival.
    early_wakes: bool,
}

/// What a run leaves behind.
struct Run {
    /// Every datagram either side produced, in order: (from the client,
    /// bytes) — dropped ones included.
    datagrams: Vec<(bool, Bytes)>,
    stats: (ConnStats, ConnStats),
    /// (client, server) qlog event counts.
    logged: (usize, usize),
    /// What the client received, per request stream.
    bodies: Vec<Vec<u8>>,
    /// Early wake-ups of either endpoint.
    early_wakes: usize,
}

fn response(http: HttpVersion, body: usize) -> Bytes {
    match http {
        HttpVersion::H1 => h1::H1Response::ok(body).to_bytes(),
        HttpVersion::H3 => h3::response_bytes(body),
    }
}

fn send(conn: &mut Connection, v: Variant, id: u64, data: &Bytes) {
    if v.owned {
        conn.send_stream_data_owned(id, data.clone(), true);
    } else {
        conn.send_stream_data(id, data, true);
    }
}

/// A quic-go client fetching `/body` on `streams` streams from the IACK
/// testbed server over a 20 ms path with Gilbert–Elliott loss: both
/// connections driven by hand, every datagram recorded.
fn run(http: HttpVersion, streams: usize, body: usize, v: Variant) -> Run {
    let mut client_cfg = client_by_name("quic-go").unwrap().endpoint_config(http);
    let mut server_cfg = testbed_server(IACK, rq_tls::CERT_SMALL);
    client_cfg.capture_qlog = v.capture;
    server_cfg.capture_qlog = v.capture;
    let request = match http {
        HttpVersion::H1 => h1::H1Request::get(&format!("/{body}"), "testbed.local").to_bytes(),
        HttpVersion::H3 => h3::request_bytes(&format!("/{body}"), "testbed.local"),
    };
    let response = response(http, body);
    let loss = ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.3, 0.0, 0.5);
    let mut channel = Impairment::new(loss, 0x5EED);

    let mut client = Connection::client(client_cfg, 7, false);
    for i in 0..streams {
        send(&mut client, v, 4 * i as u64, &request);
    }
    let mut server: Option<Connection> = None;
    let mut wire: VecDeque<(SimTime, bool, Bytes)> = VecDeque::new();
    let mut out = Run {
        datagrams: Vec::new(),
        stats: Default::default(),
        logged: (0, 0),
        bodies: vec![Vec::new(); streams],
        early_wakes: 0,
    };
    let mut finished = 0;
    let mut now = SimTime::ZERO;
    while finished < streams {
        // Everything either side has ready leaves now, the client first.
        let mut ends = [Some(&mut client), server.as_mut()];
        for (end, from_client) in ends.iter_mut().zip([true, false]) {
            while let Some(d) = end.as_mut().and_then(|c| c.poll_transmit(now)) {
                out.datagrams.push((from_client, d.clone()));
                let direction = [Direction::BtoA, Direction::AtoB][usize::from(from_client)];
                if channel.next_fate(direction) != ImpairedFate::Drop {
                    wire.push_back((now + ONE_WAY, from_client, d));
                }
            }
        }
        let timeouts = [
            client.poll_timeout(),
            server.as_ref().and_then(|s| s.poll_timeout()),
        ];
        let arrival = wire.front().map(|w| w.0);
        let next = timeouts.into_iter().chain([arrival]).flatten().min();
        let next = next.expect("an unfinished exchange has something pending");
        if v.early_wakes {
            let (from, to) = (now.as_nanos(), next.as_nanos());
            let instants = [
                from,
                from + 1,
                from + to.saturating_sub(from) / 2,
                to.saturating_sub(1),
            ];
            for at in instants
                .into_iter()
                .filter(|&t| t < to)
                .map(SimTime::from_nanos)
            {
                for conn in [Some(&mut client), server.as_mut()].into_iter().flatten() {
                    assert!(conn.poll_timeout().is_none_or(|t| t > at));
                    assert!(
                        conn.poll_transmit(at).is_none(),
                        "a wake-up before the deadline plans a datagram at {at}"
                    );
                    out.early_wakes += 1;
                }
            }
        }
        now = now.max(next);
        assert!(now < SimTime::ZERO + SimDuration::from_secs(120), "stalled");
        while wire.front().is_some_and(|w| w.0 <= now) {
            let (_, from_client, d) = wire.pop_front().unwrap();
            if !from_client {
                client.handle_datagram_on_path(now, d, 0, &mut Spares::default());
                continue;
            }
            let srv = server.get_or_insert_with(|| {
                let (first, _, _) = PlainPacket::decode(&d, 8).expect("client Initial decodes");
                Connection::server(server_cfg.clone(), 7 ^ 0x5EED, first.header.dcid)
            });
            srv.handle_datagram_on_path(now, d, 0, &mut Spares::default());
            while let Some(ev) = srv.poll_event() {
                match ev {
                    ConnEvent::CertificateNeeded => srv.certificate_ready(now),
                    // The request is one frame: its FIN is the cue.
                    ConnEvent::StreamData { id, fin: true, .. } => send(srv, v, id, &response),
                    _ => {}
                }
            }
        }
        for conn in [Some(&mut client), server.as_mut()].into_iter().flatten() {
            if conn.poll_timeout().is_some_and(|t| t <= now) {
                conn.handle_timeout(now);
            }
        }
        while let Some(ev) = client.poll_event() {
            if let ConnEvent::StreamData { id, data, fin } = ev {
                out.bodies[(id / 4) as usize].extend_from_slice(&data);
                finished += usize::from(fin);
            }
        }
    }
    let server = server.expect("the server answered");
    out.stats = (client.stats(), server.stats());
    out.logged = (client.log.events.len(), server.log.events.len());
    out
}

const SLICE: Variant = Variant {
    owned: false,
    capture: true,
    early_wakes: false,
};

#[test]
fn owned_and_slice_sends_put_the_same_datagrams_on_the_wire() {
    for (http, streams, body) in [
        (HttpVersion::H1, 1, 10 * 1024),
        (HttpVersion::H3, 2, 256 * 1024),
    ] {
        let slice = run(http, streams, body, SLICE);
        let owned = run(
            http,
            streams,
            body,
            Variant {
                owned: true,
                ..SLICE
            },
        );
        assert!(
            slice.stats.1.packets_lost > 0 || streams == 1,
            "the download ran into the channel's losses"
        );
        assert_eq!(slice.datagrams.len(), owned.datagrams.len(), "{http:?}");
        assert!(slice.datagrams == owned.datagrams, "{http:?}");
        assert_eq!(slice.stats, owned.stats);
        let expected = response(http, body);
        for got in slice.bodies.iter().chain(&owned.bodies) {
            assert!(got[..] == expected[..], "{http:?}: the response, exactly");
        }
    }
}

#[test]
fn capture_off_changes_nothing_but_the_log_which_is_empty() {
    for (http, streams, body) in [
        (HttpVersion::H1, 1, 10 * 1024),
        (HttpVersion::H3, 2, 64 * 1024),
    ] {
        let on = run(http, streams, body, SLICE);
        let off = run(
            http,
            streams,
            body,
            Variant {
                capture: false,
                ..SLICE
            },
        );
        assert!(on.datagrams == off.datagrams, "{http:?}");
        assert_eq!(on.stats, off.stats);
        assert_eq!(on.bodies, off.bodies);
        assert!(on.logged.0 > 20 && on.logged.1 > 20, "{:?}", on.logged);
        assert_eq!(off.logged, (0, 0));
    }
}

#[test]
fn wake_ups_before_the_deadline_have_nothing_to_send_and_change_nothing() {
    for (http, streams, body) in [
        (HttpVersion::H1, 1, 10 * 1024),
        (HttpVersion::H3, 2, 256 * 1024),
    ] {
        let plain = run(http, streams, body, SLICE);
        let woken = run(
            http,
            streams,
            body,
            Variant {
                early_wakes: true,
                ..SLICE
            },
        );
        assert!(woken.early_wakes > 20, "{http:?}: {}", woken.early_wakes);
        assert!(plain.datagrams == woken.datagrams, "{http:?}");
        assert_eq!(plain.stats, woken.stats);
        assert_eq!(plain.logged, woken.logged);
        assert_eq!(plain.bodies, woken.bodies);
    }
}

/// The bytes the server sent on `stream`, reassembled from the STREAM
/// frames of every datagram captured from `server` to `client`.
fn sent_on_stream(
    trace: &rq_sim::Trace,
    server: rq_sim::NodeId,
    client: rq_sim::NodeId,
    stream: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    for record in &trace.datagrams {
        if (record.from, record.to) != (server, client) {
            continue;
        }
        let mut rest = Bytes::from(record.payload.clone().expect("payloads are captured"));
        while !rest.is_empty() {
            let (pkt, _, _, used) = PlainPacket::decode_with_payload(&rest, 8).unwrap();
            rest = rest.slice(used..);
            for frame in pkt.frames {
                if let Frame::Stream {
                    id, offset, data, ..
                } = frame
                {
                    if id == stream {
                        let end = offset as usize + data.len();
                        body.resize(body.len().max(end), 0);
                        body[offset as usize..end].copy_from_slice(&data);
                    }
                }
            }
        }
    }
    body
}

#[test]
fn a_server_asked_for_alternating_sizes_answers_each_exactly() {
    for http in [HttpVersion::H1, HttpVersion::H3] {
        let mut net = Network::new(true);
        let server_cfg = testbed_server(IACK, rq_tls::CERT_SMALL);
        let server = ServerNode::new(server_cfg, http, SimDuration::ZERO, 1);
        let server = net.add_node(TestbedNode::from(server));
        net.prime();
        // The last two ask for the same size back to back: the one
        // pair the one-slot cache serves from the same storage.
        let sizes = [1000, 2000, 1000, 1000];
        let clients: Vec<_> = (sizes.iter().zip(1u64..))
            .map(|(&size, i)| {
                let cfg = client_by_name("quic-go").unwrap().endpoint_config(http);
                let node = ClientNode::new(cfg, server, http, size, i, false).detached();
                let id = net.add_node(node.into());
                net.connect(id, server, LinkConfig::paper_default(ONE_WAY));
                net.schedule_start(id, SimTime::ZERO + SimDuration::from_millis(100 * i));
                (id, size)
            })
            .collect();
        net.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        for (id, size) in clients {
            let client = net.node(id).and_then(TestbedNode::client).unwrap();
            assert!(client.status.complete_at.is_some(), "{http:?} /{size}");
            let sent = sent_on_stream(&net.trace, server, id, 0);
            assert!(sent[..] == response(http, size)[..], "{http:?} /{size}");
            assert!(sent.ends_with(&h1::body_bytes(size)));
        }
    }
}
