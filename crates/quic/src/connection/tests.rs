use bytes::Bytes;
use rq_sim::SimDuration;
use rq_testkit::prop::cases;
use rq_tls::{initial_keys, seal_tag, verify_tag, KeySide};
use rq_wire::{AckFrame, Frame, PacketSummary, PacketType, MIN_INITIAL_DATAGRAM};

use super::path::{PathState, PATH_CHALLENGE_MAX_RETRIES};
use super::send::pad_client_initial;
use super::*;
use crate::config::{HandshakeAcks, ProbePolicy, INITIAL_MAX_STREAM_DATA};
use crate::streams::id as stream_id;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}
fn at(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}
fn client() -> Connection {
    Connection::client(EndpointConfig::rfc_default(), 1, false)
}

fn server(ack_mode: ServerAckMode) -> Connection {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.ack_mode = ack_mode;
    Connection::server(cfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0))
}

/// Drives both connections through a full handshake with zero network
/// delay and `cert_delay` between CertificateNeeded and readiness.
fn run_handshake(
    client: &mut Connection,
    server: &mut Connection,
    cert_delay: SimDuration,
) -> Vec<(SimTime, &'static str)> {
    run_handshake_recording(client, server, cert_delay, &mut Vec::new())
}

/// [`run_handshake`], appending each datagram to `wire` with the role
/// of its sender, in send order.
fn run_handshake_recording(
    client: &mut Connection,
    server: &mut Connection,
    cert_delay: SimDuration,
    wire: &mut Vec<(Role, Bytes)>,
) -> Vec<(SimTime, &'static str)> {
    let mut timeline = Vec::new();
    let mut now = SimTime::ZERO;
    let mut cert_at: Option<SimTime> = None;
    for _step in 0..400 {
        // Exchange until quiescent at this instant (zero-delay network).
        loop {
            let mut progress = false;
            while let Some(d) = client.poll_transmit(now) {
                server.handle_datagram(now, &d);
                wire.push((Role::Client, d));
                progress = true;
            }
            while let Some(ev) = server.poll_event() {
                if matches!(ev, ConnEvent::CertificateNeeded) {
                    cert_at = Some(now + cert_delay);
                    timeline.push((now, "cert_requested"));
                }
                progress = true;
            }
            if let Some(t) = cert_at {
                if now >= t {
                    server.certificate_ready(now);
                    cert_at = None;
                    timeline.push((now, "cert_ready"));
                    progress = true;
                }
            }
            while let Some(d) = server.poll_transmit(now) {
                client.handle_datagram(now, &d);
                wire.push((Role::Server, d));
                progress = true;
            }
            while let Some(ev) = client.poll_event() {
                match ev {
                    ConnEvent::HandshakeComplete => timeline.push((now, "client_complete")),
                    ConnEvent::HandshakeConfirmed => timeline.push((now, "client_confirmed")),
                    _ => {}
                }
                progress = true;
            }
            if !progress {
                break;
            }
        }
        if client.is_established()
            && server.is_established()
            && cert_at.is_none()
            && client.is_confirmed()
        {
            break;
        }
        // Advance virtual time to the earliest pending timer and fire
        // any due timeouts.
        let next = [client.poll_timeout(), server.poll_timeout(), cert_at]
            .into_iter()
            .flatten()
            .min();
        now = next.map_or(now + ms(1), |t| t.max(now + SimDuration::from_micros(10)));
        if client.poll_timeout().map(|t| t <= now).unwrap_or(false) {
            client.handle_timeout(now);
        }
        if server.poll_timeout().map(|t| t <= now).unwrap_or(false) {
            server.handle_timeout(now);
        }
    }
    timeline
}

#[test]
fn full_handshake_wfc() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    assert!(c.is_established());
    assert!(s.is_established());
    assert!(c.is_confirmed());
    // WFC: no instant ACK anywhere.
    assert_eq!(
        s.log
            .count(|d| matches!(d, EventData::InstantAck { sent: true })),
        0
    );
    // The handshake state, `iack_received` with it, went at confirmation;
    // its setter logs the one `InstantAck { sent: false }`.
    assert_eq!(iacks_received(&c), 0);
}

/// Instant ACKs the client took note of (its `iack_received` flag set).
fn iacks_received(c: &Connection) -> usize {
    c.log
        .count(|d| matches!(d, EventData::InstantAck { sent: false }))
}

#[test]
fn full_handshake_iack() {
    let mut c = client();
    let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    run_handshake(&mut c, &mut s, ms(50));
    assert!(c.is_established());
    assert!(s.is_established());
    assert_eq!(
        s.log
            .count(|d| matches!(d, EventData::InstantAck { sent: true })),
        1
    );
    assert_eq!(iacks_received(&c), 1, "client must see the instant ACK");
}

#[test]
fn iack_gives_client_early_rtt_sample() {
    // With Δt = 50 ms and zero network delay, WFC's first client RTT
    // sample is ~50 ms while IACK's is ~0 ms.
    let mut c1 = client();
    let mut s1 = server(ServerAckMode::WaitForCertificate);
    run_handshake(&mut c1, &mut s1, ms(50));
    let mut c2 = client();
    let mut s2 = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    run_handshake(&mut c2, &mut s2, ms(50));
    let wfc_first = c1
        .log
        .metrics_updates()
        .next()
        .map(|(_, s, _)| s)
        .expect("wfc client has a sample");
    let iack_first = c2
        .log
        .metrics_updates()
        .next()
        .map(|(_, s, _)| s)
        .expect("iack client has a sample");
    assert!(
        wfc_first >= 50.0,
        "WFC first sample inflated by Δt, got {wfc_first}"
    );
    assert!(
        iack_first < 10.0,
        "IACK first sample near true RTT, got {iack_first}"
    );
}

#[test]
fn tampered_handshake_datagram_is_dropped_and_original_still_accepted() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    let now = SimTime::ZERO;
    let hello = c.poll_transmit(now).expect("client hello");
    s.handle_datagram(now, &hello);
    s.certificate_ready(now);
    while s.poll_event().is_some() {}
    // First datagram: ServerHello + start of the Handshake flight; it
    // gives the client its Handshake keys.
    let first = s.poll_transmit(now).expect("server flight");
    c.handle_datagram(now, &first);
    while c.poll_event().is_some() {}
    let sealed = std::iter::from_fn(|| s.poll_transmit(now))
        .find(|d| {
            let info = rq_wire::classify_datagram(d, 8).unwrap();
            info.packets.iter().all(|p| p.ty == PacketType::Handshake)
        })
        .expect("a Handshake-only datagram");
    let (_, payload, _, used) = PlainPacket::decode_with_payload(&sealed, 8).unwrap();
    let payload_mid = used - rq_wire::AEAD_TAG_LEN - payload.len() / 2;
    let before = c.stats().packets_opened;
    for flip_at in [payload_mid, used - 1] {
        let mut bad = sealed.to_vec();
        bad[flip_at] ^= 0x01;
        // Still well-formed: only the tag check can reject it.
        assert!(PlainPacket::decode(&bad, 8).is_ok(), "byte {flip_at}");
        c.handle_datagram(now, &bad);
        assert_eq!(c.stats().packets_opened, before, "byte {flip_at}");
        assert!(c.poll_event().is_none(), "byte {flip_at}");
    }
    c.handle_datagram(now, &sealed);
    assert!(c.stats().packets_opened[1] > before[1]);
}

/// An Initial packet from the client's address with `payload` as its
/// frame bytes, correctly tagged: Initial keys derive from the DCID on
/// the wire, so anyone who saw the first datagram can mint one.
fn forged_initial(original_dcid: ConnectionId, pn: u64, payload: &[u8]) -> Vec<u8> {
    let keys = initial_keys(original_dcid.as_slice());
    let header = Header::initial(
        original_dcid,
        derived_cid(1, CID_KIND_CLIENT, 0),
        vec![],
        pn,
    );
    let shell = PlainPacket::new(header, vec![Frame::Padding { len: payload.len() }]).unwrap();
    let mut datagram = vec![0; shell.encoded_len()];
    shell
        .encode_sealed(&mut datagram, |_| {
            seal_tag(keys.for_side(KeySide::Client), pn, payload)
        })
        .unwrap();
    let payload_at = datagram.len() - rq_wire::AEAD_TAG_LEN - payload.len();
    datagram[payload_at..payload_at + payload.len()].copy_from_slice(payload);
    datagram
}

#[test]
fn forged_initial_with_hostile_ack_changes_nothing() {
    let max = [0xffu8; 8];
    // A 62-bit range count, and one range over every packet number.
    let huge_count = [&[0x02, 0x00, 0x00][..], &max, &[0x00]].concat();
    let whole_space = [&[0x02][..], &max, &[0x00, 0x00], &max].concat();
    for (pn, payload) in [(7, huge_count), (8, whole_space)] {
        let mut c = client();
        let mut s = server(ServerAckMode::WaitForCertificate);
        let now = SimTime::ZERO;
        let hello = c.poll_transmit(now).expect("client hello");
        s.handle_datagram(now, &hello);
        s.certificate_ready(now);
        while s.poll_event().is_some() {}
        while s.poll_transmit(now).is_some() {}
        let recovery_state = |s: &Connection| {
            (
                s.spaces().map(|sp| sp.sent().tracked()).collect::<Vec<_>>(),
                s.spaces()
                    .map(|sp| sp.sent().bytes_in_flight())
                    .collect::<Vec<_>>(),
                s.space(0).map(|sp| sp.sent().largest_acked),
                s.cc.bytes_in_flight(),
                s.rtt.sample_count(),
                s.new_ack_packets,
                s.poll_timeout(),
            )
        };
        let before = recovery_state(&s);
        assert!(before.0[0] > 0, "the ServerHello is in flight");
        let forged = forged_initial(s.original_dcid(), pn, &payload);
        // The tag is good: only what the frame says can stop it.
        let tag = forged[forged.len() - rq_wire::AEAD_TAG_LEN..]
            .try_into()
            .unwrap();
        let keys = initial_keys(s.original_dcid().as_slice());
        assert!(verify_tag(
            keys.for_side(KeySide::Client),
            pn,
            &payload,
            &tag
        ));
        s.handle_datagram(at(1), &forged);
        assert_eq!(recovery_state(&s), before, "pn {pn}");
        assert!(!s.is_closed() && s.poll_event().is_none(), "pn {pn}");
    }
}

#[test]
fn server_amplification_limit_enforced_with_large_cert() {
    let mut c = client();
    let cfg = EndpointConfig {
        cert_len: rq_tls::CERT_LARGE,
        ack_mode: ServerAckMode::WaitForCertificate,
        ..EndpointConfig::rfc_default()
    };
    let mut s = Connection::server(cfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
    let ch = c.poll_transmit(at(0)).unwrap();
    let ch_len = ch.len();
    s.handle_datagram(at(0), &ch);
    while let Some(ev) = s.poll_event() {
        if matches!(ev, ConnEvent::CertificateNeeded) {
            s.certificate_ready(at(0));
        }
    }
    let mut sent = 0;
    while let Some(d) = s.poll_transmit(at(1)) {
        sent += d.len();
    }
    assert!(sent <= 3 * ch_len, "server sent {sent} > 3x{ch_len}");
    // The server must be blocked with data still pending.
    assert!(
        s.wants_to_send(),
        "large cert cannot fit the amplification budget"
    );
    assert!(
        s.log
            .count(|d| matches!(d, EventData::AmplificationBlocked { .. }))
            > 0
    );
}

#[test]
fn client_pto_fires_and_probes() {
    let mut c = client();
    let d = c.poll_transmit(at(0)).unwrap();
    let _ = d;
    // No response: the client's (default 1000 ms) PTO must be armed.
    let deadline = c.poll_timeout().expect("pto armed");
    assert_eq!(deadline.as_millis_f64(), 1000.0);
    c.handle_timeout(deadline);
    // Probe datagram (PING, padded Initial).
    let probe = c.poll_transmit(deadline).expect("probe after pto");
    assert!(probe.len() >= MIN_INITIAL_DATAGRAM);
    // Backoff doubled.
    let second = c.poll_timeout().expect("pto rearmed");
    assert!(second.since(deadline).as_millis_f64() >= 2000.0);
}

#[test]
fn pto_probe_policy_retransmit_client_hello() {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.probe_policy = ProbePolicy::RetransmitOldest;
    let mut c = Connection::client(cfg, 1, false);
    let first = c.poll_transmit(at(0)).unwrap();
    let deadline = c.poll_timeout().unwrap();
    c.handle_timeout(deadline);
    let probe = c.poll_transmit(deadline).unwrap();
    // The probe datagram must carry CRYPTO (the ClientHello), like the
    // first flight, not merely a PING.
    let info = rq_wire::classify_datagram(&probe, 8).unwrap();
    assert!(info
        .packets
        .iter()
        .any(|p| p.space == PacketNumberSpace::Initial && p.crypto_bytes > 0));
    let _ = first;
}

#[test]
fn quirk_no_probe_after_iack_suppresses_deadlock_pto() {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.quirks.no_probe_after_iack = true;
    let mut c = Connection::client(cfg, 1, false);
    let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    let ch = c.poll_transmit(at(0)).unwrap();
    s.handle_datagram(at(0), &ch);
    while let Some(ev) = s.poll_event() {
        let _ = ev; // CertificateNeeded — deliberately never fulfilled
    }
    let iack = s.poll_transmit(at(1)).expect("instant ack");
    c.handle_datagram(at(1), &iack);
    // CH is acked, handshake unconfirmed: a normal client re-arms a
    // sample-based (tiny) deadlock PTO; the quirky client keeps its
    // *default* PTO from the ClientHello send instead — the IACK does
    // not cause (earlier) probe packets.
    let deadline = c.poll_timeout().expect("default PTO still armed");
    assert_eq!(
        deadline.as_millis_f64(),
        1000.0,
        "quirky client keeps the default PTO armed at the CH send"
    );
}

#[test]
fn normal_client_arms_deadlock_pto_after_iack() {
    let mut c = client();
    let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    let ch = c.poll_transmit(at(0)).unwrap();
    s.handle_datagram(at(0), &ch);
    while s.poll_event().is_some() {}
    let iack = s.poll_transmit(at(1)).expect("instant ack");
    c.handle_datagram(at(1), &iack);
    let deadline = c.poll_timeout().expect("deadlock PTO armed");
    // PTO from the IACK RTT sample (~1 ms) is far below the 1 s default.
    assert!(deadline.as_millis_f64() < 50.0, "deadline {deadline}");
}

#[test]
fn padded_iack_consumes_more_budget() {
    let mut c = client();
    let ch = c.poll_transmit(at(0)).unwrap();
    let mut s1 = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    s1.handle_datagram(at(0), &ch);
    while s1.poll_event().is_some() {}
    let small = s1.poll_transmit(at(0)).unwrap();
    let mut c2 = Connection::client(EndpointConfig::rfc_default(), 1, false);
    let ch2 = c2.poll_transmit(at(0)).unwrap();
    let mut s2 = server(ServerAckMode::InstantAck { pad_to_mtu: true });
    s2.handle_datagram(at(0), &ch2);
    while s2.poll_event().is_some() {}
    let padded = s2.poll_transmit(at(0)).unwrap();
    assert!(
        small.len() < 100,
        "unpadded IACK is tiny, got {}",
        small.len()
    );
    assert_eq!(padded.len(), MIN_INITIAL_DATAGRAM);
}

#[test]
fn stream_data_flows_after_handshake() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    c.send_stream_data(
        stream_id::CLIENT_BIDI_0,
        b"GET /index.html HTTP/1.1\r\n\r\n",
        true,
    );
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    // Server must have received the request (events were drained by the
    // helper, so inspect the stream state directly).
    let delivered = s
        .streams
        .recv
        .get(stream_id::CLIENT_BIDI_0)
        .map(|r| r.delivered)
        .unwrap_or(0);
    assert!(
        delivered > 0,
        "server received the HTTP request in flight 2"
    );
}

#[test]
fn conn_stats_count_handshake_traffic() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    let (cs, ss) = (c.stats(), s.stats());
    // Zero-loss handshake: every sealed packet is opened by the peer.
    assert_eq!(cs.packets_sealed, ss.packets_opened);
    assert_eq!(ss.packets_sealed, cs.packets_opened);
    assert!(cs.packets_sealed.iter().sum::<u64>() > 0);
    assert_eq!(cs.packets_lost, 0);
    assert_eq!(cs.pto_expirations, 0);
    // The stats snapshot exports and merges like a monoid.
    let mut merged = ConnStats::default();
    merged.merge(&cs);
    merged.merge(&ss);
    let mut reg = rq_obs::Registry::default();
    merged.export(Role::Client, &mut reg);
    assert_eq!(
        reg.counter("quic/client/packets_sealed/initial"),
        cs.packets_sealed[0] + ss.packets_sealed[0]
    );
    ss.export(Role::Server, &mut reg);
    assert_eq!(
        reg.counter("quic/server/packets_opened/app"),
        ss.packets_opened[2]
    );
    assert_eq!(reg.len(), 22);
}

#[test]
fn metrics_sampled_gated_off_by_default_and_throttled_when_on() {
    // Default config: no metrics_sampled events anywhere.
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, &[0x5A; 4096], true);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    let sampled = |conn: &Connection| {
        conn.log
            .count(|d| matches!(d, EventData::MetricsSampled { .. }))
    };
    assert_eq!(sampled(&c) + sampled(&s), 0);

    // Enabled: samples appear in the data phase, at most one per
    // cadence window.
    let mut cfg = EndpointConfig::rfc_default();
    cfg.metrics_sample_every = Some(ms(10));
    let mut c = Connection::client(cfg, 1, false);
    let mut s = server(ServerAckMode::WaitForCertificate);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, &[0x5A; 4096], true);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    assert!(sampled(&c) > 0, "client samples metrics while enabled");
    let times: Vec<f64> = c
        .log
        .events
        .iter()
        .filter(|e| matches!(e.data, EventData::MetricsSampled { .. }))
        .map(|e| e.time_ms)
        .collect();
    for w in times.windows(2) {
        assert!(w[1] - w[0] >= 10.0, "samples respect the cadence");
    }
}

#[test]
fn flight2_layouts_produce_expected_datagram_counts() {
    for (layout, expected) in [(1usize, 1usize), (2, 2), (3, 3), (4, 4)] {
        let mut cfg = EndpointConfig::rfc_default();
        cfg.flight2_datagrams = layout;
        let mut c = Connection::client(cfg, 1, false);
        let mut s = server(ServerAckMode::WaitForCertificate);
        c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET / HTTP/1.1\r\n\r\n", true);
        // First flight out, server flight back, all at t=0.
        let ch = c.poll_transmit(at(0)).unwrap();
        s.handle_datagram(at(0), &ch);
        while let Some(ev) = s.poll_event() {
            if matches!(ev, ConnEvent::CertificateNeeded) {
                s.certificate_ready(at(0));
            }
        }
        while let Some(d) = s.poll_transmit(at(0)) {
            c.handle_datagram(at(0), &d);
        }
        assert!(c.is_established());
        let mut flight2 = Vec::new();
        while let Some(d) = c.poll_transmit(at(1)) {
            flight2.push(d);
        }
        assert_eq!(
            flight2.len(),
            expected,
            "layout {layout} produced {} datagrams",
            flight2.len()
        );
    }
}

#[test]
fn connection_close_propagates() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    c.close(at(500), 0x42, "done", true);
    let d = c.poll_transmit(at(500)).expect("close datagram");
    s.handle_datagram(at(500), &d);
    let mut closed = false;
    while let Some(ev) = s.poll_event() {
        if let ConnEvent::Closed { error_code, .. } = ev {
            assert_eq!(error_code, 0x42);
            closed = true;
        }
    }
    assert!(closed);
    assert!(s.is_closed());
}

#[test]
fn quiche_drops_coalesced_ping_reply_datagram() {
    // Build a quiche-like client, make it send a PING probe, then hand
    // it a datagram whose leading Initial packet acks that PING *and*
    // coalesces further packets: the whole datagram must be discarded
    // ("drops replies to PING frames as invalid together with
    // coalesced packets", §4.1).
    let mut cfg = EndpointConfig::rfc_default();
    cfg.quirks.drop_ping_reply_coalesced = true;
    let mut c = Connection::client(cfg, 1, false);
    let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    let ch = c.poll_transmit(at(0)).unwrap();
    s.handle_datagram(at(0), &ch);
    while s.poll_event().is_some() {}
    let iack = s.poll_transmit(at(0)).unwrap();
    c.handle_datagram(at(1), &iack);
    assert!(c.handshake.as_ref().is_some_and(|hs| hs.iack_received));
    // Client probes (PING) after its tiny IACK-derived PTO.
    let pto = c.poll_timeout().unwrap();
    c.handle_timeout(pto);
    let probe = c.poll_transmit(pto).unwrap();
    s.handle_datagram(pto, &probe);
    // Release the certificate now: the server's next datagram coalesces
    // Initial ACK(ping)+SH with handshake packets.
    s.certificate_ready(pto);
    let flight = s.poll_transmit(pto).expect("coalesced flight");
    let info = rq_wire::classify_datagram(&flight, 8).unwrap();
    assert!(info.packets.len() > 1, "flight must be coalesced");
    assert!(info.packets[0].has_ack, "leading Initial acks the ping");
    let received_before = c
        .log
        .count(|d| matches!(d, EventData::PacketReceived { .. }));
    c.handle_datagram(pto + ms(5), &flight);
    let received_after = c
        .log
        .count(|d| matches!(d, EventData::PacketReceived { .. }));
    assert_eq!(
        received_before, received_after,
        "quiche must drop the entire coalesced ping-reply datagram"
    );
    // A well-behaved client processes the same datagram fine.
    let mut ok = Connection::client(EndpointConfig::rfc_default(), 1, false);
    let mut s2 = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    let ch2 = ok.poll_transmit(at(0)).unwrap();
    s2.handle_datagram(at(0), &ch2);
    while s2.poll_event().is_some() {}
    let iack2 = s2.poll_transmit(at(0)).unwrap();
    ok.handle_datagram(at(1), &iack2);
    let pto2 = ok.poll_timeout().unwrap();
    ok.handle_timeout(pto2);
    let probe2 = ok.poll_transmit(pto2).unwrap();
    s2.handle_datagram(pto2, &probe2);
    s2.certificate_ready(pto2);
    let flight2 = s2.poll_transmit(pto2).unwrap();
    let before = ok
        .log
        .count(|d| matches!(d, EventData::PacketReceived { .. }));
    ok.handle_datagram(pto2 + ms(5), &flight2);
    let after = ok
        .log
        .count(|d| matches!(d, EventData::PacketReceived { .. }));
    assert!(after > before, "well-behaved client processes the flight");
}

/// Zero-delay exchange loop capturing any ticket the client receives.
fn exchange_until_quiet(
    c: &mut Connection,
    s: &mut Connection,
    now: SimTime,
) -> Option<rq_tls::SessionTicket> {
    let mut ticket = None;
    loop {
        let mut progress = false;
        while let Some(d) = c.poll_transmit(now) {
            s.handle_datagram(now, &d);
            progress = true;
        }
        while let Some(ev) = s.poll_event() {
            if matches!(ev, ConnEvent::CertificateNeeded) {
                s.certificate_ready(now);
            }
            progress = true;
        }
        while let Some(d) = s.poll_transmit(now) {
            c.handle_datagram(now, &d);
            progress = true;
        }
        while let Some(ev) = c.poll_event() {
            if let ConnEvent::TicketReceived(t) = ev {
                ticket = Some(t);
            }
            progress = true;
        }
        if !progress {
            break;
        }
    }
    ticket
}

/// Mints a ticket through a full priming handshake against a
/// ticket-issuing server sharing `server_cfg`.
fn mint_ticket_via_priming(server_cfg: &EndpointConfig) -> rq_tls::SessionTicket {
    let mut c = client();
    let mut s = Connection::server(
        server_cfg.clone(),
        2,
        derived_cid(1, CID_KIND_ORIGINAL_DCID, 0),
    );
    let ticket = exchange_until_quiet(&mut c, &mut s, at(0));
    assert!(c.is_established() && !c.is_resumed());
    ticket.expect("priming connection must yield a ticket")
}

fn resuming_server_cfg(accept_early: bool) -> EndpointConfig {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.ack_mode = ServerAckMode::WaitForCertificate;
    cfg.resumption = if accept_early {
        rq_tls::ServerResumption::accepting(7200)
    } else {
        rq_tls::ServerResumption::rejecting_early_data(7200)
    };
    cfg
}

#[test]
fn zero_rtt_request_delivered_before_handshake_completes() {
    let server_cfg = resuming_server_cfg(true);
    let ticket = mint_ticket_via_priming(&server_cfg);

    let mut cfg = EndpointConfig::rfc_default();
    cfg.resume = rq_tls::ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    };
    let mut c = Connection::client(cfg, 1, false);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET / HTTP/1.1\r\n\r\n", true);
    let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));

    // The first flight carries Initial(CH) coalesced with a 0-RTT
    // packet carrying the request.
    let first = c.poll_transmit(at(0)).expect("first flight");
    let info = rq_wire::classify_datagram(&first, 8).unwrap();
    assert!(info
        .packets
        .iter()
        .any(|p| p.ty == rq_wire::PacketType::ZeroRtt));
    assert!(first.len() >= MIN_INITIAL_DATAGRAM);
    s.handle_datagram(at(0), &first);
    // The server delivers the early request before any return flight
    // and without ever asking for the certificate.
    let mut got_request = false;
    let mut cert_needed = false;
    while let Some(ev) = s.poll_event() {
        match ev {
            ConnEvent::StreamData { id, data, .. } => {
                got_request |= id == stream_id::CLIENT_BIDI_0 && !data.is_empty();
            }
            ConnEvent::CertificateNeeded => cert_needed = true,
            _ => {}
        }
    }
    assert!(got_request, "0-RTT request delivered from the first flight");
    assert!(!cert_needed, "resumed handshakes skip the cert store");
    assert_eq!(s.early_data_accepted(), Some(true));

    // Finish the handshake: both sides resumed, early data accepted.
    exchange_until_quiet(&mut c, &mut s, at(1));
    assert!(c.is_established() && s.is_established());
    assert!(c.is_resumed() && s.is_resumed());
    assert_eq!(c.early_data_accepted(), Some(true));
}

#[test]
fn rejected_early_data_is_retransmitted_as_one_rtt() {
    let server_cfg = resuming_server_cfg(false);
    let ticket = mint_ticket_via_priming(&server_cfg);

    let mut cfg = EndpointConfig::rfc_default();
    cfg.resume = rq_tls::ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    };
    let mut c = Connection::client(cfg, 1, false);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET / HTTP/1.1\r\n\r\n", true);
    let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));

    exchange_until_quiet(&mut c, &mut s, at(0));
    assert!(c.is_established() && c.is_resumed());
    assert_eq!(c.early_data_accepted(), Some(false));
    assert_eq!(s.early_data_accepted(), Some(false));
    // The server still received the whole request — resent under
    // 1-RTT keys after the reject.
    let delivered = s
        .streams
        .recv
        .get(stream_id::CLIENT_BIDI_0)
        .map(|r| r.delivered)
        .unwrap_or(0);
    assert_eq!(delivered as usize, b"GET / HTTP/1.1\r\n\r\n".len());
}

#[test]
fn resumed_handshake_without_early_data_still_abbreviated() {
    let server_cfg = resuming_server_cfg(true);
    let ticket = mint_ticket_via_priming(&server_cfg);
    let mut cfg = EndpointConfig::rfc_default();
    cfg.resume = rq_tls::ClientConfig {
        ticket: Some(ticket),
        early_data: false,
    };
    let mut c = Connection::client(cfg, 1, false);
    let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
    let fresh = exchange_until_quiet(&mut c, &mut s, at(0));
    assert!(c.is_resumed() && s.is_resumed());
    assert_eq!(c.early_data_accepted(), None, "early data never offered");
    assert!(fresh.is_some(), "resumed handshakes re-issue tickets");
}

#[test]
fn ticket_from_wrong_server_key_falls_back_to_full_handshake() {
    let server_cfg = resuming_server_cfg(true);
    let mut ticket = mint_ticket_via_priming(&server_cfg);
    // The same secret, sealed by a server with another key.
    ticket.ticket = rq_tls::mint_ticket(rq_tls::TICKET_KEY ^ 0xDEAD, &ticket.secret);
    let mut cfg = EndpointConfig::rfc_default();
    cfg.resume = rq_tls::ClientConfig {
        ticket: Some(ticket),
        early_data: true,
    };
    let mut c = Connection::client(cfg, 1, false);
    let mut s = Connection::server(server_cfg, 3, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
    exchange_until_quiet(&mut c, &mut s, at(0));
    assert!(c.is_established() && s.is_established());
    assert!(!c.is_resumed() && !s.is_resumed());
    assert_eq!(c.early_data_accepted(), Some(false));
}

#[test]
fn server_rtt_sample_absent_under_iack_before_handshake_ack() {
    // The Figure 6 mechanic: the IACK is not ack-eliciting, so the
    // server holds no RTT sample until the client acks a CRYPTO packet.
    let mut c = client();
    let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    let ch = c.poll_transmit(at(0)).unwrap();
    s.handle_datagram(at(5), &ch);
    while let Some(ev) = s.poll_event() {
        let _ = ev;
    }
    let iack = s.poll_transmit(at(5)).unwrap();
    c.handle_datagram(at(10), &iack);
    // Client probes after its (now tiny) PTO; server receives the PING
    // and still has no RTT sample: pure ACKs acked give none.
    let pto = c.poll_timeout().unwrap();
    c.handle_timeout(pto);
    let probe = c.poll_transmit(pto).unwrap();
    s.handle_datagram(pto + ms(5), &probe);
    assert_eq!(
        s.rtt().sample_count(),
        0,
        "server must have no RTT sample under IACK"
    );
}

/// Every live connection pays this size, so a change that moves it says
/// so here (x86_64): 288 bytes of it are the first entries the stream
/// tables and the Application space's tables hold inline.
#[cfg(target_arch = "x86_64")]
#[test]
fn connection_size_is_pinned() {
    assert_eq!(std::mem::size_of::<Connection>(), 2168);
}

/// Both endpoints' handshake state: present until confirmation, gone
/// after, and `is_confirmed` says which.
fn assert_confirmed_iff_forgotten(c: &Connection, s: &Connection, confirmed: bool) {
    for conn in [c, s] {
        assert_eq!(conn.is_confirmed(), confirmed, "{:?}", conn.role());
        assert_eq!(conn.handshake.is_none(), confirmed, "{:?}", conn.role());
        assert_eq!(conn.spaces().count(), if confirmed { 1 } else { 3 });
        let confirmations = conn.log.count(|d| *d == EventData::HandshakeConfirmed);
        assert_eq!(confirmations, usize::from(confirmed), "{:?}", conn.role());
    }
}

#[test]
fn confirmation_drops_the_handshake_state_on_both_sides() {
    for ack_mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        let mut c = client();
        let mut s = server(ack_mode);
        assert_confirmed_iff_forgotten(&c, &s, false);
        run_handshake(&mut c, &mut s, ms(20));
        assert_confirmed_iff_forgotten(&c, &s, true);
        // A late Initial packet finds its space gone and changes nothing.
        let before = (s.log.events.len(), s.stats());
        let stale = forged_initial(s.original_dcid(), 9, &[0x01]);
        s.handle_datagram(at(500), &stale);
        assert_eq!((s.log.events.len(), s.stats()), before);
    }
}

#[test]
fn handshake_space_ack_leaves_before_the_state_goes() {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.handshake_acks = HandshakeAcks::Handshake(SimDuration::ZERO);
    let mut c = client();
    let mut s = Connection::server(cfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
    let mut wire = Vec::new();
    run_handshake_recording(&mut c, &mut s, ms(20), &mut wire);
    assert_confirmed_iff_forgotten(&c, &s, true);
    // The server's last Handshake-space packet is the pure ACK of the
    // client Finished, sent at confirmation; the client reads it.
    let server_sent = packets_on_wire(&wire, Role::Server);
    let only_acks = |pn| sent_as(&server_sent, PacketNumberSpace::Handshake, pn).ack_only;
    let last_sent = s.log.events.iter().rev().find_map(|e| match &e.data {
        EventData::PacketSent {
            space: SpaceName::Handshake,
            pn,
            ..
        } => Some((e.time_ms, only_acks(*pn))),
        _ => None,
    });
    let confirmed_at = s.log.first(|d| *d == EventData::HandshakeConfirmed);
    assert_eq!(last_sent, confirmed_at.map(|e| (e.time_ms, true)));
    let acks_read = c.log.count(|d| match d {
        EventData::PacketReceived {
            space: SpaceName::Handshake,
            pn,
            ..
        } => only_acks(*pn),
        _ => false,
    });
    assert_eq!(acks_read, 1);
}

/// What `by` sent in `wire`, decoded packet by packet, in send order:
/// the qlog records packet numbers, the wire what the packets carried.
fn packets_on_wire(wire: &[(Role, Bytes)], by: Role) -> Vec<PacketSummary> {
    let sent = wire.iter().filter(|(from, _)| *from == by);
    let decode = |(_, d): &(Role, Bytes)| rq_wire::classify_datagram(d, 8).unwrap().packets;
    sent.flat_map(decode).collect()
}

/// The packet numbered `pn` in `space` among `packets`.
fn sent_as(packets: &[PacketSummary], space: PacketNumberSpace, pn: u64) -> &PacketSummary {
    let found = packets.iter().find(|p| p.space == space && p.pn == pn);
    found.unwrap_or_else(|| panic!("{space:?} packet {pn} is not on the wire"))
}

#[test]
fn retry_handshake_confirms_and_forgets() {
    let mut c = client();
    let mut s = server(ServerAckMode::InstantAck { pad_to_mtu: false });
    s.use_retry = true;
    assert_confirmed_iff_forgotten(&c, &s, false);
    let mut wire = Vec::new();
    run_handshake_recording(&mut c, &mut s, ms(20), &mut wire);
    assert!(c.is_established() && s.is_established());
    assert_confirmed_iff_forgotten(&c, &s, true);
    // The client restarted its Initial space once, on the Retry, and sent
    // its ClientHello again; its packet numbers carried on (RFC 9000
    // §17.2.5.3): packet 0 went out once, and the numbers only grow.
    let client_sent = packets_on_wire(&wire, Role::Client);
    let initial: Vec<(u64, bool)> = c
        .log
        .events
        .iter()
        .filter_map(|e| match &e.data {
            EventData::PacketSent {
                space: SpaceName::Initial,
                pn,
                ..
            } => {
                let on_wire = sent_as(&client_sent, PacketNumberSpace::Initial, *pn);
                Some((*pn, on_wire.crypto_bytes > 0))
            }
            _ => None,
        })
        .collect();
    let hellos = initial.iter().filter(|(_, crypto)| *crypto).count();
    assert_eq!(hellos, 2, "{initial:?}");
    assert_eq!(initial.iter().filter(|(pn, _)| *pn == 0).count(), 1);
    assert!(initial.windows(2).all(|w| w[0].0 < w[1].0), "{initial:?}");
}

include!("path/tests.rs");
include!("send/tests.rs");
