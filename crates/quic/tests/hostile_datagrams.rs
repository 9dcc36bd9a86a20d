//! Hostile datagrams at the connection level: tampered packets fail
//! closed.
//!
//! One client/server pair runs its handshake on a zero-delay path, and
//! every datagram is captured with its receiver's counters. The pair then
//! runs again from the same seeds, and before each datagram reaches its
//! receiver, every packet in it is fed to that receiver alone: first with
//! one bit flipped in its protected payload, then cut short by 1 to 16
//! bytes. Each must be dropped: no panic, no packet counted as opened, no
//! event. The rerun must then match the capture datagram for datagram,
//! counters included, so the untouched datagrams still complete the
//! handshake and the hostile ones changed nothing.
//!
//! A replayed datagram fails closed too: delivered a second time straight
//! after the first, each of its packets is a duplicate that opens no new
//! state, and the handshake still confirms at both ends.
//!
//! So does a Retry that comes after the server has spoken: once the
//! client has processed a server Initial or a Retry, it discards any later
//! Retry (RFC 9000 §17.2.5.2), and the handshake goes on as if none came.
//!
//! So does a correctly sealed packet whose ACK frame lies, in any space:
//! one acknowledging packet numbers never sent, and one whose range count
//! runs past the end of its datagram.
//!
//! Packets coalesced out of space order still open, a later space's kept
//! until the packet ahead of it in the datagram brings its keys, and a
//! packet coalesced behind one for another connection ID opens nothing.
//!
//! After confirmation, a correctly sealed PATH_CHALLENGE from a path the
//! client never used moves the server nowhere, draws nothing onto that
//! path, and the transfer on the real path completes.

use std::collections::BTreeMap;

use rq_qlog::EventData;
use rq_quic::bytestream::Reassembler;
use rq_quic::{
    stateless_retry_datagram, ConnEvent, ConnStats, Connection, EndpointConfig, Role, ServerAckMode,
};
use rq_sim::{SimDuration, SimRng, SimTime, Spares};
use rq_tls::mac::{mac, DIGEST_LEN};
use rq_tls::{application_keys, handshake_keys, initial_keys, seal_tag, KeySide};
use rq_wire::{
    AckFrame, Bytes, ConnectionId, Frame, Header, PacketType, PlainPacket, AEAD_TAG_LEN,
};

/// One delivered datagram: whether it went to the server, its bytes, and
/// its receiver's counters right after it.
type Delivery = (bool, Bytes, ConnStats);

/// A hook on each delivery: the receiver, the time and the datagram.
type Hook<'a> = &'a mut dyn FnMut(&mut Connection, SimTime, &Bytes);

/// Runs one pair's handshake to confirmation at both ends, the client
/// sending `request` on stream 0 with its second flight, handing
/// `before` each datagram's receiver and bytes just before the datagram
/// itself is delivered and `after` them once its events are drained.
fn handshake(mode: ServerAckMode, request: &[u8], before: Hook, after: Hook) -> Vec<Delivery> {
    handshake_with(mode, false, request, before, after)
}

/// [`handshake`], the server first demanding a Retry round trip if
/// `use_retry`.
fn handshake_with(
    mode: ServerAckMode,
    use_retry: bool,
    request: &[u8],
    before: Hook,
    after: Hook,
) -> Vec<Delivery> {
    let mut cfg = EndpointConfig::rfc_default();
    // Every ACK processed logs the bytes in flight.
    cfg.metrics_sample_every = Some(SimDuration::ZERO);
    let mut c = Connection::client(cfg.clone(), 1, false);
    if !request.is_empty() {
        c.send_stream_data(0, request, true);
    }
    cfg.ack_mode = mode;
    let mut s = Connection::server(cfg, 2, c.original_dcid());
    s.use_retry = use_retry;
    let mut now = SimTime::ZERO;
    let mut log = Vec::new();
    for _ in 0..100 {
        if c.is_confirmed() && s.is_confirmed() {
            return log;
        }
        let mut idle = true;
        for to_server in [true, false] {
            let (from, to) = if to_server {
                (&mut c, &mut s)
            } else {
                (&mut s, &mut c)
            };
            while let Some(datagram) = from.poll_transmit(now) {
                before(to, now, &datagram);
                to.handle_datagram(now, &datagram);
                while let Some(ev) = to.poll_event() {
                    if ev == ConnEvent::CertificateNeeded {
                        to.certificate_ready(now);
                    }
                }
                after(to, now, &datagram);
                log.push((to_server, datagram, to.stats()));
                idle = false;
            }
        }
        if idle {
            now = [c.poll_timeout(), s.poll_timeout()]
                .into_iter()
                .flatten()
                .min()
                .expect("an unconfirmed pair has a timer armed");
            for conn in [&mut c, &mut s] {
                if conn.poll_timeout().is_some_and(|t| t <= now) {
                    conn.handle_timeout(now);
                }
            }
        }
    }
    panic!("no confirmed handshake after 100 rounds");
}

/// Feeds `to` every packet of `datagram` alone, once with a bit of its
/// protected payload flipped and then cut short by 1 to 16 bytes, and
/// checks that each is dropped.
fn feed_tampered(to: &mut Connection, now: SimTime, datagram: &Bytes, rng: &mut SimRng) {
    let mut rest = datagram.clone();
    while let Ok((_, payload, _, used)) = PlainPacket::decode_with_payload(&rest, 8) {
        let packet = rest.slice(..used);
        rest = rest.slice(used..);
        // The protected payload is the frames and the tag after them.
        let protected = payload.len() + AEAD_TAG_LEN;
        let bit = rng.gen_range(protected as u64 * 8) as usize;
        let mut flipped = packet.to_vec();
        flipped[used - protected + bit / 8] ^= 1 << (bit % 8);
        let cut = (1..=16).map(|k| &packet[..used - k]);
        for bad in std::iter::once(&flipped[..]).chain(cut) {
            let opened = to.stats().packets_opened;
            to.handle_datagram(now, bad);
            assert_eq!(to.stats().packets_opened, opened, "{} bytes", bad.len());
            assert_eq!(to.poll_event(), None, "{} bytes", bad.len());
        }
    }
}

#[test]
fn tampered_handshake_packets_are_dropped_and_change_nothing() {
    for mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        let capture = handshake(mode, &[], &mut |_, _, _| {}, &mut |_, _, _| {});
        let mut rng = SimRng::new(0x7A3F);
        let mut tamper =
            |to: &mut Connection, now, datagram: &Bytes| feed_tampered(to, now, datagram, &mut rng);
        let rerun = handshake(mode, &[], &mut tamper, &mut |_, _, _| {});
        assert!(capture.len() >= 4, "{mode:?}: {} datagrams", capture.len());
        for (i, (want, got)) in capture.iter().zip(&rerun).enumerate() {
            assert_eq!(want, got, "{mode:?}, datagram {i}");
        }
        assert_eq!(capture.len(), rerun.len(), "{mode:?}");
    }
}

/// Delivers `datagram` to `to` a second time and checks that it opens
/// nothing: no packet counted as opened, no event, no stream byte
/// delivered again and nothing logged — so no ACK processed, and no
/// bytes in flight changed, since every processed ACK logs them.
fn replay(to: &mut Connection, now: SimTime, datagram: &Bytes) {
    let opened = to.stats().packets_opened;
    let (delivered, logged) = (to.streams.data_recvd, to.log.events.len());
    to.handle_datagram(now, datagram);
    let what = format!("{:?} replayed {} bytes", to.role(), datagram.len());
    assert_eq!(to.stats().packets_opened, opened, "{what}");
    assert_eq!(to.poll_event(), None, "{what}");
    assert_eq!(to.streams.data_recvd, delivered, "{what}");
    assert_eq!(to.log.events.len(), logged, "{what}");
}

#[test]
fn replayed_handshake_datagrams_open_no_new_state() {
    let request = [0x52; 300];
    for mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        let mut request_bytes = 0;
        let mut replayed = |to: &mut Connection, now, datagram: &Bytes| {
            replay(to, now, datagram);
            if to.role() == rq_quic::Role::Server {
                request_bytes = to.streams.data_recvd;
            }
        };
        // `handshake` returns once both ends have confirmed.
        let run = handshake(mode, &request, &mut |_, _, _| {}, &mut replayed);
        assert!(run.len() >= 4, "{mode:?}: {} datagrams", run.len());
        assert_eq!(request_bytes, request.len() as u64, "{mode:?}");
    }
}

#[test]
fn a_retry_after_the_server_has_spoken_changes_nothing() {
    for mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        // The client's first datagram from the server is its first
        // Initial (an ACK, with the ServerHello under WFC), or a genuine
        // Retry; a second Retry from another server CID follows it.
        for use_retry in [false, true] {
            let noop = || |_: &mut Connection, _: SimTime, _: &Bytes| {};
            let clean = handshake_with(mode, use_retry, &[], &mut noop(), &mut noop());
            let mut fed = false;
            let mut late_retry = |to: &mut Connection, now, _: &Bytes| {
                if to.role() == Role::Client && !fed {
                    fed = true;
                    let server_cid = ConnectionId::from_u64(0x2E7);
                    to.handle_datagram(now, &stateless_retry_datagram(to.local_cid(), server_cid));
                }
            };
            let run = handshake_with(mode, use_retry, &[], &mut noop(), &mut late_retry);
            assert!(fed, "{mode:?}, retry {use_retry}");
            for (i, (want, got)) in clean.iter().zip(&run).enumerate() {
                assert_eq!(want, got, "{mode:?}, retry {use_retry}, datagram {i}");
            }
            assert_eq!(clean.len(), run.len(), "{mode:?}, retry {use_retry}");
        }
    }
}

/// Every packet of `datagram`, as the receiver's decoder reads it.
fn packets(datagram: &Bytes) -> Vec<PlainPacket> {
    let mut rest = datagram.clone();
    let mut out = Vec::new();
    while let Ok((pkt, _, _, used)) = PlainPacket::decode_with_payload(&rest, 8) {
        rest = rest.slice(used..);
        out.push(pkt);
    }
    out
}

/// Each space's keys, rebuilt from what crossed the wire, as anyone on
/// the path could here: the Initial keys from the client's first DCID,
/// the others from the handshake transcript, the zero-key hash of the TLS
/// messages, which travel in CRYPTO frames in the clear (README
/// "Substitutions").
#[derive(Default)]
struct Wiretap {
    /// The CRYPTO streams in transcript order: the client's Initial (the
    /// ClientHello), the server's Initial (the ServerHello) and the
    /// server's Handshake flight.
    crypto: [(Reassembler, Vec<u8>); 3],
}

impl Wiretap {
    fn read(&mut self, from_server: bool, datagram: &Bytes) {
        for pkt in packets(datagram) {
            let stream = match (from_server, pkt.header.ty) {
                (false, PacketType::Initial) => 0,
                (true, PacketType::Initial) => 1,
                (true, PacketType::Handshake) => 2,
                _ => continue,
            };
            for frame in pkt.frames.iter() {
                if let Frame::Crypto { offset, data } = frame {
                    let (rx, stream) = &mut self.crypto[stream];
                    stream.extend_from_slice(&rx.insert(*offset, data.clone()));
                }
            }
        }
    }

    /// The key the sender seals packets of type `ty` with.
    fn key(&self, to: &Connection, ty: PacketType) -> [u8; DIGEST_LEN] {
        let [ch, sh, flight] = [0, 1, 2].map(|i| &self.crypto[i].1[..]);
        let keys = match ty {
            PacketType::Initial => initial_keys(to.original_dcid().as_slice()),
            PacketType::Handshake => handshake_keys(&mac(&[0; DIGEST_LEN], &[ch, sh])),
            _ => application_keys(&mac(&[0; DIGEST_LEN], &[ch, sh, flight])),
        };
        let sender = match to.role() {
            Role::Client => KeySide::Server,
            Role::Server => KeySide::Client,
        };
        *keys.for_side(sender)
    }
}

/// A packet with `header` and `payload` as its frame bytes, sealed with
/// `key`.
fn forge(header: Header, payload: &[u8], key: &[u8; DIGEST_LEN]) -> Bytes {
    let pn = header.pn;
    let shell = PlainPacket::new(header, vec![Frame::Padding { len: payload.len() }]).unwrap();
    let mut out = vec![0; shell.encoded_len()];
    shell
        .encode_sealed(&mut out, |_| seal_tag(key, pn, payload))
        .unwrap();
    let at = out.len() - AEAD_TAG_LEN - payload.len();
    out[at..at + payload.len()].copy_from_slice(payload);
    Bytes::from(out)
}

/// Forged packets are numbered from here, two per real packet, so none
/// is a duplicate of another or of a real packet, and none stops a real
/// one being delivered.
const FORGED_PN: u64 = 1 << 24;

/// The two lying ACK frames: one acknowledging every packet number up to
/// 2^20, far past any the pair sends, and one announcing 1,000 ranges
/// after its first and carrying none.
fn hostile_acks() -> [Vec<u8>; 2] {
    let mut never_sent = Vec::new();
    Frame::Ack(AckFrame {
        largest: 1 << 20,
        ack_delay_us: 0,
        first_range: 1 << 20,
        ranges: Vec::new(),
    })
    .encode(&mut never_sent);
    // Type, largest 0, delay 0, a two-byte range count of 1,000, first
    // range 0, and the end of the datagram.
    let past_the_end = vec![0x02, 0x00, 0x00, 0x43, 0xe8, 0x00];
    [never_sent, past_the_end]
}

/// What an ACK frame moves at `conn`: RTT samples, packets declared
/// lost, ACK frames that acknowledged something new (whatever frees bytes
/// in flight) and packets opened per space.
fn ack_state(conn: &Connection) -> (usize, u64, usize, [u64; 3]) {
    let stats = conn.stats();
    let samples = conn.rtt().sample_count();
    (
        samples,
        stats.packets_lost,
        conn.new_ack_packets(),
        stats.packets_opened,
    )
}

#[test]
fn hostile_ack_frames_change_nothing_in_any_space() {
    for mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        let mut tap = Wiretap::default();
        // Lying frames processed, by receiver and space.
        let mut processed: BTreeMap<(bool, usize), usize> = BTreeMap::new();
        let mut lie_to = |to: &mut Connection, now: SimTime, datagram: &Bytes| {
            let to_client = to.role() == Role::Client;
            tap.read(to_client, datagram);
            for pkt in packets(datagram) {
                let space = pkt.space().index();
                let key = tap.key(to, pkt.header.ty);
                for (lie, ack) in hostile_acks().iter().enumerate() {
                    let mut header = pkt.header.clone();
                    header.pn = FORGED_PN + 2 * header.pn + lie as u64;
                    let before = ack_state(to);
                    let logged = to.log.events.len();
                    to.handle_datagram(now, &forge(header, ack, &key));
                    let after = ack_state(to);
                    let what = format!(
                        "{mode:?}: lie {lie} to the {:?} in space {space}",
                        to.role()
                    );
                    assert_eq!(after.0..=after.2, before.0..=before.2, "{what}");
                    assert_eq!(to.poll_event(), None, "{what}");
                    // The one lie that decodes opens its packet, and its
                    // arrival is all that is logged: at a client, an
                    // ACK-only Initial acknowledging nothing it sent
                    // marks no instant ACK.
                    let opened = after.3[space] - before.3[space];
                    assert!(opened <= u64::from(lie == 0), "{what}");
                    let events = &to.log.events[logged..];
                    for event in events {
                        let arrival = matches!(event.data, EventData::PacketReceived { .. });
                        assert!(arrival, "{what}: {events:?}");
                    }
                    assert_eq!(events.len() as u64, opened, "{what}");
                    *processed.entry((to_client, space)).or_default() += opened as usize;
                }
            }
        };
        // `handshake` returns once both ends have confirmed.
        let run = handshake(mode, &[0x52; 300], &mut lie_to, &mut |_, _, _| {});
        assert!(run.len() >= 4, "{mode:?}: {} datagrams", run.len());
        assert_eq!(processed.len(), 6, "{mode:?}: {processed:?}");
    }
}

/// `datagram` with its long-header packets in reverse space order and,
/// behind them, `stranger`: a correctly sealed PING packet whose
/// destination connection ID is not the first packet's. A short-header
/// packet, which runs to the end of its datagram, stays last. Also
/// returns the real packets in their new order.
fn reverse_spaces(
    datagram: &Bytes,
    stranger: impl FnOnce(&Header) -> Bytes,
) -> (Bytes, Vec<PlainPacket>) {
    let mut rest = datagram.clone();
    let (mut long, mut short) = (Vec::new(), None);
    while let Ok((pkt, _, _, used)) = PlainPacket::decode_with_payload(&rest, 8) {
        let bytes = rest.split_to(used);
        match pkt.header.ty {
            PacketType::OneRtt => short = Some((pkt, bytes)),
            _ => long.push((pkt, bytes)),
        }
    }
    long.reverse();
    let forged = stranger(&long[0].0.header);
    let at: usize = long.iter().map(|(_, bytes)| bytes.len()).sum();
    let mut out = Vec::new();
    for (_, bytes) in long.iter().chain(&short) {
        out.extend_from_slice(bytes);
    }
    out.splice(at..at, forged.iter().copied());
    let pkts = long.into_iter().chain(short).map(|(pkt, _)| pkt);
    (Bytes::from(out), pkts.collect())
}

#[test]
fn packets_coalesced_out_of_space_order_still_open() {
    for mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        let mut tap = Wiretap::default();
        let (mut strangers, mut reversed) = (FORGED_PN, 0);
        let mut recoalesce = |to: &mut Connection, now: SimTime, datagram: &Bytes| {
            tap.read(to.role() == Role::Client, datagram);
            if packets(datagram)
                .iter()
                .all(|p| p.header.ty == PacketType::OneRtt)
            {
                return;
            }
            let stranger = |first: &Header| {
                let mut header = first.clone();
                header.dcid = ConnectionId::from_u64(0xD1FF_E4E7);
                assert_ne!(header.dcid, first.dcid);
                header.pn = strangers;
                strangers += 1;
                let key = tap.key(to, header.ty);
                forge(header, &[0x01], &key)
            };
            let (bytes, pkts) = reverse_spaces(datagram, stranger);
            let spaces: Vec<usize> = pkts.iter().map(|p| p.space().index()).collect();
            reversed += usize::from(spaces.windows(2).any(|w| w[0] > w[1]));
            let before = to.stats().packets_opened;
            to.handle_datagram(now, &bytes);
            // Every real packet opens, a later space's ahead of the
            // Initial whose CRYPTO brings its keys through the packets
            // kept for later, but for an Initial behind a Handshake
            // packet at a server, which drops its Initial keys on
            // opening the first Handshake packet (RFC 9001 §4.9.1). The
            // stranger opens nothing.
            let mut want = [0u64; 3];
            for (i, pkt) in pkts.iter().enumerate() {
                let dropped = to.role() == Role::Server
                    && pkt.header.ty == PacketType::Initial
                    && pkts[..i]
                        .iter()
                        .any(|p| p.header.ty == PacketType::Handshake);
                want[spaces[i]] += u64::from(!dropped);
            }
            let after = to.stats().packets_opened;
            let opened = [0, 1, 2].map(|s| after[s] - before[s]);
            assert_eq!(opened, want, "{mode:?}: {:?} got {spaces:?}", to.role());
        };
        // The real datagram follows as a replay, which opens nothing new.
        let run = handshake(mode, &[0x52; 300], &mut recoalesce, &mut |_, _, _| {});
        assert!(run.len() >= 4, "{mode:?}: {} datagrams", run.len());
        assert!(reversed >= 1, "{mode:?}: no datagram coalesced two spaces");
    }
}

/// The path id the spoofed PATH_CHALLENGE arrives on: one the client
/// never uses.
const SPOOFED_PATH: u64 = 7;

/// What a server did with a spoofed PATH_CHALLENGE: the bytes that
/// arrived on the spoofed path, the bytes it sent while that path was
/// its active one, whether the forged packet opened, and the response
/// bytes the client received on the real path.
struct SpoofedRun {
    arrived: usize,
    sent_there: usize,
    opened: bool,
    delivered: usize,
}

/// A pair with a server of `cid_pool` spare connection IDs confirms its
/// handshake; then a correctly sealed 1-RTT datagram carrying only a
/// PATH_CHALLENGE (padded to 1,200 bytes) reaches the server from
/// [`SPOOFED_PATH`], and the server answers the client's request with
/// `body` bytes on the real path. Asserts throughout that the server's
/// active path stays the real one.
fn spoofed_path_challenge(mode: ServerAckMode, cid_pool: usize, body: usize) -> SpoofedRun {
    let mut cfg = EndpointConfig::rfc_default();
    cfg.cid_pool = cid_pool;
    let mut c = Connection::client(cfg.clone(), 1, false);
    c.send_stream_data(0, b"GET /", true);
    cfg.ack_mode = mode;
    let mut s = Connection::server(cfg, 2, c.original_dcid());
    let mut tap = Wiretap::default();
    let mut one_rtt = None;
    let mut run = SpoofedRun {
        arrived: 0,
        sent_there: 0,
        opened: false,
        delivered: 0,
    };
    let mut now = SimTime::ZERO;
    for _ in 0..1_000 {
        if s.is_confirmed() && run.arrived == 0 {
            let header: Header = one_rtt.clone().expect("the client sent 1-RTT");
            let mut payload = Vec::new();
            Frame::PathChallenge { data: 0x5E0F }.encode(&mut payload);
            payload.resize(1_200 - header.encoded_len() - AEAD_TAG_LEN, 0);
            let key = tap.key(&s, PacketType::OneRtt);
            let forged = forge(
                Header {
                    pn: FORGED_PN,
                    ..header
                },
                &payload,
                &key,
            );
            let opened = s.stats().packets_opened[2];
            run.arrived += forged.len();
            s.handle_datagram_on_path(now, forged, SPOOFED_PATH, &mut Spares::default());
            run.opened = s.stats().packets_opened[2] == opened + 1;
            assert_eq!(s.active_path(), 0, "{mode:?}, pool {cid_pool}");
        }
        let mut idle = true;
        // The server sends first, so what it sends right after the
        // spoofed datagram leaves before the client's next one arrives.
        for to_server in [false, true] {
            let (from, to) = if to_server {
                (&mut c, &mut s)
            } else {
                (&mut s, &mut c)
            };
            while let Some(datagram) = from.poll_transmit(now) {
                if !to_server && from.active_path() == SPOOFED_PATH {
                    run.sent_there += datagram.len();
                }
                tap.read(!to_server, &datagram);
                if to_server {
                    let short = packets(&datagram).into_iter().map(|p| p.header);
                    one_rtt = short
                        .filter(|h| h.ty == PacketType::OneRtt)
                        .last()
                        .or(one_rtt);
                }
                // The real traffic rides path 0 both ways.
                to.handle_datagram_on_path(now, datagram, 0, &mut Spares::default());
                while let Some(ev) = to.poll_event() {
                    match ev {
                        ConnEvent::CertificateNeeded => to.certificate_ready(now),
                        ConnEvent::StreamData {
                            id: 0, fin: true, ..
                        } if to_server => {
                            to.send_stream_data(0, &vec![0x42; body], true);
                        }
                        ConnEvent::StreamData { data, fin, .. } if !to_server => {
                            run.delivered += data.len();
                            if fin {
                                assert_eq!(s.active_path(), 0, "{mode:?}, pool {cid_pool}");
                                return run;
                            }
                        }
                        _ => {}
                    }
                }
                idle = false;
            }
        }
        assert_eq!(s.active_path(), 0, "{mode:?}, pool {cid_pool}");
        if idle {
            now = [c.poll_timeout(), s.poll_timeout()]
                .into_iter()
                .flatten()
                .min()
                .expect("a pair mid-transfer has a timer armed");
            for conn in [&mut c, &mut s] {
                if conn.poll_timeout().is_some_and(|t| t <= now) {
                    conn.handle_timeout(now);
                }
            }
        }
    }
    panic!("{mode:?}, pool {cid_pool}: the transfer did not complete");
}

#[test]
fn a_spoofed_path_challenge_moves_nothing() {
    for mode in [
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ] {
        for cid_pool in [0, 2] {
            let body = 20_000;
            let run = spoofed_path_challenge(mode, cid_pool, body);
            let what = format!("{mode:?}, pool {cid_pool}");
            assert!(run.opened, "{what}: the forged packet opens");
            assert!(run.sent_there <= 3 * run.arrived, "{what}");
            assert_eq!(run.delivered, body, "{what}");
        }
    }
}
