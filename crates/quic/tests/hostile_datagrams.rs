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

use rq_quic::{ConnEvent, ConnStats, Connection, EndpointConfig, ServerAckMode};
use rq_sim::{SimDuration, SimRng, SimTime};
use rq_wire::{Bytes, PlainPacket, AEAD_TAG_LEN};

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
    let mut cfg = EndpointConfig::rfc_default();
    // Every ACK processed logs the bytes in flight.
    cfg.metrics_sample_every = Some(SimDuration::ZERO);
    let mut c = Connection::client(cfg.clone(), 1, false);
    if !request.is_empty() {
        c.send_stream_data(0, request, true);
    }
    cfg.ack_mode = mode;
    let mut s = Connection::server(cfg, 2, c.original_dcid());
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
