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

use rq_quic::{
    derived_cid, ConnEvent, ConnStats, Connection, EndpointConfig, ServerAckMode,
    CID_KIND_ORIGINAL_DCID,
};
use rq_sim::{SimRng, SimTime};
use rq_wire::{Bytes, PlainPacket, AEAD_TAG_LEN};

/// One delivered datagram: whether it went to the server, its bytes, and
/// its receiver's counters right after it.
type Delivery = (bool, Bytes, ConnStats);

/// Runs one pair's handshake to confirmation at both ends, handing
/// `hostile` each datagram's receiver and bytes just before the datagram
/// itself is delivered.
fn handshake(
    mode: ServerAckMode,
    mut hostile: impl FnMut(&mut Connection, SimTime, &Bytes),
) -> Vec<Delivery> {
    let mut cfg = EndpointConfig::rfc_default();
    let mut c = Connection::client(cfg.clone(), 1, false);
    cfg.ack_mode = mode;
    let mut s = Connection::server(cfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
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
                hostile(to, now, &datagram);
                to.handle_datagram(now, &datagram);
                while let Some(ev) = to.poll_event() {
                    if ev == ConnEvent::CertificateNeeded {
                        to.certificate_ready(now);
                    }
                }
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
        let capture = handshake(mode, |_, _, _| {});
        let mut rng = SimRng::new(0x7A3F);
        let rerun = handshake(mode, |to, now, datagram| {
            feed_tampered(to, now, datagram, &mut rng)
        });
        assert!(capture.len() >= 4, "{mode:?}: {} datagrams", capture.len());
        for (i, (want, got)) in capture.iter().zip(&rerun).enumerate() {
            assert_eq!(want, got, "{mode:?}, datagram {i}");
        }
        assert_eq!(capture.len(), rerun.len(), "{mode:?}");
    }
}
