//! Table 3 harness: capture the first ACK delay per packet number space
//! from a handshake against each server profile.
//!
//! Mirrors the paper's method: run a quic-go client against every server,
//! capture the server's datagrams, and read the `ACK Delay` field of the
//! first acknowledgment in the Initial and Handshake spaces.

use rq_profiles::ServerProfile;
use rq_quic::{stream_id, ConnEvent, Connection, EndpointConfig};
use rq_sim::{SimDuration, SimTime};
use rq_wire::{Frame, PacketNumberSpace, PlainPacket};

/// First-ACK delays observed in one handshake (ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstAckDelays {
    /// ACK Delay of the first Initial-space ACK; `None` if no ACK frame
    /// ever appeared in that space.
    pub initial_ms: Option<f64>,
    /// ACK Delay of the first Handshake-space ACK.
    pub handshake_ms: Option<f64>,
}

/// Runs one in-memory handshake against `server_profile` and extracts the
/// first ACK delays from the server's datagrams.
pub fn measure_first_ack_delays(server_profile: &ServerProfile, seed: u64) -> FirstAckDelays {
    let mut client_cfg = EndpointConfig::rfc_default();
    client_cfg.name = "quic-go";
    client_cfg.default_pto = SimDuration::from_millis(200);
    let mut client = Connection::client(client_cfg, seed, false);
    client.send_stream_data(stream_id::CLIENT_BIDI_0, b"GET /1 HTTP/1.1\r\n\r\n", true);

    let mut server_cfg = server_profile.endpoint_config();
    // The Table 3 study probes stock servers: certificate on hand.
    let mut server: Option<Connection> = None;
    let mut initial_ms = None;
    let mut handshake_ms = None;

    let mut now = SimTime::ZERO;
    let step = SimDuration::from_millis(1);
    server_cfg.cert_len = rq_tls::CERT_SMALL;
    for _ in 0..60 {
        while let Some(d) = client.poll_transmit(now) {
            let srv = server.get_or_insert_with(|| {
                let dcid = PlainPacket::decode(&d, 8)
                    .map(|(p, _, _)| p.header.dcid)
                    .unwrap();
                Connection::server(server_cfg.clone(), seed ^ 0xABCD, dcid)
            });
            srv.handle_datagram(now, &d);
        }
        if let Some(srv) = server.as_mut() {
            while let Some(ev) = srv.poll_event() {
                if matches!(ev, ConnEvent::CertificateNeeded) {
                    srv.certificate_ready(now);
                }
            }
            while let Some(d) = srv.poll_transmit(now) {
                scan_for_acks(&d, &mut initial_ms, &mut handshake_ms);
                client.handle_datagram(now, &d);
            }
        }
        while client.poll_event().is_some() {}
        if client.is_confirmed() {
            break;
        }
        now = now + step;
        if client.poll_timeout().map(|t| t <= now).unwrap_or(false) {
            client.handle_timeout(now);
        }
        if let Some(srv) = server.as_mut() {
            if srv.poll_timeout().map(|t| t <= now).unwrap_or(false) {
                srv.handle_timeout(now);
            }
        }
    }
    FirstAckDelays {
        initial_ms,
        handshake_ms,
    }
}

fn scan_for_acks(datagram: &[u8], initial_ms: &mut Option<f64>, handshake_ms: &mut Option<f64>) {
    let mut rest = datagram;
    while !rest.is_empty() {
        let Ok((pkt, _, used)) = PlainPacket::decode(rest, 8) else {
            return;
        };
        rest = &rest[used..];
        for f in &pkt.frames {
            if let Frame::Ack(a) = f {
                let delay_ms = a.ack_delay_us as f64 / 1000.0;
                match pkt.space() {
                    PacketNumberSpace::Initial if initial_ms.is_none() => {
                        *initial_ms = Some(delay_ms);
                    }
                    PacketNumberSpace::Handshake if handshake_ms.is_none() => {
                        *handshake_ms = Some(delay_ms);
                    }
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_profiles::all_servers;

    fn server(name: &str) -> ServerProfile {
        all_servers().into_iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn quic_go_reports_zero_initial_delay() {
        let d = measure_first_ack_delays(&server("quic-go"), 1);
        assert_eq!(d.initial_ms, Some(0.0));
        assert_eq!(d.handshake_ms, None, "quic-go sends no HS-space ACK");
    }

    #[test]
    fn aioquic_reports_3_3ms() {
        let d = measure_first_ack_delays(&server("aioquic"), 2);
        let v = d.initial_ms.unwrap();
        assert!((v - 3.3).abs() < 0.1, "got {v}");
    }

    #[test]
    fn msquic_sends_no_initial_or_handshake_acks() {
        let d = measure_first_ack_delays(&server("msquic"), 3);
        assert_eq!(d.initial_ms, None);
        assert_eq!(d.handshake_ms, None);
    }

    #[test]
    fn lsquic_reports_both_spaces() {
        let d = measure_first_ack_delays(&server("lsquic"), 4);
        let i = d.initial_ms.unwrap();
        assert!((i - 1.2).abs() < 0.1, "initial {i}");
        let h = d.handshake_ms.unwrap();
        assert!((h - 0.2).abs() < 0.1, "handshake {h}");
    }

    #[test]
    fn s2n_delay_exceeds_typical_rtt() {
        let d = measure_first_ack_delays(&server("s2n-quic"), 5);
        assert!(d.initial_ms.unwrap() >= 14.0);
    }
}
