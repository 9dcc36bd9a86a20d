//! `Connection` pump kernel: a client and a server `Connection` driven
//! back to back with no simulator, each public call timed — the only
//! outside view that splits the send path (`poll_transmit`) from the
//! receive path (`handle_datagram`).
//!
//! Delivery is in order with zero delay; the clock advances 1 ms per
//! exchange round (so RTT samples stay sane) and jumps to the earliest
//! `poll_timeout` when neither side has anything to send. The
//! certificate is ready immediately, the request goes out through
//! `send_stream_data`, and the response body is written when the
//! request's `ConnEvent` arrives.

use std::time::{Duration, Instant};

use rq_http::{h1, HttpVersion};
use rq_profiles::{client_by_name, server::testbed_server};
use rq_quic::{ConnEvent, Connection, ServerAckMode};
use rq_sim::{SimDuration, SimTime};
use rq_wire::PlainPacket;

/// Time spent in one public call, and how often it was made.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTime {
    pub total: Duration,
    pub calls: u64,
}

impl CallTime {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.total += t.elapsed();
        self.calls += 1;
        r
    }

    pub fn us_per_call(&self) -> f64 {
        self.total.as_secs_f64() * 1e6 / self.calls.max(1) as f64
    }
}

/// One pumped exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pumped {
    pub poll_transmit: CallTime,
    pub handle_datagram: CallTime,
    /// Whole exchange, handshake included.
    pub wall: Duration,
    /// Response body bytes the client received.
    pub delivered: usize,
}

const SEED: u64 = 0x9E37;

/// Handshake plus a `body`-byte HTTP/1.1 GET, quic-go client against the
/// IACK testbed server.
pub fn pump(body: usize) -> Pumped {
    let client_cfg = client_by_name("quic-go")
        .expect("quic-go profile")
        .endpoint_config(HttpVersion::H1);
    let server_cfg = testbed_server(
        ServerAckMode::InstantAck { pad_to_mtu: false },
        rq_tls::CERT_SMALL,
    );
    let request = h1::H1Request::get(&format!("/{body}"), "testbed.local").encode();
    let mut response = Some(h1::H1Response::ok(body).encode());
    let expected = response.as_ref().map_or(0, Vec::len);

    let mut out = Pumped::default();
    let started = Instant::now();
    let mut client = Connection::client(client_cfg, SEED, false);
    client.send_stream_data(0, &request, true);
    let mut server: Option<Connection> = None;
    let mut now = SimTime::ZERO;
    let mut received = 0usize;
    let mut done = false;

    while !done {
        let mut progressed = false;
        while let Some(d) = out.poll_transmit.time(|| client.poll_transmit(now)) {
            progressed = true;
            let srv = server.get_or_insert_with(|| {
                let (first, _, _) = PlainPacket::decode(&d, 8).expect("client Initial decodes");
                Connection::server(server_cfg.clone(), SEED ^ 0x5EED, first.header.dcid)
            });
            out.handle_datagram.time(|| srv.handle_datagram(now, &d));
            while let Some(ev) = srv.poll_event() {
                match ev {
                    ConnEvent::CertificateNeeded => srv.certificate_ready(now),
                    ConnEvent::StreamData { id: 0, .. } => {
                        if let Some(bytes) = response.take() {
                            srv.send_stream_data(0, &bytes, true);
                        }
                    }
                    _ => {}
                }
            }
        }
        if let Some(srv) = server.as_mut() {
            while let Some(d) = out.poll_transmit.time(|| srv.poll_transmit(now)) {
                progressed = true;
                out.handle_datagram.time(|| client.handle_datagram(now, &d));
                while let Some(ev) = client.poll_event() {
                    match ev {
                        ConnEvent::StreamData {
                            id: 0, data, fin, ..
                        } => {
                            received += data.len();
                            done |= fin;
                        }
                        ConnEvent::Closed { reason, .. } => panic!("pump: closed: {reason}"),
                        _ => {}
                    }
                }
            }
        }
        now = now + SimDuration::from_millis(1);
        if !progressed && !done {
            let next = [Some(&client), server.as_ref()]
                .into_iter()
                .flatten()
                .filter_map(Connection::poll_timeout)
                .min()
                .expect("pump wedged: nothing to send and no timer armed");
            now = now.max(next);
            for conn in [Some(&mut client), server.as_mut()].into_iter().flatten() {
                if conn.poll_timeout().is_some_and(|t| t <= now) {
                    conn.handle_timeout(now);
                }
            }
        }
    }
    out.wall = started.elapsed();
    assert_eq!(received, expected, "pump delivered the whole response");
    out.delivered = body;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_completes_a_handshake_and_a_transfer() {
        let hs = pump(10 * 1024);
        assert_eq!(hs.delivered, 10 * 1024);
        assert!(hs.poll_transmit.calls > 4 && hs.handle_datagram.calls > 4);
        let big = pump(256 * 1024);
        assert!(big.handle_datagram.calls > 10 * hs.handle_datagram.calls / 2);
        // The two timed calls are the bulk of the exchange, not all of it.
        assert!(big.poll_transmit.total + big.handle_datagram.total <= big.wall);
    }
}
