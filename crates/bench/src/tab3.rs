//! Table 3 harness: capture the first ACK delay per packet number space
//! from a handshake against each server profile.
//!
//! Mirrors the paper's method: run a quic-go client against every server,
//! capture the server's datagrams, and read the `ACK Delay` field of the
//! first acknowledgment in the Initial and Handshake spaces. It runs on
//! the testbed's network and nodes, like every other run.

use rq_http::HttpVersion;
use rq_profiles::{client_by_name, ServerProfile};
use rq_sim::{LinkConfig, Network, NodeId, SimDuration};
use rq_testbed::{ClientNode, ServerNode, TestbedNode};
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

/// Runs one handshake against `server_profile` and extracts the first
/// ACK delays from the server's datagrams.
pub fn measure_first_ack_delays(server_profile: &ServerProfile, seed: u64) -> FirstAckDelays {
    let (net, _, server) = run_against(server_profile, SimDuration::ZERO, seed);
    let (mut initial_ms, mut handshake_ms) = (None, None);
    let sent = net.trace.datagrams.iter().filter(|d| d.from == server);
    for payload in sent.filter_map(|d| d.payload.as_deref()) {
        scan_for_acks(payload, &mut initial_ms, &mut handshake_ms);
    }
    FirstAckDelays {
        initial_ms,
        handshake_ms,
    }
}

/// Runs quic-go's 10 KiB HTTP/1.1 GET against `server_profile` (store
/// delay `cert_delay`, 9 ms RTT) to completion, capturing every payload.
fn run_against(
    server_profile: &ServerProfile,
    cert_delay: SimDuration,
    seed: u64,
) -> (Network<TestbedNode>, NodeId, NodeId) {
    let http = HttpVersion::H1;
    let mut net = Network::new(true);
    let server = ServerNode::new(server_profile.endpoint_config(), http, cert_delay, seed);
    let server = net.add_node(server.into());
    let client_cfg = client_by_name("quic-go")
        .expect("quic-go is a client profile")
        .endpoint_config(http);
    let client = ClientNode::new(client_cfg, server, http, 10 * 1024, seed, false);
    let client = net.add_node(client.into());
    let link = LinkConfig::paper_default(SimDuration::from_micros(4500));
    net.connect(client, server, link);
    net.run(SimDuration::from_secs(60));
    (net, client, server)
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
    use rq_analysis::{first_pto_with_strategy, AckDelayStrategy};
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

    /// Appendix D across Table 3: RFC 9002 takes the first RTT sample as
    /// measured, so whatever ACK Delay a server reports (0–14 ms), every
    /// server that ACKs gives quic-go one first PTO per Δt. It sits a
    /// fixed distance above the analytical first PTO, whatever report
    /// accuracy the model assumes: three times the two Initial datagrams'
    /// serialization at 10 Mbit/s. msquic ACKs nothing in the handshake
    /// spaces, and the client has no RTT sample when the response ends.
    #[test]
    fn reported_ack_delay_leaves_the_first_pto_alone() {
        for delta_ms in [0, 25] {
            let delta = SimDuration::from_millis(delta_ms);
            let mut reference: Option<(&str, f64)> = None;
            let mut acking = 0;
            for profile in all_servers() {
                let (net, client, _) = run_against(&profile, delta, 1);
                let node = net.node(client).and_then(TestbedNode::client).unwrap();
                let pto = rq_qlog::first_pto_ms(&node.conn.borrow().log);
                let name = profile.name;
                if profile.initial_ack_delay.is_none() {
                    assert_eq!(pto, None, "Δt {delta_ms} ms: {name} gave an RTT sample");
                    continue;
                }
                acking += 1;
                let pto = pto.unwrap_or_else(|| panic!("Δt {delta_ms} ms: {name} gave no sample"));
                let (first, first_pto) = *reference.get_or_insert((name, pto));
                assert_eq!(
                    pto, first_pto,
                    "Δt {delta_ms} ms: {name}'s first PTO {pto} ms, {first}'s {first_pto} ms"
                );
                for r in [0.0, 0.5, 1.0] {
                    let model =
                        first_pto_with_strategy(AckDelayStrategy::Rfc9002, 9.0, delta_ms as f64, r);
                    let excess = pto - model;
                    assert!(
                        (excess - 5.7384).abs() < 1e-9,
                        "Δt {delta_ms} ms, r {r}: {name}'s first PTO {pto} ms is {excess} ms \
                         above the model"
                    );
                }
            }
            assert_eq!(acking, 15);
        }
    }
}
