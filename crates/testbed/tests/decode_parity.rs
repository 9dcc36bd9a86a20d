//! The wire decoders run over two cursors: `&[u8]`, which copies payloads
//! out, and `Bytes`, which hands out views of the datagram — the path
//! every received datagram takes. `rq-wire`'s property tests hold the two
//! equal on byte soup and on synthetic packets; this holds them equal on
//! real traffic, every datagram of one captured exchange cut at every
//! length, so each length field points past the end at some cut.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_testbed::{run_scenario_with_trace, Scenario};
use rq_testkit::wire::assert_decode_parity;

#[test]
fn captured_datagrams_decode_alike_at_every_length() {
    let mut sc = Scenario::base(
        client_by_name("quic-go").unwrap(),
        ServerAckMode::InstantAck { pad_to_mtu: false },
        HttpVersion::H3,
    );
    sc.capture_payloads = true;
    let (result, trace) = run_scenario_with_trace(&sc);
    assert!(result.completed);
    let payloads: Vec<_> = (trace.datagrams.iter())
        .filter_map(|d| d.payload.as_deref())
        .collect();
    // Both directions, all three packet number spaces, coalesced packets.
    assert!(payloads.len() >= 10, "{} datagrams", payloads.len());
    for payload in payloads {
        for cut in 0..=payload.len() {
            assert_decode_parity(&payload[..cut]);
        }
    }
}
