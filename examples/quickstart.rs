//! Quickstart: compare wait-for-certificate and instant ACK for one
//! client/server pair and print what changed.
//!
//! Run with: `cargo run --example quickstart`

use reacked_quicer::prelude::*;

fn main() {
    // The paper's Figure 1 setup: a CDN frontend 9 ms from the client,
    // 25 ms from its certificate store.
    let quic_go = client_by_name("quic-go").expect("a known client");
    let c = compare_modes(&Scenario {
        rtt: SimDuration::from_millis(9),
        cert_delay: SimDuration::from_millis(25),
        ..Scenario::base(quic_go, ServerAckMode::WaitForCertificate, HttpVersion::H1)
    });

    println!("== ReACKed QUICer quickstart ==");
    println!("client quic-go, RTT 9 ms, certificate-store delay Δt = 25 ms, 10 KB response\n");
    let row = |name: &str, r: &reacked_quicer::testbed::RunResult| {
        println!(
            "{name:<6} handshake {:>7.1} ms   TTFB {:>7.1} ms   first smoothed RTT {:>6.1} ms   first PTO {:>6.1} ms",
            r.handshake_ms.unwrap_or(f64::NAN),
            r.ttfb_ms.unwrap_or(f64::NAN),
            r.first_srtt_ms.unwrap_or(f64::NAN),
            r.first_pto_ms.unwrap_or(f64::NAN),
        );
    };
    row("WFC", &c.wfc);
    row("IACK", &c.iack);

    let dpto = c.wfc.first_pto_ms.unwrap() - c.iack.first_pto_ms.unwrap();
    println!(
        "\nThe instant ACK keeps the first RTT sample clean: the first probe timeout drops by \
         {dpto:.1} ms — almost exactly 3 x Δt = {:.0} ms, the paper's headline arithmetic.",
        3.0 * 25.0
    );

    // The analytical model agrees:
    let reduction = first_pto_reduction_rtt(9.0, 25.0);
    println!(
        "Closed-form check: reduction = 3Δt/RTT = {reduction:.2} RTT units; spurious retransmits \
         at this operating point: {}",
        spurious_retransmit(9.0, 25.0)
    );
}
