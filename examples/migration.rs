//! Connection migration: surviving the network changing under you.
//!
//! Flips the route under an in-flight download — deliberately (the
//! client is told, rotates its connection ID, and validates the new
//! path with PATH_CHALLENGE) or as a silent NAT rebind (the server
//! discovers the move from the arrival path) — and shows what the flip
//! costs, per RFC 9000 §9.
//!
//! Run with: `cargo run --example migration`

use reacked_quicer::prelude::*;
use reacked_quicer::testbed::MigrationSpec;

fn download() -> Scenario {
    let client = client_by_name("quic-go").unwrap();
    let mut sc = Scenario::base(client, ServerAckMode::WaitForCertificate, HttpVersion::H1);
    sc.file_size = 512 * 1024;
    sc
}

fn report(label: &str, sc: &Scenario) {
    let res = run_scenario(sc);
    println!(
        "{label:<28} ttfb {:>7.1} ms   response {:>7.1} ms   goodput {:>6.2} Mbit/s   migrated: {}",
        res.ttfb_ms.unwrap_or(f64::NAN),
        res.response_ms.unwrap_or(f64::NAN),
        res.goodput_mbps.unwrap_or(f64::NAN),
        res.migrated,
    );
}

fn main() {
    println!("== A 512 KiB download, and the route moves at t = 100 ms ==\n");

    let at = SimDuration::from_millis(100);
    let new_rtt = SimDuration::from_millis(30);

    // The control: nobody moves. `MigrationSpec::none()` is guaranteed
    // byte-for-byte identical to a scenario that never heard of
    // migration — the axis is free when unused.
    let mut none = download();
    none.migration = MigrationSpec::none();
    report("stationary", &none);

    // Deliberate migration: the OS signals the route change, the client
    // rotates its DCID to the next one in the announced pool and probes
    // the new path with PATH_CHALLENGE before trusting it. Both ends
    // reset their congestion controller and RTT estimator for the new
    // path (RFC 9000 §9.4), so the tail of the download pays a fresh
    // slow start on top of the higher RTT.
    let mut deliberate = download();
    deliberate.migration = MigrationSpec::deliberate_at(at, new_rtt);
    report("deliberate migration", &deliberate);

    // NAT rebind: nobody is told. The server notices the same
    // connection arriving from a new path, revalidates it server-side,
    // and the client adopts the path from the first datagram that
    // arrives on it — one flight later than the deliberate case.
    let mut rebind = download();
    rebind.migration = MigrationSpec::rebind_at(at, new_rtt);
    report("NAT rebind", &rebind);

    // Migration composes with the impairment engine: the new path can
    // be lossy, jittery, or reordering like any other link.
    let mut lossy = download();
    lossy.migration = MigrationSpec::deliberate_at(at, new_rtt)
        .with_impairment(ImpairmentSpec::none().with_iid_loss(0.02));
    report("migration onto 2% loss", &lossy);

    println!(
        "\nTTFB predates the flip, so it never moves; the response tail pays the new\n\
         path's RTT plus the per-path congestion reset. A rebind discovers the move\n\
         one flight later than a deliberate migration. Sweep the full grid with:\n\
         cargo run --release --bin exp -- exp_migration_sweep"
    );
}
