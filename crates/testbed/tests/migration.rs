//! Connection migration through the full testbed stack: scheduled path
//! flips, CID rotation, path validation, and the byte-identity contract
//! for migration-free runs.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    repetitions, run_scenario, run_scenario_with_trace, run_server_load, ArrivalProcess,
    MigrationSpec, RunResult, Scenario, ServerLoadSpec, SweepRunner,
};

const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;

fn base() -> Scenario {
    Scenario::base(client_by_name("quic-go").unwrap(), WFC, HttpVersion::H1)
}

/// A download long enough that a 100 ms flip lands mid-transfer.
fn download_base() -> Scenario {
    let mut sc = base();
    sc.file_size = 512 * 1024;
    sc
}

fn fingerprint(r: &RunResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.completed,
        r.ttfb_ms,
        r.response_ms,
        r.handshake_ms,
        r.client_datagrams,
        r.server_datagrams,
        r.dropped_datagrams,
        r.client_log.events.len(),
        r.server_log.events.len(),
        r.migrated,
    )
}

#[test]
fn migration_none_is_byte_identical_to_legacy() {
    let plain = run_scenario(&base());
    let mut sc = base();
    sc.migration = MigrationSpec::none();
    let with_none = run_scenario(&sc);
    assert_eq!(fingerprint(&plain), fingerprint(&with_none));
    assert!(!plain.migrated);
}

#[test]
fn deliberate_migration_mid_download_completes() {
    let mut sc = download_base();
    sc.migration =
        MigrationSpec::deliberate_at(SimDuration::from_millis(100), SimDuration::from_millis(30));
    let res = run_scenario(&sc);
    assert!(res.completed, "{res:?}");
    assert!(res.migrated, "client must end on the new path");
    // The flip lands after the handshake and TTFB, so both match the
    // migration-free run; only the tail of the download sees the new RTT.
    let plain = run_scenario(&download_base());
    assert_eq!(res.ttfb_ms, plain.ttfb_ms);
    assert_eq!(res.handshake_ms, plain.handshake_ms);
    assert!(
        res.response_ms.unwrap() > plain.response_ms.unwrap(),
        "30 ms path must slow the tail vs 9 ms ({:?} vs {:?})",
        res.response_ms,
        plain.response_ms
    );
}

#[test]
fn nat_rebind_mid_download_completes() {
    let mut sc = download_base();
    sc.migration =
        MigrationSpec::rebind_at(SimDuration::from_millis(100), SimDuration::from_millis(30));
    let res = run_scenario(&sc);
    assert!(res.completed, "{res:?}");
    assert!(res.migrated);
}

#[test]
fn migration_onto_lossy_path_still_completes() {
    let mut sc = download_base();
    sc.migration =
        MigrationSpec::deliberate_at(SimDuration::from_millis(100), SimDuration::from_millis(30))
            .with_impairment(ImpairmentSpec::none().with_iid_loss(0.02));
    let res = run_scenario(&sc);
    assert!(res.completed, "{res:?}");
    assert!(res.migrated);
}

#[test]
fn migration_label_distinguishes_cells() {
    let mut sc = base();
    assert!(!sc.label().contains("mig"));
    sc.migration =
        MigrationSpec::deliberate_at(SimDuration::from_millis(50), SimDuration::from_millis(20));
    let deliberate = sc.label();
    assert!(deliberate.contains("mig"), "{deliberate}");
    sc.migration =
        MigrationSpec::rebind_at(SimDuration::from_millis(50), SimDuration::from_millis(20));
    let rebind = sc.label();
    assert_ne!(deliberate, rebind);
}

#[test]
fn migrated_runs_are_deterministic() {
    let mut sc = download_base();
    sc.migration =
        MigrationSpec::deliberate_at(SimDuration::from_millis(100), SimDuration::from_millis(30));
    let (a, trace_a) = run_scenario_with_trace(&sc);
    let (b, trace_b) = run_scenario_with_trace(&sc);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(trace_a.datagrams.len(), trace_b.datagrams.len());
    for (x, y) in trace_a.datagrams.iter().zip(&trace_b.datagrams) {
        assert_eq!(x.sent, y.sent);
        assert_eq!(x.size, y.size);
    }
}

#[test]
fn migrated_sweep_identical_across_thread_counts() {
    let mut sc = download_base();
    sc.migration =
        MigrationSpec::rebind_at(SimDuration::from_millis(80), SimDuration::from_millis(25));
    let jobs = repetitions(&[sc], 4);
    let seq = SweepRunner::new(1).map(&jobs, run_scenario);
    let par = SweepRunner::new(4).map(&jobs, run_scenario);
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }
}

#[test]
fn server_load_counts_migrated_connections() {
    let mut sc = base();
    sc.file_size = 64 * 1024;
    sc.migration =
        MigrationSpec::deliberate_at(SimDuration::from_millis(60), SimDuration::from_millis(25));
    let spec = ServerLoadSpec::new(
        sc,
        8,
        ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(5),
        },
    );
    let run = run_server_load(&spec);
    assert_eq!(run.report.fates.completed, 8, "{:?}", run.report.fates);
    assert_eq!(run.report.migrated, 8, "all connections outlive the flip");
    assert!(run.outcomes.iter().all(|o| o.migrated));
}
