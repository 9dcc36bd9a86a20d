//! Property-based tests for connection migration (RFC 9000 §9) that
//! need the testbed. Three invariants the migration machinery must
//! uphold for *any* input:
//!
//! 1. **CID derivation is pure**: `derived_cid` depends only on
//!    `(seed, kind, seq)`, and distinct sequence numbers never collide.
//! 2. **Thread-count invariance**: migrated sweeps produce identical
//!    results at 1 and 4 workers.
//! 3. **`MigrationSpec::none` is free**: a scenario carrying the
//!    disabled spec is wire-identical to one that never heard of
//!    migration.
//!
//! The two that hold per connection, validation terminating and an
//! unvalidated path staying within 3x of what it received, are rq-quic's
//! own tests (`connection/path/tests.rs`), which read the path state.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{derived_cid, ServerAckMode};
use rq_sim::SimDuration;
use rq_testbed::{
    repetitions, run_scenario, run_scenario_with_trace, MigrationSpec, RunResult, Scenario,
    SweepRunner,
};
use rq_testkit::prop::cases;

fn download_base(file_size: usize) -> Scenario {
    let mut sc = Scenario::base(
        client_by_name("quic-go").unwrap(),
        ServerAckMode::WaitForCertificate,
        HttpVersion::H1,
    );
    sc.file_size = file_size;
    sc
}

fn fingerprint(r: &RunResult) -> (Option<f64>, Option<f64>, bool, bool, usize, usize) {
    (
        r.ttfb_ms,
        r.response_ms,
        r.completed,
        r.migrated,
        r.client_datagrams,
        r.server_datagrams,
    )
}

/// Invariant 1: CID rotation is a pure function of
/// `(seed, kind, seq)` — rederiving gives the same CID, and distinct
/// sequence numbers in the same (seed, kind) stream never collide.
/// Every kind, not only the four the connection uses.
#[test]
fn cid_derivation_is_a_pure_function_of_the_seed() {
    cases(64, |rng| {
        let (seed, kind) = (rng.next_u64(), rng.next_u64());
        let (seq_a, seq_b) = (rng.gen_range(1024), rng.gen_range(1024));
        assert_eq!(
            derived_cid(seed, kind, seq_a),
            derived_cid(seed, kind, seq_a)
        );
        if seq_a != seq_b {
            assert_ne!(
                derived_cid(seed, kind, seq_a),
                derived_cid(seed, kind, seq_b)
            );
        }
    });
}

/// Invariant 2: a migrated sweep is byte-identical at 1 and 4
/// workers for any flip time, new RTT, and migration flavour.
#[test]
fn migrated_sweeps_are_thread_count_invariant() {
    cases(12, |rng| {
        let mut sc = download_base(64 * 1024);
        let flip = SimDuration::from_millis(10 + rng.gen_range(140));
        let rtt = SimDuration::from_millis(5 + rng.gen_range(40));
        let deliberate = rng.gen_bool(0.5);
        sc.migration = if deliberate {
            MigrationSpec::deliberate_at(flip, rtt)
        } else {
            MigrationSpec::rebind_at(flip, rtt)
        };
        sc.seed = 1 + rng.gen_range(9_999);
        let jobs = repetitions(&[sc], 3);
        let seq = SweepRunner::new(1).map(&jobs, run_scenario);
        let par = SweepRunner::new(4).map(&jobs, run_scenario);
        assert_eq!(seq.len(), par.len());
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!(fingerprint(x), fingerprint(y));
        }
    });
}

/// Invariant 3: carrying `MigrationSpec::none` leaves the whole
/// datagram trace identical to a scenario without the field set —
/// the axis is free when unused, for any seed and transfer size.
#[test]
fn none_spec_leaves_the_trace_identical() {
    cases(12, |rng| {
        let mut plain = download_base((1 + rng.gen_range(63) as usize) * 1024);
        plain.seed = 1 + rng.gen_range(9_999);
        let mut with_none = plain.clone();
        with_none.migration = MigrationSpec::none();
        let (ra, ta) = run_scenario_with_trace(&plain);
        let (rb, tb) = run_scenario_with_trace(&with_none);
        assert_eq!(fingerprint(&ra), fingerprint(&rb));
        assert!(!ra.migrated);
        assert_eq!(ta.datagrams.len(), tb.datagrams.len());
        for (x, y) in ta.datagrams.iter().zip(&tb.datagrams) {
            assert_eq!(x.sent, y.sent);
            assert_eq!(x.size, y.size);
        }
    });
}
