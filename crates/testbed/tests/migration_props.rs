//! Property-based tests for connection migration (RFC 9000 §9).
//!
//! Five invariants the migration machinery must uphold for *any* input:
//!
//! 1. **Validation terminates**: a PATH_CHALLENGE either validates the
//!    path or abandons it after bounded retries — even on a black-hole
//!    path that swallows every probe.
//! 2. **CID derivation is pure**: `derived_cid` depends only on
//!    `(seed, kind, seq)`, and distinct sequence numbers never collide.
//! 3. **Thread-count invariance**: migrated sweeps produce identical
//!    results at 1 and 4 workers.
//! 4. **`MigrationSpec::none` is free**: a scenario carrying the
//!    disabled spec is wire-identical to one that never heard of
//!    migration.
//! 5. **Anti-amplification**: an unvalidated post-migration path never
//!    carries more than 3× the bytes received on it (§9.5 mirrors the
//!    address-validation 3× of §8.1).

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{
    derived_cid, ConnEvent, Connection, EndpointConfig, ServerAckMode, CID_KIND_ORIGINAL_DCID,
};
use rq_sim::{SimDuration, SimTime};
use rq_testbed::{
    run_scenario_with_trace, MigrationSpec, RunResult, Scenario, SweepRunner, SweepScenarios,
};
use rq_testkit::prop::cases;

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A client/server pair with `pool` spare CIDs each, driven to an
/// established handshake over a zero-delay path 0.
fn established_pair(pool: usize) -> (Connection, Connection) {
    let mut ccfg = EndpointConfig::rfc_default();
    ccfg.cid_pool = pool;
    let mut scfg = EndpointConfig::rfc_default();
    scfg.cid_pool = pool;
    let mut c = Connection::client(ccfg, 1, false);
    let mut s = Connection::server(scfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
    for _ in 0..50 {
        let mut progress = false;
        while let Some(d) = c.poll_transmit(SimTime::ZERO) {
            s.handle_datagram(SimTime::ZERO, &d);
            progress = true;
        }
        while let Some(ev) = s.poll_event() {
            if matches!(ev, ConnEvent::CertificateNeeded) {
                s.certificate_ready(SimTime::ZERO);
            }
            progress = true;
        }
        while let Some(d) = s.poll_transmit(SimTime::ZERO) {
            c.handle_datagram(SimTime::ZERO, &d);
            progress = true;
        }
        while c.poll_event().is_some() {
            progress = true;
        }
        if !progress && c.is_established() && s.is_established() {
            break;
        }
    }
    assert!(c.is_established() && s.is_established(), "handshake stuck");
    (c, s)
}

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

/// Invariant 1: path validation terminates for any path id and CID
/// pool — validated when probes flow, abandoned (but still resolved)
/// when the new path black-holes everything.
#[test]
fn path_validation_always_terminates() {
    cases(64, |rng| {
        let path = 1 + rng.gen_range(63);
        let (mut c, mut s) = established_pair(1 + rng.gen_range(3) as usize);
        let start = at(500);
        c.migrate(start, path);
        assert!(c.path_validation_pending());
        let black_hole = rng.gen_bool(0.5);
        if black_hole {
            // Swallow every probe and let the retry clock run: the
            // challenge must exhaust its retries and resolve, not spin.
            let mut now = start;
            for _ in 0..200 {
                while c.poll_transmit(now).is_some() {}
                if !c.path_validation_pending() {
                    break;
                }
                let Some(t) = c.poll_timeout() else { break };
                now = if t > now {
                    t
                } else {
                    now + SimDuration::from_millis(1)
                };
                c.handle_timeout(now);
            }
            assert!(!c.path_validation_pending(), "validation never resolved");
        } else {
            // Zero-delay exchange on the new path until quiescent.
            for _ in 0..50 {
                let mut progress = false;
                while let Some(d) = c.poll_transmit(start) {
                    s.handle_datagram_on_path(start, d, path);
                    progress = true;
                }
                while let Some(d) = s.poll_transmit(start) {
                    c.handle_datagram_on_path(start, d, path);
                    progress = true;
                }
                if !progress {
                    break;
                }
            }
            assert!(!c.path_validation_pending());
            assert!(c.path_state(path).unwrap().validated, "client path");
            assert!(s.path_state(path).unwrap().validated, "server path");
            assert_eq!(s.active_path(), path);
        }
    });
}

/// Invariant 2: CID rotation is a pure function of
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

/// Invariant 5: while a post-migration path is unvalidated, the
/// server never sends more than 3× the bytes it received on it, no
/// matter how many client datagrams trickle in before validation.
#[test]
fn unvalidated_path_never_exceeds_three_times_received() {
    cases(64, |rng| {
        let path = 1 + rng.gen_range(31);
        let (mut c, mut s) = established_pair(1 + rng.gen_range(3) as usize);
        let now = at(500);
        c.migrate(now, path);
        // Deliver up to 3 client datagrams on the new path, draining
        // (and discarding) the server's responses after each — the
        // client never sees them, so the path stays unvalidated.
        for _ in 0..1 + rng.gen_range(3) {
            let Some(d) = c.poll_transmit(now) else { break };
            s.handle_datagram_on_path(now, d, path);
            while s.poll_transmit(now).is_some() {}
            let p = s.path_state(path).expect("server tracks the new path");
            assert!(!p.validated, "path validated without a response");
            assert!(
                p.bytes_sent <= 3 * p.bytes_received,
                "sent {} > 3x received {}",
                p.bytes_sent,
                p.bytes_received
            );
        }
    });
}

/// Invariant 3: a migrated sweep is byte-identical at 1 and 4
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
        let seq = SweepRunner::new(1).run_repetitions(&sc, 3);
        let par = SweepRunner::new(4).run_repetitions(&sc, 3);
        assert_eq!(seq.len(), par.len());
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!(fingerprint(x), fingerprint(y));
        }
    });
}

/// Invariant 4: carrying `MigrationSpec::none` leaves the whole
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
