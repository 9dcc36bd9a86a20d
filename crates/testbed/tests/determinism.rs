//! Determinism guarantees: a scenario is a pure function of its
//! parameters (including `seed`), for every loss specification and both
//! server ACK modes.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    median, rep_scenario, repetitions, run_scenario, run_scenario_with_trace, HandshakeClass,
    LossSpec, RunResult, Scenario, SweepRunner,
};
use rq_tls::ServerResumption;

/// The stochastic spec used by the determinism suite: every impairment
/// family enabled at once, so any nondeterminism in the random path shows
/// up somewhere in the fingerprint.
fn random_spec() -> LossSpec {
    LossSpec::Random(
        ImpairmentSpec::none()
            .with_gilbert_elliott(0.03, 0.3, 0.01, 0.8)
            .with_reordering(0.1, SimDuration::from_millis(3))
            .with_duplication(0.05)
            .with_uniform_jitter(SimDuration::from_millis(2)),
    )
}

/// Everything observable about a run, in comparable form.
fn fingerprint(r: &RunResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.label.clone(),
        r.completed,
        r.aborted,
        r.ttfb_ms,
        r.response_ms,
        r.handshake_ms,
        r.first_pto_ms,
        r.first_srtt_ms,
        r.client_rtt_samples,
        r.client_new_ack_packets,
        (
            r.exposed_metric_updates,
            r.server_amp_blocked,
            r.iack_observed,
            r.client_packets_lost,
            r.server_packets_lost,
            r.client_datagrams,
            r.server_datagrams,
            r.dropped_datagrams,
            r.duplicated_datagrams,
            r.client_log.events.len(),
            r.server_log.events.len(),
        ),
        (r.resumed, r.early_data_accepted),
    )
}

#[test]
fn same_seed_same_result_for_every_loss_spec() {
    for loss in [
        LossSpec::None,
        LossSpec::ServerFlightTail,
        LossSpec::SecondClientFlight,
        random_spec(),
    ] {
        for mode in [
            ServerAckMode::WaitForCertificate,
            ServerAckMode::InstantAck { pad_to_mtu: false },
        ] {
            let mut sc = Scenario::base(client_by_name("quic-go").unwrap(), mode, HttpVersion::H1);
            sc.loss = loss;
            sc.seed = 42;
            let a = run_scenario(&sc);
            let b = run_scenario(&sc);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{loss:?}/{mode:?}");
        }
    }
}

#[test]
fn parallel_sweep_identical_to_sequential_for_every_spec() {
    // The parallel engine's core guarantee: for every loss specification
    // and both ACK modes, fanning repetitions out over 1 or 4 workers
    // yields exactly the sequential results, in the same order.
    for loss in [
        LossSpec::None,
        LossSpec::ServerFlightTail,
        LossSpec::SecondClientFlight,
        random_spec(),
    ] {
        for mode in [
            ServerAckMode::WaitForCertificate,
            ServerAckMode::InstantAck { pad_to_mtu: false },
        ] {
            let mut sc = Scenario::base(client_by_name("quic-go").unwrap(), mode, HttpVersion::H1);
            sc.loss = loss;
            sc.seed = 7;
            let reps = 6;
            let seq: Vec<RunResult> = (0..reps)
                .map(|i| run_scenario(&rep_scenario(&sc, i)))
                .collect();
            let jobs = repetitions(&[sc], reps);
            for threads in [1usize, 4] {
                let par = SweepRunner::new(threads).map(&jobs, run_scenario);
                assert_eq!(par.len(), seq.len(), "{loss:?}/{mode:?} x{threads}");
                for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                    assert_eq!(
                        fingerprint(a),
                        fingerprint(b),
                        "{loss:?}/{mode:?} threads {threads} rep {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn same_seed_same_result_for_every_handshake_class() {
    // The resumed classes run a two-connection composite (priming +
    // measured); the whole composite must stay a pure function of the
    // scenario seed, for both ACK modes and all resumption profiles.
    for class in HandshakeClass::ALL {
        for profile in [
            ServerResumption::accepting(7200),
            ServerResumption::rejecting_early_data(7200),
            ServerResumption::disabled(),
        ] {
            for mode in [
                ServerAckMode::WaitForCertificate,
                ServerAckMode::InstantAck { pad_to_mtu: false },
            ] {
                let mut sc =
                    Scenario::base(client_by_name("quic-go").unwrap(), mode, HttpVersion::H1);
                sc.cert_delay = SimDuration::from_millis(20);
                sc.handshake_class = class;
                sc.resumption = profile;
                sc.seed = 42;
                let a = run_scenario(&sc);
                let b = run_scenario(&sc);
                assert_eq!(
                    fingerprint(&a),
                    fingerprint(&b),
                    "{class:?}/{profile:?}/{mode:?}"
                );
            }
        }
    }
}

#[test]
fn handshake_class_sweep_parallel_matches_sequential() {
    for class in [HandshakeClass::Resumed, HandshakeClass::ZeroRtt] {
        let mut sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        sc.handshake_class = class;
        let reps = 4;
        let seq: Vec<RunResult> = (0..reps)
            .map(|i| run_scenario(&rep_scenario(&sc, i)))
            .collect();
        let jobs = repetitions(&[sc], reps);
        for threads in [1usize, 4] {
            let par = SweepRunner::new(threads).map(&jobs, run_scenario);
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(
                    fingerprint(a),
                    fingerprint(b),
                    "{class:?} threads {threads} rep {i}"
                );
            }
        }
    }
}

#[test]
fn random_loss_reproducible_from_scenario_seed_alone() {
    // The acceptance bar for the stochastic path: two scenarios built
    // independently but sharing a seed yield bit-identical runs; changing
    // only the seed changes the channel (drops/duplicates observable),
    // proving the randomness flows from `Scenario::seed` and nowhere else.
    let build = |seed: u64| {
        let mut sc = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::InstantAck { pad_to_mtu: false },
            HttpVersion::H1,
        );
        sc.loss = random_spec();
        sc.seed = seed;
        sc
    };
    let a = run_scenario(&build(1234));
    let b = run_scenario(&build(1234));
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // Some seed in a small pool must visibly perturb the channel.
    let baseline = (a.dropped_datagrams, a.duplicated_datagrams, a.ttfb_ms);
    let perturbed = (1u64..20).any(|seed| {
        let r = run_scenario(&build(seed));
        (r.dropped_datagrams, r.duplicated_datagrams, r.ttfb_ms) != baseline
    });
    assert!(perturbed, "no seed in 1..20 changed the impaired schedule");
}

#[test]
fn random_loss_runs_terminate_across_clients() {
    // Random drops must never wedge a run: whatever the client quirk mix,
    // the engine reaches completion or abort within the time limit.
    for name in ["quic-go", "neqo", "quiche", "picoquic"] {
        let mut sc = Scenario::base(
            client_by_name(name).unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        sc.loss = LossSpec::Random(ImpairmentSpec::none().with_iid_loss(0.1));
        sc.seed = 5;
        let res = run_scenario(&sc);
        assert!(res.completed || res.aborted, "{name} wedged: {res:?}");
    }
}

#[test]
fn different_seeds_may_differ_but_never_wedge() {
    // go-x-net's probabilistic RTT quirk makes seeds observable for
    // affected clients; whatever the seed, runs must terminate.
    for seed in [1u64, 2, 3, 99] {
        let mut sc = Scenario::base(
            client_by_name("go-x-net").unwrap(),
            ServerAckMode::WaitForCertificate,
            HttpVersion::H1,
        );
        sc.seed = seed;
        let res = run_scenario(&sc);
        assert!(res.completed || res.aborted, "seed {seed} wedged: {res:?}");
    }
}

#[test]
fn trace_capture_does_not_change_outcomes() {
    let mut sc = Scenario::base(
        client_by_name("quiche").unwrap(),
        ServerAckMode::InstantAck { pad_to_mtu: false },
        HttpVersion::H1,
    );
    sc.loss = LossSpec::ServerFlightTail;
    let plain = run_scenario(&sc);
    sc.capture_payloads = true;
    let (captured, trace) = run_scenario_with_trace(&sc);
    assert_eq!(fingerprint(&plain), fingerprint(&captured));
    assert!(!trace.datagrams.is_empty());
}

#[test]
fn median_odd_even_empty() {
    assert_eq!(median(&[9.0]), Some(9.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    // NaN-free ordering via total_cmp: infinities sort to the edges.
    assert_eq!(median(&[f64::INFINITY, 1.0, 2.0]), Some(2.0));
}
