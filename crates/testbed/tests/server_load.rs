//! The many-connection server engine's guarantees: determinism across
//! thread counts, admission accounting invariants, the N = 1 path
//! reproducing the legacy single-pair runner exactly, and ticket-key
//! rotation bounding how long a minted ticket stays resumable.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{OverloadPolicy, ServerAckMode};
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    run_scenario, run_server_load, run_server_load_sharded, ArrivalProcess, ClassMix, ConnFate,
    HandshakeClass, LossSpec, ReconnectPolicy, Scenario, ServerLoadSpec, SweepRunner,
};
use rq_testkit::prop::cases;

const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;
const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

fn base(mode: ServerAckMode, seed: u64) -> Scenario {
    let mut sc = Scenario::base(client_by_name("quic-go").unwrap(), mode, HttpVersion::H1);
    sc.cert_delay = SimDuration::from_millis(20);
    sc.seed = seed;
    sc
}

fn poisson(mean_gap_ms: u64) -> ArrivalProcess {
    ArrivalProcess::Poisson {
        mean_gap: SimDuration::from_millis(mean_gap_ms),
    }
}

/// A small mixed, impaired population — every moving part of the spec
/// enabled at once, so any nondeterminism shows up somewhere.
fn mixed_spec(seed: u64, arrivals: usize) -> ServerLoadSpec {
    let mut spec = ServerLoadSpec::new(base(IACK, seed), arrivals, poisson(3));
    spec.mix = Some(ClassMix {
        resumed: 0.3,
        zero_rtt: 0.2,
    });
    spec.impaired = Some((0.3, ImpairmentSpec::none().with_iid_loss(0.03)));
    spec
}

// ---- determinism suite ------------------------------------------------

#[test]
fn same_seed_same_outcomes_and_report() {
    let spec = mixed_spec(42, 40);
    let a = run_server_load(&spec);
    let b = run_server_load(&spec);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.report, b.report);
}

#[test]
fn sharded_report_identical_at_threads_1_and_4() {
    // 120 arrivals over 16-arrival shards: several shards per worker, so
    // both runners genuinely split the work differently — the reports
    // must still match byte for byte (fixed shard size, in-order merge).
    let spec = mixed_spec(7, 120);
    let t1 = run_server_load_sharded(&spec, &SweepRunner::new(1), 16);
    let t4 = run_server_load_sharded(&spec, &SweepRunner::new(4), 16);
    assert_eq!(t1, t4);
    assert_eq!(t1.accounting.arrivals, 120);
}

#[test]
fn unsharded_equals_single_shard() {
    // A shard size covering the whole population must be the plain run.
    let spec = mixed_spec(11, 30);
    let whole = run_server_load(&spec).report;
    let sharded = run_server_load_sharded(&spec, &SweepRunner::new(4), 64);
    assert_eq!(whole, sharded);
}

// ---- observability snapshot ------------------------------------------

#[test]
fn report_metrics_snapshot_is_populated_and_consistent() {
    let spec = mixed_spec(13, 40);
    let run = run_server_load(&spec);
    let m = &run.report.metrics;
    // Engine accounting mirrored into the registry.
    assert_eq!(m.counter("server/arrivals"), run.report.accounting.arrivals);
    assert_eq!(m.counter("server/accepted"), run.report.accounting.accepted);
    // The simulation moved datagrams and the QUIC stack sealed packets.
    assert!(m.counter("sim/events/processed") > 0);
    assert!(m.counter("sim/datagrams/forwarded") > 0);
    assert!(m.counter("quic/client/packets_sealed/initial") > 0);
    assert!(m.counter("quic/server/packets_sealed/handshake") > 0);
    // Outcome-level loss counters agree with the per-conn QUIC totals.
    let outcome_lost: u64 = run.outcomes.iter().map(|o| o.client_packets_lost).sum();
    assert_eq!(m.counter("load/client_packets_lost"), outcome_lost);
    assert_eq!(m.counter("quic/client/packets_lost"), outcome_lost);
    // The impaired 3%-loss share must actually lose packets somewhere.
    assert!(
        m.counter("load/client_packets_lost") + m.counter("load/server_packets_lost") > 0,
        "impaired population must see recovery activity"
    );
}

// ---- admission accounting --------------------------------------------

#[test]
fn flash_crowd_sheds_beyond_the_limit() {
    let mut spec = ServerLoadSpec::new(
        base(IACK, 3),
        60,
        ArrivalProcess::FlashCrowd {
            window: SimDuration::from_millis(50),
        },
    );
    spec.concurrency_limit = 8;
    let run = run_server_load(&spec);
    let a = run.report.accounting;
    assert!(a.shed > 0, "60 arrivals in 50 ms must overflow 8 slots");
    assert!(a.peak_active <= 8);
    assert_eq!(a.arrivals, 60);
    assert_eq!(a.accepted + a.shed, a.arrivals);
    assert_eq!(a.completed + a.failed, a.accepted);
    // Outcome fates tell the same story as the engine's tallies.
    let shed_outcomes = run
        .outcomes
        .iter()
        .filter(|o| o.fate == ConnFate::Shed)
        .count() as u64;
    assert_eq!(shed_outcomes, a.shed);
}

// ---- N = 1 reproduces the legacy single-pair runner -------------------

/// Every `quic/*` counter of a run's metrics snapshot: both endpoints'
/// `ConnStats`, by name.
fn quic_counters(metrics: &rq_obs::Registry) -> Vec<(&str, u64)> {
    let counter = |(name, metric): (_, &rq_obs::Metric)| match metric {
        rq_obs::Metric::Counter(v) => Some((name, *v)),
        _ => None,
    };
    let quic = metrics.iter().filter(|(name, _)| name.starts_with("quic/"));
    quic.filter_map(counter).collect()
}

/// The aggregate N = 1 run of `sc` against its full-detail run. The
/// aggregate run captures no qlog and the full run does; the full run
/// stops the simulation at the last response byte and the aggregate one
/// runs on until the connection is retired. So: the same outcome, and
/// every `quic/*` counter at or past the full run's — the aggregate run
/// is the full one plus a tail (the client's last ACKs reaching the
/// server), which on a clean path touches the application space's packet
/// counts and nothing else.
fn assert_aggregate_matches_full(sc: Scenario, what: &str) {
    let clean = sc.loss == LossSpec::None;
    let legacy = run_scenario(&sc);
    let load = run_server_load(&ServerLoadSpec::single(sc));
    assert_eq!(load.outcomes.len(), 1);
    let o = &load.outcomes[0];
    assert_eq!(o.fate == ConnFate::Completed, legacy.completed, "{what}");
    assert_eq!(o.ttfb_ms, legacy.ttfb_ms, "{what}");
    assert_eq!(o.handshake_ms, legacy.handshake_ms, "{what}");
    assert_eq!(o.response_ms, legacy.response_ms, "{what}");
    assert_eq!(o.resumed, legacy.resumed, "{what}");
    assert_eq!(o.early_data_accepted, legacy.early_data_accepted, "{what}");
    assert_eq!(o.migrated, legacy.migrated, "{what}");
    let (aggregate, full) = (
        quic_counters(&load.report.metrics),
        quic_counters(&legacy.metrics),
    );
    assert_eq!(aggregate.len(), 22, "11 counters per endpoint");
    for ((name, got), (full_name, expected)) in aggregate.into_iter().zip(full) {
        assert_eq!(name, full_name);
        let handshake_era = name.ends_with("/initial") || name.ends_with("/handshake");
        if clean && (handshake_era || !name.contains("/packets_")) {
            assert_eq!(got, expected, "{what}: {name}");
        } else {
            assert!(got >= expected, "{what}: {name} {got} < {expected}");
        }
    }
}

#[test]
fn single_connection_matches_run_scenario() {
    let lossy = ImpairmentSpec::none().with_iid_loss(0.05);
    for (mode, class, loss) in [
        (WFC, HandshakeClass::Full, None),
        (IACK, HandshakeClass::Full, None),
        (WFC, HandshakeClass::Resumed, None),
        (IACK, HandshakeClass::ZeroRtt, None),
        (IACK, HandshakeClass::Full, Some(lossy)),
        (WFC, HandshakeClass::ZeroRtt, Some(lossy)),
    ] {
        let mut sc = base(mode, 42);
        sc.handshake_class = class;
        if let Some(spec) = loss {
            sc.loss = LossSpec::Random(spec);
        }
        assert_aggregate_matches_full(sc, &format!("{mode:?}/{class:?}/{loss:?}"));
    }
}

// ---- ticket-key rotation ----------------------------------------------

/// Rotation period and overlap the rotation tests pin.
const ROTATION_PERIOD_SECS: u64 = 100;
const OVERLAP_EPOCHS: u64 = 1;

/// A resumed-class population whose synthetic tickets were minted
/// `age_secs` before arrival, against a server rotating its ticket key
/// every 100 virtual seconds and accepting one retired epoch. Arrivals
/// are spread hundreds of virtual seconds apart (Poisson, 100 s mean
/// gap), so they land in different key epochs.
fn rotation_spec(age_secs: u64) -> ServerLoadSpec {
    let mut sc = base(WFC, 9);
    sc.handshake_class = HandshakeClass::Resumed;
    let mut spec = ServerLoadSpec::new(
        sc,
        6,
        ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_secs(ROTATION_PERIOD_SECS),
        },
    );
    spec.rotation_period_secs = ROTATION_PERIOD_SECS;
    spec.overlap_epochs = OVERLAP_EPOCHS as u32;
    spec.ticket_age = SimDuration::from_secs(age_secs);
    spec
}

/// Whether a ticket minted `age_secs` before `o.arrival` is inside the
/// server's key-overlap window at accept time — the reference model the
/// engine must agree with.
fn in_overlap_window(o: &rq_testbed::ConnOutcome, age_secs: u64) -> bool {
    let arrival_secs = o.arrival.as_nanos() / 1_000_000_000;
    let mint_secs = arrival_secs.saturating_sub(age_secs);
    arrival_secs / ROTATION_PERIOD_SECS - mint_secs / ROTATION_PERIOD_SECS <= OVERLAP_EPOCHS
}

#[test]
fn tickets_resume_only_within_the_key_overlap_window() {
    // Tickets aged 2.5 rotation periods: connections arriving 2+ epochs
    // after their ticket's mint epoch find the key rotated out of the
    // accept set and must fall back to a full handshake. (The first
    // arrival is pinned to t = 0, where the mint time saturates into the
    // same epoch — the reference model covers it too.)
    let age = 2 * ROTATION_PERIOD_SECS + 50;
    let stale = rotation_spec(age);
    let run = run_server_load(&stale);
    for o in &run.outcomes {
        assert_eq!(o.fate, ConnFate::Completed, "{o:?}");
        assert_eq!(o.resumed, in_overlap_window(o, age), "{o:?}");
    }
    // The spread of 6 arrivals over ~500 virtual seconds guarantees both
    // sides of the window are exercised.
    assert!(
        run.outcomes.iter().any(|o| !o.resumed),
        "no arrival aged out of the overlap window"
    );
    let a = run.report.accounting;
    assert!(a.full_handshakes > 0);
    assert_eq!(a.resumed_handshakes + a.full_handshakes, 6);
    // Every fallback shows up in the CPU bill as a full handshake.
    let expected = a.full_handshakes as f64 * 1.0 + a.resumed_handshakes as f64 * 0.3;
    assert!((a.cpu_cost - expected).abs() < 1e-9);
}

#[test]
fn tickets_within_overlap_still_resume_after_one_rotation() {
    // Tickets aged exactly one period: every mint epoch is the arrival's
    // predecessor (or the same, at t = 0), inside `overlap_epochs = 1`,
    // so every connection still resumes.
    let run = run_server_load(&rotation_spec(ROTATION_PERIOD_SECS));
    for o in &run.outcomes {
        assert_eq!(o.fate, ConnFate::Completed, "{o:?}");
        assert!(
            o.resumed,
            "one-epoch-old ticket is inside overlap_epochs = 1: {o:?}"
        );
    }
    assert_eq!(run.report.accounting.resumed_handshakes, 6);
}

// ---- fault injection --------------------------------------------------

#[test]
fn empty_fault_timeline_reproduces_baseline_byte_for_byte() {
    // A fault axis whose derived timeline contains no events must leave
    // every outcome and the whole report untouched: the fault seed is an
    // independent RNG stream, and a server with nothing scheduled takes
    // the same wire actions as one never handed a timeline.
    let baseline = run_server_load(&mixed_spec(42, 40));
    let mut spec = mixed_spec(42, 40);
    // Mean crash gap ~12 days of virtual time against a ~2 minute
    // horizon: the (seeded) first crash draw lands far past the run.
    spec.base.faults.crash_every = Some(SimDuration::from_secs(1_000_000));
    let faulty = run_server_load(&spec);
    assert_eq!(baseline.outcomes, faulty.outcomes);
    assert_eq!(baseline.report, faulty.report);
}

#[test]
fn server_crashes_reset_in_flight_connections() {
    let mut spec = ServerLoadSpec::new(base(IACK, 5), 40, poisson(30));
    spec.base.faults.crash_every = Some(SimDuration::from_millis(400));
    let run = run_server_load(&spec);
    let fates = run.report.fates;
    assert!(
        run.report.accounting.crashes > 0,
        "{:?}",
        run.report.accounting
    );
    assert!(fates.reset > 0, "{fates:?}");
    assert!(fates.completed > 0, "{fates:?}");
    assert_eq!(fates.total(), 40);
    // Reset outcomes carry no response; completed ones do.
    for o in &run.outcomes {
        match o.fate {
            ConnFate::Reset => assert!(o.response_ms.is_none(), "{o:?}"),
            ConnFate::Completed => assert!(o.response_ms.is_some(), "{o:?}"),
            _ => {}
        }
    }
}

#[test]
fn reconnects_recover_crashed_connections() {
    let mk = |reconnect: Option<ReconnectPolicy>| {
        let mut spec = ServerLoadSpec::new(base(IACK, 5), 40, poisson(30));
        spec.base.faults.crash_every = Some(SimDuration::from_millis(400));
        spec.base.faults.reconnect = reconnect;
        run_server_load(&spec).report
    };
    let bare = mk(None);
    let healed = mk(Some(ReconnectPolicy::default()));
    assert!(healed.reconnects > 0, "{healed:?}");
    assert!(
        healed.fates.availability() > bare.fates.availability(),
        "reconnects must recover availability: {:?} vs {:?}",
        healed.fates,
        bare.fates
    );
    // Reconnect latency shows up in time-to-success, not silence: served
    // conns that had to reconnect pay their backoff there.
    assert!(healed.time_to_success.count() >= healed.fates.completed);
}

#[test]
fn frozen_server_makes_clients_give_up() {
    let mut spec = ServerLoadSpec::new(base(IACK, 8), 20, poisson(5));
    // The first freeze lands ~50 ms in (seeded) and outlasts the run;
    // clients burn their 3 s give-up budget against a black hole.
    spec.base.faults.freeze = Some((SimDuration::from_millis(50), SimDuration::from_secs(600)));
    spec.base.faults.give_up_after = Some(SimDuration::from_secs(3));
    let run = run_server_load(&spec);
    let fates = run.report.fates;
    assert!(fates.gave_up > 0, "{fates:?}");
    assert_eq!(fates.total(), 20);
    for o in &run.outcomes {
        if o.fate == ConnFate::GaveUp {
            assert!(o.response_ms.is_none(), "{o:?}");
        }
    }
}

#[test]
fn retry_defer_strictly_beats_shed_under_a_flash_crowd() {
    let mk = |policy: OverloadPolicy| {
        let mut spec = ServerLoadSpec::new(
            base(IACK, 13),
            120,
            ArrivalProcess::FlashCrowd {
                window: SimDuration::from_millis(100),
            },
        );
        spec.concurrency_limit = 8;
        spec.overload = policy;
        run_server_load(&spec).report
    };
    let shed = mk(OverloadPolicy::Shed);
    let defer = mk(OverloadPolicy::RetryDefer);
    assert!(shed.fates.shed > 0, "{:?}", shed.fates);
    assert!(defer.fates.retried_then_accepted > 0, "{:?}", defer.fates);
    assert!(
        defer.fates.availability() > shed.fates.availability(),
        "RetryDefer must serve strictly more of the crowd: {:?} vs {:?}",
        defer.fates,
        shed.fates
    );
}

#[test]
fn crash_forgetting_epochs_degrades_resumption_to_full_handshakes() {
    // Resumed-class arrivals spread over ~12 key epochs, each offering a
    // ticket minted 150 s (1-2 epochs) before it arrives. With
    // `overlap_epochs = 2` every ticket is inside the accept window —
    // until a crash that forgets old epochs shrinks the window to the
    // current epoch only, refusing every cross-epoch ticket after it.
    let mk = |forget: bool| {
        let mut sc = base(WFC, 21);
        sc.handshake_class = HandshakeClass::Resumed;
        let mut spec = ServerLoadSpec::new(sc, 30, poisson(40_000));
        spec.rotation_period_secs = 100;
        spec.overlap_epochs = 2;
        spec.ticket_age = SimDuration::from_secs(150);
        spec.base.faults.crash_every = Some(SimDuration::from_secs(20));
        spec.base.faults.reconnect = Some(ReconnectPolicy::default());
        spec.base.faults.forget_ticket_epochs = forget;
        run_server_load(&spec).report
    };
    let keeping = mk(false);
    let forgetting = mk(true);
    assert!(
        forgetting.accounting.resumed_handshakes < keeping.accounting.resumed_handshakes,
        "forgetting epochs must refuse cross-epoch tickets: {:?} vs {:?}",
        forgetting.accounting,
        keeping.accounting
    );
    assert!(
        forgetting.accounting.full_handshakes > keeping.accounting.full_handshakes,
        "refused tickets degrade to full handshakes, not failures: {:?} vs {:?}",
        forgetting.accounting,
        keeping.accounting
    );
}

// ---- property tests ---------------------------------------------------

/// The arrival schedule is a pure function of the seed: rebuild the
/// spec from scratch and the times match; they are non-decreasing
/// and pinned to t = 0, for both processes.
#[test]
fn arrival_schedule_is_a_pure_function_of_the_seed() {
    cases(16, |rng| {
        let seed = 1 + rng.gen_range(99_999);
        let arrivals = 1 + rng.gen_range(199) as usize;
        let process = if rng.gen_bool(0.5) {
            ArrivalProcess::FlashCrowd {
                window: SimDuration::from_millis(100),
            }
        } else {
            poisson(2)
        };
        let a = ServerLoadSpec::new(base(IACK, seed), arrivals, process).arrival_times();
        let b = ServerLoadSpec::new(base(IACK, seed), arrivals, process).arrival_times();
        assert_eq!(&a, &b);
        assert_eq!(a.len(), arrivals);
        assert_eq!(a[0], rq_sim::SimTime::ZERO);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
    });
}

/// Admission bookkeeping: shed + completed + failed == arrivals, for
/// any seed and any (small) concurrency limit.
#[test]
fn shed_completed_failed_partition_arrivals() {
    cases(16, |rng| {
        let mut spec = ServerLoadSpec::new(base(IACK, 1 + rng.gen_range(9_999)), 20, poisson(1));
        spec.concurrency_limit = 1 + rng.gen_range(5) as usize;
        let run = run_server_load(&spec);
        let a = run.report.accounting;
        assert_eq!(a.arrivals, 20);
        assert_eq!(a.shed + a.completed + a.failed, a.arrivals);
        assert!(a.peak_active <= spec.concurrency_limit as u64);
        assert_eq!(run.outcomes.len(), 20);
    });
}

/// Under any combination of crashes, give-up budgets, reconnects,
/// concurrency pressure, and overload policy, every planned
/// connection lands in exactly one fate bucket:
/// completed + retried + shed + gave_up + reset + failed == plans.
#[test]
fn fates_partition_the_population_under_faults() {
    cases(16, |rng| {
        let mut spec = ServerLoadSpec::new(base(IACK, 1 + rng.gen_range(4_999)), 15, poisson(10));
        spec.concurrency_limit = 2 + rng.gen_range(6) as usize;
        spec.overload = [
            OverloadPolicy::Shed,
            OverloadPolicy::RetryDefer,
            OverloadPolicy::CloseWithBackoff,
        ][rng.gen_range(3) as usize];
        let crash_ms = 150 + rng.gen_range(1_850);
        spec.base.faults.crash_every = Some(SimDuration::from_millis(crash_ms));
        spec.base.faults.give_up_pto_count = Some(4);
        if rng.gen_bool(0.5) {
            spec.base.faults.reconnect = Some(ReconnectPolicy {
                max_attempts: 2,
                ..ReconnectPolicy::default()
            });
        }
        let run = run_server_load(&spec);
        assert_eq!(run.outcomes.len(), 15);
        assert_eq!(run.report.fates.total(), 15);
    });
}

/// The N = 1 server-load run matches the legacy `run_scenario`
/// observables for any seed.
#[test]
fn n1_matches_legacy_for_any_seed() {
    cases(16, |rng| {
        let mut sc = base(WFC, 1 + rng.gen_range(9_999));
        if rng.gen_bool(0.5) {
            sc.loss = LossSpec::Random(ImpairmentSpec::none().with_iid_loss(0.05));
        }
        assert_aggregate_matches_full(sc, "any seed");
    });
}
