//! The connection driver's armed-deadline slot under every scenario axis
//! at once.
//!
//! A timer wake-up before the deadline is answered from the deadline the
//! connection's last pump armed, without asking the connection; a debug
//! build checks the two agree on every wake-up that has the connection
//! at hand. The cases below draw overload policy, crashes, freezes,
//! blackouts, give-up budgets, reconnects, migration, the class mix and
//! impairment together, so every way a connection is created, replaced,
//! frozen or dropped runs under that check. The pinned event counts hold
//! a release build to the same timer schedule: a slot gone stale re-arms
//! a timer it should not, or misses one it should, and the counts move.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{OverloadPolicy, ServerAckMode};
use rq_sim::{ImpairmentSpec, Network, SimDuration, SimRng};
use rq_testbed::{
    run_server_load, ArrivalProcess, ClassMix, MigrationSpec, ReconnectPolicy, Scenario,
    ServerLoadRun, ServerLoadSpec,
};
use rq_testkit::prop::cases;

const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;
const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A template scenario with a 20 ms certificate wait, so certificate
/// timers run beside the connections' own.
fn base(mode: ServerAckMode, seed: u64) -> Scenario {
    let mut sc = Scenario::base(client_by_name("quic-go").unwrap(), mode, HttpVersion::H3);
    sc.cert_delay = ms(20);
    sc.seed = seed;
    sc
}

/// A spec of 20–40 arrivals with every axis drawn from `rng`.
fn drawn_spec(rng: &mut SimRng) -> ServerLoadSpec {
    let mode = if rng.gen_bool(0.5) { IACK } else { WFC };
    let mut sc = base(mode, 1 + rng.gen_range(99_999));
    sc.cert_delay = ms(rng.gen_range(40));
    let faults = &mut sc.faults;
    if rng.gen_bool(0.5) {
        faults.crash_every = Some(ms(150 + rng.gen_range(1_350)));
    }
    if rng.gen_bool(0.5) {
        faults.freeze = Some((ms(100 + rng.gen_range(700)), ms(50 + rng.gen_range(350))));
    }
    if rng.gen_bool(0.3) {
        faults.blackout = Some((ms(200 + rng.gen_range(600)), ms(50 + rng.gen_range(250))));
    }
    if rng.gen_bool(0.5) {
        faults.give_up_after = Some(ms(2_000 + rng.gen_range(3_000)));
    } else if rng.gen_bool(0.5) {
        faults.give_up_pto_count = Some(3 + rng.gen_range(3) as u32);
    }
    if rng.gen_bool(0.5) {
        faults.reconnect = Some(ReconnectPolicy {
            max_attempts: 1 + rng.gen_range(2) as u32,
            ..ReconnectPolicy::default()
        });
    }
    if rng.gen_bool(0.4) {
        let (at, rtt) = (ms(20 + rng.gen_range(180)), ms(10 + rng.gen_range(60)));
        sc.migration = if rng.gen_bool(0.5) {
            MigrationSpec::deliberate_at(at, rtt)
        } else {
            MigrationSpec::rebind_at(at, rtt)
        };
        if rng.gen_bool(0.5) {
            sc.migration = sc
                .migration
                .with_impairment(ImpairmentSpec::none().with_iid_loss(0.05));
        }
    }
    let arrivals = 20 + rng.gen_range(21) as usize;
    let process = if rng.gen_bool(0.3) {
        ArrivalProcess::FlashCrowd { window: ms(50) }
    } else {
        ArrivalProcess::Poisson {
            mean_gap: ms(1 + rng.gen_range(20)),
        }
    };
    let mut spec = ServerLoadSpec::new(sc, arrivals, process);
    spec.concurrency_limit = 4 + rng.gen_range(20) as usize;
    spec.overload = [
        OverloadPolicy::Shed,
        OverloadPolicy::RetryDefer,
        OverloadPolicy::CloseWithBackoff,
    ][rng.gen_range(3) as usize];
    if rng.gen_bool(0.5) {
        spec.mix = Some(ClassMix {
            resumed: 0.3,
            zero_rtt: 0.2,
        });
    }
    if rng.gen_bool(0.5) {
        let loss = 0.01 + 0.04 * rng.gen_f64();
        spec.impaired = Some((0.4, ImpairmentSpec::none().with_iid_loss(loss)));
    }
    spec.conn_deadline = SimDuration::from_secs(20);
    spec
}

/// Runs `spec` and checks what every run must hold: it stopped short of
/// the event ceiling, each arrival has exactly one fate, and a second
/// run reports the same.
fn checked_run(spec: &ServerLoadSpec) -> ServerLoadRun {
    let run = run_server_load(spec);
    let limit = Network::new(false)
        .event_limit
        .max(spec.arrivals as u64 * 20_000);
    let processed = run.report.metrics.counter("sim/events/processed");
    assert!(processed < limit, "{processed} events hit the ceiling");
    assert_eq!(run.outcomes.len(), spec.arrivals);
    assert_eq!(run.report.fates.total(), spec.arrivals as u64);
    let again = run_server_load(spec);
    assert_eq!(run.outcomes, again.outcomes);
    assert_eq!(run.report, again.report);
    run
}

#[test]
fn every_axis_at_once_terminates_partitions_and_repeats() {
    cases(24, |rng| {
        checked_run(&drawn_spec(rng));
    });
}

/// `sim/events/{processed,timer}` of `run`. The pins below are the
/// counts of a driver that asked the connection for its deadline on
/// every wake-up: reading the slot instead must not move them.
fn events(run: &ServerLoadRun) -> (u64, u64) {
    let m = &run.report.metrics;
    (
        m.counter("sim/events/processed"),
        m.counter("sim/events/timer"),
    )
}

#[test]
fn crash_and_reconnect_keep_the_timer_schedule() {
    let mut spec = ServerLoadSpec::new(
        base(IACK, 5),
        30,
        ArrivalProcess::Poisson { mean_gap: ms(20) },
    );
    spec.base.faults.crash_every = Some(ms(300));
    spec.base.faults.reconnect = Some(ReconnectPolicy::default());
    // Blackouts lose reconnect Initials too, so a rebuilt connection's
    // first timer comes due before the server has answered it.
    spec.base.faults.blackout = Some((ms(400), ms(150)));
    let run = checked_run(&spec);
    assert!(run.report.accounting.crashes > 0);
    assert!(run.report.reconnects > 0);
    assert_eq!(events(&run), (3074, 2151));
}

#[test]
fn freeze_and_thaw_keep_the_timer_schedule() {
    let mut spec = ServerLoadSpec::new(
        base(WFC, 8),
        30,
        ArrivalProcess::Poisson { mean_gap: ms(10) },
    );
    // 200 ms freezes at seeded gaps that end inside the run: each thaw
    // catches up on the connection and certificate timers that went due
    // while the server was frozen.
    spec.base.faults.freeze = Some((ms(150), ms(200)));
    spec.base.faults.give_up_after = Some(ms(4_000));
    let run = checked_run(&spec);
    assert!(run.report.fates.completed > 0);
    assert_eq!(events(&run), (2860, 2041));
}

#[test]
fn retry_flash_crowd_keeps_the_timer_schedule() {
    let mut spec = ServerLoadSpec::new(
        base(IACK, 13),
        40,
        ArrivalProcess::FlashCrowd { window: ms(50) },
    );
    spec.concurrency_limit = 6;
    spec.overload = OverloadPolicy::RetryDefer;
    let run = checked_run(&spec);
    assert!(run.report.fates.retried_then_accepted > 0);
    assert_eq!(events(&run), (3283, 1958));
}
