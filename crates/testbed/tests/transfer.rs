//! Data-phase and congestion-control integration tests.
//!
//! Three layers of guarantees:
//!
//! 1. **Controller invariants** (property-based): for any seeded op
//!    sequence against any [`CcAlgorithm`], the window never drops below
//!    the RFC minimum, `bytes_in_flight` exactly mirrors the outstanding
//!    set (conservation), and identical seeds reproduce the identical
//!    cwnd trace.
//! 2. **Transfer determinism**: multi-stream, controller-selected
//!    transfers produce byte-identical results at any thread count, and
//!    the legacy single-pair runner stays the N = 1 case of the
//!    server-load engine.
//! 3. **Persistent congestion**: a link blackout longer than 3 × PTO
//!    collapses the sender's window — the RFC 9002 §7.6 path that used
//!    to be dead code. The qlog assertion fails if the detection is
//!    unwired.

use rq_qlog::EventData;
use rq_recovery::congestion::MIN_WINDOW;
use rq_recovery::{CcAlgorithm, RttEstimator};
use rq_sim::{SimDuration, SimRng, SimTime};
use rq_testbed::{
    rep_scenario, run_scenario, run_server_load, FaultSpec, LossSpec, Scenario, ScenarioMatrix,
    ServerLoadSpec, SweepRunner,
};
use rq_testkit::prop::cases;

const WFC: rq_quic::ServerAckMode = rq_quic::ServerAckMode::WaitForCertificate;

fn base() -> Scenario {
    Scenario::base(
        rq_profiles::client_by_name("quic-go").unwrap(),
        WFC,
        rq_http::HttpVersion::H3,
    )
}

// ---------------------------------------------------------------------
// 1. Controller invariants (property-based).
// ---------------------------------------------------------------------

/// Drives one controller through a seeded op sequence (send / ack /
/// loss burst / persistent congestion), checking conservation and the
/// window floor after every step, and returns the cwnd trace.
fn drive(algo: CcAlgorithm, seed: u64, steps: usize) -> Vec<usize> {
    let mut cc = algo.build();
    let mut rng = SimRng::new(seed);
    let mut rtt = RttEstimator::new(SimDuration::from_millis(25));
    let mut now = SimTime::ZERO;
    // Outstanding (size, time_sent) in send order.
    let mut outstanding: Vec<(usize, SimTime)> = Vec::new();
    let mut trace = Vec::with_capacity(steps);
    for _ in 0..steps {
        now = now + SimDuration::from_micros(100 + rng.gen_range(10_000));
        match rng.gen_range(10) {
            // Sends are the most common op, gated like the endpoint
            // gates them.
            0..=4 => {
                let size = 40 + rng.gen_range(1160) as usize;
                if cc.can_send(size) {
                    cc.on_sent(size);
                    outstanding.push((size, now));
                }
            }
            5..=7 => {
                if !outstanding.is_empty() {
                    let (size, sent) = outstanding.remove(0);
                    if rng.gen_bool(0.5) {
                        rtt.update(now.since(sent), SimDuration::ZERO, true);
                    }
                    cc.on_ack(size, sent, now, &rtt);
                }
            }
            8 => {
                let burst = 1 + rng.gen_range(4) as usize;
                let n = burst.min(outstanding.len());
                if n > 0 {
                    let lost: Vec<(usize, SimTime)> = outstanding.drain(..n).collect();
                    let sizes: Vec<usize> = lost.iter().map(|l| l.0).collect();
                    let latest = lost.iter().map(|l| l.1).max().unwrap();
                    cc.on_loss(&sizes, latest, now);
                }
            }
            _ => cc.on_persistent_congestion(),
        }
        let expected: usize = outstanding.iter().map(|o| o.0).sum();
        assert_eq!(
            cc.bytes_in_flight(),
            expected,
            "{algo:?} bytes_in_flight diverged from the outstanding set"
        );
        assert!(
            cc.cwnd() >= MIN_WINDOW,
            "{algo:?} cwnd {} fell below the minimum window",
            cc.cwnd()
        );
        assert_eq!(
            cc.available(),
            cc.cwnd().saturating_sub(cc.bytes_in_flight())
        );
        trace.push(cc.cwnd());
    }
    trace
}

/// Window floor + conservation for every controller, any op stream.
#[test]
fn controller_invariants_hold() {
    cases(24, |rng| {
        let seed = rng.next_u64();
        for algo in CcAlgorithm::ALL {
            drive(algo, seed, 400);
        }
    });
}

/// Identical seeds ⇒ identical cwnd traces (controller determinism).
#[test]
fn controller_trace_is_deterministic() {
    cases(24, |rng| {
        let seed = rng.next_u64();
        for algo in CcAlgorithm::ALL {
            assert_eq!(drive(algo, seed, 300), drive(algo, seed, 300));
        }
    });
}

// ---------------------------------------------------------------------
// 2. Transfer determinism and driver equivalence.
// ---------------------------------------------------------------------

#[test]
fn multi_stream_transfer_completes_with_goodput() {
    let mut sc = base();
    sc.file_size = 64 * 1024;
    sc.streams = 3;
    let res = run_scenario(&sc);
    assert!(res.completed, "{res:?}");
    let dl = res.download_complete_ms.unwrap();
    let gp = res.goodput_mbps.unwrap();
    assert!(dl > 0.0, "data phase must take time, got {dl}");
    // 3 × 64 KiB over a 10 Mbit/s link: goodput must be positive and
    // cannot exceed the line rate.
    assert!(gp > 0.0 && gp < 10.0, "goodput {gp} outside (0, line rate)");
    assert_eq!(res.label, "quic-go/WFC/http/3/rtt9ms/None/x3");
}

#[test]
fn transfer_matrix_is_thread_count_invariant() {
    let mut sc = base();
    sc.file_size = 128 * 1024;
    sc.streams = 2;
    sc.loss =
        LossSpec::Random(rq_sim::ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.3, 0.0, 0.5));
    // One single-cell matrix per controller: the matrix has no cc axis,
    // each cell keeps its base scenario's.
    let matrices: Vec<ScenarioMatrix> = CcAlgorithm::ALL
        .iter()
        .map(|&cc| ScenarioMatrix::new(Scenario { cc, ..sc.clone() }))
        .collect();
    let reps = 3;
    let run = |threads| -> Vec<_> {
        let runner = SweepRunner::new(threads);
        matrices.iter().flat_map(|m| m.run(&runner, reps)).collect()
    };
    let (seq, par) = (run(1), run(4));
    assert_eq!(seq.len(), 3);
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.scenario.label(), b.scenario.label());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.ttfb_ms, y.ttfb_ms, "{}", a.scenario.label());
            assert_eq!(x.download_complete_ms, y.download_complete_ms);
            assert_eq!(x.goodput_mbps, y.goodput_mbps);
            assert_eq!(x.server_packets_lost, y.server_packets_lost);
            assert_eq!(x.client_log.events, y.client_log.events);
        }
    }
    // The controller axis actually changes the lossy data phase: at
    // least one repetition must differ somewhere across controllers.
    let fingerprints: Vec<Vec<Option<f64>>> = seq
        .iter()
        .map(|c| c.results.iter().map(|r| r.download_complete_ms).collect())
        .collect();
    assert!(
        fingerprints.iter().any(|f| *f != fingerprints[0]),
        "all controllers produced identical transfers: {fingerprints:?}"
    );
}

#[test]
fn single_pair_runner_is_the_n1_server_load_case() {
    let mut sc = base();
    sc.file_size = 48 * 1024;
    sc.streams = 2;
    sc.cc = CcAlgorithm::Cubic;
    let direct = run_scenario(&sc);
    let load = run_server_load(&ServerLoadSpec::single(sc));
    let o = &load.outcomes[0];
    assert_eq!(o.response_ms, direct.response_ms);
    assert_eq!(o.ttfb_ms, direct.ttfb_ms);
    assert_eq!(o.download_complete_ms, direct.download_complete_ms);
    assert_eq!(o.goodput_mbps, direct.goodput_mbps);
    assert_eq!(load.report.download.count(), 1);
    assert_eq!(load.report.goodput.count(), 1);
}

#[test]
fn rep_scenarios_inherit_cc_and_streams() {
    let mut sc = base();
    sc.cc = CcAlgorithm::BbrLite;
    sc.streams = 4;
    let rep = rep_scenario(&sc, 3);
    assert_eq!(rep.cc, CcAlgorithm::BbrLite);
    assert_eq!(rep.streams, 4);
    assert_ne!(rep.seed, sc.seed);
}

// ---------------------------------------------------------------------
// 3. Persistent congestion (RFC 9002 §7.6).
// ---------------------------------------------------------------------

/// True when the log carries a `congestion_state_updated` event that
/// declared persistent congestion.
fn saw_persistent_congestion(log: &rq_qlog::EventLog) -> bool {
    log.events.iter().any(|ev| {
        matches!(
            &ev.data,
            EventData::CongestionStateUpdated {
                new_state: "persistent_congestion",
                ..
            }
        )
    })
}

#[test]
fn blackout_longer_than_pto_span_collapses_the_window() {
    // A ~400 ms outage in the middle of a ~900 ms transfer: every probe
    // the server retransmits into the dead link extends the lost span
    // past 3 × PTO, so the first ACK that gets through afterwards must
    // declare persistent congestion. Fails in the pre-fix state, where
    // that very ACK first raised `largest_acked_sent_time` past the
    // whole lost span and thereby vetoed the detection it triggered.
    let mut sc = base();
    sc.file_size = 1024 * 1024;
    sc.seed = 3;
    sc.faults = FaultSpec {
        blackout: Some((SimDuration::from_millis(300), SimDuration::from_millis(400))),
        ..FaultSpec::none()
    };
    let res = run_scenario(&sc);
    assert!(
        saw_persistent_congestion(&res.server_log),
        "no persistent_congestion event in the server qlog (client: {})",
        saw_persistent_congestion(&res.client_log)
    );
}
