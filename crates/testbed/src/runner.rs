//! Scenario execution and metric extraction.

use rq_qlog::{first_pto_ms, EventData, EventLog};
use rq_sim::{NodeId, SimRng, SimTime};

use crate::scenario::{HandshakeClass, LossSpec, Scenario};
use crate::server_load::{drive_conn_plans, ConnOutcome, ConnPlan, Detail, ServerLoadSpec};

/// Metrics extracted from one run.
#[derive(Debug)]
pub struct RunResult {
    /// Scenario label.
    pub label: String,
    /// The response body arrived in full.
    pub completed: bool,
    /// The connection died (e.g. the quiche duplicate-CID abort).
    pub aborted: bool,
    /// Time to first byte (first STREAM byte at the client), ms.
    pub ttfb_ms: Option<f64>,
    /// Time to full response, ms.
    pub response_ms: Option<f64>,
    /// Data phase alone — first response byte to the last byte of the
    /// last stream, ms. `None` until the response completes.
    pub download_complete_ms: Option<f64>,
    /// Application goodput over the whole exchange: response-body bits
    /// across every request stream divided by the time to the full
    /// response, in Mbit/s.
    pub goodput_mbps: Option<f64>,
    /// Handshake completion at the client, ms.
    pub handshake_ms: Option<f64>,
    /// First client PTO (from the *full* metrics stream), ms.
    pub first_pto_ms: Option<f64>,
    /// First client smoothed-RTT sample, ms.
    pub first_srtt_ms: Option<f64>,
    /// Client RTT samples absorbed (ground truth).
    pub client_rtt_samples: usize,
    /// Received packets that newly acked data at the client (Fig. 11's
    /// "packets with new ACKs").
    pub client_new_ack_packets: usize,
    /// recovery:metrics updates visible after applying this client's qlog
    /// exposure fidelity (Fig. 11's "recovery:metric updates").
    pub exposed_metric_updates: usize,
    /// The server hit the anti-amplification limit at least once.
    pub server_amp_blocked: bool,
    /// The client observed an instant ACK.
    pub iack_observed: bool,
    /// Packets the client's loss recovery declared lost
    /// (`recovery:packet_lost` events in its qlog).
    pub client_packets_lost: usize,
    /// Packets the server's loss recovery declared lost; under random
    /// impairments most drops hit server flights, so this is where
    /// recovery activity shows up.
    pub server_packets_lost: usize,
    /// Datagrams the client sent / the server sent.
    pub client_datagrams: usize,
    /// Server-sent datagram count.
    pub server_datagrams: usize,
    /// Datagrams dropped by the drop mask or the random loss process.
    pub dropped_datagrams: usize,
    /// The measured connection ran the abbreviated (session-resumption)
    /// handshake (false when the ticket was missing or rejected and the
    /// run fell back to a full handshake).
    pub resumed: bool,
    /// Outcome of the 0-RTT offer: `Some(true)` accepted, `Some(false)`
    /// rejected (early data retransmitted as 1-RTT), `None` when the
    /// scenario never offered early data.
    pub early_data_accepted: Option<bool>,
    /// Extra datagram copies fabricated by a duplicating impairment
    /// channel (0 unless `LossSpec::Random` enables duplication).
    pub duplicated_datagrams: usize,
    /// The client ended the run on a non-initial network path.
    pub migrated: bool,
    /// Full client qlog.
    pub client_log: EventLog,
    /// Full server qlog.
    pub server_log: EventLog,
    /// Deterministic metrics snapshot for the run: sim-engine tallies
    /// (`sim/`), server admission (`server/`), and both endpoints' QUIC
    /// counters (`quic/client/`, `quic/server/`).
    pub metrics: rq_obs::Registry,
}

/// Runs one scenario to completion (or abort/time limit).
pub fn run_scenario(sc: &Scenario) -> RunResult {
    run_measured(sc, Detail::Full { trace: false }).0
}

/// Body size of the unmeasured priming connection: just enough to carry
/// the ticket exchange without inflating resumed-cell sweep times.
const PRIMING_FILE_SIZE: usize = 1024;

/// Like [`run_scenario`], additionally returning the full simulation trace
/// (packet capture + milestones) for content-level analyses.
///
/// Resumed and 0-RTT scenarios are **two-connection runs**: an unmeasured
/// priming connection (full handshake, clean path, derived seed) against
/// the same server profile is issued the session ticket, and the
/// measured connection offers it — with early data for
/// [`HandshakeClass::ZeroRtt`]. A `no_tickets` server profile issues
/// none and the measured connection falls back to a full handshake
/// (`RunResult::resumed == false`). The whole two-connection composite
/// stays a pure function of `Scenario::seed`.
pub fn run_scenario_with_trace(sc: &Scenario) -> (RunResult, rq_sim::Trace) {
    let (result, trace) = run_measured(sc, Detail::Full { trace: true });
    (result, trace.expect("the trace was asked for"))
}

/// The measured connection of `sc`, after its priming connection if it
/// has one, with the trace if `detail` asks for it.
fn run_measured(sc: &Scenario, detail: Detail) -> (RunResult, Option<rq_sim::Trace>) {
    let ticket = match sc.handshake_class {
        HandshakeClass::Full => None,
        HandshakeClass::Resumed | HandshakeClass::ZeroRtt => prime_ticket(sc),
    };
    let resumption_active = sc.handshake_class != HandshakeClass::Full;
    let (result, trace, _) = run_connection(sc, ticket, resumption_active, detail);
    (result, trace)
}

/// Runs the priming connection of a resumed scenario and returns the
/// ticket the server issued it, `None` when the profile offers none.
fn prime_ticket(sc: &Scenario) -> Option<rq_tls::SessionTicket> {
    let mut priming = sc.clone();
    priming.handshake_class = HandshakeClass::Full;
    priming.loss = LossSpec::None;
    priming.file_size = PRIMING_FILE_SIZE;
    priming.capture_payloads = false;
    // A derived seed (full SplitMix64 avalanche, same mechanism as the
    // wild scan's per-probe streams) keeps the priming connection's
    // randomness uncorrelated with every measured repetition's.
    priming.seed = SimRng::derive(sc.seed, &[PRIMING_STREAM]).next_u64();
    run_connection(&priming, None, true, Detail::Full { trace: false }).2
}

/// Coordinate tag of the priming connection's seed stream.
const PRIMING_STREAM: u64 = 0x7E11_E7;

/// Runs one simulated connection. `resumption_active` applies the
/// scenario's server resumption profile (ticket issuance on priming
/// runs, PSK/0-RTT acceptance on measured resumed runs); full-handshake
/// scenarios keep resumption disabled so their wire image — and with it
/// every pre-resumption golden file — is untouched. `detail` is full,
/// with or without the trace.
fn run_connection(
    sc: &Scenario,
    ticket: Option<rq_tls::SessionTicket>,
    resumption_active: bool,
    detail: Detail,
) -> (
    RunResult,
    Option<rq_sim::Trace>,
    Option<rq_tls::SessionTicket>,
) {
    // The single pair is the N = 1 case of the many-connection driver:
    // one plan arriving at t = 0, fixed ticket key, no concurrency
    // limit, full detail.
    let plan = ConnPlan {
        scenario: sc.clone(),
        arrival: SimTime::ZERO,
        ticket,
    };
    let spec = ServerLoadSpec::single(sc.clone());
    let out = drive_conn_plans(&spec, vec![plan], resumption_active, detail);
    let (mut result, trace, minted) = out.full.expect("full detail yields the run");
    result.metrics = out.metrics;
    (result, trace, minted)
}

/// Builds the [`RunResult`] of the retired connection `client`, which
/// ran `sc` between the nodes `(client_id, server_id)`: the timing and
/// handshake fields of its `outcome` plus what only the kept qlogs, the
/// trace's datagram capture and the client's connection state can say.
pub(crate) fn full_result(
    client: &mut rq_quic::Connection,
    sc: &Scenario,
    outcome: &ConnOutcome,
    aborted: bool,
    trace: &rq_sim::Trace,
    (client_id, server_id): (NodeId, NodeId),
    server_log: EventLog,
) -> RunResult {
    let client_log = std::mem::take(&mut client.log);
    let first_srtt_ms = client_log.metrics_updates().next().map(|(_, srtt, _)| srtt);
    let exposed_metric_updates = sc
        .client
        .metrics_exposure()
        .exposed_update_count(client_log.metrics_updates().count());
    RunResult {
        label: sc.label(),
        completed: outcome.response_ms.is_some(),
        aborted,
        ttfb_ms: outcome.ttfb_ms,
        response_ms: outcome.response_ms,
        download_complete_ms: outcome.download_complete_ms,
        goodput_mbps: outcome.goodput_mbps,
        handshake_ms: outcome.handshake_ms,
        first_pto_ms: first_pto_ms(&client_log),
        first_srtt_ms,
        client_rtt_samples: client.rtt().sample_count(),
        client_new_ack_packets: client.new_ack_packets(),
        exposed_metric_updates,
        server_amp_blocked: server_log
            .first(|d| matches!(d, EventData::AmplificationBlocked { .. }))
            .is_some(),
        iack_observed: client_log
            .first(|d| matches!(d, EventData::InstantAck { sent: false }))
            .is_some(),
        client_packets_lost: rq_qlog::packets_lost(&client_log),
        server_packets_lost: rq_qlog::packets_lost(&server_log),
        client_datagrams: trace.sent_count(client_id, server_id),
        server_datagrams: trace.sent_count(server_id, client_id),
        dropped_datagrams: trace.dropped_count(client_id, server_id)
            + trace.dropped_count(server_id, client_id),
        duplicated_datagrams: trace.duplicated_count(client_id, server_id)
            + trace.duplicated_count(server_id, client_id),
        resumed: outcome.resumed,
        early_data_accepted: outcome.early_data_accepted,
        migrated: outcome.migrated,
        client_log,
        server_log,
        metrics: rq_obs::Registry::default(),
    }
}

/// The scenario for repetition `i` of `sc`: identical parameters, the
/// per-repetition seed. Both the sequential and the parallel sweep
/// derive repetitions through this single function, which is what makes
/// their outputs bit-identical.
pub fn rep_scenario(sc: &Scenario, i: usize) -> Scenario {
    let mut s = sc.clone();
    s.seed = sc.seed.wrapping_add(i as u64 * 7919);
    s
}

/// Runs `n` repetitions with distinct seeds, sequentially.
pub fn run_repetitions(sc: &Scenario, n: usize) -> Vec<RunResult> {
    (0..n).map(|i| run_scenario(&rep_scenario(sc, i))).collect()
}

/// The generic sweep configuration now lives in `rq-par` (it is shared
/// by the scenario harness here and the `rq-wild` macroscopic scan);
/// re-exported so existing `rq_testbed::SweepRunner` users keep working.
pub use rq_par::{ProfileReport, ProfileSink, SweepRunner};

/// Scenario-specific sweeps on top of the generic [`SweepRunner`].
pub trait SweepScenarios {
    /// Parallel [`run_repetitions`]: same repetitions, same order.
    fn run_repetitions(&self, sc: &Scenario, n: usize) -> Vec<RunResult>;
}

impl SweepScenarios for SweepRunner {
    fn run_repetitions(&self, sc: &Scenario, n: usize) -> Vec<RunResult> {
        self.run(n, |i| run_scenario(&rep_scenario(sc, i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LossSpec;
    use rq_http::HttpVersion;
    use rq_profiles::client_by_name;
    use rq_qlog::MetricsExposure;
    use rq_quic::ServerAckMode;

    const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };
    const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;

    fn base(name: &str, mode: ServerAckMode, http: HttpVersion) -> Scenario {
        Scenario::base(client_by_name(name).unwrap(), mode, http)
    }

    #[test]
    fn clean_h1_transfer_completes() {
        let res = run_scenario(&base("quic-go", WFC, HttpVersion::H1));
        assert!(res.completed, "{res:?}");
        assert!(!res.aborted);
        // 9 ms RTT, no Δt: handshake ~1 RTT, response within ~3 RTTs.
        let ttfb = res.ttfb_ms.unwrap();
        assert!(ttfb > 17.0 && ttfb < 40.0, "ttfb {ttfb}");
    }

    #[test]
    fn clean_h3_transfer_completes_one_rtt_earlier() {
        let h1 = run_scenario(&base("quic-go", WFC, HttpVersion::H1));
        let h3 = run_scenario(&base("quic-go", WFC, HttpVersion::H3));
        assert!(h3.completed);
        // H3 TTFB is the control-stream SETTINGS: one RTT before the H1
        // response body (paper Fig. 5 caption).
        let h1_ttfb = h1.ttfb_ms.unwrap();
        let h3_ttfb = h3.ttfb_ms.unwrap();
        assert!(
            h3_ttfb + 4.0 < h1_ttfb,
            "expected H3 ({h3_ttfb}) ≳1 RTT before H1 ({h1_ttfb})"
        );
    }

    #[test]
    fn iack_observed_only_under_instant_ack() {
        let mut sc = base("quic-go", WFC, HttpVersion::H1);
        sc.cert_delay = rq_sim::SimDuration::from_millis(20);
        let wfc = run_scenario(&sc);
        assert!(!wfc.iack_observed);
        sc.ack_mode = IACK;
        let iack = run_scenario(&sc);
        assert!(iack.iack_observed);
        assert!(iack.completed);
    }

    #[test]
    fn wfc_inflates_first_srtt_by_cert_delay() {
        let mut sc = base("quic-go", WFC, HttpVersion::H1);
        sc.cert_delay = rq_sim::SimDuration::from_millis(25);
        let wfc = run_scenario(&sc);
        sc.ack_mode = IACK;
        let iack = run_scenario(&sc);
        let wfc_srtt = wfc.first_srtt_ms.unwrap();
        let iack_srtt = iack.first_srtt_ms.unwrap();
        assert!(
            wfc_srtt >= 33.0,
            "WFC first srtt ≈ RTT + Δt, got {wfc_srtt}"
        );
        assert!(iack_srtt <= 10.0, "IACK first srtt ≈ RTT, got {iack_srtt}");
        // First PTO differs by ~3Δt (Figure 2).
        let dpto = wfc.first_pto_ms.unwrap() - iack.first_pto_ms.unwrap();
        assert!((dpto - 75.0).abs() < 8.0, "ΔPTO ≈ 3x25 ms, got {dpto}");
    }

    #[test]
    fn large_cert_blocks_server_on_amplification() {
        let mut sc = base("neqo", WFC, HttpVersion::H1);
        sc.cert_len = rq_tls::CERT_LARGE;
        sc.cert_delay = rq_sim::SimDuration::from_millis(200);
        let res = run_scenario(&sc);
        assert!(res.completed, "{res:?}");
        assert!(
            res.server_amp_blocked,
            "5113 B cert must exceed 3x1200 budget"
        );
        // The engine's tally says so too, although the server qlog had
        // left the connection by the time the engine retired it.
        assert_eq!(res.metrics.counter("server/amp_blocked_conns"), 1);
        assert_eq!(res.metrics.counter("quic/server/amp_stalls"), 1);
    }

    #[test]
    fn fig5_shape_iack_beats_wfc_for_neqo_when_blocked() {
        // Paper Fig. 5: with the large certificate and Δt = 200 ms, IACK
        // lowers neqo's/ngtcp2's TTFB by ~1 RTT.
        for name in ["neqo", "ngtcp2"] {
            let mut sc = base(name, WFC, HttpVersion::H1);
            sc.cert_len = rq_tls::CERT_LARGE;
            sc.cert_delay = rq_sim::SimDuration::from_millis(200);
            let wfc = run_scenario(&sc);
            sc.ack_mode = IACK;
            let iack = run_scenario(&sc);
            let (w, i) = (wfc.ttfb_ms.unwrap(), iack.ttfb_ms.unwrap());
            assert!(i < w, "{name}: IACK {i} must beat WFC {w}");
        }
    }

    #[test]
    fn fig6_shape_wfc_beats_iack_on_server_flight_tail_loss() {
        // Paper Fig. 6: IACK needs ~180 ms longer because the server holds
        // no RTT sample and falls back to its 200 ms default PTO.
        let mut sc = base("quic-go", WFC, HttpVersion::H1);
        sc.loss = LossSpec::ServerFlightTail;
        let wfc = run_scenario(&sc);
        sc.ack_mode = IACK;
        let iack = run_scenario(&sc);
        assert!(wfc.completed && iack.completed, "wfc {wfc:?} iack {iack:?}");
        let (w, i) = (wfc.ttfb_ms.unwrap(), iack.ttfb_ms.unwrap());
        assert!(
            i > w + 100.0,
            "IACK ({i}) must trail WFC ({w}) by roughly the server default PTO"
        );
    }

    #[test]
    fn fig7_shape_iack_beats_wfc_on_second_client_flight_loss() {
        // Paper Fig. 7: the smaller PTO lets the client resend sooner.
        let mut sc = base("quic-go", WFC, HttpVersion::H1);
        sc.loss = LossSpec::SecondClientFlight;
        let wfc = run_scenario(&sc);
        sc.ack_mode = IACK;
        let iack = run_scenario(&sc);
        assert!(wfc.completed && iack.completed);
        let (w, i) = (wfc.ttfb_ms.unwrap(), iack.ttfb_ms.unwrap());
        assert!(
            i < w,
            "IACK ({i}) must beat WFC ({w}) under client-flight loss"
        );
    }

    #[test]
    fn repetitions_vary_seed_but_stay_deterministic() {
        let sc = base("quic-go", WFC, HttpVersion::H1);
        let a = run_repetitions(&sc, 3);
        let b = run_repetitions(&sc, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.ttfb_ms, y.ttfb_ms, "same seed ⇒ identical run");
        }
    }

    #[test]
    fn apply_exposure_identity_and_filter_agree_with_counts() {
        // picoquic exposes a fraction of its updates: the runner's count
        // is that share of the log's updates, and full exposure keeps all.
        let mut sc = base("picoquic", WFC, HttpVersion::H1);
        sc.file_size = 50 * 1024;
        let res = run_scenario(&sc);
        let total = res.client_log.metrics_updates().count();
        let partial = sc.client.metrics_exposure();
        assert_eq!(
            partial.exposed_update_count(total),
            res.exposed_metric_updates
        );
        assert!(res.exposed_metric_updates < total);
        assert_eq!(MetricsExposure::full().exposed_update_count(total), total);
    }

    #[test]
    fn parallel_repetitions_match_sequential() {
        let sc = base("quic-go", WFC, HttpVersion::H1);
        let seq = run_repetitions(&sc, 5);
        for threads in [1usize, 3] {
            let par = SweepRunner::new(threads).run_repetitions(&sc, 5);
            assert_eq!(par.len(), seq.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.label, b.label, "threads {threads}");
                assert_eq!(a.ttfb_ms, b.ttfb_ms, "threads {threads}");
                assert_eq!(a.client_log.events.len(), b.client_log.events.len());
            }
        }
    }

    #[test]
    fn sweep_runner_map_preserves_order() {
        let runner = SweepRunner::new(4);
        assert_eq!(runner.threads(), 4);
        let rtts = [1u64, 9, 20];
        let out = runner.map(&rtts, |r| r * 2);
        assert_eq!(out, vec![2, 18, 40]);
        assert_eq!(SweepRunner::new(0).threads(), 1);
    }

    #[test]
    fn exposure_filter_reduces_updates() {
        let mut sc = base("picoquic", WFC, HttpVersion::H1);
        sc.file_size = 100 * 1024;
        let res = run_scenario(&sc);
        assert!(res.completed);
        assert!(
            res.exposed_metric_updates <= res.client_rtt_samples,
            "exposed ({}) cannot exceed ground truth ({})",
            res.exposed_metric_updates,
            res.client_rtt_samples
        );
    }
}
