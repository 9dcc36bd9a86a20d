//! Experiments on the many-connection server engine: the ACK-policy
//! trade-off as a *server* question, graceful degradation under injected
//! faults, and the metrics-registry snapshots of all three run shapes.
//!
//! Arrival populations are sharded into fixed-size replica servers
//! (`DEFAULT_SHARD_ARRIVALS` each) fanned over the sweep pool; the shard
//! size — not the thread count — determines the split, so stdout is
//! byte-identical at any thread count.

use rq_http::HttpVersion;
use rq_quic::{OverloadPolicy, ServerAckMode};
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    run_scenario, run_server_load_sharded, ArrivalProcess, ClassMix, FaultSpec, HandshakeClass,
    ReconnectPolicy, ServerLoadReport, ServerLoadSpec, DEFAULT_SHARD_ARRIVALS,
};

use crate::sweeps::{setup_label, SETUPS};
use crate::{cell, quic_go, wild, RunConfig, IACK, WFC};

/// `arrivals` quic-go connections under `mode`, Poisson arrivals with
/// the given mean gap.
fn poisson_spec(mode: ServerAckMode, arrivals: usize, mean_gap_ms: u64) -> ServerLoadSpec {
    ServerLoadSpec::new(
        quic_go(mode, HttpVersion::H1),
        arrivals,
        ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_millis(mean_gap_ms),
        },
    )
}

/// The mixed IACK population: 30% resumed / 20% 0-RTT arrivals, a quarter
/// of them crossing an impaired path so the tail quantiles separate from
/// the clean-path median.
fn mixed_iack_spec(arrivals: usize) -> ServerLoadSpec {
    let mut spec = poisson_spec(IACK, arrivals, 2);
    spec.mix = Some(ClassMix {
        resumed: 0.3,
        zero_rtt: 0.2,
    });
    spec.impaired = Some((0.25, ImpairmentSpec::none().with_iid_loss(0.02)));
    spec
}

fn run(cfg: &RunConfig, spec: &ServerLoadSpec) -> ServerLoadReport {
    run_server_load_sharded(spec, &cfg.runner, DEFAULT_SHARD_ARRIVALS)
}

/// The detail columns: client PTO expirations, client/server lost
/// packets, and the per-connection loss histogram's p99 (a log2-bucket
/// upper bound) — all read from the report's metrics snapshot.
fn detail_cells(r: &ServerLoadReport) -> String {
    let m = &r.metrics;
    let lost_p99 = match m.get("load/lost_per_conn") {
        Some(rq_obs::Metric::Histogram(h)) => h.quantile(0.99),
        _ => 0,
    };
    format!(
        " {:>7} {:>8} {:>8} {:>8}",
        m.counter("load/client_pto_expirations"),
        m.counter("load/client_packets_lost"),
        m.counter("load/server_packets_lost"),
        format!("<={lost_p99}"),
    )
}

/// The TTFB tail of a report: p50, p99 and p999 cells.
fn ttfb_tail_cells(r: &ServerLoadReport) -> String {
    [r.ttfb.p50(), r.ttfb.p99(), r.ttfb.p999()]
        .map(|q| cell(q, 9, 1))
        .join(" ")
}

/// Beyond the paper: the ACK-policy trade-off as a *server* question.
///
/// The paper measures WFC vs IACK one client–server pair at a time; a
/// production IACK deployment answers thousands of concurrent handshakes
/// sharing one CPU budget, one ticket key, and one concurrency
/// ceiling. This experiment drives the many-connection server engine:
/// a seeded arrival process spawns N full scenario connections against
/// one shared server, and the engine folds per-class handshake CPU cost,
/// queue depth, shed counts, and TTFB tails into a mergeable report,
/// plus loss/PTO detail columns fed by the metrics registry snapshot each
/// report carries.
pub(crate) fn server_load(cfg: &RunConfig) {
    let arrivals = cfg.load_arrivals;
    println!(
        "{arrivals} Poisson arrivals/section (mean gap 2 ms), shard size {DEFAULT_SHARD_ARRIVALS}, threads from REACKED_THREADS\n"
    );

    // Section 1: WFC vs IACK vs 0-RTT server cost. The 0-RTT population
    // arrives with synthetic tickets minted under the server's key
    // schedule, so its handshakes run the abbreviated PSK path.
    println!(
        "{:<12} {:>9} {:>9} {:>7} {:>10} {:>9} {:>7} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8}",
        "population",
        "completed",
        "failed",
        "shed",
        "cpu[hs]",
        "cpu/conn",
        "depth",
        "p50",
        "p99",
        "p999",
        "pto",
        "lost(cl)",
        "lost(sv)",
        "lp99"
    );
    let mut iack_0rtt = poisson_spec(IACK, arrivals, 2);
    iack_0rtt.base.handshake_class = HandshakeClass::ZeroRtt;
    for (label, spec) in [
        ("wfc/full", poisson_spec(WFC, arrivals, 2)),
        ("iack/full", poisson_spec(IACK, arrivals, 2)),
        ("iack/0rtt", iack_0rtt),
        ("iack/mixed", mixed_iack_spec(arrivals)),
    ] {
        let report = run(cfg, &spec);
        let a = &report.accounting;
        let per_conn = if a.completed > 0 {
            a.cpu_cost / a.completed as f64
        } else {
            0.0
        };
        println!(
            "{label:<12} {:>9} {:>9} {:>7} {:>10.1} {:>9.3} {:>7.1} {}{}",
            a.completed,
            a.failed,
            a.shed,
            a.cpu_cost,
            per_conn,
            a.mean_depth(),
            ttfb_tail_cells(&report),
            detail_cells(&report),
        );
    }

    // Section 2: a flash crowd against a finite server. Arrivals land
    // inside one 500 ms window; each replica server sheds statelessly
    // beyond its concurrency limit.
    println!(
        "\nFlash crowd ({} arrivals in 500 ms) vs concurrency limit (per {}-arrival replica):",
        arrivals, DEFAULT_SHARD_ARRIVALS
    );
    println!(
        "{:<12} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "limit", "completed", "failed", "shed", "shed%", "peak", "p50", "p99", "p999"
    );
    for limit in [64usize, 256, 1024] {
        let mut spec = poisson_spec(IACK, arrivals, 2);
        spec.process = ArrivalProcess::FlashCrowd {
            window: SimDuration::from_millis(500),
        };
        spec.concurrency_limit = limit;
        let report = run(cfg, &spec);
        let a = &report.accounting;
        let shed_pct = 100.0 * a.shed as f64 / a.arrivals.max(1) as f64;
        println!(
            "{limit:<12} {:>9} {:>9} {:>7} {:>6.1}% {:>7} {}",
            a.completed,
            a.failed,
            a.shed,
            shed_pct,
            a.peak_active,
            ttfb_tail_cells(&report),
        );
    }

    println!(
        "\ncpu[hs] = total handshake CPU in full-handshake units (full 1.0, resumed 0.3, accepted \
         0-RTT 0.35); cpu/conn divides by completed connections. depth = mean active connections \
         seen by an arrival; peak = high-water mark per replica. TTFB quantiles are over \
         completed connections (0.5 ms bins). The instant ACK changes *when* the client's first \
         RTT sample lands, not what the handshake costs the server — resumption does: the \
         0-RTT population completes the same arrivals at ~1/3 the handshake CPU."
    );
    println!(
        "\npto / lost(cl) / lost(sv) sum client PTO expirations and client/server lost \
         packets over each population's completed-or-failed connections; lp99 bounds the \
         per-connection client loss count at the 99th percentile (log2-bucket upper bound). \
         All four come from the metrics registry snapshot every report carries."
    );
}

fn fault_spec(mode: ServerAckMode, class: HandshakeClass, arrivals: usize) -> ServerLoadSpec {
    let mut spec = poisson_spec(mode, arrivals, 20);
    spec.base.handshake_class = class;
    spec.conn_deadline = SimDuration::from_secs(10);
    spec
}

/// The fault grid's profiles. Faulty rows all carry the same coping
/// budget: a 3 s handshake deadline and the default jittered-backoff
/// reconnect policy.
fn fault_profiles() -> [(&'static str, FaultSpec); 4] {
    let coping = FaultSpec {
        give_up_after: Some(SimDuration::from_secs(3)),
        reconnect: Some(ReconnectPolicy::default()),
        ..FaultSpec::none()
    };
    let blackout = Some((SimDuration::from_millis(400), SimDuration::from_millis(250)));
    let crash_every = Some(SimDuration::from_millis(700));
    [
        ("baseline", FaultSpec::none()),
        ("blackout", FaultSpec { blackout, ..coping }),
        (
            "crash",
            FaultSpec {
                crash_every,
                ..coping
            },
        ),
        (
            "blackout+crash",
            FaultSpec {
                blackout,
                crash_every,
                ..coping
            },
        ),
    ]
}

fn fault_header() {
    println!(
        "{:<24} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7} {:>10} {:>9} {:>9}",
        "cell",
        "avail",
        "done",
        "retry+",
        "shed",
        "gaveup",
        "reset",
        "failed",
        "reconn",
        "cpu[hs]",
        "tts_p50",
        "tts_p99"
    );
}

fn fault_row(label: &str, r: &ServerLoadReport) {
    let f = &r.fates;
    println!(
        "{label:<24} {:>6.1}% {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>7} {:>10.1} {} {}",
        100.0 * f.availability(),
        f.completed,
        f.retried_then_accepted,
        f.shed,
        f.gave_up,
        f.reset,
        f.failed,
        r.reconnects,
        r.accounting.cpu_cost,
        cell(r.time_to_success.p50(), 9, 1),
        cell(r.time_to_success.p99(), 9, 1),
    );
}

/// Beyond the paper: graceful degradation under injected faults.
///
/// The paper's measurements assume a healthy path and a healthy server.
/// This experiment asks what each handshake class buys — and costs —
/// once things break: seeded link blackouts, server crash/restart
/// cycles that wipe per-connection state, and flash-crowd overload
/// beyond the concurrency ceiling. Clients carry a give-up budget and a
/// jittered-exponential reconnect policy, so every arrival resolves to
/// exactly one fate: completed, retried-then-accepted, shed, gave-up,
/// reset, or failed. Availability is the served fraction; time-to-
/// success counts from *first* arrival through every reconnect.
///
/// Section 2 compares the three overload policies under a flash crowd:
/// silent shed, Retry-based deferral (the address-validation handshake
/// reused as a cheap admission valve), and an explicit busy close.
///
/// Each cell runs a quarter of `REACKED_LOAD_ARRIVALS`.
pub(crate) fn fault_sweep(cfg: &RunConfig) {
    let arrivals = (cfg.load_arrivals / 4).max(40);
    println!(
        "{arrivals} Poisson arrivals/cell (mean gap 20 ms), 10 s budget per connection, shard \
         size {DEFAULT_SHARD_ARRIVALS}, threads from REACKED_THREADS\n"
    );

    // Section 1: the fault grid. Faulty cells give clients a 3 s give-up
    // deadline and up to 3 jittered-backoff reconnect attempts.
    println!("Fault grid (WFC vs IACK vs IACK+0-RTT):");
    fault_header();
    for (mode, class) in SETUPS {
        for (fault_label, faults) in fault_profiles() {
            let mut spec = fault_spec(mode, class, arrivals);
            spec.base.faults = faults;
            let label = format!("{}/{fault_label}", setup_label(mode, class));
            fault_row(&label, &run(cfg, &spec));
        }
    }

    // Section 2: a flash crowd against a finite server, per overload
    // policy. Deferred clients revisit with the server's Retry token;
    // busy-closed and shed clients burn their fate on the floor.
    println!("\nFlash crowd ({arrivals} arrivals in 250 ms) vs limit 64, per overload policy:");
    fault_header();
    for policy in [
        OverloadPolicy::Shed,
        OverloadPolicy::RetryDefer,
        OverloadPolicy::CloseWithBackoff,
    ] {
        let mut spec = fault_spec(IACK, HandshakeClass::Full, arrivals);
        spec.process = ArrivalProcess::FlashCrowd {
            window: SimDuration::from_millis(250),
        };
        spec.concurrency_limit = 64;
        spec.overload = policy;
        fault_row(policy.label(), &run(cfg, &spec));
    }

    println!(
        "\navail = (done + retry+) / arrivals. retry+ = admitted on a revisit after a Retry \
         deferral. tts = time-to-success in ms from first arrival through every reconnect \
         (completed connections only, 0.5 ms bins). cpu[hs] = handshake CPU in full-handshake \
         units. Crashes wipe per-connection server state (orphans get a stateless reset); \
         blackouts drop every datagram in seeded outage windows; give-up fires after 3 s and \
         reconnects retry up to 3 times with jittered exponential backoff."
    );
}

/// Rendered snapshots of the observability metrics registry.
///
/// Drives three representative workloads with metrics collection on and
/// prints each one's `Registry::render()` — the deterministic,
/// byte-stable table of every counter, gauge, and histogram the
/// instrumentation layer maintains:
///
/// 1. one clean WFC handshake (the `sim/`, `server/`, `quic/client/`,
///    and `quic/server/` trees of a single connection);
/// 2. a mixed IACK server-load section (per-class admission, loss and
///    PTO counters folded across every sharded replica);
/// 3. a small wild scan (per-CDN handshake/IACK/resumption totals).
///
/// The golden test pins this output at two thread counts, which is the
/// end-to-end proof that the registry's monoid merge is thread-count
/// invariant: every counter, not just the headline numbers, must come
/// out byte-identical however the work was sharded.
pub(crate) fn metrics_report(cfg: &RunConfig) {
    // Section 1: one clean handshake, every per-connection counter.
    println!("Single clean handshake (quic-go, WFC, HTTP/1.1, 10 KB):\n");
    let result = run_scenario(&quic_go(WFC, HttpVersion::H1));
    print!("{}", result.metrics.render());

    // Section 2: the mixed server-load population of exp_server_load —
    // resumption classes, an impaired quarter, sharded replicas.
    let arrivals = cfg.load_arrivals;
    println!(
        "\nMixed IACK server load ({arrivals} arrivals, 30% resumed / 20% 0-RTT, 25% impaired):\n"
    );
    let report = run(cfg, &mixed_iack_spec(arrivals));
    print!("{}", report.metrics.render());

    // Section 3: the wild scan's exact per-CDN totals.
    println!(
        "\nWild scan ({} domains, 1 repetition):\n",
        cfg.scan_domains
    );
    let scan = wild::scan(cfg, 42, 1, 7);
    let mut reg = rq_obs::Registry::new();
    scan.export_metrics("wild/", &mut reg);
    print!("{}", reg.render());
}
