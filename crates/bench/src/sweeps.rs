//! Scenario sweeps beyond the paper: the WFC/IACK trade-off under
//! stochastic impairments, across handshake classes, through a
//! multi-megabyte data phase, and across a mid-download path flip.
//! Every run is seeded, so each output is byte-identical for any
//! `REACKED_THREADS`.

use rq_http::HttpVersion;
use rq_quic::ServerAckMode;
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    rep_scenario, run_scenario, CcAlgorithm, HandshakeClass, LossSpec, MatrixCell, MigrationSpec,
    RunResult, Scenario, ScenarioMatrix, SweepScenarios,
};
use rq_tls::ServerResumption;

use crate::{cell, delta_cell, median_by, quic_go, RunConfig, IACK, WFC};

/// The handshake setups the class-aware sweeps compare: the paper's
/// WFC/IACK pair plus the resumption story's 0-RTT head start.
pub(crate) const SETUPS: [(ServerAckMode, HandshakeClass); 3] = [
    (WFC, HandshakeClass::Full),
    (IACK, HandshakeClass::Full),
    (IACK, HandshakeClass::ZeroRtt),
];

/// A setup's row label, e.g. `iack/0rtt`.
pub(crate) fn setup_label(mode: ServerAckMode, class: HandshakeClass) -> String {
    format!("{}/{}", mode.label().to_lowercase(), class.label())
}

/// The RTT axis of the impairment and resumption matrices.
fn matrix_rtts() -> [SimDuration; 3] {
    [9, 50, 100].map(SimDuration::from_millis)
}

/// Titles of the columns the two matrix sweeps share.
fn ttfb_and_handshake_header() -> String {
    format!(
        "{:>9} {:>9} {:>8} {:>9} {:>9} {:>8}",
        "WFC ttfb", "IACK ttfb", "Δttfb", "WFC hs", "IACK hs", "Δhs"
    )
}

/// The shared columns: WFC and IACK medians and their Δ (IACK − WFC),
/// for TTFB and for the handshake time.
fn ttfb_and_handshake_cells(wfc: &MatrixCell, iack: &MatrixCell) -> String {
    let w_ttfb = median_by(&wfc.results, |r| r.ttfb_ms);
    let i_ttfb = median_by(&iack.results, |r| r.ttfb_ms);
    let w_hs = median_by(&wfc.results, |r| r.handshake_ms);
    let i_hs = median_by(&iack.results, |r| r.handshake_ms);
    format!(
        "{} {} {} {} {} {}",
        cell(w_ttfb, 9, 1),
        cell(i_ttfb, 9, 1),
        delta_cell(w_ttfb, i_ttfb, 8),
        cell(w_hs, 9, 1),
        cell(i_hs, 9, 1),
        delta_cell(w_hs, i_hs, 8),
    )
}

fn mean_per_run(results: &[RunResult], count: impl Fn(&RunResult) -> usize) -> f64 {
    results.iter().map(count).sum::<usize>() as f64 / results.len() as f64
}

fn share<'a>(
    results: impl IntoIterator<Item = &'a RunResult>,
    hit: impl Fn(&RunResult) -> bool,
) -> f64 {
    let (mut hits, mut runs) = (0usize, 0usize);
    for r in results {
        runs += 1;
        hits += usize::from(hit(r));
    }
    hits as f64 / runs as f64
}

/// The impairment grid: one clean baseline plus each impairment family,
/// plus a kitchen-sink channel combining all of them.
fn impairment_grid() -> Vec<(&'static str, LossSpec)> {
    let clean = ImpairmentSpec::none();
    vec![
        ("clean", LossSpec::Random(clean)),
        ("iid 1% loss", LossSpec::Random(clean.with_iid_loss(0.01))),
        ("iid 5% loss", LossSpec::Random(clean.with_iid_loss(0.05))),
        (
            "GE bursty loss",
            LossSpec::Random(clean.with_gilbert_elliott(0.02, 0.3, 0.0, 0.8)),
        ),
        (
            "reorder 10%/5ms",
            LossSpec::Random(clean.with_reordering(0.10, SimDuration::from_millis(5))),
        ),
        (
            "duplicate 2%",
            LossSpec::Random(clean.with_duplication(0.02)),
        ),
        (
            "jitter 0-3ms",
            LossSpec::Random(clean.with_uniform_jitter(SimDuration::from_millis(3))),
        ),
        (
            "all combined",
            LossSpec::Random(
                clean
                    .with_gilbert_elliott(0.02, 0.3, 0.0, 0.8)
                    .with_reordering(0.05, SimDuration::from_millis(4))
                    .with_duplication(0.01)
                    .with_uniform_jitter(SimDuration::from_millis(2)),
            ),
        ),
    ]
}

/// Beyond the paper: instant-ACK gains under *stochastic* impairments.
///
/// The paper hand-picks two deterministic loss patterns; real paths add
/// random loss, loss bursts, reordering, duplication, and jitter. This
/// sweep expands a [`ScenarioMatrix`] over ack modes × RTTs × impairment
/// specs and reports the median TTFB / handshake-time deltas (IACK − WFC)
/// per cell, plus how busy loss recovery was.
pub(crate) fn impairment(cfg: &RunConfig) {
    let rtts = matrix_rtts();
    let grid = impairment_grid();
    let losses: Vec<LossSpec> = grid.iter().map(|(_, l)| *l).collect();

    let matrix = ScenarioMatrix::new(quic_go(WFC, HttpVersion::H1))
        .ack_modes(&[WFC, IACK])
        .rtts(&rtts)
        .losses(&losses);
    println!(
        "{} cells x {} reps, threads from REACKED_THREADS\n",
        matrix.len(),
        cfg.reps
    );
    let cells = matrix.run(&cfg.runner, cfg.reps);

    println!(
        "{:<16} {:>7} {} {:>9} {:>9} {:>8}",
        "impairment",
        "rtt[ms]",
        ttfb_and_handshake_header(),
        "drop/run",
        "lost/run",
        "dup/run"
    );
    // Matrix order: ack mode (outer) → rtt → loss (inner); the WFC block
    // is the first half, IACK the second.
    let (n_rtt, n_loss) = (rtts.len(), losses.len());
    for (ri, rtt) in rtts.iter().enumerate() {
        for (li, (name, _)) in grid.iter().enumerate() {
            let wfc = &cells[ri * n_loss + li];
            let iack = &cells[(n_rtt + ri) * n_loss + li];
            // Recovery activity: packets declared lost on either side
            // (random drops mostly hit server flights, so the server
            // count carries most declarations).
            let lost_both = |r: &RunResult| r.client_packets_lost + r.server_packets_lost;
            // Each count is averaged over the WFC and the IACK cell.
            let pair_mean = |count: fn(&RunResult) -> usize| {
                (mean_per_run(&wfc.results, count) + mean_per_run(&iack.results, count)) / 2.0
            };
            println!(
                "{:<16} {:>7} {} {:>9.1} {:>9.1} {:>8.1}",
                name,
                rtt.as_millis(),
                ttfb_and_handshake_cells(wfc, iack),
                pair_mean(|r| r.dropped_datagrams),
                pair_mean(lost_both),
                pair_mean(|r| r.duplicated_datagrams),
            );
        }
        println!();
    }
    println!(
        "Δ = IACK − WFC (negative: instant ACK faster). drop/run = mean channel drops, lost/run = \
         mean recovery:packet_lost declarations (client + server), dup/run = mean fabricated \
         copies; each averaged over the WFC and IACK cells."
    );
}

/// Δt for every resumption-sweep cell: large enough that full-handshake
/// WFC visibly pays the store round trip the abbreviated classes skip.
const RESUMPTION_CERT_DELAY_MS: u64 = 50;

/// A resumption-sweep cell; its server issues tickets and accepts 0-RTT.
fn resumption_base(class: HandshakeClass) -> Scenario {
    let mut sc = quic_go(WFC, HttpVersion::H1);
    sc.cert_delay = SimDuration::from_millis(RESUMPTION_CERT_DELAY_MS);
    sc.handshake_class = class;
    sc
}

/// Beyond the paper: the ACK-policy trade-off across handshake classes.
///
/// The paper's WFC-vs-IACK dichotomy lives on the certificate wait (Δt):
/// the instant ACK exists because the ServerHello flight is stuck behind
/// the store round trip. Session resumption removes that flight entirely
/// and 0-RTT moves the request into the first client datagram, so this
/// sweep asks how much of the trade-off survives per handshake class.
/// Resumed/0-RTT cells run the two-connection priming flow (an unmeasured
/// full handshake mints the ticket).
pub(crate) fn resumption(cfg: &RunConfig) {
    let rtts = matrix_rtts();
    let classes = HandshakeClass::ALL;

    let base = resumption_base(HandshakeClass::Full);
    let matrix = ScenarioMatrix::new(base)
        .ack_modes(&[WFC, IACK])
        .handshake_classes(&classes)
        .rtts(&rtts);
    println!(
        "{} cells x {} reps, threads from REACKED_THREADS\n",
        matrix.len(),
        cfg.reps
    );
    let cells = matrix.run(&cfg.runner, cfg.reps);

    println!(
        "{:<8} {:>7} {} {:>8} {:>8}",
        "class",
        "rtt[ms]",
        ttfb_and_handshake_header(),
        "resumed",
        "0rtt-ok"
    );
    // Matrix order: ack mode (outer) → class → rtt (inner).
    let (n_class, n_rtt) = (classes.len(), rtts.len());
    let cell_at = |mi: usize, ci: usize, ri: usize| -> &MatrixCell {
        &cells[(mi * n_class + ci) * n_rtt + ri]
    };
    for (ci, class) in classes.iter().enumerate() {
        for (ri, rtt) in rtts.iter().enumerate() {
            let wfc = cell_at(0, ci, ri);
            let iack = cell_at(1, ci, ri);
            let both = || wfc.results.iter().chain(&iack.results);
            println!(
                "{:<8} {:>7} {} {:>7.0}% {:>7.0}%",
                class.label(),
                rtt.as_millis(),
                ttfb_and_handshake_cells(wfc, iack),
                share(both(), |r| r.resumed) * 100.0,
                share(both(), |r| r.early_data_accepted == Some(true)) * 100.0,
            );
        }
        println!();
    }

    // Server resumption profiles: what a 0-RTT offer gets from each.
    println!(
        "0-RTT offers per server profile (WFC, rtt 50 ms):\n{:<20} {:>9} {:>9} {:>8} {:>8}",
        "profile", "ttfb", "hs", "resumed", "0rtt-ok"
    );
    let zero_rtt = resumption_base(HandshakeClass::ZeroRtt);
    let lifetime = zero_rtt.resumption.ticket_lifetime_secs;
    let policies = [
        ("resume-accepting", ServerResumption::accepting(lifetime)),
        (
            "resume-reject-0rtt",
            ServerResumption::rejecting_early_data(lifetime),
        ),
        ("no-resumption", ServerResumption::disabled()),
    ];
    for (name, policy) in policies {
        let mut sc = zero_rtt.clone();
        sc.resumption = policy;
        sc.rtt = SimDuration::from_millis(50);
        let results = cfg.runner.run_repetitions(&sc, cfg.reps);
        println!(
            "{:<20} {} {} {:>7.0}% {:>7.0}%",
            name,
            cell(median_by(&results, |r| r.ttfb_ms), 9, 1),
            cell(median_by(&results, |r| r.handshake_ms), 9, 1),
            share(&results, |r| r.resumed) * 100.0,
            share(&results, |r| r.early_data_accepted == Some(true)) * 100.0,
        );
    }
    println!(
        "\nΔ = IACK − WFC (negative: instant ACK faster). resumed / 0rtt-ok = share of runs that \
         ran the abbreviated handshake / had early data accepted. Resumed classes price in the \
         priming connection separately; the measured numbers above are the resumed connection \
         alone. The certificate flight (and Δt) vanishing is why the full-handshake WFC/IACK gap \
         collapses for resumed and 0-RTT classes."
    );
}

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// Concurrent request streams per transfer-sweep connection: enough that
/// the data phase interleaves stream frames without inflating the grid.
const STREAMS: usize = 2;

/// Total response bytes across all request streams.
const TRANSFER_SIZES: [(&str, usize); 3] = [("64k", 64 * KIB), ("1m", MIB), ("10m", 10 * MIB)];

/// Loss grid: the clean baseline and a bursty Gilbert–Elliott channel
/// (2% entry, 30% exit, 50% bad-state drop — ~3% average loss). The
/// impairment sweep's harsher 80% bad state is avoided here on purpose:
/// the chain advances per datagram, so once a long transfer's tail
/// degenerates to one PTO probe per backoff interval the chain freezes
/// in the bad state and the run's completion becomes a coin flip; at
/// 50% the stall streaks die out and every controller finishes.
fn transfer_losses() -> [(&'static str, LossSpec); 2] {
    [
        ("clean", LossSpec::None),
        (
            "GE",
            LossSpec::Random(ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.3, 0.0, 0.5)),
        ),
    ]
}

/// Repetitions per cell, scaled down for the larger bodies so the
/// 10 MiB cells don't dominate the sweep (a pure function of the knob,
/// hence identical at every thread count).
fn reps_for(total: usize, reps: usize) -> usize {
    if total >= 10 * MIB {
        (reps / 3).max(1)
    } else if total >= MIB {
        (reps / 2).max(1)
    } else {
        reps
    }
}

/// Beyond the paper: does the instant ACK still matter by the end of a
/// multi-megabyte transfer?
///
/// Every paper metric stops at TTFB; this sweep runs the *data phase* —
/// two concurrent request streams carrying 64 KiB to 10 MiB of total
/// response body — under each congestion controller (NewReno, CUBIC,
/// BBR-lite), on a clean path and under Gilbert–Elliott bursty loss,
/// across three handshake setups (WFC full, IACK full, IACK 0-RTT).
/// Reported per cell: median TTFB, median data-phase time (first to
/// last response byte), median goodput, and recovery activity.
pub(crate) fn transfer(cfg: &RunConfig) {
    let base = quic_go(WFC, HttpVersion::H3);

    // Cell order: size → loss → setup → controller (innermost), the
    // same nested-loop convention as `ScenarioMatrix`.
    let mut cells: Vec<(String, usize, Scenario)> = Vec::new();
    for (size_name, total) in TRANSFER_SIZES {
        for (loss_name, loss) in transfer_losses() {
            for (ack_mode, class) in SETUPS {
                for cc in CcAlgorithm::ALL {
                    let mut sc = base.clone();
                    sc.file_size = total / STREAMS;
                    sc.streams = STREAMS;
                    sc.loss = loss;
                    sc.ack_mode = ack_mode;
                    sc.handshake_class = class;
                    sc.cc = cc;
                    let setup_name = format!("{}/{}", ack_mode.label(), class.label());
                    let label = format!(
                        "{size_name:<5} {loss_name:<6} {setup_name:<10} {:<8}",
                        cc.label()
                    );
                    cells.push((label, reps_for(total, cfg.reps), sc));
                }
            }
        }
    }
    let jobs: Vec<Scenario> = cells
        .iter()
        .flat_map(|(_, r, sc)| (0..*r).map(move |i| rep_scenario(sc, i)))
        .collect();
    println!(
        "{} cells, {} runs, threads from REACKED_THREADS\n",
        cells.len(),
        jobs.len()
    );
    let results = cfg.runner.map(&jobs, run_scenario);

    println!(
        "{:<5} {:<6} {:<10} {:<8} {:>4} {:>9} {:>10} {:>9} {:>9}",
        "size", "loss", "setup", "cc", "ok", "ttfb", "data[ms]", "Mbit/s", "lost/run"
    );
    // The flat results regroup per cell in job order; a blank line closes
    // each (size, loss) block.
    let block = SETUPS.len() * CcAlgorithm::ALL.len();
    let mut rest = results.as_slice();
    for (idx, (label, r, _)) in cells.iter().enumerate() {
        let (runs, tail) = rest.split_at(*r);
        rest = tail;
        println!(
            "{label} {:>4} {} {} {} {:>9.1}",
            runs.iter().filter(|x| x.completed).count(),
            cell(median_by(runs, |x| x.ttfb_ms), 9, 1),
            cell(median_by(runs, |x| x.download_complete_ms), 10, 1),
            cell(median_by(runs, |x| x.goodput_mbps), 9, 2),
            mean_per_run(runs, |x| x.client_packets_lost + x.server_packets_lost),
        );
        if (idx + 1) % block == 0 {
            println!();
        }
    }
    println!(
        "size = total response body across {STREAMS} request streams; data[ms] = first response \
         byte to the last (the congestion-controlled phase); Mbit/s = body bits over time to the \
         full response; lost/run = mean recovery:packet_lost declarations (client + server)."
    );
}

/// Download large enough that the migration sweep's 100 ms flip lands
/// mid-transfer.
const MIGRATION_FILE_SIZE: usize = 512 * 1024;

/// The migration axis every class runs: no flip, a deliberate migration,
/// and a NAT rebind, all onto a clean 30 ms path at t = 100 ms.
fn migration_axis() -> [(&'static str, MigrationSpec); 3] {
    let at = SimDuration::from_millis(100);
    let new_rtt = SimDuration::from_millis(30);
    [
        ("none", MigrationSpec::none()),
        ("deliberate", MigrationSpec::deliberate_at(at, new_rtt)),
        ("rebind", MigrationSpec::rebind_at(at, new_rtt)),
    ]
}

/// Beyond the paper: what a mid-download path flip costs.
///
/// The paper measures handshakes on a path that never moves. This
/// experiment flips the route under an in-flight 512 KiB download —
/// deliberately (the client is told, rotates its DCID, and validates the
/// new path with PATH_CHALLENGE) or as a silent NAT rebind (the server
/// discovers the move from the packets' arrival path and revalidates) —
/// onto a slower 30 ms path, and reports what the flip costs each
/// handshake class in time-to-full-response and goodput. TTFB always
/// predates the flip, so its column doubles as a control: any row where
/// migration moves TTFB is a bug.
///
/// Per RFC 9000 §9.4 both endpoints reset their congestion controller
/// and RTT estimator for the new path, so the tail of the download pays
/// a fresh slow start on top of the higher RTT.
pub(crate) fn migration(cfg: &RunConfig) {
    let reps = cfg.reps;
    println!(
        "{MIGRATION_FILE_SIZE} B download, {reps} reps/cell, medians; threads from REACKED_THREADS\n"
    );
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "cell", "ttfb", "resp", "download", "goodput", "migrated"
    );
    for (mode, class) in SETUPS {
        for (mig_label, mig) in migration_axis() {
            let mut sc = quic_go(mode, HttpVersion::H1);
            sc.handshake_class = class;
            sc.file_size = MIGRATION_FILE_SIZE;
            sc.migration = mig;
            let results = cfg.runner.run_repetitions(&sc, reps);
            println!(
                "{:<22} {} {} {} {} {:>6}/{reps}",
                format!("{}/{mig_label}", setup_label(mode, class)),
                cell(median_by(&results, |r| r.ttfb_ms), 9, 1),
                cell(median_by(&results, |r| r.response_ms), 9, 1),
                cell(median_by(&results, |r| r.download_complete_ms), 9, 1),
                cell(median_by(&results, |r| r.goodput_mbps), 9, 2),
                results.iter().filter(|r| r.migrated).count(),
            );
        }
    }
    println!(
        "\nttfb/resp/download in ms (download = first response byte to last), goodput in \
         Mbit/s across the whole exchange. migrated = runs that ended on the new path. The \
         flip never moves TTFB (it fires at 100 ms, after the first byte); the response tail \
         pays the new path's RTT plus a per-path congestion reset (RFC 9000 §9.4). A rebind \
         discovers the move one flight later than a deliberate migration, so its tail runs \
         slightly longer under server-side revalidation."
    );
}
