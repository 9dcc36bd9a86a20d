//! The WFC/IACK pair figures: per client, the median TTFB under both ACK
//! policies and their difference (Figures 5–7, 12, 13), and the first-PTO
//! improvement read from qlog (Figure 16).

use rq_http::HttpVersion;
use rq_sim::SimDuration;
use rq_testbed::{repetitions, run_scenario, LossSpec, Scenario};

use crate::{cell, clients_for, delta_cell, median_by, RunConfig, IACK, WFC};

const H1_ONLY: &[HttpVersion] = &[HttpVersion::H1];
const H1_AND_H3: &[HttpVersion] = &[HttpVersion::H1, HttpVersion::H3];

/// The testbed's base RTT, for figures that do not sweep it.
const BASE_RTT_MS: &[u64] = &[9];
/// The RTT grid of Figures 12/13.
const LOSS_RTT_GRID_MS: &[u64] = &[1, 9, 20, 100, 300];

/// One WFC-vs-IACK TTFB table per (HTTP version, RTT): a row per client.
struct PairFigure {
    https: &'static [HttpVersion],
    rtts_ms: &'static [u64],
    loss: LossSpec,
    cert_len: usize,
    cert_delay_ms: u64,
    /// Whether the delta column reads IACK − WFC (the figures where WFC
    /// is expected to win) or WFC − IACK.
    iack_minus_wfc: bool,
    /// Width of the IACK-aborts column, for the figures that have one.
    aborts_width: Option<usize>,
}

impl PairFigure {
    fn render(&self, cfg: &RunConfig) {
        // Every (HTTP version, RTT, client) cell under WFC, then IACK.
        let mut cells = Vec::new();
        for &http in self.https {
            for &rtt_ms in self.rtts_ms {
                for client in clients_for(http) {
                    let mut sc = Scenario::base(client, WFC, http);
                    sc.rtt = SimDuration::from_millis(rtt_ms);
                    sc.loss = self.loss;
                    sc.cert_len = self.cert_len;
                    sc.cert_delay = SimDuration::from_millis(self.cert_delay_ms);
                    cells.push(sc.clone());
                    sc.ack_mode = IACK;
                    cells.push(sc);
                }
            }
        }
        let reps = cfg.reps;
        let runs = cfg.runner.map(&repetitions(&cells, reps), |sc| {
            let r = run_scenario(sc);
            (r.ttfb_ms, r.aborted)
        });
        let mut pairs = runs.chunks(2 * reps);
        for &http in self.https {
            for &rtt_ms in self.rtts_ms {
                self.header(http, rtt_ms);
                for client in clients_for(http) {
                    let (wfc, iack) = pairs.next().expect("a pair per row").split_at(reps);
                    let aborts = iack.iter().filter(|(_, aborted)| *aborted).count();
                    let (wfc, iack) = (median_by(wfc, |r| r.0), median_by(iack, |r| r.0));
                    let delta = if self.iack_minus_wfc {
                        delta_cell(wfc, iack, 9)
                    } else {
                        delta_cell(iack, wfc, 9)
                    };
                    print!(
                        "{:<10} {} {} {delta}",
                        client.name,
                        cell(wfc, 9, 1),
                        cell(iack, 9, 1),
                    );
                    match self.aborts_width {
                        Some(width) => println!(" {aborts:>width$}"),
                        None => println!(),
                    }
                }
            }
        }
    }

    /// The column header, led by what the table is one of: an RTT
    /// section, an HTTP-version section, or the whole figure.
    fn header(&self, http: HttpVersion, rtt_ms: u64) {
        let lead = if self.rtts_ms.len() > 1 {
            format!("\n[{} | RTT {rtt_ms} ms]", http.label())
        } else if self.https.len() > 1 {
            format!("\n({})", http.label())
        } else {
            format!("{:<10}", "client")
        };
        let delta = if self.iack_minus_wfc {
            "IACK-WFC"
        } else {
            "WFC-IACK"
        };
        print!("{lead} {:>10} {:>10} {delta:>10}", "WFC", "IACK");
        match self.aborts_width {
            Some(width) => println!(" {:>width$}", "aborts"),
            None => println!(),
        }
    }
}

/// Figure 5: TTFB of a 10 KB transfer at 9 ms RTT with the large (5,113 B)
/// certificate, Δt = 200 ms, no loss — the anti-amplification scenario.
pub(crate) fn fig05(cfg: &RunConfig) {
    PairFigure {
        https: H1_AND_H3,
        loss: LossSpec::None,
        cert_len: rq_tls::CERT_LARGE,
        cert_delay_ms: 200,
        ..FIG06
    }
    .render(cfg);
    println!("\npaper: median improvements up to ~10 ms (neqo 9.6, ngtcp2 10); quiche degrades under IACK.");
}

/// Figure 6: TTFB of a 10 KB transfer at 9 ms RTT under loss of the first
/// server flight except its first datagram (datagrams 2+3 under IACK,
/// datagram 2 under WFC). IACK prolongs the TTFB: the server holds no RTT
/// sample and falls back to its default PTO.
const FIG06: PairFigure = PairFigure {
    https: H1_ONLY,
    rtts_ms: BASE_RTT_MS,
    loss: LossSpec::ServerFlightTail,
    cert_len: rq_tls::CERT_SMALL,
    cert_delay_ms: 0,
    iack_minus_wfc: true,
    aborts_width: Some(8),
};

pub(crate) fn fig06(cfg: &RunConfig) {
    FIG06.render(cfg);
    println!("\npaper: IACK requires ≈177–188 ms more (server default PTO); quiche aborts under IACK (HTTP/1.1).");
}

/// Figure 7: TTFB of a 10 KB transfer at 9 ms RTT under loss of the
/// entire second client flight. The smaller IACK-derived PTO lets the
/// client resend sooner: IACK improves the TTFB.
///
/// A small Δt (4 ms) makes the WFC-inflated PTO visible (the paper's
/// stacks add 2.9–7.8 ms of processing; cf. §4.1 "QUIC stack delays").
const FIG07: PairFigure = PairFigure {
    loss: LossSpec::SecondClientFlight,
    cert_delay_ms: 4,
    iack_minus_wfc: false,
    aborts_width: None,
    ..FIG06
};

pub(crate) fn fig07(cfg: &RunConfig) {
    FIG07.render(cfg);
    println!("\npaper: median improvements 10–28 ms; picoquic unchanged (ignores the IACK RTT).");
}

/// Figure 12: the Figure 6 server-flight-tail loss scenario across
/// RTTs of 1, 9, 20, 100 and 300 ms, HTTP/1.1 and HTTP/3.
pub(crate) fn fig12(cfg: &RunConfig) {
    PairFigure {
        https: H1_AND_H3,
        rtts_ms: LOSS_RTT_GRID_MS,
        aborts_width: Some(7),
        ..FIG06
    }
    .render(cfg);
    println!("\npaper: IACK trails WFC up to 100 ms RTT; the gap narrows at 100 ms and reverses at 300 ms.");
}

/// Figure 13: the Figure 7 second-client-flight loss scenario across
/// RTTs of 1, 9, 20, 100 and 300 ms, HTTP/1.1 and HTTP/3.
pub(crate) fn fig13(cfg: &RunConfig) {
    PairFigure {
        https: H1_AND_H3,
        rtts_ms: LOSS_RTT_GRID_MS,
        ..FIG07
    }
    .render(cfg);
    println!("\npaper: general improvement for IACK at all RTTs; picoquic relies on its default PTO instead.");
}

/// Figure 16: median first-PTO improvement of IACK over WFC, derived from
/// the recovery-metric updates (qlog), across network RTTs.
///
/// The paper finds a consistent improvement across RTTs whose magnitude is
/// the QUIC-stack Δt (median 2.9–7.8 ms between client stacks); we emulate
/// Δt = 4 ms like Figure 2.
pub(crate) fn fig16(cfg: &RunConfig) {
    let rtts: [u64; 9] = [1, 9, 20, 50, 100, 150, 200, 250, 300];
    let clients = clients_for(HttpVersion::H1);
    // Per client, per RTT: the WFC cell, then the IACK cell.
    let mut cells = Vec::new();
    for client in &clients {
        for rtt in rtts {
            let mut sc = Scenario::base(client.clone(), WFC, HttpVersion::H1);
            sc.rtt = SimDuration::from_millis(rtt);
            sc.cert_delay = SimDuration::from_millis(4);
            cells.push(sc.clone());
            sc.ack_mode = IACK;
            cells.push(sc);
        }
    }
    let reps = cfg.reps;
    let jobs = repetitions(&cells, reps);
    let ptos = cfg.runner.map(&jobs, |sc| run_scenario(sc).first_pto_ms);
    print!("{:<10}", "client");
    for rtt in rtts {
        print!(" {:>8}", format!("{rtt}ms"));
    }
    println!();
    for (client, row) in clients.iter().zip(ptos.chunks(2 * reps * rtts.len())) {
        print!("{:<10}", client.name);
        for pair in row.chunks(2 * reps) {
            let (wfc, iack) = pair.split_at(reps);
            let improvement = median_by(wfc, |p| *p)
                .zip(median_by(iack, |p| *p))
                .map(|(w, i)| w - i);
            print!(" {}", cell(improvement, 8, 1));
        }
        println!();
    }
    println!(
        "\npaper: improvements are consistent across RTTs (3xΔt ≈ 12 ms here; 7–24.7 ms in the \
         paper's stacks); go-x-net is erratic due to its smoothed-RTT mis-initialization."
    );
}
