//! Shared machinery for the experiment regenerator binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! prints the corresponding rows/series. This library hosts the pieces
//! they share: table formatting, repetition counts, the standard scenario
//! grids, and the Table 3 ack-delay capture harness.

#![forbid(unsafe_code)]

use rq_http::HttpVersion;
use rq_profiles::{all_clients, ClientProfile};
use rq_quic::ServerAckMode;
use rq_sim::SimDuration;
use rq_testbed::{
    median, rep_scenario, run_scenario, RunResult, Scenario, SweepRunner, SweepScenarios,
};

/// WFC mode shorthand.
pub const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;
/// IACK mode shorthand (unpadded, like the testbed server).
pub const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

/// Number of repetitions per scenario cell. The paper uses 100; the
/// default here keeps regeneration fast. Override with `REACKED_REPS`.
pub fn repetitions() -> usize {
    std::env::var("REACKED_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
}

/// Scale factor for the wild scan population (default 100k of the 1M).
pub fn scan_population() -> usize {
    std::env::var("REACKED_SCAN_DOMAINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Arrival count for the server-load experiment (default 100k; the
/// engine is sized for 10k–1M). Override with `REACKED_LOAD_ARRIVALS`.
pub fn load_arrivals() -> usize {
    std::env::var("REACKED_LOAD_ARRIVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

/// Prints a header block for an experiment.
pub fn banner(exp: &str, paper_ref: &str, what: &str) {
    println!("================================================================");
    println!("{exp} — {paper_ref}");
    println!("{what}");
    println!("================================================================");
}

/// Formats an `Option<f64>` milliseconds cell.
pub fn ms_cell(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:9.1}"),
        None => format!("{:>9}", "-"),
    }
}

/// The paper tables' aggregation rule: the median of a cell's metric, or
/// `None` when fewer than half of the `reps` repetitions produced it
/// (e.g. the quiche abort).
pub fn half_median(values: &[f64], reps: usize) -> Option<f64> {
    if values.len() * 2 < reps {
        None
    } else {
        median(values)
    }
}

/// Aggregates one scenario cell's repetitions: `(median TTFB, aborts)`,
/// with the [`half_median`] completion threshold.
fn cell_median_ttfb(results: &[RunResult], reps: usize) -> (Option<f64>, usize) {
    let ttfbs: Vec<f64> = results.iter().filter_map(|r| r.ttfb_ms).collect();
    let aborted = results.iter().filter(|r| r.aborted).count();
    (half_median(&ttfbs, reps), aborted)
}

/// Median TTFB in ms over `reps` repetitions of `sc`; `None` when fewer
/// than half the runs completed. Repetitions fan out over the
/// `REACKED_THREADS` sweep pool; results are identical to a sequential
/// run (seeds are per-repetition, order is preserved).
pub fn median_ttfb(sc: &Scenario, reps: usize) -> (Option<f64>, usize) {
    let results = SweepRunner::from_env().run_repetitions(sc, reps);
    cell_median_ttfb(&results, reps)
}

/// Runs the WFC/IACK pair for one client in a loss scenario and returns
/// `(wfc_median, iack_median, iack_aborts)`. Both modes' repetitions run
/// in a single `2×reps` sweep so every worker stays busy.
pub fn wfc_iack_pair(base: &Scenario, reps: usize) -> (Option<f64>, Option<f64>, usize) {
    let mut wfc = base.clone();
    wfc.ack_mode = WFC;
    let mut iack = base.clone();
    iack.ack_mode = IACK;
    let cells: Vec<Scenario> = (0..reps)
        .map(|i| rep_scenario(&wfc, i))
        .chain((0..reps).map(|i| rep_scenario(&iack, i)))
        .collect();
    let mut results = SweepRunner::from_env().map(&cells, run_scenario);
    let iack_results = results.split_off(reps);
    let (w, _) = cell_median_ttfb(&results, reps);
    let (i, ab) = cell_median_ttfb(&iack_results, reps);
    (w, i, ab)
}

/// The clients participating in an HTTP flavour (go-x-net lacks HTTP/3).
pub fn clients_for(http: HttpVersion) -> Vec<ClientProfile> {
    all_clients()
        .into_iter()
        .filter(|c| http == HttpVersion::H1 || c.supports_h3)
        .collect()
}

/// The RTT grid of Figures 12/13.
pub fn loss_rtt_grid() -> Vec<SimDuration> {
    [1u64, 9, 20, 100, 300]
        .into_iter()
        .map(SimDuration::from_millis)
        .collect()
}

pub mod tab3;

#[cfg(test)]
mod tests {
    use super::*;
    use rq_profiles::client_by_name;

    #[test]
    fn repetition_default() {
        // Unless the env var is set in the test environment.
        if std::env::var("REACKED_REPS").is_err() {
            assert_eq!(repetitions(), 15);
        }
    }

    #[test]
    fn clients_for_h3_excludes_go_x_net() {
        let h3 = clients_for(HttpVersion::H3);
        assert_eq!(h3.len(), 7);
        assert!(h3.iter().all(|c| c.name != "go-x-net"));
        assert_eq!(clients_for(HttpVersion::H1).len(), 8);
    }

    #[test]
    fn wfc_iack_pair_runs() {
        let sc = Scenario::base(client_by_name("quic-go").unwrap(), WFC, HttpVersion::H1);
        let (w, i, ab) = wfc_iack_pair(&sc, 2);
        assert!(w.is_some());
        assert!(i.is_some());
        assert_eq!(ab, 0);
    }
}
