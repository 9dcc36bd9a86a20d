//! The experiment regenerator: every table and figure of the paper (and
//! the sweeps beyond it) is one row of [`EXPERIMENTS`], run by the one
//! `exp` binary as `exp <name>`.
//!
//! The bodies live in family modules — closed-form analysis, packet
//! captures, WFC/IACK pair figures, ablations, the wild scan, the
//! longitudinal study, scenario sweeps and server-load runs; this file
//! hosts the table and what the families share: the [`RunConfig`] knobs,
//! cell formatting and the median rule.
//!
//! A table that repeats scenario runs builds all its cells first, runs
//! them in one sweep, `cfg.runner.map(&repetitions(&cells, cfg.reps), ..)`,
//! whose closure keeps only what the table reads of each run, and renders
//! from the results' `chunks(cfg.reps)`, one chunk per cell.

#![forbid(unsafe_code)]

use rq_http::HttpVersion;
use rq_obs::median;
use rq_profiles::{all_clients, client_by_name, ClientProfile};
use rq_quic::ServerAckMode;
use rq_testbed::Scenario;

mod ablations;
mod analysis;
mod captures;
mod config;
mod load;
mod longitudinal;
mod pairs;
mod sweeps;
pub mod tab3;
mod wild;

pub use config::RunConfig;

/// WFC mode shorthand.
pub const WFC: ServerAckMode = ServerAckMode::WaitForCertificate;
/// IACK mode shorthand (unpadded, like the testbed server).
pub const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

/// One regenerable output: a paper table or figure, or a sweep beyond it.
pub struct Experiment {
    /// What `exp <name>` is called with; also the golden file's stem.
    pub name: &'static str,
    /// Where the output appears in the paper.
    pub paper_ref: &'static str,
    /// What the output shows (`{scan_domains}` stands for that knob).
    pub caption: &'static str,
    /// Prints the rows/series to stdout.
    pub run: fn(&RunConfig),
}

impl Experiment {
    /// Looks `name` up in [`EXPERIMENTS`].
    pub fn by_name(name: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.name == name)
    }

    /// Prints the header block, then the experiment's output.
    pub fn print(&self, cfg: &RunConfig) {
        let caption = self
            .caption
            .replace("{scan_domains}", &cfg.scan_domains.to_string());
        println!("================================================================");
        println!("{} — {}", self.name, self.paper_ref);
        println!("{caption}");
        println!("================================================================");
        (self.run)(cfg);
    }
}

/// Every experiment, in `exp --list` order. `crates/bench/tests/golden.rs`
/// pins each row's stdout against `tests/golden/<name>.txt`.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "exp_fig02",
        paper_ref: "Figure 2",
        caption: "PTO evolution over packets with new ACKs; IACK improves the first PTO by 3xΔt (Δt = 4 ms)",
        run: analysis::fig02,
    },
    Experiment {
        name: "exp_fig03",
        paper_ref: "Figure 3",
        caption: "Captured wire image of the 1-RTT setup: WFC coalesces ACK+SH; IACK prepends a pure-ACK datagram.",
        run: captures::fig03,
    },
    Experiment {
        name: "exp_fig04",
        paper_ref: "Figure 4",
        caption: "First PTO improvement per RFC 9002; spurious retransmits when Δt exceeds the client PTO",
        run: analysis::fig04,
    },
    Experiment {
        name: "exp_fig05",
        paper_ref: "Figure 5",
        caption: "TTFB [ms], 10 KB @ 9 ms RTT, cert 5113 B, Δt = 200 ms, no loss. \
                  IACK reduces TTFB when the server is blocked by the 3x amplification limit.",
        run: pairs::fig05,
    },
    Experiment {
        name: "exp_fig06",
        paper_ref: "Figure 6",
        caption: "TTFB [ms], 10 KB @ 9 ms RTT, server-flight tail loss. WFC outperforms IACK.",
        run: pairs::fig06,
    },
    Experiment {
        name: "exp_fig07",
        paper_ref: "Figure 7",
        caption: "TTFB [ms], 10 KB @ 9 ms RTT, loss of the entire second client flight. IACK wins.",
        run: pairs::fig07,
    },
    Experiment {
        name: "exp_fig08",
        paper_ref: "Figure 8",
        caption: "ACK→SH delay percentiles [ms] per CDN, Sao Paulo (coalesced ACK–SH counted as 0).",
        run: wild::fig08,
    },
    Experiment {
        name: "exp_fig09",
        paper_ref: "Figure 9",
        caption: "Median time since ClientHello [ms] per 6-hour bin over one week, Cloudflare, Sao Paulo.",
        run: longitudinal::fig09,
    },
    Experiment {
        name: "exp_fig10",
        paper_ref: "Figure 10",
        caption: "RTT − ack_delay [ms]: negative values mean the reported delay exceeds the RTT \
                  (the client would then ignore it or underestimate the path RTT, Appendix D).",
        run: wild::fig10,
    },
    // Eight 10 MB transfers, ~96 s in a debug build: golden.rs checks this
    // row under `cargo test --release` only.
    Experiment {
        name: "exp_fig11",
        paper_ref: "Figure 11",
        caption: "Exposed recovery:metric updates vs packets with new ACKs; 10 MB @ 100 ms RTT, WFC.",
        run: captures::fig11,
    },
    Experiment {
        name: "exp_fig12",
        paper_ref: "Figure 12",
        caption: "TTFB [ms] under first-server-flight tail loss, per RTT. IACK prolongs the TTFB \
                  until the client default PTO / Handshake PTO dominates.",
        run: pairs::fig12,
    },
    Experiment {
        name: "exp_fig13",
        paper_ref: "Figure 13",
        caption: "TTFB [ms] under loss of the entire second client flight, per RTT. IACK improves the TTFB.",
        run: pairs::fig13,
    },
    Experiment {
        name: "exp_fig14",
        paper_ref: "Figure 14",
        caption: "ACK→SH delay medians [ms] per CDN and vantage point (IACK handshakes).",
        run: wild::fig14,
    },
    Experiment {
        name: "exp_fig15",
        paper_ref: "Figure 15",
        caption: "Weekly medians of time since ClientHello [ms], Cloudflare, per vantage point.",
        run: longitudinal::fig15,
    },
    Experiment {
        name: "exp_fig16",
        paper_ref: "Figure 16",
        caption: "Median first-PTO improvement (WFC − IACK) [ms] from qlog metrics, Δt = 4 ms.",
        run: pairs::fig16,
    },
    Experiment {
        name: "exp_tab01",
        paper_ref: "Table 1",
        caption: "IACK deployment by CDN; {scan_domains} synthetic domains, 4 vantage points, 2 repetitions",
        run: wild::tab01,
    },
    Experiment {
        name: "exp_tab02",
        paper_ref: "Table 2",
        caption: "Deployment suggestions with and without packet loss, plus testbed cross-validation.",
        run: analysis::tab02,
    },
    Experiment {
        name: "exp_tab03",
        paper_ref: "Table 3",
        caption: "First ACK Delay [ms] per server, Initial and Handshake packet number space, 3 repetitions.",
        run: captures::tab03,
    },
    Experiment {
        name: "exp_tab04",
        paper_ref: "Table 4",
        caption: "Measured default PTO [ms] and second-client-flight datagram indices (1-based; \
                  datagram 1 is the ClientHello).",
        run: captures::tab04,
    },
    Experiment {
        name: "exp_appendix_d",
        paper_ref: "Appendix D + Table 3",
        caption: "First PTO [ms] at 9 ms RTT, Δt = 25 ms, under hypothetical ACK-Delay strategies.",
        run: analysis::appendix_d,
    },
    Experiment {
        name: "exp_ablation_padded_iack",
        paper_ref: "§5 discussion (no paper figure)",
        caption: "TTFB [ms], large cert + Δt = 200 ms (the Figure 5 setup): unpadded vs MTU-padded IACK.",
        run: ablations::padded_iack,
    },
    Experiment {
        name: "exp_ablation_probe_policy",
        paper_ref: "§5 discussion (no paper figure)",
        caption: "TTFB [ms] under server-flight tail loss + IACK: PING probes vs ClientHello retransmit.",
        run: ablations::probe_policy,
    },
    Experiment {
        name: "exp_ablation_server_pto",
        paper_ref: "§5 / Appendix F discussion (no paper figure)",
        caption: "TTFB [ms] under server-flight tail loss, sweeping the server default PTO (quic-go client).",
        run: ablations::server_pto,
    },
    Experiment {
        name: "exp_impairment_sweep",
        paper_ref: "beyond the paper",
        caption: "Median TTFB / handshake [ms] under stochastic impairments (quic-go client, 10 KB, seeded).",
        run: sweeps::impairment,
    },
    Experiment {
        name: "exp_resumption_sweep",
        paper_ref: "beyond the paper",
        caption: "Median TTFB / handshake [ms] per handshake class (quic-go client, 10 KB, Δt = 50 ms, seeded).",
        run: sweeps::resumption,
    },
    Experiment {
        name: "exp_transfer_sweep",
        paper_ref: "beyond the paper",
        caption: "Data-phase medians per congestion controller (quic-go client, H3, 2 streams, seeded).",
        run: sweeps::transfer,
    },
    Experiment {
        name: "exp_migration_sweep",
        paper_ref: "beyond the paper",
        caption: "Cost of a mid-download path flip (9 ms -> 30 ms at t = 100 ms): deliberate migration vs NAT rebind, per handshake class.",
        run: sweeps::migration,
    },
    Experiment {
        name: "exp_server_load",
        paper_ref: "beyond the paper",
        caption: "One server, many connections: handshake CPU cost and TTFB tails per ACK policy (quic-go client, 10 KB, seeded arrivals).",
        run: load::server_load,
    },
    Experiment {
        name: "exp_fault_sweep",
        paper_ref: "beyond the paper",
        caption: "Availability and time-to-success under injected faults: blackouts, server crashes, and flash-crowd overload per admission policy.",
        run: load::fault_sweep,
    },
    Experiment {
        name: "exp_metrics_report",
        paper_ref: "observability",
        caption: "Metrics-registry snapshots: a clean handshake, a mixed server-load run, and a wild scan.",
        run: load::metrics_report,
    },
];

/// Formats an optional value right-aligned in `width` columns with
/// `precision` decimals; a missing value prints as a dash.
pub(crate) fn cell(v: Option<f64>, width: usize, precision: usize) -> String {
    match v {
        Some(v) => format!("{v:width$.precision$}"),
        None => format!("{:>width$}", "-"),
    }
}

/// Formats the signed difference `to − from` (one decimal, always with
/// its sign) in `width` columns; a dash when either side is missing.
pub(crate) fn delta_cell(from: Option<f64>, to: Option<f64>, width: usize) -> String {
    match (from, to) {
        (Some(from), Some(to)) => format!("{:+width$.1}", to - from),
        _ => format!("{:>width$}", "-"),
    }
}

/// The paper tables' aggregation rule: the median of one metric over a
/// cell's repetitions, or `None` when fewer than half of them produced it
/// (e.g. the quiche abort).
pub(crate) fn median_by<T>(runs: &[T], metric: impl Fn(&T) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = runs.iter().filter_map(metric).collect();
    if values.len() * 2 < runs.len() {
        None
    } else {
        median(&values)
    }
}

/// The scenario most experiments beyond the client comparison vary: a
/// quic-go client fetching 10 KB.
pub(crate) fn quic_go(mode: ServerAckMode, http: HttpVersion) -> Scenario {
    Scenario::base(client_by_name("quic-go").unwrap(), mode, http)
}

/// The clients participating in an HTTP flavour (go-x-net lacks HTTP/3).
pub fn clients_for(http: HttpVersion) -> Vec<ClientProfile> {
    all_clients()
        .into_iter()
        .filter(|c| http == HttpVersion::H1 || c.supports_h3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_testbed::{repetitions, run_scenario};

    #[test]
    fn clients_for_h3_excludes_go_x_net() {
        let h3 = clients_for(HttpVersion::H3);
        assert_eq!(h3.len(), 7);
        assert!(h3.iter().all(|c| c.name != "go-x-net"));
        assert_eq!(clients_for(HttpVersion::H1).len(), 8);
    }

    #[test]
    fn a_pair_cell_has_both_medians_and_no_aborts() {
        let cells = [
            quic_go(WFC, HttpVersion::H1),
            quic_go(IACK, HttpVersion::H1),
        ];
        let runs = rq_testbed::SweepRunner::new(1).map(&repetitions(&cells, 2), |sc| {
            let r = run_scenario(sc);
            (r.ttfb_ms, r.aborted)
        });
        let (wfc, iack) = runs.split_at(2);
        assert!(median_by(wfc, |r| r.0).is_some());
        assert!(median_by(iack, |r| r.0).is_some());
        assert_eq!(iack.iter().filter(|r| r.1).count(), 0);
    }

    #[test]
    fn median_by_drops_a_cell_with_fewer_than_half_its_values() {
        let ttfbs = [Some(3.0), None, Some(1.0), None];
        assert_eq!(median_by(&ttfbs, |t| *t), Some(2.0));
        assert_eq!(median_by(&ttfbs[1..], |t| *t), None);
    }

    #[test]
    fn cells_pad_round_and_dash() {
        assert_eq!(cell(Some(12.345), 9, 1), "     12.3");
        assert_eq!(cell(Some(12.345), 8, 2), "   12.35");
        assert_eq!(cell(None, 9, 1), "        -");
        assert_eq!(delta_cell(Some(10.0), Some(12.5), 8), "    +2.5");
        assert_eq!(delta_cell(Some(12.5), Some(10.0), 8), "    -2.5");
        assert_eq!(delta_cell(None, Some(1.0), 8), "       -");
    }

    #[test]
    fn experiment_names_are_unique_and_resolvable() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            let first = EXPERIMENTS.iter().position(|o| o.name == e.name);
            assert_eq!(first, Some(i), "duplicate row {}", e.name);
            assert_eq!(Experiment::by_name(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(Experiment::by_name("exp_fig99").is_none());
    }
}
