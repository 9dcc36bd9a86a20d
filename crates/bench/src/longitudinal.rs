//! The one-week Cloudflare longitudinal study (Figures 9 and 15): one
//! probe per minute against our own domain, Cf-Ray-filtered.

use rq_obs::median;
use rq_wild::longitudinal::StudyDomain;
use rq_wild::{LongitudinalStudy, MinuteObservation, Vantage, VANTAGES};

use crate::{cell, RunConfig};

/// One week of per-minute observations from `vantage`. The per-minute
/// derived RNG lets the stream shard over the sweep pool with
/// byte-identical output at any thread count.
fn week(cfg: &RunConfig, vantage: Vantage, seed: u64) -> Vec<MinuteObservation> {
    let domain = StudyDomain {
        name: "own-domain".into(),
        probe_rate_per_min: 1.0,
        background_rate_per_s: 0.0,
    };
    LongitudinalStudy::cloudflare(vantage, domain).run_with(7 * 24 * 60, seed, &cfg.runner)
}

/// Median ACK→SH gap over the observations that saw both separately.
fn median_gap<'a>(obs: impl Iterator<Item = &'a MinuteObservation>) -> Option<f64> {
    let gaps: Vec<f64> = obs
        .filter_map(|o| Some(o.time_to_sh_ms? - o.time_to_ack_ms?))
        .collect();
    median(&gaps)
}

/// The `ACK`, `SH` and `ACK,SH` columns: median time since ClientHello
/// to each kind of first server datagram.
fn latency_cells<'a>(obs: impl Iterator<Item = &'a MinuteObservation> + Clone) -> String {
    let column = |f: fn(&MinuteObservation) -> Option<f64>| {
        median(&obs.clone().filter_map(f).collect::<Vec<f64>>())
    };
    let ack = column(|o| o.time_to_ack_ms);
    let sh = column(|o| o.time_to_sh_ms);
    let coalesced = column(|o| o.time_to_coalesced_ms);
    [ack, sh, coalesced].map(|v| cell(v, 10, 2)).join(" ")
}

/// Figure 9: one-week reception latency of ACK, SH, and coalesced ACK–SH
/// from Cloudflare in Sao Paulo (one probe per minute, Cf-Ray-filtered).
pub(crate) fn fig09(cfg: &RunConfig) {
    let obs = week(cfg, Vantage::SaoPaulo, 0x5A0);
    println!("{:>6} {:>10} {:>10} {:>10}", "hour", "ACK", "SH", "ACK,SH");
    for bin_start in (0..7 * 24).step_by(6) {
        let bin = obs.iter().filter(|o| {
            o.same_colo && o.minute >= bin_start * 60 && o.minute < (bin_start + 6) * 60
        });
        println!("{:>6} {}", bin_start, latency_cells(bin));
    }
    println!(
        "\nmedian ACK→SH gap over the week: {:.2} ms (paper: 2.1 ms in Sao Paulo; \
         gaps widen during local daytime)",
        median_gap(obs.iter()).unwrap()
    );
}

/// Figure 15: the Cloudflare longitudinal study from all four locations.
pub(crate) fn fig15(cfg: &RunConfig) {
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12}",
        "vantage", "ACK", "SH", "ACK,SH", "gap (SH-ACK)"
    );
    for (i, vantage) in VANTAGES.into_iter().enumerate() {
        let obs = week(cfg, vantage, 0x5A0 + i as u64);
        println!(
            "{:<14} {} {}",
            vantage.name(),
            latency_cells(obs.iter()),
            cell(median_gap(obs.iter()), 10, 2)
        );
    }
    println!(
        "\npaper: coalesced ACK–SH arrives faster than a separate SH at every location; median \
         IACK→SH gaps 2.1 ms (Sao Paulo, Hamburg), 2.4 (Los Angeles), 2.6 (Hong Kong)."
    );
}
