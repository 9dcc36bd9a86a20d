//! Closed-form experiments: what RFC 9002's formulas alone predict
//! (Figures 2 and 4, Appendix D), and the Table 2 guideline matrix with
//! its testbed cross-check.

use rq_analysis::ack_delay::ack_delay_plausible;
use rq_analysis::guidelines::ExpectedLoss;
use rq_analysis::{
    first_pto_reduction_rtt, first_pto_with_strategy, pto_evolution, recommend,
    rtts_until_converged, spurious_retransmit, AckDelayStrategy, Advice, DeploymentScenario,
};
use rq_http::HttpVersion;
use rq_profiles::all_servers;
use rq_sim::SimDuration;
use rq_testbed::{repetitions, run_scenario, LossSpec};

use crate::{median_by, quic_go, RunConfig, IACK, WFC};

/// Figure 2: calculated evolution of the PTO, WFC vs IACK, assuming all
/// subsequent packets arrive exactly after one RTT and the instant ACK is
/// delivered 4 ms earlier.
pub(crate) fn fig02(_: &RunConfig) {
    for rtt in [9.0f64, 25.0] {
        println!("\nClient-Frontend RTT {rtt} ms:");
        println!(
            "{:>6} {:>12} {:>12} {:>12}",
            "index", "WFC PTO[ms]", "IACK PTO[ms]", "diff[ms]"
        );
        let wfc = pto_evolution(rtt + 4.0, rtt, 50);
        let iack = pto_evolution(rtt, rtt, 50);
        for i in [0usize, 1, 2, 5, 10, 20, 30, 49] {
            println!(
                "{:>6} {:>12.2} {:>12.2} {:>12.2}",
                i,
                wfc[i].pto_ms,
                iack[i].pto_ms,
                wfc[i].pto_ms - iack[i].pto_ms
            );
        }
        let first_diff = wfc[0].pto_ms - iack[0].pto_ms;
        println!("first-PTO improvement: {first_diff:.1} ms (expected 3 x 4 = 12 ms)");
    }
}

/// Figure 4: first-PTO reduction (in RTT units) versus client-frontend
/// RTT for Δt ∈ {1, 9, 25} ms, plus the spurious-retransmission boundary.
pub(crate) fn fig04(_: &RunConfig) {
    let deltas = [1.0f64, 9.0, 25.0];
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "RTT[ms]", "Δt=1ms [RTT]", "Δt=9ms [RTT]", "Δt=25ms [RTT]"
    );
    for rtt in [1u32, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let rtt = f64::from(rtt);
        let cells: Vec<String> = deltas
            .iter()
            .map(|&dt| {
                let red = first_pto_reduction_rtt(rtt, dt);
                let zone = if spurious_retransmit(rtt, dt) {
                    " (spurious!)"
                } else {
                    ""
                };
                format!("{red:>10.3}{zone:<10}")
            })
            .collect();
        println!("{rtt:>8} {}", cells.join(" "));
    }
    println!("\nZone boundaries (Δt where spurious retransmissions start = client first PTO):");
    for rtt in [1.0f64, 5.0, 9.0, 25.0, 50.0, 100.0] {
        // First PTO = 3 x RTT (granularity-floored at small RTTs).
        let boundary = (3.0 * rtt).max(rtt + 1.0);
        println!("  RTT {rtt:>6.1} ms → spurious for Δt > {boundary:>7.1} ms");
    }
}

/// Table 2: deployment suggestions — the guideline matrix, cross-validated
/// against the emulation testbed.
pub(crate) fn tab02(cfg: &RunConfig) {
    println!("Analytical matrix (RTT 9 ms):");
    println!(
        "{:<42} {:>18} {:>18}",
        "", "cert ≤ ampl. limit", "cert > ampl. limit"
    );
    let cells: [(&str, ExpectedLoss, f64); 4] = [
        (
            "loss: server flight except 1st datagram",
            ExpectedLoss::ServerFlightTail,
            5.0,
        ),
        (
            "loss: second client flight",
            ExpectedLoss::SecondClientFlight,
            5.0,
        ),
        ("no loss, Δt < 3 RTT (PTO)", ExpectedLoss::None, 5.0),
        ("no loss, Δt ≥ 3 RTT (PTO)", ExpectedLoss::None, 40.0),
    ];
    let verdict = |advice| match advice {
        Advice::Wfc => "WFC",
        Advice::Iack => "IACK",
    };
    for (label, loss, dt) in cells {
        let advise = |big| {
            verdict(recommend(&DeploymentScenario {
                cert_exceeds_amplification: big,
                rtt_ms: 9.0,
                delta_t_ms: dt,
                loss,
            }))
        };
        println!("{:<42} {:>18} {:>18}", label, advise(false), advise(true));
    }

    println!("\nTestbed cross-validation (quic-go client, small cert, 9 ms RTT):");
    let checks = [
        (
            "server-flight tail loss",
            LossSpec::ServerFlightTail,
            Advice::Wfc,
        ),
        (
            "second-client-flight loss",
            LossSpec::SecondClientFlight,
            Advice::Iack,
        ),
        ("no loss, Δt = 5 ms", LossSpec::None, Advice::Iack),
    ];
    // Per check: the WFC cell, then the IACK cell.
    let mut cells = Vec::new();
    for (_, loss, _) in checks {
        let mut sc = quic_go(WFC, HttpVersion::H1);
        sc.loss = loss;
        sc.cert_delay = SimDuration::from_millis(5);
        cells.push(sc.clone());
        sc.ack_mode = IACK;
        cells.push(sc);
    }
    let reps = cfg.reps;
    let jobs = repetitions(&cells, reps);
    let ttfbs = cfg.runner.map(&jobs, |sc| run_scenario(sc).ttfb_ms);
    for ((label, _, expect), pair) in checks.into_iter().zip(ttfbs.chunks(2 * reps)) {
        let (wfc, iack) = pair.split_at(reps);
        let w = median_by(wfc, |t| *t).unwrap();
        let i = median_by(iack, |t| *t).unwrap();
        let winner = if i < w { Advice::Iack } else { Advice::Wfc };
        println!(
            "  {label:<44} WFC {w:7.1} ms  IACK {i:7.1} ms  → {} (predicted {expect:?}, {})",
            verdict(winner),
            if winner == expect {
                "match"
            } else {
                "MISMATCH"
            }
        );
    }
}

/// Appendix D: can the ACK Delay field replace the instant ACK?
///
/// Three strikes: (1) the RFC ignores the delay at PTO initialization,
/// (2) most server stacks report 0 (Table 3), (3) wild reports frequently
/// exceed the RTT and must be discarded (Figure 10).
pub(crate) fn appendix_d(_: &RunConfig) {
    println!(
        "{:<30} {:>14} {:>14}",
        "strategy", "exact report", "zero report"
    );
    for (label, strategy) in [
        ("RFC 9002 (ignore at init)", AckDelayStrategy::Rfc9002),
        ("subtract at init", AckDelayStrategy::SubtractAtInit),
        (
            "re-init from 2nd sample",
            AckDelayStrategy::ReinitializeSecondSample,
        ),
    ] {
        let exact = first_pto_with_strategy(strategy, 9.0, 25.0, 1.0);
        let zero = first_pto_with_strategy(strategy, 9.0, 25.0, 0.0);
        println!("{label:<30} {exact:>14.1} {zero:>14.1}");
    }
    println!("(IACK achieves 27.0 ms immediately, with no server cooperation needed.)");

    println!(
        "\nWithout correction the inflation lingers: {} RTT samples until the WFC PTO is \
         within 5 ms of the IACK trajectory (9 ms RTT, Δt = 25 ms).",
        rtts_until_converged(9.0, 25.0, 5.0)
    );

    // Strike 2: who even reports a useful delay? (Table 3 profiles.)
    let servers = all_servers();
    let zero_or_none = servers
        .iter()
        .filter(|s| {
            s.initial_ack_delay
                .map(|d| d == SimDuration::ZERO)
                .unwrap_or(true)
        })
        .count();
    println!(
        "\nServer support (Table 3): {zero_or_none}/{} stacks report 0 ms or send no \
         Initial ACK at all — 'subtract at init' would do nothing against them.",
        servers.len()
    );

    // Strike 3: plausibility of wild reports (Figure 10 shape).
    println!("\nPlausibility (Figure 10): a report is usable only if sample − delay ≥ min_rtt:");
    for (cdn, factor) in [
        ("Cloudflare IACK", 1.4),
        ("Akamai IACK", 0.7),
        ("Meta coalesced", 1.5),
    ] {
        let rtt = 9.0f64;
        let report = rtt * factor;
        println!(
            "  {cdn:<18} typical report {report:>5.1} ms on a {rtt:.0} ms path → usable: {}",
            ack_delay_plausible(rtt + 2.0, report, rtt)
        );
    }
    println!("\npaper: \"Current implementations challenge the use of this alternative.\"");
}
