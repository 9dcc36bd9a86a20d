//! Stochastic impairments and scenario matrices: sweep WFC vs IACK over
//! random loss, bursty loss, reordering, duplication, and jitter in one
//! cross-product run.
//!
//! Run with: `cargo run --example impairment_matrix`

use reacked_quicer::prelude::*;
use reacked_quicer::testbed::median;

fn main() {
    let client = client_by_name("quic-go").unwrap();

    println!("== Does the instant ACK survive a noisy path? ==\n");

    // A channel spec is plain data: compose the impairment families you
    // want and hand the spec to `LossSpec::Random`. Every draw comes from
    // the scenario seed, so each cell below is exactly reproducible.
    let clean = ImpairmentSpec::none();
    let losses = [
        LossSpec::Random(clean),
        LossSpec::Random(clean.with_iid_loss(0.03)),
        LossSpec::Random(clean.with_gilbert_elliott(0.02, 0.3, 0.0, 0.9)),
        LossSpec::Random(
            clean
                .with_reordering(0.1, SimDuration::from_millis(4))
                .with_duplication(0.02)
                .with_uniform_jitter(SimDuration::from_millis(3)),
        ),
    ];

    // One matrix = the full cross product; one `map` over its cells'
    // repetitions = one saturated parallel sweep.
    let cells = ScenarioMatrix::new(Scenario::base(
        client,
        ServerAckMode::WaitForCertificate,
        HttpVersion::H1,
    ))
    .ack_modes(&[
        ServerAckMode::WaitForCertificate,
        ServerAckMode::InstantAck { pad_to_mtu: false },
    ])
    .losses(&losses)
    .build();

    let reps = 9;
    let runner = SweepRunner::from_env();
    let ttfbs = runner.map(&repetitions(&cells, reps), |sc| run_scenario(sc).ttfb_ms);
    println!(
        "{} cells x {reps} reps on {} thread(s)\n",
        cells.len(),
        runner.threads()
    );

    // Cell order is ack-mode-major, so the two halves line up per loss;
    // each cell is `reps` consecutive results.
    let medians: Vec<f64> = ttfbs
        .chunks(reps)
        .map(|runs| median(&runs.iter().flatten().copied().collect::<Vec<_>>()).unwrap())
        .collect();
    let (wfc, iack) = medians.split_at(losses.len());
    println!("{:<38} {:>10} {:>10} {:>8}", "channel", "WFC", "IACK", "Δ");
    for ((loss, wm), im) in losses.iter().zip(wfc).zip(iack) {
        println!(
            "{:<38} {wm:>8.1}ms {im:>8.1}ms {:>+7.1}ms",
            format!("{loss:?}"),
            im - wm
        );
    }
    println!("\nmedian TTFB over {reps} seeded repetitions; Δ < 0 means the instant ACK wins.");
}
