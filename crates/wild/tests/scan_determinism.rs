//! Determinism tests for the sharded macroscopic scan.
//!
//! The scan's contract: a report is a pure function of
//! `(population, repetitions, seed)` — independent of the worker count
//! the domain loops shard over and of the order domains are visited in.
//! These tests pin both halves: thread-count invariance on the full
//! pipeline, and (property-tested) per-domain observation independence
//! from the iteration order.

use rq_par::SweepRunner;
use rq_sim::SimRng;
use rq_testkit::prop::cases;
use rq_wild::{probe, probe_rng, scan_with, Cdn, Population, ProbeObservation, Vantage, VANTAGES};

/// Same seed ⇒ identical `ScanReport` — rows *and* aggregates — across
/// one and four workers (and a population that does not divide evenly
/// into shards).
#[test]
fn scan_report_identical_at_threads_1_and_4() {
    let pop = Population::synthesize(20_001, &mut SimRng::new(0x5EED));
    let seq = scan_with(&pop, 2, 0xD0_17, &SweepRunner::new(1));
    let par = scan_with(&pop, 2, 0xD0_17, &SweepRunner::new(4));
    assert_eq!(seq.rows, par.rows, "Table 1 rows diverged");
    assert_eq!(seq.aggregates, par.aggregates, "figure aggregates diverged");
    // And against a third, repeated sequential run (pure function).
    let again = scan_with(&pop, 2, 0xD0_17, &SweepRunner::new(1));
    assert_eq!(seq, again);
}

/// The quantile/median queries the figure binaries print are identical
/// too (they only read the aggregates, but pin them end to end).
#[test]
fn figure_queries_identical_across_thread_counts() {
    let pop = Population::synthesize(10_000, &mut SimRng::new(0xF00D));
    let a = scan_with(&pop, 1, 0xF16, &SweepRunner::new(1));
    let b = scan_with(&pop, 1, 0xF16, &SweepRunner::new(4));
    for v in VANTAGES {
        for cdn in Cdn::ALL {
            for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
                assert_eq!(
                    a.ack_sh_delay_quantile(v, cdn, p),
                    b.ack_sh_delay_quantile(v, cdn, p),
                    "{v:?}/{cdn:?} p{p}"
                );
            }
            assert_eq!(a.iack_gap_median(v, cdn), b.iack_gap_median(v, cdn));
            assert_eq!(a.handshakes(v, cdn), b.handshakes(v, cdn));
        }
        let (ca, ia) = a.rtt_minus_ack_delay(Cdn::Akamai);
        let (cb, ib) = b.rtt_minus_ack_delay(Cdn::Akamai);
        assert_eq!((ca, ia), (cb, ib));
    }
}

fn probe_all(
    pop: &Population,
    vantage: Vantage,
    rep: u64,
    seed: u64,
) -> Vec<Option<ProbeObservation>> {
    (0..pop.domains.len())
        .map(|i| probe(&pop.domains[i], vantage, probe_rng(seed, vantage, rep, i)))
        .collect()
}

/// Property: a domain's observation depends only on
/// `(seed, vantage, rep, domain index)` — never on which domains
/// were probed before it or how many. Visiting an arbitrary
/// permutation-prefix of the population reproduces the in-order
/// observations exactly.
#[test]
fn observations_independent_of_iteration_order() {
    cases(24, |rng| {
        let (pop_seed, scan_seed, order_seed) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let vantage = VANTAGES[rng.gen_range(4) as usize];
        let rep = rng.gen_range(3);
        let pop = Population::synthesize(400, &mut SimRng::new(pop_seed));
        let in_order = probe_all(&pop, vantage, rep, scan_seed);

        // Visit the same domains in a shuffled order.
        let mut order: Vec<usize> = (0..pop.domains.len()).collect();
        SimRng::new(order_seed).shuffle(&mut order);
        for i in order {
            let obs = probe(
                &pop.domains[i],
                vantage,
                probe_rng(scan_seed, vantage, rep, i),
            );
            assert_eq!(obs, in_order[i], "domain {i}");
        }
    });
}

/// Property: distinct (vantage, rep, index) coordinates draw from
/// unrelated streams — no collisions of the kind the old
/// `seed ^ (v << 32) ^ (rep << 16)` mixing produced.
#[test]
fn derived_streams_differ_across_coordinates() {
    cases(24, |rng| {
        let (seed, idx) = (rng.next_u64(), rng.next_u64() as usize);
        for (v, rep, di) in [
            (Vantage::Hamburg, 1, idx),
            (Vantage::HongKong, 0, idx),
            (Vantage::Hamburg, 0, idx.wrapping_add(1)),
        ] {
            let mut base = probe_rng(seed, Vantage::Hamburg, 0, idx);
            let mut other = probe_rng(seed, v, rep, di);
            let same = (0..32)
                .filter(|_| base.next_u64() == other.next_u64())
                .count();
            assert!(same < 4, "stream overlap {same} for {v:?}/{rep}/{di}");
        }
    });
}
