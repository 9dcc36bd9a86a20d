//! Allocation ceilings for the scan: a probe asks nothing of the
//! allocator, and a scan asks per shard (its partial aggregate), not
//! per probe. Counted per thread in calls (`alloc` + `realloc`) like
//! `crates/testbed/tests/handshake_alloc.rs` and the benchmark's
//! `wild.allocs_per_shard`, so the verdict is the same on any machine
//! and in debug and release builds; in a binary of its own because the
//! counter is the process's global allocator.

use std::hint::black_box;

use rq_par::SweepRunner;
use rq_sim::SimRng;
use rq_testkit::alloc::{requested_by, Counting};
use rq_wild::{probe, probe_rng, scan_with, Population, VANTAGES};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_probe_does_not_allocate() {
    let pop = Population::synthesize(40_000, &mut SimRng::new(42));
    let hosted: Vec<_> = pop
        .domains
        .iter()
        .enumerate()
        .filter(|(_, d)| d.cdn.is_some())
        .take(10_000)
        .collect();
    assert_eq!(hosted.len(), 10_000);
    let (calls, _) = requested_by(|| {
        let mut answered = 0;
        for &(i, d) in &hosted {
            let vantage = VANTAGES[i % VANTAGES.len()];
            answered += black_box(probe(d, vantage, probe_rng(7, vantage, 0, i))).is_some() as u32;
        }
        answered
    });
    assert_eq!(calls, 0, "10,000 probes allocated {calls} times");
}

#[test]
fn a_scan_allocates_per_shard_not_per_probe() {
    let pop = Population::synthesize(100_000, &mut SimRng::new(42));
    // One worker: the sweep runs on this thread, where the counter is.
    let runner = SweepRunner::new(1);
    let (calls, _) = requested_by(|| scan_with(&pop, 1, 7, &runner));
    // 13 shards of 8,192 domains x 4 vantages. Measured 5,887 calls =
    // 113 per shard, debug and release alike — the shard's ok-bitset,
    // eight histograms and the reservoirs its probes grow — against
    // 2,335 per shard while every probe built the CDN table; the
    // ceiling leaves 2 %.
    let shards = (pop.len().div_ceil(8192) * VANTAGES.len()) as u64;
    assert_eq!(shards, 52);
    assert!(
        calls <= 6_004,
        "{calls} allocations for one scan, {} per shard",
        calls / shards
    );
}
