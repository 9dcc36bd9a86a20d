//! Scan aggregation: Table 1 and the ACK→SH / ack-delay CDFs
//! (Figures 8, 10, 14).
//!
//! The scan is sharded: each (vantage, repetition) measurement's domain
//! loop is cut into fixed-size chunks fanned out over an
//! [`rq_par::SweepRunner`], and every chunk folds its probes into a
//! compact [`ScanShard`] aggregate (see [`crate::aggregate`]). Shards
//! merge in domain order, per-probe randomness is a pure function of
//! `(seed, vantage, rep, domain index)` ([`probe_rng`]), and the chunk
//! size is fixed — so the report is byte-identical at every thread
//! count and memory stays bounded at Top-1M scale (no raw observation
//! is ever buffered).
//!
//! A scan costs what its QUIC-reachable domains cost:
//!
//! * Only hosted domains are visited. [`scan_with`] indexes the domains
//!   with a CDN once, and a shard walks its slice of that index: a
//!   domain that cannot answer derives no RNG stream and is not read.
//! * Each probe is classified ([`classify`]) and counted; its timings
//!   ([`ProbeClass::timings`](crate::prober::ProbeClass::timings)) are
//!   computed only on the observation-retaining repetition, whose
//!   shards carry the figure cells the timings go into.
//! * A measurement runs in waves of [`WAVE_SHARDS`] shards, each wave
//!   absorbed (in domain order) before the next starts, so at most one
//!   wave of partial aggregates is alive however long the population.

use std::ops::Range;

use rq_par::SweepRunner;

use crate::aggregate::{RttAckDeltaStats, ScanAggregates, ScanShard, VantageCdnAgg};
use crate::cdn::Cdn;
use crate::population::Population;
use crate::prober::{classify, probe_rng};
use crate::vantage::{Vantage, VANTAGES};

/// Domains per shard. Fixed (rather than derived from the worker
/// count) so the shard layout — and with it every merge — is identical
/// no matter how many threads execute the sweep.
const SHARD_DOMAINS: usize = 8192;

/// Shards per wave: how many partial aggregates a measurement holds
/// before merging them. Fixed for the same reason as [`SHARD_DOMAINS`];
/// 16 keeps every worker of a small pool busy between merges while a
/// retained wave (eight 8 KB histograms and up to 32 reservoirs per
/// shard) stays near 1 MiB.
const WAVE_SHARDS: usize = 16;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CdnScanRow {
    /// CDN.
    pub cdn: Cdn,
    /// QUIC-reachable domains observed: domains that completed at least
    /// one successful handshake from any vantage point in any
    /// repetition (probe failures and unreachable deployments are not
    /// counted, matching Table 1's semantics).
    pub domains: usize,
    /// Share of domains with instant ACK: the *maximum* across vantage
    /// points and repetitions (Table 1's column is "enabled (max.)").
    pub iack_share: f64,
    /// Maximum difference of the IACK share across vantage points and
    /// repetitions (Table 1 "Variation").
    pub max_variation: f64,
    /// Share of handshakes where the server issued a session ticket
    /// (maximum across measurements, like the IACK column).
    pub resumption_share: f64,
    /// Share of handshakes whose deployment also accepts 0-RTT early
    /// data (maximum across measurements).
    pub zero_rtt_share: f64,
    /// Median advertised ticket lifetime in seconds (`None` when no
    /// ticket was observed for this CDN).
    pub ticket_lifetime_median_s: Option<f64>,
    /// Share of handshakes whose deployment supports connection
    /// migration (maximum across measurements, like the IACK column).
    pub migration_share: f64,
}

/// A full scan: per-CDN rows plus the streaming aggregates feeding the
/// CDF figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Table 1 rows in CDN order.
    pub rows: Vec<CdnScanRow>,
    /// Merged per-cell aggregates (per-CDN counts, delay histograms,
    /// bounded reservoirs) from the observation-retaining repetition.
    pub aggregates: ScanAggregates,
}

impl ScanReport {
    /// The aggregate cell for one (vantage, CDN) — counts, the ACK→SH
    /// delay histogram, and the IACK delay reservoir (Figures 8/14).
    pub fn cell(&self, vantage: Vantage, cdn: Cdn) -> &VantageCdnAgg {
        self.aggregates.cell(vantage.index(), cdn)
    }

    /// Successful handshakes observed for one CDN at one vantage.
    pub fn handshakes(&self, vantage: Vantage, cdn: Cdn) -> u64 {
        self.cell(vantage, cdn).handshakes
    }

    /// Figure 8 quantile (`p` in `0..=100`) of the ACK→SH delay for one
    /// CDN at one vantage, IACK handshakes with coalesced counted as an
    /// exact mass at 0 ms; `None` when the CDN was never observed there
    /// (e.g. unreachable from that vantage).
    pub fn ack_sh_delay_quantile(&self, vantage: Vantage, cdn: Cdn, p: f64) -> Option<f64> {
        self.cell(vantage, cdn).delay_quantile(p)
    }

    /// Median IACK→SH gap for one CDN at one vantage; `None` when no
    /// instant ACK was ever observed there.
    pub fn iack_gap_median(&self, vantage: Vantage, cdn: Cdn) -> Option<f64> {
        self.cell(vantage, cdn).iack_delays.median()
    }

    /// `RTT − ack_delay` statistics split into (coalesced, iack)
    /// response classes for one CDN across all vantages (Figure 10).
    pub fn rtt_minus_ack_delay(&self, cdn: Cdn) -> (RttAckDeltaStats, RttAckDeltaStats) {
        self.aggregates.rtt_ack_delta(cdn)
    }

    /// Exports the scan's exact counters into `reg` under `prefix`:
    /// per-CDN handshake / instant-ACK / resumption / migration totals
    /// summed across every (vantage, repetition) measurement, the
    /// reachable-domain count per CDN, and scan-wide grand totals. All
    /// values come from the merged aggregates, so the export inherits
    /// the report's thread-count invariance.
    pub fn export_metrics(&self, prefix: &str, reg: &mut rq_obs::Registry) {
        for row in &self.rows {
            let cdn = row.cdn.name().to_ascii_lowercase();
            let t = self.aggregates.totals(row.cdn);
            reg.add(format!("{prefix}{cdn}/handshakes_ok"), t.ok);
            reg.add(format!("{prefix}{cdn}/instant_ack"), t.iack);
            reg.add(format!("{prefix}{cdn}/tickets"), t.tickets);
            reg.add(format!("{prefix}{cdn}/zero_rtt"), t.zero_rtt);
            reg.add(format!("{prefix}{cdn}/migration"), t.migration);
            reg.add(
                format!("{prefix}{cdn}/domains_reachable"),
                row.domains as u64,
            );
            reg.add(format!("{prefix}handshakes_ok"), t.ok);
            reg.add(format!("{prefix}instant_ack"), t.iack);
            reg.add(format!("{prefix}domains_reachable"), row.domains as u64);
        }
    }
}

/// The domain range of shard `s` of an `n`-domain population.
fn shard_domains(s: usize, n: usize) -> Range<usize> {
    let start = s * SHARD_DOMAINS;
    start..(start + SHARD_DOMAINS).min(n)
}

/// Indices of the domains a probe can reach at all (those with a CDN),
/// ascending. Built per scan rather than stored on [`Population`],
/// whose `domains` is public and could change under a stored copy.
fn hosted_index(population: &Population) -> Vec<u32> {
    assert!(
        u32::try_from(population.len()).is_ok(),
        "domain indices are held as u32"
    );
    let hosted = || {
        let indexed = population.domains.iter().enumerate();
        indexed.filter_map(|(i, d)| d.cdn.map(|_| i as u32))
    };
    // Counted first so the index is one exact-capacity allocation.
    let mut index = Vec::with_capacity(hosted().count());
    index.extend(hosted());
    index
}

/// Scans one shard: the hosted domains within `domains` of measurement
/// `(vantage, rep)`. Pure — every probe derives its RNG from the scan
/// coordinates, so the shard's aggregate is independent of whatever ran
/// before it.
fn scan_shard(
    population: &Population,
    hosted: &[u32],
    vantage: Vantage,
    rep: usize,
    seed: u64,
    domains: Range<usize>,
    retain_observations: bool,
) -> ScanShard {
    let mut shard = ScanShard::new(domains.start, domains.len(), retain_observations);
    let lo = hosted.partition_point(|&i| (i as usize) < domains.start);
    let hi = hosted.partition_point(|&i| (i as usize) < domains.end);
    for &i in &hosted[lo..hi] {
        let i = i as usize;
        let rng = probe_rng(seed, vantage, rep as u64, i);
        let Some(class) = classify(&population.domains[i], vantage, rng) else {
            continue;
        };
        if !class.handshake_ok {
            continue;
        }
        shard.mark_ok(i - domains.start);
        let c = class.cdn.index();
        shard.counts[c].record(&class);
        if let Some(cells) = &mut shard.cells {
            cells[c].record(&class.timings());
        }
    }
    shard
}

/// Scans `population` from every vantage point, `repetitions` times
/// (the paper scans on four subsequent days), and aggregates Table 1,
/// sharding each measurement's domain loop over `runner`.
pub fn scan_with(
    population: &Population,
    repetitions: usize,
    seed: u64,
    runner: &SweepRunner,
) -> ScanReport {
    let n = population.len();
    let shards = n.div_ceil(SHARD_DOMAINS);
    let hosted = hosted_index(population);
    let mut agg = ScanAggregates::new(n, VANTAGES.len(), repetitions);
    for (v_idx, vantage) in VANTAGES.iter().enumerate() {
        for rep in 0..repetitions {
            // Observations for the figures are retained from the last
            // repetition per vantage (one day's worth, like the
            // paper's CDF figures).
            let retain = rep + 1 == repetitions;
            for wave in (0..shards).step_by(WAVE_SHARDS) {
                let partials = runner.run(WAVE_SHARDS.min(shards - wave), |s| {
                    let domains = shard_domains(wave + s, n);
                    scan_shard(population, &hosted, *vantage, rep, seed, domains, retain)
                });
                // Merge in shard (= domain) order before the next wave
                // starts; only this wave's partials are alive.
                for shard in &partials {
                    agg.absorb(v_idx, rep, shard);
                }
            }
        }
    }
    table1(population, &hosted, agg)
}

/// Derives the Table 1 rows from the merged aggregates.
fn table1(population: &Population, hosted: &[u32], agg: ScanAggregates) -> ScanReport {
    // Table 1's "Domains" column: hosted domains with a handshake.
    let mut reachable = [0usize; Cdn::ALL.len()];
    for i in hosted.iter().map(|&i| i as usize) {
        if !agg.domain_reachable(i) {
            continue;
        }
        if let Some(cdn) = population.domains[i].cdn {
            reachable[cdn.index()] += 1;
        }
    }

    let mut rows = Vec::new();
    for cdn in Cdn::ALL {
        let shares = agg.measurement_shares(cdn);
        let max_share = shares.iter().cloned().fold(0.0f64, f64::max);
        let max_variation = if shares.len() >= 2 {
            let min = shares.iter().cloned().fold(f64::MAX, f64::min);
            max_share - min
        } else {
            0.0
        };
        let max_of = |shares: Vec<f64>| shares.into_iter().fold(0.0f64, f64::max);
        rows.push(CdnScanRow {
            cdn,
            domains: reachable[cdn.index()],
            iack_share: max_share,
            max_variation,
            resumption_share: max_of(agg.measurement_shares_of(cdn, |c| c.tickets)),
            zero_rtt_share: max_of(agg.measurement_shares_of(cdn, |c| c.zero_rtt)),
            ticket_lifetime_median_s: agg.ticket_lifetime_median(cdn),
            migration_share: max_of(agg.measurement_shares_of(cdn, |c| c.migration)),
        });
    }
    ScanReport {
        rows,
        aggregates: agg,
    }
}

/// [`scan_with`] on the `REACKED_THREADS`-sized runner.
pub fn scan(population: &Population, repetitions: usize, seed: u64) -> ScanReport {
    scan_with(population, repetitions, seed, &SweepRunner::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_sim::SimRng;

    fn small_scan() -> ScanReport {
        let pop = Population::synthesize(20_000, &mut SimRng::new(42));
        scan(&pop, 2, 7)
    }

    #[test]
    fn table1_shape_reproduced() {
        let report = small_scan();
        let row = |c: Cdn| report.rows.iter().find(|r| r.cdn == c).unwrap().clone();
        assert!(
            row(Cdn::Cloudflare).iack_share > 0.98,
            "{:?}",
            row(Cdn::Cloudflare)
        );
        assert!(row(Cdn::Fastly).iack_share < 0.02);
        assert!(row(Cdn::Meta).iack_share < 0.05);
        let amazon = row(Cdn::Amazon).iack_share;
        assert!((0.25..=0.60).contains(&amazon), "amazon {amazon}");
        let akamai = row(Cdn::Akamai).iack_share;
        assert!((0.15..=0.50).contains(&akamai), "akamai {akamai}");
    }

    #[test]
    fn domains_count_requires_a_successful_handshake() {
        let pop = Population::synthesize(20_000, &mut SimRng::new(42));
        let report = scan(&pop, 2, 7);
        for row in &report.rows {
            let hosted = pop.hosted_by(row.cdn).count();
            assert!(
                row.domains <= hosted,
                "{:?}: {} reachable > {} hosted",
                row.cdn,
                row.domains,
                hosted
            );
        }
        // Cloudflare is reachable everywhere: nearly every hosted domain
        // completes a handshake within 4 vantages × 2 reps.
        let cf = report
            .rows
            .iter()
            .find(|r| r.cdn == Cdn::Cloudflare)
            .unwrap();
        let hosted = pop.hosted_by(Cdn::Cloudflare).count();
        assert!(
            cf.domains as f64 > hosted as f64 * 0.99,
            "cloudflare {} of {hosted}",
            cf.domains
        );
        // Google IACK deployments answer only from Sao Paulo, and ~11.5%
        // of its domains are IACK: still, WFC domains respond everywhere,
        // so the reachable count stays positive but below hosted.
        let goog = report.rows.iter().find(|r| r.cdn == Cdn::Google).unwrap();
        assert!(goog.domains > 0);
    }

    #[test]
    fn resumption_rates_reproduced() {
        let report = small_scan();
        let row = |c: Cdn| report.rows.iter().find(|r| r.cdn == c).unwrap().clone();
        let cf = row(Cdn::Cloudflare);
        assert!(cf.resumption_share > 0.97, "{cf:?}");
        assert!(
            (0.80..=0.95).contains(&cf.zero_rtt_share),
            "cloudflare 0-RTT {cf:?}"
        );
        // Meta offers tickets but never 0-RTT.
        let meta = row(Cdn::Meta);
        assert!(meta.resumption_share > 0.8, "{meta:?}");
        assert!(meta.zero_rtt_share < 0.05, "{meta:?}");
        // Lifetime medians follow the profile calibration: Cloudflare's
        // 18 h tickets sit far above Akamai's 2 h ones.
        let cf_life = cf.ticket_lifetime_median_s.unwrap();
        let ak_life = row(Cdn::Akamai).ticket_lifetime_median_s.unwrap();
        assert!(cf_life > 2.0 * ak_life, "cf {cf_life} vs akamai {ak_life}");
        // Shares are proper fractions everywhere, and 0-RTT never
        // exceeds resumption (it requires a ticket).
        for r in &report.rows {
            assert!((0.0..=1.0).contains(&r.resumption_share), "{r:?}");
            assert!(r.zero_rtt_share <= r.resumption_share + 1e-9, "{r:?}");
        }
    }

    #[test]
    fn migration_rates_follow_profiles() {
        let report = small_scan();
        let row = |c: Cdn| report.rows.iter().find(|r| r.cdn == c).unwrap().clone();
        // Cloudflare and Google deployments overwhelmingly allow
        // migration; the hosting long tail mostly does not.
        assert!(
            row(Cdn::Cloudflare).migration_share > 0.88,
            "{:?}",
            row(Cdn::Cloudflare)
        );
        assert!(
            row(Cdn::Google).migration_share > 0.9,
            "{:?}",
            row(Cdn::Google)
        );
        assert!(
            row(Cdn::Others).migration_share < row(Cdn::Cloudflare).migration_share,
            "{:?}",
            row(Cdn::Others)
        );
        for r in &report.rows {
            assert!((0.0..=1.0).contains(&r.migration_share), "{r:?}");
        }
    }

    #[test]
    fn variation_largest_for_amazon_smallest_for_cloudflare() {
        let report = small_scan();
        let var = |c: Cdn| {
            report
                .rows
                .iter()
                .find(|r| r.cdn == c)
                .unwrap()
                .max_variation
        };
        assert!(var(Cdn::Cloudflare) < 0.02, "cf {}", var(Cdn::Cloudflare));
        assert!(var(Cdn::Amazon) > var(Cdn::Cloudflare));
    }

    #[test]
    fn ack_sh_delay_ordering_matches_fig8() {
        // Fig. 8: Akamai is significantly slower to deliver the SH than
        // Cloudflare; Cloudflare's median IACK gap is a few ms.
        let report = small_scan();
        let med = |c: Cdn| report.iack_gap_median(Vantage::SaoPaulo, c).unwrap();
        let cf = med(Cdn::Cloudflare);
        let ak = med(Cdn::Akamai);
        assert!(cf < 10.0, "cloudflare median {cf}");
        assert!(ak > cf, "akamai {ak} vs cloudflare {cf}");
    }

    #[test]
    fn empty_selections_yield_none_not_panic() {
        // Google IACK servers answer only from Sao Paulo; from Hamburg
        // the IACK gap sample can be empty — queries must return None.
        let pop = Population::synthesize(500, &mut SimRng::new(1));
        let report = scan(&pop, 1, 5);
        for v in VANTAGES {
            for cdn in Cdn::ALL {
                let q = report.ack_sh_delay_quantile(v, cdn, 50.0);
                let m = report.iack_gap_median(v, cdn);
                if report.handshakes(v, cdn) == 0 {
                    assert_eq!(q, None, "{v:?}/{cdn:?}");
                }
                if report.cell(v, cdn).iack_delays.sample().is_empty() {
                    assert_eq!(m, None, "{v:?}/{cdn:?}");
                }
            }
        }
    }

    #[test]
    fn fig10_iack_below_rtt_more_often_for_akamai_than_cloudflare() {
        let report = small_scan();
        let below_share = |c: Cdn| {
            let (_, iack) = report.rtt_minus_ack_delay(c);
            iack.exceed_rtt_share().map_or(0.0, |s| 1.0 - s)
        };
        // Fig. 10b: Akamai IACK ack delays are below the RTT for ~61%,
        // Cloudflare's mostly exceed it.
        assert!(below_share(Cdn::Akamai) > below_share(Cdn::Cloudflare));
    }

    #[test]
    fn scan_is_deterministic_and_thread_count_invariant() {
        let pop = Population::synthesize(5_000, &mut SimRng::new(1));
        let a = scan_with(&pop, 1, 5, &SweepRunner::new(1));
        let b = scan_with(&pop, 1, 5, &SweepRunner::new(4));
        assert_eq!(a, b);
        let c = scan_with(&pop, 1, 5, &SweepRunner::new(1));
        assert_eq!(a, c);
    }

    #[test]
    fn counts_only_shards_count_what_retaining_shards_count() {
        // A shard without cells skips the timing arithmetic; what Table 1
        // reads from it must not notice.
        let pop = Population::synthesize(20_001, &mut SimRng::new(0x5EED));
        let hosted = hosted_index(&pop);
        let shard = |vantage, rep, s: usize, retain| {
            let domains = shard_domains(s, pop.len());
            scan_shard(&pop, &hosted, vantage, rep, 0xD017, domains, retain)
        };
        for vantage in VANTAGES {
            for rep in 0..2 {
                for s in 0..pop.len().div_ceil(SHARD_DOMAINS) {
                    let counted = shard(vantage, rep, s, false);
                    let retained = shard(vantage, rep, s, true);
                    assert!(counted.cells.is_none() && retained.cells.is_some());
                    assert_eq!(counted.counts, retained.counts, "{vantage:?}/{rep}/{s}");
                    assert_eq!(counted.ok_bits, retained.ok_bits, "{vantage:?}/{rep}/{s}");
                    assert!(counted.counts.iter().any(|c| c.ok > 0));
                }
            }
        }
    }

    #[test]
    fn waves_merge_like_one_whole_measurement_sweep() {
        // Two waves with a ragged tail: 17 full shards and one domain.
        let pop = Population::synthesize(SHARD_DOMAINS * 17 + 1, &mut SimRng::new(9));
        let (reps, seed) = (2, 0xA11);
        let one = scan_with(&pop, reps, seed, &SweepRunner::new(1));
        for workers in [2, 4] {
            let many = scan_with(&pop, reps, seed, &SweepRunner::new(workers));
            assert_eq!(one, many, "{workers} workers");
        }

        // The loop `scan_with` had before waves: every shard of a
        // measurement held until the last one finishes, then absorbed.
        let n = pop.len();
        let hosted = hosted_index(&pop);
        let mut agg = ScanAggregates::new(n, VANTAGES.len(), reps);
        for (v_idx, vantage) in VANTAGES.iter().enumerate() {
            for rep in 0..reps {
                let retain = rep + 1 == reps;
                let partials: Vec<ScanShard> = (0..n.div_ceil(SHARD_DOMAINS))
                    .map(|s| {
                        let domains = shard_domains(s, n);
                        scan_shard(&pop, &hosted, *vantage, rep, seed, domains, retain)
                    })
                    .collect();
                assert!(partials.len() > WAVE_SHARDS);
                for shard in &partials {
                    agg.absorb(v_idx, rep, shard);
                }
            }
        }
        assert_eq!(one, table1(&pop, &hosted, agg));
    }

    #[test]
    fn hosted_index_lists_exactly_the_domains_with_a_cdn() {
        let pop = Population::synthesize(3_000, &mut SimRng::new(2));
        let hosted = hosted_index(&pop);
        assert_eq!(hosted.len(), hosted.capacity());
        let want: Vec<u32> = (0..3_000u32)
            .filter(|&i| pop.domains[i as usize].cdn.is_some())
            .collect();
        assert_eq!(hosted, want);
        // "Domains" counted over the index equals the per-CDN filter.
        let report = scan_with(&pop, 1, 4, &SweepRunner::new(1));
        for row in &report.rows {
            let by_filter = pop
                .domains
                .iter()
                .enumerate()
                .filter(|(i, d)| d.cdn == Some(row.cdn) && report.aggregates.domain_reachable(*i))
                .count();
            assert_eq!(row.domains, by_filter, "{:?}", row.cdn);
        }
    }

    #[test]
    fn metrics_export_is_consistent_and_thread_invariant() {
        let pop = Population::synthesize(5_000, &mut SimRng::new(1));
        let a = scan_with(&pop, 1, 5, &SweepRunner::new(1));
        let b = scan_with(&pop, 1, 5, &SweepRunner::new(4));
        let mut ra = rq_obs::Registry::default();
        let mut rb = rq_obs::Registry::default();
        a.export_metrics("wild/", &mut ra);
        b.export_metrics("wild/", &mut rb);
        assert_eq!(ra, rb);
        assert!(ra.counter("wild/cloudflare/handshakes_ok") > 0);
        // Instant-ACK totals respect the handshake totals per CDN, and
        // the grand total is the sum over CDN rows.
        let mut sum = 0;
        for cdn in Cdn::ALL {
            let name = cdn.name().to_ascii_lowercase();
            let ok = ra.counter(&format!("wild/{name}/handshakes_ok"));
            let iack = ra.counter(&format!("wild/{name}/instant_ack"));
            assert!(iack <= ok, "{name}: {iack} > {ok}");
            sum += ok;
        }
        assert_eq!(sum, ra.counter("wild/handshakes_ok"));
        // The exported reachable-domain counts match the Table 1 rows.
        for row in &a.rows {
            let name = row.cdn.name().to_ascii_lowercase();
            assert_eq!(
                ra.counter(&format!("wild/{name}/domains_reachable")),
                row.domains as u64
            );
        }
    }
}
