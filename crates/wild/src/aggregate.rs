//! Streaming, mergeable scan aggregates.
//!
//! The macroscopic scan probes up to a million domains per (vantage,
//! repetition) measurement; buffering every raw [`ProbeObservation`]
//! does not scale. Instead each shard of the domain space folds its
//! probes into a compact partial aggregate — exact counters, fixed-bin
//! histograms for CDF quantiles, and bounded reservoirs where exact
//! sample values are needed — and shards merge monoid-style in domain
//! order. Merging is independent of how the domain space was
//! partitioned, which is what makes the sharded scan byte-identical at
//! every thread count:
//!
//! * counters and histograms merge by addition (commutative);
//! * reservoirs keep the *first `cap` values in domain order*, so
//!   concatenate-then-truncate yields the same sample for any split of
//!   the stream.
//!
//! [`ProbeObservation`]: crate::prober::ProbeObservation

use crate::cdn::Cdn;

/// Sample bound for [`Reservoir`]s (per vantage × CDN cell).
const RESERVOIR_CAP: usize = 4096;

/// Fixed-bin histogram over `[lo, hi)` with out-of-range values clamped
/// into the edge bins. Merge is bin-wise addition, so it is a
/// commutative monoid and quantiles are partition-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    count: u64,
}

impl FixedHistogram {
    /// A histogram with `bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> FixedHistogram {
        assert!(bins > 0 && hi > lo);
        FixedHistogram {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            count: 0,
        }
    }

    /// Records one value (clamped into the histogram range).
    pub fn record(&mut self, value: f64) {
        let idx = ((value - self.lo) / self.width).floor();
        let idx = (idx.max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.count += 1;
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile (`0..=100`, clamped), interpolated
    /// uniformly within the containing bin; `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let target = p / 100.0 * (self.count as f64 - 1.0);
        let mut below = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let hi_rank = (below + c) as f64 - 1.0;
            if target <= hi_rank {
                let within = (target - below as f64 + 0.5) / c as f64;
                return Some(self.lo + self.width * (i as f64 + within));
            }
            below += c;
        }
        // Rounding fallback: the last non-empty bin's upper edge.
        let last = self.bins.iter().rposition(|&c| c > 0)?;
        Some(self.lo + self.width * (last as f64 + 1.0))
    }

    /// Adds `other`'s bins into `self` (shapes must match).
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "histogram shape");
        assert_eq!(self.lo.to_bits(), other.lo.to_bits(), "histogram range");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += *b;
        }
        self.count += other.count;
    }
}

/// A bounded sample: the first `cap` values of the (domain-ordered)
/// observation stream, plus the exact count of everything seen.
///
/// Because the scan population is pre-shuffled, "first `cap` in domain
/// order" is a uniform random sample — and unlike classic reservoir
/// sampling it merges deterministically: concatenating two adjacent
/// shards' reservoirs and truncating equals the reservoir of the
/// concatenated stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    values: Vec<f64>,
}

impl Reservoir {
    /// A reservoir bounded at `cap` values.
    pub fn new(cap: usize) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            values: Vec::new(),
        }
    }

    /// Records one value (kept only while below capacity).
    pub fn record(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(value);
        }
    }

    /// The retained sample, in stream order.
    pub(crate) fn sample(&self) -> &[f64] {
        &self.values
    }

    /// Median of the retained sample (`None` when empty). Even-length
    /// samples average the middle pair, as [`rq_obs::median`] does.
    pub fn median(&self) -> Option<f64> {
        rq_obs::median(&self.values)
    }

    /// Appends `other`'s sample (up to capacity); counts always add.
    pub fn merge(&mut self, other: &Reservoir) {
        self.seen += other.seen;
        let room = self.cap.saturating_sub(self.values.len());
        self.values.extend(other.values.iter().take(room).copied());
    }
}

/// `RTT − ack_delay` aggregate for one (vantage, CDN, response class)
/// cell (Figure 10): exact exceed-the-RTT counts plus a bounded sample
/// for the median.
#[derive(Debug, Clone, PartialEq)]
pub struct RttAckDeltaAgg {
    /// Exact observation count.
    pub n: u64,
    /// Exact count of `RTT − ack_delay < 0` (reported delay exceeds the
    /// RTT — the client would ignore it, Appendix D).
    pub exceeds_rtt: u64,
    /// Bounded sample of the deltas.
    pub sample: Reservoir,
}

impl RttAckDeltaAgg {
    fn new() -> RttAckDeltaAgg {
        RttAckDeltaAgg {
            n: 0,
            exceeds_rtt: 0,
            sample: Reservoir::new(RESERVOIR_CAP),
        }
    }

    fn record(&mut self, delta: f64) {
        self.n += 1;
        if delta < 0.0 {
            self.exceeds_rtt += 1;
        }
        self.sample.record(delta);
    }

    fn merge(&mut self, other: &RttAckDeltaAgg) {
        self.n += other.n;
        self.exceeds_rtt += other.exceeds_rtt;
        self.sample.merge(&other.sample);
    }
}

/// Combined Figure 10 statistics for one CDN and response class,
/// assembled across all vantage points at query time.
#[derive(Debug, Clone, PartialEq)]
pub struct RttAckDeltaStats {
    /// Exact observation count.
    pub n: u64,
    /// Exact count of deltas below zero.
    pub exceeds_rtt: u64,
    /// Bounded sample (each vantage contributes up to its reservoir).
    sample: Vec<f64>,
}

impl RttAckDeltaStats {
    /// Median delta (`None` when the class was never observed).
    pub fn median(&self) -> Option<f64> {
        rq_obs::median(&self.sample)
    }

    /// Exact share of deltas where the reported ack delay exceeds the
    /// RTT (`None` when the class was never observed).
    pub fn exceed_rtt_share(&self) -> Option<f64> {
        (self.n > 0).then(|| self.exceeds_rtt as f64 / self.n as f64)
    }
}

/// Exact per-(measurement, CDN) counters: handshakes, instant ACKs, and
/// the resumption observables. Merge is field-wise addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasCounts {
    /// Successful handshakes.
    pub ok: u64,
    /// Instant-ACK responses among them.
    pub iack: u64,
    /// Handshakes where the server issued a session ticket.
    pub tickets: u64,
    /// Ticket-issuing handshakes that also accept 0-RTT.
    pub zero_rtt: u64,
    /// Handshakes whose deployment supports connection migration.
    pub migration: u64,
}

impl MeasCounts {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &MeasCounts) {
        self.ok += other.ok;
        self.iack += other.iack;
        self.tickets += other.tickets;
        self.zero_rtt += other.zero_rtt;
        self.migration += other.migration;
    }

    /// Folds one successful handshake's classification in.
    pub fn record(&mut self, class: &crate::prober::ProbeClass) {
        debug_assert!(class.handshake_ok);
        self.ok += 1;
        self.iack += class.instant_ack as u64;
        self.tickets += class.ticket_offered as u64;
        self.zero_rtt += class.zero_rtt_accepted as u64;
        self.migration += class.migration_capable as u64;
    }
}

/// All figure inputs for one (vantage, CDN) cell, collected on the
/// observation-retaining repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct VantageCdnAgg {
    /// Exact count of successful handshakes observed.
    pub handshakes: u64,
    /// Exact count of coalesced ACK–SH responses (zero ACK→SH delay).
    pub coalesced: u64,
    /// Positive (IACK) ACK→SH delays, for CDF quantiles (Fig. 8/14).
    pub delay_hist: FixedHistogram,
    /// Bounded sample of positive ACK→SH delays (exact median values).
    pub iack_delays: Reservoir,
    /// `RTT − ack_delay` per response class (Fig. 10):
    /// `[coalesced, instant ACK]`.
    pub rtt_ack_delta: [RttAckDeltaAgg; 2],
    /// Bounded sample of advertised ticket lifetimes (seconds) from
    /// ticket-issuing handshakes.
    pub ticket_lifetimes_s: Reservoir,
}

/// Histogram range for ACK→SH delays: 0–250 ms in 0.25 ms bins covers
/// every profiled CDN's delay distribution; the tail clamps into the
/// last bin (only quantiles beyond the profiles' p99 would notice).
const DELAY_HIST_MS: (f64, f64, usize) = (0.0, 250.0, 1000);

impl VantageCdnAgg {
    fn new() -> VantageCdnAgg {
        let (lo, hi, bins) = DELAY_HIST_MS;
        VantageCdnAgg {
            handshakes: 0,
            coalesced: 0,
            delay_hist: FixedHistogram::new(lo, hi, bins),
            iack_delays: Reservoir::new(RESERVOIR_CAP),
            rtt_ack_delta: [RttAckDeltaAgg::new(), RttAckDeltaAgg::new()],
            ticket_lifetimes_s: Reservoir::new(RESERVOIR_CAP),
        }
    }

    /// Folds one successful handshake observation into the cell.
    pub fn record(&mut self, obs: &crate::prober::ProbeObservation) {
        debug_assert!(obs.handshake_ok);
        self.handshakes += 1;
        if obs.instant_ack {
            self.delay_hist.record(obs.ack_sh_delay_ms);
            self.iack_delays.record(obs.ack_sh_delay_ms);
        } else {
            self.coalesced += 1;
        }
        let class = obs.instant_ack as usize;
        self.rtt_ack_delta[class].record(obs.rtt_minus_ack_delay_ms());
        if obs.ticket_offered {
            self.ticket_lifetimes_s.record(obs.ticket_lifetime_s);
        }
    }

    fn merge(&mut self, other: &VantageCdnAgg) {
        self.handshakes += other.handshakes;
        self.coalesced += other.coalesced;
        self.delay_hist.merge(&other.delay_hist);
        self.iack_delays.merge(&other.iack_delays);
        for (a, b) in self.rtt_ack_delta.iter_mut().zip(&other.rtt_ack_delta) {
            a.merge(b);
        }
        self.ticket_lifetimes_s.merge(&other.ticket_lifetimes_s);
    }

    /// Figure 8 quantile of the full ACK→SH delay distribution, with
    /// the coalesced responses contributing an exact mass at 0 ms.
    pub fn delay_quantile(&self, p: f64) -> Option<f64> {
        if self.handshakes == 0 {
            return None;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let target = p / 100.0 * (self.handshakes as f64 - 1.0);
        if target < self.coalesced as f64 {
            return Some(0.0);
        }
        let pos = self.delay_hist.count();
        if pos == 0 {
            return Some(0.0);
        }
        if pos == 1 {
            return self.delay_hist.quantile(50.0);
        }
        // Re-express the global rank as a percentile of the positive part.
        let pos_rank = (target - self.coalesced as f64).min(pos as f64 - 1.0);
        self.delay_hist
            .quantile(pos_rank / (pos as f64 - 1.0) * 100.0)
    }
}

/// Compact domain membership set (one bit per domain rank).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DomainBitSet {
    /// An empty set over `len` domains.
    pub fn new(len: usize) -> DomainBitSet {
        DomainBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Marks domain `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether domain `i` is marked.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
}

/// One shard's partial aggregate: a contiguous domain range of a single
/// (vantage, repetition) measurement.
#[derive(Debug)]
pub struct ScanShard {
    /// First domain index the shard covers.
    pub domain_start: usize,
    /// Per-CDN exact counters for this shard's slice of the measurement
    /// (Table 1 share inputs plus resumption rates; all reps).
    pub counts: [MeasCounts; Cdn::ALL.len()],
    /// Shard-local bitset of domains with a successful handshake
    /// (bit `j` = domain `domain_start + j`).
    pub ok_bits: Vec<u64>,
    /// Figure-input cells (per CDN, this vantage), filled only on the
    /// observation-retaining repetition; `None` otherwise.
    pub cells: Option<Box<[VantageCdnAgg; Cdn::ALL.len()]>>,
}

impl ScanShard {
    /// An empty shard covering `len` domains from `domain_start`.
    pub fn new(domain_start: usize, len: usize, with_cells: bool) -> ScanShard {
        ScanShard {
            domain_start,
            counts: [MeasCounts::default(); Cdn::ALL.len()],
            ok_bits: vec![0; len.div_ceil(64)],
            cells: with_cells.then(|| Box::new(std::array::from_fn(|_| VantageCdnAgg::new()))),
        }
    }

    /// Marks shard-local domain `j` as successfully handshaken.
    pub fn mark_ok(&mut self, j: usize) {
        self.ok_bits[j / 64] |= 1 << (j % 64);
    }
}

/// The merged scan state: exact per-measurement counters, the global
/// reachable-domain set, and the per-(vantage, CDN) figure cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanAggregates {
    reps: usize,
    /// Exact counters per measurement, indexed
    /// `[vantage * reps + rep][cdn]`.
    measurements: Vec<[MeasCounts; Cdn::ALL.len()]>,
    /// Domains with at least one successful handshake across every
    /// vantage and repetition (Table 1's "Domains" column).
    ok_domains: DomainBitSet,
    /// Figure cells `[vantage][cdn]` from the observation-retaining rep.
    cells: Vec<[VantageCdnAgg; Cdn::ALL.len()]>,
}

impl ScanAggregates {
    /// Empty aggregates for `domains` domains and `reps` repetitions
    /// over `vantages` vantage points.
    pub fn new(domains: usize, vantages: usize, reps: usize) -> ScanAggregates {
        ScanAggregates {
            reps,
            measurements: vec![[MeasCounts::default(); Cdn::ALL.len()]; vantages * reps],
            ok_domains: DomainBitSet::new(domains),
            cells: (0..vantages)
                .map(|_| std::array::from_fn(|_| VantageCdnAgg::new()))
                .collect(),
        }
    }

    /// Folds one shard of measurement `(v_idx, rep)` in. Shards must be
    /// absorbed in domain order per measurement for the reservoirs to be
    /// partition-independent; everything else is commutative.
    pub fn absorb(&mut self, v_idx: usize, rep: usize, shard: &ScanShard) {
        let m = &mut self.measurements[v_idx * self.reps + rep];
        for (acc, add) in m.iter_mut().zip(&shard.counts) {
            acc.merge(add);
        }
        for (w, &bits) in shard.ok_bits.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                self.ok_domains.set(shard.domain_start + w * 64 + b);
                bits &= bits - 1;
            }
        }
        if let Some(cells) = &shard.cells {
            for (acc, add) in self.cells[v_idx].iter_mut().zip(cells.iter()) {
                acc.merge(add);
            }
        }
    }

    /// The figure cell for one (vantage, CDN).
    pub fn cell(&self, v_idx: usize, cdn: Cdn) -> &VantageCdnAgg {
        &self.cells[v_idx][cdn.index()]
    }

    /// Per-measurement shares of `num(counts)` over successful
    /// handshakes for `cdn` (skipping measurements that saw none), in
    /// measurement order.
    pub fn measurement_shares_of(&self, cdn: Cdn, num: impl Fn(&MeasCounts) -> u64) -> Vec<f64> {
        self.measurements
            .iter()
            .filter_map(|m| {
                let c = &m[cdn.index()];
                (c.ok > 0).then(|| num(c) as f64 / c.ok as f64)
            })
            .collect()
    }

    /// Per-measurement instant-ACK shares for `cdn`.
    pub fn measurement_shares(&self, cdn: Cdn) -> Vec<f64> {
        self.measurement_shares_of(cdn, |c| c.iack)
    }

    /// Summed counters for `cdn` across every (vantage, repetition)
    /// measurement.
    pub fn totals(&self, cdn: Cdn) -> MeasCounts {
        let mut t = MeasCounts::default();
        for m in &self.measurements {
            t.merge(&m[cdn.index()]);
        }
        t
    }

    /// Median advertised ticket lifetime for `cdn` in seconds, across
    /// all vantage points' retained samples; `None` when no ticket was
    /// ever observed.
    pub fn ticket_lifetime_median(&self, cdn: Cdn) -> Option<f64> {
        let mut sample = Vec::new();
        for cells in &self.cells {
            sample.extend_from_slice(cells[cdn.index()].ticket_lifetimes_s.sample());
        }
        rq_obs::median(&sample)
    }

    /// Whether domain `i` completed at least one handshake anywhere.
    pub fn domain_reachable(&self, i: usize) -> bool {
        self.ok_domains.get(i)
    }

    /// Figure 10 statistics for `cdn`, one entry per response class
    /// (`.0` coalesced ACK–SH, `.1` instant ACK), combined across all
    /// vantage points.
    pub fn rtt_ack_delta(&self, cdn: Cdn) -> (RttAckDeltaStats, RttAckDeltaStats) {
        let combine = |class: usize| {
            let mut stats = RttAckDeltaStats {
                n: 0,
                exceeds_rtt: 0,
                sample: Vec::new(),
            };
            for cells in &self.cells {
                let agg = &cells[cdn.index()].rtt_ack_delta[class];
                stats.n += agg.n;
                stats.exceeds_rtt += agg.exceeds_rtt;
                stats.sample.extend_from_slice(agg.sample.sample());
            }
            stats
        };
        (combine(0), combine(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_sample() {
        let mut h = FixedHistogram::new(0.0, 100.0, 400);
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // uniform 0..100
        }
        let med = h.quantile(50.0).unwrap();
        assert!((med - 50.0).abs() < 1.0, "median {med}");
        let p90 = h.quantile(90.0).unwrap();
        assert!((p90 - 90.0).abs() < 1.0, "p90 {p90}");
        assert_eq!(h.quantile(0.0).map(|v| v < 1.0), Some(true));
        assert_eq!(FixedHistogram::new(0.0, 1.0, 4).quantile(50.0), None);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = FixedHistogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(500.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bins[0], 1);
        assert_eq!(h.bins[9], 1);
    }

    #[test]
    fn histogram_merge_is_addition() {
        let mut a = FixedHistogram::new(0.0, 10.0, 10);
        let mut b = a.clone();
        for i in 0..50 {
            a.record(i as f64 % 10.0);
            b.record((i + 3) as f64 % 10.0);
        }
        let mut whole = FixedHistogram::new(0.0, 10.0, 10);
        for i in 0..50 {
            whole.record(i as f64 % 10.0);
        }
        for i in 0..50 {
            whole.record((i + 3) as f64 % 10.0);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn reservoir_keeps_stream_prefix_and_merges_like_concatenation() {
        let stream: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // One reservoir over the whole stream…
        let mut whole = Reservoir::new(10);
        for &v in &stream {
            whole.record(v);
        }
        // …must equal any split merged in order.
        for split in [0usize, 3, 10, 57, 100] {
            let mut left = Reservoir::new(10);
            let mut right = Reservoir::new(10);
            for &v in &stream[..split] {
                left.record(v);
            }
            for &v in &stream[split..] {
                right.record(v);
            }
            left.merge(&right);
            assert_eq!(left, whole, "split at {split}");
        }
        assert_eq!(whole.seen, 100);
        assert_eq!(whole.sample(), &stream[..10]);
    }

    #[test]
    fn reservoir_median_averages_even_samples() {
        let mut r = Reservoir::new(8);
        for v in [4.0, 1.0, 3.0, 2.0] {
            r.record(v);
        }
        assert_eq!(r.median(), Some(2.5));
        assert_eq!(Reservoir::new(4).median(), None);
    }

    #[test]
    fn delay_quantile_respects_zero_mass() {
        let mut cell = VantageCdnAgg::new();
        let obs = |instant_ack: bool, delay: f64| crate::prober::ProbeObservation {
            cdn: Cdn::Cloudflare,
            handshake_ok: true,
            instant_ack,
            ack_sh_delay_ms: delay,
            rtt_ms: 5.0,
            ack_delay_field_ms: 6.0,
            time_to_ack_ms: 5.0,
            time_to_sh_ms: 5.0 + delay,
            ticket_offered: true,
            zero_rtt_accepted: instant_ack,
            ticket_lifetime_s: 7200.0,
            migration_capable: true,
        };
        for _ in 0..60 {
            cell.record(&obs(false, 0.0));
        }
        for i in 0..40 {
            cell.record(&obs(true, 10.0 + i as f64));
        }
        // 60% of the mass is exactly zero.
        assert_eq!(cell.delay_quantile(10.0), Some(0.0));
        assert_eq!(cell.delay_quantile(50.0), Some(0.0));
        let p90 = cell.delay_quantile(90.0).unwrap();
        assert!(p90 > 10.0, "p90 {p90}");
        assert_eq!(VantageCdnAgg::new().delay_quantile(50.0), None);
    }

    #[test]
    fn bitset_set_get() {
        let mut a = DomainBitSet::new(130);
        a.set(0);
        a.set(64);
        a.set(129);
        assert!(a.get(0) && a.get(64) && a.get(129));
        assert!(!a.get(1) && !a.get(128));
    }

    #[test]
    fn absorb_is_partition_independent() {
        // Synthesize one measurement's observations, fold them through
        // two different shard partitions, and require identical state.
        let pop = crate::population::Population::synthesize(2_000, &mut rq_sim::SimRng::new(3));
        let scan_one = |splits: &[usize]| {
            let mut agg = ScanAggregates::new(pop.domains.len(), 1, 1);
            let mut bounds = vec![0];
            bounds.extend_from_slice(splits);
            bounds.push(pop.domains.len());
            for w in bounds.windows(2) {
                let (start, end) = (w[0], w[1]);
                let mut shard = ScanShard::new(start, end - start, true);
                for i in start..end {
                    let rng = crate::prober::probe_rng(9, crate::Vantage::SaoPaulo, 0, i);
                    let Some(class) =
                        crate::prober::classify(&pop.domains[i], crate::Vantage::SaoPaulo, rng)
                    else {
                        continue;
                    };
                    if !class.handshake_ok {
                        continue;
                    }
                    shard.mark_ok(i - start);
                    let c = class.cdn.index();
                    shard.counts[c].record(&class);
                    shard.cells.as_mut().unwrap()[c].record(&class.timings());
                }
                agg.absorb(0, 0, &shard);
            }
            agg
        };
        let whole = scan_one(&[]);
        assert_eq!(scan_one(&[1_000]), whole);
        assert_eq!(scan_one(&[64, 65, 777, 1_999]), whole);
    }
}
