//! The testbed's streaming latency histogram.

/// Width of one latency bin in milliseconds.
const BIN_WIDTH_MS: f64 = 0.5;
/// Number of bins: covers 0..8000 ms; everything beyond lands in the
/// overflow counter (reported as the recorded maximum).
const BIN_COUNT: usize = 16_000;

/// A fixed-resolution latency histogram for streaming tail-latency
/// aggregation over connection populations too large to keep raw
/// samples for. 0.5 ms bins over 0–8 s bound the quantile error at a
/// quarter-millisecond — far below the simulation's RTT granularity —
/// while merging across shards stays a plain element-wise sum, so the
/// sharded server-load fold is order-insensitive and exactly
/// reproducible at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            bins: vec![0; BIN_COUNT],
            overflow: 0,
            count: 0,
            max_ms: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample in milliseconds. Negative or non-finite
    /// samples are ignored.
    pub fn record(&mut self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        self.count += 1;
        if ms > self.max_ms {
            self.max_ms = ms;
        }
        let bin = (ms / BIN_WIDTH_MS) as usize;
        if bin < BIN_COUNT {
            self.bins[bin] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one (shard merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        if other.max_ms > self.max_ms {
            self.max_ms = other.max_ms;
        }
    }

    /// The `q`-quantile (`q` in `0.0..=1.0`) as the midpoint of the bin
    /// holding the rank-`⌈q·n⌉` sample; `None` when empty. Samples past
    /// the binned range answer with the recorded maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bin, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((bin as f64 + 0.5) * BIN_WIDTH_MS);
            }
        }
        Some(self.max_ms)
    }

    /// Median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_in_the_right_bins() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(10.0);
        }
        for _ in 0..10 {
            h.record(500.0);
        }
        assert_eq!(h.count(), 100);
        // p50 sits in the 10 ms bin, p99 in the 500 ms bin; bin
        // midpoints are within half a bin width of the true value.
        assert!((h.p50().unwrap() - 10.0).abs() <= BIN_WIDTH_MS);
        assert!((h.p99().unwrap() - 500.0).abs() <= BIN_WIDTH_MS);
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
        assert!(LatencyHistogram::new().p50().is_none());
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..200 {
            let ms = (i * 7 % 90) as f64;
            all.record(ms);
            if i % 2 == 0 {
                a.record(ms);
            } else {
                b.record(ms);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn histogram_overflow_reports_max() {
        let mut h = LatencyHistogram::new();
        h.record(1.0);
        h.record(60_000.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), Some(60_000.0));
        assert_eq!(h.max_ms, 60_000.0);
        // Negative and non-finite samples are ignored.
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
    }
}
