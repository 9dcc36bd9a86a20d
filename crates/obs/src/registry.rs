//! Deterministic sim-time metrics registry.
//!
//! Everything here is exact integer arithmetic over a `BTreeMap`, so a
//! registry is a value: two runs that did the same work produce equal
//! registries, and merging per-shard registries in shard order yields
//! the same bytes at any thread count. `merge` is a commutative monoid
//! (`Registry::default()` is the identity), which the property tests
//! pin.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Log2-bucketed integer histogram (65 buckets: one for zero, one per
/// bit position; boxed, so a [`Metric`] is 48 bytes rather than 560).
/// Exact counts, sum, min and max — quantiles are bucket-upper-bound
/// approximations: all the reporting layer needs, and merging is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: Box<[u64; 65]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; 65]),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound of a bucket: the largest value that lands in it.
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl Histogram {
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean as exact-integer-derived float (deterministic formatting).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile approximation: the upper bound of the bucket holding
    /// the `q`-th ranked observation. Exact for 0/1-valued data,
    /// within 2x above it — good enough for a report column, and
    /// exactly mergeable unlike a sampled percentile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }
}

/// One named metric. Counters sum on merge; gauges sum their level
/// (each shard contributes its share of a distributed quantity) and
/// max their peak; histograms merge bucket-wise.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge { level: i64, peak: i64 },
    Histogram(Histogram),
}

impl Metric {
    fn merge(&mut self, other: &Metric, name: &str) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += *b,
            (
                Metric::Gauge { level, peak },
                Metric::Gauge {
                    level: ol,
                    peak: op,
                },
            ) => {
                *level += *ol;
                *peak = (*peak).max(*op);
            }
            (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
            _ => panic!("metric kind mismatch merging {name:?}"),
        }
    }
}

/// Hierarchical metrics registry. Names are `/`-separated paths
/// (`"sim/events/datagram"`), a `&'static str` or a run-time `String`,
/// stored only when new; iteration and rendering follow the `BTreeMap`
/// order, so output is deterministic by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<Cow<'static, str>, Metric>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a counter, creating it at zero first.
    pub fn add(&mut self, name: impl Into<Cow<'static, str>>, by: u64) {
        let name = name.into();
        match self.metrics.get_mut(name.as_ref()) {
            Some(Metric::Counter(c)) => *c += by,
            Some(_) => panic!("metric kind mismatch adding to {name:?}"),
            None => drop(self.metrics.insert(name, Metric::Counter(by))),
        }
    }

    /// Record a gauge observation: current level plus its high-water
    /// mark. Merging sums levels and maxes peaks.
    pub fn gauge(&mut self, name: impl Into<Cow<'static, str>>, level: i64, peak: i64) {
        let name = name.into();
        match self.metrics.get_mut(name.as_ref()) {
            Some(Metric::Gauge { level: l, peak: p }) => {
                *l += level;
                *p = (*p).max(peak);
            }
            Some(_) => panic!("metric kind mismatch gauging {name:?}"),
            None => {
                let peak = peak.max(0);
                self.metrics.insert(name, Metric::Gauge { level, peak });
            }
        }
    }

    /// Record one observation into a histogram metric.
    pub fn observe(&mut self, name: impl Into<Cow<'static, str>>, v: u64) {
        let name = name.into();
        match self.metrics.get_mut(name.as_ref()) {
            Some(Metric::Histogram(h)) => h.observe(v),
            Some(_) => panic!("metric kind mismatch observing {name:?}"),
            None => {
                let mut h = Histogram::default();
                h.observe(v);
                self.metrics.insert(name, Metric::Histogram(h));
            }
        }
    }

    /// Counter value (zero if absent or a different kind).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Monoid merge: union of names, per-kind combination. Panics on a
    /// kind mismatch — that is a naming bug, not data.
    pub fn merge(&mut self, other: &Registry) {
        for (name, m) in &other.metrics {
            match self.metrics.get_mut(name) {
                Some(mine) => mine.merge(m, name),
                None => {
                    self.metrics.insert(name.clone(), m.clone());
                }
            }
        }
    }

    /// Deterministic aligned table, one metric per line.
    pub fn render(&self) -> String {
        let width = self
            .metrics
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(12);
        let mut out = String::new();
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name:<width$}  {c}");
                }
                Metric::Gauge { level, peak } => {
                    let _ = writeln!(out, "{name:<width$}  level={level} peak={peak}");
                }
                Metric::Histogram(h) => {
                    if h.is_empty() {
                        let _ = writeln!(out, "{name:<width$}  n=0");
                    } else {
                        let _ = writeln!(
                            out,
                            "{name:<width$}  n={} min={} p50<={} p99<={} max={} mean={:.1}",
                            h.count,
                            h.min,
                            h.quantile(0.50),
                            h.quantile(0.99),
                            h.max,
                            h.mean()
                        );
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_on_merge() {
        let mut a = Registry::new();
        a.add("x/hits", 2);
        let mut b = Registry::new();
        b.add("x/hits", 3);
        b.add("y/misses", 1);
        a.merge(&b);
        assert_eq!(a.counter("x/hits"), 5);
        assert_eq!(a.counter("y/misses"), 1);
    }

    #[test]
    fn gauge_sums_level_maxes_peak() {
        let mut a = Registry::new();
        a.gauge("srv/active", 3, 9);
        let mut b = Registry::new();
        b.gauge("srv/active", 2, 4);
        a.merge(&b);
        assert_eq!(
            a.get("srv/active"),
            Some(&Metric::Gauge { level: 5, peak: 9 })
        );
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!(h.quantile(0.5) >= 3);
        assert_eq!(h.quantile(1.0), 100);
        // Zero-valued data is exact.
        let mut z = Histogram::default();
        z.observe(0);
        assert_eq!(z.quantile(0.99), 0);
    }

    #[test]
    fn merge_identity() {
        let mut a = Registry::new();
        a.add("c", 7);
        a.observe("h", 12);
        let before = a.clone();
        a.merge(&Registry::default());
        assert_eq!(a, before);
        let mut id = Registry::default();
        id.merge(&before);
        assert_eq!(id, before);
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.add("b/second", 2);
        r.add("a/first", 1);
        r.gauge("c/third", 1, 2);
        let s = r.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a/first"));
        assert!(lines[1].starts_with("b/second"));
        assert_eq!(r.render(), s);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.add("x", 1);
        r.observe("x", 1);
    }
}
