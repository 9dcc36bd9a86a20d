//! Metrics-exposure share (paper Figure 11, Appendix E).
//!
//! Implementations differ in how many `recovery:metrics` updates reach
//! the qlog output: aioquic, go-x-net, mvfst and quiche expose
//! essentially all updates, while neqo, ngtcp2, picoquic and quic-go
//! expose a fraction. That share is the one number Figure 11 prints, and
//! the one this module models. Appendix E's other exposure differences,
//! an omitted RTT variance and coarse timestamps, change no figure and
//! are not modelled.

/// Which share of a client's metrics updates its qlog exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsExposure {
    /// Fraction of metric updates that appear in the log (1.0 = all).
    pub update_share: f64,
}

impl MetricsExposure {
    /// Every update exposed.
    pub fn full() -> Self {
        MetricsExposure { update_share: 1.0 }
    }

    /// How many of `total` metric updates the log exposes.
    pub fn exposed_update_count(&self, total: usize) -> usize {
        if self.update_share >= 1.0 {
            return total;
        }
        (0..total).filter(|&n| self.exposes_update(n)).count()
    }

    /// Decides deterministically whether the `n`-th update is exposed.
    /// Uses a low-discrepancy accept rule so the exposed subset is spread
    /// evenly, like periodic logging in real stacks.
    fn exposes_update(&self, n: usize) -> bool {
        // Accept update n iff the integer part of n*share advances.
        let prev = ((n as f64) * self.update_share).floor();
        let cur = ((n as f64 + 1.0) * self.update_share).floor();
        cur > prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_exposure_accepts_everything() {
        let e = MetricsExposure::full();
        assert!((0..100).all(|n| e.exposes_update(n)));
    }

    #[test]
    fn zero_share_exposes_nothing() {
        let e = MetricsExposure { update_share: 0.0 };
        assert!(!(0..100).any(|n| e.exposes_update(n)));
    }

    #[test]
    fn half_share_exposes_half() {
        let e = MetricsExposure { update_share: 0.5 };
        let count = (0..1000).filter(|&n| e.exposes_update(n)).count();
        assert_eq!(count, 500);
    }

    #[test]
    fn exposed_subset_is_spread_evenly() {
        let e = MetricsExposure { update_share: 0.25 };
        let idx: Vec<usize> = (0..40).filter(|&n| e.exposes_update(n)).collect();
        assert_eq!(idx.len(), 10);
        // Gaps of exactly 4 between consecutive exposed updates.
        for w in idx.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
    }

    #[test]
    fn exposed_count_matches_filter() {
        for share in [0.0, 0.25, 0.5, 0.77, 1.0] {
            let e = MetricsExposure {
                update_share: share,
            };
            let explicit = (0..321).filter(|&n| e.exposes_update(n)).count();
            assert_eq!(e.exposed_update_count(321), explicit, "share {share}");
        }
        assert_eq!(MetricsExposure::full().exposed_update_count(0), 0);
    }
}
