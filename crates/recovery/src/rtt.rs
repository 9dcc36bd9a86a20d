//! RTT estimation (RFC 9002 §5).
//!
//! The estimator is the linchpin of the paper: the first RTT sample
//! initializes `smoothed_rtt = sample` and `rttvar = sample / 2`, making
//! the first sample-based PTO `3 x sample`. A server that waits for the
//! certificate (WFC) inflates this first sample by Δt, so the client's
//! first PTO is inflated by `3 x Δt` — exactly Figure 2's effect.
//!
//! Every client blends samples by RFC 9002 §5.3. aioquic's variance
//! update order (paper Appendix E) is not modelled: it moved no figure
//! cell. go-x-net's mis-initialization (§4.1) is
//! [`RttEstimator::with_buggy_preinit`].

use rq_sim::SimDuration;

/// Timer granularity, `kGranularity` (RFC 9002 §6.1.2).
pub const GRANULARITY: SimDuration = SimDuration::from_millis(1);

/// RTT state for one connection.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    latest: SimDuration,
    smoothed: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    max_ack_delay: SimDuration,
    samples: usize,
    /// go-x-net quirk: when set, the estimator behaves as if a bogus
    /// default (e.g. 90 ms) had already been installed, so the first real
    /// sample is blended like a subsequent sample instead of initializing.
    buggy_preinit: Option<SimDuration>,
}

impl RttEstimator {
    /// Creates an estimator. `max_ack_delay` is the peer's advertised
    /// `max_ack_delay` transport parameter (Application space only).
    pub fn new(max_ack_delay: SimDuration) -> Self {
        RttEstimator {
            latest: SimDuration::ZERO,
            smoothed: None,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::ZERO,
            max_ack_delay,
            samples: 0,
            buggy_preinit: None,
        }
    }

    /// Installs the go-x-net mis-initialization quirk: the first sample is
    /// blended into a pre-existing bogus `smoothed` instead of initializing
    /// the estimator (paper §4.1: "smoothed RTT is initialized at 90 ms").
    pub fn with_buggy_preinit(mut self, preinit: SimDuration) -> Self {
        self.buggy_preinit = Some(preinit);
        self
    }

    /// Processes one RTT sample (RFC 9002 §5.3).
    ///
    /// `ack_delay` is the peer-reported acknowledgment delay;
    /// `handshake_confirmed` gates clamping it to `max_ack_delay`.
    pub fn update(
        &mut self,
        sample: SimDuration,
        ack_delay: SimDuration,
        handshake_confirmed: bool,
    ) {
        self.samples += 1;
        self.latest = sample;
        match self.smoothed {
            None => {
                if let Some(pre) = self.buggy_preinit {
                    // Quirky path: pretend `pre` was a previous sample.
                    self.min_rtt = sample;
                    self.smoothed = Some(pre);
                    self.rttvar = pre.div(2);
                    self.blend(sample);
                } else {
                    self.min_rtt = sample;
                    self.smoothed = Some(sample);
                    self.rttvar = sample.div(2);
                }
            }
            Some(_) => {
                self.min_rtt = self.min_rtt.min(sample);
                let mut delay = ack_delay;
                if handshake_confirmed {
                    delay = delay.min(self.max_ack_delay);
                }
                // Only subtract the ack delay if it leaves at least min_rtt.
                let candidate = sample.saturating_sub(delay);
                let adjusted = if candidate >= self.min_rtt {
                    candidate
                } else {
                    sample
                };
                self.blend(adjusted);
            }
        }
    }

    /// RFC 9002 §5.3: rttvar is updated before smoothed_rtt, against the
    /// pre-update smoothed value.
    fn blend(&mut self, adjusted: SimDuration) {
        let smoothed = self.smoothed.expect("blend requires initialized estimator");
        let diff = if smoothed > adjusted {
            smoothed - adjusted
        } else {
            adjusted - smoothed
        };
        self.rttvar = self.rttvar.mul_f64(0.75) + diff.mul_f64(0.25);
        self.smoothed = Some(smoothed.mul_f64(0.875) + adjusted.mul_f64(0.125));
    }

    /// Latest raw sample.
    pub fn latest(&self) -> SimDuration {
        self.latest
    }

    /// Smoothed RTT, if at least one sample exists.
    pub fn smoothed(&self) -> Option<SimDuration> {
        self.smoothed
    }

    /// RTT variation.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Minimum observed RTT.
    pub fn min_rtt(&self) -> SimDuration {
        self.min_rtt
    }

    /// Number of samples absorbed.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// The sample-based PTO **base**: `smoothed_rtt + max(4*rttvar,
    /// kGranularity)` (RFC 9002 §6.2.1), before any `max_ack_delay` or
    /// backoff multipliers. `None` until a sample exists.
    pub fn pto_base(&self) -> Option<SimDuration> {
        self.smoothed
            .map(|s| s + self.rttvar.mul(4).max(GRANULARITY))
    }

    /// PTO for a space: base plus `max_ack_delay` in the Application space
    /// (RFC 9002 §6.2.1).
    pub fn pto_for_space(&self, is_application: bool) -> Option<SimDuration> {
        self.pto_base().map(|p| {
            if is_application {
                p + self.max_ack_delay
            } else {
                p
            }
        })
    }

    /// The time-threshold for loss detection: `9/8 * max(smoothed, latest)`
    /// floored at granularity (RFC 9002 §6.1.2).
    pub fn loss_delay(&self) -> SimDuration {
        let base = self.smoothed.unwrap_or(self.latest).max(self.latest);
        base.mul_f64(9.0 / 8.0).max(GRANULARITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1;
    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v * MS)
    }

    #[test]
    fn first_sample_initialization() {
        let mut r = RttEstimator::new(ms(25));
        r.update(ms(10), SimDuration::ZERO, false);
        assert_eq!(r.smoothed(), Some(ms(10)));
        assert_eq!(r.rttvar(), ms(5));
        assert_eq!(r.min_rtt(), ms(10));
        assert_eq!(r.latest(), ms(10));
    }

    #[test]
    fn first_pto_is_three_times_sample() {
        // The paper's central arithmetic: PTO_1 = srtt + 4*rttvar
        //                                       = s + 4*(s/2) = 3s.
        let mut r = RttEstimator::new(SimDuration::ZERO);
        r.update(ms(9), SimDuration::ZERO, false);
        assert_eq!(r.pto_base(), Some(ms(27)));
        let mut r2 = RttEstimator::new(SimDuration::ZERO);
        r2.update(ms(25), SimDuration::ZERO, false);
        assert_eq!(r2.pto_base(), Some(ms(75)));
    }

    #[test]
    fn wfc_inflation_is_three_delta_t() {
        // RTT 9 ms; Δt = 4 ms inflates the first sample to 13 ms and the
        // first PTO from 27 ms to 39 ms: a 3 x Δt = 12 ms penalty (Fig. 2).
        let mut iack = RttEstimator::new(SimDuration::ZERO);
        iack.update(ms(9), SimDuration::ZERO, false);
        let mut wfc = RttEstimator::new(SimDuration::ZERO);
        wfc.update(ms(13), SimDuration::ZERO, false);
        let diff = wfc.pto_base().unwrap() - iack.pto_base().unwrap();
        assert_eq!(diff, ms(12));
    }

    #[test]
    fn ewma_converges_toward_true_rtt() {
        let mut r = RttEstimator::new(SimDuration::ZERO);
        r.update(ms(100), SimDuration::ZERO, false); // inflated first sample
        for _ in 0..50 {
            r.update(ms(20), SimDuration::ZERO, false);
        }
        let s = r.smoothed().unwrap().as_millis_f64();
        assert!((s - 20.0).abs() < 1.0, "smoothed {s}");
    }

    #[test]
    fn ack_delay_subtracted_when_safe() {
        let mut r = RttEstimator::new(ms(25));
        r.update(ms(10), SimDuration::ZERO, false);
        // Sample 30 ms with 10 ms ack delay → adjusted 20 ms (>= min_rtt).
        r.update(ms(30), ms(10), false);
        let s = r.smoothed().unwrap().as_millis_f64();
        // EWMA of 10 and 20: 10*7/8 + 20/8 = 11.25.
        assert!((s - 11.25).abs() < 0.01, "smoothed {s}");
    }

    #[test]
    fn ack_delay_ignored_when_below_min_rtt() {
        let mut r = RttEstimator::new(ms(25));
        r.update(ms(10), SimDuration::ZERO, false);
        // Sample 12 ms with 5 ms delay → adjusted 7 ms < min_rtt → use raw.
        r.update(ms(12), ms(5), false);
        let s = r.smoothed().unwrap().as_millis_f64();
        // EWMA of 10 and 12: 10.25.
        assert!((s - 10.25).abs() < 0.01, "smoothed {s}");
    }

    #[test]
    fn ack_delay_clamped_after_confirmation() {
        let mut r = RttEstimator::new(ms(2));
        r.update(ms(10), SimDuration::ZERO, true);
        // 50 ms reported delay clamps to max_ack_delay = 2 ms.
        r.update(ms(40), ms(50), true);
        let s = r.smoothed().unwrap().as_millis_f64();
        // adjusted = 38; EWMA of 10 and 38 = 13.5.
        assert!((s - 13.5).abs() < 0.01, "smoothed {s}");
    }

    #[test]
    fn pto_includes_max_ack_delay_only_in_app_space() {
        let mut r = RttEstimator::new(ms(25));
        r.update(ms(10), SimDuration::ZERO, false);
        assert_eq!(r.pto_for_space(false), Some(ms(30)));
        assert_eq!(r.pto_for_space(true), Some(ms(55)));
    }

    #[test]
    fn granularity_floor_on_tiny_rtt() {
        let mut r = RttEstimator::new(SimDuration::ZERO);
        r.update(SimDuration::from_micros(100), SimDuration::ZERO, false);
        // 4*rttvar = 200 µs < 1 ms granularity → floor applies.
        assert_eq!(r.pto_base(), Some(SimDuration::from_micros(100) + ms(1)));
    }

    #[test]
    fn min_rtt_tracks_minimum() {
        let mut r = RttEstimator::new(SimDuration::ZERO);
        r.update(ms(20), SimDuration::ZERO, false);
        r.update(ms(8), SimDuration::ZERO, false);
        r.update(ms(30), SimDuration::ZERO, false);
        assert_eq!(r.min_rtt(), ms(8));
    }

    #[test]
    fn buggy_preinit_inflates_smoothed() {
        // go-x-net quirk: real RTT 33 ms but smoothed starts at 90 ms.
        let mut r = RttEstimator::new(SimDuration::ZERO).with_buggy_preinit(ms(90));
        r.update(ms(33), SimDuration::ZERO, false);
        let s = r.smoothed().unwrap().as_millis_f64();
        // Blended: 90*7/8 + 33/8 = 82.875 — far above the real 33 ms.
        assert!((s - 82.875).abs() < 0.01, "smoothed {s}");
        assert!(r.pto_base().unwrap() > ms(90));
    }

    #[test]
    fn loss_delay_uses_max_of_smoothed_and_latest() {
        let mut r = RttEstimator::new(SimDuration::ZERO);
        r.update(ms(16), SimDuration::ZERO, false);
        assert_eq!(r.loss_delay(), ms(18)); // 9/8 * 16
        r.update(ms(80), SimDuration::ZERO, false);
        // latest (80) > smoothed (24) → 9/8 * 80 = 90.
        assert_eq!(r.loss_delay(), ms(90));
    }
}
