//! The one-week Cloudflare longitudinal study (paper §3/§4.3,
//! Figures 9 and 15).
//!
//! Models the frontend certificate cache that explains the paper's
//! coalescing observations: a colo spreads requests across many frontend
//! servers; a frontend that served a domain within the cache TTL answers
//! with a *coalesced* ACK–ServerHello (certificate on hand, Δt ≈ 0), while
//! a cache miss yields an instant ACK followed by the ServerHello after
//! the store round trip. Popularity therefore controls the coalescing
//! rate — the mechanism behind "our domains at 60/min coalesce 7.5% of
//! the time while discord.com coalesces 91.9%".

use rq_par::SweepRunner;
use rq_sim::SimRng;

use crate::vantage::Vantage;

/// Frontends per colo the cache model spreads requests over.
const FRONTENDS_PER_COLO: f64 = 128.0;
/// Certificate cache residency in seconds.
const CACHE_TTL_S: f64 = 10.0;

/// A domain under longitudinal observation.
#[derive(Debug, Clone)]
pub struct StudyDomain {
    /// Label ("own-1", "discord.com", ...).
    pub name: String,
    /// Our probing rate in requests per minute.
    pub probe_rate_per_min: f64,
    /// Background (third-party) request rate at the colo, per second.
    pub background_rate_per_s: f64,
}

impl StudyDomain {
    /// Probability that a probe hits a frontend with the certificate
    /// cached: `1 - exp(-λ_total/frontends * TTL)`.
    pub fn cache_hit_probability(&self) -> f64 {
        let total_per_s = self.probe_rate_per_min / 60.0 + self.background_rate_per_s;
        1.0 - (-total_per_s / FRONTENDS_PER_COLO * CACHE_TTL_S).exp()
    }
}

/// One minute's observation from one vantage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinuteObservation {
    /// Minute since study start.
    pub minute: u64,
    /// Time from ClientHello to first ACK, ms (None if the response was
    /// coalesced — then only `time_to_coalesced_ms` is set).
    pub time_to_ack_ms: Option<f64>,
    /// Time from ClientHello to a separate ServerHello, ms.
    pub time_to_sh_ms: Option<f64>,
    /// Time from ClientHello to a coalesced ACK–SH, ms.
    pub time_to_coalesced_ms: Option<f64>,
    /// The responding colo matched our vantage (Cf-Ray IATA filter).
    pub same_colo: bool,
}

/// The longitudinal study driver.
#[derive(Debug)]
pub struct LongitudinalStudy {
    /// Vantage point.
    pub vantage: Vantage,
    /// Domain under test.
    pub domain: StudyDomain,
    /// Median Δt (frontend ↔ certificate store) in ms at night.
    pub delta_t_night_ms: f64,
    /// Peak extra Δt at local mid-day, in ms (diurnal load; Fig. 9 shows
    /// larger IACK→SH gaps during the day).
    pub delta_t_diurnal_amplitude_ms: f64,
}

impl LongitudinalStudy {
    /// A Cloudflare-free-tier study with the paper's operating point:
    /// ~2.1–2.6 ms median IACK→SH gap, day-time inflation.
    pub fn cloudflare(vantage: Vantage, domain: StudyDomain) -> Self {
        LongitudinalStudy {
            vantage,
            domain,
            delta_t_night_ms: 1.8,
            delta_t_diurnal_amplitude_ms: 1.4,
        }
    }

    /// Median Δt at `minute` of the study (diurnal sine, period 24 h,
    /// peak at 14:00 **local** — study minutes count UTC, so each
    /// vantage's peak lands on a different study minute, shifted by
    /// [`Vantage::utc_offset_hours`]).
    fn delta_t_at(&self, minute: u64) -> f64 {
        let utc_hour = minute as f64 / 60.0;
        let local_hour = (utc_hour + self.vantage.utc_offset_hours() as f64).rem_euclid(24.0);
        let phase = (local_hour - 14.0) / 24.0 * std::f64::consts::TAU;
        self.delta_t_night_ms + self.delta_t_diurnal_amplitude_ms * (0.5 + 0.5 * phase.cos())
    }

    /// The RNG for one study minute: a pure function of
    /// `(seed, vantage, minute)`, so minutes can be sharded freely and
    /// still reproduce the sequential observation stream exactly.
    fn minute_rng(&self, seed: u64, minute: u64) -> SimRng {
        SimRng::derive(seed ^ 0x10_0D_CAFE, &[self.vantage.index() as u64, minute])
    }

    /// One probe at `minute` of the study.
    fn probe_minute(
        &self,
        minute: u64,
        seed: u64,
        hit_p: f64,
        rtt_median: f64,
    ) -> MinuteObservation {
        let mut rng = self.minute_rng(seed, minute);
        // ~3% of responses come from a different colo and are dropped
        // by the Cf-Ray filter; ~0.5% lose the first ACK.
        let same_colo = rng.gen_bool(0.97);
        if !same_colo {
            return MinuteObservation {
                minute,
                time_to_ack_ms: None,
                time_to_sh_ms: None,
                time_to_coalesced_ms: None,
                same_colo: false,
            };
        }
        let rtt = rng.gen_lognormal(rtt_median, 0.15).max(0.3);
        let coalesced = rng.gen_bool(hit_p);
        if coalesced {
            MinuteObservation {
                minute,
                time_to_ack_ms: None,
                time_to_sh_ms: None,
                time_to_coalesced_ms: Some(rtt + rng.gen_lognormal(0.3, 0.4)),
                same_colo: true,
            }
        } else {
            let ack = rtt + rng.gen_lognormal(0.2, 0.4);
            let dt = rng.gen_lognormal(self.delta_t_at(minute), 0.35);
            MinuteObservation {
                minute,
                time_to_ack_ms: Some(ack),
                time_to_sh_ms: Some(ack + dt),
                time_to_coalesced_ms: None,
                same_colo: true,
            }
        }
    }

    /// Runs the study for `minutes`, one probe per minute, sharding the
    /// minute loop over `runner`. Each minute's randomness derives from
    /// `(seed, vantage, minute)` alone, so the observation stream is
    /// byte-identical at every thread count.
    pub fn run_with(
        &self,
        minutes: u64,
        seed: u64,
        runner: &SweepRunner,
    ) -> Vec<MinuteObservation> {
        let rtt_median = self.vantage.rtt_median_ms(crate::cdn::Cdn::Cloudflare);
        let hit_p = self.domain.cache_hit_probability();
        runner.run(minutes as usize, |m| {
            self.probe_minute(m as u64, seed, hit_p, rtt_median)
        })
    }

    /// [`LongitudinalStudy::run_with`] on the `REACKED_THREADS`-sized
    /// runner.
    pub fn run(&self, minutes: u64, seed: u64) -> Vec<MinuteObservation> {
        self.run_with(minutes, seed, &SweepRunner::from_env())
    }
}

/// Median helper for observation streams. Delegates to
/// [`rq_testbed::median`], which averages the middle pair for
/// even-length samples (the previous upper-median shortcut here
/// disagreed with every other median in the workspace).
pub fn median_of(values: impl Iterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = values.collect();
    rq_testbed::median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own_domain(rate: f64) -> StudyDomain {
        StudyDomain {
            name: "own".into(),
            probe_rate_per_min: rate,
            background_rate_per_s: 0.0,
        }
    }

    #[test]
    fn slow_probing_rarely_hits_cache() {
        // 1/min own domains: 99.9% instant ACK in the paper.
        let p = own_domain(1.0).cache_hit_probability();
        assert!(p < 0.005, "hit probability {p}");
    }

    #[test]
    fn fast_probing_hits_cache_sometimes() {
        // 60/min own domains: coalesced 7.5% in the paper.
        let p = own_domain(60.0).cache_hit_probability();
        assert!((0.04..=0.12).contains(&p), "hit probability {p}");
    }

    #[test]
    fn popular_domains_mostly_coalesce() {
        // discord.com: 91.9% coalesced responses.
        let discord = StudyDomain {
            name: "discord.com".into(),
            probe_rate_per_min: 1.0,
            background_rate_per_s: 32.0,
        };
        let p = discord.cache_hit_probability();
        assert!(p > 0.85, "hit probability {p}");
    }

    #[test]
    fn study_medians_match_cloudflare_operating_point() {
        let study = LongitudinalStudy::cloudflare(Vantage::SaoPaulo, own_domain(1.0));
        let obs = study.run(60 * 24 * 7, 1);
        let gaps: Vec<f64> = obs
            .iter()
            .filter_map(|o| match (o.time_to_ack_ms, o.time_to_sh_ms) {
                (Some(a), Some(s)) => Some(s - a),
                _ => None,
            })
            .collect();
        let med = median_of(gaps.into_iter()).unwrap();
        // §4.3: the IACK arrives on median 2.1 ms (Sao Paulo) before SH.
        assert!((1.5..=3.5).contains(&med), "median gap {med}");
    }

    #[test]
    fn diurnal_pattern_visible() {
        let study = LongitudinalStudy::cloudflare(Vantage::SaoPaulo, own_domain(1.0));
        // Sao Paulo is UTC−3: the 14:00-local peak falls on 17:00 UTC
        // study time, the 02:00-local trough on 05:00 UTC.
        let day = study.delta_t_at(17 * 60);
        let night = study.delta_t_at(5 * 60);
        assert!(day > night + 0.5, "day {day} night {night}");
    }

    #[test]
    fn diurnal_peak_minute_depends_on_vantage() {
        let peak_minute = |v: Vantage| {
            let study = LongitudinalStudy::cloudflare(v, own_domain(1.0));
            (0..24 * 60)
                .max_by(|a, b| study.delta_t_at(*a).total_cmp(&study.delta_t_at(*b)))
                .unwrap()
        };
        let ham = peak_minute(Vantage::Hamburg);
        let lax = peak_minute(Vantage::LosAngeles);
        assert_ne!(ham, lax, "Hamburg and Los Angeles share a peak minute");
        // 14:00 local = 13:00 UTC in Hamburg (UTC+1), 22:00 UTC in Los
        // Angeles (UTC−8).
        assert_eq!(ham, 13 * 60, "hamburg peak at {ham}");
        assert_eq!(lax, 22 * 60, "los angeles peak at {lax}");
    }

    #[test]
    fn median_of_averages_even_length_samples() {
        // Regression: the old helper returned the upper median for even
        // sizes, disagreeing with rq_testbed::median.
        assert_eq!(median_of([1.0, 2.0, 3.0, 4.0].into_iter()), Some(2.5));
        assert_eq!(median_of([3.0, 1.0, 2.0].into_iter()), Some(2.0));
        assert_eq!(median_of(std::iter::empty()), None);
    }

    #[test]
    fn run_is_thread_count_invariant() {
        let study = LongitudinalStudy::cloudflare(Vantage::HongKong, own_domain(1.0));
        let seq = study.run_with(500, 7, &SweepRunner::new(1));
        let par = study.run_with(500, 7, &SweepRunner::new(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn minute_observation_is_independent_of_minute_order() {
        // A minute's observation is a pure function of (seed, vantage,
        // minute): re-running a single minute in isolation reproduces it.
        let study = LongitudinalStudy::cloudflare(Vantage::SaoPaulo, own_domain(1.0));
        let all = study.run(200, 11);
        for minute in [0u64, 1, 63, 199] {
            let lone = study.run_with(minute + 1, 11, &SweepRunner::new(1));
            assert_eq!(lone[minute as usize], all[minute as usize]);
        }
    }

    #[test]
    fn cf_ray_filter_removes_other_colos() {
        let study = LongitudinalStudy::cloudflare(Vantage::Hamburg, own_domain(1.0));
        let obs = study.run(2000, 2);
        let other = obs.iter().filter(|o| !o.same_colo).count();
        assert!(other > 0 && other < 200, "other-colo count {other}");
    }

    #[test]
    fn deterministic_runs() {
        let study = LongitudinalStudy::cloudflare(Vantage::SaoPaulo, own_domain(1.0));
        assert_eq!(study.run(100, 9), study.run(100, 9));
    }
}
