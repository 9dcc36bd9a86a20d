//! Seeded deterministic RNG for simulations.
//!
//! A small SplitMix64/xoshiro256** implementation so the simulator core has
//! no external RNG dependency and produces identical streams on every
//! platform. Heavier distribution machinery (used by `rq-wild`) builds on
//! top of this.

/// The SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn splitmix_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One normal variate as drawn, before the Box–Muller transform: the
/// two uniforms [`SimRng::draw_normal`] consumed. Drawing and
/// transforming are separate so a caller that needs the stream position
/// but not (yet) the value can skip the `ln`/`sqrt`/`cos`/`exp`;
/// transforming later yields the bits `gen_normal` / `gen_lognormal`
/// would have returned at the draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalDraw {
    u1: f64,
    u2: f64,
}

impl NormalDraw {
    /// The standard-normal value of this draw (Box–Muller).
    pub fn normal(self) -> f64 {
        (-2.0 * self.u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * self.u2).cos()
    }

    /// The log-normal value of this draw, parameterized by the median
    /// and sigma of the underlying normal.
    pub fn lognormal(self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.normal()).exp()
    }
}

/// Deterministic RNG (xoshiro256** seeded via SplitMix64).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix_mix(sm)
        };
        SimRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Derives an independent child stream (for per-node or per-repetition
    /// RNGs) without perturbing this one’s future output.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let a = self.next_u64();
        SimRng::new(a ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives a stream from a seed plus a coordinate path, e.g.
    /// `(scan seed, vantage, repetition, domain index)`, without any
    /// shared mutable state: the stream is a pure function of its
    /// coordinates, so work keyed by them can be sharded freely and
    /// still reproduce byte-identical draws at any thread count.
    ///
    /// Each coordinate passes through a SplitMix64 finalizer round
    /// (full avalanche), so nearby paths — `(v, rep)` vs `(v+1, rep-1)`
    /// and friends — land in unrelated streams, unlike the XOR-of-
    /// shifted-indices mixing this replaces, which collided whenever
    /// two coordinate combinations XORed to the same value.
    pub fn derive(seed: u64, path: &[u64]) -> SimRng {
        let mut state = splitmix_mix(seed ^ 0x6A09_E667_F3BC_C908);
        for (depth, coord) in path.iter().enumerate() {
            // Mix the coordinate with its position so permuted paths
            // ([a, b] vs [b, a]) derive different streams too.
            let salted = coord
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(depth as u64 + 1);
            state = splitmix_mix(state ^ salted);
        }
        SimRng::new(state)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`. Panics if `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Lemire's nearly-divisionless method would be overkill; modulo bias
        // is irrelevant at simulation scales but we reject the biased zone
        // anyway for reproducible uniformity.
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Draws the two uniforms of one normal variate without transforming
    /// them (see [`NormalDraw`]): the stream advances exactly as
    /// [`SimRng::gen_normal`] advances it.
    pub fn draw_normal(&mut self) -> NormalDraw {
        let u1 = self.gen_f64().max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        NormalDraw { u1, u2 }
    }

    /// Standard-normal draw (Box–Muller, deterministic).
    pub fn gen_normal(&mut self) -> f64 {
        self.draw_normal().normal()
    }

    /// Exponential draw with mean `mean`.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = self.gen_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Log-normal draw parameterized by the median and sigma of the
    /// underlying normal (used for wild-measurement delay distributions).
    pub fn gen_lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        self.draw_normal().lognormal(median, sigma)
    }

    /// Uniform duration in `[0, max]` (nanosecond resolution).
    pub fn gen_duration(&mut self, max: crate::time::SimDuration) -> crate::time::SimDuration {
        if max == crate::time::SimDuration::ZERO {
            return max;
        }
        crate::time::SimDuration::from_nanos(self.gen_range(max.as_nanos() + 1))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = SimRng::new(7);
        for _ in 0..1000 {
            assert!(r.gen_range(13) < 13);
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_mean_near_zero() {
        let mut r = SimRng::new(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen_normal()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = SimRng::new(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen_exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn lognormal_median_matches() {
        let mut r = SimRng::new(8);
        let mut v: Vec<f64> = (0..10_001).map(|_| r.gen_lognormal(4.0, 0.5)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[5000];
        assert!((median - 4.0).abs() < 0.3, "median {median}");
    }

    #[test]
    fn drawn_pairs_transform_to_the_same_bits_and_stream_position() {
        let mut a = SimRng::new(13);
        let mut b = SimRng::new(13);
        for i in 0..500 {
            if i % 2 == 0 {
                assert_eq!(a.draw_normal().normal().to_bits(), b.gen_normal().to_bits());
            } else {
                let later = a.draw_normal();
                let now = b.gen_lognormal(3.2, 0.6);
                assert_eq!(later.lognormal(3.2, 0.6).to_bits(), now.to_bits());
            }
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_is_a_pure_function_of_its_path() {
        let mut a = SimRng::derive(42, &[1, 2, 3]);
        let mut b = SimRng::derive(42, &[1, 2, 3]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derive_separates_nearby_and_permuted_paths() {
        // The XOR-shift mixing this replaced collided on pairs like
        // (v=2, rep=0) vs (v=0, rep=1<<16); derived paths must not.
        let pairs: [(&[u64], &[u64]); 4] = [
            (&[2, 0], &[0, 2]),
            (&[1, 2], &[2, 1]),
            (&[0, 65536], &[2, 0]),
            (&[7], &[7, 0]),
        ];
        for (p, q) in pairs {
            let mut a = SimRng::derive(9, p);
            let mut b = SimRng::derive(9, q);
            let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
            assert!(same < 4, "paths {p:?} and {q:?} overlap ({same}/64)");
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SimRng::new(11);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_duration_bounded_inclusive() {
        use crate::time::SimDuration;
        let mut r = SimRng::new(4);
        let max = SimDuration::from_nanos(10);
        let draws: Vec<u64> = (0..2000).map(|_| r.gen_duration(max).as_nanos()).collect();
        assert!(draws.iter().all(|&d| d <= 10));
        assert!(draws.contains(&0) && draws.contains(&10), "range inclusive");
        assert_eq!(r.gen_duration(SimDuration::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
    }
}
