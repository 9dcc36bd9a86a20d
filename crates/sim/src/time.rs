//! Virtual time for the simulator.
//!
//! `SimTime` is a nanosecond count since simulation start; `SimDuration`
//! is a nanosecond span. Both are plain `u64`s with arithmetic helpers, so
//! simulations are exactly reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microsecond count (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Millisecond count (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer factor.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }

    /// Multiplies by a float factor (rounding), for EWMA arithmetic.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Integer division.
    pub const fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }

    /// Element-wise maximum.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Element-wise minimum.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// An instant of virtual time: nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// From a raw nanosecond count.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since underflow"),
        )
    }

    /// Saturating version of [`SimTime::since`].
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Fractional milliseconds since start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(9).as_micros(), 9_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
        assert_eq!(SimDuration::from_micros(250).as_nanos(), 250_000);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!((a + b).as_millis(), 14);
        assert_eq!((a - b).as_millis(), 6);
        assert_eq!(a.mul(3).as_millis(), 30);
        assert_eq!(a.div(2).as_millis(), 5);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(a.mul_f64(0.5).as_millis(), 5);
    }

    #[test]
    fn time_duration_interplay() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(25);
        assert_eq!(t1.since(t0).as_millis(), 25);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn since_panics_on_reversed_order() {
        let t1 = SimTime::ZERO + SimDuration::from_millis(1);
        let _ = SimTime::ZERO.since(t1);
    }
}
