//! Seeded fault timelines: link blackouts and server crashes.
//!
//! A [`FaultTimeline`] is a **pure function** of a fault seed (via
//! [`SimRng::derive`]) and the mean event gaps of each fault class: the
//! same seed always yields the same blackout windows and crash instants,
//! so fault-injected runs are exactly as reproducible as fault-free ones.
//! The timeline itself is inert data — links consult the blackout
//! windows on every transmit, and higher layers (the testbed's server
//! node) schedule the crash instants as timers on the existing event
//! loop.
//!
//! An empty timeline is free: no windows means no per-datagram checks
//! beyond one slice emptiness test, no timers, and — crucially — no
//! random draws, so a fault-free run is byte-identical to one performed
//! before this module existed.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Stream tag: blackout-window schedule.
const BLACKOUT_STREAM: u64 = 0xB1AC_0;
/// Stream tag: server crash instants.
const CRASH_STREAM: u64 = 0xC2A5_4;

/// One link blackout window: every datagram offered during
/// `[start, end)` is dropped, in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// First instant of the outage.
    pub start: SimTime,
    /// First instant after the outage.
    pub end: SimTime,
}

impl Blackout {
    /// Whether a datagram sent at `now` falls into this window.
    #[inline]
    pub fn covers(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

/// The concrete fault schedule of one run: blackout windows and crash
/// instants, both in increasing time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    /// Link blackout windows.
    pub blackouts: Vec<Blackout>,
    /// Server crash instants (all connection state dropped).
    pub crashes: Vec<SimTime>,
}

impl FaultTimeline {
    /// The empty timeline: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultTimeline::default()
    }

    /// Whether this timeline schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty() && self.crashes.is_empty()
    }

    /// Generates the timeline for `fault_seed` over `[0, horizon)`:
    /// blackouts as `(mean_gap, duration)`, crashes as a mean gap;
    /// `None` disables that class.
    ///
    /// Each fault class is an independent Poisson process on its own
    /// [`SimRng::derive`] stream, so enabling one class never shifts
    /// another's schedule. A blackout's next gap is measured from the
    /// *end* of the previous window, so windows never overlap.
    pub fn generate(
        fault_seed: u64,
        horizon: SimDuration,
        blackout: Option<(SimDuration, SimDuration)>,
        crash_every: Option<SimDuration>,
    ) -> Self {
        let windows = |stream, every| poisson_windows(fault_seed, stream, every, horizon);
        let crashes = crash_every.map(|gap| (gap, SimDuration::ZERO));
        FaultTimeline {
            blackouts: windows(BLACKOUT_STREAM, blackout)
                .map(|(start, end)| Blackout { start, end })
                .collect(),
            crashes: windows(CRASH_STREAM, crashes).map(|(at, _)| at).collect(),
        }
    }
}

/// The `[start, end)` windows of a Poisson process on `stream` over
/// `[0, horizon)`: gaps of mean `every.0`, each followed by a window of
/// `every.1` the next gap is measured from. `None` draws nothing.
fn poisson_windows(
    fault_seed: u64,
    stream: u64,
    every: Option<(SimDuration, SimDuration)>,
    horizon: SimDuration,
) -> impl Iterator<Item = (SimTime, SimTime)> {
    let mut process = every.map(|(gap, dur)| (SimRng::derive(fault_seed, &[stream]), gap, dur));
    let mut t = 0u64;
    std::iter::from_fn(move || {
        let (rng, gap, dur) = process.as_mut()?;
        t = t.saturating_add(rng.gen_exp(gap.as_nanos() as f64) as u64);
        if t >= horizon.as_nanos() {
            process = None;
            return None;
        }
        let start = t;
        t = t.saturating_add(dur.as_nanos());
        Some((SimTime::from_nanos(start), SimTime::from_nanos(t)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_profile_generates_empty_timeline() {
        let t = FaultTimeline::generate(7, secs(100), None, None);
        assert!(t.is_empty());
        assert_eq!(t, FaultTimeline::none());
    }

    #[test]
    fn timeline_is_a_pure_function_of_the_seed() {
        let generate = |seed| {
            let blackout = Some((secs(5), SimDuration::from_millis(500)));
            FaultTimeline::generate(seed, secs(120), blackout, Some(secs(20)))
        };
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = generate(43);
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    #[test]
    fn fault_classes_use_independent_streams() {
        let blackout = Some((secs(3), SimDuration::from_millis(100)));
        let a = FaultTimeline::generate(9, secs(60), blackout, None);
        let b = FaultTimeline::generate(9, secs(60), blackout, Some(secs(4)));
        assert_eq!(
            a.blackouts, b.blackouts,
            "enabling crashes must not move the blackout schedule"
        );
        assert!(b.crashes.len() > a.crashes.len());
    }

    #[test]
    fn windows_are_ordered_and_disjoint() {
        let blackout = Some((SimDuration::from_millis(300), SimDuration::from_millis(250)));
        let t = FaultTimeline::generate(5, secs(30), blackout, None);
        assert!(t.blackouts.len() > 10);
        for w in &t.blackouts {
            assert!(w.start < w.end);
        }
        for pair in t.blackouts.windows(2) {
            assert!(pair[0].end <= pair[1].start, "windows must not overlap");
        }
    }

    #[test]
    fn blackout_covers_its_half_open_interval() {
        let w = Blackout {
            start: SimTime::from_nanos(1000),
            end: SimTime::from_nanos(2000),
        };
        assert!(!w.covers(SimTime::from_nanos(999)));
        assert!(w.covers(SimTime::from_nanos(1000)));
        assert!(w.covers(SimTime::from_nanos(1999)));
        assert!(!w.covers(SimTime::from_nanos(2000)), "end exclusive");
    }
}
