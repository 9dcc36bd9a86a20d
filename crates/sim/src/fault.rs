//! Seeded fault timelines: link blackouts and server freeze/crash events.
//!
//! A [`FaultTimeline`] is a **pure function** of a fault seed (via
//! [`SimRng::derive`]) and a profile of mean event gaps: the same seed
//! always yields the same blackout windows, crash instants, and freeze
//! intervals, so fault-injected runs are exactly as reproducible as
//! fault-free ones. The timeline itself is inert data — links consult
//! the blackout windows on every transmit, and higher layers (the
//! testbed's server node) schedule the crash/freeze instants as timers
//! on the existing event loop.
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
/// Stream tag: server freeze intervals.
const FREEZE_STREAM: u64 = 0xF2EE_2E;

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

/// One server freeze interval: the frozen endpoint processes nothing
/// (datagrams are dropped on the floor, timers are ignored) during
/// `[start, end)`, but keeps all connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freeze {
    /// First frozen instant.
    pub start: SimTime,
    /// First instant after the thaw.
    pub end: SimTime,
}

/// Mean event gaps the timeline generator turns into concrete seeded
/// schedules. `None`/zero rates disable the corresponding fault class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProfile {
    /// Mean gap between blackout windows; `None` = no blackouts.
    pub blackout_every: Option<SimDuration>,
    /// Duration of each blackout window.
    pub blackout_duration: SimDuration,
    /// Mean gap between server crashes; `None` = no crashes.
    pub crash_every: Option<SimDuration>,
    /// Mean gap between server freezes; `None` = no freezes.
    pub freeze_every: Option<SimDuration>,
    /// Duration of each freeze.
    pub freeze_duration: SimDuration,
}

impl FaultProfile {
    /// A profile that injects nothing.
    pub fn none() -> Self {
        FaultProfile::default()
    }

    /// Whether any fault class is enabled.
    pub fn is_none(&self) -> bool {
        self.blackout_every.is_none() && self.crash_every.is_none() && self.freeze_every.is_none()
    }
}

/// The concrete fault schedule of one run: blackout windows, crash
/// instants, and freeze intervals, all in increasing time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    /// Link blackout windows.
    pub blackouts: Vec<Blackout>,
    /// Server crash instants (all connection state dropped).
    pub crashes: Vec<SimTime>,
    /// Server freeze intervals (state kept, processing stalled).
    pub freezes: Vec<Freeze>,
}

impl FaultTimeline {
    /// The empty timeline: injects nothing, costs nothing.
    pub fn none() -> Self {
        FaultTimeline::default()
    }

    /// Whether this timeline schedules any fault at all.
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty() && self.crashes.is_empty() && self.freezes.is_empty()
    }

    /// Generates the timeline for `fault_seed` over `[0, horizon)`.
    ///
    /// Each fault class is an independent Poisson process on its own
    /// [`SimRng::derive`] stream, so enabling one class never shifts
    /// another's schedule. Interval faults (blackouts, freezes) measure
    /// the next gap from the *end* of the previous window, so windows
    /// never overlap.
    pub fn generate(fault_seed: u64, horizon: SimDuration, profile: &FaultProfile) -> Self {
        let horizon_ns = horizon.as_nanos();
        let mut timeline = FaultTimeline::none();

        if let Some(gap) = profile.blackout_every {
            let mut rng = SimRng::derive(fault_seed, &[BLACKOUT_STREAM]);
            let dur = profile.blackout_duration.as_nanos();
            let mut t = 0u64;
            loop {
                t = t.saturating_add(rng.gen_exp(gap.as_nanos() as f64) as u64);
                if t >= horizon_ns {
                    break;
                }
                let end = t.saturating_add(dur);
                timeline.blackouts.push(Blackout {
                    start: SimTime::from_nanos(t),
                    end: SimTime::from_nanos(end),
                });
                t = end;
            }
        }

        if let Some(gap) = profile.crash_every {
            let mut rng = SimRng::derive(fault_seed, &[CRASH_STREAM]);
            let mut t = 0u64;
            loop {
                t = t.saturating_add(rng.gen_exp(gap.as_nanos() as f64) as u64);
                if t >= horizon_ns {
                    break;
                }
                timeline.crashes.push(SimTime::from_nanos(t));
            }
        }

        if let Some(gap) = profile.freeze_every {
            let mut rng = SimRng::derive(fault_seed, &[FREEZE_STREAM]);
            let dur = profile.freeze_duration.as_nanos();
            let mut t = 0u64;
            loop {
                t = t.saturating_add(rng.gen_exp(gap.as_nanos() as f64) as u64);
                if t >= horizon_ns {
                    break;
                }
                let end = t.saturating_add(dur);
                timeline.freezes.push(Freeze {
                    start: SimTime::from_nanos(t),
                    end: SimTime::from_nanos(end),
                });
                t = end;
            }
        }

        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_profile_generates_empty_timeline() {
        let t = FaultTimeline::generate(7, secs(100), &FaultProfile::none());
        assert!(t.is_empty());
        assert_eq!(t, FaultTimeline::none());
    }

    #[test]
    fn timeline_is_a_pure_function_of_the_seed() {
        let profile = FaultProfile {
            blackout_every: Some(secs(5)),
            blackout_duration: SimDuration::from_millis(500),
            crash_every: Some(secs(20)),
            freeze_every: Some(secs(11)),
            freeze_duration: SimDuration::from_millis(200),
            ..FaultProfile::default()
        };
        let a = FaultTimeline::generate(42, secs(120), &profile);
        let b = FaultTimeline::generate(42, secs(120), &profile);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultTimeline::generate(43, secs(120), &profile);
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    #[test]
    fn fault_classes_use_independent_streams() {
        let blackout_only = FaultProfile {
            blackout_every: Some(secs(3)),
            blackout_duration: SimDuration::from_millis(100),
            ..FaultProfile::default()
        };
        let both = FaultProfile {
            crash_every: Some(secs(4)),
            ..blackout_only
        };
        let a = FaultTimeline::generate(9, secs(60), &blackout_only);
        let b = FaultTimeline::generate(9, secs(60), &both);
        assert_eq!(
            a.blackouts, b.blackouts,
            "enabling crashes must not move the blackout schedule"
        );
        assert!(b.crashes.len() > a.crashes.len());
    }

    #[test]
    fn windows_are_ordered_and_disjoint() {
        let profile = FaultProfile {
            blackout_every: Some(SimDuration::from_millis(300)),
            blackout_duration: SimDuration::from_millis(250),
            ..FaultProfile::default()
        };
        let t = FaultTimeline::generate(5, secs(30), &profile);
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
