//! Congestion control (RFC 9002 §7) — a pluggable controller suite.
//!
//! The paper's scenarios are handshake- and tail-latency-bound rather than
//! congestion-bound, but the 10 MB transfers (Figure 11) need a working
//! controller to pace thousands of packets across a 10 Mbit/s link. The
//! data-phase sweeps compare three deterministic controllers behind one
//! [`CongestionControl`] trait:
//!
//! * [`NewReno`] — RFC 9002's reference controller (the historical
//!   default; its arithmetic is pinned by the unit tests below).
//! * [`Cubic`] — RFC 8312 window growth with a 0.7 multiplicative
//!   decrease and the cubic convergence curve around `w_max`.
//! * [`BbrLite`] — a model-based controller that probes bottleneck
//!   bandwidth and min-RTT from the existing [`RttEstimator`] and sizes
//!   the window from the estimated BDP instead of loss.
//!
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
pub const MIN_WINDOW: usize = 2 * MAX_DATAGRAM;
/// Loss-reduction factor (halving).
pub const LOSS_REDUCTION: f64 = 0.5;
/// Persistent-congestion threshold multiplier.
pub const PERSISTENT_CONGESTION_THRESHOLD: u64 = 3;
/// CUBIC aggressiveness constant (RFC 8312 §5: C = 0.4, in MSS/s³).
pub const CUBIC_C: f64 = 0.4;
/// CUBIC multiplicative-decrease factor (RFC 8312 §4.5: β = 0.7).
pub const CUBIC_BETA: f64 = 0.7;
/// BBR-lite window gain over the estimated BDP.
pub const BBR_CWND_GAIN: f64 = 2.0;
/// BBR-lite startup exits after this many bandwidth-probe rounds without
/// a ≥ 25 % bottleneck-bandwidth improvement.
pub const BBR_PLATEAU_ROUNDS: u32 = 3;

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

/// A congestion controller as the connection layer sees it.
///
/// `on_ack` receives the clock and the RTT estimator so model-based
/// controllers (CUBIC's convergence curve, BBR's BDP) can read time and
/// path estimates; NewReno ignores both, which keeps its historical
/// arithmetic byte-identical.
pub trait CongestionControl: std::fmt::Debug {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> usize;
    /// Bytes in flight.
    fn bytes_in_flight(&self) -> usize;
    /// True while the controller is in its exponential-growth phase.
    fn in_slow_start(&self) -> bool;
    /// True while a loss-recovery episode is open.
    fn in_recovery(&self) -> bool;
    /// Registers an in-flight send.
    fn on_sent(&mut self, size: usize);
    /// Registers bytes leaving flight without CC feedback (e.g.
    /// discarding a packet number space).
    fn on_discarded(&mut self, size: usize);
    /// Processes an acked in-flight packet.
    fn on_ack(&mut self, size: usize, time_sent: SimTime, now: SimTime, rtt: &RttEstimator);
    /// Processes one burst of lost in-flight packets; `now` starts a
    /// recovery episode unless one already covers the loss.
    fn on_loss(&mut self, sizes: &[usize], latest_loss_sent: SimTime, now: SimTime);
    /// Collapses the window on persistent congestion (RFC 9002 §7.6).
    fn on_persistent_congestion(&mut self);

    /// Available send budget.
    fn available(&self) -> usize {
        self.cwnd().saturating_sub(self.bytes_in_flight())
    }

    /// Whether an in-flight packet of `size` bytes may be sent.
    fn can_send(&self, size: usize) -> bool {
        self.bytes_in_flight() + size <= self.cwnd()
    }

    /// The coarse phase the controller is in.
    fn state(&self) -> CcState {
        if self.in_recovery() {
            CcState::Recovery
        } else if self.in_slow_start() {
            CcState::SlowStart
        } else {
            CcState::CongestionAvoidance
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

    /// Builds a fresh controller of this kind.
    pub fn build(&self) -> Box<dyn CongestionControl> {
        match self {
            CcAlgorithm::NewReno => Box::new(NewReno::new()),
            CcAlgorithm::Cubic => Box::new(Cubic::new()),
            CcAlgorithm::BbrLite => Box::new(BbrLite::new()),
        }
    }
}

/// NewReno controller state.
#[derive(Debug, Clone)]
pub struct NewReno {
    cwnd: usize,
    ssthresh: usize,
    /// Bytes currently in flight across all spaces.
    bytes_in_flight: usize,
    /// Start of the current recovery episode, if any.
    recovery_start: Option<SimTime>,
}

impl Default for NewReno {
    fn default() -> Self {
        Self::new()
    }
}

impl NewReno {
    /// Fresh controller with the RFC initial window.
    pub fn new() -> Self {
        NewReno {
            cwnd: INITIAL_WINDOW,
            ssthresh: usize::MAX,
            bytes_in_flight: 0,
            recovery_start: None,
        }
    }
}

impl CongestionControl for NewReno {
    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn in_recovery(&self) -> bool {
        self.recovery_start.is_some()
    }

    fn on_sent(&mut self, size: usize) {
        self.bytes_in_flight += size;
    }

    fn on_discarded(&mut self, size: usize) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
    }

    fn on_ack(&mut self, size: usize, time_sent: SimTime, _now: SimTime, _rtt: &RttEstimator) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
        // No window growth for packets sent during recovery.
        if let Some(start) = self.recovery_start {
            if time_sent <= start {
                return;
            }
            self.recovery_start = None;
        }
        if self.in_slow_start() {
            // RFC 9002 §7.3.1: slow start ends *at* ssthresh — the
            // crossing ack must not overshoot the threshold.
            self.cwnd = (self.cwnd + size).min(self.ssthresh);
        } else {
            // Congestion avoidance: +MSS per cwnd of acked data.
            self.cwnd += MAX_DATAGRAM * size / self.cwnd;
        }
    }

    fn on_loss(&mut self, sizes: &[usize], latest_loss_sent: SimTime, now: SimTime) {
        for s in sizes {
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(*s);
        }
        let in_recovery = self
            .recovery_start
            .map(|start| latest_loss_sent <= start)
            .unwrap_or(false);
        if !in_recovery {
            self.recovery_start = Some(now);
            self.cwnd = ((self.cwnd as f64 * LOSS_REDUCTION) as usize).max(MIN_WINDOW);
            self.ssthresh = self.cwnd;
        }
    }

    fn on_persistent_congestion(&mut self) {
        self.cwnd = MIN_WINDOW;
        self.recovery_start = None;
    }
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

/// CUBIC controller state (RFC 8312).
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: usize,
    ssthresh: usize,
    bytes_in_flight: usize,
    recovery_start: Option<SimTime>,
    /// Window (bytes) at the last reduction — the curve's plateau.
    w_max: f64,
    /// Seconds from epoch start until the curve re-reaches `w_max`.
    k: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Reno-equivalent window estimate (bytes) — RFC 8312 §4.2's
    /// TCP-friendly region. At short RTTs the cubic curve needs whole
    /// seconds to regrow, so without this floor CUBIC loses to NewReno.
    w_est: f64,
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cubic {
    /// Fresh controller with the RFC initial window.
    pub fn new() -> Self {
        Cubic {
            cwnd: INITIAL_WINDOW,
            ssthresh: usize::MAX,
            bytes_in_flight: 0,
            recovery_start: None,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            w_est: INITIAL_WINDOW as f64,
        }
    }

    /// The cubic window (bytes) `t` seconds into the epoch
    /// (RFC 8312 §4.1: `W_cubic(t) = C·(t − K)³ + W_max`, in MSS units).
    fn w_cubic(&self, t: f64) -> f64 {
        CUBIC_C * (t - self.k).powi(3) * MAX_DATAGRAM as f64 + self.w_max
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    fn in_recovery(&self) -> bool {
        self.recovery_start.is_some()
    }

    fn on_sent(&mut self, size: usize) {
        self.bytes_in_flight += size;
    }

    fn on_discarded(&mut self, size: usize) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
    }

    fn on_ack(&mut self, size: usize, time_sent: SimTime, now: SimTime, rtt: &RttEstimator) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
        if let Some(start) = self.recovery_start {
            if time_sent <= start {
                return;
            }
            self.recovery_start = None;
        }
        if self.in_slow_start() {
            self.cwnd = (self.cwnd + size).min(self.ssthresh);
            self.w_est = self.w_est.max(self.cwnd as f64);
            return;
        }
        // TCP-friendly estimate (RFC 8312 §4.2), grown per ack:
        // 3(1−β)/(1+β) MSS per congestion-free RTT.
        self.w_est += 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
            * (size as f64 / self.cwnd as f64)
            * MAX_DATAGRAM as f64;
        let epoch = *self.epoch_start.get_or_insert(now);
        let rtt_s = secs(rtt.smoothed().unwrap_or_else(|| rtt.latest()));
        // Target: where the curve wants the window one RTT from now,
        // clamped to 1.5 × cwnd per RFC 8312 §4.1's growth cap.
        let t = secs(now.since(epoch));
        let target = self
            .w_cubic(t + rtt_s)
            .min(self.cwnd as f64 * 1.5)
            .max(MIN_WINDOW as f64);
        if self.w_cubic(t) < self.w_est {
            // TCP-friendly region: the curve lags what a Reno flow would
            // have; take the Reno-equivalent window instead.
            self.cwnd = self.cwnd.max(self.w_est as usize);
        } else if target > self.cwnd as f64 {
            // Per-ack convergence toward the target (the RFC's
            // `(target − cwnd) / cwnd` step, scaled by acked bytes).
            self.cwnd += ((target - self.cwnd as f64) * size as f64 / self.cwnd as f64) as usize;
        }
    }

    fn on_loss(&mut self, sizes: &[usize], latest_loss_sent: SimTime, now: SimTime) {
        for s in sizes {
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(*s);
        }
        let in_recovery = self
            .recovery_start
            .map(|start| latest_loss_sent <= start)
            .unwrap_or(false);
        if !in_recovery {
            self.recovery_start = Some(now);
            self.epoch_start = None;
            self.w_max = self.cwnd as f64;
            self.cwnd = ((self.cwnd as f64 * CUBIC_BETA) as usize).max(MIN_WINDOW);
            self.ssthresh = self.cwnd;
            self.w_est = self.cwnd as f64;
            // K: time for the curve to climb back to w_max (RFC 8312 §4.1).
            self.k = (self.w_max * (1.0 - CUBIC_BETA) / (CUBIC_C * MAX_DATAGRAM as f64)).cbrt();
        }
    }

    fn on_persistent_congestion(&mut self) {
        self.cwnd = MIN_WINDOW;
        self.w_max = MIN_WINDOW as f64;
        self.k = 0.0;
        self.w_est = MIN_WINDOW as f64;
        self.recovery_start = None;
        self.epoch_start = None;
    }
}

/// BBR-lite controller state: window = gain × estimated BDP, with the
/// bandwidth estimate fed by per-RTT delivery sampling and the min-RTT
/// taken from the shared [`RttEstimator`].
#[derive(Debug, Clone)]
pub struct BbrLite {
    cwnd: usize,
    bytes_in_flight: usize,
    /// Best observed delivery rate, bytes/second.
    btl_bw: f64,
    /// Start of the current bandwidth-sample round.
    round_start: Option<SimTime>,
    /// Bytes acked inside the current round.
    round_bytes: usize,
    /// Rounds since the bandwidth estimate last improved ≥ 25 %.
    plateau_rounds: u32,
    /// Startup phase: exponential window growth until `btl_bw` plateaus.
    startup: bool,
    recovery_start: Option<SimTime>,
}

impl Default for BbrLite {
    fn default() -> Self {
        Self::new()
    }
}

impl BbrLite {
    /// Fresh controller with the RFC initial window.
    pub fn new() -> Self {
        BbrLite {
            cwnd: INITIAL_WINDOW,
            bytes_in_flight: 0,
            btl_bw: 0.0,
            round_start: None,
            round_bytes: 0,
            plateau_rounds: 0,
            startup: true,
            recovery_start: None,
        }
    }

    /// The window the current model asks for: gain × btl_bw × min_rtt.
    fn model_cwnd(&self, rtt: &RttEstimator) -> usize {
        let bdp = self.btl_bw * secs(rtt.min_rtt());
        ((bdp * BBR_CWND_GAIN) as usize).max(MIN_WINDOW)
    }
}

impl CongestionControl for BbrLite {
    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    fn in_slow_start(&self) -> bool {
        self.startup
    }

    fn in_recovery(&self) -> bool {
        self.recovery_start.is_some()
    }

    fn on_sent(&mut self, size: usize) {
        self.bytes_in_flight += size;
    }

    fn on_discarded(&mut self, size: usize) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
    }

    fn on_ack(&mut self, size: usize, _time_sent: SimTime, now: SimTime, rtt: &RttEstimator) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
        self.recovery_start = None;
        self.round_bytes += size;
        let round = *self.round_start.get_or_insert(now);
        // One delivery-rate sample per smoothed RTT.
        let window = rtt
            .smoothed()
            .unwrap_or_else(|| rtt.latest())
            .max(crate::rtt::GRANULARITY);
        let elapsed = now.since(round);
        if elapsed >= window {
            let bw = self.round_bytes as f64 / secs(elapsed);
            if bw > self.btl_bw * 1.25 {
                self.plateau_rounds = 0;
            } else {
                self.plateau_rounds += 1;
            }
            if bw > self.btl_bw {
                self.btl_bw = bw;
            }
            if self.startup && self.plateau_rounds >= BBR_PLATEAU_ROUNDS {
                // The pipe is full: stop growing exponentially and let
                // the BDP model own the window.
                self.startup = false;
            }
            self.round_start = Some(now);
            self.round_bytes = 0;
            if !self.startup {
                self.cwnd = self.model_cwnd(rtt);
            }
        }
        if self.startup {
            // Startup doubles the window per RTT of acked data, but never
            // below what the model already justifies.
            self.cwnd = (self.cwnd + size).max(self.model_cwnd(rtt));
        }
    }

    fn on_loss(&mut self, sizes: &[usize], latest_loss_sent: SimTime, now: SimTime) {
        for s in sizes {
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(*s);
        }
        let in_recovery = self
            .recovery_start
            .map(|start| latest_loss_sent <= start)
            .unwrap_or(false);
        if !in_recovery {
            self.recovery_start = Some(now);
            // BBR is model-driven, not loss-driven: a loss burst ends
            // startup (the pipe is evidently full) and caps the window at
            // the model's BDP, but does not halve anything.
            self.startup = false;
            if self.btl_bw > 0.0 {
                let bdp_cap = ((self.btl_bw * BBR_CWND_GAIN) as usize).max(MIN_WINDOW);
                self.cwnd = self.cwnd.min(bdp_cap.max(MIN_WINDOW));
            }
            self.cwnd = self.cwnd.max(MIN_WINDOW);
        }
    }

    fn on_persistent_congestion(&mut self) {
        self.cwnd = MIN_WINDOW;
        self.btl_bw /= 2.0;
        self.round_start = None;
        self.round_bytes = 0;
        self.recovery_start = None;
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
    fn ack(cc: &mut NewReno, time_sent: SimTime) {
        let rtt = RttEstimator::new(SimDuration::ZERO);
        cc.on_ack(1200, time_sent, time_sent, &rtt);
    }

    #[test]
    fn initial_window() {
        let cc = NewReno::new();
        assert_eq!(cc.cwnd(), INITIAL_WINDOW);
        assert!(cc.in_slow_start());
        assert!(cc.can_send(1200));
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = NewReno::new();
        // Send and ack a full window: cwnd should double.
        let start = cc.cwnd();
        let n = start / 1200;
        for _ in 0..n {
            cc.on_sent(1200);
        }
        assert!(!cc.can_send(1200));
        for _ in 0..n {
            ack(&mut cc, at(0));
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }

    #[test]
    fn loss_halves_window_and_exits_slow_start() {
        let mut cc = NewReno::new();
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(&[1200], at(5), at(10));
        assert_eq!(cc.cwnd(), INITIAL_WINDOW / 2);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn one_reduction_per_recovery_episode() {
        let mut cc = NewReno::new();
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(&[1200], at(5), at(10));
        let after_first = cc.cwnd();
        // Second loss of a packet sent before recovery began: no change.
        cc.on_loss(&[1200], at(6), at(12));
        assert_eq!(cc.cwnd(), after_first);
        // Loss of a packet sent after recovery start: new episode.
        cc.on_loss(&[1200], at(20), at(25));
        assert_eq!(cc.cwnd(), after_first / 2);
    }

    #[test]
    fn acks_during_recovery_do_not_grow_window() {
        let mut cc = NewReno::new();
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(&[1200], at(5), at(10));
        let w = cc.cwnd();
        ack(&mut cc, at(8)); // sent before recovery start
        assert_eq!(cc.cwnd(), w);
        ack(&mut cc, at(15)); // sent after: recovery exits, growth resumes
        assert!(cc.cwnd() > w);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut cc = NewReno::new();
        cc.on_sent(1200);
        cc.on_loss(&[1200], at(1), at(2)); // force out of slow start
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
        let mut cc = NewReno::new();
        for i in 0..20 {
            cc.on_sent(1200);
            cc.on_loss(&[1200], at(100 * i + 1), at(100 * i + 2));
        }
        assert!(cc.cwnd() >= MIN_WINDOW);
    }

    #[test]
    fn persistent_congestion_collapses_window() {
        let mut cc = NewReno::new();
        cc.on_persistent_congestion();
        assert_eq!(cc.cwnd(), MIN_WINDOW);
    }

    #[test]
    fn slow_start_exits_exactly_at_ssthresh() {
        let mut cc = NewReno::new();
        // Establish a finite ssthresh, then collapse below it: the climb
        // back up must stop exactly at the threshold (RFC 9002 §7.3.1),
        // not a packet past it.
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        cc.on_loss(&[1200], at(5), at(10));
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
        let mut cc = Cubic::new();
        let rtt = rtt_with_sample(9);
        for _ in 0..10 {
            cc.on_sent(1200);
        }
        let before = CongestionControl::cwnd(&cc);
        cc.on_loss(&[1200], at(5), at(10));
        let floor = CongestionControl::cwnd(&cc);
        assert_eq!(
            floor,
            ((before as f64 * CUBIC_BETA) as usize).max(MIN_WINDOW)
        );
        assert!(!CongestionControl::in_slow_start(&cc));
        // Acks over time climb back toward w_max along the cubic curve.
        let mut t = 20u64;
        for _ in 0..200 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(t), at(t + 9), &rtt);
            t += 9;
        }
        let after = CongestionControl::cwnd(&cc);
        assert!(after > floor, "cubic must regrow: {after} <= {floor}");
    }

    #[test]
    fn cubic_trace_is_deterministic() {
        let run = || {
            let mut cc = Cubic::new();
            let rtt = rtt_with_sample(9);
            let mut trace = Vec::new();
            for i in 0..100u64 {
                cc.on_sent(1200);
                if i == 40 {
                    cc.on_loss(&[1200], at(i), at(i + 1));
                } else {
                    cc.on_ack(1200, at(i), at(i + 9), &rtt);
                }
                trace.push(CongestionControl::cwnd(&cc));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bbr_sizes_window_from_bandwidth_and_min_rtt() {
        let mut cc = BbrLite::new();
        let rtt = rtt_with_sample(10);
        // Deliver ~1200 B/ms for a while: btl_bw ≈ 1.2 MB/s,
        // BDP ≈ 12 kB, cwnd ≈ gain × BDP once startup ends.
        let mut t = 0u64;
        for _ in 0..400 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(t), at(t + 1), &rtt);
            t += 1;
        }
        assert!(!CongestionControl::in_slow_start(&cc), "startup must end");
        let cwnd = CongestionControl::cwnd(&cc);
        let bdp = (1_200_000.0 * 0.010 * BBR_CWND_GAIN) as usize;
        assert!(
            cwnd >= bdp / 2 && cwnd <= bdp * 2,
            "cwnd {cwnd} should track gain × BDP ≈ {bdp}"
        );
    }

    #[test]
    fn bbr_ignores_isolated_loss_but_collapses_on_persistent_congestion() {
        let mut cc = BbrLite::new();
        let rtt = rtt_with_sample(10);
        let mut t = 0u64;
        for _ in 0..400 {
            cc.on_sent(1200);
            cc.on_ack(1200, at(t), at(t + 1), &rtt);
            t += 1;
        }
        let before = CongestionControl::cwnd(&cc);
        cc.on_sent(1200);
        cc.on_loss(&[1200], at(t), at(t + 1));
        let after = CongestionControl::cwnd(&cc);
        assert!(
            after * 2 > before,
            "a single loss must not halve the model window ({before} -> {after})"
        );
        cc.on_persistent_congestion();
        assert_eq!(CongestionControl::cwnd(&cc), MIN_WINDOW);
    }

    #[test]
    fn all_controllers_keep_min_window_floor() {
        for algo in CcAlgorithm::ALL {
            let mut cc = algo.build();
            for i in 0..30u64 {
                cc.on_sent(1200);
                cc.on_loss(&[1200], at(10 * i + 1), at(10 * i + 2));
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
        let mut cc = NewReno::new();
        assert_eq!(CongestionControl::state(&cc), CcState::SlowStart);
        cc.on_sent(1200);
        cc.on_loss(&[1200], at(1), at(2));
        assert_eq!(CongestionControl::state(&cc), CcState::Recovery);
        cc.on_sent(1200);
        ack(&mut cc, at(5));
        assert_eq!(CongestionControl::state(&cc), CcState::CongestionAvoidance);
    }
}
