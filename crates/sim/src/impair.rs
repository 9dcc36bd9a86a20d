//! Seeded stochastic link impairments.
//!
//! The paper measures instant-ACK gains under three hand-picked,
//! content-matched loss patterns ([`crate::loss`]). Real paths — the ones
//! the paper's wild measurements implicitly sample — additionally show
//! random loss, loss *bursts*, reordering, duplication, and delay jitter.
//! This module models those as a per-link [`ImpairmentSpec`]: a plain-data
//! description of the stochastic channel, instantiated into a stateful
//! [`Impairment`] that draws every decision from the deterministic
//! [`SimRng`], so an impaired run is still a pure function of its seed.
//!
//! Each direction of a link gets its own forked RNG stream: the fate of
//! the n-th datagram travelling A→B depends only on the spec, the seed,
//! and n — never on cross-direction interleaving. That is what makes the
//! delivery schedule reproducible and lets property tests state exact
//! invariants over one direction in isolation.

use crate::loss::Direction;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Random loss process applied per datagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No random loss.
    None,
    /// Independent, identically distributed loss: each datagram is dropped
    /// with probability `rate`.
    Iid {
        /// Drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss. The channel alternates
    /// between a *good* and a *bad* state; each datagram first triggers a
    /// state transition draw, then a drop draw with the state's loss rate.
    GilbertElliott {
        /// P(good → bad) per datagram.
        p_enter_bad: f64,
        /// P(bad → good) per datagram.
        p_exit_bad: f64,
        /// Drop probability while in the good state (usually 0).
        loss_good: f64,
        /// Drop probability while in the bad state (usually near 1).
        loss_bad: f64,
    },
}

/// Random extra delay added to every delivered datagram copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter.
    None,
    /// Uniform extra delay in `[0, max]`.
    Uniform {
        /// Upper bound of the extra delay.
        max: SimDuration,
    },
}

/// Plain-data description of a stochastic channel.
///
/// All probabilities are per datagram. The spec composes freely: loss is
/// decided first, then duplication, then per-copy extra delay (jitter plus
/// an optional reorder hold-back). Extra delays are always non-negative,
/// so every delivered copy still experiences at least the link's one-way
/// propagation delay.
#[derive(Clone, Copy, PartialEq)]
pub struct ImpairmentSpec {
    /// Random loss process.
    pub loss: LossModel,
    /// Probability that a delivered datagram is held back by a reorder
    /// window, letting later datagrams overtake it (netem-style).
    pub reorder_probability: f64,
    /// Maximum hold-back applied to reordered datagrams (uniform draw in
    /// `[0, window]`, so a "reordered" datagram can still land in order).
    pub reorder_window: SimDuration,
    /// Probability that a delivered datagram is duplicated; the copy gets
    /// its own independent extra-delay draw.
    pub duplicate_probability: f64,
    /// Extra delay added to every delivered copy.
    pub jitter: Jitter,
}

impl ImpairmentSpec {
    /// The identity channel: no loss, no reordering, no duplication, no
    /// jitter.
    pub fn none() -> Self {
        ImpairmentSpec {
            loss: LossModel::None,
            reorder_probability: 0.0,
            reorder_window: SimDuration::ZERO,
            duplicate_probability: 0.0,
            jitter: Jitter::None,
        }
    }

    /// i.i.d. random loss at `rate`.
    pub fn with_iid_loss(mut self, rate: f64) -> Self {
        self.loss = LossModel::Iid { rate };
        self
    }

    /// Gilbert–Elliott bursty loss.
    pub fn with_gilbert_elliott(
        mut self,
        p_enter_bad: f64,
        p_exit_bad: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        self.loss = LossModel::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        };
        self
    }

    /// Reorders a fraction `probability` of datagrams by holding them back
    /// up to `window`.
    pub fn with_reordering(mut self, probability: f64, window: SimDuration) -> Self {
        self.reorder_probability = probability;
        self.reorder_window = window;
        self
    }

    /// Duplicates a fraction `probability` of delivered datagrams.
    pub fn with_duplication(mut self, probability: f64) -> Self {
        self.duplicate_probability = probability;
        self
    }

    /// Uniform jitter in `[0, max]` on every delivered copy.
    pub fn with_uniform_jitter(mut self, max: SimDuration) -> Self {
        self.jitter = Jitter::Uniform { max };
        self
    }

    /// True when the spec is the identity channel.
    fn is_noop(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && self.reorder_probability == 0.0
            && self.duplicate_probability == 0.0
            && matches!(self.jitter, Jitter::None)
    }

    /// Panics unless every probability lies in `[0, 1]`.
    fn validate(&self) {
        let check = |name: &str, p: f64| {
            assert!(
                (0.0..=1.0).contains(&p),
                "impairment probability {name} = {p} outside [0, 1]"
            );
        };
        match self.loss {
            LossModel::None => {}
            LossModel::Iid { rate } => check("iid rate", rate),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                check("p_enter_bad", p_enter_bad);
                check("p_exit_bad", p_exit_bad);
                check("loss_good", loss_good);
                check("loss_bad", loss_bad);
            }
        }
        check("reorder_probability", self.reorder_probability);
        check("duplicate_probability", self.duplicate_probability);
    }

    /// Compact human-readable label for tables (e.g. `iid5%+jit3ms`).
    pub fn label(&self) -> String {
        if self.is_noop() {
            return "clean".to_string();
        }
        let pct = |p: f64| {
            if (p * 100.0).fract() == 0.0 {
                format!("{:.0}%", p * 100.0)
            } else {
                format!("{:.1}%", p * 100.0)
            }
        };
        let mut parts = Vec::new();
        match self.loss {
            LossModel::None => {}
            LossModel::Iid { rate } => parts.push(format!("iid{}", pct(rate))),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                // enter/exit transitions, then the bad-state (and, when
                // nonzero, good-state) loss rates — specs differing only
                // in severity must label differently.
                let mut ge = format!(
                    "ge{}/{}x{}",
                    pct(p_enter_bad),
                    pct(p_exit_bad),
                    pct(loss_bad)
                );
                if loss_good > 0.0 {
                    ge.push_str(&format!("(g{})", pct(loss_good)));
                }
                parts.push(ge);
            }
        }
        if self.reorder_probability > 0.0 {
            parts.push(format!(
                "ro{}@{:.0}ms",
                pct(self.reorder_probability),
                self.reorder_window.as_millis_f64()
            ));
        }
        if self.duplicate_probability > 0.0 {
            parts.push(format!("dup{}", pct(self.duplicate_probability)));
        }
        match self.jitter {
            Jitter::None => {}
            Jitter::Uniform { max } => {
                parts.push(format!("jit{:.0}ms", max.as_millis_f64()));
            }
        }
        parts.join("+")
    }
}

impl Default for ImpairmentSpec {
    fn default() -> Self {
        ImpairmentSpec::none()
    }
}

impl std::fmt::Debug for ImpairmentSpec {
    // The compact label keeps scenario labels and `{:?}`-formatted
    // LossSpecs readable in experiment output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Impair({})", self.label())
    }
}

/// Fate of one datagram offered to an impaired channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpairedFate {
    /// Dropped by the random loss process.
    Drop,
    /// Delivered with `extra` delay beyond serialization + propagation;
    /// `duplicate` carries the copy's own extra delay when the datagram
    /// was duplicated.
    Deliver {
        /// Extra delay for the original copy.
        extra: SimDuration,
        /// Extra delay for the duplicate copy, if one was created.
        duplicate: Option<SimDuration>,
    },
}

/// Per-direction channel state.
#[derive(Debug, Clone)]
struct DirectionState {
    rng: SimRng,
    /// Gilbert–Elliott: currently in the bad state.
    in_bad: bool,
}

/// A stateful impairment channel instantiated from a spec and a seed.
///
/// Decision order per datagram is fixed (loss → duplication → per-copy
/// delay), so the delivery schedule of a direction is a pure function of
/// `(spec, seed, datagram sequence in that direction)`.
#[derive(Debug, Clone)]
pub struct Impairment {
    spec: ImpairmentSpec,
    dirs: [DirectionState; 2],
}

impl Impairment {
    /// Instantiates the spec with a seed; both directions start in the
    /// good state with independent forked RNG streams.
    pub fn new(spec: ImpairmentSpec, seed: u64) -> Self {
        spec.validate();
        let mut root = SimRng::new(seed ^ 0x1A9C_0DE5_EED5_EED5);
        let dir = |rng: SimRng| DirectionState { rng, in_bad: false };
        Impairment {
            spec,
            dirs: [dir(root.fork(1)), dir(root.fork(2))],
        }
    }

    /// The spec this channel was instantiated from.
    pub fn spec(&self) -> &ImpairmentSpec {
        &self.spec
    }

    /// Decides the fate of the next datagram travelling in `direction`.
    pub fn next_fate(&mut self, direction: Direction) -> ImpairedFate {
        let spec = self.spec;
        let state = match direction {
            Direction::AtoB => &mut self.dirs[0],
            Direction::BtoA => &mut self.dirs[1],
        };
        if Self::drops(&spec, state) {
            return ImpairedFate::Drop;
        }
        let duplicated =
            spec.duplicate_probability > 0.0 && state.rng.gen_bool(spec.duplicate_probability);
        let extra = Self::extra_delay(&spec, &mut state.rng);
        let duplicate = duplicated.then(|| Self::extra_delay(&spec, &mut state.rng));
        ImpairedFate::Deliver { extra, duplicate }
    }

    fn drops(spec: &ImpairmentSpec, state: &mut DirectionState) -> bool {
        match spec.loss {
            LossModel::None => false,
            LossModel::Iid { rate } => rate > 0.0 && state.rng.gen_bool(rate),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let flip = if state.in_bad {
                    p_exit_bad
                } else {
                    p_enter_bad
                };
                if state.rng.gen_bool(flip) {
                    state.in_bad = !state.in_bad;
                }
                let rate = if state.in_bad { loss_bad } else { loss_good };
                rate > 0.0 && state.rng.gen_bool(rate)
            }
        }
    }

    /// Jitter plus (maybe) a reorder hold-back for one delivered copy.
    fn extra_delay(spec: &ImpairmentSpec, rng: &mut SimRng) -> SimDuration {
        let jitter = match spec.jitter {
            Jitter::None => SimDuration::ZERO,
            Jitter::Uniform { max } => rng.gen_duration(max),
        };
        let reorder = if spec.reorder_probability > 0.0
            && spec.reorder_window > SimDuration::ZERO
            && rng.gen_bool(spec.reorder_probability)
        {
            rng.gen_duration(spec.reorder_window)
        } else {
            SimDuration::ZERO
        };
        jitter + reorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fates(mut imp: Impairment, n: usize) -> Vec<ImpairedFate> {
        (0..n).map(|_| imp.next_fate(Direction::AtoB)).collect()
    }

    #[test]
    fn noop_spec_is_transparent() {
        let spec = ImpairmentSpec::none();
        assert!(spec.is_noop());
        for fate in fates(Impairment::new(spec, 1), 100) {
            assert_eq!(
                fate,
                ImpairedFate::Deliver {
                    extra: SimDuration::ZERO,
                    duplicate: None
                }
            );
        }
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let spec = ImpairmentSpec::none()
            .with_iid_loss(0.2)
            .with_duplication(0.1)
            .with_uniform_jitter(SimDuration::from_millis(5));
        let a = fates(Impairment::new(spec, 42), 500);
        let b = fates(Impairment::new(spec, 42), 500);
        assert_eq!(a, b);
        let c = fates(Impairment::new(spec, 43), 500);
        assert_ne!(a, c);
    }

    #[test]
    fn directions_are_independent_streams() {
        let spec = ImpairmentSpec::none().with_iid_loss(0.5);
        // Interleaving B→A draws must not change the A→B schedule.
        let pure = fates(Impairment::new(spec, 7), 100);
        let mut imp = Impairment::new(spec, 7);
        let mut interleaved = Vec::new();
        for _ in 0..100 {
            let _ = imp.next_fate(Direction::BtoA);
            interleaved.push(imp.next_fate(Direction::AtoB));
        }
        assert_eq!(pure, interleaved);
    }

    #[test]
    fn iid_rate_roughly_holds() {
        let spec = ImpairmentSpec::none().with_iid_loss(0.3);
        let n = 20_000;
        let drops = fates(Impairment::new(spec, 3), n)
            .iter()
            .filter(|f| **f == ImpairedFate::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same long-run loss rate (~20%), but GE concentrates drops into
        // bursts: the mean run length of consecutive drops must exceed the
        // i.i.d. one.
        let n = 50_000;
        let mean_burst = |fates: &[ImpairedFate]| {
            let (mut bursts, mut drops, mut in_burst) = (0usize, 0usize, false);
            for f in fates {
                if *f == ImpairedFate::Drop {
                    drops += 1;
                    if !in_burst {
                        bursts += 1;
                        in_burst = true;
                    }
                } else {
                    in_burst = false;
                }
            }
            drops as f64 / bursts.max(1) as f64
        };
        let iid = fates(
            Impairment::new(ImpairmentSpec::none().with_iid_loss(0.2), 5),
            n,
        );
        let ge = fates(
            Impairment::new(
                ImpairmentSpec::none().with_gilbert_elliott(0.05, 0.2, 0.0, 1.0),
                5,
            ),
            n,
        );
        let (bi, bg) = (mean_burst(&iid), mean_burst(&ge));
        assert!(bg > bi * 2.0, "iid burst {bi}, GE burst {bg}");
    }

    #[test]
    fn duplication_produces_copies() {
        let spec = ImpairmentSpec::none().with_duplication(0.25);
        let n = 10_000;
        let dups = fates(Impairment::new(spec, 9), n)
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    ImpairedFate::Deliver {
                        duplicate: Some(_),
                        ..
                    }
                )
            })
            .count();
        let rate = dups as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn jitter_bounded_by_max() {
        let max = SimDuration::from_millis(7);
        let spec = ImpairmentSpec::none().with_uniform_jitter(max);
        let mut seen_nonzero = false;
        for f in fates(Impairment::new(spec, 11), 1000) {
            match f {
                ImpairedFate::Deliver { extra, .. } => {
                    assert!(extra <= max);
                    seen_nonzero |= extra > SimDuration::ZERO;
                }
                ImpairedFate::Drop => panic!("jitter-only spec never drops"),
            }
        }
        assert!(seen_nonzero);
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(ImpairmentSpec::none().label(), "clean");
        let spec = ImpairmentSpec::none()
            .with_iid_loss(0.05)
            .with_reordering(0.1, SimDuration::from_millis(4))
            .with_duplication(0.01)
            .with_uniform_jitter(SimDuration::from_millis(3));
        assert_eq!(spec.label(), "iid5%+ro10%@4ms+dup1%+jit3ms");
        let ge = ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.5, 0.0, 0.9);
        assert_eq!(ge.label(), "ge2%/50%x90%");
        // Severity must be visible: same transitions, different loss rates
        // ⇒ different labels; a nonzero good-state rate is appended.
        let milder = ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.5, 0.0, 0.3);
        assert_ne!(ge.label(), milder.label());
        let leaky = ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.5, 0.05, 0.9);
        assert_eq!(leaky.label(), "ge2%/50%x90%(g5%)");
        assert_eq!(format!("{spec:?}"), format!("Impair({})", spec.label()));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = Impairment::new(ImpairmentSpec::none().with_iid_loss(1.5), 1);
    }
}
