//! Point-to-point links with delay, bandwidth, and loss.
//!
//! A link models one direction of a path: a serializing transmitter
//! (bandwidth-limited, FIFO) followed by a fixed propagation delay. The
//! paper's testbed uses symmetric one-way delays between 0.5 ms and 150 ms
//! and 10 Mbit/s of bandwidth; `LinkConfig` captures exactly those knobs.

use crate::fault::Blackout;
use crate::impair::{ImpairedFate, Impairment, ImpairmentSpec};
use crate::loss::{DatagramMeta, Direction, LossRule, NoLoss};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Configuration for one (bidirectional) link.
pub struct LinkConfig {
    /// One-way propagation delay (applied in both directions; the paper
    /// composes RTTs from symmetric one-way delays).
    pub one_way_delay: SimDuration,
    /// Serialization bandwidth in bits per second. `None` = infinite.
    pub bandwidth_bps: Option<u64>,
    /// Loss rule applied to every datagram on this link.
    pub loss: Box<dyn LossRule>,
    /// Optional seeded stochastic channel (random loss, reordering,
    /// duplication, jitter) applied after the deterministic loss rule.
    pub impairment: Option<Impairment>,
    /// Maximum UDP payload; larger sends panic (QUIC never exceeds this).
    pub mtu: usize,
    /// Fault-injection blackout windows: datagrams offered inside one are
    /// dropped deterministically (before the loss rule, consuming no
    /// random draws). Empty for every non-fault scenario.
    pub blackouts: Vec<Blackout>,
}

impl LinkConfig {
    /// The paper's default: 10 Mbit/s, no loss, MTU 1500.
    pub fn paper_default(one_way_delay: SimDuration) -> Self {
        LinkConfig {
            one_way_delay,
            bandwidth_bps: Some(10_000_000),
            loss: Box::new(NoLoss),
            impairment: None,
            mtu: 1500,
            blackouts: Vec::new(),
        }
    }

    /// Replaces the loss rule.
    #[cfg(test)]
    pub(crate) fn with_loss(mut self, loss: impl LossRule + 'static) -> Self {
        self.loss = Box::new(loss);
        self
    }

    /// Attaches a seeded stochastic impairment channel.
    pub fn with_impairment(mut self, spec: ImpairmentSpec, seed: u64) -> Self {
        self.impairment = Some(Impairment::new(spec, seed));
        self
    }

    /// Attaches fault-timeline blackout windows.
    pub fn with_blackouts(mut self, blackouts: Vec<Blackout>) -> Self {
        self.blackouts = blackouts;
        self
    }
}

impl std::fmt::Debug for LinkConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkConfig")
            .field("one_way_delay", &self.one_way_delay)
            .field("bandwidth_bps", &self.bandwidth_bps)
            .field("impairment", &self.impairment.as_ref().map(|i| i.spec()))
            .field("mtu", &self.mtu)
            .field("blackouts", &self.blackouts.len())
            .finish()
    }
}

/// Aggregate counters for one link (both directions).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams accepted for transmission (including later drops).
    pub sent: usize,
    /// Datagrams dropped by the loss rule or the random loss process.
    pub dropped: usize,
    /// Extra datagram copies created by the impairment channel.
    pub duplicated: usize,
    /// Bytes accepted for transmission.
    pub bytes: usize,
}

/// Internal link state.
pub(crate) struct Link {
    /// The endpoint whose sends travel in direction `AtoB`.
    pub(crate) a: NodeId,
    /// Path id this link realizes between its endpoint pair. 0 is the
    /// default path every [`crate::Network::connect`] creates; extra paths
    /// (registered via [`crate::Network::connect_path`]) carry their own
    /// delay/loss/impairment profile and become active only when a
    /// path-change event repoints the pair's route at them.
    pub(crate) path: u64,
    pub(crate) config: LinkConfig,
    /// Per-direction datagram counters (indices for loss rules).
    counters: [usize; 2],
    /// Per-direction transmitter-busy-until times (FIFO serialization).
    busy_until: [SimTime; 2],
    pub(crate) stats: LinkStats,
}

/// Result of offering a datagram to a link.
pub(crate) enum TransmitResult {
    /// Deliver at the given time; the impairment channel may additionally
    /// schedule a duplicate copy at its own arrival time.
    Deliver {
        at: SimTime,
        duplicate: Option<SimTime>,
    },
    /// Dropped by the loss rule or the random loss process.
    Drop,
}

impl Link {
    pub(crate) fn on_path(a: NodeId, path: u64, config: LinkConfig) -> Self {
        Link {
            a,
            path,
            config,
            counters: [0, 0],
            busy_until: [SimTime::ZERO, SimTime::ZERO],
            stats: LinkStats::default(),
        }
    }

    /// Direction of travel for a datagram from `from` on this link.
    #[inline]
    pub(crate) fn direction_from(&self, from: NodeId) -> Direction {
        if from == self.a {
            Direction::AtoB
        } else {
            Direction::BtoA
        }
    }

    /// Offers a datagram for transmission at `now`, returning its fate and
    /// the per-direction index it was assigned. The payload is only ever
    /// borrowed: links never buffer datagram bytes.
    #[inline]
    pub(crate) fn transmit(
        &mut self,
        from: NodeId,
        payload: &[u8],
        now: SimTime,
    ) -> (TransmitResult, usize) {
        assert!(
            payload.len() <= self.config.mtu,
            "datagram of {} bytes exceeds link MTU {}",
            payload.len(),
            self.config.mtu
        );
        let direction = self.direction_from(from);
        let dir_idx = match direction {
            Direction::AtoB => 0,
            Direction::BtoA => 1,
        };
        let index = self.counters[dir_idx];
        self.counters[dir_idx] += 1;
        self.stats.sent += 1;
        self.stats.bytes += payload.len();

        // Blackout windows drop first: deterministic like the loss rule,
        // so neither consumes random draws on behalf of the other.
        if self.config.blackouts.iter().any(|b| b.covers(now)) {
            self.stats.dropped += 1;
            return (TransmitResult::Drop, index);
        }
        let meta = DatagramMeta {
            direction,
            index,
            payload,
            now,
        };
        if self.config.loss.should_drop(&meta) {
            self.stats.dropped += 1;
            return (TransmitResult::Drop, index);
        }
        // The stochastic channel decides after the deterministic rule, so
        // paper-style content-matched drops never consume random draws.
        let fate = match &mut self.config.impairment {
            Some(imp) => imp.next_fate(direction),
            None => ImpairedFate::Deliver {
                extra: SimDuration::ZERO,
                duplicate: None,
            },
        };
        let (extra, dup_extra) = match fate {
            ImpairedFate::Drop => {
                self.stats.dropped += 1;
                return (TransmitResult::Drop, index);
            }
            ImpairedFate::Deliver { extra, duplicate } => (extra, duplicate),
        };

        // FIFO serialization: the transmitter finishes its queue first.
        let start = self.busy_until[dir_idx].max(now);
        let serialization = match self.config.bandwidth_bps {
            Some(bps) => {
                let ns = (payload.len() as u128 * 8 * 1_000_000_000) / bps as u128;
                SimDuration::from_nanos(ns as u64)
            }
            None => SimDuration::ZERO,
        };
        let tx_done = start + serialization;
        self.busy_until[dir_idx] = tx_done;
        // Jitter / reorder hold-back / duplication happen downstream of the
        // serializer: extra delays never occupy the transmitter, and every
        // copy still travels at least one propagation delay.
        let base = tx_done + self.config.one_way_delay;
        let duplicate = dup_extra.map(|d| {
            self.stats.duplicated += 1;
            base + d
        });
        (
            TransmitResult::Deliver {
                at: base + extra,
                duplicate,
            },
            index,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::DropIndices;

    fn link(cfg: LinkConfig) -> Link {
        Link::on_path(NodeId(0), 0, cfg)
    }

    #[test]
    fn propagation_delay_applied() {
        let mut l = link(LinkConfig {
            one_way_delay: SimDuration::from_millis(5),
            bandwidth_bps: None,
            loss: Box::new(NoLoss),
            impairment: None,
            mtu: 1500,
            blackouts: Vec::new(),
        });
        let (res, idx) = l.transmit(NodeId(0), &[0u8; 100], SimTime::ZERO);
        assert_eq!(idx, 0);
        match res {
            TransmitResult::Deliver { at, .. } => assert_eq!(at.as_millis_f64(), 5.0),
            TransmitResult::Drop => panic!(),
        }
    }

    #[test]
    fn serialization_delay_10mbps() {
        // 1250 bytes at 10 Mbit/s = 1 ms of serialization.
        let mut l = link(LinkConfig::paper_default(SimDuration::ZERO));
        let (res, _) = l.transmit(NodeId(0), &[0u8; 1250], SimTime::ZERO);
        match res {
            TransmitResult::Deliver { at, .. } => assert_eq!(at.as_millis_f64(), 1.0),
            TransmitResult::Drop => panic!(),
        }
    }

    #[test]
    fn fifo_queueing_accumulates() {
        let mut l = link(LinkConfig::paper_default(SimDuration::ZERO));
        // Two 1250-byte datagrams sent at t=0: the second waits for the first.
        let (r1, _) = l.transmit(NodeId(0), &[0u8; 1250], SimTime::ZERO);
        let (r2, _) = l.transmit(NodeId(0), &[0u8; 1250], SimTime::ZERO);
        let t1 = match r1 {
            TransmitResult::Deliver { at, .. } => at,
            _ => panic!(),
        };
        let t2 = match r2 {
            TransmitResult::Deliver { at, .. } => at,
            _ => panic!(),
        };
        assert_eq!(t1.as_millis_f64(), 1.0);
        assert_eq!(t2.as_millis_f64(), 2.0);
    }

    #[test]
    fn directions_have_independent_queues_and_indices() {
        let mut l = link(LinkConfig::paper_default(SimDuration::ZERO));
        let (_, i0) = l.transmit(NodeId(0), &[0u8; 100], SimTime::ZERO);
        let (_, i1) = l.transmit(NodeId(1), &[0u8; 100], SimTime::ZERO);
        let (_, i2) = l.transmit(NodeId(0), &[0u8; 100], SimTime::ZERO);
        assert_eq!((i0, i1, i2), (0, 0, 1));
    }

    #[test]
    fn loss_rule_consulted_with_direction() {
        let mut l = link(
            LinkConfig::paper_default(SimDuration::ZERO)
                .with_loss(DropIndices::new(Direction::BtoA, &[0])),
        );
        let (r_a, _) = l.transmit(NodeId(0), &[0u8; 10], SimTime::ZERO);
        assert!(matches!(r_a, TransmitResult::Deliver { .. }));
        let (r_b, _) = l.transmit(NodeId(1), &[0u8; 10], SimTime::ZERO);
        assert!(matches!(r_b, TransmitResult::Drop));
        assert_eq!(l.stats.dropped, 1);
        assert_eq!(l.stats.sent, 2);
    }

    #[test]
    fn blackout_window_drops_both_directions() {
        let mut l = link(
            LinkConfig::paper_default(SimDuration::ZERO).with_blackouts(vec![Blackout {
                start: SimTime::from_nanos(1_000),
                end: SimTime::from_nanos(2_000),
            }]),
        );
        // Before the window: delivered.
        let (r, _) = l.transmit(NodeId(0), &[0u8; 10], SimTime::ZERO);
        assert!(matches!(r, TransmitResult::Deliver { .. }));
        // Inside the window: dropped, whichever way the datagram goes.
        let (r, _) = l.transmit(NodeId(0), &[0u8; 10], SimTime::from_nanos(1_500));
        assert!(matches!(r, TransmitResult::Drop));
        let (r, _) = l.transmit(NodeId(1), &[0u8; 10], SimTime::from_nanos(1_500));
        assert!(matches!(r, TransmitResult::Drop));
        // At the (exclusive) end: delivered again.
        let (r, _) = l.transmit(NodeId(0), &[0u8; 10], SimTime::from_nanos(2_000));
        assert!(matches!(r, TransmitResult::Deliver { .. }));
        assert_eq!(l.stats.dropped, 2);
    }

    #[test]
    fn impaired_link_delays_stay_above_propagation() {
        use crate::impair::ImpairmentSpec;
        let owd = SimDuration::from_millis(5);
        let spec = ImpairmentSpec::none()
            .with_uniform_jitter(SimDuration::from_millis(3))
            .with_reordering(0.5, SimDuration::from_millis(4))
            .with_duplication(0.3);
        let mut l = link(
            LinkConfig {
                one_way_delay: owd,
                bandwidth_bps: None,
                loss: Box::new(NoLoss),
                impairment: None,
                mtu: 1500,
                blackouts: Vec::new(),
            }
            .with_impairment(spec, 21),
        );
        let mut dups = 0;
        for _ in 0..200 {
            let (res, _) = l.transmit(NodeId(0), &[0u8; 100], SimTime::ZERO);
            match res {
                TransmitResult::Deliver { at, duplicate } => {
                    assert!(at.since(SimTime::ZERO) >= owd);
                    if let Some(d) = duplicate {
                        assert!(d.since(SimTime::ZERO) >= owd);
                        dups += 1;
                    }
                }
                TransmitResult::Drop => panic!("lossless spec never drops"),
            }
        }
        assert!(dups > 0);
        assert_eq!(l.stats.duplicated, dups);
        assert_eq!(l.stats.sent, 200);
    }

    #[test]
    fn impaired_link_iid_loss_counts_drops() {
        use crate::impair::ImpairmentSpec;
        let mut l = link(
            LinkConfig::paper_default(SimDuration::ZERO)
                .with_impairment(ImpairmentSpec::none().with_iid_loss(0.5), 3),
        );
        let mut drops = 0;
        for _ in 0..400 {
            let (res, _) = l.transmit(NodeId(0), &[0u8; 100], SimTime::ZERO);
            if matches!(res, TransmitResult::Drop) {
                drops += 1;
            }
        }
        assert_eq!(l.stats.dropped, drops);
        assert!(drops > 100 && drops < 300, "drops {drops}");
    }

    #[test]
    #[should_panic(expected = "exceeds link MTU")]
    fn oversized_datagram_panics() {
        let mut l = link(LinkConfig::paper_default(SimDuration::ZERO));
        let _ = l.transmit(NodeId(0), &[0u8; 2000], SimTime::ZERO);
    }
}
