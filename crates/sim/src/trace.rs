//! Capture traces: the simulator's packet capture plus milestone log.
//!
//! Every datagram traversing a link is recorded together with its fate
//! (delivered or dropped) and timing. Protocol endpoints additionally
//! record named milestones (handshake complete, first payload byte, ...)
//! which the testbed turns into the paper's metrics (TTFB etc.).

use std::borrow::Cow;

use crate::node::NodeId;
use crate::time::SimTime;

/// What happened to a captured datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFate {
    /// Delivered at the contained time.
    Delivered(SimTime),
    /// Dropped by a loss rule at send time.
    Dropped,
}

/// One captured datagram.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Virtual send time.
    pub sent: SimTime,
    /// Delivery or drop.
    pub fate: DatagramFate,
    /// UDP payload size.
    pub size: usize,
    /// 0-based index among datagrams sent in this direction on this link.
    pub index: usize,
    /// True for the extra copy created by a duplicating impairment
    /// channel; the original copy of the same `index` precedes it.
    pub duplicate: bool,
    /// Full payload copy (present when capture is enabled).
    pub payload: Option<Vec<u8>>,
}

/// A named milestone recorded by a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Milestone {
    /// Node that recorded the milestone.
    pub node: NodeId,
    /// Virtual time of the event.
    pub at: SimTime,
    /// Milestone label, e.g. `"first_payload_byte"`: borrowed when it
    /// is a constant, as every label of a handshake is.
    pub label: Cow<'static, str>,
}

/// Shared capture state for one simulation run.
#[derive(Debug)]
pub struct Trace {
    /// All captured datagrams in send order.
    pub datagrams: Vec<CaptureRecord>,
    /// All recorded milestones in record order.
    pub milestones: Vec<Milestone>,
    /// Whether to copy full payloads into records (off for bulk runs).
    pub capture_payloads: bool,
    /// Master switch: when off, datagrams and milestones are not recorded
    /// at all. Long-lived many-connection runs flip this off so memory
    /// stays bounded by the *active* connection set instead of growing
    /// with every datagram ever sent.
    pub recording: bool,
}

impl Default for Trace {
    /// An empty recording trace that owns no memory yet — what
    /// `std::mem::take` leaves behind.
    fn default() -> Self {
        Trace {
            datagrams: Vec::new(),
            milestones: Vec::new(),
            capture_payloads: false,
            recording: true,
        }
    }
}

impl Trace {
    /// Creates a trace; `capture_payloads` controls whether payload bytes
    /// are stored in each record. Vectors are pre-sized for one handshake
    /// plus a short transfer (about 27 datagrams); longer runs grow them.
    pub fn new(capture_payloads: bool) -> Self {
        Trace {
            datagrams: Vec::with_capacity(32),
            milestones: Vec::with_capacity(8),
            capture_payloads,
            ..Trace::default()
        }
    }

    /// Records one datagram offered to a link. The payload bytes are
    /// copied into the record only when `capture_payloads` is on; bulk
    /// sweeps pay nothing per datagram beyond the fixed-size record.
    /// `duplicate` marks the extra copy created by a duplicating
    /// impairment channel.
    pub fn record_datagram(
        &mut self,
        from: NodeId,
        to: NodeId,
        sent: SimTime,
        fate: DatagramFate,
        payload: &[u8],
        index: usize,
        duplicate: bool,
    ) {
        if !self.recording {
            return;
        }
        let stored = if self.capture_payloads {
            Some(payload.to_vec())
        } else {
            None
        };
        self.datagrams.push(CaptureRecord {
            from,
            to,
            sent,
            fate,
            size: payload.len(),
            index,
            duplicate,
            payload: stored,
        });
    }

    /// Records a milestone.
    pub fn milestone(&mut self, node: NodeId, at: SimTime, label: impl Into<Cow<'static, str>>) {
        if !self.recording {
            return;
        }
        self.milestones.push(Milestone {
            node,
            at,
            label: label.into(),
        });
    }

    /// First occurrence time of a milestone with `label` (any node).
    pub fn first(&self, label: &str) -> Option<SimTime> {
        self.milestones
            .iter()
            .find(|m| m.label == label)
            .map(|m| m.at)
    }

    /// First occurrence time of `label` recorded by `node`.
    pub fn first_by(&self, node: NodeId, label: &str) -> Option<SimTime> {
        self.milestones
            .iter()
            .find(|m| m.node == node && m.label == label)
            .map(|m| m.at)
    }

    /// All occurrence times of `label`.
    pub fn all(&self, label: &str) -> Vec<SimTime> {
        self.milestones
            .iter()
            .filter(|m| m.label == label)
            .map(|m| m.at)
            .collect()
    }

    /// Number of datagrams sent from `from` to `to` (delivered or not).
    /// Copies fabricated by a duplicating channel are not counted: the
    /// sender offered them only once.
    pub fn sent_count(&self, from: NodeId, to: NodeId) -> usize {
        self.datagrams
            .iter()
            .filter(|d| d.from == from && d.to == to && !d.duplicate)
            .count()
    }

    /// Number of extra copies the impairment channel fabricated from
    /// `from` to `to`.
    pub fn duplicated_count(&self, from: NodeId, to: NodeId) -> usize {
        self.datagrams
            .iter()
            .filter(|d| d.from == from && d.to == to && d.duplicate)
            .count()
    }

    /// Number of datagrams dropped from `from` to `to`.
    pub fn dropped_count(&self, from: NodeId, to: NodeId) -> usize {
        self.datagrams
            .iter()
            .filter(|d| d.from == from && d.to == to && d.fate == DatagramFate::Dropped)
            .count()
    }

    /// Total bytes sent from `from` to `to` (excluding fabricated
    /// duplicate copies).
    pub fn bytes_sent(&self, from: NodeId, to: NodeId) -> usize {
        self.datagrams
            .iter()
            .filter(|d| d.from == from && d.to == to && !d.duplicate)
            .map(|d| d.size)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestone_queries() {
        let mut t = Trace::new(false);
        let n0 = NodeId(0);
        let n1 = NodeId(1);
        t.milestone(n0, SimTime::from_nanos(5), "a");
        t.milestone(n1, SimTime::from_nanos(9), "a");
        t.milestone(n0, SimTime::from_nanos(12), "b");
        assert_eq!(t.first("a"), Some(SimTime::from_nanos(5)));
        assert_eq!(t.first_by(n1, "a"), Some(SimTime::from_nanos(9)));
        assert_eq!(t.first("missing"), None);
        assert_eq!(t.all("a").len(), 2);
    }

    #[test]
    fn record_datagram_copies_payload_only_when_capturing() {
        let (a, b) = (NodeId(0), NodeId(1));
        let mut off = Trace::new(false);
        off.record_datagram(
            a,
            b,
            SimTime::ZERO,
            DatagramFate::Dropped,
            &[7, 8, 9],
            0,
            false,
        );
        assert_eq!(off.datagrams[0].size, 3);
        assert!(off.datagrams[0].payload.is_none());

        let mut on = Trace::new(true);
        on.record_datagram(
            a,
            b,
            SimTime::ZERO,
            DatagramFate::Delivered(SimTime::from_nanos(1)),
            &[7, 8, 9],
            0,
            false,
        );
        assert_eq!(on.datagrams[0].payload.as_deref(), Some(&[7u8, 8, 9][..]));
    }

    #[test]
    fn datagram_counters() {
        let mut t = Trace::new(false);
        let (a, b) = (NodeId(0), NodeId(1));
        t.datagrams.push(CaptureRecord {
            from: a,
            to: b,
            sent: SimTime::ZERO,
            fate: DatagramFate::Delivered(SimTime::from_nanos(10)),
            size: 1200,
            index: 0,
            duplicate: false,
            payload: None,
        });
        t.datagrams.push(CaptureRecord {
            from: a,
            to: b,
            sent: SimTime::from_nanos(3),
            fate: DatagramFate::Dropped,
            size: 300,
            index: 1,
            duplicate: false,
            payload: None,
        });
        assert_eq!(t.sent_count(a, b), 2);
        assert_eq!(t.dropped_count(a, b), 1);
        assert_eq!(t.bytes_sent(a, b), 1500);
        assert_eq!(t.sent_count(b, a), 0);
    }
}
