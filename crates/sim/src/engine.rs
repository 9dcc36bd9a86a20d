//! The discrete-event engine: event queue, node registry, link registry.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use rq_wire::Bytes;

use crate::link::{Link, LinkConfig, TransmitResult};
use crate::node::{Context, Node, NodeId};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DatagramFate, Trace};

/// Plain-integer engine counters, incremented on the hot path and
/// exported into an [`rq_obs::Registry`] at snapshot time (the
/// `ScanShard` pattern: cheap struct in the loop, mergeable registry at
/// the edge). All values are pure functions of the event stream, so
/// they are bit-identical across thread counts and runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped and processed (includes stale ones).
    pub events_processed: u64,
    pub datagram_events: u64,
    pub timer_events: u64,
    pub start_events: u64,
    pub path_change_events: u64,
    /// Events addressed to already-retired nodes that evaporated.
    pub stale_events: u64,
    /// Datagrams accepted by a link for delivery.
    pub datagrams_forwarded: u64,
    /// Datagrams a link dropped (loss rule, blackout, impairment).
    pub datagrams_dropped: u64,
    /// Extra copies fabricated by duplicating impairments.
    pub datagrams_duplicated: u64,
    /// High-water mark of the event-queue depth.
    pub queue_depth_peak: u64,
}

impl EngineStats {
    /// Export under `sim/` into a metrics registry.
    pub fn export(&self, reg: &mut rq_obs::Registry) {
        reg.add("sim/events/processed", self.events_processed);
        reg.add("sim/events/datagram", self.datagram_events);
        reg.add("sim/events/timer", self.timer_events);
        reg.add("sim/events/start", self.start_events);
        reg.add("sim/events/path_change", self.path_change_events);
        reg.add("sim/events/stale", self.stale_events);
        reg.add("sim/datagrams/forwarded", self.datagrams_forwarded);
        reg.add("sim/datagrams/dropped", self.datagrams_dropped);
        reg.add("sim/datagrams/duplicated", self.datagrams_duplicated);
        reg.gauge("sim/queue_depth", 0, self.queue_depth_peak as i64);
    }
}

/// Why a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A node called [`Context::stop`].
    Stopped,
    /// The event queue drained.
    QueueEmpty,
    /// The configured time limit was reached.
    TimeLimit,
    /// The configured event-count safety limit was reached.
    EventLimit,
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    Datagram {
        from: NodeId,
        to: NodeId,
        /// Path id of the link that carried the datagram.
        path: u64,
        /// The datagram's storage, not a `Bytes` view of it: half the
        /// size, which is what keeps an [`Event`] within a cache line.
        payload: Arc<[u8]>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Start {
        node: NodeId,
    },
    /// Repoints the active route between `a` and `b` at the link
    /// registered for `path`; when `notify` is set, `a` additionally gets
    /// an [`Node::on_path_change`] callback (deliberate migration).
    PathChange {
        a: NodeId,
        b: NodeId,
        path: u64,
        notify: bool,
    },
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

// Every push and pop sifts events through a heap tens of thousands deep
// under load: at 80 bytes (a `Bytes` payload) a 10 MiB download ran a
// quarter slower than at 64.
const _: () = assert!(std::mem::size_of::<Event>() <= 64);

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A network of nodes and links plus the event queue that drives them.
///
/// Beyond the classic one-shot [`Network::run`], the engine supports the
/// many-connection server workload: nodes can be added *and started* while
/// the clock is running ([`Network::schedule_start`]), stepped in bounded
/// slices ([`Network::run_until`]), and retired once their connection is
/// over ([`Network::retire_node`]) so a long arrival process holds memory
/// only for the currently-active population.
pub struct Network {
    /// Node slots; retired nodes leave a tombstone so IDs stay stable.
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Link slots; a retired node's links leave holes that `free_links`
    /// hands to later connects, so a slot number stays valid for as long
    /// as its link lives.
    links: Vec<Option<Link>>,
    free_links: Vec<usize>,
    /// Every link's slot under `(from, to, path)`, in both orientations.
    /// Ordered, so all links of one node are one contiguous range.
    link_index: BTreeMap<(usize, usize, u64), usize>,
    /// The path a pair's traffic rides, for pairs a path change moved
    /// off path 0 (both orientations).
    rerouted: BTreeMap<(usize, usize), u64>,
    queue: BinaryHeap<Reverse<Event>>,
    now: SimTime,
    seq: u64,
    /// Nodes whose Start event has already been queued.
    started: usize,
    /// Events processed so far (persists across `run_until` slices).
    processed: u64,
    /// Packet capture and milestone log for this run.
    pub trace: Trace,
    /// Engine counters (events, drops, queue depth); see [`EngineStats`].
    pub stats: EngineStats,
    /// Hard ceiling on processed events (guards against livelock bugs).
    pub event_limit: u64,
    /// Reused effect buffers handed to nodes via [`Context`]; keeping
    /// them on the network avoids two Vec allocations per event.
    scratch_sends: Vec<(NodeId, Bytes)>,
    scratch_timers: Vec<(SimTime, u64)>,
}

impl Network {
    /// Creates an empty network. `capture_payloads` stores full datagram
    /// bytes in the trace (needed by content-sensitive analyses).
    pub fn new(capture_payloads: bool) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            free_links: Vec::new(),
            link_index: BTreeMap::new(),
            rerouted: BTreeMap::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            started: 0,
            processed: 0,
            trace: Trace::new(capture_payloads),
            stats: EngineStats::default(),
            event_limit: 10_000_000,
            scratch_sends: Vec::with_capacity(8),
            scratch_timers: Vec::with_capacity(8),
        }
    }

    /// Adds a node, returning its ID.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        id
    }

    /// Connects two nodes with a bidirectional link on the default path 0.
    /// Direction `AtoB` in loss rules refers to `a → b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.connect_path(a, b, 0, config);
    }

    /// Registers a link realizing `path` between `a` and `b` (the first
    /// one registered for a pair and path wins). Path 0 is the pair's
    /// active route from the start; other paths lie dormant until a
    /// [`Network::schedule_path_change`] event activates them, so a
    /// network that never schedules one behaves byte-identically to a
    /// single-path network.
    pub fn connect_path(&mut self, a: NodeId, b: NodeId, path: u64, config: LinkConfig) {
        assert!(a != b, "cannot connect a node to itself");
        if self.link_index.contains_key(&(a.0, b.0, path)) {
            return;
        }
        let link = Some(Link::on_path(a, path, config));
        let slot = match self.free_links.pop() {
            Some(slot) => {
                self.links[slot] = link;
                slot
            }
            None => {
                self.links.push(link);
                self.links.len() - 1
            }
        };
        self.link_index.insert((a.0, b.0, path), slot);
        self.link_index.insert((b.0, a.0, path), slot);
    }

    /// Slot of the link currently carrying `from → to` traffic.
    fn active_slot(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let path = self.rerouted.get(&(from.0, to.0)).copied().unwrap_or(0);
        self.link_index.get(&(from.0, to.0, path)).copied()
    }

    /// Schedules the route between `a` and `b` to flip to `path` at `at`.
    /// A link for that path must have been registered via
    /// [`Network::connect_path`] by the time the event fires. With
    /// `notify`, node `a` gets an [`Node::on_path_change`] callback
    /// (deliberate migration); without it the flip is silent, as a NAT
    /// rebind is to the endpoints.
    pub fn schedule_path_change(
        &mut self,
        at: SimTime,
        a: NodeId,
        b: NodeId,
        path: u64,
        notify: bool,
    ) {
        assert!(at >= self.now, "cannot schedule a path change in the past");
        self.push_event(at, EventKind::PathChange { a, b, path, notify });
    }

    /// Repoints the active route for the (`a`, `b`) pair at the link
    /// registered for `path`. No-op when either node has been retired.
    fn activate_path(&mut self, a: NodeId, b: NodeId, path: u64) {
        if self.nodes[a.0].is_none() || self.nodes[b.0].is_none() {
            return;
        }
        assert!(
            self.link_index.contains_key(&(a.0, b.0, path)),
            "no path {path} link between {a:?} and {b:?}"
        );
        self.rerouted.insert((a.0, b.0), path);
        self.rerouted.insert((b.0, a.0), path);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues a Start event for `node` at time `at` (which must not be in
    /// the past) and marks it started. This is how the server-load driver
    /// brings mid-run arrivals to life; nodes covered by a blanket
    /// [`Network::run`]/[`Network::prime`] don't need it.
    pub fn schedule_start(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.now, "cannot start a node in the past");
        self.push_event(at, EventKind::Start { node });
        self.started = self.started.max(node.0 + 1);
    }

    /// Retires a node: its slot is tombstoned, every link touching it is
    /// removed, and already-queued events addressed to it are silently
    /// skipped when they surface. Returns the node for final inspection.
    pub fn retire_node(&mut self, id: NodeId) -> Option<Box<dyn Node>> {
        let node = self.nodes[id.0].take()?;
        let mine = (id.0, 0, 0)..=(id.0, usize::MAX, u64::MAX);
        while let Some((&(_, peer, path), &slot)) = self.link_index.range(mine.clone()).next() {
            self.link_index.remove(&(id.0, peer, path));
            self.link_index.remove(&(peer, id.0, path));
            self.rerouted.remove(&(id.0, peer));
            self.rerouted.remove(&(peer, id.0));
            self.links[slot] = None;
            self.free_links.push(slot);
        }
        Some(node)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
        self.stats.queue_depth_peak = self.stats.queue_depth_peak.max(self.queue.len() as u64);
    }

    /// Queues Start events (at the current time) for every node that has
    /// not been started yet.
    pub fn prime(&mut self) {
        for i in self.started..self.nodes.len() {
            self.push_event(self.now, EventKind::Start { node: NodeId(i) });
        }
        self.started = self.nodes.len();
    }

    /// Runs the simulation until stop/time-limit/queue-drain.
    pub fn run(&mut self, time_limit: SimDuration) -> RunOutcome {
        // Queue start events for all nodes at t=0.
        self.prime();
        self.run_until(SimTime::ZERO + time_limit)
    }

    /// Processes queued events up to and including `deadline`, then stops
    /// with [`RunOutcome::TimeLimit`], leaving later events queued — the
    /// stepping primitive the many-connection driver interleaves with
    /// arrivals and retirements. Nodes added since the last slice must be
    /// started via [`Network::prime`] or [`Network::schedule_start`].
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            match self.queue.peek() {
                None => return RunOutcome::QueueEmpty,
                Some(Reverse(head)) if head.at > deadline => {
                    self.now = deadline;
                    return RunOutcome::TimeLimit;
                }
                Some(_) => {}
            }
            let Reverse(ev) = self.queue.pop().expect("peeked event");
            self.processed += 1;
            if self.processed > self.event_limit {
                return RunOutcome::EventLimit;
            }
            self.now = ev.at;
            self.stats.events_processed += 1;
            match &ev.kind {
                EventKind::Datagram { .. } => self.stats.datagram_events += 1,
                EventKind::Timer { .. } => self.stats.timer_events += 1,
                EventKind::Start { .. } => self.stats.start_events += 1,
                EventKind::PathChange { .. } => self.stats.path_change_events += 1,
            }
            if let EventKind::PathChange { a, b, path, notify } = &ev.kind {
                self.activate_path(*a, *b, *path);
                if !*notify {
                    continue;
                }
            }
            let (node_id, ev_path) = match &ev.kind {
                EventKind::Datagram { to, path, .. } => (*to, *path),
                EventKind::Timer { node, .. } | EventKind::Start { node } => (*node, 0),
                EventKind::PathChange { a, path, .. } => (*a, *path),
            };
            // Events addressed to retired nodes (stale timers, datagrams
            // in flight when the connection ended) evaporate.
            if self.nodes[node_id.0].is_none() {
                self.stats.stale_events += 1;
                continue;
            }
            // Hand the node the reusable effect buffers instead of
            // allocating fresh Vecs for every event.
            let mut ctx = Context {
                now: self.now,
                me: node_id,
                path: ev_path,
                sends: std::mem::take(&mut self.scratch_sends),
                timers: std::mem::take(&mut self.scratch_timers),
                stop: false,
                trace: &mut self.trace,
            };
            let node = self.nodes[node_id.0].as_mut().expect("checked live");
            match ev.kind {
                EventKind::Datagram {
                    from,
                    to: _,
                    path: _,
                    payload,
                } => {
                    node.on_datagram_owned(&mut ctx, from, Bytes::from(payload));
                }
                EventKind::Timer { token, .. } => {
                    node.on_timer(&mut ctx, token);
                }
                EventKind::Start { .. } => {
                    node.on_start(&mut ctx);
                }
                EventKind::PathChange { path, .. } => {
                    node.on_path_change(&mut ctx, path);
                }
            }
            let Context {
                mut sends,
                mut timers,
                stop,
                ..
            } = ctx;
            for (to, payload) in sends.drain(..) {
                self.dispatch_send(node_id, to, payload);
            }
            for (at, token) in timers.drain(..) {
                self.push_event(
                    at,
                    EventKind::Timer {
                        node: node_id,
                        token,
                    },
                );
            }
            self.scratch_sends = sends;
            self.scratch_timers = timers;
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }

    fn dispatch_send(&mut self, from: NodeId, to: NodeId, payload: Bytes) {
        let Some(slot) = self.active_slot(from, to) else {
            // A send whose peer has been retired vanishes on the floor
            // (the datagram would have died with the link anyway); a send
            // between two *live* unconnected nodes is a harness bug.
            if self.nodes[from.0].is_none() || self.nodes[to.0].is_none() {
                return;
            }
            panic!("no link between {from:?} and {to:?}");
        };
        let link = self.links[slot].as_mut().expect("indexed link is live");
        let path = link.path;
        let (result, index) = link.transmit(from, &payload, self.now);
        match result {
            TransmitResult::Deliver { at, duplicate } => {
                self.stats.datagrams_forwarded += 1;
                if duplicate.is_some() {
                    self.stats.datagrams_duplicated += 1;
                }
                self.trace.record_datagram(
                    from,
                    to,
                    self.now,
                    DatagramFate::Delivered(at),
                    &payload,
                    index,
                    false,
                );
                // A whole datagram (what a connection emits) is its own
                // storage: handing it over copies nothing.
                let payload: Arc<[u8]> = payload.into();
                if let Some(dup_at) = duplicate {
                    self.trace.record_datagram(
                        from,
                        to,
                        self.now,
                        DatagramFate::Delivered(dup_at),
                        &payload,
                        index,
                        true,
                    );
                    self.push_event(
                        dup_at,
                        EventKind::Datagram {
                            from,
                            to,
                            path,
                            payload: Arc::clone(&payload),
                        },
                    );
                }
                self.push_event(
                    at,
                    EventKind::Datagram {
                        from,
                        to,
                        path,
                        payload,
                    },
                );
            }
            TransmitResult::Drop => {
                self.stats.datagrams_dropped += 1;
                self.trace.record_datagram(
                    from,
                    to,
                    self.now,
                    DatagramFate::Dropped,
                    &payload,
                    index,
                    false,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkStats;
    use crate::loss::{Direction, DropIndices};

    /// Counters of the live link from `a` to `b`, if one exists.
    fn link_stats(net: &Network, a: NodeId, b: NodeId) -> Option<LinkStats> {
        let link = net.links[net.active_slot(a, b)?].as_ref();
        Some(link.expect("indexed link is live").stats)
    }

    /// Test node: replies to every datagram with "pong" until a count is
    /// reached, records milestones on receipt.
    struct Ponger {
        peer: Option<NodeId>,
        remaining: usize,
        initiate: bool,
    }

    impl Node for Ponger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.initiate {
                let peer = self.peer.unwrap();
                ctx.send(peer, b"ping".to_vec());
            }
        }

        fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
            let me = ctx.me();
            let now = ctx.now();
            ctx.trace()
                .milestone(me, now, String::from_utf8_lossy(payload).into_owned());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, b"pong".to_vec());
            } else {
                ctx.stop();
            }
        }
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Ponger {
            peer: None,
            remaining: 3,
            initiate: false,
        }));
        let b = net.add_node(Box::new(Ponger {
            peer: Some(a),
            remaining: 3,
            initiate: true,
        }));
        net.connect(
            a,
            b,
            LinkConfig {
                one_way_delay: SimDuration::from_millis(10),
                bandwidth_bps: None,
                loss: Box::new(crate::loss::NoLoss),
                impairment: None,
                mtu: 1500,
                blackouts: Vec::new(),
            },
        );
        let outcome = net.run(SimDuration::from_secs(5));
        assert_eq!(outcome, RunOutcome::Stopped);
        // b sends ping at t=0; arrival at a t=10ms; pong arrives back t=20ms...
        let times: Vec<u64> = net
            .trace
            .milestones
            .iter()
            .map(|m| m.at.as_millis_f64() as u64)
            .collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(30), 3);
                ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(10), 1);
                ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(20), 2);
            }
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.fired.push(token);
                let me = ctx.me();
                let now = ctx.now();
                ctx.trace().milestone(me, now, format!("t{token}"));
            }
        }
        let mut net = Network::new(false);
        let _ = net.add_node(Box::new(TimerNode { fired: Vec::new() }));
        assert_eq!(net.run(SimDuration::from_secs(1)), RunOutcome::QueueEmpty);
        assert_eq!(net.trace.first("t1").unwrap().as_millis_f64(), 10.0);
        assert_eq!(net.trace.first("t2").unwrap().as_millis_f64(), 20.0);
        assert_eq!(net.trace.first("t3").unwrap().as_millis_f64(), 30.0);
    }

    #[test]
    fn drops_are_recorded_not_delivered() {
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Ponger {
            peer: None,
            remaining: 9,
            initiate: false,
        }));
        let b = net.add_node(Box::new(Ponger {
            peer: Some(a),
            remaining: 9,
            initiate: true,
        }));
        net.connect(
            a,
            b,
            LinkConfig::paper_default(SimDuration::from_millis(1))
                .with_loss(DropIndices::new(Direction::BtoA, &[0])),
        );
        // b's first ping (BtoA index 0) is dropped; nothing else happens.
        let outcome = net.run(SimDuration::from_secs(1));
        assert_eq!(outcome, RunOutcome::QueueEmpty);
        assert_eq!(net.trace.dropped_count(b, a), 1);
        assert!(net.trace.milestones.is_empty());
    }

    #[test]
    fn duplicating_channel_delivers_both_copies() {
        use crate::impair::ImpairmentSpec;
        // A always-duplicate channel: the sink sees b's ping twice, the
        // trace attributes one send and one fabricated copy. The sink
        // takes the owned form, which is the one the engine calls, and
        // notes where the bytes live.
        struct Sink;
        impl Node for Sink {
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
                unreachable!("the engine delivers through on_datagram_owned");
            }
            fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, _: NodeId, payload: Bytes) {
                let me = ctx.me();
                let now = ctx.now();
                ctx.trace().milestone(me, now, "rx");
                ctx.trace()
                    .milestone(me, now, format!("{:p}", payload.as_ptr()));
            }
        }
        struct OneShot {
            peer: NodeId,
        }
        impl Node for OneShot {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.peer, b"ping".to_vec());
            }
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        }
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Sink));
        let b = net.add_node(Box::new(OneShot { peer: a }));
        net.connect(
            a,
            b,
            LinkConfig::paper_default(SimDuration::from_millis(2))
                .with_impairment(ImpairmentSpec::none().with_duplication(1.0), 1),
        );
        assert_eq!(net.run(SimDuration::from_secs(1)), RunOutcome::QueueEmpty);
        assert_eq!(net.trace.all("rx").len(), 2);
        // The fabricated copy is a second handle on the one buffer.
        let at: Vec<_> = (net.trace.milestones.iter().map(|m| &m.label))
            .filter(|label| *label != "rx")
            .collect();
        assert_eq!(at.len(), 2);
        assert_eq!(at[0], at[1]);
        assert_eq!(net.trace.sent_count(b, a), 1);
        assert_eq!(net.trace.duplicated_count(b, a), 1);
        assert_eq!(link_stats(&net, a, b).unwrap().duplicated, 1);
    }

    #[test]
    fn time_limit_respected() {
        struct Forever;
        impl Node for Forever {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer_after(SimDuration::from_millis(1), 0);
            }
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
                ctx.set_timer_after(SimDuration::from_millis(1), 0);
            }
        }
        let mut net = Network::new(false);
        net.add_node(Box::new(Forever));
        assert_eq!(
            net.run(SimDuration::from_millis(100)),
            RunOutcome::TimeLimit
        );
        assert_eq!(net.now().as_millis_f64(), 100.0);
    }

    #[test]
    fn deterministic_event_ordering_at_same_time() {
        // Two timers at identical times fire in insertion order (seq tiebreak).
        struct TwoTimers {
            order: Vec<u64>,
        }
        impl Node for TwoTimers {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(5), 101);
                ctx.set_timer(SimTime::ZERO + SimDuration::from_millis(5), 102);
            }
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.order.push(token);
                let me = ctx.me();
                let now = ctx.now();
                ctx.trace().milestone(me, now, format!("tok{token}"));
            }
        }
        let mut net = Network::new(false);
        net.add_node(Box::new(TwoTimers { order: Vec::new() }));
        net.run(SimDuration::from_secs(1));
        let labels: Vec<&str> = net.trace.milestones.iter().map(|m| &*m.label).collect();
        assert_eq!(labels, vec!["tok101", "tok102"]);
    }

    /// A node that sends one datagram to its peer every 5 ms, forever.
    struct Chatter {
        peer: NodeId,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(self.peer, b"hi".to_vec());
            ctx.set_timer_after(SimDuration::from_millis(5), 0);
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
            ctx.send(self.peer, b"hi".to_vec());
            ctx.set_timer_after(SimDuration::from_millis(5), 0);
        }
    }

    /// A node that counts received datagrams into the milestone log.
    struct Counter;
    impl Node for Counter {
        fn on_datagram(&mut self, ctx: &mut Context<'_>, _: NodeId, _: &[u8]) {
            let me = ctx.me();
            let now = ctx.now();
            ctx.trace().milestone(me, now, "rx");
        }
    }

    #[test]
    fn run_until_steps_and_resumes() {
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Counter));
        let b = net.add_node(Box::new(Chatter { peer: a }));
        net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
        net.prime();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        assert_eq!(net.run_until(t(12)), RunOutcome::TimeLimit);
        // Sends at 0,5,10 arrive at 1,6,11.
        assert_eq!(net.trace.all("rx").len(), 3);
        assert_eq!(net.now(), t(12));
        // Resuming processes the already-queued later events.
        assert_eq!(net.run_until(t(22)), RunOutcome::TimeLimit);
        assert_eq!(net.trace.all("rx").len(), 5);
    }

    #[test]
    fn schedule_start_spawns_mid_run() {
        let mut net = Network::new(false);
        let sink = net.add_node(Box::new(Counter));
        net.prime();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        assert_eq!(net.run_until(t(10)), RunOutcome::QueueEmpty);
        // A node arriving at t=10, started at t=20: its first send leaves
        // at 20 and lands at 21.
        let late = net.add_node(Box::new(Chatter { peer: sink }));
        net.connect(
            late,
            sink,
            LinkConfig::paper_default(SimDuration::from_millis(1)),
        );
        net.schedule_start(late, t(20));
        assert_eq!(net.run_until(t(22)), RunOutcome::TimeLimit);
        let rx = net.trace.all("rx");
        assert_eq!(rx.len(), 1);
        assert!(rx[0] >= t(21) && rx[0] < t(22), "delivery ≈ start + delay");
    }

    #[test]
    fn retired_nodes_absorb_events_and_drop_links() {
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Counter));
        let b = net.add_node(Box::new(Chatter { peer: a }));
        net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
        net.prime();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        net.run_until(t(7));
        assert_eq!(net.nodes.iter().flatten().count(), 2);
        // Retire the receiver: b keeps chattering into the void — queued
        // timer events for b still fire, its sends vanish (no link), and
        // stale datagrams addressed to a are skipped.
        let retired = net.retire_node(a);
        assert!(retired.is_some());
        assert_eq!(net.nodes.iter().flatten().count(), 1);
        assert!(link_stats(&net, a, b).is_none());
        assert_eq!(net.run_until(t(30)), RunOutcome::TimeLimit);
        // Only the pre-retirement deliveries (t=1, t=6) were counted.
        assert_eq!(net.trace.all("rx").len(), 2);
        // Retiring twice is a no-op.
        assert!(net.retire_node(a).is_none());
    }

    #[test]
    fn path_change_switches_delivery_profile() {
        /// Counter that tags each receipt with the arrival path id.
        struct PathCounter;
        impl Node for PathCounter {
            fn on_datagram(&mut self, ctx: &mut Context<'_>, _: NodeId, _: &[u8]) {
                let me = ctx.me();
                let now = ctx.now();
                let p = ctx.path();
                ctx.trace().milestone(me, now, format!("rx/p{p}"));
            }
        }
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(PathCounter));
        let b = net.add_node(Box::new(Chatter { peer: a }));
        net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
        net.connect_path(
            a,
            b,
            1,
            LinkConfig::paper_default(SimDuration::from_millis(20)),
        );
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        net.schedule_path_change(t(12), a, b, 1, false);
        net.prime();
        net.run_until(t(37));
        // Sends at 0, 5, 10 ride path 0 (≈1 ms); the send at 15 is the
        // first over path 1 and lands ≈20 ms later.
        assert_eq!(net.trace.all("rx/p0").len(), 3);
        let p1 = net.trace.all("rx/p1");
        assert_eq!(p1.len(), 1);
        assert!(p1[0] >= t(35) && p1[0] < t(36), "delivery ≈ send + 20 ms");
    }

    #[test]
    fn path_change_notifies_initiator() {
        struct Migrator {
            peer: NodeId,
        }
        impl Node for Migrator {
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
            fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
                let me = ctx.me();
                let now = ctx.now();
                assert_eq!(ctx.path(), path);
                ctx.trace().milestone(me, now, format!("migrate/p{path}"));
                ctx.send(self.peer, b"probe".to_vec());
            }
        }
        let mut net = Network::new(false);
        let sink = net.add_node(Box::new(Counter));
        let m = net.add_node(Box::new(Migrator { peer: sink }));
        net.connect(
            m,
            sink,
            LinkConfig::paper_default(SimDuration::from_millis(1)),
        );
        net.connect_path(
            m,
            sink,
            7,
            LinkConfig::paper_default(SimDuration::from_millis(3)),
        );
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        net.schedule_path_change(t(10), m, sink, 7, true);
        net.prime();
        net.run_until(t(20));
        // The callback fires at the flip time and its probe already rides
        // the new path.
        assert_eq!(net.trace.first("migrate/p7"), Some(t(10)));
        let rx = net.trace.all("rx");
        assert_eq!(rx.len(), 1);
        assert!(rx[0] >= t(13) && rx[0] < t(14), "probe took the 3 ms path");
    }

    #[test]
    fn path_change_after_retirement_is_noop() {
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Counter));
        let b = net.add_node(Box::new(Chatter { peer: a }));
        net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
        net.connect_path(
            a,
            b,
            1,
            LinkConfig::paper_default(SimDuration::from_millis(5)),
        );
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        net.schedule_path_change(t(15), a, b, 1, false);
        net.prime();
        net.run_until(t(7));
        net.retire_node(a);
        // The queued flip targets a retired pair: it must neither panic
        // nor resurrect the route.
        assert_eq!(net.run_until(t(30)), RunOutcome::TimeLimit);
        assert_eq!(net.trace.all("rx").len(), 2);
    }

    #[test]
    fn retirement_takes_every_path_and_leaves_neighbours_alone() {
        // A hub with three peers, the middle one multi-path and moved
        // onto its second path: retiring it drops both of its links (and
        // the reroute), its slots go to the next connects, and the other
        // pairs keep exchanging on theirs.
        let mut net = Network::new(false);
        let hub = net.add_node(Box::new(Counter));
        let peers: Vec<NodeId> = (0..3)
            .map(|_| net.add_node(Box::new(Chatter { peer: hub })))
            .collect();
        let ms = SimDuration::from_millis;
        let t = |n| SimTime::ZERO + ms(n);
        for p in &peers {
            net.connect(*p, hub, LinkConfig::paper_default(ms(1)));
        }
        net.connect_path(peers[1], hub, 1, LinkConfig::paper_default(ms(2)));
        net.schedule_path_change(t(3), peers[1], hub, 1, false);
        net.prime();
        net.run_until(t(7));
        assert_eq!(net.links.iter().flatten().count(), 4);
        assert_eq!(net.rerouted.len(), 2);

        net.retire_node(peers[1]);
        assert_eq!(net.links.iter().flatten().count(), 2);
        assert_eq!(net.free_links.len(), 2);
        assert!(net.rerouted.is_empty());
        assert!(link_stats(&net, peers[1], hub).is_none());
        for p in [peers[0], peers[2]] {
            assert!(link_stats(&net, p, hub).is_some());
            assert!(link_stats(&net, hub, p).is_some());
        }
        // Let what the retired peer had in flight land, then: two
        // chatterers left, one send each per 5 ms.
        net.run_until(t(9));
        let before = net.trace.all("rx").len();
        net.run_until(t(14));
        assert_eq!(net.trace.all("rx").len(), before + 2);

        // A newcomer takes over a freed slot; the table does not grow.
        let late = net.add_node(Box::new(Chatter { peer: hub }));
        net.connect(late, hub, LinkConfig::paper_default(ms(1)));
        assert_eq!(net.links.len(), 4);
        assert_eq!(net.free_links.len(), 1);
        assert_eq!(link_stats(&net, late, hub), Some(LinkStats::default()));
    }

    #[test]
    fn engine_stats_count_events_and_drops() {
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Ponger {
            peer: None,
            remaining: 9,
            initiate: false,
        }));
        let b = net.add_node(Box::new(Ponger {
            peer: Some(a),
            remaining: 9,
            initiate: true,
        }));
        net.connect(
            a,
            b,
            LinkConfig::paper_default(SimDuration::from_millis(1))
                .with_loss(DropIndices::new(Direction::BtoA, &[1])),
        );
        net.run(SimDuration::from_secs(1));
        let s = net.stats;
        assert_eq!(s.datagrams_dropped, 1);
        assert!(s.datagram_events > 0);
        assert_eq!(s.start_events, 2);
        assert_eq!(
            s.events_processed,
            s.datagram_events + s.timer_events + s.start_events + s.path_change_events
        );
        assert!(s.queue_depth_peak >= 1);
        // Export lands under sim/ and round-trips the counter values.
        let mut reg = rq_obs::Registry::new();
        s.export(&mut reg);
        assert_eq!(reg.counter("sim/datagrams/dropped"), 1);
        assert_eq!(reg.counter("sim/events/processed"), s.events_processed);

        // Identical run, identical stats: the counters are a pure
        // function of the event stream.
        let mut net2 = Network::new(false);
        let a2 = net2.add_node(Box::new(Ponger {
            peer: None,
            remaining: 9,
            initiate: false,
        }));
        let b2 = net2.add_node(Box::new(Ponger {
            peer: Some(a2),
            remaining: 9,
            initiate: true,
        }));
        net2.connect(
            a2,
            b2,
            LinkConfig::paper_default(SimDuration::from_millis(1))
                .with_loss(DropIndices::new(Direction::BtoA, &[1])),
        );
        net2.run(SimDuration::from_secs(1));
        assert_eq!(net2.stats, s);
    }

    #[test]
    fn lean_trace_records_nothing() {
        let mut net = Network::new(false);
        net.trace.recording = false;
        let a = net.add_node(Box::new(Counter));
        let b = net.add_node(Box::new(Chatter { peer: a }));
        net.connect(a, b, LinkConfig::paper_default(SimDuration::from_millis(1)));
        net.prime();
        net.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        assert!(net.trace.datagrams.is_empty());
        assert!(net.trace.milestones.is_empty());
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn send_without_link_panics() {
        struct Sender {
            to: NodeId,
        }
        impl Node for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(self.to, vec![1]);
            }
            fn on_datagram(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {}
        }
        let mut net = Network::new(false);
        let a = net.add_node(Box::new(Sender { to: NodeId(1) }));
        let _ = a;
        let _b = net.add_node(Box::new(Sender { to: NodeId(0) }));
        // No connect() call.
        net.run(SimDuration::from_secs(1));
    }
}
