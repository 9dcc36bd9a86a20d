//! The discrete-event engine: event queue, node registry, link registry.

use std::sync::Arc;

use rq_wire::Bytes;

use crate::link::{Link, LinkConfig, TransmitResult};
use crate::node::{Context, Node, NodeId};
use crate::spares::Spares;
use crate::time::{SimDuration, SimTime};
use crate::trace::{DatagramFate, Trace};

mod queue;

use queue::Queue;

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
    /// Datagrams a link dropped (drop mask, blackout, impairment).
    pub datagrams_dropped: u64,
    /// Extra copies fabricated by duplicating impairments.
    pub datagrams_duplicated: u64,
    /// High-water mark of the event-queue depth.
    pub queue_depth_peak: u64,
}

impl EngineStats {
    /// Datagrams queued for delivery: the copies pushed less those
    /// popped.
    fn in_flight(&self) -> u64 {
        self.datagrams_forwarded + self.datagrams_duplicated - self.datagram_events
    }

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

enum EventKind {
    Datagram {
        from: NodeId,
        to: NodeId,
        /// Path id of the link that carried the datagram.
        path: u64,
        /// The datagram's storage, not a `Bytes` view of it: half the
        /// size, which is what keeps a queue slot within a cache line.
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

// Room for this many events before the queue's tables grow: most
// handshakes stay under it, so a `run_scenario` network allocates each
// table once.
const QUEUE_CAPACITY: usize = 32;

/// [`Network::event_limit`] of a new network.
const EVENT_LIMIT: u64 = 10_000_000;

// The heap sifts run keys; events wait in slots. A 24-byte key alone,
// without runs, measured no gain on `bulk_transfer` (0.478 against
// 0.484 s). Runs are the gain, since a burst of wake-ups re-armed to one
// deadline joins one run in O(1) each: `pass_s_min` 0.418 → 0.222 s
// (seed 1). Slot size is what a deep queue holds per event
// (`server_load` `peak_heap_mib` +2 % at 56 bytes).
const _: () = assert!(
    std::mem::size_of::<queue::Run>() <= 24 && std::mem::size_of::<queue::Slot<EventKind>>() <= 56
);

/// One end of a link, an entry of the list of links of the node at
/// this end. The link in slot `s` has its ends at entries `2s` and
/// `2s + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkEnd {
    /// The node at the other end.
    peer: usize,
    /// The path the link realizes.
    path: u64,
    /// The path the pair's traffic rides: the same at every end of the
    /// pair's links, 0 until a path change moves it.
    route: u64,
    /// The entries before and after this one in the node's list
    /// ([`NO_END`] at either end of it).
    prev: usize,
    next: usize,
}

/// The entry before the first and after the last of a node's list.
const NO_END: usize = usize::MAX;

/// A node's list of links: its first entry and its length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkList {
    first: usize,
    len: usize,
}

const EMPTY_LIST: LinkList = LinkList {
    first: NO_END,
    len: 0,
};

/// A network of nodes and links plus the event queue that drives them.
///
/// Beyond the classic one-shot [`Network::run`], the engine supports the
/// many-connection server workload: nodes can be added *and started* while
/// the clock is running ([`Network::schedule_start`]), stepped in bounded
/// slices ([`Network::run_until`]), and retired once their connection is
/// over ([`Network::retire_node`]) so a long arrival process holds memory
/// only for the currently-active population.
///
/// The network owns its nodes by value: a run over one closed set of
/// node types passes an enum of them as `N` and dispatches every event
/// with a `match`. The default, a boxed trait object, serves networks
/// whose node types are open.
pub struct Network<N: Node = Box<dyn Node>> {
    /// Node slots; retired nodes leave a tombstone so IDs stay stable.
    nodes: Vec<Option<N>>,
    /// Link slots; a retired node's links leave holes that `free_links`
    /// hands to later connects, so a slot number stays valid for as long
    /// as its link lives.
    links: Vec<Option<Link>>,
    free_links: Vec<usize>,
    /// The link index: both ends of each link slot's link, each an entry
    /// of its node's list (`lists`, by node ID). A pair's links are found
    /// in the shorter of its two lists (a client's one or two, not the
    /// server's thousand), and a link goes in or out of both lists in
    /// O(1); the entries take no storage but the slots'.
    ends: Vec<LinkEnd>,
    lists: Vec<LinkList>,
    queue: Queue<EventKind>,
    now: SimTime,
    /// Nodes whose Start event has already been queued.
    started: usize,
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
    /// Storage of datagrams that are done with, for senders to build in.
    spares: Spares,
}

impl<N: Node> Network<N> {
    /// Creates an empty network. `capture_payloads` stores full datagram
    /// bytes in the trace (needed by content-sensitive analyses).
    pub fn new(capture_payloads: bool) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            free_links: Vec::new(),
            ends: Vec::new(),
            lists: Vec::new(),
            queue: Queue::with_capacity(QUEUE_CAPACITY),
            now: SimTime::ZERO,
            started: 0,
            trace: Trace::new(capture_payloads),
            stats: EngineStats::default(),
            event_limit: EVENT_LIMIT,
            scratch_sends: Vec::with_capacity(8),
            scratch_timers: Vec::with_capacity(8),
            spares: Spares::default(),
        }
    }

    /// Puts the network back in the state [`Network::new`] makes: no
    /// nodes, links, reroutes or queued events; the clock, the counters
    /// and the event limit at their starting values; a recording trace.
    /// It keeps only storage: the node and link tables, the link index,
    /// the effect buffers, the spare datagrams (with the storage of
    /// datagrams still queued, once the nodes are gone), and the event
    /// queue and trace up to the room `new` gives them, since those grow
    /// with a run's length and the next run may be short. A caller that
    /// runs one network after another on it asks the heap for little of
    /// that again. Node IDs start at 0 again.
    pub fn reset(&mut self, capture_payloads: bool) {
        // Named field by field, so a new field needs a decision here.
        let Network {
            nodes,
            links,
            free_links,
            ends,
            lists,
            queue,
            now,
            started,
            trace,
            stats,
            event_limit,
            scratch_sends,
            scratch_timers,
            spares,
        } = self;
        // The nodes go first, so that what they held of a queued
        // datagram lets go of its storage.
        nodes.clear();
        while let Some((_, _, kind)) = queue.pop() {
            if let EventKind::Datagram { payload, .. } = kind {
                spares.reclaim(payload, 0);
            }
        }
        links.clear();
        free_links.clear();
        ends.clear();
        lists.clear();
        queue.clear(QUEUE_CAPACITY);
        *now = SimTime::ZERO;
        *started = 0;
        trace.reset(capture_payloads);
        *stats = EngineStats::default();
        *event_limit = EVENT_LIMIT;
        // Handed to a callback and back, so empty between events.
        debug_assert!(scratch_sends.is_empty() && scratch_timers.is_empty());
    }

    /// Adds a node, returning its ID.
    pub fn add_node(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.lists.push(EMPTY_LIST);
        id
    }

    /// Node `id`, until it is retired: how the owner of a run reads a
    /// node's state between slices.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.0)?.as_ref()
    }

    /// Connects two nodes with a bidirectional link on the default path 0.
    /// Direction `AtoB` in a drop mask refers to `a → b`.
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
        let mut route = 0;
        for (_, end) in self.ends_between(a, b) {
            if end.path == path {
                return;
            }
            route = end.route;
        }
        let link = Some(Link::on_path(a, path, config));
        let end = |peer| LinkEnd {
            peer,
            path,
            route,
            prev: NO_END,
            next: NO_END,
        };
        let ends = [end(b.0), end(a.0)];
        let slot = match self.free_links.pop() {
            Some(slot) => {
                self.links[slot] = link;
                self.ends[2 * slot..2 * slot + 2].copy_from_slice(&ends);
                slot
            }
            None => {
                self.links.push(link);
                self.ends.extend(ends);
                self.links.len() - 1
            }
        };
        for (entry, node) in [(2 * slot, a.0), (2 * slot + 1, b.0)] {
            let list = &mut self.lists[node];
            self.ends[entry].next = list.first;
            if let Some(next) = self.ends.get_mut(list.first) {
                next.prev = entry;
            }
            (list.first, list.len) = (entry, list.len + 1);
        }
    }

    /// The entries of every link between `a` and `b`, from whichever of
    /// the two lists is shorter.
    fn ends_between(&self, a: NodeId, b: NodeId) -> impl Iterator<Item = (usize, &LinkEnd)> {
        let (node, peer) = self.shorter(a, b);
        let first = Some(self.lists[node].first).filter(|&entry| entry != NO_END);
        let entries = std::iter::successors(first, |&entry| {
            Some(self.ends[entry].next).filter(|&next| next != NO_END)
        });
        entries
            .map(|entry| (entry, &self.ends[entry]))
            .filter(move |(_, end)| end.peer == peer)
    }

    /// `(a, b)` if `a` has no more links than `b`, else `(b, a)`.
    fn shorter(&self, a: NodeId, b: NodeId) -> (usize, usize) {
        if self.lists[a.0].len <= self.lists[b.0].len {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// Slot of the link currently carrying `from → to` traffic.
    fn active_slot(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let mut ends = self.ends_between(from, to);
        ends.find(|(_, end)| end.path == end.route)
            .map(|(entry, _)| entry / 2)
    }

    /// Takes `entry` out of the list of `node`.
    fn unlink(&mut self, node: usize, entry: usize) {
        let LinkEnd { prev, next, .. } = self.ends[entry];
        match self.ends.get_mut(prev) {
            Some(before) => before.next = next,
            None => self.lists[node].first = next,
        }
        if let Some(after) = self.ends.get_mut(next) {
            after.prev = prev;
        }
        self.lists[node].len -= 1;
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
            self.ends_between(a, b).any(|(_, end)| end.path == path),
            "no path {path} link between {a:?} and {b:?}"
        );
        let (node, peer) = self.shorter(a, b);
        let mut entry = self.lists[node].first;
        while entry != NO_END {
            let end = self.ends[entry];
            if end.peer == peer {
                // The other end of the link sits beside this one.
                self.ends[entry].route = path;
                self.ends[entry ^ 1].route = path;
            }
            entry = end.next;
        }
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

    /// Datagrams `from` has sent `to` over every path between them, as
    /// their links counted them: delivered or dropped, the duplicating
    /// channel's copies aside. What a recording trace's
    /// [`Trace::sent_count`] says, without the trace; the links go when
    /// either node is retired, and their counts with them.
    pub fn sent_count(&self, from: NodeId, to: NodeId) -> usize {
        let slots = self.ends_between(from, to).map(|(entry, _)| entry / 2);
        slots
            .map(|slot| self.links[slot].as_ref().expect("indexed link is live"))
            .map(|link| link.sent_by(from))
            .sum()
    }

    /// Retires a node: its slot is tombstoned, every link touching it is
    /// removed, and already-queued events addressed to it are silently
    /// skipped when they surface. Hands the node back to the caller,
    /// which reads its final state off it; `None` if it was retired
    /// already.
    pub fn retire_node(&mut self, id: NodeId) -> Option<N> {
        let node = self.nodes[id.0].take()?;
        loop {
            let entry = self.lists[id.0].first;
            if entry == NO_END {
                break;
            }
            let peer = self.ends[entry].peer;
            self.unlink(id.0, entry);
            self.unlink(peer, entry ^ 1);
            self.links[entry / 2] = None;
            self.free_links.push(entry / 2);
        }
        Some(node)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.queue.push(at, kind);
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
            match self.queue.peek_at() {
                None => return RunOutcome::QueueEmpty,
                Some(at) if at > deadline => {
                    self.now = deadline;
                    return RunOutcome::TimeLimit;
                }
                Some(_) => {}
            }
            // The ceiling is checked before the pop, so a run stopped
            // by it resumes with every event still queued.
            if self.stats.events_processed >= self.event_limit {
                return RunOutcome::EventLimit;
            }
            let (at, _, kind) = self.queue.pop().expect("peeked event");
            self.now = at;
            self.stats.events_processed += 1;
            match &kind {
                EventKind::Datagram { .. } => self.stats.datagram_events += 1,
                EventKind::Timer { .. } => self.stats.timer_events += 1,
                EventKind::Start { .. } => self.stats.start_events += 1,
                EventKind::PathChange { .. } => self.stats.path_change_events += 1,
            }
            if let EventKind::PathChange { a, b, path, notify } = &kind {
                self.activate_path(*a, *b, *path);
                if !*notify {
                    continue;
                }
            }
            let (node_id, ev_path) = match &kind {
                EventKind::Datagram { to, path, .. } => (*to, *path),
                EventKind::Timer { node, .. } | EventKind::Start { node } => (*node, 0),
                EventKind::PathChange { a, path, .. } => (*a, *path),
            };
            // Events addressed to retired nodes (stale timers, datagrams
            // in flight when the connection ended) evaporate.
            if self.nodes[node_id.0].is_none() {
                self.stats.stale_events += 1;
                if let EventKind::Datagram { payload, .. } = kind {
                    self.spares.reclaim(payload, self.stats.in_flight());
                }
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
                spares: &mut self.spares,
            };
            let node = self.nodes[node_id.0].as_mut().expect("checked live");
            match kind {
                EventKind::Datagram {
                    from,
                    to: _,
                    path: _,
                    payload,
                } => {
                    // The storage is held across the callback and taken
                    // back after it if the node kept no view of it.
                    let storage = Arc::clone(&payload);
                    node.on_datagram_owned(&mut ctx, from, Bytes::from(payload));
                    ctx.spares.reclaim(storage, self.stats.in_flight());
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
        // A whole datagram (what a connection emits) is its own storage:
        // handing it over copies nothing.
        let payload: Arc<[u8]> = payload.into();
        let Some(slot) = self.active_slot(from, to) else {
            // A send whose peer has been retired vanishes on the floor
            // (the datagram would have died with the link anyway); a send
            // between two *live* unconnected nodes is a harness bug.
            if self.nodes[from.0].is_none() || self.nodes[to.0].is_none() {
                self.spares.reclaim(payload, self.stats.in_flight());
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
                self.spares.reclaim(payload, self.stats.in_flight());
            }
        }
    }
}

#[cfg(test)]
mod tests;
