//! Node trait and the context handed to nodes during event handling.

use rq_wire::Bytes;

use crate::spares::Spares;
use crate::time::SimTime;
use crate::trace::Trace;

/// Identifies a node in the network. Returned by
/// [`crate::Network::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (stable for the lifetime of the network).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A protocol endpoint driven by the simulator.
///
/// Implementations are sans-IO state machines: they react to datagram
/// arrivals and timer expirations and emit datagrams / re-arm timers via
/// [`Context`]. The engine calls `on_start` once at t = 0.
pub trait Node {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a datagram addressed to this node is delivered.
    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]);

    /// The form of [`Node::on_datagram`] the engine calls: it hands over
    /// the delivered datagram itself, so a node that keeps or decodes the
    /// bytes overrides this and shares the buffer where `on_datagram`
    /// would have to copy it.
    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.on_datagram(ctx, from, &payload);
    }

    /// Called when a timer set by this node fires. `token` is the value
    /// passed to [`Context::set_timer`]. Timers cannot be cancelled, so a
    /// node whose deadline moved later is still woken at the old one: it
    /// compares against its own current deadline and, while that is
    /// still ahead, does no work but re-arm it.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {}

    /// Called when a [`crate::Network::schedule_path_change`] event with
    /// `notify = true` rebinds this node's active path — the "deliberate
    /// migration" signal (an OS telling the app its default route moved).
    /// NAT-rebind style changes use `notify = false` and this is never
    /// called; endpoints discover the move from the path id on arriving
    /// datagrams instead.
    fn on_path_change(&mut self, _ctx: &mut Context<'_>, _path: u64) {}

    /// Human-readable name for traces and logs.
    fn name(&self) -> &str {
        "node"
    }
}

/// A boxed node is a node: what lets a network over a boxed trait
/// object hold nodes of any type.
impl<T: Node + ?Sized> Node for Box<T> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        (**self).on_start(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &[u8]) {
        (**self).on_datagram(ctx, from, payload);
    }

    fn on_datagram_owned(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        (**self).on_datagram_owned(ctx, from, payload);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        (**self).on_timer(ctx, token);
    }

    fn on_path_change(&mut self, ctx: &mut Context<'_>, path: u64) {
        (**self).on_path_change(ctx, path);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Effects a node can produce while handling an event.
///
/// The context queues sends and timers; the engine applies them after the
/// callback returns (avoiding re-entrancy).
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) me: NodeId,
    pub(crate) path: u64,
    pub(crate) sends: Vec<(NodeId, Bytes)>,
    pub(crate) timers: Vec<(SimTime, u64)>,
    pub(crate) stop: bool,
    pub(crate) trace: &'a mut Trace,
    pub(crate) spares: &'a mut Spares,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's own ID.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Path id the current event arrived on: the link path for datagram
    /// deliveries, the new path for `on_path_change`, and 0 for timers and
    /// starts. Single-path networks always see 0.
    pub fn path(&self) -> u64 {
        self.path
    }

    /// Queues a datagram to `to`. There must be a link between the nodes
    /// (checked when the engine applies the send). A `Bytes` travels as
    /// it is; a `Vec<u8>` is copied once into one.
    pub fn send(&mut self, to: NodeId, payload: impl Into<Bytes>) {
        self.sends.push((to, payload.into()));
    }

    /// Arms a timer that fires at absolute time `at` with `token`.
    /// Timers are one-shot and cannot be cancelled; re-arming simply queues
    /// another wakeup, so handlers must validate against their own state.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, token));
    }

    /// Convenience: arm a timer `after` from now.
    pub fn set_timer_after(&mut self, after: crate::time::SimDuration, token: u64) {
        let at = self.now + after;
        self.set_timer(at, token);
    }

    /// Requests the engine to stop after this event completes.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    /// Storage of delivered datagrams that no one holds any more: a
    /// sender builds its next datagrams in it (see [`Spares`]).
    pub fn spares(&mut self) -> &mut Spares {
        self.spares
    }

    /// The shared capture trace (for recording application-level milestones
    /// such as "first payload byte received").
    pub fn trace(&mut self) -> &mut Trace {
        self.trace
    }
}
