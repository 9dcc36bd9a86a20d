//! The engine's event queue: events in `(at, seq)` order, where `seq`
//! is push order, with the events of one instant sharing a heap entry.
//!
//! A *run* is a FIFO chain of events for one instant, held in a slot
//! table, and the binary heap orders runs by `(at, seq of the run's
//! first queued event)`. A push for the instant of the run the last push
//! went to (the *open* run) appends to that run's chain in O(1); any
//! other push starts a new run. A burst of wake-ups that all re-arm to
//! one deadline is one heap entry, not a sift each through a heap
//! thousands deep.
//!
//! The order is exactly a heap of `(at, seq)` pairs: only the open run
//! grows, so a run's events have consecutive `seq`s and no other event
//! of that instant falls between them. Popping a run's first event
//! therefore leaves the run's key `(at, seq + 1)` in the same place
//! among the others.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::SimTime;

/// Slot index meaning "none".
const NIL: u32 = u32::MAX;

/// A heap entry: one run, keyed by the instant and `seq` of its first
/// queued event.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Run {
    at: SimTime,
    seq: u64,
    /// Slot of the run's first queued event.
    head: u32,
}

/// A slot-table entry: a queued event and the next slot of its run (or,
/// for a free slot, of the free list).
pub(super) struct Slot<T> {
    event: Option<T>,
    next: u32,
}

/// Events ordered by `(at, seq)`; see the module docs.
pub(super) struct Queue<T> {
    runs: BinaryHeap<Reverse<Run>>,
    slots: Vec<Slot<T>>,
    /// First free slot, [`NIL`] when every slot holds an event.
    free: u32,
    /// Last slot of the open run, [`NIL`] when that run has drained.
    open: u32,
    /// The open run's instant.
    open_at: SimTime,
    /// `seq` of the next push.
    seq: u64,
    /// Queued events.
    len: usize,
}

impl<T> Queue<T> {
    /// An empty queue with room for `n` events before its tables grow.
    pub(super) fn with_capacity(n: usize) -> Self {
        Queue {
            runs: BinaryHeap::with_capacity(n),
            slots: Vec::with_capacity(n),
            free: NIL,
            open: NIL,
            open_at: SimTime::ZERO,
            seq: 0,
            len: 0,
        }
    }

    /// Queued events.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Instant of the first event, if any.
    pub(super) fn peek_at(&self) -> Option<SimTime> {
        self.runs.peek().map(|run| run.0.at)
    }

    /// Queues `event` at `at`, after every event already queued there.
    ///
    /// `push` and `pop` stay out of line: whether LLVM inlines them into
    /// `Network::run_until` otherwise depends on the size of the node
    /// callbacks inlined there, and inlined they made `bulk_transfer`
    /// 8–10 % slower (2 vCPUs of a Xeon @ 2.10 GHz, rustc 1.95).
    #[inline(never)]
    pub(super) fn push(&mut self, at: SimTime, event: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = Slot {
            event: Some(event),
            next: NIL,
        };
        let i = if self.free == NIL {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued events")
        } else {
            let i = self.free;
            self.free = std::mem::replace(&mut self.slots[i as usize], slot).next;
            i
        };
        if self.open != NIL && self.open_at == at {
            self.slots[self.open as usize].next = i;
        } else {
            self.runs.push(Reverse(Run { at, seq, head: i }));
            self.open_at = at;
        }
        self.open = i;
        self.len += 1;
    }

    /// Takes the first event: its instant, its `seq` and the event.
    #[inline(never)]
    pub(super) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let mut top = self.runs.peek_mut()?;
        let Run { at, seq, head } = top.0;
        let slot = &mut self.slots[head as usize];
        let event = slot.event.take().expect("a queued slot holds its event");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = head;
        if next == NIL {
            PeekMut::pop(top);
            if self.open == head {
                self.open = NIL;
            }
        } else {
            top.0.seq = seq + 1;
            top.0.head = next;
        }
        self.len -= 1;
        Some((at, seq, event))
    }
}
