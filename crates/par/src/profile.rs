//! Wall-clock profiler for the sweep engine.
//!
//! A [`ProfileSink`] attached to a [`SweepRunner`](crate::SweepRunner)
//! records, per worker and per sweep, where the wall-clock goes:
//!
//! * **busy** — inside the caller's work closure;
//! * **claim** — taking chunks off the shared index queue (the
//!   queue-contention counter);
//! * **merge** — waiting on and holding the result-slot mutex;
//! * **idle** — the residual: spawn cost, the tail a worker spends
//!   waiting for the slowest sibling, and scope join.
//!
//! busy + claim + merge + idle always sums to `workers x wall` by
//! construction, so a report attributes 100% of the wall-clock to named
//! spans. Recording is wall-time only and never touches simulation
//! state: attaching a sink cannot change any deterministic output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Spans accumulated by one worker over one sweep.
#[derive(Debug, Default, Clone)]
pub(crate) struct WorkerSpans {
    pub busy_ns: u64,
    pub claim_ns: u64,
    pub merge_ns: u64,
    pub chunks: Vec<usize>,
}

/// Collects sweep-engine spans. Shared by reference with every worker;
/// all recording is atomic adds plus one mutex push per worker per
/// sweep, so the probe cost is far below what it measures.
#[derive(Debug, Default)]
pub struct ProfileSink {
    sweeps: AtomicU64,
    /// Sum over sweeps of the sweep's wall time.
    wall_ns: AtomicU64,
    /// Sum over sweeps of `workers x wall` — the denominator every
    /// span share is computed against.
    worker_wall_ns: AtomicU64,
    workers: Mutex<Vec<WorkerSpans>>,
}

impl ProfileSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_worker(&self, spans: WorkerSpans) {
        self.workers.lock().unwrap().push(spans);
    }

    pub(crate) fn record_sweep(&self, wall: Duration, workers: usize) {
        let ns = wall.as_nanos() as u64;
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.wall_ns.fetch_add(ns, Ordering::Relaxed);
        self.worker_wall_ns
            .fetch_add(ns * workers as u64, Ordering::Relaxed);
    }

    /// Snapshot the accumulated spans into a report.
    pub fn report(&self) -> ProfileReport {
        let workers = self.workers.lock().unwrap();
        let mut busy_ns = 0u64;
        let mut claim_ns = 0u64;
        let mut merge_ns = 0u64;
        let mut claims = 0u64;
        let mut chunk_min = usize::MAX;
        let mut chunk_max = 0usize;
        let mut chunk_items = 0u64;
        for w in workers.iter() {
            busy_ns += w.busy_ns;
            claim_ns += w.claim_ns;
            merge_ns += w.merge_ns;
            claims += w.chunks.len() as u64;
            for &c in &w.chunks {
                chunk_min = chunk_min.min(c);
                chunk_max = chunk_max.max(c);
                chunk_items += c as u64;
            }
        }
        let worker_wall_ns = self.worker_wall_ns.load(Ordering::Relaxed);
        let idle_ns = worker_wall_ns.saturating_sub(busy_ns + claim_ns + merge_ns);
        ProfileReport {
            sweeps: self.sweeps.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            worker_wall_ns,
            busy_ns,
            claim_ns,
            merge_ns,
            idle_ns,
            claims,
            chunk_min: if claims == 0 { 0 } else { chunk_min },
            chunk_max,
            chunk_items,
        }
    }
}

/// Aggregated span totals for everything a sink observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub sweeps: u64,
    /// Wall time summed over sweeps.
    pub wall_ns: u64,
    /// `workers x wall` summed over sweeps; busy + claim + merge +
    /// idle equals this by construction.
    pub worker_wall_ns: u64,
    pub busy_ns: u64,
    pub claim_ns: u64,
    pub merge_ns: u64,
    /// Residual: spawn, join, and end-of-sweep tail waiting.
    pub idle_ns: u64,
    /// Chunk claims taken off the index queue.
    pub claims: u64,
    pub chunk_min: usize,
    pub chunk_max: usize,
    /// Total items across all claimed chunks.
    pub chunk_items: u64,
}

impl ProfileReport {
    /// Fraction of `workers x wall` covered by the named spans
    /// (busy/claim/merge/idle). 1.0 by construction unless nothing ran.
    pub fn attributed_share(&self) -> f64 {
        if self.worker_wall_ns == 0 {
            return 0.0;
        }
        (self.busy_ns + self.claim_ns + self.merge_ns + self.idle_ns) as f64
            / self.worker_wall_ns as f64
    }
}
