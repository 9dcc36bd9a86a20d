//! What a server-load run reports: the server's accounting, the latency
//! tails and the fate tallies, each a monoid under `merge`, which is
//! what the sharded runner folds.

use rq_quic::ServerAccounting;

use super::{ConnFate, ConnOutcome};
use crate::stats::LatencyHistogram;

/// Server-side aggregate report: admission/cost accounting plus
/// completed-connection latency tails. A monoid under [`merge`]
/// (`ServerLoadReport::merge`), which is what the sharded runner folds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerLoadReport {
    /// The engine's admission, handshake-class, and CPU-cost tallies.
    pub accounting: ServerAccounting,
    /// TTFB across completed connections.
    pub ttfb: LatencyHistogram,
    /// Handshake-completion latency across completed connections.
    pub handshake: LatencyHistogram,
    /// Arrival-to-response latency across served connections, reconnect
    /// time included.
    pub time_to_success: LatencyHistogram,
    /// Data-phase (TTFB → last byte) latency across completed
    /// connections.
    pub download: LatencyHistogram,
    /// Goodput across completed connections, in Mbit/s (the histogram's
    /// "ms" buckets hold Mbps values).
    pub goodput: LatencyHistogram,
    /// Per-fate tallies (the failure taxonomy; sums to the plan count).
    pub fates: FateTally,
    /// Total completed reconnect attempts across the population.
    pub reconnects: u64,
    /// Connections that ended on a migrated path.
    pub migrated: u64,
    /// Deterministic metrics snapshot: sim-engine event/drop tallies and
    /// per-space QUIC counters under `sim/`, `server/`, `quic/`,
    /// plus the `load/lost_per_conn` histogram. Merges as a monoid, so
    /// the snapshot is identical at any `REACKED_THREADS`.
    pub metrics: rq_obs::Registry,
}

/// Counts of connections per terminal fate. A monoid under `merge`, so
/// availability survives sharding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FateTally {
    /// Served on the first admission.
    pub completed: u64,
    /// Retry-deferred, then admitted and served.
    pub retried_then_accepted: u64,
    /// Refused admission (silent shed or busy close).
    pub shed: u64,
    /// Client abandoned the handshake (give-up budget).
    pub gave_up: u64,
    /// Dropped by a server crash and never recovered.
    pub reset: u64,
    /// Admitted but never completed.
    pub failed: u64,
}

impl FateTally {
    /// Tallies one fate.
    pub fn record(&mut self, fate: ConnFate) {
        match fate {
            ConnFate::Completed => self.completed += 1,
            ConnFate::RetriedThenAccepted => self.retried_then_accepted += 1,
            ConnFate::Shed => self.shed += 1,
            ConnFate::GaveUp => self.gave_up += 1,
            ConnFate::Reset => self.reset += 1,
            ConnFate::Failed => self.failed += 1,
        }
    }

    /// Total connections tallied.
    pub fn total(&self) -> u64 {
        self.completed
            + self.retried_then_accepted
            + self.shed
            + self.gave_up
            + self.reset
            + self.failed
    }

    /// Served fraction: connections that got their response, however
    /// many Retries or reconnects it took.
    pub fn availability(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.completed + self.retried_then_accepted) as f64 / total as f64
    }

    /// Elementwise sum (shard merge).
    pub fn merge(&mut self, other: &FateTally) {
        self.completed += other.completed;
        self.retried_then_accepted += other.retried_then_accepted;
        self.shed += other.shed;
        self.gave_up += other.gave_up;
        self.reset += other.reset;
        self.failed += other.failed;
    }
}

impl ServerLoadReport {
    /// Folds one connection outcome into the tallies and histograms.
    pub fn record(&mut self, o: &ConnOutcome) {
        self.fates.record(o.fate);
        self.reconnects += o.reconnects as u64;
        if o.migrated {
            self.migrated += 1;
        }
        if matches!(o.fate, ConnFate::Completed | ConnFate::RetriedThenAccepted) {
            if let Some(ms) = o.ttfb_ms {
                self.ttfb.record(ms);
            }
            if let Some(ms) = o.handshake_ms {
                self.handshake.record(ms);
            }
            if let Some(ms) = o.time_to_success_ms {
                self.time_to_success.record(ms);
            }
            if let Some(ms) = o.download_complete_ms {
                self.download.record(ms);
            }
            if let Some(mbps) = o.goodput_mbps {
                self.goodput.record(mbps);
            }
        }
        self.metrics
            .add("load/client_pto_expirations", o.pto_expirations);
        self.metrics
            .add("load/client_packets_lost", o.client_packets_lost);
        self.metrics
            .add("load/server_packets_lost", o.server_packets_lost);
        self.metrics
            .observe("load/lost_per_conn", o.client_packets_lost);
    }

    /// Folds another report into this one (shard merge).
    pub fn merge(&mut self, other: &ServerLoadReport) {
        self.accounting.merge(&other.accounting);
        self.ttfb.merge(&other.ttfb);
        self.handshake.merge(&other.handshake);
        self.time_to_success.merge(&other.time_to_success);
        self.download.merge(&other.download);
        self.goodput.merge(&other.goodput);
        self.fates.merge(&other.fates);
        self.reconnects += other.reconnects;
        self.migrated += other.migrated;
        self.metrics.merge(&other.metrics);
    }
}
