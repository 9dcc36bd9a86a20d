//! Shared server-side state for many concurrent connections.
//!
//! [`Connection`] is deliberately per-connection: it knows one peer, one
//! handshake, one request. A production QUIC terminator, though, hosts
//! thousands of those behind one listener that shares a ticket-key
//! schedule, a CPU budget, and a concurrency ceiling — the regime where
//! the paper's WFC/IACK trade-off turns into a server-cost question
//! (stateless instant ACKs are cheap; certificate flights and full
//! handshakes are not). [`ServerEngine`] is that shared layer: it accepts
//! or sheds incoming Initials, resolves each connection's ticket keys from
//! the template's rotating schedule at accept time, and folds per-class
//! handshake costs and queue-depth observations into a mergeable
//! [`ServerAccounting`].
//!
//! Everything here is deterministic: admission depends only on the
//! current active count, keys only on the schedule and the accept time,
//! so a sharded simulation reproduces one big server exactly.

use std::collections::BTreeMap;
use std::rc::Rc;

use rq_wire::ConnectionId;

use crate::config::EndpointConfig;
use crate::connection::Connection;

// Relative CPU cost of completing each handshake class, in units of one
// full handshake. The asymmetric signature + key exchange dominates a full
// handshake; PSK resumption replaces it with symmetric crypto, and an
// accepted 0-RTT handshake adds early-data key derivation on top of the
// PSK path.
/// Full 1-RTT handshake (certificate + CertificateVerify).
const COST_FULL: f64 = 1.0;
/// Abbreviated PSK handshake.
const COST_RESUMED: f64 = 0.3;
/// PSK handshake with accepted 0-RTT early data.
const COST_ZERO_RTT: f64 = 0.35;

/// Server-side aggregates across a connection population. Plain sums and
/// maxima, so shard accountings [`merge`](ServerAccounting::merge) into
/// the whole-server numbers in any grouping (the monoid the sharded
/// `run_server_load` fold relies on).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerAccounting {
    /// Initials that reached the listener (accepted + shed).
    pub arrivals: u64,
    /// Connections admitted.
    pub accepted: u64,
    /// Connections refused by the concurrency limit.
    pub shed: u64,
    /// Admitted connections retired as completed.
    pub completed: u64,
    /// Admitted connections retired without completing.
    pub failed: u64,
    /// Completed handshakes per class.
    pub full_handshakes: u64,
    /// Abbreviated (PSK) handshakes.
    pub resumed_handshakes: u64,
    /// Resumed handshakes that also accepted 0-RTT early data.
    pub zero_rtt_accepted: u64,
    /// Total handshake CPU cost, in full-handshake units.
    pub cpu_cost: f64,
    /// Highest concurrent-connection count observed.
    pub peak_active: u64,
    /// Sum of the active-connection count sampled at every arrival
    /// (the server's queue depth as new work shows up).
    pub depth_sum: u64,
    /// Number of depth samples (== arrivals).
    pub depth_samples: u64,
    /// Retired connections that hit the anti-amplification limit.
    pub amp_blocked_conns: u64,
    /// Arrivals answered with a stateless Retry because the server was
    /// at its limit (`RetryDefer` policy).
    pub retry_deferred: u64,
    /// Deferred arrivals later admitted with a valid token.
    pub retry_admitted: u64,
    /// Arrivals refused with an explicit busy close
    /// (`CloseWithBackoff` policy).
    pub busy_refused: u64,
    /// Server crash/restart events.
    pub crashes: u64,
    /// Connections whose state a crash dropped mid-flight.
    pub reset_conns: u64,
}

impl ServerAccounting {
    /// Folds another accounting into this one (shard merge).
    pub fn merge(&mut self, other: &ServerAccounting) {
        self.arrivals += other.arrivals;
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.completed += other.completed;
        self.failed += other.failed;
        self.full_handshakes += other.full_handshakes;
        self.resumed_handshakes += other.resumed_handshakes;
        self.zero_rtt_accepted += other.zero_rtt_accepted;
        self.cpu_cost += other.cpu_cost;
        self.peak_active = self.peak_active.max(other.peak_active);
        self.depth_sum += other.depth_sum;
        self.depth_samples += other.depth_samples;
        self.amp_blocked_conns += other.amp_blocked_conns;
        self.retry_deferred += other.retry_deferred;
        self.retry_admitted += other.retry_admitted;
        self.busy_refused += other.busy_refused;
        self.crashes += other.crashes;
        self.reset_conns += other.reset_conns;
    }

    /// Exports every counter into `reg` under `server/`. `cpu_cost` is
    /// scaled to integer milli-units so the registry stays a pure
    /// integer monoid; the active-connection peak is exported by
    /// [`ServerEngine::export_metrics`], which also knows the current
    /// level.
    pub fn export(&self, reg: &mut rq_obs::Registry) {
        let cpu_cost_milli = (self.cpu_cost * 1000.0).round() as u64;
        for (name, value) in [
            ("server/arrivals", self.arrivals),
            ("server/accepted", self.accepted),
            ("server/shed", self.shed),
            ("server/completed", self.completed),
            ("server/failed", self.failed),
            ("server/full_handshakes", self.full_handshakes),
            ("server/resumed_handshakes", self.resumed_handshakes),
            ("server/zero_rtt_accepted", self.zero_rtt_accepted),
            ("server/cpu_cost_milli", cpu_cost_milli),
            ("server/amp_blocked_conns", self.amp_blocked_conns),
            ("server/retry_deferred", self.retry_deferred),
            ("server/retry_admitted", self.retry_admitted),
            ("server/busy_refused", self.busy_refused),
            ("server/crashes", self.crashes),
            ("server/reset_conns", self.reset_conns),
        ] {
            reg.add(name, value);
        }
    }

    /// Mean active-connection count seen by arriving work.
    pub fn mean_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }
}

/// What an overloaded server does with an Initial it has no slot for.
///
/// The paper's load engine knew exactly one answer — drop it (`Shed`).
/// Production terminators have two more: answer with a stateless Retry
/// so the client validates its address now and re-knocks with a token
/// (`RetryDefer` — the Retry round trip doubles as an early RTT sample,
/// §5), or refuse explicitly so the client backs off and reconnects
/// later (`CloseWithBackoff`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the Initial statelessly; the client times out or gives up.
    #[default]
    Shed,
    /// Answer with a stateless Retry: no state is committed, the client
    /// gets a token (and an RTT sample) and keeps knocking until a slot
    /// frees — a cheap admission valve instead of a hard drop.
    RetryDefer,
    /// Answer with an explicit busy refusal; the client's reconnect
    /// policy (jittered exponential backoff) decides when to try again.
    CloseWithBackoff,
}

impl OverloadPolicy {
    /// Label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            OverloadPolicy::Shed => "shed",
            OverloadPolicy::RetryDefer => "retry-defer",
            OverloadPolicy::CloseWithBackoff => "close-backoff",
        }
    }
}

/// Admission decision for one arriving Initial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// A connection state machine was created.
    Accepted,
    /// Load shed: over the concurrency limit, the Initial is dropped
    /// statelessly (the cheapest thing a server can do with it).
    Shed,
    /// Over the limit under [`OverloadPolicy::RetryDefer`]: answer with
    /// a stateless Retry (tokenless arrivals) or keep the deferred
    /// client knocking (tokened revisits) — no state committed yet.
    RetryDefer,
    /// Over the limit under [`OverloadPolicy::CloseWithBackoff`]: answer
    /// with an explicit busy refusal.
    Busy,
}

struct ConnSlot {
    conn: Connection,
    costed: bool,
}

/// One server's shared state: the connection table, the admission policy,
/// the endpoint configuration with its ticket-key schedule, and the cost
/// accounting.
///
/// Connections are addressed by an opaque `u64` key chosen by the caller
/// (the testbed uses the peer's sim `NodeId` index — QUIC's "demux by
/// connection ID" collapsed to its essence: a simulated path change moves
/// a peer's datagrams to another link, never to another `NodeId`, so the
/// key a datagram arrives under is always its connection's).
pub struct ServerEngine {
    /// The configuration every accepted connection shares.
    template: Rc<EndpointConfig>,
    concurrency_limit: usize,
    /// What to do with arrivals beyond the limit.
    pub overload: OverloadPolicy,
    /// Ordered by key, so iterating it is deterministic. Slots are boxed:
    /// a tree node moves its entries on every split and merge, and a
    /// `Connection` is kilobytes.
    conns: BTreeMap<u64, Box<ConnSlot>>,
    /// Running aggregates.
    pub accounting: ServerAccounting,
}

impl ServerEngine {
    /// A server sharing `template` with each accepted connection (which
    /// holds the keys its ticket schedule has in force at accept time)
    /// and shedding arrivals beyond `concurrency_limit` active
    /// connections.
    pub fn new(template: EndpointConfig, concurrency_limit: usize) -> Self {
        ServerEngine {
            template: Rc::new(template),
            concurrency_limit: concurrency_limit.max(1),
            overload: OverloadPolicy::Shed,
            conns: BTreeMap::new(),
            accounting: ServerAccounting::default(),
        }
    }

    /// Replaces the overload admission policy (default: hard shed).
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Exports the engine's admission accounting plus an
    /// active-connection gauge (current level, observed peak) into `reg`
    /// under `server/`.
    pub fn export_metrics(&self, reg: &mut rq_obs::Registry) {
        self.accounting.export(reg);
        reg.gauge(
            "server/active_conns",
            self.conns.len() as i64,
            self.accounting.peak_active as i64,
        );
    }

    /// Keys of all active connections, in ascending order.
    pub fn active_keys(&self) -> Vec<u64> {
        self.conns.keys().copied().collect()
    }

    /// Admits or refuses a new connection whose first datagram carried
    /// `original_dcid`. `now_secs` (virtual seconds) selects the ticket
    /// key epoch the connection mints and accepts under.
    ///
    /// `has_token` marks an Initial carrying a Retry token; `revisit`
    /// marks a re-knock from a client this engine already answered with
    /// a Retry (deferred admission) — revisits don't count as new
    /// arrivals or depth samples.
    pub fn accept(
        &mut self,
        key: u64,
        conn_seed: u64,
        original_dcid: ConnectionId,
        now_secs: u64,
        has_token: bool,
        revisit: bool,
    ) -> AcceptOutcome {
        let depth = self.conns.len() as u64;
        if !revisit {
            self.accounting.arrivals += 1;
            self.accounting.depth_sum += depth;
            self.accounting.depth_samples += 1;
        }
        if self.conns.len() >= self.concurrency_limit {
            return match self.overload {
                OverloadPolicy::Shed => {
                    self.accounting.shed += 1;
                    AcceptOutcome::Shed
                }
                OverloadPolicy::RetryDefer => {
                    if !revisit {
                        self.accounting.retry_deferred += 1;
                    }
                    AcceptOutcome::RetryDefer
                }
                OverloadPolicy::CloseWithBackoff => {
                    self.accounting.busy_refused += 1;
                    AcceptOutcome::Busy
                }
            };
        }
        self.accounting.accepted += 1;
        if revisit && has_token {
            self.accounting.retry_admitted += 1;
        }
        let keys = self.template.ticket_keys.at(now_secs);
        let mut conn =
            Connection::accepted(keys, Rc::clone(&self.template), conn_seed, original_dcid);
        // A deferred client re-knocks with the token its Retry handed
        // out; the connection must expect (and validate) it so the
        // address counts as validated from the first packet.
        if has_token {
            conn.use_retry = true;
        }
        let slot = ConnSlot {
            conn,
            costed: false,
        };
        self.conns.insert(key, Box::new(slot));
        self.accounting.peak_active = self.accounting.peak_active.max(self.conns.len() as u64);
        AcceptOutcome::Accepted
    }

    /// The server process dies and restarts: every per-connection state
    /// machine is dropped on the floor (their clients get a
    /// stateless-reset-style signal from the caller, or time out), and
    /// with `forget_ticket_epochs` the restarted process also loses the
    /// previous ticket-key epochs, so outstanding tickets degrade to
    /// full handshakes. Returns the orphaned keys in ascending order.
    pub fn crash_and_restart(&mut self, forget_ticket_epochs: bool) -> Vec<u64> {
        let orphans: Vec<u64> = std::mem::take(&mut self.conns).into_keys().collect();
        self.accounting.crashes += 1;
        self.accounting.reset_conns += orphans.len() as u64;
        if forget_ticket_epochs {
            let cfg = Rc::make_mut(&mut self.template);
            cfg.ticket_keys = cfg.ticket_keys.forget_old_epochs();
        }
        orphans
    }

    /// The connection behind `key`, if active.
    pub fn conn_mut(&mut self, key: u64) -> Option<&mut Connection> {
        self.conns.get_mut(&key).map(|s| &mut s.conn)
    }

    /// Accrues the handshake cost for `key` once its handshake completed;
    /// safe to call repeatedly (the cost lands exactly once).
    pub fn note_handshake_outcome(&mut self, key: u64) {
        let Some(slot) = self.conns.get_mut(&key) else {
            return;
        };
        if slot.costed || !slot.conn.is_established() {
            return;
        }
        slot.costed = true;
        let resumed = slot.conn.is_resumed();
        let zero_rtt = slot.conn.early_data_accepted() == Some(true);
        if zero_rtt {
            self.accounting.zero_rtt_accepted += 1;
            self.accounting.cpu_cost += COST_ZERO_RTT;
        } else if resumed {
            self.accounting.resumed_handshakes += 1;
            self.accounting.cpu_cost += COST_RESUMED;
        } else {
            self.accounting.full_handshakes += 1;
            self.accounting.cpu_cost += COST_FULL;
        }
    }

    /// Removes `key` from the table, tallying it as completed or failed,
    /// and returns the connection for final inspection.
    pub fn retire(&mut self, key: u64, completed: bool) -> Option<Connection> {
        let slot = self.conns.remove(&key)?;
        if completed {
            self.accounting.completed += 1;
        } else {
            self.accounting.failed += 1;
        }
        // The counter and the `AmplificationBlocked` qlog event are
        // written together; the log may have been moved out by now.
        if slot.conn.stats().amp_stalls > 0 {
            self.accounting.amp_blocked_conns += 1;
        }
        Some(slot.conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_qlog::EventLog;
    use rq_sim::SimTime;
    use rq_tls::TicketKeySchedule;

    fn engine(limit: usize) -> ServerEngine {
        ServerEngine::new(with_schedule(TicketKeySchedule::fixed(7)), limit)
    }

    fn with_schedule(ticket_keys: TicketKeySchedule) -> EndpointConfig {
        EndpointConfig {
            ticket_keys,
            ..EndpointConfig::rfc_default()
        }
    }

    fn accepted_keys(e: &ServerEngine, now_secs: u64) -> usize {
        e.template.ticket_keys.at(now_secs).accepted().count()
    }

    fn dcid(n: u64) -> ConnectionId {
        ConnectionId::from_u64(n)
    }

    #[test]
    fn sheds_beyond_concurrency_limit() {
        let mut e = engine(2);
        assert_eq!(
            e.accept(1, 1, dcid(1), 0, false, false),
            AcceptOutcome::Accepted
        );
        assert_eq!(
            e.accept(2, 2, dcid(2), 0, false, false),
            AcceptOutcome::Accepted
        );
        assert_eq!(
            e.accept(3, 3, dcid(3), 0, false, false),
            AcceptOutcome::Shed
        );
        assert_eq!(e.conns.len(), 2);
        assert_eq!(e.accounting.arrivals, 3);
        assert_eq!(e.accounting.accepted, 2);
        assert_eq!(e.accounting.shed, 1);
        // Retiring frees a slot; the next arrival is admitted again.
        assert!(e.retire(1, true).is_some());
        assert_eq!(
            e.accept(4, 4, dcid(4), 0, false, false),
            AcceptOutcome::Accepted
        );
        assert_eq!(e.accounting.completed, 1);
    }

    #[test]
    fn depth_and_peak_tracking() {
        let mut e = engine(8);
        for k in 0..4u64 {
            e.accept(k, k, dcid(k), 0, false, false);
        }
        // Depth samples: 0,1,2,3 at the four arrivals.
        assert_eq!(e.accounting.depth_sum, 6);
        assert_eq!(e.accounting.mean_depth(), 1.5);
        assert_eq!(e.accounting.peak_active, 4);
        e.retire(0, false);
        assert_eq!(e.accounting.failed, 1);
        // Peak is a high-water mark; retirement doesn't lower it.
        assert_eq!(e.accounting.peak_active, 4);
    }

    #[test]
    fn handshake_cost_lands_once_and_only_when_established() {
        let mut e = engine(4);
        e.accept(1, 1, dcid(1), 0, false, false);
        // Handshake not complete: no cost.
        e.note_handshake_outcome(1);
        assert_eq!(e.accounting.cpu_cost, 0.0);
        assert_eq!(e.accounting.full_handshakes, 0);
        // Unknown keys are ignored.
        e.note_handshake_outcome(99);
        assert_eq!(e.accounting.cpu_cost, 0.0);
    }

    #[test]
    fn accounting_merge_is_a_sum_with_peak_max() {
        let mut a = ServerAccounting {
            arrivals: 10,
            accepted: 8,
            shed: 2,
            completed: 7,
            failed: 1,
            full_handshakes: 5,
            resumed_handshakes: 2,
            zero_rtt_accepted: 1,
            cpu_cost: 5.95,
            peak_active: 4,
            depth_sum: 12,
            depth_samples: 10,
            amp_blocked_conns: 1,
            retry_deferred: 3,
            retry_admitted: 2,
            busy_refused: 1,
            crashes: 1,
            reset_conns: 2,
        };
        let b = ServerAccounting {
            arrivals: 5,
            accepted: 5,
            peak_active: 9,
            depth_sum: 3,
            depth_samples: 5,
            retry_deferred: 1,
            reset_conns: 4,
            ..ServerAccounting::default()
        };
        a.merge(&b);
        assert_eq!(a.arrivals, 15);
        assert_eq!(a.accepted, 13);
        assert_eq!(a.peak_active, 9);
        assert_eq!(a.depth_samples, 15);
        assert_eq!(a.mean_depth(), 1.0);
        assert_eq!(a.retry_deferred, 4);
        assert_eq!(a.retry_admitted, 2);
        assert_eq!(a.crashes, 1);
        assert_eq!(a.reset_conns, 6);
    }

    #[test]
    fn retry_defer_answers_retry_then_admits_revisits() {
        let mut e = engine(1).with_overload_policy(OverloadPolicy::RetryDefer);
        assert_eq!(
            e.accept(1, 1, dcid(1), 0, false, false),
            AcceptOutcome::Accepted
        );
        // At the limit: deferred, no state committed.
        assert_eq!(
            e.accept(2, 2, dcid(2), 0, false, false),
            AcceptOutcome::RetryDefer
        );
        assert_eq!(e.conns.len(), 1);
        assert_eq!(e.accounting.retry_deferred, 1);
        assert_eq!(e.accounting.shed, 0);
        // Still full: the tokened revisit keeps knocking, uncounted.
        assert_eq!(
            e.accept(2, 2, dcid(2), 0, true, true),
            AcceptOutcome::RetryDefer
        );
        assert_eq!(e.accounting.arrivals, 2);
        assert_eq!(e.accounting.retry_deferred, 1);
        // A slot frees: the revisit is admitted with the token expected.
        e.retire(1, true);
        assert_eq!(
            e.accept(2, 2, dcid(2), 0, true, true),
            AcceptOutcome::Accepted
        );
        assert_eq!(e.accounting.retry_admitted, 1);
        assert!(e.conn_mut(2).unwrap().use_retry);
    }

    #[test]
    fn close_with_backoff_refuses_explicitly() {
        let mut e = engine(1).with_overload_policy(OverloadPolicy::CloseWithBackoff);
        assert_eq!(
            e.accept(1, 1, dcid(1), 0, false, false),
            AcceptOutcome::Accepted
        );
        assert_eq!(
            e.accept(2, 2, dcid(2), 0, false, false),
            AcceptOutcome::Busy
        );
        assert_eq!(e.accounting.busy_refused, 1);
        assert_eq!(e.accounting.shed, 0);
    }

    #[test]
    fn crash_drops_all_conns_in_sorted_key_order() {
        let mut e = engine(8);
        for k in [5u64, 1, 3] {
            e.accept(k, k, dcid(k), 0, false, false);
        }
        let orphans = e.crash_and_restart(false);
        assert_eq!(orphans, vec![1, 3, 5], "orphans must come out sorted");
        assert_eq!(e.conns.len(), 0);
        assert_eq!(e.accounting.crashes, 1);
        assert_eq!(e.accounting.reset_conns, 3);
        // The table is usable again immediately.
        assert_eq!(
            e.accept(7, 7, dcid(7), 0, false, false),
            AcceptOutcome::Accepted
        );
    }

    #[test]
    fn crash_can_forget_previous_ticket_epochs() {
        let schedule = TicketKeySchedule::rotating(99, 100, 2);
        let mut e = ServerEngine::new(with_schedule(schedule), 4);
        assert_eq!(accepted_keys(&e, 250), 3);
        e.crash_and_restart(true);
        // Only the current epoch survives the restart.
        assert_eq!(accepted_keys(&e, 250), 1);
        assert_eq!(
            e.template.ticket_keys.at(250).mint(),
            schedule.at(250).mint()
        );
    }

    #[test]
    fn retire_counts_amp_blocked_from_the_stall_counter() {
        // A 5 kB certificate flight against one 1,200-byte Initial hits
        // the 3x limit. The tally must not depend on the qlog still
        // being inside the connection (the full-detail runner moves it
        // out before retiring).
        let template = EndpointConfig {
            cert_len: rq_tls::CERT_LARGE,
            ..EndpointConfig::rfc_default()
        };
        let mut e = ServerEngine::new(template, 4);
        let mut client = Connection::client(EndpointConfig::rfc_default(), 1, false);
        let hello = client.poll_transmit(SimTime::ZERO).expect("client Initial");
        let first = rq_wire::Header::decode(&mut &hello[..], 8).unwrap().0;
        e.accept(1, 9, first.dcid, 0, false, false);
        let server = e.conn_mut(1).unwrap();
        server.handle_datagram_on_path(SimTime::ZERO, hello, 0, &mut rq_sim::Spares::default());
        while server.poll_event().is_some() {}
        server.certificate_ready(SimTime::ZERO);
        while server.poll_transmit(SimTime::ZERO).is_some() {}
        assert_eq!(server.stats().amp_stalls, 1);
        server.log = EventLog::default();
        e.retire(1, false);
        assert_eq!(e.accounting.amp_blocked_conns, 1);
        e.accept(2, 10, dcid(2), 0, false, false);
        e.retire(2, false);
        assert_eq!(
            e.accounting.amp_blocked_conns, 1,
            "an idle conn never stalled"
        );
    }

    #[test]
    fn epoch_keys_follow_the_schedule() {
        let e = ServerEngine::new(with_schedule(TicketKeySchedule::rotating(99, 100, 1)), 4);
        assert_eq!(e.template.ticket_keys.at(0).mint(), 99);
        assert_ne!(e.template.ticket_keys.at(250).mint(), 99);
        assert_eq!(accepted_keys(&e, 250), 2);
    }
}
