//! Connection migration and path validation (RFC 9000 §8.2, §9), and the
//! per-path anti-amplification budget.

use rq_qlog::EventData;
use rq_recovery::{CcState, RttEstimator, RttVariant};
use rq_sim::{SimDuration, SimRng, SimTime};

use super::{Connection, PathChallengeState, PathState, Role};

/// Stream tag for PATH_CHALLENGE probe data.
const CHALLENGE_STREAM: u64 = 0xCA_11E;

/// Path validation gives up after this many challenge retransmissions.
pub(super) const PATH_CHALLENGE_MAX_RETRIES: u32 = 3;

impl Connection {
    /// Bytes of amplification budget remaining (servers before address
    /// validation); `usize::MAX` once validated. After a migration the
    /// limit applies *per path*: an unvalidated new path is capped at 3×
    /// the bytes received on it, exactly like a fresh Initial
    /// (RFC 9000 §9.3.1), regardless of the old path's validation.
    pub fn amplification_budget(&self) -> usize {
        if self.role == Role::Server && self.active_path != 0 {
            if let Some(p) = self.paths.iter().find(|p| p.id == self.active_path) {
                if !p.validated {
                    return (3 * p.bytes_received).saturating_sub(p.bytes_sent);
                }
            }
        }
        if self.address_validated {
            usize::MAX
        } else {
            (3 * self.bytes_received).saturating_sub(self.bytes_sent)
        }
    }

    /// Path id of the currently active path (0 = handshake path).
    pub fn active_path(&self) -> u64 {
        self.active_path
    }

    /// Per-path accounting entries (non-default paths only).
    pub fn paths(&self) -> &[PathState] {
        &self.paths
    }

    /// Accounting entry for one path, if it ever carried traffic.
    pub fn path_state(&self, id: u64) -> Option<&PathState> {
        self.paths.iter().find(|p| p.id == id)
    }

    /// Whether a PATH_CHALLENGE is still awaiting its response.
    pub fn path_validation_pending(&self) -> bool {
        self.path_challenge.is_some()
    }

    pub(super) fn ensure_path(&mut self, id: u64) -> &mut PathState {
        if let Some(i) = self.paths.iter().position(|p| p.id == id) {
            return &mut self.paths[i];
        }
        self.paths.push(PathState {
            id,
            bytes_sent: 0,
            bytes_received: 0,
            validated: false,
            abandoned: false,
        });
        self.paths.last_mut().unwrap()
    }

    /// Client API: deliberately migrate to `path`. Rotates the DCID to a
    /// spare CID from the peer's pool (retiring the old one so packets on
    /// the two paths are not linkable), resets RTT and congestion state
    /// for the new path (§9.4), and starts PATH_CHALLENGE validation.
    /// No-ops before the handshake completes or when already on `path`.
    pub fn migrate(&mut self, now: SimTime, path: u64) {
        if self.closed || !self.handshake_complete || path == self.active_path {
            return;
        }
        self.active_path = path;
        let already_validated = self.ensure_path(path).validated;
        self.log.push(
            now,
            EventData::MigrationStarted {
                path,
                deliberate: true,
            },
        );
        // Rotate to an unused peer-issued CID (RFC 9000 §9.5).
        if let Some(pos) = self
            .peer_cid_pool
            .iter()
            .position(|(s, _)| *s > self.peer_cid_seq)
        {
            let (seq, cid) = self.peer_cid_pool.remove(pos);
            self.pending_retire_cids.push(self.peer_cid_seq);
            self.peer_cid = cid;
            self.peer_cid_seq = seq;
            self.stats.cid_rotations += 1;
        }
        if !already_validated {
            self.reset_path_metrics();
            self.start_path_challenge(now, path);
        }
    }

    /// Server side: the peer's packets started arriving on a new path —
    /// a NAT rebind or a migration we were not told about. Adopt the
    /// path, cap it at 3× until validated, and probe it (§9.3).
    pub(super) fn on_peer_path_switch(&mut self, now: SimTime, path: u64) {
        self.active_path = path;
        let already_validated = path == 0 || self.ensure_path(path).validated;
        self.log.push(
            now,
            EventData::MigrationStarted {
                path,
                deliberate: false,
            },
        );
        if !already_validated {
            self.reset_path_metrics();
            self.start_path_challenge(now, path);
        }
    }

    /// RFC 9000 §9.4: RTT and congestion state do not carry over to a new
    /// path; both restart from initial values.
    fn reset_path_metrics(&mut self) {
        let mut rtt = RttEstimator::new(self.cfg.max_ack_delay);
        if self.cfg.quirks.aioquic_rttvar {
            rtt = rtt.with_variant(RttVariant::AioquicOrder);
        }
        self.rtt = rtt;
        self.cc = self.cfg.cc_algorithm.build();
        self.last_cc_state = CcState::SlowStart;
    }

    fn start_path_challenge(&mut self, now: SimTime, path: u64) {
        let mut rng = SimRng::derive(self.cid_seed, &[CHALLENGE_STREAM, path, 0]);
        self.path_challenge = Some(PathChallengeState {
            data: rng.next_u64(),
            path,
            deadline: now + self.challenge_timeout(0),
            retries: 0,
            needs_send: true,
        });
    }

    /// Challenge timeout: default PTO with exponential backoff (the path
    /// has no RTT samples yet, so the pre-sample PTO is the right scale).
    fn challenge_timeout(&self, retries: u32) -> SimDuration {
        self.cfg.default_pto.mul(1u64 << retries.min(6))
    }

    /// An outstanding PATH_CHALLENGE timed out: retransmit with fresh
    /// probe data, or abandon the path after exhausting retries (§8.2.4).
    pub(super) fn on_path_challenge_timeout(&mut self, now: SimTime) {
        let Some(mut ch) = self.path_challenge.take() else {
            return;
        };
        if ch.retries >= PATH_CHALLENGE_MAX_RETRIES {
            let path = ch.path;
            self.ensure_path(path).abandoned = true;
            self.log.push(now, EventData::PathAbandoned { path });
            return;
        }
        ch.retries += 1;
        let mut rng = SimRng::derive(
            self.cid_seed,
            &[CHALLENGE_STREAM, ch.path, ch.retries as u64],
        );
        ch.data = rng.next_u64();
        ch.deadline = now + self.challenge_timeout(ch.retries);
        ch.needs_send = true;
        self.path_challenge = Some(ch);
    }
}
