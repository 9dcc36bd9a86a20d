//! A connection's paths (RFC 9000 §8, §9): every path it has used and
//! which one is active, the anti-amplification budget over them, the
//! connection IDs it rotates through, and path validation. [`Paths`] owns
//! all of that state; the rest of the connection reaches it through the
//! methods here.

use std::ops::Range;

use rq_qlog::EventData;
use rq_recovery::{CcState, RttEstimator, RttVariant};
use rq_sim::{SimDuration, SimRng, SimTime};
use rq_wire::{ConnectionId, Frame, FrameList};

use super::{derived_cid, Connection, Role, CID_KIND_CLIENT, CID_KIND_SERVER};
use crate::config::MAX_ACK_DELAY;

/// Stream tag for PATH_CHALLENGE probe data.
const CHALLENGE_STREAM: u64 = 0xCA_11E;

/// Path validation gives up after this many challenge retransmissions.
pub(super) const PATH_CHALLENGE_MAX_RETRIES: u32 = 3;

/// Per-path accounting and validation state (RFC 9000 §9). Path 0 is the
/// handshake path: its `validated` is the handshake's address validation
/// (RFC 9000 §8.1), which a client starts with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathState {
    /// Path id (the simulator's link path).
    pub id: u64,
    /// Bytes sent while this path was active.
    pub bytes_sent: usize,
    /// Bytes received on this path.
    pub bytes_received: usize,
    /// The peer's address is validated on this path: by the handshake on
    /// path 0, by a PATH_RESPONSE (or by following the route) elsewhere.
    pub validated: bool,
    /// Validation abandoned after exhausting challenge retries.
    pub abandoned: bool,
}

/// An in-flight PATH_CHALLENGE (one at a time; a new migration replaces
/// any outstanding probe).
struct PathChallengeState {
    /// Random probe data the response must echo (RFC 9000 §8.2.1).
    data: u64,
    /// Path being validated.
    path: u64,
    /// When the current attempt times out.
    deadline: SimTime,
    /// Retransmissions so far.
    retries: u32,
    /// The frame for the current attempt has not left yet.
    needs_send: bool,
}

/// Every path of one connection, with the connection IDs and probes that
/// move it between them.
#[derive(Default)]
pub(super) struct Paths {
    /// Path 0, held inline: a connection that never migrates allocates
    /// nothing for its paths.
    first: PathState,
    /// Paths seen after a migration, in order of first use.
    others: Vec<PathState>,
    /// Path id of the currently active path.
    active_path: u64,
    /// Seed all locally derived CIDs and challenge data come from.
    cid_seed: u64,
    /// Spare CIDs the peer announced via NEW_CONNECTION_ID: (seq, cid),
    /// not yet rotated to.
    peer_cid_pool: Vec<(u64, ConnectionId)>,
    /// Sequence number of the peer CID currently in use.
    peer_cid_seq: u64,
    /// Sequence numbers of the NEW_CONNECTION_ID announcements owed to
    /// the peer.
    pending_new_cids: Range<u64>,
    /// RETIRE_CONNECTION_ID frames owed to the peer.
    pending_retire_cids: Vec<u64>,
    /// PATH_RESPONSE data owed (echo of a received PATH_CHALLENGE).
    pending_path_response: Option<u64>,
    /// Outstanding path validation, if any.
    path_challenge: Option<PathChallengeState>,
    /// Amplification-blocked diagnostic latch (one event per stall).
    amp_blocked_logged: bool,
}

impl Paths {
    /// A connection's paths at birth: path 0 only, validated for a client
    /// (clients are never amplification-limited).
    pub(super) fn new(role: Role, cid_seed: u64) -> Self {
        let first = PathState {
            validated: role == Role::Client,
            ..PathState::default()
        };
        Paths {
            first,
            cid_seed,
            ..Paths::default()
        }
    }

    pub(super) fn active(&self) -> u64 {
        self.active_path
    }

    fn get(&self, id: u64) -> Option<&PathState> {
        std::iter::once(&self.first)
            .chain(&self.others)
            .find(|p| p.id == id)
    }

    fn ensure(&mut self, id: u64) -> &mut PathState {
        if self.first.id == id {
            return &mut self.first;
        }
        let i = match self.others.iter().position(|p| p.id == id) {
            Some(i) => i,
            None => {
                self.others.push(PathState {
                    id,
                    ..PathState::default()
                });
                self.others.len() - 1
            }
        };
        &mut self.others[i]
    }

    /// Books a datagram sent on the active path.
    pub(super) fn on_sent(&mut self, len: usize) {
        self.ensure(self.active_path).bytes_sent += len;
    }

    /// Books a datagram received on `path`; new bytes re-arm the
    /// amplification-blocked diagnostic.
    pub(super) fn on_received(&mut self, path: u64, len: usize) {
        self.ensure(path).bytes_received += len;
        self.amp_blocked_logged = false;
    }

    /// The handshake validated the peer's address: a Retry token, or a
    /// Handshake packet, proves it (RFC 9000 §8.1).
    pub(super) fn validate_address(&mut self) {
        self.first.validated = true;
    }

    /// `true` the first time the send path stalls on the budget since
    /// bytes last arrived or a path was validated: one diagnostic per
    /// stall.
    pub(super) fn latch_amp_stall(&mut self) -> bool {
        !std::mem::replace(&mut self.amp_blocked_logged, true)
    }

    /// When the outstanding PATH_CHALLENGE times out.
    pub(super) fn deadline(&self) -> Option<SimTime> {
        self.path_challenge.as_ref().map(|c| c.deadline)
    }

    /// Whether a PATH_* or CID frame is owed to the peer.
    pub(super) fn wants_to_send(&self) -> bool {
        self.pending_path_response.is_some()
            || self.path_challenge.as_ref().is_some_and(|c| c.needs_send)
            || !self.pending_retire_cids.is_empty()
            || !self.pending_new_cids.is_empty()
    }

    /// Queues the spare-CID pool the peer rotates through on migration
    /// (RFC 9000 §5.1.1): `count` CIDs after seq 0, the handshake CID.
    pub(super) fn announce_cids(&mut self, count: usize) {
        self.pending_new_cids = 1..count as u64 + 1;
    }

    /// Arms attempt `retries` of the challenge on `path`: fresh probe
    /// data, due after the default PTO with exponential backoff (the path
    /// has no RTT samples yet, so the pre-sample PTO is the right scale).
    fn arm_challenge(&mut self, now: SimTime, path: u64, retries: u32, pto: SimDuration) {
        let mut rng = SimRng::derive(self.cid_seed, &[CHALLENGE_STREAM, path, retries as u64]);
        self.path_challenge = Some(PathChallengeState {
            data: rng.next_u64(),
            path,
            deadline: now + pto.mul(1u64 << retries.min(6)),
            retries,
            needs_send: true,
        });
    }

    /// Moves to an unused peer-issued CID (RFC 9000 §9.5), retiring the
    /// one in use; `None` when the peer announced no spare.
    fn rotate_peer_cid(&mut self) -> Option<ConnectionId> {
        let pos = self
            .peer_cid_pool
            .iter()
            .position(|(s, _)| *s > self.peer_cid_seq)?;
        let (seq, cid) = self.peer_cid_pool.remove(pos);
        self.pending_retire_cids.push(self.peer_cid_seq);
        self.peer_cid_seq = seq;
        Some(cid)
    }
}

impl Connection {
    /// Bytes of amplification budget remaining; `usize::MAX` once nothing
    /// caps the active path. Two rules:
    /// - a server's unvalidated active path other than path 0 (a path the
    ///   peer moved to) is capped at 3× the bytes received on it, exactly
    ///   like a fresh Initial (RFC 9000 §9.3.1), whatever the old path's
    ///   validation;
    /// - otherwise, until the handshake validates the peer's address (path
    ///   0's `validated`), 3× the bytes received on all paths caps the
    ///   bytes sent on all of them (RFC 9000 §8.1).
    pub fn amplification_budget(&self) -> usize {
        let paths = &self.paths;
        if self.role == Role::Server && paths.active_path != 0 {
            if let Some(p) = paths.get(paths.active_path).filter(|p| !p.validated) {
                return (3 * p.bytes_received).saturating_sub(p.bytes_sent);
            }
        }
        if paths.first.validated {
            return usize::MAX;
        }
        let all = std::iter::once(&paths.first).chain(&paths.others);
        let (received, sent) =
            all.fold((0, 0), |(r, s), p| (r + p.bytes_received, s + p.bytes_sent));
        (3 * received).saturating_sub(sent)
    }

    /// Path id of the currently active path (0 = handshake path).
    pub fn active_path(&self) -> u64 {
        self.paths.active_path
    }

    /// Accounting entry for one path, if it ever carried traffic (path 0
    /// always has one).
    pub fn path_state(&self, id: u64) -> Option<&PathState> {
        self.paths.get(id)
    }

    /// Whether a PATH_CHALLENGE is still awaiting its response.
    pub fn path_validation_pending(&self) -> bool {
        self.paths.path_challenge.is_some()
    }

    /// Client API: deliberately migrate to `path`. Rotates the DCID to a
    /// spare CID from the peer's pool (retiring the old one so packets on
    /// the two paths are not linkable), and on a path not yet validated
    /// resets RTT and congestion state (§9.4) and starts PATH_CHALLENGE
    /// validation. No-ops before the handshake completes or when already
    /// on `path`.
    pub fn migrate(&mut self, now: SimTime, path: u64) {
        if self.is_closed() || !self.handshake_complete || path == self.paths.active_path {
            return;
        }
        self.enter_path(now, path, true);
        if let Some(cid) = self.paths.rotate_peer_cid() {
            self.peer_cid = cid;
            self.stats.cid_rotations += 1;
        }
    }

    /// A datagram arrived on `path`. A server that can migrate treats a
    /// new path as the peer moving — a NAT rebind or a migration it was
    /// not told about — and caps and probes it (§9.3); everyone else
    /// simply follows the route: their sends already ride the rebound
    /// link. A followed path is exempt from the per-path cap, and path
    /// 0's `validated` stays the handshake's to set.
    pub(super) fn follow_datagram_path(&mut self, now: SimTime, path: u64) {
        if path == self.paths.active_path {
            return;
        }
        if self.role == Role::Server && self.cfg.cid_pool > 0 && self.handshake_complete {
            self.enter_path(now, path, false);
        } else {
            self.paths.active_path = path;
            if path != 0 {
                self.paths.ensure(path).validated = true;
            }
        }
    }

    /// Makes `path` the active path; a path not yet validated restarts
    /// RTT and congestion state and gets a PATH_CHALLENGE.
    fn enter_path(&mut self, now: SimTime, path: u64, deliberate: bool) {
        self.paths.active_path = path;
        let validated = self.paths.ensure(path).validated;
        self.log
            .push(now, EventData::MigrationStarted { path, deliberate });
        if !validated {
            self.reset_path_metrics();
            self.paths.arm_challenge(now, path, 0, self.cfg.default_pto);
        }
    }

    /// Appends the owed PATH_* and CID frames that fit an application
    /// packet: challenge and response first (time-critical), then CID
    /// bookkeeping. `used` counts the payload bytes already planned.
    pub(super) fn push_path_frames(
        &mut self,
        now: SimTime,
        max_payload: usize,
        used: &mut usize,
        frames: &mut FrameList,
    ) {
        let paths = &mut self.paths;
        if *used + 9 <= max_payload {
            if let Some(data) = paths.pending_path_response.take() {
                frames.push(Frame::PathResponse { data });
                *used += 9;
            }
        }
        let room = *used + 9 <= max_payload;
        if let Some(ch) = paths
            .path_challenge
            .as_mut()
            .filter(|c| c.needs_send && room)
        {
            ch.needs_send = false;
            frames.push(Frame::PathChallenge { data: ch.data });
            *used += 9;
            self.log
                .push(now, EventData::PathChallengeSent { path: ch.path });
        }
        while !paths.pending_retire_cids.is_empty() && *used + 2 <= max_payload {
            let seq = paths.pending_retire_cids.remove(0);
            frames.push(Frame::RetireConnectionId { seq });
            *used += 2;
        }
        while !paths.pending_new_cids.is_empty() && *used + 30 <= max_payload {
            let seq = paths.pending_new_cids.start;
            paths.pending_new_cids.start += 1;
            let kind = match self.role {
                Role::Client => CID_KIND_CLIENT,
                Role::Server => CID_KIND_SERVER,
            };
            let cid = derived_cid(paths.cid_seed, kind, seq);
            frames.push(Frame::NewConnectionId {
                seq,
                retire_prior_to: 0,
                cid: cid.as_slice().to_vec(),
            });
            *used += 30;
        }
    }

    /// Handles a received NEW_CONNECTION_ID, RETIRE_CONNECTION_ID,
    /// PATH_CHALLENGE or PATH_RESPONSE; any other frame changes nothing.
    /// An endpoint that never migrates (`cid_pool` 0) ignores the peer's
    /// CID announcements.
    pub(super) fn on_path_frame(&mut self, now: SimTime, frame: &Frame) {
        let paths = &mut self.paths;
        let migrates = self.cfg.cid_pool > 0;
        match frame {
            // Bank a new spare CID for rotation on migration.
            Frame::NewConnectionId { seq, cid, .. }
                if migrates && !paths.peer_cid_pool.iter().any(|(s, _)| s == seq) =>
            {
                if let Ok(c) = ConnectionId::new(cid) {
                    paths.peer_cid_pool.push((*seq, c));
                }
            }
            Frame::RetireConnectionId { seq } if migrates => {
                self.log.push(now, EventData::CidRetired { seq: *seq });
            }
            Frame::PathChallenge { data } => {
                // Echo back on our next send (RFC 9000 §8.2.2).
                paths.pending_path_response = Some(*data);
            }
            Frame::PathResponse { data } => {
                // A stale echo of an older probe keeps the challenge waiting.
                if let Some(ch) = paths.path_challenge.take_if(|ch| ch.data == *data) {
                    paths.ensure(ch.path).validated = true;
                    self.log
                        .push(now, EventData::PathValidated { path: ch.path });
                    paths.amp_blocked_logged = false;
                }
            }
            _ => {}
        }
    }

    /// Runs the PATH_CHALLENGE timer: an attempt whose deadline has come
    /// is retransmitted with fresh probe data, or after the last retry
    /// the path is abandoned (§8.2.4). `false` when nothing was due.
    pub(super) fn on_path_timeout(&mut self, now: SimTime) -> bool {
        let paths = &mut self.paths;
        let Some(ch) = paths.path_challenge.take_if(|c| now >= c.deadline) else {
            return false;
        };
        if ch.retries < PATH_CHALLENGE_MAX_RETRIES {
            paths.arm_challenge(now, ch.path, ch.retries + 1, self.cfg.default_pto);
        } else {
            paths.ensure(ch.path).abandoned = true;
            self.log
                .push(now, EventData::PathAbandoned { path: ch.path });
        }
        true
    }

    /// RFC 9000 §9.4: RTT and congestion state do not carry over to a new
    /// path; both restart from initial values.
    fn reset_path_metrics(&mut self) {
        let mut rtt = RttEstimator::new(MAX_ACK_DELAY);
        if self.cfg.quirks.aioquic_rttvar {
            rtt = rtt.with_variant(RttVariant::AioquicOrder);
        }
        self.rtt = rtt;
        self.cc = self.cfg.cc_algorithm.build();
        self.last_cc_state = CcState::SlowStart;
    }
}

#[cfg(test)]
impl Paths {
    /// The peer's spare CIDs, not yet rotated to.
    pub(super) fn spare_peer_cids(&self) -> &[(u64, ConnectionId)] {
        &self.peer_cid_pool
    }

    /// The probe data of the outstanding PATH_CHALLENGE.
    pub(super) fn outstanding_probe(&self) -> Option<u64> {
        self.path_challenge.as_ref().map(|c| c.data)
    }
}
