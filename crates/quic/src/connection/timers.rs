//! Timers: the next deadline over loss detection, PTO, delayed ACKs,
//! handshake give-up and path validation, and what each does on expiry.

use rq_qlog::EventData;
use rq_sim::{SimDuration, SimTime};
use rq_wire::{Frame, FrameList, PacketNumberSpace};

use super::{space_name, Connection, Role, ERROR_GIVE_UP};
use crate::config::ProbePolicy;
use crate::space::Space;

impl Connection {
    /// The next timer deadline, if any.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        if self.is_closed() {
            return None;
        }
        let deadlines = [
            self.loss_time(),
            self.pto_deadline(),
            self.ack_deadline(),
            self.give_up_deadline(),
            self.paths.deadline(),
        ];
        deadlines.into_iter().flatten().min()
    }

    /// Absolute instant the client abandons an unfinished handshake
    /// (`give_up_after` on the config); `None` when the knob is off, the
    /// handshake already completed, or nothing was sent yet.
    fn give_up_deadline(&self) -> Option<SimTime> {
        if self.role != Role::Client || self.handshake_complete {
            return None;
        }
        let after = self.cfg.give_up_after?;
        Some(self.first_send_at? + after)
    }

    /// Abandons the handshake: silent close, nothing sent to a peer that
    /// is presumed dead or unreachable.
    fn give_up(&mut self, now: SimTime) {
        self.log.push(
            now,
            EventData::HandshakeAbandoned {
                pto_count: self.pto.count(),
            },
        );
        self.close(now, ERROR_GIVE_UP, "handshake give-up", false);
    }

    fn loss_time(&self) -> Option<SimTime> {
        self.spaces.iter().filter_map(|s| s.sent().loss_time).min()
    }

    fn ack_deadline(&self) -> Option<SimTime> {
        self.spaces.iter().filter_map(Space::ack_deadline).min()
    }

    /// PTO duration honoring the picoquic default-PTO quirk.
    fn pto_duration_for(&self, is_app: bool) -> SimDuration {
        if self.cfg.quirks.ignore_iack_rtt && !self.handshake_confirmed {
            self.pto.default_pto.mul(self.pto.backoff())
        } else {
            self.pto.pto_duration(&self.rtt, is_app)
        }
    }

    /// The armed space whose PTO expires first, with that deadline
    /// (RFC 9002 A.8); the lower space wins a tie.
    fn earliest_pto_space(&self) -> Option<(SimTime, PacketNumberSpace)> {
        let mut best: Option<(SimTime, PacketNumberSpace)> = None;
        for space in PacketNumberSpace::ALL {
            let is_app = space == PacketNumberSpace::Application;
            if is_app && !self.handshake_complete {
                continue; // app PTO only after handshake completes
            }
            if let Some(base) = self.spaces[space.index()].pto_base() {
                let d = base + self.pto_duration_for(is_app);
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, space));
                }
            }
        }
        best
    }

    /// The PTO deadline (RFC 9002 A.8 + the handshake-deadlock rule).
    fn pto_deadline(&self) -> Option<SimTime> {
        let mut earliest = self.earliest_pto_space().map(|(d, _)| d);
        // Deadlock prevention: a client with nothing in flight but an
        // unconfirmed handshake must keep probing (RFC 9002 §6.2.2.1).
        // mvfst/picoquic quirk: "receiving an instant ACK does not cause
        // the client to send probe packets" — the IACK neither re-arms the
        // timer nor shrinks it; the *default* PTO armed at the last
        // ack-eliciting send still runs (paper §4.1: their default client
        // PTO still expires in both WFC and IACK).
        if earliest.is_none() && self.role == Role::Client && !self.handshake_confirmed {
            let quirky = self.cfg.quirks.no_probe_after_iack && self.iack_received;
            if quirky {
                if let Some(base) = self.last_eliciting_send {
                    earliest = Some(base + self.pto.default_pto.mul(self.pto.backoff()));
                }
            } else if let Some(base) = self.last_activity {
                earliest = Some(base + self.pto_duration_for(false));
            }
        }
        earliest
    }

    /// Handles an expired timer at `now`.
    pub fn handle_timeout(&mut self, now: SimTime) {
        if self.is_closed() {
            return;
        }
        // 0. Handshake give-up deadline (checked first: an expired
        // deadline makes every other timer moot).
        if self.give_up_deadline().is_some_and(|gd| now >= gd) {
            self.give_up(now);
            return;
        }
        // 1. Time-threshold loss detection.
        if self.loss_time().is_some_and(|lt| now >= lt) {
            for space in PacketNumberSpace::ALL {
                let lost = self.spaces[space.index()].detect_lost(now, &self.rtt);
                let largest_acked = self.largest_acked_sent_time;
                self.on_packets_lost(now, space, &lost, &[], largest_acked);
            }
            self.log_cc_state(now);
            return;
        }
        // 2. Delayed ACK flush: mark every due ACK as overdue (sent at the
        // next transmit opportunity) and clear the deadline so a blocked
        // endpoint — e.g. an amplification-limited server — does not spin
        // re-arming a timer in the past.
        if self.ack_deadline().is_some_and(|ad| now >= ad) {
            for sp in &mut self.spaces {
                if sp.ack_deadline().is_some_and(|d| now >= d) {
                    sp.recv.ack_deadline = None;
                    sp.recv.ack_overdue = true;
                }
            }
            return;
        }
        // 3. Path-validation retry/abandon.
        if self.on_path_timeout(now) {
            return;
        }
        // 4. PTO.
        if self.pto_deadline().is_some_and(|pd| now >= pd) {
            self.on_pto(now);
            // Consecutive-PTO give-up: N expirations without forward
            // progress and the client stops probing a black hole.
            if self.role == Role::Client && !self.handshake_complete {
                if let Some(limit) = self.cfg.give_up_pto_count {
                    if self.pto.count() >= limit {
                        self.give_up(now);
                    }
                }
            }
        }
    }

    fn on_pto(&mut self, now: SimTime) {
        // Which space does this PTO belong to? Earliest armed space wins.
        let space = self.earliest_pto_space().map_or_else(
            || {
                // Deadlock-prevention probe: Initial until handshake keys exist.
                if self.spaces[1].usable() {
                    PacketNumberSpace::Handshake
                } else {
                    PacketNumberSpace::Initial
                }
            },
            |(_, space)| space,
        );
        let idx = space.index();
        self.pto.on_pto_expired();
        self.stats.pto_expirations += 1;
        self.log.push(
            now,
            EventData::PtoExpired {
                space: space_name(space),
                pto_count: self.pto.pto_count,
            },
        );
        // Queue probe content (RFC 9002 §6.2.4): retransmit oldest unacked
        // data when available, else PING.
        if !self.spaces[idx].requeue_oldest() {
            match self.cfg.probe_policy {
                ProbePolicy::Ping => {
                    self.spaces[idx].pending_pings += 1;
                }
                ProbePolicy::RetransmitOldest => {
                    if self.role == Role::Client
                        && space == PacketNumberSpace::Initial
                        && !self.initial_crypto_copy.is_empty()
                    {
                        // The paper's §5 improvement: resend the ClientHello
                        // instead of a PING so the server can recover.
                        self.spaces[idx].requeue(FrameList::from_iter([Frame::Crypto {
                            offset: 0,
                            data: self.initial_crypto_copy.clone(),
                        }]));
                    } else {
                        self.spaces[idx].pending_pings += 1;
                    }
                }
            }
        }
    }
}
