//! Timers: the next deadline over loss detection, PTO, delayed ACKs,
//! handshake give-up and path validation, and what each does on expiry.

use rq_qlog::EventData;
use rq_sim::{SimDuration, SimTime};
use rq_wire::{Frame, FrameList, PacketNumberSpace};

use super::{space_in, space_name, Connection, Role, ERROR_GIVE_UP};
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
        Some(self.handshake.as_ref()?.first_send_at? + after)
    }

    /// Abandons the handshake: silent close, nothing sent to a peer that
    /// is presumed dead or unreachable.
    fn give_up(&mut self, now: SimTime) {
        let pto_count = self.pto.count();
        self.log
            .push(now, EventData::HandshakeAbandoned { pto_count });
        self.close(now, ERROR_GIVE_UP, "handshake give-up", false);
    }

    fn loss_time(&self) -> Option<SimTime> {
        self.spaces().filter_map(|s| s.sent().loss_time).min()
    }

    fn ack_deadline(&self) -> Option<SimTime> {
        self.spaces().filter_map(Space::ack_deadline).min()
    }

    /// PTO duration honoring the picoquic default-PTO quirk.
    fn pto_duration_for(&self, is_app: bool) -> SimDuration {
        if self.cfg.quirks.ignore_iack_rtt && !self.is_confirmed() {
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
            if let Some(base) = self.space(space.index()).and_then(Space::pto_base) {
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
        if let (None, Role::Client, Some(hs)) = (earliest, self.role, self.handshake.as_deref()) {
            if self.cfg.quirks.no_probe_after_iack && hs.iack_received {
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
                let sp = space_in(&mut self.handshake, &mut self.app, space.index());
                let lost = sp.map_or_else(Vec::new, |sp| sp.detect_lost(now, &self.rtt));
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
            let hs = self.handshake.iter_mut().flat_map(|hs| &mut hs.spaces);
            for sp in hs.chain([&mut self.app]) {
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
            let limit = self.cfg.give_up_pto_count;
            let spent = limit.is_some_and(|n| self.pto.count() >= n);
            if self.role == Role::Client && !self.handshake_complete && spent {
                self.give_up(now);
            }
        }
    }

    fn on_pto(&mut self, now: SimTime) {
        // Which space does this PTO belong to? Earliest armed space wins.
        let space = self.earliest_pto_space().map_or_else(
            || {
                // Deadlock-prevention probe: Initial until handshake keys exist.
                if self.space(1).is_some_and(Space::usable) {
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
        // data when available, else PING. The paper's §5 improvement: a
        // client resends the ClientHello instead of a PING so the server
        // can recover.
        let resend_hello = self.cfg.probe_policy == ProbePolicy::RetransmitOldest
            && self.role == Role::Client
            && space == PacketNumberSpace::Initial;
        let hello = self.handshake.as_ref().map(|hs| &hs.initial_crypto_copy);
        let hello = hello.filter(|ch| resend_hello && !ch.is_empty()).cloned();
        let Some(sp) = self.space_mut(idx) else {
            return;
        };
        if !sp.requeue_oldest() {
            match hello {
                Some(data) => sp.requeue(FrameList::from_iter([Frame::Crypto { offset: 0, data }])),
                None => sp.pending_pings += 1,
            }
        }
    }
}
