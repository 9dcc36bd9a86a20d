//! The receive path: datagrams in, packets key-gated and authenticated,
//! frames dispatched, acknowledgments and losses fed to recovery.

use bytes::{Buf, Bytes};
use rq_qlog::EventData;
use rq_recovery::{persistent_congestion_duration, SentPacket};
use rq_sim::{SimDuration, SimTime, Spares};
use rq_tls::{verify_tag, KeySide};
use rq_wire::{AckFrame, Frame, PacketNumberSpace, PacketType, PlainPacket};

use super::{
    retry_token_for, space_in, space_name, stateless_retry_datagram, ConnEvent, Connection,
    Handshake, Role, ERROR_SERVER_BUSY, ERROR_STATELESS_RESET, LEVELS, SERVER_BUSY_PREFIX,
    STATELESS_RESET_PREFIX,
};
use crate::config::MAX_ACK_DELAY;
use crate::space::Space;

impl Connection {
    /// Processes one received UDP datagram (on the active path), copying
    /// it once, with no spares; a caller that owns the datagram passes it
    /// to [`Connection::handle_datagram_on_path`] and saves the copy.
    pub fn handle_datagram(&mut self, now: SimTime, data: &[u8]) {
        let path = self.paths.active();
        let data = Bytes::copy_from_slice(data);
        self.handle_datagram_on_path(now, data, path, &mut Spares::default());
    }

    /// Processes one received UDP datagram that arrived on `path`.
    /// Migration-aware drivers pass the simulator's per-event path id so
    /// the connection can notice the peer moving (RFC 9000 §9.5: a packet
    /// from a new address is an implicit migration/NAT rebind). `data` is
    /// decoded where it lies: frame payloads, and the stream bytes handed
    /// to the application, are views of it. A datagram queued while it is
    /// received, as the instant ACK is, is built in `spares`.
    pub fn handle_datagram_on_path(
        &mut self,
        now: SimTime,
        data: Bytes,
        path: u64,
        spares: &mut Spares,
    ) {
        if self.is_closed() {
            return;
        }
        self.follow_datagram_path(path);
        // Fault-injection signals travel outside the packet codec (their
        // leading 0x00 byte fails the fixed-bit check of every real
        // packet). The connection dies silently: there is no point
        // closing back at a peer that already forgot us or refused us.
        if data.starts_with(STATELESS_RESET_PREFIX) {
            self.log.push(now, EventData::StatelessReset);
            self.close(now, ERROR_STATELESS_RESET, "stateless reset", false);
            return;
        }
        if data.starts_with(SERVER_BUSY_PREFIX) {
            self.close(now, ERROR_SERVER_BUSY, "server busy", false);
            return;
        }
        self.last_activity = Some(now);
        self.paths.on_received(path, data.len());

        // quiche quirk: drop a datagram whose leading Initial packet is a
        // reply to one of our PING probes, together with all coalesced
        // packets (paper §4.1).
        let hs = self.handshake.as_deref_mut();
        if hs.is_some_and(|hs| hs.drops_ping_reply(&data)) {
            return;
        }

        let mut rest = data;
        let mut first_dcid = None;
        while !rest.is_empty() {
            let Ok((pkt, payload, tag, consumed)) = PlainPacket::decode_with_payload(&rest, 8)
            else {
                return; // undecodable remainder: drop silently
            };
            rest.advance(consumed);
            // A packet coalesced behind one for another connection ID is
            // ignored (RFC 9000 §12.2).
            if *first_dcid.get_or_insert(pkt.header.dcid) != pkt.header.dcid {
                continue;
            }
            let keys_missing =
                !self.accept_packet(now, &pkt, &payload, &tag, consumed, path, spares);
            if let Some(hs) = self.handshake.as_deref_mut().filter(|_| keys_missing) {
                hs.pending_packets.push((pkt, payload, tag, consumed));
            }
        }
        // Server address validation: a Handshake packet proves the client
        // owns the address (RFC 9000 §8.1).
        self.flush_pending(now, spares);
    }

    /// Key-gates and authenticates one decoded packet, which arrived on
    /// `path`. `payload` is the
    /// packet's frame bytes as they arrived: the tag is verified over the
    /// wire bytes, never over a re-encoding. `false` when the packet's
    /// keys are not there yet and the caller is to keep it for
    /// [`Connection::flush_pending`]; the packet is looked at where the
    /// decoder left it and moved only then.
    fn accept_packet(
        &mut self,
        now: SimTime,
        pkt: &PlainPacket,
        payload: &[u8],
        tag: &[u8; 16],
        size: usize,
        path: u64,
        spares: &mut Spares,
    ) -> bool {
        let idx = pkt.space().index();
        if self.space(idx).is_none_or(Space::is_discarded) {
            return true;
        }
        if pkt.header.ty == PacketType::Retry {
            self.on_retry(pkt);
            return true;
        }
        // Server-side Retry (RFC 9000 §8.1.2): demand an address-validation
        // token before processing the first Initial.
        if self.role == Role::Server && self.use_retry && pkt.header.ty == PacketType::Initial {
            if pkt.header.token.is_empty() {
                if let Some(hs) = self.handshake.as_deref_mut().filter(|hs| !hs.retry_sent) {
                    hs.retry_sent = true;
                    self.peer_cid = pkt.header.scid;
                    self.ready_datagrams
                        .push_back(stateless_retry_datagram(self.peer_cid, self.local_cid));
                }
                return true; // drop the tokenless Initial
            }
            if pkt.header.token == retry_token_for(&pkt.header.scid) {
                // A valid token proves the client address (no 3x limit).
                self.paths.validate_address();
            }
        }
        // 0-RTT packets are protected under the early keys, not the
        // (not-yet-existing) 1-RTT keys of their shared number space.
        let zero_rtt = pkt.header.ty == PacketType::ZeroRtt;
        if zero_rtt && self.role != Role::Server {
            return true; // only servers receive 0-RTT
        }
        let Some(keys) = self.space(idx).and_then(|sp| sp.keys_for(pkt.header.ty)) else {
            // Buffered until the keys are available (e.g. Handshake packets
            // arriving while the ServerHello is lost). 0-RTT keys exist
            // once the CH's ticket is validated with early data accepted:
            // if the handshake already progressed without them, the offer
            // was rejected (or absent), so drop per RFC 9001 §5.7; else the
            // 0-RTT packet raced ahead of the CH.
            let hopeless = |hs: &Handshake| hs.early_rejected || hs.spaces[1].keys.is_some();
            return zero_rtt && self.handshake.as_deref().is_none_or(hopeless);
        };
        let peer_side = match self.role {
            Role::Client => KeySide::Server,
            Role::Server => KeySide::Client,
        };
        let key = keys.for_side(peer_side);
        if verify_tag(key, pkt.header.pn, payload, tag) {
            self.process_packet(now, pkt, size, path, spares);
        } // else forged/corrupt packet: drop
        true
    }

    /// Re-processes buffered packets once keys become available. A kept
    /// packet moves the connection to no path: it counts as arriving on
    /// the active one.
    pub(super) fn flush_pending(&mut self, now: SimTime, spares: &mut Spares) {
        let hs = self.handshake.as_deref_mut();
        let Some(hs) = hs.filter(|hs| !hs.pending_packets.is_empty()) else {
            return;
        };
        let mut pending = std::mem::take(&mut hs.pending_packets);
        let path = self.paths.active();
        pending.retain(|(pkt, payload, tag, size)| {
            !self.accept_packet(now, pkt, payload, tag, *size, path, spares)
        });
        if let Some(hs) = self.handshake.as_deref_mut() {
            hs.pending_packets.append(&mut pending);
        }
    }

    fn process_packet(
        &mut self,
        now: SimTime,
        pkt: &PlainPacket,
        size: usize,
        path: u64,
        spares: &mut Spares,
    ) {
        let space = pkt.space();
        let idx = space.index();
        let ack_eliciting = pkt.is_ack_eliciting();
        let is_ack_only = pkt.is_ack_only();
        // Arm the delayed-ACK deadline. Application space: max_ack_delay.
        // Handshake spaces at the *client*: a short batching window so the
        // first server flight is acknowledged as part of the second client
        // flight (Figure 3's wire image / Table 4's datagram mapping)
        // rather than with one standalone ACK per arriving datagram.
        let batching = if space == PacketNumberSpace::Application {
            Some(MAX_ACK_DELAY)
        } else if self.role == Role::Client && !self.handshake_complete {
            Some(SimDuration::from_millis(2))
        } else {
            None
        };
        let Some(recv) = self.space_mut(idx).map(|sp| &mut sp.recv) else {
            return;
        };
        if !recv.on_packet(pkt.header.pn, ack_eliciting, now) {
            return; // duplicate
        }
        if let Some(window) = batching.filter(|_| ack_eliciting) {
            let deadline = now + window;
            recv.ack_deadline = Some(recv.ack_deadline.map_or(deadline, |d| d.min(deadline)));
        }
        self.follow_packet_path(now, path, pkt);
        self.stats.packets_opened[idx] += 1;
        self.log.push_with(now, || EventData::PacketReceived {
            space: space_name(space),
            pn: pkt.header.pn,
            size,
            ack_eliciting,
            frames: Vec::new(),
        });

        // Server: learn the client's SCID; client: learn the server's SCID.
        let long = matches!(pkt.header.ty, PacketType::Initial | PacketType::Handshake);
        let learns = self.peer_cid.is_empty() || self.role == Role::Client;
        if long && learns && !pkt.header.scid.is_empty() {
            self.peer_cid = pkt.header.scid;
        }

        // Client: detect an instant ACK, a pure-ACK Initial packet that
        // acknowledges a packet the client sent (a frame acknowledging
        // one never sent is ignored whole, so it marks nothing either).
        let acks_sent = |frame: &Frame| match frame {
            Frame::Ack(ack) => self.space(idx).is_some_and(|sp| sp.has_sent(ack.largest)),
            _ => false,
        };
        let iack = self.role == Role::Client
            && space == PacketNumberSpace::Initial
            && is_ack_only
            && pkt.frames.iter().any(acks_sent);
        let hs = self.handshake.as_deref_mut();
        if let Some(hs) = hs.filter(|hs| iack && !hs.iack_received) {
            hs.iack_received = true;
            self.log.push(now, EventData::InstantAck { sent: false });
        }

        // Server: Handshake packet validates the client address.
        if self.role == Role::Server && pkt.header.ty == PacketType::Handshake {
            self.paths.validate_address();
            // Receiving Handshake also means Initial keys can be discarded.
            self.discard_space(PacketNumberSpace::Initial);
        }

        for frame in &pkt.frames {
            self.process_frame(now, space, pkt, frame, spares);
            if self.is_closed() {
                return;
            }
        }
    }

    fn process_frame(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        pkt: &PlainPacket,
        frame: &Frame,
        spares: &mut Spares,
    ) {
        let idx = space.index();
        match frame {
            Frame::Padding { .. } | Frame::Ping => {}
            Frame::Ack(ack) => self.on_ack_frame(now, space, pkt, ack),
            Frame::Crypto { offset, data } => {
                // Gone if an earlier frame confirmed the handshake.
                let Some(sp) = self.space_mut(idx) else {
                    return;
                };
                let (contiguous, dup) = sp.crypto.on_rx(*offset, data.clone());
                // A server receiving a retransmitted ClientHello treats it
                // as a probe that its first flight was lost and resends the
                // oldest unacked flight data (the mechanism behind the
                // paper's §5 client-side improvement).
                let hs = self.handshake.as_deref_mut();
                if let Some(hs) = hs.filter(|_| self.role == Role::Server && dup && idx == 0) {
                    hs.spaces[0].requeue_oldest();
                    hs.spaces[1].requeue_oldest();
                }
                // quiche quirk (§4.2/App. F): under IACK, receiving the
                // ServerHello as a *retransmission* — visible on the wire
                // as a gap in the server's Initial packet numbers — makes
                // quiche retire the same connection ID twice and drop the
                // connection. Triggers exactly in the Figure 6/12 loss
                // pattern (original SH lost, resent after the server PTO)
                // and never in the in-order Figures 5/7 flows.
                let gap_after_iack = |hs: &Handshake| {
                    hs.iack_received && !hs.spaces[0].recv.is_contiguous_from_zero()
                };
                if self.role == Role::Client
                    && self.cfg.quirks.abort_on_initial_retransmit_after_iack
                    && space == PacketNumberSpace::Initial
                    && self.handshake.as_deref().is_some_and(gap_after_iack)
                {
                    self.close(now, 0x0a, "duplicate connection id retirement", true);
                    return;
                }
                if !contiguous.is_empty() {
                    let level = LEVELS[idx];
                    match self.tls.read_crypto(level, &contiguous) {
                        Ok(events) => {
                            for ev in events {
                                self.on_tls_event(now, ev, spares);
                            }
                        }
                        Err(_) => self.close(now, 0x0d, "tls protocol violation", true),
                    }
                }
            }
            Frame::Stream {
                id,
                offset,
                data,
                fin,
            } => {
                let rs = self.streams.recv_stream(*id);
                let newly = rs.on_frame_owned(*offset, data.clone(), *fin);
                let complete = rs.is_complete();
                if !newly.is_empty() || (*fin && complete) {
                    self.streams.data_recvd += newly.len() as u64;
                    self.events.push_back(ConnEvent::StreamData {
                        id: *id,
                        data: newly,
                        fin: complete,
                    });
                }
            }
            Frame::MaxData { max } => {
                if *max > self.streams.peer_max_data {
                    self.streams.peer_max_data = *max;
                }
            }
            Frame::MaxStreamData { id, max } => {
                let ss = self.streams.send_stream(*id);
                if *max > ss.max_stream_data {
                    ss.max_stream_data = *max;
                }
            }
            Frame::MaxStreams { .. } | Frame::DataBlocked { .. } => {}
            Frame::NewConnectionId { .. }
            | Frame::RetireConnectionId { .. }
            | Frame::PathChallenge { .. }
            | Frame::PathResponse { .. } => self.on_path_frame(now, frame),
            Frame::NewToken { token } => {
                if let Some(hs) = self.handshake.as_deref_mut() {
                    hs.token = token.to_vec();
                }
            }
            Frame::HandshakeDone => {
                if self.role == Role::Client && !self.is_confirmed() {
                    self.log.push(now, EventData::HandshakeConfirmed);
                    self.events.push_back(ConnEvent::HandshakeConfirmed);
                    self.confirm();
                }
            }
            Frame::ConnectionClose {
                error_code, reason, ..
            } => self.close(now, *error_code, reason, false),
        }
    }

    fn on_ack_frame(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        pkt: &PlainPacket,
        ack: &AckFrame,
    ) {
        let Some(sp) = space_in(&mut self.handshake, &mut self.app, space.index()) else {
            return;
        };
        let outcome = sp.on_ack(ack, now, &self.rtt);
        if outcome.newly_acked.is_empty() {
            return;
        }
        self.new_ack_packets += 1;
        // RFC 9002 §6.2.1: a client does not reset the PTO backoff on
        // Initial-space acknowledgments until the server is known to have
        // validated its address (Handshake ACK or HANDSHAKE_DONE).
        let suppress_reset = self.role == Role::Client
            && space == PacketNumberSpace::Initial
            && !self.handshake_complete;
        if !suppress_reset {
            self.pto.on_progress();
        }
        // Persistent congestion is judged against the acks that existed
        // *before* this frame: the probe whose ack finally gets through
        // after an outage is sent later than the whole lost span and must
        // not veto it (§7.6.2 only bars acked sends *inside* the span).
        let prev_largest_acked = self.largest_acked_sent_time;
        for p in outcome.newly_acked.iter() {
            if p.in_flight {
                self.cc.on_ack(p.size, p.time_sent, now, &self.rtt);
            }
            if p.ack_eliciting {
                self.largest_acked_sent_time = Some(
                    self.largest_acked_sent_time
                        .map_or(p.time_sent, |t| t.max(p.time_sent)),
                );
            }
        }
        self.on_packets_lost(
            now,
            space,
            &outcome.lost,
            &outcome.newly_acked,
            prev_largest_acked,
        );
        self.log_cc_state(now);
        if let Some(sample) = outcome.rtt_sample {
            // picoquic quirk: ignore the RTT sample carried by a pure-ACK
            // Initial packet (i.e. the instant ACK itself).
            let from_iack = space == PacketNumberSpace::Initial && pkt.is_ack_only();
            let skip = self.cfg.quirks.ignore_iack_rtt && from_iack && self.role == Role::Client;
            if !skip {
                let delay = SimDuration::from_micros(ack.ack_delay_us);
                self.rtt.update(sample, delay, self.is_confirmed());
                self.log_metrics(now);
            }
        }
        if space == PacketNumberSpace::Application {
            self.maybe_sample_metrics(now);
        }
    }

    /// Periodic data-phase `metrics_sampled` emission — cwnd, bytes in
    /// flight and srtt sampled while processing Application-space ACKs,
    /// at most once per `metrics_sample_every`. Off by default (`None`),
    /// so legacy traces carry no extra events.
    fn maybe_sample_metrics(&mut self, now: SimTime) {
        let Some(every) = self.cfg.metrics_sample_every else {
            return;
        };
        if !self.handshake_complete {
            return;
        }
        let due = self
            .last_metrics_sample
            .is_none_or(|t| now.saturating_since(t) >= every);
        if !due {
            return;
        }
        self.last_metrics_sample = Some(now);
        self.log.push(
            now,
            EventData::MetricsSampled {
                cwnd: self.cc.cwnd(),
                bytes_in_flight: self.cc.bytes_in_flight(),
                smoothed_rtt_ms: self.rtt.smoothed().map_or(0.0, |s| s.as_millis_f64()),
            },
        );
    }

    /// Processes one detected loss burst (whose content the space has
    /// already requeued): logs each packet and reports the whole burst to
    /// the congestion controller in a single `on_loss` call so a
    /// multi-packet burst cannot be mis-split across recovery-episode
    /// boundaries.
    ///
    /// `acked` / `prev_largest_acked` carry the acknowledgment context
    /// persistent-congestion detection needs: the packets newly acked by
    /// the frame that declared these losses, and the largest acked
    /// ack-eliciting send time from *before* that frame.
    pub(super) fn on_packets_lost(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        lost: &[SentPacket],
        acked: &[SentPacket],
        prev_largest_acked: Option<SimTime>,
    ) {
        if lost.is_empty() {
            return;
        }
        self.stats.packets_lost += lost.len() as u64;
        let (mut lost_bytes, mut latest_sent) = (0, None::<SimTime>);
        for p in lost {
            self.log.push(
                now,
                EventData::PacketLost {
                    space: space_name(space),
                    pn: p.pn,
                },
            );
            if p.in_flight {
                lost_bytes += p.size;
                latest_sent = Some(latest_sent.map_or(p.time_sent, |t| t.max(p.time_sent)));
            }
        }
        if let Some(latest) = latest_sent {
            self.cc.on_loss(lost_bytes, latest, now);
            self.detect_persistent_congestion(now, lost, acked, prev_largest_acked);
        }
    }

    /// RFC 9002 §7.6: if a span of lost ack-eliciting packets — all sent
    /// after the previously largest acked one, with no acknowledged send
    /// *inside* the span — exceeds `3 × PTO` (sample-based, without
    /// backoff), the network was down for the whole period and the window
    /// collapses to minimum.
    fn detect_persistent_congestion(
        &mut self,
        now: SimTime,
        lost: &[SentPacket],
        acked: &[SentPacket],
        prev_largest_acked: Option<SimTime>,
    ) {
        // §7.6.2: requires an RTT sample; the pre-sample period is exempt.
        let Some(pto) = self.rtt.pto_for_space(true) else {
            return;
        };
        let threshold = persistent_congestion_duration(pto);
        // `lost` is in packet-number order, which is send order.
        let mut times = lost
            .iter()
            .filter(|p| p.ack_eliciting)
            .map(|p| p.time_sent)
            .filter(|t| prev_largest_acked.map_or(true, |a| *t > a));
        let Some(first) = times.next() else {
            return;
        };
        // Walk the lost sends in order, restarting the candidate span
        // whenever an ack-eliciting send the declaring frame acked falls
        // inside it.
        let acked_inside = |prev: SimTime, t: SimTime| {
            acked
                .iter()
                .any(|a| a.ack_eliciting && prev < a.time_sent && a.time_sent < t)
        };
        let (mut start, mut prev) = (first, first);
        let mut established = false;
        for t in times {
            debug_assert!(prev <= t, "lost packets are in send order");
            if acked_inside(prev, t) {
                start = t;
            }
            prev = t;
            if t.since(start) > threshold {
                established = true;
                break;
            }
        }
        if established {
            self.cc.on_persistent_congestion();
            self.note_cc_transition(now, "persistent_congestion");
        }
    }

    /// Emits `congestion_state_updated` when the controller changed phase
    /// since the last report.
    pub(super) fn log_cc_state(&mut self, now: SimTime) {
        let state = self.cc.state();
        if state != self.last_cc_state {
            self.last_cc_state = state;
            self.note_cc_transition(now, state.as_str());
        }
    }

    /// Counts a controller phase change and logs it as `new_state`.
    fn note_cc_transition(&mut self, now: SimTime, new_state: &'static str) {
        self.stats.cc_transitions += 1;
        let (cwnd, bytes_in_flight) = (self.cc.cwnd(), self.cc.bytes_in_flight());
        let update = EventData::CongestionStateUpdated {
            new_state,
            cwnd,
            bytes_in_flight,
        };
        self.log.push(now, update);
    }

    fn on_retry(&mut self, pkt: &PlainPacket) {
        if self.role != Role::Client {
            return; // clients only
        }
        // At most one Retry, none after a server Initial (RFC 9000 §17.2.5.2).
        let hs = self.handshake.as_deref_mut();
        let Some(hs) =
            hs.filter(|hs| hs.token.is_empty() && hs.spaces[0].recv.largest_recv_time.is_none())
        else {
            return;
        };
        hs.token = pkt.header.token.clone();
        self.peer_cid = pkt.header.scid;
        // Restart TLS and the Initial crypto stream with the token attached.
        self.tls.reset_for_retry();
        hs.spaces[0].reset();
        hs.queue_client_hello(&mut self.tls);
    }
}
