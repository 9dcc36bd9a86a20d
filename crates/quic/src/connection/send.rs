//! The transmit path: planners decide which frames go into which packet
//! of the next datagram, and the one emitter numbers, pads, encodes, seals
//! and registers them.

use bytes::Bytes;
use rq_qlog::EventData;
use rq_recovery::SentPacket;
use rq_sim::{SimTime, Spares};
use rq_tls::{seal_tag, KeySide};
use rq_wire::{
    Frame, FrameList, Header, PacketNumberSpace, PacketType, PlainPacket, MIN_INITIAL_DATAGRAM,
};

use super::{space_in, space_name, CloseState, Connection, Role, MAX_DATAGRAM_SIZE};
use crate::config::{AckDelayReport, HandshakeAcks, ACK_ELICITING_THRESHOLD};
use crate::space::Space;

/// The frames of one datagram's packets, by packet number space: a
/// datagram coalesces at most one packet per space, in space order, and
/// an empty list means no packet.
type Plan = [FrameList; 3];

/// The plan of a datagram with one packet.
fn solo(space: PacketNumberSpace, frames: impl IntoIterator<Item = Frame>) -> Plan {
    let mut plan = Plan::default();
    plan[space.index()].extend(frames);
    plan
}

impl Connection {
    /// Produces the next outgoing UDP datagram, or `None` when idle:
    /// [`Connection::poll_transmit_with`] with no spare storage.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Bytes> {
        self.poll_transmit_with(now, &mut Spares::default())
    }

    /// Produces the next outgoing UDP datagram, or `None` when idle,
    /// building it in `spares` when one of its length waits there.
    pub fn poll_transmit_with(&mut self, now: SimTime, spares: &mut Spares) -> Option<Bytes> {
        // WFC server blocked on the certificate store: fully silent.
        let hs = self.handshake.as_deref();
        if hs.is_some_and(|hs| hs.waiting_for_cert) {
            return None;
        }
        if self.ready_datagrams.is_empty() {
            if self.is_closed() {
                return self.build_close_datagram(now, spares);
            }
            // Client flight 2: emitted as an explicit datagram plan honoring
            // the per-implementation coalescing layout (Table 4).
            let flight2 = self.role == Role::Client && self.handshake_complete;
            let hs = self.handshake.as_deref_mut();
            if let Some(hs) = hs.filter(|hs| flight2 && !hs.flight2_sent) {
                hs.flight2_sent = true;
                self.build_client_flight2(now, spares);
            }
        }
        let d = match self.ready_datagrams.pop_front() {
            Some(d) => d,
            None => self.build_datagram(now, spares)?,
        };
        self.note_datagram_sent(now, d.len());
        Some(d)
    }

    /// Books an outgoing datagram against the active path's
    /// anti-amplification accounting.
    fn note_datagram_sent(&mut self, now: SimTime, len: usize) {
        self.paths.on_sent(len);
        self.last_activity = Some(now);
        if let Some(hs) = self.handshake.as_deref_mut() {
            hs.first_send_at.get_or_insert(now);
        }
    }

    /// Plans one generic datagram by greedily coalescing per-space packets.
    fn build_datagram(&mut self, now: SimTime, spares: &mut Spares) -> Option<Bytes> {
        // Amplification gate (whole-datagram granularity).
        let amp = self.amplification_budget();
        if amp == 0 {
            return None;
        }
        let mut budget = MAX_DATAGRAM_SIZE.min(amp);
        let mut plan = Plan::default();

        for space in PacketNumberSpace::ALL {
            let idx = space.index();
            let Some(sp) = self.space(idx).filter(|sp| !sp.is_discarded()) else {
                continue;
            };
            if sp.keys.is_none() && !(idx == 2 && self.can_send_early()) {
                continue;
            }
            let overhead = self.packet_overhead(space);
            if budget <= overhead + 8 {
                break;
            }
            let max_payload = budget - overhead;
            self.build_frames_for_space(now, space, max_payload, &mut plan[idx]);
            if plan[idx].is_empty() {
                continue;
            }
            // The next space fills what this packet's exact encoding leaves.
            let payload = plan[idx].iter().map(Frame::encoded_len).sum();
            let size = PlainPacket::wire_len(&self.header_for(space, 0), payload);
            budget = budget.saturating_sub(size);
        }
        if plan.iter().all(|frames| frames.is_empty()) {
            if self.amplification_budget() < MAX_DATAGRAM_SIZE
                && self.wants_to_send()
                && self.paths.latch_amp_stall()
            {
                self.stats.amp_stalls += 1;
                self.log.push(
                    now,
                    EventData::AmplificationBlocked {
                        budget: self.amplification_budget(),
                        wanted: MAX_DATAGRAM_SIZE,
                    },
                );
            }
            return None;
        }
        self.emit_datagram(now, &mut plan, spares)
    }

    /// True if any space has content waiting (used for the
    /// amplification-blocked diagnostic).
    pub(super) fn wants_to_send(&self) -> bool {
        self.spaces().any(Space::has_data_to_send)
            || self.streams.want_send()
            || self.handshake_done_pending
            || self.paths.wants_to_send()
    }

    /// Whether this endpoint may emit 0-RTT packets right now: a client
    /// holding early keys, before the handshake completes, whose offer
    /// has not been rejected.
    fn can_send_early(&self) -> bool {
        self.role == Role::Client
            && self.app.early_keys.is_some()
            && !self.handshake_complete
            && self.handshake.as_ref().is_some_and(|hs| !hs.early_rejected)
    }

    fn packet_overhead(&self, space: PacketNumberSpace) -> usize {
        // Header + length varint + pn + tag, conservatively. 0-RTT
        // packets (application space before 1-RTT keys) carry a long
        // header, not the 1-RTT short header.
        match space {
            PacketNumberSpace::Application if self.app.keys.is_some() => 1 + 8 + 4 + 16,
            _ => 1 + 4 + 1 + 8 + 1 + 8 + 1 + 2 + 4 + 16 + 2,
        }
    }

    /// Assembles the frame list for one packet in `space` in `frames`,
    /// which starts out empty, consuming pending state.
    fn build_frames_for_space(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        max_payload: usize,
        frames: &mut FrameList,
    ) {
        let idx = space.index();
        let mut used = 0usize;
        let Some(sp) = self.space(idx) else {
            return;
        };
        // Building a 0-RTT packet: ACK and HANDSHAKE_DONE frames are not
        // permitted there (RFC 9000 §12.4), and neither arises before the
        // handshake anyway.
        let early = space == PacketNumberSpace::Application && sp.keys.is_none();

        // 1. ACK: attach whenever owed; in handshake spaces attach
        //    opportunistically with any other content too. Clients batch
        //    handshake-space ACKs for a short window (see handshake-space
        //    deadline arming above).
        let recv = &sp.recv;
        let deadline_passed = recv.ack_overdue || recv.ack_deadline.is_some_and(|d| now >= d);
        let ack_due = if space == PacketNumberSpace::Application {
            recv.unacked_eliciting >= ACK_ELICITING_THRESHOLD || deadline_passed
        } else {
            deadline_passed || self.role == Role::Server || self.handshake_complete
        };
        // msquic (Table 3): no ACK frames in Initial/Handshake spaces.
        let never_acks = self.cfg.handshake_acks == HandshakeAcks::Never
            && self.role == Role::Server
            && space != PacketNumberSpace::Application;
        let attach_ack =
            recv.ack_pending && (ack_due || sp.has_data_to_send()) && !(never_acks || early);
        if attach_ack {
            if let Some(f) = self.take_ack_frame(now, idx) {
                used += f.encoded_len();
                frames.push(f);
            }
        }

        let Some(sp) = self.space_mut(idx) else {
            return;
        };
        // 2. PING probes.
        while sp.pending_pings > 0 && used + 1 <= max_payload {
            sp.pending_pings -= 1;
            frames.push(Frame::Ping);
            used += 1;
        }

        // 3. Retransmission queue.
        sp.take_requeued(frames, &mut used, max_payload);

        // 4. Fresh crypto data.
        let room = max_payload.saturating_sub(used + 10);
        if let Some((offset, data)) = sp.crypto.take_tx(room) {
            used += 10 + data.len();
            frames.push(Frame::Crypto { offset, data });
        }

        // 5. Application-space extras.
        if space == PacketNumberSpace::Application {
            if self.handshake_done_pending && !early && used + 1 <= max_payload {
                self.handshake_done_pending = false;
                frames.push(Frame::HandshakeDone);
                used += 1;
            }
            // Migration plumbing (all empty when cid_pool is 0).
            if !early {
                self.push_path_frames(now, max_payload, &mut used, frames);
            }
            if self.streams.should_send_max_data() && used + 9 <= max_payload {
                let v = self.streams.next_max_data();
                frames.push(Frame::MaxData { max: v });
                used += 9;
            }
            self.streams.grant_stream_credit(|id, max| {
                let fits = used + 12 <= max_payload;
                if fits {
                    frames.push(Frame::MaxStreamData { id, max });
                    used += 12;
                }
                fits
            });
            // Stream data, congestion-controlled.
            let cc_room = self.cc.available();
            let conn_fc = self.streams.conn_send_budget() as usize;
            self.push_stream_frames(frames, |spent| {
                let used = used + spent;
                max_payload
                    .saturating_sub(used + 12)
                    .min(cc_room.saturating_sub(used))
                    .min(conn_fc)
            });
        }
    }

    /// Appends one STREAM frame of fresh data from every stream that
    /// wants to send, in stream-id order. `room(spent)` is the data
    /// budget of the next frame once `spent` payload bytes (frame
    /// overheads included) have gone to the frames before it; the first
    /// stream left without room ends the round.
    fn push_stream_frames(&mut self, frames: &mut FrameList, room: impl Fn(usize) -> usize) {
        if !self.streams.want_send() {
            return;
        }
        let mut spent = 0;
        for (id, ss) in self.streams.send.iter_mut().filter(|(_, s)| s.want_send()) {
            let room = room(spent);
            if room == 0 {
                break;
            }
            if let Some((offset, data, fin)) = ss.take(room) {
                self.streams.data_sent += data.len() as u64;
                spent += 12 + data.len();
                frames.push(Frame::Stream {
                    id,
                    offset,
                    data,
                    fin,
                });
            }
        }
    }

    /// The one place a UDP payload is produced. Every packet of the plan
    /// gets its packet number and header first, a client datagram carrying
    /// an Initial is padded (RFC 9000 §14.1), and then each packet is
    /// encoded once straight into the datagram, sealed over the bytes just
    /// written and registered — in wire order, because sealing the
    /// client's first Handshake packet discards its Initial keys. Plan and
    /// packets live on the stack, and a frame list is moved twice on the
    /// way — out of the plan into its packet, out of the packet into
    /// what the space keeps — and otherwise worked on where it is: the
    /// datagram is the one allocation, made at its final length as the
    /// shared storage the simulator carries and the receiver decodes in
    /// place, and none when `spares` holds storage of that length.
    /// Leaves `plan` empty.
    fn emit_datagram(
        &mut self,
        now: SimTime,
        plan: &mut Plan,
        spares: &mut Spares,
    ) -> Option<Bytes> {
        let mut pkts: [Option<PlainPacket>; 3] = [None, None, None];
        for (space, frames) in PacketNumberSpace::ALL.into_iter().zip(plan) {
            let Some(sp) = self.space_mut(space.index()).filter(|_| !frames.is_empty()) else {
                continue;
            };
            let pn = sp.alloc_pn();
            let pkt = PlainPacket::new(self.header_for(space, pn), std::mem::take(frames));
            pkts[space.index()] = Some(pkt.expect("frame permissions checked by construction"));
        }
        if self.role == Role::Client {
            pad_client_initial(pkts.iter_mut().flatten());
        }
        let len = pkts.iter().flatten().map(PlainPacket::encoded_len).sum();
        let mut written = 0;
        let datagram = spares.build(len, |buf| {
            for pkt in pkts.iter_mut().flatten() {
                written += self.seal_into(now, pkt, &mut buf[written..]);
            }
        });
        // Shorter than planned only when a packet's keys were missing.
        (written > 0).then(|| datagram.slice(..written))
    }

    fn header_for(&self, space: PacketNumberSpace, pn: u64) -> Header {
        match space {
            PacketNumberSpace::Initial => {
                let token = self.handshake.as_ref().map(|hs| hs.token.clone());
                Header::initial(self.peer_cid, self.local_cid, token.unwrap_or_default(), pn)
            }
            PacketNumberSpace::Handshake => Header::handshake(self.peer_cid, self.local_cid, pn),
            // Before the 1-RTT keys exist, application-space packets are
            // 0-RTT long-header packets under the early keys; afterwards
            // they are short-header 1-RTT packets. Both share the space's
            // packet number sequence (RFC 9000 §12.3).
            PacketNumberSpace::Application => {
                if self.app.keys.is_some() {
                    Header::one_rtt(self.peer_cid, pn)
                } else {
                    Header::zero_rtt(self.peer_cid, self.local_cid, pn)
                }
            }
        }
    }

    /// Encodes `pkt` once at the front of `out`, tags the payload bytes
    /// just written, and registers the packet with recovery, congestion
    /// control, retransmission state (which takes its frames) and qlog.
    /// Returns the packet's size on the wire: 0, with nothing written,
    /// when its keys are missing.
    fn seal_into(&mut self, now: SimTime, pkt: &mut PlainPacket, out: &mut [u8]) -> usize {
        let space = pkt.space();
        let idx = space.index();
        let Some(sp) = space_in(&mut self.handshake, &mut self.app, idx) else {
            return 0;
        };
        let Some(keys) = sp.keys_for(pkt.header.ty) else {
            return 0;
        };
        let side = match self.role {
            Role::Client => KeySide::Client,
            Role::Server => KeySide::Server,
        };
        let key = keys.for_side(side);
        let size = pkt
            .encode_sealed(out, |payload| seal_tag(key, pkt.header.pn, payload))
            .expect("encode cannot fail after construction");
        let ack_eliciting = pkt.is_ack_eliciting();
        let in_flight = ack_eliciting
            || pkt
                .frames
                .iter()
                .any(|f| matches!(f, Frame::Padding { .. }));
        // Track PING probes for the quiche quirk.
        let ping = space == PacketNumberSpace::Initial
            && pkt.frames.iter().any(|f| matches!(f, Frame::Ping));
        if in_flight {
            self.cc.on_sent(size);
        }
        if ack_eliciting {
            self.last_eliciting_send = Some(now);
        }
        self.stats.packets_sealed[idx] += 1;
        self.log.push_with(now, || EventData::PacketSent {
            space: space_name(space),
            pn: pkt.header.pn,
            size,
            ack_eliciting,
            frames: Vec::new(),
        });
        let sent = SentPacket {
            pn: pkt.header.pn,
            time_sent: now,
            ack_eliciting,
            in_flight,
            size,
            retx_token: pkt.header.pn,
        };
        // 0-RTT sends are marked so a server reject can unwind them.
        let zero_rtt = pkt.header.ty == PacketType::ZeroRtt;
        sp.on_sent(sent, std::mem::take(&mut pkt.frames), zero_rtt);
        if let Some(hs) = self.handshake.as_deref_mut().filter(|_| ping) {
            hs.initial_ping_pns.push(pkt.header.pn);
        }
        // Client: sending the first Handshake packet discards Initial keys.
        if self.role == Role::Client && space == PacketNumberSpace::Handshake {
            self.discard_space(PacketNumberSpace::Initial);
        }
        size
    }

    /// Builds the client's second flight according to the coalescing
    /// layout (Table 4): Initial ACK, Handshake FIN (+HS ACK), and the
    /// first 1-RTT packet, spread over `flight2_datagrams` datagrams.
    fn build_client_flight2(&mut self, now: SimTime, spares: &mut Spares) {
        // Packet A: Initial ACK (if Initial space still alive).
        let mut pkt_a = FrameList::new();
        if self.space(0).is_some_and(Space::usable) {
            pkt_a.extend(self.take_ack_frame(now, 0));
        }
        // Packet B: Handshake ACK + client Finished.
        let mut pkt_b = FrameList::from_iter(self.take_ack_frame(now, 1));
        let handshake_space = self.space_mut(1);
        let finished = handshake_space.and_then(|sp| sp.crypto.take_tx(usize::MAX));
        pkt_b.extend(finished.map(|(offset, data)| Frame::Crypto { offset, data }));
        // Packet C: first 1-RTT packet (request or ACK of early server data).
        let mut pkt_c = FrameList::new();
        self.push_stream_frames(&mut pkt_c, |_| 1000);

        // Which datagram each packet rides in, per the layout; the emitter
        // skips a packet left without frames and a datagram without packets.
        let mut groups: [Plan; 4] = Default::default();
        let [a, b, c] = match self.cfg.flight2_datagrams {
            1 => [0, 0, 0],
            2 => [0, 0, 1],
            4 => {
                // picoquic sends a separate HS ACK datagram before the FIN.
                if let Some(i) = pkt_b.iter().position(|f| matches!(f, Frame::Ack(_))) {
                    groups[1][1].push(pkt_b.remove(i));
                }
                [0, 2, 3]
            }
            // 3 (default): [Initial ACK], [HS FIN], [1-RTT].
            _ => [0, 1, 2],
        };
        (groups[a][0], groups[b][1], groups[c][2]) = (pkt_a, pkt_b, pkt_c);
        for mut group in groups {
            if let Some(dgram) = self.emit_datagram(now, &mut group, spares) {
                self.ready_datagrams.push_back(dgram);
            }
        }
    }

    /// Sends the owed CONNECTION_CLOSE, once, in the highest available
    /// space.
    fn build_close_datagram(&mut self, now: SimTime, spares: &mut Spares) -> Option<Bytes> {
        let CloseState::Owed(error_code, reason) =
            std::mem::replace(&mut self.closing, CloseState::Closed)
        else {
            return None;
        };
        let mut highest_first = PacketNumberSpace::ALL.into_iter().rev();
        let space = highest_first.find(|s| self.space(s.index()).is_some_and(Space::usable))?;
        let frame = Frame::ConnectionClose {
            error_code,
            reason,
            app: false,
        };
        self.emit_datagram(now, &mut solo(space, [frame]), spares)
    }

    /// Queues a datagram of one packet carrying `space`'s ACK ahead of the
    /// flight: the server's instant ACK, or the Handshake ACK some stacks
    /// send for the client Finished (Table 3), built in `spares`. `true`
    /// when it was queued.
    pub(super) fn queue_ack(
        &mut self,
        now: SimTime,
        space: PacketNumberSpace,
        pad: bool,
        spares: &mut Spares,
    ) -> bool {
        let Some(ack) = self.take_ack_frame(now, space.index()) else {
            return false;
        };
        // The padded-IACK ablation's frame-level policy (not §14.1
        // datagram padding): a closed form landing on exactly 1200 bytes.
        let base = 1 + 4 + 1 + 8 + 1 + 8 + 1 + 2 + 4 + ack.encoded_len() + 16;
        let padding = pad.then(|| Frame::Padding {
            len: MIN_INITIAL_DATAGRAM.saturating_sub(base),
        });
        let mut plan = solo(space, [ack].into_iter().chain(padding));
        let Some(dgram) = self.emit_datagram(now, &mut plan, spares) else {
            return false;
        };
        self.ready_datagrams.push_back(dgram);
        true
    }

    /// The ACK frame for everything received so far in space `idx`
    /// (`None` before the first packet), marking the owed ACK as sent.
    fn take_ack_frame(&mut self, now: SimTime, idx: usize) -> Option<Frame> {
        let delay = self.report_ack_delay(now, idx);
        let recv = &mut self.space_mut(idx)?.recv;
        let ack = recv.ack_frame(delay)?;
        recv.on_ack_sent();
        Some(Frame::Ack(ack))
    }

    fn report_ack_delay(&self, now: SimTime, idx: usize) -> u64 {
        let report = match self.cfg.handshake_acks {
            HandshakeAcks::Handshake(d) if idx == 1 => AckDelayReport::Fixed(d),
            _ => self.cfg.ack_delay_report,
        };
        let largest = self.space(idx).and_then(|sp| sp.recv.largest_recv_time);
        match report {
            AckDelayReport::Fixed(d) => d.as_micros(),
            AckDelayReport::Actual => largest.map_or(0, |t| now.saturating_since(t).as_micros()),
        }
    }
}

/// RFC 9000 §14.1: a client datagram carrying an Initial packet is padded
/// to [`MIN_INITIAL_DATAGRAM`] with a PADDING frame on its last packet.
///
/// Known deviation: the padding can grow the last packet's length varint
/// from one byte to two, so `Initial[ACK] + short Handshake` comes out at
/// 1201 bytes — one over [`MAX_DATAGRAM_SIZE`]. Every byte sent moves the
/// amplification budget and the simulated link time, so the goldens and
/// the benchmark fingerprints pin this size (ROADMAP item 4b).
pub(super) fn pad_client_initial<'a>(pkts: impl IntoIterator<Item = &'a mut PlainPacket>) {
    let (mut has_initial, mut used, mut last) = (false, 0, None);
    for pkt in pkts {
        has_initial |= pkt.header.ty == PacketType::Initial;
        used += pkt.encoded_len();
        last = Some(pkt);
    }
    if let Some(last) = last.filter(|_| has_initial && used < MIN_INITIAL_DATAGRAM) {
        last.frames.push(Frame::Padding {
            len: MIN_INITIAL_DATAGRAM - used,
        });
    }
}
