//! Application streams with connection- and stream-level flow control.
//!
//! Enough of RFC 9000 §2–4 to run the paper's workloads: client-initiated
//! bidirectional request/response streams (HTTP/1.1-over-QUIC and HTTP/3
//! request streams) and server-initiated unidirectional streams (the HTTP/3
//! control stream whose SETTINGS frame defines the paper's HTTP/3 TTFB).

use bytes::Bytes;
use rq_recovery::SeqMap;

use crate::bytestream::{Reassembler, SendBuf};

/// Stream-ID helpers (RFC 9000 §2.1): two LSBs encode initiator and
/// directionality.
pub mod id {
    /// True if the stream was initiated by the client.
    pub fn is_client_initiated(id: u64) -> bool {
        id & 0x1 == 0
    }
    /// True for bidirectional streams.
    pub fn is_bidi(id: u64) -> bool {
        id & 0x2 == 0
    }
    /// First client-initiated bidirectional stream.
    pub const CLIENT_BIDI_0: u64 = 0;
    /// First server-initiated unidirectional stream (HTTP/3 control).
    pub const SERVER_UNI_0: u64 = 3;
}

/// Send half of a stream: a [`SendBuf`] plus FIN and the peer's
/// flow-control limit.
#[derive(Debug, Default)]
pub struct SendStream {
    /// Queued-but-unsent bytes and the offset they go out at.
    pub buf: SendBuf,
    /// FIN queued after pending bytes drain.
    pub fin_queued: bool,
    /// FIN has been packetized.
    pub fin_sent: bool,
    /// Peer's flow-control limit for this stream.
    pub max_stream_data: u64,
}

impl SendStream {
    /// [`SendStream::write_owned`] for a caller that holds a slice:
    /// copies `data` once.
    pub fn write(&mut self, data: &[u8], fin: bool) {
        self.write_owned(Bytes::copy_from_slice(data), fin);
    }

    /// Queues `data` as it is — the frames cut from it are views of the
    /// caller's storage; `fin` marks the end of the stream.
    pub fn write_owned(&mut self, data: Bytes, fin: bool) {
        self.buf.write_owned(data);
        if fin {
            self.fin_queued = true;
        }
    }

    /// Bytes currently sendable under the stream flow-control limit.
    pub fn sendable(&self) -> usize {
        let limit = self.max_stream_data.saturating_sub(self.buf.offset()) as usize;
        self.buf.len().min(limit)
    }

    /// Takes up to `max` bytes for a STREAM frame. Returns
    /// `(offset, data, fin)`; `None` when nothing can be sent.
    pub fn take(&mut self, max: usize) -> Option<(u64, Bytes, bool)> {
        let fin_only = self.buf.is_empty() && self.fin_queued && !self.fin_sent;
        let (offset, data) = match self.buf.take(self.sendable().min(max)) {
            Some(run) => run,
            // Nothing left to carry: a FIN still owed goes out by itself.
            None if fin_only => (self.buf.offset(), Bytes::new()),
            None => return None,
        };
        let fin = self.fin_queued && self.buf.is_empty();
        if fin {
            self.fin_sent = true;
        }
        Some((offset, data, fin))
    }

    /// Whether the stream still has anything to transmit.
    pub fn want_send(&self) -> bool {
        self.sendable() > 0 || (self.fin_queued && !self.fin_sent)
    }
}

/// Receive half of a stream: a [`Reassembler`] plus FIN and the credit
/// granted to the peer.
#[derive(Debug, Default)]
pub struct RecvStream {
    rx: Reassembler,
    /// Final size once FIN was received.
    pub fin_at: Option<u64>,
    /// Total contiguous bytes handed to the application.
    pub delivered: u64,
    /// Flow-control credit we last granted the peer for this stream
    /// (0 = still on the connection default).
    pub granted: u64,
}

impl RecvStream {
    /// [`RecvStream::on_frame_owned`] for a caller that holds a slice:
    /// copies `data` once.
    pub fn on_frame(&mut self, offset: u64, data: &[u8], fin: bool) -> Bytes {
        self.on_frame_owned(offset, Bytes::copy_from_slice(data), fin)
    }

    /// Accepts a STREAM frame; returns newly contiguous bytes — a view of
    /// `data` when the frame arrived in order.
    pub fn on_frame_owned(&mut self, offset: u64, data: Bytes, fin: bool) -> Bytes {
        if fin {
            self.fin_at = Some(offset + data.len() as u64);
        }
        let out = self.rx.insert(offset, data);
        self.delivered = self.rx.offset();
        out
    }

    /// True once all bytes up to FIN have been delivered.
    pub fn is_complete(&self) -> bool {
        matches!(self.fin_at, Some(end) if self.delivered >= end)
    }
}

/// All streams plus connection-level flow control.
#[derive(Debug)]
pub struct StreamSet {
    /// Send halves by stream ID.
    pub send: SeqMap<SendStream>,
    /// Receive halves by stream ID.
    pub recv: SeqMap<RecvStream>,
    /// Peer's connection-level limit on our sending.
    pub peer_max_data: u64,
    /// Our advertised limit on the peer's sending.
    pub local_max_data: u64,
    /// Total stream bytes we have sent (counted against peer_max_data).
    pub data_sent: u64,
    /// Total stream bytes received (counted against local_max_data).
    pub data_recvd: u64,
    /// Default per-stream credit granted to peer streams.
    pub default_stream_credit: u64,
    /// Connection-level receive window size (slides over data_recvd).
    pub conn_window: u64,
}

impl StreamSet {
    /// Creates a stream set with symmetric initial limits.
    pub fn new(initial_max_data: u64, initial_max_stream_data: u64) -> Self {
        StreamSet {
            send: SeqMap::new(),
            recv: SeqMap::new(),
            peer_max_data: initial_max_data,
            local_max_data: initial_max_data,
            data_sent: 0,
            data_recvd: 0,
            default_stream_credit: initial_max_stream_data,
            conn_window: initial_max_data,
        }
    }

    /// Opens (or returns) the send half of `id`.
    pub fn send_stream(&mut self, stream_id: u64) -> &mut SendStream {
        let credit = self.default_stream_credit;
        self.send.get_or_insert_with(stream_id, || SendStream {
            max_stream_data: credit,
            ..SendStream::default()
        })
    }

    /// Returns the receive half of `id`, creating it on first use.
    pub fn recv_stream(&mut self, stream_id: u64) -> &mut RecvStream {
        self.recv.get_or_insert_with(stream_id, RecvStream::default)
    }

    /// Connection-level send budget remaining.
    pub fn conn_send_budget(&self) -> u64 {
        self.peer_max_data.saturating_sub(self.data_sent)
    }

    /// Any stream wants to transmit and budget remains.
    pub fn want_send(&self) -> bool {
        self.conn_send_budget() > 0 && self.send.values().any(SendStream::want_send)
    }

    /// Whether we should grant the peer more connection credit: the
    /// window slides once the peer has consumed half of it (the update
    /// cadence real receivers exhibit, which drives the ack-eliciting
    /// client packets counted in Figure 11).
    pub fn should_send_max_data(&self) -> bool {
        self.data_recvd + self.conn_window / 2 > self.local_max_data
    }

    /// Computes the next MAX_DATA value: a sliding window of the initial
    /// size above the consumed amount.
    pub fn next_max_data(&mut self) -> u64 {
        self.local_max_data = self.data_recvd + self.conn_window;
        self.local_max_data
    }

    /// Per-stream flow-control grants that are due: streams whose peer has
    /// consumed more than half of the credit we last advertised. Returns
    /// `(stream_id, new_limit)` pairs and records the new grants.
    pub fn stream_credit_updates(&mut self) -> Vec<(u64, u64)> {
        let default = self.default_stream_credit;
        let mut out = Vec::new();
        for (sid, rs) in self.recv.iter_mut() {
            if rs.fin_at.is_some() {
                continue; // finished streams need no more credit
            }
            let granted = if rs.granted == 0 { default } else { rs.granted };
            if rs.delivered + default / 2 > granted {
                let new_grant = rs.delivered + default;
                rs.granted = new_grant;
                out.push((sid, new_grant));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_properties() {
        assert!(id::is_client_initiated(0));
        assert!(id::is_bidi(0));
        assert!(!id::is_client_initiated(3));
        assert!(!id::is_bidi(3));
        assert!(id::is_client_initiated(4));
    }

    #[test]
    fn send_stream_respects_limit() {
        let mut s = SendStream {
            max_stream_data: 10,
            ..SendStream::default()
        };
        s.write(&[9u8; 20], true);
        let (off, data, fin) = s.take(100).unwrap();
        assert_eq!((off, data.len(), fin), (0, 10, false));
        assert_eq!(s.sendable(), 0);
        assert!(s.want_send(), "fin still pending behind flow control");
        // Raise the limit; the rest plus FIN flows.
        s.max_stream_data = 20;
        let (off, data, fin) = s.take(100).unwrap();
        assert_eq!((off, data.len(), fin), (10, 10, true));
        assert!(!s.want_send());
    }

    #[test]
    fn send_stream_fin_only_frame() {
        let mut s = SendStream {
            max_stream_data: 100,
            ..SendStream::default()
        };
        s.write(b"x", false);
        let _ = s.take(10).unwrap();
        s.write(&[], true);
        let (off, data, fin) = s.take(10).unwrap();
        assert_eq!((off, data.len(), fin), (1, 0, true));
    }

    #[test]
    fn recv_stream_reassembles() {
        let mut r = RecvStream::default();
        assert!(r.on_frame(5, b"world", true).is_empty());
        let out = r.on_frame(0, b"hello", false);
        assert_eq!(out, b"helloworld"[..]);
        assert!(r.is_complete());
    }

    #[test]
    fn recv_stream_duplicates_ignored() {
        let mut r = RecvStream::default();
        assert_eq!(r.on_frame(0, b"abc", false), b"abc"[..]);
        assert!(r.on_frame(0, b"abc", false).is_empty());
        assert_eq!(r.delivered, 3);
    }

    #[test]
    fn connection_flow_control_window() {
        let mut set = StreamSet::new(100, 50);
        assert_eq!(set.conn_send_budget(), 100);
        set.data_sent = 80;
        assert_eq!(set.conn_send_budget(), 20);
        // Window slides once half of it is consumed.
        set.data_recvd = 49;
        assert!(!set.should_send_max_data());
        set.data_recvd = 60;
        assert!(set.should_send_max_data());
        assert_eq!(set.next_max_data(), 160);
        assert!(!set.should_send_max_data());
    }

    #[test]
    fn want_send_combines_streams_and_budget() {
        let mut set = StreamSet::new(100, 100);
        assert!(!set.want_send());
        set.send_stream(0).write(b"req", true);
        assert!(set.want_send());
        set.data_sent = 100;
        assert!(!set.want_send(), "exhausted connection budget blocks send");
    }
}
