//! Simulated TLS 1.3 handshake messages.
//!
//! Each message uses the real TLS handshake framing — a 1-byte type and a
//! 24-bit length — and bodies sized to match typical deployments, because
//! the paper's amplification-limit results depend on the *byte sizes* of
//! the server's first flight (certificate 1,212 B vs 5,113 B).

use bytes::{Buf, BufMut, Bytes};

use crate::resumption::TICKET_LEN;
use crate::TlsError;

/// TLS handshake message types (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandshakeType {
    /// ClientHello.
    ClientHello,
    /// ServerHello.
    ServerHello,
    /// NewSessionTicket (post-handshake, 1-RTT level).
    NewSessionTicket,
    /// EncryptedExtensions.
    EncryptedExtensions,
    /// Certificate.
    Certificate,
    /// CertificateVerify.
    CertificateVerify,
    /// Finished.
    Finished,
}

impl HandshakeType {
    /// Wire code (RFC 8446 §4).
    pub fn code(self) -> u8 {
        match self {
            HandshakeType::ClientHello => 1,
            HandshakeType::ServerHello => 2,
            HandshakeType::NewSessionTicket => 4,
            HandshakeType::EncryptedExtensions => 8,
            HandshakeType::Certificate => 11,
            HandshakeType::CertificateVerify => 15,
            HandshakeType::Finished => 20,
        }
    }

    /// Parses a wire code.
    fn from_code(code: u8) -> Result<Self, TlsError> {
        Ok(match code {
            1 => HandshakeType::ClientHello,
            2 => HandshakeType::ServerHello,
            4 => HandshakeType::NewSessionTicket,
            8 => HandshakeType::EncryptedExtensions,
            11 => HandshakeType::Certificate,
            15 => HandshakeType::CertificateVerify,
            20 => HandshakeType::Finished,
            other => return Err(TlsError::UnknownMessage(other)),
        })
    }
}

/// Default total ClientHello size (framing + body) in bytes: a typical
/// browser CH with SNI/ALPN/key-share runs ~280–350 bytes.
pub const DEFAULT_CLIENT_HELLO_LEN: usize = 320;
/// Total ServerHello size in bytes (90-byte body + 4-byte framing is the
/// common X25519 SH shape).
const SERVER_HELLO_LEN: usize = 94;
/// Total EncryptedExtensions size.
const ENCRYPTED_EXTENSIONS_LEN: usize = 70;
/// Total CertificateVerify size (ECDSA-P256 signature).
const CERTIFICATE_VERIFY_LEN: usize = 268;
/// Total Finished size (32-byte verify-data + framing).
pub const FINISHED_LEN: usize = 36;

/// The paper's small certificate chain: allows a 1-RTT handshake.
pub const CERT_SMALL: usize = 1212;
/// The paper's large certificate chain: exceeds the 3x anti-amplification
/// budget of a 1,200-byte client Initial.
pub const CERT_LARGE: usize = 5113;

/// Total NewSessionTicket size: 4-byte framing + lifetime (4) + flags (1)
/// + opaque ticket.
pub(crate) const NEW_SESSION_TICKET_LEN: usize = 4 + 4 + 1 + TICKET_LEN;

/// Marker byte at body offset 32 distinguishing resumption-capable
/// CH/SH bodies from the plain fillers (`0x43` / `0x53`), standing in
/// for the `pre_shared_key` / `early_data` extensions.
const RESUMPTION_MARKER: u8 = 0xA5;
/// CH flag: the client offers 0-RTT early data with its ticket.
const FLAG_EARLY_DATA_OFFERED: u8 = 0x01;
/// SH flag: the server accepted the offered PSK (abbreviated handshake).
const FLAG_PSK_ACCEPTED: u8 = 0x01;
/// SH flag: the server accepted the offered early data.
const FLAG_EARLY_DATA_ACCEPTED: u8 = 0x02;

/// A parsed handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeMessage {
    /// Message type.
    pub ty: HandshakeType,
    /// Opaque body bytes (content is simulated; only sizes and the
    /// embedded metadata below matter).
    pub body: Bytes,
}

impl HandshakeMessage {
    /// Total wire size (4-byte header + body).
    pub fn wire_len(&self) -> usize {
        4 + self.body.len()
    }

    /// Encodes header + body.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.ty.code());
        let len = self.body.len();
        assert!(len < 1 << 24);
        buf.put_u8((len >> 16) as u8);
        buf.put_u8((len >> 8) as u8);
        buf.put_u8(len as u8);
        buf.put_slice(&self.body);
    }

    /// Decodes one message if a complete one is available; returns `None`
    /// when more bytes are needed.
    pub fn decode(buf: &mut impl Buf) -> Result<Option<HandshakeMessage>, TlsError> {
        if buf.remaining() < 4 {
            return Ok(None);
        }
        // Peek without consuming in case the body is incomplete; `chunk`
        // is every remaining byte, so it holds the whole header.
        let head = buf.chunk();
        let ty_code = head[0];
        let len = ((head[1] as usize) << 16) | ((head[2] as usize) << 8) | head[3] as usize;
        if buf.remaining() < 4 + len {
            return Ok(None);
        }
        buf.advance(4);
        let body = buf.copy_to_bytes(len);
        Ok(Some(HandshakeMessage {
            ty: HandshakeType::from_code(ty_code)?,
            body,
        }))
    }

    /// Builds a ClientHello of `total_len` bytes carrying a 32-byte random.
    pub fn client_hello(random: [u8; 32], total_len: usize) -> Self {
        assert!(total_len >= 4 + 32, "ClientHello must fit its random");
        HandshakeMessage {
            ty: HandshakeType::ClientHello,
            body: Bytes::build(total_len - 4, |mut body| {
                body.put_slice(&random);
                body.fill(0x43); // 'C' filler standing in for extensions
            }),
        }
    }

    /// Builds a resumption ClientHello of `total_len` bytes: the random,
    /// the PSK marker + flags, and the opaque ticket, padded with the
    /// regular extension filler (the PSK extension costs real bytes on
    /// the wire, so the resumption CH is allowed to exceed `total_len`'s
    /// floor only via its own framing).
    pub fn client_hello_resumption(
        random: [u8; 32],
        total_len: usize,
        ticket: &[u8; TICKET_LEN],
        early_data: bool,
    ) -> Self {
        let floor = 4 + 32 + 2 + TICKET_LEN;
        let total_len = total_len.max(floor);
        HandshakeMessage {
            ty: HandshakeType::ClientHello,
            body: Bytes::build(total_len - 4, |mut body| {
                body.put_slice(&random);
                body.put_u8(RESUMPTION_MARKER);
                body.put_u8(if early_data {
                    FLAG_EARLY_DATA_OFFERED
                } else {
                    0
                });
                body.put_slice(ticket);
                body.fill(0x43);
            }),
        }
    }

    /// Parses a ClientHello body's resumption offer: `(ticket,
    /// early_data_offered)`, or `None` for a plain full-handshake CH.
    pub fn resumption_offer(&self) -> Option<([u8; TICKET_LEN], bool)> {
        if self.ty != HandshakeType::ClientHello || self.body.len() < 34 + TICKET_LEN {
            return None;
        }
        if self.body[32] != RESUMPTION_MARKER {
            return None;
        }
        let early = self.body[33] & FLAG_EARLY_DATA_OFFERED != 0;
        let mut ticket = [0u8; TICKET_LEN];
        ticket.copy_from_slice(&self.body[34..34 + TICKET_LEN]);
        Some((ticket, early))
    }

    /// Builds a ServerHello carrying a 32-byte random.
    pub fn server_hello(random: [u8; 32]) -> Self {
        HandshakeMessage {
            ty: HandshakeType::ServerHello,
            body: Bytes::build(SERVER_HELLO_LEN - 4, |mut body| {
                body.put_slice(&random);
                body.fill(0x53); // 'S'
            }),
        }
    }

    /// Builds the ServerHello of an abbreviated (PSK-accepted) handshake,
    /// flagging whether offered early data was accepted.
    pub fn server_hello_resumed(random: [u8; 32], early_data_accepted: bool) -> Self {
        let mut flags = FLAG_PSK_ACCEPTED;
        if early_data_accepted {
            flags |= FLAG_EARLY_DATA_ACCEPTED;
        }
        HandshakeMessage {
            ty: HandshakeType::ServerHello,
            body: Bytes::build(SERVER_HELLO_LEN - 4, |mut body| {
                body.put_slice(&random);
                body.put_u8(RESUMPTION_MARKER);
                body.put_u8(flags);
                body.fill(0x53);
            }),
        }
    }

    /// Parses a ServerHello body's resumption outcome:
    /// `(psk_accepted, early_data_accepted)`; `None` for a plain SH
    /// (which a resuming client reads as "fall back to full handshake").
    pub fn resumption_outcome(&self) -> Option<(bool, bool)> {
        if self.ty != HandshakeType::ServerHello || self.body.len() < 34 {
            return None;
        }
        if self.body[32] != RESUMPTION_MARKER {
            return None;
        }
        let flags = self.body[33];
        Some((
            flags & FLAG_PSK_ACCEPTED != 0,
            flags & FLAG_EARLY_DATA_ACCEPTED != 0,
        ))
    }

    /// Builds a NewSessionTicket carrying the opaque ticket, its
    /// lifetime, and the server's early-data support flag.
    pub fn new_session_ticket(
        lifetime_secs: u32,
        early_data_allowed: bool,
        ticket: &[u8; TICKET_LEN],
    ) -> Self {
        HandshakeMessage {
            ty: HandshakeType::NewSessionTicket,
            body: Bytes::build(NEW_SESSION_TICKET_LEN - 4, |mut body| {
                body.put_u32(lifetime_secs);
                body.put_u8(early_data_allowed as u8);
                body.put_slice(ticket);
            }),
        }
    }

    /// Parses a NewSessionTicket body:
    /// `(lifetime_secs, early_data_allowed, ticket)`.
    pub fn parse_new_session_ticket(&self) -> Option<(u32, bool, [u8; TICKET_LEN])> {
        if self.ty != HandshakeType::NewSessionTicket || self.body.len() < 5 + TICKET_LEN {
            return None;
        }
        let lifetime = u32::from_be_bytes(self.body[..4].try_into().unwrap());
        let early = self.body[4] != 0;
        let mut ticket = [0u8; TICKET_LEN];
        ticket.copy_from_slice(&self.body[5..5 + TICKET_LEN]);
        Some((lifetime, early, ticket))
    }

    /// Builds EncryptedExtensions.
    pub fn encrypted_extensions() -> Self {
        HandshakeMessage {
            ty: HandshakeType::EncryptedExtensions,
            body: Bytes::build(ENCRYPTED_EXTENSIONS_LEN - 4, |body| body.fill(0x45)),
        }
    }

    /// Builds a Certificate message whose *total* size is `total_len`
    /// (the paper quotes whole-chain sizes, e.g. 1,212 or 5,113 bytes).
    pub fn certificate(total_len: usize) -> Self {
        assert!(total_len > 4);
        HandshakeMessage {
            ty: HandshakeType::Certificate,
            body: Bytes::build(total_len - 4, |body| body.fill(0x30)), // DER SEQUENCE filler
        }
    }

    /// Builds CertificateVerify.
    pub fn certificate_verify() -> Self {
        HandshakeMessage {
            ty: HandshakeType::CertificateVerify,
            body: Bytes::build(CERTIFICATE_VERIFY_LEN - 4, |body| body.fill(0x56)),
        }
    }

    /// Builds Finished with the given 32-byte verify-data.
    pub fn finished(verify_data: [u8; 32]) -> Self {
        HandshakeMessage {
            ty: HandshakeType::Finished,
            body: Bytes::copy_from_slice(&verify_data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: HandshakeMessage) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf.len(), m.wire_len());
        let mut slice = Bytes::from(buf);
        let out = HandshakeMessage::decode(&mut slice).unwrap().unwrap();
        assert_eq!(out, m);
        assert_eq!(slice.remaining(), 0);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(HandshakeMessage::client_hello(
            [1; 32],
            DEFAULT_CLIENT_HELLO_LEN,
        ));
        roundtrip(HandshakeMessage::server_hello([2; 32]));
        roundtrip(HandshakeMessage::encrypted_extensions());
        roundtrip(HandshakeMessage::certificate(CERT_SMALL));
        roundtrip(HandshakeMessage::certificate(CERT_LARGE));
        roundtrip(HandshakeMessage::certificate_verify());
        roundtrip(HandshakeMessage::finished([3; 32]));
        roundtrip(HandshakeMessage::client_hello_resumption(
            [4; 32],
            DEFAULT_CLIENT_HELLO_LEN,
            &[0xEE; TICKET_LEN],
            true,
        ));
        roundtrip(HandshakeMessage::server_hello_resumed([5; 32], false));
        roundtrip(HandshakeMessage::new_session_ticket(
            7200,
            true,
            &[0xDD; TICKET_LEN],
        ));
    }

    #[test]
    fn resumption_offer_roundtrip_and_absence() {
        let ticket = [0xAB; TICKET_LEN];
        let ch = HandshakeMessage::client_hello_resumption(
            [9; 32],
            DEFAULT_CLIENT_HELLO_LEN,
            &ticket,
            true,
        );
        assert_eq!(ch.wire_len(), DEFAULT_CLIENT_HELLO_LEN);
        assert_eq!(ch.body[..32], [9; 32]);
        assert_eq!(ch.resumption_offer(), Some((ticket, true)));
        let no_early = HandshakeMessage::client_hello_resumption(
            [9; 32],
            DEFAULT_CLIENT_HELLO_LEN,
            &ticket,
            false,
        );
        assert_eq!(no_early.resumption_offer(), Some((ticket, false)));
        // A plain CH carries no offer (filler byte differs from the marker).
        let plain = HandshakeMessage::client_hello([9; 32], DEFAULT_CLIENT_HELLO_LEN);
        assert_eq!(plain.resumption_offer(), None);
    }

    #[test]
    fn resumption_outcome_flags() {
        let sh = HandshakeMessage::server_hello_resumed([1; 32], true);
        assert_eq!(sh.wire_len(), SERVER_HELLO_LEN);
        assert_eq!(sh.resumption_outcome(), Some((true, true)));
        let no_early = HandshakeMessage::server_hello_resumed([1; 32], false);
        assert_eq!(no_early.resumption_outcome(), Some((true, false)));
        assert_eq!(
            HandshakeMessage::server_hello([1; 32]).resumption_outcome(),
            None
        );
    }

    #[test]
    fn new_session_ticket_parses() {
        let ticket = [0x3C; TICKET_LEN];
        let nst = HandshakeMessage::new_session_ticket(86_400, false, &ticket);
        assert_eq!(nst.wire_len(), NEW_SESSION_TICKET_LEN);
        assert_eq!(
            nst.parse_new_session_ticket(),
            Some((86_400, false, ticket))
        );
        assert_eq!(
            HandshakeMessage::finished([0; 32]).parse_new_session_ticket(),
            None
        );
    }

    #[test]
    fn sizes_match_constants() {
        assert_eq!(
            HandshakeMessage::client_hello([0; 32], DEFAULT_CLIENT_HELLO_LEN).wire_len(),
            DEFAULT_CLIENT_HELLO_LEN
        );
        assert_eq!(
            HandshakeMessage::server_hello([0; 32]).wire_len(),
            SERVER_HELLO_LEN
        );
        assert_eq!(
            HandshakeMessage::certificate(CERT_SMALL).wire_len(),
            CERT_SMALL
        );
        assert_eq!(
            HandshakeMessage::certificate(CERT_LARGE).wire_len(),
            CERT_LARGE
        );
        assert_eq!(
            HandshakeMessage::certificate_verify().wire_len(),
            CERTIFICATE_VERIFY_LEN
        );
        assert_eq!(HandshakeMessage::finished([0; 32]).wire_len(), FINISHED_LEN);
    }

    #[test]
    fn partial_decode_returns_none() {
        let m = HandshakeMessage::certificate(100);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut partial = Bytes::copy_from_slice(&buf[..50]);
        assert_eq!(HandshakeMessage::decode(&mut partial).unwrap(), None);
        // Nothing consumed on partial decode.
        assert_eq!(partial.remaining(), 50);
    }

    #[test]
    fn streaming_decode_across_messages() {
        let mut buf = Vec::new();
        HandshakeMessage::server_hello([9; 32]).encode(&mut buf);
        HandshakeMessage::encrypted_extensions().encode(&mut buf);
        let mut stream = Bytes::from(buf);
        let m1 = HandshakeMessage::decode(&mut stream).unwrap().unwrap();
        let m2 = HandshakeMessage::decode(&mut stream).unwrap().unwrap();
        assert_eq!(m1.ty, HandshakeType::ServerHello);
        assert_eq!(m2.ty, HandshakeType::EncryptedExtensions);
        assert_eq!(HandshakeMessage::decode(&mut stream).unwrap(), None);
    }

    #[test]
    fn random_extraction() {
        let m = HandshakeMessage::client_hello([7; 32], 200);
        assert_eq!(m.body[..32], [7; 32]);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut raw = Bytes::copy_from_slice(&[99, 0, 0, 1, 0]);
        assert!(matches!(
            HandshakeMessage::decode(&mut raw),
            Err(TlsError::UnknownMessage(99))
        ));
    }
}
