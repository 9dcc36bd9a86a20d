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

/// A received handshake message, as [`HandshakeMessage::decode`] cuts it
/// from the crypto stream; what an endpoint sends is an [`Outgoing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeMessage {
    /// Message type.
    pub ty: HandshakeType,
    /// Opaque body bytes (content is simulated; only sizes and the
    /// embedded metadata below matter).
    pub body: Bytes,
}

impl HandshakeMessage {
    /// Decodes one message if a complete one is available; returns `None`
    /// when more bytes are needed. On a `Bytes` cursor the body is a view
    /// of the cursor's storage, not a copy.
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
}

/// A handshake message this endpoint sends. It is a description, not
/// bytes: [`Outgoing::encode`] writes header and body straight into the
/// flight being built, so a body never exists on its own.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outgoing<'a> {
    /// A ClientHello of `total_len` bytes carrying `random`; with a
    /// ticket, the PSK marker, the early-data flag and the opaque ticket
    /// follow the random (the PSK extension costs real bytes on the
    /// wire, so the resumption CH may exceed `total_len` to fit them).
    ClientHello {
        random: [u8; 32],
        total_len: usize,
        ticket: Option<(&'a [u8; TICKET_LEN], bool)>,
    },
    /// A ServerHello carrying `random`; `resumed` holds the 0-RTT outcome
    /// of an abbreviated (PSK-accepted) handshake.
    ServerHello {
        random: [u8; 32],
        resumed: Option<bool>,
    },
    /// EncryptedExtensions.
    EncryptedExtensions,
    /// A Certificate message whose *total* size is the given length (the
    /// paper quotes whole-chain sizes, e.g. 1,212 or 5,113 bytes).
    Certificate(usize),
    /// CertificateVerify.
    CertificateVerify,
    /// Finished with the given 32-byte verify-data.
    Finished([u8; 32]),
    /// A NewSessionTicket carrying the opaque ticket, its lifetime and
    /// the server's early-data support flag.
    NewSessionTicket {
        lifetime_secs: u32,
        early_data_allowed: bool,
        ticket: &'a [u8; TICKET_LEN],
    },
}

impl Outgoing<'_> {
    fn ty(&self) -> HandshakeType {
        match self {
            Outgoing::ClientHello { .. } => HandshakeType::ClientHello,
            Outgoing::ServerHello { .. } => HandshakeType::ServerHello,
            Outgoing::EncryptedExtensions => HandshakeType::EncryptedExtensions,
            Outgoing::Certificate(_) => HandshakeType::Certificate,
            Outgoing::CertificateVerify => HandshakeType::CertificateVerify,
            Outgoing::Finished(_) => HandshakeType::Finished,
            Outgoing::NewSessionTicket { .. } => HandshakeType::NewSessionTicket,
        }
    }

    /// Total wire size (4-byte header + body).
    pub(crate) fn wire_len(&self) -> usize {
        match *self {
            Outgoing::ClientHello {
                total_len,
                ticket: None,
                ..
            } => {
                assert!(total_len >= 4 + 32, "ClientHello must fit its random");
                total_len
            }
            Outgoing::ClientHello { total_len, .. } => total_len.max(4 + 32 + 2 + TICKET_LEN),
            Outgoing::ServerHello { .. } => SERVER_HELLO_LEN,
            Outgoing::EncryptedExtensions => ENCRYPTED_EXTENSIONS_LEN,
            Outgoing::Certificate(total_len) => {
                assert!(total_len > 4);
                total_len
            }
            Outgoing::CertificateVerify => CERTIFICATE_VERIFY_LEN,
            Outgoing::Finished(_) => FINISHED_LEN,
            Outgoing::NewSessionTicket { .. } => NEW_SESSION_TICKET_LEN,
        }
    }

    /// Writes the header and then the body, [`Outgoing::wire_len`] bytes
    /// in all, to the front of `buf`, advancing it.
    pub(crate) fn encode(&self, buf: &mut &mut [u8]) {
        let len = self.wire_len() - 4;
        assert!(len < 1 << 24);
        buf.put_u8(self.ty().code());
        buf.put_u8((len >> 16) as u8);
        buf.put_u8((len >> 8) as u8);
        buf.put_u8(len as u8);
        // The body alone, so that each filler stops at its end.
        let (mut body, rest) = std::mem::take(buf).split_at_mut(len);
        *buf = rest;
        match *self {
            Outgoing::ClientHello { random, ticket, .. } => {
                body.put_slice(&random);
                if let Some((ticket, early_data)) = ticket {
                    body.put_u8(RESUMPTION_MARKER);
                    body.put_u8(if early_data {
                        FLAG_EARLY_DATA_OFFERED
                    } else {
                        0
                    });
                    body.put_slice(ticket);
                }
                body.fill(0x43); // 'C' filler standing in for extensions
            }
            Outgoing::ServerHello { random, resumed } => {
                body.put_slice(&random);
                if let Some(early_data_accepted) = resumed {
                    body.put_u8(RESUMPTION_MARKER);
                    body.put_u8(if early_data_accepted {
                        FLAG_PSK_ACCEPTED | FLAG_EARLY_DATA_ACCEPTED
                    } else {
                        FLAG_PSK_ACCEPTED
                    });
                }
                body.fill(0x53); // 'S'
            }
            Outgoing::EncryptedExtensions => body.fill(0x45),
            Outgoing::Certificate(_) => body.fill(0x30), // DER SEQUENCE filler
            Outgoing::CertificateVerify => body.fill(0x56),
            Outgoing::Finished(verify_data) => body.put_slice(&verify_data),
            Outgoing::NewSessionTicket {
                lifetime_secs,
                early_data_allowed,
                ticket,
            } => {
                body.put_u32(lifetime_secs);
                body.put_u8(early_data_allowed as u8);
                body.put_slice(ticket);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `m` as it goes on the wire.
    fn encoded(m: Outgoing) -> Bytes {
        Bytes::build(m.wire_len(), |mut buf| {
            m.encode(&mut buf);
            assert!(buf.is_empty(), "{m:?} fills exactly its wire length");
        })
    }

    /// `m` encoded and decoded back: one whole message of its type.
    fn roundtrip(m: Outgoing) -> HandshakeMessage {
        let mut wire = encoded(m);
        let out = HandshakeMessage::decode(&mut wire).unwrap().unwrap();
        assert_eq!(out.ty, m.ty());
        assert_eq!(out.body.len() + 4, m.wire_len());
        assert_eq!(wire.remaining(), 0);
        out
    }

    fn client_hello(ticket: Option<(&[u8; TICKET_LEN], bool)>) -> Outgoing<'_> {
        Outgoing::ClientHello {
            random: [9; 32],
            total_len: DEFAULT_CLIENT_HELLO_LEN,
            ticket,
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        let ticket = [0xEE; TICKET_LEN];
        for m in [
            client_hello(None),
            client_hello(Some((&ticket, true))),
            Outgoing::ServerHello {
                random: [2; 32],
                resumed: None,
            },
            Outgoing::ServerHello {
                random: [5; 32],
                resumed: Some(false),
            },
            Outgoing::EncryptedExtensions,
            Outgoing::Certificate(CERT_SMALL),
            Outgoing::Certificate(CERT_LARGE),
            Outgoing::CertificateVerify,
            Outgoing::Finished([3; 32]),
            Outgoing::NewSessionTicket {
                lifetime_secs: 7200,
                early_data_allowed: true,
                ticket: &ticket,
            },
        ] {
            roundtrip(m);
        }
    }

    #[test]
    fn bodies_are_their_random_or_verify_data_then_filler() {
        let ch = roundtrip(client_hello(None));
        assert_eq!(ch.body[..32], [9; 32]);
        assert!(ch.body[32..].iter().all(|&b| b == 0x43));
        let fin = roundtrip(Outgoing::Finished([3; 32]));
        assert_eq!(fin.body[..], [3; 32]);
        let cert = roundtrip(Outgoing::Certificate(100));
        assert!(cert.body.iter().all(|&b| b == 0x30));
        let wire = encoded(Outgoing::EncryptedExtensions);
        assert_eq!(wire[..4], [8, 0, 0, 66]);
        assert!(wire[4..].iter().all(|&b| b == 0x45));
    }

    #[test]
    fn resumption_offer_roundtrip_and_absence() {
        let ticket = [0xAB; TICKET_LEN];
        let ch = roundtrip(client_hello(Some((&ticket, true))));
        assert_eq!(ch.body.len() + 4, DEFAULT_CLIENT_HELLO_LEN);
        assert_eq!(ch.body[..32], [9; 32]);
        assert_eq!(ch.resumption_offer(), Some((ticket, true)));
        let no_early = roundtrip(client_hello(Some((&ticket, false))));
        assert_eq!(no_early.resumption_offer(), Some((ticket, false)));
        // A plain CH carries no offer (filler byte differs from the marker).
        assert_eq!(roundtrip(client_hello(None)).resumption_offer(), None);
        // A short CH grows to fit its ticket.
        let short = Outgoing::ClientHello {
            random: [9; 32],
            total_len: 40,
            ticket: Some((&ticket, false)),
        };
        assert_eq!(short.wire_len(), 4 + 32 + 2 + TICKET_LEN);
        assert_eq!(roundtrip(short).resumption_offer(), Some((ticket, false)));
    }

    #[test]
    fn resumption_outcome_flags() {
        let sh = |resumed| {
            roundtrip(Outgoing::ServerHello {
                random: [1; 32],
                resumed,
            })
        };
        assert_eq!(sh(Some(true)).body.len() + 4, SERVER_HELLO_LEN);
        assert_eq!(sh(Some(true)).resumption_outcome(), Some((true, true)));
        assert_eq!(sh(Some(false)).resumption_outcome(), Some((true, false)));
        assert_eq!(sh(None).resumption_outcome(), None);
    }

    #[test]
    fn new_session_ticket_parses() {
        let ticket = [0x3C; TICKET_LEN];
        let nst = roundtrip(Outgoing::NewSessionTicket {
            lifetime_secs: 86_400,
            early_data_allowed: false,
            ticket: &ticket,
        });
        assert_eq!(nst.body.len() + 4, NEW_SESSION_TICKET_LEN);
        assert_eq!(
            nst.parse_new_session_ticket(),
            Some((86_400, false, ticket))
        );
        assert_eq!(
            roundtrip(Outgoing::Finished([0; 32])).parse_new_session_ticket(),
            None
        );
    }

    #[test]
    fn sizes_match_constants() {
        assert_eq!(client_hello(None).wire_len(), DEFAULT_CLIENT_HELLO_LEN);
        let sh = Outgoing::ServerHello {
            random: [0; 32],
            resumed: None,
        };
        assert_eq!(sh.wire_len(), SERVER_HELLO_LEN);
        assert_eq!(Outgoing::Certificate(CERT_SMALL).wire_len(), CERT_SMALL);
        assert_eq!(Outgoing::Certificate(CERT_LARGE).wire_len(), CERT_LARGE);
        assert_eq!(
            Outgoing::CertificateVerify.wire_len(),
            CERTIFICATE_VERIFY_LEN
        );
        assert_eq!(Outgoing::Finished([0; 32]).wire_len(), FINISHED_LEN);
    }

    #[test]
    fn partial_decode_returns_none() {
        let wire = encoded(Outgoing::Certificate(100));
        let mut partial = wire.slice(..50);
        assert_eq!(HandshakeMessage::decode(&mut partial).unwrap(), None);
        // Nothing consumed on partial decode.
        assert_eq!(partial.remaining(), 50);
    }

    #[test]
    fn streaming_decode_across_messages() {
        let sh = Outgoing::ServerHello {
            random: [9; 32],
            resumed: None,
        };
        let ee = Outgoing::EncryptedExtensions;
        let mut stream = Bytes::build(sh.wire_len() + ee.wire_len(), |mut buf| {
            sh.encode(&mut buf);
            ee.encode(&mut buf);
        });
        let m1 = HandshakeMessage::decode(&mut stream).unwrap().unwrap();
        let m2 = HandshakeMessage::decode(&mut stream).unwrap().unwrap();
        assert_eq!(m1.ty, HandshakeType::ServerHello);
        assert_eq!(m2.ty, HandshakeType::EncryptedExtensions);
        assert_eq!(HandshakeMessage::decode(&mut stream).unwrap(), None);
    }

    #[test]
    fn random_extraction() {
        let ch = roundtrip(Outgoing::ClientHello {
            random: [7; 32],
            total_len: 200,
            ticket: None,
        });
        assert_eq!(ch.body[..32], [7; 32]);
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
