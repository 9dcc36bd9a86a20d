//! QUIC wire format (RFC 9000) encoding and decoding.
//!
//! This crate implements the byte-level QUIC wire image used by the
//! ReACKed-QUICer reproduction: variable-length integers, long and short
//! packet headers, the frame set required for 1-RTT handshakes and data
//! transfer, and UDP datagram coalescing.
//!
//! Two deliberate simplifications versus a production stack (listed with
//! the others under "Substitutions" in the root `README.md`):
//!
//! * Packet numbers are always encoded with the maximum 4-byte length
//!   (a valid choice per RFC 9000 §17.1) instead of being truncated to the
//!   shortest representation, and header protection is not applied. The
//!   paper's results depend on packet timing and sizes, not on header
//!   confidentiality; keeping packet numbers readable makes datagram
//!   classification and qlog reconstruction exact.
//! * Payload protection is a 16-byte authentication tag provided by the
//!   caller (`rq-tls` in this workspace). The tag length matches AES-GCM so
//!   all datagram sizes — and therefore all anti-amplification arithmetic —
//!   are byte-accurate.

#![forbid(unsafe_code)]

pub mod coalesce;
pub mod error;
pub mod frame;
pub mod frame_list;
pub mod header;
pub mod packet;
pub mod varint;

/// The shared byte buffer datagrams and frame payloads travel in,
/// re-exported so the crates above reach it without an edge of their own.
pub use bytes::Bytes;
pub use coalesce::{classify_datagram, DatagramInfo, PacketSummary};
pub use error::WireError;
pub use frame::{AckFrame, AckRanges, Frame};
pub use frame_list::FrameList;
pub use header::{ConnectionId, Header, PacketType};
pub use packet::{PacketNumberSpace, PlainPacket, AEAD_TAG_LEN};
pub use varint::VarInt;

/// Result alias used throughout the wire crate.
pub type Result<T> = std::result::Result<T, WireError>;

/// The minimum UDP payload a client must send for Initial packets
/// (RFC 9000 §14.1).
pub const MIN_INITIAL_DATAGRAM: usize = 1200;

/// QUIC version 1 (RFC 9000).
pub const QUIC_V1: u32 = 0x0000_0001;
