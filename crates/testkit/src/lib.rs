//! What the workspace's test suites share, and nothing the product links:
//! every crate takes this as a dev-dependency only.
//!
//! - [`prop`]: property cases, each a pure function of its index;
//! - [`alloc`]: the counting global allocator behind the allocation
//!   ceilings;
//! - [`wire`]: the check that the wire decoders agree over a copying and a
//!   viewing cursor.

pub mod alloc;
pub mod prop;
pub mod wire;
