//! Datagram storage handed back for reuse: the simulated form of a NIC's
//! receive ring or an io_uring provided-buffer group.
//!
//! The engine takes a datagram's storage back once the datagram has
//! been delivered (or dropped, or addressed to a retired node) and no
//! view of it is left anywhere: a receiver that keeps part of it, as a
//! connection keeps a packet it cannot open yet, keeps the whole
//! storage, and the engine never sees it again. A sender then builds its
//! next datagram of the same length in that storage instead of asking
//! the heap. Reuse is exact-length only, so a datagram is as long as its
//! storage and the event queue carries it unchanged.
//!
//! The list holds at most one spare more than there are datagrams in
//! flight, and never more than [`CAP`]: a delivery is what prompts a
//! send, so storage past that would wait for sends that may not come.
//! A transfer keeps the list full; a handshake's last flight, whose
//! lengths no one sends again, leaves with the next deliveries instead of
//! staying until the network goes.

use std::collections::VecDeque;
use std::sync::Arc;

use rq_wire::Bytes;

/// Buffers kept at most; taking one back past the limit evicts the
/// oldest. With 64, `bulk_transfer` (seed 1) makes 3,964.5 allocations
/// per op where it made 9,792.5. A list that refused instead of evicting
/// filled with ACK-sized buffers (8,256), one of 16 or 32 kept too few
/// full-sized ones (5,713.5 and 5,092), and a list per length cost a
/// handshake one allocation per length it met.
const CAP: usize = 64;

/// Datagram storage no one holds, newest last.
#[derive(Debug, Default)]
pub struct Spares {
    free: VecDeque<Arc<[u8]>>,
}

impl Spares {
    /// Keeps `storage` for a later [`Spares::build`] if nothing else
    /// holds it, with `in_flight` datagrams still queued for delivery;
    /// storage still shared is left to its other holders.
    pub(crate) fn reclaim(&mut self, mut storage: Arc<[u8]>, in_flight: u64) {
        if Arc::get_mut(&mut storage).is_none() {
            return;
        }
        let limit = in_flight.saturating_add(1).min(CAP as u64) as usize;
        while self.free.len() >= limit {
            self.free.pop_front();
        }
        self.free.push_back(storage);
    }

    /// `len` bytes that start out zero and that `fill` writes in place:
    /// the bytes [`Bytes::build`] gives, in the newest spare of exactly
    /// `len` bytes when there is one, else in new storage.
    pub fn build(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Bytes {
        let Some(i) = self.free.iter().rposition(|spare| spare.len() == len) else {
            return Bytes::build(len, fill);
        };
        let mut storage = self.free.remove(i).expect("position in range");
        let buf = Arc::get_mut(&mut storage).expect("a spare has one holder");
        buf.fill(0);
        fill(buf);
        Bytes::from(storage)
    }

    /// Buffers waiting.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(buf: &mut [u8]) {
        buf[1] = 7;
        buf[3..5].copy_from_slice(b"ab");
    }

    fn lens(spares: &Spares) -> Vec<usize> {
        spares.free.iter().map(|spare| spare.len()).collect()
    }

    #[test]
    fn a_dirty_spare_builds_what_bytes_build_builds() {
        let mut spares = Spares::default();
        let dirty = Bytes::build(6, |buf| buf.fill(0xEE));
        let at = dirty.as_ptr();
        spares.reclaim(dirty.into(), 0);
        let reused = spares.build(6, fill);
        assert_eq!(reused.as_ptr(), at, "the spare's storage is reused");
        assert_eq!(reused, Bytes::build(6, fill));
        assert_eq!(&reused[..], b"\0\x07\0ab\0");
        assert_eq!(spares.len(), 0);
    }

    #[test]
    fn only_storage_nobody_holds_is_kept() {
        let mut spares = Spares::default();
        let held = Bytes::build(4, |buf| buf.fill(1));
        let view = held.slice(1..);
        spares.reclaim(held.into(), 0);
        assert_eq!(spares.len(), 0, "storage with a view left is not kept");
        assert_eq!(&view[..], [1, 1, 1]);
        spares.reclaim(Bytes::build(4, |buf| buf.fill(2)).into(), 0);
        assert_eq!(spares.len(), 1);
        assert_eq!(&spares.build(4, |_| {})[..], [0; 4]);
        assert_eq!(spares.len(), 0);
    }

    #[test]
    fn the_list_holds_one_spare_more_than_is_in_flight() {
        let mut spares = Spares::default();
        for len in [3, 4, 5] {
            spares.reclaim(Bytes::build(len, |_| {}).into(), 10);
        }
        spares.reclaim(Bytes::build(6, |_| {}).into(), 1);
        assert_eq!(lens(&spares), [5, 6], "the oldest go first");
        // A miss builds new storage and leaves the list as it is.
        assert_eq!(
            &spares.build(7, |buf| buf[0] = 9)[..],
            [9, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(lens(&spares), [5, 6]);
        assert_eq!(spares.build(5, |_| {}).len(), 5);
        assert_eq!(lens(&spares), [6]);
    }

    #[test]
    fn a_full_list_evicts_its_oldest() {
        let mut spares = Spares::default();
        for len in 0..=CAP {
            spares.reclaim(Bytes::build(len + 1, |_| {}).into(), u64::MAX);
        }
        assert_eq!(spares.len(), CAP);
        assert!(spares.free.iter().all(|spare| spare.len() != 1));
        assert_eq!(spares.free.back().map(|s| s.len()), Some(CAP + 1));
    }
}
