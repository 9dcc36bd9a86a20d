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
//! The list holds one spare more than there are datagrams in flight,
//! but at least `FLOOR` and at most `CAP`. Within a run, a delivery
//! is what prompts a send, so the datagrams in flight bound what the
//! next sends can use. Past the end of a run, storage no longer waits
//! for sends that may not come: the testbed keeps one network per
//! thread and resets it for the thread's next run (`Network::reset`),
//! whose handshake sends datagrams of the lengths the last one sent. The
//! floor keeps a handshake's worth of storage for it; without the floor,
//! the next run's first reclaim would trim the list back to one spare.
//! Storage of lengths no later run sends waits in at most `FLOOR`
//! buffers until newer storage pushes it out.

use std::collections::VecDeque;
use std::sync::Arc;

use rq_wire::Bytes;

/// Buffers kept at most; taking one back past the limit evicts the
/// oldest. With 64, `bulk_transfer` (seed 1) makes 3,964.5 allocations
/// per op where it made 9,792.5. A list that refused instead of evicting
/// filled with ACK-sized buffers (8,256), one of 16 or 32 kept too few
/// full-sized ones (5,713.5 and 5,092), and a list per length cost a
/// handshake one allocation per length it met. No cap at all (one spare
/// more than in flight, however many) read 2,077 where 64 read 3,893.5,
/// but it saves allocations by holding memory: storage waiting between
/// a delivery and the next send of its length. The live weight of a
/// loaded server's client–server pair (`handshake_alloc.rs`) rose from
/// 20,022 to 20,966 bytes, past its 20,600 ceiling, and `bulk_transfer`'s
/// `peak_heap_mib` from 9.017 to 9.135.
const CAP: usize = 64;

/// Buffers kept whatever is in flight: the 23 datagrams of a
/// handshake (`alloc_sites quic-go iack 1 2`) and one more.
const FLOOR: usize = 24;

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
        let limit = in_flight.saturating_add(1).clamp(FLOOR as u64, CAP as u64) as usize;
        while self.free.len() >= limit {
            self.free.pop_front();
        }
        if self.free.capacity() == 0 {
            // Room for the floor at once, not in three growths.
            self.free.reserve_exact(FLOOR);
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
        let in_flight = FLOOR as u64 + 3;
        for len in 1..=FLOOR + 4 {
            spares.reclaim(Bytes::build(len, |_| {}).into(), in_flight);
        }
        assert_eq!(spares.len(), FLOOR + 4, "one more than in flight");
        spares.reclaim(Bytes::build(100, |_| {}).into(), FLOOR as u64 + 1);
        let kept: Vec<usize> = (4..=FLOOR + 4).chain([100]).collect();
        assert_eq!(lens(&spares), kept, "the oldest go first");
        // A miss builds new storage and leaves the list as it is.
        assert_eq!(&spares.build(200, |buf| buf[0] = 9)[..3], [9, 0, 0]);
        assert_eq!(lens(&spares), kept);
        assert_eq!(spares.build(5, |_| {}).len(), 5);
        assert_eq!(spares.len(), FLOOR + 1);
    }

    #[test]
    fn a_handshake_s_worth_stays_with_nothing_in_flight() {
        let mut spares = Spares::default();
        for len in 1..=FLOOR + 2 {
            spares.reclaim(Bytes::build(len, |_| {}).into(), 0);
        }
        let kept: Vec<usize> = (3..=FLOOR + 2).collect();
        assert_eq!(lens(&spares), kept, "the newest {FLOOR}");
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
