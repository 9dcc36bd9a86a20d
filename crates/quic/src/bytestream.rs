//! The ordered byte stream under both CRYPTO and STREAM (RFC 9000 §2.2,
//! §19.6, §19.8): bytes at offsets, cut into `(offset, bytes)` frames on
//! the way out and put back in order on the way in. [`SendBuf`] is the
//! first half, [`Reassembler`] the second; what differs between the two
//! frame types (FIN, flow control, the retransmission-overlap signal)
//! stays with [`crate::space::CryptoStream`] and [`crate::streams`].

use std::collections::{BTreeMap, VecDeque};

use bytes::{BufMut, Bytes};

/// A run of stream bytes and the offset of its first byte: the content
/// of one CRYPTO or STREAM frame.
pub type Run = (u64, Bytes);

/// Outgoing half: an append-only queue of written buffers and a cursor
/// through it. `write_owned` adopts its input as one chunk and `write`
/// copies a slice into one; `take` hands out views into them, so it costs
/// nothing in what is still queued, frames in flight hold no second copy,
/// and a written buffer is freed once the frames cut from it are
/// acknowledged — or never was this stream's alone, when the writer kept
/// a clone to hand the same bytes to the next stream.
#[derive(Debug, Default)]
pub struct SendBuf {
    /// Written and not yet taken, oldest first; the front chunk is cut
    /// from the front as bytes are taken.
    chunks: VecDeque<Bytes>,
    /// Bytes written and not yet taken.
    len: usize,
    /// Stream offset of the next byte `take` hands out.
    offset: u64,
}

impl SendBuf {
    /// [`SendBuf::write_owned`] for a caller that holds a slice: copies
    /// `data` once.
    pub fn write(&mut self, data: &[u8]) {
        self.write_owned(Bytes::copy_from_slice(data));
    }

    /// Appends `data` behind everything already written, as it is: the
    /// queue holds the caller's storage, not a copy of it.
    pub fn write_owned(&mut self, data: Bytes) {
        if !data.is_empty() {
            self.len += data.len();
            self.chunks.push_back(data);
        }
    }

    /// Bytes written and not yet taken.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when every written byte has been taken.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stream offset of the next byte to be taken.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Takes the next `min(len, max)` bytes as one run;
    /// `None` when that is nothing. The seams between writes do not show:
    /// a run that spans two is gathered into one.
    pub fn take(&mut self, max: usize) -> Option<Run> {
        let n = self.len.min(max);
        if n == 0 {
            return None;
        }
        let mut data = self.cut_front(n);
        if data.len() < n {
            let mut run = data.to_vec();
            while run.len() < n {
                run.extend_from_slice(&self.cut_front(n - run.len()));
            }
            data = Bytes::from(run);
        }
        let offset = self.offset;
        self.offset += n as u64;
        self.len -= n;
        Some((offset, data))
    }

    /// Up to `max` bytes off the front of the oldest chunk, as a view.
    fn cut_front(&mut self, max: usize) -> Bytes {
        let front = self.chunks.front_mut().expect("len counts queued bytes");
        let cut = front.split_to(front.len().min(max));
        if front.is_empty() {
            self.chunks.pop_front();
        }
        cut
    }
}

/// Incoming half: buffers out-of-order segments and hands out each byte
/// exactly once, in order. Segments arrive as views of the datagram that
/// carried them and leave the same way whenever they can.
#[derive(Debug, Default)]
pub struct Reassembler {
    /// Segments not yet contiguous with the cursor: offset → bytes. Each
    /// is the view it arrived as, so it keeps its whole datagram alive —
    /// until the gap below it fills, which is as long as a loss takes to
    /// repair. The receive path stores a view nowhere else but in the
    /// connection's packets waiting for keys, which are as short-lived.
    segments: BTreeMap<u64, Bytes>,
    /// Every byte below this offset has been handed out.
    offset: u64,
}

impl Reassembler {
    /// The contiguous-delivery cursor.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Accepts `data` at `offset` and returns the bytes this made
    /// contiguous — empty for a duplicate or for data beyond a gap, the
    /// only data that is stored. An in-order segment that reaches nothing
    /// buffered comes back as a view of itself; one that does is gathered
    /// with what it reached into one buffer of the run's length.
    pub fn insert(&mut self, offset: u64, data: Bytes) -> Bytes {
        if offset > self.offset {
            self.segments.entry(offset).or_insert(data);
            return Bytes::new();
        }
        // In order: deliver what lies past the already-delivered prefix
        // (nothing, for a duplicate), then the buffered segments it reached.
        let skip = ((self.offset - offset) as usize).min(data.len());
        let head = data.slice(skip..);
        self.offset += head.len() as u64;
        if (self.segments.first_key_value()).is_none_or(|(&seg_off, _)| seg_off > self.offset) {
            return head;
        }
        let mut end = self.offset;
        for (&seg_off, seg) in &self.segments {
            if seg_off > end {
                break;
            }
            end = end.max(seg_off + seg.len() as u64);
        }
        let run = head.len() + (end - self.offset) as usize;
        Bytes::build(run, |mut out| {
            out.put_slice(&head);
            while let Some(entry) = self.segments.first_entry() {
                let seg_off = *entry.key();
                if seg_off > self.offset {
                    break;
                }
                let seg = entry.remove();
                let skip = (self.offset - seg_off) as usize;
                if skip < seg.len() {
                    out.put_slice(&seg[skip..]);
                    self.offset = seg_off + seg.len() as u64;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_runs_span_writes_and_offsets_advance() {
        let mut b = SendBuf::default();
        b.write(b"abc");
        b.write(b"defgh");
        assert_eq!(b.take(5), Some((0, Bytes::copy_from_slice(b"abcde"))));
        assert_eq!(b.take(0), None);
        assert_eq!(
            b.take(usize::MAX),
            Some((5, Bytes::copy_from_slice(b"fgh")))
        );
        assert!(b.is_empty());
        assert_eq!(b.take(1), None);
        // Writing after a full drain continues at the next offset.
        b.write(b"ij");
        assert_eq!((b.len(), b.offset()), (2, 8));
        assert_eq!(b.take(9), Some((8, Bytes::copy_from_slice(b"ij"))));
        // One large write comes out in `max`-sized runs, each a view of it.
        let big: Vec<u8> = (0..128 * 1024 + 7).map(|i| (i % 251) as u8).collect();
        let owned = Bytes::from(big.clone());
        b.write_owned(owned.clone());
        let mut out = Vec::new();
        while let Some((offset, run)) = b.take(1150) {
            assert_eq!(offset, 10 + out.len() as u64);
            assert!(run.len() == 1150 || b.is_empty());
            assert_eq!(run.as_ptr(), owned[out.len()..].as_ptr());
            out.extend_from_slice(&run);
        }
        assert_eq!(out, big);
    }

    #[test]
    fn reassembler_delivers_each_byte_once() {
        let mut r = Reassembler::default();
        assert!(r.insert(5, Bytes::copy_from_slice(b"world")).is_empty());
        assert_eq!(
            r.insert(0, Bytes::copy_from_slice(b"hello")),
            b"helloworld"[..]
        );
        assert!(r.insert(2, Bytes::copy_from_slice(b"llowor")).is_empty());
        assert_eq!(r.insert(8, Bytes::copy_from_slice(b"ld!")), b"!"[..]);
        assert_eq!(r.offset(), 11);
    }

    #[test]
    fn in_order_segments_come_back_as_views_of_what_arrived() {
        let datagram = Bytes::copy_from_slice(b"..hello, world..");
        let mut r = Reassembler::default();
        let out = r.insert(0, datagram.slice(2..7));
        assert_eq!(out.as_ptr(), datagram[2..].as_ptr());
        // A retransmission overlapping the delivered prefix: the new tail.
        let out = r.insert(3, datagram.slice(5..14));
        assert_eq!(
            (&out[..], out.as_ptr()),
            (&b", world"[..], datagram[7..].as_ptr())
        );
        // A segment that reaches a buffered one is gathered with it.
        assert!(r.insert(14, Bytes::copy_from_slice(b"!")).is_empty());
        assert_eq!(r.insert(12, Bytes::copy_from_slice(b"??")), b"??!"[..]);
        assert_eq!(r.offset(), 15);
    }

    /// The store-everything-then-drain formulation `insert` replaced,
    /// kept as the oracle for its overlap semantics.
    fn insert_via_map(
        segments: &mut BTreeMap<u64, Bytes>,
        cursor: &mut u64,
        offset: u64,
        data: &[u8],
    ) -> Vec<u8> {
        if offset + data.len() as u64 > *cursor {
            let skip = cursor.saturating_sub(offset) as usize;
            segments
                .entry(offset.max(*cursor))
                .or_insert_with(|| Bytes::copy_from_slice(&data[skip..]));
        }
        let mut out = Vec::new();
        while let Some(entry) = segments.first_entry() {
            let seg_off = *entry.key();
            if seg_off > *cursor {
                break;
            }
            let seg = entry.remove();
            let skip = (*cursor - seg_off) as usize;
            if skip < seg.len() {
                out.extend_from_slice(&seg[skip..]);
                *cursor = seg_off + seg.len() as u64;
            }
        }
        out
    }

    #[test]
    fn reassembler_matches_the_map_formulation_on_overlapping_segments() {
        let mut rng = rq_sim::SimRng::new(20);
        let mut draw = |n: u64| rng.gen_range(n);
        // A narrow spread makes duplicates, partial overlaps and exact
        // continuations the common case, a wide one reordering: several
        // buffered segments, some overlapping each other, reached at once.
        for case in 0..400 {
            let spread = if case % 2 == 0 { 12 } else { 60 };
            let mut r = Reassembler::default();
            let (mut segments, mut cursor) = (BTreeMap::new(), 0u64);
            let (mut delivered, mut expected_stream) = (Vec::new(), Vec::new());
            for _ in 0..40 {
                // The bytes differ per segment so "which copy won" shows,
                // and each segment is a view into a longer datagram.
                let offset = (cursor + draw(spread)).saturating_sub(draw(spread));
                let datagram: Vec<u8> = (0..4 + draw(9)).map(|_| draw(256) as u8).collect();
                let datagram = Bytes::from(datagram);
                let data = datagram.slice(2..datagram.len() - 2);
                let expected = insert_via_map(&mut segments, &mut cursor, offset, &data);
                let out = r.insert(offset, data);
                assert_eq!(out, expected);
                assert_eq!(r.offset(), cursor);
                delivered.extend_from_slice(&out);
                expected_stream.extend_from_slice(&expected);
            }
            // Each byte below the cursor was handed out exactly once.
            assert_eq!(delivered.len() as u64, cursor);
            assert_eq!(delivered, expected_stream);
        }
    }
}
