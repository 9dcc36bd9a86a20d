//! The frames of one packet, held inline.
//!
//! Over the 768 cells of the handshake matrix 84.9 % of the 22,554
//! packets sent carry one frame, 14.9 % two and 0.3 % three (an Initial
//! is ACK + CRYPTO + PADDING), and none more; a download's data packets
//! are one STREAM each. A `Vec<Frame>` spends a heap allocation on every
//! one of them — decoded, built and sent; [`FrameList`] keeps the first
//! [`FrameList::INLINE`] in the value itself and moves to a `Vec` only
//! past that. The price is its size, 176 bytes where a `Vec` is 24: the
//! stack moves it by reference and builds it where it will be read.

use std::ops::{Deref, DerefMut};

use crate::frame::Frame;

/// What an unused inline slot holds: a frame that owns nothing.
const VACANT: Frame = Frame::Padding { len: 0 };

/// An ordered list of frames that reads and sorts as the `[Frame]` it
/// derefs to. Equality and iteration see the frames only, never where
/// they are stored.
#[derive(Debug, Clone)]
pub struct FrameList(Repr);

#[derive(Debug, Clone)]
enum Repr {
    /// No frames. A planner makes three lists each time it is asked
    /// whether there is anything to send, a million times in a 10 MiB
    /// download, and mostly there is not: an empty list is one byte to
    /// make and nothing to drop.
    Empty,
    /// `slots[..len]` are the frames, the rest [`VACANT`].
    Inline {
        len: usize,
        slots: [Frame; FrameList::INLINE],
    },
    Heap(Vec<Frame>),
}

impl FrameList {
    /// Frames held without a heap allocation: the most any packet of the
    /// handshake matrix carries.
    const INLINE: usize = 3;

    /// An empty list.
    pub const fn new() -> Self {
        FrameList(Repr::Empty)
    }

    /// Appends `frame`.
    pub fn push(&mut self, frame: Frame) {
        match &mut self.0 {
            Repr::Empty => {
                let mut slots = [VACANT; Self::INLINE];
                slots[0] = frame;
                self.0 = Repr::Inline { len: 1, slots };
            }
            Repr::Inline { len, slots } if *len < Self::INLINE => {
                slots[*len] = frame;
                *len += 1;
            }
            Repr::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(2 * Self::INLINE);
                spilled.extend(std::mem::replace(slots, [VACANT; Self::INLINE]));
                spilled.push(frame);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(frames) => frames.push(frame),
        }
    }

    /// Drops every frame from index `len` on.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            _ if len == 0 => self.0 = Repr::Empty,
            Repr::Empty => {}
            Repr::Inline { len: held, slots } => {
                let len = len.min(*held);
                slots[len..*held].fill(VACANT);
                *held = len;
            }
            Repr::Heap(frames) => frames.truncate(len),
        }
    }

    /// Removes and returns the frame at `index`, keeping the order of the
    /// rest. Panics when there is none.
    pub fn remove(&mut self, index: usize) -> Frame {
        let frame = std::mem::replace(&mut self[index], VACANT);
        self[index..].rotate_left(1);
        self.truncate(self.len() - 1);
        frame
    }

    /// Keeps the frames `keep` approves, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Frame) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(&self[i]) {
                self.swap(kept, i);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Drops every frame for which `same(frame, previous kept frame)`
    /// holds, as `Vec::dedup_by` does.
    pub fn dedup_by(&mut self, mut same: impl FnMut(&mut Frame, &mut Frame) -> bool) {
        let mut kept = self.len().min(1);
        for i in 1..self.len() {
            let (before, rest) = self.split_at_mut(i);
            if !same(&mut rest[0], &mut before[kept - 1]) {
                self.swap(kept, i);
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

impl Default for FrameList {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for FrameList {
    type Target = [Frame];

    fn deref(&self) -> &[Frame] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::Inline { len, slots } => &slots[..*len],
            Repr::Heap(frames) => frames,
        }
    }
}

impl DerefMut for FrameList {
    fn deref_mut(&mut self) -> &mut [Frame] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::Inline { len, slots } => &mut slots[..*len],
            Repr::Heap(frames) => frames,
        }
    }
}

impl PartialEq for FrameList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for FrameList {}

impl<const N: usize> PartialEq<[Frame; N]> for FrameList {
    fn eq(&self, other: &[Frame; N]) -> bool {
        **self == other[..]
    }
}

impl Extend<Frame> for FrameList {
    fn extend<I: IntoIterator<Item = Frame>>(&mut self, frames: I) {
        frames.into_iter().for_each(|f| self.push(f));
    }
}

impl FromIterator<Frame> for FrameList {
    fn from_iter<I: IntoIterator<Item = Frame>>(frames: I) -> Self {
        let mut list = FrameList::new();
        list.extend(frames);
        list
    }
}

/// A `Vec` that fits moves inline; a longer one is kept as it is.
impl From<Vec<Frame>> for FrameList {
    fn from(frames: Vec<Frame>) -> Self {
        if frames.len() > Self::INLINE {
            FrameList(Repr::Heap(frames))
        } else {
            frames.into_iter().collect()
        }
    }
}

/// The frames by value, in order.
impl IntoIterator for FrameList {
    type Item = Frame;
    type IntoIter = std::iter::Chain<
        std::iter::Take<std::array::IntoIter<Frame, { FrameList::INLINE }>>,
        std::vec::IntoIter<Frame>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        let (slots, len, spilled) = match self.0 {
            Repr::Empty => ([VACANT; Self::INLINE], 0, Vec::new()),
            Repr::Inline { len, slots } => (slots, len, Vec::new()),
            Repr::Heap(frames) => ([VACANT; Self::INLINE], 0, frames),
        };
        slots.into_iter().take(len).chain(spilled)
    }
}

impl<'a> IntoIterator for &'a FrameList {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rq_testkit::prop::cases;

    /// A frame told from every other by `tag`, of a kind by `tag % 4`
    /// (`frame(0)` is what a vacant slot holds).
    fn frame(tag: u64) -> Frame {
        match tag % 4 {
            0 => Frame::Padding { len: tag as usize },
            1 => Frame::MaxData { max: tag },
            2 => Frame::Crypto {
                offset: tag,
                data: Bytes::from(vec![tag as u8; 3]),
            },
            _ => Frame::Stream {
                id: tag % 8,
                offset: tag,
                data: Bytes::copy_from_slice(b"body"),
                fin: tag % 8 > 3,
            },
        }
    }

    fn kind(frame: &Frame) -> u64 {
        frame.type_id()
    }

    /// Whatever the stack does to a packet's frames gives the same list as
    /// doing it to a `Vec<Frame>`, on both sides of the spill.
    #[test]
    fn behaves_as_the_vec_it_replaces() {
        cases(256, |rng| {
            let start = rng.gen_range(2 * FrameList::INLINE as u64 + 2);
            let mut oracle: Vec<Frame> = (0..start).map(frame).collect();
            let mut list = FrameList::from(oracle.clone());
            for _ in 0..rng.gen_range(24) {
                let draw = rng.gen_range(512);
                let (op, arg) = (draw % 8, draw / 8);
                match op {
                    0 | 1 => {
                        list.push(frame(arg));
                        oracle.push(frame(arg));
                    }
                    2 => {
                        list.extend((arg..arg + 3).map(frame));
                        oracle.extend((arg..arg + 3).map(frame));
                    }
                    3 => {
                        list.retain(|f| kind(f) != kind(&frame(arg)));
                        oracle.retain(|f| kind(f) != kind(&frame(arg)));
                    }
                    4 => {
                        list.sort_by_key(kind);
                        oracle.sort_by_key(kind);
                    }
                    5 => {
                        // The stack's use: the later of two of a kind
                        // replaces the earlier.
                        let same = |later: &mut Frame, kept: &mut Frame| {
                            kind(later) == kind(kept) && {
                                std::mem::swap(later, kept);
                                true
                            }
                        };
                        list.dedup_by(same);
                        oracle.dedup_by(same);
                    }
                    6 if !oracle.is_empty() => {
                        let at = arg as usize % oracle.len();
                        assert_eq!(list.remove(at), oracle.remove(at));
                    }
                    _ => {
                        list.truncate(arg as usize % 8);
                        oracle.truncate(arg as usize % 8);
                    }
                }
                assert_eq!(&list[..], &oracle[..]);
                assert_eq!(list.len(), oracle.len());
                assert!(list.iter().eq(oracle.iter()));
                assert!((&list).into_iter().eq(&oracle));
                assert!(list.clone() == list);
                assert!(list == FrameList::from(oracle.clone()));
                assert!(list == oracle.iter().cloned().collect::<FrameList>());
                let mut longer = list.clone();
                longer.push(Frame::Ping);
                assert!(longer != list);
            }
            assert!(list.into_iter().eq(oracle));
        });
    }

    #[test]
    fn spills_past_inline_and_compares_across_the_boundary() {
        let mut list = FrameList::new();
        for tag in 0..FrameList::INLINE as u64 {
            list.push(frame(tag));
            assert!(matches!(list.0, Repr::Inline { .. }));
        }
        list.push(frame(9));
        assert!(matches!(list.0, Repr::Heap(_)));
        // A list that shrank on the heap equals one that never left the
        // inline slots, and an array of the same frames.
        list.truncate(2);
        let inline: FrameList = [frame(0), frame(1)].into_iter().collect();
        assert!(matches!(inline.0, Repr::Inline { len: 2, .. }));
        assert_eq!(list, inline);
        assert_eq!(list, [frame(0), frame(1)]);
        assert_eq!(FrameList::from(vec![frame(0), frame(1)]), inline);
        assert!(FrameList::default().is_empty());
    }

    #[test]
    fn a_removed_frame_lets_go_of_its_bytes() {
        let data = Bytes::from(vec![7; 32]);
        let held = || Frame::Crypto {
            offset: 0,
            data: data.clone(),
        };
        let mut list: FrameList = [held(), Frame::Ping, held()].into_iter().collect();
        list.retain(|f| matches!(f, Frame::Ping));
        assert_eq!(list, [Frame::Ping]);
        // The vacated slots no longer share `data`'s storage.
        let storage: std::sync::Arc<[u8]> = data.into();
        assert_eq!(std::sync::Arc::strong_count(&storage), 1);
    }
}
