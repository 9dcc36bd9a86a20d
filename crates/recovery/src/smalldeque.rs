//! A `VecDeque` for tables that mostly hold one entry.
//!
//! A connection's per-space tables — packets in flight, the received
//! packet-number ranges, the queued sends — and its stream tables hold
//! one entry through most of a handshake, and a `VecDeque` asks the heap
//! for that one. [`SmallDeque`] keeps its front entry in the value itself
//! and asks the heap only when a second arrives.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// A double-ended queue whose front entry sits in an `Option` beside a
/// `VecDeque` of the rest. The front is always the slot's: an empty slot
/// is an empty queue, and taking the front moves the next entry into the
/// slot.
///
/// The heap part is made for the second entry, with room for
/// `FIRST - 1` more, so a queue known to fill to `FIRST` names its size
/// and is spared the regrowth; the default 4 is what a `VecDeque` or
/// `Vec` makes room for at its first push. The heap part is kept when the
/// queue empties and released with the value (or by assigning
/// [`SmallDeque::new`]).
#[derive(Clone)]
pub struct SmallDeque<T, const FIRST: usize = 4> {
    front: Option<T>,
    /// Entries `1..`; empty whenever `front` is.
    rest: VecDeque<T>,
}

impl<T, const FIRST: usize> Default for SmallDeque<T, FIRST> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug, const FIRST: usize> fmt::Debug for SmallDeque<T, FIRST> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T, const FIRST: usize> SmallDeque<T, FIRST> {
    /// An empty queue; allocates nothing.
    pub const fn new() -> Self {
        SmallDeque {
            front: None,
            rest: VecDeque::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        usize::from(self.front.is_some()) + self.rest.len()
    }

    /// True when the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.front.is_none()
    }

    /// The first entry.
    pub fn front(&self) -> Option<&T> {
        self.front.as_ref()
    }

    /// The first entry, mutable.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.front.as_mut()
    }

    /// The last entry.
    pub fn back(&self) -> Option<&T> {
        self.rest.back().or(self.front.as_ref())
    }

    /// The entry at index `i`.
    pub fn get(&self, i: usize) -> Option<&T> {
        match i.checked_sub(1) {
            None => self.front.as_ref(),
            Some(i) => self.rest.get(i),
        }
    }

    /// The entry at index `i`, mutable.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        match i.checked_sub(1) {
            None => self.front.as_mut(),
            Some(i) => self.rest.get_mut(i),
        }
    }

    /// The heap part, made with its first room if it has none.
    fn spill(&mut self) -> &mut VecDeque<T> {
        if self.rest.capacity() == 0 {
            self.rest.reserve_exact(FIRST.max(2) - 1);
        }
        &mut self.rest
    }

    /// Appends `value`.
    pub fn push_back(&mut self, value: T) {
        if self.front.is_none() {
            self.front = Some(value);
        } else {
            self.spill().push_back(value);
        }
    }

    /// Removes and returns the first entry.
    pub fn pop_front(&mut self) -> Option<T> {
        let first = self.front.take();
        self.front = self.rest.pop_front();
        first
    }

    /// Puts `value` at index `at`, shifting the entries from there on.
    ///
    /// # Panics
    /// When `at` is past the end.
    pub fn insert(&mut self, at: usize, value: T) {
        assert!(at <= self.len(), "insert at {at} past the end");
        match at.checked_sub(1) {
            None => {
                if let Some(first) = self.front.replace(value) {
                    self.spill().push_front(first);
                }
            }
            Some(at) => self.spill().insert(at, value),
        }
    }

    /// Removes and returns the entry at index `at`.
    pub fn remove(&mut self, at: usize) -> Option<T> {
        match at.checked_sub(1) {
            None => self.pop_front(),
            Some(at) => self.rest.remove(at),
        }
    }

    /// Puts `value` in place of the entries in `range`; an empty range
    /// is an insert at its start.
    pub fn replace(&mut self, range: Range<usize>, value: T) {
        match range.len() {
            0 => self.insert(range.start, value),
            n => {
                self[range.start] = value;
                if n > 1 {
                    // Entries after the first sit in the heap part, one
                    // index down.
                    drop(self.rest.drain(range.start..range.end - 1));
                }
            }
        }
    }

    /// The index of the first entry for which `pred` is false, the queue
    /// being partitioned by it (all true, then all false).
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        match &self.front {
            Some(first) if pred(first) => 1 + self.rest.partition_point(pred),
            _ => 0,
        }
    }

    /// The entries at the indices in `range`; an inverted range is empty.
    ///
    /// # Panics
    /// When the range ends past the end.
    pub fn range(&self, range: Range<usize>) -> impl DoubleEndedIterator<Item = &T> {
        let (start, end) = (range.start, range.end.max(range.start));
        assert!(end <= self.len(), "range end {end} past {}", self.len());
        let head = if start == 0 && end > 0 {
            self.front.as_ref()
        } else {
            None
        };
        head.into_iter().chain(
            self.rest
                .range(start.saturating_sub(1)..end.saturating_sub(1)),
        )
    }

    /// Every entry, front to back.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.front.iter().chain(self.rest.iter())
    }

    /// Every entry, front to back, mutable.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut T> {
        self.front.iter_mut().chain(self.rest.iter_mut())
    }

    /// Room in the heap part.
    #[cfg(test)]
    pub(crate) fn heap_capacity(&self) -> usize {
        self.rest.capacity()
    }
}

impl<T, const FIRST: usize> Index<usize> for SmallDeque<T, FIRST> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("index in bounds")
    }
}

impl<T, const FIRST: usize> IndexMut<usize> for SmallDeque<T, FIRST> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i).expect("index in bounds")
    }
}

impl<T, const FIRST: usize> IntoIterator for SmallDeque<T, FIRST> {
    type Item = T;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<T>, std::collections::vec_deque::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.front.into_iter().chain(self.rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_testkit::prop::cases;

    fn same(queue: &SmallDeque<u32, 3>, oracle: &VecDeque<u32>) {
        assert_eq!(queue.len(), oracle.len());
        assert_eq!(queue.is_empty(), oracle.is_empty());
        assert_eq!(
            (queue.front(), queue.back()),
            (oracle.front(), oracle.back())
        );
        assert!(queue.iter().eq(oracle.iter()));
        assert!(queue.iter().rev().eq(oracle.iter().rev()));
        assert!(
            queue.front.is_some() || queue.rest.is_empty(),
            "no gap at the front"
        );
    }

    /// Random operations against a `VecDeque`: same answers, same
    /// contents, same order. Lengths stay short, so the empty queue, the
    /// slot alone and the first spill come up again and again; `replace`
    /// is checked against `Vec::splice`, the call it stands in for.
    #[test]
    fn behaves_like_a_vecdeque() {
        cases(200, |rng| {
            let mut queue: SmallDeque<u32, 3> = SmallDeque::new();
            let mut oracle = VecDeque::new();
            for step in 0..150u32 {
                let len = oracle.len() as u64;
                let mut draw = |n: u64| rng.gen_range(n) as usize;
                match draw(12) {
                    0 | 1 => {
                        queue.push_back(step);
                        oracle.push_back(step);
                    }
                    2 | 3 => {
                        let at = draw(len + 1);
                        queue.insert(at, step);
                        oracle.insert(at, step);
                    }
                    4 => assert_eq!(queue.pop_front(), oracle.pop_front()),
                    5 | 6 => {
                        let at = draw(len + 1);
                        assert_eq!(queue.remove(at), oracle.remove(at));
                    }
                    7 => {
                        let (a, b) = (draw(len + 1), draw(len + 1));
                        let expected: Vec<_> = oracle.range(a..a.max(b)).copied().collect();
                        assert!(queue.range(a..b).eq(expected.iter()));
                        assert!(queue.range(a..b).rev().eq(expected.iter().rev()));
                        let at = draw(len + 1);
                        assert_eq!(queue.get(at), oracle.get(at));
                    }
                    8 => {
                        // Values are unique (each is its step plus
                        // multiples of 1,000), so "among the first `cut`"
                        // partitions the queue.
                        let cut = draw(len + 1);
                        let mark: Vec<u32> = oracle.iter().copied().collect();
                        let below = |v: &u32| mark[..cut].contains(v);
                        assert_eq!(queue.partition_point(below), oracle.partition_point(below));
                    }
                    9 => {
                        // Replaces up to two entries, as a received
                        // packet that joins two ranges does.
                        let (a, b) = (draw(len + 1), draw(len + 1));
                        let (a, b) = (a.min(b), a.max(b).min(a + 2));
                        queue.replace(a..b, step);
                        oracle.splice_one(a..b, step);
                    }
                    _ => {
                        for v in queue.iter_mut() {
                            *v += 1_000;
                        }
                        for v in oracle.iter_mut() {
                            *v += 1_000;
                        }
                        if let (Some(q), Some(o)) = (queue.front_mut(), oracle.front_mut()) {
                            (*q, *o) = (*q + 1_000_000, *o + 1_000_000);
                        }
                    }
                }
                same(&queue, &oracle);
            }
            assert!(queue.clone().into_iter().eq(oracle.clone()));
            assert_eq!(format!("{queue:?}"), format!("{oracle:?}"));
        });
    }

    trait SpliceOne {
        fn splice_one(&mut self, range: Range<usize>, value: u32);
    }

    impl SpliceOne for VecDeque<u32> {
        fn splice_one(&mut self, range: Range<usize>, value: u32) {
            let mut v: Vec<u32> = self.drain(..).collect();
            v.splice(range, [value]);
            self.extend(v);
        }
    }

    #[test]
    fn one_entry_lives_in_the_slot_and_the_second_makes_room_for_first() {
        let mut queue: SmallDeque<u8, 8> = SmallDeque::new();
        queue.push_back(1);
        assert_eq!(queue.heap_capacity(), 0, "one entry is inline");
        assert_eq!(queue.pop_front(), Some(1));
        queue.insert(0, 2);
        assert_eq!(queue.heap_capacity(), 0);
        queue.insert(0, 3);
        assert_eq!(queue.heap_capacity(), 7, "the slot and seven more");
        for v in 4..8 {
            queue.push_back(v);
        }
        while queue.pop_front().is_some() {}
        assert_eq!(queue.heap_capacity(), 7, "an empty queue keeps its room");
    }
}
