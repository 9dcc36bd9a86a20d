//! An ordered table for keys that arrive in order.
//!
//! Packet numbers and stream IDs are issued ascending and retired mostly
//! from the front, and a connection holds one to three of them per table
//! for most of its life. A `BTreeMap` spends an 11-slot leaf on the first
//! of them; [`SeqMap`] is the same ordered map over one ring buffer sized
//! by what it holds, whose first entry is inline.

use std::ops::{Bound, RangeBounds};

use crate::smalldeque::SmallDeque;

/// A map from `u64` keys to `V`, iterated in key order like the
/// `BTreeMap` it stands in for. Entries sit key-sorted in a
/// [`SmallDeque`]: a key above every other is appended, the front key is
/// found without a search and leaves moving only the entry behind it, any
/// other is a binary search and a shift of the shorter side.
///
/// A table of one entry allocates nothing; the second makes room for
/// `FIRST` in all: a table that is known to fill past `VecDeque`'s own
/// first four names its size and is spared the regrowth. Storage is kept
/// when the table empties and released by [`SeqMap::clear`].
#[derive(Debug, Clone)]
pub struct SeqMap<V, const FIRST: usize = 4> {
    entries: SmallDeque<(u64, V), FIRST>,
}

impl<V, const FIRST: usize> Default for SeqMap<V, FIRST> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, const FIRST: usize> SeqMap<V, FIRST> {
    /// An empty table; allocates nothing.
    pub const fn new() -> Self {
        SeqMap {
            entries: SmallDeque::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of `key`, or the index it would be inserted at.
    fn search(&self, key: u64) -> Result<usize, usize> {
        match (self.entries.front(), self.entries.back()) {
            (_, Some((last, _))) if *last < key => Err(self.entries.len()),
            (Some((first, _)), _) if *first == key => Ok(0),
            _ => {
                let i = self.entries.partition_point(|(k, _)| *k < key);
                match self.entries.get(i) {
                    Some((k, _)) if *k == key => Ok(i),
                    _ => Err(i),
                }
            }
        }
    }

    /// The value at `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.search(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// Sets the value at `key`, returning the one it replaces.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.search(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value at `key`, which is `make()` if there was none.
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let i = self.search(key).unwrap_or_else(|i| {
            self.entries.insert(i, (key, make()));
            i
        });
        &mut self.entries[i].1
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.search(key).ok()?;
        self.entries.remove(i).map(|(_, v)| v)
    }

    /// The entries whose keys lie in `range`, in key order.
    pub fn range(
        &self,
        range: impl RangeBounds<u64>,
    ) -> impl DoubleEndedIterator<Item = (u64, &V)> {
        let lo = match range.start_bound() {
            Bound::Included(&k) => self.entries.partition_point(|(e, _)| *e < k),
            Bound::Excluded(&k) => self.entries.partition_point(|(e, _)| *e <= k),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&k) => self.entries.partition_point(|(e, _)| *e <= k),
            Bound::Excluded(&k) => self.entries.partition_point(|(e, _)| *e < k),
            Bound::Unbounded => self.entries.len(),
        };
        // An inverted range is empty, not a panic.
        self.entries.range(lo..hi).map(|(k, v)| (*k, v))
    }

    /// Every entry, in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Every entry, in key order, values mutable.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = (u64, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (*k, v))
    }

    /// Every value, in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Consumes the table into its values, in key order.
    pub fn into_values(self) -> impl DoubleEndedIterator<Item = V> {
        self.entries.into_iter().map(|(_, v)| v)
    }

    /// Drops every entry and releases the storage.
    pub fn clear(&mut self) {
        self.entries = SmallDeque::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_sim::SimRng;
    use std::collections::BTreeMap;

    fn same<const FIRST: usize>(table: &SeqMap<u32, FIRST>, oracle: &BTreeMap<u64, u32>) {
        assert_eq!(table.len(), oracle.len());
        assert_eq!(table.is_empty(), oracle.is_empty());
        assert!(table.iter().eq(oracle.iter().map(|(k, v)| (*k, v))));
        assert!(table.values().eq(oracle.values()));
    }

    /// Random operations against a `BTreeMap`: same answers, same
    /// contents, same iteration order. Keys mostly ascend, as packet
    /// numbers do, with enough stragglers and repeats to leave the
    /// append path.
    #[test]
    fn behaves_like_a_btreemap() {
        let mut rng = SimRng::new(22);
        for case in 0..200 {
            let mut table: SeqMap<u32, 8> = SeqMap::new();
            let mut oracle = BTreeMap::new();
            let mut next = 0u64;
            let mut draw = |n: u64| rng.gen_range(n);
            for step in 0..120u32 {
                let key = match draw(4) {
                    0 => draw(next + 2),
                    _ => {
                        next += 1 + draw(if case % 2 == 0 { 1 } else { 4 });
                        next
                    }
                };
                match draw(10) {
                    0..=3 => assert_eq!(table.insert(key, step), oracle.insert(key, step)),
                    4 | 5 => {
                        let k = draw(next + 2);
                        assert_eq!(table.remove(k), oracle.remove(&k));
                    }
                    6 => {
                        // The front goes first, as acknowledged packets do.
                        let k = oracle.keys().next().copied().unwrap_or(0);
                        assert_eq!(table.remove(k), oracle.remove(&k));
                    }
                    7 => {
                        let (got, expected) = (
                            table.get_or_insert_with(key, || step),
                            oracle.entry(key).or_insert(step),
                        );
                        assert_eq!(got, expected);
                        (*got, *expected) = (*got + 1, *expected + 1);
                    }
                    8 => {
                        let k = draw(next + 2);
                        assert_eq!(table.get(k), oracle.get(&k));
                        assert!(table
                            .range(..=k)
                            .eq(oracle.range(..=k).map(|(k, v)| (*k, v))));
                        let (a, b) = (draw(next + 2), draw(next + 2));
                        let expected = (a <= b).then(|| oracle.range(a..=b).next_back());
                        assert_eq!(
                            table.range(a..=b).next_back(),
                            expected.flatten().map(|(k, v)| (*k, v))
                        );
                        assert!(table
                            .range(a..a.max(b))
                            .eq(oracle.range(a..a.max(b)).map(|(k, v)| (*k, v))));
                    }
                    _ if draw(8) == 0 => {
                        table.clear();
                        oracle.clear();
                    }
                    _ => {
                        for (_, v) in table.iter_mut() {
                            *v ^= 1;
                        }
                        for v in oracle.values_mut() {
                            *v ^= 1;
                        }
                    }
                }
                same(&table, &oracle);
            }
            assert!(table.into_values().eq(oracle.into_values()));
        }
    }

    #[test]
    fn storage_is_sized_by_first_kept_when_empty_and_freed_by_clear() {
        let mut table: SeqMap<u8, 8> = SeqMap::new();
        table.insert(0, 0);
        assert_eq!(table.entries.heap_capacity(), 0, "one entry is inline");
        for pn in 1..8 {
            table.insert(pn, 0);
            assert_eq!(table.entries.heap_capacity(), 7, "eight in all");
        }
        for pn in 0..8 {
            table.remove(pn);
        }
        assert!(table.is_empty());
        let kept = table.entries.heap_capacity();
        assert_eq!(kept, 7, "an empty table keeps its room");
        table.clear();
        assert_eq!(table.entries.heap_capacity(), 0);
        // The default is `VecDeque`'s own first allocation, four.
        let mut small: SeqMap<u8> = SeqMap::new();
        small.get_or_insert_with(0, || 1);
        small.get_or_insert_with(1, || 1);
        assert_eq!(small.entries.heap_capacity(), 3);
    }
}
