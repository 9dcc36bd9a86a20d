//! Deterministic datagram drops, by index.
//!
//! The paper emulates *particular* datagram losses rather than random drop
//! rates, such as the second and third UDP datagram the server sends (§3,
//! Appendix E, Table 4). A link's [`DropIndices`] names those datagrams as
//! one bit mask per direction, bit `i` for the 0-based per-direction index
//! `i`; the scenario layer maps each paper loss case to its masks.
//!
//! For *stochastic* channel behaviour — i.i.d. or Gilbert–Elliott random
//! loss, reordering, duplication, jitter — attach a seeded
//! [`crate::impair::ImpairmentSpec`] to the link instead; a link consults
//! its drop mask first, then the impairment channel.

/// Direction of travel on a link between nodes `a` and `b` as passed to
/// [`crate::Network::connect`]; `direction as usize` indexes per-direction
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the first connected node toward the second.
    AtoB,
    /// From the second connected node toward the first.
    BtoA,
}

/// Drops datagrams by per-direction index (0-based): one `u64` mask per
/// direction, indexed by `Direction as usize`, so only the first 64
/// datagrams each way can be dropped.
///
/// Mirrors the paper's "loss of datagram 2 and 3 sent by the server" style
/// of scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropIndices([u64; 2]);

impl DropIndices {
    /// Drops nothing.
    pub const NONE: DropIndices = DropIndices([0, 0]);

    /// Drops the `AtoB` datagrams whose bits are set in `a_to_b` and the
    /// `BtoA` ones set in `b_to_a` (bit `i` is index `i`).
    pub const fn new(a_to_b: u64, b_to_a: u64) -> Self {
        DropIndices([a_to_b, b_to_a])
    }

    /// The mask of indices `1..=n`: a flight's datagrams after its first.
    /// `n` is capped at 63, the last index a mask holds.
    pub fn after_first(n: usize) -> u64 {
        u64::MAX >> (63 - n.min(63)) & !1
    }

    /// Whether the `index`-th datagram travelling in `direction` is dropped.
    pub fn drops(&self, direction: Direction, index: usize) -> bool {
        index < 64 && self.0[direction as usize] >> index & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_indices_matches_direction_and_index() {
        let r = DropIndices::new(0, 0b110);
        assert!(!r.drops(Direction::BtoA, 0));
        assert!(r.drops(Direction::BtoA, 1));
        assert!(r.drops(Direction::BtoA, 2));
        assert!(!r.drops(Direction::AtoB, 1));
        assert!(!r.drops(Direction::BtoA, 3));

        // Nothing past the 64th datagram, and no shift overflow there.
        let all = DropIndices::new(u64::MAX, u64::MAX);
        for dir in [Direction::AtoB, Direction::BtoA] {
            assert!(all.drops(dir, 63));
            for index in [0, 63, 64, 65, 127, 128, usize::MAX] {
                assert!(!DropIndices::NONE.drops(dir, index), "{dir:?} {index}");
                assert_eq!(all.drops(dir, index), index < 64, "{dir:?} {index}");
            }
        }

        // Every flight length a mask can hold, without a shift overflow.
        for n in 0..=63 {
            let bits = (1..=n).fold(0u64, |m, i| m | 1 << i);
            assert_eq!(DropIndices::after_first(n), bits, "{n}");
        }
        assert_eq!(DropIndices::after_first(64), DropIndices::after_first(63));
    }
}
