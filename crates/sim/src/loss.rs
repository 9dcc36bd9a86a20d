//! Deterministic datagram drops, by index.
//!
//! The paper emulates *particular* datagram losses rather than random drop
//! rates, such as the second and third UDP datagram the server sends (§3,
//! Appendix E, Table 4). A link's [`DropIndices`] names those datagrams by
//! direction and 0-based per-direction index; the scenario layer maps each
//! paper loss case to its indices.
//!
//! For *stochastic* channel behaviour — i.i.d. or Gilbert–Elliott random
//! loss, reordering, duplication, jitter — attach a seeded
//! [`crate::impair::ImpairmentSpec`] to the link instead; a link consults
//! its drop list first, then the impairment channel.

/// Direction of travel on a link between nodes `a` and `b` as passed to
/// [`crate::Network::connect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the first connected node toward the second.
    AtoB,
    /// From the second connected node toward the first.
    BtoA,
}

/// Drops datagrams by per-direction index (0-based).
///
/// Mirrors the paper's "loss of datagram 2 and 3 sent by the server" style
/// of scenario.
#[derive(Debug, Clone)]
pub struct DropIndices {
    direction: Direction,
    indices: Vec<usize>,
}

impl DropIndices {
    /// Drops the datagrams with the given 0-based indices travelling in
    /// `direction`.
    pub fn new(direction: Direction, indices: &[usize]) -> Self {
        DropIndices {
            direction,
            indices: indices.to_vec(),
        }
    }

    /// Whether the `index`-th datagram travelling in `direction` is dropped.
    pub fn drops(&self, direction: Direction, index: usize) -> bool {
        direction == self.direction && self.indices.contains(&index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_indices_matches_direction_and_index() {
        let r = DropIndices::new(Direction::BtoA, &[1, 2]);
        assert!(!r.drops(Direction::BtoA, 0));
        assert!(r.drops(Direction::BtoA, 1));
        assert!(r.drops(Direction::BtoA, 2));
        assert!(!r.drops(Direction::AtoB, 1));
        assert!(!r.drops(Direction::BtoA, 3));
    }
}
