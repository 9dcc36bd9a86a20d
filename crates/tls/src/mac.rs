//! The one keyed hash behind every packet tag, key, transcript and ticket.
//!
//! The paper's effects depend on when keys become available and on how
//! large the handshake messages are, never on how strong the cryptography
//! is (see "Substitutions" in the root `README.md`). So this is the
//! cheapest hash with the shape the stack needs: a 32-byte key, a 32-byte
//! result, streamed input, and a different result whenever the key or a
//! byte of input differs. It is not a cryptographic MAC.
//!
//! Two 64-bit lanes absorb the input 16 bytes per step, each lane through
//! one folded 64×64→128-bit multiply of both. The key is absorbed first,
//! as two steps; a zero-padded tail and a length block end the input, so
//! the result depends only on the bytes, never on how they were split
//! across [`Mac::update`] calls.

/// Size of a key and of a result, in bytes.
pub const DIGEST_LEN: usize = 32;

/// Bytes absorbed per step.
const BLOCK: usize = 16;

/// Odd constants that keep a lane away from zero before it is multiplied.
const P: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// The 128-bit product of `x` and `y`, its halves xored together.
fn fold(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    p as u64 ^ (p >> 64) as u64
}

/// Streaming state of the keyed hash.
#[derive(Clone)]
pub struct Mac {
    lanes: [u64; 2],
    /// The `len % BLOCK` bytes no step has absorbed yet.
    buf: [u8; BLOCK],
    len: u64,
}

impl Mac {
    /// Fresh state under `key`.
    pub fn new(key: &[u8; DIGEST_LEN]) -> Self {
        let mut mac = Mac {
            lanes: [P[0], P[1]],
            buf: [0; BLOCK],
            len: 0,
        };
        for half in key.chunks_exact(BLOCK) {
            mac.absorb(half);
        }
        mac
    }

    /// One step over a whole block.
    fn absorb(&mut self, block: &[u8]) {
        let (lo, hi) = block.split_at(8);
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
        self.step(word(lo), word(hi));
    }

    fn step(&mut self, w0: u64, w1: u64) {
        let (x, y) = (self.lanes[0] ^ w0, self.lanes[1] ^ w1);
        self.lanes = [fold(x ^ P[2], y ^ P[3]), fold(x ^ P[1], y ^ P[0])];
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        let held = (self.len % BLOCK as u64) as usize;
        self.len += data.len() as u64;
        if held > 0 {
            let take = (BLOCK - held).min(data.len());
            self.buf[held..held + take].copy_from_slice(&data[..take]);
            if held + take < BLOCK {
                return;
            }
            data = &data[take..];
            let block = self.buf;
            self.absorb(&block);
        }
        let blocks = data.chunks_exact(BLOCK);
        let tail = blocks.remainder();
        for block in blocks {
            self.absorb(block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
    }

    /// The result over everything absorbed so far; the state stays usable.
    pub fn finish(&self) -> [u8; DIGEST_LEN] {
        let mut end = self.clone();
        let held = (self.len % BLOCK as u64) as usize;
        if held > 0 {
            end.buf[held..].fill(0);
            let block = end.buf;
            end.absorb(&block);
        }
        end.step(self.len, P[3]);
        let [a, b] = end.lanes;
        let mut out = [0; DIGEST_LEN];
        for (i, word) in out.chunks_exact_mut(8).enumerate() {
            word.copy_from_slice(&fold(a ^ P[i], b ^ P[3 - i]).to_le_bytes());
        }
        out
    }
}

/// One-shot keyed hash of the concatenation of `parts`.
pub fn mac(key: &[u8; DIGEST_LEN], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut mac = Mac::new(key);
    for part in parts {
        mac.update(part);
    }
    mac.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    use rq_testkit::prop::cases;

    #[test]
    fn any_split_of_10kb_matches_the_one_shot() {
        let data: Vec<u8> = (0..10_000).map(|i| i as u8).collect();
        let key = [0x5c; DIGEST_LEN];
        let want = mac(&key, &[&data]);
        cases(256, |rng| {
            let mut cuts: Vec<usize> = (0..rng.gen_range(24))
                .map(|_| rng.gen_range(10_001) as usize)
                .collect();
            cuts.sort_unstable();
            let mut state = Mac::new(&key);
            let mut start = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                state.update(&data[start..cut]);
                start = cut;
            }
            assert_eq!(state.finish(), want);
        });
    }

    #[test]
    fn every_length_and_key_gives_its_own_result() {
        let data = [0u8; 64];
        let mut seen = std::collections::HashSet::new();
        for key_byte in 0..4 {
            for len in 0..=data.len() {
                assert!(seen.insert(mac(&[key_byte; DIGEST_LEN], &[&data[..len]])));
            }
        }
    }
}
