//! SHA-256 and HMAC-SHA256, implemented locally.
//!
//! The reproduction needs a deterministic hash for its toy TLS key schedule
//! and packet authentication tags. Implementing FIPS 180-4 SHA-256 here
//! avoids pulling a cryptography dependency into an offline build; the
//! NIST test vectors below pin correctness.
//!
//! Every packet is tagged and verified with two digests, so the block
//! function is the simulator's hottest kernel. There are two of them
//! behind one signature (`BlockFn`): the CPU's SHA extensions where
//! `sha_ni::detect` finds them at run time, and the portable scalar rounds
//! everywhere else. Both produce the same bytes; the differential tests
//! below hold them to it.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Input block size of SHA-256 in bytes.
const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Folds whole 64-byte blocks into the eight-word chaining state. The
/// slice holds any number of blocks back to back, so a long input is one
/// call and the state stays in registers from block to block.
type BlockFn = fn(&mut [u32; 8], &[u8]);

/// The portable block function: the FIPS 180-4 rounds in plain integer
/// arithmetic. Runs wherever [`sha_ni::detect`] finds nothing, and is the
/// reference the SHA-NI path is tested against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (w, word) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The block function on the x86 SHA extensions and its run-time
/// detection. This module is the only library code in the workspace that
/// uses `unsafe`: every other crate forbids it and this one denies it
/// everywhere else.
#[allow(unsafe_code)]
mod sha_ni {
    use super::BlockFn;

    /// The SHA-NI block function, if this CPU has the instructions; `None`
    /// on any other x86-64 part and on every other architecture.
    pub(super) fn detect() -> Option<BlockFn> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Some(|state, blocks| {
                // SAFETY: this closure exists only on the branch where
                // run-time detection reported `sha`, `ssse3` and `sse4.1`
                // (`sse2` is part of the x86-64 baseline), which is all
                // `compress` asks of its caller.
                unsafe { compress(state, blocks) }
            });
        }
        None
    }

    /// The block function on the x86 SHA extensions: `sha256rnds2` performs
    /// two rounds per instruction on the state held as the register pair
    /// (ABEF, CDGH), `sha256msg1` / `sha256msg2` extend the message schedule
    /// four words at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1` features.
    /// Nothing is asked of the arguments: `state` is read and written through
    /// unaligned 16-byte loads and stores that cover exactly its eight words,
    /// every block is read through unaligned 16-byte loads at offsets 0, 16,
    /// 32 and 48 of a 64-byte `chunks_exact` slice, and the round constants
    /// likewise from bounds-checked four-word slices of `K`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        use super::{BLOCK_LEN, K};
        use std::arch::x86_64::*;

        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        // Byte shuffle that turns four big-endian message words into lanes.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // [a b c d] [e f g h] in memory -> the (ABEF, CDGH) pair the
        // instructions want, most significant lane first.
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        // Four rounds: both instructions take two words of `W + K`, and
        // two rounds turn (CDGH, ABEF) into the new ABEF while the old
        // ABEF becomes the new CDGH, so the two names swap roles.
        macro_rules! rounds4 {
            ($w:expr, $group:expr) => {{
                let k = K[4 * $group..4 * $group + 4].as_ptr().cast();
                let wk = _mm_add_epi32($w, _mm_loadu_si128(k));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next four schedule words from the previous sixteen, oldest
        // group first.
        macro_rules! schedule {
            ($w16:expr, $w12:expr, $w8:expr, $w4:expr) => {{
                let sigma0 = _mm_sha256msg1_epu32($w16, $w12);
                let w_minus_7 = _mm_alignr_epi8($w4, $w8, 4);
                _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), $w4)
            }};
        }

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let block_ptr = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), be_words);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), be_words);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), be_words);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), be_words);
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            // Each new group overwrites the one sixteen words back, so
            // four named registers hold the whole window.
            for group in [4, 8, 12] {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, group);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, group + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, group + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    /// The `total_len % BLOCK_LEN` bytes no block function has seen yet.
    buf: [u8; BLOCK_LEN],
    total_len: u64,
    compress: BlockFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hash state.
    pub fn new() -> Self {
        Self::with_block_fn(sha_ni::detect().unwrap_or(compress_scalar))
    }

    fn with_block_fn(compress: BlockFn) -> Self {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; BLOCK_LEN],
            total_len: 0,
            compress,
        }
    }

    fn buffered(&self) -> usize {
        (self.total_len % BLOCK_LEN as u64) as usize
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        let buffered = self.buffered();
        self.total_len += data.len() as u64;
        if buffered > 0 {
            let take = (BLOCK_LEN - buffered).min(data.len());
            self.buf[buffered..buffered + take].copy_from_slice(&data[..take]);
            if buffered + take < BLOCK_LEN {
                return;
            }
            (self.compress)(&mut self.h, &self.buf);
            data = &data[take..];
        }
        // Every whole block goes to the block function straight from the
        // caller's slice; only the tail that does not fill one is kept.
        let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            (self.compress)(&mut self.h, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding is `0x80`, zeros to 8 bytes short of a block boundary,
        // then the bit length, written where the buffered tail ends.
        let buffered = self.buffered();
        self.buf[buffered] = 0x80;
        self.buf[buffered + 1..].fill(0);
        if buffered >= BLOCK_LEN - 8 {
            // No room left for the length: it goes in a block of its own.
            (self.compress)(&mut self.h, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&(self.total_len * 8).to_be_bytes());
        (self.compress)(&mut self.h, &self.buf);
        digest_bytes(self.h)
    }
}

/// The chaining state as the big-endian digest.
fn digest_bytes(h: [u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (o, w) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// HMAC-SHA256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256_parts(key, &[message])
}

/// HMAC-SHA256 over the concatenation of `parts`, which are streamed
/// into the hash as they are: nothing is joined or heap-allocated.
pub(crate) fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&k.map(|b| b ^ 0x36));
    for part in parts {
        inner.update(part);
    }
    let mut outer = Sha256::new();
    outer.update(&k.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// HKDF-Extract (RFC 5869): PRK = HMAC(salt, ikm).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// Single-block HKDF-Expand with an info label (32 bytes of output, which
/// is all the toy key schedule ever needs).
pub fn hkdf_expand_label(prk: &[u8; DIGEST_LEN], label: &str) -> [u8; DIGEST_LEN] {
    hmac_sha256_parts(prk, &[label.as_bytes(), &[0x01]])
}

#[cfg(test)]
mod tests {
    use super::*;

    use rq_testkit::prop::cases;
    use std::io::Write;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Digest of `chunks`, one `update` each, through one block function.
    fn digest_with(compress: BlockFn, chunks: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_block_fn(compress);
        for chunk in chunks {
            h.update(chunk);
        }
        h.finalize()
    }

    /// Every block function this machine can run. A host without the SHA
    /// extensions says so on the real stderr (the harness captures
    /// `eprintln!` of a passing test), so a green run names what it tested.
    fn block_fns() -> Vec<(&'static str, BlockFn)> {
        static REPORT: std::sync::Once = std::sync::Once::new();
        let mut fns: Vec<(&'static str, BlockFn)> = vec![("scalar", compress_scalar)];
        match sha_ni::detect() {
            Some(f) => fns.push(("sha-ni", f)),
            None => REPORT.call_once(|| {
                writeln!(
                    std::io::stderr(),
                    "sha256: SHA-NI not available, scalar only"
                )
                .expect("stderr is writable")
            }),
        }
        fns
    }

    fn counting_bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    /// FIPS 180-4 section 5.1.1 spelled out: the padded message is built
    /// in full and handed to the scalar rounds in one piece.
    fn padded_reference(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = Sha256::with_block_fn(compress_scalar).h;
        compress_scalar(&mut h, &msg);
        digest_bytes(h)
    }

    /// The lengths where the padding changes shape: 55 is the longest
    /// message whose padding fits its own block, 56..=63 spill the length
    /// into a second block, 64 starts one, 119 / 120 repeat that one
    /// block on. Messages are bytes 0, 1, 2, ...; digests were printed by
    /// the implementation before the SHA-NI path existed (and agree with
    /// `sha256sum`).
    #[test]
    fn padding_edge_vectors() {
        let edges = [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
        ];
        for (name, compress) in block_fns() {
            for (len, want) in edges {
                let got = digest_with(compress, &[&counting_bytes(len)]);
                assert_eq!(hex(&got), want, "{name}, {len} bytes");
            }
        }
    }

    #[test]
    fn block_functions_agree_on_every_length_to_300() {
        let data = counting_bytes(300);
        let fns = block_fns();
        for len in 0..=data.len() {
            let want = padded_reference(&data[..len]);
            for &(name, compress) in &fns {
                let got = digest_with(compress, &[&data[..len]]);
                assert_eq!(got, want, "{name}, {len} bytes");
            }
            assert_eq!(sha256(&data[..len]), want, "public path, {len} bytes");
        }
    }

    #[test]
    fn block_functions_agree_on_any_split_of_10kb() {
        let data = counting_bytes(10_000);
        let want = digest_with(compress_scalar, &[&data]);
        cases(256, |rng| {
            let mut cuts: Vec<usize> = (0..rng.gen_range(24))
                .map(|_| rng.gen_range(10_001) as usize)
                .collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                chunks.push(&data[start..cut]);
                start = cut;
            }
            for (name, compress) in block_fns() {
                assert_eq!(digest_with(compress, &chunks), want, "{name}");
            }
        });
    }

    #[test]
    fn nist_empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bit_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn rfc4231_hmac_case_1() {
        let key = [0x0b; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_hmac_case_2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_hmac_long_key() {
        // Case 6: 131-byte key (hashed down).
        let key = [0xaa; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hkdf_deterministic_and_label_sensitive() {
        let prk = hkdf_extract(b"salt", b"ikm");
        let a = hkdf_expand_label(&prk, "client in");
        let b = hkdf_expand_label(&prk, "server in");
        let a2 = hkdf_expand_label(&prk, "client in");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
