//! SHA-256 (FIPS 180-4), dependency-free. The workspace deliberately
//! vendors no crypto crate.
//!
//! Block compression has two implementations of the same function: a
//! portable one, small, allocation-free and checked against the
//! standard test vectors, and one on the x86-64 SHA extensions.
//! `Backend::detect` picks one per hasher at run time.

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

/// Which block compression a hasher runs.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::ShaNi),
}

impl Backend {
    /// The fastest backend this CPU runs.
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if let Some(shani) = shani::ShaNi::detect() {
            return Backend::ShaNi(shani);
        }
        Backend::Portable
    }

    /// Compresses `blocks`, whose length is a multiple of 64, into
    /// `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            Backend::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi(shani) => shani.compress(state, blocks),
        }
    }
}

/// A streaming SHA-256 hasher.
///
/// ```
/// let mut h = hercules_digest::Sha256::default();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finish(), hercules_digest::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    backend: Backend,
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    /// Starts a hasher on the fastest block compression this CPU runs.
    fn default() -> Sha256 {
        Sha256::with_backend(Backend::detect())
    }
}

impl Sha256 {
    fn with_backend(backend: Backend) -> Sha256 {
        Sha256 {
            backend,
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.length = self.length.wrapping_add(bytes.len() as u64);
        if self.buffered > 0 {
            let take = bytes.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 64 {
                return;
            }
            let block = self.buffer;
            self.backend.compress(&mut self.state, &block);
            self.buffered = 0;
        }
        let (blocks, rest) = bytes.split_at(bytes.len() - bytes.len() % 64);
        if !blocks.is_empty() {
            self.backend.compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The digest of every byte fed so far.
    pub fn finish(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the bit length in the last 8 bytes
        // of the final block (a second block when fewer than 9 bytes
        // are left in this one).
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let end = if self.buffered < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        self.backend.compress(&mut self.state, &tail[..end]);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The FIPS 180-4 compression function, one 64-byte block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
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
        let add = [a, b, c, d, e, f, g, h];
        for (s, v) in state.iter_mut().zip(add) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Hashes `bytes` in one shot.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::default();
    h.update(bytes);
    h.finish()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    use super::K;

    /// Proof that this CPU has the SHA extensions and the SSSE3 and
    /// SSE4.1 shuffles around them: only [`ShaNi::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` when this CPU runs [`compress_blocks`].
        pub(super) fn detect() -> Option<ShaNi> {
            let present = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            present.then_some(ShaNi(()))
        }

        /// Compresses `blocks`, whose length is a multiple of 64, into
        /// `state`.
        pub(super) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `self` exists only after `detect` found every
            // feature `compress_blocks` enables.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// The compression function on `sha256rnds2` (two rounds per
    /// instruction) and `sha256msg1`/`sha256msg2` (the message
    /// schedule), four rounds per step. Runs only on a CPU with the
    /// features it enables; [`ShaNi::compress`] is its one caller.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Lane order is written high to low. The instructions keep the
        // eight working variables as (A, B, E, F) and (C, D, G, H).
        let dcba = lanes(&state[..4]);
        let hgfe = lanes(&state[4..]);
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load_be(&block[..16]);
            let mut w1 = load_be(&block[16..32]);
            let mut w2 = load_be(&block[32..48]);
            let mut w3 = load_be(&block[48..]);
            for quad in 0..4 {
                rounds4(&mut abef, &mut cdgh, w0, 16 * quad);
                rounds4(&mut abef, &mut cdgh, w1, 16 * quad + 4);
                rounds4(&mut abef, &mut cdgh, w2, 16 * quad + 8);
                rounds4(&mut abef, &mut cdgh, w3, 16 * quad + 12);
                if quad < 3 {
                    w0 = schedule(w0, w1, w2, w3);
                    w1 = schedule(w1, w2, w3, w0);
                    w2 = schedule(w2, w3, w0, w1);
                    w3 = schedule(w3, w0, w1, w2);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgef) as u32,
            _mm_extract_epi32::<1>(hgef) as u32,
            _mm_extract_epi32::<2>(hgef) as u32,
            _mm_extract_epi32::<3>(hgef) as u32,
        ];
    }

    /// Rounds `t..t + 4` on the message words `w` (`W[t]` in the lowest
    /// lane).
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, t: usize) {
        let wk = _mm_add_epi32(w, lanes(&K[t..t + 4]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four message words from the previous sixteen, oldest
    /// first.
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// Four big-endian message words, the first in the lowest lane.
    #[target_feature(enable = "sse2,ssse3")]
    fn load_be(bytes: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(bytes.try_into().expect("16-byte block"));
        let swap_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x((v >> 64) as i64, v as i64), swap_words)
    }

    /// Four words as one vector, the first in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn lanes(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::encode as hex;

    /// Every backend this host runs, by name: the portable one always,
    /// SHA-NI where the CPU has it.
    fn backends() -> Vec<(&'static str, Backend)> {
        let portable = ("portable", Backend::Portable);
        #[cfg(target_arch = "x86_64")]
        if let Some(shani) = shani::ShaNi::detect() {
            return vec![portable, ("sha-ni", Backend::ShaNi(shani))];
        }
        eprintln!("note: no SHA-NI on this CPU or target; its SHA-256 path is skipped");
        vec![portable]
    }

    fn digest(backend: Backend, bytes: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_backend(backend);
        h.update(bytes);
        h.finish()
    }

    /// `len` bytes counting up modulo 251, so no block repeats another.
    fn data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn sha256_matches_standard_vectors() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, backend) in backends() {
            for (input, expected) in vectors {
                assert_eq!(hex(&digest(backend, input)), expected, "{name}");
            }
            // A million 'a's exercises the multi-block streaming path.
            let mut h = Sha256::with_backend(backend);
            let chunk = [b'a'; 10_000];
            for _ in 0..100 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finish()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
        assert_eq!(hex(&sha256(b"abc")), vectors[1].1, "dispatching sha256");
    }

    #[test]
    fn streaming_equals_one_shot_at_odd_boundaries() {
        let data = data(1000);
        for (name, backend) in backends() {
            let one_shot = digest(backend, &data);
            for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
                let mut h = Sha256::with_backend(backend);
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finish(), one_shot, "{name}: split at {split}");
            }
        }
    }

    #[test]
    fn every_backend_agrees_at_every_length_and_offset() {
        let buf = data(8 + 300);
        let all = backends();
        for start in 0..8 {
            for len in 0..=300 {
                let input = &buf[start..start + len];
                let reference = digest(Backend::Portable, input);
                for &(name, backend) in &all {
                    assert_eq!(
                        digest(backend, input),
                        reference,
                        "{name}: start {start}, len {len}"
                    );
                }
                assert_eq!(sha256(input), reference, "dispatching sha256");
            }
        }
        let big = data(1 << 20);
        let reference = digest(Backend::Portable, &big);
        for (name, backend) in all {
            assert_eq!(digest(backend, &big), reference, "{name}: 1 MiB");
        }
    }
}
