//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the one
//! framing checksum of the workspace: cache entries and the durable
//! store's journal frames both use it.
//!
//! Two implementations compute the same function:
//!
//! - **Slice-by-8** runs on every CPU: eight 256-entry tables, built at
//!   compile time, fold eight input bytes per step instead of one bit.
//! - **Carry-less multiplication** runs on x86-64 CPUs with PCLMULQDQ
//!   for inputs of at least 64 bytes. It folds 64 bytes per step into
//!   four 128-bit accumulators, reduces them to 32 bits with a Barrett
//!   reduction, and leaves the last 0–15 bytes to the tables (Gopal et
//!   al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel, 2009).
//!
//! [`crc32`] picks the path at run time with `is_x86_feature_detected!`;
//! both produce the same checksum for every input.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of byte `b` alone; `TABLES[k][b]` is that
/// CRC advanced through `k` further zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN {
        if let Some(clmul) = clmul::Clmul::detect() {
            return clmul.crc32(bytes);
        }
    }
    crc32_portable(bytes)
}

/// CRC32 of `bytes` through the slice-by-8 tables alone.
fn crc32_portable(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advances the CRC register `crc` (the inverted running checksum)
/// over `bytes`, eight bytes per table step.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::update;

    /// Shortest input the fold takes: its four accumulators start from
    /// the first 64 bytes. Shorter inputs go through the tables.
    pub(super) const MIN_LEN: usize = 64;

    // Fold constants: `x^n mod P(x)`, bit-reflected and shifted left one
    // bit, for the `n` given per constant (Gopal et al.).
    const K1: i64 = 0x1_5444_2bd4; // 4·128 + 32: fold 64 bytes ahead, low half
    const K2: i64 = 0x1_c6e4_1596; // 4·128 − 32: fold 64 bytes ahead, high half
    const K3: i64 = 0x1_7519_97d0; // 128 + 32: fold 16 bytes ahead, low half
    const K4: i64 = 0x0_ccaa_009e; // 128 − 32: fold 16 bytes ahead, high half
    const K5: i64 = 0x1_63cd_6124; // 64: fold 64 bits down to 32
    /// Bit-reflected `P(x)` (33 bits) and `μ = ⌊x^64 / P(x)⌋`, the
    /// Barrett reduction's two constants.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Proof that this CPU has PCLMULQDQ and SSE4.1: only
    /// [`Clmul::detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Clmul(());

    impl Clmul {
        /// `Some` when this CPU runs [`fold`].
        pub(super) fn detect() -> Option<Clmul> {
            let present = is_x86_feature_detected!("pclmulqdq")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("sse4.1");
            present.then_some(Clmul(()))
        }

        /// CRC32 of `bytes`, of any length: from [`MIN_LEN`]
        /// bytes on, whole 16-byte blocks are folded and the last 0–15
        /// bytes go through the tables.
        pub(super) fn crc32(self, bytes: &[u8]) -> u32 {
            let blocks = if bytes.len() >= MIN_LEN {
                bytes.len() & !15
            } else {
                0
            };
            let (head, tail) = bytes.split_at(blocks);
            let mut crc = !0;
            if !head.is_empty() {
                // SAFETY: `self` exists only after `detect` found every
                // feature `fold` enables.
                crc = unsafe { fold(crc, head) };
            }
            !update(crc, tail)
        }
    }

    /// Advances the CRC register `crc` over `bytes`, whose length is a
    /// multiple of 16 and at least [`MIN_LEN`]. Runs only on a CPU with
    /// the features it enables; [`Clmul::crc32`] is its one caller.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn fold(crc: u32, bytes: &[u8]) -> u32 {
        let mut chunks = bytes.chunks_exact(64);
        let first = chunks.next().expect("at least MIN_LEN bytes");
        let mut acc = [
            load(&first[..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for chunk in &mut chunks {
            for (lane, block) in acc.iter_mut().zip(chunk.chunks_exact(16)) {
                *lane = fold_into(*lane, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(acc[0], acc[1], k3k4);
        x = fold_into(x, acc[2], k3k4);
        x = fold_into(x, acc[3], k3k4);
        for block in chunks.remainder().chunks_exact(16) {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 → 64 → 32 significant bits, then Barrett reduction.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }

    /// `acc` carried 128 bits further down the message, plus `next`.
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// A 16-byte block as one vector, first byte in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(block.try_into().expect("16-byte block"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition, kept only as the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// SplitMix64-filled buffer, so the inputs are fixed but irregular.
    fn seeded(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// A named CRC32 implementation.
    type Implementation = (&'static str, fn(&[u8]) -> u32);

    /// Every implementation this host runs: the tables always,
    /// carry-less multiplication where the CPU has it, and the
    /// dispatching [`crc32`].
    fn implementations() -> Vec<Implementation> {
        let portable: [Implementation; 2] = [("slice-by-8", crc32_portable), ("crc32", crc32)];
        #[cfg(target_arch = "x86_64")]
        if clmul::Clmul::detect().is_some() {
            let clmul: Implementation = ("pclmulqdq", |bytes| {
                clmul::Clmul::detect().expect("detected").crc32(bytes)
            });
            return [&portable[..], &[clmul]].concat();
        }
        eprintln!("note: no PCLMULQDQ on this CPU or target; its CRC32 path is skipped");
        portable.to_vec()
    }

    #[test]
    fn crc32_matches_known_vector() {
        for (name, crc) in implementations() {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(crc(b""), 0, "{name}");
        }
    }

    #[test]
    fn table_driven_equals_bitwise_at_every_length_and_alignment() {
        let buf = seeded(8 + 300);
        for (name, crc) in implementations() {
            for start in 0..8 {
                for len in 0..=300 {
                    let input = &buf[start..start + len];
                    assert_eq!(
                        crc(input),
                        crc32_bitwise(input),
                        "{name}: start {start}, len {len}"
                    );
                }
            }
        }
        let big = seeded(1 << 20);
        let expected = crc32_bitwise(&big);
        for (name, crc) in implementations() {
            assert_eq!(crc(&big), expected, "{name}: 1 MiB");
        }
    }

    /// Lengths around every multiple of 64 up to 1280 bytes: the fold's
    /// 64-byte steps, its 16-byte steps after them, and the 64-byte
    /// threshold of the carry-less-multiply path (the first multiple).
    #[test]
    fn every_path_agrees_around_the_threshold_and_fold_boundaries() {
        let buf = seeded(8 + 64 * 20 + 64);
        let mut lengths = vec![62, 63, 64, 65, 66];
        for blocks in 1..=20 {
            for delta in [-17, -16, -15, -1, 0, 1, 15, 16, 17, 48] {
                lengths.push((64 * blocks as isize + delta) as usize);
            }
        }
        for (name, crc) in implementations() {
            for &len in &lengths {
                for start in [0, 1, 7] {
                    let input = &buf[start..start + len];
                    assert_eq!(
                        crc(input),
                        crc32_bitwise(input),
                        "{name}: start {start}, len {len}"
                    );
                }
            }
        }
    }
}
