//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the frame
//! and snapshot checksum.
//!
//! Hand-rolled: the workspace builds offline and the checksum must be
//! bit-identical on every host, so we depend on nothing. On x86_64 CPUs
//! with PCLMULQDQ, inputs of 64 bytes or more are folded with carry-less
//! multiplies (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction", Intel, 2009); everything
//! else runs the portable slicing-by-8 loop. Both compute the same
//! function. The same routine doubles as the deterministic *state
//! digest* used by the crash-recovery campaigns to compare recovered
//! stores across hosts.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 lookup tables. `TABLES[0]` is the classic 256-entry
/// byte table; `TABLES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so eight table reads fold in eight bytes
/// at once.
const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = tables();

/// `x^n mod P(x)` in the reflected bit order of the CRC state (bit 31
/// holds the `x^0` coefficient).
const fn x_pow_mod(n: u32) -> u32 {
    let mut r = 1u32 << 31;
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
        i += 1;
    }
    r
}

/// CRC-32 of `data` (init `!0`, final xor `!0` — the zlib convention).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0u32, data) ^ !0u32
}

/// Streams more data into a raw (pre-final-xor) CRC state. Start from
/// `!0u32`, feed chunks, finish with `^ !0u32`.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU supports PCLMULQDQ (checked just above).
        return unsafe { clmul::update(state, data) };
    }
    slice8_update(state, data)
}

/// The portable path: slicing-by-8 over [`TABLES`].
fn slice8_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC folding with carry-less multiplication. Four 128-bit lanes take
/// 64 bytes per step; each lane's polynomial `A = H·x^64 + L` moves
/// `D` bits down the message as `H·(x^(D+64) mod P) + L·(x^D mod P)`,
/// which is congruent to `A·x^D` modulo `P` and fits in 96 bits. The
/// lanes then fold into one, which stands for the whole prefix as the
/// 16 bytes ending it: its CRC from a zero state, continued over the
/// last few bytes, is the CRC of the input.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{slice8_update, x_pow_mod};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_set_epi64x,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Bytes folded per step: one 16-byte block for each of the four
    /// lanes. Shorter inputs take the portable path.
    const STEP: usize = 64;

    /// The multipliers that move a lane `bits` down the message: for
    /// its low quadword (the `H` half, in reflected order) and for its
    /// high one (`L`). Stored reflected and shifted up one bit, a 32-bit
    /// key stands for itself times `x^32` once the carry-less product
    /// lands in the 128-bit register, so the keys are `x^(bits + 32)`
    /// and `x^(bits - 32)` rather than `x^(bits + 64)` and `x^bits`.
    const fn fold_keys(bits: u32) -> (i64, i64) {
        (
            ((x_pow_mod(bits + 32) as u64) << 1) as i64,
            ((x_pow_mod(bits - 32) as u64) << 1) as i64,
        )
    }

    const BY_4: (i64, i64) = fold_keys(4 * 128);
    const BY_1: (i64, i64) = fold_keys(128);

    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: `block` holds at least the 16 bytes read, and the load
        // needs no alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` moved down the message onto `next`, added to it.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let h = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let l = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(next, _mm_xor_si128(h, l))
    }

    /// [`super::crc32_update`] over inputs of any length.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        let mut steps = data.chunks_exact(STEP);
        let Some(first) = steps.next() else {
            return slice8_update(state, data);
        };
        let by_4 = _mm_set_epi64x(BY_4.1, BY_4.0);
        let by_1 = _mm_set_epi64x(BY_1.1, BY_1.0);
        // The state enters as an xor into the first four bytes.
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        for step in &mut steps {
            for (lane, at) in lanes.iter_mut().zip([0, 16, 32, 48]) {
                *lane = fold(*lane, load(&step[at..]), by_4);
            }
        }
        let [a, b, c, d] = lanes;
        let mut acc = fold(fold(fold(a, b, by_1), c, by_1), d, by_1);
        let mut blocks = steps.remainder().chunks_exact(16);
        for block in &mut blocks {
            acc = fold(acc, load(block), by_1);
        }
        let mut folded = [0u8; 16];
        // SAFETY: `folded` has room for the 16 bytes stored, and the
        // store needs no alignment.
        unsafe { _mm_storeu_si128(folded.as_mut_ptr().cast(), acc) };
        slice8_update(slice8_update(0, &folded), blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC, with each table entry computed on the
    /// fly rather than read from `TABLES`: the reference every sliced
    /// value must match.
    fn reference_update(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    POLY ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sliced_crc_matches_the_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            let want = reference_update(!0, &data);
            // The portable path is called directly, so it is covered on
            // hosts where `crc32` folds with carry-less multiplies.
            prop_assert_eq!(slice8_update(!0, &data), want);
            prop_assert_eq!(crc32(&data), want ^ !0);
        }

        #[test]
        fn streaming_over_random_splits_matches_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let (mut state, mut sliced) = (!0u32, !0u32);
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                state = crc32_update(state, &data[at..cut]);
                sliced = slice8_update(sliced, &data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(state ^ !0, crc32(&data));
            prop_assert_eq!(sliced, reference_update(!0, &data));
        }
    }

    #[test]
    fn every_length_and_start_offset_matches_the_reference() {
        // Every length 0..=4096 at every start offset 0..16 (so every
        // alignment of every fold-by-4 step, fold-by-1 block and tail),
        // from a state that is not the initial one.
        let mut rng = dbx_faults::XorShift64::new(29);
        let data: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u32() as u8).collect();
        for off in 0..16 {
            let mut want = 0x1234_5678;
            for n in 0..=4096 {
                assert_eq!(
                    crc32_update(0x1234_5678, &data[off..off + n]),
                    want,
                    "offset {off}, length {n}"
                );
                if n < 4096 {
                    want = reference_update(want, &data[off + n..off + n + 1]);
                }
            }
        }
    }

    #[test]
    fn every_length_up_to_a_few_words_matches_the_reference() {
        // Each remainder length after every whole-word prefix.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=data.len() {
            let want = reference_update(!0, &data[..n]);
            assert_eq!(crc32_update(!0, &data[..n]), want, "length {n}");
            assert_eq!(slice8_update(!0, &data[..n]), want, "length {n}");
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut s = !0u32;
        for chunk in data.chunks(7) {
            s = crc32_update(s, chunk);
        }
        assert_eq!(s ^ !0u32, crc32(data));
    }

    #[test]
    fn single_bit_damage_changes_the_sum() {
        let mut data = b"frame payload bytes".to_vec();
        let clean = crc32(&data);
        data[5] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
