//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the frame
//! and snapshot checksum.
//!
//! Hand-rolled table-driven implementation: the workspace builds offline
//! and the checksum must be bit-identical on every host, so we depend on
//! nothing. The same routine doubles as the deterministic *state digest*
//! used by the crash-recovery campaigns to compare recovered stores
//! across hosts.

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

/// CRC-32 of `data` (init `!0`, final xor `!0` — the zlib convention).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0u32, data) ^ !0u32
}

/// Streams more data into a raw (pre-final-xor) CRC state. Start from
/// `!0u32`, feed chunks, finish with `^ !0u32`.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
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
            prop_assert_eq!(crc32(&data), reference_update(!0, &data) ^ !0);
        }

        #[test]
        fn streaming_over_random_splits_matches_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..=4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut state = !0u32;
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                state = crc32_update(state, &data[at..cut]);
                at = cut;
            }
            prop_assert_eq!(state ^ !0, crc32(&data));
        }
    }

    #[test]
    fn every_length_up_to_a_few_words_matches_the_reference() {
        // Each remainder length after every whole-word prefix.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=data.len() {
            assert_eq!(
                crc32_update(!0, &data[..n]),
                reference_update(!0, &data[..n]),
                "length {n}"
            );
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
