//! Off-chip system memory behind the interconnection network.
//!
//! The 108Mini baseline accesses its working set through a data cache backed
//! by this memory; the DBA configurations reach it only through the data
//! prefetcher's burst transfers. Timing is modelled as a fixed access
//! latency plus a per-beat cost for burst transfers (see
//! [`crate::prefetch::BurstBus`]).

use crate::error::MemError;
use crate::Width;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

// Accesses are naturally aligned and at most 16 bytes wide, so none of
// them can straddle a page: one page lookup serves every byte of it.
const _: () = assert!(PAGE_SIZE.is_multiple_of(16));

/// Multiplicative (Fibonacci) hash of a page number. Page numbers come
/// from the simulated program's own addresses, so the default hasher's
/// resistance to crafted collisions buys nothing here, and its cost sat on
/// every cached 108Mini load and store.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 << 8 | b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Sparse flat memory. Pages are allocated on first touch so that multi-
/// megabyte address spaces cost nothing until used.
#[derive(Debug, Default, Clone)]
pub struct SystemMemory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
    /// Lifetime statistics: bytes read.
    pub bytes_read: u64,
    /// Lifetime statistics: bytes written.
    pub bytes_written: u64,
}

impl SystemMemory {
    /// Creates an empty system memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: u32) -> u8 {
        self.bytes_read += 1;
        self.page(addr)[(addr as usize) % PAGE_SIZE]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.bytes_written += 1;
        self.page(addr)[(addr as usize) % PAGE_SIZE] = v;
    }

    /// Offset of a naturally-aligned access within its page.
    fn page_offset(addr: u32, width: Width) -> Result<usize, MemError> {
        let len = width.bytes();
        if !(addr as usize).is_multiple_of(len) {
            return Err(MemError::Misaligned { addr, align: len });
        }
        Ok((addr as usize) % PAGE_SIZE)
    }

    /// Reads a naturally-aligned access of the given width.
    pub fn read(&mut self, addr: u32, width: Width) -> Result<u128, MemError> {
        let off = Self::page_offset(addr, width)?;
        self.bytes_read += width.bytes() as u64;
        Ok(width.load_le(&self.page(addr)[off..]))
    }

    /// Writes a naturally-aligned access of the given width.
    pub fn write(&mut self, addr: u32, width: Width, value: u128) -> Result<(), MemError> {
        let off = Self::page_offset(addr, width)?;
        self.bytes_written += width.bytes() as u64;
        width.store_le(&mut self.page(addr)[off..], value);
        Ok(())
    }

    /// Copies a `u32` slice into memory starting at `addr`.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) -> Result<(), MemError> {
        for (i, w) in words.iter().enumerate() {
            self.write(addr + 4 * i as u32, Width::W32, *w as u128)?;
        }
        Ok(())
    }

    /// Reads `n` consecutive `u32`s starting at `addr`. A run past the top
    /// of the 32-bit address space fails, as one access, before anything
    /// is reserved for it.
    pub fn read_words(&mut self, addr: u32, n: usize) -> Result<Vec<u32>, MemError> {
        const SPACE: u64 = 1 << 32;
        if n as u64 > (SPACE - addr as u64) / 4 {
            return Err(MemError::OutOfBounds {
                addr,
                len: n.saturating_mul(4),
                base: 0,
                size: SPACE as usize,
            });
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.read(addr + 4 * i as u32, Width::W32)? as u32);
        }
        Ok(out)
    }

    /// Number of pages currently allocated (test/inspection helper).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_words_past_the_address_space_fails_before_reserving() {
        let mut m = SystemMemory::new();
        for n in [3, 1 << 31, usize::MAX] {
            let e = m.read_words(0xffff_fff8, n).unwrap_err();
            assert!(
                matches!(
                    e,
                    MemError::OutOfBounds {
                        addr: 0xffff_fff8,
                        base: 0,
                        ..
                    }
                ),
                "n={n}: {e:?}"
            );
        }
        assert_eq!(m.read_words(0xffff_fff8, 2).unwrap(), vec![0, 0]);
        assert_eq!(m.bytes_read, 8);
    }

    #[test]
    fn sparse_allocation_on_touch() {
        let mut m = SystemMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0x8000_0000, Width::W32, 42).unwrap();
        m.write(0x9000_0000, Width::W32, 43).unwrap();
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0x8000_0000, Width::W32).unwrap(), 42);
        assert_eq!(m.read(0x9000_0000, Width::W32).unwrap(), 43);
    }

    #[test]
    fn cross_page_wide_access() {
        let mut m = SystemMemory::new();
        let addr = 0x8000_1000 - 16; // last 16 bytes of a page
        let v: u128 = 0xaaaa_bbbb_cccc_dddd_eeee_ffff_0000_1111;
        m.write(addr, Width::W128, v).unwrap();
        assert_eq!(m.read(addr, Width::W128).unwrap(), v);
    }

    #[test]
    fn misaligned_rejected() {
        let mut m = SystemMemory::new();
        assert!(matches!(
            m.read(3, Width::W32),
            Err(MemError::Misaligned { .. })
        ));
    }

    /// Byte-composed reference of a little-endian access.
    fn read_bytes(m: &mut SystemMemory, addr: u32, len: usize) -> u128 {
        (0..len as u32)
            .rev()
            .fold(0, |v, i| v << 8 | m.read_u8(addr + i) as u128)
    }

    fn write_bytes(m: &mut SystemMemory, addr: u32, len: usize, value: u128) {
        for i in 0..len {
            m.write_u8(addr + i as u32, (value >> (8 * i)) as u8);
        }
    }

    const WIDTHS: [Width; 5] = [Width::W8, Width::W16, Width::W32, Width::W64, Width::W128];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Word-granular accesses at page-interior addresses and at both
        /// sides of a page boundary equal the byte-composed ones, with the
        /// same byte accounting and allocate-on-touch.
        #[test]
        fn word_accesses_equal_byte_composed_ones(
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..5, 0u32..3, 0u32..64, (any::<u64>(), any::<u64>())),
                1..48,
            ),
        ) {
            let (mut word, mut byte) = (SystemMemory::new(), SystemMemory::new());
            for (is_write, w, page, slot, (hi, lo)) in ops {
                let width = WIDTHS[w];
                let len = width.bytes() as u32;
                let page_base = 0x8000_0000 + page * PAGE_SIZE as u32;
                // Slots 0..32 are page-interior; 32..64 sit at the end of
                // the page or the start of the next.
                let addr = if slot < 32 {
                    page_base + 64 + slot * len
                } else if slot < 48 {
                    page_base + PAGE_SIZE as u32 - (slot - 31) * len
                } else {
                    page_base + PAGE_SIZE as u32 + (slot - 48) * len
                };
                let value = ((hi as u128) << 64 | lo as u128) & (u128::MAX >> (128 - 8 * len));
                if is_write {
                    word.write(addr, width, value).unwrap();
                    write_bytes(&mut byte, addr, len as usize, value);
                } else {
                    let got = word.read(addr, width).unwrap();
                    prop_assert_eq!(got, read_bytes(&mut byte, addr, len as usize));
                }
                prop_assert_eq!(word.bytes_read, byte.bytes_read);
                prop_assert_eq!(word.bytes_written, byte.bytes_written);
                prop_assert_eq!(word.resident_pages(), byte.resident_pages());
            }
        }
    }

    #[test]
    fn word_runs_cross_pages_and_misaligned_accesses_touch_nothing() {
        let mut m = SystemMemory::new();
        let base = 0x8000_1000 - 8;
        m.load_words(base, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_words(base, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!((m.bytes_read, m.bytes_written), (16, 16));
        // A misaligned access is rejected before any byte is counted or
        // any page allocated, even where it would straddle a page.
        let e = m.read(0x8000_2000 - 2, Width::W32).unwrap_err();
        assert!(matches!(e, MemError::Misaligned { align: 4, .. }));
        let e = m.write(0x8000_3000 - 8, Width::W128, 1).unwrap_err();
        assert!(matches!(e, MemError::Misaligned { align: 16, .. }));
        assert_eq!((m.bytes_read, m.bytes_written), (16, 16));
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn words_roundtrip() {
        let mut m = SystemMemory::new();
        let ws: Vec<u32> = (0..100).map(|i| i * 7).collect();
        m.load_words(0x8000_0000, &ws).unwrap();
        assert_eq!(m.read_words(0x8000_0000, 100).unwrap(), ws);
    }
}
