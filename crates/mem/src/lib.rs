//! Memory subsystem for the dbasip processor simulator.
//!
//! This crate models every storage component of the paper's processor
//! (Figure 1 and Figure 6 of Arnold et al., SIGMOD 2014):
//!
//! * [`LocalMemory`] — single-cycle scratchpad ("local store") memories for
//!   instructions and data. The DBA processor variants operate *only* on
//!   local memories; there are no cache misses on that path.
//! * [`SystemMemory`] — large off-chip memory behind the interconnect, used
//!   by the baseline `108Mini` configuration and by the data prefetcher.
//! * [`DataCache`] — a direct-mapped cache model placed in front of system
//!   memory for cache-based configurations (the `108Mini` baseline).
//! * [`prefetch`] — the data prefetcher: a DMA controller plus programmable
//!   finite state machine that moves bursts between system memory and the
//!   second port of dual-port local memories, concurrently with execution.
//!
//! All memories are byte-addressed little-endian and enforce the access
//! widths and alignments of the hardware they model (32/64/128-bit).

pub mod cache;
pub mod error;
pub mod local;
pub mod prefetch;
pub mod sysmem;

pub use cache::{CacheConfig, CacheStats, DataCache};
pub use error::MemError;
pub use local::{AccessPort, LocalMemory};
pub use prefetch::{BurstBus, Dmac, DmacProgram, DmacState, TransferDescriptor};
pub use sysmem::SystemMemory;
// Fault-model vocabulary, re-exported so memory users need not depend on
// `dbx-faults` directly.
pub use dbx_faults::{FaultCounters, ProtectionKind};

/// Width of one memory access in bits. The paper's DBA configurations use a
/// 128-bit data bus; the 108Mini baseline uses 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Width {
    /// 8-bit byte access.
    W8,
    /// 16-bit halfword access.
    W16,
    /// 32-bit word access.
    W32,
    /// 64-bit doubleword access.
    W64,
    /// 128-bit quadword access (one full DBA bus beat, four set elements).
    W128,
}

impl Width {
    /// Size of the access in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
            Width::W128 => 16,
        }
    }

    /// Size of the access in bits.
    #[inline]
    pub fn bits(self) -> usize {
        self.bytes() * 8
    }

    /// Decodes a little-endian value of this width from the front of
    /// `bytes` (one fixed-width load, no per-byte loop).
    #[inline]
    pub(crate) fn load_le(self, bytes: &[u8]) -> u128 {
        match self {
            Width::W8 => bytes[0] as u128,
            Width::W16 => u16::from_le_bytes(front(bytes)) as u128,
            Width::W32 => u32::from_le_bytes(front(bytes)) as u128,
            Width::W64 => u64::from_le_bytes(front(bytes)) as u128,
            Width::W128 => u128::from_le_bytes(front(bytes)),
        }
    }

    /// Encodes the low bytes of `value` little-endian into the front of
    /// `bytes` (mirror of [`Self::load_le`]).
    #[inline]
    pub(crate) fn store_le(self, bytes: &mut [u8], value: u128) {
        match self {
            Width::W8 => bytes[0] = value as u8,
            Width::W16 => bytes[..2].copy_from_slice(&(value as u16).to_le_bytes()),
            Width::W32 => bytes[..4].copy_from_slice(&(value as u32).to_le_bytes()),
            Width::W64 => bytes[..8].copy_from_slice(&(value as u64).to_le_bytes()),
            Width::W128 => bytes[..16].copy_from_slice(&value.to_le_bytes()),
        }
    }

    /// The widest access allowed on a bus of `bits` width.
    pub fn from_bus_bits(bits: usize) -> Width {
        match bits {
            0..=8 => Width::W8,
            9..=16 => Width::W16,
            17..=32 => Width::W32,
            33..=64 => Width::W64,
            _ => Width::W128,
        }
    }
}

/// The first `N` bytes of `bytes` as an array.
#[inline]
fn front<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes[..N]
        .try_into()
        .expect("a slice of N bytes converts to [u8; N]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bytes_and_bits_are_consistent() {
        for w in [Width::W8, Width::W16, Width::W32, Width::W64, Width::W128] {
            assert_eq!(w.bits(), w.bytes() * 8);
        }
    }

    #[test]
    fn width_from_bus_bits_picks_widest_fitting() {
        assert_eq!(Width::from_bus_bits(32), Width::W32);
        assert_eq!(Width::from_bus_bits(64), Width::W64);
        assert_eq!(Width::from_bus_bits(128), Width::W128);
        assert_eq!(Width::from_bus_bits(8), Width::W8);
    }
}
