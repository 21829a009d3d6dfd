//! Local (scratchpad) memories.
//!
//! The paper's DBA processors replace data caches with *local memories*
//! ("local store", Section 3.2): software-managed SRAMs with single-cycle
//! access. The extended configurations use dual-port local memories so that
//! the data prefetcher can stream data in and out while the core executes.
//!
//! [`LocalMemory`] enforces bounds, natural alignment, and a per-cycle access
//! budget per port. The simulator calls [`LocalMemory::begin_cycle`] once per
//! simulated cycle to reset the budgets; an over-subscribed port reports a
//! structural hazard instead of silently time-travelling data.

use crate::error::MemError;
use crate::Width;
use dbx_faults::ecc::{parity_check, parity_encode, secded_decode, secded_encode, SecdedResult};
use dbx_faults::{FaultCounters, ProtectionKind};
use std::collections::BTreeSet;

/// Identifies which port of a (potentially dual-ported) local memory is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPort {
    /// Port connected to the processor's load–store unit.
    Core,
    /// Port connected to the data prefetcher / interconnection network.
    Prefetcher,
}

/// A software-managed scratchpad memory with single-cycle access.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    name: &'static str,
    base: u32,
    data: Vec<u8>,
    dual_port: bool,
    core_accesses_this_cycle: u32,
    pf_accesses_this_cycle: u32,
    /// Lifetime statistics: total accesses through the core port.
    pub core_accesses: u64,
    /// Lifetime statistics: total accesses through the prefetcher port.
    pub pf_accesses: u64,
    /// Lifetime statistics: total bytes moved (both ports).
    pub bytes_moved: u64,
    /// Protection scheme of this array (parity / SECDED / none).
    protection: ProtectionKind,
    /// Stored check code per 32-bit word (empty when unprotected).
    codes: Vec<u8>,
    /// Word indices holding an injected upset the array has not yet
    /// corrected or been rewritten over — used to account *escaped*
    /// (silently consumed) corruption.
    tainted: BTreeSet<usize>,
    /// Hard (stuck-at) faults: `(word index, bit, forced value)`,
    /// re-applied after every write that touches the word.
    stuck: Vec<(usize, u8, bool)>,
    /// Resilience accounting: injected/corrected/detected/escaped.
    pub faults: FaultCounters,
}

impl LocalMemory {
    /// Creates a single-port local memory of `size` bytes mapped at `base`.
    pub fn new(name: &'static str, base: u32, size: usize) -> Self {
        Self::with_ports(name, base, size, false)
    }

    /// Creates a dual-port local memory (core + prefetcher ports).
    pub fn new_dual_port(name: &'static str, base: u32, size: usize) -> Self {
        Self::with_ports(name, base, size, true)
    }

    fn with_ports(name: &'static str, base: u32, size: usize, dual_port: bool) -> Self {
        assert!(size > 0, "local memory must be non-empty");
        assert_eq!(base % 16, 0, "local memory base must be 128-bit aligned");
        LocalMemory {
            name,
            base,
            data: vec![0; size],
            dual_port,
            core_accesses_this_cycle: 0,
            pf_accesses_this_cycle: 0,
            core_accesses: 0,
            pf_accesses: 0,
            bytes_moved: 0,
            protection: ProtectionKind::None,
            codes: Vec::new(),
            tainted: BTreeSet::new(),
            stuck: Vec::new(),
            faults: FaultCounters::default(),
        }
    }

    /// Name of this memory (used in error messages and reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Base address of the mapped region.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size of the memory in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// True if an access of `len` bytes at `addr` falls inside this region.
    #[inline]
    pub fn contains(&self, addr: u32, len: usize) -> bool {
        let a = addr as u64;
        let b = self.base as u64;
        a >= b && a + len as u64 <= b + self.data.len() as u64
    }

    /// Resets the per-cycle port budgets. Call once per simulated cycle.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.core_accesses_this_cycle = 0;
        self.pf_accesses_this_cycle = 0;
    }

    /// Current protection scheme of the array.
    pub fn protection(&self) -> ProtectionKind {
        self.protection
    }

    /// Rebuilds the array with the given protection scheme: the check-bit
    /// sideband is (re-)encoded over the current contents and any taint
    /// from earlier injections is forgotten.
    pub fn set_protection(&mut self, kind: ProtectionKind) {
        self.protection = kind;
        self.tainted.clear();
        if kind == ProtectionKind::None {
            self.codes.clear();
            return;
        }
        let n_words = self.data.len().div_ceil(4);
        self.codes = vec![0; n_words];
        for ix in 0..n_words {
            self.codes[ix] = self.encode(self.word_at(ix));
        }
    }

    /// Word indices currently known to hold uncorrected corruption.
    pub fn tainted_words(&self) -> usize {
        self.tainted.len()
    }

    fn word_at(&self, ix: usize) -> u32 {
        let off = ix * 4;
        let mut v = 0u32;
        for i in (0..4.min(self.data.len() - off)).rev() {
            v = (v << 8) | self.data[off + i] as u32;
        }
        v
    }

    fn put_word(&mut self, ix: usize, w: u32) {
        let off = ix * 4;
        for i in 0..4.min(self.data.len() - off) {
            self.data[off + i] = (w >> (8 * i)) as u8;
        }
    }

    fn encode(&self, word: u32) -> u8 {
        match self.protection {
            ProtectionKind::None => 0,
            ProtectionKind::Parity => parity_encode(word),
            ProtectionKind::Secded => secded_encode(word),
        }
    }

    /// Flips one data bit *behind the protection scheme's back*: the stored
    /// check bits are left untouched, exactly like a particle strike in the
    /// SRAM array. `word_sel` is reduced modulo the word count.
    pub fn inject_bit_flip(&mut self, word_sel: u64, bit: u8) {
        let n_words = (self.data.len() / 4).max(1);
        let ix = (word_sel % n_words as u64) as usize;
        let w = self.word_at(ix);
        self.put_word(ix, w ^ 1u32 << (bit % 32));
        self.tainted.insert(ix);
        self.faults.injected += 1;
    }

    /// Installs a stuck-at fault: the bit is forced to `value` now and
    /// after every subsequent write to the word. Check bits are not
    /// updated, so protected arrays can observe the fault.
    pub fn inject_stuck_at(&mut self, word_sel: u64, bit: u8, value: bool) {
        let n_words = (self.data.len() / 4).max(1);
        let ix = (word_sel % n_words as u64) as usize;
        let bit = bit % 32;
        self.stuck.push((ix, bit, value));
        self.faults.injected += 1;
        self.force_stuck_word(ix);
    }

    /// Re-applies every stuck bit registered for word `ix`; taints the word
    /// if forcing actually changed it.
    fn force_stuck_word(&mut self, ix: usize) {
        let mut w = self.word_at(ix);
        let mut changed = false;
        for &(six, bit, value) in &self.stuck {
            if six != ix {
                continue;
            }
            let forced = if value { w | 1 << bit } else { w & !(1 << bit) };
            changed |= forced != w;
            w = forced;
        }
        if changed {
            self.put_word(ix, w);
            self.tainted.insert(ix);
        }
    }

    /// Verifies the protected words covering `[off, off+len)` before a
    /// read, correcting / detecting / accounting as the scheme allows.
    /// Unprotected, untainted arrays — every access of a fault-free run —
    /// return before the out-of-line word walk.
    #[inline]
    fn verify(&mut self, off: usize, len: usize) -> Result<(), MemError> {
        if self.protection == ProtectionKind::None && self.tainted.is_empty() {
            return Ok(());
        }
        self.verify_words(off, len)
    }

    #[inline(never)]
    fn verify_words(&mut self, off: usize, len: usize) -> Result<(), MemError> {
        for ix in off / 4..=(off + len - 1) / 4 {
            let addr = self.base + (ix * 4) as u32;
            match self.protection {
                ProtectionKind::None => {
                    // Raw SRAM: corruption sails straight into the core.
                    if self.tainted.contains(&ix) {
                        self.faults.escaped += 1;
                    }
                }
                ProtectionKind::Parity => {
                    if !parity_check(self.word_at(ix), self.codes[ix]) {
                        self.faults.detected += 1;
                        return Err(MemError::ParityUpset {
                            mem: self.name,
                            addr,
                        });
                    }
                    // Parity passed: an even number of flips (or none).
                    if self.tainted.remove(&ix) {
                        self.faults.escaped += 1;
                    }
                }
                ProtectionKind::Secded => match secded_decode(self.word_at(ix), self.codes[ix]) {
                    SecdedResult::Clean => {
                        self.tainted.remove(&ix);
                    }
                    SecdedResult::Corrected(fixed) => {
                        self.put_word(ix, fixed);
                        self.codes[ix] = self.encode(fixed);
                        self.tainted.remove(&ix);
                        self.faults.corrected += 1;
                    }
                    SecdedResult::DoubleError => {
                        self.faults.detected += 1;
                        return Err(MemError::DoubleUpset {
                            mem: self.name,
                            addr,
                        });
                    }
                },
            }
        }
        Ok(())
    }

    /// Post-write bookkeeping for words covering `[off, off+len)`:
    /// re-forces stuck bits, re-encodes check bits over the new contents,
    /// and clears taint (a full overwrite replaces corrupt data; a partial
    /// write of a tainted word commits the corruption, which counts as an
    /// escape).
    #[inline]
    fn recode(&mut self, off: usize, len: usize) {
        if self.protection == ProtectionKind::None
            && self.tainted.is_empty()
            && self.stuck.is_empty()
        {
            return;
        }
        self.recode_words(off, len);
    }

    #[inline(never)]
    fn recode_words(&mut self, off: usize, len: usize) {
        for ix in off / 4..=(off + len - 1) / 4 {
            if self.tainted.remove(&ix) && (off > ix * 4 || off + len < ix * 4 + 4) {
                self.faults.escaped += 1;
            }
            // Encode over the data as written — the ECC encoder sits in
            // front of the array — then re-force stuck array bits, so a
            // hard fault stays visible to the checker on the next read.
            if self.protection != ProtectionKind::None {
                self.codes[ix] = self.encode(self.word_at(ix));
            }
            if !self.stuck.is_empty() {
                self.force_stuck_word(ix);
            }
        }
    }

    #[inline]
    fn check(&self, addr: u32, width: Width) -> Result<usize, MemError> {
        let len = width.bytes();
        if !(addr as usize).is_multiple_of(len) {
            return Err(MemError::Misaligned { addr, align: len });
        }
        if !self.contains(addr, len) {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                base: self.base,
                size: self.data.len(),
            });
        }
        Ok((addr - self.base) as usize)
    }

    #[inline]
    fn charge_port(&mut self, port: AccessPort) -> Result<(), MemError> {
        match port {
            AccessPort::Core => {
                if self.core_accesses_this_cycle >= 1 {
                    return Err(MemError::PortConflict { port: self.name });
                }
                self.core_accesses_this_cycle += 1;
                self.core_accesses += 1;
            }
            AccessPort::Prefetcher => {
                if !self.dual_port {
                    return Err(MemError::PortConflict { port: self.name });
                }
                if self.pf_accesses_this_cycle >= 1 {
                    return Err(MemError::PortConflict { port: self.name });
                }
                self.pf_accesses_this_cycle += 1;
                self.pf_accesses += 1;
            }
        }
        Ok(())
    }

    /// Reads an access of the given width through a port, enforcing the
    /// one-access-per-port-per-cycle budget.
    pub fn read(&mut self, port: AccessPort, addr: u32, width: Width) -> Result<u128, MemError> {
        self.charge_port(port)?;
        self.read_unmetered(addr, width)
    }

    /// Writes an access of the given width through a port.
    pub fn write(
        &mut self,
        port: AccessPort,
        addr: u32,
        width: Width,
        value: u128,
    ) -> Result<(), MemError> {
        self.charge_port(port)?;
        self.write_unmetered(addr, width, value)
    }

    /// Reads without charging a port budget. Used for debug inspection and
    /// for loading programs/data before simulation starts.
    pub fn read_unmetered(&mut self, addr: u32, width: Width) -> Result<u128, MemError> {
        let off = self.check(addr, width)?;
        let len = width.bytes();
        self.verify(off, len)?;
        self.bytes_moved += len as u64;
        Ok(width.load_le(&self.data[off..]))
    }

    /// Writes without charging a port budget. Used to initialise memory
    /// contents before simulation starts.
    pub fn write_unmetered(
        &mut self,
        addr: u32,
        width: Width,
        value: u128,
    ) -> Result<(), MemError> {
        let off = self.check(addr, width)?;
        let len = width.bytes();
        width.store_le(&mut self.data[off..], value);
        self.recode(off, len);
        self.bytes_moved += len as u64;
        Ok(())
    }

    /// Checks a lane access of `n` (<= 4) lanes at `addr` and charges one
    /// port access per 16-byte beat it touches. `None` for no lanes
    /// (nothing charged), else the beat count.
    #[inline]
    fn charge_beats(
        &mut self,
        port: AccessPort,
        addr: u32,
        n: usize,
    ) -> Result<Option<u32>, MemError> {
        assert!(n <= 4, "at most one 128-bit beat worth of lanes");
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        if n == 0 {
            return Ok(None);
        }
        let first_beat = addr / 16;
        let last_beat = (addr + 4 * n as u32 - 4) / 16;
        let beats = last_beat - first_beat + 1;
        for _ in 0..beats {
            self.charge_port(port)?;
        }
        Ok(Some(beats))
    }

    /// Writes up to four 32-bit lanes starting at a word-aligned address,
    /// charging one port access per 16-byte beat touched — this models the
    /// byte-enabled partial stores of a 128-bit store unit (used by the
    /// `ST_FLUSH` and copy instructions for result tails). Returns the
    /// number of beats (port accesses) consumed.
    #[inline]
    pub fn write_lanes(
        &mut self,
        port: AccessPort,
        addr: u32,
        lanes: &[u32],
    ) -> Result<u32, MemError> {
        let Some(beats) = self.charge_beats(port, addr, lanes.len())? else {
            return Ok(0);
        };
        let len = 4 * lanes.len();
        if self.contains(addr, len) {
            // Whole span in bounds: write contiguously, recode once —
            // identical protection accounting to the per-lane path, one
            // taint/parity scan instead of one per lane.
            let off = (addr - self.base) as usize;
            for (dst, v) in self.data[off..off + len].chunks_exact_mut(4).zip(lanes) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.recode(off, len);
            self.bytes_moved += len as u64;
            return Ok(beats);
        }
        for (i, v) in lanes.iter().enumerate() {
            self.write_unmetered(addr + 4 * i as u32, Width::W32, *v as u128)?;
        }
        Ok(beats)
    }

    /// Reads up to four 32-bit lanes from a word-aligned address, charging
    /// one port access per beat touched (mirror of [`Self::write_lanes`]).
    pub fn read_lanes(
        &mut self,
        port: AccessPort,
        addr: u32,
        n: usize,
    ) -> Result<(Vec<u32>, u32), MemError> {
        assert!(n <= 4, "at most one 128-bit beat worth of lanes");
        let mut lanes = [0u32; 4];
        let beats = self.read_lanes_into(port, addr, &mut lanes[..n])?;
        Ok((lanes[..n].to_vec(), beats))
    }

    /// Like [`Self::read_lanes`], but reads into a caller-provided buffer
    /// (the lane count is `out.len()`) and returns only the beat count —
    /// the allocation-free form the per-cycle datapath uses.
    #[inline]
    pub fn read_lanes_into(
        &mut self,
        port: AccessPort,
        addr: u32,
        out: &mut [u32],
    ) -> Result<u32, MemError> {
        let Some(beats) = self.charge_beats(port, addr, out.len())? else {
            return Ok(0);
        };
        let len = 4 * out.len();
        if self.contains(addr, len) {
            // Whole span in bounds: verify once, read contiguously —
            // identical protection accounting to the per-lane path, one
            // bounds/taint scan instead of `n`.
            let off = (addr - self.base) as usize;
            self.verify(off, len)?;
            for (lane, src) in out
                .iter_mut()
                .zip(self.data[off..off + len].chunks_exact(4))
            {
                *lane = u32::from_le_bytes([src[0], src[1], src[2], src[3]]);
            }
            self.bytes_moved += len as u64;
            return Ok(beats);
        }
        for (i, lane) in out.iter_mut().enumerate() {
            *lane = self.read_unmetered(addr + 4 * i as u32, Width::W32)? as u32;
        }
        Ok(beats)
    }

    /// Copies a `u32` slice into memory starting at `addr` (setup helper).
    /// The words that fit go in one pass with one recode; a run hanging
    /// off the end fails at its first outside word, as word-by-word
    /// writes would, after writing the ones before it.
    pub fn load_words(&mut self, addr: u32, words: &[u32]) -> Result<(), MemError> {
        if words.is_empty() {
            return Ok(());
        }
        let off = self.check(addr, Width::W32)?;
        let fit = words.len().min((self.data.len() - off) / 4);
        let len = 4 * fit;
        for (dst, w) in self.data[off..off + len].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        self.recode(off, len);
        self.bytes_moved += len as u64;
        if fit < words.len() {
            self.check(addr + len as u32, Width::W32)?;
        }
        Ok(())
    }

    /// Reads `n` consecutive `u32`s starting at `addr` (inspection helper).
    /// A run hanging off the end fails at its first outside word, as
    /// word-by-word reads would, before anything is reserved for it. An
    /// unprotected, untainted array copies the run in one pass; otherwise
    /// every word is verified and accounted on its own.
    pub fn read_words(&mut self, addr: u32, n: usize) -> Result<Vec<u32>, MemError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let off = self.check(addr, Width::W32)?;
        let fit = (self.data.len() - off) / 4;
        if n > fit {
            self.check(addr + 4 * fit as u32, Width::W32)?;
        }
        if self.protection == ProtectionKind::None && self.tainted.is_empty() {
            // Nothing to verify or account per word: one bounded copy.
            self.bytes_moved += 4 * n as u64;
            let words = self.data[off..off + 4 * n].chunks_exact(4);
            return Ok(words
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect());
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.read_unmetered(addr + 4 * i as u32, Width::W32)? as u32);
        }
        Ok(out)
    }

    /// Fills the whole memory with a byte value (test helper).
    pub fn fill(&mut self, byte: u8) {
        for b in &mut self.data {
            *b = byte;
        }
        if self.protection != ProtectionKind::None || !self.stuck.is_empty() {
            self.recode(0, self.data.len());
        }
        self.tainted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> LocalMemory {
        LocalMemory::new("dmem0", 0x6000_0000, 1024)
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = mem();
        m.write_unmetered(0x6000_0010, Width::W32, 0xdead_beef)
            .unwrap();
        assert_eq!(
            m.read_unmetered(0x6000_0010, Width::W32).unwrap(),
            0xdead_beef
        );
    }

    #[test]
    fn little_endian_layout() {
        let mut m = mem();
        m.write_unmetered(0x6000_0000, Width::W32, 0x0403_0201)
            .unwrap();
        assert_eq!(m.read_unmetered(0x6000_0000, Width::W8).unwrap(), 0x01);
        assert_eq!(m.read_unmetered(0x6000_0001, Width::W8).unwrap(), 0x02);
        assert_eq!(m.read_unmetered(0x6000_0003, Width::W8).unwrap(), 0x04);
    }

    #[test]
    fn w128_roundtrip() {
        let mut m = mem();
        let v: u128 = 0x1111_2222_3333_4444_5555_6666_7777_8888;
        m.write_unmetered(0x6000_0020, Width::W128, v).unwrap();
        assert_eq!(m.read_unmetered(0x6000_0020, Width::W128).unwrap(), v);
        // The four 32-bit lanes land in little-endian order.
        assert_eq!(
            m.read_unmetered(0x6000_0020, Width::W32).unwrap(),
            0x7777_8888
        );
        assert_eq!(
            m.read_unmetered(0x6000_002c, Width::W32).unwrap(),
            0x1111_2222
        );
    }

    #[test]
    fn misaligned_access_rejected() {
        let mut m = mem();
        let e = m.read_unmetered(0x6000_0002, Width::W32).unwrap_err();
        assert!(matches!(e, MemError::Misaligned { align: 4, .. }));
        let e = m.read_unmetered(0x6000_0008, Width::W128).unwrap_err();
        assert!(matches!(e, MemError::Misaligned { align: 16, .. }));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = mem();
        let e = m.read_unmetered(0x6000_0400, Width::W32).unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { .. }));
        // Access straddling the end is also rejected.
        let e = m
            .read_unmetered(0x6000_03f0 + 0x10, Width::W128)
            .unwrap_err();
        assert!(matches!(e, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn single_port_budget_enforced() {
        let mut m = mem();
        m.begin_cycle();
        m.read(AccessPort::Core, 0x6000_0000, Width::W32).unwrap();
        let e = m
            .read(AccessPort::Core, 0x6000_0004, Width::W32)
            .unwrap_err();
        assert!(matches!(e, MemError::PortConflict { .. }));
        m.begin_cycle();
        m.read(AccessPort::Core, 0x6000_0004, Width::W32).unwrap();
    }

    #[test]
    fn prefetcher_port_requires_dual_port() {
        let mut m = mem();
        m.begin_cycle();
        let e = m
            .read(AccessPort::Prefetcher, 0x6000_0000, Width::W32)
            .unwrap_err();
        assert!(matches!(e, MemError::PortConflict { .. }));

        let mut d = LocalMemory::new_dual_port("dmem0", 0x6000_0000, 1024);
        d.begin_cycle();
        d.read(AccessPort::Core, 0x6000_0000, Width::W32).unwrap();
        // Both ports may be used in the same cycle — that is the point of
        // the dual-port memories in the paper.
        d.read(AccessPort::Prefetcher, 0x6000_0010, Width::W128)
            .unwrap();
    }

    #[test]
    fn write_lanes_charges_per_beat() {
        let mut m = mem();
        m.begin_cycle();
        // 3 lanes fully inside one beat: one access.
        let beats = m
            .write_lanes(AccessPort::Core, 0x6000_0000, &[1, 2, 3])
            .unwrap();
        assert_eq!(beats, 1);
        assert_eq!(m.read_words(0x6000_0000, 3).unwrap(), vec![1, 2, 3]);
        // Same cycle, second access: port conflict.
        let e = m
            .write_lanes(AccessPort::Core, 0x6000_0040, &[9])
            .unwrap_err();
        assert!(matches!(e, MemError::PortConflict { .. }));
    }

    #[test]
    fn write_lanes_crossing_beats_costs_two() {
        let mut m = mem();
        m.begin_cycle();
        // 4 lanes starting at offset 8 straddle two 16-byte beats, but the
        // port only allows one access per cycle — structural conflict.
        let e = m
            .write_lanes(AccessPort::Core, 0x6000_0008, &[1, 2, 3, 4])
            .unwrap_err();
        assert!(matches!(e, MemError::PortConflict { .. }));

        let mut d = LocalMemory::new_dual_port("x", 0x6000_0000, 1024);
        d.begin_cycle();
        // Within one beat it is fine even at offset 8 (2 lanes).
        let beats = d
            .write_lanes(AccessPort::Core, 0x6000_0008, &[7, 8])
            .unwrap();
        assert_eq!(beats, 1);
    }

    #[test]
    fn read_lanes_roundtrip() {
        let mut m = mem();
        m.load_words(0x6000_0020, &[5, 6, 7, 8]).unwrap();
        m.begin_cycle();
        let (v, beats) = m.read_lanes(AccessPort::Core, 0x6000_0020, 4).unwrap();
        assert_eq!(v, vec![5, 6, 7, 8]);
        assert_eq!(beats, 1);
        m.begin_cycle();
        let (v, _) = m.read_lanes(AccessPort::Core, 0x6000_0028, 2).unwrap();
        assert_eq!(v, vec![7, 8]);
    }

    #[test]
    fn lane_access_rejects_unaligned_and_empty() {
        let mut m = mem();
        m.begin_cycle();
        assert!(matches!(
            m.write_lanes(AccessPort::Core, 0x6000_0002, &[1]),
            Err(MemError::Misaligned { .. })
        ));
        assert_eq!(
            m.write_lanes(AccessPort::Core, 0x6000_0000, &[]).unwrap(),
            0
        );
    }

    #[test]
    fn load_and_read_words_roundtrip() {
        let mut m = mem();
        let ws = [1u32, 2, 3, 0xffff_ffff];
        m.load_words(0x6000_0040, &ws).unwrap();
        assert_eq!(m.read_words(0x6000_0040, 4).unwrap(), ws);
    }

    /// The one-pass copy of a clean array and the per-word path of a
    /// tainted or protected one return the same words and move the same
    /// bytes; only the per-word path accounts the corrupt word.
    #[test]
    fn read_words_bulk_and_per_word_paths_agree() {
        let ws: Vec<u32> = (0..64).map(|i| i * 7 + 1).collect();
        let read = |m: &mut LocalMemory| {
            let got = m.read_words(0x6000_0020, ws.len()).unwrap();
            (got, m.bytes_moved)
        };
        let mut clean = mem();
        clean.load_words(0x6000_0020, &ws).unwrap();
        let (got, moved) = read(&mut clean);
        assert_eq!(got, ws);
        assert_eq!(clean.faults.escaped, 0);

        let mut tainted = mem();
        tainted.load_words(0x6000_0020, &ws).unwrap();
        tainted.inject_bit_flip(0, 0); // word 0 lies outside the run
        assert_eq!(read(&mut tainted), (got.clone(), moved));
        assert_eq!(tainted.faults.escaped, 0);
        tainted.inject_bit_flip(9, 0); // run word 1: 8 ^ 1
        let (corrupt, _) = read(&mut tainted);
        assert_eq!((corrupt[1], tainted.faults.escaped), (9, 1));

        let mut secded = mem();
        secded.set_protection(ProtectionKind::Secded);
        secded.load_words(0x6000_0020, &ws).unwrap();
        assert_eq!(read(&mut secded), (got, moved));
        assert!(secded.faults.is_zero());
    }

    #[test]
    fn load_words_off_the_end_writes_what_fits_then_fails() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Secded);
        let e = m.load_words(0x6000_03f8, &[7, 8, 9]).unwrap_err();
        assert!(matches!(
            e,
            MemError::OutOfBounds {
                addr: 0x6000_0400,
                ..
            }
        ));
        assert_eq!(m.bytes_moved, 8);
        assert_eq!(m.read_words(0x6000_03f8, 2).unwrap(), vec![7, 8]);
        assert!(m.faults.is_zero(), "the bulk write re-encoded every word");
        let e = m.load_words(0x6000_0002, &[1]).unwrap_err();
        assert!(matches!(e, MemError::Misaligned { .. }));
    }

    #[test]
    fn read_words_off_the_end_fails_at_the_first_outside_word() {
        let mut m = mem();
        // A claimed length of 2^31 words must fail before reserving 8 GiB.
        for n in [3, 1 << 31, usize::MAX] {
            let e = m.read_words(0x6000_03f8, n).unwrap_err();
            assert_eq!(
                e,
                MemError::OutOfBounds {
                    addr: 0x6000_0400,
                    len: 4,
                    base: 0x6000_0000,
                    size: 1024,
                },
                "n={n}"
            );
        }
        assert_eq!(m.bytes_moved, 0, "nothing was read");
        assert!(matches!(
            m.read_words(0x6000_0002, 1 << 31),
            Err(MemError::Misaligned { .. })
        ));
        assert!(m.read_words(0x6000_0400, 0).unwrap().is_empty());
    }

    #[test]
    fn secded_corrects_injected_flip_in_place() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Secded);
        m.load_words(0x6000_0000, &[0xcafe_babe]).unwrap();
        m.inject_bit_flip(0, 13);
        assert_eq!(m.tainted_words(), 1);
        // The read returns the *corrected* value and scrubs the array.
        assert_eq!(
            m.read_unmetered(0x6000_0000, Width::W32).unwrap(),
            0xcafe_babe
        );
        assert_eq!(m.faults.corrected, 1);
        assert_eq!(m.tainted_words(), 0);
        // Second read is clean without further correction.
        assert_eq!(
            m.read_unmetered(0x6000_0000, Width::W32).unwrap(),
            0xcafe_babe
        );
        assert_eq!(m.faults.corrected, 1);
    }

    #[test]
    fn secded_detects_double_flip() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Secded);
        m.load_words(0x6000_0000, &[42]).unwrap();
        m.inject_bit_flip(0, 3);
        m.inject_bit_flip(0, 21);
        let e = m.read_unmetered(0x6000_0000, Width::W32).unwrap_err();
        assert!(matches!(e, MemError::DoubleUpset { mem: "dmem0", .. }));
        assert_eq!(m.faults.detected, 1);
    }

    #[test]
    fn parity_detects_single_flip() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Parity);
        m.load_words(0x6000_0010, &[7]).unwrap();
        m.inject_bit_flip(4, 0);
        let e = m.read_unmetered(0x6000_0010, Width::W32).unwrap_err();
        assert!(matches!(
            e,
            MemError::ParityUpset {
                mem: "dmem0",
                addr: 0x6000_0010
            }
        ));
        assert_eq!(m.faults.detected, 1);
    }

    #[test]
    fn parity_misses_even_flips_but_counts_escape() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Parity);
        m.load_words(0x6000_0000, &[0]).unwrap();
        m.inject_bit_flip(0, 1);
        m.inject_bit_flip(0, 2);
        // Two flips cancel in the parity sum: the read succeeds with the
        // corrupted word, and the escape counter says so.
        assert_eq!(m.read_unmetered(0x6000_0000, Width::W32).unwrap(), 0b110);
        assert_eq!(m.faults.escaped, 1);
        assert_eq!(m.faults.detected, 0);
    }

    #[test]
    fn unprotected_reads_of_corrupt_words_escape() {
        let mut m = mem();
        m.load_words(0x6000_0000, &[100]).unwrap();
        m.inject_bit_flip(0, 0);
        assert_eq!(m.read_unmetered(0x6000_0000, Width::W32).unwrap(), 101);
        assert_eq!(m.faults.escaped, 1);
        assert_eq!(m.faults.injected, 1);
    }

    #[test]
    fn overwrite_clears_taint() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Parity);
        m.inject_bit_flip(0, 5);
        m.write_unmetered(0x6000_0000, Width::W32, 99).unwrap();
        assert_eq!(m.tainted_words(), 0);
        assert_eq!(m.read_unmetered(0x6000_0000, Width::W32).unwrap(), 99);
        assert_eq!(m.faults.detected, 0);
        assert_eq!(m.faults.escaped, 0);
    }

    #[test]
    fn wide_reads_verify_every_covered_word() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Secded);
        m.load_words(0x6000_0000, &[1, 2, 3, 4]).unwrap();
        // Corrupt the third word; a 128-bit read must still see 1,2,3,4.
        m.inject_bit_flip(2, 9);
        let v = m.read_unmetered(0x6000_0000, Width::W128).unwrap();
        assert_eq!(v & 0xffff_ffff, 1);
        assert_eq!((v >> 64) & 0xffff_ffff, 3);
        assert_eq!(m.faults.corrected, 1);
    }

    #[test]
    fn stuck_at_survives_rewrites() {
        let mut m = mem();
        m.set_protection(ProtectionKind::Secded);
        m.inject_stuck_at(0, 4, true);
        m.write_unmetered(0x6000_0000, Width::W32, 0).unwrap();
        // The array bit is forced high behind the encoder, so SECDED sees
        // a single-bit error and corrects it on every read.
        assert_eq!(m.read_unmetered(0x6000_0000, Width::W32).unwrap(), 0);
        m.write_unmetered(0x6000_0000, Width::W32, 0x0f).unwrap();
        assert_eq!(m.read_unmetered(0x6000_0000, Width::W32).unwrap(), 0x0f);
        assert!(m.faults.corrected >= 2);
    }

    #[test]
    fn set_protection_encodes_existing_contents() {
        let mut m = mem();
        m.load_words(0x6000_0000, &[0x1234_5678]).unwrap();
        m.set_protection(ProtectionKind::Secded);
        assert_eq!(
            m.read_unmetered(0x6000_0000, Width::W32).unwrap(),
            0x1234_5678
        );
        assert!(m.faults.is_zero());
    }
}
