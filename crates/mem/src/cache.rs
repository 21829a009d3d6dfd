//! Direct-mapped data-cache model.
//!
//! The paper's baseline `108Mini` configuration (a Tensilica Diamond
//! controller) accesses memory through caches (Figure 1), while the DBA
//! variants replace the cache with a local store. The observed effect in the
//! paper (Section 5.2) is that attaching a local store "almost doubles" the
//! throughput of the scalar algorithms because "access to memory is less
//! expensive". This module supplies that cost difference: a write-allocate,
//! write-back, direct-mapped cache whose hit latency is `hit_cycles` and
//! whose miss costs `miss_penalty` additional cycles.
//!
//! The model is a *timing* cache: data always comes from the backing
//! [`SystemMemory`], the cache only decides how many cycles the access costs
//! and tracks dirty lines for write-back traffic accounting.

use crate::sysmem::SystemMemory;
use crate::{MemError, Width};

/// Geometry and timing of a [`DataCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: usize,
    /// Line size in bytes. Must be a power of two and divide the size.
    pub line_bytes: usize,
    /// Cycles for a hit (the load-to-use cost charged by the pipeline).
    pub hit_cycles: u32,
    /// Additional cycles charged on a miss (line fill from system memory).
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// The 8 KiB, 32-byte-line configuration used for the 108Mini baseline.
    pub fn mini108_default() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            hit_cycles: 1,
            miss_penalty: 30,
        }
    }

    fn validate(&self) {
        assert!(
            self.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.line_bytes >= 4 && self.line_bytes <= self.size_bytes);
    }
}

/// Hit/miss statistics of a cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
}

/// A direct-mapped, write-allocate, write-back timing cache in front of
/// [`SystemMemory`].
#[derive(Debug, Clone)]
pub struct DataCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// Hit/miss statistics.
    pub stats: CacheStats,
}

impl DataCache {
    /// Creates a cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let n = cfg.size_bytes / cfg.line_bytes;
        DataCache {
            cfg,
            lines: vec![Line::default(); n],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        // The line size and the line count are powers of two (validated),
        // so the divisions are shifts and the modulo a mask.
        let line = addr as usize >> self.cfg.line_bytes.trailing_zeros();
        let idx = line & (self.lines.len() - 1);
        let tag = (line >> self.lines.len().trailing_zeros()) as u32;
        (idx, tag)
    }

    /// Models the timing of an access, returning the number of cycles it
    /// costs. `is_write` marks the line dirty on a write.
    fn touch(&mut self, addr: u32, is_write: bool) -> u32 {
        let (idx, tag) = self.index_and_tag(addr);
        let line = &mut self.lines[idx];
        if line.valid && line.tag == tag {
            self.stats.hits += 1;
            if is_write {
                line.dirty = true;
            }
            self.cfg.hit_cycles
        } else {
            self.stats.misses += 1;
            let mut cost = self.cfg.hit_cycles + self.cfg.miss_penalty;
            if line.valid && line.dirty {
                self.stats.writebacks += 1;
                // Write-back of the evicted dirty line: half a fill.
                cost += self.cfg.miss_penalty / 2;
            }
            line.valid = true;
            line.dirty = is_write;
            line.tag = tag;
            cost
        }
    }

    /// Reads through the cache. Returns `(value, cycles)`.
    pub fn read(
        &mut self,
        mem: &mut SystemMemory,
        addr: u32,
        width: Width,
    ) -> Result<(u128, u32), MemError> {
        let cycles = self.touch(addr, false);
        let v = mem.read(addr, width)?;
        Ok((v, cycles))
    }

    /// Writes through the cache (write-allocate). Returns the cycle cost.
    pub fn write(
        &mut self,
        mem: &mut SystemMemory,
        addr: u32,
        width: Width,
        value: u128,
    ) -> Result<u32, MemError> {
        let cycles = self.touch(addr, true);
        mem.write(addr, width, value)?;
        Ok(cycles)
    }

    /// Invalidates all lines (and forgets dirtiness — timing model only).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DataCache, SystemMemory) {
        let cfg = CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            hit_cycles: 1,
            miss_penalty: 10,
        };
        (DataCache::new(cfg), SystemMemory::new())
    }

    #[test]
    fn first_touch_misses_then_hits_within_line() {
        let (mut c, mut m) = setup();
        m.write(0x1000, Width::W32, 7).unwrap();
        let (v, cy) = c.read(&mut m, 0x1000, Width::W32).unwrap();
        assert_eq!(v, 7);
        assert_eq!(cy, 11); // 1 hit cycle + 10 miss penalty
        let (_, cy) = c.read(&mut m, 0x1004, Width::W32).unwrap();
        assert_eq!(cy, 1); // same line: hit
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let (mut c, mut m) = setup();
        let mut total = 0;
        for i in 0..64u32 {
            let (_, cy) = c.read(&mut m, 0x2000 + 4 * i, Width::W32).unwrap();
            total += cy;
        }
        // 64 word reads over 32-byte lines: 8 misses, 56 hits.
        assert_eq!(c.stats.misses, 8);
        assert_eq!(c.stats.hits, 56);
        assert_eq!(total, 8 * 11 + 56);
    }

    #[test]
    fn conflicting_lines_evict_each_other() {
        let (mut c, mut m) = setup();
        // 256-byte cache: addresses 256 apart map to the same index.
        c.read(&mut m, 0x0, Width::W32).unwrap();
        c.read(&mut m, 0x100, Width::W32).unwrap();
        c.read(&mut m, 0x0, Width::W32).unwrap();
        assert_eq!(c.stats.misses, 3);
    }

    #[test]
    fn dirty_eviction_costs_writeback() {
        let (mut c, mut m) = setup();
        let cy = c.write(&mut m, 0x0, Width::W32, 1).unwrap();
        assert_eq!(cy, 11);
        // Evict the dirty line with a conflicting read: extra writeback cost.
        let (_, cy) = c.read(&mut m, 0x100, Width::W32).unwrap();
        assert_eq!(cy, 11 + 5);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn miss_rate_reporting() {
        let (mut c, mut m) = setup();
        assert_eq!(c.stats.miss_rate(), 0.0);
        c.read(&mut m, 0x0, Width::W32).unwrap();
        c.read(&mut m, 0x4, Width::W32).unwrap();
        assert!((c.stats.miss_rate() - 0.5).abs() < 1e-12);
    }
}
