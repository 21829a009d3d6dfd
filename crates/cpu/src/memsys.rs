//! The memory system: LSUs, local memories, cache, system memory, DMAC.
//!
//! Routes every data access of the core through one of its load–store
//! units. Each LSU is wired to its own local data memory (paper Figure 6:
//! "Each of them is equipped with its own local data memory"), enforces the
//! configured bus width, and serves at most one access per cycle. The
//! 108Mini-style path instead goes through a [`DataCache`] to
//! [`SystemMemory`].

use crate::config::CpuConfig;
use crate::error::SimError;
use crate::program::{DMEM0_BASE, DMEM1_BASE, IMEM_BASE, SYSMEM_BASE};
use crate::stats::EventCounters;
use dbx_mem::{
    AccessPort, BurstBus, DataCache, Dmac, FaultCounters, LocalMemory, MemError, ProtectionKind,
    SystemMemory, Width,
};

/// [`MemorySystem::ports_charged`] bit for the LSU budgets (data memories
/// use the bits below it; a core has at most two).
const LSU_PORTS: u8 = 1 << 7;

/// The full memory system of one processor instance.
///
/// Per-cycle port budgets are reset lazily: every path that charges an LSU
/// or a local-memory port (core load/store, lane load/store, the DMAC
/// tick) records it in `ports_charged`, and [`Self::begin_cycle`] resets
/// only what was charged. That is why the memories are private — a port
/// charged from outside would escape the record.
#[derive(Debug)]
pub struct MemorySystem {
    /// Local instruction memory (program image lives here). Only written
    /// unmetered, so its port budgets are never charged.
    pub(crate) imem: LocalMemory,
    /// Local data memories, one per LSU (empty when there is no local store).
    pub(crate) dmems: Vec<LocalMemory>,
    /// Off-chip system memory.
    pub sysmem: SystemMemory,
    /// Data cache in front of system memory, if configured.
    pub dcache: Option<DataCache>,
    /// The data prefetcher, if configured.
    pub dmac: Option<Dmac>,
    n_lsus: usize,
    max_width: Width,
    sysmem_latency: u32,
    core_sysmem_access: bool,
    lsu_used: [u8; 2],
    /// Ports charged since the last [`Self::begin_cycle`]: bit `i` for
    /// data memory `i`, [`LSU_PORTS`] for the LSU budgets.
    ports_charged: u8,
    /// Stall cycles accrued this step by the SECDED read decoder on
    /// protected local stores; the core drains this once per step.
    pending_ecc_stall: u32,
}

impl MemorySystem {
    /// Builds the memory system described by a validated configuration.
    pub fn new(cfg: &CpuConfig) -> Self {
        let mut dmems = Vec::new();
        if cfg.dmem_kb_per_lsu > 0 {
            let mk = |name, base| {
                let mut m = if cfg.dual_port_dmem {
                    LocalMemory::new_dual_port(name, base, cfg.dmem_kb_per_lsu * 1024)
                } else {
                    LocalMemory::new(name, base, cfg.dmem_kb_per_lsu * 1024)
                };
                if cfg.dmem_protection != ProtectionKind::None {
                    m.set_protection(cfg.dmem_protection);
                }
                m
            };
            dmems.push(mk("dmem0", DMEM0_BASE));
            if cfg.n_lsus == 2 {
                dmems.push(mk("dmem1", DMEM1_BASE));
            }
        }
        MemorySystem {
            imem: LocalMemory::new("imem", IMEM_BASE, cfg.imem_kb * 1024),
            dmems,
            sysmem: SystemMemory::new(),
            dcache: cfg.dcache.map(DataCache::new),
            dmac: cfg.has_prefetcher.then(|| Dmac::new(BurstBus::default())),
            n_lsus: cfg.n_lsus,
            max_width: Width::from_bus_bits(cfg.data_bus_bits),
            sysmem_latency: cfg.sysmem_latency,
            core_sysmem_access: cfg.core_sysmem_access,
            lsu_used: [0; 2],
            ports_charged: 0,
            pending_ecc_stall: 0,
        }
    }

    /// Number of load–store units.
    pub fn n_lsus(&self) -> usize {
        self.n_lsus
    }

    /// Widest access the LSUs support.
    pub fn max_width(&self) -> Width {
        self.max_width
    }

    /// Resets all per-cycle budgets. Called by the simulator each cycle;
    /// a no-op unless a port was charged since the previous call.
    #[inline]
    pub fn begin_cycle(&mut self) {
        let charged = std::mem::take(&mut self.ports_charged);
        if charged == 0 {
            return;
        }
        self.lsu_used = [0; 2];
        let mut dmems = charged & !LSU_PORTS;
        while dmems != 0 {
            self.dmems[dmems.trailing_zeros() as usize].begin_cycle();
            dmems &= dmems - 1;
        }
    }

    /// Data memory `ix`, recorded as charged: the one way the core paths
    /// reach a local-memory port.
    #[inline]
    fn dmem_port(&mut self, ix: usize) -> &mut LocalMemory {
        self.ports_charged |= 1 << ix;
        &mut self.dmems[ix]
    }

    /// Advances the prefetcher by one cycle (concurrently with the core).
    #[inline]
    pub fn tick_prefetcher(&mut self) -> Result<(), SimError> {
        // An idle/halted (or absent) DMAC ticks to a no-op; keep that
        // per-cycle check inline and the transfer machinery out of line.
        match self.dmac.as_ref() {
            Some(dmac) if !dmac.is_idle() => self.tick_prefetcher_active(),
            _ => Ok(()),
        }
    }

    fn tick_prefetcher_active(&mut self) -> Result<(), SimError> {
        let dmac = self.dmac.as_mut().expect("checked by tick_prefetcher");
        self.ports_charged |= (1 << self.dmems.len()) - 1;
        // Marshalling the local-memory port list allocates; this only runs
        // on cycles where the DMAC is actively streaming.
        let mut refs: Vec<&mut LocalMemory> = self.dmems.iter_mut().collect();
        dmac.tick(&mut self.sysmem, &mut refs)?;
        Ok(())
    }

    #[inline]
    fn charge_lsu(&mut self, lsu: usize, width: Width) -> Result<(), SimError> {
        if lsu >= self.n_lsus {
            return Err(SimError::Mem(MemError::PortConflict {
                port: if lsu == 1 {
                    "lsu1 (not present)"
                } else {
                    "bad lsu index"
                },
            }));
        }
        if width > self.max_width {
            return Err(SimError::Mem(MemError::WidthUnsupported {
                requested: width.bytes(),
                bus: self.max_width.bytes(),
            }));
        }
        self.ports_charged |= LSU_PORTS;
        if self.lsu_used[lsu] >= 1 {
            return Err(SimError::Mem(MemError::PortConflict {
                port: if lsu == 0 { "lsu0" } else { "lsu1" },
            }));
        }
        self.lsu_used[lsu] += 1;
        Ok(())
    }

    /// Routes an access to the local memory owning its *start address*;
    /// the memory itself then reports precise misalignment / overrun
    /// errors. (Routing on the full access extent would degrade an access
    /// straddling the end of a region into a generic `Unmapped`, hiding
    /// the real problem.)
    #[inline]
    fn dmem_index(&self, addr: u32) -> Option<usize> {
        self.dmems.iter().position(|m| m.contains(addr, 1))
    }

    /// The data memory a lane access through `lsu` reaches: the LSU's
    /// own memory when it holds `addr`. A memory system has no local
    /// store, one memory (one LSU) or one memory per LSU, so this is the
    /// memory owning `addr` exactly when the access is legal; any other
    /// address is `Unmapped`, whether another LSU's memory holds it or
    /// none does.
    #[inline]
    fn lane_dmem(&self, lsu: usize, addr: u32) -> Result<usize, SimError> {
        match self.dmems.get(lsu) {
            Some(m) if m.contains(addr, 1) => Ok(lsu),
            _ => Err(SimError::Mem(MemError::Unmapped { addr })),
        }
    }

    /// Protection scheme of the local data memories.
    pub fn dmem_protection(&self) -> ProtectionKind {
        self.dmems
            .first()
            .map(|m| m.protection())
            .unwrap_or(ProtectionKind::None)
    }

    /// Drains the ECC decode stalls accrued since the last call (the core
    /// charges them as extra cycles for the current step).
    #[inline]
    pub fn take_ecc_stall(&mut self) -> u32 {
        std::mem::take(&mut self.pending_ecc_stall)
    }

    #[inline]
    fn charge_ecc_read(&mut self, ix: usize, counters: &mut EventCounters) {
        let extra = self.dmems[ix].protection().extra_read_cycles();
        if extra > 0 {
            self.pending_ecc_stall += extra;
            counters.stall_ecc += extra as u64;
        }
    }

    /// Aggregated resilience counters across the local stores and the
    /// DMAC (a failed DMA transfer counts as a detected fault).
    pub fn fault_counters(&self) -> FaultCounters {
        let mut agg = FaultCounters::default();
        for m in &self.dmems {
            agg.merge(&m.faults);
        }
        agg.merge(&self.imem.faults);
        if let Some(d) = &self.dmac {
            agg.detected += d.transfers_failed;
        }
        agg
    }

    /// Loads through `lsu`. Returns `(value, extra_cycles)` where
    /// `extra_cycles` is latency beyond the single-cycle local-store access.
    pub fn load(
        &mut self,
        lsu: usize,
        addr: u32,
        width: Width,
        counters: &mut EventCounters,
    ) -> Result<(u128, u32), SimError> {
        self.charge_lsu(lsu, width)?;
        if let Some(ix) = self.dmem_index(addr) {
            if self.dmems.len() > 1 && ix != lsu {
                return Err(SimError::Mem(MemError::Unmapped { addr }));
            }
            let v = self.dmem_port(ix).read(AccessPort::Core, addr, width)?;
            counters.loads_local += 1;
            counters.bytes_loaded += width.bytes() as u64;
            self.charge_ecc_read(ix, counters);
            return Ok((v, 0));
        }
        if addr >= SYSMEM_BASE && self.core_sysmem_access {
            counters.loads_sys += 1;
            counters.bytes_loaded += width.bytes() as u64;
            let (v, cy) = match self.dcache.as_mut() {
                Some(c) => c.read(&mut self.sysmem, addr, width)?,
                None => (self.sysmem.read(addr, width)?, self.sysmem_latency),
            };
            let extra = cy.saturating_sub(1);
            counters.stall_mem += extra as u64;
            return Ok((v, extra));
        }
        Err(SimError::Mem(MemError::Unmapped { addr }))
    }

    /// Stores through `lsu`. Returns extra latency cycles.
    pub fn store(
        &mut self,
        lsu: usize,
        addr: u32,
        width: Width,
        value: u128,
        counters: &mut EventCounters,
    ) -> Result<u32, SimError> {
        self.charge_lsu(lsu, width)?;
        if let Some(ix) = self.dmem_index(addr) {
            if self.dmems.len() > 1 && ix != lsu {
                return Err(SimError::Mem(MemError::Unmapped { addr }));
            }
            self.dmem_port(ix)
                .write(AccessPort::Core, addr, width, value)?;
            counters.stores_local += 1;
            counters.bytes_stored += width.bytes() as u64;
            return Ok(0);
        }
        if addr >= SYSMEM_BASE && self.core_sysmem_access {
            counters.stores_sys += 1;
            counters.bytes_stored += width.bytes() as u64;
            let cy = match self.dcache.as_mut() {
                Some(c) => c.write(&mut self.sysmem, addr, width, value)?,
                // Store buffering hides most uncached store latency.
                None => 1,
            };
            let extra = cy.saturating_sub(1);
            counters.stall_mem += extra as u64;
            return Ok(extra);
        }
        Err(SimError::Mem(MemError::Unmapped { addr }))
    }

    /// Loads up to four 32-bit lanes from a local memory through `lsu`
    /// (byte-enabled narrow read of a 128-bit unit). The lanes must not
    /// cross a 16-byte beat boundary — that would be two accesses in one
    /// cycle, a structural hazard.
    pub fn load_lanes(
        &mut self,
        lsu: usize,
        addr: u32,
        n: usize,
        counters: &mut EventCounters,
    ) -> Result<Vec<u32>, SimError> {
        let mut lanes = [0u32; 4];
        self.load_lanes_into(lsu, addr, &mut lanes[..n], counters)?;
        Ok(lanes[..n].to_vec())
    }

    /// Like [`Self::load_lanes`], but reads into a caller-provided buffer
    /// (the lane count is `out.len()`) — the allocation-free form the
    /// per-cycle extension datapath uses.
    #[inline]
    pub fn load_lanes_into(
        &mut self,
        lsu: usize,
        addr: u32,
        out: &mut [u32],
        counters: &mut EventCounters,
    ) -> Result<(), SimError> {
        self.charge_lsu(lsu, Width::W32)?;
        let ix = self.lane_dmem(lsu, addr)?;
        self.dmem_port(ix)
            .read_lanes_into(AccessPort::Core, addr, out)?;
        counters.loads_local += 1;
        counters.bytes_loaded += 4 * out.len() as u64;
        self.charge_ecc_read(ix, counters);
        Ok(())
    }

    /// Stores up to four 32-bit lanes into a local memory through `lsu`
    /// (byte-enabled partial 128-bit store). Same beat-boundary rule as
    /// [`Self::load_lanes`].
    #[inline]
    pub fn store_lanes(
        &mut self,
        lsu: usize,
        addr: u32,
        lanes: &[u32],
        counters: &mut EventCounters,
    ) -> Result<(), SimError> {
        self.charge_lsu(lsu, Width::W32)?;
        let ix = self.lane_dmem(lsu, addr)?;
        self.dmem_port(ix)
            .write_lanes(AccessPort::Core, addr, lanes)?;
        counters.stores_local += 1;
        counters.bytes_stored += 4 * lanes.len() as u64;
        Ok(())
    }

    /// Writes data words into whatever memory holds `addr`, without timing
    /// or port accounting (pre-run setup).
    pub fn poke_words(&mut self, addr: u32, words: &[u32]) -> Result<(), SimError> {
        if let Some(ix) = self.dmem_index(addr) {
            self.dmems[ix].load_words(addr, words)?;
        } else if addr >= SYSMEM_BASE {
            self.sysmem.load_words(addr, words)?;
        } else {
            return Err(SimError::Mem(MemError::Unmapped { addr }));
        }
        Ok(())
    }

    /// Reads data words from whatever memory holds `addr` (post-run checks).
    pub fn peek_words(&mut self, addr: u32, n: usize) -> Result<Vec<u32>, SimError> {
        if let Some(ix) = self.dmem_index(addr) {
            Ok(self.dmems[ix].read_words(addr, n)?)
        } else if addr >= SYSMEM_BASE {
            Ok(self.sysmem.read_words(addr, n)?)
        } else {
            Err(SimError::Mem(MemError::Unmapped { addr }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_mem::prefetch::{Direction, FsmStep};
    use dbx_mem::{DmacProgram, TransferDescriptor};

    fn counters() -> EventCounters {
        EventCounters::default()
    }

    #[test]
    fn local_store_access_is_single_cycle() {
        let cfg = CpuConfig::local_store_core(1, 64);
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.begin_cycle();
        m.poke_words(DMEM0_BASE, &[7, 8, 9, 10]).unwrap();
        let (v, extra) = m.load(0, DMEM0_BASE, Width::W128, &mut c).unwrap();
        assert_eq!(extra, 0);
        assert_eq!(v as u32, 7);
        assert_eq!(c.loads_local, 1);
    }

    #[test]
    fn cached_sysmem_access_pays_latency() {
        let cfg = CpuConfig::small_cached_controller();
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.poke_words(SYSMEM_BASE, &[1, 2, 3]).unwrap();
        m.begin_cycle();
        let (_, extra) = m.load(0, SYSMEM_BASE, Width::W32, &mut c).unwrap();
        assert!(extra > 0, "first touch must miss");
        m.begin_cycle();
        let (_, extra) = m.load(0, SYSMEM_BASE + 4, Width::W32, &mut c).unwrap();
        assert_eq!(extra, 0, "same line hits");
        assert_eq!(c.loads_sys, 2);
    }

    #[test]
    fn dba_core_cannot_touch_sysmem() {
        let cfg = CpuConfig::local_store_core(1, 64);
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.begin_cycle();
        let e = m.load(0, SYSMEM_BASE, Width::W32, &mut c).unwrap_err();
        assert!(matches!(e, SimError::Mem(MemError::Unmapped { .. })));
    }

    #[test]
    fn lsu_budget_one_access_per_cycle() {
        let cfg = CpuConfig::local_store_core(1, 64);
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.begin_cycle();
        m.load(0, DMEM0_BASE, Width::W32, &mut c).unwrap();
        let e = m.load(0, DMEM0_BASE + 4, Width::W32, &mut c).unwrap_err();
        assert!(matches!(e, SimError::Mem(MemError::PortConflict { .. })));
    }

    #[test]
    fn two_lsus_access_their_own_memories_concurrently() {
        let cfg = CpuConfig::local_store_core(2, 32);
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.poke_words(DMEM0_BASE, &[11]).unwrap();
        m.poke_words(DMEM1_BASE, &[22]).unwrap();
        m.begin_cycle();
        let (a, _) = m.load(0, DMEM0_BASE, Width::W32, &mut c).unwrap();
        let (b, _) = m.load(1, DMEM1_BASE, Width::W32, &mut c).unwrap();
        assert_eq!((a as u32, b as u32), (11, 22));
        // Cross-wiring is a structural error.
        m.begin_cycle();
        assert!(m.load(0, DMEM1_BASE, Width::W32, &mut c).is_err());
        m.begin_cycle();
        assert!(m.load(1, DMEM0_BASE, Width::W32, &mut c).is_err());
    }

    /// A lane access reaches only its LSU's own memory: another LSU's
    /// memory and unmapped space are both `Unmapped`.
    #[test]
    fn lane_accesses_stay_on_their_own_memory() {
        fn unmapped(r: Result<(), SimError>, at: u32) -> bool {
            matches!(r, Err(SimError::Mem(MemError::Unmapped { addr })) if addr == at)
        }
        let mut c = counters();
        let mut m = MemorySystem::new(&CpuConfig::local_store_core(2, 32));
        m.poke_words(DMEM1_BASE, &[5, 6]).unwrap();
        for (lsu, addr) in [(0, DMEM1_BASE), (1, DMEM0_BASE), (1, SYSMEM_BASE)] {
            m.begin_cycle();
            assert!(unmapped(
                m.load_lanes_into(lsu, addr, &mut [0; 2], &mut c),
                addr
            ));
            m.begin_cycle();
            assert!(unmapped(m.store_lanes(lsu, addr, &[1], &mut c), addr));
        }
        m.begin_cycle();
        let mut out = [0; 2];
        m.load_lanes_into(1, DMEM1_BASE, &mut out, &mut c).unwrap();
        assert_eq!(out, [5, 6]);
        assert_eq!(c.loads_local, 1);

        // No local store at all: every lane address is unmapped.
        let mut m = MemorySystem::new(&CpuConfig::small_cached_controller());
        m.begin_cycle();
        let r = m.load_lanes_into(0, DMEM0_BASE, &mut [0; 1], &mut c);
        assert!(unmapped(r, DMEM0_BASE));
    }

    #[test]
    fn width_enforced_by_bus() {
        let cfg = CpuConfig::small_cached_controller(); // 32-bit bus
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.begin_cycle();
        let e = m.load(0, SYSMEM_BASE, Width::W128, &mut c).unwrap_err();
        assert!(matches!(
            e,
            SimError::Mem(MemError::WidthUnsupported { .. })
        ));
    }

    fn is_port_conflict(r: Result<(), SimError>) -> bool {
        matches!(r, Err(SimError::Mem(MemError::PortConflict { .. })))
    }

    /// The lazy reset stays exact on every charging path: a second access
    /// in one step conflicts, and the first access of the next step — with
    /// only that path charged in between — succeeds.
    #[test]
    fn every_charging_path_resets_its_budget_next_step() {
        type Access = fn(&mut MemorySystem, &mut EventCounters) -> Result<(), SimError>;
        let paths: [(&str, Access); 4] = [
            ("load", |m, c| {
                m.load(0, DMEM0_BASE, Width::W32, c).map(drop)
            }),
            ("store", |m, c| {
                m.store(0, DMEM0_BASE, Width::W32, 5, c).map(drop)
            }),
            ("load_lanes_into", |m, c| {
                m.load_lanes_into(0, DMEM0_BASE, &mut [0; 4], c)
            }),
            ("store_lanes", |m, c| {
                m.store_lanes(0, DMEM0_BASE, &[1, 2], c)
            }),
        ];
        for (name, access) in paths {
            let mut m = MemorySystem::new(&CpuConfig::local_store_core(1, 64));
            let mut c = counters();
            for step in 0..3 {
                m.begin_cycle();
                assert!(access(&mut m, &mut c).is_ok(), "{name}: step {step}");
                assert!(
                    is_port_conflict(access(&mut m, &mut c)),
                    "{name}: step {step}"
                );
            }
        }

        // The DMAC tick charges the prefetcher port of the destination.
        let mut m = MemorySystem::new(&CpuConfig::local_store_core(2, 32));
        m.poke_words(SYSMEM_BASE, &[7; 16]).unwrap();
        let mut dmac = Dmac::new(BurstBus {
            setup_cycles: 0,
            beats_per_cycle: 1,
        });
        dmac.load_program(DmacProgram {
            steps: vec![FsmStep::Transfer { desc: 0 }, FsmStep::Halt],
            descriptors: vec![TransferDescriptor {
                src: SYSMEM_BASE,
                dst: DMEM0_BASE,
                len_bytes: 64,
                burst_bytes: 64,
                dir: Direction::SysToLocal,
            }],
        })
        .unwrap();
        m.dmac = Some(dmac);
        m.begin_cycle();
        m.tick_prefetcher().unwrap(); // starts the transfer
        for step in 0..3 {
            m.begin_cycle();
            assert!(m.tick_prefetcher().is_ok(), "dmac: step {step}");
            assert!(is_port_conflict(m.tick_prefetcher()), "dmac: step {step}");
        }
    }

    #[test]
    fn missing_lsu_rejected() {
        let cfg = CpuConfig::local_store_core(1, 64);
        let mut m = MemorySystem::new(&cfg);
        let mut c = counters();
        m.begin_cycle();
        assert!(m.load(1, DMEM0_BASE, Width::W32, &mut c).is_err());
    }
}
