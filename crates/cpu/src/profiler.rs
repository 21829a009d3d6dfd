//! Cycle-accurate profiling — step 1 of the paper's tool flow.
//!
//! Figure 4 of the paper: *"The tool flow starts with a cycle-accurate
//! profiling of an application to analyze its runtime behavior. The
//! profiler unveils hotspots in the application's execution."* This module
//! records per-address cycle counts during simulation and aggregates them
//! into labelled regions so that the `tool_flow` example can reproduce the
//! profile → hotspot → extension-development loop.

use crate::program::Program;
use std::collections::{BTreeMap, HashMap};

/// How the processor attributes cycles to addresses during a run.
///
/// `Precise` records every retired instruction — exact, at the price of
/// a map update per step. `Sampled` records only when the cycle clock
/// crosses a sampling threshold, attributing the whole gap since the
/// previous sample to the instruction executing at the crossing; per
/// step it costs one compare. Error bound: the sampled profile's
/// `total_cycles` is within one `period` of the run's true cycle count,
/// and each sample's `execs` counts *sample hits* (∝ cycles spent), not
/// retirements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ProfileMode {
    /// No profiling (the default).
    #[default]
    Off,
    /// Exact per-instruction attribution.
    Precise,
    /// One sample per `period` simulated cycles.
    Sampled {
        /// Sampling period in simulated cycles (clamped to ≥ 1).
        period: u64,
    },
}

/// Per-address execution profile.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// Address → (cycles, executions).
    by_addr: HashMap<u32, (u64, u64)>,
    /// Total cycles recorded.
    pub total_cycles: u64,
}

impl Profile {
    /// Records one executed instruction.
    #[inline]
    pub fn record(&mut self, pc: u32, cycles: u64) {
        let e = self.by_addr.entry(pc).or_insert((0, 0));
        e.0 += cycles;
        e.1 += 1;
        self.total_cycles += cycles;
    }

    /// Cycles attributed to one address.
    pub fn cycles_at(&self, pc: u32) -> u64 {
        self.by_addr.get(&pc).map(|e| e.0).unwrap_or(0)
    }

    /// Execution count of one address.
    pub fn execs_at(&self, pc: u32) -> u64 {
        self.by_addr.get(&pc).map(|e| e.1).unwrap_or(0)
    }

    /// Aggregates the profile into labelled regions of `program` once,
    /// returning a cached, pre-sorted [`ProfileSnapshot`]. Callers that
    /// slice the ranking repeatedly (`top_n`, reports, span emission)
    /// should take one snapshot instead of re-aggregating per call.
    pub fn snapshot(&self, program: &Program) -> ProfileSnapshot {
        let mut by_region: HashMap<&str, (u64, u64)> = HashMap::new();
        for (addr, (cy, ex)) in &self.by_addr {
            let region = program.region_of(*addr).unwrap_or("<unlabelled>");
            let e = by_region.entry(region).or_insert((0, 0));
            e.0 += cy;
            e.1 += ex;
        }
        let mut v: Vec<Hotspot> = by_region
            .into_iter()
            .map(|(name, (cycles, execs))| Hotspot {
                region: name.to_string(),
                cycles,
                execs,
                share: if self.total_cycles == 0 {
                    0.0
                } else {
                    cycles as f64 / self.total_cycles as f64
                },
            })
            .collect();
        // Descending cycles, region name as a deterministic tiebreak.
        v.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then_with(|| a.region.cmp(&b.region))
        });
        let mut addr_execs: Vec<(u32, u64)> = self
            .by_addr
            .iter()
            .map(|(addr, (_, ex))| (*addr, *ex))
            .collect();
        addr_execs.sort_unstable_by_key(|(addr, _)| *addr);
        ProfileSnapshot {
            hotspots: v,
            addr_execs,
            total_cycles: self.total_cycles,
        }
    }

    /// Aggregates the profile into labelled regions of `program` and
    /// returns them sorted by descending cycle share.
    pub fn hotspots(&self, program: &Program) -> Vec<Hotspot> {
        self.snapshot(program).hotspots
    }

    /// Renders a human-readable hotspot report.
    pub fn report(&self, program: &Program) -> String {
        self.snapshot(program).report()
    }
}

/// A cached, pre-sorted aggregation of a [`Profile`] over one program's
/// regions. Building it costs one pass over the per-address map; every
/// accessor afterwards is a slice view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    hotspots: Vec<Hotspot>,
    /// Address → execution (or sample-hit) count, ascending by address.
    addr_execs: Vec<(u32, u64)>,
    /// Total cycles the profile attributed (equals the run's cycle count
    /// when profiling covered the whole run; within one sampling period
    /// of it under [`ProfileMode::Sampled`]).
    pub total_cycles: u64,
}

impl ProfileSnapshot {
    /// All regions, hottest first.
    pub fn hotspots(&self) -> &[Hotspot] {
        &self.hotspots
    }

    /// Address → execution (sample-hit) counts, ascending by address.
    pub fn addr_execs(&self) -> &[(u32, u64)] {
        &self.addr_execs
    }

    /// The snapshot as a [`ProfileMode`]-agnostic weight
    /// map consumable by `dbx_analysis::dse::WeightModel::Profile`:
    /// execution (or sample-hit) counts keyed by address. Blocks whose
    /// addresses are absent default to weight 1 on the consumer side, so
    /// a sparse sampled profile degrades gracefully.
    pub fn weight_map(&self) -> BTreeMap<u32, u64> {
        self.addr_execs.iter().copied().collect()
    }

    /// The `n` hottest regions (fewer if the program has fewer regions).
    pub fn top_n(&self, n: usize) -> &[Hotspot] {
        &self.hotspots[..n.min(self.hotspots.len())]
    }

    /// Renders a human-readable hotspot report.
    pub fn report(&self) -> String {
        let mut out = String::from("region                         cycles        execs   share\n");
        for h in &self.hotspots {
            out.push_str(&format!(
                "{:<28} {:>9} {:>12} {:>6.1}%\n",
                h.region,
                h.cycles,
                h.execs,
                h.share * 100.0
            ));
        }
        out
    }
}

/// One aggregated profile region.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Region label (nearest program label at or before the addresses).
    pub region: String,
    /// Cycles spent in the region.
    pub cycles: u64,
    /// Instructions executed in the region.
    pub execs: u64,
    /// Fraction of total cycles in `[0, 1]`.
    pub share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::isa::regs::*;
    use crate::program::ProgramBuilder;
    use crate::sim::Processor;

    #[test]
    fn record_accumulates() {
        let mut p = Profile::default();
        p.record(0x40, 2);
        p.record(0x40, 3);
        p.record(0x44, 1);
        assert_eq!(p.cycles_at(0x40), 5);
        assert_eq!(p.execs_at(0x40), 2);
        assert_eq!(p.total_cycles, 6);
    }

    #[test]
    fn hotspots_find_the_hot_loop() {
        let mut b = ProgramBuilder::new();
        b.label("init");
        b.movi(A2, 500);
        b.movi(A3, 0);
        b.label("core_loop");
        b.addi(A3, A3, 1);
        b.addi(A2, A2, -1);
        b.bnez(A2, "core_loop");
        b.label("tail");
        b.halt();
        let prog = b.build().unwrap();
        let mut proc = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        proc.enable_profiling();
        proc.load_program(prog).unwrap();
        proc.run(100_000).unwrap();
        let profile = proc.profile().unwrap();
        let hs = profile.hotspots(proc.program().unwrap());
        assert_eq!(hs[0].region, "core_loop");
        assert!(hs[0].share > 0.9, "loop must dominate, got {}", hs[0].share);
        let report = profile.report(proc.program().unwrap());
        assert!(report.contains("core_loop"));
    }

    #[test]
    fn snapshot_caches_the_ranking() {
        let mut b = ProgramBuilder::new();
        b.label("a");
        b.movi(A2, 100);
        b.label("b");
        b.addi(A2, A2, -1);
        b.bnez(A2, "b");
        b.halt();
        let mut proc = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        proc.enable_profiling();
        proc.load_program(b.build().unwrap()).unwrap();
        proc.run(100_000).unwrap();
        let profile = proc.profile().unwrap();
        let snap = profile.snapshot(proc.program().unwrap());
        assert_eq!(
            snap.hotspots(),
            &profile.hotspots(proc.program().unwrap())[..]
        );
        assert_eq!(snap.top_n(1).len(), 1);
        assert_eq!(snap.top_n(1)[0].region, "b");
        assert!(snap.top_n(100).len() >= 2);
        // Shares sum to 1 and total matches the run.
        let total_share: f64 = snap.hotspots().iter().map(|h| h.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        assert_eq!(snap.total_cycles, proc.cycles);
        assert_eq!(snap.report(), profile.report(proc.program().unwrap()));
    }
}
