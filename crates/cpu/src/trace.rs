//! Execution tracing: a bounded ring of recently executed instructions.
//!
//! The cycle-accurate ISS of the paper's tool flow exists to debug and
//! verify the extension before synthesis; a trace of the last N executed
//! instructions (with per-instruction cycle costs) is the tool you reach
//! for when a kernel misbehaves. Tracing is off by default — it costs a
//! few percent of simulation speed when enabled.

use crate::program::Program;
use std::collections::VecDeque;

/// One executed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Address of the instruction.
    pub pc: u32,
    /// Cycle at which it issued (cumulative count before execution).
    pub cycle: u64,
    /// Cycles it consumed (1 + stalls/penalties).
    pub cost: u64,
}

/// A bounded execution trace.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    /// Total instructions recorded over the run (not just retained).
    pub recorded: u64,
}

impl Trace {
    /// Creates a trace retaining the last `capacity` instructions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            recorded: 0,
        }
    }

    /// Records one executed instruction.
    #[inline]
    pub fn record(&mut self, pc: u32, cycle: u64, cost: u64) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry { pc, cycle, cost });
        self.recorded += 1;
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The configured ring depth (maximum retained entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the retained tail with program labels and the `Debug`
    /// form of each instruction.
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let label = program
                .label_at(e.pc)
                .map(|l| format!("{l}:"))
                .unwrap_or_default();
            let text = match program.fetch(e.pc) {
                Ok(i) => format!("{i:?}"),
                Err(_) => "<invalid pc>".to_string(),
            };
            out.push_str(&format!(
                "cyc {:>8} +{} {:<14} {:#010x}  {}\n",
                e.cycle, e.cost, label, e.pc, text
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::isa::regs::*;
    use crate::program::ProgramBuilder;
    use crate::sim::Processor;

    #[test]
    fn ring_buffer_keeps_last_n() {
        let mut t = Trace::new(3);
        for k in 0..10u32 {
            t.record(0x4000_0000 + 4 * k, k as u64, 1);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.capacity(), 3);
        assert_eq!(t.recorded, 10);
        let pcs: Vec<u32> = t.entries().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![0x4000_001c, 0x4000_0020, 0x4000_0024]);
    }

    #[test]
    fn reset_preserves_configured_depth() {
        // Regression test: resetting run state used to rebuild the ring
        // from `len()` — the retained count — so a short first run shrank
        // (or a clamp grew) the configured depth for every rerun.
        let mut b = ProgramBuilder::new();
        b.movi(A2, 2);
        b.label("l");
        b.addi(A2, A2, -1);
        b.bnez(A2, "l");
        b.halt();
        let prog = b.build().unwrap();
        for depth in [4usize, 256] {
            let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
            p.enable_tracing(depth);
            p.load_program(prog.clone()).unwrap();
            p.run(1000).unwrap();
            assert_eq!(p.trace().unwrap().capacity(), depth);
            p.reset_run_state();
            assert_eq!(
                p.trace().unwrap().capacity(),
                depth,
                "depth {depth} lost on reset"
            );
            assert_eq!(p.trace().unwrap().recorded, 0);
            p.run(1000).unwrap();
            assert_eq!(p.trace().unwrap().capacity(), depth);
        }
    }

    #[test]
    fn processor_records_a_trace() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.movi(A2, 3);
        b.label("loop");
        b.addi(A2, A2, -1);
        b.bnez(A2, "loop");
        b.halt();
        let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        p.enable_tracing(64);
        p.load_program(b.build().unwrap()).unwrap();
        p.run(1000).unwrap();
        let trace = p.trace().expect("tracing enabled");
        // movi + 3x(addi+bnez) + halt = 8 instructions.
        assert_eq!(trace.recorded, 8);
        let rendered = trace.render(p.program().unwrap());
        assert!(rendered.contains("loop:"), "{rendered}");
        assert!(rendered.contains("Bnez"), "{rendered}");
        // Cycle column is monotone.
        let cycles: Vec<u64> = trace.entries().map(|e| e.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
    }

    #[test]
    fn branch_penalties_show_in_costs() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 1);
        b.beqz(A2, "skip"); // not taken, predicted not taken at first? cost 1 or more
        b.label("skip");
        b.j("end"); // unconditional: jump penalty
        b.label("end");
        b.halt();
        let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        p.enable_tracing(16);
        p.load_program(b.build().unwrap()).unwrap();
        p.run(1000).unwrap();
        let costs: Vec<u64> = p.trace().unwrap().entries().map(|e| e.cost).collect();
        // The J instruction pays the taken-jump penalty.
        assert!(costs.iter().any(|&c| c > 1), "{costs:?}");
    }
}
