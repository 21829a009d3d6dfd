//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) and reports paper-vs-measured side by side.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table2`] | Table 2 — maximum throughput of the four algorithms on six processor configurations |
//! | [`fig13`] | Figure 13 — intersection throughput vs selectivity |
//! | [`table3`] | Table 3 — synthesis results (area, fMAX, power) |
//! | [`table4`] | Table 4 — relative area per EIS component |
//! | [`table5`] | Table 5 — merge-sort vs `swsort` on an Intel Q9550 |
//! | [`table6`] | Table 6 — intersection vs `swset` on an Intel i7-920 |
//! | [`stream_exp`] | Section 5.2 — constant throughput beyond the local store via the prefetcher |
//! | [`scaling`] | Section 5.4 — shared-nothing multi-core / area-equivalence argument |
//! | [`energy`] | The abstract's headline: energy per element, all configurations + x86 references |
//! | [`resilience`] | Local-store protection (parity/SECDED) cost and a seeded fault campaign |
//! | [`observe`] | Unified tracing/metrics: hotspot tables, Perfetto timeline, folded stacks, benchmark snapshot |
//! | [`bench`](mod@bench) | Section 6's figure sweeps as the regression-gated `BENCH_perf.json` suite |
//! | [`dse`] | Automatic ISA-extension mining: DFG enumeration + synth-priced Pareto search |
//! | [`width_exp`] | Section 2.2 — vector-width area/bandwidth tradeoff |
//! | [`serve`] | Durable query serving under admission control: the regression-gated `BENCH_serve.json` benchmark and its operator view (SLO windows, burn-rate alerts, tail attribution) |
//! | [`pipeline`] | Section 4 — cycles/iteration vs unroll factor, theoretical peak |
//!
//! The `repro` binary drives them: `repro table2`, `repro all`, ...
//! Simulated throughput is reported at the frequency *computed* by the
//! `dbx-synth` timing model; the paper's published frequencies and
//! throughputs are carried alongside for comparison.

pub mod bench;
pub mod dse;
pub mod energy;
pub mod fig13;
pub mod isa_ref;
pub mod observe;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod scaling;
pub mod serve;
pub mod stream_exp;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod width_exp;

/// Deterministic workload seed shared by all experiments.
pub const SEED: u64 = 0x5e7_0b5;

/// Scales an experiment size for quick runs (`scale` in `(0, 1]`).
pub(crate) fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(32)
}
