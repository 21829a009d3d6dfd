//! Criterion benches regenerating the paper's tables and figures.
//!
//! Each bench target corresponds to one evaluation artifact:
//!
//! * `table2` — simulator runs of the four algorithms on all six
//!   configurations (the wall-clock cost of regenerating Table 2; the
//!   *simulated* throughputs are printed by `repro table2`).
//! * `fig13` — the selectivity sweep of Figure 13.
//! * `table5_swsort` — the host-side software sorting baselines of
//!   Table 5 (swsort vs scalar merge-sort vs `slice::sort_unstable`).
//! * `table6_swset` — the host-side intersection baselines of Table 6.
//! * `ablations` — design-choice sweeps the paper discusses: loop
//!   unrolling (Section 4), partial loading (Table 2), branch prediction
//!   on the scalar merge loop (Section 2.3), and the baseline's cache
//!   geometry.
//!
//! Beyond the criterion targets, the crate hosts the `repro bench`
//! paper-figure suite: [`suite`] fans the evaluation's sweeps out over
//! the host shard scheduler and renders the result as the keyed-metric
//! snapshot (`dbx_observe::Snapshot`) committed as `BENCH_perf.json`.

pub mod suite;

/// Shared bench workload seed.
pub const SEED: u64 = 0xbe7c4;
