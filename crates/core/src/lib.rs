//! The paper's contribution: a DB-specific instruction-set extension for
//! set-oriented database primitives, plus the kernels and processor
//! configurations that exercise it.
//!
//! * [`datapath`] — the combinational circuits: 4x4 all-to-all comparator,
//!   sorting network, bitonic merge network, retire/emit logic.
//! * [`states`] — the extension's TIE states (Load/Word/Result/Store).
//! * [`ops`] — the instruction set (`LD`, `LD_P`, `SOP`, `ST_S`, `ST`,
//!   fused `STORE_SOP` / `LD_LDP_SHUFFLE`, presort and copy instructions)
//!   as a pluggable [`dbx_cpu::Extension`].
//! * [`kernels`] — programs: EIS sorted-set ops and merge-sort, and the
//!   scalar baselines of the paper's Figures 2 and 3.
//! * [`configs`] — the paper's six processor models.
//! * [`runner`] — one-call APIs that place data, run, and verify.
//! * [`progcache`] — process-wide memoization of assembled kernel
//!   programs keyed by (model, kernel, layout).
//! * [`stream`] — larger-than-local-store processing with the data
//!   prefetcher (double buffering).
//! * [`multicore`] — shared-nothing partitioned execution across many
//!   cores (the paper's area-equivalence argument).
//! * [`sched`] — the host-parallel shard scheduler: runs the independent
//!   sweep points of `repro bench` on a work-stealing pool of host
//!   threads and returns their results in shard order.

pub mod configs;
pub mod datapath;
pub mod kernels;
pub mod multicore;
pub mod ops;
pub mod progcache;
pub mod runner;
pub mod sched;
pub mod states;
pub mod stream;

pub use configs::ProcModel;
pub use datapath::SetOpKind;
pub use multicore::{run_partition, run_partition_with, PartitionRun};
pub use ops::{opcodes, DbExtConfig, DbExtension};
pub use runner::{
    build_processor, build_processor_with, run_set_op, run_set_op_with, run_sort, run_sort_with,
    scalar_fallback, set_preflight, KernelRun, RecoveryPolicy, RunOptions,
};
pub use sched::{run_indexed, HostSched};
pub use states::SENTINEL;
