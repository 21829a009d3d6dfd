//! dbasip — a reproduction of *"An Application-Specific Instruction Set for
//! Accelerating Set-Oriented Database Primitives"* (Arnold et al.,
//! SIGMOD 2014) as a pure-Rust cycle-accurate simulation stack.
//!
//! This facade crate re-exports the workspace members under stable names:
//!
//! * [`mem`] — local memories, caches, system memory, the data prefetcher.
//! * [`cpu`] — the customizable RISC processor simulator and its TIE-like
//!   extension framework.
//! * [`dbisa`] — the paper's contribution: the DB-specific instruction-set
//!   extension, kernels, and processor configurations.
//! * [`asm`] — assembler/disassembler for the base ISA and extension.
//! * [`synth`] — structural area/timing/power synthesis model.
//! * [`x86ref`] — optimized software baselines (SIMD-network merge-sort and
//!   set operations) for the paper's Tables 5 and 6.
//! * [`workloads`] — sorted-set generators with exact selectivity control.
//! * [`query`] — a miniature query executor offloading RID-set work to
//!   the simulated ASIP, plus the durable admission-controlled
//!   [`query::QueryService`] front-end.
//! * [`storage`] — crash-recoverable table storage: checksummed WAL,
//!   periodic snapshots, OCC commits, seeded crash campaigns.
//! * [`harness`] — experiment drivers regenerating every table and figure.
//!
//! # Quick start
//!
//! ```
//! use dbasip::dbisa::{run_set_op, ProcModel, SetOpKind};
//! use dbasip::synth::{fmax_mhz, Tech};
//!
//! // Two sorted RID sets from secondary-index lookups.
//! let a: Vec<u32> = (0..1000).map(|i| 2 * i).collect();
//! let b: Vec<u32> = (0..1000).map(|i| 3 * i).collect();
//!
//! // The paper's full configuration: 2 LSUs + the DB instruction set.
//! let model = ProcModel::Dba2LsuEis { partial: true };
//! let run = run_set_op(model, SetOpKind::Intersect, &a, &b).unwrap();
//!
//! // Throughput at the frequency the synthesis timing model computes.
//! let f = fmax_mhz(model, &Tech::tsmc65lp());
//! let meps = run.throughput_meps((a.len() + b.len()) as u64, f);
//! assert!(run.result.iter().all(|x| x % 6 == 0));
//! assert!(meps > 500.0, "EIS-class throughput, got {meps:.0} M elements/s");
//! ```

pub use dbx_analysis as analysis;
pub use dbx_asm as asm;
pub use dbx_core as dbisa;
pub use dbx_cpu as cpu;
pub use dbx_faults as faults;
pub use dbx_harness as harness;
pub use dbx_mem as mem;
pub use dbx_observe as observe;
pub use dbx_query as query;
pub use dbx_storage as storage;
pub use dbx_synth as synth;
pub use dbx_workloads as workloads;
pub use dbx_x86ref as x86ref;
