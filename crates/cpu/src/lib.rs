//! A cycle-accurate simulator of a customizable RISC processor with a
//! TIE-like extension framework.
//!
//! This crate is the Rust stand-in for the Tensilica Xtensa LX4 base
//! processor and its toolchain used by Arnold et al. (SIGMOD 2014):
//!
//! * [`isa`] — a small Xtensa-flavoured base instruction set (address
//!   registers, compare-and-branch, zero-overhead loops, optional
//!   multiply/divide) plus FLIX/VLIW bundles.
//! * [`encode`] — fixed-width binary encoding (32-bit words, 64-bit
//!   bundles) used for instruction-memory images and the assembler.
//! * [`program`] — program layout and a label-resolving builder (the
//!   "compiler with intrinsics" of the paper's tool flow).
//! * [`ext`] — the extension framework: custom single-cycle operations
//!   with private state, AR access and LSU access, executed with
//!   read-old/write-new semantics inside bundles.
//! * [`memsys`] — load–store units wired to local memories, the cached
//!   system-memory path of the baseline, and the data prefetcher hookup.
//! * [`sim`] — the cycle-stepping engine with branch prediction, load-use
//!   interlocks, and memory latencies.
//! * [`profiler`] — cycle-accurate hotspot profiling (tool-flow step 1).
//!
//! The DB-specific instruction set lives in `dbx-core` and plugs in via
//! [`ext::Extension`]; it is the framework's one production user, and
//! [`ext::AccumulatorExt`] is its test implementor. This crate stays
//! application-agnostic.

pub mod config;
pub(crate) mod decode;
pub mod encode;
pub mod error;
pub mod ext;
pub mod isa;
pub mod memsys;
pub mod observe;
pub mod predictor;
pub mod profiler;
pub mod program;
pub mod sim;
pub mod stats;
pub mod trace;

pub use config::CpuConfig;
pub use error::{FaultCause, MachineFault, SimError};
pub use ext::{Extension, LsuUse, OpDescriptor, TieCtx};
pub use isa::{BranchCond, ExtOp, Instr, LsWidth, OpArgs, Reg};
pub use observe::emit_kernel_run;
pub use predictor::PredictorKind;
pub use profiler::{Hotspot, Profile, ProfileMode, ProfileSnapshot};
pub use program::{Program, ProgramBuilder, DMEM0_BASE, DMEM1_BASE, IMEM_BASE, SYSMEM_BASE};
pub use sim::{Processor, StepOutcome};
pub use stats::{EventCounters, RunStats};
pub use trace::{Trace, TraceEntry};
