//! The TIE-like extension framework.
//!
//! Mirrors the Tensilica Instruction Extension mechanism the paper builds
//! on (Section 3.2): an extension contributes *operations* that execute in
//! a single cycle, may read/write the address registers, own private
//! *states* and *register files*, and may drive the load–store units. The
//! base core knows nothing about the DB primitives — `dbx-core` plugs its
//! extension in through this trait, exactly as TIE plugs into the LX4.
//!
//! Bundled execution: when a FLIX bundle issues several extension ops in
//! one cycle, the framework hands them to [`Extension::execute`] *together*
//! so the extension can honour read-old/write-new semantics across slots
//! (e.g. `LD_P` reading the Load states of the previous cycle while `LD`
//! refills them).

use crate::error::SimError;
use crate::isa::OpArgs;
use crate::memsys::MemorySystem;
use crate::stats::EventCounters;

/// Which load–store unit(s) an op is wired to — used for structural checks
/// and by the synthesis model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsuUse {
    /// The op never touches memory.
    None,
    /// The op uses one fixed LSU.
    One(usize),
    /// A fused op that may drive several LSUs in the same cycle.
    Multi,
}

/// Static description of one extension operation.
///
/// Beyond execution (`lsu`, `writes_ar`, `slot_ok`), descriptors carry the
/// op's architectural read/write sets so tools can reason about programs
/// without running them — the static analogue of the TIE compiler's
/// interference analysis. `states_*` name extension-private states
/// (pointer/window/FIFO registers); names are only compared for equality,
/// so each extension picks its own vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct OpDescriptor {
    /// Assembly mnemonic, e.g. `"sop.isect"`.
    pub name: &'static str,
    /// LSU wiring.
    pub lsu: LsuUse,
    /// Whether the `r` field names a destination address register.
    pub writes_ar: bool,
    /// Whether the `s` field names a source address register.
    pub reads_ar: bool,
    /// Extension-private states the op writes.
    pub states_written: &'static [&'static str],
    /// Extension-private states the op reads.
    pub states_read: &'static [&'static str],
    /// Whether the op may be placed in a FLIX slot.
    pub slot_ok: bool,
    /// Issue-to-result latency in cycles (TIE ops are single-cycle by
    /// construction; multi-cycle ops would declare it here). The DSE
    /// subgraph miner uses this to weigh candidate fusions.
    pub latency: u32,
}

/// Execution context handed to extension ops: the architectural state an
/// op may touch besides the extension's own states.
pub struct TieCtx<'a> {
    /// Address register file.
    pub ar: &'a mut [u32; 16],
    /// Memory system (LSU access).
    pub mem: &'a mut MemorySystem,
    /// Event counters (activity for the power model).
    pub counters: &'a mut EventCounters,
}

/// A pluggable instruction-set extension.
pub trait Extension {
    /// Extension name (reports, synthesis).
    fn name(&self) -> &'static str;

    /// Number of operations defined.
    fn op_count(&self) -> u16;

    /// Descriptor of operation `op`.
    fn op_descriptor(&self, op: u16) -> Result<OpDescriptor, SimError>;

    /// Looks an operation up by mnemonic (assembler support).
    fn op_by_name(&self, name: &str) -> Option<u16> {
        (0..self.op_count()).find(|&op| {
            self.op_descriptor(op)
                .map(|d| d.name == name)
                .unwrap_or(false)
        })
    }

    /// Executes the extension ops issued in one cycle with
    /// read-old/write-new semantics across them. Returns any extra stall
    /// cycles (e.g. memory latency reported by the LSUs).
    fn execute(&mut self, ops: &[(u16, OpArgs)], ctx: &mut TieCtx<'_>) -> Result<u32, SimError>;

    /// Executes one extension op issued on its own — the common case, a
    /// plain `Instr::Ext` outside a bundle. Must behave exactly like
    /// [`Self::execute`] on the one-op group; extensions override it only
    /// to skip the group handling.
    fn execute_one(
        &mut self,
        op: u16,
        args: OpArgs,
        ctx: &mut TieCtx<'_>,
    ) -> Result<u32, SimError> {
        self.execute(&[(op, args)], ctx)
    }

    /// Resets all extension states to power-on values.
    fn reset(&mut self);

    /// Fault-injection hook: corrupts one bit of the extension's private
    /// state storage. `selector` deterministically picks which state and
    /// bit — the extension defines the mapping over its own registers.
    /// Extensions without mutable state can keep the default no-op.
    fn inject_state_fault(&mut self, _selector: u64) {}
}

/// A trivial extension used by framework tests: op 0 (`acc.add`) adds
/// `ar[s]` into an internal accumulator state; op 1 (`acc.rd`) moves the
/// accumulator to `ar[r]`; op 2 (`acc.ld32`) loads a word via LSU0 and adds
/// it. Demonstrates states, AR access and LSU access.
#[derive(Debug, Default)]
pub struct AccumulatorExt {
    acc: u32,
}

impl AccumulatorExt {
    /// `acc.add` opcode.
    pub const ADD: u16 = 0;
    /// `acc.rd` opcode.
    pub const RD: u16 = 1;
    /// `acc.ld32` opcode.
    pub const LD32: u16 = 2;
}

impl Extension for AccumulatorExt {
    fn name(&self) -> &'static str {
        "acc"
    }

    fn op_count(&self) -> u16 {
        3
    }

    fn op_descriptor(&self, op: u16) -> Result<OpDescriptor, SimError> {
        Ok(match op {
            Self::ADD => OpDescriptor {
                name: "acc.add",
                lsu: LsuUse::None,
                writes_ar: false,
                reads_ar: true,
                states_written: &["acc"],
                states_read: &["acc"],
                slot_ok: true,
                latency: 1,
            },
            Self::RD => OpDescriptor {
                name: "acc.rd",
                lsu: LsuUse::None,
                writes_ar: true,
                reads_ar: false,
                states_written: &[],
                states_read: &["acc"],
                slot_ok: true,
                latency: 1,
            },
            Self::LD32 => OpDescriptor {
                name: "acc.ld32",
                lsu: LsuUse::One(0),
                writes_ar: false,
                reads_ar: true,
                states_written: &["acc"],
                states_read: &["acc"],
                slot_ok: true,
                latency: 1,
            },
            _ => return Err(SimError::UnknownExtOp { op }),
        })
    }

    fn execute(&mut self, ops: &[(u16, OpArgs)], ctx: &mut TieCtx<'_>) -> Result<u32, SimError> {
        // Read-old/write-new: all ops observe the accumulator value from
        // the start of the cycle; writes commit at the end.
        let old = self.acc;
        let mut new = None;
        let mut extra = 0;
        for (op, args) in ops {
            match *op {
                Self::ADD => {
                    if new
                        .replace(old.wrapping_add(ctx.ar[args.s as usize & 15]))
                        .is_some()
                    {
                        return Err(SimError::WriteConflict { state: "acc" });
                    }
                }
                Self::RD => ctx.ar[args.r as usize & 15] = old,
                Self::LD32 => {
                    let addr = ctx.ar[args.s as usize & 15];
                    let (v, cy) = ctx.mem.load(0, addr, dbx_mem::Width::W32, ctx.counters)?;
                    extra += cy;
                    if new.replace(old.wrapping_add(v as u32)).is_some() {
                        return Err(SimError::WriteConflict { state: "acc" });
                    }
                }
                other => return Err(SimError::UnknownExtOp { op: other }),
            }
            ctx.counters.count_ext_op(*op);
        }
        if let Some(n) = new {
            self.acc = n;
        }
        Ok(extra)
    }

    fn reset(&mut self) {
        self.acc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::program::DMEM0_BASE;

    fn ctx_parts() -> ([u32; 16], MemorySystem, EventCounters) {
        let cfg = CpuConfig::local_store_core(1, 64);
        ([0; 16], MemorySystem::new(&cfg), EventCounters::default())
    }

    #[test]
    fn accumulator_roundtrip() {
        let (mut ar, mut mem, mut ctr) = ctx_parts();
        let mut ext = AccumulatorExt::default();
        ar[3] = 40;
        mem.begin_cycle();
        let mut ctx = TieCtx {
            ar: &mut ar,
            mem: &mut mem,
            counters: &mut ctr,
        };
        ext.execute(
            &[(AccumulatorExt::ADD, OpArgs { r: 0, s: 3, imm: 0 })],
            &mut ctx,
        )
        .unwrap();
        ext.execute(
            &[(AccumulatorExt::RD, OpArgs { r: 5, s: 0, imm: 0 })],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ar[5], 40);
    }

    #[test]
    fn read_old_write_new_within_a_bundle() {
        let (mut ar, mut mem, mut ctr) = ctx_parts();
        let mut ext = AccumulatorExt::default();
        ar[3] = 7;
        mem.begin_cycle();
        {
            let mut ctx = TieCtx {
                ar: &mut ar,
                mem: &mut mem,
                counters: &mut ctr,
            };
            // RD and ADD in the same bundle: RD must observe the OLD value
            // (0), while ADD commits 7 for the next cycle.
            ext.execute(
                &[
                    (AccumulatorExt::RD, OpArgs { r: 6, s: 0, imm: 0 }),
                    (AccumulatorExt::ADD, OpArgs { r: 0, s: 3, imm: 0 }),
                ],
                &mut ctx,
            )
            .unwrap();
            ext.execute(
                &[(AccumulatorExt::RD, OpArgs { r: 7, s: 0, imm: 0 })],
                &mut ctx,
            )
            .unwrap();
        }
        assert_eq!(ar[6], 0, "RD sees the pre-cycle state");
        assert_eq!(ar[7], 7, "ADD committed at end of cycle");
    }

    #[test]
    fn double_write_is_a_structural_hazard() {
        let (mut ar, mut mem, mut ctr) = ctx_parts();
        let mut ext = AccumulatorExt::default();
        mem.begin_cycle();
        let mut ctx = TieCtx {
            ar: &mut ar,
            mem: &mut mem,
            counters: &mut ctr,
        };
        let e = ext
            .execute(
                &[
                    (AccumulatorExt::ADD, OpArgs::default()),
                    (AccumulatorExt::ADD, OpArgs::default()),
                ],
                &mut ctx,
            )
            .unwrap_err();
        assert!(matches!(e, SimError::WriteConflict { .. }));
    }

    #[test]
    fn lsu_access_from_extension() {
        let (mut ar, mut mem, mut ctr) = ctx_parts();
        mem.poke_words(DMEM0_BASE, &[123]).unwrap();
        let mut ext = AccumulatorExt::default();
        ar[2] = DMEM0_BASE;
        mem.begin_cycle();
        let mut ctx = TieCtx {
            ar: &mut ar,
            mem: &mut mem,
            counters: &mut ctr,
        };
        ext.execute(
            &[(AccumulatorExt::LD32, OpArgs { r: 0, s: 2, imm: 0 })],
            &mut ctx,
        )
        .unwrap();
        ext.execute(
            &[(AccumulatorExt::RD, OpArgs { r: 4, s: 0, imm: 0 })],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ar[4], 123);
        assert_eq!(ctr.loads_local, 1);
        assert_eq!(ctr.ext_op_counts[AccumulatorExt::LD32 as usize], 1);
    }

    #[test]
    fn op_by_name_finds_mnemonics() {
        let ext = AccumulatorExt::default();
        assert_eq!(ext.op_by_name("acc.rd"), Some(AccumulatorExt::RD));
        assert_eq!(ext.op_by_name("acc.nope"), None);
        assert!(ext.op_descriptor(ext.op_count()).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let (mut ar, mut mem, mut ctr) = ctx_parts();
        let mut ext = AccumulatorExt::default();
        ar[3] = 9;
        mem.begin_cycle();
        let mut ctx = TieCtx {
            ar: &mut ar,
            mem: &mut mem,
            counters: &mut ctr,
        };
        ext.execute(
            &[(AccumulatorExt::ADD, OpArgs { r: 0, s: 3, imm: 0 })],
            &mut ctx,
        )
        .unwrap();
        ext.reset();
        ext.execute(
            &[(AccumulatorExt::RD, OpArgs { r: 5, s: 0, imm: 0 })],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ar[5], 0);
    }
}
