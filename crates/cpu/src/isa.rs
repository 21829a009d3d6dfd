//! The base RISC instruction set.
//!
//! A small Xtensa-flavoured 32-bit RISC: sixteen address registers,
//! compare-and-branch (no flags register), zero-overhead hardware loops, and
//! optional multiply/divide units. This models the configurable base
//! processor of the paper (Tensilica LX4 / 108Mini); the DB-specific
//! operations live in a separate [`crate::ext::Extension`] and are issued
//! either standalone ([`Instr::Ext`]) or in 64-bit FLIX/VLIW bundles
//! ([`Instr::Flix`]).
//!
//! Deviation from real Xtensa (documented in DESIGN.md): instructions are
//! encoded in fixed 32-bit words (Xtensa uses 16/24-bit density encoding)
//! and FLIX bundles in 64-bit words as in the paper.

use core::fmt;

/// An address register `a0`..`a15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Constructs a register, panicking if out of range. Only for
    /// builder-time constants; anything handling user input (assembler,
    /// decoder, lint tools) must use [`Reg::try_new`] instead.
    pub fn new(n: u8) -> Reg {
        assert!(n < 16, "address register index {n} out of range");
        Reg(n)
    }

    /// Constructs a register, reporting out-of-range indices as an error
    /// instead of panicking.
    pub fn try_new(n: u8) -> Result<Reg, crate::error::SimError> {
        if n < 16 {
            Ok(Reg(n))
        } else {
            Err(crate::error::SimError::BadProgram(format!(
                "address register index {n} out of range (a0..a15)"
            )))
        }
    }

    /// Register index as usize for file indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Convenience register constants (`A0` is the call0 link register).
pub mod regs {
    use super::Reg;
    /// a0 — link register for `CALL0`/`RET`.
    pub const A0: Reg = Reg(0);
    /// a1 — stack pointer by convention.
    pub const A1: Reg = Reg(1);
    /// a2.
    pub const A2: Reg = Reg(2);
    /// a3.
    pub const A3: Reg = Reg(3);
    /// a4.
    pub const A4: Reg = Reg(4);
    /// a5.
    pub const A5: Reg = Reg(5);
    /// a6.
    pub const A6: Reg = Reg(6);
    /// a7.
    pub const A7: Reg = Reg(7);
    /// a8.
    pub const A8: Reg = Reg(8);
    /// a9.
    pub const A9: Reg = Reg(9);
    /// a10.
    pub const A10: Reg = Reg(10);
    /// a11.
    pub const A11: Reg = Reg(11);
    /// a12.
    pub const A12: Reg = Reg(12);
    /// a13.
    pub const A13: Reg = Reg(13);
    /// a14.
    pub const A14: Reg = Reg(14);
    /// a15.
    pub const A15: Reg = Reg(15);
}

/// Condition of a compare-and-branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `s == t`
    Eq,
    /// `s != t`
    Ne,
    /// signed `s < t`
    Lt,
    /// signed `s >= t`
    Ge,
    /// unsigned `s < t`
    Ltu,
    /// unsigned `s >= t`
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two register values.
    #[inline]
    pub fn eval(self, s: u32, t: u32) -> bool {
        match self {
            BranchCond::Eq => s == t,
            BranchCond::Ne => s != t,
            BranchCond::Lt => (s as i32) < (t as i32),
            BranchCond::Ge => (s as i32) >= (t as i32),
            BranchCond::Ltu => s < t,
            BranchCond::Geu => s >= t,
        }
    }

    /// Assembly mnemonic suffix.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Width selector for scalar loads/stores (base ISA supports 8/16/32 bits;
/// the 128-bit path belongs to the extension's LSU instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LsWidth {
    /// 8-bit, zero-extended on load.
    B8,
    /// 16-bit, zero-extended on load.
    H16,
    /// 32-bit.
    W32,
}

impl LsWidth {
    /// Size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            LsWidth::B8 => 1,
            LsWidth::H16 => 2,
            LsWidth::W32 => 4,
        }
    }
}

/// Raw operand fields of an extension (TIE) operation.
///
/// Like real instruction fields these are uninterpreted; the extension's
/// [`crate::ext::OpDescriptor`] declares which act as sources and destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpArgs {
    /// First register field (often a destination).
    pub r: u8,
    /// Second register field (often a source).
    pub s: u8,
    /// Small signed immediate (-16..=15 in the binary encoding).
    pub imm: i8,
}

/// An extension operation reference: which extension op, with which fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtOp {
    /// Extension-local opcode.
    pub op: u16,
    /// Operand fields.
    pub args: OpArgs,
}

/// One decoded instruction of the base ISA (plus extension entry points).
///
/// Branch/jump targets are absolute byte addresses in instruction memory;
/// the [`crate::program::ProgramBuilder`] resolves symbolic labels to these.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    // ---- ALU ----
    /// `r = imm` (load immediate; models the movi/addmi pair as one word).
    Movi {
        /// Destination.
        r: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// `r = s + t`
    Add {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = (s << 2) + t` — Xtensa `ADDX4`, used for word indexing.
    Addx4 {
        /// Destination.
        r: Reg,
        /// Scaled source.
        s: Reg,
        /// Added source.
        t: Reg,
    },
    /// `r = s + imm`
    Addi {
        /// Destination.
        r: Reg,
        /// Source.
        s: Reg,
        /// Immediate (-32768..=32767).
        imm: i16,
    },
    /// `r = s - t`
    Sub {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = s & t`
    And {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = s | t`
    Or {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = s ^ t`
    Xor {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = s << sa`
    Slli {
        /// Destination.
        r: Reg,
        /// Source.
        s: Reg,
        /// Shift amount 0..=31.
        sa: u8,
    },
    /// `r = s >> sa` (logical)
    Srli {
        /// Destination.
        r: Reg,
        /// Source.
        s: Reg,
        /// Shift amount 0..=31.
        sa: u8,
    },
    /// `r = s >> sa` (arithmetic)
    Srai {
        /// Destination.
        r: Reg,
        /// Source.
        s: Reg,
        /// Shift amount 0..=31.
        sa: u8,
    },
    /// `r = (s >> shift) & ((1 << bits) - 1)` — Xtensa `EXTUI`.
    Extui {
        /// Destination.
        r: Reg,
        /// Source.
        s: Reg,
        /// Right-shift amount 0..=31.
        shift: u8,
        /// Field width 1..=16.
        bits: u8,
    },
    /// `r = low32(s * t)` — requires the multiplier option.
    Mull {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = s / t` unsigned — requires the divider option (108Mini only).
    Quou {
        /// Destination.
        r: Reg,
        /// Dividend.
        s: Reg,
        /// Divisor.
        t: Reg,
    },
    /// `r = s % t` unsigned — requires the divider option (108Mini only).
    Remu {
        /// Destination.
        r: Reg,
        /// Dividend.
        s: Reg,
        /// Divisor.
        t: Reg,
    },
    /// `r = min(s, t)` signed — Xtensa MIN (Miscellaneous option).
    Min {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = max(s, t)` signed.
    Max {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = min(s, t)` unsigned.
    Minu {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },
    /// `r = max(s, t)` unsigned.
    Maxu {
        /// Destination.
        r: Reg,
        /// First source.
        s: Reg,
        /// Second source.
        t: Reg,
    },

    // ---- memory ----
    /// `r = mem[s + off]`, zero-extended for sub-word widths.
    Load {
        /// Access width.
        width: LsWidth,
        /// Destination.
        r: Reg,
        /// Base address register.
        s: Reg,
        /// Unsigned byte offset (scaled encodings are a builder concern).
        off: u16,
    },
    /// `mem[s + off] = t` (low bits for sub-word widths).
    Store {
        /// Access width.
        width: LsWidth,
        /// Value register.
        t: Reg,
        /// Base address register.
        s: Reg,
        /// Unsigned byte offset.
        off: u16,
    },

    // ---- control ----
    /// Compare-and-branch to an absolute target.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compared register.
        s: Reg,
        /// Second compared register.
        t: Reg,
        /// Absolute target byte address.
        target: u32,
    },
    /// Branch if `s == 0`.
    Beqz {
        /// Tested register.
        s: Reg,
        /// Absolute target byte address.
        target: u32,
    },
    /// Branch if `s != 0`.
    Bnez {
        /// Tested register.
        s: Reg,
        /// Absolute target byte address.
        target: u32,
    },
    /// Unconditional jump.
    J {
        /// Absolute target byte address.
        target: u32,
    },
    /// Jump to the address in a register.
    Jx {
        /// Register holding the target address.
        s: Reg,
    },
    /// Call: `a0 = return address; pc = target`.
    Call0 {
        /// Absolute target byte address.
        target: u32,
    },
    /// Return: `pc = a0`.
    Ret,
    /// Zero-overhead hardware loop: execute the body down to (excluding)
    /// `end` exactly `a[s]` times. `a[s]` must be >= 1 (LOOPGTZ-style
    /// skipping is a builder-level branch).
    Loop {
        /// Register with the trip count.
        s: Reg,
        /// Absolute address of the first instruction after the body.
        end: u32,
    },
    /// No operation.
    Nop,
    /// Stop simulation (models a debug BREAK; not counted as work).
    Halt,

    // ---- extension ----
    /// A standalone extension (TIE) operation.
    Ext(ExtOp),
    /// A 64-bit FLIX/VLIW bundle: up to three slot operations issued in the
    /// same cycle with read-old/write-new semantics.
    Flix(Box<[Instr]>),
}

/// True when a `MOVI` immediate does not fit the 22-bit inline field and
/// needs a trailing literal word (the L32R-style encoding).
pub fn movi_is_wide(imm: i32) -> bool {
    !(-(1 << 21)..(1 << 21)).contains(&imm)
}

/// Coarse functional class of an instruction — the granularity at which
/// the DSE subgraph miner classifies candidate fused instructions and the
/// synthesis model prices their datapath resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Immediate materialization (`movi`).
    Const,
    /// Single-level ALU op (add/sub/logic/addi/addx4/extui).
    Alu,
    /// Barrel shift.
    Shift,
    /// Compare-select (min/max families).
    MinMax,
    /// Multiplier.
    Mul,
    /// Iterative divider.
    Div,
    /// Memory read.
    Load,
    /// Memory write.
    Store,
    /// Conditional compare-and-branch (carries a predicate output).
    Branch,
    /// Unconditional transfer (J/JX/CALL0/RET).
    Jump,
    /// Hardware-loop header.
    Loop,
    /// No operation.
    Nop,
    /// Simulation stop.
    Halt,
    /// Extension (TIE) op.
    Ext,
    /// FLIX bundle container.
    Flix,
}

impl Instr {
    /// Encoded size in bytes: 8 for a FLIX bundle or a wide `MOVI`
    /// (instruction word + literal word), 4 otherwise.
    pub fn size(&self) -> u32 {
        match self {
            Instr::Flix(_) => 8,
            Instr::Movi { imm, .. } if movi_is_wide(*imm) => 8,
            _ => 4,
        }
    }

    /// Whether this instruction may appear in a FLIX slot.
    ///
    /// Real FLIX formats restrict each slot to a subset of operations; we
    /// allow NOP, extension ops, and short `ADDI` (for unrolled pointer
    /// bumps). Control transfers stay outside bundles — the paper's core
    /// loops likewise spend a separate cycle on the loop condition.
    pub fn slot_eligible(&self) -> bool {
        match self {
            Instr::Nop | Instr::Ext(_) => true,
            Instr::Addi { imm, .. } => (-128..128).contains(imm),
            _ => false,
        }
    }

    /// Functional class of the instruction (see [`OpClass`]).
    pub fn op_class(&self) -> OpClass {
        match self {
            Instr::Movi { .. } => OpClass::Const,
            Instr::Add { .. }
            | Instr::Addx4 { .. }
            | Instr::Addi { .. }
            | Instr::Sub { .. }
            | Instr::And { .. }
            | Instr::Or { .. }
            | Instr::Xor { .. }
            | Instr::Extui { .. } => OpClass::Alu,
            Instr::Slli { .. } | Instr::Srli { .. } | Instr::Srai { .. } => OpClass::Shift,
            Instr::Min { .. } | Instr::Max { .. } | Instr::Minu { .. } | Instr::Maxu { .. } => {
                OpClass::MinMax
            }
            Instr::Mull { .. } => OpClass::Mul,
            Instr::Quou { .. } | Instr::Remu { .. } => OpClass::Div,
            Instr::Load { .. } => OpClass::Load,
            Instr::Store { .. } => OpClass::Store,
            Instr::Branch { .. } | Instr::Beqz { .. } | Instr::Bnez { .. } => OpClass::Branch,
            Instr::J { .. } | Instr::Jx { .. } | Instr::Call0 { .. } | Instr::Ret => OpClass::Jump,
            Instr::Loop { .. } => OpClass::Loop,
            Instr::Nop => OpClass::Nop,
            Instr::Halt => OpClass::Halt,
            Instr::Ext(_) => OpClass::Ext,
            Instr::Flix(_) => OpClass::Flix,
        }
    }

    /// Assembly mnemonic (the stable short name the DSE report and the
    /// candidate signatures use; the disassembler renders full operand
    /// text separately).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Movi { .. } => "movi",
            Instr::Add { .. } => "add",
            Instr::Addx4 { .. } => "addx4",
            Instr::Addi { .. } => "addi",
            Instr::Sub { .. } => "sub",
            Instr::And { .. } => "and",
            Instr::Or { .. } => "or",
            Instr::Xor { .. } => "xor",
            Instr::Slli { .. } => "slli",
            Instr::Srli { .. } => "srli",
            Instr::Srai { .. } => "srai",
            Instr::Extui { .. } => "extui",
            Instr::Mull { .. } => "mull",
            Instr::Quou { .. } => "quou",
            Instr::Remu { .. } => "remu",
            Instr::Min { .. } => "min",
            Instr::Max { .. } => "max",
            Instr::Minu { .. } => "minu",
            Instr::Maxu { .. } => "maxu",
            Instr::Load { width, .. } => match width {
                LsWidth::B8 => "l8ui",
                LsWidth::H16 => "l16ui",
                LsWidth::W32 => "l32i",
            },
            Instr::Store { width, .. } => match width {
                LsWidth::B8 => "s8i",
                LsWidth::H16 => "s16i",
                LsWidth::W32 => "s32i",
            },
            Instr::Branch { cond, .. } => cond.mnemonic(),
            Instr::Beqz { .. } => "beqz",
            Instr::Bnez { .. } => "bnez",
            Instr::J { .. } => "j",
            Instr::Jx { .. } => "jx",
            Instr::Call0 { .. } => "call0",
            Instr::Ret => "ret",
            Instr::Loop { .. } => "loop",
            Instr::Nop => "nop",
            Instr::Halt => "halt",
            Instr::Ext(_) => "ext",
            Instr::Flix(_) => "flix",
        }
    }

    /// Issue-to-result latency in cycles on the base datapath, matching
    /// the simulator's cost model: the multiplier takes a second cycle,
    /// the iterative divider thirteen, everything else single-cycle
    /// (memory and control add *dynamic* stalls the static model ignores).
    pub fn latency(&self) -> u32 {
        match self.op_class() {
            OpClass::Mul => 2,
            OpClass::Div => 13,
            _ => 1,
        }
    }

    /// Whether the instruction is a control transfer.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Beqz { .. }
                | Instr::Bnez { .. }
                | Instr::J { .. }
                | Instr::Jx { .. }
                | Instr::Call0 { .. }
                | Instr::Ret
        )
    }

    /// Destination register written by this instruction, if any
    /// (used for load-use hazard detection).
    pub fn dest_reg(&self) -> Option<Reg> {
        match *self {
            Instr::Movi { r, .. }
            | Instr::Add { r, .. }
            | Instr::Addx4 { r, .. }
            | Instr::Addi { r, .. }
            | Instr::Sub { r, .. }
            | Instr::And { r, .. }
            | Instr::Or { r, .. }
            | Instr::Xor { r, .. }
            | Instr::Slli { r, .. }
            | Instr::Srli { r, .. }
            | Instr::Srai { r, .. }
            | Instr::Extui { r, .. }
            | Instr::Mull { r, .. }
            | Instr::Quou { r, .. }
            | Instr::Remu { r, .. }
            | Instr::Min { r, .. }
            | Instr::Max { r, .. }
            | Instr::Minu { r, .. }
            | Instr::Maxu { r, .. }
            | Instr::Load { r, .. } => Some(r),
            _ => None,
        }
    }

    /// Registers read by this instruction (up to three).
    pub fn src_regs(&self) -> Vec<Reg> {
        let mut regs = Vec::new();
        self.for_each_src_reg(&mut |r| regs.push(r));
        regs
    }

    /// Calls `f` on each register [`Self::src_regs`] lists, in the same
    /// order, without allocating.
    pub(crate) fn for_each_src_reg(&self, f: &mut impl FnMut(Reg)) {
        match *self {
            Instr::Movi { .. }
            | Instr::J { .. }
            | Instr::Call0 { .. }
            | Instr::Nop
            | Instr::Halt => {}
            Instr::Add { s, t, .. }
            | Instr::Addx4 { s, t, .. }
            | Instr::Sub { s, t, .. }
            | Instr::And { s, t, .. }
            | Instr::Or { s, t, .. }
            | Instr::Xor { s, t, .. }
            | Instr::Mull { s, t, .. }
            | Instr::Quou { s, t, .. }
            | Instr::Remu { s, t, .. }
            | Instr::Min { s, t, .. }
            | Instr::Max { s, t, .. }
            | Instr::Minu { s, t, .. }
            | Instr::Maxu { s, t, .. }
            | Instr::Branch { s, t, .. } => {
                f(s);
                f(t);
            }
            Instr::Addi { s, .. }
            | Instr::Slli { s, .. }
            | Instr::Srli { s, .. }
            | Instr::Srai { s, .. }
            | Instr::Extui { s, .. }
            | Instr::Load { s, .. }
            | Instr::Beqz { s, .. }
            | Instr::Bnez { s, .. }
            | Instr::Jx { s }
            | Instr::Loop { s, .. } => f(s),
            Instr::Store { t, s, .. } => {
                f(t);
                f(s);
            }
            Instr::Ret => f(regs::A0),
            Instr::Ext(ExtOp { args, .. }) => {
                // Conservative: both fields may be read; exact roles come
                // from the extension's OpInfo at execution time.
                f(Reg(args.r & 15));
                f(Reg(args.s & 15));
            }
            Instr::Flix(ref slots) => slots.iter().for_each(|i| i.for_each_src_reg(f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::regs::*;
    use super::*;

    #[test]
    fn branch_conditions_match_semantics() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(!BranchCond::Eq.eval(5, 6));
        assert!(BranchCond::Lt.eval(-1i32 as u32, 0));
        assert!(!BranchCond::Ltu.eval(-1i32 as u32, 0));
        assert!(BranchCond::Geu.eval(-1i32 as u32, 0));
        assert!(BranchCond::Ne.eval(1, 2));
        assert!(BranchCond::Ge.eval(3, 3));
    }

    #[test]
    fn sizes() {
        assert_eq!(Instr::Nop.size(), 4);
        let b = Instr::Flix(vec![Instr::Nop, Instr::Nop].into_boxed_slice());
        assert_eq!(b.size(), 8);
    }

    #[test]
    fn slot_eligibility() {
        assert!(Instr::Nop.slot_eligible());
        assert!(Instr::Addi {
            r: A2,
            s: A2,
            imm: 1
        }
        .slot_eligible());
        assert!(!Instr::Addi {
            r: A2,
            s: A2,
            imm: 1000
        }
        .slot_eligible());
        assert!(!Instr::Add {
            r: A2,
            s: A2,
            t: A3
        }
        .slot_eligible());
        assert!(!Instr::J { target: 0 }.slot_eligible());
        assert!(!Instr::Beqz { s: A2, target: 0 }.slot_eligible());
        assert!(Instr::Ext(ExtOp {
            op: 0,
            args: OpArgs::default()
        })
        .slot_eligible());
    }

    #[test]
    fn dest_and_src_regs() {
        let i = Instr::Add {
            r: A2,
            s: A3,
            t: A4,
        };
        assert_eq!(i.dest_reg(), Some(A2));
        assert_eq!(i.src_regs(), vec![A3, A4]);
        let l = Instr::Load {
            width: LsWidth::W32,
            r: A5,
            s: A6,
            off: 8,
        };
        assert_eq!(l.dest_reg(), Some(A5));
        assert_eq!(l.src_regs(), vec![A6]);
        let st = Instr::Store {
            width: LsWidth::W32,
            t: A5,
            s: A6,
            off: 8,
        };
        assert_eq!(st.dest_reg(), None);
        assert_eq!(st.src_regs(), vec![A5, A6]);
        assert_eq!(Instr::Ret.src_regs(), vec![A0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_range_checked() {
        Reg::new(16);
    }

    #[test]
    fn op_class_and_latency_follow_the_cost_model() {
        let add = Instr::Add {
            r: A2,
            s: A3,
            t: A4,
        };
        assert_eq!(add.op_class(), OpClass::Alu);
        assert_eq!(add.latency(), 1);
        assert_eq!(add.mnemonic(), "add");
        let mul = Instr::Mull {
            r: A2,
            s: A3,
            t: A4,
        };
        assert_eq!(mul.op_class(), OpClass::Mul);
        assert_eq!(mul.latency(), 2);
        let div = Instr::Quou {
            r: A2,
            s: A3,
            t: A4,
        };
        assert_eq!(div.op_class(), OpClass::Div);
        assert_eq!(div.latency(), 13);
        let br = Instr::Branch {
            cond: BranchCond::Ltu,
            s: A2,
            t: A3,
            target: 0,
        };
        assert_eq!(br.op_class(), OpClass::Branch);
        assert_eq!(br.mnemonic(), "bltu");
        assert_eq!(
            Instr::Load {
                width: LsWidth::W32,
                r: A2,
                s: A3,
                off: 0
            }
            .mnemonic(),
            "l32i"
        );
    }
}
