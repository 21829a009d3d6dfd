//! Decode-once step table: the per-instruction work that depends only on
//! the program, hoisted out of the simulator's step loop.
//!
//! [`crate::program::ProgramBuilder::build`] decodes one [`Step`] per
//! instruction, parallel to the program's code. A step carries its
//! address, its static fall-through address, the load-use interlock's
//! source-register mask and, for FLIX bundles, the slots pre-partitioned
//! into the extension group and the base-slot `ADDI`s. Decoding never
//! looks at the processor configuration, so one decoded (and memoized)
//! program serves every processor model that loads it.

use crate::isa::{Instr, OpArgs, Reg};

/// A FLIX bundle split into its issue groups: extension ops issue first
/// against the pre-cycle register file, then the base-slot `ADDI`s
/// commit.
#[derive(Debug, Clone)]
pub(crate) struct Bundle {
    /// `(opcode, args)` pairs for the extension group, in slot order.
    pub ext_ops: Box<[(u16, OpArgs)]>,
    /// `(dest, src, imm)` of each base-slot `ADDI`, in slot order.
    pub addis: Box<[(Reg, Reg, i16)]>,
}

/// One decoded instruction (or bundle).
#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// Address of the instruction (for traps and extension groups).
    pub pc: u32,
    /// Static fall-through address (`pc + size`). Layout is contiguous,
    /// so a committed PC equal to this selects the next step; anything
    /// else is a taken control transfer or a hardware-loop back-edge.
    pub fall_through: u32,
    /// Bit `i` set when the instruction reads `A[i]` — the operand set
    /// of `Instr::src_regs` for the load-use interlock.
    pub src_mask: u16,
    /// The issue groups of a FLIX bundle; `None` for every other
    /// instruction.
    pub bundle: Option<Bundle>,
}

/// Decodes the instruction laid out at `pc`. Bundle slots must already
/// be FLIX slot eligible (the builder rejects anything else).
pub(crate) fn decode(pc: u32, instr: &Instr) -> Step {
    let bundle = match instr {
        Instr::Flix(slots) => {
            let mut ext_ops = Vec::with_capacity(slots.len());
            let mut addis = Vec::new();
            for s in slots.iter() {
                match s {
                    Instr::Ext(e) => ext_ops.push((e.op, e.args)),
                    Instr::Addi { r, s, imm } => addis.push((*r, *s, *imm)),
                    _ => {}
                }
            }
            Some(Bundle {
                ext_ops: ext_ops.into_boxed_slice(),
                addis: addis.into_boxed_slice(),
            })
        }
        _ => None,
    };
    let mut src_mask = 0u16;
    instr.for_each_src_reg(&mut |r| src_mask |= 1 << (r.idx() & 15));
    Step {
        pc,
        fall_through: pc + instr.size(),
        src_mask,
        bundle,
    }
}

#[cfg(test)]
mod tests {
    use crate::isa::regs::*;
    use crate::isa::{ExtOp, Instr, OpArgs};
    use crate::program::ProgramBuilder;

    fn mask(bits: &[usize]) -> u16 {
        bits.iter().fold(0, |m, b| m | (1 << b))
    }

    #[test]
    fn src_masks_match_src_regs() {
        let mut b = ProgramBuilder::new();
        b.add(A3, A4, A5);
        b.l32i(A2, A3, 0);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.step(0).0.src_mask, mask(&[4, 5]));
        assert_eq!(p.step(1).0.src_mask, mask(&[3]));
        assert_eq!(p.step(2).0.src_mask, 0);
    }

    #[test]
    fn fall_through_addresses_follow_the_layout() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 4);
        b.movi(A3, 0x1234_5678); // wide MOVI: two words
        b.label("loop");
        b.addi(A2, A2, -1);
        b.bnez(A2, "loop");
        b.halt();
        let p = b.build().unwrap();
        for ix in 0..p.len() {
            let (step, instr) = p.step(ix);
            assert_eq!(step.pc, p.addr_of(ix));
            assert_eq!(step.fall_through, step.pc + instr.size());
            if ix + 1 < p.len() {
                assert_eq!(step.fall_through, p.addr_of(ix + 1), "contiguous layout");
            }
        }
        assert_eq!(p.step(1).0.fall_through, p.entry() + 12);
        // A branch's fall-through is the not-taken path, not its target.
        assert_eq!(p.step(3).0.fall_through, p.addr_of(4));
        assert!(p.step(3).0.bundle.is_none());
    }

    #[test]
    fn bundles_predecode_into_ext_then_addi() {
        let mut b = ProgramBuilder::new();
        b.flix([
            Instr::Ext(ExtOp {
                op: 7,
                args: OpArgs::default(),
            }),
            Instr::Addi {
                r: A2,
                s: A2,
                imm: 16,
            },
            Instr::Nop,
        ]);
        b.halt();
        let p = b.build().unwrap();
        let (step, _) = p.step(0);
        let bundle = step.bundle.as_ref().expect("bundle decoded");
        assert_eq!(bundle.ext_ops.len(), 1);
        assert_eq!(bundle.ext_ops[0].0, 7);
        assert_eq!(bundle.addis.as_ref(), &[(A2, A2, 16)]);
        // Fall-through skips the bundle's two words.
        assert_eq!(step.fall_through, p.entry() + 8);
    }
}
