//! Kernel programs: the database primitives expressed as programs for the
//! simulated processor.
//!
//! * [`scalar`] — the plain C-style algorithms of the paper's Figures 2
//!   and 3, hand-compiled to the base ISA. These run on the `108Mini` and
//!   `DBA_1LSU` baselines. The `SUM` reduction, a base-ISA hardware loop,
//!   lives here too and runs on every model.
//! * [`hwset`] — sorted-set intersection/union/difference using the DB
//!   instruction-set extension (the paper's Figure 11 core loop).
//! * [`hwsort`] — merge-sort using the presort and merge instructions
//!   (the paper's Figure 12 core loop).

pub mod hwset;
pub mod hwsort;
pub mod scalar;

use dbx_cpu::isa::{ExtOp, Instr, OpArgs};
use dbx_cpu::{Program, Reg, SimError};

/// Placement of the two input sets and the result sequence in data memory.
///
/// All base addresses must be 16-byte aligned (one 128-bit beat); lengths
/// are in elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetLayout {
    /// Base address of set A.
    pub a_base: u32,
    /// Elements in set A.
    pub a_len: u32,
    /// Base address of set B.
    pub b_base: u32,
    /// Elements in set B.
    pub b_len: u32,
    /// Base address of the result sequence.
    pub c_base: u32,
}

impl SetLayout {
    /// One-past-the-end address of set A.
    pub fn a_end(&self) -> u32 {
        self.a_base + 4 * self.a_len
    }

    /// One-past-the-end address of set B.
    pub fn b_end(&self) -> u32 {
        self.b_base + 4 * self.b_len
    }

    /// The five stream words a set-op kernel's prologue loads, in the
    /// order `[a_base, a_end, b_base, b_end, c_base]`.
    pub(crate) fn stream_words(&self) -> [u32; 5] {
        [
            self.a_base,
            self.a_end(),
            self.b_base,
            self.b_end(),
            self.c_base,
        ]
    }
}

/// A set-op kernel assembled once for every layout.
///
/// The only layout-dependent part of a set-op kernel is its prologue's
/// five stream-address `movi`s (the paper's Figure 11 INIT). A template
/// is the kernel emitted with a placeholder in those five immediates,
/// plus where they are; `patch` writes one layout's addresses into a
/// copy. Placeholder and real addresses are both wide `movi`s, so the
/// patched program is byte-identical to the kernel emitted for that
/// layout directly.
#[derive(Debug)]
pub(crate) struct SetOpTemplate {
    program: Program,
    /// Instruction indices of the stream `movi`s, in
    /// [`SetLayout::stream_words`] order.
    stream_movis: [usize; 5],
}

impl SetOpTemplate {
    /// The stream word a template is emitted with: a wide `movi`
    /// immediate, as every address in the simulated memories is, and
    /// unmapped on every model, so an unpatched template faults.
    const PLACEHOLDER: u32 = 0x2000_0000;

    /// The kernel for `layout`: a copy of the template with the layout's
    /// stream words in place of the placeholders. A stream word whose
    /// `movi` would be narrow (within 2 MiB of address zero or of the top
    /// of the address space) is [`SimError::BadProgram`].
    pub(crate) fn patch(&self, layout: &SetLayout) -> Result<Program, SimError> {
        let words = layout.stream_words();
        let edits: [(usize, i32); 5] =
            std::array::from_fn(|i| (self.stream_movis[i], words[i] as i32));
        self.program.with_immediates(&edits)
    }
}

/// Placement of the sort buffers (ping/pong) in data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortLayout {
    /// Base address of the input buffer.
    pub src: u32,
    /// Base address of the scratch buffer (same size).
    pub dst: u32,
    /// Elements to sort (must be a positive multiple of 4).
    pub n: u32,
}

/// An extension op with no register operands.
pub(crate) fn e(op: u16) -> Instr {
    Instr::Ext(ExtOp {
        op,
        args: OpArgs::default(),
    })
}

/// An extension op writing to address register `r`.
pub(crate) fn e_r(op: u16, r: Reg) -> Instr {
    Instr::Ext(ExtOp {
        op,
        args: OpArgs {
            r: r.0,
            s: 0,
            imm: 0,
        },
    })
}

/// An extension op reading address register `s`.
pub(crate) fn e_s(op: u16, s: Reg) -> Instr {
    Instr::Ext(ExtOp {
        op,
        args: OpArgs {
            r: 0,
            s: s.0,
            imm: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::ProcModel;
    use crate::datapath::SetOpKind;
    use crate::runner::set_layout;
    use dbx_cpu::encode::encode_program;
    use proptest::prelude::*;

    /// Every observable of a program: code and addresses, labels, size
    /// and the binary image.
    fn same_program(patched: &Program, emitted: &Program) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            patched.iter().collect::<Vec<_>>(),
            emitted.iter().collect::<Vec<_>>()
        );
        let labels = |p: &Program| {
            let mut l: Vec<(String, u32)> = p
                .labels_sorted()
                .into_iter()
                .map(|(n, a)| (n.to_string(), a))
                .collect();
            l.sort();
            l
        };
        prop_assert_eq!(labels(patched), labels(emitted));
        prop_assert_eq!(patched.size_bytes(), emitted.size_bytes());
        prop_assert_eq!(
            encode_program(patched).unwrap(),
            encode_program(emitted).unwrap()
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn a_patched_template_is_the_kernel_emitted_for_its_layout(
            a_len in 0u32..=3000,
            b_len in 0u32..=3000,
            unroll in 1usize..=32,
        ) {
            let models = [
                ProcModel::Mini108,
                ProcModel::Dba1Lsu,
                ProcModel::Dba2Lsu,
                ProcModel::Dba1LsuEis { partial: false },
                ProcModel::Dba1LsuEis { partial: true },
                ProcModel::Dba2LsuEis { partial: false },
                ProcModel::Dba2LsuEis { partial: true },
            ];
            for model in models {
                let Ok(layout) = set_layout(model, a_len, b_len) else {
                    continue; // the sets do not fit this model's memory
                };
                for kind in [SetOpKind::Intersect, SetOpKind::Union, SetOpKind::Difference] {
                    let words = layout.stream_words();
                    let (patched, emitted) = match model.wiring() {
                        Some(w) => (
                            hwset::set_op_template(kind, &w, unroll).unwrap().patch(&layout).unwrap(),
                            hwset::emit(kind, &w, unroll, words).unwrap().program,
                        ),
                        None => (
                            scalar::set_op_template(kind).unwrap().patch(&layout).unwrap(),
                            scalar::emit(kind, words).unwrap().program,
                        ),
                    };
                    same_program(&patched, &emitted)?;
                }
            }
        }
    }

    #[test]
    fn layout_end_addresses() {
        let l = SetLayout {
            a_base: 0x100,
            a_len: 4,
            b_base: 0x200,
            b_len: 8,
            c_base: 0x300,
        };
        assert_eq!(l.a_end(), 0x110);
        assert_eq!(l.b_end(), 0x220);
    }
}
