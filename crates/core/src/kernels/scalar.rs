//! Scalar baseline kernels — the paper's Figures 2 and 3 hand-compiled to
//! the base instruction set.
//!
//! These are the programs the `108Mini` and `DBA_1LSU` configurations run:
//! plain merge-style loops whose dominant cost is the "hardly predictable
//! branch" (Section 2.3) plus, on the cached baseline, memory latency.
//! Register convention used throughout:
//!
//! | reg | role |
//! |---|---|
//! | a2 | `pos_a` pointer |
//! | a3 | `pos_b` pointer |
//! | a4 | end of A |
//! | a5 | end of B |
//! | a6 | output pointer |
//! | a7/a8 | current elements |
//!
//! Each program halts with the output pointer in `a6`; callers derive the
//! result length as `(a6 - c_base) / 4`.

use super::{SetLayout, SetOpTemplate};
use crate::datapath::SetOpKind;
use dbx_cpu::isa::regs::*;
use dbx_cpu::{Program, ProgramBuilder, SimError};

/// Builds the scalar sorted-set program for `kind` over `layout`. The
/// runner gets the same program by patching the kernel's
/// template (`SetOpTemplate`) per call.
pub fn set_op_program(kind: SetOpKind, layout: &SetLayout) -> Result<Program, SimError> {
    Ok(emit(kind, layout.stream_words())?.program)
}

/// Assembles the scalar sorted-set kernel once for every layout (see
/// [`SetOpTemplate`]).
pub(crate) fn set_op_template(kind: SetOpKind) -> Result<SetOpTemplate, SimError> {
    emit(kind, [SetOpTemplate::PLACEHOLDER; 5])
}

/// The one scalar set-op emitter: the kernel with `words`
/// ([`SetLayout::stream_words`] order) in its pointer `movi`s.
pub(crate) fn emit(kind: SetOpKind, words: [u32; 5]) -> Result<SetOpTemplate, SimError> {
    let mut b = ProgramBuilder::new();
    b.label("init");
    // a2 = a_base, a3 = b_base, a4 = a_end, a5 = b_end, a6 = c_base.
    let mut stream_movis = [0; 5];
    for (word, r) in [(0, A2), (2, A3), (1, A4), (3, A5), (4, A6)] {
        stream_movis[word] = b.len();
        b.movi(r, words[word] as i32);
    }

    b.label("core_loop");
    match kind {
        SetOpKind::Intersect => {
            b.bgeu(A2, A4, "done");
            b.bgeu(A3, A5, "done");
            b.l32i(A7, A2, 0);
            b.l32i(A8, A3, 0);
            b.beq(A7, A8, "equal");
            b.bltu(A7, A8, "a_smaller");
            b.addi(A3, A3, 4);
            b.j("core_loop");
            b.label("a_smaller");
            b.addi(A2, A2, 4);
            b.j("core_loop");
            b.label("equal");
            b.s32i(A7, A6, 0);
            b.addi(A6, A6, 4);
            b.addi(A2, A2, 4);
            b.addi(A3, A3, 4);
            b.j("core_loop");
        }
        SetOpKind::Difference => {
            b.bgeu(A2, A4, "done");
            b.bgeu(A3, A5, "rest_a");
            b.l32i(A7, A2, 0);
            b.l32i(A8, A3, 0);
            b.beq(A7, A8, "equal");
            b.bltu(A7, A8, "emit_a");
            b.addi(A3, A3, 4);
            b.j("core_loop");
            b.label("emit_a");
            b.s32i(A7, A6, 0);
            b.addi(A6, A6, 4);
            b.addi(A2, A2, 4);
            b.j("core_loop");
            b.label("equal");
            b.addi(A2, A2, 4);
            b.addi(A3, A3, 4);
            b.j("core_loop");
            b.label("rest_a");
            b.bgeu(A2, A4, "done");
            b.l32i(A7, A2, 0);
            b.s32i(A7, A6, 0);
            b.addi(A2, A2, 4);
            b.addi(A6, A6, 4);
            b.j("rest_a");
        }
        SetOpKind::Union => {
            b.bgeu(A2, A4, "rest_b");
            b.bgeu(A3, A5, "rest_a");
            b.l32i(A7, A2, 0);
            b.l32i(A8, A3, 0);
            b.beq(A7, A8, "equal");
            b.bltu(A7, A8, "emit_a");
            b.s32i(A8, A6, 0);
            b.addi(A6, A6, 4);
            b.addi(A3, A3, 4);
            b.j("core_loop");
            b.label("emit_a");
            b.s32i(A7, A6, 0);
            b.addi(A6, A6, 4);
            b.addi(A2, A2, 4);
            b.j("core_loop");
            b.label("equal");
            b.s32i(A7, A6, 0);
            b.addi(A6, A6, 4);
            b.addi(A2, A2, 4);
            b.addi(A3, A3, 4);
            b.j("core_loop");
            b.label("rest_a");
            b.bgeu(A2, A4, "done");
            b.l32i(A7, A2, 0);
            b.s32i(A7, A6, 0);
            b.addi(A2, A2, 4);
            b.addi(A6, A6, 4);
            b.j("rest_a");
            b.label("rest_b");
            b.bgeu(A3, A5, "done");
            b.l32i(A8, A3, 0);
            b.s32i(A8, A6, 0);
            b.addi(A3, A3, 4);
            b.addi(A6, A6, 4);
            b.j("rest_b");
        }
    }
    b.label("done");
    b.halt();
    Ok(SetOpTemplate {
        program: b.build()?,
        stream_movis,
    })
}

/// Builds the `SUM` reduction over the `n` words at `base`: a hardware
/// loop adds them into `a2` (a3 = pointer, a4 = count, a5 = value).
pub(crate) fn sum_program(base: u32, n: u32) -> Result<Program, SimError> {
    let mut b = ProgramBuilder::new();
    b.movi(A2, 0);
    b.movi(A3, base as i32);
    b.movi(A4, n as i32);
    b.hw_loop(A4, "done");
    b.l32i(A5, A3, 0);
    b.add(A2, A2, A5);
    b.addi(A3, A3, 4);
    b.label("done");
    b.halt();
    b.build()
}

/// Builds the scalar bottom-up merge-sort (Section 2.3, Figure 2's merge
/// inside a width-doubling driver). `src`/`dst` are equally-sized ping-pong
/// buffers of `n` elements; returns the program and whether the sorted
/// result ends up in the `dst` buffer.
pub fn merge_sort_program(src: u32, dst: u32, n: u32) -> Result<(Program, bool), SimError> {
    let mut b = ProgramBuilder::new();
    // a1 = width in bytes, a13 = total bytes, a14 = src, a15 = dst.
    b.label("init");
    b.movi(A14, src as i32);
    b.movi(A15, dst as i32);
    b.movi(A13, (n * 4) as i32);
    b.movi(A1, 4);

    b.label("pass_loop");
    b.bgeu(A1, A13, "done_passes");
    b.movi(A2, 0); // l (byte offset)

    b.label("pair_loop");
    b.bgeu(A2, A13, "pass_end");
    b.add(A3, A2, A1);
    b.minu(A3, A3, A13); // m
    b.add(A4, A3, A1);
    b.minu(A4, A4, A13); // r
    b.add(A5, A14, A2); // i = src + l
    b.add(A6, A14, A3); // j = src + m
    b.add(A7, A15, A2); // out = dst + l
    b.add(A8, A14, A3); // i end
    b.add(A9, A14, A4); // j end

    b.label("merge_loop");
    b.bgeu(A5, A8, "copy_j");
    b.bgeu(A6, A9, "copy_i");
    b.l32i(A10, A5, 0);
    b.l32i(A11, A6, 0);
    b.bltu(A11, A10, "take_j");
    b.s32i(A10, A7, 0);
    b.addi(A5, A5, 4);
    b.addi(A7, A7, 4);
    b.j("merge_loop");
    b.label("take_j");
    b.s32i(A11, A7, 0);
    b.addi(A6, A6, 4);
    b.addi(A7, A7, 4);
    b.j("merge_loop");

    b.label("copy_i");
    b.bgeu(A5, A8, "pair_next");
    b.l32i(A10, A5, 0);
    b.s32i(A10, A7, 0);
    b.addi(A5, A5, 4);
    b.addi(A7, A7, 4);
    b.j("copy_i");

    b.label("copy_j");
    b.bgeu(A6, A9, "pair_next");
    b.l32i(A10, A6, 0);
    b.s32i(A10, A7, 0);
    b.addi(A6, A6, 4);
    b.addi(A7, A7, 4);
    b.j("copy_j");

    b.label("pair_next");
    b.slli(A10, A1, 1);
    b.add(A2, A2, A10);
    b.j("pair_loop");

    b.label("pass_end");
    b.mov(A10, A14);
    b.mov(A14, A15);
    b.mov(A15, A10);
    b.slli(A1, A1, 1);
    b.j("pass_loop");

    b.label("done_passes");
    b.halt();

    // Result buffer parity: one swap per executed pass.
    let mut passes = 0u32;
    let mut w = 4u64;
    while w < (n as u64) * 4 {
        passes += 1;
        w *= 2;
    }
    Ok((b.build()?, passes % 2 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_cpu::{CpuConfig, Processor, DMEM0_BASE};

    fn run_set(kind: SetOpKind, a: &[u32], b: &[u32]) -> Vec<u32> {
        let layout = SetLayout {
            a_base: DMEM0_BASE,
            a_len: a.len() as u32,
            b_base: DMEM0_BASE + 0x2000,
            b_len: b.len() as u32,
            c_base: DMEM0_BASE + 0x4000,
        };
        let prog = set_op_program(kind, &layout).unwrap();
        let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        p.load_program(prog).unwrap();
        p.mem.poke_words(layout.a_base, a).unwrap();
        p.mem.poke_words(layout.b_base, b).unwrap();
        p.run(10_000_000).unwrap();
        let out_len = (p.ar[6] - layout.c_base) / 4;
        p.mem.peek_words(layout.c_base, out_len as usize).unwrap()
    }

    #[test]
    fn scalar_intersect_matches_reference() {
        let a = [1u32, 3, 5, 7, 9, 11];
        let b = [2u32, 3, 4, 7, 10, 11, 12];
        assert_eq!(run_set(SetOpKind::Intersect, &a, &b), vec![3, 7, 11]);
    }

    #[test]
    fn scalar_difference_matches_reference() {
        let a = [1u32, 3, 5, 7, 9, 11];
        let b = [2u32, 3, 4, 7, 10, 12];
        assert_eq!(run_set(SetOpKind::Difference, &a, &b), vec![1, 5, 9, 11]);
    }

    #[test]
    fn scalar_union_matches_reference() {
        let a = [1u32, 3, 5];
        let b = [2u32, 3, 6, 7];
        assert_eq!(run_set(SetOpKind::Union, &a, &b), vec![1, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn scalar_ops_handle_empty_sets() {
        assert_eq!(
            run_set(SetOpKind::Intersect, &[], &[1, 2]),
            Vec::<u32>::new()
        );
        assert_eq!(run_set(SetOpKind::Union, &[], &[1, 2]), vec![1, 2]);
        assert_eq!(run_set(SetOpKind::Difference, &[5], &[]), vec![5]);
    }

    #[test]
    fn scalar_merge_sort_sorts() {
        let n = 64u32;
        let data: Vec<u32> = (0..n)
            .map(|i| i.wrapping_mul(2654435761).wrapping_add(i * 7) ^ 0x5a5a)
            .collect();
        let src = DMEM0_BASE;
        let dst = DMEM0_BASE + 0x4000;
        let (prog, in_dst) = merge_sort_program(src, dst, n).unwrap();
        let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        p.load_program(prog).unwrap();
        p.mem.poke_words(src, &data).unwrap();
        p.run(50_000_000).unwrap();
        let out = p
            .mem
            .peek_words(if in_dst { dst } else { src }, n as usize)
            .unwrap();
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn scalar_merge_sort_single_element_block() {
        // n = 4 exercises a single pass (width 1,2 merges only).
        let data = [4u32, 1, 3, 2];
        let src = DMEM0_BASE;
        let dst = DMEM0_BASE + 0x100;
        let (prog, in_dst) = merge_sort_program(src, dst, 4).unwrap();
        let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
        p.load_program(prog).unwrap();
        p.mem.poke_words(src, &data).unwrap();
        p.run(1_000_000).unwrap();
        let out = p.mem.peek_words(if in_dst { dst } else { src }, 4).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }
}
