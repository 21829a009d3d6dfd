//! Sorted-set kernels using the DB instruction-set extension — the
//! paper's Figure 11 core loop.
//!
//! Steady-state schedules (one line = one cycle):
//!
//! * intersection/difference, two LSUs:
//!   `STORE_SOP` ; `LD_LDP_SHUFFLE`
//! * intersection/difference, one LSU (an extra load cycle because both
//!   input streams share LSU0):
//!   `STORE_SOP` ; `LD_LDP_SHUFFLE` ; `LD_ANY`
//! * union adds one `ST` cycle — it can emit up to eight elements per
//!   `SOP` (Table 4 discussion: the union "may write values from both
//!   input sets in one operation").
//!
//! The loop body is unrolled (default 32x as in Section 4) and closed by a
//! single `BNEZ` on the continue flag that the fused `STORE_SOP` writes,
//! giving the paper's ~2.03 cycles per iteration. Epilogues flush the
//! store FIFO and, for union/difference, drain the surviving stream with
//! the 128-bit copy instructions.

use super::{e, e_r, e_s, SetLayout, SetOpTemplate};
use crate::datapath::SetOpKind;
use crate::ops::{opcodes as op, DbExtConfig};
use dbx_cpu::isa::regs::*;

use dbx_cpu::{Program, ProgramBuilder, SimError};

/// Default unroll factor (Section 4 of the paper).
pub const DEFAULT_UNROLL: usize = 32;

/// The state writes of the prologue's stream words, in
/// [`SetLayout::stream_words`] order.
const STREAM_WURS: [u16; 5] = [
    op::WUR_PTR_A,
    op::WUR_END_A,
    op::WUR_PTR_B,
    op::WUR_END_B,
    op::WUR_PTR_C,
];

/// Builds the EIS sorted-set program for `kind` over `layout` with the
/// given LSU `wiring` and loop `unroll` factor. The runner gets the same
/// program by patching the kernel's template (`SetOpTemplate`) per call.
pub fn set_op_program(
    kind: SetOpKind,
    wiring: &DbExtConfig,
    layout: &SetLayout,
    unroll: usize,
) -> Result<Program, SimError> {
    Ok(emit(kind, wiring, unroll, layout.stream_words())?.program)
}

/// Assembles the EIS sorted-set kernel once for every layout (see
/// [`SetOpTemplate`]).
pub(crate) fn set_op_template(
    kind: SetOpKind,
    wiring: &DbExtConfig,
    unroll: usize,
) -> Result<SetOpTemplate, SimError> {
    emit(kind, wiring, unroll, [SetOpTemplate::PLACEHOLDER; 5])
}

/// The one EIS set-op emitter: the kernel with `words`
/// ([`SetLayout::stream_words`] order) in its stream-address `movi`s.
pub(crate) fn emit(
    kind: SetOpKind,
    wiring: &DbExtConfig,
    unroll: usize,
    words: [u32; 5],
) -> Result<SetOpTemplate, SimError> {
    let mut b = ProgramBuilder::new();
    // ---- initialisation (Figure 11: INIT_STATES + initial load) ----
    b.label("init");
    b.inst(e(op::INIT));
    let mut stream_movis = [0; 5];
    for ((ix, word), wur) in stream_movis.iter_mut().zip(words).zip(STREAM_WURS) {
        *ix = b.len();
        b.movi(A2, word as i32);
        b.inst(e_s(wur, A2));
    }
    emit_core_and_epilogue(&mut b, kind, wiring, unroll)?;
    Ok(SetOpTemplate {
        program: b.build()?,
        stream_movis,
    })
}

/// Builds a reusable EIS sorted-set program whose stream pointers come
/// from a five-word parameter block at `param_block` (a mailbox the
/// streaming driver rewrites per chunk): `[ptr_a, end_a, ptr_b, end_b,
/// ptr_c]`. The block must live in DMEM0.
pub fn set_op_program_param(
    kind: SetOpKind,
    wiring: &DbExtConfig,
    param_block: u32,
    unroll: usize,
) -> Result<Program, SimError> {
    let mut b = ProgramBuilder::new();
    b.label("init");
    b.inst(e(op::INIT));
    b.movi(A3, param_block as i32);
    for (offset, wur) in (0..).step_by(4).zip(STREAM_WURS) {
        b.l32i(A2, A3, offset);
        b.inst(e_s(wur, A2));
    }
    emit_core_and_epilogue(&mut b, kind, wiring, unroll)?;
    b.build()
}

fn emit_core_and_epilogue(
    b: &mut ProgramBuilder,
    kind: SetOpKind,
    wiring: &DbExtConfig,
    unroll: usize,
) -> Result<(), SimError> {
    if unroll == 0 {
        return Err(SimError::BadProgram(
            "set-op core loop needs an unroll factor of at least 1".to_string(),
        ));
    }
    let store_sop = match kind {
        SetOpKind::Intersect => op::STORE_SOP_ISECT,
        SetOpKind::Union => op::STORE_SOP_UNION,
        SetOpKind::Difference => op::STORE_SOP_DIFF,
    };
    // Prime the Load states and Word windows. With one LSU each
    // LD_LDP_SHUFFLE loads a single beat, so prime longer; unaligned
    // chunk heads can take one extra beat per stream.
    let prime = if wiring.n_lsus == 2 { 3 } else { 5 };
    for _ in 0..prime {
        b.inst(e(op::LD_LDP_SHUFFLE));
    }

    // ---- unrolled core loop ----
    b.label("core_loop");
    for _ in 0..unroll {
        b.inst(e_r(store_sop, A7));
        if kind == SetOpKind::Union {
            b.inst(e(op::ST)); // extra drain cycle for 8-wide emissions
        }
        b.inst(e(op::LD_LDP_SHUFFLE));
        if wiring.n_lsus == 1 {
            b.inst(e(op::LD_ANY)); // second stream's beat
        }
    }
    b.bnez(A7, "core_loop");

    // ---- epilogue ----
    b.label("epilogue");
    for _ in 0..4 {
        b.inst(e(op::ST_FLUSH));
    }
    match kind {
        SetOpKind::Intersect => {}
        SetOpKind::Difference => {
            // Only a surviving A stream contributes: if B is not done then
            // A is, and nothing remains to copy.
            b.inst(e_r(op::RUR_B_DONE, A8));
            b.beqz(A8, "finish");
            drain_and_copy(b, wiring, false, "a");
        }
        SetOpKind::Union => {
            b.inst(e_r(op::RUR_A_DONE, A8));
            b.bnez(A8, "drain_b");
            drain_and_copy(b, wiring, false, "a");
            b.j("finish");
            b.label("drain_b");
            drain_and_copy(b, wiring, true, "b");
        }
    }
    b.label("finish");
    b.inst(e_r(op::RUR_OUT_CNT, A2));
    b.halt();
    Ok(())
}

/// Emits the epilogue that drains window/load buffers of one stream into
/// the store path and copies the stream's memory remainder with the
/// 128-bit copy instructions.
fn drain_and_copy(b: &mut ProgramBuilder, wiring: &DbExtConfig, b_side: bool, tag: &str) {
    b.inst(e(if b_side { op::DRAIN_B } else { op::DRAIN_A }));
    for _ in 0..4 {
        b.inst(e(op::ST_FLUSH));
    }
    let cpy_ld = if b_side { op::CPY_LD_B } else { op::CPY_LD_A };
    let loop_label = format!("copy_{tag}");
    b.label(&loop_label);
    // With two LSUs, copying stream A can pipeline load (LSU0) and store
    // (LSU1) in one bundle; stream B shares LSU1 with the store path and
    // the single-LSU wiring shares LSU0, so those go sequentially.
    if wiring.n_lsus == 2 && !b_side {
        b.flix([e(cpy_ld), e(op::CPY_ST)]);
    } else {
        b.inst(e(cpy_ld));
        b.inst(e(op::CPY_ST));
    }
    b.inst(e_r(op::RUR_CPY_PEND, A8));
    b.bnez(A8, &loop_label);
}

/// Approximate steady-state cycles per core-loop iteration for a schedule
/// (used by reports and the pipeline experiment; measured numbers come
/// from the simulator).
pub fn cycles_per_iteration(kind: SetOpKind, wiring: &DbExtConfig, unroll: usize) -> f64 {
    let mut per_iter = 2.0; // STORE_SOP + LD_LDP_SHUFFLE
    if kind == SetOpKind::Union {
        per_iter += 1.0;
    }
    if wiring.n_lsus == 1 {
        per_iter += 1.0;
    }
    per_iter + 1.0 / unroll as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::DbExtension;
    use dbx_cpu::{CpuConfig, Processor, DMEM0_BASE, DMEM1_BASE};

    fn reference(kind: SetOpKind, a: &[u32], b: &[u32]) -> Vec<u32> {
        let bs: std::collections::BTreeSet<u32> = b.iter().copied().collect();
        match kind {
            SetOpKind::Intersect => a.iter().copied().filter(|x| bs.contains(x)).collect(),
            SetOpKind::Difference => a.iter().copied().filter(|x| !bs.contains(x)).collect(),
            SetOpKind::Union => {
                let mut s: std::collections::BTreeSet<u32> = a.iter().copied().collect();
                s.extend(b.iter().copied());
                s.into_iter().collect()
            }
        }
    }

    fn run_eis(
        kind: SetOpKind,
        wiring: DbExtConfig,
        a: &[u32],
        b: &[u32],
        unroll: usize,
    ) -> (Vec<u32>, u64) {
        let (cfg, layout) = if wiring.n_lsus == 2 {
            (
                CpuConfig::local_store_core(2, 32),
                SetLayout {
                    a_base: DMEM0_BASE,
                    a_len: a.len() as u32,
                    b_base: DMEM1_BASE,
                    b_len: b.len() as u32,
                    c_base: DMEM1_BASE + 0x3000,
                },
            )
        } else {
            (
                CpuConfig::local_store_core(1, 64),
                SetLayout {
                    a_base: DMEM0_BASE,
                    a_len: a.len() as u32,
                    b_base: DMEM0_BASE + 0x3000,
                    b_len: b.len() as u32,
                    c_base: DMEM0_BASE + 0x6000,
                },
            )
        };
        let prog = set_op_program(kind, &wiring, &layout, unroll).unwrap();
        let mut p = Processor::new(cfg).unwrap();
        p.attach_extension(Box::new(DbExtension::new(wiring)));
        p.load_program(prog).unwrap();
        p.mem.poke_words(layout.a_base, a).unwrap();
        p.mem.poke_words(layout.b_base, b).unwrap();
        let stats = p.run(100_000_000).unwrap();
        let n = p.ar[2] as usize;
        (p.mem.peek_words(layout.c_base, n).unwrap(), stats.cycles)
    }

    fn strict_set(seed: u32, len: usize, stride: u32) -> Vec<u32> {
        let mut v = Vec::with_capacity(len);
        let mut x = seed;
        for i in 0..len {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            v.push(seed + i as u32 * stride + (x % stride.max(1)));
        }
        v.dedup();
        v
    }

    #[test]
    fn eis_all_kinds_all_wirings_match_reference() {
        let a = strict_set(10, 100, 7);
        let b = strict_set(3, 80, 9);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            for wiring in [
                DbExtConfig::one_lsu(true),
                DbExtConfig::one_lsu(false),
                DbExtConfig::two_lsu(true),
                DbExtConfig::two_lsu(false),
            ] {
                let (got, _) = run_eis(kind, wiring, &a, &b, 8);
                assert_eq!(
                    got,
                    reference(kind, &a, &b),
                    "kind={kind:?} lsus={} partial={}",
                    wiring.n_lsus,
                    wiring.partial_loading
                );
            }
        }
    }

    #[test]
    fn eis_identical_sets() {
        let a = strict_set(5, 64, 3);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let (got, _) = run_eis(kind, DbExtConfig::two_lsu(true), &a, &a, 4);
            assert_eq!(got, reference(kind, &a, &a), "{kind:?}");
        }
    }

    #[test]
    fn eis_disjoint_sets() {
        let a: Vec<u32> = (0..50).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..50).map(|i| 2 * i + 1).collect();
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let (got, _) = run_eis(kind, DbExtConfig::one_lsu(true), &a, &b, 8);
            assert_eq!(got, reference(kind, &a, &b), "{kind:?}");
        }
    }

    #[test]
    fn eis_skewed_lengths_and_tails() {
        // Non-multiple-of-4 lengths exercise the sentinel tail handling.
        let a = strict_set(1, 37, 5);
        let b = strict_set(2, 101, 3);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            for wiring in [DbExtConfig::one_lsu(true), DbExtConfig::two_lsu(false)] {
                let (got, _) = run_eis(kind, wiring, &a, &b, 8);
                assert_eq!(got, reference(kind, &a, &b), "{kind:?}");
            }
        }
    }

    #[test]
    fn eis_one_element_sets() {
        let (got, _) = run_eis(
            SetOpKind::Intersect,
            DbExtConfig::two_lsu(true),
            &[5],
            &[5],
            2,
        );
        assert_eq!(got, vec![5]);
        let (got, _) = run_eis(SetOpKind::Union, DbExtConfig::one_lsu(false), &[5], &[9], 2);
        assert_eq!(got, vec![5, 9]);
    }

    #[test]
    fn partial_loading_is_faster_at_midrange_selectivity() {
        // ~50% overlap, as in the paper's default setting.
        let a: Vec<u32> = (0..512).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..512)
            .map(|i| if i % 2 == 0 { 2 * i } else { 2 * i + 1 })
            .collect();
        let (r1, cy_partial) =
            run_eis(SetOpKind::Intersect, DbExtConfig::two_lsu(true), &a, &b, 32);
        let (r2, cy_full) = run_eis(
            SetOpKind::Intersect,
            DbExtConfig::two_lsu(false),
            &a,
            &b,
            32,
        );
        assert_eq!(r1, r2);
        assert!(
            cy_partial < cy_full,
            "partial loading should win: {cy_partial} vs {cy_full}"
        );
    }

    #[test]
    fn two_lsus_beat_one() {
        let a: Vec<u32> = (0..1000).map(|i| 3 * i).collect();
        let b: Vec<u32> = (0..1000).map(|i| 3 * i + (i % 3)).collect();
        let (r1, cy2) = run_eis(SetOpKind::Intersect, DbExtConfig::two_lsu(true), &a, &b, 32);
        let (r2, cy1) = run_eis(SetOpKind::Intersect, DbExtConfig::one_lsu(true), &a, &b, 32);
        assert_eq!(r1, r2);
        assert!(cy2 < cy1, "2 LSUs should win: {cy2} vs {cy1}");
    }

    #[test]
    fn single_beat_load_buffer_bubbles() {
        // The paper's Figure 8 draws one beat of Load states; partial
        // loading then starves the Word windows every few iterations.
        // This is the measured justification for the two-beat deviation
        // documented in DESIGN.md.
        let a = strict_set(10, 2000, 7);
        let b = strict_set(3, 2000, 9);
        let two = DbExtConfig::two_lsu(true);
        let one_beat = DbExtConfig::two_lsu(true).with_load_buf_cap(4);
        let (r8, cy8) = run_eis(SetOpKind::Intersect, two, &a, &b, 32);
        let (r4, cy4) = run_eis(SetOpKind::Intersect, one_beat, &a, &b, 32);
        assert_eq!(r8, r4, "depth must not change the result");
        assert!(
            cy4 as f64 > 1.1 * cy8 as f64,
            "one-beat buffer should bubble: {cy4} vs {cy8}"
        );
    }

    #[test]
    fn steady_state_cycle_budget_matches_schedule() {
        // Intersection at 100% selectivity consumes 8 elements per
        // iteration; the 2-LSU schedule spends ~2.03 cycles per iteration
        // at 32x unroll, so cycles/element ~ 0.254.
        let a: Vec<u32> = (0..4096).collect();
        let (_, cycles) = run_eis(SetOpKind::Intersect, DbExtConfig::two_lsu(true), &a, &a, 32);
        let per_elem = cycles as f64 / (2.0 * a.len() as f64);
        assert!(
            (0.23..0.33).contains(&per_elem),
            "expected ~0.25-0.3 cycles/element, got {per_elem} ({cycles} cycles)"
        );
    }
}
