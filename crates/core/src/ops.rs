//! The DB instruction-set extension: operation set and execution semantics.
//!
//! This is the paper's contribution (Section 4, Table 1) as a pluggable
//! [`Extension`] for the customizable processor:
//!
//! | Paper instruction | Ops here |
//! |---|---|
//! | `LD` (per LSU) | `LD_A`, `LD_B`, `LD_ANY`, `LD_MERGE` |
//! | `LD_P` (per LSU) | `LDP_A`, `LDP_B` |
//! | `SOP` | `SOP_ISECT` / `SOP_UNION` / `SOP_DIFF` / `SOP_MERGE` |
//! | `ST_S` | `ST_S` |
//! | `ST` | `ST`, `ST_FLUSH` |
//! | fused `STORE_SOP` | `STORE_SOP_*` (SOP + ST, returns the loop flag) |
//! | fused `LD_LDP_SHUFFLE` | `LD_LDP_SHUFFLE` (ST_S + LD_P + LD) |
//! | presort load/store | `SORT4_LD` + `CPY_ST` |
//! | 128-bit copy | `CPY_LD_A`/`CPY_LD_B` + `CPY_ST` |
//!
//! plus `WUR_*`/`RUR_*` state-access ops (the TIE `add_read_write`
//! interface) and `DRAIN_*` for moving window/buffer tails to the store
//! path in the epilogues.
//!
//! **Intra-cycle ordering.** Ops issued in the same cycle execute in the
//! canonical dataflow order of the hardware pipeline (store side first,
//! then window refill, then loads), which realises the read-old/write-new
//! semantics of the fused `LD_LDP_SHUFFLE` instruction: `ST_S` reads the
//! Result states of the previous `SOP`, `LD_P` consumes the Load states
//! filled in earlier cycles, and `LD` refills them afterwards. Combining a
//! `SOP` with a `LD_P` in one cycle is rejected as a structural hazard —
//! in hardware that combination is what blows up the critical path.

use crate::datapath::{merge8, sop_set, sort4, SetOpKind};
use crate::states::{DbStates, ResultStates};
use dbx_cpu::ext::{Extension, LsuUse, OpDescriptor, TieCtx};
use dbx_cpu::{OpArgs, SimError};

/// Opcode constants of the DB extension.
pub mod opcodes {
    /// Reset all extension states.
    pub const INIT: u16 = 0;
    /// `ptr_a = ar[s]`.
    pub const WUR_PTR_A: u16 = 1;
    /// `end_a = ar[s]`.
    pub const WUR_END_A: u16 = 2;
    /// `ptr_b = ar[s]`.
    pub const WUR_PTR_B: u16 = 3;
    /// `end_b = ar[s]`.
    pub const WUR_END_B: u16 = 4;
    /// `ptr_c = ar[s]`.
    pub const WUR_PTR_C: u16 = 5;
    /// `ar[r] = done`.
    pub const RUR_DONE: u16 = 6;
    /// `ar[r] = out_cnt` (elements written to memory).
    pub const RUR_OUT_CNT: u16 = 7;
    /// `ar[r] = ptr_c`.
    pub const RUR_PTR_C: u16 = 8;
    /// `ar[r] = 1` when stream A is fully consumed.
    pub const RUR_A_DONE: u16 = 9;
    /// `ar[r] = 1` when stream B is fully consumed.
    pub const RUR_B_DONE: u16 = 10;
    /// `ar[r] = store-FIFO occupancy`.
    pub const RUR_FIFO_CNT: u16 = 11;
    /// Store one aligned beat (4 elements) from the FIFO when available.
    pub const ST: u16 = 12;
    /// Store the remaining tail (1..4 elements, byte-enabled).
    pub const ST_FLUSH: u16 = 13;
    /// Shuffle the Result states into the store FIFO.
    pub const ST_S: u16 = 14;
    /// Sorted-set intersection step.
    pub const SOP_ISECT: u16 = 15;
    /// Sorted-set union step.
    pub const SOP_UNION: u16 = 16;
    /// Sorted-set difference step.
    pub const SOP_DIFF: u16 = 17;
    /// Merge-sort step (bitonic 8-merge).
    pub const SOP_MERGE: u16 = 18;
    /// Refill Word window A from Load buffer A.
    pub const LDP_A: u16 = 19;
    /// Refill Word window B from Load buffer B.
    pub const LDP_B: u16 = 20;
    /// Load one beat of stream A.
    pub const LD_A: u16 = 21;
    /// Load one beat of stream B.
    pub const LD_B: u16 = 22;
    /// Load one beat of whichever stream is hungrier (single-LSU configs).
    pub const LD_ANY: u16 = 23;
    /// Load one beat for the merge run with the emptier buffer.
    pub const LD_MERGE: u16 = 24;
    /// Push the unemitted tail of window/buffer A into the store FIFO.
    pub const DRAIN_A: u16 = 25;
    /// Push the unemitted tail of window/buffer B into the store FIFO.
    pub const DRAIN_B: u16 = 26;
    /// Store up to one beat from the copy buffer (self-aligning).
    pub const CPY_ST: u16 = 27;
    /// Load up to one beat of stream A into the copy buffer.
    pub const CPY_LD_A: u16 = 28;
    /// Load up to one beat of stream B into the copy buffer.
    pub const CPY_LD_B: u16 = 29;
    /// Load one beat of stream A through the 4-element sorting network.
    pub const SORT4_LD: u16 = 30;
    /// Fused `ST` + `SOP_ISECT`; writes the continue flag to `ar[r]`.
    pub const STORE_SOP_ISECT: u16 = 31;
    /// Fused `ST` + `SOP_UNION`; writes the continue flag to `ar[r]`.
    pub const STORE_SOP_UNION: u16 = 32;
    /// Fused `ST` + `SOP_DIFF`; writes the continue flag to `ar[r]`.
    pub const STORE_SOP_DIFF: u16 = 33;
    /// Fused `ST` + `SOP_MERGE`; writes the continue flag to `ar[r]`.
    pub const STORE_MERGE: u16 = 34;
    /// Fused `ST_S` + `LD_P` (both) + `LD` (both LSUs, or arbitrated).
    pub const LD_LDP_SHUFFLE: u16 = 35;
    /// `ar[r] = 1` while the copy path still has work (either stream
    /// pointer unconsumed or the copy buffer non-empty).
    pub const RUR_CPY_PEND: u16 = 36;
    /// Number of defined opcodes.
    pub const COUNT: u16 = 37;
}

use opcodes as op;

/// Static configuration of the extension: how its datapaths are wired to
/// the processor's load–store units.
#[derive(Debug, Clone, Copy)]
pub struct DbExtConfig {
    /// Number of LSUs on the host core (1 or 2).
    pub n_lsus: usize,
    /// Partial loading enabled (`LD_P` tops windows up every cycle) or
    /// full-window reloading only.
    pub partial_loading: bool,
    /// LSU wired to stream A.
    pub lsu_a: usize,
    /// LSU wired to stream B.
    pub lsu_b: usize,
    /// LSU used by the store path.
    pub lsu_st: usize,
    /// Load-buffer depth per stream in elements (default 8 = two beats;
    /// 4 matches the paper's Figure 8 drawing but bubbles — ablatable).
    pub load_buf_cap: usize,
}

impl DbExtConfig {
    /// Wiring for a single-LSU core: everything on LSU0.
    pub fn one_lsu(partial_loading: bool) -> Self {
        DbExtConfig {
            n_lsus: 1,
            partial_loading,
            lsu_a: 0,
            lsu_b: 0,
            lsu_st: 0,
            load_buf_cap: crate::states::LOAD_BUF_CAP,
        }
    }

    /// Wiring for a dual-LSU core: set A on LSU0/DMEM0; set B and the
    /// result on LSU1/DMEM1 (paper Figures 8 and 9).
    pub fn two_lsu(partial_loading: bool) -> Self {
        DbExtConfig {
            n_lsus: 2,
            partial_loading,
            lsu_a: 0,
            lsu_b: 1,
            lsu_st: 1,
            load_buf_cap: crate::states::LOAD_BUF_CAP,
        }
    }

    /// Overrides the Load-buffer depth (4 or 8 elements).
    pub fn with_load_buf_cap(mut self, cap: usize) -> Self {
        assert!(cap == 4 || cap == 8, "load buffer is one or two beats");
        self.load_buf_cap = cap;
        self
    }
}

/// Micro-operations used for structural-hazard detection within a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    St,
    StS,
    Sop,
    LdpA,
    LdpB,
    LdA,
    LdB,
    CpySt,
    CpyLd,
    Drain,
}

/// The DB instruction-set extension.
#[derive(Debug)]
pub struct DbExtension {
    cfg: DbExtConfig,
    /// The TIE states (public for inspection in tests and reports).
    pub st: DbStates,
}

impl DbExtension {
    /// Creates the extension with the given LSU wiring.
    pub fn new(cfg: DbExtConfig) -> Self {
        DbExtension {
            cfg,
            st: DbStates::with_load_buf_cap(cfg.load_buf_cap),
        }
    }

    /// The wiring configuration.
    pub fn config(&self) -> DbExtConfig {
        self.cfg
    }

    // ---- micro-op implementations ----

    #[inline]
    fn u_st(&mut self, ctx: &mut TieCtx<'_>, flush: bool) -> Result<(), SimError> {
        let s = &mut self.st;
        if s.fifo.is_empty() {
            return Ok(());
        }
        let to_beat = 4 - ((s.ptr_c as usize % 16) / 4);
        let k = if flush {
            s.fifo.len().min(to_beat)
        } else {
            if s.fifo.len() < 4 || to_beat < 4 {
                return Ok(()); // wait for a full aligned beat
            }
            4
        };
        if k == 0 {
            return Ok(());
        }
        let (vals, k) = s.fifo.take(k);
        ctx.mem
            .store_lanes(self.cfg.lsu_st, s.ptr_c, &vals[..k], ctx.counters)?;
        s.ptr_c += 4 * k as u32;
        s.out_cnt += k as u32;
        Ok(())
    }

    #[inline]
    fn u_st_s(&mut self) {
        let s = &mut self.st;
        if !s.result.is_empty() && s.fifo.free() >= s.result.len() {
            s.fifo.push(s.result.lanes(), s.result.len());
            s.result = ResultStates::EMPTY;
        }
    }

    #[inline]
    fn u_sop(&mut self, kind: SetOpKind) {
        let s = &mut self.st;
        if s.done || !s.result.is_empty() || s.consumed_a > 0 || s.consumed_b > 0 {
            return; // backpressure or pending window refill
        }
        if s.a_stream_done() || s.b_stream_done() {
            s.done = true;
            return;
        }
        if !s.a_window_ready() || !s.b_window_ready() {
            return; // bubble: supply has not caught up
        }
        let out = sop_set(
            kind,
            &s.word_a.vals,
            s.word_a.cnt,
            s.word_a.emitted,
            &s.word_b.vals,
            s.word_b.cnt,
            s.word_b.emitted,
            self.cfg.partial_loading,
        );
        s.result = out.emit;
        s.consumed_a = out.consume_a;
        s.consumed_b = out.consume_b;
        s.word_a.emitted = out.emitted_a;
        s.word_b.emitted = out.emitted_b;
    }

    fn u_sop_merge(&mut self) {
        let s = &mut self.st;
        if s.done || !s.result.is_empty() {
            return;
        }
        let a_block = s.load_a.len() >= 4;
        let b_block = s.load_b.len() >= 4;
        let a_more = s.ptr_a < s.end_a;
        let b_more = s.ptr_b < s.end_b;
        enum Choice {
            A,
            B,
            Drain,
            Wait,
        }
        let choice = match (a_block, b_block) {
            (true, true) => {
                if s.load_a.front() <= s.load_b.front() {
                    Choice::A
                } else {
                    Choice::B
                }
            }
            (true, false) => {
                if b_more {
                    Choice::Wait // run 1's next block is not visible yet
                } else {
                    Choice::A
                }
            }
            (false, true) => {
                if a_more {
                    Choice::Wait
                } else {
                    Choice::B
                }
            }
            (false, false) => {
                if a_more || b_more {
                    Choice::Wait
                } else {
                    Choice::Drain
                }
            }
        };
        match choice {
            Choice::Wait => {}
            Choice::Drain => {
                if s.merge_primed {
                    s.result = ResultStates::from_beat(s.word_a.vals, 4);
                    s.word_a = Default::default();
                    s.merge_primed = false;
                }
                s.done = true;
            }
            Choice::A | Choice::B => {
                let (block, got) = if matches!(choice, Choice::A) {
                    s.load_a.take(4)
                } else {
                    s.load_b.take(4)
                };
                debug_assert_eq!(got, 4, "merge consumes whole blocks");
                if !s.merge_primed {
                    s.word_a.vals = block;
                    s.word_a.cnt = 4;
                    s.merge_primed = true;
                } else {
                    let [m0, m1, m2, m3, m4, m5, m6, m7] = merge8(s.word_a.vals, block);
                    s.result = ResultStates::from_beat([m0, m1, m2, m3], 4);
                    s.word_a.vals = [m4, m5, m6, m7];
                }
            }
        }
    }

    #[inline]
    fn u_ldp(&mut self, b_side: bool) {
        let s = &mut self.st;
        let (w, src, consumed) = if b_side {
            (&mut s.word_b, &mut s.load_b, &mut s.consumed_b)
        } else {
            (&mut s.word_a, &mut s.load_a, &mut s.consumed_a)
        };
        if !self.cfg.partial_loading {
            // Full-window reloading: only act when the window is entirely
            // consumed or entirely empty.
            if (*consumed != w.cnt) && w.cnt != 0 {
                // Window partially consumed cannot happen in non-partial
                // SOP mode (it retires full windows), but guard anyway.
                return;
            }
        }
        w.shift_refill(*consumed, src);
        *consumed = 0;
    }

    #[inline]
    fn u_ld(&mut self, ctx: &mut TieCtx<'_>, b_side: bool, lsu: usize) -> Result<(), SimError> {
        let s = &mut self.st;
        let (buf, ptr, end) = if b_side {
            (&mut s.load_b, &mut s.ptr_b, s.end_b)
        } else {
            (&mut s.load_a, &mut s.ptr_a, s.end_a)
        };
        if buf.free() < 4 || *ptr >= end {
            return Ok(());
        }
        // One 128-bit beat per cycle; a stream starting mid-beat loads the
        // partial beat first and is aligned from then on.
        let to_beat = 4 - ((*ptr as usize % 16) / 4);
        let n = (((end - *ptr) / 4) as usize).min(to_beat);
        let mut vals = [0u32; 4];
        ctx.mem
            .load_lanes_into(lsu, *ptr, &mut vals[..n], ctx.counters)?;
        buf.push(&vals, n);
        *ptr += 4 * n as u32;
        Ok(())
    }

    #[inline]
    fn u_ld_any(&mut self, ctx: &mut TieCtx<'_>) -> Result<(), SimError> {
        let s = &self.st;
        let a_can = s.load_a.free() >= 4 && s.ptr_a < s.end_a;
        let b_can = s.load_b.free() >= 4 && s.ptr_b < s.end_b;
        let a_supply = s.load_a.len() + s.word_a.cnt;
        let b_supply = s.load_b.len() + s.word_b.cnt;
        let lsu = self.cfg.lsu_a; // single-LSU wiring
        match (a_can, b_can) {
            (true, true) => {
                let b_side = b_supply < a_supply;
                self.u_ld(ctx, b_side, lsu)
            }
            (true, false) => self.u_ld(ctx, false, lsu),
            (false, true) => self.u_ld(ctx, true, lsu),
            (false, false) => Ok(()),
        }
    }

    fn u_ld_merge(&mut self, ctx: &mut TieCtx<'_>) -> Result<(), SimError> {
        let s = &self.st;
        let a_can = s.load_a.free() >= 4 && s.ptr_a < s.end_a;
        let b_can = s.load_b.free() >= 4 && s.ptr_b < s.end_b;
        let lsu = self.cfg.lsu_a;
        match (a_can, b_can) {
            (true, true) => {
                let b_side = s.load_b.len() < s.load_a.len();
                self.u_ld(ctx, b_side, lsu)
            }
            (true, false) => self.u_ld(ctx, false, lsu),
            (false, true) => self.u_ld(ctx, true, lsu),
            (false, false) => Ok(()),
        }
    }

    fn u_drain(&mut self, b_side: bool) {
        let s = &mut self.st;
        let (w, buf, consumed) = if b_side {
            (&mut s.word_b, &mut s.load_b, &mut s.consumed_b)
        } else {
            (&mut s.word_a, &mut s.load_a, &mut s.consumed_a)
        };
        // 4 window lanes + a full load buffer (its cap is bounded by the
        // FIFO cap, 12) can exceed the FIFO capacity; the oversize case
        // bails out below exactly as before.
        let mut vals = [0u32; 4 + crate::states::STORE_FIFO_CAP];
        let mut n = 0;
        let unemitted = (0..w.cnt).filter(|&i| w.emitted >> i & 1 == 0);
        for v in unemitted.map(|i| w.vals[i]).chain(buf.iter()) {
            vals[n] = v;
            n += 1;
        }
        if n > s.fifo.free() {
            return; // kernel must flush the FIFO first
        }
        for (i, beat) in vals.as_chunks::<8>().0.iter().enumerate() {
            s.fifo.push(beat, n.saturating_sub(8 * i).min(8));
        }
        *w = Default::default();
        buf.clear();
        // The drained window has nothing left for `LD_P` to retire.
        *consumed = 0;
    }

    fn u_cpy_st(&mut self, ctx: &mut TieCtx<'_>) -> Result<(), SimError> {
        let s = &mut self.st;
        if s.cpy.is_empty() {
            return Ok(());
        }
        let to_beat = 4 - ((s.ptr_c as usize % 16) / 4);
        let k = s.cpy.len().min(to_beat);
        let (vals, k) = s.cpy.take(k);
        ctx.mem
            .store_lanes(self.cfg.lsu_st, s.ptr_c, &vals[..k], ctx.counters)?;
        s.ptr_c += 4 * k as u32;
        s.out_cnt += k as u32;
        Ok(())
    }

    fn u_cpy_ld(
        &mut self,
        ctx: &mut TieCtx<'_>,
        b_side: bool,
        sorted: bool,
    ) -> Result<(), SimError> {
        let lsu = if b_side {
            self.cfg.lsu_b
        } else {
            self.cfg.lsu_a
        };
        let s = &mut self.st;
        let (ptr, end) = if b_side {
            (&mut s.ptr_b, s.end_b)
        } else {
            (&mut s.ptr_a, s.end_a)
        };
        if s.cpy.free() < 4 || *ptr >= end {
            return Ok(());
        }
        let to_beat = 4 - ((*ptr as usize % 16) / 4);
        let n = (((end - *ptr) / 4) as usize).min(to_beat);
        let mut vals = [0u32; 4];
        ctx.mem
            .load_lanes_into(lsu, *ptr, &mut vals[..n], ctx.counters)?;
        if sorted {
            debug_assert_eq!(n, 4, "presort input must be a multiple of 4");
            vals = sort4(vals);
        }
        s.cpy.push(&vals, n);
        *ptr += 4 * n as u32;
        Ok(())
    }

    /// The micro-resources an op occupies, as a bitmask over [`Micro`]
    /// (bit `m as u16` set). A mask instead of a list keeps the per-cycle
    /// structural-hazard check off the allocator.
    fn micro_mask(opcode: u16) -> u16 {
        const fn bit(m: Micro) -> u16 {
            1 << m as u16
        }
        match opcode {
            op::ST | op::ST_FLUSH => bit(Micro::St),
            op::ST_S => bit(Micro::StS),
            op::SOP_ISECT | op::SOP_UNION | op::SOP_DIFF | op::SOP_MERGE => bit(Micro::Sop),
            op::LDP_A => bit(Micro::LdpA),
            op::LDP_B => bit(Micro::LdpB),
            op::LD_A => bit(Micro::LdA),
            op::LD_B => bit(Micro::LdB),
            op::LD_ANY | op::LD_MERGE => bit(Micro::LdA) | bit(Micro::LdB),
            op::DRAIN_A | op::DRAIN_B => bit(Micro::Drain),
            op::CPY_ST => bit(Micro::CpySt),
            op::CPY_LD_A | op::CPY_LD_B | op::SORT4_LD => bit(Micro::CpyLd),
            op::STORE_SOP_ISECT | op::STORE_SOP_UNION | op::STORE_SOP_DIFF | op::STORE_MERGE => {
                bit(Micro::St) | bit(Micro::Sop)
            }
            op::LD_LDP_SHUFFLE => {
                bit(Micro::StS)
                    | bit(Micro::LdpA)
                    | bit(Micro::LdpB)
                    | bit(Micro::LdA)
                    | bit(Micro::LdB)
            }
            _ => 0,
        }
    }

    /// Canonical intra-cycle stage of an op (lower runs first).
    fn stage_of(opcode: u16) -> u8 {
        match opcode {
            op::INIT..=op::RUR_FIFO_CNT | op::RUR_CPY_PEND => 0,
            op::ST | op::ST_FLUSH => 1,
            op::ST_S => 2,
            op::SOP_ISECT..=op::SOP_MERGE => 3,
            op::STORE_SOP_ISECT..=op::STORE_MERGE => 3,
            op::DRAIN_A | op::DRAIN_B => 3,
            op::LDP_A | op::LDP_B => 4,
            op::LD_LDP_SHUFFLE => 2,
            op::LD_A..=op::LD_MERGE => 5,
            op::CPY_ST => 6,
            op::CPY_LD_A | op::CPY_LD_B | op::SORT4_LD => 7,
            _ => 0,
        }
    }

    fn exec_one(
        &mut self,
        opcode: u16,
        args: OpArgs,
        ctx: &mut TieCtx<'_>,
    ) -> Result<(), SimError> {
        let r = args.r as usize & 15;
        let sreg = args.s as usize & 15;
        match opcode {
            op::INIT => self.st.reset(),
            op::WUR_PTR_A => self.st.ptr_a = ctx.ar[sreg],
            op::WUR_END_A => self.st.end_a = ctx.ar[sreg],
            op::WUR_PTR_B => self.st.ptr_b = ctx.ar[sreg],
            op::WUR_END_B => self.st.end_b = ctx.ar[sreg],
            op::WUR_PTR_C => self.st.ptr_c = ctx.ar[sreg],
            op::RUR_DONE => ctx.ar[r] = self.st.done as u32,
            op::RUR_OUT_CNT => ctx.ar[r] = self.st.out_cnt,
            op::RUR_PTR_C => ctx.ar[r] = self.st.ptr_c,
            op::RUR_A_DONE => ctx.ar[r] = self.st.a_stream_done() as u32,
            op::RUR_B_DONE => ctx.ar[r] = self.st.b_stream_done() as u32,
            op::RUR_FIFO_CNT => ctx.ar[r] = self.st.fifo.len() as u32,
            op::RUR_CPY_PEND => {
                let st = &self.st;
                ctx.ar[r] =
                    (st.ptr_a < st.end_a || st.ptr_b < st.end_b || !st.cpy.is_empty()) as u32;
            }
            op::ST => self.u_st(ctx, false)?,
            op::ST_FLUSH => self.u_st(ctx, true)?,
            op::ST_S => self.u_st_s(),
            op::SOP_ISECT => self.u_sop(SetOpKind::Intersect),
            op::SOP_UNION => self.u_sop(SetOpKind::Union),
            op::SOP_DIFF => self.u_sop(SetOpKind::Difference),
            op::SOP_MERGE => self.u_sop_merge(),
            op::LDP_A => self.u_ldp(false),
            op::LDP_B => self.u_ldp(true),
            op::LD_A => self.u_ld(ctx, false, self.cfg.lsu_a)?,
            op::LD_B => self.u_ld(ctx, true, self.cfg.lsu_b)?,
            op::LD_ANY => self.u_ld_any(ctx)?,
            op::LD_MERGE => self.u_ld_merge(ctx)?,
            op::DRAIN_A => self.u_drain(false),
            op::DRAIN_B => self.u_drain(true),
            op::CPY_ST => self.u_cpy_st(ctx)?,
            op::CPY_LD_A => self.u_cpy_ld(ctx, false, false)?,
            op::CPY_LD_B => self.u_cpy_ld(ctx, true, false)?,
            op::SORT4_LD => self.u_cpy_ld(ctx, false, true)?,
            op::STORE_SOP_ISECT | op::STORE_SOP_UNION | op::STORE_SOP_DIFF => {
                self.u_st(ctx, false)?;
                let kind = match opcode {
                    op::STORE_SOP_ISECT => SetOpKind::Intersect,
                    op::STORE_SOP_UNION => SetOpKind::Union,
                    _ => SetOpKind::Difference,
                };
                self.u_sop(kind);
                ctx.ar[r] = (!self.st.done) as u32;
            }
            op::STORE_MERGE => {
                // The merge path needs no reordering shuffle (Section 4):
                // the merge network's low half goes straight to the store
                // FIFO in the same cycle.
                self.u_st(ctx, false)?;
                self.u_sop_merge();
                self.u_st_s();
                ctx.ar[r] = (!self.st.done) as u32;
            }
            op::LD_LDP_SHUFFLE => {
                self.u_st_s();
                self.u_ldp(false);
                self.u_ldp(true);
                if self.cfg.n_lsus == 2 {
                    self.u_ld(ctx, false, self.cfg.lsu_a)?;
                    self.u_ld(ctx, true, self.cfg.lsu_b)?;
                } else {
                    self.u_ld_any(ctx)?;
                }
            }
            other => return Err(SimError::UnknownExtOp { op: other }),
        }
        Ok(())
    }
}

impl Extension for DbExtension {
    fn name(&self) -> &'static str {
        "db"
    }

    fn op_count(&self) -> u16 {
        op::COUNT
    }

    fn op_descriptor(&self, opcode: u16) -> Result<OpDescriptor, SimError> {
        // State vocabulary for static analysis. The names of the micro
        // resources ("st", "sop", "ld_a", ...) double as the written-state
        // names so a static same-state-in-one-bundle check reproduces the
        // runtime duplicate-micro hazard exactly — neither stricter nor
        // looser. The WUR-visible pointer registers get their own names.
        const ALL_STATES: &[&str] = &[
            "ptr_a", "end_a", "ptr_b", "end_b", "ptr_c", "st", "st_s", "sop", "ldp_a", "ldp_b",
            "ld_a", "ld_b", "drain", "cpy_st", "cpy_ld",
        ];
        const STREAM_A: &[&str] = &["ptr_a", "end_a"];
        const STREAM_B: &[&str] = &["ptr_b", "end_b"];
        const STREAM_AB: &[&str] = &["ptr_a", "end_a", "ptr_b", "end_b"];
        type D = (
            &'static str,
            LsuUse,
            bool,
            bool,
            &'static [&'static str],
            &'static [&'static str],
        );
        // (name, lsu, writes_ar, reads_ar, states_written, states_read)
        let (name, lsu, writes_ar, reads_ar, states_written, states_read): D = match opcode {
            op::INIT => ("db.init", LsuUse::None, false, false, ALL_STATES, &[]),
            op::WUR_PTR_A => ("db.wur.ptra", LsuUse::None, false, true, &["ptr_a"], &[]),
            op::WUR_END_A => ("db.wur.enda", LsuUse::None, false, true, &["end_a"], &[]),
            op::WUR_PTR_B => ("db.wur.ptrb", LsuUse::None, false, true, &["ptr_b"], &[]),
            op::WUR_END_B => ("db.wur.endb", LsuUse::None, false, true, &["end_b"], &[]),
            op::WUR_PTR_C => ("db.wur.ptrc", LsuUse::None, false, true, &["ptr_c"], &[]),
            op::RUR_DONE => ("db.rur.done", LsuUse::None, true, false, &[], &["sop"]),
            op::RUR_OUT_CNT => ("db.rur.outcnt", LsuUse::None, true, false, &[], &["st"]),
            op::RUR_PTR_C => ("db.rur.ptrc", LsuUse::None, true, false, &[], &["ptr_c"]),
            op::RUR_A_DONE => ("db.rur.adone", LsuUse::None, true, false, &[], &["ld_a"]),
            op::RUR_B_DONE => ("db.rur.bdone", LsuUse::None, true, false, &[], &["ld_b"]),
            op::RUR_FIFO_CNT => ("db.rur.fifocnt", LsuUse::None, true, false, &[], &["sop"]),
            op::RUR_CPY_PEND => (
                "db.rur.cpypend",
                LsuUse::None,
                true,
                false,
                &[],
                &["cpy_st"],
            ),
            op::ST => (
                "db.st",
                LsuUse::One(self.cfg.lsu_st),
                false,
                false,
                &["st"],
                &["sop", "ptr_c"],
            ),
            op::ST_FLUSH => (
                "db.st.flush",
                LsuUse::One(self.cfg.lsu_st),
                false,
                false,
                &["st"],
                &["sop", "ptr_c"],
            ),
            op::ST_S => ("db.st_s", LsuUse::None, false, false, &["st_s"], &["sop"]),
            op::SOP_ISECT => (
                "db.sop.isect",
                LsuUse::None,
                false,
                false,
                &["sop"],
                &["ld_a", "ld_b"],
            ),
            op::SOP_UNION => (
                "db.sop.union",
                LsuUse::None,
                false,
                false,
                &["sop"],
                &["ld_a", "ld_b"],
            ),
            op::SOP_DIFF => (
                "db.sop.diff",
                LsuUse::None,
                false,
                false,
                &["sop"],
                &["ld_a", "ld_b"],
            ),
            op::SOP_MERGE => (
                "db.sop.merge",
                LsuUse::None,
                false,
                false,
                &["sop"],
                &["ld_a", "ld_b"],
            ),
            op::LDP_A => (
                "db.ldp.a",
                LsuUse::None,
                false,
                false,
                &["ldp_a"],
                &["ld_a"],
            ),
            op::LDP_B => (
                "db.ldp.b",
                LsuUse::None,
                false,
                false,
                &["ldp_b"],
                &["ld_b"],
            ),
            op::LD_A => (
                "db.ld.a",
                LsuUse::One(self.cfg.lsu_a),
                false,
                false,
                &["ld_a"],
                STREAM_A,
            ),
            op::LD_B => (
                "db.ld.b",
                LsuUse::One(self.cfg.lsu_b),
                false,
                false,
                &["ld_b"],
                STREAM_B,
            ),
            op::LD_ANY => (
                "db.ld.any",
                LsuUse::One(self.cfg.lsu_a),
                false,
                false,
                &["ld_a", "ld_b"],
                STREAM_AB,
            ),
            op::LD_MERGE => (
                "db.ld.merge",
                LsuUse::One(self.cfg.lsu_a),
                false,
                false,
                &["ld_a", "ld_b"],
                STREAM_AB,
            ),
            op::DRAIN_A => (
                "db.drain.a",
                LsuUse::None,
                false,
                false,
                &["drain"],
                &["ld_a"],
            ),
            op::DRAIN_B => (
                "db.drain.b",
                LsuUse::None,
                false,
                false,
                &["drain"],
                &["ld_b"],
            ),
            op::CPY_ST => (
                "db.cpy.st",
                LsuUse::One(self.cfg.lsu_st),
                false,
                false,
                &["cpy_st"],
                &["cpy_ld", "ptr_c"],
            ),
            op::CPY_LD_A => (
                "db.cpy.ld.a",
                LsuUse::One(self.cfg.lsu_a),
                false,
                false,
                &["cpy_ld"],
                STREAM_A,
            ),
            op::CPY_LD_B => (
                "db.cpy.ld.b",
                LsuUse::One(self.cfg.lsu_b),
                false,
                false,
                &["cpy_ld"],
                STREAM_B,
            ),
            op::SORT4_LD => (
                "db.sort4.ld",
                LsuUse::One(self.cfg.lsu_a),
                false,
                false,
                &["cpy_ld"],
                STREAM_A,
            ),
            op::STORE_SOP_ISECT => (
                "db.store_sop.isect",
                LsuUse::One(self.cfg.lsu_st),
                true,
                false,
                &["st", "sop"],
                &["ld_a", "ld_b", "ptr_c"],
            ),
            op::STORE_SOP_UNION => (
                "db.store_sop.union",
                LsuUse::One(self.cfg.lsu_st),
                true,
                false,
                &["st", "sop"],
                &["ld_a", "ld_b", "ptr_c"],
            ),
            op::STORE_SOP_DIFF => (
                "db.store_sop.diff",
                LsuUse::One(self.cfg.lsu_st),
                true,
                false,
                &["st", "sop"],
                &["ld_a", "ld_b", "ptr_c"],
            ),
            op::STORE_MERGE => (
                "db.store_merge",
                LsuUse::One(self.cfg.lsu_st),
                true,
                false,
                &["st", "sop"],
                &["ld_a", "ld_b", "ptr_c"],
            ),
            op::LD_LDP_SHUFFLE => (
                "db.ld_ldp_shuffle",
                LsuUse::Multi,
                false,
                false,
                &["st_s", "ldp_a", "ldp_b", "ld_a", "ld_b"],
                STREAM_AB,
            ),
            other => return Err(SimError::UnknownExtOp { op: other }),
        };
        Ok(OpDescriptor {
            name,
            lsu,
            writes_ar,
            reads_ar,
            states_written,
            states_read,
            slot_ok: true,
            latency: 1,
        })
    }

    #[inline]
    fn execute_one(
        &mut self,
        opcode: u16,
        args: OpArgs,
        ctx: &mut TieCtx<'_>,
    ) -> Result<u32, SimError> {
        // A lone op needs neither the hazard scan nor the staging sort.
        self.exec_one(opcode, args, ctx)?;
        ctx.counters.count_ext_op(opcode);
        Ok(0)
    }

    fn execute(&mut self, ops: &[(u16, OpArgs)], ctx: &mut TieCtx<'_>) -> Result<u32, SimError> {
        // Structural-hazard check: no duplicated micro-resources, and SOP
        // never shares a cycle with LD_P (critical-path constraint).
        let mut seen: u16 = 0;
        for (o, _) in ops {
            let m = Self::micro_mask(*o);
            if seen & m != 0 {
                return Err(SimError::WriteConflict {
                    state: "db micro-resource",
                });
            }
            seen |= m;
        }
        const SOP: u16 = 1 << Micro::Sop as u16;
        const LDP: u16 = (1 << Micro::LdpA as u16) | (1 << Micro::LdpB as u16);
        if seen & SOP != 0 && seen & LDP != 0 {
            return Err(SimError::WriteConflict {
                state: "word window (SOP with LD_P)",
            });
        }
        // Canonical dataflow order: a stable insertion sort on a stack
        // buffer for real bundle widths, falling back to a heap sort for
        // pathologically wide op groups.
        if ops.len() <= 8 {
            let mut ordered = [(0u16, OpArgs::default()); 8];
            ordered[..ops.len()].copy_from_slice(ops);
            let ordered = &mut ordered[..ops.len()];
            for i in 1..ordered.len() {
                let mut j = i;
                while j > 0 && Self::stage_of(ordered[j - 1].0) > Self::stage_of(ordered[j].0) {
                    ordered.swap(j - 1, j);
                    j -= 1;
                }
            }
            for &(o, args) in ordered.iter() {
                self.exec_one(o, args, ctx)?;
                ctx.counters.count_ext_op(o);
            }
        } else {
            let mut ordered: Vec<(u16, OpArgs)> = ops.to_vec();
            ordered.sort_by_key(|(o, _)| Self::stage_of(*o));
            for (o, args) in ordered {
                self.exec_one(o, args, ctx)?;
                ctx.counters.count_ext_op(o);
            }
        }
        Ok(0)
    }

    fn reset(&mut self) {
        self.st.reset();
    }

    /// Corrupts one bit of the extension's architectural state storage.
    /// The selector maps deterministically over the user-visible states
    /// (Word windows, result pointer, output counter, done flag) —
    /// the soft-error model for the flip-flop area of Figures 8/9.
    fn inject_state_fault(&mut self, selector: u64) {
        let bit = (selector & 31) as u32;
        let mask = 1u32 << bit;
        let lane = ((selector >> 8) % 4) as usize;
        match (selector >> 5) % 5 {
            0 => self.st.word_a.vals[lane] ^= mask,
            1 => self.st.word_b.vals[lane] ^= mask,
            2 => self.st.ptr_c ^= mask,
            3 => self.st.out_cnt ^= mask,
            _ => self.st.done = !self.st.done,
        }
    }
}
