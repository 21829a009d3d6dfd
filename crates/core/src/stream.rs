//! Larger-than-local-store processing with the data prefetcher.
//!
//! Section 5.2 of the paper: *"If more values should be used, the data
//! prefetcher is required for reloading elements. System level simulation
//! validates a constant throughput of the processor for larger data sets
//! due to the concurrently performed data prefetch."* This module is that
//! system-level simulation: input sets live in off-chip system memory, the
//! DMAC streams value-aligned chunks into the dual-port local memories
//! while the core runs the set-operation kernel on the previous chunk
//! (double buffering), and results stream back out.
//!
//! Chunking is *value-aligned*: chunk `k` covers the value range
//! `(v_{k-1}, v_k]` in both sets, so per-chunk results concatenate into
//! the exact set-operation result. The chunk boundaries are computed by
//! the host-side driver, which models the "other entity in the system"
//! that programs the prefetcher FSM (Section 3.2).
//!
//! Modelling note (DESIGN.md): per-chunk results are written back to
//! 16-byte-aligned staging slots (real hardware would use byte-enabled
//! DMA for the final compaction); the result is assembled host-side while
//! the write-back traffic is fully accounted.

use crate::configs::ProcModel;
use crate::datapath::SetOpKind;
use crate::kernels::hwset;
use crate::runner::{
    align16, build_processor_with, preflight_check, run_set_op_with, scalar_fallback, Readback,
    Recovery, RecoveryPolicy, RunOptions, MAX_CYCLES,
};
use dbx_cpu::{Processor, SimError, DMEM0_BASE, DMEM1_BASE, SYSMEM_BASE};
use dbx_faults::{FaultCounters, FaultPlan, ProtectionKind};
use dbx_mem::prefetch::{Direction, DmacProgram, FsmStep, TransferDescriptor};
use dbx_observe::{Observer, TrackId};
use std::ops::Range;

/// Streaming configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Elements per chunk per set (capped per operation so that two
    /// chunks of each set plus the result slots fit the local memories).
    /// Fewer than 8 is a [`SimError::BadProgram`].
    pub chunk_elems: usize,
    /// Loop unroll factor of the chunk kernel.
    pub unroll: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_elems: 1536,
            unroll: 16,
        }
    }
}

/// Resilience knobs for a streamed run. `Default` reproduces the plain
/// [`stream_set_op`] behaviour.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Overrides the model's local-memory protection scheme.
    pub protection: Option<ProtectionKind>,
    /// Deterministic fault plan (event cycles are relative to each chunk
    /// kernel's start, since the core's cycle counter resets per chunk).
    /// Cleared on the first recovery so retries run clean.
    pub fault_plan: Option<FaultPlan>,
    /// What to do when a machine fault interrupts a chunk.
    pub policy: RecoveryPolicy,
    /// Watchdog cycle budget per chunk kernel run.
    pub watchdog_per_chunk: Option<u64>,
    /// Observability sink: per-chunk `kernel` spans on the core track,
    /// DMA-wait spans mirrored onto the DMAC track, and stream counters.
    pub observer: Observer,
}

/// Outcome of a streamed set operation.
#[derive(Debug, Clone, Default)]
pub struct StreamRun {
    /// The set-operation result.
    pub result: Vec<u32>,
    /// Total cycles including DMA stalls.
    pub total_cycles: u64,
    /// Cycles spent executing kernel code.
    pub kernel_cycles: u64,
    /// Cycles the core had to wait for outstanding DMA transfers.
    pub dma_stall_cycles: u64,
    /// Bytes moved by the prefetcher.
    pub bytes_streamed: u64,
    /// Number of chunk pairs processed.
    pub chunks: u64,
    /// Chunk re-runs consumed by the recovery policy.
    pub chunk_retries: u64,
    /// Chunks whose result came from the degraded scalar fallback.
    pub degraded_chunks: u64,
    /// Fault counters aggregated over the whole stream.
    pub faults: FaultCounters,
}

// Local-memory layout for streaming (2-LSU core: 32 KiB per memory).
const PARAM_BLOCK: u32 = DMEM0_BASE; // 5 words
const A_BUF: [u32; 2] = [DMEM0_BASE + 0x40, DMEM0_BASE + 0x2840];
const B_BUF: [u32; 2] = [DMEM1_BASE, DMEM1_BASE + 0x2800];
const C_BUF: [u32; 2] = [DMEM1_BASE + 0x5000, DMEM1_BASE + 0x6800];
/// Bytes of one C slot: the most a chunk's result may claim.
const C_SLOT: u32 = 0x1800;
/// Upper bound on `chunk_elems` (buffer slots are 0x2800 bytes).
const MAX_CHUNK: usize = 2048;

/// Streams a sorted-set operation over inputs living in system memory.
///
/// Runs on the dual-LSU EIS core (the only configuration with dual-port
/// memories on both streams). Inputs must be strictly increasing.
pub fn stream_set_op(
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
    cfg: StreamConfig,
) -> Result<StreamRun, SimError> {
    stream_set_op_with(kind, a, b, cfg, &StreamOptions::default())
}

/// [`stream_set_op`] with resilience options. The recovery checkpoint is
/// the value-aligned chunk boundary: when a chunk kernel faults, the
/// driver re-issues the chunk's prefetch (plus any in-flight write-back
/// and next-chunk prefetch, all idempotent) and re-runs just that chunk;
/// with [`RecoveryPolicy::DegradeToScalar`], an exhausted chunk is
/// recomputed on the trusted scalar pipeline instead, under the same
/// fallback options (protection override included) as a degraded
/// [`run_set_op_with`].
pub fn stream_set_op_with(
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
    cfg: StreamConfig,
    opts: &StreamOptions,
) -> Result<StreamRun, SimError> {
    // Union can emit the sum of both chunk lengths into a C slot, the
    // other operations at most one chunk length.
    let per_kind_cap = if kind == SetOpKind::Union {
        C_SLOT as usize / 8
    } else {
        C_SLOT as usize / 4
    };
    let chunk = cfg.chunk_elems.min(per_kind_cap).min(MAX_CHUNK);
    if chunk < 8 {
        return Err(SimError::BadProgram(format!(
            "stream chunk of {} elements is below the 8-element minimum",
            cfg.chunk_elems
        )));
    }

    let model = ProcModel::Dba2LsuEis { partial: true };
    // Each chunk kernel runs under these, and a degraded chunk under
    // their fallback, like any degraded kernel run.
    let chunk_opts = RunOptions {
        protection: opts.protection,
        policy: opts.policy,
        watchdog: opts.watchdog_per_chunk,
        ..RunOptions::default()
    };
    let wiring = model.wiring().expect("EIS model");
    let mut p = build_processor_with(model, opts.protection)?;
    let program = hwset::set_op_program_param(kind, &wiring, PARAM_BLOCK, cfg.unroll)?;
    preflight_check(&program, model)?;
    p.load_program(program)?;
    if let Some(plan) = &opts.fault_plan {
        p.set_fault_plan(plan.clone());
    }
    p.set_watchdog(chunk_opts.effective_watchdog());

    // Inputs and the result staging area in system memory.
    let a_base = SYSMEM_BASE;
    let b_base = align16(a_base + 4 * a.len() as u32);
    let stage_base = align16(b_base + 4 * b.len() as u32);
    p.mem.poke_words(a_base, a)?;
    p.mem.poke_words(b_base, b)?;

    let mut run = StreamRun::default();

    // Host-side planning of all value-aligned chunk pairs (the driver can
    // see the sorted inputs, like a query executor planning RID ranges).
    let mut plans = Vec::new();
    let (mut pa, mut pb) = (0usize, 0usize);
    while let Some((ra, rb)) = plan_chunk(a, b, pa, pb, chunk) {
        pa = ra.end;
        pb = rb.end;
        plans.push((ra, rb));
    }
    let dma = |wb, chunks| dma_program((a_base, b_base), &plans, chunks, wb);

    let obs = &opts.observer;
    // Startup: prefetch chunk 0 and wait for it (unavoidable cold start).
    if !plans.is_empty() {
        dmac_load(&mut p, dma(None, 0..1), &mut run, obs)?;
        drain_dmac(&mut p, &mut run, obs)?;
    }

    // Pipeline: while the kernel processes chunk i (buffers i % 2), one
    // FSM program writes back chunk i-1's result and prefetches chunk
    // i+1 — all overlapped with execution.
    let mut stage_off = 0u32;
    let mut prev_wb: Option<TransferDescriptor> = None;
    for i in 0..plans.len() {
        let pending_wb = prev_wb.take();
        dmac_load(&mut p, dma(pending_wb, i + 1..i + 2), &mut run, obs)?;

        let (ra, rb) = &plans[i];
        let mut attempt = 0u32;
        let emitted = loop {
            let e = match run_chunk(&mut p, ra, rb, i, &mut run, obs) {
                Ok(v) => break v,
                Err(e) if is_survivable(&e) => e,
                Err(e) => return Err(e),
            };
            obs.place(&format!("chunk{i}"), "fault", p.cycles, || {
                vec![("error", format!("{e}").into())]
            });
            // Transient-upset model: the repeat runs clean.
            p.clear_fault_plan();
            let degraded = match chunk_opts.policy.next(attempt) {
                Recovery::Fail => return Err(e),
                Recovery::Retry => {
                    attempt += 1;
                    run.chunk_retries += 1;
                    None
                }
                Recovery::Degrade => {
                    // Recompute just this chunk on the trusted scalar
                    // pipeline, host-side, from the pristine inputs.
                    let kr = run_set_op_with(
                        scalar_fallback(model),
                        kind,
                        &a[ra.clone()],
                        &b[rb.clone()],
                        &chunk_opts.fallback(),
                    )?;
                    run.degraded_chunks += 1;
                    run.faults.merge(&kr.faults);
                    run.kernel_cycles += kr.cycles;
                    run.total_cycles += kr.cycles;
                    obs.place(&format!("chunk{i}"), "kernel", kr.cycles, || {
                        vec![
                            ("degraded", "true".into()),
                            ("rows_out", kr.result.len().into()),
                        ]
                    });
                    Some(kr.result)
                }
            };
            // Rewind to the chunk checkpoint: re-issue the in-flight
            // write-back of chunk i-1 (idempotent — the C slot still holds
            // its data) and the prefetches of chunks i and i+1, then wait
            // for all of it (counted as DMA stall). This also re-arms the
            // pipeline after a degraded chunk.
            dmac_load(&mut p, dma(pending_wb, i..i + 2), &mut run, obs)?;
            drain_dmac(&mut p, &mut run, obs)?;
            if let Some(result) = degraded {
                // Stage the scalar result through the chunk's C slot so
                // the write-back path stays uniform.
                p.mem.poke_words(C_BUF[i % 2], &result)?;
                break result;
            }
        };
        if !emitted.is_empty() {
            let beats = (emitted.len() as u32 * 4).div_ceil(16) * 16;
            prev_wb = Some(TransferDescriptor {
                src: C_BUF[i % 2],
                dst: stage_base + stage_off,
                len_bytes: beats,
                burst_bytes: beats,
                dir: Direction::LocalToSys,
            });
            stage_off += beats;
            run.result.extend_from_slice(&emitted);
        }
        run.chunks += 1;
    }
    // Final write-back.
    if let Some(wb) = prev_wb {
        dmac_load(&mut p, dma(Some(wb), 0..0), &mut run, obs)?;
    }
    drain_dmac(&mut p, &mut run, obs)?;
    if let Some(d) = p.mem.dmac.as_ref() {
        run.bytes_streamed = d.bytes_moved;
    }
    run.faults.merge(&p.fault_counters());
    if obs.is_enabled() {
        obs.counter("bytes_streamed", run.bytes_streamed as f64);
        obs.counter("chunks", run.chunks as f64);
        obs.counter("dma_stall_cycles", run.dma_stall_cycles as f64);
        obs.counter("faults.injected", run.faults.injected as f64);
        obs.counter("faults.corrected", run.faults.corrected as f64);
        obs.counter("faults.detected", run.faults.detected as f64);
        obs.counter("faults.escaped", run.faults.escaped as f64);
    }
    Ok(run)
}

/// True for errors the recovery policy may absorb: precise machine faults
/// and the raw detected-upset memory errors that can surface from
/// host-side DMA draining (outside [`Processor::step`]'s promotion).
fn is_survivable(e: &SimError) -> bool {
    match e {
        SimError::Fault(_) => true,
        SimError::Mem(m) => m.is_fault(),
        _ => false,
    }
}

/// A chunk pair: the index ranges it takes from each set.
type ChunkPlan = (Range<usize>, Range<usize>);

/// Picks value-aligned prefixes of up to `chunk` elements from each set.
fn plan_chunk(a: &[u32], b: &[u32], pa: usize, pb: usize, chunk: usize) -> Option<ChunkPlan> {
    let na = (a.len() - pa).min(chunk);
    let nb = (b.len() - pb).min(chunk);
    if na == 0 && nb == 0 {
        return None;
    }
    let boundary = match (na, nb) {
        (0, _) => b[pb + nb - 1],
        (_, 0) => a[pa + na - 1],
        _ => a[pa + na - 1].min(b[pb + nb - 1]),
    };
    let a_take = a[pa..pa + na].partition_point(|&x| x <= boundary);
    let b_take = b[pb..pb + nb].partition_point(|&x| x <= boundary);
    Some((pa..pa + a_take, pb..pb + b_take))
}

/// The FSM program that writes back `wb` (if any), then prefetches the
/// `chunks` of `plans` (those that exist) from the sets at `bases` into
/// their parity's buffers, rounded out to 16-byte beats.
fn dma_program(
    bases: (u32, u32),
    plans: &[ChunkPlan],
    chunks: Range<usize>,
    wb: Option<TransferDescriptor>,
) -> DmacProgram {
    let mut descriptors: Vec<TransferDescriptor> = wb.into_iter().collect();
    for (k, (ra, rb)) in plans.iter().enumerate().take(chunks.end).skip(chunks.start) {
        for (base, range, buf) in [(bases.0, ra, A_BUF[k % 2]), (bases.1, rb, B_BUF[k % 2])] {
            if range.is_empty() {
                continue;
            }
            let src_exact = base + 4 * range.start as u32;
            let src = src_exact & !15;
            let len = align16(src_exact - src + 4 * range.len() as u32);
            descriptors.push(TransferDescriptor {
                src,
                dst: buf,
                len_bytes: len,
                burst_bytes: len.min(4096),
                dir: Direction::SysToLocal,
            });
        }
    }
    let mut steps: Vec<FsmStep> = (0..descriptors.len())
        .map(|desc| FsmStep::Transfer { desc })
        .collect();
    steps.push(FsmStep::Halt);
    DmacProgram { steps, descriptors }
}

/// Loads a DMAC program, first waiting out any still-running transfer
/// (the wait is counted as DMA stall — serialization double buffering is
/// supposed to avoid).
fn dmac_load(
    p: &mut Processor,
    prog: DmacProgram,
    run: &mut StreamRun,
    obs: &Observer,
) -> Result<(), SimError> {
    drain_dmac(p, run, obs)?;
    let d = p
        .mem
        .dmac
        .as_mut()
        .ok_or_else(|| SimError::BadProgram("model has no prefetcher".to_string()))?;
    d.load_program(prog)?;
    Ok(())
}

fn drain_dmac(p: &mut Processor, run: &mut StreamRun, obs: &Observer) -> Result<(), SimError> {
    let mut waited = 0u64;
    while p.mem.dmac.as_ref().is_some_and(|d| !d.is_idle()) {
        p.mem.begin_cycle();
        p.mem.tick_prefetcher()?;
        run.total_cycles += 1;
        run.dma_stall_cycles += 1;
        waited += 1;
        if waited > 100_000_000 {
            return Err(SimError::BadProgram(
                "prefetcher never went idle".to_string(),
            ));
        }
    }
    if waited > 0 {
        // The core-visible stall, mirrored onto the DMAC track at the
        // same cycle interval so the trace shows who the core waited on.
        let start = obs.place("dma.wait", "dma", waited, Vec::new);
        obs.on_track(TrackId::Dmac(0))
            .span_at("transfer", "dma", start, waited, Vec::new);
    }
    Ok(())
}

/// Runs the chunk kernel on a resident chunk pair; returns the emitted
/// elements, read back under the chunk's C slot bound.
fn run_chunk(
    p: &mut Processor,
    ra: &Range<usize>,
    rb: &Range<usize>,
    i: usize,
    run: &mut StreamRun,
    obs: &Observer,
) -> Result<Vec<u32>, SimError> {
    let parity = i % 2;
    // The head offset replays the 16-byte rounding of the prefetch.
    let head_a = (4 * ra.start as u32) % 16;
    let head_b = (4 * rb.start as u32) % 16;
    let ptr_a = A_BUF[parity] + head_a;
    let ptr_b = B_BUF[parity] + head_b;
    let params = [
        ptr_a,
        ptr_a + 4 * ra.len() as u32,
        ptr_b,
        ptr_b + 4 * rb.len() as u32,
        C_BUF[parity],
    ];
    p.reset_run_state();
    p.mem.poke_words(PARAM_BLOCK, &params)?;
    let stats = p.run(MAX_CYCLES)?;
    run.kernel_cycles += stats.cycles;
    run.total_cycles += stats.cycles;
    let result = Readback::Count {
        base: C_BUF[parity],
        reserved: C_SLOT / 4,
    }
    .read(p)?;
    obs.place(&format!("chunk{i}"), "kernel", stats.cycles, || {
        vec![
            ("rows_a", ra.len().into()),
            ("rows_b", rb.len().into()),
            ("rows_out", result.len().into()),
        ]
    });
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sets(n: usize) -> (Vec<u32>, Vec<u32>) {
        let a: Vec<u32> = (0..n as u32).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..n as u32).map(|i| 2 * i + (i % 2)).collect();
        (a, b)
    }

    #[test]
    fn streamed_results_match_reference() {
        let (a, b) = sets(10_000);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let r = stream_set_op(kind, &a, &b, StreamConfig::default()).unwrap();
            assert_eq!(r.result, reference(kind, &a, &b), "{kind:?}");
            assert!(r.chunks > 5, "should take several chunks, got {}", r.chunks);
        }
    }

    #[test]
    fn skewed_sets_stream_correctly() {
        // A much denser than B: chunk boundaries land unevenly.
        let a: Vec<u32> = (0..20_000u32).collect();
        let b: Vec<u32> = (0..2_000u32).map(|i| 10 * i + 3).collect();
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let r = stream_set_op(kind, &a, &b, StreamConfig::default()).unwrap();
            assert_eq!(r.result, reference(kind, &a, &b), "{kind:?}");
        }
    }

    #[test]
    fn small_inputs_take_one_chunk() {
        let (a, b) = sets(100);
        let r = stream_set_op(SetOpKind::Intersect, &a, &b, StreamConfig::default()).unwrap();
        assert_eq!(r.result, reference(SetOpKind::Intersect, &a, &b));
        // One chunk, or two when the value-aligned boundary splits the
        // last element off.
        assert!(
            r.chunks <= 2,
            "expected at most two chunks, got {}",
            r.chunks
        );
    }

    #[test]
    fn chunk_retry_recovers_streamed_parity_faults() {
        use dbx_faults::FaultTarget;
        let (a, b) = sets(10_000);
        let clean = stream_set_op(SetOpKind::Intersect, &a, &b, StreamConfig::default()).unwrap();
        // Word 800 of DMEM0 sits inside the chunk-0 slot of the A buffer;
        // the flip lands before the first chunk kernel reads it.
        let opts = StreamOptions {
            protection: Some(ProtectionKind::Parity),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 800, 7)),
            policy: RecoveryPolicy::Retry { max_retries: 2 },
            watchdog_per_chunk: None,
            ..Default::default()
        };
        let r = stream_set_op_with(SetOpKind::Intersect, &a, &b, StreamConfig::default(), &opts)
            .unwrap();
        assert_eq!(r.result, clean.result, "retry reproduces the clean result");
        assert_eq!(r.chunk_retries, 1, "the poisoned chunk must retry");
        // The processor's counters are cumulative and merged once.
        assert_eq!((r.faults.injected, r.faults.detected), (1, 1));
        assert_eq!(r.degraded_chunks, 0);
    }

    #[test]
    fn hung_chunks_degrade_to_scalar_and_still_stream() {
        let (a, b) = sets(6_000);
        let clean = stream_set_op(SetOpKind::Union, &a, &b, StreamConfig::default()).unwrap();
        // A 10-cycle watchdog trips every accelerated chunk attempt; each
        // chunk is recomputed on the scalar pipeline.
        let opts = StreamOptions {
            protection: None,
            fault_plan: None,
            policy: RecoveryPolicy::DegradeToScalar { max_retries: 0 },
            watchdog_per_chunk: Some(10),
            ..Default::default()
        };
        let r =
            stream_set_op_with(SetOpKind::Union, &a, &b, StreamConfig::default(), &opts).unwrap();
        assert_eq!(r.result, clean.result);
        assert_eq!(
            r.degraded_chunks, r.chunks,
            "every chunk must come from the fallback"
        );
    }

    #[test]
    fn a_degraded_chunk_keeps_the_protection_override() {
        // Equal last values put both sets in one chunk.
        let a: Vec<u32> = (0..=150).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..=100).map(|i| 3 * i).collect();
        let secded = RunOptions {
            protection: Some(ProtectionKind::Secded),
            ..RunOptions::default()
        };
        let kind = SetOpKind::Intersect;
        let fallback = run_set_op_with(ProcModel::Dba2Lsu, kind, &a, &b, &secded).unwrap();
        let bare = run_set_op_with(ProcModel::Dba2Lsu, kind, &a, &b, &RunOptions::default());
        assert_ne!(
            fallback.cycles,
            bare.unwrap().cycles,
            "SECDED must cost cycles"
        );
        let opts = StreamOptions {
            protection: Some(ProtectionKind::Secded),
            policy: RecoveryPolicy::DegradeToScalar { max_retries: 0 },
            watchdog_per_chunk: Some(10),
            ..Default::default()
        };
        let r = stream_set_op_with(kind, &a, &b, StreamConfig::default(), &opts).unwrap();
        assert_eq!((r.chunks, r.degraded_chunks), (1, 1));
        assert_eq!(r.result, fallback.result);
        assert_eq!(r.kernel_cycles, fallback.cycles);
        // The hang itself counts no fault, so the run's counters are the
        // fallback run's, merged in as the runner's degrade path does.
        assert_eq!(r.faults, fallback.faults);
    }

    #[test]
    fn double_buffering_sustains_throughput() {
        // The paper's claim: constant throughput for data sets larger than
        // the local store, because prefetch overlaps execution. Allow
        // modest overhead over the in-memory kernel.
        let (a, b) = sets(50_000);
        let r = stream_set_op(SetOpKind::Intersect, &a, &b, StreamConfig::default()).unwrap();
        let in_mem = {
            let (a, b) = sets(2000);
            crate::runner::run_set_op(
                ProcModel::Dba2LsuEis { partial: true },
                SetOpKind::Intersect,
                &a,
                &b,
            )
            .unwrap()
        };
        let stream_cpe = r.total_cycles as f64 / (2.0 * 50_000.0);
        let mem_cpe = in_mem.cycles as f64 / (2.0 * 2000.0);
        assert!(
            stream_cpe < 1.6 * mem_cpe,
            "streaming overhead too high: {stream_cpe:.3} vs {mem_cpe:.3} cycles/element"
        );
        assert!(
            r.bytes_streamed >= 2 * 50_000 * 4,
            "all input must stream through the DMAC"
        );
    }
}
