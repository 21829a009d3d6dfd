//! High-level runners: place data, build the right kernel for a processor
//! model, simulate, and verify invariants.
//!
//! This is the API most callers want:
//!
//! ```
//! use dbx_core::configs::ProcModel;
//! use dbx_core::datapath::SetOpKind;
//! use dbx_core::runner::run_set_op;
//!
//! let a: Vec<u32> = (0..100).map(|i| 2 * i).collect();
//! let b: Vec<u32> = (0..100).map(|i| 3 * i).collect();
//! let run = run_set_op(ProcModel::Dba2LsuEis { partial: true },
//!                      SetOpKind::Intersect, &a, &b).unwrap();
//! assert!(run.result.iter().all(|x| x % 6 == 0));
//! assert!(run.cycles > 0);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::configs::ProcModel;
use crate::datapath::SetOpKind;
use crate::kernels::{hwset, hwsort, scalar, SetLayout, SortLayout};
use crate::ops::DbExtension;
use crate::progcache;
use crate::states::SENTINEL;
use dbx_cpu::ext::Extension;
use dbx_cpu::observe::emit_kernel_run;
use dbx_cpu::program::Program;
use dbx_cpu::{
    MachineFault, Processor, ProfileMode, ProfileSnapshot, RunStats, SimError, DMEM0_BASE,
    DMEM1_BASE, SYSMEM_BASE,
};
use dbx_faults::{FaultCounters, FaultPlan, ProtectionKind};
use dbx_observe::{ArgValue, Observer};

/// Cycle budget for a single kernel run — generous; kernels that exceed it
/// are broken, not slow.
const MAX_CYCLES: u64 = 2_000_000_000;

/// Whether runners statically verify programs before simulating them.
static PREFLIGHT: AtomicBool = AtomicBool::new(false);

/// Opts all subsequent kernel runs in this process into the static
/// pre-flight verifier (`dbx-analysis`): error-severity findings abort the
/// run with [`SimError::BadProgram`] before a single cycle is simulated.
/// Also enabled by setting the `DBX_PREFLIGHT` environment variable to
/// anything but `0`.
pub fn set_preflight(on: bool) {
    PREFLIGHT.store(on, Ordering::Relaxed);
}

fn preflight_enabled() -> bool {
    PREFLIGHT.load(Ordering::Relaxed) || std::env::var_os("DBX_PREFLIGHT").is_some_and(|v| v != "0")
}

/// Runs the static verifier over `program` as it will execute on `model`,
/// when pre-flight is enabled. Warnings are ignored here; `dbx-lint`
/// surfaces them interactively.
fn preflight_check(program: &Program, model: ProcModel) -> Result<(), SimError> {
    if !preflight_enabled() {
        return Ok(());
    }
    let cfg = model.cpu_config();
    let ext = model.wiring().map(DbExtension::new);
    let ext_ref = ext.as_ref().map(|e| e as &dyn Extension);
    dbx_analysis::preflight(program, ext_ref, &cfg).map(|_warnings| ())
}

/// What a runner does when a machine fault (detected upset, watchdog
/// expiry, failed DMA) interrupts a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Surface the fault to the caller unchanged.
    #[default]
    FailFast,
    /// Re-run the kernel from clean inputs up to `max_retries` times
    /// (soft errors are transient; a repeat normally succeeds).
    Retry {
        /// Attempts beyond the first before giving up.
        max_retries: u32,
    },
    /// Retry like [`RecoveryPolicy::Retry`], then fall back to the scalar
    /// baseline kernel — the EIS datapath is suspected bad, the plain
    /// pipeline is trusted.
    DegradeToScalar {
        /// Attempts on the accelerated kernel before degrading.
        max_retries: u32,
    },
}

impl RecoveryPolicy {
    /// Re-run attempts granted on the primary kernel.
    pub fn max_retries(&self) -> u32 {
        match *self {
            RecoveryPolicy::FailFast => 0,
            RecoveryPolicy::Retry { max_retries }
            | RecoveryPolicy::DegradeToScalar { max_retries } => max_retries,
        }
    }
}

/// Resilience knobs for a kernel run. `Default` reproduces the plain
/// [`run_set_op`] / [`run_sort`] behaviour: model-default protection, no
/// injected faults, fail fast, no watchdog.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Overrides the model's local-memory protection scheme.
    pub protection: Option<ProtectionKind>,
    /// Deterministic fault plan, applied to the *first* attempt only
    /// (soft errors are transient; retries run on clean hardware).
    pub fault_plan: Option<FaultPlan>,
    /// What to do when a machine fault is raised.
    pub policy: RecoveryPolicy,
    /// Watchdog cycle budget per attempt (`None` disarms it). The
    /// degraded scalar attempt runs unwatched: the fallback kernel is
    /// roughly an order of magnitude slower, so the accelerated budget
    /// would trip spuriously.
    pub watchdog: Option<u64>,
    /// Remaining cycle budget of the enclosing query deadline (`None`
    /// means no deadline). Kernels arm their watchdog with
    /// `min(watchdog, deadline)` so a runaway attempt cannot outlive
    /// the query budget; the serving layer converts the resulting
    /// watchdog fault into a typed deadline error.
    pub deadline: Option<u64>,
    /// Observability sink. Disabled by default; when enabled, every
    /// attempt emits a cycle-domain span (successful attempts as `kernel`
    /// spans with profile-region children, faulted attempts as `fault`
    /// spans) plus the run's event counters. The observer never touches
    /// the simulated machine, so enabling it cannot change cycle counts.
    pub observer: Observer,
    /// How cycles are attributed to addresses during the run.
    /// [`ProfileMode::Off`] keeps the pre-existing behaviour: profiling
    /// switches on (precisely) exactly when the observer is enabled.
    /// Setting a mode explicitly overrides that coupling —
    /// [`ProfileMode::Sampled`] in particular profiles with one threshold
    /// compare per step instead of a per-instruction map update, which is
    /// how the serving layer feeds `WeightModel::Profile` cheaply.
    pub profile: ProfileMode,
}

impl RunOptions {
    /// The watchdog budget an attempt actually runs under: the tighter
    /// of the per-attempt watchdog and the query deadline budget.
    pub fn effective_watchdog(&self) -> Option<u64> {
        match (self.watchdog, self.deadline) {
            (Some(w), Some(d)) => Some(w.min(d)),
            (w, d) => w.or(d),
        }
    }
}

/// Outcome of a simulated kernel run.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The computed result (set-operation output or sorted data).
    pub result: Vec<u32>,
    /// Simulated cycles (of the successful attempt).
    pub cycles: u64,
    /// Full run statistics (activity counters feed the power model).
    pub stats: RunStats,
    /// Encoded program size in bytes (instruction-memory footprint).
    pub program_bytes: u32,
    /// Re-run attempts consumed by the recovery policy.
    pub retries: u32,
    /// Whether the result came from the degraded scalar fallback.
    pub degraded: bool,
    /// Fault counters aggregated over every attempt.
    pub faults: FaultCounters,
    /// The last machine fault a retry or degrade recovered from.
    pub recovered_fault: Option<MachineFault>,
    /// Cycle-attribution profile of the successful attempt. Present when
    /// the run was observed ([`RunOptions::observer`]) or a profiling mode
    /// was requested explicitly ([`RunOptions::profile`]).
    pub profile: Option<ProfileSnapshot>,
}

impl KernelRun {
    /// Throughput in million elements per second at core frequency
    /// `f_mhz`, given the element count the paper's metric uses
    /// (`l_a + l_b` for set operations, `n` for sorting).
    pub fn throughput_meps(&self, elements: u64, f_mhz: f64) -> f64 {
        self.stats.throughput_meps(elements, f_mhz)
    }
}

fn align16(x: u32) -> u32 {
    (x + 15) & !15
}

fn validate_set(name: &str, s: &[u32]) -> Result<(), SimError> {
    for w in s.windows(2) {
        if w[0] >= w[1] {
            return Err(SimError::BadProgram(format!(
                "set {name} is not strictly increasing at value {}",
                w[1]
            )));
        }
    }
    if s.last().copied() == Some(SENTINEL) {
        return Err(SimError::BadProgram(format!(
            "set {name} contains the sentinel value u32::MAX"
        )));
    }
    Ok(())
}

/// Builds the processor for a model (with extension attached when present).
pub fn build_processor(model: ProcModel) -> Result<Processor, SimError> {
    build_processor_with(model, None)
}

/// Like [`build_processor`], optionally overriding the local-memory
/// protection scheme of the model's configuration.
pub fn build_processor_with(
    model: ProcModel,
    protection: Option<ProtectionKind>,
) -> Result<Processor, SimError> {
    let mut cfg = model.cpu_config();
    if let Some(pk) = protection {
        cfg.dmem_protection = pk;
    }
    let mut p = Processor::new(cfg)?;
    if let Some(wiring) = model.wiring() {
        p.attach_extension(Box::new(DbExtension::new(wiring)));
    }
    Ok(p)
}

/// Emits the kernel span (with profile-region children when profiling
/// was on) and the run's event counters for one successful attempt.
#[allow(clippy::too_many_arguments)]
fn emit_run_observation(
    obs: &Observer,
    kernel: &str,
    model: ProcModel,
    snap: Option<&ProfileSnapshot>,
    stats: &RunStats,
    elements: u64,
    rows_out: u64,
    attempt: u32,
) {
    if !obs.is_enabled() {
        return;
    }
    emit_kernel_run(
        obs,
        kernel,
        stats,
        snap,
        &[
            ("model", ArgValue::from(model.name())),
            ("elements", elements.into()),
            ("rows_out", rows_out.into()),
            ("attempt", u64::from(attempt).into()),
        ],
    );
}

/// Emits a `fault`-category span for an attempt a machine fault cut
/// short, so retries and degrades stay visible on the timeline.
fn emit_fault_observation(
    obs: &Observer,
    kernel: &str,
    model: ProcModel,
    p: &Processor,
    mf: &MachineFault,
    attempt: u32,
) {
    if !obs.is_enabled() {
        return;
    }
    obs.place(kernel, "fault", p.cycles, || {
        vec![
            ("model", ArgValue::from(model.name())),
            ("cause", format!("{:?}", mf.cause).into()),
            ("attempt", u64::from(attempt).into()),
        ]
    });
    for (name, value) in p.counters.named() {
        if value != 0 {
            obs.counter(name, value as f64);
        }
    }
}

/// The trusted fallback model for [`RecoveryPolicy::DegradeToScalar`]:
/// the same core with the EIS datapath switched off. Scalar models
/// degrade to themselves (a clean re-run on the plain pipeline).
pub fn scalar_fallback(model: ProcModel) -> ProcModel {
    match model {
        ProcModel::Dba1LsuEis { .. } => ProcModel::Dba1Lsu,
        ProcModel::Dba2LsuEis { .. } => ProcModel::Dba2Lsu,
        m => m,
    }
}

/// Chooses where the two sets and the result live for a model — the
/// exact layout [`run_set_op_with`] places data with. Public so analysis
/// layers (profile-guided DSE) can rebuild the *same* program the runner
/// executed and map profile addresses back onto it.
pub fn set_layout(model: ProcModel, a_len: u32, b_len: u32) -> Result<SetLayout, SimError> {
    let (a_base, b_base, c_base, limit): (u32, u32, u32, u32) = match model {
        ProcModel::Mini108 => {
            let a = SYSMEM_BASE;
            let b = align16(a + 4 * a_len);
            let c = align16(b + 4 * b_len);
            (a, b, c, u32::MAX)
        }
        ProcModel::Dba1Lsu | ProcModel::Dba1LsuEis { .. } => {
            let a = DMEM0_BASE;
            let b = align16(a + 4 * a_len);
            let c = align16(b + 4 * b_len);
            (a, b, c, DMEM0_BASE + 64 * 1024)
        }
        // Plain DBA_2LSU: the scalar compiler "is not able to make use"
        // of the second unit, so everything lives in DMEM0 (32 KiB).
        ProcModel::Dba2Lsu => {
            let a = DMEM0_BASE;
            let b = align16(a + 4 * a_len);
            let c = align16(b + 4 * b_len);
            (a, b, c, DMEM0_BASE + 32 * 1024)
        }
        ProcModel::Dba2LsuEis { .. } => {
            // Set A in DMEM0; set B and the result in DMEM1 (Figures 8/9).
            let a = DMEM0_BASE;
            let b = DMEM1_BASE;
            let c = align16(b + 4 * b_len);
            if 4 * a_len > 32 * 1024 {
                return Err(SimError::BadProgram(format!(
                    "set A of {a_len} elements exceeds the 32 KiB DMEM0"
                )));
            }
            (a, b, c, DMEM1_BASE + 32 * 1024)
        }
    };
    let c_worst = c_base + 4 * (a_len + b_len);
    if c_worst > limit {
        return Err(SimError::BadProgram(format!(
            "sets of {a_len}+{b_len} elements do not fit the local data memory"
        )));
    }
    Ok(SetLayout {
        a_base,
        a_len,
        b_base,
        b_len,
        c_base,
    })
}

/// Runs a sorted-set operation on the given processor model and returns
/// the result with cycle counts. Inputs must be strictly increasing.
pub fn run_set_op(
    model: ProcModel,
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
) -> Result<KernelRun, SimError> {
    run_set_op_with(model, kind, a, b, &RunOptions::default())
}

/// [`run_set_op`] with resilience options: protection override, fault
/// injection, watchdog, and a recovery policy that retries or degrades to
/// the scalar baseline when a machine fault interrupts the kernel.
pub fn run_set_op_with(
    model: ProcModel,
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
    opts: &RunOptions,
) -> Result<KernelRun, SimError> {
    validate_set("A", a)?;
    validate_set("B", b)?;
    let layout = set_layout(model, a.len() as u32, b.len() as u32)?;
    // Memoized assembly: the program depends only on (model, kind,
    // layout), so bench sweeps and the retry loop below reuse one image.
    let cached = progcache::get_or_assemble(
        progcache::ProgKey::SetOp {
            model,
            kind,
            layout,
        },
        || {
            let program = match model.wiring() {
                Some(wiring) => {
                    hwset::set_op_program(kind, &wiring, &layout, hwset::DEFAULT_UNROLL)?
                }
                None => scalar::set_op_program(kind, &layout)?,
            };
            preflight_check(&program, model)?;
            Ok(progcache::CachedProgram {
                program: Arc::new(program),
                in_dst: false,
            })
        },
    )?;
    let program = cached.program;
    let program_bytes = program.size_bytes();

    let mut attempt = 0u32;
    let mut faults = FaultCounters::default();
    let mut recovered: Option<MachineFault> = None;
    loop {
        // Each attempt starts from clean hardware and re-placed inputs —
        // the checkpoint here is the kernel boundary itself.
        let mut p = build_processor_with(model, opts.protection)?;
        match opts.profile {
            // Back-compat coupling: an observed run is profiled precisely.
            ProfileMode::Off if opts.observer.is_enabled() => p.enable_profiling(),
            mode => p.set_profile_mode(mode),
        }
        p.load_program_shared(Arc::clone(&program))?;
        p.mem.poke_words(layout.a_base, a)?;
        p.mem.poke_words(layout.b_base, b)?;
        if attempt == 0 {
            if let Some(plan) = &opts.fault_plan {
                p.set_fault_plan(plan.clone());
            }
        }
        p.set_watchdog(opts.effective_watchdog());
        match p.run(MAX_CYCLES) {
            Ok(stats) => {
                let out_len = if model.has_eis() {
                    p.ar[2] as usize
                } else {
                    ((p.ar[6] - layout.c_base) / 4) as usize
                };
                let result = p.mem.peek_words(layout.c_base, out_len)?;
                faults.merge(&p.fault_counters());
                let profile = p
                    .profile()
                    .zip(p.program())
                    .map(|(pr, prog)| pr.snapshot(prog));
                emit_run_observation(
                    &opts.observer,
                    kind.name(),
                    model,
                    profile.as_ref(),
                    &stats,
                    (a.len() + b.len()) as u64,
                    result.len() as u64,
                    attempt,
                );
                return Ok(KernelRun {
                    result,
                    cycles: stats.cycles,
                    program_bytes,
                    stats,
                    retries: attempt,
                    degraded: false,
                    faults,
                    recovered_fault: recovered,
                    profile,
                });
            }
            Err(SimError::Fault(mf)) => {
                faults.merge(&p.fault_counters());
                emit_fault_observation(&opts.observer, kind.name(), model, &p, &mf, attempt);
                recovered = Some(mf.clone());
                if attempt < opts.policy.max_retries() {
                    attempt += 1;
                    continue;
                }
                if matches!(opts.policy, RecoveryPolicy::DegradeToScalar { .. }) {
                    let fallback = RunOptions {
                        protection: opts.protection,
                        observer: opts.observer.clone(),
                        profile: opts.profile,
                        ..RunOptions::default()
                    };
                    let mut run = run_set_op_with(scalar_fallback(model), kind, a, b, &fallback)?;
                    run.retries = attempt;
                    run.degraded = true;
                    run.faults.merge(&faults);
                    run.recovered_fault = recovered;
                    return Ok(run);
                }
                return Err(SimError::Fault(mf));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs merge-sort on the given processor model.
///
/// For `DBA_2LSU_EIS` the kernel runs on the single-LSU memory arrangement
/// — the paper notes that "partial loading as well as two load–store units
/// are not beneficial for sorting" and its Table 2 entry for the 2-LSU
/// core is the 1-LSU cycle count at the 2-LSU core frequency.
pub fn run_sort(model: ProcModel, data: &[u32]) -> Result<KernelRun, SimError> {
    run_sort_with(model, data, &RunOptions::default())
}

/// [`run_sort`] with resilience options (see [`run_set_op_with`]).
pub fn run_sort_with(
    model: ProcModel,
    data: &[u32],
    opts: &RunOptions,
) -> Result<KernelRun, SimError> {
    // Pad to a multiple of 4 with sentinels (stripped after sorting).
    let mut padded = data.to_vec();
    let pad = (4 - data.len() % 4) % 4;
    if pad > 0 {
        if data.contains(&SENTINEL) {
            return Err(SimError::BadProgram(
                "sort input whose length is not a multiple of 4 must not contain u32::MAX"
                    .to_string(),
            ));
        }
        padded.resize(data.len() + pad, SENTINEL);
    }
    if padded.is_empty() {
        return Ok(KernelRun {
            result: Vec::new(),
            cycles: 0,
            stats: RunStats {
                cycles: 0,
                halted: true,
                counters: Default::default(),
            },
            program_bytes: 0,
            retries: 0,
            degraded: false,
            faults: FaultCounters::default(),
            recovered_fault: None,
            profile: None,
        });
    }
    let n = padded.len() as u32;

    let exec_model = match model {
        // Sort always uses the 1-LSU arrangement (see doc comment).
        ProcModel::Dba2LsuEis { partial } => ProcModel::Dba1LsuEis { partial },
        ProcModel::Dba2Lsu => ProcModel::Dba1Lsu,
        m => m,
    };
    let (src, dst, limit): (u32, u32, u32) = match exec_model {
        ProcModel::Mini108 => (SYSMEM_BASE, align16(SYSMEM_BASE + 4 * n), u32::MAX),
        _ => (
            DMEM0_BASE,
            align16(DMEM0_BASE + 4 * n),
            DMEM0_BASE + 64 * 1024,
        ),
    };
    if align16(dst + 4 * n) > limit {
        return Err(SimError::BadProgram(format!(
            "{n} elements do not fit the ping-pong sort buffers in local memory"
        )));
    }

    let layout = SortLayout { src, dst, n };
    let cached = progcache::get_or_assemble(
        progcache::ProgKey::Sort {
            model: exec_model,
            layout,
        },
        || {
            let (program, in_dst) = match exec_model.wiring() {
                Some(wiring) => hwsort::merge_sort_program(&wiring, &layout)?,
                None => scalar::merge_sort_program(src, dst, n)?,
            };
            preflight_check(&program, exec_model)?;
            Ok(progcache::CachedProgram {
                program: Arc::new(program),
                in_dst,
            })
        },
    )?;
    let (program, in_dst) = (cached.program, cached.in_dst);
    let program_bytes = program.size_bytes();

    let mut attempt = 0u32;
    let mut faults = FaultCounters::default();
    let mut recovered: Option<MachineFault> = None;
    loop {
        let mut p = build_processor_with(exec_model, opts.protection)?;
        match opts.profile {
            // Back-compat coupling: an observed run is profiled precisely.
            ProfileMode::Off if opts.observer.is_enabled() => p.enable_profiling(),
            mode => p.set_profile_mode(mode),
        }
        p.load_program_shared(Arc::clone(&program))?;
        p.mem.poke_words(src, &padded)?;
        if attempt == 0 {
            if let Some(plan) = &opts.fault_plan {
                p.set_fault_plan(plan.clone());
            }
        }
        p.set_watchdog(opts.effective_watchdog());
        match p.run(MAX_CYCLES) {
            Ok(stats) => {
                let mut result = p
                    .mem
                    .peek_words(if in_dst { dst } else { src }, n as usize)?;
                result.truncate(data.len()); // strip sentinel padding
                faults.merge(&p.fault_counters());
                let profile = p
                    .profile()
                    .zip(p.program())
                    .map(|(pr, prog)| pr.snapshot(prog));
                emit_run_observation(
                    &opts.observer,
                    "sort",
                    model,
                    profile.as_ref(),
                    &stats,
                    data.len() as u64,
                    result.len() as u64,
                    attempt,
                );
                return Ok(KernelRun {
                    result,
                    cycles: stats.cycles,
                    program_bytes,
                    stats,
                    retries: attempt,
                    degraded: false,
                    faults,
                    recovered_fault: recovered,
                    profile,
                });
            }
            Err(SimError::Fault(mf)) => {
                faults.merge(&p.fault_counters());
                emit_fault_observation(&opts.observer, "sort", model, &p, &mf, attempt);
                recovered = Some(mf.clone());
                if attempt < opts.policy.max_retries() {
                    attempt += 1;
                    continue;
                }
                if matches!(opts.policy, RecoveryPolicy::DegradeToScalar { .. }) {
                    let fallback = RunOptions {
                        protection: opts.protection,
                        observer: opts.observer.clone(),
                        profile: opts.profile,
                        ..RunOptions::default()
                    };
                    let mut run = run_sort_with(scalar_fallback(model), data, &fallback)?;
                    run.retries = attempt;
                    run.degraded = true;
                    run.faults.merge(&faults);
                    run.recovered_fault = recovered;
                    return Ok(run);
                }
                return Err(SimError::Fault(mf));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evens(n: u32) -> Vec<u32> {
        (0..n).map(|i| 2 * i).collect()
    }

    fn thirds(n: u32) -> Vec<u32> {
        (0..n).map(|i| 3 * i).collect()
    }

    #[test]
    fn all_models_agree_on_set_ops() {
        let a = evens(200);
        let b = thirds(150);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let reference = run_set_op(ProcModel::Mini108, kind, &a, &b).unwrap().result;
            for m in ProcModel::all().into_iter().skip(1) {
                let r = run_set_op(m, kind, &a, &b).unwrap();
                assert_eq!(r.result, reference, "{} {kind:?}", m.name());
            }
        }
    }

    #[test]
    fn all_models_agree_on_sort() {
        let mut data: Vec<u32> = (0..500).map(|i: u32| i.wrapping_mul(2654435761)).collect();
        data.truncate(497); // non-multiple-of-4 length
        let mut expect = data.clone();
        expect.sort_unstable();
        for m in ProcModel::all() {
            let r = run_sort(m, &data).unwrap();
            assert_eq!(r.result, expect, "{}", m.name());
        }
    }

    #[test]
    fn eis_is_an_order_of_magnitude_faster_than_scalar() {
        // The paper's headline: EIS throughput is ~10x the scalar local-
        // store core on the same frequency class (Table 2).
        let a = evens(2000);
        let b: Vec<u32> = (0..2000u32).map(|i| 2 * i + (i % 2)).collect();
        let scalar = run_set_op(ProcModel::Dba1Lsu, SetOpKind::Intersect, &a, &b).unwrap();
        let eis = run_set_op(
            ProcModel::Dba1LsuEis { partial: true },
            SetOpKind::Intersect,
            &a,
            &b,
        )
        .unwrap();
        assert_eq!(scalar.result, eis.result);
        let speedup = scalar.cycles as f64 / eis.cycles as f64;
        assert!(
            speedup > 8.0,
            "expected >8x cycle speedup, got {speedup:.1}x"
        );
    }

    #[test]
    fn mini108_is_slower_than_local_store_core() {
        let a = evens(1000);
        let b = thirds(1000);
        let mini = run_set_op(ProcModel::Mini108, SetOpKind::Intersect, &a, &b).unwrap();
        let dba = run_set_op(ProcModel::Dba1Lsu, SetOpKind::Intersect, &a, &b).unwrap();
        assert!(
            mini.cycles as f64 > 1.4 * dba.cycles as f64,
            "cache path must cost more: {} vs {}",
            mini.cycles,
            dba.cycles
        );
    }

    #[test]
    fn unsorted_input_rejected() {
        let e = run_set_op(ProcModel::Dba1Lsu, SetOpKind::Intersect, &[3, 1], &[1]).unwrap_err();
        assert!(matches!(e, SimError::BadProgram(_)));
        let e = run_set_op(ProcModel::Dba1Lsu, SetOpKind::Intersect, &[1, 1], &[1]).unwrap_err();
        assert!(
            matches!(e, SimError::BadProgram(_)),
            "duplicates are not sets"
        );
    }

    #[test]
    fn oversized_input_rejected_for_local_store() {
        let big: Vec<u32> = (0..9000).collect();
        let e = run_set_op(ProcModel::Dba1Lsu, SetOpKind::Union, &big, &big).unwrap_err();
        assert!(matches!(e, SimError::BadProgram(_)));
    }

    #[test]
    fn empty_inputs() {
        let r = run_set_op(
            ProcModel::Dba2LsuEis { partial: true },
            SetOpKind::Union,
            &[],
            &[7],
        )
        .unwrap();
        assert_eq!(r.result, vec![7]);
        let r = run_sort(ProcModel::Dba1LsuEis { partial: false }, &[]).unwrap();
        assert!(r.result.is_empty());
    }

    #[test]
    fn retry_recovers_a_parity_trap_bit_identically() {
        use dbx_faults::FaultTarget;
        let a = evens(500);
        let b = thirds(400);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let clean = run_set_op(model, SetOpKind::Intersect, &a, &b).unwrap();
        let opts = RunOptions {
            protection: Some(ProtectionKind::Parity),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 17, 5)),
            policy: RecoveryPolicy::Retry { max_retries: 2 },
            watchdog: None,
            ..Default::default()
        };
        let r = run_set_op_with(model, SetOpKind::Intersect, &a, &b, &opts).unwrap();
        assert_eq!(r.result, clean.result, "retry reproduces the clean result");
        assert_eq!(r.retries, 1, "one faulting attempt, one clean re-run");
        assert!(!r.degraded);
        assert!(r.faults.detected >= 1);
        assert!(
            matches!(
                r.recovered_fault.as_ref().map(|mf| &mf.cause),
                Some(dbx_cpu::FaultCause::ParityError { .. })
            ),
            "recovered fault records the parity trap"
        );
    }

    #[test]
    fn retries_assemble_the_kernel_once() {
        use dbx_faults::FaultTarget;
        // Sizes unique to this test so its cache key is untouched by
        // concurrently running tests.
        let a = evens(257);
        let b = thirds(193);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let key = progcache::ProgKey::SetOp {
            model,
            kind: SetOpKind::Intersect,
            layout: set_layout(model, a.len() as u32, b.len() as u32).unwrap(),
        };
        let opts = RunOptions {
            protection: Some(ProtectionKind::Parity),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 17, 5)),
            policy: RecoveryPolicy::Retry { max_retries: 2 },
            ..Default::default()
        };
        let r = run_set_op_with(model, SetOpKind::Intersect, &a, &b, &opts).unwrap();
        assert!(r.retries >= 1, "the fault plan must actually trip a retry");
        assert_eq!(
            progcache::assemblies_for(&key),
            1,
            "a run with retries assembles its kernel exactly once"
        );
        // A second identical run is a pure cache hit.
        run_set_op_with(model, SetOpKind::Intersect, &a, &b, &opts).unwrap();
        assert_eq!(progcache::assemblies_for(&key), 1);
    }

    #[test]
    fn secded_corrects_in_place_without_retrying() {
        use dbx_faults::FaultTarget;
        let a = evens(500);
        let b = thirds(400);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let clean = run_set_op(model, SetOpKind::Intersect, &a, &b).unwrap();
        let opts = RunOptions {
            protection: Some(ProtectionKind::Secded),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 17, 5)),
            policy: RecoveryPolicy::FailFast,
            watchdog: None,
            ..Default::default()
        };
        let r = run_set_op_with(model, SetOpKind::Intersect, &a, &b, &opts).unwrap();
        assert_eq!(r.result, clean.result);
        assert_eq!(r.retries, 0, "ECC needs no re-run");
        assert!(r.faults.corrected >= 1);
        assert_eq!(r.faults.escaped, 0);
    }

    #[test]
    fn fail_fast_surfaces_the_machine_fault() {
        use dbx_faults::FaultTarget;
        let a = evens(500);
        let b = thirds(400);
        let opts = RunOptions {
            protection: Some(ProtectionKind::Parity),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 17, 5)),
            policy: RecoveryPolicy::FailFast,
            watchdog: None,
            ..Default::default()
        };
        let e = run_set_op_with(
            ProcModel::Dba2LsuEis { partial: true },
            SetOpKind::Intersect,
            &a,
            &b,
            &opts,
        )
        .unwrap_err();
        assert!(e.is_machine_fault(), "got {e}");
    }

    #[test]
    fn degrade_to_scalar_survives_a_persistently_hung_kernel() {
        let a = evens(300);
        let b = thirds(300);
        let model = ProcModel::Dba1LsuEis { partial: false };
        let clean = run_set_op(model, SetOpKind::Union, &a, &b).unwrap();
        // A 10-cycle watchdog trips every accelerated attempt; the scalar
        // fallback runs unwatched and must still produce the right answer.
        let opts = RunOptions {
            protection: None,
            fault_plan: None,
            policy: RecoveryPolicy::DegradeToScalar { max_retries: 1 },
            watchdog: Some(10),
            ..Default::default()
        };
        let r = run_set_op_with(model, SetOpKind::Union, &a, &b, &opts).unwrap();
        assert_eq!(r.result, clean.result);
        assert!(r.degraded, "result must come from the scalar fallback");
        assert_eq!(r.retries, 1);
        assert!(matches!(
            r.recovered_fault.as_ref().map(|mf| &mf.cause),
            Some(dbx_cpu::FaultCause::Watchdog { budget: 10 })
        ));
    }

    #[test]
    fn effective_watchdog_takes_the_tighter_budget() {
        let mk = |watchdog, deadline| RunOptions {
            watchdog,
            deadline,
            ..Default::default()
        };
        assert_eq!(mk(None, None).effective_watchdog(), None);
        assert_eq!(mk(Some(100), None).effective_watchdog(), Some(100));
        assert_eq!(mk(None, Some(50)).effective_watchdog(), Some(50));
        assert_eq!(mk(Some(100), Some(50)).effective_watchdog(), Some(50));
        assert_eq!(mk(Some(30), Some(50)).effective_watchdog(), Some(30));
    }

    #[test]
    fn an_exhausted_deadline_trips_the_watchdog() {
        // A 10-cycle deadline budget, no explicit watchdog: the kernel
        // must fault with a watchdog trip at the deadline budget.
        let a = evens(300);
        let b = thirds(300);
        let opts = RunOptions {
            deadline: Some(10),
            ..Default::default()
        };
        let err = run_set_op_with(
            ProcModel::Dba1LsuEis { partial: false },
            SetOpKind::Union,
            &a,
            &b,
            &opts,
        )
        .unwrap_err();
        match err {
            SimError::Fault(mf) => {
                assert!(matches!(
                    mf.cause,
                    dbx_cpu::FaultCause::Watchdog { budget: 10 }
                ))
            }
            other => panic!("expected a watchdog fault, got {other:?}"),
        }
    }

    #[test]
    fn sort_retry_recovers_like_set_ops() {
        use dbx_faults::FaultTarget;
        let data: Vec<u32> = (0..600).map(|i: u32| i.wrapping_mul(2654435761)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let opts = RunOptions {
            protection: Some(ProtectionKind::Parity),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 41, 11)),
            policy: RecoveryPolicy::Retry { max_retries: 2 },
            watchdog: None,
            ..Default::default()
        };
        let r = run_sort_with(ProcModel::Dba1LsuEis { partial: true }, &data, &opts).unwrap();
        assert_eq!(r.result, expect);
        assert!(r.retries >= 1);
    }

    #[test]
    fn paper_sized_intersection_runs() {
        // The paper's set-operation experiment size: 2500 elements/set.
        let a: Vec<u32> = (0..2500).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..2500).map(|i| 2 * i + (i % 2)).collect(); // 50% overlap
        let r = run_set_op(
            ProcModel::Dba2LsuEis { partial: true },
            SetOpKind::Intersect,
            &a,
            &b,
        )
        .unwrap();
        // Throughput at the paper's 410 MHz should land in the paper's
        // regime (Table 2 reports 1203 M elements/s at 50% selectivity).
        let meps = r.throughput_meps(5000, 410.0);
        assert!(
            (900.0..1700.0).contains(&meps),
            "throughput {meps:.0} M elements/s out of the expected regime"
        );
    }
}
