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
//!
//! Every runner is a job constructor: it validates its inputs, picks the
//! memory layout and the cached program, and hands a `KernelJob` to the
//! one driver, `run_job`, which stages, runs, reads back and recovers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

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
use dbx_mem::MemError;
use dbx_observe::{ArgValue, Observer};

/// Cycle budget for a single kernel run — generous; kernels that exceed it
/// are broken, not slow.
pub(crate) const MAX_CYCLES: u64 = 2_000_000_000;

/// Whether runners statically verify programs before simulating them.
static PREFLIGHT: AtomicBool = AtomicBool::new(false);

/// Opts all subsequent kernel runs in this process into the static
/// pre-flight verifier (`dbx-analysis`): error-severity findings abort the
/// run with [`SimError::BadProgram`] before a single cycle is simulated.
/// Also enabled by setting the `DBX_PREFLIGHT` environment variable to
/// anything but `0`; the variable is read once per process, and
/// `set_preflight(true)` turns the verifier on whatever it says.
pub fn set_preflight(on: bool) {
    PREFLIGHT.store(on, Ordering::Relaxed);
}

fn preflight_enabled() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    PREFLIGHT.load(Ordering::Relaxed)
        || *FROM_ENV.get_or_init(|| std::env::var_os("DBX_PREFLIGHT").is_some_and(|v| v != "0"))
}

/// Runs the static verifier over `program` as it will execute on `model`,
/// when pre-flight is enabled. The driver calls it on every job, cached
/// kernel or not, so a kernel assembled before pre-flight was switched on
/// is verified too; the stream calls it on its chunk kernel. Warnings are
/// ignored here; `dbx-lint` surfaces them interactively.
pub(crate) fn preflight_check(program: &Program, model: ProcModel) -> Result<(), SimError> {
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

/// A [`RecoveryPolicy`]'s decision after a faulted attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recovery {
    /// Re-run the kernel on clean hardware.
    Retry,
    /// Recompute on the trusted [`scalar_fallback`] model.
    Degrade,
    /// Surface the fault.
    Fail,
}

impl RecoveryPolicy {
    /// What to do once attempt `attempt` (0 for the first run) faulted.
    pub(crate) fn next(&self, attempt: u32) -> Recovery {
        let (retries, then) = match *self {
            RecoveryPolicy::FailFast => (0, Recovery::Fail),
            RecoveryPolicy::Retry { max_retries } => (max_retries, Recovery::Fail),
            RecoveryPolicy::DegradeToScalar { max_retries } => (max_retries, Recovery::Degrade),
        };
        if attempt < retries {
            Recovery::Retry
        } else {
            then
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

    /// The options of a degraded run on the [`scalar_fallback`] model:
    /// the protection override, observer and profile mode carry over;
    /// the fault plan, watchdog and deadline do not, and it fails fast.
    pub(crate) fn fallback(&self) -> RunOptions {
        RunOptions {
            protection: self.protection,
            observer: self.observer.clone(),
            profile: self.profile,
            ..RunOptions::default()
        }
    }
}

/// Outcome of a simulated kernel run.
#[derive(Debug, Clone, Default)]
pub struct KernelRun {
    /// The computed result (set-operation output, sorted data, or the
    /// one-word sum).
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

    /// The answer to an empty input, known without running a kernel.
    fn empty(result: Vec<u32>) -> KernelRun {
        let stats = RunStats {
            halted: true,
            ..RunStats::default()
        };
        KernelRun {
            result,
            stats,
            ..KernelRun::default()
        }
    }
}

pub(crate) fn align16(x: u32) -> u32 {
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

/// Where `model` stages kernel data and how much room it has there: the
/// base of its first data memory and the bytes one local memory holds.
/// The cached 108Mini stages into system memory, which has no local-store
/// bound (`None`). Set-op, sort and sum capacities all derive from this.
fn local_store(model: ProcModel) -> (u32, Option<u32>) {
    match model {
        ProcModel::Mini108 => (SYSMEM_BASE, None),
        ProcModel::Dba1Lsu | ProcModel::Dba1LsuEis { .. } => (DMEM0_BASE, Some(64 * 1024)),
        ProcModel::Dba2Lsu | ProcModel::Dba2LsuEis { .. } => (DMEM0_BASE, Some(32 * 1024)),
    }
}

/// Chooses where the two sets and the result live for a model — the
/// exact layout [`run_set_op_with`] places data with. Public so analysis
/// layers (profile-guided DSE) can rebuild the *same* program the runner
/// executed and map profile addresses back onto it.
pub fn set_layout(model: ProcModel, a_len: u32, b_len: u32) -> Result<SetLayout, SimError> {
    let (base, bytes) = local_store(model);
    let cap = bytes.unwrap_or(u32::MAX);
    // `b_mem` is the memory set B and the result share.
    let (a_base, b_base, b_mem) = match model {
        // Set A in DMEM0; set B and the result in DMEM1 (Figures 8/9).
        ProcModel::Dba2LsuEis { .. } => {
            if 4 * a_len > cap {
                return Err(SimError::BadProgram(format!(
                    "set A of {a_len} elements exceeds the 32 KiB DMEM0"
                )));
            }
            (base, DMEM1_BASE, DMEM1_BASE)
        }
        // Everything in one memory. Plain DBA_2LSU's scalar compiler "is
        // not able to make use" of the second unit, so it gets DMEM0 only.
        _ => (base, align16(base + 4 * a_len), base),
    };
    let c_base = align16(b_base + 4 * b_len);
    if c_base + 4 * (a_len + b_len) > b_mem.saturating_add(cap) {
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

/// Where a finished kernel leaves its result. Every rule reads at most
/// the space the job reserved: a claimed length past it (or a cursor
/// below its base) can only come from a corrupted register — an injected
/// upset, say — and is reported as the out-of-bounds last result word
/// rather than read back.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Readback {
    /// The EIS set-op kernels count their results, written from `base`,
    /// in `a2`.
    Count { base: u32, reserved: u32 },
    /// The scalar set-op kernels leave their output cursor, which started
    /// at `base`, in `a6`.
    Cursor { base: u32, reserved: u32 },
    /// The sort: `len` words at `base` (the sentinel padding after them
    /// stays behind).
    Fixed { base: u32, len: usize },
    /// The sum: the value of `a2`.
    Register,
}

impl Readback {
    /// The result a halted processor holds under this rule.
    pub(crate) fn read(&self, p: &mut Processor) -> Result<Vec<u32>, SimError> {
        let (base, reserved, len, end) = match *self {
            Readback::Register => return Ok(vec![p.ar[2]]),
            Readback::Fixed { base, len } => return p.mem.peek_words(base, len),
            Readback::Count { base, reserved } => {
                let end = base.wrapping_add(p.ar[2].wrapping_mul(4));
                (base, reserved, Some(p.ar[2]), end)
            }
            Readback::Cursor { base, reserved } => {
                let len = p.ar[6].checked_sub(base).map(|d| d / 4);
                (base, reserved, len, p.ar[6])
            }
        };
        match len {
            Some(n) if n <= reserved => p.mem.peek_words(base, n as usize),
            _ => Err(SimError::Mem(MemError::OutOfBounds {
                addr: end.wrapping_sub(4),
                len: 4,
                base,
                size: 4 * reserved as usize,
            })),
        }
    }
}

/// One kernel as the driver runs it: the program, the inputs staged
/// before every attempt (borrowed, never copied) and the readback rule.
pub(crate) struct KernelJob<'a> {
    /// The model whose processor runs the program (a sort runs on the
    /// 1-LSU form of its model).
    exec: ProcModel,
    /// Name of the run's observation span.
    name: &'static str,
    program: Arc<Program>,
    /// `(address, words)` written into memory before each attempt.
    stages: Vec<(u32, &'a [u32])>,
    readback: Readback,
    /// Input elements, as the observation reports them.
    elements: u64,
}

/// The one kernel driver. Builds `job(model)`, verifies its program once
/// (when pre-flight is on), then runs attempts on fresh hardware: build
/// the processor, couple profiling, load, stage, arm the fault plan
/// (first attempt only) and the watchdog, run, read back, and account
/// and observe the attempt. After a machine fault it asks the recovery
/// policy what next; a degrade rebuilds the job for
/// [`scalar_fallback`]`(model)` and runs it under
/// [`RunOptions::fallback`]. Observations name `model`, the caller's.
fn run_job<'a>(
    model: ProcModel,
    job: &dyn Fn(ProcModel) -> Result<KernelJob<'a>, SimError>,
    opts: &RunOptions,
) -> Result<KernelRun, SimError> {
    let j = job(model)?;
    preflight_check(&j.program, j.exec)?;
    let obs = &opts.observer;
    let mut faults = FaultCounters::default();
    let mut recovered = None;
    let mut attempt = 0u32;
    loop {
        // Each attempt starts from clean hardware and re-placed inputs —
        // the checkpoint here is the kernel boundary itself.
        let mut p = build_processor_with(j.exec, opts.protection)?;
        match opts.profile {
            // Back-compat coupling: an observed run is profiled precisely.
            ProfileMode::Off if obs.is_enabled() => p.enable_profiling(),
            mode => p.set_profile_mode(mode),
        }
        p.load_program_shared(Arc::clone(&j.program))?;
        for &(addr, words) in &j.stages {
            p.mem.poke_words(addr, words)?;
        }
        if attempt == 0 {
            if let Some(plan) = &opts.fault_plan {
                p.set_fault_plan(plan.clone());
            }
        }
        p.set_watchdog(opts.effective_watchdog());
        let mf = match p.run(MAX_CYCLES) {
            Ok(stats) => {
                let result = j.readback.read(&mut p)?;
                faults.merge(&p.fault_counters());
                let profile = p
                    .profile()
                    .zip(p.program())
                    .map(|(pr, prog)| pr.snapshot(prog));
                if obs.is_enabled() {
                    emit_kernel_run(
                        obs,
                        j.name,
                        &stats,
                        profile.as_ref(),
                        &[
                            ("model", ArgValue::from(model.name())),
                            ("elements", j.elements.into()),
                            ("rows_out", (result.len() as u64).into()),
                            ("attempt", u64::from(attempt).into()),
                        ],
                    );
                }
                return Ok(KernelRun {
                    result,
                    cycles: stats.cycles,
                    stats,
                    program_bytes: j.program.size_bytes(),
                    retries: attempt,
                    degraded: false,
                    faults,
                    recovered_fault: recovered,
                    profile,
                });
            }
            Err(SimError::Fault(mf)) => mf,
            Err(e) => return Err(e),
        };
        faults.merge(&p.fault_counters());
        if obs.is_enabled() {
            // A `fault` span keeps retries and degrades visible.
            obs.place(j.name, "fault", p.cycles, || {
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
        match opts.policy.next(attempt) {
            Recovery::Retry => {
                recovered = Some(mf);
                attempt += 1;
            }
            Recovery::Degrade => {
                let mut run = run_job(scalar_fallback(model), job, &opts.fallback())?;
                run.retries = attempt;
                run.degraded = true;
                run.faults.merge(&faults);
                run.recovered_fault = Some(mf);
                return Ok(run);
            }
            Recovery::Fail => return Err(SimError::Fault(mf)),
        }
    }
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
    run_job(model, &|m| set_op_job(m, kind, a, b), opts)
}

/// The set-operation job on `model`: both sets staged at [`set_layout`],
/// and the (model, kind) kernel template patched for that layout — it is
/// assembled once and reused by every layout and attempt.
fn set_op_job<'a>(
    model: ProcModel,
    kind: SetOpKind,
    a: &'a [u32],
    b: &'a [u32],
) -> Result<KernelJob<'a>, SimError> {
    validate_set("A", a)?;
    validate_set("B", b)?;
    let layout = set_layout(model, a.len() as u32, b.len() as u32)?;
    let template = progcache::set_op_template(model, kind, || match model.wiring() {
        Some(wiring) => hwset::set_op_template(kind, &wiring, hwset::DEFAULT_UNROLL),
        None => scalar::set_op_template(kind),
    })?;
    let (base, reserved) = (layout.c_base, layout.a_len + layout.b_len);
    Ok(KernelJob {
        exec: model,
        name: kind.name(),
        program: Arc::new(template.patch(&layout)?),
        stages: vec![(layout.a_base, a), (layout.b_base, b)],
        readback: if model.has_eis() {
            Readback::Count { base, reserved }
        } else {
            Readback::Cursor { base, reserved }
        },
        elements: (a.len() + b.len()) as u64,
    })
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
    if data.is_empty() {
        return Ok(KernelRun::empty(Vec::new()));
    }
    run_job(model, &|m| sort_job(m, data), opts)
}

/// The sort job on `model`: `data` staged into the ping-pong buffers of
/// the model's 1-LSU form, padded to a multiple of 4 with sentinels that
/// the readback leaves behind.
fn sort_job(model: ProcModel, data: &[u32]) -> Result<KernelJob<'_>, SimError> {
    let pad = (4 - data.len() % 4) % 4;
    if pad > 0 && data.contains(&SENTINEL) {
        return Err(SimError::BadProgram(
            "sort input whose length is not a multiple of 4 must not contain u32::MAX".to_string(),
        ));
    }
    let n = (data.len() + pad) as u32;
    let exec = match model {
        // Sort always uses the 1-LSU arrangement (see `run_sort`).
        ProcModel::Dba2LsuEis { partial } => ProcModel::Dba1LsuEis { partial },
        ProcModel::Dba2Lsu => ProcModel::Dba1Lsu,
        m => m,
    };
    let (src, bytes) = local_store(exec);
    let dst = align16(src + 4 * n);
    if align16(dst + 4 * n) > src.saturating_add(bytes.unwrap_or(u32::MAX)) {
        return Err(SimError::BadProgram(format!(
            "{n} elements do not fit the ping-pong sort buffers in local memory"
        )));
    }
    let layout = SortLayout { src, dst, n };
    let (program, in_dst) = progcache::sort_program(exec, layout, || match exec.wiring() {
        Some(wiring) => hwsort::merge_sort_program(&wiring, &layout),
        None => scalar::merge_sort_program(src, dst, n),
    })?;
    let padding: &'static [u32; 3] = &[SENTINEL; 3];
    let mut stages = vec![(src, data)];
    if pad > 0 {
        stages.push((src + 4 * data.len() as u32, &padding[..pad]));
    }
    Ok(KernelJob {
        exec,
        name: "sort",
        program,
        stages,
        readback: Readback::Fixed {
            base: if in_dst { dst } else { src },
            len: data.len(),
        },
        elements: data.len() as u64,
    })
}

/// The most values [`run_sum_with`] reduces on `model`: what one local
/// data memory holds. The 108Mini stages into system memory and has no
/// bound (`usize::MAX`).
pub fn sum_cap(model: ProcModel) -> usize {
    local_store(model)
        .1
        .map_or(usize::MAX, |bytes| bytes as usize / 4)
}

/// `SUM` over `values`, computed *on the ASIP*: the values are staged
/// into the core's data memory and a hardware-loop reduction program
/// runs over them. The result is one word, the 32-bit wrapping sum; an
/// empty input sums to 0 in no cycles. More than [`sum_cap`] values is a
/// typed error: their stage leaves the local store. Every option applies, the fault plan and the
/// recovery policy included.
pub fn run_sum_with(
    model: ProcModel,
    values: &[u32],
    opts: &RunOptions,
) -> Result<KernelRun, SimError> {
    if values.is_empty() {
        return Ok(KernelRun::empty(vec![0]));
    }
    run_job(model, &|m| sum_job(m, values), opts)
}

/// The sum job on `model`: `values` staged at the model's data base and
/// the reduction over them, assembled per call.
fn sum_job(model: ProcModel, values: &[u32]) -> Result<KernelJob<'_>, SimError> {
    let (base, _) = local_store(model);
    Ok(KernelJob {
        exec: model,
        name: "sum",
        program: Arc::new(scalar::sum_program(base, values.len() as u32)?),
        stages: vec![(base, values)],
        readback: Readback::Register,
        elements: values.len() as u64,
    })
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
        // The key is (model, kind), which concurrently running tests
        // share; the cache assembles it once for all of them.
        let a = evens(257);
        let b = thirds(193);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let key = progcache::ProgKey::SetOp {
            model,
            kind: SetOpKind::Intersect,
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
        // So are 50 further layouts of the same (model, kind).
        for n in 1..=50 {
            let r = run_set_op(model, SetOpKind::Intersect, &evens(n), &thirds(n + 7)).unwrap();
            let expect: Vec<u32> = evens(n).into_iter().filter(|x| x % 3 == 0).collect();
            assert_eq!(r.result, expect, "n={n}");
        }
        assert_eq!(
            progcache::assemblies_for(&key),
            1,
            "distinct layouts of one (model, kind) share one assembly"
        );
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

        // A sort degrades the same way. Under SECDED, with a flip injected
        // into the first attempt: the fallback keeps the protection (and
        // its read surcharge), and the flip is merged into the counters.
        let data: Vec<u32> = (0..301).map(|i: u32| i.wrapping_mul(2654435761)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let secded = Some(ProtectionKind::Secded);
        let opts = RunOptions {
            protection: secded,
            fault_plan: Some(FaultPlan::new().with_bit_flip(
                dbx_faults::FaultTarget::Dmem(0),
                0,
                17,
                5,
            )),
            ..opts
        };
        let fallback = run_sort_with(
            scalar_fallback(model),
            &data,
            &RunOptions {
                protection: secded,
                ..Default::default()
            },
        )
        .unwrap();
        let r = run_sort_with(model, &data, &opts).unwrap();
        assert_eq!(r.result, expect);
        assert!(r.degraded, "the sort must come from the scalar fallback");
        assert_eq!(r.retries, 1);
        assert_eq!(r.cycles, fallback.cycles, "the fallback keeps SECDED");
        assert_ne!(
            r.cycles,
            run_sort(scalar_fallback(model), &data).unwrap().cycles
        );
        assert_eq!(fallback.faults.injected, 0);
        assert_eq!(
            r.faults.injected, 1,
            "the first attempt's flip is merged in"
        );
        assert!(matches!(
            r.recovered_fault.as_ref().map(|mf| &mf.cause),
            Some(dbx_cpu::FaultCause::Watchdog { budget: 10 })
        ));
    }

    #[test]
    fn a_sum_past_its_cap_is_a_typed_error() {
        // The 108Mini stages into system memory and has no cap.
        assert_eq!(sum_cap(ProcModel::Mini108), usize::MAX);
        for model in &ProcModel::synthesis_models()[1..] {
            let ones = vec![1; sum_cap(*model) + 1];
            let e = run_sum_with(*model, &ones, &RunOptions::default()).unwrap_err();
            assert!(
                matches!(e, SimError::Mem(MemError::OutOfBounds { .. })),
                "{}: {e:?}",
                model.name()
            );
        }
        let r = run_sum_with(ProcModel::Dba1Lsu, &[], &RunOptions::default()).unwrap();
        assert_eq!((r.result, r.cycles), (vec![0], 0));
    }

    #[test]
    fn recovery_policy_decides_per_attempt() {
        use Recovery::{Degrade, Fail, Retry};
        let table = [
            (RecoveryPolicy::FailFast, [Fail, Fail, Fail, Fail]),
            (
                RecoveryPolicy::Retry { max_retries: 0 },
                [Fail, Fail, Fail, Fail],
            ),
            (
                RecoveryPolicy::Retry { max_retries: 2 },
                [Retry, Retry, Fail, Fail],
            ),
            (
                RecoveryPolicy::DegradeToScalar { max_retries: 0 },
                [Degrade, Degrade, Degrade, Degrade],
            ),
            (
                RecoveryPolicy::DegradeToScalar { max_retries: 1 },
                [Retry, Degrade, Degrade, Degrade],
            ),
        ];
        for (policy, expect) in table {
            for (attempt, want) in expect.into_iter().enumerate() {
                assert_eq!(
                    policy.next(attempt as u32),
                    want,
                    "{policy:?} attempt {attempt}"
                );
            }
        }
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
