//! The cycle-accurate processor simulator.
//!
//! Timing model (in-order, single-issue, five-stage pipeline abstracted to
//! per-instruction cycle costs):
//!
//! * every instruction or FLIX bundle issues in 1 cycle;
//! * local-store data accesses complete in that cycle (the paper:
//!   "memory is accessed using a single cycle");
//! * cached/system memory accesses add their extra latency as stall cycles;
//! * a load's result is available one cycle later — a dependent next
//!   instruction pays a 1-cycle load-use interlock;
//! * mispredicted conditional branches pay `mispredict_penalty`; taken
//!   unconditional transfers pay `jump_penalty`; hardware-loop back-edges
//!   are free (that is their purpose);
//! * the data prefetcher ticks concurrently with every core cycle.

use crate::config::CpuConfig;
use crate::decode::{Bundle, Step};
use crate::error::{FaultCause, MachineFault, SimError};
use crate::ext::{Extension, TieCtx};
use crate::isa::{Instr, LsWidth, Reg};
use crate::memsys::MemorySystem;
use crate::predictor::Predictor;
use crate::profiler::{Profile, ProfileMode};
use crate::program::Program;
use crate::stats::{EventCounters, RunStats};
use crate::trace::Trace;
use dbx_faults::{FaultKind, FaultPlan, FaultTarget};
use dbx_mem::{MemError, Width};
use std::sync::Arc;

/// Hardware-loop registers (LBEG/LEND/LCOUNT).
#[derive(Debug, Clone, Copy)]
struct HwLoop {
    begin: u32,
    end: u32,
    count: u32,
}

/// Result of a single [`Processor::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Execution continues.
    Continue,
    /// A `HALT` was executed.
    Halted,
}

/// One simulated processor instance: core state + memory system +
/// optional instruction-set extension.
pub struct Processor {
    /// Static configuration.
    pub cfg: CpuConfig,
    /// Address register file.
    pub ar: [u32; 16],
    pc: u32,
    hw_loop: Option<HwLoop>,
    /// The memory system.
    pub mem: MemorySystem,
    ext: Option<Box<dyn Extension>>,
    predictor: Predictor,
    /// Event counters for the current/last run.
    pub counters: EventCounters,
    /// Cycles elapsed in the current/last run.
    pub cycles: u64,
    program: Option<Arc<Program>>,
    pending_load: Option<Reg>,
    halted: bool,
    profile: Option<Profile>,
    /// `Some(period)` switches profile recording from per-instruction to
    /// cycle-threshold sampling (see [`ProfileMode::Sampled`]).
    sample_period: Option<u64>,
    /// Cycle count at which the next sample fires.
    next_sample: u64,
    /// Cycle count of the previous sample (gap start).
    last_sample: u64,
    trace: Option<Trace>,
    /// Pending fault-injection plan; events fire as cycles pass.
    fault_plan: Option<FaultPlan>,
    /// Cycle budget after which [`Self::run`] raises a watchdog fault.
    watchdog: Option<u64>,
    /// Fault events injected directly into core resources (register file,
    /// extension state, DMAC) — memory-side injections are counted by the
    /// local memories themselves.
    injected_direct: u64,
}

impl Processor {
    /// Creates a processor from a validated configuration.
    pub fn new(cfg: CpuConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::BadProgram)?;
        let mem = MemorySystem::new(&cfg);
        let predictor = Predictor::new(cfg.predictor);
        Ok(Processor {
            cfg,
            ar: [0; 16],
            pc: 0,
            hw_loop: None,
            mem,
            ext: None,
            predictor,
            counters: EventCounters::default(),
            cycles: 0,
            program: None,
            pending_load: None,
            halted: false,
            profile: None,
            sample_period: None,
            next_sample: 0,
            last_sample: 0,
            trace: None,
            fault_plan: None,
            watchdog: None,
            injected_direct: 0,
        })
    }

    /// Installs a deterministic fault-injection plan. Each event fires at
    /// the first step whose cycle count has reached its cycle stamp;
    /// replaces any previous plan (including its unfired events).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
        self.injected_direct = 0;
    }

    /// Removes the installed fault plan (unfired events are discarded) —
    /// used by retry policies so the repeated attempt runs clean.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// Arms (or with `None` disarms) the watchdog: [`Self::run`] raises a
    /// precise machine fault once the cycle count reaches the budget.
    pub fn set_watchdog(&mut self, budget: Option<u64>) {
        self.watchdog = budget;
    }

    /// Aggregated fault counters across the memory system plus direct
    /// core-resource injections.
    pub fn fault_counters(&self) -> dbx_mem::FaultCounters {
        let mut fc = self.mem.fault_counters();
        fc.injected += self.injected_direct;
        fc
    }

    /// Copies the aggregated fault counters into the event counters so
    /// reports and the power model see them.
    fn harvest_fault_counters(&mut self) {
        self.counters.faults = self.fault_counters();
    }

    /// Attaches an instruction-set extension (replaces any previous one).
    pub fn attach_extension(&mut self, ext: Box<dyn Extension>) {
        self.ext = Some(ext);
    }

    /// Immutable access to the attached extension.
    pub fn extension(&self) -> Option<&dyn Extension> {
        self.ext.as_deref()
    }

    /// Enables precise per-address cycle profiling for subsequent runs
    /// (equivalent to [`Self::set_profile_mode`] with
    /// [`ProfileMode::Precise`]).
    pub fn enable_profiling(&mut self) {
        self.set_profile_mode(ProfileMode::Precise);
    }

    /// Selects how subsequent runs attribute cycles to addresses.
    /// [`ProfileMode::Precise`] records every retired instruction;
    /// [`ProfileMode::Sampled`] records one sample per `period` cycles,
    /// a threshold compare per step instead of a map update (the sampled
    /// totals are within one period of the precise run's — see
    /// `tests/fast_path.rs` for the check).
    pub fn set_profile_mode(&mut self, mode: ProfileMode) {
        match mode {
            ProfileMode::Off => {
                self.profile = None;
                self.sample_period = None;
            }
            ProfileMode::Precise => {
                self.profile = Some(Profile::default());
                self.sample_period = None;
            }
            ProfileMode::Sampled { period } => {
                let period = period.max(1);
                self.profile = Some(Profile::default());
                self.sample_period = Some(period);
                self.next_sample = self.cycles + period;
                self.last_sample = self.cycles;
            }
        }
    }

    /// Enables execution tracing, retaining the last `depth` instructions.
    pub fn enable_tracing(&mut self, depth: usize) {
        self.trace = Some(Trace::new(depth));
    }

    /// The collected trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The collected profile, if profiling was enabled.
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_ref()
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The loaded program.
    pub fn program(&self) -> Option<&Arc<Program>> {
        self.program.as_ref()
    }

    /// Loads a program: checks it fits instruction memory, writes the
    /// binary image into imem, and resets execution state.
    pub fn load_program(&mut self, p: Program) -> Result<(), SimError> {
        self.load_program_shared(Arc::new(p))
    }

    /// Loads an already-shared program without cloning it — the memoized
    /// kernel cache and retrying run drivers hand the same `Arc<Program>`
    /// to many processor instances (or many attempts on one instance).
    /// Identical to [`Self::load_program`] in every observable way.
    pub fn load_program_shared(&mut self, p: Arc<Program>) -> Result<(), SimError> {
        let image = crate::encode::encode_program(&p)?;
        // The image occupies [entry, entry + len) of imem; a non-default
        // base (ProgramBuilder::with_base) shifts the footprint.
        let offset = p.entry().wrapping_sub(crate::program::IMEM_BASE) as usize;
        if offset + image.len() > self.mem.imem.size() {
            return Err(SimError::BadProgram(format!(
                "program image of {} bytes at {:#010x} exceeds the {} KiB instruction memory",
                image.len(),
                p.entry(),
                self.cfg.imem_kb
            )));
        }
        for (i, chunk) in image.chunks(4).enumerate() {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            self.mem.imem.write_unmetered(
                p.entry() + 4 * i as u32,
                Width::W32,
                u32::from_le_bytes(w) as u128,
            )?;
        }
        self.pc = p.entry();
        self.program = Some(p);
        self.reset_run_state();
        Ok(())
    }

    /// Resets registers, counters, extension state and PC (keeps memory
    /// contents and the loaded program).
    pub fn reset_run_state(&mut self) {
        self.ar = [0; 16];
        self.hw_loop = None;
        self.counters = EventCounters::default();
        self.cycles = 0;
        self.pending_load = None;
        self.halted = false;
        self.injected_direct = 0;
        if let Some(p) = &self.program {
            self.pc = p.entry();
        }
        if let Some(e) = self.ext.as_mut() {
            e.reset();
        }
        if let Some(pr) = self.profile.as_mut() {
            *pr = Profile::default();
        }
        if let Some(period) = self.sample_period {
            self.next_sample = period;
            self.last_sample = 0;
        }
        if let Some(t) = self.trace.as_mut() {
            // Preserve the configured depth: `len()` is how many entries
            // are currently retained, not the ring's capacity, and using
            // it here silently resized the ring on every rerun.
            *t = Trace::new(t.capacity());
        }
        self.predictor = Predictor::new(self.cfg.predictor);
    }

    #[inline]
    fn ar_rd(&self, r: Reg) -> u32 {
        self.ar[r.idx()]
    }

    #[inline]
    fn ar_wr(&mut self, r: Reg, v: u32) {
        self.ar[r.idx()] = v;
    }

    /// Executes one instruction (or bundle); returns the outcome.
    ///
    /// Fault-plan events whose cycle stamp has been reached are injected
    /// before the instruction issues. Detected hardware upsets (parity,
    /// uncorrectable ECC, failed DMA) surface as a precise
    /// [`SimError::Fault`] carrying the pc and cycle of the faulting
    /// instruction. The watchdog is [`Self::run`]'s alone.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.apply_due_faults();
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let program = self.program.clone().ok_or(SimError::BadPc { pc })?;
        let (step, instr) = program.step(program.index_of(pc)?);
        self.exec_step(step, instr)
            .map_err(|e| self.promote_fault(pc, e))
    }

    /// Fires every fault-plan event whose cycle stamp has been reached.
    fn apply_due_faults(&mut self) {
        let due = match self.fault_plan.as_mut() {
            Some(plan) if !plan.is_empty() => plan.take_due(self.cycles),
            _ => return,
        };
        for ev in due {
            match ev.target {
                FaultTarget::Dmem(i) => {
                    if self.mem.dmems.is_empty() {
                        continue;
                    }
                    let n = self.mem.dmems.len();
                    let m = &mut self.mem.dmems[i % n];
                    match ev.kind {
                        FaultKind::BitFlip => m.inject_bit_flip(ev.word, ev.bit),
                        FaultKind::StuckAt(v) => m.inject_stuck_at(ev.word, ev.bit, v),
                        FaultKind::DroppedBurst => {}
                    }
                }
                FaultTarget::RegFile => {
                    let r = (ev.word % 16) as usize;
                    let mask = 1u32 << (ev.bit % 32);
                    match ev.kind {
                        FaultKind::BitFlip => self.ar[r] ^= mask,
                        FaultKind::StuckAt(true) => self.ar[r] |= mask,
                        FaultKind::StuckAt(false) => self.ar[r] &= !mask,
                        FaultKind::DroppedBurst => continue,
                    }
                    self.injected_direct += 1;
                }
                FaultTarget::ExtState => {
                    if let Some(e) = self.ext.as_mut() {
                        e.inject_state_fault((ev.word << 5) | u64::from(ev.bit % 32));
                        self.injected_direct += 1;
                    }
                }
                FaultTarget::Dmac => {
                    if let Some(d) = self.mem.dmac.as_mut() {
                        d.inject_dropped_burst();
                        self.injected_direct += 1;
                    }
                }
            }
        }
    }

    /// Converts detected-upset memory errors into precise machine faults;
    /// passes every other error through unchanged.
    fn promote_fault(&self, pc: u32, e: SimError) -> SimError {
        let cause = match &e {
            SimError::Mem(MemError::ParityUpset { mem, addr }) => {
                FaultCause::ParityError { mem, addr: *addr }
            }
            SimError::Mem(MemError::DoubleUpset { mem, addr }) => {
                FaultCause::UncorrectableEcc { mem, addr: *addr }
            }
            SimError::Mem(MemError::TransferFault { src, dst }) => FaultCause::DmaTransfer {
                src: *src,
                dst: *dst,
            },
            _ => return e,
        };
        SimError::Fault(MachineFault {
            pc,
            cycle: self.cycles,
            cause,
        })
    }

    /// Executes one decoded step: the load-use interlock, the
    /// instruction itself, then the shared commit in `finish_step`.
    fn exec_step(&mut self, step: &Step, instr: &Instr) -> Result<StepOutcome, SimError> {
        self.mem.begin_cycle();
        let mut cycles: u64 = 1;

        // Load-use interlock from the previous instruction.
        if let Some(dep) = self.pending_load {
            if step.src_mask >> (dep.idx() & 15) & 1 != 0 {
                cycles += 1;
                self.counters.stall_load_use += 1;
                // The prefetcher keeps running during the stall.
                self.mem.tick_prefetcher()?;
            }
        }
        self.pending_load = None;

        let mut next_pc = step.fall_through;
        let mut halted = false;
        self.counters.instrs += 1;
        match &step.bundle {
            Some(bundle) => self.exec_bundle(step.pc, bundle, &mut cycles)?,
            None => self.exec_instr(step.pc, instr, &mut cycles, &mut next_pc, &mut halted)?,
        }
        self.finish_step(step.pc, cycles, next_pc, halted)
    }

    /// Issues a decoded FLIX bundle: the extension group against the
    /// pre-cycle register file, then the base-slot `ADDI`s (they never
    /// feed the extension ops within the same bundle).
    fn exec_bundle(&mut self, pc: u32, bundle: &Bundle, cycles: &mut u64) -> Result<(), SimError> {
        if !self.cfg.has_flix {
            return Err(SimError::OptionMissing { pc, option: "flix" });
        }
        self.counters.flix_bundles += 1;
        if !bundle.ext_ops.is_empty() {
            let (ext, mut ctx) = self.ext_ctx(pc)?;
            *cycles += ext.execute(&bundle.ext_ops, &mut ctx)? as u64;
        }
        for &(r, s, imm) in bundle.addis.iter() {
            let v = self.ar_rd(s).wrapping_add(imm as i32 as u32);
            self.ar_wr(r, v);
            self.counters.alu_ops += 1;
        }
        Ok(())
    }

    /// Executes one non-bundle instruction. Everything around it —
    /// interlock, hardware-loop back-edge, ECC stalls, prefetcher tick,
    /// trace/profile, commit — is [`Self::exec_step`]'s job.
    fn exec_instr(
        &mut self,
        pc: u32,
        instr: &Instr,
        cycles: &mut u64,
        next_pc: &mut u32,
        halted: &mut bool,
    ) -> Result<(), SimError> {
        macro_rules! alu {
            ($r:expr, $v:expr) => {{
                let v = $v;
                self.ar_wr($r, v);
                self.counters.alu_ops += 1;
            }};
        }

        match instr {
            Instr::Nop => {}
            Instr::Halt => *halted = true,
            Instr::Movi { r, imm } => alu!(*r, *imm as u32),
            Instr::Add { r, s, t } => alu!(*r, self.ar_rd(*s).wrapping_add(self.ar_rd(*t))),
            Instr::Addx4 { r, s, t } => {
                alu!(*r, (self.ar_rd(*s) << 2).wrapping_add(self.ar_rd(*t)))
            }
            Instr::Addi { r, s, imm } => {
                alu!(*r, self.ar_rd(*s).wrapping_add(*imm as i32 as u32))
            }
            Instr::Sub { r, s, t } => alu!(*r, self.ar_rd(*s).wrapping_sub(self.ar_rd(*t))),
            Instr::And { r, s, t } => alu!(*r, self.ar_rd(*s) & self.ar_rd(*t)),
            Instr::Or { r, s, t } => alu!(*r, self.ar_rd(*s) | self.ar_rd(*t)),
            Instr::Xor { r, s, t } => alu!(*r, self.ar_rd(*s) ^ self.ar_rd(*t)),
            Instr::Slli { r, s, sa } => alu!(*r, self.ar_rd(*s) << (sa & 31)),
            Instr::Srli { r, s, sa } => alu!(*r, self.ar_rd(*s) >> (sa & 31)),
            Instr::Srai { r, s, sa } => {
                alu!(*r, ((self.ar_rd(*s) as i32) >> (sa & 31)) as u32)
            }
            Instr::Extui { r, s, shift, bits } => {
                let mask = if *bits >= 32 {
                    u32::MAX
                } else {
                    (1u32 << bits) - 1
                };
                alu!(*r, (self.ar_rd(*s) >> (shift & 31)) & mask)
            }
            Instr::Mull { r, s, t } => {
                let v = self.ar_rd(*s).wrapping_mul(self.ar_rd(*t));
                self.ar_wr(*r, v);
                self.counters.mul_ops += 1;
                *cycles += 1; // 2-cycle multiplier
            }
            Instr::Quou { r, s, t } | Instr::Remu { r, s, t } => {
                if !self.cfg.has_div {
                    return Err(SimError::OptionMissing { pc, option: "div" });
                }
                let d = self.ar_rd(*t);
                if d == 0 {
                    return Err(SimError::DivByZero { pc });
                }
                let n = self.ar_rd(*s);
                let v = if matches!(instr, Instr::Quou { .. }) {
                    n / d
                } else {
                    n % d
                };
                self.ar_wr(*r, v);
                self.counters.div_ops += 1;
                *cycles += 12; // iterative divider
            }
            Instr::Min { r, s, t } => {
                alu!(
                    *r,
                    (self.ar_rd(*s) as i32).min(self.ar_rd(*t) as i32) as u32
                )
            }
            Instr::Max { r, s, t } => {
                alu!(
                    *r,
                    (self.ar_rd(*s) as i32).max(self.ar_rd(*t) as i32) as u32
                )
            }
            Instr::Minu { r, s, t } => alu!(*r, self.ar_rd(*s).min(self.ar_rd(*t))),
            Instr::Maxu { r, s, t } => alu!(*r, self.ar_rd(*s).max(self.ar_rd(*t))),
            Instr::Load { width, r, s, off } => {
                let addr = self.ar_rd(*s).wrapping_add(*off as u32);
                let w = match width {
                    LsWidth::B8 => Width::W8,
                    LsWidth::H16 => Width::W16,
                    LsWidth::W32 => Width::W32,
                };
                let (v, extra) = self.mem.load(0, addr, w, &mut self.counters)?;
                self.ar_wr(*r, v as u32);
                *cycles += extra as u64;
                self.pending_load = Some(*r);
            }
            Instr::Store { width, t, s, off } => {
                let addr = self.ar_rd(*s).wrapping_add(*off as u32);
                let w = match width {
                    LsWidth::B8 => Width::W8,
                    LsWidth::H16 => Width::W16,
                    LsWidth::W32 => Width::W32,
                };
                let v = self.ar_rd(*t) as u128;
                let extra = self.mem.store(0, addr, w, v, &mut self.counters)?;
                *cycles += extra as u64;
            }
            Instr::Branch { cond, s, t, target } => {
                let taken = cond.eval(self.ar_rd(*s), self.ar_rd(*t));
                *cycles += self.branch_cost(pc, *target, taken) as u64;
                if taken {
                    *next_pc = *target;
                }
            }
            Instr::Beqz { s, target } => {
                let taken = self.ar_rd(*s) == 0;
                *cycles += self.branch_cost(pc, *target, taken) as u64;
                if taken {
                    *next_pc = *target;
                }
            }
            Instr::Bnez { s, target } => {
                let taken = self.ar_rd(*s) != 0;
                *cycles += self.branch_cost(pc, *target, taken) as u64;
                if taken {
                    *next_pc = *target;
                }
            }
            Instr::J { target } => {
                self.counters.jumps += 1;
                *cycles += self.jump_cost() as u64;
                *next_pc = *target;
            }
            Instr::Jx { s } => {
                self.counters.jumps += 1;
                *cycles += self.jump_cost() as u64;
                *next_pc = self.ar_rd(*s);
            }
            Instr::Call0 { target } => {
                self.counters.jumps += 1;
                *cycles += self.jump_cost() as u64;
                self.ar_wr(crate::isa::regs::A0, *next_pc);
                *next_pc = *target;
            }
            Instr::Ret => {
                self.counters.jumps += 1;
                *cycles += self.jump_cost() as u64;
                *next_pc = self.ar_rd(crate::isa::regs::A0);
            }
            Instr::Loop { s, end } => {
                let count = self.ar_rd(*s).max(1);
                self.hw_loop = Some(HwLoop {
                    begin: *next_pc,
                    end: *end,
                    count,
                });
            }
            Instr::Ext(op) => {
                let (ext, mut ctx) = self.ext_ctx(pc)?;
                *cycles += ext.execute_one(op.op, op.args, &mut ctx)? as u64;
            }
            Instr::Flix(_) => unreachable!("bundles execute from their decoded step"),
        }
        Ok(())
    }

    /// Commits one step: applies the hardware-loop back-edge, drains the
    /// SECDED decode stalls, ticks the prefetcher, records trace/profile
    /// samples, advances the cycle clock and the PC.
    #[inline]
    fn finish_step(
        &mut self,
        pc: u32,
        mut cycles: u64,
        mut next_pc: u32,
        halted: bool,
    ) -> Result<StepOutcome, SimError> {
        // Hardware-loop back-edge (zero overhead).
        if let Some(mut l) = self.hw_loop {
            if next_pc == l.end {
                if l.count > 1 {
                    l.count -= 1;
                    next_pc = l.begin;
                    self.counters.hw_loop_backs += 1;
                    self.hw_loop = Some(l);
                } else {
                    self.hw_loop = None;
                }
            }
        }

        // SECDED decoder stalls accumulated by this step's protected
        // local-store reads (core loads and extension LSU accesses alike).
        cycles += self.mem.take_ecc_stall() as u64;

        self.mem.tick_prefetcher()?;
        if let Some(t) = self.trace.as_mut() {
            t.record(pc, self.cycles, cycles);
        }
        self.cycles += cycles;
        if let Some(pr) = self.profile.as_mut() {
            match self.sample_period {
                // Precise: exact per-instruction attribution.
                None => pr.record(pc, cycles),
                // Sampled: when the clock crosses the threshold, the
                // whole gap since the last sample lands on the
                // instruction that crossed it. Totals stay within one
                // period of the precise run; hits are ∝ cycles spent.
                Some(period) => {
                    if self.cycles >= self.next_sample {
                        pr.record(pc, self.cycles - self.last_sample);
                        self.last_sample = self.cycles;
                        self.next_sample = self.cycles + period;
                    }
                }
            }
        }
        self.pc = next_pc;
        if halted {
            self.halted = true;
            return Ok(StepOutcome::Halted);
        }
        Ok(StepOutcome::Continue)
    }

    fn branch_cost(&mut self, pc: u32, target: u32, taken: bool) -> u32 {
        self.counters.branches += 1;
        if taken {
            self.counters.branches_taken += 1;
        }
        let predicted = self.predictor.predict(pc, target);
        self.predictor.update(pc, taken);
        if predicted != taken {
            self.counters.mispredicts += 1;
            self.counters.stall_control += self.cfg.mispredict_penalty as u64;
            self.cfg.mispredict_penalty
        } else {
            0
        }
    }

    fn jump_cost(&mut self) -> u32 {
        self.counters.stall_control += self.cfg.jump_penalty as u64;
        self.cfg.jump_penalty
    }

    /// The attached extension and the context its ops run in.
    #[inline]
    fn ext_ctx(&mut self, pc: u32) -> Result<(&mut dyn Extension, TieCtx<'_>), SimError> {
        let ext = self
            .ext
            .as_deref_mut()
            .ok_or(SimError::NoExtension { pc })?;
        let ctx = TieCtx {
            ar: &mut self.ar,
            mem: &mut self.mem,
            counters: &mut self.counters,
        };
        Ok((ext, ctx))
    }

    /// Runs until `HALT` or until `max_cycles` elapse.
    ///
    /// With a watchdog armed (see [`Self::set_watchdog`]), reaching the
    /// watchdog budget raises a precise [`SimError::Fault`] instead of the
    /// plain [`SimError::MaxCyclesExceeded`] budget error, so recovery
    /// policies can treat a hung core as a survivable hardware event.
    /// Fault counters are harvested into [`Self::counters`] on every exit
    /// path, including faults.
    ///
    /// Every run takes the same loop over the program's decoded steps.
    /// The cycle budget, the watchdog and the next fault-plan event fold
    /// into one per-step compare against the earliest of them; only when
    /// it fires does the loop work out which one is due.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        let result = self.run_steps(max_cycles);
        self.harvest_fault_counters();
        result.map(|()| RunStats {
            cycles: self.cycles,
            halted: true,
            counters: self.counters.clone(),
        })
    }

    /// Always `true`: every run takes the one decoded-step loop. Kept so
    /// callers that report which engine ran keep compiling.
    pub fn fast_path_eligible(&self) -> bool {
        true
    }

    /// The earliest cycle at which [`Self::run_steps`] must leave its
    /// straight path: the cycle budget, the watchdog budget or the next
    /// pending fault-plan event (the plan is sorted by cycle).
    fn event_limit(&self, max_cycles: u64) -> u64 {
        let next_fault = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.events().first())
            .map_or(u64::MAX, |ev| ev.cycle);
        max_cycles
            .min(self.watchdog.unwrap_or(u64::MAX))
            .min(next_fault)
    }

    /// The run loop: executes decoded steps until `HALT`. A committed PC
    /// equal to the step's fall-through selects the next step in layout
    /// order; any other PC (taken branch, jump, hardware-loop back-edge)
    /// costs one slot-table lookup.
    fn run_steps(&mut self, max_cycles: u64) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        let program = self
            .program
            .clone()
            .ok_or(SimError::BadPc { pc: self.pc })?;
        let mut limit = self.event_limit(max_cycles);
        // Layout index of the step at `self.pc`, when known.
        let mut next = usize::MAX;
        loop {
            if self.cycles >= limit {
                if self.cycles >= max_cycles {
                    return Err(SimError::MaxCyclesExceeded { budget: max_cycles });
                }
                if let Some(budget) = self.watchdog.filter(|&b| self.cycles >= b) {
                    return Err(SimError::Fault(MachineFault {
                        pc: self.pc,
                        cycle: self.cycles,
                        cause: FaultCause::Watchdog { budget },
                    }));
                }
                self.apply_due_faults();
                limit = self.event_limit(max_cycles);
            }
            let ix = if next < program.len() {
                next
            } else {
                program.index_of(self.pc)?
            };
            let (step, instr) = program.step(ix);
            match self.exec_step(step, instr) {
                Ok(StepOutcome::Continue) => {}
                Ok(StepOutcome::Halted) => return Ok(()),
                Err(e) => return Err(self.promote_fault(step.pc, e)),
            }
            next = if self.pc == step.fall_through {
                ix + 1
            } else {
                usize::MAX
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ext::AccumulatorExt;
    use crate::isa::regs::*;
    use crate::program::{ProgramBuilder, DMEM0_BASE, SYSMEM_BASE};

    fn dba() -> Processor {
        Processor::new(CpuConfig::local_store_core(1, 64)).unwrap()
    }

    #[test]
    fn simulator_state_is_send() {
        // The one cross-thread user of simulator state is the
        // process-global program cache in `dbx-core` (`progcache.rs`),
        // which shares `Program`s through a `static Mutex`; the values a
        // run hands back must be free to leave the thread too. This is a
        // compile-time audit.
        fn assert_send<T: Send>() {}
        assert_send::<CpuConfig>();
        assert_send::<RunStats>();
        assert_send::<SimError>();
        assert_send::<crate::ProfileSnapshot>();
        assert_send::<crate::Program>();
        assert_send::<dbx_faults::FaultPlan>();
        assert_send::<dbx_faults::FaultCounters>();
    }

    #[test]
    fn arithmetic_program_computes() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 21);
        b.add(A3, A2, A2);
        b.addi(A3, A3, -2);
        b.slli(A4, A3, 1);
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let stats = p.run(1000).unwrap();
        assert!(stats.halted);
        assert_eq!(p.ar[3], 40);
        assert_eq!(p.ar[4], 80);
    }

    #[test]
    fn loads_and_stores_roundtrip_through_dmem() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, DMEM0_BASE as i32);
        b.l32i(A3, A2, 0);
        b.addi(A3, A3, 1);
        b.s32i(A3, A2, 4);
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.mem.poke_words(DMEM0_BASE, &[99]).unwrap();
        p.run(1000).unwrap();
        assert_eq!(p.mem.peek_words(DMEM0_BASE + 4, 1).unwrap(), vec![100]);
    }

    #[test]
    fn load_use_interlock_costs_a_cycle() {
        // Dependent use immediately after the load.
        let mut b = ProgramBuilder::new();
        b.movi(A2, DMEM0_BASE as i32);
        b.l32i(A3, A2, 0);
        b.addi(A3, A3, 1); // uses A3 -> interlock
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let dep = p.run(1000).unwrap();

        // Same program with an independent instruction in between.
        let mut b = ProgramBuilder::new();
        b.movi(A2, DMEM0_BASE as i32);
        b.l32i(A3, A2, 0);
        b.movi(A5, 0);
        b.addi(A3, A3, 1);
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let indep = p.run(1000).unwrap();

        assert_eq!(dep.counters.stall_load_use, 1);
        assert_eq!(indep.counters.stall_load_use, 0);
        // One extra instruction but same cycle count: the slot hid the stall.
        assert_eq!(dep.cycles, indep.cycles - 1 + 1);
    }

    #[test]
    fn counting_loop_runs_exactly_n_times() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 10);
        b.movi(A3, 0);
        b.label("loop");
        b.addi(A3, A3, 3);
        b.addi(A2, A2, -1);
        b.bnez(A2, "loop");
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let stats = p.run(1000).unwrap();
        assert_eq!(p.ar[3], 30);
        assert_eq!(stats.counters.branches, 10);
        assert_eq!(stats.counters.branches_taken, 9);
    }

    #[test]
    fn hardware_loop_is_zero_overhead() {
        // Same reduction with a hardware loop vs a conditional branch.
        let mut b = ProgramBuilder::new();
        b.movi(A2, 100);
        b.movi(A3, 0);
        b.hw_loop(A2, "end");
        b.addi(A3, A3, 1);
        b.label("end");
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let hw = p.run(10_000).unwrap();
        assert_eq!(p.ar[3], 100);
        assert_eq!(hw.counters.hw_loop_backs, 99);
        assert_eq!(hw.counters.mispredicts, 0);
        // 2 movis + LOOP + 100 body instrs + halt = 104 cycles.
        assert_eq!(hw.cycles, 104);
    }

    #[test]
    fn hardware_loop_with_zero_count_runs_once() {
        // LOOP semantics: the body executes max(a[s], 1) times (LOOPGTZ
        // skipping is a software branch).
        let mut b = ProgramBuilder::new();
        b.movi(A2, 0);
        b.movi(A3, 0);
        b.hw_loop(A2, "end");
        b.addi(A3, A3, 1);
        b.label("end");
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.run(1000).unwrap();
        assert_eq!(p.ar[3], 1);
    }

    #[test]
    fn sequential_hardware_loops_are_independent() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 5);
        b.movi(A3, 0);
        b.hw_loop(A2, "mid");
        b.addi(A3, A3, 1);
        b.label("mid");
        b.movi(A2, 7);
        b.hw_loop(A2, "end");
        b.addi(A3, A3, 10);
        b.label("end");
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.run(1000).unwrap();
        assert_eq!(p.ar[3], 5 + 70);
    }

    #[test]
    fn addx4_scales_for_word_indexing() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 5);
        b.movi(A3, 1000);
        b.addx4(A4, A2, A3); // 5*4 + 1000
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.run(100).unwrap();
        assert_eq!(p.ar[4], 1020);
    }

    #[test]
    fn extui_field_extraction_extremes() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 0xABCD_1234u32 as i32);
        b.extui(A3, A2, 0, 1); // lowest bit
        b.extui(A4, A2, 31, 1); // highest bit
        b.extui(A5, A2, 8, 16); // middle 16 bits
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.run(100).unwrap();
        assert_eq!(p.ar[3], 0);
        assert_eq!(p.ar[4], 1);
        assert_eq!(p.ar[5], 0xCD12);
    }

    #[test]
    fn sub_word_memory_accesses() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, DMEM0_BASE as i32);
        b.movi(A3, 0xAB);
        b.s8i(A3, A2, 5);
        b.l8ui(A4, A2, 5);
        b.l32i(A5, A2, 4);
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.run(100).unwrap();
        assert_eq!(p.ar[4], 0xAB);
        assert_eq!(p.ar[5], 0xAB00, "byte store lands in the right lane");
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent branch pattern that alternates.
        let mut b = ProgramBuilder::new();
        b.movi(A2, 100); // counter
        b.movi(A4, 0); // toggle
        b.movi(A5, 1);
        b.label("loop");
        b.xor(A4, A4, A5);
        b.beqz(A4, "skip");
        b.nop();
        b.label("skip");
        b.addi(A2, A2, -1);
        b.bnez(A2, "loop");
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let stats = p.run(100_000).unwrap();
        assert!(
            stats.counters.mispredicts >= 40,
            "alternating branch should mispredict, got {}",
            stats.counters.mispredicts
        );
        assert!(stats.counters.stall_control > 0);
    }

    #[test]
    fn div_requires_option() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 10);
        b.movi(A3, 3);
        b.quou(A4, A2, A3);
        b.halt();
        let prog = b.build().unwrap();
        let mut p = dba(); // DBA has no divider
        p.load_program(prog.clone()).unwrap();
        assert!(matches!(
            p.run(100),
            Err(SimError::OptionMissing { option: "div", .. })
        ));

        let mut q = Processor::new(CpuConfig::small_cached_controller()).unwrap();
        q.load_program(prog).unwrap();
        q.run(100).unwrap();
        assert_eq!(q.ar[4], 3);
    }

    #[test]
    fn div_by_zero_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 10);
        b.movi(A3, 0);
        b.quou(A4, A2, A3);
        b.halt();
        let mut q = Processor::new(CpuConfig::small_cached_controller()).unwrap();
        q.load_program(b.build().unwrap()).unwrap();
        assert!(matches!(q.run(100), Err(SimError::DivByZero { .. })));
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 5);
        b.call0("double");
        b.call0("double");
        b.halt();
        b.label("double");
        b.add(A2, A2, A2);
        b.ret();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.run(1000).unwrap();
        assert_eq!(p.ar[2], 20);
    }

    #[test]
    fn extension_ops_execute_standalone_and_in_bundles() {
        use crate::isa::{ExtOp, OpArgs};
        let mut b = ProgramBuilder::new();
        b.movi(A3, 11);
        b.ext(ExtOp {
            op: AccumulatorExt::ADD,
            args: OpArgs { r: 0, s: 3, imm: 0 },
        });
        b.flix([
            Instr::Ext(ExtOp {
                op: AccumulatorExt::RD,
                args: OpArgs { r: 6, s: 0, imm: 0 },
            }),
            Instr::Ext(ExtOp {
                op: AccumulatorExt::ADD,
                args: OpArgs { r: 0, s: 3, imm: 0 },
            }),
        ]);
        b.ext(ExtOp {
            op: AccumulatorExt::RD,
            args: OpArgs { r: 7, s: 0, imm: 0 },
        });
        b.halt();
        let mut p = dba();
        p.attach_extension(Box::new(AccumulatorExt::default()));
        p.load_program(b.build().unwrap()).unwrap();
        let stats = p.run(1000).unwrap();
        assert_eq!(p.ar[6], 11, "bundle RD sees pre-bundle state");
        assert_eq!(p.ar[7], 22, "second ADD committed");
        assert_eq!(stats.counters.flix_bundles, 1);
        assert_eq!(stats.counters.ext_ops, 4);
    }

    #[test]
    fn ext_without_extension_errors() {
        use crate::isa::{ExtOp, OpArgs};
        let mut b = ProgramBuilder::new();
        b.ext(ExtOp {
            op: 0,
            args: OpArgs::default(),
        });
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        assert!(matches!(p.run(100), Err(SimError::NoExtension { .. })));
    }

    #[test]
    fn flix_requires_option() {
        let mut b = ProgramBuilder::new();
        b.flix([Instr::Nop]);
        b.halt();
        let mut q = Processor::new(CpuConfig::small_cached_controller()).unwrap();
        q.load_program(b.build().unwrap()).unwrap();
        assert!(matches!(
            q.run(100),
            Err(SimError::OptionMissing { option: "flix", .. })
        ));
    }

    #[test]
    fn cached_config_pays_for_misses() {
        // Sum 256 words from system memory on the cached controller.
        let mut b = ProgramBuilder::new();
        b.movi(A2, SYSMEM_BASE as i32);
        b.movi(A3, 256);
        b.movi(A4, 0);
        b.label("loop");
        b.l32i(A5, A2, 0);
        b.add(A4, A4, A5);
        b.addi(A2, A2, 4);
        b.addi(A3, A3, -1);
        b.bnez(A3, "loop");
        b.halt();
        let mut q = Processor::new(CpuConfig::small_cached_controller()).unwrap();
        q.load_program(b.build().unwrap()).unwrap();
        q.mem.poke_words(SYSMEM_BASE, &vec![1u32; 256]).unwrap();
        let stats = q.run(100_000).unwrap();
        assert_eq!(q.ar[4], 256);
        assert!(stats.counters.stall_mem > 0, "misses must cost cycles");
        let c = q.mem.dcache.as_ref().unwrap();
        assert_eq!(c.stats.misses, 32, "256 words / 8 words-per-line");
    }

    #[test]
    fn run_exceeding_budget_errors() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.j("spin");
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        assert!(matches!(
            p.run(100),
            Err(SimError::MaxCyclesExceeded { .. })
        ));
    }

    #[test]
    fn program_too_large_for_imem_rejected() {
        let mut cfg = CpuConfig::local_store_core(1, 64);
        cfg.imem_kb = 1; // 1 KiB = 256 words
        let mut b = ProgramBuilder::new();
        for _ in 0..300 {
            b.nop();
        }
        b.halt();
        let mut p = Processor::new(cfg).unwrap();
        assert!(matches!(
            p.load_program(b.build().unwrap()),
            Err(SimError::BadProgram(_))
        ));
    }

    #[test]
    fn reset_run_state_allows_reruns() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 1);
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        let s1 = p.run(100).unwrap();
        p.reset_run_state();
        let s2 = p.run(100).unwrap();
        assert_eq!(s1.cycles, s2.cycles);
    }

    /// Loads dmem word 0, stores it back incremented at word 1.
    fn copy_inc_program() -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        b.movi(A2, DMEM0_BASE as i32);
        b.l32i(A3, A2, 0);
        b.addi(A3, A3, 1);
        b.s32i(A3, A2, 4);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn planned_bit_flip_on_unprotected_dmem_escapes_silently() {
        let mut p = dba();
        p.load_program(copy_inc_program()).unwrap();
        p.mem.poke_words(DMEM0_BASE, &[99]).unwrap();
        // Flip bit 3 of word 0 before the first instruction issues.
        p.set_fault_plan(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 0, 3));
        let stats = p.run(1000).unwrap();
        // 99 ^ 8 = 107; +1 = 108 — wrong data reached the datapath.
        assert_eq!(p.mem.peek_words(DMEM0_BASE + 4, 1).unwrap(), vec![108]);
        assert_eq!(stats.counters.faults.injected, 1);
        assert_eq!(stats.counters.faults.escaped, 1);
        assert_eq!(stats.counters.faults.detected, 0);
    }

    #[test]
    fn planned_bit_flip_under_secded_is_corrected_with_a_decoder_stall() {
        let mut cfg = CpuConfig::local_store_core(1, 64);
        cfg.dmem_protection = dbx_mem::ProtectionKind::Secded;
        let mut p = Processor::new(cfg).unwrap();
        p.load_program(copy_inc_program()).unwrap();
        p.mem.poke_words(DMEM0_BASE, &[99]).unwrap();
        p.set_fault_plan(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 0, 3));
        let stats = p.run(1000).unwrap();
        assert_eq!(p.mem.peek_words(DMEM0_BASE + 4, 1).unwrap(), vec![100]);
        assert_eq!(stats.counters.faults.corrected, 1);
        assert_eq!(stats.counters.faults.escaped, 0);
        assert!(stats.counters.stall_ecc >= 1, "decoder stall charged");
    }

    #[test]
    fn planned_bit_flip_under_parity_traps_precisely() {
        let mut cfg = CpuConfig::local_store_core(1, 64);
        cfg.dmem_protection = dbx_mem::ProtectionKind::Parity;
        let mut p = Processor::new(cfg).unwrap();
        p.load_program(copy_inc_program()).unwrap();
        p.mem.poke_words(DMEM0_BASE, &[99]).unwrap();
        p.set_fault_plan(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 0, 3));
        let e = p.run(1000).unwrap_err();
        let mf = e.machine_fault().expect("parity upset traps");
        // The faulting instruction is the load right after the (wide)
        // MOVI of the dmem base address.
        let entry = p.program().unwrap().entry();
        assert_eq!(mf.pc, entry + 8);
        assert!(matches!(
            mf.cause,
            FaultCause::ParityError { mem: "dmem0", .. }
        ));
        // The destination word was never written: no wrong data committed.
        assert_eq!(p.mem.peek_words(DMEM0_BASE + 4, 1).unwrap(), vec![0]);
        assert_eq!(p.counters.faults.detected, 1);
    }

    #[test]
    fn register_file_flip_changes_the_result() {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 21);
        b.add(A3, A2, A2);
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        // Flip bit 0 of AR2 after the MOVI retires (cycle >= 1).
        p.set_fault_plan(FaultPlan::new().with_bit_flip(FaultTarget::RegFile, 1, 2, 0));
        let stats = p.run(100).unwrap();
        assert_eq!(p.ar[3], 40); // (21 ^ 1) * 2
        assert_eq!(stats.counters.faults.injected, 1);
    }

    #[test]
    fn watchdog_expiry_is_a_precise_machine_fault() {
        let mut b = ProgramBuilder::new();
        b.label("top");
        b.j("top"); // spin forever
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.set_watchdog(Some(50));
        let e = p.run(10_000).unwrap_err();
        let mf = e.machine_fault().expect("watchdog traps");
        assert!(matches!(mf.cause, FaultCause::Watchdog { budget: 50 }));
        assert!(mf.cycle >= 50, "trap taken at or after the budget");
        // Disarmed, the same hang surfaces as a budget error instead.
        p.reset_run_state();
        p.set_watchdog(None);
        assert!(matches!(
            p.run(100),
            Err(SimError::MaxCyclesExceeded { budget: 100 })
        ));
    }

    /// Straight-line code with a load-use stall every third instruction:
    /// no control transfer between the first instruction and `HALT`, so
    /// every event below lands mid-run rather than at a block boundary.
    fn straight_line() -> Processor {
        let mut b = ProgramBuilder::new();
        b.movi(A2, 1);
        b.movi(A3, 0);
        b.movi(A4, DMEM0_BASE as i32);
        for _ in 0..12 {
            b.add(A3, A3, A2);
            b.l32i(A5, A4, 0);
            b.add(A3, A3, A5); // load-use interlock
        }
        b.halt();
        let mut p = dba();
        p.load_program(b.build().unwrap()).unwrap();
        p.mem.poke_words(DMEM0_BASE, &[100]).unwrap();
        p
    }

    #[test]
    fn hand_driven_steps_agree_with_run() {
        let mut ran = straight_line();
        let stats = ran.run(1000).unwrap();
        assert_eq!(ran.ar[3], 12 * 101);
        assert_eq!(stats.cycles, 52);
        assert_eq!(stats.counters.stall_load_use, 12);

        let mut stepped = straight_line();
        let mut steps = 1;
        while stepped.step().unwrap() == StepOutcome::Continue {
            steps += 1;
        }
        assert_eq!(steps, 40);
        assert_eq!(stepped.ar, ran.ar);
        let stepped_stats = RunStats {
            cycles: stepped.cycles,
            halted: true,
            counters: stepped.counters.clone(),
        };
        assert_eq!(stepped_stats, stats);
        // A halted processor stays halted.
        assert_eq!(stepped.step().unwrap(), StepOutcome::Halted);
    }

    #[test]
    fn register_flip_mid_straight_line_fires_at_the_first_step_past_its_cycle() {
        let plan = FaultPlan::new().with_bit_flip(FaultTarget::RegFile, 10, 2, 4);
        let mut p = straight_line();
        p.set_fault_plan(plan.clone());
        let stats = p.run(1000).unwrap();
        // The load-use stall carries the clock from 9 to 11, so the flip
        // (A2: 1 -> 17) lands before the step at entry + 40, cycle 11.
        assert_eq!(p.ar[2], 17);
        assert_eq!(p.ar[3], 1372);
        assert_eq!(stats.cycles, 52);
        assert_eq!(stats.counters.faults.injected, 1);

        let mut q = straight_line();
        q.set_fault_plan(plan);
        let entry = q.program().unwrap().entry();
        while q.ar[2] == 1 {
            let (pc, cycle) = (q.pc(), q.cycles);
            q.step().unwrap();
            if q.ar[2] != 1 {
                assert_eq!((pc - entry, cycle), (40, 11));
            }
        }
    }

    #[test]
    fn watchdog_mid_straight_line_traps_at_the_budget() {
        let mut p = straight_line();
        p.set_watchdog(Some(20));
        let e = p.run(1000).unwrap_err();
        let mf = e.machine_fault().expect("watchdog traps");
        let entry = p.program().unwrap().entry();
        assert_eq!(mf.pc - entry, 68);
        assert_eq!(mf.cycle, 20);
        assert!(matches!(mf.cause, FaultCause::Watchdog { budget: 20 }));
        assert_eq!(p.ar[3], 405);
    }

    #[test]
    fn clearing_the_plan_discards_unfired_events() {
        let mut p = dba();
        p.load_program(copy_inc_program()).unwrap();
        p.mem.poke_words(DMEM0_BASE, &[99]).unwrap();
        p.set_fault_plan(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 0, 3));
        p.clear_fault_plan();
        let stats = p.run(1000).unwrap();
        assert_eq!(p.mem.peek_words(DMEM0_BASE + 4, 1).unwrap(), vec![100]);
        assert_eq!(stats.counters.faults.injected, 0);
    }
}
