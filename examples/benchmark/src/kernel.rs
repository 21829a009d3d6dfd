//! The kernel workloads, `setop_short` and `sweep_long`, and the traced
//! replica of the runner's sequence of public calls.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dbx_core::kernels::{hwset, hwsort, scalar, SetLayout, SortLayout};
use dbx_core::runner::set_layout;
use dbx_core::{build_processor, run_set_op, run_sort, ProcModel, SetOpKind, SENTINEL};
use dbx_cpu::program::Program;
use dbx_cpu::{Processor, RunStats, SimError, DMEM0_BASE, SYSMEM_BASE};
use dbx_workloads::{set_pair_with_selectivity, sort_input, SortOrder};

use crate::metrics::LayerCounters;
use crate::rng::{stratified, Rng};
use crate::stats::fnv1a;
use crate::trace::Tracer;
use crate::{elapsed_ns, Sample, Traced, Workload};

/// The runner's cycle budget per kernel run.
const MAX_CYCLES: u64 = 2_000_000_000;
/// The runner's program-cache bound; the cache is cleared when full.
const CACHE_CAP: usize = 256;

const KINDS: [SetOpKind; 3] = [
    SetOpKind::Intersect,
    SetOpKind::Union,
    SetOpKind::Difference,
];

/// `setop_short`: distinct set pairs cycled through the DBA_2LSU_EIS
/// model, and ops per round.
const SETOP_MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };
const SETOP_POOL: usize = 8192;
const SETOP_OPS: usize = 32_000;
/// `sweep_long`: passes over the paper-figure shapes per round.
const SWEEP_PASSES: usize = 17;

#[derive(Debug, Clone, Copy)]
enum Kernel {
    Set(SetOpKind),
    Sort,
}

/// One kernel call's inputs and the host reference's answer.
struct Input {
    model: ProcModel,
    kernel: Kernel,
    a: Vec<u32>,
    b: Vec<u32>,
    expected: Vec<u32>,
}

impl Input {
    fn set(model: ProcModel, kind: SetOpKind, (a, b): (Vec<u32>, Vec<u32>)) -> Input {
        let expected = reference_set_op(kind, &a, &b);
        Input {
            model,
            kernel: Kernel::Set(kind),
            a,
            b,
            expected,
        }
    }

    fn sort(model: ProcModel, data: Vec<u32>) -> Input {
        let mut expected = data.clone();
        expected.sort_unstable();
        Input {
            model,
            kernel: Kernel::Sort,
            a: data,
            b: Vec::new(),
            expected,
        }
    }
}

/// The std merge of two strictly increasing sets: the host reference for
/// every simulated set operation.
pub fn reference_set_op(kind: SetOpKind, a: &[u32], b: &[u32]) -> Vec<u32> {
    use std::cmp::Ordering::*;
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Less => {
                if kind != SetOpKind::Intersect {
                    out.push(a[i]);
                }
                i += 1;
            }
            Greater => {
                if kind == SetOpKind::Union {
                    out.push(b[j]);
                }
                j += 1;
            }
            Equal => {
                if kind != SetOpKind::Difference {
                    out.push(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    if kind != SetOpKind::Intersect {
        out.extend_from_slice(&a[i..]);
    }
    if kind == SetOpKind::Union {
        out.extend_from_slice(&b[j..]);
    }
    out
}

/// Op `i` of a round runs input `i % pool.len()`, so every round repeats
/// the same op sequence.
pub struct KernelWorkload {
    pool: Vec<Input>,
    ops_per_round: usize,
    replica: Replica,
    /// Fingerprint of the runner's `RunStats` per input, which the
    /// traced replica must reproduce.
    runner: Vec<Option<u64>>,
    exact: LayerCounters,
}

impl KernelWorkload {
    fn new(pool: Vec<Input>, ops_per_round: usize) -> KernelWorkload {
        KernelWorkload {
            runner: vec![None; pool.len()],
            pool,
            ops_per_round,
            replica: Replica::default(),
            exact: LayerCounters::default(),
        }
    }

    /// Short posting-list pairs: |A| and |B| log-uniform in 8..512,
    /// selectivity uniform in [0, 1), kinds in rotation.
    pub fn setop_short(seed: u64) -> KernelWorkload {
        let mut rng = Rng::new(seed);
        let la = stratified(SETOP_POOL, &mut rng);
        let lb = stratified(SETOP_POOL, &mut rng);
        let sel = stratified(SETOP_POOL, &mut rng);
        let len = |u: f64| (8.0 * 64f64.powf(u)) as usize;
        let pool = (0..SETOP_POOL)
            .map(|j| {
                let pair =
                    set_pair_with_selectivity(len(la[j]), len(lb[j]), sel[j], rng.next_u64());
                Input::set(SETOP_MODEL, KINDS[j % KINDS.len()], pair)
            })
            .collect();
        KernelWorkload::new(pool, SETOP_OPS)
    }

    /// The paper-figure shapes: 2500+2500 set operations at selectivity
    /// 0, 0.5 and 1 on every Table 2 model, and merge-sorts of 1625, 3250
    /// and 6500 elements on DBA_1LSU and DBA_1LSU_EIS.
    pub fn sweep_long(seed: u64) -> KernelWorkload {
        let mut rng = Rng::new(seed);
        let mut pool = Vec::new();
        for kind in KINDS {
            for sel in [0.0, 0.5, 1.0] {
                for model in ProcModel::all() {
                    let pair = set_pair_with_selectivity(2500, 2500, sel, rng.next_u64());
                    pool.push(Input::set(model, kind, pair));
                }
            }
        }
        for model in [ProcModel::Dba1Lsu, ProcModel::Dba1LsuEis { partial: true }] {
            for n in [1625, 3250, 6500] {
                let data = sort_input(n, SortOrder::Random, rng.next_u64());
                pool.push(Input::sort(model, data));
            }
        }
        let ops = pool.len() * SWEEP_PASSES;
        KernelWorkload::new(pool, ops)
    }
}

fn fingerprint(stats: &RunStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

fn check(result: &[u32], expected: &[u32]) -> Option<String> {
    (result != expected).then(|| {
        format!(
            "{} elements, the host reference has {}",
            result.len(),
            expected.len()
        )
    })
}

impl Workload for KernelWorkload {
    fn ops_per_round(&self) -> usize {
        self.ops_per_round
    }

    fn start_round(&mut self, _traced: bool) -> Result<(), String> {
        self.exact = LayerCounters::default();
        Ok(())
    }

    fn op(&mut self, i: usize, traced: Option<&mut Traced>) -> Sample {
        let j = i % self.pool.len();
        let input = &self.pool[j];
        let Some(t) = traced else {
            let t0 = Instant::now();
            let run = match input.kernel {
                Kernel::Set(kind) => run_set_op(input.model, kind, &input.a, &input.b),
                Kernel::Sort => run_sort(input.model, &input.a),
            };
            let ns = elapsed_ns(t0);
            return match run {
                Ok(run) => {
                    self.exact.add_stats(&run.stats);
                    self.runner[j].get_or_insert_with(|| fingerprint(&run.stats));
                    Sample {
                        ns,
                        wrong: check(&run.result, &input.expected),
                        sim_cycles: run.cycles,
                        kernel_cycles: run.cycles,
                    }
                }
                Err(e) => Sample::error(ns, format!("runner error: {e}")),
            };
        };
        let t0 = Instant::now();
        let root = t.tracer.begin("core.runner");
        let out = match input.kernel {
            Kernel::Set(kind) => {
                self.replica
                    .set_op(&mut t.tracer, input.model, kind, &input.a, &input.b, None)
            }
            Kernel::Sort => self.replica.sort(&mut t.tracer, input.model, &input.a),
        };
        t.tracer.end(root);
        let ns = elapsed_ns(t0);
        t.counters.ops += 1;
        match out {
            Ok(out) => {
                out.count(&mut t.counters);
                if self.runner[j].is_some_and(|f| f != fingerprint(&out.stats)) {
                    t.counters.replica_mismatches += 1;
                }
                Sample {
                    ns,
                    wrong: check(&out.result, &input.expected),
                    sim_cycles: out.stats.cycles,
                    kernel_cycles: out.stats.cycles,
                }
            }
            Err(e) => Sample::error(ns, format!("replica error: {e}")),
        }
    }

    fn finish_round(&mut self) -> Result<Option<String>, String> {
        Ok(None)
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let c = &self.exact;
        vec![
            ("sim.cycles", c.cycles),
            ("sim.instrs", c.instrs),
            ("sim.ext_ops", c.ext_ops),
            ("sim.stall.mem", c.stall_mem),
            ("sim.stall.load_use", c.stall_load_use),
            ("sim.stall.control", c.stall_control),
            ("sim.mispredicts", c.mispredicts),
        ]
    }
}

/// What one replayed kernel call produced.
pub struct KernelOut {
    pub result: Vec<u32>,
    pub stats: RunStats,
    /// Whether the simulator was eligible for its fast path.
    pub fast: bool,
    pub eis: bool,
    /// Host time of `Processor::run`.
    pub run_ns: u64,
    pub staged_bytes: u64,
}

impl KernelOut {
    pub fn count(&self, c: &mut LayerCounters) {
        c.add_stats(&self.stats);
        if self.fast {
            c.fast_cycles += self.stats.cycles;
        }
        if self.eis {
            c.cycles_eis += self.stats.cycles;
            c.run_ns_eis += self.run_ns;
        } else {
            c.cycles_base += self.stats.cycles;
            c.run_ns_base += self.run_ns;
        }
        c.staged_bytes += self.staged_bytes;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ProgKey {
    Set(ProcModel, SetOpKind, SetLayout),
    Sort(ProcModel, SortLayout),
}

/// Replays `run_set_op` / `run_sort` as the runner's own public calls,
/// each in its own span: `set_layout`, kernel assembly, `build_processor`,
/// `load_program_shared`, `poke_words`, `Processor::run`, `peek_words`.
/// Assembled programs are memoized by the runner's key and bound, so
/// assembly is paid where the runner pays it.
#[derive(Default)]
pub struct Replica {
    programs: HashMap<ProgKey, (Arc<Program>, bool)>,
}

impl Replica {
    pub fn set_op(
        &mut self,
        tr: &mut Tracer,
        model: ProcModel,
        kind: SetOpKind,
        a: &[u32],
        b: &[u32],
        watchdog: Option<u64>,
    ) -> Result<KernelOut, SimError> {
        let s = tr.begin("core.layout");
        let layout = set_layout(model, a.len() as u32, b.len() as u32);
        tr.end(s);
        let layout = layout?;
        let (program, _) = self.program(tr, ProgKey::Set(model, kind, layout), || {
            let program = match model.wiring() {
                Some(w) => hwset::set_op_program(kind, &w, &layout, hwset::DEFAULT_UNROLL)?,
                None => scalar::set_op_program(kind, &layout)?,
            };
            Ok((program, false))
        })?;
        let inputs = [(layout.a_base, a), (layout.b_base, b)];
        execute(tr, model, program, &inputs, watchdog, |p| {
            // Where the runner finds the output length: the EIS kernels
            // count results in a2, the scalar ones leave the output
            // cursor in a6.
            let len = if model.has_eis() {
                p.ar[2]
            } else {
                p.ar[6].wrapping_sub(layout.c_base) / 4
            };
            (layout.c_base, len as usize)
        })
    }

    pub fn sort(
        &mut self,
        tr: &mut Tracer,
        model: ProcModel,
        data: &[u32],
    ) -> Result<KernelOut, SimError> {
        // The runner's lowering: sorts use the 1-LSU arrangement, padded
        // with sentinels to a multiple of 4, in ping-pong buffers.
        let s = tr.begin("core.layout");
        let exec_model = match model {
            ProcModel::Dba2LsuEis { partial } => ProcModel::Dba1LsuEis { partial },
            ProcModel::Dba2Lsu => ProcModel::Dba1Lsu,
            m => m,
        };
        let mut padded = data.to_vec();
        padded.resize(data.len().div_ceil(4) * 4, SENTINEL);
        let n = padded.len() as u32;
        let src = if exec_model == ProcModel::Mini108 {
            SYSMEM_BASE
        } else {
            DMEM0_BASE
        };
        let layout = SortLayout {
            src,
            dst: (src + 4 * n + 15) & !15,
            n,
        };
        tr.end(s);
        let (program, in_dst) = self.program(tr, ProgKey::Sort(exec_model, layout), || {
            match exec_model.wiring() {
                Some(w) => hwsort::merge_sort_program(&w, &layout),
                None => scalar::merge_sort_program(layout.src, layout.dst, n),
            }
        })?;
        let out_base = if in_dst { layout.dst } else { layout.src };
        let mut out = execute(tr, exec_model, program, &[(src, &padded)], None, |_| {
            (out_base, n as usize)
        })?;
        out.result.truncate(data.len());
        Ok(out)
    }

    fn program(
        &mut self,
        tr: &mut Tracer,
        key: ProgKey,
        build: impl FnOnce() -> Result<(Program, bool), SimError>,
    ) -> Result<(Arc<Program>, bool), SimError> {
        if let Some((program, in_dst)) = self.programs.get(&key) {
            return Ok((Arc::clone(program), *in_dst));
        }
        let s = tr.begin("core.assemble");
        let built = build();
        tr.end(s);
        let (program, in_dst) = built?;
        if self.programs.len() >= CACHE_CAP {
            self.programs.clear();
        }
        let program = Arc::new(program);
        self.programs.insert(key, (Arc::clone(&program), in_dst));
        Ok((program, in_dst))
    }
}

/// Steps 3 to 7 of a replayed kernel call: build, load, stage, run, read
/// back from where `output` says the result lies.
fn execute(
    tr: &mut Tracer,
    model: ProcModel,
    program: Arc<Program>,
    inputs: &[(u32, &[u32])],
    watchdog: Option<u64>,
    output: impl FnOnce(&Processor) -> (u32, usize),
) -> Result<KernelOut, SimError> {
    let s = tr.begin("cpu.build");
    let p = build_processor(model);
    tr.end(s);
    let mut p = p?;
    p.set_watchdog(watchdog);
    let s = tr.begin("cpu.load");
    let loaded = p.load_program_shared(program);
    tr.end(s);
    loaded?;
    let s = tr.begin("mem.stage");
    let staged = inputs
        .iter()
        .try_for_each(|&(addr, words)| p.mem.poke_words(addr, words));
    tr.end(s);
    staged?;
    let fast = p.fast_path_eligible();
    let s = tr.begin("cpu.run");
    let stats = p.run(MAX_CYCLES);
    let run_ns = tr.end(s);
    let stats = stats?;
    let (addr, len) = output(&p);
    let s = tr.begin("mem.readback");
    let result = p.mem.peek_words(addr, len);
    tr.end(s);
    Ok(KernelOut {
        result: result?,
        stats,
        fast,
        eis: model.has_eis(),
        run_ns,
        staged_bytes: inputs.iter().map(|(_, w)| 4 * w.len() as u64).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_set_reference_on_hand_worked_cases() {
        let a = [1, 3, 5, 7, 9];
        let b = [3, 4, 5, 10];
        assert_eq!(reference_set_op(SetOpKind::Intersect, &a, &b), [3, 5]);
        assert_eq!(
            reference_set_op(SetOpKind::Union, &a, &b),
            [1, 3, 4, 5, 7, 9, 10]
        );
        assert_eq!(reference_set_op(SetOpKind::Difference, &a, &b), [1, 7, 9]);
        assert_eq!(reference_set_op(SetOpKind::Difference, &b, &a), [4, 10]);
        assert_eq!(reference_set_op(SetOpKind::Union, &[], &b), b);
        assert!(reference_set_op(SetOpKind::Intersect, &a, &[]).is_empty());
    }

    #[test]
    fn the_sort_reference_is_sort_unstable() {
        let input = Input::sort(ProcModel::Dba1Lsu, vec![5, 1, 4, 1]);
        assert_eq!(input.expected, [1, 1, 4, 5]);
    }

    #[test]
    fn the_replica_reproduces_the_runner() {
        let mut tr = Tracer::new(0);
        let mut replica = Replica::default();
        let (a, b) = set_pair_with_selectivity(300, 200, 0.4, 5);
        for model in [SETOP_MODEL, ProcModel::Dba1Lsu, ProcModel::Mini108] {
            let run = run_set_op(model, SetOpKind::Union, &a, &b).unwrap();
            let out = replica
                .set_op(&mut tr, model, SetOpKind::Union, &a, &b, None)
                .unwrap();
            assert_eq!(out.result, run.result, "{}", model.name());
            assert_eq!(out.stats, run.stats, "{}", model.name());
            assert!(out.fast);
        }
        let data = sort_input(401, SortOrder::Random, 3);
        for model in [SETOP_MODEL, ProcModel::Dba1Lsu] {
            let run = run_sort(model, &data).unwrap();
            let out = replica.sort(&mut tr, model, &data).unwrap();
            assert_eq!(out.result, run.result, "{}", model.name());
            assert_eq!(out.stats, run.stats, "{}", model.name());
        }
        tr.end_op(0);
        let layers = tr.take_layers();
        for name in [
            "core.layout",
            "core.assemble",
            "cpu.build",
            "cpu.load",
            "mem.stage",
            "cpu.run",
            "mem.readback",
        ] {
            assert!(layers.contains_key(name), "{name}");
        }
    }
}
