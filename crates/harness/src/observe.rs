//! `repro observe` — the unified observability surface.
//!
//! Runs every built-in kernel (intersection, union, difference,
//! merge-sort) on every processor configuration with recording enabled,
//! each configuration on its own trace track, and exports the result
//! four ways:
//!
//! * a hotspot table per kernel × configuration (cycle attribution by
//!   program region, the paper's tool-flow step 1),
//! * a Chrome-trace / Perfetto JSON timeline (`--perfetto`),
//! * folded stacks for flamegraph tools (`--folded`),
//! * the keyed-metric [`Snapshot`] (`--json`) that CI gates against the
//!   committed `BENCH_observe.json` baseline (`--check`).
//!
//! Workloads are pinned (2×2000 elements at 50 % selectivity for the set
//! operations, 2048 random elements for the sort) so cycle counts are
//! bit-reproducible and the snapshot diff is meaningful.

use crate::report::{f1, TextTable};
use crate::{scaled, SEED};
use dbx_core::{run_set_op_with, run_sort_with, ProcModel, RunOptions, SetOpKind};
use dbx_cpu::{ProfileSnapshot, RunStats};
use dbx_observe::{
    write_chrome_trace, Better, FoldedStacks, Observer, Snapshot, TraceSink, TrackId,
};
use dbx_synth::{fmax_mhz, Tech};
use dbx_workloads::{set_pair_with_selectivity, sort_input, SortOrder};

/// The four built-in kernels the observability matrix covers.
const KERNELS: [&str; 4] = ["intersect", "union", "difference", "sort"];

/// One observed kernel run on one configuration.
#[derive(Debug, Clone)]
pub struct KernelObservation {
    /// Kernel name (`intersect`, `union`, `difference`, `sort`).
    pub kernel: &'static str,
    /// Processor configuration.
    pub model: ProcModel,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Elements processed (the paper's throughput denominator).
    pub elements: u64,
    /// Full run statistics (stall classes, traffic, fault accounting).
    pub stats: RunStats,
    /// Cycle attribution by program region (tool-flow step 1).
    pub profile: Option<ProfileSnapshot>,
}

/// The full observability experiment result.
#[derive(Debug)]
pub struct Observe {
    /// One observation per kernel × configuration, kernel-major.
    pub runs: Vec<KernelObservation>,
    /// Elements per set used for the set operations.
    pub set_len: usize,
    /// Elements sorted.
    pub sort_len: usize,
    /// The shared trace registry: one core track per configuration.
    pub sink: TraceSink,
}

/// Runs the observability matrix. `scale = 1.0` uses the pinned baseline
/// workload sizes (the only sizes `--check` can compare).
pub fn run(scale: f64) -> Observe {
    let set_len = scaled(2000, scale);
    let sort_len = scaled(2048, scale);
    let (a, b) = set_pair_with_selectivity(set_len, set_len, 0.5, SEED);
    let sort_data = sort_input(sort_len, SortOrder::Random, SEED);

    let (obs, sink) = Observer::memory();
    let mut runs = Vec::new();
    for kernel in KERNELS {
        for (idx, model) in ProcModel::all().into_iter().enumerate() {
            // Each configuration owns one track; its four kernel spans
            // stack back to back on the track's cycle clock.
            let opts = RunOptions {
                observer: obs.on_track(TrackId::Core(idx as u32)),
                ..RunOptions::default()
            };
            let (kr, elements) = match kernel {
                "sort" => (
                    run_sort_with(model, &sort_data, &opts).expect("sort run"),
                    sort_len as u64,
                ),
                _ => {
                    let kind = match kernel {
                        "intersect" => SetOpKind::Intersect,
                        "union" => SetOpKind::Union,
                        _ => SetOpKind::Difference,
                    };
                    (
                        run_set_op_with(model, kind, &a, &b, &opts).expect("set op run"),
                        (2 * set_len) as u64,
                    )
                }
            };
            runs.push(KernelObservation {
                kernel,
                model,
                cycles: kr.cycles,
                elements,
                stats: kr.stats,
                profile: kr.profile,
            });
        }
    }
    drop(obs);
    let sink = std::rc::Rc::try_unwrap(sink)
        .expect("all observers dropped")
        .into_inner();
    Observe {
        runs,
        set_len,
        sort_len,
        sink,
    }
}

impl Observe {
    /// The `BENCH_observe.json` snapshot, keyed
    /// `observe/{kernel}/{model}[+partial]/...`: cycles (gated), elements
    /// and stall fractions per run, plus throughput per technology node
    /// (cycle counts are tech-independent; the nodes differ in f_max).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        for r in &self.runs {
            let partial = if r.model.partial_label() == "yes" {
                "+partial"
            } else {
                ""
            };
            let k = format!("observe/{}/{}{partial}", r.kernel, r.model.name());
            let cycles = r.cycles as f64;
            s.gated(format!("{k}/cycles"), cycles, "cycles", Better::Lower);
            let elements = r.elements as f64;
            s.info(format!("{k}/elements"), elements, "elements", Better::Exact);
            let c = &r.stats.counters;
            for (name, stall) in [
                ("stall_load_use", c.stall_load_use),
                ("stall_mem", c.stall_mem),
                ("stall_control", c.stall_control),
                ("stall_ecc", c.stall_ecc),
            ] {
                let frac = stall as f64 / cycles.max(1.0);
                s.info(format!("{k}/{name}"), frac, "fraction", Better::Lower);
            }
            for tech in [Tech::tsmc65lp(), Tech::gf28slp()] {
                let fmax = fmax_mhz(r.model, &tech);
                let meps = r.stats.throughput_meps(r.elements, fmax);
                let key = format!("{k}/{}/throughput_meps", tech.name);
                s.info(key, meps, "Melem/s", Better::Higher);
            }
        }
        s
    }

    /// The Chrome-trace / Perfetto JSON of the whole matrix.
    pub fn perfetto(&self) -> String {
        write_chrome_trace(&self.sink)
    }

    /// Folded stacks (`model;kernel;region cycles`) for flamegraph tools.
    pub fn folded(&self) -> FoldedStacks {
        let mut fs = FoldedStacks::new();
        for r in &self.runs {
            match &r.profile {
                Some(snap) => {
                    for h in snap.hotspots() {
                        fs.add(&[r.model.name(), r.kernel, &h.region], h.cycles);
                    }
                }
                None => fs.add(&[r.model.name(), r.kernel], r.cycles),
            }
        }
        fs
    }

    /// The cycle/throughput overview table (65 nm f_max).
    pub fn render(&self) -> String {
        let tech = Tech::tsmc65lp();
        let mut t = TextTable::new([
            "Processor",
            "Partial",
            "Kernel",
            "Cycles",
            "MEPS@65nm",
            "stall%",
            "hottest region",
        ]);
        for r in &self.runs {
            let f = fmax_mhz(r.model, &tech);
            let stall_pct = if r.cycles == 0 {
                0.0
            } else {
                100.0 * r.stats.counters.stall_cycles() as f64 / r.cycles as f64
            };
            let hottest = r
                .profile
                .as_ref()
                .and_then(|s| s.top_n(1).first())
                .map(|h| format!("{} ({:.0}%)", h.region, 100.0 * h.share))
                .unwrap_or_else(|| "-".to_string());
            t.row([
                r.model.name().to_string(),
                r.model.partial_label().to_string(),
                r.kernel.to_string(),
                r.cycles.to_string(),
                f1(r.stats.throughput_meps(r.elements, f)),
                format!("{stall_pct:.1}"),
                hottest,
            ]);
        }
        format!(
            "Observability matrix — sets 2x{} @50% selectivity, sort n={}\n{}",
            self.set_len,
            self.sort_len,
            t.render()
        )
    }

    /// The per-run hotspot report: the `top` hottest regions of every
    /// kernel × configuration, from the cached profile ranking.
    pub fn hotspot_report(&self, top: usize) -> String {
        let mut out = String::new();
        for r in &self.runs {
            let Some(snap) = &r.profile else { continue };
            out.push_str(&format!(
                "\n{} / {}{} — {} cycles\n",
                r.kernel,
                r.model.name(),
                if r.model.partial_label() == "yes" {
                    " (partial)"
                } else {
                    ""
                },
                r.cycles
            ));
            for h in snap.top_n(top) {
                out.push_str(&format!(
                    "  {:<28} {:>9} cycles  {:>5.1}%\n",
                    h.region,
                    h.cycles,
                    100.0 * h.share
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_kernel_and_model() {
        let o = run(0.05);
        assert_eq!(o.runs.len(), KERNELS.len() * ProcModel::all().len());
        // Cycles, elements, 4 stall fractions and 2 tech nodes per run.
        assert_eq!(o.snapshot().len(), 8 * o.runs.len());
        // Every run was profiled (observer enables profiling).
        assert!(o.runs.iter().all(|r| r.profile.is_some()));
    }

    #[test]
    fn span_cycles_reconcile_with_run_totals_per_track() {
        let o = run(0.05);
        for (idx, model) in ProcModel::all().into_iter().enumerate() {
            let expect: u64 = o
                .runs
                .iter()
                .filter(|r| r.model == model)
                .map(|r| r.cycles)
                .sum();
            let got = o.sink.track_cycles(TrackId::Core(idx as u32), "kernel");
            assert_eq!(got, expect, "track {idx} ({})", model.name());
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = run(0.05).snapshot();
        assert_eq!(Snapshot::parse(&snap.to_string()).unwrap(), snap);
    }

    #[test]
    fn folded_stacks_total_matches_profiled_cycles() {
        let o = run(0.05);
        let fs = o.folded();
        let total: u64 = o.runs.iter().map(|r| r.cycles).sum();
        assert_eq!(fs.total_cycles(), total);
        let text = fs.render();
        assert!(text.contains("intersect"));
        assert!(text.contains("DBA_2LSU_EIS"));
    }
}
