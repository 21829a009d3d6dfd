//! `repro bench` — the paper-figure performance suite.
//!
//! Regenerates the evaluation's performance figures as one [`Suite`]:
//!
//! * **selectivity** — intersection/union/difference throughput over
//!   selectivity on DBA_2LSU_EIS (Figure 13's axis, all three set ops).
//! * **size** — intersection throughput over set size across the
//!   LSU/local-memory configurations (Table 2's model axis; inputs beyond
//!   a local store batch through `run_partition`).
//! * **sort** — merge-sort throughput over input size across
//!   configurations (Table 5's kernel).
//! * **cores** — multi-core makespan and speedup over core count on the
//!   shared-nothing partitioner (Section 5.4).
//!
//! Plus the headline ratios of Tables 5 and 6 against the *published*
//! x86 reference numbers ([`dbx_x86ref::published`]). The suite exports
//! three ways:
//!
//! * a per-figure throughput table plus the headline ratios (the human
//!   report),
//! * the keyed-metric [`Snapshot`] (`--json`) that CI gates against the
//!   committed `BENCH_perf.json` baseline (`--check`),
//! * folded stacks (`figure;kernel;model@x cycles`) for flamegraph
//!   tools (`--folded`).
//!
//! Every sweep point is an independent simulation, so the suite fans out
//! over the host shard scheduler ([`HostSched`]); results are collected
//! in point order and contain only simulated cycles and constants derived
//! from them at the synthesis model's fMAX — the snapshot is bit-identical
//! for any `--threads` value and any machine. Host wall clock is the
//! benchmark's concern (`examples/benchmark`), not this suite's.

use crate::report::{f1, TextTable};
use crate::scaled;
use dbx_core::multicore::multicore_set_op_with;
use dbx_core::{run_indexed, run_partition, HostSched, ProcModel, RunOptions, SetOpKind};
use dbx_observe::snapshot::q6;
use dbx_observe::{Better, FoldedStacks, Snapshot};
use dbx_synth::{fmax_mhz, Tech};
use dbx_workloads::{set_pair_with_selectivity, sort_input, SortOrder};
use dbx_x86ref::published;

/// The suite's workload seed. It predates the harness-wide
/// [`crate::SEED`] and stays distinct so `BENCH_perf.json` keeps its
/// inputs.
const SUITE_SEED: u64 = 0xbe7c4;

/// One simulated sweep coordinate of the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPoint {
    /// Figure family: `selectivity`, `size`, `sort`, or `cores`.
    pub figure: &'static str,
    /// Kernel name (`intersect`, `union`, `difference`, `sort`).
    pub kernel: &'static str,
    /// Processor model name (see `ProcModel::name`).
    pub model: &'static str,
    /// The sweep coordinate: selectivity in `[0, 1]`, elements per set,
    /// sort input size, or simulated core count.
    pub x: f64,
    /// Elements processed (the paper's throughput denominator).
    pub elements: u64,
    /// Simulated cycles (makespan for multi-core points).
    pub cycles: u64,
    /// The model's fMAX on TSMC 65 nm LP used for the throughput, MHz.
    pub fmax_mhz: f64,
    /// Throughput at `fmax_mhz`, M elements/s.
    pub throughput_meps: f64,
    /// Parallel speedup over one simulated core (`1.0` off the `cores`
    /// figure).
    pub speedup: f64,
}

impl PerfPoint {
    /// The snapshot key prefix identifying the point.
    pub fn key(&self) -> String {
        format!(
            "perf/{}/{}/{}/x={}",
            self.figure, self.kernel, self.model, self.x
        )
    }
}

/// One run of the suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Workload scale the suite ran at (`1.0` = the paper's sizes).
    pub scale: f64,
    /// Sweep points, in generation order (figure-major).
    pub points: Vec<PerfPoint>,
    /// Named headline ratios (e.g. `hwset_vs_swset_published`).
    pub ratios: Vec<(&'static str, f64)>,
}

impl Suite {
    /// The `BENCH_perf.json` snapshot: `perf/scale` and every point's
    /// cycles gated, everything else reported.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        s.gated("perf/scale", self.scale, "x", Better::Exact);
        for p in &self.points {
            let k = p.key();
            let cycles = p.cycles as f64;
            s.gated(format!("{k}/cycles"), cycles, "cycles", Better::Lower);
            for (name, value, unit, better) in [
                ("elements", p.elements as f64, "elements", Better::Exact),
                ("fmax_mhz", p.fmax_mhz, "MHz", Better::Higher),
                (
                    "throughput_meps",
                    p.throughput_meps,
                    "Melem/s",
                    Better::Higher,
                ),
                ("speedup", p.speedup, "x", Better::Higher),
            ] {
                s.info(format!("{k}/{name}"), value, unit, better);
            }
        }
        for (name, value) in &self.ratios {
            s.info(format!("perf/ratio/{name}"), *value, "x", Better::Higher);
        }
        s
    }

    /// A named headline ratio.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.ratios
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// The per-figure sweep tables plus the headline ratios.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Paper-figure perf suite — scale {} ({} points)\n",
            self.scale,
            self.points.len()
        );
        for figure in ["selectivity", "size", "sort", "cores"] {
            let points: Vec<_> = self.points.iter().filter(|p| p.figure == figure).collect();
            if points.is_empty() {
                continue;
            }
            let mut t = TextTable::new(["Kernel", "Processor", "x", "Cycles", "MEPS", "Speedup"]);
            for p in points {
                t.row([
                    p.kernel.to_string(),
                    p.model.to_string(),
                    format!("{}", p.x),
                    p.cycles.to_string(),
                    f1(p.throughput_meps),
                    format!("{:.2}", p.speedup),
                ]);
            }
            out.push_str(&format!("\n[{figure}]\n{}", t.render()));
        }
        out.push_str("\nHeadline ratios vs published x86 numbers:\n");
        for (name, value) in &self.ratios {
            out.push_str(&format!("  {name:<28} {value:.3}\n"));
        }
        out
    }

    /// Folded stacks (`figure;kernel;model@x cycles`) for flamegraph
    /// tools — one frame per sweep point, weighted by simulated cycles.
    pub fn folded(&self) -> FoldedStacks {
        let mut fs = FoldedStacks::new();
        for p in &self.points {
            let leaf = format!("{}@x={}", p.model, p.x);
            fs.add(&[p.figure, p.kernel, &leaf], p.cycles);
        }
        fs
    }
}

/// One sweep coordinate to simulate.
#[derive(Debug, Clone, Copy)]
enum Spec {
    /// A single-core set operation (batched beyond the local store).
    Set {
        figure: &'static str,
        kind: SetOpKind,
        model: ProcModel,
        n: usize,
        sel: f64,
        x: f64,
    },
    /// A merge-sort run.
    Sort { model: ProcModel, n: usize },
    /// A shared-nothing multi-core intersection.
    Cores {
        kind: SetOpKind,
        model: ProcModel,
        n: usize,
        cores: usize,
    },
}

/// The model whose EIS numbers the paper headlines.
const EIS: ProcModel = ProcModel::Dba2LsuEis { partial: true };

/// The full sweep matrix at a workload scale, figure-major.
fn build_specs(scale: f64) -> Vec<Spec> {
    let mut specs = Vec::new();
    // Figure 13's axis, for all three set operations.
    for kind in [
        SetOpKind::Intersect,
        SetOpKind::Union,
        SetOpKind::Difference,
    ] {
        for sel in [0.0, 0.25, 0.5, 0.75, 1.0] {
            specs.push(Spec::Set {
                figure: "selectivity",
                kind,
                model: EIS,
                n: scaled(2500, scale),
                sel,
                x: sel,
            });
        }
    }
    // Set size across the LSU/local-memory configurations.
    for model in [
        ProcModel::Dba1Lsu,
        ProcModel::Dba2Lsu,
        ProcModel::Dba1LsuEis { partial: true },
        EIS,
    ] {
        // The 32-element floor can collapse adjacent scaled sizes at tiny
        // scales; dedup so point keys stay unique.
        let mut sizes: Vec<usize> = [625, 1250, 2500, 5000]
            .into_iter()
            .map(|b| scaled(b, scale))
            .collect();
        sizes.dedup();
        for n in sizes {
            specs.push(Spec::Set {
                figure: "size",
                kind: SetOpKind::Intersect,
                model,
                n,
                sel: 0.5,
                x: n as f64,
            });
        }
    }
    // Merge-sort input size across configurations.
    for model in [
        ProcModel::Dba1Lsu,
        ProcModel::Dba1LsuEis { partial: true },
        EIS,
    ] {
        let mut sizes: Vec<usize> = [1625, 3250, 6500]
            .into_iter()
            .map(|b| scaled(b, scale))
            .collect();
        sizes.dedup();
        for n in sizes {
            specs.push(Spec::Sort { model, n });
        }
    }
    // Core-count scaling on the shared-nothing partitioner.
    for cores in [1, 2, 4, 8, 16] {
        specs.push(Spec::Cores {
            kind: SetOpKind::Intersect,
            model: EIS,
            n: scaled(20_000, scale),
            cores,
        });
    }
    specs
}

/// Simulates one sweep coordinate. Cycle counts are deterministic for the
/// pinned seed, so this is safe to run on any host thread.
fn run_spec(spec: &Spec) -> PerfPoint {
    let tech = Tech::tsmc65lp();
    match *spec {
        Spec::Set {
            figure,
            kind,
            model,
            n,
            sel,
            x,
        } => {
            let (a, b) = set_pair_with_selectivity(n, n, sel, SUITE_SEED);
            let (_, cycles) = run_partition(model, kind, &a, &b).expect("bench set point");
            let elements = (a.len() + b.len()) as u64;
            let fmax = fmax_mhz(model, &tech);
            PerfPoint {
                figure,
                kernel: kind.name(),
                model: model.name(),
                x,
                elements,
                cycles,
                fmax_mhz: fmax,
                throughput_meps: elements as f64 * fmax / cycles as f64,
                speedup: 1.0,
            }
        }
        Spec::Sort { model, n } => {
            let data = sort_input(n, SortOrder::Random, SUITE_SEED);
            let r = dbx_core::run_sort(model, &data).expect("bench sort point");
            let fmax = fmax_mhz(model, &tech);
            PerfPoint {
                figure: "sort",
                kernel: "sort",
                model: model.name(),
                x: n as f64,
                elements: n as u64,
                cycles: r.cycles,
                fmax_mhz: fmax,
                throughput_meps: r.stats.throughput_meps(n as u64, fmax),
                speedup: 1.0,
            }
        }
        Spec::Cores {
            kind,
            model,
            n,
            cores,
        } => {
            let (a, b) = set_pair_with_selectivity(n, n, 0.5, SUITE_SEED);
            // The point itself is one shard of the outer fan-out; the
            // simulated cores within it run sequentially.
            let mc = multicore_set_op_with(model, kind, &a, &b, cores, &RunOptions::default())
                .expect("bench cores point");
            let elements = (a.len() + b.len()) as u64;
            let fmax = fmax_mhz(model, &tech);
            PerfPoint {
                figure: "cores",
                kernel: kind.name(),
                model: model.name(),
                x: cores as f64,
                elements,
                cycles: mc.makespan_cycles,
                fmax_mhz: fmax,
                throughput_meps: mc.throughput_meps(elements, fmax),
                speedup: 1.0, // rewritten against the 1-core makespan below
            }
        }
    }
}

/// Runs the suite at a workload scale on the given host scheduler.
/// `scale = 1.0` is the committed-baseline configuration (the only one
/// `--check` can compare).
pub fn run(scale: f64, sched: HostSched) -> Suite {
    let specs = build_specs(scale);
    let mut points = run_indexed(sched, specs.len(), |i| run_spec(&specs[i]));

    // Speedup-vs-cores is relative to the 1-core makespan of the same
    // figure (computed after the fan-out — it needs two points at once).
    let one_core = points
        .iter()
        .find(|p| p.figure == "cores" && p.x == 1.0)
        .map(|p| p.cycles)
        .unwrap_or(0);
    for p in points.iter_mut().filter(|p| p.figure == "cores") {
        p.speedup = if p.cycles == 0 {
            0.0
        } else {
            one_core as f64 / p.cycles as f64
        };
    }

    // Headline ratios against the published x86 reference numbers, taken
    // from the throughputs as the snapshot records them.
    let hwset = points
        .iter()
        .find(|p| p.figure == "selectivity" && p.kernel == "intersect" && p.x == 0.5)
        .map_or(0.0, |p| q6(p.throughput_meps));
    let hwsort = points
        .iter()
        .filter(|p| p.figure == "sort" && p.model == EIS.name())
        .max_by(|a, b| a.x.total_cmp(&b.x))
        .map_or(0.0, |p| q6(p.throughput_meps));
    let max_speedup = points
        .iter()
        .filter(|p| p.figure == "cores")
        .map(|p| p.speedup)
        .fold(0.0, f64::max);
    let ratios = vec![
        (
            "hwset_vs_swset_published",
            hwset / published::i7_920::SWSET_MEPS,
        ),
        (
            "hwsort_vs_swsort_published",
            hwsort / published::q9550::SWSORT_MEPS,
        ),
        ("cores_speedup_max", max_speedup),
    ];

    Suite {
        scale,
        points,
        ratios,
    }
}

/// Parses a `--threads` flag value into a host scheduler: `0`/`auto`
/// means all host cores, `1` the sequential path, `n` pins the worker
/// count. An absent flag falls back to `DBX_HOST_THREADS`, parsed by the
/// same rules, and both absent means sequential. Anything else is an
/// error naming the value and where it came from.
pub fn sched_from_flag(threads: Option<&str>) -> Result<HostSched, String> {
    match threads {
        Some(v) => parse_threads("--threads", v),
        None => match std::env::var("DBX_HOST_THREADS") {
            Ok(v) => parse_threads("DBX_HOST_THREADS", &v),
            Err(_) => Ok(HostSched::Sequential),
        },
    }
}

fn parse_threads(source: &str, v: &str) -> Result<HostSched, String> {
    match v {
        "auto" | "0" => Ok(HostSched::Parallel { threads: 0 }),
        n => match n.parse::<usize>() {
            Ok(1) => Ok(HostSched::Sequential),
            Ok(n) => Ok(HostSched::Parallel { threads: n }),
            Err(_) => Err(format!("{source} takes a count or `auto`, got {v:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_figure_and_ratio() {
        let suite = run(0.02, HostSched::Sequential);
        let text = suite.render();
        for figure in ["selectivity", "size", "sort", "cores"] {
            assert!(
                suite.points.iter().any(|p| p.figure == figure),
                "missing figure {figure}"
            );
            assert!(text.contains(&format!("[{figure}]")), "missing {figure}");
        }
        for name in ["hwset_vs_swset_published", "hwsort_vs_swsort_published"] {
            assert!(suite.ratio(name).is_some(), "missing ratio {name}");
            assert!(text.contains(name), "report misses {name}");
        }
        let s = suite.ratio("cores_speedup_max").unwrap();
        assert!(s >= 1.0, "16 simulated cores must not slow down: {s}");
        // Keys are unique (the snapshot asserts it): 5 metrics per point,
        // plus the ratios and the scale.
        assert_eq!(
            suite.snapshot().len(),
            5 * suite.points.len() + suite.ratios.len() + 1
        );
    }

    #[test]
    fn folded_totals_match_the_points() {
        let suite = run(0.02, HostSched::Sequential);
        let total: u64 = suite.points.iter().map(|p| p.cycles).sum();
        assert_eq!(suite.folded().total_cycles(), total);
    }

    #[test]
    fn paper_scale_ratios_land_in_the_published_regime() {
        // Scale 0.2 keeps the suite quick while the EIS throughput stays
        // in the published ballpark (same cycle model, same fMAX model).
        let sched = sched_from_flag(None).expect("DBX_HOST_THREADS parses");
        let suite = run(0.2, sched);
        let hwset = suite.ratio("hwset_vs_swset_published").unwrap();
        assert!(
            (0.8..1.5).contains(&hwset),
            "hwset/swset ratio {hwset} out of regime"
        );
    }

    #[test]
    fn threads_flag_maps_onto_the_scheduler() {
        let sched = |v| parse_threads("--threads", v);
        assert_eq!(sched("1"), Ok(HostSched::Sequential));
        assert_eq!(sched("4"), Ok(HostSched::Parallel { threads: 4 }));
        assert_eq!(sched("auto"), Ok(HostSched::Parallel { threads: 0 }));
        assert_eq!(sched("0"), Ok(HostSched::Parallel { threads: 0 }));
        assert!(sched("abc").is_err());
        assert!(sched("-2").is_err());
    }
}
