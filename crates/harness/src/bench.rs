//! `repro bench` — the paper-figure performance suite.
//!
//! Drives the [`dbx_bench::suite`] sweeps (selectivity, set size,
//! merge-sort size, core count) over the host shard scheduler and
//! exports the result three ways:
//!
//! * a per-figure throughput table plus the EIS-vs-x86 headline ratios
//!   (the human report),
//! * the keyed-metric [`Snapshot`] (`--json`) that CI gates against the
//!   committed `BENCH_perf.json` baseline (`--check`),
//! * folded stacks (`figure;kernel;model@x cycles`) for flamegraph
//!   tools (`--folded`).
//!
//! Every number in the snapshot derives from simulated cycles at the
//! synthesis model's fMAX, so it is bit-identical for any `--threads`
//! value and any machine. `--host-time` adds the host wall clock (ns per
//! simulated cycle, sim Mcycles/s) as ungated `perf/host/*` keys, which
//! `--check` reports but never fails on.

use crate::report::{f1, TextTable};
use dbx_bench::suite::{run_suite, Suite, SuiteConfig};
use dbx_core::HostSched;
use dbx_observe::{Better, FoldedStacks, Snapshot};
use std::time::Instant;

/// The full paper-figure suite result.
#[derive(Debug)]
pub struct Bench {
    /// The sweep points and headline ratios.
    pub suite: Suite,
    /// The keyed-metric snapshot (what `BENCH_perf.json` holds, plus the
    /// ungated `perf/host/*` keys under `--host-time`).
    pub snapshot: Snapshot,
}

/// Runs the suite at a workload scale on the given host scheduler.
/// `scale = 1.0` is the committed-baseline configuration (the only one
/// `--check` can compare).
pub fn run(scale: f64, sched: HostSched) -> Bench {
    let suite = run_suite(&SuiteConfig { scale, sched });
    let snapshot = suite.snapshot();
    Bench { suite, snapshot }
}

/// Like [`run`], but wraps the sweep in a host wall-clock measurement and
/// adds it as ungated `perf/host/*` keys (`--host-time`). Every other key
/// is identical to an untimed run.
pub fn run_timed(scale: f64, sched: HostSched) -> Bench {
    let start = Instant::now();
    let mut b = run(scale, sched);
    let host_ns = start.elapsed().as_nanos() as f64;
    let points = &b.suite.points;
    let sim_cycles = points.iter().map(|p| p.cycles).sum::<u64>() as f64;
    let threads = sched.effective_threads(points.len()) as f64;
    let (ns_per_cycle, sim_mcps) = if host_ns == 0.0 || sim_cycles == 0.0 {
        (0.0, 0.0)
    } else {
        (host_ns / sim_cycles, sim_cycles * 1.0e3 / host_ns)
    };
    let s = &mut b.snapshot;
    s.info("perf/host/host_ns", host_ns, "ns", Better::Lower);
    s.info("perf/host/sim_cycles", sim_cycles, "cycles", Better::Exact);
    s.info(
        "perf/host/ns_per_cycle",
        ns_per_cycle,
        "ns/cycle",
        Better::Lower,
    );
    s.info("perf/host/sim_mcps", sim_mcps, "Mcycles/s", Better::Higher);
    s.info("perf/host/threads", threads, "threads", Better::Exact);
    b
}

impl Bench {
    /// The per-figure sweep tables plus the headline ratios.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Paper-figure perf suite — scale {} ({} points)\n",
            self.suite.scale,
            self.suite.points.len()
        );
        for figure in ["selectivity", "size", "sort", "cores"] {
            let points: Vec<_> = self
                .suite
                .points
                .iter()
                .filter(|p| p.figure == figure)
                .collect();
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
        for (name, value) in &self.suite.ratios {
            out.push_str(&format!("  {name:<28} {value:.3}\n"));
        }
        let host = |k: &str| self.snapshot.value(&format!("perf/host/{k}"));
        if let Some(host_ns) = host("host_ns") {
            out.push_str(&format!(
                "\nHost timing ({} thread(s)):\n  \
                 wall clock                   {:.1} ms\n  \
                 simulated cycles             {}\n  \
                 host ns / simulated cycle    {:.2}\n  \
                 sim throughput               {:.1} Mcycles/s\n",
                host("threads").unwrap_or(0.0),
                host_ns / 1.0e6,
                host("sim_cycles").unwrap_or(0.0),
                host("ns_per_cycle").unwrap_or(0.0),
                host("sim_mcps").unwrap_or(0.0),
            ));
        }
        out
    }

    /// Folded stacks (`figure;kernel;model@x cycles`) for flamegraph
    /// tools — one frame per sweep point, weighted by simulated cycles.
    pub fn folded(&self) -> FoldedStacks {
        let mut fs = FoldedStacks::new();
        for p in &self.suite.points {
            let leaf = format!("{}@x={}", p.model, p.x);
            fs.add(&[p.figure, p.kernel, &leaf], p.cycles);
        }
        fs
    }
}

/// Parses a `--threads` flag value into a host scheduler: absent falls
/// back to `DBX_HOST_THREADS`, `0`/`auto` means all host cores, `1`
/// forces the sequential path, `n` pins the worker count. Anything else
/// is an error naming the value.
pub fn sched_from_flag(threads: Option<&str>) -> Result<HostSched, String> {
    match threads {
        None => Ok(HostSched::from_env()),
        Some("auto") | Some("0") => Ok(HostSched::Parallel { threads: 0 }),
        Some(n) => match n.parse::<usize>() {
            Ok(1) => Ok(HostSched::Sequential),
            Ok(n) => Ok(HostSched::Parallel { threads: n }),
            Err(_) => Err(format!("--threads takes a count or `auto`, got {n:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_figure_and_ratio() {
        let b = run(0.02, HostSched::Sequential);
        let text = b.render();
        for section in ["[selectivity]", "[size]", "[sort]", "[cores]"] {
            assert!(text.contains(section), "missing section {section}");
        }
        assert!(text.contains("hwset_vs_swset_published"));
        assert!(text.contains("hwsort_vs_swsort_published"));
    }

    #[test]
    fn folded_totals_match_the_points() {
        let b = run(0.02, HostSched::Sequential);
        let total: u64 = b.suite.points.iter().map(|p| p.cycles).sum();
        assert_eq!(b.folded().total_cycles(), total);
    }

    #[test]
    fn host_time_adds_ungated_keys_and_touches_nothing_else() {
        let plain = run(0.02, HostSched::Sequential);
        let timed = run_timed(0.02, HostSched::Sequential);
        let host = |k: &str| timed.snapshot.value(&format!("perf/host/{k}")).unwrap();
        assert!(host("host_ns") > 0.0);
        let cycles: u64 = timed.suite.points.iter().map(|p| p.cycles).sum();
        assert_eq!(host("sim_cycles"), cycles as f64);
        assert_eq!(host("threads"), 1.0);
        assert!(timed.render().contains("Host timing"));
        // Only the five host keys differ, and none of them gates.
        let deltas = dbx_observe::snapshot::compare(&plain.snapshot, &timed.snapshot);
        let changed: Vec<_> = deltas.iter().filter(|d| d.changed()).collect();
        assert_eq!(changed.len(), 5);
        assert!(changed.iter().all(|d| d.key.starts_with("perf/host/")));
        assert!(!deltas.iter().any(|d| d.regressed()));
    }

    #[test]
    fn threads_flag_maps_onto_the_scheduler() {
        let sched = |v| sched_from_flag(Some(v));
        assert_eq!(sched("1"), Ok(HostSched::Sequential));
        assert_eq!(sched("4"), Ok(HostSched::Parallel { threads: 4 }));
        assert_eq!(sched("auto"), Ok(HostSched::Parallel { threads: 0 }));
        assert_eq!(sched("0"), Ok(HostSched::Parallel { threads: 0 }));
        assert!(sched("abc").is_err());
        assert!(sched("-2").is_err());
    }
}
