//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro table2      Table 2  (throughput per configuration)
//! repro fig13       Figure 13 (selectivity sweep; add --csv for data)
//! repro table3      Table 3  (synthesis: area / fMAX / power)
//! repro table4      Table 4  (relative area per component)
//! repro table5      Table 5  (merge-sort vs swsort/Q9550)
//! repro table6      Table 6  (intersection vs swset/i7-920)
//! repro stream      Section 5.2 (prefetcher / constant throughput)
//! repro pipeline    Section 4  (cycles per iteration vs unroll)
//! repro scaling     Section 5.4 (multi-core area equivalence)
//! repro energy      energy per element, all configurations
//! repro resilience  local-store protection cost + seeded fault campaign
//! repro width       Section 2.2 (vector-width area/bandwidth tradeoff)
//! repro isa         instruction-set reference (generated from descriptors)
//! repro observe     observability matrix: hotspots, Perfetto, benchmark snapshot
//! repro bench       paper-figure perf suite: sweeps, ratios, BENCH_perf.json
//! repro serve       durable query serving under admission control:
//!                   qps + p50/p99 cycle latency, BENCH_serve.json
//! repro monitor     operator view of the serving run: SLO windows,
//!                   burn-rate alerts, per-phase tail attribution
//! repro dse         automatic ISA-extension mining (DFG enumeration +
//!                   synth-priced Pareto search over the scalar kernels)
//! repro all         everything above
//!
//! options: --quick   scale workloads down ~10x for a fast pass
//!          --csv     with fig13: print CSV instead of the table
//!          --op=union | --op=diff   with fig13: sweep another operation
//!
//! observe options:
//!          --json              print the benchmark snapshot JSON
//!          --perfetto <path>   write the Chrome-trace/Perfetto timeline
//!          --folded <path>     write folded stacks for flamegraph tools
//!          --top <n>           hotspot regions per kernel (default 3)
//!          --check <baseline>  diff against a committed snapshot; exit 1
//!                              on any >3% cycle regression
//!
//! bench options:
//!          --scale <f>         workload scale (default 1.0; overrides --quick)
//!          --threads <n|auto>  host worker threads for the sweep fan-out
//!                              (default: DBX_HOST_THREADS, else sequential)
//!          --json              print the perf snapshot JSON
//!          --folded <path>     write folded stacks for flamegraph tools
//!          --host-time         measure host wall-clock for the sweep and
//!                              stamp ns-per-simulated-cycle metadata into
//!                              the snapshot (ignored by --check)
//!          --check <baseline>  diff against a committed BENCH_perf.json;
//!                              exit 1 on any >3% cycle regression
//!
//! serve options:
//!          --scale <f>         workload scale (default 1.0; overrides --quick)
//!          --json              print the serve snapshot JSON
//!          --metrics           print the deterministic Prometheus-text
//!                              telemetry exposition (cycle domain)
//!          --metrics-json      print the JSON twin of --metrics
//!          --top-tail <n>      print the n worst requests with their
//!                              dominant latency phase
//!          --check <baseline>  diff against a committed BENCH_serve.json;
//!                              exit 1 on any >3% cycle regression or any
//!                              admission-counter drift
//!
//! monitor options:
//!          --scale <f>         workload scale (default 1.0; overrides --quick)
//!          --top-tail <n>      tail rows in the attribution section
//!                              (default 5)
//!
//! dse options:
//!          --json              print the deterministic mining snapshot
//!          --profiled [period] also mine with weights measured by the
//!                              sampled profiler (one compare per step;
//!                              default period 64 cycles)
//!          --check <baseline>  gate against a committed DSE_baseline.json;
//!                              exit 1 when a rediscovered SOP/ST_S/bundle
//!                              shape disappears or the frontier's best
//!                              speedup regresses >3%
//! ```

use dbx_harness::{
    bench, dse, energy, fig13, isa_ref, monitor, observe, pipeline, resilience, scaling, serve,
    stream_exp, table2, table3, table4, table5, table6, width_exp,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let scale = if quick { 0.1 } else { 1.0 };

    let run_one = |name: &str| match name {
        "table2" => println!("{}", table2::run(scale).render()),
        "fig13" => {
            let kind = if args.iter().any(|a| a == "--op=union") {
                dbx_core::SetOpKind::Union
            } else if args.iter().any(|a| a == "--op=diff") {
                dbx_core::SetOpKind::Difference
            } else {
                dbx_core::SetOpKind::Intersect
            };
            let f = fig13::run_op(kind, scale);
            if csv {
                print!("{}", f.to_csv());
            } else {
                println!("{}", f.render());
            }
        }
        "table3" => println!("{}", table3::run().render()),
        "table4" => println!("{}", table4::run().render()),
        "table5" => println!("{}", table5::run(scale).render()),
        "table6" => println!("{}", table6::run(scale).render()),
        "stream" => println!("{}", stream_exp::run(scale).render()),
        "pipeline" => println!("{}", pipeline::run().render()),
        "scaling" => println!("{}", scaling::run(scale).render()),
        "energy" => println!("{}", energy::run(scale).render()),
        "resilience" => println!("{}", resilience::run(scale).render()),
        "width" => println!("{}", width_exp::run().render()),
        "isa" => println!("{}", isa_ref::render()),
        "observe" => run_observe(&args, scale),
        "bench" => run_bench(&args, scale),
        "serve" => run_serve(&args, scale),
        "monitor" => run_monitor(&args, scale),
        "dse" => run_dse(&args),
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "available: table2 fig13 table3 table4 table5 table6 stream pipeline scaling energy resilience width isa observe bench serve monitor dse all"
            );
            std::process::exit(2);
        }
    };

    if cmd == "all" {
        for name in [
            "table2",
            "fig13",
            "table3",
            "table4",
            "table5",
            "table6",
            "stream",
            "pipeline",
            "scaling",
            "energy",
            "resilience",
            "width",
            "observe",
            "bench",
            "serve",
            "dse",
        ] {
            run_one(name);
            println!();
        }
    } else {
        run_one(cmd);
    }
}

/// Value of a `--flag <value>` pair, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Shared `--check` driver for the gated snapshots (observe, bench,
/// serve). Reads the committed baseline, renders the diff table, and
/// exits 1 on any regression or on a malformed baseline. The threshold
/// arithmetic itself lives in `dbx_bench::gate`; this owns only the
/// exit policy.
fn run_check<D, E: std::fmt::Display>(
    args: &[String],
    unit: &str,
    check: impl FnOnce(&str) -> Result<Vec<D>, E>,
    render: impl FnOnce(&[D]) -> String,
    regressed: impl Fn(&D) -> bool,
) {
    let Some(path) = flag_value(args, "--check") else {
        return;
    };
    let baseline = std::fs::read_to_string(path).expect("read baseline snapshot");
    match check(&baseline) {
        Ok(diffs) => {
            let regressions = diffs.iter().filter(|d| regressed(d)).count();
            eprintln!("{}", render(&diffs));
            if regressions > 0 {
                eprintln!("{regressions} {unit}(s) regressed beyond the 3% threshold");
                std::process::exit(1);
            }
            eprintln!("no cycle regressions against {path}");
        }
        Err(e) => {
            eprintln!("baseline comparison failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_observe(args: &[String], scale: f64) {
    let o = observe::run(scale);
    let top: usize = flag_value(args, "--top")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    if let Some(path) = flag_value(args, "--perfetto") {
        std::fs::write(path, o.perfetto()).expect("write perfetto trace");
        eprintln!("wrote Perfetto trace to {path}");
    }
    if let Some(path) = flag_value(args, "--folded") {
        std::fs::write(path, o.folded().render()).expect("write folded stacks");
        eprintln!("wrote folded stacks to {path}");
    }

    if args.iter().any(|a| a == "--json") {
        println!("{}", o.snapshot().to_json());
    } else {
        println!("{}", o.render());
        println!("{}", o.hotspot_report(top));
    }

    run_check(
        args,
        "cell",
        |baseline| o.check(baseline),
        observe::Observe::render_diff,
        |d| d.regression,
    );
}

fn run_serve(args: &[String], scale: f64) {
    let scale = flag_value(args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(scale);
    let s = serve::run(scale);

    if args.iter().any(|a| a == "--metrics") {
        print!("{}", s.metrics());
    } else if args.iter().any(|a| a == "--metrics-json") {
        println!("{}", s.metrics_json());
    } else if args.iter().any(|a| a == "--json") {
        println!("{}", s.snapshot.to_json());
    } else {
        println!("{}", s.render());
        if let Some(n) = flag_value(args, "--top-tail").and_then(|v| v.parse().ok()) {
            println!("{}", s.top_tail_report(n));
        }
    }
    if !s.recovery_ok() {
        eprintln!("crash recovery diverged from the pre-crash serving state");
        std::process::exit(1);
    }

    run_check(
        args,
        "metric",
        |baseline| s.check(baseline),
        serve::Serve::render_diff,
        |d| d.regression,
    );
}

fn run_monitor(args: &[String], scale: f64) {
    let scale = flag_value(args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(scale);
    let top_tail = flag_value(args, "--top-tail")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let m = monitor::run(scale);
    println!("{}", m.render(top_tail));
}

fn run_dse(args: &[String]) {
    let d = dse::run();
    if args.iter().any(|a| a == "--json") {
        println!("{}", d.snapshot());
    } else {
        println!("{}", d.render());
    }
    if args.iter().any(|a| a == "--profiled") {
        let period = flag_value(args, "--profiled")
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        println!("{}", dse::profile_weighted(period).render());
    }
    if let Some(path) = flag_value(args, "--check") {
        let baseline = std::fs::read_to_string(path).expect("read DSE baseline");
        match d.check(&baseline) {
            Ok(failures) if failures.is_empty() => {
                eprintln!("DSE gate passes against {path}");
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("DSE gate: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("baseline comparison failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn run_bench(args: &[String], scale: f64) {
    let scale = flag_value(args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(scale);
    let sched = bench::sched_from_flag(flag_value(args, "--threads"));
    let b = if args.iter().any(|a| a == "--host-time") {
        bench::run_timed(scale, sched)
    } else {
        bench::run(scale, sched)
    };

    if let Some(path) = flag_value(args, "--folded") {
        std::fs::write(path, b.folded().render()).expect("write folded stacks");
        eprintln!("wrote folded stacks to {path}");
    }

    if args.iter().any(|a| a == "--json") {
        println!("{}", b.snapshot.to_json());
    } else {
        println!("{}", b.render());
    }

    run_check(
        args,
        "point",
        |baseline| b.check(baseline),
        bench::Bench::render_diff,
        |d| d.regression,
    );
}
