//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro table2      Table 2  (throughput per configuration)
//! repro fig13       Figure 13 (selectivity sweep; add --csv for data)
//! repro table3      Table 3  (synthesis: area / fMAX / power)
//! repro table4      Table 4  (relative area per component)
//! repro table5      Table 5  (simulated merge-sort vs published swsort/Q9550)
//! repro table6      Table 6  (simulated intersection vs published swset/i7-920)
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
//! repro all         everything above but diff
//!
//! options: --quick   scale workloads down ~10x for a fast pass
//!          --csv     with fig13: print CSV instead of the table
//!          --op=union | --op=diff   with fig13: sweep another operation
//!
//! repro diff a.json b.json
//!                   compare two snapshots key by key: print the first
//!                   diverging keys, exit 1 if any key or value differs
//!
//! observe options:
//!          --json              print the benchmark snapshot JSON
//!          --perfetto <path>   write the Chrome-trace/Perfetto timeline
//!                              (schema-validated: an invalid trace is
//!                              not written and the run exits 1)
//!          --folded <path>     write folded stacks for flamegraph tools
//!          --top <n>           hotspot regions per kernel (default 3)
//!          --check <baseline>  gate against a committed snapshot
//!
//! bench options:
//!          --scale <f>         workload scale (default 1.0; overrides --quick)
//!          --json              print the perf snapshot JSON
//!          --folded <path>     write folded stacks for flamegraph tools
//!          --check <baseline>  gate against a committed BENCH_perf.json
//!
//! serve options:
//!          --scale <f>         workload scale (default 1.0; overrides --quick)
//!          --json              print the serve snapshot JSON
//!          --metrics           print the deterministic Prometheus-text
//!                              telemetry exposition (cycle domain)
//!          --metrics-json      print the JSON twin of --metrics
//!          --top-tail <n>      print the n worst requests with their
//!                              dominant latency phase
//!          --check <baseline>  gate against a committed BENCH_serve.json
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
//!          --check <baseline>  gate against a committed DSE_baseline.json
//!
//! --check prints the changed keys and exits 1 when a gated metric
//! regresses: `lower` metrics (cycles) by more than 3%, `higher` metrics
//! (the DSE frontier's best speedup) by a drop of more than 3%, `exact`
//! metrics (scale, serve admission counters, the rediscovered SOP/ST_S/
//! bundle shapes) on any change, or a gated key present on one side
//! only. An unknown flag, a flag the chosen experiment does not read, a
//! flag with a missing or malformed value, or a stray argument exits 2;
//! an unreadable or malformed file exits 1. Flags may precede the
//! experiment (`repro --scale 0.5 bench`). A reader closing stdout early
//! (`repro ... | head`) ends the run quietly with exit 0.
//!
//! Every artifact is in the simulated-cycle domain (Tables 5 and 6 set
//! the simulated DBA beside the *published* x86 numbers), so two runs of
//! `repro all` print the same bytes.
//! ```

use dbx_harness::{
    bench, dse, energy, fig13, isa_ref, observe, pipeline, resilience, scaling, serve, stream_exp,
    table2, table3, table4, table5, table6, width_exp,
};
use dbx_observe::snapshot::{compare, render_diff, Snapshot};
use dbx_observe::validate_chrome_trace;
use std::str::FromStr;

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Arity {
    /// A bare switch.
    Switch,
    /// Always followed by a value.
    Value,
    /// Followed by a value when the next argument is a number.
    OptionalNumber,
}

/// Every flag `repro` reads; any other `--` argument is a usage error.
const FLAGS: &[(&str, Arity)] = &[
    ("--quick", Arity::Switch),
    ("--csv", Arity::Switch),
    ("--op=union", Arity::Switch),
    ("--op=diff", Arity::Switch),
    ("--json", Arity::Switch),
    ("--perfetto", Arity::Value),
    ("--folded", Arity::Value),
    ("--top", Arity::Value),
    ("--check", Arity::Value),
    ("--scale", Arity::Value),
    ("--metrics", Arity::Switch),
    ("--metrics-json", Arity::Switch),
    ("--top-tail", Arity::Value),
    ("--profiled", Arity::OptionalNumber),
];

/// Every experiment and the flags it reads.
const EXPERIMENTS: &[(&str, &[&str])] = &[
    ("table2", &["--quick"]),
    ("fig13", &["--quick", "--csv", "--op=union", "--op=diff"]),
    ("table3", &[]),
    ("table4", &[]),
    ("table5", &["--quick"]),
    ("table6", &["--quick"]),
    ("stream", &["--quick"]),
    ("pipeline", &[]),
    ("scaling", &["--quick"]),
    ("energy", &["--quick"]),
    ("resilience", &["--quick"]),
    ("width", &[]),
    ("isa", &[]),
    (
        "observe",
        &[
            "--quick",
            "--json",
            "--perfetto",
            "--folded",
            "--top",
            "--check",
        ],
    ),
    (
        "bench",
        &["--quick", "--scale", "--json", "--folded", "--check"],
    ),
    (
        "serve",
        &[
            "--quick",
            "--scale",
            "--json",
            "--metrics",
            "--metrics-json",
            "--top-tail",
            "--check",
        ],
    ),
    ("monitor", &["--quick", "--scale", "--top-tail"]),
    ("dse", &["--json", "--profiled", "--check"]),
    ("diff", &[]),
];

/// What `repro all` runs, in order. It hands every experiment the same
/// arguments, so it accepts every flag.
const ALL: [&str; 16] = [
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
];

/// Splits the command line into the experiment (the first positional
/// argument that is not a flag's value; `all` when there is none) and
/// the positional arguments after it, and checks every flag against the
/// flags that experiment reads. Anything else is a usage error.
fn parse_command(args: &[String]) -> (&str, Vec<&str>) {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            positional.push(arg.as_str());
            continue;
        }
        let Some(&(flag, arity)) = FLAGS.iter().find(|(f, _)| f == arg) else {
            let known: Vec<&str> = FLAGS.iter().map(|(f, _)| *f).collect();
            usage_error(&format!("unknown flag {arg}; flags: {}", known.join(" ")));
        };
        flags.push(flag);
        // The flag's reader reports a missing or malformed value.
        let next = rest.as_slice().first();
        let takes_next = match arity {
            Arity::Switch => false,
            Arity::Value => next.is_some_and(|v| !v.starts_with("--")),
            Arity::OptionalNumber => next.is_some_and(|v| v.parse::<u64>().is_ok()),
        };
        if takes_next {
            rest.next();
        }
    }
    let (cmd, operands) = match positional.split_first() {
        Some((cmd, operands)) => (*cmd, operands.to_vec()),
        None => ("all", Vec::new()),
    };
    let reads: Vec<&str> = match EXPERIMENTS.iter().find(|(name, _)| *name == cmd) {
        Some((_, reads)) => reads.to_vec(),
        None if cmd == "all" => FLAGS.iter().map(|(f, _)| *f).collect(),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            usage_error(&format!(
                "unknown experiment '{cmd}'; available: {} all",
                names.join(" ")
            ))
        }
    };
    if let Some(flag) = flags.iter().find(|f| !reads.contains(f)) {
        usage_error(&format!("{cmd} does not take {flag}"));
    }
    if let (false, Some(extra)) = (cmd == "diff", operands.first()) {
        usage_error(&format!("unexpected argument '{extra}' after {cmd}"));
    }
    (cmd, operands)
}

/// Writes to stdout. A reader that closes the pipe early (`repro ... |
/// head`) has read all it wants, so that ends the run quietly with exit
/// 0; any other write error exits 1.
fn write_stdout(text: std::fmt::Arguments) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(text).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("repro: stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, operands) = parse_command(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let scale = if quick { 0.1 } else { 1.0 };

    let run_one = |name: &str| match name {
        "table2" => outln!("{}", table2::run(scale).render()),
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
                out!("{}", f.to_csv());
            } else {
                outln!("{}", f.render());
            }
        }
        "table3" => outln!("{}", table3::run().render()),
        "table4" => outln!("{}", table4::run().render()),
        "table5" => outln!("{}", table5::run(scale).render()),
        "table6" => outln!("{}", table6::run(scale).render()),
        "stream" => outln!("{}", stream_exp::run(scale).render()),
        "pipeline" => outln!("{}", pipeline::run().render()),
        "scaling" => outln!("{}", scaling::run(scale).render()),
        "energy" => outln!("{}", energy::run(scale).render()),
        "resilience" => outln!("{}", resilience::run(scale).render()),
        "width" => outln!("{}", width_exp::run().render()),
        "isa" => outln!("{}", isa_ref::render()),
        "observe" => run_observe(&args, scale),
        "bench" => run_bench(&args, scale),
        "serve" => run_serve(&args, scale),
        "monitor" => run_monitor(&args, scale),
        "dse" => run_dse(&args),
        "diff" => run_diff(&operands),
        other => unreachable!("parse_command accepted '{other}'"),
    };

    if cmd == "all" {
        for name in ALL {
            run_one(name);
            outln!();
        }
    } else {
        run_one(cmd);
    }
}

/// Reports a usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// Reports a file error naming the path and exits 1.
fn file_error(path: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("repro: {path}: {e}");
    std::process::exit(1);
}

/// The parsed value of a `--flag <value>` pair, `None` when the flag is
/// absent. A value that is missing, is itself a flag, or does not parse
/// is a usage error.
fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(raw) = args.get(i + 1).filter(|v| !v.starts_with("--")) else {
        usage_error(&format!("{flag} needs a value"));
    };
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => usage_error(&format!("{flag}: cannot parse {raw:?}")),
    }
}

/// The `--scale` value (a positive number), or `default`.
fn scale_flag(args: &[String], default: f64) -> f64 {
    match flag_value::<f64>(args, "--scale") {
        None => default,
        Some(s) if s.is_finite() && s > 0.0 => s,
        Some(s) => usage_error(&format!("--scale must be positive, got {s}")),
    }
}

fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| file_error(path, e));
    eprintln!("wrote {path}");
}

fn read_snapshot(path: &str) -> Snapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| file_error(path, e));
    Snapshot::parse(&text).unwrap_or_else(|e| file_error(path, e))
}

/// The `--check <baseline>` baseline, read before the experiment runs so
/// a bad path fails fast.
fn check_baseline(args: &[String]) -> Option<(String, Snapshot)> {
    flag_value::<String>(args, "--check").map(|path| {
        let snap = read_snapshot(&path);
        (path, snap)
    })
}

/// The one `--check` gate: compares `current` against the baseline,
/// prints the changed keys, and exits 1 on any regression.
fn run_check(baseline: Option<(String, Snapshot)>, current: &Snapshot) {
    let Some((path, baseline)) = baseline else {
        return;
    };
    let deltas = compare(&baseline, current);
    eprint!("{}", render_diff(&deltas));
    if deltas.iter().any(|d| d.regressed()) {
        eprintln!("gated metrics regressed against {path}");
        std::process::exit(1);
    }
    eprintln!("no gated regressions against {path}");
}

/// `repro diff a.json b.json`: exit 1 if any key or value differs.
fn run_diff(files: &[&str]) {
    let [a, b] = files[..] else {
        usage_error("diff needs exactly two snapshot files");
    };
    let (base, cur) = (read_snapshot(a), read_snapshot(b));
    let deltas = compare(&base, &cur);
    out!("{}", render_diff(&deltas));
    if deltas.iter().any(|d| d.changed()) {
        std::process::exit(1);
    }
}

fn run_observe(args: &[String], scale: f64) {
    let top: usize = flag_value(args, "--top").unwrap_or(3);
    let perfetto = flag_value::<String>(args, "--perfetto");
    let folded = flag_value::<String>(args, "--folded");
    let baseline = check_baseline(args);
    let o = observe::run(scale);

    if let Some(path) = perfetto {
        let trace = o.perfetto();
        // An export must load in the viewer: refuse to write an invalid one.
        if let Err(e) = validate_chrome_trace(&trace) {
            eprintln!("repro: generated trace is invalid, {path} not written: {e}");
            std::process::exit(1);
        }
        write_file(&path, &trace);
    }
    if let Some(path) = folded {
        write_file(&path, &o.folded().render());
    }
    let snapshot = o.snapshot();
    if args.iter().any(|a| a == "--json") {
        outln!("{snapshot}");
    } else {
        outln!("{}", o.render());
        outln!("{}", o.hotspot_report(top));
    }
    run_check(baseline, &snapshot);
}

fn run_serve(args: &[String], scale: f64) {
    let scale = scale_flag(args, scale);
    let top_tail = flag_value::<usize>(args, "--top-tail");
    let baseline = check_baseline(args);
    let s = serve::run(scale);

    let snapshot = s.snapshot();
    if args.iter().any(|a| a == "--metrics") {
        out!("{}", s.metrics());
    } else if args.iter().any(|a| a == "--metrics-json") {
        outln!("{}", s.metrics_json());
    } else if args.iter().any(|a| a == "--json") {
        outln!("{snapshot}");
    } else {
        outln!("{}", s.render());
        if let Some(n) = top_tail {
            outln!("{}", s.top_tail_report(n));
        }
    }
    if !s.recovery_ok() {
        eprintln!("crash recovery diverged from the pre-crash serving state");
        std::process::exit(1);
    }
    run_check(baseline, &snapshot);
}

fn run_monitor(args: &[String], scale: f64) {
    let scale = scale_flag(args, scale);
    let top_tail = flag_value(args, "--top-tail").unwrap_or(5);
    outln!("{}", serve::run(scale).monitor_report(top_tail));
}

fn run_dse(args: &[String]) {
    // `--profiled` takes an optional period.
    let profiled = args
        .iter()
        .position(|a| a == "--profiled")
        .map(|i| args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(64));
    let baseline = check_baseline(args);
    let d = dse::run();
    let snapshot = d.snapshot();
    if args.iter().any(|a| a == "--json") {
        outln!("{snapshot}");
    } else {
        outln!("{}", d.render());
    }
    if let Some(period) = profiled {
        outln!("{}", dse::profile_weighted(period).render());
    }
    run_check(baseline, &snapshot);
}

fn run_bench(args: &[String], scale: f64) {
    let scale = scale_flag(args, scale);
    let folded = flag_value::<String>(args, "--folded");
    let baseline = check_baseline(args);
    let suite = bench::run(scale);
    let snapshot = suite.snapshot();

    if let Some(path) = folded {
        write_file(&path, &suite.folded().render());
    }
    if args.iter().any(|a| a == "--json") {
        outln!("{snapshot}");
    } else {
        outln!("{}", suite.render());
    }
    run_check(baseline, &snapshot);
}
