//! Host-time benchmark of the simulated database ASIP's kernel and serve
//! paths: one closed-loop client, fixed-size rounds, every op timed and
//! checked against a host reference. See README.md for the workloads,
//! the metrics and the commands.

mod kernel;
mod metrics;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dbx_core::progcache;

use kernel::KernelWorkload;
use metrics::{layer_metrics, result_line, LayerCounters, END_TO_END, PER_LAYER};
use serve::ServeWorkload;
use stats::{better_quartile, fnv1a, median, nearest_rank};
use trace::{layer_table, Layer, Tracer};

const WORKLOADS: [&str; 4] = ["setop_short", "sweep_long", "serve_read", "serve_mixed"];
/// Set-ups per run: `setup_s` is their median, and the last one is the
/// state the rounds measure.
const SETUPS: usize = 7;
/// Rounds (traced runs: untraced/traced pairs) measured at least.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;
/// Share of a round that the untimed warm-up of every set-up runs.
const WARMUP_SHARE: f64 = 0.1;
/// Share of each workload's round that `--smoke` runs.
const SMOKE_SHARE: f64 = 0.01;
/// Ops of the first traced round whose spans go to the trace file.
const TRACE_FILE_OPS: usize = 2_000;
/// Directory, under the working directory, of the Chrome-trace files.
const TRACE_DIR: &str = "bench-out";
const WRONG_SHOWN: usize = 5;

const USAGE: &str = "usage: benchmark --workload <setop_short|sweep_long|serve_read|serve_mixed> \
                     --seed <n> [--seconds <s>] [--trace <0|1>]\n       benchmark --smoke";

/// One op as the round loop sees it.
pub struct Sample {
    /// Host time of the public call; in traced rounds, of the traced
    /// replay as well.
    pub ns: u64,
    /// Why the output was wrong, when it was.
    pub wrong: Option<String>,
    /// Simulated latency of the op.
    pub sim_cycles: u64,
    /// Simulated kernel cycles, the `sim_mcps` numerator.
    pub kernel_cycles: u64,
}

impl Sample {
    pub fn error(ns: u64, what: String) -> Sample {
        Sample {
            ns,
            wrong: Some(what),
            sim_cycles: 0,
            kernel_cycles: 0,
        }
    }
}

/// A traced round's spans and counters.
pub struct Traced {
    pub tracer: Tracer,
    pub counters: LayerCounters,
}

/// A workload: a fixed op sequence per round, run by one client that
/// issues the next op when the previous one returns.
pub trait Workload {
    fn ops_per_round(&self) -> usize;
    /// Untimed preparation of a round.
    fn start_round(&mut self, traced: bool) -> Result<(), String>;
    /// Runs op `i` of the round, timed, and checks its output.
    fn op(&mut self, i: usize, traced: Option<&mut Traced>) -> Sample;
    /// Untimed end-of-round checks; `Some` says what failed.
    fn finish_round(&mut self) -> Result<Option<String>, String>;
    /// The workload's exact counters for the round just finished.
    fn exact(&self) -> Vec<(&'static str, u64)>;
}

pub fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "setop_short" => Box::new(KernelWorkload::setop_short(seed)),
        "sweep_long" => Box::new(KernelWorkload::sweep_long(seed)),
        "serve_read" => Box::new(ServeWorkload::read(seed)?),
        "serve_mixed" => Box::new(ServeWorkload::mixed(seed)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// One set-up: generate the inputs from the seed, open and preload, and
/// run an untimed warm-up over the first ops of a round.
fn set_up(name: &str, seed: u64, share: f64) -> Result<Box<dyn Workload>, String> {
    let mut w = build(name, seed)?;
    let warm = ((w.ops_per_round() as f64 * WARMUP_SHARE * share) as usize).max(1);
    w.start_round(false)?;
    for i in 0..warm {
        w.op(i, None);
    }
    w.finish_round()?;
    Ok(w)
}

/// Wrong outputs: all counted, the first few kept for the report.
#[derive(Default)]
struct Wrong {
    count: u64,
    shown: Vec<String>,
}

impl Wrong {
    fn record(&mut self, round: usize, what: String) {
        self.count += 1;
        if self.shown.len() < WRONG_SHOWN {
            self.shown.push(format!("round {round}: {what}"));
        }
    }
}

#[derive(Default)]
struct Round {
    attempted: u64,
    ops: u64,
    /// Host time of all ops, without the untimed checks between them.
    op_ns: u64,
    /// Host and simulated latencies of the correct ops, ascending.
    latencies: Vec<u64>,
    sim: Vec<u64>,
    kernel_cycles: u64,
    assemblies: u64,
    exact: Vec<(&'static str, u64)>,
    layers: BTreeMap<&'static str, Layer>,
    layer_values: BTreeMap<&'static str, f64>,
}

impl Round {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.op_ns.max(1) as f64
    }

    fn op_us(&self, pct: u32) -> f64 {
        nearest_rank(&self.latencies, pct).unwrap_or(0) as f64 / 1e3
    }

    fn sim_mcps(&self) -> f64 {
        self.kernel_cycles as f64 * 1e3 / self.op_ns.max(1) as f64
    }

    fn sim_cycles(&self, pct: u32) -> u64 {
        nearest_rank(&self.sim, pct).unwrap_or(0)
    }

    /// Every exact metric of the round, for the digest.
    fn exact_metrics(&self) -> Vec<(&'static str, u64)> {
        let mut v = vec![
            ("sim_p50_cycles", self.sim_cycles(50)),
            ("sim_p99_cycles", self.sim_cycles(99)),
            ("sim.kernel_cycles", self.kernel_cycles),
            ("core.progcache.assemblies", self.assemblies),
        ];
        v.extend_from_slice(&self.exact);
        v
    }
}

fn run_round(
    w: &mut dyn Workload,
    n: usize,
    mut traced: Option<&mut Traced>,
    round: usize,
    wrong: &mut Wrong,
) -> Result<Round, String> {
    w.start_round(traced.is_some())?;
    let assemblies = progcache::assemblies();
    let mut r = Round::default();
    for i in 0..n {
        let s = w.op(i, traced.as_deref_mut());
        if let Some(t) = traced.as_deref_mut() {
            t.tracer.end_op(i as u64);
        }
        r.ops += 1;
        r.op_ns += s.ns;
        r.kernel_cycles += s.kernel_cycles;
        match s.wrong {
            None => {
                r.latencies.push(s.ns);
                r.sim.push(s.sim_cycles);
            }
            Some(what) => wrong.record(round, format!("op {i}: {what}")),
        }
    }
    r.assemblies = progcache::assemblies() - assemblies;
    r.attempted = r.ops;
    if let Some(what) = w.finish_round()? {
        r.attempted += 1;
        wrong.record(round, format!("end of round: {what}"));
    }
    r.latencies.sort_unstable();
    r.sim.sort_unstable();
    r.exact = w.exact();
    if let Some(t) = traced {
        r.layers = t.tracer.take_layers();
        r.layer_values = layer_metrics(&r.layers, &t.counters);
        t.counters = LayerCounters::default();
    }
    Ok(r)
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn print_rounds(label: &str, rounds: &[Round]) {
    println!(
        "{label:<9} {:>5} {:>8} {:>11} {:>10} {:>10} {:>10}",
        "round", "ops", "ops/s", "p50_us", "p90_us", "sim_Mcps"
    );
    for (k, r) in rounds.iter().enumerate() {
        println!(
            "{label:<9} {k:>5} {:>8} {:>11.1} {:>10.3} {:>10.3} {:>10.3}",
            r.ops,
            r.ops_per_s(),
            r.op_us(50),
            r.op_us(90),
            r.sim_mcps()
        );
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn quartile_of(rounds: &[Round], f: impl Fn(&Round) -> f64, higher_is_better: bool) -> f64 {
    better_quartile(&rounds.iter().map(f).collect::<Vec<_>>(), higher_is_better)
}

fn run(args: &Args) -> Result<String, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(set_up(&args.workload, args.seed, 1.0)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.ok_or("no set-up ran")?;
    let n = w.ops_per_round();
    let mut traced = args.trace.then(|| Traced {
        tracer: Tracer::new(TRACE_FILE_OPS),
        counters: LayerCounters::default(),
    });
    let (mut untraced_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let mut wrong = Wrong::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let k = untraced_rounds.len() + traced_rounds.len();
        untraced_rounds.push(run_round(w.as_mut(), n, None, k, &mut wrong)?);
        let measured = match traced.as_mut() {
            Some(t) => {
                traced_rounds.push(run_round(w.as_mut(), n, Some(t), k + 1, &mut wrong)?);
                traced_rounds.len() >= MIN_TRACED_PAIRS
            }
            None => untraced_rounds.len() >= MIN_ROUNDS,
        };
        if measured && start.elapsed() + t0.elapsed() > budget {
            break;
        }
    }

    println!(
        "workload {} seed {} trace {}: {n} ops per round, set-up {:.3} s (median of {SETUPS})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        median(&setup_s)
    );
    print_rounds("untraced", &untraced_rounds);
    print_rounds("traced", &traced_rounds);
    let attempted: u64 = untraced_rounds
        .iter()
        .chain(&traced_rounds)
        .map(|r| r.attempted)
        .sum();
    println!("wrong outputs: {} of {attempted}", wrong.count);
    for line in &wrong.shown {
        println!("  {line}");
    }
    let exact = untraced_rounds[0].exact_metrics();
    let text: String = exact.iter().map(|(k, v)| format!("{k}={v};")).collect();
    println!("exact digest {:016x}: {text}", fnv1a(text.as_bytes()));

    let p50 = |rounds: &[Round]| quartile_of(rounds, |r| r.op_us(50), false);
    let values: BTreeMap<&str, f64> = match traced {
        None => BTreeMap::from([
            (
                "ops_per_s",
                quartile_of(&untraced_rounds, Round::ops_per_s, true),
            ),
            ("op_p50_us", p50(&untraced_rounds)),
            (
                "op_p90_us",
                quartile_of(&untraced_rounds, |r| r.op_us(90), false),
            ),
            (
                "sim_mcps",
                quartile_of(&untraced_rounds, Round::sim_mcps, true),
            ),
            ("sim_p50_cycles", untraced_rounds[0].sim_cycles(50) as f64),
            ("sim_p99_cycles", untraced_rounds[0].sim_cycles(99) as f64),
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", peak_rss_mib()?),
        ]),
        Some(t) => {
            let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
            for r in &traced_rounds {
                for (name, l) in &r.layers {
                    layers.entry(name).or_default().merge(l);
                }
            }
            let op_ns = traced_rounds.iter().map(|r| r.op_ns).sum();
            print!("{}", layer_table(&layers, op_ns));
            std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
            let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
            std::fs::write(&path, t.tracer.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
            println!("chrome trace: {path}");
            let mut values: BTreeMap<&str, f64> = traced_rounds[0]
                .layer_values
                .keys()
                .map(|&name| (name, median_of(&traced_rounds, |r| r.layer_values[name])))
                .collect();
            let first = &untraced_rounds[0];
            values.insert(
                "core.progcache.assemblies_per_op",
                first.assemblies as f64 / first.ops.max(1) as f64,
            );
            values.insert(
                "trace.overhead",
                p50(&traced_rounds) / p50(&untraced_rounds),
            );
            values
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    result_line(attempted, wrong.count, &values, declared)
}

/// Every workload at a small share of its round, untraced and traced,
/// with every check.
fn smoke() -> Result<String, String> {
    let mut wrong = Wrong::default();
    let mut attempted = 0;
    for name in WORKLOADS {
        let t0 = Instant::now();
        let mut w = set_up(name, 1, SMOKE_SHARE)?;
        let n = ((w.ops_per_round() as f64 * SMOKE_SHARE) as usize).max(1);
        let plain = run_round(w.as_mut(), n, None, 0, &mut wrong)?;
        let mut t = Traced {
            tracer: Tracer::new(0),
            counters: LayerCounters::default(),
        };
        let traced = run_round(w.as_mut(), n, Some(&mut t), 1, &mut wrong)?;
        attempted += plain.attempted + traced.attempted;
        println!(
            "{name:<12} {n:>5} ops per round: p50 {:.1} us untraced, {:.1} us traced, \
             {} replica mismatches, {:.2} s",
            plain.op_us(50),
            traced.op_us(50),
            traced.layer_values["trace.replica_mismatches"],
            t0.elapsed().as_secs_f64()
        );
    }
    println!("wrong outputs: {} of {attempted}", wrong.count);
    for line in &wrong.shown {
        println!("  {line}");
    }
    result_line(attempted, wrong.count, &BTreeMap::new(), &[])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match if args.smoke { smoke() } else { run(&args) } {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: harness error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = args("--workload serve_read --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_read", 7, 12.0, true)
        );
        assert!(args("--smoke").unwrap().smoke);
        for bad in [
            "--workload nope --seed 1",
            "--workload serve_read --trace 2",
            "--workload serve_read --seed x",
            "--workload serve_read --seconds 0",
            "--workload serve_read --seed",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
