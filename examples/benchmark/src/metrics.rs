//! The metrics the benchmark declares, the per-layer counters a traced
//! round collects, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dbx_cpu::RunStats;

use crate::trace::Layer;

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("sim_mcps", "Mcycles/s"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`. A
/// layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.progcache.assemblies_per_op", "count"),
    ("core.assemble_us", "us"),
    ("cpu.build_us", "us"),
    ("cpu.load_us", "us"),
    ("cpu.run_us", "us"),
    ("cpu.ns_per_cycle.base", "ns/cycle"),
    ("cpu.ns_per_cycle.eis", "ns/cycle"),
    ("cpu.fast_path_share", "ratio"),
    ("mem.stage_us", "us"),
    ("mem.readback_us", "us"),
    ("mem.bytes_staged_per_op", "B"),
    ("sim.ipc", "ratio"),
    ("sim.ext_ops_per_op", "count"),
    ("sim.stall.mem_per_op", "cycles"),
    ("sim.stall.load_use_per_op", "cycles"),
    ("sim.stall.control_per_op", "cycles"),
    ("sim.mispredicts_per_op", "count"),
    ("query.service_us", "us"),
    ("query.service_self_us", "us"),
    ("query.index_build_us", "us"),
    ("query.index_builds_per_query", "count"),
    ("query.engine_us", "us"),
    ("query.set_ops_per_query", "count"),
    ("query.elements_per_query", "count"),
    ("storage.commit_us", "us"),
    ("storage.disk_us_per_write", "us"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.snapshot_bytes_per_write", "B"),
    ("storage.write_amp", "ratio"),
    ("storage.fsyncs_per_write", "count"),
    ("trace.overhead", "ratio"),
    ("trace.replica_mismatches", "count"),
];

/// Counts a traced round collects beside its spans.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    pub ops: u64,
    pub cycles: u64,
    pub fast_cycles: u64,
    pub cycles_base: u64,
    pub run_ns_base: u64,
    pub cycles_eis: u64,
    pub run_ns_eis: u64,
    pub staged_bytes: u64,
    pub instrs: u64,
    pub ext_ops: u64,
    pub stall_mem: u64,
    pub stall_load_use: u64,
    pub stall_control: u64,
    pub mispredicts: u64,
    pub queries: u64,
    pub writes: u64,
    pub set_ops: u64,
    pub elements: u64,
    pub index_builds: u64,
    pub user_bytes: u64,
    pub disk_ns: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub fsyncs: u64,
    pub replica_mismatches: u64,
}

impl LayerCounters {
    /// Adds one kernel run's simulated cycles and event counters.
    pub fn add_stats(&mut self, stats: &RunStats) {
        let c = &stats.counters;
        self.cycles += stats.cycles;
        self.instrs += c.instrs;
        self.ext_ops += c.ext_ops;
        self.stall_mem += c.stall_mem;
        self.stall_load_use += c.stall_load_use;
        self.stall_control += c.stall_control;
        self.mispredicts += c.mispredicts;
    }
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// One traced round's per-layer metrics, except the two the caller
/// derives across rounds (`core.progcache.assemblies_per_op` and
/// `trace.overhead`).
pub fn layer_metrics(
    layers: &BTreeMap<&'static str, Layer>,
    c: &LayerCounters,
) -> BTreeMap<&'static str, f64> {
    let us = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64 / 1e3;
    let requests = c.queries + c.writes;
    let shadow = us("storage.commit") + us("query.index_build") + us("query.engine");
    BTreeMap::from([
        ("core.assemble_us", per(us("core.assemble"), c.ops)),
        ("cpu.build_us", per(us("cpu.build"), c.ops)),
        ("cpu.load_us", per(us("cpu.load"), c.ops)),
        ("cpu.run_us", per(us("cpu.run"), c.ops)),
        (
            "cpu.ns_per_cycle.base",
            per(c.run_ns_base as f64, c.cycles_base),
        ),
        (
            "cpu.ns_per_cycle.eis",
            per(c.run_ns_eis as f64, c.cycles_eis),
        ),
        ("cpu.fast_path_share", per(c.fast_cycles as f64, c.cycles)),
        ("mem.stage_us", per(us("mem.stage"), c.ops)),
        ("mem.readback_us", per(us("mem.readback"), c.ops)),
        ("mem.bytes_staged_per_op", per(c.staged_bytes as f64, c.ops)),
        ("sim.ipc", per(c.instrs as f64, c.cycles)),
        ("sim.ext_ops_per_op", per(c.ext_ops as f64, c.ops)),
        ("sim.stall.mem_per_op", per(c.stall_mem as f64, c.ops)),
        (
            "sim.stall.load_use_per_op",
            per(c.stall_load_use as f64, c.ops),
        ),
        (
            "sim.stall.control_per_op",
            per(c.stall_control as f64, c.ops),
        ),
        ("sim.mispredicts_per_op", per(c.mispredicts as f64, c.ops)),
        ("query.service_us", per(us("query.service"), requests)),
        (
            "query.service_self_us",
            per(us("query.service") - shadow, requests),
        ),
        (
            "query.index_build_us",
            per(us("query.index_build"), c.queries),
        ),
        (
            "query.index_builds_per_query",
            per(c.index_builds as f64, c.queries),
        ),
        ("query.engine_us", per(us("query.engine"), c.queries)),
        ("query.set_ops_per_query", per(c.set_ops as f64, c.queries)),
        (
            "query.elements_per_query",
            per(c.elements as f64, c.queries),
        ),
        ("storage.commit_us", per(us("storage.commit"), c.writes)),
        (
            "storage.disk_us_per_write",
            per(c.disk_ns as f64 / 1e3, c.writes),
        ),
        (
            "storage.wal_bytes_per_write",
            per(c.wal_bytes as f64, c.writes),
        ),
        (
            "storage.snapshot_bytes_per_write",
            per(c.snapshot_bytes as f64, c.writes),
        ),
        (
            "storage.write_amp",
            per((c.wal_bytes + c.snapshot_bytes) as f64, c.user_bytes),
        ),
        ("storage.fsyncs_per_write", per(c.fsyncs as f64, c.writes)),
        ("trace.replica_mismatches", c.replica_mismatches as f64),
    ])
}

/// The last line of a run: `correct`, `attempted`, `failed` and exactly
/// the `declared` metrics, each with its unit. A declared metric missing
/// from `values`, or a value not declared, is a harness error.
pub fn result_line(
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&str, f64>,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(d, _)| d == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_observe::json::Json;

    fn declared_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        assert_eq!(owned(&END_TO_END), declared_in_benchmark_json("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared_in_benchmark_json("per_layer"));
    }

    #[test]
    fn every_per_layer_metric_is_produced() {
        let mut values = layer_metrics(&BTreeMap::new(), &LayerCounters::default());
        values.insert("core.progcache.assemblies_per_op", 0.0);
        values.insert("trace.overhead", 1.0);
        let line = result_line(1, 0, &values, &PER_LAYER).expect("all declared");
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn the_result_line_rejects_missing_and_undeclared_metrics() {
        let mut values: BTreeMap<&str, f64> = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(10, 2, &values, &END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2,"));
        assert!(line.contains("\"op_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        values.insert("bogus", 1.0);
        assert!(result_line(10, 0, &values, &END_TO_END).is_err());
        values.remove("bogus");
        values.remove("setup_s");
        assert!(result_line(10, 0, &values, &END_TO_END).is_err());
    }
}
