//! `repro serve` — the sustained-load serving benchmark
//! (`BENCH_serve.json`).
//!
//! Drives a deterministic open-loop workload through the durable
//! [`QueryService`]: a create, a stream of point/range queries and
//! row appends against the `items` table, table churn on a scratch
//! table, and one synchronized burst sized to overflow the admission
//! queue (so shedding is exercised, not just configured). Everything —
//! arrival times, request mix, service times, retries — lives in the
//! simulated cycle domain, so [`Serve::snapshot`] is bit-identical on
//! every host and CI gates it against the committed `BENCH_serve.json`:
//! a cycle regression above 3% on p50/p99/span fails, and *any* change
//! to the scale or the admission counters fails (the service behaved
//! differently).
//!
//! Every count and percentile is derived from the run's request records
//! (the [`TelemetryReport`]), so the snapshot, the human reports and both
//! expositions print the same numbers. [`Serve::monitor_report`] is the
//! operator's view of the same run (`repro monitor`): SLO windows in
//! virtual cycle time, the typed alerts the run fired with their burn
//! rates, and tail attribution.
//!
//! After the measured run the harness crash-recovers the store from its
//! WAL + snapshots and checks the recovered state digest — recovery is
//! on the serving path, not just in the test suite. The recovery
//! numbers are rendered for humans but kept out of the snapshot.

use crate::{scaled, SEED};
use dbx_core::ProcModel;
use dbx_faults::XorShift64;
use dbx_observe::telemetry::{
    percentile, AlertKind, MetricsWriter, Outcome, Phase, RequestRecord, SloPolicy, TelemetryReport,
};
use dbx_observe::{Better, Json, Snapshot};
use dbx_query::{Arrival, Predicate, QueryService, Request, ServiceConfig};
use dbx_storage::{Columns, MemDisk};
use dbx_synth::{fmax_mhz, Tech};

/// The serving model (the paper's headline configuration).
const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };

/// Admission queue capacity of the benchmark service.
const QUEUE_CAP: usize = 8;

/// Tenant labels cycled over the workload (requests are tagged
/// round-robin, so per-tenant counters are deterministic).
const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// The SLO policy the benchmark monitors against. Thresholds sit just
/// above the steady-state behaviour of the committed workload, so only
/// two deterministic events violate it: the seeding `create`'s WAL
/// commit (p99) and the synchronized overload burst (shed rate).
pub fn slo_policy() -> SloPolicy {
    SloPolicy {
        window_cycles: 20_000,
        p99_latency_cycles: 1_200,
        max_shed_rate: 0.01,
    }
}

/// The serving-benchmark result.
#[derive(Debug)]
pub struct Serve {
    /// Workload scale (`1.0` = the committed baseline's size).
    pub scale: f64,
    /// State digest after the measured run.
    pub digest: u32,
    /// State digest after crash + recovery (must equal `digest`).
    pub recovered_digest: u32,
    /// WAL frames replayed by the post-run recovery.
    pub frames_replayed: u64,
    /// Snapshot LSN the post-run recovery started from.
    pub snapshot_lsn: u64,
    /// The assembled telemetry: per-request records, latency histogram,
    /// SLO windows, and fired alerts (all in the cycle domain).
    pub telemetry: TelemetryReport,
}

/// Builds the deterministic serving workload at a scale.
fn workload(scale: f64) -> Vec<Arrival> {
    let n = scaled(48, scale);
    let burst_at = n / 2;
    let burst_len = (QUEUE_CAP + 6).min(n);
    let mut rng = XorShift64::new(SEED | 1);
    let mut scratch_exists = false;
    let mut out = Vec::with_capacity(n + burst_len + 1);
    out.push(Arrival::new(
        0,
        Request::Create {
            table: "items".into(),
            columns: seed_columns(scaled(192, scale), &mut rng),
        },
    ));
    let push = |at: u64, rng: &mut XorShift64, scratch_exists: &mut bool| {
        let request = match rng.below(10) {
            0..=3 => Request::Query {
                table: "items".into(),
                predicate: Predicate::eq("color", rng.below(6) as u32)
                    .and(Predicate::eq("size", rng.below(4) as u32)),
            },
            4..=5 => Request::Query {
                table: "items".into(),
                predicate: Predicate::eq("color", rng.below(6) as u32)
                    .or(Predicate::eq("color", rng.below(6) as u32)),
            },
            6..=8 => {
                let k = 1 + rng.below(4) as usize;
                Request::Append {
                    table: "items".into(),
                    rows: seed_columns(k, rng),
                }
            }
            _ => {
                if *scratch_exists {
                    *scratch_exists = false;
                    Request::Drop {
                        table: "scratch".into(),
                    }
                } else {
                    *scratch_exists = true;
                    Request::Create {
                        table: "scratch".into(),
                        columns: seed_columns(4, rng),
                    }
                }
            }
        };
        Arrival::new(at, request)
    };
    for i in 0..n {
        let at = (i as u64 + 1) * 2_000;
        out.push(push(at, &mut rng, &mut scratch_exists));
        if i == burst_at {
            // The overload burst: everything lands on the same cycle.
            for _ in 0..burst_len {
                out.push(push(at, &mut rng, &mut scratch_exists));
            }
        }
    }
    // Tag tenants round-robin over the arrival order (qid order), so
    // the per-tenant telemetry counters are a pure function of the
    // workload shape.
    for (i, a) in out.iter_mut().enumerate() {
        a.tenant = TENANTS[i % TENANTS.len()].to_string();
    }
    out
}

/// Deterministic `color`/`size` columns of `rows` rows.
fn seed_columns(rows: usize, rng: &mut XorShift64) -> Columns {
    let color: Vec<u32> = (0..rows).map(|_| rng.below(6) as u32).collect();
    let size: Vec<u32> = (0..rows).map(|_| rng.below(4) as u32).collect();
    vec![("color".into(), color), ("size".into(), size)]
}

/// Runs the serving benchmark at a workload scale (`1.0` = the committed
/// baseline's size).
pub fn run(scale: f64) -> Serve {
    let cfg = ServiceConfig {
        queue_cap: QUEUE_CAP,
        deadline: Some(5_000_000),
        max_retries: 2,
        backoff_base: 1_000,
        snapshot_every: 8,
        ..Default::default()
    };
    let mut service =
        QueryService::open(MemDisk::new(), MODEL, cfg).expect("open serve benchmark store");
    let workload = workload(scale);
    let telemetry = TelemetryReport::build(service.run(&workload).records(), &slo_policy());

    // Crash-recover the store and prove the serving state survives: the
    // recovered digest must match the pre-crash digest exactly.
    let digest = service.store().state_digest();
    let mut disk = service.into_store().into_disk();
    disk.crash();
    let recovered = dbx_storage::Store::open(disk, Default::default()).expect("recover store");
    let recovery = recovered.recovery().clone();
    Serve {
        scale,
        digest,
        recovered_digest: recovered.state_digest(),
        frames_replayed: recovery.frames_replayed,
        snapshot_lsn: recovery.snapshot_lsn,
        telemetry,
    }
}

impl Serve {
    /// The serving model's fMAX, MHz.
    pub fn fmax_mhz(&self) -> f64 {
        fmax_mhz(MODEL, &Tech::tsmc65lp())
    }

    /// The exact nearest-rank `p`th percentile of successful-request
    /// latencies, cycles (0 if none succeeded).
    pub fn latency_cycles(&self, p: f64) -> u64 {
        let ok: Vec<u64> = self
            .telemetry
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .map(RequestRecord::latency)
            .collect();
        percentile(&ok, p).unwrap_or(0)
    }

    /// The six request counters as `(key, help, value)`: the one list
    /// the snapshot, the human report and both expositions print.
    fn counters(&self) -> [(&'static str, &'static str, u64); 6] {
        let t = &self.telemetry.totals;
        [
            ("requests", "Requests offered to the service.", t.requests),
            ("admitted", "Requests admitted past the queue.", t.admitted),
            ("shed", "Requests shed by admission control.", t.shed),
            ("retried", "Retry attempts consumed.", t.retried),
            (
                "succeeded",
                "Admitted requests that succeeded.",
                t.succeeded,
            ),
            ("failed", "Admitted requests that failed.", t.failed),
        ]
    }

    /// Sustained throughput: successful queries per second at fMAX.
    pub fn qps(&self) -> f64 {
        let t = &self.telemetry.totals;
        match t.span_cycles {
            0 => 0.0,
            span => t.succeeded as f64 * self.fmax_mhz() * 1.0e6 / span as f64,
        }
    }

    /// The `BENCH_serve.json` snapshot: the scale and request counters
    /// gated exactly, p50/p99/span gated at 3%, fMAX and qps reported.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        s.id("serve/model", MODEL.name());
        s.gated("serve/scale", self.scale, "x", Better::Exact);
        for (key, _, value) in self.counters() {
            s.gated(
                format!("serve/{key}"),
                value as f64,
                "requests",
                Better::Exact,
            );
        }
        for (name, value) in [
            ("span_cycles", self.telemetry.totals.span_cycles),
            ("p50_cycles", self.latency_cycles(50.0)),
            ("p99_cycles", self.latency_cycles(99.0)),
        ] {
            s.gated(
                format!("serve/{name}"),
                value as f64,
                "cycles",
                Better::Lower,
            );
        }
        s.info("serve/fmax_mhz", self.fmax_mhz(), "MHz", Better::Higher);
        s.info("serve/qps", self.qps(), "qps", Better::Higher);
        s
    }

    /// The human report.
    pub fn render(&self) -> String {
        let [(_, _, requests), counts @ ..] = self.counters();
        let mut out = format!(
            "Serving benchmark — scale {} ({requests} requests, {} model)\n\n",
            self.scale,
            MODEL.name()
        );
        for (key, _, value) in counts {
            out.push_str(&format!("  {key} {value}"));
        }
        out.push_str(&format!(
            "\n  span {} cycles  p50 {} cycles  p99 {} cycles\n",
            self.telemetry.totals.span_cycles,
            self.latency_cycles(50.0),
            self.latency_cycles(99.0)
        ));
        out.push_str(&format!(
            "  throughput {:.1} qps at {:.1} MHz\n\n",
            self.qps(),
            self.fmax_mhz()
        ));
        out.push_str(&format!(
            "Crash recovery: snapshot lsn {}, {} WAL frame(s) replayed, digest {:08x} {}\n",
            self.snapshot_lsn,
            self.frames_replayed,
            self.recovered_digest,
            if self.recovered_digest == self.digest {
                "== pre-crash (ok)"
            } else {
                "!= pre-crash (MISMATCH)"
            }
        ));
        out
    }

    /// Whether the post-run crash recovery reproduced the serving state.
    pub fn recovery_ok(&self) -> bool {
        self.recovered_digest == self.digest
    }

    /// The deterministic Prometheus-text exposition of the run's
    /// telemetry. Every value is a simulated-cycle quantity, so the
    /// text is byte-identical on every host (`tests/telemetry.rs`
    /// compares it with a committed golden file).
    pub fn metrics(&self) -> String {
        let t = &self.telemetry;
        let mut w = MetricsWriter::new();
        for (key, help, value) in self.counters() {
            let name = format!("dbx_serve_{key}_total");
            w.family(&name, help, "counter");
            w.sample_u64(&name, &[], value);
        }
        w.histogram(
            "dbx_serve_latency",
            "Admitted-request latency in simulated cycles.",
            &t.latency,
        );
        w.family(
            "dbx_serve_phase_cycles_total",
            "Cycles per phase, summed over admitted requests.",
            "counter",
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            w.sample_u64(
                "dbx_serve_phase_cycles_total",
                &[("phase", p.name())],
                t.phase_cycles[i],
            );
        }
        w.family(
            "dbx_serve_tenant_requests_total",
            "Requests per tenant.",
            "counter",
        );
        for (tenant, n) in &t.tenant_requests {
            w.sample_u64("dbx_serve_tenant_requests_total", &[("tenant", tenant)], *n);
        }
        if let Some(p99) = t.p99_record() {
            w.family(
                "dbx_serve_p99_qid",
                "qid of the exact nearest-rank p99 request.",
                "gauge",
            );
            w.sample_u64("dbx_serve_p99_qid", &[], p99.qid);
            w.family(
                "dbx_serve_p99_latency_cycles",
                "Latency of the p99 request.",
                "gauge",
            );
            w.sample_u64("dbx_serve_p99_latency_cycles", &[], p99.latency());
            w.family(
                "dbx_serve_p99_phase_cycles",
                "Where the p99 request's latency went, per phase.",
                "gauge",
            );
            for p in Phase::ALL {
                w.sample_u64(
                    "dbx_serve_p99_phase_cycles",
                    &[("phase", p.name())],
                    p99.phases.get(p),
                );
            }
        }
        w.family("dbx_serve_slo_windows", "SLO windows evaluated.", "gauge");
        w.sample_u64("dbx_serve_slo_windows", &[], t.windows.len() as u64);
        w.family(
            "dbx_serve_slo_alerts_total",
            "SLO alerts fired, by kind.",
            "counter",
        );
        for kind in [AlertKind::ShedRateHigh, AlertKind::P99LatencyHigh] {
            let n = t.alerts.iter().filter(|a| a.kind == kind).count() as u64;
            w.sample_u64("dbx_serve_slo_alerts_total", &[("kind", kind.name())], n);
        }
        w.finish()
    }

    /// The JSON twin of [`Serve::metrics`]: the same numbers, one
    /// deterministic single-line document.
    pub fn metrics_json(&self) -> String {
        let t = &self.telemetry;
        let phases = Json::obj(
            Phase::ALL
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name(), Json::Num(t.phase_cycles[i] as f64))),
        );
        let tenants = Json::Obj(
            t.tenant_requests
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                .collect(),
        );
        let p99 = match t.p99_record() {
            None => Json::Null,
            Some(r) => Json::obj([
                ("qid", Json::Num(r.qid as f64)),
                ("tenant", Json::Str(r.tenant.clone())),
                ("kind", Json::Str(r.kind.to_string())),
                ("latency_cycles", Json::Num(r.latency() as f64)),
                ("retries", Json::Num(r.retries as f64)),
                (
                    "dominant_phase",
                    Json::Str(r.dominant_phase().name().to_string()),
                ),
                (
                    "phases",
                    Json::obj(
                        Phase::ALL
                            .iter()
                            .map(|p| (p.name(), Json::Num(r.phases.get(*p) as f64))),
                    ),
                ),
            ]),
        };
        let windows = Json::Arr(
            t.windows
                .iter()
                .map(|win| {
                    Json::obj([
                        ("start", Json::Num(win.start as f64)),
                        ("end", Json::Num(win.end as f64)),
                        ("requests", Json::Num(win.totals.requests as f64)),
                        ("shed", Json::Num(win.totals.shed as f64)),
                        ("succeeded", Json::Num(win.totals.succeeded as f64)),
                        ("failed", Json::Num(win.totals.failed as f64)),
                        ("shed_rate", Json::Num(win.shed_rate())),
                        (
                            "p99_cycles",
                            win.latency
                                .p99()
                                .map(|v| Json::Num(v as f64))
                                .unwrap_or(Json::Null),
                        ),
                    ])
                })
                .collect(),
        );
        let alerts = Json::Arr(
            t.alerts
                .iter()
                .map(|a| {
                    Json::obj([
                        ("kind", Json::Str(a.kind.name().to_string())),
                        ("window_start", Json::Num(a.window_start as f64)),
                        ("window_end", Json::Num(a.window_end as f64)),
                        ("value", Json::Num(a.value)),
                        ("target", Json::Num(a.target)),
                        ("burn", Json::Num(a.burn)),
                    ])
                })
                .collect(),
        );
        let counters = self
            .counters()
            .map(|(key, _, value)| (key, Json::Num(value as f64)));
        let doc = Json::obj(
            [("schema", Json::Str("dbx-harness/telemetry/v1".to_string()))]
                .into_iter()
                .chain(counters)
                .chain([
                    ("latency", t.latency.to_json()),
                    ("phase_cycles", phases),
                    ("tenant_requests", tenants),
                    ("p99", p99),
                    ("windows", windows),
                    ("alerts", alerts),
                ]),
        );
        let mut out = String::new();
        doc.write(&mut out);
        out
    }

    /// The `repro monitor` report: SLO windows, the alerts that fired,
    /// tail attribution.
    pub fn monitor_report(&self, top_tail: usize) -> String {
        let t = &self.telemetry;
        let policy = slo_policy();
        let mut out = format!(
            "Service monitor — {} requests, windows of {} cycles (p99 ≤ {} cycles, shed ≤ {:.1}%)\n\n",
            self.telemetry.totals.requests,
            policy.window_cycles,
            policy.p99_latency_cycles,
            100.0 * policy.max_shed_rate,
        );
        out.push_str(
            "  window                requests  shed  succ  fail  p99_est  shed_rate  status\n",
        );
        for win in &t.windows {
            let fired = t
                .alerts
                .iter()
                .any(|a| a.window_start == win.start && a.window_end == win.end);
            out.push_str(&format!(
                "  [{:>8} .. {:>8})  {:>8}  {:>4}  {:>4}  {:>4}  {:>7}  {:>8.1}%  {}\n",
                win.start,
                win.end,
                win.totals.requests,
                win.totals.shed,
                win.totals.succeeded,
                win.totals.failed,
                win.latency
                    .p99()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                100.0 * win.shed_rate(),
                if fired { "ALERT" } else { "ok" },
            ));
        }
        out.push('\n');
        if t.alerts.is_empty() {
            out.push_str("No SLO alerts fired.\n");
        } else {
            out.push_str(&format!("{} SLO alert(s):\n", t.alerts.len()));
            for a in &t.alerts {
                out.push_str(&format!("  {}\n", a.render()));
            }
        }
        out.push('\n');
        out.push_str(&self.top_tail_report(top_tail));
        if let Some(p99) = t.p99_record() {
            out.push_str(&format!(
                "\np99 query: qid {} ({}, tenant {}) — {} cycles, dominated by {} ({} cycles)\n",
                p99.qid,
                p99.kind,
                p99.tenant,
                p99.latency(),
                p99.dominant_phase().name(),
                p99.phases.get(p99.dominant_phase()),
            ));
        }
        out
    }

    /// The `--top-tail` report: the `n` worst admitted requests with
    /// their dominant phase named, worst first.
    pub fn top_tail_report(&self, n: usize) -> String {
        let mut out = format!("Top tail — {n} worst admitted requests by cycle latency\n");
        for r in self.telemetry.top_tail(n) {
            out.push_str(&format!(
                "  qid {:>4}  {:<7} tenant={:<8} latency {:>8}  retries {}  dominant={:<7} (queue {}, kernel {}, wal {}, backoff {})\n",
                r.qid,
                r.kind,
                r.tenant,
                r.latency(),
                r.retries,
                r.dominant_phase().name(),
                r.phases.queue,
                r.phases.kernel,
                r.phases.wal,
                r.phases.backoff,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_serve_benchmark_is_deterministic() {
        let a = run(0.25);
        let b = run(0.25);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().to_string(), b.snapshot().to_string());
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn the_burst_exercises_shedding_and_recovery_holds() {
        let s = run(0.25);
        assert!(
            s.telemetry.totals.shed > 0,
            "the burst must overflow the queue"
        );
        assert!(s.telemetry.totals.succeeded > 0);
        assert!(s.qps() > 0.0);
        assert!(s.latency_cycles(99.0) >= s.latency_cycles(50.0));
        assert!(s.recovery_ok(), "recovered digest diverged");
        assert!(s.render().contains("ok"));
    }

    #[test]
    fn counter_drift_fails_the_gate_and_latency_gates_at_three_percent() {
        use dbx_observe::snapshot::compare;
        let baseline = run(0.25).snapshot();
        // A copy of the baseline with one value changed by `f`.
        let drifted = |key: &str, f: &dyn Fn(f64) -> f64| {
            let mut s = Snapshot::new();
            for (k, m) in baseline.iter() {
                let v = if k == key { f(m.value) } else { m.value };
                if m.gated {
                    s.gated(k, v, &m.unit, m.better);
                } else {
                    s.info(k, v, &m.unit, m.better);
                }
            }
            s
        };
        let fails = |s: &Snapshot| compare(&baseline, s).iter().any(|d| d.regressed());
        assert!(!fails(&drifted("serve/shed", &|v| v)));
        assert!(
            fails(&drifted("serve/shed", &|v| v + 1.0)),
            "a one-request counter drift must fail"
        );
        assert!(!fails(&drifted("serve/p99_cycles", &|v| v * 1.02)));
        assert!(fails(&drifted("serve/p99_cycles", &|v| v * 1.04)));
    }

    #[test]
    fn the_monitor_reports_burst_alerts_and_tail_attribution() {
        let s = run(0.25);
        let t = &s.telemetry;
        assert!(
            !t.alerts.is_empty(),
            "the overload burst must violate the SLO policy"
        );
        let report = s.monitor_report(5);
        assert!(report.contains("ALERT"));
        assert!(report.contains("p99 query: qid"));
        // Every rendered alert window exists in the window table.
        for a in &t.alerts {
            assert!(t
                .windows
                .iter()
                .any(|w| w.start == a.window_start && w.end == a.window_end));
        }
    }
}
