//! End-to-end reconciliation tests of the service telemetry plane: the
//! counters exposed by `repro serve --metrics` must agree exactly with
//! the per-request records, the latency histogram must hold
//! one sample per admitted request, the exposition must be
//! byte-deterministic, and the injected overload burst must fire
//! exactly the expected SLO alerts.

use dbasip::harness::serve;
use dbasip::observe::telemetry::{AlertKind, Outcome, Phase};

#[test]
fn telemetry_counters_reconcile_with_admission_control() {
    let s = serve::run(0.25);
    let t = &s.telemetry;
    let st = &t.totals;

    // One record per offered request, in qid order.
    assert_eq!(t.records.len() as u64, st.requests);
    for (i, r) in t.records.iter().enumerate() {
        assert_eq!(r.qid, i as u64);
    }

    // The latency histogram holds exactly one sample per admitted
    // request — its count is the number of serve spans.
    assert_eq!(t.latency.count(), st.admitted);

    // shed + succeeded + failed tiles the workload exactly.
    let shed = t
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Shed)
        .count() as u64;
    let ok = t
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .count() as u64;
    let failed = t
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Failed)
        .count() as u64;
    assert_eq!(shed, st.shed);
    assert_eq!(ok, st.succeeded);
    assert_eq!(failed, st.failed);
    assert_eq!(shed + ok + failed, st.requests);

    // Phase cycles tile each admitted record's latency; shed records
    // never accumulate phase time.
    for r in &t.records {
        if r.outcome == Outcome::Shed {
            assert_eq!(r.phases.total(), 0);
            assert_eq!(r.latency(), 0);
        } else {
            assert_eq!(r.phases.total(), r.latency(), "qid {}", r.qid);
        }
    }
    // And the per-phase totals are the sums of the admitted records.
    for (i, p) in Phase::ALL.iter().enumerate() {
        let expect: u64 = t
            .records
            .iter()
            .filter(|r| r.admitted())
            .map(|r| r.phases.get(*p))
            .sum();
        assert_eq!(t.phase_cycles[i], expect, "phase {}", p.name());
    }

    // Tenant counters cover every request exactly once.
    assert_eq!(
        t.tenant_requests.values().sum::<u64>(),
        st.requests,
        "tenant partition must tile the workload"
    );

    // SLO windows partition the records too.
    let windowed: u64 = t.windows.iter().map(|w| w.totals.requests).sum();
    assert_eq!(windowed, st.requests);
}

#[test]
fn the_metrics_exposition_is_byte_deterministic() {
    let a = serve::run(0.25);
    let b = serve::run(0.25);
    assert_eq!(a.metrics(), b.metrics());
    assert_eq!(a.metrics_json(), b.metrics_json());
    // The exposition names the p99 query and its dominant phase.
    let text = a.metrics();
    assert!(text.contains("dbx_serve_p99_qid"));
    assert!(text.contains("dbx_serve_p99_phase_cycles{phase=\"queue\"}"));
    assert!(text.contains("dbx_serve_latency_cycles_bucket{le=\"+Inf\"}"));
    // The JSON twin carries the same headline counters.
    let json = a.metrics_json();
    assert!(json.contains("\"schema\":\"dbx-harness/telemetry/v1\""));
    assert!(json.contains(&format!("\"requests\":{}", a.telemetry.totals.requests)));
}

#[test]
fn the_metrics_exposition_matches_the_committed_golden_files() {
    // Every exposed value is a simulated-cycle quantity, so the text and
    // its JSON twin are fixed by the code alone. Regenerate with
    // `repro serve --metrics > tests/golden/serve_metrics.txt` and
    // `repro serve --metrics-json > tests/golden/serve_metrics.json`.
    let s = serve::run(1.0);
    assert_eq!(s.metrics(), include_str!("golden/serve_metrics.txt"));
    assert_eq!(
        format!("{}\n", s.metrics_json()),
        include_str!("golden/serve_metrics.json")
    );
}

#[test]
fn the_human_serve_views_match_the_committed_golden_files() {
    // The two human reports print the same simulated-cycle numbers as
    // the expositions, so they are fixed by the code alone too.
    // Regenerate with `repro monitor --top-tail 5 >
    // tests/golden/monitor.txt` and `repro serve --top-tail 5 >
    // tests/golden/serve_top_tail.txt`.
    let s = serve::run(1.0);
    assert_eq!(
        format!("{}\n{}\n", s.render(), s.top_tail_report(5)),
        include_str!("golden/serve_top_tail.txt")
    );
    assert_eq!(
        format!("{}\n", s.monitor_report(5)),
        include_str!("golden/monitor.txt")
    );
}

#[test]
fn the_overload_burst_fires_exactly_the_expected_alerts() {
    let s = serve::run(0.25);
    let t = &s.telemetry;
    // At quarter scale the only SLO violation is the synchronized
    // burst's shedding: exactly one alert, of exactly one kind, in the
    // window holding the burst cycle (arrival 17 * 2000 = 34000).
    assert_eq!(t.alerts.len(), 1, "alerts: {:?}", t.alerts);
    let alert = &t.alerts[0];
    assert_eq!(alert.kind, AlertKind::ShedRateHigh);
    assert!(alert.window_start <= 34_000 && 34_000 < alert.window_end);
    assert!(alert.burn > 1.0, "a fired alert burns above 1x");
    assert!((alert.value / alert.target - alert.burn).abs() < 1e-9);

    // The monitor renders the same single alert.
    let rendered = s.monitor_report(3);
    assert_eq!(rendered.matches("ALERT").count(), 1);
    assert!(rendered.contains("shed_rate_high"));
}

#[test]
fn tail_attribution_names_the_dominant_phase_of_the_worst_queries() {
    let s = serve::run(0.25);
    let t = &s.telemetry;
    let tail = t.top_tail(3);
    assert_eq!(tail.len(), 3);
    // Worst first, admitted only.
    for pair in tail.windows(2) {
        assert!(pair[0].latency() >= pair[1].latency());
    }
    for r in &tail {
        assert!(r.admitted());
        // The named dominant phase really is the arg max.
        let dom = r.dominant_phase();
        for p in Phase::ALL {
            assert!(r.phases.get(dom) >= r.phases.get(p));
        }
    }
    // The p99 record's latency is the exact nearest-rank p99 the
    // snapshot reports (the snapshot ranks successful requests; with no
    // failures the populations coincide).
    assert_eq!(t.totals.failed, 0);
    let p99 = t.p99_record().expect("admitted requests exist");
    assert_eq!(p99.latency(), s.latency_cycles(99.0));
    let report = s.top_tail_report(3);
    assert!(report.contains("dominant="));
}
