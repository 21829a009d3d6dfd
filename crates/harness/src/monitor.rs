//! `repro monitor` — the operator's view of the serving benchmark.
//!
//! Re-runs the deterministic `repro serve` workload and renders its
//! telemetry the way a dashboard would: SLO windows in virtual cycle
//! time with shed-rate and p99 against their objectives, the typed
//! alerts the run fired (with burn rates), and tail attribution — the
//! worst queries with the phase that dominated each one. Everything is
//! derived from the same [`TelemetryReport`] the metrics exposition
//! reads, so the monitor and `repro serve --metrics` can never
//! disagree.
//!
//! [`TelemetryReport`]: dbx_observe::telemetry::TelemetryReport

use crate::serve::{self, slo_policy, Serve};

/// The monitor view over one serving run.
#[derive(Debug)]
pub struct Monitor {
    /// The underlying serving run (telemetry included).
    pub serve: Serve,
}

/// Runs the serving workload at a scale and wraps it for monitoring.
pub fn run(scale: f64) -> Monitor {
    Monitor {
        serve: serve::run(scale),
    }
}

impl Monitor {
    /// The full monitor report: windows, alerts, tail attribution.
    pub fn render(&self, top_tail: usize) -> String {
        let t = &self.serve.telemetry;
        let policy = slo_policy();
        let mut out = format!(
            "Service monitor — {} requests, windows of {} cycles (p99 ≤ {} cycles, shed ≤ {:.1}%)\n\n",
            self.serve.requests,
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
                win.requests,
                win.shed,
                win.succeeded,
                win.failed,
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
        out.push_str(&self.serve.top_tail_report(top_tail));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_monitor_reports_burst_alerts_and_tail_attribution() {
        let m = run(0.25);
        let t = &m.serve.telemetry;
        assert!(
            !t.alerts.is_empty(),
            "the overload burst must violate the SLO policy"
        );
        let report = m.render(5);
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

    #[test]
    fn the_monitor_is_deterministic() {
        assert_eq!(run(0.25).render(3), run(0.25).render(3));
    }
}
