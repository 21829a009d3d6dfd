//! The one machine-readable snapshot format behind every committed
//! baseline (`BENCH_observe.json`, `BENCH_perf.json`,
//! `BENCH_serve.json`, `DSE_baseline.json`), with the one regression gate
//! and the one diff.
//!
//! A [`Snapshot`] maps a key such as
//! `observe/intersect/DBA_2LSU_EIS+partial/cycles` to a numeric
//! [`Metric`]: its value, unit, which direction is [`Better`], and
//! whether CI gates it. Strings that identify a metric (kernel, model,
//! figure, sweep coordinate, signature, ...) are key segments, never
//! values. Keys serialize in sorted order, one per line, so a snapshot
//! parses and re-serializes byte-identically and a `git diff` of a
//! baseline shows one line per moved metric.
//!
//! The gate ([`regressed`]) has four rules: a gated `lower` metric
//! regresses when it grows by strictly more than [`REGRESSION_THRESHOLD`]
//! (3%), a gated `higher` metric when it drops by more than that, a gated
//! `exact` metric on any change, and a gated key present on one side
//! only always fails. Ungated metrics are reported, never gating. Values
//! are deterministic simulated-cycle quantities, so the threshold absorbs
//! *intentional* small model refinements, not noise.

use crate::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;

/// Relative worsening above which a gated metric counts as a regression.
pub const REGRESSION_THRESHOLD: f64 = 0.03;

/// Schema tag written into every snapshot.
pub const SCHEMA: &str = "dbx-snapshot/v1";

/// Changed keys [`render_diff`] lists before summarizing the rest.
pub const DIFF_LIMIT: usize = 20;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (cycles, latency, area).
    Lower,
    /// Larger is better (throughput, speedup).
    Higher,
    /// Any change is a difference in behaviour (counters, sizes, scale).
    Exact,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
            Better::Exact => "exact",
        }
    }

    fn from_name(name: &str) -> Option<Better> {
        [Better::Lower, Better::Higher, Better::Exact]
            .into_iter()
            .find(|b| b.name() == name)
    }
}

/// One keyed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value, quantized to the 6 decimals the writer emits.
    pub value: f64,
    /// Unit label (`cycles`, `MHz`, ...).
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Whether the gate fails on this metric.
    pub gated: bool,
}

/// A keyed-metric snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    metrics: BTreeMap<String, Metric>,
}

/// Quantizes a value to the 6 decimal places the JSON writer emits, so a
/// snapshot equals its own parse. [`Snapshot`] applies it to every value;
/// producers apply it early where a quantized value feeds a derived one.
pub fn q6(x: f64) -> f64 {
    (x * 1.0e6).round() / 1.0e6
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Records a gated metric.
    pub fn gated(&mut self, key: impl Into<String>, value: f64, unit: &str, better: Better) {
        self.insert(key.into(), value, unit, better, true);
    }

    /// Records a metric that is reported but never gates.
    pub fn info(&mut self, key: impl Into<String>, value: f64, unit: &str, better: Better) {
        self.insert(key.into(), value, unit, better, false);
    }

    /// Records a run-level identity string (a model or tech name) as the
    /// ungated key `{prefix}/{name}` with value 1.
    pub fn id(&mut self, prefix: &str, name: &str) {
        self.info(format!("{prefix}/{name}"), 1.0, "id", Better::Exact);
    }

    fn insert(&mut self, key: String, value: f64, unit: &str, better: Better, gated: bool) {
        let metric = Metric {
            value: q6(value),
            unit: unit.to_string(),
            better,
            gated,
        };
        // Producers build keys from unique sweep coordinates; a repeat is
        // a bug in the producer, not in its input.
        let prev = self.metrics.insert(key, metric);
        assert!(prev.is_none(), "duplicate snapshot key");
    }

    /// The metric under `key`.
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.metrics.get(key)
    }

    /// The value under `key`.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.get(key).map(|m| m.value)
    }

    /// Every metric, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, m)| (k.as_str(), m))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Parses a snapshot, checking the schema tag and every metric's
    /// fields. A well-formed JSON document that is not a valid snapshot
    /// reports its error at byte 0.
    pub fn parse(text: &str) -> Result<Snapshot, JsonError> {
        let malformed = |msg: String| JsonError { pos: 0, msg };
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(malformed(format!("not a {SCHEMA} snapshot")));
        }
        let Some(Json::Obj(entries)) = doc.get("metrics") else {
            return Err(malformed("missing metrics object".into()));
        };
        let mut snap = Snapshot::new();
        for (key, m) in entries {
            let field = |name: &str| {
                m.get(name)
                    .ok_or_else(|| malformed(format!("metric {key:?} missing {name:?}")))
            };
            let (Some(value), Some(unit), Some(better), Json::Bool(gated)) = (
                field("value")?.as_f64(),
                field("unit")?.as_str(),
                field("better")?.as_str().and_then(Better::from_name),
                field("gated")?,
            ) else {
                return Err(malformed(format!("metric {key:?} has a mistyped field")));
            };
            if snap.get(key).is_some() {
                return Err(malformed(format!("duplicate key {key:?}")));
            }
            snap.insert(key.clone(), value, unit, better, *gated);
        }
        Ok(snap)
    }
}

/// The serializer: one key per line, in key order.
impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"schema\":\"{SCHEMA}\",\"metrics\":{{")?;
        for (i, (key, m)) in self.iter().enumerate() {
            let entry = Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.clone())),
                ("better", Json::Str(m.better.name().into())),
                ("gated", Json::Bool(m.gated)),
            ]);
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}\n{}:{entry}", Json::Str(key.into()))?;
        }
        f.write_str("\n}}")
    }
}

/// `(current - baseline) / baseline`, with a zero baseline defined as 0.
fn relative_delta(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (current - baseline) / baseline
    }
}

/// The gate: whether moving from `baseline` to `current` (either side
/// `None` when the key is absent there) is a regression. The baseline's
/// `better` and `gated` fields decide when both sides hold the key.
pub fn regressed(baseline: Option<&Metric>, current: Option<&Metric>) -> bool {
    match (baseline, current) {
        (Some(b), Some(c)) => {
            let delta = relative_delta(b.value, c.value);
            b.gated
                && match b.better {
                    Better::Lower => delta > REGRESSION_THRESHOLD,
                    Better::Higher => delta < -REGRESSION_THRESHOLD,
                    Better::Exact => b.value != c.value,
                }
        }
        (Some(m), None) | (None, Some(m)) => m.gated,
        (None, None) => false,
    }
}

/// One key compared across two snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta<'a> {
    /// The key.
    pub key: &'a str,
    /// The baseline's metric, if it has the key.
    pub baseline: Option<&'a Metric>,
    /// The current run's metric, if it has the key.
    pub current: Option<&'a Metric>,
}

impl Delta<'_> {
    /// Whether the key, value or metadata differ.
    pub fn changed(&self) -> bool {
        self.baseline != self.current
    }

    /// Whether the change fails the gate (see [`regressed`]).
    pub fn regressed(&self) -> bool {
        regressed(self.baseline, self.current)
    }
}

/// Every key of either snapshot, compared, in key order.
pub fn compare<'a>(baseline: &'a Snapshot, current: &'a Snapshot) -> Vec<Delta<'a>> {
    let keys: std::collections::BTreeSet<&str> = baseline
        .metrics
        .keys()
        .chain(current.metrics.keys())
        .map(String::as_str)
        .collect();
    keys.into_iter()
        .map(|key| Delta {
            key,
            baseline: baseline.get(key),
            current: current.get(key),
        })
        .collect()
}

/// Renders the changed keys of a comparison — regressions first, then in
/// key order, at most [`DIFF_LIMIT`] of them — and a summary line.
pub fn render_diff(deltas: &[Delta<'_>]) -> String {
    let side =
        |m: Option<&Metric>| m.map_or("(absent)".to_string(), |m| Json::Num(m.value).to_string());
    let mut changed: Vec<&Delta> = deltas.iter().filter(|d| d.changed()).collect();
    changed.sort_by_key(|d| !d.regressed());
    let mut out = String::new();
    for d in changed.iter().take(DIFF_LIMIT) {
        let verdict = if d.regressed() {
            "REGRESSION"
        } else {
            "changed"
        };
        let unit = d.baseline.or(d.current).map_or("", |m| m.unit.as_str());
        let pct = match (d.baseline, d.current) {
            (Some(b), Some(c)) => format!(" ({:+.2}%)", 100.0 * relative_delta(b.value, c.value)),
            _ => String::new(),
        };
        let (b, c) = (side(d.baseline), side(d.current));
        out.push_str(&format!(
            "{verdict:<10} {}: {b} -> {c} {unit}{pct}\n",
            d.key
        ));
    }
    if changed.len() > DIFF_LIMIT {
        out.push_str(&format!("... and {} more\n", changed.len() - DIFF_LIMIT));
    }
    let regressions = deltas.iter().filter(|d| d.regressed()).count();
    out.push_str(&format!(
        "{} key(s) compared, {} changed, {regressions} regressed\n",
        deltas.len(),
        changed.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-key snapshot.
    fn one(key: &str, value: f64, better: Better, gated: bool) -> Snapshot {
        let mut s = Snapshot::new();
        s.insert(key.into(), value, "cycles", better, gated);
        s
    }

    /// Whether `current` regresses against `baseline` anywhere.
    fn fails(baseline: &Snapshot, current: &Snapshot) -> bool {
        compare(baseline, current).iter().any(Delta::regressed)
    }

    #[test]
    fn committed_baselines_roundtrip_byte_identically() {
        for (name, text) in [
            (
                "BENCH_observe.json",
                include_str!("../../../BENCH_observe.json"),
            ),
            ("BENCH_perf.json", include_str!("../../../BENCH_perf.json")),
            (
                "BENCH_serve.json",
                include_str!("../../../BENCH_serve.json"),
            ),
            (
                "DSE_baseline.json",
                include_str!("../../../DSE_baseline.json"),
            ),
        ] {
            let snap = Snapshot::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!snap.is_empty(), "{name}");
            // The committed files are `repro ... --json` output: the
            // serialization plus println's newline.
            assert_eq!(format!("{snap}\n"), text, "{name}");
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        let good = one("k", 1.0, Better::Lower, true).to_string();
        assert!(Snapshot::parse(&good).is_ok());
        for bad in [
            "nope".to_string(),
            "{\"metrics\":{}}".to_string(),
            good.replace(SCHEMA, "other/v9"),
            good.replace("\"lower\"", "\"sideways\""),
            good.replace("\"gated\":true", "\"gated\":1"),
            good.replace("\"unit\":\"cycles\",", ""),
            good.replace(
                "\"k\":",
                "\"k\":{\"value\":1,\"unit\":\"x\",\"better\":\"lower\",\"gated\":true},\"k\":",
            ),
        ] {
            assert!(Snapshot::parse(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gate_lower_passes_exactly_three_percent_and_fails_beyond() {
        let base = one("k", 10_000.0, Better::Lower, true);
        assert!(!fails(&base, &one("k", 10_300.0, Better::Lower, true)));
        assert!(fails(&base, &one("k", 10_300.01, Better::Lower, true)));
        // Improvements never fail.
        assert!(!fails(&base, &one("k", 5_000.0, Better::Lower, true)));
    }

    #[test]
    fn gate_zero_baseline_has_zero_delta() {
        let base = one("k", 0.0, Better::Lower, true);
        assert!(!fails(&base, &one("k", 1.0e9, Better::Lower, true)));
    }

    #[test]
    fn gate_higher_fails_on_a_drop_beyond_three_percent() {
        let base = one("k", 100.0, Better::Higher, true);
        assert!(!fails(&base, &one("k", 97.0, Better::Higher, true)));
        assert!(fails(&base, &one("k", 96.99, Better::Higher, true)));
        assert!(!fails(&base, &one("k", 200.0, Better::Higher, true)));
    }

    #[test]
    fn gate_exact_fails_on_any_change() {
        let base = one("k", 7.0, Better::Exact, true);
        assert!(!fails(&base, &one("k", 7.0, Better::Exact, true)));
        assert!(fails(&base, &one("k", 8.0, Better::Exact, true)));
        assert!(fails(&base, &one("k", 6.0, Better::Exact, true)));
    }

    #[test]
    fn gate_fails_on_a_gated_key_present_on_one_side_only() {
        let base = one("k", 7.0, Better::Lower, true);
        let other = one("j", 7.0, Better::Lower, true);
        assert!(fails(&base, &Snapshot::new()));
        assert!(fails(&Snapshot::new(), &base));
        assert!(fails(&base, &other));
        // An ungated key may come and go.
        assert!(!fails(
            &one("k", 7.0, Better::Lower, false),
            &Snapshot::new()
        ));
    }

    #[test]
    fn ungated_changes_are_reported_but_pass() {
        let base = one("k", 100.0, Better::Lower, false);
        let cur = one("k", 1_000.0, Better::Lower, false);
        let deltas = compare(&base, &cur);
        assert!(deltas[0].changed() && !deltas[0].regressed());
        let text = render_diff(&deltas);
        assert!(
            text.contains("changed    k: 100 -> 1000 cycles (+900.00%)"),
            "{text}"
        );
        assert!(text.ends_with("1 key(s) compared, 1 changed, 0 regressed\n"));
    }

    #[test]
    fn diff_lists_the_first_changed_keys_then_summarizes() {
        let mut base = Snapshot::new();
        let mut cur = Snapshot::new();
        for i in 0..DIFF_LIMIT + 5 {
            base.gated(format!("k{i:02}"), 10.0, "cycles", Better::Lower);
            cur.gated(format!("k{i:02}"), 20.0, "cycles", Better::Lower);
        }
        cur.info("a", 1.0, "id", Better::Exact);
        let text = render_diff(&compare(&base, &cur));
        // Regressions come first, so the ungated "a" is cut off.
        assert!(text.starts_with("REGRESSION k00: 10 -> 20 cycles (+100.00%)\n"));
        assert!(!text.contains("changed    a:"), "{text}");
        assert!(text.contains("... and 6 more\n"));
        assert!(text.ends_with("26 key(s) compared, 26 changed, 25 regressed\n"));
    }

    #[test]
    fn values_are_quantized_so_a_snapshot_equals_its_parse() {
        let mut s = Snapshot::new();
        s.info("x", 1.0 / 3.0, "ratio", Better::Higher);
        s.id("model", "DBA_2LSU_EIS");
        assert_eq!(s.value("x"), Some(0.333333));
        assert_eq!(Snapshot::parse(&s.to_string()).unwrap(), s);
    }
}
