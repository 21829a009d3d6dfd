//! The service telemetry plane: cycle-domain histograms, per-query
//! request records, SLO windows, and a deterministic metrics exposition.
//!
//! Spans (see [`crate::span`]) answer *"what ran when"*; this module
//! answers the serving questions on top of them: *"what is p99 right
//! now, which phase caused it, and is the service inside its
//! objectives?"* Everything lives in the **simulated cycle domain** —
//! no wall clock anywhere — so every histogram, window, alert, and
//! exposition byte is bit-identical across hosts and host thread
//! counts.
//!
//! # Span vs. record taxonomy
//!
//! * A **span** is one contiguous stretch of cycles on a track — the
//!   trace viewer's unit. Spans are emitted as work happens and carry
//!   open-ended `args`.
//! * A **[`RequestRecord`]** is the per-query summary the *service*
//!   owns: one per arrival, carrying the propagated query id (`qid`),
//!   the tenant label, the outcome, and a [`PhaseBreakdown`] that tiles
//!   the request's latency into queue wait, kernel execution, WAL
//!   commit, and retry backoff. Records are what tail attribution,
//!   SLO windows, and the exposition aggregate over; the same `qid`
//!   appears as an arg on every span the request produced, so a record
//!   can always be joined back to its trace.
//!
//! # Histogram bucketing
//!
//! [`CycleHistogram`] is a fixed-size log₂ histogram: bucket 0 holds
//! the value 0 and bucket `k` (1..=64) holds values in
//! `[2^(k-1), 2^k)`. Recording is O(1) (a `leading_zeros`), merging is
//! a 65-lane add, and the memory footprint is constant regardless of
//! sample count — the store-everything percentile path this replaces
//! kept every latency alive until the end of the run. Quantile
//! estimates return the bucket upper bound clamped to the observed
//! min/max, so the estimate never *under*states the true nearest-rank
//! quantile and overstates it by strictly less than 2× (one bucket).
//! Exact nearest-rank percentiles remain the source of truth for the
//! gated `BENCH_serve.json` snapshot; the histogram is additive.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Exact nearest-rank percentile of an unsorted sample set: the smallest
/// sample such that at least `p` percent of the set is `<=` it, so the
/// result is always an actual sample, never an interpolation. `p` is
/// clamped to `[0, 100]`; `None` iff `samples` is empty. NaN samples sort
/// as equal to everything (don't feed NaNs). [`CycleHistogram::quantile`]
/// is the constant-memory approximation of this.
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    // Nearest rank: ceil(p/100 * n), 1-based; rank 0 (p = 0) maps to the
    // minimum.
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1)])
}

/// The nearest-rank 50th percentile (for an even count, the lower-middle
/// sample). `None` iff empty.
pub fn median<T: Copy + PartialOrd>(samples: &[T]) -> Option<T> {
    percentile(samples, 50.0)
}

/// The nearest-rank 99th percentile. `None` iff empty.
pub fn p99<T: Copy + PartialOrd>(samples: &[T]) -> Option<T> {
    percentile(samples, 99.0)
}

/// Number of buckets in a [`CycleHistogram`]: one for zero plus one per
/// power of two of the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-size log₂-bucketed histogram of cycle counts.
///
/// See the module docs for the bucketing scheme and the quantile error
/// bound. All operations are total: an empty histogram yields `None`
/// quantiles, a single sample is reported exactly (the clamp to the
/// observed min/max collapses the bucket), and values at the top of the
/// `u64` range land in the saturating last bucket without overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl CycleHistogram {
    /// An empty histogram.
    pub fn new() -> CycleHistogram {
        CycleHistogram::default()
    }

    /// The bucket index a value falls into: 0 for 0, else
    /// `64 - leading_zeros` (values in `[2^(k-1), 2^k)` map to `k`).
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The largest value bucket `i` can hold (inclusive). The top
    /// bucket saturates at `u64::MAX`.
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            k => (1u64 << k) - 1,
        }
    }

    /// Records one value. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram into this one. Merging then querying is
    /// identical to having recorded both sample streams into one
    /// histogram — the property shard-local telemetry relies on.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (exact; `u128` cannot overflow from
    /// `u64` samples in any realistic run).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Per-bucket counts (index by [`CycleHistogram::bucket_of`]).
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]` (clamped).
    /// Returns the upper bound of the bucket holding the nearest-rank
    /// sample, clamped to the observed `[min, max]` — never less than
    /// the true nearest-rank quantile and less than 2× above it.
    /// `None` iff the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank: ceil(q * n), 1-based; rank 0 (q = 0) maps to
        // the minimum.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).clamp(self.min, self.max));
            }
        }
        // Unreachable (seen reaches count == max rank), but stay total.
        Some(self.max)
    }

    /// The p50 estimate (see [`CycleHistogram::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The p99 estimate (see [`CycleHistogram::quantile`]).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Serializes the occupied buckets as a stable JSON array of
    /// `{le, count}` pairs (cumulative counts, Prometheus-style).
    pub fn to_json(&self) -> Json {
        let mut items = Vec::new();
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            cum += c;
            items.push(Json::obj([
                ("le", Json::Num(Self::bucket_upper(i) as f64)),
                ("count", Json::Num(cum as f64)),
            ]));
        }
        Json::obj([
            ("buckets", Json::Arr(items)),
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
        ])
    }
}

/// One phase of a request's life in the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Waiting in the admission queue.
    Queue,
    /// Executing kernels (the ASIP offloads of a query).
    Kernel,
    /// Committing to the write-ahead log (durable writes).
    Wal,
    /// Waiting out retry backoff between attempts.
    Backoff,
}

impl Phase {
    /// All phases, in the fixed reporting order.
    pub const ALL: [Phase; 4] = [Phase::Queue, Phase::Kernel, Phase::Wal, Phase::Backoff];

    /// Stable lowercase label (used in metric label values).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Kernel => "kernel",
            Phase::Wal => "wal",
            Phase::Backoff => "backoff",
        }
    }
}

/// How a request's latency splits across phases. The four phase fields
/// tile the request's latency exactly: `total() == finish - arrival`
/// for every served request (shed requests are all zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Cycles waiting in the admission queue.
    pub queue: u64,
    /// Cycles executing kernels (query attempts).
    pub kernel: u64,
    /// Cycles committing to the WAL (write attempts).
    pub wal: u64,
    /// Cycles waiting out retry backoff.
    pub backoff: u64,
}

impl PhaseBreakdown {
    /// Cycles of one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Queue => self.queue,
            Phase::Kernel => self.kernel,
            Phase::Wal => self.wal,
            Phase::Backoff => self.backoff,
        }
    }

    /// Sum over all phases (the request's latency for served requests).
    pub fn total(&self) -> u64 {
        self.queue + self.kernel + self.wal + self.backoff
    }

    /// The phase holding the most cycles; ties break in the fixed
    /// [`Phase::ALL`] order, so attribution is deterministic.
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::Queue;
        for p in Phase::ALL {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }
}

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed successfully.
    Ok,
    /// Rejected at admission (queue full) — never executed.
    Shed,
    /// Admitted and executed, but finished with an error.
    Failed,
}

impl Outcome {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Shed => "shed",
            Outcome::Failed => "failed",
        }
    }
}

/// The per-query record the service emits for every arrival — the unit
/// of tail attribution and SLO accounting (see the module docs for the
/// span-vs-record taxonomy).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The propagated query id (the workload index; the same value is
    /// stamped as a `qid` arg on every span of the request).
    pub qid: u64,
    /// The tenant the request belongs to.
    pub tenant: String,
    /// Request kind (`query`, `create`, `append`, `drop`).
    pub kind: &'static str,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle the request left the system.
    pub finish: u64,
    /// Retries consumed.
    pub retries: u32,
    /// Where the latency went.
    pub phases: PhaseBreakdown,
    /// How the request ended.
    pub outcome: Outcome,
}

impl RequestRecord {
    /// Queue wait + service time.
    pub fn latency(&self) -> u64 {
        self.finish - self.arrival
    }

    /// The phase that dominated this request's latency.
    pub fn dominant_phase(&self) -> Phase {
        self.phases.dominant()
    }

    /// Whether the request was admitted (i.e. it occupies a serve span).
    pub fn admitted(&self) -> bool {
        self.outcome != Outcome::Shed
    }
}

/// The counts of a service run, derived from its records in one pass.
/// `shed`, `succeeded` and `failed` partition the records by
/// [`Outcome`], so `shed + succeeded + failed == requests` and
/// `admitted == requests - shed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTotals {
    /// Requests offered.
    pub requests: u64,
    /// Requests admitted past the queue.
    pub admitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Re-runs after retryable failures, summed over all requests.
    pub retried: u64,
    /// Requests that finished with `Ok`.
    pub succeeded: u64,
    /// Admitted requests that finished with an error (shed requests
    /// count in `shed` only).
    pub failed: u64,
    /// Cycles from the first arrival to the last finish (0 when there
    /// are no records).
    pub span_cycles: u64,
}

impl ServeTotals {
    /// Totals over `records`, in any order.
    pub fn of<'a>(records: impl IntoIterator<Item = &'a RequestRecord>) -> ServeTotals {
        let mut t = ServeTotals::default();
        let (mut first, mut last) = (u64::MAX, 0);
        for r in records {
            t.requests += 1;
            t.retried += u64::from(r.retries);
            match r.outcome {
                Outcome::Ok => t.succeeded += 1,
                Outcome::Shed => t.shed += 1,
                Outcome::Failed => t.failed += 1,
            }
            first = first.min(r.arrival);
            last = last.max(r.finish);
        }
        t.admitted = t.requests - t.shed;
        t.span_cycles = last.saturating_sub(first);
        t
    }
}

/// Service-level objectives evaluated per virtual-time window.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Window length in simulated cycles. Records aggregate into
    /// consecutive windows by *finish* cycle.
    pub window_cycles: u64,
    /// p99 latency objective in cycles: a window whose p99 estimate
    /// exceeds this fires [`AlertKind::P99LatencyHigh`].
    pub p99_latency_cycles: u64,
    /// Shed-rate objective: a window where `shed / requests` exceeds
    /// this fires [`AlertKind::ShedRateHigh`].
    pub max_shed_rate: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            window_cycles: 20_000,
            p99_latency_cycles: 100_000,
            max_shed_rate: 0.01,
        }
    }
}

/// One aggregation window in virtual cycle time.
#[derive(Debug, Clone, PartialEq)]
pub struct SloWindow {
    /// Window start cycle (inclusive).
    pub start: u64,
    /// Window end cycle (exclusive).
    pub end: u64,
    /// The counts of the requests that finished in the window (shed
    /// ones "finish" at their arrival cycle).
    pub totals: ServeTotals,
    /// Latency histogram of the served (admitted) requests.
    pub latency: CycleHistogram,
}

impl SloWindow {
    /// Shed fraction of the window's requests; 0 for an empty window
    /// (never NaN).
    pub fn shed_rate(&self) -> f64 {
        match self.totals.requests {
            0 => 0.0,
            n => self.totals.shed as f64 / n as f64,
        }
    }
}

/// What objective an alert violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Window shed rate exceeded [`SloPolicy::max_shed_rate`].
    ShedRateHigh,
    /// Window p99 latency estimate exceeded
    /// [`SloPolicy::p99_latency_cycles`].
    P99LatencyHigh,
}

impl AlertKind {
    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            AlertKind::ShedRateHigh => "shed_rate_high",
            AlertKind::P99LatencyHigh => "p99_latency_high",
        }
    }
}

/// A typed threshold event: one objective violated in one window.
/// `burn` is the burn-rate style severity — how many times over the
/// objective the window ran (1.0 = exactly at target).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryAlert {
    /// Which objective fired.
    pub kind: AlertKind,
    /// Window start cycle.
    pub window_start: u64,
    /// Window end cycle (exclusive).
    pub window_end: u64,
    /// Observed value (a rate for shed alerts, cycles for latency).
    pub value: f64,
    /// The objective it violated.
    pub target: f64,
    /// `value / target` (0 when the target is 0).
    pub burn: f64,
}

impl TelemetryAlert {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "[{} .. {}) {}: {:.4} > target {:.4} (burn {:.2}x)",
            self.window_start,
            self.window_end,
            self.kind.name(),
            self.value,
            self.target,
            self.burn
        )
    }
}

/// Aggregates records into windows and evaluates the SLO policy.
/// Windows are emitted in ascending start order; within a window,
/// alerts are emitted in the fixed [`AlertKind`] declaration order —
/// the whole output is a pure function of the records and the policy.
pub fn evaluate_slo(
    records: &[RequestRecord],
    policy: &SloPolicy,
) -> (Vec<SloWindow>, Vec<TelemetryAlert>) {
    let w = policy.window_cycles.max(1);
    let mut by_window: BTreeMap<u64, Vec<&RequestRecord>> = BTreeMap::new();
    for r in records {
        by_window.entry(r.finish / w).or_default().push(r);
    }
    let windows: Vec<SloWindow> = by_window
        .into_iter()
        .map(|(idx, rs)| {
            let mut latency = CycleHistogram::new();
            for r in rs.iter().filter(|r| r.admitted()) {
                latency.record(r.latency());
            }
            SloWindow {
                start: idx * w,
                end: idx * w + w,
                totals: ServeTotals::of(rs),
                latency,
            }
        })
        .collect();
    let mut alerts = Vec::new();
    for win in &windows {
        let shed_rate = win.shed_rate();
        if shed_rate > policy.max_shed_rate {
            alerts.push(TelemetryAlert {
                kind: AlertKind::ShedRateHigh,
                window_start: win.start,
                window_end: win.end,
                value: shed_rate,
                target: policy.max_shed_rate,
                burn: if policy.max_shed_rate > 0.0 {
                    shed_rate / policy.max_shed_rate
                } else {
                    0.0
                },
            });
        }
        if let Some(p99) = win.latency.p99() {
            if p99 > policy.p99_latency_cycles {
                alerts.push(TelemetryAlert {
                    kind: AlertKind::P99LatencyHigh,
                    window_start: win.start,
                    window_end: win.end,
                    value: p99 as f64,
                    target: policy.p99_latency_cycles as f64,
                    burn: if policy.p99_latency_cycles > 0 {
                        p99 as f64 / policy.p99_latency_cycles as f64
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    (windows, alerts)
}

/// The assembled telemetry of one service run: records, the merged
/// latency histogram, per-phase and per-tenant aggregates, SLO windows
/// and fired alerts. Built once by [`TelemetryReport::build`]; the
/// exposition layers read from here.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-request records, in qid order.
    pub records: Vec<RequestRecord>,
    /// The run's counts over `records`.
    pub totals: ServeTotals,
    /// Latency histogram over every *admitted* request (successful and
    /// failed alike — shed requests never occupied the server). Its
    /// `count()` therefore equals the number of serve spans.
    pub latency: CycleHistogram,
    /// Total cycles per phase, summed over admitted requests.
    pub phase_cycles: [u64; 4],
    /// Requests per tenant (deterministic order).
    pub tenant_requests: BTreeMap<String, u64>,
    /// The evaluated SLO windows, ascending.
    pub windows: Vec<SloWindow>,
    /// Fired alerts, in window order.
    pub alerts: Vec<TelemetryAlert>,
}

impl TelemetryReport {
    /// Builds the report from the service's records.
    pub fn build(mut records: Vec<RequestRecord>, policy: &SloPolicy) -> TelemetryReport {
        records.sort_by_key(|r| r.qid);
        let mut latency = CycleHistogram::new();
        let mut phase_cycles = [0u64; 4];
        let mut tenant_requests: BTreeMap<String, u64> = BTreeMap::new();
        for r in &records {
            *tenant_requests.entry(r.tenant.clone()).or_insert(0) += 1;
            if r.admitted() {
                latency.record(r.latency());
                for (i, p) in Phase::ALL.iter().enumerate() {
                    phase_cycles[i] += r.phases.get(*p);
                }
            }
        }
        let (windows, alerts) = evaluate_slo(&records, policy);
        TelemetryReport {
            totals: ServeTotals::of(&records),
            records,
            latency,
            phase_cycles,
            tenant_requests,
            windows,
            alerts,
        }
    }

    /// The `n` worst-latency admitted requests, worst first (ties break
    /// toward the lower qid).
    pub fn top_tail(&self, n: usize) -> Vec<&RequestRecord> {
        let mut served: Vec<&RequestRecord> =
            self.records.iter().filter(|r| r.admitted()).collect();
        served.sort_by(|a, b| b.latency().cmp(&a.latency()).then(a.qid.cmp(&b.qid)));
        served.truncate(n);
        served
    }

    /// The record at the exact nearest-rank p99 of admitted-request
    /// latencies (the lowest-qid record carrying that latency), i.e.
    /// *the* p99 query for tail attribution. `None` if nothing was
    /// admitted.
    pub fn p99_record(&self) -> Option<&RequestRecord> {
        let lats: Vec<u64> = self
            .records
            .iter()
            .filter(|r| r.admitted())
            .map(|r| r.latency())
            .collect();
        let tail = p99(&lats)?;
        self.records
            .iter()
            .filter(|r| r.admitted() && r.latency() == tail)
            .min_by_key(|r| r.qid)
    }
}

/// A tiny deterministic Prometheus-text-format writer.
///
/// Emission order is exactly the call order; label sets are rendered in
/// the order given. Values print through Rust's `f64` `Display` (or as
/// integers), which is platform-independent — two runs with the same
/// numbers produce byte-identical expositions.
#[derive(Debug, Default)]
pub struct MetricsWriter {
    out: String,
}

impl MetricsWriter {
    /// A fresh writer.
    pub fn new() -> MetricsWriter {
        MetricsWriter::default()
    }

    /// Writes the `# HELP` / `# TYPE` header of a metric family.
    pub fn family(&mut self, name: &str, help: &str, ty: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {ty}");
    }

    fn render_labels(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", body.join(","))
    }

    /// Writes one integer sample.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let _ = writeln!(self.out, "{name}{} {value}", Self::render_labels(labels));
    }

    /// Writes one float sample.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(self.out, "{name}{} {value}", Self::render_labels(labels));
    }

    /// Writes a full histogram family: cumulative `_bucket` samples for
    /// every occupied bucket, the `+Inf` bucket, `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &CycleHistogram) {
        self.family(&format!("{name}_cycles"), help, "histogram");
        let mut cum = 0u64;
        for (i, c) in h.bucket_counts().iter().enumerate() {
            if *c == 0 {
                continue;
            }
            cum += c;
            let le = CycleHistogram::bucket_upper(i).to_string();
            self.sample_u64(&format!("{name}_cycles_bucket"), &[("le", &le)], cum);
        }
        self.sample_u64(
            &format!("{name}_cycles_bucket"),
            &[("le", "+Inf")],
            h.count(),
        );
        self.sample_f64(&format!("{name}_cycles_sum"), &[], h.sum() as f64);
        self.sample_u64(&format!("{name}_cycles_count"), &[], h.count());
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        qid: u64,
        arrival: u64,
        finish: u64,
        outcome: Outcome,
        phases: PhaseBreakdown,
    ) -> RequestRecord {
        RequestRecord {
            qid,
            tenant: "default".into(),
            kind: "query",
            arrival,
            finish,
            retries: 0,
            phases,
            outcome,
        }
    }

    #[test]
    fn empty_histogram_is_total() {
        let h = CycleHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = CycleHistogram::new();
        h.record(12_345);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(12_345));
        }
        assert_eq!(h.min(), Some(12_345));
        assert_eq!(h.max(), Some(12_345));
    }

    #[test]
    fn zero_values_land_in_bucket_zero() {
        let mut h = CycleHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.sum(), 0);
        assert_eq!(CycleHistogram::bucket_of(0), 0);
        assert_eq!(CycleHistogram::bucket_of(1), 1);
        assert_eq!(CycleHistogram::bucket_of(2), 2);
        assert_eq!(CycleHistogram::bucket_of(3), 2);
        assert_eq!(CycleHistogram::bucket_of(4), 3);
    }

    #[test]
    fn top_bucket_saturates_without_panic() {
        let mut h = CycleHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        assert_eq!(h.count(), 3);
        // All three land in the saturating top bucket; the estimate
        // clamps to the observed max instead of overflowing.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.quantile(0.01), Some(u64::MAX));
        let json = h.to_json().to_string();
        assert!(json.contains("count"));
    }

    #[test]
    fn nearest_rank_percentile_matches_the_definition() {
        // The classic nearest-rank example set, deliberately unsorted.
        let s = [35u64, 15, 50, 20, 40];
        assert_eq!(percentile(&s, 30.0), Some(20));
        assert_eq!(percentile(&s, 40.0), Some(20));
        assert_eq!(median(&s), Some(35));
        assert_eq!(percentile(&s, 100.0), Some(50));
        assert_eq!(percentile(&s, 0.0), Some(15));
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(percentile(&s, 250.0), Some(50));
        assert_eq!(percentile(&s, -10.0), Some(15));
        // Empty sets yield None, singletons themselves, floats work too.
        assert_eq!(median::<u64>(&[]), None);
        assert_eq!(p99(&[42u64]), Some(42));
        assert_eq!(median(&[0.004f64, 0.002, 0.003]), Some(0.003));
        // 1..=100: the 99th percentile is sample 99.
        let round: Vec<u64> = (1..=100).collect();
        assert_eq!(p99(&round), Some(99));
        assert_eq!(median(&round), Some(50));
    }

    #[test]
    fn quantile_error_is_bounded_by_one_bucket() {
        // 1000 distinct values: the estimate must sit in [true, 2*true).
        let values: Vec<u64> = (1..=1000u64).map(|i| i * 37).collect();
        let mut h = CycleHistogram::new();
        for v in &values {
            h.record(*v);
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            let truth = percentile(&values, 100.0 * q).unwrap();
            let est = h.quantile(q).unwrap();
            assert!(est >= truth, "q={q}: est {est} < truth {truth}");
            assert!(est < truth * 2, "q={q}: est {est} >= 2x truth {truth}");
        }
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let mut a = CycleHistogram::new();
        let mut b = CycleHistogram::new();
        let mut both = CycleHistogram::new();
        for v in [3u64, 9, 1000, 0, 65_536] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 12, 4096] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
    }

    #[test]
    fn dominant_phase_is_deterministic_on_ties() {
        let p = PhaseBreakdown {
            queue: 10,
            kernel: 10,
            wal: 0,
            backoff: 0,
        };
        // Equal cycles: the fixed phase order wins.
        assert_eq!(p.dominant(), Phase::Queue);
        let p = PhaseBreakdown {
            queue: 5,
            kernel: 10,
            wal: 10,
            backoff: 0,
        };
        assert_eq!(p.dominant(), Phase::Kernel);
        assert_eq!(p.total(), 25);
    }

    #[test]
    fn slo_windows_aggregate_by_finish_cycle() {
        let policy = SloPolicy {
            window_cycles: 100,
            p99_latency_cycles: 50,
            max_shed_rate: 0.25,
        };
        let records = vec![
            rec(
                0,
                0,
                40,
                Outcome::Ok,
                PhaseBreakdown {
                    queue: 0,
                    kernel: 40,
                    wal: 0,
                    backoff: 0,
                },
            ),
            rec(
                1,
                10,
                90,
                Outcome::Ok,
                PhaseBreakdown {
                    queue: 40,
                    kernel: 40,
                    wal: 0,
                    backoff: 0,
                },
            ),
            rec(2, 120, 120, Outcome::Shed, PhaseBreakdown::default()),
            rec(
                3,
                120,
                260,
                Outcome::Ok,
                PhaseBreakdown {
                    queue: 100,
                    kernel: 40,
                    wal: 0,
                    backoff: 0,
                },
            ),
        ];
        let (windows, alerts) = evaluate_slo(&records, &policy);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].totals.requests, 2);
        assert_eq!(windows[1].totals.shed, 1);
        assert_eq!(windows[2].totals.succeeded, 1);
        // Window 0: p99 estimate of latencies {40, 80} exceeds 50.
        // Window 1: one shed of one request -> shed rate 1.0 > 0.25.
        // Window 2: latency 140 > 50.
        let kinds: Vec<(AlertKind, u64)> =
            alerts.iter().map(|a| (a.kind, a.window_start)).collect();
        assert_eq!(
            kinds,
            vec![
                (AlertKind::P99LatencyHigh, 0),
                (AlertKind::ShedRateHigh, 100),
                (AlertKind::P99LatencyHigh, 200),
            ]
        );
        for a in &alerts {
            assert!(a.burn >= 1.0, "{a:?}");
            assert!(!a.render().is_empty());
        }
    }

    #[test]
    fn empty_and_single_sample_windows_never_panic_or_nan() {
        let policy = SloPolicy::default();
        let (windows, alerts) = evaluate_slo(&[], &policy);
        assert!(windows.is_empty());
        assert!(alerts.is_empty());
        let one = vec![rec(
            0,
            0,
            5,
            Outcome::Ok,
            PhaseBreakdown {
                queue: 0,
                kernel: 5,
                wal: 0,
                backoff: 0,
            },
        )];
        let (windows, alerts) = evaluate_slo(&one, &policy);
        assert_eq!(windows.len(), 1);
        assert!(windows[0].shed_rate() == 0.0);
        assert!(alerts.is_empty());
        // A window of only shed requests has no latency samples: the
        // p99 check must skip, the shed check must fire.
        let shed = vec![rec(0, 0, 0, Outcome::Shed, PhaseBreakdown::default())];
        let (windows, alerts) = evaluate_slo(&shed, &policy);
        assert_eq!(windows[0].latency.count(), 0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::ShedRateHigh);
        assert!(!alerts[0].burn.is_nan());
    }

    #[test]
    fn report_counts_and_tail_attribution() {
        let records = vec![
            rec(
                0,
                0,
                100,
                Outcome::Ok,
                PhaseBreakdown {
                    queue: 10,
                    kernel: 90,
                    wal: 0,
                    backoff: 0,
                },
            ),
            rec(
                1,
                0,
                500,
                Outcome::Ok,
                PhaseBreakdown {
                    queue: 400,
                    kernel: 100,
                    wal: 0,
                    backoff: 0,
                },
            ),
            rec(2, 0, 0, Outcome::Shed, PhaseBreakdown::default()),
            rec(
                3,
                0,
                50,
                Outcome::Failed,
                PhaseBreakdown {
                    queue: 0,
                    kernel: 0,
                    wal: 50,
                    backoff: 0,
                },
            ),
        ];
        let report = TelemetryReport::build(records, &SloPolicy::default());
        assert_eq!(
            report.totals,
            ServeTotals {
                requests: 4,
                admitted: 3,
                shed: 1,
                retried: 0,
                succeeded: 2,
                failed: 1,
                span_cycles: 500,
            }
        );
        assert_eq!(ServeTotals::of(&[]), ServeTotals::default());
        // Histogram counts admitted requests only (== serve spans).
        assert_eq!(report.latency.count(), 3);
        assert_eq!(report.phase_cycles[0], 410); // queue
        assert_eq!(report.tenant_requests["default"], 4);
        let tail = report.top_tail(2);
        assert_eq!(tail[0].qid, 1);
        assert_eq!(tail[0].dominant_phase(), Phase::Queue);
        assert_eq!(tail[1].qid, 0);
        let p99 = report.p99_record().unwrap();
        assert_eq!(p99.qid, 1);
        assert_eq!(p99.dominant_phase(), Phase::Queue);
    }

    #[test]
    fn metrics_writer_output_is_stable() {
        let mut h = CycleHistogram::new();
        h.record(3);
        h.record(700);
        let build = || {
            let mut w = MetricsWriter::new();
            w.family("dbx_test_requests_total", "Requests.", "counter");
            w.sample_u64("dbx_test_requests_total", &[], 2);
            w.sample_u64("dbx_test_phase", &[("phase", "queue")], 1);
            w.sample_f64("dbx_test_rate", &[], 0.25);
            w.histogram("dbx_test_latency", "Latency.", &h);
            w.finish()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("dbx_test_requests_total 2"));
        assert!(a.contains("dbx_test_phase{phase=\"queue\"} 1"));
        assert!(a.contains("dbx_test_latency_cycles_bucket{le=\"3\"} 1"));
        assert!(a.contains("dbx_test_latency_cycles_bucket{le=\"1023\"} 2"));
        assert!(a.contains("dbx_test_latency_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(a.contains("dbx_test_latency_cycles_sum 703"));
        assert!(a.contains("dbx_test_latency_cycles_count 2"));
    }
}
