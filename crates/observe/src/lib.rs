//! `dbx-observe` — unified tracing, metrics, and cycle attribution.
//!
//! The paper's tool flow (Figure 4) *starts* with cycle-accurate profiling
//! ("the profiler unveils hotspots") and *ends* with cycle-accurate
//! verification of the extension. This crate is the reproduction's version
//! of that loop grown to system scale: every layer — the ISS, the kernel
//! runners, the streaming driver, the multicore partitioner, the query
//! engine — records **spans** (what ran, on which track, for how many
//! *simulated* cycles) and **counters** (stall breakdowns, fault
//! accounting, bytes moved) into one registry, from which three exporters
//! read:
//!
//! * [`perfetto`] — a Chrome-trace/Perfetto JSON writer: one track per
//!   core, one per DMAC, one for the query engine, loadable in
//!   <https://ui.perfetto.dev>.
//! * [`folded`] — folded stacks (`a;b;c cycles`) for flamegraph tools,
//!   built from the per-address profile aggregated into program regions.
//! * [`snapshot`] — the keyed-metric snapshot every committed baseline
//!   (`BENCH_*.json`, `DSE_baseline.json`) is written in, with the one
//!   3% regression gate and the one diff CI runs against them.
//!
//! Timestamps are **cycle-domain**, taken from the simulator's cycle
//! counter, never from wall clock — a trace is bit-reproducible across
//! hosts. Recording is zero-cost when disabled: a disabled [`Observer`]
//! is a `None` and every call short-circuits before touching its
//! arguments' heap; the simulated machine is never aware of the observer,
//! so enabling it cannot change a single simulated cycle.
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! `dbx-cpu` and the layers above it push fully-formed spans through the
//! [`Recorder`] trait.

pub mod folded;
pub mod json;
pub mod perfetto;
pub mod recorder;
pub mod snapshot;
pub mod span;
pub mod telemetry;

pub use folded::{folded_line, FoldedStacks};
pub use json::Json;
pub use perfetto::{validate_chrome_trace, write_chrome_trace};
pub use recorder::{Observer, Recorder, SharedSink, TraceSink};
pub use snapshot::{Better, Metric, Snapshot};
pub use span::{ArgValue, CounterSample, Span, TrackId};
pub use telemetry::{
    evaluate_slo, AlertKind, CycleHistogram, MetricsWriter, Outcome, Phase, PhaseBreakdown,
    RequestRecord, SloPolicy, SloWindow, TelemetryAlert, TelemetryReport,
};
