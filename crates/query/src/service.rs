//! The serving front-end: a durable, admission-controlled query service
//! over [`dbx_storage::Store`].
//!
//! [`QueryService`] ties the layers of this PR together: tables live in
//! the crash-recoverable store (WAL + snapshots), reads run through
//! [`QueryEngine`] against snapshot-isolated [`StoreView`]s, writes
//! commit with first-committer-wins OCC, and a deterministic
//! discrete-event admission model imposes per-query deadlines, a
//! bounded queue with load shedding, and typed retry-with-backoff.
//!
//! # The virtual-time model
//!
//! The service simulates a single-server queue in *simulated cycle
//! time* — the same domain every other number in this workspace lives
//! in. A workload is a list of [`Arrival`]s (cycle timestamp +
//! request). Requests are admitted in arrival order into a FIFO queue
//! of capacity [`ServiceConfig::queue_cap`]; when the queue is full the
//! request is shed with [`QueryError::Overloaded`] without executing.
//! The server picks queued requests in order; a request that waited `w`
//! cycles has `deadline - w` cycles of budget left, which is threaded
//! into the engine as [`dbx_core::RunOptions::deadline`] so runaway
//! kernels are cut by the hardware watchdog and surfaced as
//! [`QueryError::DeadlineExceeded`]. Retryable failures (see
//! [`QueryError::is_retryable`]) re-run on the server after an
//! exponential backoff of `backoff_base << attempt` cycles, up to
//! [`ServiceConfig::max_retries`].
//!
//! Because arrivals, service times (simulated kernel cycles), and
//! backoff are all deterministic, a whole service run — every latency,
//! every shed decision, every retry — is bit-identical on every host.
//! `repro serve` turns one such run into `BENCH_serve.json`.

use crate::engine::QueryEngine;
use crate::error::QueryError;
use crate::index::Table;
use crate::predicate::Predicate;
use dbx_core::{ProcModel, RunOptions};
use dbx_cpu::{FaultCause, SimError};
use dbx_observe::telemetry::{Outcome, PhaseBreakdown, RequestRecord};
use dbx_observe::{ArgValue, Observer, TrackId};
use dbx_storage::{Columns, Disk, Store, StoreOptions, StoreView, TableImage};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Fixed cycle cost of commit bookkeeping (mirrors the storage span
/// base), plus 1 cycle per written byte — the deterministic service
/// time of a write.
const WRITE_BASE: u64 = 64;

/// Admission and durability knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum requests waiting (excluding the one being served);
    /// arrivals beyond this are shed with [`QueryError::Overloaded`].
    pub queue_cap: usize,
    /// Per-query cycle budget, counted from *arrival* (queue wait burns
    /// budget). `None` disables deadlines.
    pub deadline: Option<u64>,
    /// Re-runs granted to a request that fails retryably.
    pub max_retries: u32,
    /// Backoff unit: attempt `k` waits `backoff_base << k` cycles
    /// before re-running.
    pub backoff_base: u64,
    /// Snapshot cadence handed to the store (commits per snapshot).
    pub snapshot_every: u64,
    /// Trace sink for `admission.*` spans and serve counters (shared
    /// with the store for `wal.*` / `snapshot.*`).
    pub observer: Observer,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_cap: 8,
            deadline: None,
            max_retries: 2,
            backoff_base: 1_000,
            snapshot_every: 32,
            observer: Observer::disabled(),
        }
    }
}

/// One request a client can submit.
#[derive(Debug, Clone)]
pub enum Request {
    /// Evaluate a predicate over a table; replies with matching RIDs.
    Query {
        /// The table to query.
        table: String,
        /// The predicate tree.
        predicate: Predicate,
    },
    /// Create a table (durable).
    Create {
        /// Table name.
        table: String,
        /// Initial columns.
        columns: Columns,
    },
    /// Append rows to a table (durable).
    Append {
        /// Table name.
        table: String,
        /// Per-column row values.
        rows: Columns,
    },
    /// Drop a table (durable).
    Drop {
        /// Table name.
        table: String,
    },
}

impl Request {
    fn kind(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::Create { .. } => "create",
            Request::Append { .. } => "append",
            Request::Drop { .. } => "drop",
        }
    }
}

/// A timestamped request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Arrival time in simulated cycles.
    pub at: u64,
    /// The request.
    pub request: Request,
    /// The tenant submitting the request (telemetry label; admission is
    /// tenant-blind for now — ROADMAP item 1 adds per-tenant quotas).
    pub tenant: String,
}

impl Arrival {
    /// An arrival from the default tenant.
    pub fn new(at: u64, request: Request) -> Arrival {
        Arrival {
            at,
            request,
            tenant: "default".to_string(),
        }
    }

    /// Relabels the arrival's tenant.
    pub fn with_tenant(mut self, tenant: &str) -> Arrival {
        self.tenant = tenant.to_string();
        self
    }
}

/// What a request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Matching RIDs of a query.
    Rids(Vec<u32>),
    /// New store generation after a durable write.
    Committed(u64),
}

/// The fate of one arrival.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Index into the submitted workload (doubles as the query id the
    /// request's spans carry as their `qid` arg).
    pub index: usize,
    /// Request kind (`query`, `create`, `append`, `drop`).
    pub kind: &'static str,
    /// The tenant the request arrived from.
    pub tenant: String,
    /// Arrival cycle.
    pub arrival: u64,
    /// Cycle execution started (equals `finish` for shed requests).
    pub start: u64,
    /// Cycle the request left the system.
    pub finish: u64,
    /// Retries consumed.
    pub retries: u32,
    /// Where the latency went. Tiles `latency()` exactly for served
    /// requests; all-zero for shed ones.
    pub phases: PhaseBreakdown,
    /// Outcome.
    pub result: Result<Reply, QueryError>,
}

impl Completion {
    /// Queue wait + service time.
    pub fn latency(&self) -> u64 {
        self.finish - self.arrival
    }
}

/// Aggregate accounting of a service run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Re-runs performed after retryable failures.
    pub retried: u64,
    /// Requests that finished with `Ok`.
    pub succeeded: u64,
    /// Admitted requests that finished with `Err`. Shed requests are
    /// counted by `shed` only, so `shed + succeeded + failed` equals the
    /// workload size exactly.
    pub failed: u64,
    /// Cycles from the first arrival to the last finish.
    pub span_cycles: u64,
    /// Cycles the server spent executing (incl. backoff gaps).
    pub busy_cycles: u64,
}

/// The outcome of running a workload through the service.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-arrival outcomes, in workload order.
    pub completions: Vec<Completion>,
    /// Aggregate counters.
    pub stats: ServiceStats,
}

impl ServiceReport {
    /// Latencies of successful requests, in completion order.
    pub fn latencies(&self) -> Vec<u64> {
        self.completions
            .iter()
            .filter(|c| c.result.is_ok())
            .map(Completion::latency)
            .collect()
    }

    /// The run as telemetry records, one per arrival, in workload order
    /// — the input to `dbx_observe::telemetry::TelemetryReport::build`.
    pub fn records(&self) -> Vec<RequestRecord> {
        self.completions
            .iter()
            .map(|c| RequestRecord {
                qid: c.index as u64,
                tenant: c.tenant.clone(),
                kind: c.kind,
                arrival: c.arrival,
                finish: c.finish,
                retries: c.retries,
                phases: c.phases,
                outcome: match &c.result {
                    Ok(_) => Outcome::Ok,
                    // Overloaded is minted only at admission: it *is*
                    // the shed outcome.
                    Err(QueryError::Overloaded { .. }) => Outcome::Shed,
                    Err(_) => Outcome::Failed,
                },
            })
            .collect()
    }
}

/// The admission-controlled, durable query service.
#[derive(Debug)]
pub struct QueryService<D: Disk> {
    store: Store<D>,
    engine: QueryEngine,
    cfg: ServiceConfig,
    obs: Observer,
    /// The indexed table per table name, with the image it was built
    /// from (holding the image keeps its address from being reused, so
    /// pointer equality means "unchanged").
    table_cache: HashMap<String, (Arc<TableImage>, Arc<Table>)>,
}

impl<D: Disk> QueryService<D> {
    /// Opens the service: recovers the store from `disk` and wires the
    /// engine for `model`.
    pub fn open(disk: D, model: ProcModel, cfg: ServiceConfig) -> Result<Self, QueryError> {
        let store = Store::open(
            disk,
            StoreOptions {
                snapshot_every: cfg.snapshot_every,
                observer: cfg.observer.clone(),
            },
        )?;
        let obs = cfg.observer.on_track(TrackId::Host);
        let engine = QueryEngine::with_options(
            model,
            RunOptions {
                deadline: cfg.deadline,
                ..Default::default()
            },
        );
        Ok(QueryService {
            store,
            engine,
            cfg,
            obs,
            table_cache: HashMap::new(),
        })
    }

    /// The underlying store.
    pub fn store(&self) -> &Store<D> {
        &self.store
    }

    /// Mutable access to the store (tests arm fault plans through it).
    pub fn store_mut(&mut self) -> &mut Store<D> {
        &mut self.store
    }

    /// Dismantles the service, returning the store (and through it the
    /// disk — the crash-recovery path of harnesses and tests).
    pub fn into_store(self) -> Store<D> {
        self.store
    }

    /// A snapshot-isolated view of the catalog.
    pub fn view(&self) -> StoreView {
        self.store.view()
    }

    /// The indexed table for the current image of a table in `view`.
    /// An image that only appended rows to the cached one extends the
    /// cached table in place; any other change (drop and recreate,
    /// fewer rows, other columns) builds it again. Entries of tables no
    /// longer in `view` are dropped.
    fn indexed(
        &mut self,
        view: &StoreView,
        img: &Arc<TableImage>,
    ) -> Result<Arc<Table>, QueryError> {
        self.table_cache
            .retain(|name, _| view.table(name).is_some());
        let entry = self.table_cache.get_mut(&img.name);
        if let Some((cached, table)) = &entry {
            if Arc::ptr_eq(cached, img) {
                return Ok(Arc::clone(table));
            }
        }
        let cols: Vec<(&str, &[u32])> = img
            .columns
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect();
        if let Some((cached, table)) = entry {
            if table.is_prefix_of(&cols) {
                Arc::make_mut(table).extend_to(&cols);
                *cached = Arc::clone(img);
                return Ok(Arc::clone(table));
            }
        }
        self.table_cache.remove(&img.name);
        let table = Arc::new(Table::from_slices(&img.name, &cols)?);
        self.table_cache
            .insert(img.name.clone(), (Arc::clone(img), Arc::clone(&table)));
        Ok(table)
    }

    /// Executes one request immediately (no queueing), with the given
    /// remaining deadline budget. A propagated `qid` is stamped on the
    /// engine's root query span. Returns the reply and the simulated
    /// cycle cost.
    fn execute(
        &mut self,
        request: &Request,
        budget: Option<u64>,
        qid: Option<u64>,
    ) -> (Result<Reply, QueryError>, u64) {
        match request {
            Request::Query { table, predicate } => {
                let view = self.store.view();
                let Some(img) = view.table(table) else {
                    return (
                        Err(QueryError::Storage(
                            dbx_storage::StorageError::UnknownTable {
                                name: table.clone(),
                            },
                        )),
                        0,
                    );
                };
                let indexed = match self.indexed(&view, img) {
                    Ok(t) => t,
                    Err(e) => return (Err(e), 0),
                };
                // Consume the fault plan: soft errors are transient, so
                // a service-level retry runs on clean hardware.
                let plan = self.engine.options.fault_plan.take();
                let mut engine = self.engine.clone();
                engine.options.fault_plan = plan;
                engine.options.deadline = budget;
                match engine.execute_tagged(&indexed, predicate, qid) {
                    Ok(out) => {
                        let cycles = out.cycles;
                        (Ok(Reply::Rids(out.rids)), cycles)
                    }
                    Err(e) => {
                        // A watchdog trip at exactly the armed deadline
                        // budget is the deadline firing, not a hardware
                        // problem.
                        let cost = match &e {
                            QueryError::Engine(SimError::Fault(mf)) => mf.cycle,
                            _ => 0,
                        };
                        if let (Some(b), QueryError::Engine(SimError::Fault(mf))) = (budget, &e) {
                            if matches!(mf.cause, FaultCause::Watchdog { budget } if budget == b) {
                                return (
                                    Err(QueryError::DeadlineExceeded {
                                        budget: self.cfg.deadline.unwrap_or(b),
                                    }),
                                    cost,
                                );
                            }
                        }
                        (Err(e), cost)
                    }
                }
            }
            Request::Create { table, columns } => {
                let mut txn = self.store.begin();
                txn.create_table(table, columns.clone());
                self.commit_costed(txn)
            }
            Request::Append { table, rows } => {
                let mut txn = self.store.begin();
                txn.append_rows(table, rows.clone());
                self.commit_costed(txn)
            }
            Request::Drop { table } => {
                let mut txn = self.store.begin();
                txn.drop_table(table);
                self.commit_costed(txn)
            }
        }
    }

    fn commit_costed(&mut self, txn: dbx_storage::Txn) -> (Result<Reply, QueryError>, u64) {
        let before = self
            .store
            .last_commit_position()
            .map(|(_, e)| *e)
            .unwrap_or(0);
        match self.store.commit(txn) {
            Ok(gen) => {
                let after = self
                    .store
                    .last_commit_position()
                    .map(|(_, e)| *e)
                    .unwrap_or(before);
                let bytes = after.saturating_sub(before) as u64;
                (Ok(Reply::Committed(gen)), WRITE_BASE + bytes)
            }
            Err(e) => (Err(QueryError::from(e)), WRITE_BASE),
        }
    }

    /// Runs a workload through the admission queue (see the module docs
    /// for the virtual-time model). Deterministic: the same workload
    /// against the same starting state yields a bit-identical report.
    pub fn run(&mut self, workload: &[Arrival]) -> ServiceReport {
        let mut order: Vec<usize> = (0..workload.len()).collect();
        order.sort_by_key(|&i| (workload[i].at, i));

        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut completions: Vec<Option<Completion>> = vec![None; workload.len()];
        let mut stats = ServiceStats::default();
        let mut server_free = 0u64;
        let first_arrival = order.first().map(|&i| workload[i].at).unwrap_or(0);
        let mut last_finish = first_arrival;

        for &i in &order {
            let now = workload[i].at;
            // Serve queued requests that start before this arrival.
            while let Some(&head) = queue.front() {
                let start = server_free.max(workload[head].arrival_at());
                if start >= now {
                    break;
                }
                queue.pop_front();
                let c = self.serve(head, &workload[head], start, &mut stats);
                server_free = c.finish;
                last_finish = last_finish.max(c.finish);
                completions[head] = Some(c);
            }
            if queue.len() >= self.cfg.queue_cap {
                // Shed at admission. Shed requests never occupy the
                // server, so they count in `shed` alone — not `failed`.
                stats.shed += 1;
                self.obs.span_at("admission.shed", "serve", now, 0, || {
                    vec![
                        ("kind", ArgValue::Str(workload[i].request.kind().into())),
                        ("queue_depth", ArgValue::U64(queue.len() as u64)),
                        ("qid", ArgValue::U64(i as u64)),
                    ]
                });
                completions[i] = Some(Completion {
                    index: i,
                    kind: workload[i].request.kind(),
                    tenant: workload[i].tenant.clone(),
                    arrival: now,
                    start: now,
                    finish: now,
                    retries: 0,
                    phases: PhaseBreakdown::default(),
                    result: Err(QueryError::Overloaded {
                        queue_depth: queue.len(),
                    }),
                });
                last_finish = last_finish.max(now);
            } else {
                stats.admitted += 1;
                queue.push_back(i);
            }
        }
        // Drain the queue.
        while let Some(head) = queue.pop_front() {
            let start = server_free.max(workload[head].arrival_at());
            let c = self.serve(head, &workload[head], start, &mut stats);
            server_free = c.finish;
            last_finish = last_finish.max(c.finish);
            completions[head] = Some(c);
        }

        stats.span_cycles = last_finish.saturating_sub(first_arrival);
        self.obs.counter("serve.admitted", stats.admitted as f64);
        self.obs.counter("serve.shed", stats.shed as f64);
        self.obs.counter("serve.retried", stats.retried as f64);
        ServiceReport {
            completions: completions.into_iter().map(Option::unwrap).collect(),
            stats,
        }
    }

    /// Serves one admitted request at `start`, applying the deadline
    /// and retry policy. Returns its completion, with every cycle of
    /// `finish - arrival` attributed to a phase (queue wait, kernel or
    /// WAL attempts, retry backoff) so the tail is attributable.
    fn serve(
        &mut self,
        index: usize,
        arrival: &Arrival,
        start: u64,
        stats: &mut ServiceStats,
    ) -> Completion {
        let qid = index as u64;
        let wait = start - arrival.at;
        self.obs
            .span_at("admission.queue", "serve", arrival.at, wait, || {
                vec![
                    ("kind", ArgValue::Str(arrival.request.kind().into())),
                    ("qid", ArgValue::U64(qid)),
                ]
            });
        // Writes spend their service time in the WAL commit; queries
        // spend it in kernels.
        let is_write = !matches!(arrival.request, Request::Query { .. });
        let mut phases = PhaseBreakdown {
            queue: wait,
            ..PhaseBreakdown::default()
        };
        let mut now = start;
        let mut retries = 0u32;
        let result = loop {
            // Budget remaining at this attempt's start (deadline counts
            // from arrival).
            let budget = match self.cfg.deadline {
                None => None,
                Some(d) => {
                    let spent = now - arrival.at;
                    if spent >= d {
                        break Err(QueryError::DeadlineExceeded { budget: d });
                    }
                    Some(d - spent)
                }
            };
            let (result, cost) = self.execute(&arrival.request, budget, Some(qid));
            let cost = cost.max(1); // even a rejected request burns a cycle
            let attempt_start = now;
            now += cost;
            let (phase_cycles, span_name) = if is_write {
                (&mut phases.wal, "serve.wal")
            } else {
                (&mut phases.kernel, "serve.kernel")
            };
            *phase_cycles += cost;
            self.obs
                .span_at(span_name, "serve", attempt_start, cost, || {
                    vec![
                        ("qid", ArgValue::U64(qid)),
                        ("attempt", ArgValue::U64(u64::from(retries))),
                    ]
                });
            match result {
                Err(ref e) if e.is_retryable() && retries < self.cfg.max_retries => {
                    let gap = self.cfg.backoff_base << retries;
                    now += gap;
                    phases.backoff += gap;
                    retries += 1;
                    stats.retried += 1;
                }
                other => break other,
            }
        };
        self.obs
            .span_at("serve.exec", "serve", start, now - start, || {
                vec![
                    ("kind", ArgValue::Str(arrival.request.kind().into())),
                    ("qid", ArgValue::U64(qid)),
                    ("retries", ArgValue::U64(u64::from(retries))),
                    (
                        "outcome",
                        ArgValue::Str(if result.is_ok() { "ok" } else { "err" }.into()),
                    ),
                ]
            });
        match &result {
            Ok(_) => stats.succeeded += 1,
            Err(_) => stats.failed += 1,
        }
        stats.busy_cycles += now - start;
        debug_assert_eq!(phases.total(), now - arrival.at);
        Completion {
            index,
            kind: arrival.request.kind(),
            tenant: arrival.tenant.clone(),
            arrival: arrival.at,
            start,
            finish: now,
            retries,
            phases,
            result,
        }
    }
}

impl Arrival {
    fn arrival_at(&self) -> u64 {
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_storage::MemDisk;

    const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };

    fn kcol(vals: &[u32]) -> Columns {
        vec![("k".into(), vals.to_vec())]
    }

    fn service(cfg: ServiceConfig) -> QueryService<MemDisk> {
        QueryService::open(MemDisk::new(), MODEL, cfg).unwrap()
    }

    fn seeded(cfg: ServiceConfig) -> QueryService<MemDisk> {
        let mut s = service(cfg);
        let (r, _) = s.execute(
            &Request::Create {
                table: "items".into(),
                columns: vec![
                    ("color".into(), vec![1, 2, 1, 3, 1, 2]),
                    ("size".into(), vec![9, 9, 7, 9, 9, 7]),
                ],
            },
            None,
            None,
        );
        r.unwrap();
        s
    }

    mod stale_cache {
        use super::*;
        use proptest::prelude::*;

        const TABLES: [&str; 2] = ["a", "b"];

        /// `n` values below `m` drawn from `seed`.
        fn values(n: usize, seed: u32, m: u32) -> Vec<u32> {
            let mut x = seed | 1;
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x % m
                })
                .collect()
        }

        /// A new two-column table of `n` rows.
        fn new_table(n: usize, seed: u32) -> Columns {
            vec![
                ("color".into(), values(n, seed, 4)),
                ("size".into(), values(n, seed ^ 0x9E37_79B9, 8)),
            ]
        }

        /// `n` rows in the schema of `cols`.
        fn more(cols: &Columns, n: usize, seed: u32) -> Columns {
            cols.iter()
                .enumerate()
                .map(|(k, (name, _))| (name.clone(), values(n, seed.wrapping_add(k as u32), 4)))
                .collect()
        }

        /// The columns a recreate commits in place of `old`: longer,
        /// shorter, an equal prefix with a new tail, the same rows, or
        /// the same rows with the columns reordered or `region` added
        /// or removed.
        fn recreated(old: &Columns, variant: u8, n: usize, seed: u32) -> Columns {
            let len = old[0].1.len();
            let cut = len.min(n);
            let prefix = |k: usize| -> Columns {
                old.iter()
                    .map(|(name, v)| (name.clone(), v[..k].to_vec()))
                    .collect()
            };
            let join = |a: Columns, b: Columns| -> Columns {
                a.into_iter()
                    .zip(b)
                    .map(|((name, mut v), (_, tail))| {
                        v.extend(tail);
                        (name, v)
                    })
                    .collect()
            };
            match variant % 6 {
                0 => join(old.clone(), more(old, n, seed)),
                1 => prefix(len - cut),
                2 => join(prefix(len - cut), more(old, cut, seed)),
                3 => old.clone(),
                4 => old.iter().rev().cloned().collect(),
                _ if old.iter().any(|(name, _)| name == "region") => old
                    .iter()
                    .filter(|(name, _)| name != "region")
                    .cloned()
                    .collect(),
                _ => {
                    let mut cols = old.clone();
                    cols.push(("region".into(), values(len, seed, 3)));
                    cols
                }
            }
        }

        fn run(s: &mut QueryService<MemDisk>, request: Request) -> Result<Reply, QueryError> {
            s.execute(&request, None, None).0
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Each step is an op selector, a table, a row count and a
            /// seed for the row values.
            #[test]
            fn the_cached_table_always_equals_a_fresh_build(
                steps in proptest::collection::vec(
                    (0u8..24, 0usize..2, 0usize..=16, any::<u32>()),
                    10..60,
                ),
            ) {
                let mut s = service(ServiceConfig::default());
                for (i, &(op, t, n, seed)) in steps.iter().enumerate() {
                    let table = TABLES[t].to_string();
                    let old = s.view().table(&table).map(|img| img.columns.clone());
                    let request = match (op, old) {
                        (_, None) => Request::Create { table, columns: new_table(n * 3, seed) },
                        (0..=7, Some(old)) => Request::Append { table, rows: more(&old, n, seed) },
                        (8..=9, Some(_)) => Request::Drop { table },
                        (10..=13, Some(old)) => {
                            run(&mut s, Request::Drop { table: table.clone() }).unwrap();
                            Request::Create { table, columns: recreated(&old, op, n, seed) }
                        }
                        (_, Some(_)) => Request::Query {
                            table,
                            predicate: Predicate::eq("color", seed % 4),
                        },
                    };
                    let queried = match &request {
                        Request::Query { table, .. } => Some(table.clone()),
                        _ => None,
                    };
                    prop_assert!(run(&mut s, request).is_ok(), "step {}", i);
                    let Some(queried) = queried else { continue };
                    // Entries of dropped tables are gone; the queried
                    // table's entry is exactly a fresh build of its image.
                    let view = s.view();
                    for name in s.table_cache.keys() {
                        prop_assert!(view.table(name).is_some(), "step {}: {} was dropped", i, name);
                    }
                    let img = view.table(&queried).unwrap();
                    let cols: Vec<(&str, Vec<u32>)> =
                        img.columns.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                    prop_assert_eq!(
                        s.table_cache[&queried].1.as_ref(),
                        &Table::try_build(&queried, &cols).unwrap(),
                        "step {}: the cached {} is stale",
                        i,
                        queried
                    );
                }
            }
        }
    }

    #[test]
    fn durable_writes_survive_crash_and_serve_queries() {
        let mut s = seeded(ServiceConfig::default());
        let (r, _) = s.execute(
            &Request::Query {
                table: "items".into(),
                predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 9)),
            },
            None,
            None,
        );
        assert_eq!(r.unwrap(), Reply::Rids(vec![0, 4]));

        // Crash, reopen: the table and the answer survive.
        let mut disk = s.store.into_disk();
        disk.crash();
        let mut s2 = QueryService::open(disk, MODEL, ServiceConfig::default()).unwrap();
        let (r, _) = s2.execute(
            &Request::Query {
                table: "items".into(),
                predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 9)),
            },
            None,
            None,
        );
        assert_eq!(r.unwrap(), Reply::Rids(vec![0, 4]));
    }

    #[test]
    fn admission_run_is_deterministic() {
        let workload: Vec<Arrival> = (0..12)
            .map(|i| {
                Arrival::new(
                    i * 2_000,
                    if i % 3 == 0 {
                        Request::Append {
                            table: "items".into(),
                            rows: vec![
                                ("color".into(), vec![i as u32 % 4]),
                                ("size".into(), vec![7 + (i as u32 % 3)]),
                            ],
                        }
                    } else {
                        Request::Query {
                            table: "items".into(),
                            predicate: Predicate::eq("color", 1),
                        }
                    },
                )
            })
            .collect();
        let run = |()| {
            let mut s = seeded(ServiceConfig::default());
            let report = s.run(&workload);
            (
                report.stats.clone(),
                report
                    .completions
                    .iter()
                    .map(|c| (c.start, c.finish, c.retries))
                    .collect::<Vec<_>>(),
            )
        };
        let (s1, t1) = run(());
        let (s2, t2) = run(());
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        assert_eq!(s1.admitted, 12);
        assert_eq!(s1.shed, 0);
        assert_eq!(s1.succeeded, 12);
    }

    #[test]
    fn a_full_queue_sheds_with_a_typed_retryable_error() {
        // Everything arrives at cycle 0; capacity 2 → the first fills
        // the server's horizon, two queue, the rest shed.
        let workload: Vec<Arrival> = (0..6)
            .map(|_| {
                Arrival::new(
                    0,
                    Request::Query {
                        table: "items".into(),
                        predicate: Predicate::eq("color", 1),
                    },
                )
            })
            .collect();
        let mut s = seeded(ServiceConfig {
            queue_cap: 2,
            ..Default::default()
        });
        let report = s.run(&workload);
        assert_eq!(report.stats.shed, 4);
        assert_eq!(report.stats.admitted, 2);
        let shed: Vec<&Completion> = report
            .completions
            .iter()
            .filter(|c| matches!(c.result, Err(QueryError::Overloaded { .. })))
            .collect();
        assert_eq!(shed.len(), 4);
        for c in shed {
            assert!(c.result.as_ref().unwrap_err().is_retryable());
            assert_eq!(c.latency(), 0);
        }
    }

    #[test]
    fn deadlines_fire_as_typed_errors() {
        // A 50-cycle budget is far below any offloaded kernel's runtime.
        // (A bare `eq` is a pure index probe with no kernel, so the
        // predicate must force a set operation.)
        let mut s = seeded(ServiceConfig {
            deadline: Some(50),
            ..Default::default()
        });
        let report = s.run(&[Arrival::new(
            0,
            Request::Query {
                table: "items".into(),
                predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 9)),
            },
        )]);
        match &report.completions[0].result {
            Err(QueryError::DeadlineExceeded { budget }) => assert_eq!(*budget, 50),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Deadline errors are fatal: no retries were burned.
        assert_eq!(report.completions[0].retries, 0);
        assert_eq!(report.stats.retried, 0);
    }

    #[test]
    fn queue_wait_burns_deadline_budget() {
        // Two queries arrive together; the second's wait alone exceeds
        // the budget, so it dies without executing.
        let q = |_| {
            Arrival::new(
                0,
                Request::Query {
                    table: "items".into(),
                    predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 9)),
                },
            )
        };
        let workload: Vec<Arrival> = (0..2).map(q).collect();
        let mut s = seeded(ServiceConfig::default());
        let no_deadline = s.run(&workload);
        let first_cost = no_deadline.completions[0].latency();
        // Budget bigger than one query but smaller than the wait+run of
        // the second.
        let mut s = seeded(ServiceConfig {
            deadline: Some(first_cost + 10),
            ..Default::default()
        });
        let report = s.run(&workload);
        assert!(report.completions[0].result.is_ok());
        assert!(matches!(
            report.completions[1].result,
            Err(QueryError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn unknown_tables_fail_fatally_without_retry() {
        let mut s = seeded(ServiceConfig::default());
        let report = s.run(&[Arrival::new(
            0,
            Request::Query {
                table: "missing".into(),
                predicate: Predicate::eq("color", 1),
            },
        )]);
        let err = report.completions[0].result.as_ref().unwrap_err();
        assert!(matches!(err, QueryError::Storage(_)));
        assert!(!err.is_retryable());
        assert_eq!(report.completions[0].retries, 0);
    }

    #[test]
    fn occ_conflict_loser_gets_typed_retryable_error() {
        let mut s = seeded(ServiceConfig::default());
        // Two transactions begun against the same generation; the
        // second commit must lose with a retryable WriteConflict.
        let mut a = s.store().begin();
        a.append_rows(
            "items",
            vec![("color".into(), vec![9]), ("size".into(), vec![9])],
        );
        let mut b = s.store().begin();
        b.append_rows(
            "items",
            vec![("color".into(), vec![8]), ("size".into(), vec![8])],
        );
        s.store_mut().commit(a).unwrap();
        let err: QueryError = s.store_mut().commit(b).unwrap_err().into();
        assert!(matches!(err, QueryError::WriteConflict { .. }), "{err}");
        assert!(err.is_retryable());
    }

    #[test]
    fn retry_backoff_spaces_attempts() {
        // Inject a fault plan so the first offload faults; the service
        // must retry with backoff and then succeed.
        use dbx_core::RecoveryPolicy;
        use dbx_faults::{FaultPlan, FaultTarget};
        let mut s = seeded(ServiceConfig {
            backoff_base: 500,
            ..Default::default()
        });
        // FailFast policy so the engine surfaces the fault instead of
        // retrying internally; the *service* owns the retry.
        s.engine.options.policy = RecoveryPolicy::FailFast;
        s.engine.options.protection = Some(dbx_faults::ProtectionKind::Parity);
        s.engine.options.fault_plan =
            Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 1, 2));
        let report = s.run(&[Arrival::new(
            0,
            Request::Query {
                table: "items".into(),
                predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 9)),
            },
        )]);
        let c = &report.completions[0];
        assert!(c.result.is_ok(), "{:?}", c.result);
        assert_eq!(c.retries, 1);
        assert_eq!(report.stats.retried, 1);
        // The finish time includes the 500-cycle backoff gap.
        assert!(c.latency() >= 500);
    }

    #[test]
    fn observer_sees_admission_and_serve_spans() {
        let (obs, sink) = Observer::memory();
        let mut s = service(ServiceConfig {
            observer: obs,
            ..Default::default()
        });
        let report = s.run(&[Arrival::new(
            0,
            Request::Create {
                table: "t".into(),
                columns: kcol(&[1, 2, 3]),
            },
        )]);
        assert!(report.completions[0].result.is_ok());
        let sink = sink.borrow();
        let names: Vec<String> = sink.spans_of("serve").map(|sp| sp.name.clone()).collect();
        assert!(names.contains(&"admission.queue".to_string()));
        assert!(names.contains(&"serve.exec".to_string()));
        assert_eq!(
            sink.counter_value(TrackId::Host, "serve.admitted"),
            Some(1.0)
        );
        assert_eq!(sink.counter_value(TrackId::Host, "serve.shed"), Some(0.0));
        // The store shares the sink: the commit's WAL span is there too.
        assert!(sink.spans_of("storage").any(|sp| sp.name == "wal.append"));
        // The commit attempt produced a phase-attributed wal span
        // carrying the propagated qid.
        let wal = sink
            .spans_of("serve")
            .find(|sp| sp.name == "serve.wal")
            .expect("per-attempt wal span");
        assert!(wal
            .args
            .iter()
            .any(|(k, v)| *k == "qid" && *v == ArgValue::U64(0)));
    }

    #[test]
    fn phases_tile_latency_and_records_reconcile() {
        use dbx_observe::telemetry::Outcome;
        // Mixed workload with a same-cycle burst so some requests shed.
        let mut workload: Vec<Arrival> = (0..6)
            .map(|i| {
                Arrival::new(
                    i * 2_000,
                    if i % 2 == 0 {
                        Request::Append {
                            table: "items".into(),
                            rows: vec![
                                ("color".into(), vec![i as u32 % 4]),
                                ("size".into(), vec![7]),
                            ],
                        }
                    } else {
                        Request::Query {
                            table: "items".into(),
                            predicate: Predicate::eq("color", 1).and(Predicate::eq("size", 9)),
                        }
                    },
                )
                .with_tenant(if i % 3 == 0 { "alpha" } else { "beta" })
            })
            .collect();
        for _ in 0..6 {
            workload.push(Arrival::new(
                4_000,
                Request::Query {
                    table: "items".into(),
                    predicate: Predicate::eq("color", 1),
                },
            ));
        }
        let mut s = seeded(ServiceConfig {
            queue_cap: 3,
            ..Default::default()
        });
        let report = s.run(&workload);
        let records = report.records();
        assert_eq!(records.len(), workload.len());
        let stats = &report.stats;
        assert!(stats.shed > 0, "burst must shed");
        // shed + succeeded + failed == requests, with no double count.
        assert_eq!(
            stats.shed + stats.succeeded + stats.failed,
            workload.len() as u64
        );
        let mut shed = 0u64;
        for (c, r) in report.completions.iter().zip(&records) {
            assert_eq!(c.index as u64, r.qid);
            assert_eq!(c.tenant, r.tenant);
            match r.outcome {
                Outcome::Shed => {
                    shed += 1;
                    assert_eq!(r.phases.total(), 0);
                    assert_eq!(r.latency(), 0);
                }
                _ => {
                    // Every latency cycle is attributed to a phase.
                    assert_eq!(r.phases.total(), r.latency(), "qid {}", r.qid);
                }
            }
            // Writes spend service time in wal, queries in kernels.
            if c.result.is_ok() {
                match c.kind {
                    "query" => assert_eq!(r.phases.wal, 0),
                    _ => assert_eq!(r.phases.kernel, 0),
                }
            }
        }
        assert_eq!(shed, stats.shed);
    }
}
