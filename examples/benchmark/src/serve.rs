//! The serve workloads, `serve_read` and `serve_mixed`: one
//! `QueryService::run` call per request, on a disk that counts every
//! call (and times it in traced rounds), with a shadow replay of each
//! request in traced rounds.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use dbx_core::{run_partition_with, ProcModel, RunOptions, SetOpKind};
use dbx_cpu::SimError;
use dbx_faults::StorageFileClass;
use dbx_query::{
    Arrival, Completion, Predicate, QueryService, Reply, Request, ServiceConfig, Table,
};
use dbx_storage::snapshot::parse_snapshot_name;
use dbx_storage::wal::parse_segment_name;
use dbx_storage::{
    digest_tables, Columns, Disk, MemDisk, StorageError, Store, StoreOptions, TableImage,
};

use crate::kernel::Replica;
use crate::metrics::LayerCounters;
use crate::rng::{quotas, stratified, Rng, Zipf};
use crate::trace::Tracer;
use crate::{elapsed_ns, Sample, Traced, Workload};

const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };
/// The `repro serve` configuration. Its deadline arms the watchdog of
/// every kernel, so every kernel takes the simulator's precise loop.
const DEADLINE: u64 = 5_000_000;
const SNAPSHOT_EVERY: u64 = 8;

const READ_ROWS: usize = 8192;
const READ_OPS: usize = 8_000;
const MIXED_TABLES: usize = 4;
const MIXED_ROWS: usize = 2048;
/// A drop-and-recreate slot is two requests, so a round has 4004.
const MIXED_SLOTS: usize = 3_640;
/// Seed of the fixed query design (see [`Gen::queries`]).
const QUERY_DESIGN: u64 = 0x00db_a51b;
/// Table images kept alive against the index-cache defect; see
/// [`ServeWorkload::pin`].
const PINS: usize = 64;

/// Every table's columns and their Zipf key counts: posting lists of an
/// 8192-row table run from about 5 to about 2400 rows.
const COLUMNS: [(&str, u32); 3] = [("color", 16), ("size", 64), ("region", 128)];

fn config() -> ServiceConfig {
    ServiceConfig {
        queue_cap: 8,
        deadline: Some(DEADLINE),
        max_retries: 2,
        backoff_base: 1_000,
        snapshot_every: SNAPSHOT_EVERY,
        ..Default::default()
    }
}

fn store_options() -> StoreOptions {
    StoreOptions {
        snapshot_every: SNAPSHOT_EVERY,
        ..Default::default()
    }
}

/// Counts of the calls into a [`CountingDisk`].
#[derive(Debug, Default, Clone, Copy)]
pub struct DiskCounts {
    pub calls: u64,
    /// Host time inside the calls (timed disks only).
    pub ns: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub fsyncs: u64,
}

/// A [`Disk`] over [`MemDisk`] that counts every call and the bytes
/// appended to WAL segments and snapshots, and times the calls when
/// `timed`.
#[derive(Debug)]
pub struct CountingDisk {
    inner: MemDisk,
    counts: Rc<RefCell<DiskCounts>>,
    timed: bool,
}

/// Counts (and times) one disk call when dropped.
struct Call<'a> {
    counts: &'a RefCell<DiskCounts>,
    start: Option<Instant>,
}

impl<'a> Call<'a> {
    fn new(counts: &'a RefCell<DiskCounts>, timed: bool) -> Call<'a> {
        Call {
            counts,
            start: timed.then(Instant::now),
        }
    }
}

impl Drop for Call<'_> {
    fn drop(&mut self) {
        let mut c = self.counts.borrow_mut();
        c.calls += 1;
        if let Some(start) = self.start {
            c.ns += elapsed_ns(start);
        }
    }
}

impl Disk for CountingDisk {
    fn create(&mut self, name: &str, class: StorageFileClass) -> Result<(), StorageError> {
        let _call = Call::new(&self.counts, self.timed);
        self.inner.create(name, class)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        {
            let mut c = self.counts.borrow_mut();
            if parse_segment_name(name).is_some() {
                c.wal_bytes += data.len() as u64;
            } else if parse_snapshot_name(name).is_some() {
                c.snapshot_bytes += data.len() as u64;
            }
        }
        let _call = Call::new(&self.counts, self.timed);
        self.inner.append(name, data)
    }

    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StorageError> {
        let _call = Call::new(&self.counts, self.timed);
        self.inner.truncate(name, len)
    }

    fn fsync(&mut self, name: &str) -> Result<(), StorageError> {
        self.counts.borrow_mut().fsyncs += 1;
        let _call = Call::new(&self.counts, self.timed);
        self.inner.fsync(name)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let _call = Call::new(&self.counts, self.timed);
        self.inner.remove(name)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        let _call = Call::new(&self.counts, self.timed);
        self.inner.read(name)
    }

    fn list(&self) -> Vec<String> {
        let _call = Call::new(&self.counts, self.timed);
        self.inner.list()
    }
}

/// Seeded tables, rows and predicates.
struct Gen {
    rng: Rng,
    zipf: [Zipf; 3],
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed),
            zipf: COLUMNS.map(|(_, keys)| Zipf::new(keys)),
        }
    }

    /// A table whose per-key row counts follow the Zipf law exactly.
    fn table(&mut self, rows: usize) -> Columns {
        let Gen { rng, zipf } = self;
        COLUMNS
            .iter()
            .zip(zipf.iter())
            .map(|((name, _), z)| (name.to_string(), z.column(rows, rng)))
            .collect()
    }

    fn rows(&mut self, rows: usize) -> Columns {
        let Gen { rng, zipf } = self;
        COLUMNS
            .iter()
            .zip(zipf.iter())
            .map(|((name, _), z)| (name.to_string(), (0..rows).map(|_| z.sample(rng)).collect()))
            .collect()
    }

    /// `n` queries of the read mix: 40% eq-AND, 20% eq-OR, 20% range-AND
    /// over 8 keys, 20% AND-NOT, keys by popularity. Which keys each
    /// query combines is a fixed design and only the query order depends
    /// on the seed; with the tables' exact key counts, every seed then
    /// runs set operations of the same input sizes.
    fn queries(&mut self, n: usize) -> Vec<Predicate> {
        let [color, size, region] = &self.zipf;
        let design = &mut Rng::new(QUERY_DESIGN);
        let colors = color.column(n, design);
        let sizes = size.column(n, design);
        let regions = region.column(n, design);
        let windows = stratified(n, design);
        let eq = Predicate::eq;
        let mut queries: Vec<Predicate> = quotas(n, 10, design)
            .into_iter()
            .enumerate()
            .map(|(i, kind)| {
                let c = eq("color", colors[i]);
                match kind {
                    0..=3 => c.and(eq("size", sizes[i])),
                    4..=5 => c.or(eq("region", regions[i])),
                    6..=7 => {
                        let lo = (windows[i] * f64::from(size.keys() - 7)) as u32;
                        Predicate::between("size", lo, lo + 7).and(c)
                    }
                    _ => c.and_not(eq("region", regions[i])),
                }
            })
            .collect();
        self.rng.shuffle(&mut queries);
        queries
    }
}

/// The rows of `cols` that `predicate` matches: the host reference for
/// every query.
pub fn reference_query(cols: &Columns, predicate: &Predicate) -> Vec<u32> {
    let rows = cols.first().map_or(0, |(_, v)| v.len());
    (0..rows)
        .filter(|&r| {
            predicate.matches(&|name: &str| {
                cols.iter()
                    .find(|(c, _)| c == name)
                    .map_or(u32::MAX, |(_, v)| v[r])
            })
        })
        .map(|r| r as u32)
        .collect()
}

/// Applies a committed write to the row mirror.
fn apply(mirror: &mut BTreeMap<String, Columns>, request: &Request) {
    match request {
        Request::Create { table, columns } => {
            mirror.insert(table.clone(), columns.clone());
        }
        Request::Append { table, rows } => {
            if let Some(cols) = mirror.get_mut(table) {
                for ((_, dst), (_, src)) in cols.iter_mut().zip(rows) {
                    dst.extend_from_slice(src);
                }
            }
        }
        Request::Drop { table } => {
            mirror.remove(table);
        }
        Request::Query { .. } => {}
    }
}

fn user_bytes(request: &Request) -> u64 {
    let cells = |c: &Columns| c.iter().map(|(_, v)| v.len() as u64).sum::<u64>();
    match request {
        Request::Create { columns, .. } => 4 * cells(columns),
        Request::Append { rows, .. } => 4 * cells(rows),
        Request::Drop { .. } | Request::Query { .. } => 0,
    }
}

/// The shadow path of a traced round: its own store, replaying every
/// write, and indexed tables cached per table image.
struct Shadow {
    store: Store<MemDisk>,
    tables: HashMap<String, (Arc<TableImage>, Table)>,
}

/// Every round starts from the preloaded disk and replays the same
/// requests, so rounds are identical and memory stays bounded.
pub struct ServeWorkload {
    requests: Vec<Request>,
    initial: BTreeMap<String, Columns>,
    preloaded: MemDisk,
    counts: Rc<RefCell<DiskCounts>>,
    round_start: DiskCounts,
    service: Option<QueryService<CountingDisk>>,
    shadow: Option<Shadow>,
    replica: Replica,
    mirror: BTreeMap<String, Columns>,
    /// The reference answer per request, computed from the mirror the
    /// first time the request runs.
    expected: Vec<Option<Vec<u32>>>,
    pins: VecDeque<Arc<TableImage>>,
    last_generation: u64,
    exact: Vec<(&'static str, u64)>,
}

impl ServeWorkload {
    /// Queries only, on one 8192-row table.
    pub fn read(seed: u64) -> Result<ServeWorkload, String> {
        let mut gen = Gen::new(seed);
        let initial = BTreeMap::from([("items".to_string(), gen.table(READ_ROWS))]);
        let requests = gen
            .queries(READ_OPS)
            .into_iter()
            .map(|predicate| Request::Query {
                table: "items".into(),
                predicate,
            })
            .collect();
        ServeWorkload::new(initial, requests)
    }

    /// Request slots of half queries, 40% appends of 1–16 rows and 10%
    /// drop-and-recreate, over four 2048-row tables; kinds, tables and
    /// append sizes come in exact quotas.
    pub fn mixed(seed: u64) -> Result<ServeWorkload, String> {
        let mut gen = Gen::new(seed);
        let initial = (0..MIXED_TABLES)
            .map(|t| (format!("t{t}"), gen.table(MIXED_ROWS)))
            .collect();
        let kinds = quotas(MIXED_SLOTS, 10, &mut gen.rng);
        let tables = quotas(MIXED_SLOTS, MIXED_TABLES, &mut gen.rng);
        let appends = quotas(MIXED_SLOTS, 16, &mut gen.rng);
        let mut queries = gen.queries(MIXED_SLOTS / 2).into_iter();
        let mut requests = Vec::with_capacity(MIXED_SLOTS * 11 / 10);
        for slot in 0..MIXED_SLOTS {
            let table = format!("t{}", tables[slot]);
            match kinds[slot] {
                0..=4 => requests.push(Request::Query {
                    table,
                    predicate: queries.next().ok_or("query quota exhausted")?,
                }),
                5..=8 => requests.push(Request::Append {
                    table,
                    rows: gen.rows(1 + appends[slot]),
                }),
                _ => {
                    requests.push(Request::Drop {
                        table: table.clone(),
                    });
                    requests.push(Request::Create {
                        table,
                        columns: gen.table(MIXED_ROWS),
                    });
                }
            }
        }
        ServeWorkload::new(initial, requests)
    }

    fn new(
        initial: BTreeMap<String, Columns>,
        requests: Vec<Request>,
    ) -> Result<ServeWorkload, String> {
        let mut store = Store::open(MemDisk::new(), store_options()).map_err(|e| e.to_string())?;
        for (name, columns) in &initial {
            let mut txn = store.begin();
            txn.create_table(name, columns.clone());
            store
                .commit(txn)
                .map_err(|e| format!("preload {name}: {e}"))?;
        }
        Ok(ServeWorkload {
            expected: vec![None; requests.len()],
            requests,
            mirror: initial.clone(),
            initial,
            preloaded: store.into_disk(),
            counts: Rc::default(),
            round_start: DiskCounts::default(),
            service: None,
            shadow: None,
            replica: Replica::default(),
            pins: VecDeque::new(),
            last_generation: 0,
            exact: Vec::new(),
        })
    }

    /// Keeps the image of `table` alive until 64 other distinct images
    /// have been queried. `QueryService` caches indexed tables keyed by
    /// the image's address without holding the image, so once an image
    /// is freed its address can come back for a newer generation of the
    /// table and the cache serves the stale index: wrong RIDs. That cache
    /// holds at most 32 entries, all for images among the last 32
    /// distinct ones queried, so no cached address is freed while pinned.
    fn pin(&mut self, table: &str) {
        let Some(img) = self
            .service
            .as_ref()
            .and_then(|s| s.view().table(table).cloned())
        else {
            return;
        };
        if let Some(k) = self.pins.iter().position(|p| Arc::ptr_eq(p, &img)) {
            self.pins.remove(k);
        }
        self.pins.push_back(img);
        if self.pins.len() > PINS {
            self.pins.pop_front();
        }
    }

    /// Checks the service's reply to request `i` against the row mirror
    /// and applies committed writes to it.
    fn check(&mut self, i: usize, done: &Completion) -> Option<String> {
        let request = &self.requests[i];
        match (request, &done.result) {
            (_, Err(e)) => Some(format!("service error: {e}")),
            (Request::Query { table, predicate }, Ok(Reply::Rids(rids))) => {
                let Some(cols) = self.mirror.get(table) else {
                    return Some(format!("table {table} is not in the row mirror"));
                };
                let expected =
                    self.expected[i].get_or_insert_with(|| reference_query(cols, predicate));
                (rids != expected).then(|| {
                    format!(
                        "{} RIDs, the row mirror matches {}",
                        rids.len(),
                        expected.len()
                    )
                })
            }
            (Request::Query { .. }, Ok(reply)) => Some(format!("a query replied {reply:?}")),
            (write, Ok(Reply::Committed(generation))) => {
                let previous = std::mem::replace(&mut self.last_generation, *generation);
                apply(&mut self.mirror, write);
                (*generation <= previous)
                    .then(|| format!("write generation {generation} does not follow {previous}"))
            }
            (_, Ok(reply)) => Some(format!("a write replied {reply:?}")),
        }
    }

    /// Replays request `i` on the shadow path. A result that differs from
    /// the service's is a wrong output; a cycle count or generation that
    /// differs is a replica mismatch.
    fn shadow(&mut self, i: usize, t: &mut Traced, done: &Completion) -> Option<String> {
        let shadow = self.shadow.as_mut()?;
        let request = &self.requests[i];
        let Request::Query { table, predicate } = request else {
            t.counters.writes += 1;
            t.counters.user_bytes += user_bytes(request);
            let mut txn = shadow.store.begin();
            match request {
                Request::Create { table, columns } => txn.create_table(table, columns.clone()),
                Request::Append { table, rows } => txn.append_rows(table, rows.clone()),
                Request::Drop { table } => txn.drop_table(table),
                Request::Query { .. } => unreachable!("queries take the other path"),
            };
            let s = t.tracer.begin("storage.commit");
            let committed = shadow.store.commit(txn);
            t.tracer.end(s);
            return match (committed, &done.result) {
                (Ok(g), Ok(Reply::Committed(want))) => {
                    t.counters.replica_mismatches += u64::from(g != *want);
                    None
                }
                (Ok(_), _) => None,
                (Err(e), _) => Some(format!("shadow commit: {e}")),
            };
        };
        t.counters.queries += 1;
        let view = shadow.store.view();
        let Some(img) = view.table(table) else {
            return Some(format!("shadow store has no table {table}"));
        };
        if !shadow
            .tables
            .get(table)
            .is_some_and(|(cached, _)| Arc::ptr_eq(cached, img))
        {
            let s = t.tracer.begin("query.index_build");
            let cols: Vec<(&str, Vec<u32>)> = img
                .columns
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let built = Table::try_build(&img.name, &cols);
            t.tracer.end(s);
            match built {
                Ok(indexed) => {
                    shadow
                        .tables
                        .insert(table.clone(), (Arc::clone(img), indexed));
                    t.counters.index_builds += 1;
                }
                Err(e) => return Some(format!("shadow index build: {e}")),
            }
        }
        let s = t.tracer.begin("query.engine");
        let mut engine = Engine {
            replica: &mut self.replica,
            tr: &mut t.tracer,
            c: &mut t.counters,
            cycles: 0,
        };
        let rids = engine.eval(&shadow.tables[table].1, predicate);
        let cycles = engine.cycles;
        t.tracer.end(s);
        match (rids, &done.result) {
            (Ok(rids), Ok(Reply::Rids(got))) => {
                t.counters.replica_mismatches += u64::from(cycles != done.phases.kernel);
                (rids != *got).then(|| "the shadow engine's RIDs differ from the service's".into())
            }
            (Ok(_), _) => None,
            (Err(e), _) => Some(format!("shadow engine: {e}")),
        }
    }
}

/// The query engine's plan, replayed with every set operation through
/// the kernel replica: index lookups for `=`, a balanced union tree for
/// ranges, one set operation per boolean node.
struct Engine<'a> {
    replica: &'a mut Replica,
    tr: &'a mut Tracer,
    c: &'a mut LayerCounters,
    cycles: u64,
}

impl Engine<'_> {
    fn eval(&mut self, table: &Table, p: &Predicate) -> Result<Vec<u32>, String> {
        let index = |column: &str| {
            table
                .index(column)
                .ok_or_else(|| format!("no index on {column}"))
        };
        match p {
            Predicate::Eq { column, value } => Ok(index(column)?.lookup(*value).to_vec()),
            Predicate::Range { column, lo, hi } => self.union_tree(index(column)?.range(*lo, *hi)),
            Predicate::And(a, b) => self.binary(SetOpKind::Intersect, table, a, b),
            Predicate::Or(a, b) => self.binary(SetOpKind::Union, table, a, b),
            Predicate::AndNot(a, b) => self.binary(SetOpKind::Difference, table, a, b),
        }
    }

    fn binary(
        &mut self,
        kind: SetOpKind,
        table: &Table,
        a: &Predicate,
        b: &Predicate,
    ) -> Result<Vec<u32>, String> {
        let ra = self.eval(table, a)?;
        let rb = self.eval(table, b)?;
        self.set_op(kind, &ra, &rb)
    }

    /// Unions in list order, level by level; an odd last list passes to
    /// the next level.
    fn union_tree(&mut self, lists: Vec<&[u32]>) -> Result<Vec<u32>, String> {
        let mut level: Vec<Vec<u32>> = lists.into_iter().map(<[u32]>::to_vec).collect();
        while level.len() > 1 {
            let carry = if level.len() % 2 == 1 {
                level.pop()
            } else {
                None
            };
            let mut next = Vec::with_capacity(level.len() / 2 + 1);
            for pair in level.chunks(2) {
                next.push(self.set_op(SetOpKind::Union, &pair[0], &pair[1])?);
            }
            next.extend(carry);
            level = next;
        }
        Ok(level.pop().unwrap_or_default())
    }

    fn set_op(&mut self, kind: SetOpKind, a: &[u32], b: &[u32]) -> Result<Vec<u32>, String> {
        self.c.set_ops += 1;
        self.c.elements += (a.len() + b.len()) as u64;
        match self
            .replica
            .set_op(self.tr, MODEL, kind, a, b, Some(DEADLINE))
        {
            Ok(out) => {
                out.count(self.c);
                self.cycles += out.stats.cycles;
                Ok(out.result)
            }
            // The engine runs sets that do not fit the local store in
            // value-aligned batches; that path is timed as one span.
            Err(SimError::BadProgram(_)) if a.len() + b.len() >= 2 => {
                let opts = RunOptions {
                    deadline: Some(DEADLINE),
                    ..Default::default()
                };
                let s = self.tr.begin("core.partition");
                let run = run_partition_with(MODEL, kind, a, b, &opts);
                self.tr.end(s);
                let run = run.map_err(|e| e.to_string())?;
                self.cycles += run.cycles;
                Ok(run.result)
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Workload for ServeWorkload {
    fn ops_per_round(&self) -> usize {
        self.requests.len()
    }

    fn start_round(&mut self, traced: bool) -> Result<(), String> {
        let disk = CountingDisk {
            inner: self.preloaded.clone(),
            counts: Rc::clone(&self.counts),
            timed: traced,
        };
        let service = QueryService::open(disk, MODEL, config()).map_err(|e| e.to_string())?;
        self.last_generation = service.store().generation();
        self.service = Some(service);
        self.shadow = if traced {
            let store =
                Store::open(self.preloaded.clone(), store_options()).map_err(|e| e.to_string())?;
            Some(Shadow {
                store,
                tables: HashMap::new(),
            })
        } else {
            None
        };
        self.mirror = self.initial.clone();
        self.pins.clear();
        self.round_start = *self.counts.borrow();
        Ok(())
    }

    fn op(&mut self, i: usize, traced: Option<&mut Traced>) -> Sample {
        if let Request::Query { table, .. } = &self.requests[i] {
            let table = table.clone();
            self.pin(&table);
        }
        let arrival = [Arrival::new(0, self.requests[i].clone())];
        let Some(service) = self.service.as_mut() else {
            return Sample::error(0, "no round in progress".into());
        };
        let t0 = Instant::now();
        let (report, traced) = match traced {
            Some(t) => {
                let disk_before = *self.counts.borrow();
                let s = t.tracer.begin("query.service");
                let report = service.run(&arrival);
                t.tracer.end(s);
                let disk = *self.counts.borrow();
                t.counters.ops += 1;
                t.counters.disk_ns += disk.ns - disk_before.ns;
                t.counters.wal_bytes += disk.wal_bytes - disk_before.wal_bytes;
                t.counters.snapshot_bytes += disk.snapshot_bytes - disk_before.snapshot_bytes;
                t.counters.fsyncs += disk.fsyncs - disk_before.fsyncs;
                (report, Some(t))
            }
            None => (service.run(&arrival), None),
        };
        let mut ns = elapsed_ns(t0);
        let done = &report.completions[0];
        let mut wrong = self.check(i, done);
        if let Some(t) = traced {
            let t1 = Instant::now();
            let shadow_wrong = self.shadow(i, t, done);
            ns += elapsed_ns(t1);
            wrong = wrong.or(shadow_wrong);
        }
        Sample {
            ns,
            wrong,
            sim_cycles: done.latency(),
            kernel_cycles: done.phases.kernel,
        }
    }

    fn finish_round(&mut self) -> Result<Option<String>, String> {
        let service = self.service.take().ok_or("no round in progress")?;
        self.shadow = None;
        let c = *self.counts.borrow();
        let s = self.round_start;
        self.exact = vec![
            ("storage.disk_calls", c.calls - s.calls),
            ("storage.wal_bytes", c.wal_bytes - s.wal_bytes),
            (
                "storage.snapshot_bytes",
                c.snapshot_bytes - s.snapshot_bytes,
            ),
            ("storage.fsyncs", c.fsyncs - s.fsyncs),
        ];
        let digest = service.store().state_digest();
        let images = self
            .mirror
            .iter()
            .map(|(name, columns)| {
                let img = TableImage {
                    name: name.clone(),
                    columns: columns.clone(),
                };
                (name.clone(), Arc::new(img))
            })
            .collect();
        let mirrored = digest_tables(&images);
        let mut disk = service.into_store().into_disk().inner;
        disk.crash();
        Ok(match Store::open(disk, StoreOptions::default()) {
            Ok(recovered) if recovered.state_digest() == digest && digest == mirrored => None,
            Ok(recovered) => Some(format!(
                "state digest {digest:08x}, after crash and recovery {:08x}, row mirror {mirrored:08x}",
                recovered.state_digest()
            )),
            Err(e) => Some(format!("recovery after a crash: {e}")),
        })
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        self.exact.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Columns {
        vec![
            ("color".into(), vec![1, 2, 1, 3, 1, 2]),
            ("size".into(), vec![9, 9, 7, 9, 9, 7]),
        ]
    }

    #[test]
    fn the_query_reference_on_hand_worked_cases() {
        let c = cols();
        let eq = |col, v| Predicate::eq(col, v);
        assert_eq!(
            reference_query(&c, &eq("color", 1).and(eq("size", 9))),
            [0, 4]
        );
        assert_eq!(
            reference_query(&c, &eq("color", 3).or(eq("size", 7))),
            [2, 3, 5]
        );
        assert_eq!(
            reference_query(&c, &eq("color", 1).and_not(eq("size", 7))),
            [0, 4]
        );
        assert_eq!(
            reference_query(&c, &Predicate::between("color", 2, 3)),
            [1, 3, 5]
        );
        assert!(reference_query(&c, &eq("color", 4)).is_empty());
    }

    #[test]
    fn the_row_mirror_applies_writes() {
        let mut mirror = BTreeMap::from([("t".to_string(), cols())]);
        apply(
            &mut mirror,
            &Request::Append {
                table: "t".into(),
                rows: vec![("color".into(), vec![4]), ("size".into(), vec![5])],
            },
        );
        assert_eq!(mirror["t"][0].1, [1, 2, 1, 3, 1, 2, 4]);
        apply(&mut mirror, &Request::Drop { table: "t".into() });
        assert!(mirror.is_empty());
    }

    #[test]
    fn the_shadow_engine_reproduces_the_query_engine() {
        let mut gen = Gen::new(11);
        let columns = gen.table(2048);
        let cols: Vec<(&str, Vec<u32>)> = columns
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let table = Table::try_build("t", &cols).unwrap();
        let real = dbx_query::QueryEngine::with_options(
            MODEL,
            RunOptions {
                deadline: Some(DEADLINE),
                ..Default::default()
            },
        );
        let (mut replica, mut tr, mut c) =
            (Replica::default(), Tracer::new(0), LayerCounters::default());
        for predicate in gen.queries(20) {
            let want = real.execute(&table, &predicate).unwrap();
            let mut engine = Engine {
                replica: &mut replica,
                tr: &mut tr,
                c: &mut c,
                cycles: 0,
            };
            let got = engine.eval(&table, &predicate).unwrap();
            assert_eq!(got, want.rids, "{predicate:?}");
            assert_eq!(got, reference_query(&columns, &predicate));
            assert_eq!(engine.cycles, want.cycles, "{predicate:?}");
            tr.end_op(0);
        }
        assert_eq!(
            c.fast_cycles, 0,
            "the deadline's watchdog keeps kernels off the fast path"
        );
        assert!(c.set_ops >= 20);
    }

    #[test]
    fn the_counting_disk_counts_by_file_class() {
        let counts = Rc::default();
        let disk = CountingDisk {
            inner: MemDisk::new(),
            counts: Rc::clone(&counts),
            timed: true,
        };
        let mut store = Store::open(disk, store_options()).unwrap();
        for k in 0..SNAPSHOT_EVERY {
            let mut txn = store.begin();
            txn.create_table(&format!("t{k}"), cols());
            store.commit(txn).unwrap();
        }
        let c: DiskCounts = *counts.borrow();
        assert!(c.fsyncs >= SNAPSHOT_EVERY, "at least one per commit");
        assert!(c.wal_bytes > 0 && c.snapshot_bytes > 0, "{c:?}");
        assert!(c.calls > c.fsyncs && c.ns > 0);
    }
}
