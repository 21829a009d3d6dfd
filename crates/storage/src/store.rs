//! The durable table store: snapshot-isolated reads over immutable
//! table generations, first-committer-wins (OCC) writes, WAL-then-apply
//! commits, periodic snapshots, and deterministic recovery.
//!
//! # Concurrency model
//!
//! The store itself is a single-writer structure (the query service
//! serializes commits through it), but *readers* never block and never
//! see partial state: [`Store::view`] hands out a [`StoreView`] — a
//! cheap clone of the `Arc<TableImage>` map plus the generation it was
//! taken at. Views are `Send`/`Sync` and stay valid forever; they just
//! go stale as the store advances.
//!
//! Writers use optimistic concurrency: [`Store::begin`] captures the
//! current generation, the transaction buffers logical ops, and
//! [`Store::commit`] fails with a *retryable* [`StorageError::Conflict`]
//! if any other transaction committed in between (first committer
//! wins). There is no partial application: commit validates every op
//! against a scratch catalog before a single WAL byte is written.
//!
//! # Durability protocol
//!
//! A commit (1) validates, (2) appends the whole transaction as ONE
//! frame to the open WAL segment (so the frame CRC covers the commit
//! and torn commits vanish atomically), (3) fsyncs the segment, then
//! (4) applies in memory and bumps the generation by one. A crash between (2) and (3) — or a dropped
//! fsync at (3) — loses at most the uncommitted suffix, which is
//! exactly what [`Store::open`] truncates away on replay. Every
//! `snapshot_every` commits the store writes a `snap-<lsn>.img`
//! checkpoint, rotates the WAL segment and retires old history: it
//! keeps the [`RETAINED_SNAPSHOTS`] newest snapshots and every segment
//! holding a frame past the older of them (see the [`crate::wal`] docs).
//! The footprint follows the live tables, not the length of history,
//! and recovery survives one damaged snapshot, not any number of them.

use crate::disk::Disk;
use crate::record::{self, Columns, TableImage, TableOp, WalRecord};
use crate::snapshot::{snapshot_name, Snapshot};
use crate::wal::Wal;
use crate::StorageError;
use dbx_observe::{ArgValue, Observer, TrackId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Fixed span-cost model: every storage span costs `SPAN_BASE + bytes`
/// host cycles, so traces are deterministic in the cycle domain.
const SPAN_BASE: u64 = 64;

/// Snapshots a checkpoint keeps: the one it writes and the one before
/// it, so a damaged newest snapshot still recovers from its predecessor
/// plus the segments in between.
pub const RETAINED_SNAPSHOTS: usize = 2;

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Take a snapshot (and rotate the WAL segment) every N commits.
    /// `0` disables snapshotting.
    pub snapshot_every: u64,
    /// Trace sink for `wal.*` / `snapshot.*` spans and storage
    /// counters. Disabled by default.
    pub observer: Observer,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            snapshot_every: 0,
            observer: Observer::disabled(),
        }
    }
}

/// What recovery found and repaired (kept for inspection after
/// [`Store::open`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (0 = empty state).
    pub snapshot_lsn: u64,
    /// Valid WAL frames scanned during replay.
    pub frames_replayed: u64,
    /// Damaged segment tails truncated away.
    pub frames_truncated: u64,
    /// Damaged snapshot files that were skipped (newest first).
    pub snapshots_skipped: Vec<String>,
    /// Human-readable descriptions of WAL damage repaired on open.
    pub wal_damage: Vec<String>,
}

/// A snapshot-isolated read view: the catalog exactly as of
/// [`StoreView::generation`], immutable and shareable across threads.
#[derive(Debug, Clone)]
pub struct StoreView {
    generation: u64,
    tables: BTreeMap<String, Arc<TableImage>>,
}

impl StoreView {
    /// The generation (last applied LSN) this view was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up a table image.
    pub fn table(&self, name: &str) -> Option<&Arc<TableImage>> {
        self.tables.get(name)
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Deterministic digest of the catalog (see [`digest_tables`]).
    pub fn digest(&self) -> u32 {
        digest_tables(&self.tables)
    }
}

/// A pending optimistic transaction: buffered logical ops plus the
/// generation it was begun at.
#[derive(Debug, Clone)]
pub struct Txn {
    base_gen: u64,
    ops: Vec<TableOp>,
}

impl Txn {
    /// Number of buffered ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Buffers a table creation.
    pub fn create_table(&mut self, name: &str, columns: Columns) -> &mut Self {
        self.ops.push(TableOp::Create {
            name: name.to_string(),
            columns,
        });
        self
    }

    /// Buffers a row-batch append.
    pub fn append_rows(&mut self, name: &str, rows: Columns) -> &mut Self {
        self.ops.push(TableOp::Append {
            name: name.to_string(),
            rows,
        });
        self
    }

    /// Buffers a table drop.
    pub fn drop_table(&mut self, name: &str) -> &mut Self {
        self.ops.push(TableOp::Drop {
            name: name.to_string(),
        });
        self
    }

    /// Buffers a pre-built op (workload generators).
    pub fn push(&mut self, op: TableOp) -> &mut Self {
        self.ops.push(op);
        self
    }
}

/// Deterministic digest of a catalog: CRC-32 of its canonical
/// serialization (table names and columns, *not* LSNs), so two stores
/// that recovered to the same logical state digest identically on any
/// host.
pub fn digest_tables(tables: &BTreeMap<String, Arc<TableImage>>) -> u32 {
    let mut bytes = Vec::new();
    record::put_tables(&mut bytes, tables);
    crate::crc::crc32(&bytes)
}

/// The durable table store over a [`Disk`].
#[derive(Debug)]
pub struct Store<D: Disk> {
    disk: D,
    wal: Wal,
    generation: u64,
    tables: BTreeMap<String, Arc<TableImage>>,
    opts: StoreOptions,
    obs: Observer,
    commits_since_snapshot: u64,
    recovery: RecoveryReport,
    last_commit_pos: Option<(String, usize)>,
    /// LSNs of the snapshot files on the disk: listed once by recovery,
    /// kept current by [`Snapshot::write`] and retirement.
    snapshots: BTreeSet<u64>,
}

impl<D: Disk> Store<D> {
    /// Opens the store, running deterministic recovery: load the newest
    /// valid snapshot (skipping damaged ones), replay the WAL suffix,
    /// truncate the log at the first corrupt frame, and remove the
    /// damaged snapshots it skipped. Fails with
    /// [`StorageError::HistoryPruned`], changing no file, when the
    /// frames replay needs were retired.
    pub fn open(mut disk: D, opts: StoreOptions) -> Result<Self, StorageError> {
        let obs = opts.observer.on_track(TrackId::Host);
        let mut report = RecoveryReport::default();

        // 1. Newest valid snapshot, or the empty state.
        let loaded = Snapshot::load_latest(&disk);
        report.snapshots_skipped = loaded.skipped;
        // Every snapshot newer than the one loaded was skipped as damaged.
        let first_damaged = loaded.snapshot.as_ref().map_or(0, |s| s.lsn + 1);
        let (mut tables, snap_lsn) = match loaded.snapshot {
            Some(s) => (s.tables, s.lsn),
            None => (BTreeMap::new(), 0),
        };
        report.snapshot_lsn = snap_lsn;
        let snap_bytes = loaded.image_len as u64;
        obs.place("snapshot.load", "storage", SPAN_BASE + snap_bytes, || {
            vec![
                ("lsn", ArgValue::U64(snap_lsn)),
                ("bytes", ArgValue::U64(snap_bytes)),
            ]
        });

        // 2. Replay the WAL suffix, repairing torn tails.
        let replay = Wal::replay(&mut disk, snap_lsn)?;
        let wal = Wal::resume(&replay);
        report.frames_replayed = replay.frames_replayed;
        report.frames_truncated = replay.frames_truncated;
        report.wal_damage = replay.damage;
        let mut generation = snap_lsn;
        for rec in &replay.records {
            for op in &rec.ops {
                apply_op(&mut tables, op)?;
            }
            generation = rec.lsn;
        }
        obs.place(
            "wal.replay",
            "storage",
            SPAN_BASE + replay.frames_replayed * SPAN_BASE,
            || {
                vec![
                    ("frames", ArgValue::U64(replay.frames_replayed)),
                    ("truncated", ArgValue::U64(replay.frames_truncated)),
                    ("generation", ArgValue::U64(generation)),
                ]
            },
        );
        obs.counter("storage.frames_replayed", replay.frames_replayed as f64);
        obs.counter("storage.frames_truncated", replay.frames_truncated as f64);

        // 3. Drop the damaged snapshots, as replay drops WAL damage, so
        // retention never counts one as a fallback.
        let mut snapshots = loaded.on_disk;
        for lsn in snapshots.split_off(&first_damaged) {
            disk.remove(&snapshot_name(lsn))?;
        }

        Ok(Store {
            disk,
            wal,
            generation,
            tables,
            opts,
            obs,
            // The cadence counts from the snapshot recovery loaded, not
            // from the reopen.
            commits_since_snapshot: generation - snap_lsn,
            recovery: report,
            last_commit_pos: None,
            snapshots,
        })
    }

    /// Where the most recent commit's frame landed: `(segment name, end
    /// offset within the segment)`. Crash campaigns use this to map
    /// byte offsets back to commit boundaries. The offset is the WAL's
    /// own count of the segment's bytes, so it equals the segment's
    /// length whenever the disk stores what it is given; under a torn
    /// write or a bit flip it is the length the store meant to write.
    pub fn last_commit_position(&self) -> Option<&(String, usize)> {
        self.last_commit_pos.as_ref()
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current generation (last applied LSN).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Takes a snapshot-isolated view of the catalog.
    pub fn view(&self) -> StoreView {
        StoreView {
            generation: self.generation,
            tables: self.tables.clone(),
        }
    }

    /// Begins an optimistic transaction at the current generation.
    pub fn begin(&self) -> Txn {
        Txn {
            base_gen: self.generation,
            ops: Vec::new(),
        }
    }

    /// Commits a transaction: OCC check, validate, WAL, fsync, apply.
    /// Returns the new generation. An empty transaction commits to the
    /// current generation without touching the log.
    pub fn commit(&mut self, txn: Txn) -> Result<u64, StorageError> {
        if txn.base_gen != self.generation {
            return Err(StorageError::Conflict {
                base_gen: txn.base_gen,
                current_gen: self.generation,
            });
        }
        if txn.ops.is_empty() {
            return Ok(self.generation);
        }

        // Validate every op against a scratch catalog first — a commit
        // either fully applies or leaves no trace in the log.
        let mut scratch = self.tables.clone();
        for op in &txn.ops {
            apply_op(&mut scratch, op)?;
        }

        // WAL: the whole transaction is one frame (one CRC — a torn
        // commit vanishes atomically), one fsync per commit.
        let n_ops = txn.ops.len() as u64;
        let rec = WalRecord {
            lsn: self.generation + 1,
            ops: txn.ops,
        };
        let bytes = self.wal.append(&mut self.disk, &rec)? as u64;
        self.wal.sync(&mut self.disk)?;
        self.last_commit_pos = Some((self.wal.open_segment_name(), self.wal.open_segment_len()));
        self.obs
            .place("wal.append", "storage", SPAN_BASE + bytes, || {
                vec![
                    ("ops", ArgValue::U64(n_ops)),
                    ("bytes", ArgValue::U64(bytes)),
                ]
            });

        // Apply.
        self.tables = scratch;
        self.generation += 1;
        self.commits_since_snapshot += 1;
        if self.opts.snapshot_every > 0 && self.commits_since_snapshot >= self.opts.snapshot_every {
            self.take_snapshot()?;
        }
        Ok(self.generation)
    }

    /// Writes a checkpoint of the current catalog, rotates the WAL
    /// segment and retires the history recovery no longer needs: every
    /// snapshot older than the [`RETAINED_SNAPSHOTS`] newest, then, oldest
    /// first, every segment whose frames all lie at or below the oldest
    /// snapshot kept. A crash part-way through leaves only extra files,
    /// which recovery skips and the next checkpoint retires. Normally
    /// driven by `snapshot_every`, public for tests and shutdown paths.
    pub fn take_snapshot(&mut self) -> Result<(), StorageError> {
        let snap = Snapshot {
            lsn: self.generation,
            tables: self.tables.clone(),
        };
        let image_len = snap.write(&mut self.disk, &mut self.snapshots)? as u64;
        self.wal.rotate(&mut self.disk)?;
        self.commits_since_snapshot = 0;
        if let Some(&oldest_kept) = self.snapshots.iter().nth_back(RETAINED_SNAPSHOTS - 1) {
            while let Some(&lsn) = self.snapshots.first().filter(|&&l| l < oldest_kept) {
                self.disk.remove(&snapshot_name(lsn))?;
                self.snapshots.remove(&lsn);
            }
            self.wal.retire_through(&mut self.disk, oldest_kept)?;
        }
        self.obs
            .place("snapshot.write", "storage", SPAN_BASE + image_len, || {
                vec![
                    ("lsn", ArgValue::U64(snap.lsn)),
                    ("bytes", ArgValue::U64(image_len)),
                ]
            });
        Ok(())
    }

    /// Deterministic digest of the current catalog.
    pub fn state_digest(&self) -> u32 {
        digest_tables(&self.tables)
    }

    /// The underlying disk (campaigns clone it to simulate crashes).
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Mutable access to the disk (fault plans are armed through this).
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// Consumes the store, returning the disk.
    pub fn into_disk(self) -> D {
        self.disk
    }
}

/// Applies one logical op to a catalog, validating it fully. Used both
/// by commit (against a scratch copy) and by recovery replay.
fn apply_op(
    tables: &mut BTreeMap<String, Arc<TableImage>>,
    op: &TableOp,
) -> Result<(), StorageError> {
    match op {
        TableOp::Create { name, columns } => {
            if tables.contains_key(name) {
                return Err(StorageError::DuplicateTable { name: name.clone() });
            }
            check_distinct_names(name, columns)?;
            check_equal_lengths(name, columns)?;
            tables.insert(
                name.clone(),
                Arc::new(TableImage {
                    name: name.clone(),
                    columns: columns.clone(),
                }),
            );
        }
        TableOp::Append { name, rows } => {
            let img = tables
                .get(name)
                .ok_or_else(|| StorageError::UnknownTable { name: name.clone() })?;
            if img.columns.len() != rows.len()
                || img
                    .columns
                    .iter()
                    .zip(rows.iter())
                    .any(|((a, _), (b, _))| a != b)
            {
                return Err(StorageError::ColumnMismatch {
                    table: name.clone(),
                    expected: img.columns.iter().map(|(n, _)| n.clone()).collect(),
                    got: rows.iter().map(|(n, _)| n.clone()).collect(),
                });
            }
            check_equal_lengths(name, rows)?;
            let mut columns = img.columns.clone();
            for ((_, dst), (_, src)) in columns.iter_mut().zip(rows.iter()) {
                dst.extend_from_slice(src);
            }
            tables.insert(
                name.clone(),
                Arc::new(TableImage {
                    name: name.clone(),
                    columns,
                }),
            );
        }
        TableOp::Drop { name } => {
            if tables.remove(name).is_none() {
                return Err(StorageError::UnknownTable { name: name.clone() });
            }
        }
    }
    Ok(())
}

fn check_distinct_names(table: &str, cols: &Columns) -> Result<(), StorageError> {
    let mut seen = BTreeSet::new();
    for (cname, _) in cols {
        if !seen.insert(cname.as_str()) {
            return Err(StorageError::DuplicateColumn {
                table: table.to_string(),
                column: cname.clone(),
            });
        }
    }
    Ok(())
}

fn check_equal_lengths(table: &str, cols: &Columns) -> Result<(), StorageError> {
    if let Some((_, first)) = cols.first() {
        for (cname, vals) in cols {
            if vals.len() != first.len() {
                return Err(StorageError::ColumnLengthMismatch {
                    table: table.to_string(),
                    column: cname.clone(),
                    expected: first.len(),
                    got: vals.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use dbx_faults::StorageFileClass;
    use std::cell::Cell;

    fn open_empty() -> Store<MemDisk> {
        Store::open(MemDisk::new(), StoreOptions::default()).unwrap()
    }

    fn cols(vals: &[u32]) -> Columns {
        vec![("k".into(), vals.to_vec())]
    }

    #[test]
    fn create_append_drop_round_trip_through_crash() {
        let mut store = open_empty();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[1, 2]));
        store.commit(txn).unwrap();
        let mut txn = store.begin();
        txn.append_rows("t", cols(&[3]));
        store.commit(txn).unwrap();
        let digest = store.state_digest();
        assert_eq!(store.generation(), 2);

        let mut disk = store.into_disk();
        disk.crash();
        let store2 = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(store2.generation(), 2);
        assert_eq!(store2.state_digest(), digest);
        assert_eq!(
            store2.view().table("t").unwrap().columns,
            vec![("k".to_string(), vec![1, 2, 3])]
        );
    }

    #[test]
    fn occ_first_committer_wins() {
        let mut store = open_empty();
        let mut a = store.begin();
        a.create_table("a", cols(&[1]));
        let mut b = store.begin();
        b.create_table("b", cols(&[2]));
        store.commit(a).unwrap();
        let err = store.commit(b).unwrap_err();
        match err {
            StorageError::Conflict {
                base_gen,
                current_gen,
            } => {
                assert_eq!(base_gen, 0);
                assert_eq!(current_gen, 1);
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
        assert!(err.is_retryable());
        // Retry from the new generation succeeds.
        let mut b2 = store.begin();
        b2.create_table("b", cols(&[2]));
        store.commit(b2).unwrap();
        assert_eq!(store.generation(), 2);
    }

    #[test]
    fn views_are_snapshot_isolated() {
        let mut store = open_empty();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[1]));
        store.commit(txn).unwrap();
        let view = store.view();
        let mut txn = store.begin();
        txn.append_rows("t", cols(&[2]));
        store.commit(txn).unwrap();
        // The old view still sees one row; a fresh view sees two.
        assert_eq!(view.table("t").unwrap().n_rows(), 1);
        assert_eq!(store.view().table("t").unwrap().n_rows(), 2);
        assert_eq!(view.generation(), 1);
    }

    #[test]
    fn view_survives_threads() {
        let mut store = open_empty();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[7, 8, 9]));
        store.commit(txn).unwrap();
        let view = store.view();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = view.clone();
                std::thread::spawn(move || v.table("t").unwrap().columns[0].1.iter().sum::<u32>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 24);
        }
    }

    #[test]
    fn validation_failures_leave_no_trace() {
        let mut store = open_empty();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[1]));
        store.commit(txn).unwrap();
        let wal_before = store.disk().read(&store.wal.open_segment_name()).unwrap();

        // Duplicate create.
        let mut txn = store.begin();
        txn.create_table("t", cols(&[9]));
        assert!(matches!(
            store.commit(txn),
            Err(StorageError::DuplicateTable { .. })
        ));
        // Append to a missing table.
        let mut txn = store.begin();
        txn.append_rows("missing", cols(&[1]));
        assert!(matches!(
            store.commit(txn),
            Err(StorageError::UnknownTable { .. })
        ));
        // Wrong column set.
        let mut txn = store.begin();
        txn.append_rows("t", vec![("other".into(), vec![1])]);
        assert!(matches!(
            store.commit(txn),
            Err(StorageError::ColumnMismatch { .. })
        ));
        // A column named twice.
        let mut txn = store.begin();
        txn.create_table("d", vec![("a".into(), vec![1]), ("a".into(), vec![2])]);
        assert_eq!(
            store.commit(txn),
            Err(StorageError::DuplicateColumn {
                table: "d".into(),
                column: "a".into()
            })
        );
        // Ragged columns.
        let mut txn = store.begin();
        txn.create_table("r", vec![("a".into(), vec![1]), ("b".into(), vec![1, 2])]);
        assert!(matches!(
            store.commit(txn),
            Err(StorageError::ColumnLengthMismatch { .. })
        ));
        // Drop of a missing table.
        let mut txn = store.begin();
        txn.drop_table("missing");
        assert!(matches!(
            store.commit(txn),
            Err(StorageError::UnknownTable { .. })
        ));

        // Generation unchanged, WAL byte-identical.
        assert_eq!(store.generation(), 1);
        assert_eq!(
            store.disk().read(&store.wal.open_segment_name()).unwrap(),
            wal_before
        );
    }

    #[test]
    fn replay_rejects_a_logged_duplicate_column() {
        // A log written before creates were checked for repeated names
        // fails to open with the same typed error a commit gets.
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        let rec = WalRecord {
            lsn: 1,
            ops: vec![TableOp::Create {
                name: "d".into(),
                columns: vec![("a".into(), vec![1]), ("a".into(), vec![2])],
            }],
        };
        wal.append(&mut disk, &rec).unwrap();
        wal.sync(&mut disk).unwrap();
        assert_eq!(
            Store::open(disk, StoreOptions::default()).unwrap_err(),
            StorageError::DuplicateColumn {
                table: "d".into(),
                column: "a".into()
            }
        );
    }

    #[test]
    fn snapshot_cadence_rotates_and_speeds_recovery() {
        let mut store = Store::open(
            MemDisk::new(),
            StoreOptions {
                snapshot_every: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[0]));
        store.commit(txn).unwrap();
        for i in 1..=5u32 {
            let mut txn = store.begin();
            txn.append_rows("t", cols(&[i]));
            store.commit(txn).unwrap();
        }
        let digest = store.state_digest();
        let disk = store.into_disk();
        // 6 commits at cadence 2 → snapshots at lsn 2, 4, 6.
        assert!(disk.exists(&snapshot_name(6)));
        let store2 = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(store2.recovery().snapshot_lsn, 6);
        assert_eq!(store2.recovery().frames_replayed, 0);
        assert_eq!(store2.state_digest(), digest);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_replay() {
        let mut store = Store::open(
            MemDisk::new(),
            StoreOptions {
                snapshot_every: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[1]));
        store.commit(txn).unwrap();
        let mut txn = store.begin();
        txn.append_rows("t", cols(&[2]));
        store.commit(txn).unwrap();
        let mut txn = store.begin();
        txn.append_rows("t", cols(&[3]));
        store.commit(txn).unwrap();
        let digest = store.state_digest();
        let mut disk = store.into_disk();
        // Truncate the snapshot mid-body: recovery must ignore it and
        // rebuild the same state from the full WAL chain.
        let name = snapshot_name(3);
        let mut bytes = disk.read(&name).unwrap();
        bytes.truncate(bytes.len() - 3);
        disk.set_file(&name, dbx_faults::StorageFileClass::Snapshot, bytes);
        let store2 = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(store2.recovery().snapshot_lsn, 0);
        assert_eq!(store2.recovery().snapshots_skipped.len(), 1);
        assert_eq!(store2.recovery().frames_replayed, 3);
        assert_eq!(store2.state_digest(), digest);
        assert_eq!(store2.generation(), 3);
    }

    #[test]
    fn dropped_fsync_loses_exactly_the_lying_commit() {
        use dbx_faults::StorageFaultPlan;
        let mut store = open_empty();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[1]));
        store.commit(txn).unwrap();
        let digest_committed = store.state_digest();

        // Arm: drop the fsync of the *next* commit. WAL I/O so far:
        // one append + one fsync = indices 0, 1; next append is 2,
        // next fsync is 3.
        store
            .disk_mut()
            .set_fault_plan(StorageFaultPlan::new().with_dropped_wal_fsync(3));
        let mut txn = store.begin();
        txn.append_rows("t", cols(&[2]));
        store.commit(txn).unwrap(); // the fsync lied
        let mut disk = store.into_disk();
        disk.crash();
        let store2 = Store::open(disk, StoreOptions::default()).unwrap();
        // The lying commit is gone; the durable prefix survives intact.
        assert_eq!(store2.state_digest(), digest_committed);
        assert_eq!(store2.generation(), 1);
    }

    #[test]
    fn a_commit_after_an_lsn_gap_survives_the_next_recovery() {
        // Segment 1 holds LSN 1 and segment 2 holds LSN 3: LSN 2 is
        // missing, so recovery stops at generation 1.
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        let ops = vec![TableOp::Create {
            name: "t".into(),
            columns: cols(&[1]),
        }];
        wal.append(&mut disk, &WalRecord { lsn: 1, ops }).unwrap();
        wal.rotate(&mut disk).unwrap();
        let ops = vec![TableOp::Append {
            name: "t".into(),
            rows: cols(&[3]),
        }];
        wal.append(&mut disk, &WalRecord { lsn: 3, ops }).unwrap();
        wal.sync(&mut disk).unwrap();
        let mut store = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(store.generation(), 1);
        let mut txn = store.begin();
        txn.append_rows("t", cols(&[2]));
        assert_eq!(store.commit(txn).unwrap(), 2);
        let digest = store.state_digest();
        let mut disk = store.into_disk();
        disk.crash();
        let store = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(store.generation(), 2, "the acknowledged commit survives");
        assert_eq!(store.state_digest(), digest);
    }

    #[test]
    fn a_reopened_store_keeps_its_snapshot_cadence() {
        let opts = || StoreOptions {
            snapshot_every: 8,
            ..Default::default()
        };
        let mut store = Store::open(MemDisk::new(), opts()).unwrap();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[0]));
        store.commit(txn).unwrap();
        for i in 1..24u32 {
            if i == 19 {
                store = Store::open(store.into_disk(), opts()).unwrap();
                assert_eq!(store.recovery().snapshot_lsn, 16);
            }
            let mut txn = store.begin();
            txn.append_rows("t", cols(&[i]));
            store.commit(txn).unwrap();
        }
        assert_eq!(store.generation(), 24);
        assert!(store.disk().exists(&snapshot_name(24)));
    }

    #[test]
    fn observer_records_storage_spans_and_counters() {
        let (obs, sink) = Observer::memory();
        let mut store = Store::open(
            MemDisk::new(),
            StoreOptions {
                snapshot_every: 1,
                observer: obs.clone(),
            },
        )
        .unwrap();
        let mut txn = store.begin();
        txn.create_table("t", cols(&[1]));
        store.commit(txn).unwrap();
        drop(store);
        let sink = sink.borrow();
        let names: Vec<String> = sink.spans_of("storage").map(|s| s.name.clone()).collect();
        assert!(names.contains(&"snapshot.load".to_string()));
        assert!(names.contains(&"wal.replay".to_string()));
        assert!(names.contains(&"wal.append".to_string()));
        assert!(names.contains(&"snapshot.write".to_string()));
        assert_eq!(
            sink.counter_value(TrackId::Host, "storage.frames_replayed"),
            Some(0.0)
        );
    }

    #[test]
    fn the_bytes_of_a_fixed_history_are_pinned() {
        // (file, length, CRC-32) of every WAL segment and snapshot after a
        // fixed history, recorded before the sliced CRC, the in-place
        // snapshot encode and the delta fsync: none of them may move a
        // byte. The checkpoint at LSN 6 retired `wal-00000001.seg`, whose
        // frames all lie at or below the snapshot at LSN 3.
        let mut store = Store::open(
            MemDisk::new(),
            StoreOptions {
                snapshot_every: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let rows = |n: u32, seed: u32| -> Columns {
            ["a", "b", "c"]
                .iter()
                .zip(seed..)
                .map(|(name, s)| {
                    let vals = (0..n).map(|i| i.wrapping_mul(2_654_435_761).rotate_left(s));
                    (name.to_string(), vals.collect())
                })
                .collect()
        };
        let ops = [
            TableOp::Create {
                name: "t0".into(),
                columns: rows(300, 1),
            },
            TableOp::Create {
                name: "t1".into(),
                columns: rows(200, 5),
            },
            TableOp::Append {
                name: "t0".into(),
                rows: rows(7, 9),
            },
            TableOp::Drop { name: "t1".into() },
            TableOp::Create {
                name: "t1".into(),
                columns: rows(50, 13),
            },
            TableOp::Append {
                name: "t1".into(),
                rows: rows(16, 17),
            },
            TableOp::Append {
                name: "t0".into(),
                rows: rows(1, 21),
            },
        ];
        for op in ops {
            let mut txn = store.begin();
            txn.push(op);
            store.commit(txn).unwrap();
        }
        let disk = store.into_disk();
        let files: Vec<(String, usize, u32)> = disk
            .list()
            .into_iter()
            .map(|name| {
                let bytes = disk.read(&name).unwrap();
                assert_eq!(disk.durable_image(&name).unwrap(), bytes.as_slice());
                let crc = crate::crc::crc32(&bytes);
                (name, bytes.len(), crc)
            })
            .collect();
        let pinned = [
            ("snap-0000000000000003.img", 6186, 2_948_202_284),
            ("snap-0000000000000006.img", 4578, 1_960_152_871),
            ("wal-00000002.seg", 935, 351_927_782),
            ("wal-00000003.seg", 70, 153_063_457),
        ];
        let pinned: Vec<(String, usize, u32)> = pinned
            .iter()
            .map(|&(name, len, crc)| (name.to_string(), len, crc))
            .collect();
        assert_eq!(files, pinned);
    }

    /// A [`MemDisk`] wrapper that implements only the required [`Disk`]
    /// methods (so `exists` is the listing default) and counts the calls
    /// that list or read.
    struct ListReadCounter {
        inner: MemDisk,
        lists: Cell<u64>,
        reads: Cell<u64>,
    }

    impl Disk for ListReadCounter {
        fn create(&mut self, name: &str, class: StorageFileClass) -> Result<(), StorageError> {
            self.inner.create(name, class)
        }
        fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
            self.inner.append(name, data)
        }
        fn truncate(&mut self, name: &str, len: usize) -> Result<(), StorageError> {
            self.inner.truncate(name, len)
        }
        fn fsync(&mut self, name: &str) -> Result<(), StorageError> {
            self.inner.fsync(name)
        }
        fn remove(&mut self, name: &str) -> Result<(), StorageError> {
            self.inner.remove(name)
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
            self.reads.set(self.reads.get() + 1);
            self.inner.read(name)
        }
        fn list(&self) -> Vec<String> {
            self.lists.set(self.lists.get() + 1);
            self.inner.list()
        }
    }

    #[test]
    fn commits_neither_list_nor_read_the_disk() {
        // Reopen a store with history (two snapshots, and a damaged file
        // where the next snapshot will go, which recovery must drop) and
        // run a fault-free history of creates, appends and drops across
        // eight snapshot rotations, each of which retires old files.
        let opts = || StoreOptions {
            snapshot_every: 8,
            ..Default::default()
        };
        let mut store = Store::open(MemDisk::new(), opts()).unwrap();
        for i in 0..19u32 {
            let mut txn = store.begin();
            match i {
                0 => txn.create_table("t", cols(&[0])),
                _ => txn.append_rows("t", cols(&[i])),
            };
            store.commit(txn).unwrap();
        }
        let mut disk = store.into_disk();
        disk.set_file(
            &snapshot_name(24),
            StorageFileClass::Snapshot,
            b"torn".to_vec(),
        );
        let disk = ListReadCounter {
            inner: disk,
            lists: Cell::new(0),
            reads: Cell::new(0),
        };
        let mut store = Store::open(disk, opts()).unwrap();
        assert_eq!(store.generation(), 19);
        assert_eq!(store.recovery().snapshots_skipped.len(), 1);
        assert!(!store.disk().inner.exists(&snapshot_name(24)));
        let (lists, reads) = (store.disk().lists.get(), store.disk().reads.get());
        assert!(lists > 0 && reads > 0, "recovery lists and reads");

        for i in 0..64u32 {
            let mut txn = store.begin();
            match i % 4 {
                0 => txn.create_table(&format!("u{i}"), cols(&[i, i + 1])),
                3 => txn.drop_table(&format!("u{}", i - 3)),
                _ => txn.append_rows("t", cols(&[i])),
            };
            store.commit(txn).unwrap();
            let (seg, end) = store.last_commit_position().unwrap().clone();
            let on_disk = store.disk().inner.read(&seg).unwrap().len();
            assert_eq!(end, on_disk, "commit {i}: position in {seg}");
        }
        assert_eq!(store.disk().lists.get(), lists, "a commit listed the disk");
        assert_eq!(store.disk().reads.get(), reads, "a commit read the disk");

        // The history is whole: both retained snapshots validate, and
        // recovery from the final disk lands on the same state.
        let digest = store.state_digest();
        let disk = store.into_disk().inner;
        let (snaps, _) = history(&disk);
        assert_eq!(snaps, [72, 80]);
        for lsn in snaps {
            Snapshot::decode(&disk.read(&snapshot_name(lsn)).unwrap()).unwrap();
        }
        let reopened = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(reopened.recovery().snapshot_lsn, 80);
        assert_eq!(reopened.state_digest(), digest);
    }

    /// A `serve_mixed`-shaped history at `snapshot_every: 8`: four
    /// 2,048-row, 3-column tables, then `commits` commits of 1-16-row
    /// appends and drop-recreates. `check` sees the store after every
    /// commit.
    fn mixed_history(commits: u32, mut check: impl FnMut(&Store<MemDisk>)) -> Store<MemDisk> {
        let mut rng = dbx_faults::XorShift64::new(0x5e_12e);
        let mut rows = |n: u64| -> Columns {
            ["color", "size", "region"]
                .iter()
                .map(|c| {
                    (
                        c.to_string(),
                        (0..n).map(|_| rng.next_u32() % 128).collect(),
                    )
                })
                .collect()
        };
        let opts = StoreOptions {
            snapshot_every: 8,
            ..Default::default()
        };
        let mut store = Store::open(MemDisk::new(), opts).unwrap();
        let mut ops: Vec<TableOp> = (0..4)
            .map(|t| TableOp::Create {
                name: format!("t{t}"),
                columns: rows(2048),
            })
            .collect();
        for i in 0..commits {
            let name = format!("t{}", i % 4);
            match i % 10 {
                0 => ops.extend([
                    TableOp::Drop { name: name.clone() },
                    TableOp::Create {
                        name,
                        columns: rows(2048),
                    },
                ]),
                _ => ops.push(TableOp::Append {
                    name,
                    rows: rows(1 + u64::from(i % 16)),
                }),
            }
        }
        for op in ops.into_iter().take(4 + commits as usize) {
            let mut txn = store.begin();
            txn.push(op);
            store.commit(txn).unwrap();
            check(&store);
        }
        store
    }

    /// The snapshot LSNs and segment numbers on a disk.
    fn history(disk: &MemDisk) -> (Vec<u64>, Vec<u64>) {
        let names = disk.list();
        let snaps = names
            .iter()
            .filter_map(|n| crate::snapshot::parse_snapshot_name(n));
        let segs = names
            .iter()
            .filter_map(|n| crate::wal::parse_segment_name(n));
        (snaps.collect(), segs.collect())
    }

    #[test]
    fn a_long_history_keeps_a_bounded_footprint() {
        let mut most = (0, 0);
        let store = mixed_history(2_000, |store| {
            let (snaps, segs) = history(store.disk());
            most = (most.0.max(snaps.len()), most.1.max(segs.len()));
        });
        assert_eq!(store.generation(), 2_004);
        assert!(most.0 <= 2 && most.1 <= 3, "at most {most:?} files");
        let (snaps, segs) = history(store.disk());
        assert_eq!(snaps, [1_992, 2_000]);
        // The segment the snapshot at 2,000 sealed, and the open one.
        assert_eq!(segs, [250, 251]);
        let digest = store.state_digest();
        let mut disk = store.into_disk();
        disk.crash();
        let reopened = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(reopened.generation(), 2_004);
        assert_eq!(reopened.state_digest(), digest);
    }

    /// Cuts a snapshot's durable image to its header.
    fn damage_snapshot(disk: &mut MemDisk, lsn: u64) {
        let name = snapshot_name(lsn);
        let image = disk.durable_image(&name).unwrap()[..16].to_vec();
        disk.set_file(&name, StorageFileClass::Snapshot, image);
    }

    #[test]
    fn a_damaged_newest_snapshot_recovers_every_acknowledged_commit() {
        let store = mixed_history(60, |_| {});
        let digest = store.state_digest();
        let mut disk = store.into_disk();
        disk.crash();
        assert_eq!(history(&disk).0, [56, 64]);
        damage_snapshot(&mut disk, 64);
        let mut store = Store::open(disk, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery().snapshot_lsn, 56);
        assert_eq!(store.generation(), 64);
        assert_eq!(store.state_digest(), digest);
        // Recovery dropped the damaged file; the next checkpoint keeps
        // the snapshot recovery loaded as its fallback.
        assert_eq!(history(store.disk()).0, [56]);
        store.take_snapshot().unwrap();
        assert_eq!(history(store.disk()).0, [56, 64]);
        assert!(Snapshot::load_latest(store.disk()).skipped.is_empty());
    }

    #[test]
    fn two_damaged_retained_snapshots_fail_recovery_and_change_nothing() {
        let store = mixed_history(60, |_| {});
        let mut disk = store.into_disk();
        disk.crash();
        damage_snapshot(&mut disk, 56);
        damage_snapshot(&mut disk, 64);
        let files = crate::campaign::files;
        let before = files(&disk);
        let err = Store::open(&mut disk, StoreOptions::default()).unwrap_err();
        assert_eq!(
            err,
            StorageError::HistoryPruned {
                need_lsn: 1,
                first_lsn: 57
            }
        );
        assert!(!err.is_retryable());
        assert_eq!(files(&disk), before);
    }

    #[test]
    fn digest_ignores_generation() {
        // Two stores with the same logical state but different histories
        // digest identically.
        let mut a = open_empty();
        let mut txn = a.begin();
        txn.create_table("t", cols(&[1, 2]));
        a.commit(txn).unwrap();

        let mut b = open_empty();
        let mut txn = b.begin();
        txn.create_table("t", cols(&[1]));
        b.commit(txn).unwrap();
        let mut txn = b.begin();
        txn.append_rows("t", cols(&[2]));
        b.commit(txn).unwrap();

        assert_ne!(a.generation(), b.generation());
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
