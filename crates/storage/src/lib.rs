//! `dbx-storage` — durable table storage for the query service.
//!
//! The serving story of the workspace needs tables that survive process
//! death: this crate provides an append-only, checksummed, segment-based
//! write-ahead log ([`wal`]), periodic full-catalog snapshots
//! ([`snapshot`]), and a [`Store`] that ties them together with
//! deterministic recovery, snapshot-isolated reads over immutable
//! [`TableImage`] generations, and first-committer-wins optimistic
//! writes.
//!
//! Durability is *modeled*, not assumed: the [`disk::MemDisk`] backend
//! keeps a page-cache image and a durable image per file, moves bytes
//! between them only on fsync, and injects storage faults from
//! [`dbx_faults::storage`] at exact (file class, I/O index) points. The
//! [`campaign`] module uses that to kill the log at every byte offset
//! and under torn writes, bit flips, dropped fsyncs, and truncated
//! snapshots, asserting that recovery always lands on exactly the
//! longest fully durable committed prefix — bit-identically on every
//! host — or, where the faults damaged both snapshots a checkpoint
//! retains, fails with [`StorageError::HistoryPruned`] and touches no
//! file.
//!
//! Layering: this crate sits *below* `dbx-query` (which wraps
//! [`TableImage`]s into indexed tables and serves them) and depends only
//! on `dbx-faults` (fault vocabulary) and `dbx-observe` (spans and
//! counters for `wal.*` / `snapshot.*` activity).

pub mod campaign;
pub mod crc;
pub mod disk;
pub mod record;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use disk::{DirDisk, Disk, MemDisk};
pub use record::{Columns, TableImage, TableOp, WalRecord};
pub use snapshot::Snapshot;
pub use store::{digest_tables, RecoveryReport, Store, StoreOptions, StoreView, Txn};
pub use wal::Wal;

/// Everything that can go wrong in the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Optimistic concurrency conflict: another transaction committed
    /// after this one began. Retryable — begin again from the current
    /// generation.
    Conflict {
        /// Generation the losing transaction was begun at.
        base_gen: u64,
        /// Generation the store had advanced to.
        current_gen: u64,
    },
    /// The operation names a table that does not exist.
    UnknownTable {
        /// The missing table.
        name: String,
    },
    /// A create names a table that already exists.
    DuplicateTable {
        /// The already-present table.
        name: String,
    },
    /// An append's column set does not match the table's schema.
    ColumnMismatch {
        /// The table appended to.
        table: String,
        /// The table's column names.
        expected: Vec<String>,
        /// The column names the append supplied.
        got: Vec<String>,
    },
    /// A create names the same column twice.
    DuplicateColumn {
        /// The table being created.
        table: String,
        /// The repeated column name.
        column: String,
    },
    /// Columns in one batch have unequal lengths.
    ColumnLengthMismatch {
        /// The table involved.
        table: String,
        /// The offending column.
        column: String,
        /// Length of the batch's first column.
        expected: usize,
        /// Length of the offending column.
        got: usize,
    },
    /// An I/O operation failed (filesystem backends).
    Io {
        /// The operation (`read`, `append`, `fsync`, …).
        op: String,
        /// The file involved.
        file: String,
        /// Backend detail.
        detail: String,
    },
    /// On-disk bytes failed validation (CRC mismatch, short read,
    /// undecodable record). Recovery handles WAL corruption itself;
    /// this surfaces where damage is not self-healing.
    Corrupt {
        /// What failed to validate.
        what: String,
    },
    /// Recovery needs WAL frames that retention already removed: no
    /// retained snapshot validates back far enough, and the oldest frame
    /// on the disk lies past the LSN replay has to start at. Recovery
    /// changes no file when it returns this.
    HistoryPruned {
        /// The LSN replay has to start at (one past the newest valid
        /// snapshot, or 1 without one).
        need_lsn: u64,
        /// The LSN of the oldest frame on the disk.
        first_lsn: u64,
    },
}

impl StorageError {
    pub(crate) fn corrupt(what: String) -> Self {
        StorageError::Corrupt { what }
    }

    /// True for errors a client should retry (today: OCC conflicts).
    /// Validation, I/O, and corruption errors are not retryable — the
    /// same request would fail the same way.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StorageError::Conflict { .. })
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Conflict {
                base_gen,
                current_gen,
            } => write!(
                f,
                "write conflict: transaction began at generation {base_gen}, store is at {current_gen}"
            ),
            StorageError::UnknownTable { name } => write!(f, "no such table {name:?}"),
            StorageError::DuplicateTable { name } => write!(f, "table {name:?} already exists"),
            StorageError::ColumnMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "append to {table:?} supplies columns {got:?}, table has {expected:?}"
            ),
            StorageError::DuplicateColumn { table, column } => {
                write!(f, "create of {table:?} names column {column:?} twice")
            }
            StorageError::ColumnLengthMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "ragged batch for {table:?}: column {column:?} has {got} values, expected {expected}"
            ),
            StorageError::Io { op, file, detail } => {
                write!(f, "{op} on {file:?} failed: {detail}")
            }
            StorageError::Corrupt { what } => write!(f, "corrupt storage: {what}"),
            StorageError::HistoryPruned {
                need_lsn,
                first_lsn,
            } => write!(
                f,
                "history pruned: recovery needs the log from LSN {need_lsn}, the oldest frame on disk is LSN {first_lsn}"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_conflicts_are_retryable() {
        assert!(StorageError::Conflict {
            base_gen: 1,
            current_gen: 2
        }
        .is_retryable());
        for err in [
            StorageError::UnknownTable { name: "t".into() },
            StorageError::DuplicateTable { name: "t".into() },
            StorageError::ColumnMismatch {
                table: "t".into(),
                expected: vec!["a".into()],
                got: vec!["b".into()],
            },
            StorageError::DuplicateColumn {
                table: "t".into(),
                column: "a".into(),
            },
            StorageError::ColumnLengthMismatch {
                table: "t".into(),
                column: "a".into(),
                expected: 2,
                got: 3,
            },
            StorageError::Io {
                op: "read".into(),
                file: "wal-00000001.seg".into(),
                detail: "gone".into(),
            },
            StorageError::Corrupt {
                what: "frame".into(),
            },
            StorageError::HistoryPruned {
                need_lsn: 1,
                first_lsn: 9,
            },
        ] {
            assert!(!err.is_retryable(), "{err} must not be retryable");
        }
    }

    #[test]
    fn errors_render_useful_messages() {
        let e = StorageError::Conflict {
            base_gen: 3,
            current_gen: 5,
        };
        assert!(e.to_string().contains("generation 3"));
        assert!(StorageError::Corrupt { what: "x".into() }
            .to_string()
            .contains("corrupt"));
    }
}
