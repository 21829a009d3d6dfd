//! Typed errors of the query layer.
//!
//! Planner-level problems (missing indexes, bad RIDs, oversized
//! projections) each get their own variant instead of being smuggled
//! through [`SimError::BadProgram`]; faults and simulator errors from
//! the offloaded kernels are wrapped in [`QueryError::Engine`]; the
//! serving layer adds admission and durability outcomes (overload,
//! deadlines, write conflicts, storage failures).
//!
//! [`QueryError::is_retryable`] is the single classification clients
//! and the service's backoff loop consult — no ad-hoc matching at call
//! sites.

use dbx_cpu::SimError;
use dbx_storage::StorageError;
use std::fmt;

/// An error raised by the query executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A table was built from an empty column set.
    EmptyTable,
    /// A table's columns disagree on the row count.
    ColumnLengthMismatch {
        /// The offending column.
        column: String,
        /// Row count of the first column.
        expected: usize,
        /// Row count of the offending column.
        got: usize,
    },
    /// A table was built with the same column name twice.
    DuplicateColumn {
        /// The repeated name.
        column: String,
    },
    /// The predicate references a column that has no secondary index.
    NoIndex {
        /// The column the predicate named.
        column: String,
    },
    /// A projection (`SUM`, `ORDER BY`) references an unknown column.
    NoColumn {
        /// The column the projection named.
        column: String,
    },
    /// A RID in the input list does not exist in the table.
    RidOutOfRange {
        /// The offending row id.
        rid: u32,
        /// The table's row count.
        n_rows: u32,
    },
    /// A projection does not fit the target core's local store.
    ProjectionTooLarge {
        /// Projected element count.
        elements: usize,
        /// The local store's word capacity.
        cap: usize,
    },
    /// The offloaded kernel failed (including unrecovered machine
    /// faults, surfaced as [`SimError::Fault`]).
    Engine(SimError),
    /// Optimistic concurrency: another writer committed first. Begin a
    /// fresh transaction against the new generation and retry.
    WriteConflict {
        /// Generation the losing transaction began at.
        base_gen: u64,
        /// Generation the store had advanced to.
        current_gen: u64,
    },
    /// The query exceeded its cycle-budget deadline.
    DeadlineExceeded {
        /// The budget, in simulated cycles.
        budget: u64,
    },
    /// The admission queue was full; the query was shed before running.
    /// Retry after backoff — the service is temporarily saturated.
    Overloaded {
        /// Queue depth at the time of shedding.
        queue_depth: usize,
    },
    /// The durable store failed (I/O errors, corruption that recovery
    /// could not route around, validation failures on commit).
    Storage(StorageError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyTable => write!(f, "a table needs at least one column"),
            QueryError::ColumnLengthMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "column '{column}' length mismatch: expected {expected} rows, got {got}"
            ),
            QueryError::DuplicateColumn { column } => {
                write!(f, "column '{column}' is named twice")
            }
            QueryError::NoIndex { column } => write!(f, "no index on column '{column}'"),
            QueryError::NoColumn { column } => write!(f, "no column '{column}'"),
            QueryError::RidOutOfRange { rid, n_rows } => {
                write!(f, "rid {rid} out of range for a table of {n_rows} rows")
            }
            QueryError::ProjectionTooLarge { elements, cap } => {
                write!(
                    f,
                    "{elements} projected values exceed the local store ({cap} words)"
                )
            }
            QueryError::Engine(e) => write!(f, "engine: {e}"),
            QueryError::WriteConflict {
                base_gen,
                current_gen,
            } => write!(
                f,
                "write conflict: began at generation {base_gen}, store is at {current_gen}"
            ),
            QueryError::DeadlineExceeded { budget } => {
                write!(f, "deadline exceeded: budget of {budget} cycles spent")
            }
            QueryError::Overloaded { queue_depth } => {
                write!(f, "overloaded: admission queue full at depth {queue_depth}")
            }
            QueryError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl QueryError {
    /// Whether a client (or the service's own backoff loop) should
    /// retry the query.
    ///
    /// Retryable: transient conditions that a later attempt can clear —
    /// OCC conflicts (`WriteConflict`), saturation (`Overloaded`), and
    /// machine faults from the simulated hardware (soft errors are
    /// transient by definition). Everything else is deterministic: the
    /// same query would fail the same way, so retrying only burns
    /// cycles. Deadline expiry is deliberately fatal — the budget is
    /// the caller's contract, and retrying with the same budget would
    /// exceed it again.
    pub fn is_retryable(&self) -> bool {
        match self {
            QueryError::WriteConflict { .. } | QueryError::Overloaded { .. } => true,
            QueryError::Engine(SimError::Fault(_)) => true,
            QueryError::Storage(e) => e.is_retryable(),
            QueryError::EmptyTable
            | QueryError::ColumnLengthMismatch { .. }
            | QueryError::DuplicateColumn { .. }
            | QueryError::NoIndex { .. }
            | QueryError::NoColumn { .. }
            | QueryError::RidOutOfRange { .. }
            | QueryError::ProjectionTooLarge { .. }
            | QueryError::DeadlineExceeded { .. }
            | QueryError::Engine(_) => false,
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Engine(e) => Some(e),
            QueryError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for QueryError {
    fn from(e: SimError) -> Self {
        QueryError::Engine(e)
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        match e {
            // OCC conflicts keep their first-class identity.
            StorageError::Conflict {
                base_gen,
                current_gen,
            } => QueryError::WriteConflict {
                base_gen,
                current_gen,
            },
            other => QueryError::Storage(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbx_cpu::{FaultCause, MachineFault};

    fn fault() -> SimError {
        SimError::Fault(MachineFault {
            cause: FaultCause::Watchdog { budget: 10 },
            cycle: 10,
            pc: 0,
        })
    }

    #[test]
    fn every_variant_is_classified() {
        // Retryable: transient by nature.
        let retryable = [
            QueryError::WriteConflict {
                base_gen: 1,
                current_gen: 2,
            },
            QueryError::Overloaded { queue_depth: 8 },
            QueryError::Engine(fault()),
            QueryError::Storage(StorageError::Conflict {
                base_gen: 0,
                current_gen: 1,
            }),
        ];
        for e in retryable {
            assert!(e.is_retryable(), "{e} must be retryable");
        }
        // Fatal: deterministic failures retry cannot fix.
        let fatal = [
            QueryError::EmptyTable,
            QueryError::ColumnLengthMismatch {
                column: "c".into(),
                expected: 1,
                got: 2,
            },
            QueryError::DuplicateColumn { column: "c".into() },
            QueryError::NoIndex { column: "c".into() },
            QueryError::NoColumn { column: "c".into() },
            QueryError::RidOutOfRange { rid: 9, n_rows: 3 },
            QueryError::ProjectionTooLarge {
                elements: 10_000,
                cap: 2048,
            },
            QueryError::DeadlineExceeded { budget: 1000 },
            QueryError::Engine(SimError::BadProgram("oops".into())),
            QueryError::Storage(StorageError::Corrupt {
                what: "frame".into(),
            }),
            StorageError::HistoryPruned {
                need_lsn: 1,
                first_lsn: 9,
            }
            .into(),
        ];
        for e in fatal {
            assert!(!e.is_retryable(), "{e} must be fatal");
        }
    }

    #[test]
    fn storage_conflicts_convert_to_write_conflicts() {
        let e: QueryError = StorageError::Conflict {
            base_gen: 3,
            current_gen: 7,
        }
        .into();
        assert_eq!(
            e,
            QueryError::WriteConflict {
                base_gen: 3,
                current_gen: 7
            }
        );
        let e: QueryError = StorageError::UnknownTable { name: "t".into() }.into();
        assert!(matches!(e, QueryError::Storage(_)));
    }
}
