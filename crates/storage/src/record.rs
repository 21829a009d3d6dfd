//! The logical log: table operations, LSN-stamped records, and their
//! byte-exact little-endian serialization.
//!
//! Encoding is hand-rolled (the workspace builds offline) and fully
//! deterministic: the same record always serializes to the same bytes on
//! every host, which is what lets the crash campaigns compare WAL images
//! and recovered-state digests across machines. Decoding is defensive —
//! every length is checked against the remaining buffer — because a
//! frame that passed its CRC can still be hostile after a targeted bit
//! flip that happens to collide (or a version-skewed writer).

use crate::StorageError;
use std::sync::Arc;

/// Column-major table payload: `(column name, values)`, in creation
/// order. Used both for full table definitions and row-batch appends.
pub type Columns = Vec<(String, Vec<u32>)>;

/// An immutable table image — the unit the store versions and the
/// snapshot serializes. Query layers wrap it into their own indexed
/// representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableImage {
    /// Table name.
    pub name: String,
    /// Columns, all of equal length.
    pub columns: Columns,
}

impl TableImage {
    /// Row count (0 for a table with no columns).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map(|(_, v)| v.len()).unwrap_or(0)
    }
}

/// One logical operation against the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOp {
    /// Creates a table with the given columns (may carry initial rows).
    Create {
        /// Table name (must not exist).
        name: String,
        /// Column definitions with initial data, all of equal length.
        columns: Columns,
    },
    /// Appends a batch of rows: one value vector per column, covering
    /// *exactly* the table's columns, all of equal length.
    Append {
        /// Table name (must exist).
        name: String,
        /// Per-column values of the new rows.
        rows: Columns,
    },
    /// Drops a table.
    Drop {
        /// Table name (must exist).
        name: String,
    },
}

impl TableOp {
    /// The table the operation touches.
    pub fn table(&self) -> &str {
        match self {
            TableOp::Create { name, .. }
            | TableOp::Append { name, .. }
            | TableOp::Drop { name } => name,
        }
    }
}

/// One WAL record = one committed transaction: a log sequence number
/// plus the full batch of operations. The whole batch shares one frame
/// (and hence one CRC), so a torn write can never surface a partially
/// applied transaction — either the frame is fully durable and the
/// commit replays, or the frame is damaged and the commit vanishes
/// atomically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic log sequence number, one per commit (1-based; 0 means
    /// "before any record" in snapshot headers).
    pub lsn: u64,
    /// The transaction's operations, applied in order.
    pub ops: Vec<TableOp>,
}

// ---- encoding --------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a column list (shared by ops and snapshots).
pub(crate) fn put_columns(out: &mut Vec<u8>, cols: &Columns) {
    put_u32(out, cols.len() as u32);
    for (name, vals) in cols {
        put_str(out, name);
        put_u32(out, vals.len() as u32);
        let at = out.len();
        out.resize(at + 4 * vals.len(), 0);
        for (dst, v) in out[at..].chunks_exact_mut(4).zip(vals) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
}

fn put_op(out: &mut Vec<u8>, op: &TableOp) {
    match op {
        TableOp::Create { name, columns } => {
            out.push(0);
            put_str(out, name);
            put_columns(out, columns);
        }
        TableOp::Append { name, rows } => {
            out.push(1);
            put_str(out, name);
            put_columns(out, rows);
        }
        TableOp::Drop { name } => {
            out.push(2);
            put_str(out, name);
        }
    }
}

fn take_op(cur: &mut Cursor<'_>) -> Result<TableOp, StorageError> {
    let tag = cur.u8()?;
    Ok(match tag {
        0 => TableOp::Create {
            name: cur.string()?,
            columns: cur.columns()?,
        },
        1 => TableOp::Append {
            name: cur.string()?,
            rows: cur.columns()?,
        },
        2 => TableOp::Drop {
            name: cur.string()?,
        },
        t => return Err(StorageError::corrupt(format!("unknown op tag {t}"))),
    })
}

impl WalRecord {
    /// Serializes the record to its canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.lsn);
        put_u32(&mut out, self.ops.len() as u32);
        for op in &self.ops {
            put_op(&mut out, op);
        }
        out
    }

    /// Decodes a record, rejecting trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord, StorageError> {
        let mut cur = Cursor::new(bytes);
        let lsn = cur.u64()?;
        let n = cur.u32()? as usize;
        if n > bytes.len() {
            return Err(StorageError::corrupt(format!("implausible op count {n}")));
        }
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(take_op(&mut cur)?);
        }
        cur.finish()?;
        Ok(WalRecord { lsn, ops })
    }
}

/// Serializes a catalog (sorted table images) — the snapshot body shares
/// this with nothing else, but the digest uses it too, so it lives here.
pub(crate) fn put_tables(
    out: &mut Vec<u8>,
    tables: &std::collections::BTreeMap<String, Arc<TableImage>>,
) {
    put_u32(out, tables.len() as u32);
    for (name, img) in tables {
        put_str(out, name);
        put_columns(out, &img.columns);
    }
}

// ---- decoding --------------------------------------------------------

/// A checked little-endian reader over a byte slice.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.bytes.len() - self.at < n {
            return Err(StorageError::corrupt(format!(
                "record needs {n} more bytes, {} remain",
                self.bytes.len() - self.at
            )));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn string(&mut self) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::corrupt("string is not UTF-8".to_string()))
    }

    pub(crate) fn columns(&mut self) -> Result<Columns, StorageError> {
        let n = self.u32()? as usize;
        // Sanity: each column needs at least 8 header bytes.
        if n > self.bytes.len() / 8 + 1 {
            return Err(StorageError::corrupt(format!(
                "implausible column count {n}"
            )));
        }
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string()?;
            let len = self.u32()? as usize;
            if len > (self.bytes.len() - self.at) / 4 {
                return Err(StorageError::corrupt(format!(
                    "column {name:?} claims {len} values beyond the buffer"
                )));
            }
            let mut vals = Vec::with_capacity(len);
            for _ in 0..len {
                vals.push(self.u32()?);
            }
            cols.push((name, vals));
        }
        Ok(cols)
    }

    pub(crate) fn tables(
        &mut self,
    ) -> Result<std::collections::BTreeMap<String, Arc<TableImage>>, StorageError> {
        let n = self.u32()? as usize;
        if n > self.bytes.len() / 8 + 1 {
            return Err(StorageError::corrupt(format!(
                "implausible table count {n}"
            )));
        }
        let mut tables = std::collections::BTreeMap::new();
        for _ in 0..n {
            let name = self.string()?;
            let columns = self.columns()?;
            tables.insert(name.clone(), Arc::new(TableImage { name, columns }));
        }
        Ok(tables)
    }

    pub(crate) fn finish(self) -> Result<(), StorageError> {
        if self.at != self.bytes.len() {
            return Err(StorageError::corrupt(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<TableOp> {
        vec![
            TableOp::Create {
                name: "items".into(),
                columns: vec![
                    ("color".into(), vec![1, 2, 3]),
                    ("size".into(), vec![9, 8, 7]),
                ],
            },
            TableOp::Append {
                name: "items".into(),
                rows: vec![("color".into(), vec![4]), ("size".into(), vec![6])],
            },
            TableOp::Drop {
                name: "items".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        // Single-op and whole-batch records both survive the trip.
        for (i, op) in sample_ops().into_iter().enumerate() {
            let rec = WalRecord {
                lsn: i as u64 + 1,
                ops: vec![op],
            };
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
        }
        let batch = WalRecord {
            lsn: 4,
            ops: sample_ops(),
        };
        assert_eq!(WalRecord::decode(&batch.encode()).unwrap(), batch);
    }

    #[test]
    fn decode_rejects_truncation_anywhere() {
        let rec = WalRecord {
            lsn: 42,
            ops: sample_ops(),
        };
        let bytes = rec.encode();
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::decode(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let rec = WalRecord {
            lsn: 1,
            ops: vec![TableOp::Drop { name: "t".into() }],
        };
        let mut bytes = rec.encode();
        bytes.push(0xFF);
        assert!(WalRecord::decode(&bytes).is_err());
        let mut bad = rec.encode();
        bad[12] = 9; // first op's tag (after lsn + op count)
        assert!(WalRecord::decode(&bad).is_err());
    }

    #[test]
    fn implausible_lengths_do_not_allocate() {
        // A claimed 4-billion-value column must fail fast, not OOM.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, 1); // one op
        bytes.push(0); // Create
        put_str(&mut bytes, "t");
        put_u32(&mut bytes, 1); // one column
        put_str(&mut bytes, "c");
        put_u32(&mut bytes, u32::MAX); // value count
        assert!(WalRecord::decode(&bytes).is_err());
    }

    #[test]
    fn table_image_rows() {
        let img = TableImage {
            name: "t".into(),
            columns: vec![("a".into(), vec![1, 2])],
        };
        assert_eq!(img.n_rows(), 2);
        assert_eq!(
            TableImage {
                name: "e".into(),
                columns: vec![]
            }
            .n_rows(),
            0
        );
    }
}
