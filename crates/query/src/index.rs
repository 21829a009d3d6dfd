//! Tables and secondary indexes producing sorted RID lists.
//!
//! A table only ever grows by appending rows, and RIDs are row
//! positions, so a new row's RID is larger than every RID already
//! indexed: appending rows extends each posting list with a sorted
//! tail. Building a table is appending its rows to an empty one, so
//! there is a single index path.

use crate::error::QueryError;
use std::collections::BTreeMap;

/// A secondary index: column value → sorted list of row ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecondaryIndex {
    postings: BTreeMap<u32, Vec<u32>>,
}

impl SecondaryIndex {
    /// Builds the index over a column (row id = position).
    pub fn build(column: &[u32]) -> Self {
        let mut ix = SecondaryIndex::default();
        ix.append(0, column);
        ix
    }

    /// Indexes rows `first_rid..first_rid + values.len()`. Every RID
    /// already indexed must be below `first_rid`, so each posting list
    /// grows by a sorted tail.
    fn append(&mut self, first_rid: u32, values: &[u32]) {
        // One sort of (value, rid) keys, then one map probe per distinct
        // value instead of one per row.
        let mut keys: Vec<u64> = values
            .iter()
            .zip(first_rid..)
            .map(|(&v, rid)| (u64::from(v) << 32) | u64::from(rid))
            .collect();
        sort_by_value(&mut keys);
        for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            self.postings
                .entry((run[0] >> 32) as u32)
                .or_default()
                .extend(run.iter().map(|&k| k as u32));
        }
    }

    /// The sorted RID list for one key (empty when absent).
    pub fn lookup(&self, value: u32) -> &[u32] {
        self.postings.get(&value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The posting lists for an inclusive key range, in key order. Each
    /// list is sorted; lists for different keys are *not* mutually sorted
    /// — the executor merges them (with the ASIP's union instruction).
    pub fn range(&self, lo: u32, hi: u32) -> Vec<&[u32]> {
        self.postings
            .range(lo..=hi)
            .map(|(_, v)| v.as_slice())
            .collect()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.postings.len()
    }
}

/// Sorts `value << 32 | rid` keys given in RID order by value, keeping
/// each value's keys in RID order: a stable LSD radix sort over only the
/// value bytes that differ between keys (one pass for values below 256).
fn sort_by_value(keys: &mut Vec<u64>) {
    let (any, all) = keys
        .iter()
        .fold((0, u64::MAX), |(any, all), &k| (any | k, all & k));
    let varying = (any ^ all) >> 32;
    let mut out = vec![0u64; keys.len()];
    for shift in [0, 8, 16, 24] {
        if (varying >> shift) & 0xFF == 0 {
            continue;
        }
        let digit = |k: u64| ((k >> (32 + shift)) & 0xFF) as usize;
        let mut start = [0usize; 256];
        for &k in keys.iter() {
            start[digit(k)] += 1;
        }
        let mut sum = 0;
        for s in &mut start {
            let count = *s;
            *s = sum;
            sum += count;
        }
        for &k in keys.iter() {
            let d = digit(k);
            out[start[d]] = k;
            start[d] += 1;
        }
        std::mem::swap(keys, &mut out);
    }
}

/// One column's values and the index over them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Column {
    values: Vec<u32>,
    index: SecondaryIndex,
}

/// An in-memory table with secondary indexes on every provided column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table name (reports only).
    pub name: String,
    /// Row count.
    pub n_rows: u32,
    columns: BTreeMap<String, Column>,
}

impl Table {
    /// Builds a table from named columns (all must have equal length).
    ///
    /// # Panics
    /// Panics on empty column sets, repeated names or mismatched
    /// lengths; loading user-supplied data should go through
    /// [`Table::try_build`].
    pub fn build(name: &str, columns: &[(&str, Vec<u32>)]) -> Self {
        match Self::try_build(name, columns) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Table::build`]: reports empty column sets, repeated
    /// column names and length mismatches as typed [`QueryError`]s
    /// instead of panicking.
    pub fn try_build(name: &str, columns: &[(&str, Vec<u32>)]) -> Result<Self, QueryError> {
        let columns: Vec<(&str, &[u32])> =
            columns.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        Self::from_slices(name, &columns)
    }

    /// [`Table::try_build`] over borrowed columns: copies each column
    /// once, into the table.
    pub(crate) fn from_slices(name: &str, columns: &[(&str, &[u32])]) -> Result<Self, QueryError> {
        let Some(&(_, first)) = columns.first() else {
            return Err(QueryError::EmptyTable);
        };
        let mut table = Table {
            name: name.to_string(),
            n_rows: 0,
            columns: BTreeMap::new(),
        };
        for &(cname, data) in columns {
            if data.len() != first.len() {
                return Err(QueryError::ColumnLengthMismatch {
                    column: cname.to_string(),
                    expected: first.len(),
                    got: data.len(),
                });
            }
            let empty = Column {
                values: Vec::with_capacity(data.len()),
                index: SecondaryIndex::default(),
            };
            if table.columns.insert(cname.to_string(), empty).is_some() {
                return Err(QueryError::DuplicateColumn {
                    column: cname.to_string(),
                });
            }
        }
        table.extend_to(columns);
        Ok(table)
    }

    /// Whether `columns` is this table with zero or more rows appended:
    /// the same column names, each once, and each of this table's
    /// columns a prefix of the new one. Then [`Table::extend_to`] brings
    /// the table up to `columns`.
    pub(crate) fn is_prefix_of(&self, columns: &[(&str, &[u32])]) -> bool {
        // Every one of the table's distinct names found in a list of the
        // same length means that list names each column exactly once.
        columns.len() == self.columns.len()
            && self.columns.iter().all(|(cname, c)| {
                columns
                    .iter()
                    .any(|&(n, data)| n == cname && data.starts_with(&c.values))
            })
    }

    /// Appends the rows of `columns` past this table's row count, to
    /// the columns and to every index. The caller guarantees
    /// [`Table::is_prefix_of`]`(columns)`.
    pub(crate) fn extend_to(&mut self, columns: &[(&str, &[u32])]) {
        debug_assert!(self.is_prefix_of(columns));
        let first_rid = self.n_rows;
        for &(cname, data) in columns {
            let column = self.columns.get_mut(cname).expect("a known column");
            let tail = &data[first_rid as usize..];
            column.values.extend_from_slice(tail);
            column.index.append(first_rid, tail);
        }
        self.n_rows = columns.first().map_or(0, |(_, data)| data.len() as u32);
    }

    /// The index for a column.
    pub fn index(&self, column: &str) -> Option<&SecondaryIndex> {
        self.columns.get(column).map(|c| &c.index)
    }

    /// Raw column data.
    pub fn column(&self, column: &str) -> Option<&[u32]> {
        self.columns.get(column).map(|c| c.values.as_slice())
    }

    /// Column names.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_builds_sorted_postings() {
        let ix = SecondaryIndex::build(&[5, 3, 5, 5, 3]);
        assert_eq!(ix.lookup(5), &[0, 2, 3]);
        assert_eq!(ix.lookup(3), &[1, 4]);
        assert_eq!(ix.lookup(9), &[] as &[u32]);
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn the_radix_sort_orders_like_a_comparison_sort() {
        let mut x = 0x2545_F491u32;
        for (n, mask) in [(0, !0), (1, !0), (300, 0xFF), (300, 0xF0F0), (2048, !0)] {
            let mut keys: Vec<u64> = (0..n as u64)
                .map(|rid| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (u64::from(x & mask) << 32) | rid
                })
                .collect();
            let mut want = keys.clone();
            want.sort_unstable();
            sort_by_value(&mut keys);
            assert_eq!(keys, want, "{n} keys under mask {mask:#x}");
        }
    }

    #[test]
    fn range_returns_lists_in_key_order() {
        let ix = SecondaryIndex::build(&[10, 20, 30, 20, 10]);
        let lists = ix.range(10, 20);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0], &[0, 4]);
        assert_eq!(lists[1], &[1, 3]);
        assert!(ix.range(40, 50).is_empty());
    }

    #[test]
    fn table_wires_columns_and_indexes() {
        let t = Table::build("t", &[("a", vec![1, 2, 1]), ("b", vec![7, 7, 8])]);
        assert_eq!(t.n_rows, 3);
        assert_eq!(t.index("a").unwrap().lookup(1), &[0, 2]);
        assert_eq!(t.column("b").unwrap(), &[7, 7, 8]);
        assert!(t.index("missing").is_none());
        assert_eq!(t.column_names().count(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        Table::build("t", &[("a", vec![1]), ("b", vec![1, 2])]);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let e = Table::try_build("t", &[]).unwrap_err();
        assert_eq!(e, QueryError::EmptyTable);
        let e = Table::try_build("t", &[("a", vec![1]), ("b", vec![1, 2])]).unwrap_err();
        assert_eq!(
            e,
            QueryError::ColumnLengthMismatch {
                column: "b".to_string(),
                expected: 1,
                got: 2
            }
        );
        assert!(Table::try_build("t", &[("a", vec![1, 2])]).is_ok());
        // A repeated name would leave one of the two columns unindexed.
        let e = Table::try_build("t", &[("a", vec![1, 2, 1]), ("a", vec![2, 2, 2])]).unwrap_err();
        assert_eq!(
            e,
            QueryError::DuplicateColumn {
                column: "a".to_string()
            }
        );
    }

    #[test]
    fn extending_equals_building_the_longer_table() {
        let a = [5u32, 3, 5, 9, 3, 5, 1, 9];
        let b = [1u32, 1, 2, 2, 1, 1, 2, 2];
        let cols = |n: usize| [("a", &a[..n]), ("b", &b[..n])];
        for split in 0..=a.len() {
            let mut t = Table::from_slices("t", &cols(split)).unwrap();
            let full = cols(a.len());
            assert!(t.is_prefix_of(&full));
            t.extend_to(&full);
            assert_eq!(t, Table::from_slices("t", &full).unwrap(), "split {split}");
        }
        let t = Table::from_slices("t", &cols(4)).unwrap();
        // Fewer rows, a changed row, other column names: not a prefix.
        assert!(!t.is_prefix_of(&cols(3)));
        assert!(!t.is_prefix_of(&[("a", &[5, 3, 5, 8, 0][..]), ("b", &b[..5])]));
        assert!(!t.is_prefix_of(&[("a", &a[..5])]));
        assert!(!t.is_prefix_of(&[("a", &a[..5]), ("c", &b[..5])]));
        assert!(!t.is_prefix_of(&[("a", &a[..5]), ("a", &a[..5])]));
    }
}
