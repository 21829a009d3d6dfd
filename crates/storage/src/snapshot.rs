//! Periodic table snapshots: a checkpoint of the full catalog at a
//! known LSN, so recovery replays a WAL suffix instead of the whole
//! history.
//!
//! File layout (all little-endian):
//!
//! ```text
//! | magic "DBXSNAP1": 8 bytes | body_len: u32 | crc32(body): u32 | body |
//! ```
//!
//! where `body = lsn: u64 | n_tables: u32 | tables…` (see
//! [`crate::record`] for the table wire form). Files are named
//! `snap-<lsn>.img` with a 16-digit zero-padded LSN so lexicographic
//! order is LSN order.
//!
//! Snapshots are written to a fresh file and fsynced; the WAL is never
//! pruned, so a snapshot that turns out torn, bit-flipped, or
//! truncated at recovery time is simply skipped — recovery falls back
//! to the next-older valid snapshot, or the empty state plus a full
//! replay. Validation is strict: bad magic, short body, or a CRC
//! mismatch all disqualify the file.

use crate::crc::crc32;
use crate::disk::Disk;
use crate::record::{self, Cursor, TableImage};
use crate::StorageError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Snapshot file magic.
pub const MAGIC: &[u8; 8] = b"DBXSNAP1";

/// Snapshot file name for an LSN.
pub fn snapshot_name(lsn: u64) -> String {
    format!("snap-{lsn:016}.img")
}

/// Parses an LSN out of a snapshot file name.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".img")?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// A decoded, validated snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Every record with `lsn <= this` is reflected in `tables`.
    pub lsn: u64,
    /// The full catalog at `lsn`.
    pub tables: BTreeMap<String, Arc<TableImage>>,
}

impl Snapshot {
    /// Serializes to the on-disk file image. The body is encoded in
    /// place after a 16-byte header whose length and CRC are filled in
    /// last, so the image is built without a second copy.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&self.lsn.to_le_bytes());
        record::put_tables(&mut out, &self.tables);
        let body_len = out.len() - 16;
        let crc = crc32(&out[16..]);
        out[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
        out[12..16].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and validates a file image. Any damage — bad magic,
    /// short header, truncated body, CRC mismatch, undecodable body —
    /// is an error; the caller treats the file as if it did not exist.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, StorageError> {
        if bytes.len() < 16 {
            return Err(StorageError::corrupt(format!(
                "snapshot header needs 16 bytes, file has {}",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(StorageError::corrupt("snapshot magic mismatch".to_string()));
        }
        let body_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if bytes.len() - 16 < body_len {
            return Err(StorageError::corrupt(format!(
                "snapshot body truncated: claims {body_len} bytes, {} present",
                bytes.len() - 16
            )));
        }
        let body = &bytes[16..16 + body_len];
        if crc32(body) != want_crc {
            return Err(StorageError::corrupt(
                "snapshot body crc mismatch".to_string(),
            ));
        }
        let mut cur = Cursor::new(body);
        let lsn = cur.u64()?;
        let tables = cur.tables()?;
        cur.finish()?;
        Ok(Snapshot { lsn, tables })
    }

    /// Writes the snapshot to `disk` as [`snapshot_name`]`(lsn)` and
    /// makes it durable. Returns the length of the image written.
    pub fn write<D: Disk>(&self, disk: &mut D) -> Result<usize, StorageError> {
        let name = snapshot_name(self.lsn);
        if disk.exists(&name) {
            disk.remove(&name)?;
        }
        disk.create(&name, dbx_faults::StorageFileClass::Snapshot)?;
        let image = self.encode();
        disk.append(&name, &image)?;
        disk.fsync(&name)?;
        Ok(image.len())
    }

    /// Loads the newest valid snapshot from `disk`, skipping damaged
    /// files (newest-first). Returns the snapshot plus the names of
    /// files it had to skip.
    pub fn load_latest<D: Disk>(disk: &D) -> (Option<Snapshot>, Vec<String>) {
        let mut names: Vec<(u64, String)> = disk
            .list()
            .into_iter()
            .filter_map(|n| parse_snapshot_name(&n).map(|l| (l, n)))
            .collect();
        names.sort();
        let mut skipped = Vec::new();
        for (_, name) in names.into_iter().rev() {
            match disk.read(&name).and_then(|b| Snapshot::decode(&b)) {
                Ok(snap) => return (Some(snap), skipped),
                Err(e) => skipped.push(format!("{name}: {e}")),
            }
        }
        (None, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn sample(lsn: u64) -> Snapshot {
        let mut tables = BTreeMap::new();
        tables.insert(
            "items".to_string(),
            Arc::new(TableImage {
                name: "items".into(),
                columns: vec![("color".into(), vec![1, 2, 3])],
            }),
        );
        Snapshot { lsn, tables }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(snapshot_name(7), "snap-0000000000000007.img");
        assert_eq!(parse_snapshot_name("snap-0000000000000007.img"), Some(7));
        assert_eq!(parse_snapshot_name("wal-00000001.seg"), None);
        assert_eq!(parse_snapshot_name("snap-7.img"), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample(12);
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample(3).encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let clean = sample(3).encode();
        for byte in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[byte] ^= 0x01;
            assert!(
                Snapshot::decode(&damaged).is_err(),
                "accepted a flip at byte {byte}"
            );
        }
    }

    #[test]
    fn load_latest_skips_damaged_files() {
        let mut disk = MemDisk::new();
        sample(5).write(&mut disk).unwrap();
        sample(9).write(&mut disk).unwrap();
        // Damage the newest one: load must fall back to lsn 5.
        let mut bytes = disk.read(&snapshot_name(9)).unwrap();
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        disk.set_file(
            &snapshot_name(9),
            dbx_faults::StorageFileClass::Snapshot,
            bytes,
        );
        let (snap, skipped) = Snapshot::load_latest(&disk);
        assert_eq!(snap.unwrap().lsn, 5);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].starts_with(&snapshot_name(9)));
    }

    #[test]
    fn load_latest_empty_disk() {
        let (snap, skipped) = Snapshot::load_latest(&MemDisk::new());
        assert!(snap.is_none());
        assert!(skipped.is_empty());
    }
}
