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
//! Snapshots are written to a fresh file and fsynced. Each checkpoint
//! keeps the two newest snapshots and the WAL segments after the older
//! one (see [`crate::store::RETAINED_SNAPSHOTS`]), so a snapshot that
//! turns out torn, bit-flipped, or truncated at recovery time is simply
//! skipped — recovery falls back to the snapshot before it (or, before
//! anything was retired, the empty state plus a full replay). When both
//! retained snapshots are damaged the frames before the older one are
//! gone, and recovery fails with
//! [`StorageError::HistoryPruned`].
//! Validation is strict: bad magic, short body, or a CRC mismatch all
//! disqualify the file.

use crate::crc::crc32;
use crate::disk::Disk;
use crate::record::{self, Cursor, TableImage};
use crate::StorageError;
use std::collections::{BTreeMap, BTreeSet};
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

/// What [`Snapshot::load_latest`] found on a disk.
#[derive(Debug, Clone, Default)]
pub struct LoadedSnapshot {
    /// The newest snapshot that validated, if any.
    pub snapshot: Option<Snapshot>,
    /// Length of that snapshot's file image (0 without one).
    pub image_len: usize,
    /// Damaged files skipped on the way, newest first.
    pub skipped: Vec<String>,
    /// The LSN of every snapshot file on the disk, damaged ones
    /// included: what [`Snapshot::write`] checks before it writes.
    pub on_disk: BTreeSet<u64>,
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
    /// makes it durable. `on_disk` holds the LSNs of the snapshot files
    /// on `disk` (see [`LoadedSnapshot::on_disk`]); a file already there
    /// for this LSN is removed first, and the set gains this LSN. Returns
    /// the length of the image written.
    pub fn write<D: Disk>(
        &self,
        disk: &mut D,
        on_disk: &mut BTreeSet<u64>,
    ) -> Result<usize, StorageError> {
        let name = snapshot_name(self.lsn);
        if on_disk.remove(&self.lsn) {
            disk.remove(&name)?;
        }
        disk.create(&name, dbx_faults::StorageFileClass::Snapshot)?;
        on_disk.insert(self.lsn);
        let image = self.encode();
        disk.append(&name, &image)?;
        disk.fsync(&name)?;
        Ok(image.len())
    }

    /// Loads the newest valid snapshot from `disk`, skipping damaged
    /// files (newest-first), and notes every snapshot file it listed.
    pub fn load_latest<D: Disk>(disk: &D) -> LoadedSnapshot {
        let on_disk: BTreeSet<u64> = disk
            .list()
            .iter()
            .filter_map(|n| parse_snapshot_name(n))
            .collect();
        let mut skipped = Vec::new();
        for &lsn in on_disk.iter().rev() {
            let name = snapshot_name(lsn);
            match disk
                .read(&name)
                .and_then(|b| Snapshot::decode(&b).map(|snap| (snap, b.len())))
            {
                Ok((snap, image_len)) => {
                    return LoadedSnapshot {
                        snapshot: Some(snap),
                        image_len,
                        skipped,
                        on_disk,
                    }
                }
                Err(e) => skipped.push(format!("{name}: {e}")),
            }
        }
        LoadedSnapshot {
            skipped,
            on_disk,
            ..LoadedSnapshot::default()
        }
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
        let mut on_disk = BTreeSet::new();
        sample(5).write(&mut disk, &mut on_disk).unwrap();
        sample(9).write(&mut disk, &mut on_disk).unwrap();
        // Damage the newest one: load must fall back to lsn 5.
        let mut bytes = disk.read(&snapshot_name(9)).unwrap();
        let cut = bytes.len() / 2;
        bytes.truncate(cut);
        disk.set_file(
            &snapshot_name(9),
            dbx_faults::StorageFileClass::Snapshot,
            bytes,
        );
        let loaded = Snapshot::load_latest(&disk);
        assert_eq!(loaded.snapshot.unwrap().lsn, 5);
        assert_eq!(
            loaded.image_len,
            disk.read(&snapshot_name(5)).unwrap().len()
        );
        assert_eq!(loaded.skipped.len(), 1);
        assert!(loaded.skipped[0].starts_with(&snapshot_name(9)));
        assert_eq!(loaded.on_disk, on_disk);
    }

    #[test]
    fn load_latest_empty_disk() {
        let loaded = Snapshot::load_latest(&MemDisk::new());
        assert!(loaded.snapshot.is_none());
        assert!(loaded.skipped.is_empty());
        assert!(loaded.on_disk.is_empty());
    }
}
