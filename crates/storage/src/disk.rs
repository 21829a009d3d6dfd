//! The storage backends: a deterministic in-memory disk with an explicit
//! durability model (what the chaos campaigns run on) and a plain
//! filesystem backend.
//!
//! The core idea of [`MemDisk`] is that every file has **two** byte
//! images: `data`, the page-cache view that reads and writes touch, and
//! the durable image that survives [`MemDisk::crash`]. Only
//! [`Disk::fsync`] moves the durable image forward — exactly the
//! contract a real OS gives a write-ahead log. Every operation keeps the
//! durable image a prefix of `data`, so it is stored as a length and a
//! fsync copies nothing. Storage faults from [`dbx_faults::storage`] are
//! applied at the I/O boundary: a torn write clips the buffer, a bit
//! flip corrupts it in transit, a dropped fsync reports success without
//! durabilizing, a truncation cuts the durable image. Because faults are
//! consumed by (file class, I/O index), the same plan against the same
//! operation sequence always corrupts the same bytes on every host.

use crate::StorageError;
use dbx_faults::{StorageFaultKind, StorageFaultPlan, StorageFileClass};
use std::collections::BTreeMap;

/// A minimal append-oriented file store, sufficient for WAL segments and
/// snapshot images.
pub trait Disk {
    /// Creates an empty file of the given class (truncates an existing
    /// one). Metadata is durable immediately (journaled directory).
    fn create(&mut self, name: &str, class: StorageFileClass) -> Result<(), StorageError>;
    /// Appends bytes to a file.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError>;
    /// Cuts a file to `len` bytes (used by recovery to drop a corrupt
    /// WAL tail). Durable immediately.
    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StorageError>;
    /// Makes a file's current contents durable.
    fn fsync(&mut self, name: &str) -> Result<(), StorageError>;
    /// Removes a file. Durable immediately.
    fn remove(&mut self, name: &str) -> Result<(), StorageError>;
    /// Reads a whole file.
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError>;
    /// All file names, sorted (so directory iteration is deterministic).
    fn list(&self) -> Vec<String>;
    /// Whether the file exists. The default lists every file on the
    /// disk; it exists only so thin wrappers need not forward it, and
    /// every backend of this crate answers with one lookup.
    fn exists(&self, name: &str) -> bool {
        self.list().iter().any(|n| n == name)
    }
}

/// A borrowed disk is a disk: a store opened over `&mut disk` leaves
/// the disk with its owner, who can inspect it after a failed open.
impl<D: Disk + ?Sized> Disk for &mut D {
    fn create(&mut self, name: &str, class: StorageFileClass) -> Result<(), StorageError> {
        (**self).create(name, class)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        (**self).append(name, data)
    }
    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StorageError> {
        (**self).truncate(name, len)
    }
    fn fsync(&mut self, name: &str) -> Result<(), StorageError> {
        (**self).fsync(name)
    }
    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        (**self).remove(name)
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        (**self).read(name)
    }
    fn list(&self) -> Vec<String> {
        (**self).list()
    }
    fn exists(&self, name: &str) -> bool {
        (**self).exists(name)
    }
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    class: Option<StorageFileClass>,
    /// The page-cache view: what reads see.
    data: Vec<u8>,
    /// Length of the image that survives a crash, `data[..durable]`:
    /// advanced only by fsync, cut by truncation. Every operation keeps
    /// the durable image a prefix of `data`.
    durable: usize,
}

/// The deterministic in-memory disk.
///
/// Beyond the [`Disk`] trait it exposes the chaos-testing surface:
/// [`MemDisk::set_fault_plan`], [`MemDisk::crash`], and raw access to
/// durable images so campaigns can re-create "the machine died k bytes
/// into the log" states byte-exactly.
#[derive(Debug, Clone, Default)]
pub struct MemDisk {
    files: BTreeMap<String, MemFile>,
    plan: StorageFaultPlan,
    /// One I/O counter per file class (writes and fsyncs both count).
    wal_ios: u64,
    snap_ios: u64,
    /// Human-readable descriptions of every fault actually applied.
    injected: Vec<String>,
}

impl MemDisk {
    /// A fresh, empty disk with no fault plan.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Installs a storage fault plan; events are consumed as the
    /// per-class I/O counters pass them. Counters are *not* reset — set
    /// the plan before the workload for reproducible indexing.
    pub fn set_fault_plan(&mut self, plan: StorageFaultPlan) {
        self.plan = plan;
    }

    /// Descriptions of the fault events applied so far, in order.
    pub fn injected(&self) -> &[String] {
        &self.injected
    }

    /// Simulates power loss: every file's cache view is reset to its
    /// durable image. Files never fsynced come back empty.
    pub fn crash(&mut self) {
        for f in self.files.values_mut() {
            f.data.truncate(f.durable);
        }
    }

    /// The durable image of a file (what a crash would leave behind).
    pub fn durable_image(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|f| &f.data[..f.durable])
    }

    /// Overwrites both images of a file — campaigns use this to build
    /// precise post-crash states (e.g. "WAL durable up to byte k").
    pub fn set_file(&mut self, name: &str, class: StorageFileClass, bytes: Vec<u8>) {
        self.files.insert(
            name.to_string(),
            MemFile {
                class: Some(class),
                durable: bytes.len(),
                data: bytes,
            },
        );
    }

    fn class_counter(&mut self, class: StorageFileClass) -> u64 {
        let c = match class {
            StorageFileClass::Wal => &mut self.wal_ios,
            StorageFileClass::Snapshot => &mut self.snap_ios,
        };
        let idx = *c;
        *c += 1;
        idx
    }

    fn file_mut(&mut self, name: &str) -> Result<&mut MemFile, StorageError> {
        self.files.get_mut(name).ok_or_else(|| StorageError::Io {
            op: "open".into(),
            file: name.into(),
            detail: "no such file".into(),
        })
    }
}

impl Disk for MemDisk {
    fn create(&mut self, name: &str, class: StorageFileClass) -> Result<(), StorageError> {
        self.files.insert(
            name.to_string(),
            MemFile {
                class: Some(class),
                ..MemFile::default()
            },
        );
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let class = self.file_mut(name)?.class;
        let due = class.and_then(|class| {
            let idx = self.class_counter(class);
            self.plan.take_due(class, idx)
        });
        let Some(ev) = due else {
            self.file_mut(name)?.data.extend_from_slice(data);
            return Ok(());
        };
        self.injected.push(ev.describe());
        let mut buf = data.to_vec();
        match ev.kind {
            StorageFaultKind::TornWrite { keep_bytes } => {
                buf.truncate(keep_bytes.min(buf.len()));
            }
            StorageFaultKind::BitFlip { byte, bit } => {
                if !buf.is_empty() {
                    let at = byte % buf.len();
                    buf[at] ^= 1 << (bit % 8);
                }
            }
            // Fsync-shaped events on a write index do nothing to the
            // buffer; they were mis-aimed by a seeded plan.
            StorageFaultKind::DroppedFsync | StorageFaultKind::Truncate { .. } => {}
        }
        self.file_mut(name)?.data.extend_from_slice(&buf);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StorageError> {
        let f = self.file_mut(name)?;
        f.data.truncate(len);
        f.durable = f.durable.min(len);
        Ok(())
    }

    fn fsync(&mut self, name: &str) -> Result<(), StorageError> {
        let class = self.file_mut(name)?.class;
        if let Some(class) = class {
            let idx = self.class_counter(class);
            if let Some(ev) = self.plan.take_due(class, idx) {
                self.injected.push(ev.describe());
                match ev.kind {
                    StorageFaultKind::DroppedFsync => return Ok(()), // lies
                    StorageFaultKind::Truncate { keep_bytes } => {
                        let f = self.file_mut(name)?;
                        f.durable = keep_bytes.min(f.data.len());
                        return Ok(());
                    }
                    // Write-shaped events on an fsync index: no effect.
                    StorageFaultKind::TornWrite { .. } | StorageFaultKind::BitFlip { .. } => {}
                }
            }
        }
        let f = self.file_mut(name)?;
        f.durable = f.data.len();
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        match self.files.remove(name) {
            Some(_) => Ok(()),
            None => Err(StorageError::Io {
                op: "remove".into(),
                file: name.into(),
                detail: "no such file".into(),
            }),
        }
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| StorageError::Io {
                op: "read".into(),
                file: name.into(),
                detail: "no such file".into(),
            })
    }

    fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }
}

/// A plain filesystem backend rooted at a directory. No fault injection
/// and no simulated crashes — this is the backend a long-lived service
/// actually persists with; the campaigns use [`MemDisk`].
#[derive(Debug)]
pub struct DirDisk {
    root: std::path::PathBuf,
}

impl DirDisk {
    /// Opens (creating if needed) a directory-backed disk.
    pub fn open(root: impl Into<std::path::PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StorageError::Io {
            op: "mkdir".into(),
            file: root.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(DirDisk { root })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }

    fn io_err(op: &str, name: &str, e: std::io::Error) -> StorageError {
        StorageError::Io {
            op: op.into(),
            file: name.into(),
            detail: e.to_string(),
        }
    }
}

impl Disk for DirDisk {
    fn create(&mut self, name: &str, _class: StorageFileClass) -> Result<(), StorageError> {
        std::fs::write(self.path(name), []).map_err(|e| Self::io_err("create", name, e))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))
            .map_err(|e| Self::io_err("open", name, e))?;
        f.write_all(data)
            .map_err(|e| Self::io_err("append", name, e))
    }

    fn truncate(&mut self, name: &str, len: usize) -> Result<(), StorageError> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| Self::io_err("open", name, e))?;
        f.set_len(len as u64)
            .map_err(|e| Self::io_err("truncate", name, e))?;
        f.sync_all().map_err(|e| Self::io_err("fsync", name, e))
    }

    fn fsync(&mut self, name: &str) -> Result<(), StorageError> {
        let f = std::fs::File::open(self.path(name)).map_err(|e| Self::io_err("open", name, e))?;
        f.sync_all().map_err(|e| Self::io_err("fsync", name, e))
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        std::fs::remove_file(self.path(name)).map_err(|e| Self::io_err("remove", name, e))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        std::fs::read(self.path(name)).map_err(|e| Self::io_err("read", name, e))
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).is_file()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_writes_die_in_a_crash() {
        let mut d = MemDisk::new();
        d.create("wal-1", StorageFileClass::Wal).unwrap();
        d.append("wal-1", b"durable").unwrap();
        d.fsync("wal-1").unwrap();
        d.append("wal-1", b" volatile").unwrap();
        assert_eq!(d.read("wal-1").unwrap(), b"durable volatile");
        d.crash();
        assert_eq!(d.read("wal-1").unwrap(), b"durable");
    }

    #[test]
    fn torn_write_clips_the_buffer() {
        let mut d = MemDisk::new();
        d.set_fault_plan(StorageFaultPlan::new().with_torn_wal_write(0, 3));
        d.create("wal-1", StorageFileClass::Wal).unwrap();
        d.append("wal-1", b"0123456789").unwrap();
        assert_eq!(d.read("wal-1").unwrap(), b"012");
        assert_eq!(d.injected().len(), 1);
    }

    #[test]
    fn bit_flip_corrupts_in_transit() {
        let mut d = MemDisk::new();
        d.set_fault_plan(StorageFaultPlan::new().with_wal_bit_flip(0, 1, 0));
        d.create("wal-1", StorageFileClass::Wal).unwrap();
        d.append("wal-1", &[0x00, 0x00, 0x00]).unwrap();
        assert_eq!(d.read("wal-1").unwrap(), vec![0x00, 0x01, 0x00]);
    }

    #[test]
    fn dropped_fsync_lies_about_durability() {
        let mut d = MemDisk::new();
        // I/O index 1 is the fsync (index 0 is the append).
        d.set_fault_plan(StorageFaultPlan::new().with_dropped_wal_fsync(1));
        d.create("wal-1", StorageFileClass::Wal).unwrap();
        d.append("wal-1", b"lost").unwrap();
        d.fsync("wal-1").unwrap(); // reports success…
        d.crash();
        assert_eq!(d.read("wal-1").unwrap(), b""); // …but durabilized nothing
    }

    #[test]
    fn snapshot_truncation_cuts_the_durable_image() {
        let mut d = MemDisk::new();
        d.set_fault_plan(StorageFaultPlan::new().with_truncated_snapshot(1, 4));
        d.create("snap-1", StorageFileClass::Snapshot).unwrap();
        d.append("snap-1", b"snapshot-bytes").unwrap();
        d.fsync("snap-1").unwrap();
        d.crash();
        assert_eq!(d.read("snap-1").unwrap(), b"snap");
    }

    #[test]
    fn class_counters_are_independent() {
        let mut d = MemDisk::new();
        d.set_fault_plan(StorageFaultPlan::new().with_torn_wal_write(1, 0));
        d.create("wal-1", StorageFileClass::Wal).unwrap();
        d.create("snap-1", StorageFileClass::Snapshot).unwrap();
        d.append("snap-1", b"unharmed").unwrap(); // snapshot io 0
        d.append("wal-1", b"first").unwrap(); // wal io 0
        d.append("wal-1", b"second").unwrap(); // wal io 1 → torn to 0 bytes
        assert_eq!(d.read("wal-1").unwrap(), b"first");
        assert_eq!(d.read("snap-1").unwrap(), b"unharmed");
    }

    /// Durable images under the full-copy fsync rule (`durable =
    /// data.clone()`), consuming the same fault plan by the same
    /// per-class I/O counters as [`MemDisk`].
    struct FullCopyModel {
        durable: BTreeMap<String, Vec<u8>>,
        plan: StorageFaultPlan,
        ios: [u64; 2],
    }

    impl FullCopyModel {
        fn io(&mut self, class: StorageFileClass) -> Option<StorageFaultKind> {
            let c = &mut self.ios[class as usize];
            let idx = *c;
            *c += 1;
            self.plan.take_due(class, idx).map(|ev| ev.kind)
        }

        fn fsync(&mut self, name: &str, class: StorageFileClass, data: &[u8]) {
            let fault = self.io(class);
            let durable = self.durable.get_mut(name).unwrap();
            match fault {
                Some(StorageFaultKind::DroppedFsync) => {}
                Some(StorageFaultKind::Truncate { keep_bytes }) => {
                    *durable = data[..keep_bytes.min(data.len())].to_vec();
                }
                _ => *durable = data.to_vec(),
            }
        }
    }

    #[test]
    fn delta_fsync_matches_the_full_copy_model() {
        use dbx_faults::XorShift64;
        const FILES: [(&str, StorageFileClass); 3] = [
            ("wal-1", StorageFileClass::Wal),
            ("wal-2", StorageFileClass::Wal),
            ("snap-1", StorageFileClass::Snapshot),
        ];
        for seed in [1u64, 7, 42] {
            let plan = StorageFaultPlan::seeded(seed, 96, 600, 48);
            let mut d = MemDisk::new();
            d.set_fault_plan(plan.clone());
            let mut model = FullCopyModel {
                durable: BTreeMap::new(),
                plan,
                ios: [0; 2],
            };
            for (name, class) in FILES {
                d.create(name, class).unwrap();
                model.durable.insert(name.to_string(), Vec::new());
            }
            let mut rng = XorShift64::new(seed);
            for step in 0..1500 {
                let (name, class) = FILES[rng.below(3) as usize];
                match rng.below(16) {
                    0..=6 => {
                        let len = rng.below(40) as usize;
                        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                        d.append(name, &bytes).unwrap();
                        model.io(class);
                    }
                    7..=11 => {
                        d.fsync(name).unwrap();
                        model.fsync(name, class, &d.read(name).unwrap());
                        assert_eq!(
                            d.durable_image(name).unwrap(),
                            model.durable[name].as_slice(),
                            "seed {seed} step {step}: fsync of {name}"
                        );
                    }
                    12 => {
                        let len = d.read(name).unwrap().len();
                        let keep = rng.below(len as u64 + 1) as usize;
                        d.truncate(name, keep).unwrap();
                        model.durable.get_mut(name).unwrap().truncate(keep);
                    }
                    13 => d.crash(),
                    14 => {
                        let len = rng.below(24) as usize;
                        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                        d.set_file(name, class, bytes.clone());
                        model.durable.insert(name.to_string(), bytes);
                    }
                    _ => {
                        d.create(name, class).unwrap();
                        model.durable.insert(name.to_string(), Vec::new());
                    }
                }
                for (name, _) in FILES {
                    let durable = d.durable_image(name).unwrap();
                    assert_eq!(durable, model.durable[name].as_slice(), "seed {seed}");
                    assert!(d.read(name).unwrap().starts_with(durable));
                }
            }
            // The seeded plans strike with every fault kind.
            for kind in ["torn write", "flip", "dropped fsync", "truncate"] {
                assert!(
                    d.injected().iter().any(|e| e.contains(kind)),
                    "seed {seed} never applied a {kind}"
                );
            }
        }
    }

    #[test]
    fn dirdisk_round_trips_through_the_filesystem() {
        let root = std::env::temp_dir().join(format!("dbx-storage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut d = DirDisk::open(&root).unwrap();
        d.create("wal-1", StorageFileClass::Wal).unwrap();
        d.append("wal-1", b"hello ").unwrap();
        d.append("wal-1", b"disk").unwrap();
        d.fsync("wal-1").unwrap();
        assert_eq!(d.read("wal-1").unwrap(), b"hello disk");
        assert_eq!(d.list(), vec!["wal-1".to_string()]);
        d.truncate("wal-1", 5).unwrap();
        assert_eq!(d.read("wal-1").unwrap(), b"hello");
        d.remove("wal-1").unwrap();
        assert!(!d.exists("wal-1"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn removing_a_missing_file_is_an_error_on_both_backends() {
        let root = std::env::temp_dir().join(format!("dbx-storage-remove-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut dir = DirDisk::open(&root).unwrap();
        let mut mem = MemDisk::new();
        let disks: [&mut dyn Disk; 2] = [&mut dir, &mut mem];
        for d in disks {
            d.create("wal-1", StorageFileClass::Wal).unwrap();
            d.remove("wal-1").unwrap();
            match d.remove("wal-1") {
                Err(StorageError::Io { op, file, .. }) => {
                    assert_eq!((op.as_str(), file.as_str()), ("remove", "wal-1"));
                }
                other => panic!("expected an Io error, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
