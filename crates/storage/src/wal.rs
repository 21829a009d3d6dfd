//! The append-only, checksummed, segment-based write-ahead log.
//!
//! Frame format (all little-endian):
//!
//! ```text
//! | len: u32 | crc32(payload): u32 | payload: len bytes |
//! ```
//!
//! The log is a chain of segments named `wal-NNNNNNNN.seg` (8-digit
//! zero-padded sequence number). A new segment is started whenever a
//! snapshot is taken, so a recovery that starts from snapshot LSN `s`
//! only replays segments that can contain records after `s`. The chain
//! is **pruned at each checkpoint**: the store keeps its two newest
//! snapshots, and [`Wal::retire_through`] removes the oldest segments
//! while every frame in them lies at or below the older one. The two
//! retained snapshots are therefore part of the source of truth: a
//! damaged newest snapshot falls back to the one before it plus the
//! segments in between, but when both are damaged the frames recovery
//! would need are gone and replay fails with
//! [`StorageError::HistoryPruned`] instead of guessing.
//!
//! Replay is torn-write and short-read tolerant: it walks frames in
//! order, stops at the first frame whose header is short, whose payload
//! is short, or whose CRC does not match, and reports the byte length of
//! the valid prefix so the store can truncate the tail. Everything
//! before the damage is preserved; everything after is — by the WAL
//! invariant — an uncommitted suffix.

use crate::crc::crc32;
use crate::disk::Disk;
use crate::record::WalRecord;
use crate::StorageError;
use std::collections::BTreeMap;

/// Frame header size: `len` + `crc`.
pub const FRAME_HEADER: usize = 8;

/// Builds the on-disk frame for a payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Segment file name for a sequence number.
pub fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

/// Parses a segment sequence number out of a file name.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The outcome of scanning one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records recovered from the valid prefix (frames that fully check
    /// out), in log order, each with the byte offset just past its frame.
    pub records: Vec<(WalRecord, usize)>,
    /// Why the scan stopped early, if it did.
    pub damage: Option<String>,
}

/// Scans a raw segment image, decoding frames until the first sign of
/// damage. Never fails: damage terminates the scan, it does not error.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut damage = None;
    while at < bytes.len() {
        if bytes.len() - at < FRAME_HEADER {
            damage = Some(format!(
                "short frame header: {} bytes at offset {at}",
                bytes.len() - at
            ));
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if bytes.len() - at - FRAME_HEADER < len {
            damage = Some(format!(
                "short payload: frame at offset {at} claims {len} bytes, {} remain",
                bytes.len() - at - FRAME_HEADER
            ));
            break;
        }
        let payload = &bytes[at + FRAME_HEADER..at + FRAME_HEADER + len];
        if crc32(payload) != want_crc {
            damage = Some(format!("crc mismatch in frame at offset {at}"));
            break;
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push((rec, at + FRAME_HEADER + len)),
            Err(e) => {
                // A CRC-valid but undecodable payload: treat it like
                // corruption at this offset — the prefix is still good.
                damage = Some(format!("undecodable frame at offset {at}: {e}"));
                break;
            }
        }
        at += FRAME_HEADER + len;
    }
    SegmentScan { records, damage }
}

/// The outcome of replaying the whole segment chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalReplay {
    /// All valid records across segments, in log order.
    pub records: Vec<WalRecord>,
    /// Frames actually replayed (valid AND past `after_lsn` — frames in
    /// old segments already covered by a snapshot don't count).
    pub frames_replayed: u64,
    /// Frames discarded as torn/corrupt (at most 1 per damaged segment,
    /// counted as the whole invalid tail).
    pub frames_truncated: u64,
    /// Every segment replay kept, by sequence number, with the highest
    /// LSN of a frame it holds (0 for none).
    pub segments: BTreeMap<u64, u64>,
    /// Byte length of the newest kept segment once replay is done with
    /// it (after any truncation of a damaged tail).
    pub last_segment_len: usize,
    /// Human-readable damage descriptions, if any.
    pub damage: Vec<String>,
}

/// The write side of the log: tracks the open segment, so a commit
/// neither lists the disk to learn whether the segment exists nor reads
/// it back to learn its length.
#[derive(Debug, Clone)]
pub struct Wal {
    /// Sequence number of the segment new frames go to.
    open_segment: u64,
    /// Bytes in the open segment, or `None` while its file does not
    /// exist (the first append creates it). Every segment past the open
    /// one is absent: replay deletes those after damage, and rotation
    /// only ever moves to a new, higher number.
    open_len: Option<usize>,
    /// Highest LSN appended to the open segment (0 for none).
    open_lsn: u64,
    /// Every other segment on the disk, by sequence number, with the
    /// highest LSN of a frame it holds: filled from replay's listing,
    /// kept current by rotation and retirement.
    sealed: BTreeMap<u64, u64>,
}

impl Wal {
    /// Starts a log on a disk that holds no segment numbered
    /// `open_segment` or higher: the first append creates it.
    pub fn new(open_segment: u64) -> Self {
        Wal {
            open_segment: open_segment.max(1),
            open_len: None,
            open_lsn: 0,
            sealed: BTreeMap::new(),
        }
    }

    /// Resumes the log that `replay` recovered: new frames go after the
    /// bytes replay kept in the newest segment (segment 1 on an empty
    /// chain), and the older segments are sealed. Asks the disk nothing —
    /// replay already listed and read it.
    pub fn resume(replay: &WalReplay) -> Self {
        let mut sealed = replay.segments.clone();
        match sealed.pop_last() {
            None => Wal::new(1),
            Some((open_segment, open_lsn)) => Wal {
                open_segment,
                open_len: Some(replay.last_segment_len),
                open_lsn,
                sealed,
            },
        }
    }

    /// The segment currently receiving appends.
    pub fn open_segment(&self) -> u64 {
        self.open_segment
    }

    /// Name of the segment currently receiving appends.
    pub fn open_segment_name(&self) -> String {
        segment_name(self.open_segment)
    }

    /// Bytes in the open segment: what recovery kept plus every frame
    /// appended since. Equals the file's length whenever the disk stores
    /// what it is given (a torn write or bit flip makes them differ).
    pub fn open_segment_len(&self) -> usize {
        self.open_len.unwrap_or(0)
    }

    /// Lists the chain's segment names on `disk`, in log order.
    pub fn segments<D: Disk>(disk: &D) -> Vec<(u64, String)> {
        let mut segs: Vec<(u64, String)> = disk
            .list()
            .into_iter()
            .filter_map(|n| parse_segment_name(&n).map(|s| (s, n)))
            .collect();
        segs.sort();
        segs
    }

    /// Appends one record frame to the open segment (no fsync — the
    /// caller groups frames per commit and syncs once).
    pub fn append<D: Disk>(
        &mut self,
        disk: &mut D,
        rec: &WalRecord,
    ) -> Result<usize, StorageError> {
        let frame = encode_frame(&rec.encode());
        let name = self.open_segment_name();
        let len = match self.open_len {
            Some(len) => len,
            None => {
                disk.create(&name, dbx_faults::StorageFileClass::Wal)?;
                0
            }
        };
        disk.append(&name, &frame)?;
        self.open_len = Some(len + frame.len());
        self.open_lsn = rec.lsn;
        Ok(frame.len())
    }

    /// Makes the open segment durable (nothing to do before its first
    /// frame).
    pub fn sync<D: Disk>(&mut self, disk: &mut D) -> Result<(), StorageError> {
        if self.open_len.is_some() {
            disk.fsync(&self.open_segment_name())?;
        }
        Ok(())
    }

    /// Seals the open segment and starts the next one (called when a
    /// snapshot is taken so recovery can skip old segments).
    pub fn rotate<D: Disk>(&mut self, disk: &mut D) -> Result<(), StorageError> {
        self.sync(disk)?;
        if self.open_len.take().is_some() {
            self.sealed.insert(self.open_segment, self.open_lsn);
        }
        self.open_segment += 1;
        self.open_lsn = 0;
        Ok(())
    }

    /// Removes sealed segments, oldest first, while every frame in them
    /// has an LSN at or below `lsn`, so the segments left are always a
    /// contiguous suffix of the chain. The open segment stays.
    pub fn retire_through<D: Disk>(&mut self, disk: &mut D, lsn: u64) -> Result<(), StorageError> {
        while let Some((&seq, &last)) = self.sealed.first_key_value() {
            if last > lsn {
                break;
            }
            disk.remove(&segment_name(seq))?;
            self.sealed.remove(&seq);
        }
        Ok(())
    }

    /// Replays the whole chain from `disk`, keeping only records with
    /// `lsn > after_lsn`, truncating each damaged segment to its valid
    /// prefix and deleting any segments after the damage (they are an
    /// unreachable suffix of the log).
    ///
    /// Replay also enforces LSN contiguity among retained records: if a
    /// record is missing from the middle of the chain (a dropped
    /// rotation fsync combined with a damaged snapshot can durabilize a
    /// later segment while a tail of an earlier one is lost), replay
    /// stops at the gap rather than splicing a hole into history. The
    /// segment holding the gap is truncated at the end of its last
    /// in-order frame, like a torn tail, so the resumed log appends
    /// where the next recovery will find it.
    ///
    /// A gap *before* the chain's first frame, in a chain that no longer
    /// starts at segment 1, is different: the frames replay needs were
    /// retired with the snapshots that covered them, so replay returns
    /// [`StorageError::HistoryPruned`] having removed, truncated and
    /// fsynced nothing. (A chain that still starts at segment 1 was never
    /// pruned; a first frame past `after_lsn + 1` there means frames were
    /// lost, which is repaired like any other gap.)
    pub fn replay<D: Disk>(disk: &mut D, after_lsn: u64) -> Result<WalReplay, StorageError> {
        let segs = Self::segments(disk);
        let mut out = WalReplay::default();
        let mut stop = false;
        let mut expected = after_lsn + 1;
        let mut first_frame = true;
        for (seq, name) in segs {
            if stop {
                // Everything after a damaged segment is past the end of
                // the valid log — drop it.
                out.damage
                    .push(format!("dropping segment {name} after damage"));
                disk.remove(&name)?;
                continue;
            }
            let bytes = disk.read(&name)?;
            let scan = scan_segment(&bytes);
            // End and LSN of the last frame replay keeps in this segment.
            let (mut kept, mut kept_lsn) = (0, 0);
            let mut damage = scan.damage.map(|d| format!("{name}: {d}"));
            for (rec, end) in scan.records {
                if std::mem::take(&mut first_frame) && rec.lsn > expected && seq > 1 {
                    // Nothing has been modified yet: every earlier
                    // segment was empty and undamaged.
                    return Err(StorageError::HistoryPruned {
                        need_lsn: expected,
                        first_lsn: rec.lsn,
                    });
                }
                let lsn = rec.lsn;
                if lsn > after_lsn {
                    if lsn != expected {
                        damage = Some(format!("{name}: lsn gap: expected {expected}, found {lsn}"));
                        break;
                    }
                    expected += 1;
                    out.frames_replayed += 1;
                    out.records.push(rec);
                }
                (kept, kept_lsn) = (end, lsn);
            }
            out.segments.insert(seq, kept_lsn);
            out.last_segment_len = kept;
            if kept < bytes.len() {
                out.frames_truncated += 1;
                out.damage.extend(damage);
                disk.truncate(&name, kept)?;
                disk.fsync(&name)?;
                stop = true;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::record::TableOp;

    fn rec(lsn: u64) -> WalRecord {
        WalRecord {
            lsn,
            ops: vec![TableOp::Append {
                name: "t".into(),
                rows: vec![("c".into(), vec![lsn as u32])],
            }],
        }
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_name(1), "wal-00000001.seg");
        assert_eq!(parse_segment_name("wal-00000017.seg"), Some(17));
        assert_eq!(parse_segment_name("wal-1.seg"), None);
        assert_eq!(parse_segment_name("snap-00000001.img"), None);
        assert_eq!(parse_segment_name("wal-0000000x.seg"), None);
    }

    #[test]
    fn append_replay_round_trip() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        for lsn in 1..=5 {
            wal.append(&mut disk, &rec(lsn)).unwrap();
        }
        wal.sync(&mut disk).unwrap();
        disk.crash();
        let replay = Wal::replay(&mut disk, 0).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.frames_replayed, 5);
        assert_eq!(replay.frames_truncated, 0);
        assert_eq!(replay.records.last().unwrap().lsn, 5);
    }

    #[test]
    fn replay_filters_by_lsn() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        for lsn in 1..=4 {
            wal.append(&mut disk, &rec(lsn)).unwrap();
        }
        wal.sync(&mut disk).unwrap();
        let replay = Wal::replay(&mut disk, 2).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // Filtered frames don't count as replayed.
        assert_eq!(replay.frames_replayed, 2);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        // Build a clean 3-frame segment, then cut it at every byte
        // offset: replay must always recover exactly the frames whose
        // bytes fully survive.
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        let mut ends = Vec::new();
        let mut total = 0usize;
        for lsn in 1..=3 {
            total += wal.append(&mut disk, &rec(lsn)).unwrap();
            ends.push(total);
        }
        wal.sync(&mut disk).unwrap();
        let image = disk.read("wal-00000001.seg").unwrap();
        assert_eq!(image.len(), total);
        for cut in 0..=image.len() {
            let mut d = MemDisk::new();
            d.set_file(
                "wal-00000001.seg",
                dbx_faults::StorageFileClass::Wal,
                image[..cut].to_vec(),
            );
            let replay = Wal::replay(&mut d, 0).unwrap();
            let want = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(replay.records.len(), want, "cut at {cut}");
            // A cut exactly on a frame boundary (or the empty log) is
            // not damage; anywhere else it is.
            let on_boundary = cut == 0 || ends.contains(&cut);
            assert_eq!(replay.frames_truncated > 0, !on_boundary, "cut at {cut}");
            // After truncation the durable image must equal the valid prefix.
            let prefix_end = ends.iter().rev().find(|&&e| e <= cut).copied().unwrap_or(0);
            assert_eq!(d.read("wal-00000001.seg").unwrap().len(), prefix_end);
        }
    }

    #[test]
    fn resume_counts_the_bytes_replay_kept() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        wal.append(&mut disk, &rec(1)).unwrap();
        wal.rotate(&mut disk).unwrap();
        wal.append(&mut disk, &rec(2)).unwrap();
        wal.append(&mut disk, &rec(3)).unwrap();
        wal.sync(&mut disk).unwrap();
        assert_eq!(
            wal.open_segment_len(),
            disk.read("wal-00000002.seg").unwrap().len()
        );
        // Tear the newest segment mid-frame: replay cuts it back to one
        // frame, and the resumed log appends after that frame.
        let mut image = disk.read("wal-00000002.seg").unwrap();
        image.truncate(image.len() - 3);
        disk.set_file("wal-00000002.seg", dbx_faults::StorageFileClass::Wal, image);
        let replay = Wal::replay(&mut disk, 0).unwrap();
        assert_eq!(replay.frames_truncated, 1);
        let mut wal = Wal::resume(&replay);
        assert_eq!(wal.open_segment(), 2);
        assert_eq!(
            wal.open_segment_len(),
            disk.read("wal-00000002.seg").unwrap().len()
        );
        wal.append(&mut disk, &rec(3)).unwrap();
        assert_eq!(
            wal.open_segment_len(),
            disk.read("wal-00000002.seg").unwrap().len()
        );
        // An empty chain resumes at a segment 1 that does not exist yet.
        let wal = Wal::resume(&Wal::replay(&mut MemDisk::new(), 0).unwrap());
        assert_eq!((wal.open_segment(), wal.open_segment_len()), (1, 0));
    }

    #[test]
    fn bit_flip_truncates_and_later_segments_are_dropped() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        wal.append(&mut disk, &rec(1)).unwrap();
        wal.append(&mut disk, &rec(2)).unwrap();
        wal.rotate(&mut disk).unwrap();
        wal.append(&mut disk, &rec(3)).unwrap();
        wal.sync(&mut disk).unwrap();
        // Flip a payload bit in frame 2 of segment 1.
        let mut image = disk.read("wal-00000001.seg").unwrap();
        let frame1_len = {
            let l = u32::from_le_bytes(image[0..4].try_into().unwrap()) as usize;
            FRAME_HEADER + l
        };
        image[frame1_len + FRAME_HEADER + 3] ^= 0x40;
        disk.set_file("wal-00000001.seg", dbx_faults::StorageFileClass::Wal, image);
        let replay = Wal::replay(&mut disk, 0).unwrap();
        // Only record 1 survives; segment 2 is dropped entirely because
        // it sits beyond the damage.
        assert_eq!(
            replay.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![1]
        );
        assert!(replay.frames_truncated >= 1);
        assert!(!disk.exists("wal-00000002.seg"));
        assert!(replay.damage.iter().any(|d| d.contains("crc mismatch")));
    }

    #[test]
    fn an_lsn_gap_truncates_its_segment_after_the_last_in_order_frame() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        // LSN 1 is covered by a snapshot, LSN 2 replays, LSN 3 is missing.
        let kept =
            wal.append(&mut disk, &rec(1)).unwrap() + wal.append(&mut disk, &rec(2)).unwrap();
        wal.append(&mut disk, &rec(4)).unwrap();
        wal.sync(&mut disk).unwrap();
        let replay = Wal::replay(&mut disk, 1).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(replay.frames_truncated, 1);
        assert!(replay.damage[0].contains("lsn gap"));
        assert_eq!(replay.last_segment_len, kept);
        assert_eq!(disk.read("wal-00000001.seg").unwrap().len(), kept);
    }

    #[test]
    fn retirement_removes_the_oldest_segments_up_to_an_lsn() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        for lsn in 1..=6 {
            wal.append(&mut disk, &rec(lsn)).unwrap();
            if lsn % 2 == 0 {
                wal.rotate(&mut disk).unwrap();
            }
        }
        wal.append(&mut disk, &rec(7)).unwrap();
        // Segment 2 holds LSN 3 and 4: it stays, and so does segment 3.
        wal.retire_through(&mut disk, 3).unwrap();
        let names = |d: &MemDisk| {
            Wal::segments(d)
                .into_iter()
                .map(|(seq, _)| seq)
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&disk), [2, 3, 4]);
        // The open segment stays whatever the LSN.
        wal.retire_through(&mut disk, 100).unwrap();
        assert_eq!(names(&disk), [4]);
        // A resumed log knows what is sealed without listing again.
        let mut wal = Wal::resume(&Wal::replay(&mut disk, 6).unwrap());
        wal.rotate(&mut disk).unwrap();
        wal.retire_through(&mut disk, 7).unwrap();
        assert!(names(&disk).is_empty());
    }

    #[test]
    fn a_gap_before_the_first_frame_is_pruned_history_unless_the_chain_starts_at_segment_1() {
        for first in [1, 2] {
            let mut disk = MemDisk::new();
            let mut wal = Wal::new(first);
            wal.append(&mut disk, &rec(5)).unwrap();
            wal.append(&mut disk, &rec(6)).unwrap();
            wal.sync(&mut disk).unwrap();
            let image = disk.read(&segment_name(first)).unwrap();
            let replay = Wal::replay(&mut disk, 3);
            let left = disk.read(&segment_name(first)).unwrap();
            if first == 1 {
                // Never pruned: frames were lost, repaired like any gap.
                let replay = replay.unwrap();
                assert!(replay.records.is_empty());
                assert!(replay.damage[0].contains("lsn gap"));
                assert!(left.is_empty());
            } else {
                let err = StorageError::HistoryPruned {
                    need_lsn: 4,
                    first_lsn: 5,
                };
                assert_eq!(replay.unwrap_err(), err);
                assert_eq!(left, image);
            }
        }
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let mut disk = MemDisk::new();
        let mut wal = Wal::new(1);
        wal.append(&mut disk, &rec(1)).unwrap();
        wal.rotate(&mut disk).unwrap();
        wal.append(&mut disk, &rec(2)).unwrap();
        wal.sync(&mut disk).unwrap();
        assert_eq!(Wal::segments(&disk).len(), 2);
        let replay = Wal::replay(&mut disk, 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.segments, BTreeMap::from([(1, 1), (2, 2)]));
    }
}
