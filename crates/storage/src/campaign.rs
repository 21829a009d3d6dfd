//! Seeded crash-recovery campaigns: the machinery behind the CI
//! `serve-chaos` job and the proptest invariants.
//!
//! A campaign (1) generates a deterministic transaction workload from a
//! seed, (2) runs it cleanly once to learn the digest of every
//! committed prefix and where each commit's frame landed in the WAL,
//! then (3) attacks the log from several directions:
//!
//! * **Kill at every WAL byte offset** — for each `k`, resurrect a disk
//!   whose log is durable only up to byte `k`, recover, and check the
//!   recovered state digest equals the digest of the longest committed
//!   prefix whose frames fit in `k` bytes. Run both without snapshots
//!   (single segment) and with a snapshot cadence (cutting the newest
//!   segment).
//! * **Targeted faults** — a torn write or bit flip inside a seeded
//!   commit's frame, a dropped fsync on the final commit, a truncated
//!   snapshot image: each has an exactly predictable recovered state.
//! * **Seeded fault storms** — random fault plans from
//!   [`StorageFaultPlan::seeded`]; recovery must still land on *some*
//!   committed prefix and be idempotent (recovering twice changes
//!   nothing).
//! * **An LSN gap** — a middle segment loses its durable tail and the
//!   newest snapshot is damaged, so the next segment starts past a hole
//!   in the log.
//!
//! Every recovery is followed by a **second epoch**: the recovered
//! store commits the rest of the workload fault-free, crashes and
//! reopens, and must come back holding the recovered prefix plus every
//! commit it acknowledged — a recovery that resumes the log where the
//! next recovery cannot find it loses those commits here.
//!
//! Every recovered digest is folded into [`CampaignReport::digest`], so
//! two hosts running the same seed must produce bit-identical reports.

use crate::crc::crc32_update;
use crate::disk::{Disk, MemDisk};
use crate::record::TableOp;
use crate::store::{Store, StoreOptions};
use crate::StorageError;
use dbx_faults::{StorageFaultPlan, StorageFileClass, XorShift64};
use std::collections::BTreeSet;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for the workload and all fault choices.
    pub seed: u64,
    /// Number of transactions in the workload.
    pub commits: usize,
    /// Snapshot cadence used by the snapshot-enabled passes.
    pub snapshot_every: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x0DBA_51DE,
            commits: 14,
            snapshot_every: 4,
        }
    }
}

/// What a campaign did and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// The seed everything was derived from.
    pub seed: u64,
    /// Byte offsets the kill-sweep recovered from.
    pub offsets_tested: usize,
    /// Targeted + storm scenarios run.
    pub scenarios_run: usize,
    /// Invariant violations (empty on a passing campaign).
    pub failures: Vec<String>,
    /// CRC-32 over every recovered state digest, in order: two hosts
    /// running the same seed must agree on this value bit-for-bit.
    pub digest: u32,
}

impl CampaignReport {
    /// True when every recovery matched its predicted state.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Generates a deterministic, always-valid transaction workload: every
/// table uses the single-column schema `k`, so appends never mismatch,
/// and existence is tracked so creates/drops never conflict.
pub fn generate_commits(seed: u64, n: usize) -> Vec<Vec<TableOp>> {
    const POOL: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let mut rng = XorShift64::new(seed | 1);
    let mut exists: BTreeSet<&str> = BTreeSet::new();
    let mut commits = Vec::with_capacity(n);
    for _ in 0..n {
        let n_ops = 1 + rng.below(2) as usize;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let t = POOL[rng.below(POOL.len() as u64) as usize];
            let values: Vec<u32> = (0..1 + rng.below(3))
                .map(|_| (rng.next_u64() & 0xFFFF) as u32)
                .collect();
            if exists.contains(t) {
                if rng.below(3) == 2 {
                    exists.remove(t);
                    ops.push(TableOp::Drop {
                        name: t.to_string(),
                    });
                } else {
                    ops.push(TableOp::Append {
                        name: t.to_string(),
                        rows: vec![("k".to_string(), values)],
                    });
                }
            } else {
                exists.insert(t);
                ops.push(TableOp::Create {
                    name: t.to_string(),
                    columns: vec![("k".to_string(), values)],
                });
            }
        }
        commits.push(ops);
    }
    commits
}

/// One clean execution of the workload: per-commit digests, frame
/// positions, and the final durable disk.
struct CleanRun {
    /// `checkpoints[i]` = state digest after `i` commits (`[0]` = empty).
    checkpoints: Vec<u32>,
    /// Per commit: `(segment name, end offset of its frame)`.
    positions: Vec<(String, usize)>,
    /// The disk after the full workload (everything fsynced).
    disk: MemDisk,
}

fn run_clean(
    commits: &[Vec<TableOp>],
    snapshot_every: u64,
    plan: Option<StorageFaultPlan>,
) -> Result<CleanRun, StorageError> {
    let mut disk = MemDisk::new();
    if let Some(p) = plan {
        disk.set_fault_plan(p);
    }
    let mut store = Store::open(
        disk,
        StoreOptions {
            snapshot_every,
            ..Default::default()
        },
    )?;
    let mut checkpoints = vec![store.state_digest()];
    let mut positions = Vec::with_capacity(commits.len());
    for batch in commits {
        let mut txn = store.begin();
        for op in batch {
            txn.push(op.clone());
        }
        store.commit(txn)?;
        checkpoints.push(store.state_digest());
        positions.push(store.last_commit_position().expect("committed").clone());
    }
    Ok(CleanRun {
        checkpoints,
        positions,
        disk: store.into_disk(),
    })
}

/// Folds a recovered digest into the campaign digest.
fn fold(acc: u32, d: u32) -> u32 {
    crc32_update(acc, &d.to_le_bytes())
}

/// The second epoch on a store recovered to some committed prefix:
/// commit the rest of the workload fault-free, crash, reopen, and check
/// the reopened store holds the prefix plus every acknowledged commit.
fn second_epoch(
    mut store: Store<MemDisk>,
    commits: &[Vec<TableOp>],
    checkpoints: &[u32],
    what: &str,
    failures: &mut Vec<String>,
    acc: &mut u32,
) {
    let prefix = store.generation() as usize;
    if checkpoints.get(prefix) != Some(&store.state_digest()) {
        failures.push(format!(
            "{what}: recovered generation {prefix} does not hold commit prefix {prefix}"
        ));
        return;
    }
    store.disk_mut().set_fault_plan(StorageFaultPlan::new());
    let mut acked = 0;
    for batch in &commits[prefix..] {
        let mut txn = store.begin();
        for op in batch {
            txn.push(op.clone());
        }
        if let Err(e) = store.commit(txn) {
            failures.push(format!("{what}: second-epoch commit failed: {e}"));
            break;
        }
        acked += 1;
    }
    let mut disk = store.into_disk();
    disk.crash();
    match Store::open(disk, StoreOptions::default()) {
        Ok(s) => {
            let want = prefix + acked;
            let got = s.state_digest();
            if s.generation() != want as u64 || got != checkpoints[want] {
                failures.push(format!(
                    "{what}: second epoch recovered generation {} (digest {got:#010x}), expected {want} ({:#010x})",
                    s.generation(),
                    checkpoints[want]
                ));
            }
            *acc = fold(*acc, got);
        }
        Err(e) => failures.push(format!("{what}: second-epoch recovery failed: {e}")),
    }
}

/// Runs the full campaign for one seed. Deterministic: same config in,
/// same report out, on any host.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let commits = generate_commits(cfg.seed, cfg.commits.max(2));
    let n = commits.len();
    let mut rng = XorShift64::new(cfg.seed.rotate_left(17) | 1);
    let mut failures = Vec::new();
    let mut acc = !0u32;
    let mut offsets_tested = 0usize;
    let mut scenarios_run = 0usize;

    // Pass 1 + 2: kill at every byte offset of the newest segment,
    // without and with snapshots.
    for snapshot_every in [0, cfg.snapshot_every.max(2)] {
        let clean = match run_clean(&commits, snapshot_every, None) {
            Ok(c) => c,
            Err(e) => {
                failures.push(format!("clean run (cadence {snapshot_every}) failed: {e}"));
                continue;
            }
        };
        let (last_seg, _) = clean.positions.last().expect("n >= 2").clone();
        let image = clean
            .disk
            .durable_image(&last_seg)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        // Snapshots survive the kill (only the newest WAL segment is
        // cut), so everything up to the newest snapshot LSN is safe
        // even if its frames sat in the segment being cut.
        let snap_lsn = clean
            .disk
            .list()
            .iter()
            .filter_map(|n| crate::snapshot::parse_snapshot_name(n))
            .max()
            .unwrap_or(0) as usize;
        for k in 0..=image.len() {
            // Resurrect: all files at their durable images, except the
            // newest segment which died k bytes in.
            let mut d = clean.disk.clone();
            d.crash();
            d.set_file(&last_seg, StorageFileClass::Wal, image[..k].to_vec());
            // Predicted survivor: the newest snapshot, or the last
            // commit in an older segment, or the last commit in this
            // segment whose frame lies fully inside k bytes — whichever
            // reaches furthest.
            let mut want_idx = snap_lsn;
            for (i, (seg, end)) in clean.positions.iter().enumerate() {
                if *seg != last_seg || *end <= k {
                    want_idx = want_idx.max(i + 1);
                }
            }
            let want = clean.checkpoints[want_idx];
            match Store::open(d, StoreOptions::default()) {
                Ok(s) => {
                    let got = s.state_digest();
                    let what = format!(
                        "kill at offset {k}/{} (cadence {snapshot_every})",
                        image.len()
                    );
                    if got != want {
                        failures.push(format!("{what}: digest {got:#010x}, expected {want:#010x}"));
                    }
                    acc = fold(acc, got);
                    second_epoch(
                        s,
                        &commits,
                        &clean.checkpoints,
                        &what,
                        &mut failures,
                        &mut acc,
                    );
                }
                Err(e) => failures.push(format!(
                    "kill at offset {k} (cadence {snapshot_every}): recovery failed: {e}"
                )),
            }
            offsets_tested += 1;
        }
    }

    // Pass 3: targeted faults with exactly predictable outcomes. All
    // run without snapshots so WAL I/O indices are just 2*commit
    // (append) and 2*commit+1 (fsync).
    let clean = match run_clean(&commits, 0, None) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("clean run failed: {e}"));
            return CampaignReport {
                seed: cfg.seed,
                offsets_tested,
                scenarios_run,
                failures,
                digest: acc ^ !0u32,
            };
        }
    };
    let targeted = |plan: StorageFaultPlan,
                    expect_idx: usize,
                    what: &str,
                    failures: &mut Vec<String>,
                    acc: &mut u32| {
        match run_clean(&commits, 0, Some(plan)) {
            Ok(run) => {
                let mut disk = run.disk;
                disk.crash();
                match Store::open(disk, StoreOptions::default()) {
                    Ok(s) => {
                        let got = s.state_digest();
                        let want = clean.checkpoints[expect_idx];
                        if got != want {
                            failures.push(format!(
                                "{what}: digest {got:#010x}, expected checkpoint {expect_idx} ({want:#010x})"
                            ));
                        }
                        *acc = fold(*acc, got);
                        second_epoch(s, &commits, &clean.checkpoints, what, failures, acc);
                    }
                    Err(e) => failures.push(format!("{what}: recovery failed: {e}")),
                }
            }
            Err(e) => failures.push(format!("{what}: workload failed: {e}")),
        }
    };

    // Torn write inside commit j's frame: commits 0..j survive.
    let j = rng.below(n as u64) as usize;
    let keep = rng.below(8) as usize;
    targeted(
        StorageFaultPlan::new().with_torn_wal_write(2 * j as u64, keep),
        j,
        &format!("torn write in commit {j} (keep {keep})"),
        &mut failures,
        &mut acc,
    );
    scenarios_run += 1;

    // Bit flip inside commit j's frame: same prediction.
    let j = rng.below(n as u64) as usize;
    let (byte, bit) = (rng.below(64) as usize, rng.below(8) as u8);
    targeted(
        StorageFaultPlan::new().with_wal_bit_flip(2 * j as u64, byte, bit),
        j,
        &format!("bit flip in commit {j} (byte {byte}, bit {bit})"),
        &mut failures,
        &mut acc,
    );
    scenarios_run += 1;

    // Dropped fsync on the final commit: it alone is lost.
    targeted(
        StorageFaultPlan::new().with_dropped_wal_fsync(2 * n as u64 - 1),
        n - 1,
        "dropped fsync on the final commit",
        &mut failures,
        &mut acc,
    );
    scenarios_run += 1;

    // Truncated snapshot: recovery must skip the damaged image and
    // rebuild the full final state from the (never-pruned) WAL chain.
    {
        let cadence = cfg.snapshot_every.max(2);
        let n_snaps = (n as u64) / cadence;
        if n_snaps > 0 {
            let keep = 4 + rng.below(20) as usize;
            let plan = StorageFaultPlan::new().with_truncated_snapshot(2 * n_snaps - 1, keep);
            match run_clean(&commits, cadence, Some(plan)) {
                Ok(run) => {
                    let mut disk = run.disk;
                    disk.crash();
                    match Store::open(disk, StoreOptions::default()) {
                        Ok(s) => {
                            let got = s.state_digest();
                            let want = *clean.checkpoints.last().unwrap();
                            if got != want {
                                failures.push(format!(
                                    "truncated snapshot (keep {keep}): digest {got:#010x}, expected final state {want:#010x}"
                                ));
                            }
                            if s.recovery().snapshots_skipped.is_empty() {
                                failures.push(
                                    "truncated snapshot: recovery did not report a skipped snapshot"
                                        .to_string(),
                                );
                            }
                            acc = fold(acc, got);
                            second_epoch(
                                s,
                                &commits,
                                &clean.checkpoints,
                                "truncated snapshot",
                                &mut failures,
                                &mut acc,
                            );
                        }
                        Err(e) => {
                            failures.push(format!("truncated snapshot: recovery failed: {e}"))
                        }
                    }
                }
                Err(e) => failures.push(format!("truncated snapshot: workload failed: {e}")),
            }
            scenarios_run += 1;
        }
    }

    // Pass 4: seeded fault storms. Recovery must land on *some*
    // committed prefix, and recovering again must be a fixed point.
    let prefix_digests: BTreeSet<u32> = clean.checkpoints.iter().copied().collect();
    let snap_prefixes: BTreeSet<u32> = match run_clean(&commits, cfg.snapshot_every.max(2), None) {
        Ok(c) => c.checkpoints.iter().copied().collect(),
        Err(_) => prefix_digests.clone(),
    };
    for storm in 0..3u64 {
        let storm_seed = cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(storm + 1));
        let plan = StorageFaultPlan::seeded(storm_seed, 4, 2 * n as u64, 64);
        let cadence = if storm % 2 == 0 {
            0
        } else {
            cfg.snapshot_every.max(2)
        };
        let valid = if cadence == 0 {
            &prefix_digests
        } else {
            &snap_prefixes
        };
        match run_clean(&commits, cadence, Some(plan)) {
            Ok(run) => {
                let mut disk = run.disk;
                disk.crash();
                match Store::open(disk, StoreOptions::default()) {
                    Ok(s) => {
                        let got = s.state_digest();
                        if !valid.contains(&got) {
                            failures.push(format!(
                                "storm {storm}: digest {got:#010x} is not any committed prefix"
                            ));
                        }
                        // Idempotency: a second recovery of the repaired
                        // disk must land on the same state.
                        let gen = s.generation();
                        let disk2 = s.into_disk();
                        match Store::open(disk2, StoreOptions::default()) {
                            Ok(s2) => {
                                if s2.state_digest() != got || s2.generation() != gen {
                                    failures.push(format!(
                                        "storm {storm}: second recovery diverged ({:#010x} vs {got:#010x})",
                                        s2.state_digest()
                                    ));
                                }
                                second_epoch(
                                    s2,
                                    &commits,
                                    &clean.checkpoints,
                                    &format!("storm {storm}"),
                                    &mut failures,
                                    &mut acc,
                                );
                            }
                            Err(e) => {
                                failures.push(format!("storm {storm}: second recovery failed: {e}"))
                            }
                        }
                        acc = fold(acc, got);
                    }
                    Err(e) => failures.push(format!("storm {storm}: recovery failed: {e}")),
                }
            }
            Err(e) => failures.push(format!("storm {storm}: workload failed: {e}")),
        }
        scenarios_run += 1;
    }

    // Pass 5: an LSN gap. Commit `gap` is the last frame of a middle
    // segment (a snapshot follows it and the log rotates). That segment
    // loses commit `gap`'s frame and every snapshot from `gap` on is
    // damaged, so recovery replays up to `gap - 1` from the older
    // snapshot, and the next segment begins at `gap + 1`.
    let cadence = cfg.snapshot_every.max(2) as usize;
    let gap = (n - 1) / cadence * cadence;
    if gap > 0 {
        match run_clean(&commits, cadence as u64, None) {
            Ok(run) => {
                let mut d = run.disk;
                d.crash();
                let (seg, _) = &run.positions[gap - 1];
                let (_, keep) = &run.positions[gap - 2];
                let image = d.durable_image(seg).expect("segment")[..*keep].to_vec();
                d.set_file(seg, StorageFileClass::Wal, image);
                for name in d.list() {
                    if crate::snapshot::parse_snapshot_name(&name).is_some_and(|l| l >= gap as u64)
                    {
                        let image = d.durable_image(&name).expect("snapshot")[..4].to_vec();
                        d.set_file(&name, StorageFileClass::Snapshot, image);
                    }
                }
                match Store::open(d, StoreOptions::default()) {
                    Ok(s) => {
                        let got = s.state_digest();
                        let want = clean.checkpoints[gap - 1];
                        if got != want {
                            failures.push(format!(
                                "lsn gap at commit {gap}: digest {got:#010x}, expected checkpoint {} ({want:#010x})",
                                gap - 1
                            ));
                        }
                        if !s
                            .recovery()
                            .wal_damage
                            .iter()
                            .any(|d| d.contains("lsn gap"))
                        {
                            failures.push(format!(
                                "lsn gap at commit {gap}: recovery did not report the gap"
                            ));
                        }
                        acc = fold(acc, got);
                        second_epoch(
                            s,
                            &commits,
                            &clean.checkpoints,
                            &format!("lsn gap at commit {gap}"),
                            &mut failures,
                            &mut acc,
                        );
                    }
                    Err(e) => failures.push(format!("lsn gap: recovery failed: {e}")),
                }
            }
            Err(e) => failures.push(format!("lsn gap: workload failed: {e}")),
        }
        scenarios_run += 1;
    }

    CampaignReport {
        seed: cfg.seed,
        offsets_tested,
        scenarios_run,
        failures,
        digest: acc ^ !0u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_valid() {
        let a = generate_commits(7, 20);
        let b = generate_commits(7, 20);
        assert_eq!(a, b);
        assert_ne!(a, generate_commits(8, 20));
        // Valid = a clean run commits every transaction.
        let run = run_clean(&a, 3, None).unwrap();
        assert_eq!(run.checkpoints.len(), 21);
    }

    #[test]
    fn default_campaign_passes() {
        let report = run_campaign(&CampaignConfig::default());
        assert!(report.ok(), "failures: {:#?}", report.failures);
        assert!(report.offsets_tested > 0);
        assert!(report.scenarios_run >= 6);
    }

    #[test]
    fn campaign_digest_is_reproducible() {
        let cfg = CampaignConfig {
            seed: 1337,
            commits: 8,
            snapshot_every: 3,
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert!(a.ok(), "failures: {:#?}", a.failures);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_explore_different_histories() {
        let a = run_campaign(&CampaignConfig {
            seed: 11,
            commits: 6,
            snapshot_every: 2,
        });
        let b = run_campaign(&CampaignConfig {
            seed: 90210,
            commits: 6,
            snapshot_every: 2,
        });
        assert!(a.ok(), "failures: {:#?}", a.failures);
        assert!(b.ok(), "failures: {:#?}", b.failures);
        assert_ne!(a.digest, b.digest);
    }
}
