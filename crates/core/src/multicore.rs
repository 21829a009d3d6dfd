//! Multi-core scaling — the paper's area-equivalence argument.
//!
//! Section 5.4: *"the number of cores of DBA_2LSU_EIS could be largely
//! increased until it occupies the same area as the Intel Q9550
//! processor. Even under pessimistic assumptions, DBA_2LSU_EIS could
//! provide an order of magnitude more cores than the Intel Q9550."* And
//! the introduction: *"The extremely low-energy design enables us to put
//! hundreds of chips on a single board without any thermal restrictions."*
//!
//! This module makes that argument measurable: a sorted-set operation is
//! partitioned into value-aligned ranges (each range's sub-results
//! concatenate exactly, as in [`crate::stream`]), every partition runs on
//! its own simulated core, and the wall-clock is the slowest core. The
//! cores share nothing — each owns its local stores, exactly the
//! shared-nothing board the paper sketches.

use crate::configs::ProcModel;
use crate::datapath::SetOpKind;
use crate::runner::{run_set_op_with, RunOptions};
use dbx_cpu::SimError;
use dbx_faults::FaultCounters;
use dbx_observe::{ArgValue, TrackId};

/// Result of a partitioned multi-core run.
#[derive(Debug, Clone)]
pub struct MultiCoreRun {
    /// Concatenated result (identical to a single-core run).
    pub result: Vec<u32>,
    /// Cycles of the slowest core — the parallel makespan.
    pub makespan_cycles: u64,
    /// Sum of all cores' cycles (total work).
    pub total_cycles: u64,
    /// Per-core cycle counts.
    pub per_core_cycles: Vec<u64>,
    /// Number of cores that received work.
    pub cores_used: usize,
    /// Kernel re-runs consumed by the recovery policy across all cores.
    pub retries: u32,
    /// Partitions whose result came from the degraded scalar fallback.
    pub degraded_parts: usize,
    /// Fault counters aggregated over all cores.
    pub faults: FaultCounters,
}

impl MultiCoreRun {
    /// Parallel speedup over running all partitions on one core. An empty
    /// run (no partitions received work, makespan zero) has no parallelism
    /// to speak of and reports `0.0` rather than a `0/0` NaN.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.total_cycles as f64 / self.makespan_cycles as f64
    }

    /// Throughput in M elements/s at frequency `f_mhz` for `elements`
    /// processed, using the makespan. Degenerate inputs — a zero makespan,
    /// or a frequency that is zero, negative, or non-finite — report `0.0`
    /// rather than a NaN/infinity that would poison downstream averages.
    pub fn throughput_meps(&self, elements: u64, f_mhz: f64) -> f64 {
        if self.makespan_cycles == 0 || !f_mhz.is_finite() || f_mhz <= 0.0 {
            return 0.0;
        }
        elements as f64 * f_mhz / self.makespan_cycles as f64
    }
}

/// Splits both sets into `parts` value-aligned partitions of roughly
/// equal combined size.
fn partition(
    a: &[u32],
    b: &[u32],
    parts: usize,
) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    let total = a.len() + b.len();
    let per_part = total.div_ceil(parts.max(1));
    let mut out = Vec::with_capacity(parts);
    let (mut pa, mut pb) = (0usize, 0usize);
    while pa < a.len() || pb < b.len() {
        // Advance a combined budget of `per_part` elements, then align on
        // a value boundary so no value straddles two partitions.
        let take = per_part.min(a.len() - pa + b.len() - pb);
        // Candidate boundary: walk both sets in merge order `take` steps.
        let (mut i, mut j) = (pa, pb);
        for _ in 0..take {
            if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                i += 1;
            } else if j < b.len() {
                j += 1;
            }
        }
        // Boundary value: the largest consumed value; pull in any equal
        // values from the other set.
        let boundary = match (i > pa, j > pb) {
            (true, true) => a[i - 1].max(b[j - 1]),
            (true, false) => a[i - 1],
            (false, true) => b[j - 1],
            (false, false) => break,
        };
        let na = a[pa..].partition_point(|&x| x <= boundary);
        let nb = b[pb..].partition_point(|&x| x <= boundary);
        out.push((pa..pa + na, pb..pb + nb));
        pa += na;
        pb += nb;
    }
    out
}

/// One core's share of a partitioned run, with its resilience accounting.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// The partition's set-operation result.
    pub result: Vec<u32>,
    /// Cycles the core spent on the partition (batches add up).
    pub cycles: u64,
    /// Kernel re-runs consumed by the recovery policy.
    pub retries: u32,
    /// Batches whose result came from the degraded scalar fallback.
    pub degraded: usize,
    /// Fault counters aggregated over the partition's batches.
    pub faults: FaultCounters,
}

/// [`run_partition`] with resilience options (see
/// [`crate::runner::run_set_op_with`]); the injected fault plan strikes
/// the first batch only.
pub fn run_partition_with(
    model: ProcModel,
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
    opts: &RunOptions,
) -> Result<PartitionRun, SimError> {
    match run_set_op_with(model, kind, a, b, opts) {
        Ok(kr) => Ok(PartitionRun {
            result: kr.result,
            cycles: kr.cycles,
            retries: kr.retries,
            degraded: kr.degraded as usize,
            faults: kr.faults,
        }),
        Err(SimError::BadProgram(_)) if a.len() + b.len() >= 2 => {
            let halves = partition(a, b, 2);
            if halves.len() < 2 {
                return Err(SimError::BadProgram(
                    "partition does not fit a core and cannot be split further".to_string(),
                ));
            }
            let mut acc = PartitionRun {
                result: Vec::new(),
                cycles: 0,
                retries: 0,
                degraded: 0,
                faults: FaultCounters::default(),
            };
            let mut batch_opts = opts.clone();
            for (ra, rb) in halves {
                let r = run_partition_with(model, kind, &a[ra], &b[rb], &batch_opts)?;
                acc.result.extend_from_slice(&r.result);
                acc.cycles += r.cycles;
                acc.retries += r.retries;
                acc.degraded += r.degraded;
                acc.faults.merge(&r.faults);
                // The injected plan fires in the first batch only.
                batch_opts.fault_plan = None;
            }
            Ok(acc)
        }
        Err(e) => Err(e),
    }
}

/// Runs one core's partition, sub-partitioning into sequential batches
/// when it exceeds the core's local store (the cycles add up — the core
/// processes its batches back to back). Also useful standalone for
/// offloading arbitrarily large set operations to a single core.
pub fn run_partition(
    model: ProcModel,
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
) -> Result<(Vec<u32>, u64), SimError> {
    run_partition_with(model, kind, a, b, &RunOptions::default()).map(|r| (r.result, r.cycles))
}

/// Runs a sorted-set operation across `cores` shared-nothing cores of the
/// given model. Partitions larger than a core's local store are processed
/// by that core in sequential batches. Zero cores is a
/// [`SimError::BadProgram`].
pub fn multicore_set_op(
    model: ProcModel,
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
    cores: usize,
) -> Result<MultiCoreRun, SimError> {
    multicore_set_op_with(model, kind, a, b, cores, &RunOptions::default())
}

/// [`multicore_set_op`] with resilience options. An injected fault plan
/// strikes core 0 only (one upset, one core); the protection scheme,
/// watchdog, and recovery policy apply to every core.
///
/// The cores are simulated one after another in core order; the run
/// stops at the first core that fails. Makespan and totals are cycle-
/// domain figures, so the order the host simulates the cores in does not
/// enter them. When observed, core `i` records on [`TrackId::Core`]`(i)`
/// and the run adds one Host-track `multicore` span lasting the makespan.
pub fn multicore_set_op_with(
    model: ProcModel,
    kind: SetOpKind,
    a: &[u32],
    b: &[u32],
    cores: usize,
    opts: &RunOptions,
) -> Result<MultiCoreRun, SimError> {
    if cores == 0 {
        return Err(SimError::BadProgram(
            "a multicore run needs at least one core".to_string(),
        ));
    }
    let parts = partition(a, b, cores);
    let mut result = Vec::new();
    let mut per_core_cycles = Vec::with_capacity(parts.len());
    let mut retries = 0u32;
    let mut degraded_parts = 0usize;
    let mut faults = FaultCounters::default();
    for (idx, (ra, rb)) in parts.into_iter().enumerate() {
        let core_opts = RunOptions {
            fault_plan: if idx == 0 {
                opts.fault_plan.clone()
            } else {
                None
            },
            // Each logical core gets its own trace track so the
            // shared-nothing board renders as parallel lanes.
            observer: opts.observer.on_track(TrackId::Core(idx as u32)),
            ..opts.clone()
        };
        let r = run_partition_with(model, kind, &a[ra], &b[rb], &core_opts)?;
        result.extend_from_slice(&r.result);
        per_core_cycles.push(r.cycles);
        retries += r.retries;
        degraded_parts += r.degraded;
        faults.merge(&r.faults);
    }
    let makespan_cycles = per_core_cycles.iter().copied().max().unwrap_or(0);
    let total_cycles: u64 = per_core_cycles.iter().sum();
    if opts.observer.is_enabled() {
        let host = opts.observer.on_track(TrackId::Host);
        host.place("multicore", "parallel", makespan_cycles, || {
            vec![
                ("kind", ArgValue::from(kind.name())),
                ("model", ArgValue::from(model.name())),
                ("cores", (per_core_cycles.len() as u64).into()),
                ("total_cycles", total_cycles.into()),
                ("retries", u64::from(retries).into()),
            ]
        });
    }
    Ok(MultiCoreRun {
        result,
        makespan_cycles,
        total_cycles,
        cores_used: per_core_cycles.len(),
        per_core_cycles,
        retries,
        degraded_parts,
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(n: u32) -> (Vec<u32>, Vec<u32>) {
        let a: Vec<u32> = (0..n).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..n).map(|i| 2 * i + (i % 2)).collect();
        (a, b)
    }

    fn reference(kind: SetOpKind, a: &[u32], b: &[u32]) -> Vec<u32> {
        let sb: std::collections::BTreeSet<u32> = b.iter().copied().collect();
        match kind {
            SetOpKind::Intersect => a.iter().copied().filter(|x| sb.contains(x)).collect(),
            SetOpKind::Difference => a.iter().copied().filter(|x| !sb.contains(x)).collect(),
            SetOpKind::Union => {
                let mut s: std::collections::BTreeSet<u32> = a.iter().copied().collect();
                s.extend(b.iter().copied());
                s.into_iter().collect()
            }
        }
    }

    #[test]
    fn partitions_cover_exactly_and_respect_values() {
        let (a, b) = sets(5000);
        let parts = partition(&a, &b, 8);
        assert!(parts.len() <= 8);
        let mut pa = 0;
        let mut pb = 0;
        for (ra, rb) in &parts {
            assert_eq!(ra.start, pa);
            assert_eq!(rb.start, pb);
            pa = ra.end;
            pb = rb.end;
        }
        assert_eq!(pa, a.len());
        assert_eq!(pb, b.len());
        // Value ranges must not interleave across partitions.
        for w in parts.windows(2) {
            let max0 = w[0].0.end.checked_sub(1).map(|i| a[i]).unwrap_or(0);
            let min1 = w[1].0.start.min(a.len() - 1);
            if !w[1].0.is_empty() {
                assert!(a[min1] > max0);
            }
        }
    }

    #[test]
    fn multicore_results_match_single_core() {
        let (a, b) = sets(6000);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            let mc =
                multicore_set_op(ProcModel::Dba2LsuEis { partial: true }, kind, &a, &b, 8).unwrap();
            assert_eq!(mc.result, reference(kind, &a, &b), "{kind:?}");
        }
    }

    #[test]
    fn speedup_is_near_linear_for_balanced_partitions() {
        let (a, b) = sets(8000);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let mc8 = multicore_set_op(model, SetOpKind::Intersect, &a, &b, 8).unwrap();
        assert_eq!(mc8.cores_used, 8);
        let s = mc8.speedup();
        assert!((6.0..8.2).contains(&s), "8-core speedup {s}");
    }

    #[test]
    fn partitioning_enables_inputs_beyond_one_local_store() {
        // 2x20000 elements exceed one core's memories but fit 16 cores.
        let (a, b) = sets(20_000);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let mc = multicore_set_op(model, SetOpKind::Intersect, &a, &b, 16).unwrap();
        assert_eq!(mc.result, reference(SetOpKind::Intersect, &a, &b));
    }

    #[test]
    fn skewed_sets_still_partition_correctly() {
        let a: Vec<u32> = (0..10_000u32).collect();
        let b: Vec<u32> = (0..100u32).map(|i| i * 97).collect();
        let mc = multicore_set_op(
            ProcModel::Dba1LsuEis { partial: true },
            SetOpKind::Difference,
            &a,
            &b,
            6,
        )
        .unwrap();
        assert_eq!(mc.result, reference(SetOpKind::Difference, &a, &b));
    }

    #[test]
    fn faulted_core_retries_while_the_rest_run_clean() {
        use crate::runner::RecoveryPolicy;
        use dbx_faults::{FaultPlan, FaultTarget, ProtectionKind};
        let (a, b) = sets(4000);
        let model = ProcModel::Dba2LsuEis { partial: true };
        let clean = multicore_set_op(model, SetOpKind::Intersect, &a, &b, 4).unwrap();
        let opts = RunOptions {
            protection: Some(ProtectionKind::Parity),
            fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), 0, 23, 9)),
            policy: RecoveryPolicy::Retry { max_retries: 2 },
            watchdog: None,
            ..Default::default()
        };
        let mc = multicore_set_op_with(model, SetOpKind::Intersect, &a, &b, 4, &opts).unwrap();
        assert_eq!(mc.result, clean.result);
        assert_eq!(mc.retries, 1, "only the struck core retries");
        assert_eq!(mc.degraded_parts, 0);
        assert!(mc.faults.detected >= 1);
    }

    #[test]
    fn empty_run_reports_zero_speedup_and_throughput() {
        let mc = multicore_set_op(
            ProcModel::Dba2LsuEis { partial: true },
            SetOpKind::Intersect,
            &[],
            &[],
            4,
        )
        .unwrap();
        assert_eq!(mc.makespan_cycles, 0);
        assert_eq!(mc.speedup(), 0.0, "no NaN from an empty partition set");
        assert_eq!(mc.throughput_meps(0, 410.0), 0.0);
    }

    #[test]
    fn degenerate_frequency_reports_zero_throughput() {
        let (a, b) = sets(500);
        let mc = multicore_set_op(
            ProcModel::Dba2LsuEis { partial: true },
            SetOpKind::Union,
            &a,
            &b,
            2,
        )
        .unwrap();
        assert!(mc.makespan_cycles > 0);
        assert_eq!(mc.throughput_meps(1000, 0.0), 0.0);
        assert_eq!(mc.throughput_meps(1000, f64::NAN), 0.0);
        assert_eq!(mc.throughput_meps(1000, f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn single_core_is_the_degenerate_case() {
        let (a, b) = sets(1000);
        let mc = multicore_set_op(
            ProcModel::Dba2LsuEis { partial: true },
            SetOpKind::Union,
            &a,
            &b,
            1,
        )
        .unwrap();
        assert_eq!(mc.cores_used, 1);
        assert_eq!(mc.speedup(), 1.0);
    }
}
