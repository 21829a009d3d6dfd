//! Determinism of the host-parallel shard scheduler, end to end.
//!
//! The contract: running any fan-out layer — the multicore partitioner,
//! the paper-figure bench suite — on host threads must produce output
//! **bit-identical** to the sequential path. That covers results, cycle
//! counts, fault accounting, *and* the recorded trace (span order,
//! per-track clocks), across seeds and set operations.

use dbx_core::multicore::multicore_set_op_with;
use dbx_core::{HostSched, ProcModel, RunOptions, SetOpKind};
use dbx_observe::{Observer, TraceSink};
use dbx_workloads::set_pair_with_selectivity;

const SEEDS: [u64; 3] = [0x1, 0xdecade, 0xfeed_f00d];
const OPS: [SetOpKind; 3] = [
    SetOpKind::Intersect,
    SetOpKind::Union,
    SetOpKind::Difference,
];
const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };

/// One observed multicore run on the given scheduler.
fn observed_run(
    kind: SetOpKind,
    seed: u64,
    cores: usize,
    sched: HostSched,
) -> (dbx_core::multicore::MultiCoreRun, TraceSink) {
    let (a, b) = set_pair_with_selectivity(1200, 1000, 0.4, seed);
    let (obs, sink) = Observer::memory();
    let opts = RunOptions {
        observer: obs,
        sched,
        ..RunOptions::default()
    };
    let run = multicore_set_op_with(MODEL, kind, &a, &b, cores, &opts).expect("multicore run");
    drop(opts);
    let sink = std::rc::Rc::try_unwrap(sink)
        .expect("all observers dropped")
        .into_inner();
    (run, sink)
}

#[test]
fn multicore_parallel_is_bit_identical_to_sequential() {
    for seed in SEEDS {
        for kind in OPS {
            let (seq, seq_sink) = observed_run(kind, seed, 8, HostSched::Sequential);
            let (par, par_sink) = observed_run(kind, seed, 8, HostSched::Parallel { threads: 4 });

            let label = format!("{} seed={seed:#x}", kind.name());
            assert_eq!(seq.result, par.result, "result drifted: {label}");
            assert_eq!(
                seq.makespan_cycles, par.makespan_cycles,
                "makespan drifted: {label}"
            );
            assert_eq!(
                seq.per_core_cycles, par.per_core_cycles,
                "per-core cycles drifted: {label}"
            );
            assert_eq!(seq.total_cycles, par.total_cycles, "work drifted: {label}");
            assert_eq!(seq.retries, par.retries, "retries drifted: {label}");
            assert_eq!(seq.faults, par.faults, "faults drifted: {label}");

            // The recorded trace — span order, starts, durations, args,
            // counters — must match to the bit as well.
            assert_eq!(seq_sink.spans, par_sink.spans, "spans drifted: {label}");
            assert_eq!(
                seq_sink.counters, par_sink.counters,
                "counters drifted: {label}"
            );
            assert_eq!(seq_sink.tracks(), par_sink.tracks(), "tracks: {label}");
        }
    }
}

#[test]
fn thread_count_never_changes_the_trace() {
    // 1, 2, 3 and "all host cores" workers all reduce to the same trace.
    let (base, base_sink) = observed_run(SetOpKind::Union, 0xabc, 6, HostSched::Sequential);
    for threads in [1, 2, 3, 0] {
        let (run, sink) = observed_run(SetOpKind::Union, 0xabc, 6, HostSched::Parallel { threads });
        assert_eq!(base.result, run.result, "threads={threads}");
        assert_eq!(
            base.makespan_cycles, run.makespan_cycles,
            "threads={threads}"
        );
        assert_eq!(base_sink.spans, sink.spans, "threads={threads}");
    }
}

#[test]
fn bench_suite_is_thread_independent() {
    let at = |sched| dbx_harness::bench::run(0.02, sched);
    let seq = at(HostSched::Sequential);
    for threads in [2, 3, 4] {
        let par = at(HostSched::Parallel { threads });
        assert_eq!(seq, par, "suite drifted at {threads} threads");
        assert_eq!(
            seq.snapshot().to_string(),
            par.snapshot().to_string(),
            "BENCH_perf.json must not depend on host threads"
        );
        assert_eq!(seq.render(), par.render());
        assert_eq!(seq.folded().render(), par.folded().render());
    }
}
