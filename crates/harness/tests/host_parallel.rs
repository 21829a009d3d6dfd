//! Host threads and simulated cores, end to end.
//!
//! Host threads fan out `repro bench` sweep points only, and the suite
//! must come out **bit-identical** whatever the worker count. Inside one
//! multicore run the simulated cores run in core order on the calling
//! thread; the observed trace of such a run is pinned here too.

use dbx_core::multicore::multicore_set_op_with;
use dbx_core::{HostSched, ProcModel, RunOptions, SetOpKind};
use dbx_observe::{ArgValue, Observer, TrackId};
use dbx_workloads::set_pair_with_selectivity;

const SEED: u64 = 0xdecade;
const MODEL: ProcModel = ProcModel::Dba2LsuEis { partial: true };

#[test]
fn an_observed_multicore_run_records_one_track_per_core() {
    let (a, b) = set_pair_with_selectivity(1200, 1000, 0.4, SEED);
    let (obs, sink) = Observer::memory();
    let opts = RunOptions {
        observer: obs,
        ..RunOptions::default()
    };
    let run =
        multicore_set_op_with(MODEL, SetOpKind::Union, &a, &b, 8, &opts).expect("multicore run");
    let sink = sink.borrow();

    assert_eq!(run.per_core_cycles.len(), 8);
    for (i, &cycles) in run.per_core_cycles.iter().enumerate() {
        let track = TrackId::Core(i as u32);
        assert!(cycles > 0, "core {i} got no work");
        assert_eq!(sink.track_cycles(track, "kernel"), cycles, "core {i}");
    }
    let on_cores = sink
        .spans_of("kernel")
        .all(|s| matches!(s.track, TrackId::Core(i) if (i as usize) < 8));
    assert!(on_cores, "every kernel span lies on a core track");

    let host: Vec<_> = sink
        .spans
        .iter()
        .filter(|s| s.track == TrackId::Host)
        .collect();
    assert_eq!(host.len(), 1, "one Host-track span: {host:?}");
    let span = host[0];
    assert_eq!(
        (span.name.as_str(), span.dur),
        ("multicore", run.makespan_cycles)
    );
    let arg = |key| span.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
    assert_eq!(arg("cores"), Some(&ArgValue::U64(8)));
    assert_eq!(arg("total_cycles"), Some(&ArgValue::U64(run.total_cycles)));
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
