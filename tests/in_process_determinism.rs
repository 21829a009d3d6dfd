//! Determinism inside one process: snapshot producers run repeatedly,
//! interleaved with each other, must emit identical bytes every time.
//! Process-global state (the program cache, the service's index cache)
//! persists between the runs, so a cache that serves stale data shows up
//! here as a byte difference even when every fresh process agrees with
//! the committed baselines.

use dbasip::harness::{bench, dse, observe, serve, table5, table6};

/// Serve snapshot JSON plus its Prometheus-text and JSON expositions.
fn serve_bytes() -> String {
    let s = serve::run(0.25);
    format!("{}\n{}\n{}", s.snapshot(), s.metrics(), s.metrics_json())
}

fn observe_bytes() -> String {
    observe::run(0.1).snapshot().to_string()
}

fn bench_bytes() -> String {
    bench::run(0.1).snapshot().to_string()
}

/// Tables 5 and 6 as `repro` prints them: published x86 constants beside
/// simulated DBA throughput, no host clock.
fn tables_bytes() -> String {
    table5::run(0.1).render() + &table6::run(0.1).render()
}

fn dse_bytes() -> String {
    dse::run().snapshot().to_string()
}

#[test]
fn repeated_snapshots_are_byte_identical_in_one_process() {
    let serve_first = serve_bytes();
    let observe_first = observe_bytes();
    let bench_first = bench_bytes();
    let dse_first = dse_bytes();
    let tables_first = tables_bytes();
    // Varied order: serve, tables, dse, observe, bench, tables, serve,
    // bench, dse, observe.
    assert_eq!(serve_bytes(), serve_first, "second serve run diverged");
    assert_eq!(tables_bytes(), tables_first, "second tables run diverged");
    assert_eq!(dse_bytes(), dse_first, "second dse run diverged");
    assert_eq!(
        observe_bytes(),
        observe_first,
        "second observe run diverged"
    );
    assert_eq!(bench_bytes(), bench_first, "second bench run diverged");
    assert_eq!(tables_bytes(), tables_first, "third tables run diverged");
    assert_eq!(serve_bytes(), serve_first, "third serve run diverged");
    assert_eq!(bench_bytes(), bench_first, "third bench run diverged");
    assert_eq!(dse_bytes(), dse_first, "third dse run diverged");
    assert_eq!(observe_bytes(), observe_first, "third observe run diverged");
}
