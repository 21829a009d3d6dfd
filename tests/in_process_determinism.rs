//! Determinism inside one process: snapshot producers run repeatedly,
//! interleaved with each other, must emit identical bytes every time.
//! Process-global state (the program cache, the service's index cache)
//! persists between the runs, so a cache that serves stale data shows up
//! here as a byte difference even when every fresh process agrees with
//! the committed baselines.

use dbasip::harness::{observe, serve};

/// Serve snapshot JSON plus its Prometheus-text and JSON expositions.
fn serve_bytes() -> String {
    let s = serve::run(0.25);
    format!(
        "{}\n{}\n{}",
        s.snapshot.to_json(),
        s.metrics(),
        s.metrics_json()
    )
}

fn observe_bytes() -> String {
    observe::run(0.1).snapshot().to_json()
}

#[test]
fn repeated_snapshots_are_byte_identical_in_one_process() {
    let serve_first = serve_bytes();
    let observe_first = observe_bytes();
    // Varied order: serve, observe, serve, serve, observe.
    assert_eq!(serve_bytes(), serve_first, "second serve run diverged");
    assert_eq!(serve_bytes(), serve_first, "third serve run diverged");
    assert_eq!(
        observe_bytes(),
        observe_first,
        "second observe run diverged"
    );
}
