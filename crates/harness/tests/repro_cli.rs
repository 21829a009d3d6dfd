//! The `repro` command line: malformed flags exit 2 with a message
//! instead of being ignored or panicking, unreadable files exit 1 naming
//! the path, and `repro diff` / `--check` gate the committed snapshots.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("run repro")
}

/// Runs `repro`, asserting its exit code, and returns its stderr.
fn exits(code: i32, args: &[&str]) -> String {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "repro {args:?}: {stderr}");
    stderr
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    let err = exits(2, &["dse", "--json", "--check"]);
    assert!(err.contains("--check needs a value"), "{err}");
}

#[test]
fn a_flag_followed_by_another_flag_is_a_usage_error() {
    let err = exits(2, &["dse", "--check", "--json"]);
    assert!(err.contains("--check needs a value"), "{err}");
}

#[test]
fn an_unparsable_scale_is_a_usage_error() {
    let err = exits(
        2,
        &["serve", "--scale", "abc", "--check", "BENCH_serve.json"],
    );
    assert!(err.contains("abc"), "{err}");
    exits(2, &["serve", "--scale", "-1"]);
}

#[test]
fn an_unparsable_thread_count_is_a_usage_error() {
    let err = exits(2, &["bench", "--threads", "abc"]);
    assert!(err.contains("abc"), "{err}");
    // The environment fallback is parsed by the flag's rules.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--scale", "0.01"])
        .env("DBX_HOST_THREADS", "abc")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("run repro");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("DBX_HOST_THREADS") && err.contains("abc"),
        "{err}"
    );
}

#[test]
fn an_unreadable_baseline_exits_1_naming_the_path() {
    let err = exits(1, &["dse", "--check", "no/such/baseline.json"]);
    assert!(err.contains("no/such/baseline.json"), "{err}");
}

#[test]
fn a_malformed_baseline_exits_1_naming_the_path() {
    let err = exits(1, &["dse", "--check", "Cargo.toml"]);
    assert!(err.contains("Cargo.toml"), "{err}");
}

#[test]
fn the_committed_dse_baseline_passes_its_gate() {
    let err = exits(0, &["dse", "--check", "DSE_baseline.json"]);
    assert!(err.contains("0 regressed"), "{err}");
}

#[test]
fn diff_exits_0_on_identical_snapshots_and_1_on_any_change() {
    exits(0, &["diff", "BENCH_perf.json", "BENCH_perf.json"]);
    // A copy of the baseline with one ungated value edited.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text = std::fs::read_to_string(format!("{root}/BENCH_perf.json")).unwrap();
    let key = "\"perf/ratio/cores_speedup_max\":{\"value\":";
    let at = text.find(key).expect("ratio key") + key.len();
    let edited = format!("{}1{}", &text[..at], &text[at..]);
    let path = std::env::temp_dir().join(format!("repro_cli_diff_{}.json", std::process::id()));
    std::fs::write(&path, edited).unwrap();
    let out = repro(&["diff", "BENCH_perf.json", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("perf/ratio/cores_speedup_max"), "{stdout}");
    assert!(stdout.contains("1 changed, 0 regressed"), "{stdout}");
}

#[test]
fn diff_needs_two_readable_files() {
    exits(2, &["diff", "BENCH_perf.json"]);
    let err = exits(1, &["diff", "BENCH_perf.json", "no/such/file.json"]);
    assert!(err.contains("no/such/file.json"), "{err}");
}
