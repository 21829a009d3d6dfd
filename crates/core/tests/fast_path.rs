//! Golden-equivalence suite for the simulator's execution engine.
//!
//! Every run takes one loop over steps decoded once per program. The
//! golden table below pins that engine to recorded outputs — simulated
//! cycles plus an FNV-1a digest of the result words and the complete
//! [`dbx_cpu::RunStats`] — for every processor model, all three set
//! operations plus merge-sort, and three input seeds. The values were
//! recorded from the per-instruction reference interpreter the engine
//! replaced, so a change to any simulated number shows up here.
//!
//! Instrumented runs (observer attached, sampled or precise profiling,
//! an armed fault plan that never fires) must agree with the plain run
//! on everything the instrumentation is allowed to see.

use dbx_core::runner::{run_set_op_with, run_sort_with, KernelRun, RunOptions};
use dbx_core::{ProcModel, SetOpKind};
use dbx_cpu::ProfileMode;
use dbx_faults::{FaultPlan, FaultTarget};
use dbx_observe::Observer;

const SEEDS: [u64; 3] = [11, 1337, 90210];

/// `(model, operation, seed, cycles, digest)` for every cell, in the
/// iteration order of [`golden_cells_match_the_reference_interpreter`].
#[rustfmt::skip]
const GOLDEN: [(&str, &str, u64, u64, u64); 72] = [
    ("Mini108", "intersect", 11, 10089, 0xcc3b0f1e2a8c8b8b),
    ("Mini108", "intersect", 1337, 10576, 0x4c77bf7d587e2c01),
    ("Mini108", "intersect", 90210, 10586, 0xa346858755183e32),
    ("Mini108", "union", 11, 14219, 0x7dd5bc7602af436a),
    ("Mini108", "union", 1337, 14176, 0xc04df8f7f8394014),
    ("Mini108", "union", 90210, 14412, 0xf3a96cbd9202d5da),
    ("Mini108", "difference", 11, 12199, 0xb6ab1381da357467),
    ("Mini108", "difference", 1337, 12156, 0x404e25cb07b5cd5a),
    ("Mini108", "difference", 90210, 12392, 0x8d044cda9744c819),
    ("Mini108", "sort", 11, 32134, 0x2ab9c39784e38700),
    ("Mini108", "sort", 1337, 31995, 0xdda480b0b9e9b2dd),
    ("Mini108", "sort", 90210, 31939, 0x3e2ca56d173d7f84),
    ("Dba1Lsu", "intersect", 11, 7239, 0x5c6d56760022c097),
    ("Dba1Lsu", "intersect", 1337, 7516, 0x95bd712c9798c3be),
    ("Dba1Lsu", "intersect", 90210, 7616, 0xc1ba684ec21e6fa8),
    ("Dba1Lsu", "union", 11, 8879, 0x0a83bcab97faba83),
    ("Dba1Lsu", "union", 1337, 8896, 0x0f5939c227d504df),
    ("Dba1Lsu", "union", 90210, 9072, 0x8534500fd4e5d4e2),
    ("Dba1Lsu", "difference", 11, 8179, 0xf44fc2978658ecb2),
    ("Dba1Lsu", "difference", 1337, 8196, 0x1c2044d928b5493f),
    ("Dba1Lsu", "difference", 90210, 8372, 0xb23989996de212a4),
    ("Dba1Lsu", "sort", 11, 30214, 0xcebb9fd873255a71),
    ("Dba1Lsu", "sort", 1337, 30075, 0x2f08875b3205bf2f),
    ("Dba1Lsu", "sort", 90210, 30019, 0x933842ceceff576c),
    ("Dba1LsuEis { partial: false }", "intersect", 11, 610, 0x8db31fefbe534e21),
    ("Dba1LsuEis { partial: false }", "intersect", 1337, 610, 0x701783371377a2a8),
    ("Dba1LsuEis { partial: false }", "intersect", 90210, 610, 0xe08333dea138bb35),
    ("Dba1LsuEis { partial: false }", "union", 11, 885, 0x5a93d08e4aecd453),
    ("Dba1LsuEis { partial: false }", "union", 1337, 853, 0x46d39eab21d2b2fb),
    ("Dba1LsuEis { partial: false }", "union", 90210, 857, 0x433cd808ba4ef54c),
    ("Dba1LsuEis { partial: false }", "difference", 11, 687, 0x312e08355e5d01b1),
    ("Dba1LsuEis { partial: false }", "difference", 1337, 659, 0x9950c27979ee6c7f),
    ("Dba1LsuEis { partial: false }", "difference", 90210, 659, 0x77f4a7dbe646b7ff),
    ("Dba1LsuEis { partial: false }", "sort", 11, 3523, 0x4dffb046ad300e1b),
    ("Dba1LsuEis { partial: false }", "sort", 1337, 3523, 0x3bc69ff53442bdcd),
    ("Dba1LsuEis { partial: false }", "sort", 90210, 3523, 0xd68158581ee7eaf7),
    ("Dba2LsuEis { partial: false }", "intersect", 11, 416, 0xa3cb8755dd620922),
    ("Dba2LsuEis { partial: false }", "intersect", 1337, 416, 0x5224dec72c563853),
    ("Dba2LsuEis { partial: false }", "intersect", 90210, 416, 0xb9e082cd94e29862),
    ("Dba2LsuEis { partial: false }", "union", 11, 677, 0xc18d6edf608b6b11),
    ("Dba2LsuEis { partial: false }", "union", 1337, 653, 0xae638c4fbc320b54),
    ("Dba2LsuEis { partial: false }", "union", 90210, 656, 0xffcfbb2e4db3afb0),
    ("Dba2LsuEis { partial: false }", "difference", 11, 480, 0xe056125569349a0b),
    ("Dba2LsuEis { partial: false }", "difference", 1337, 459, 0x4d74db3f61ed6b66),
    ("Dba2LsuEis { partial: false }", "difference", 90210, 459, 0x7419a17d316baaca),
    ("Dba2LsuEis { partial: false }", "sort", 11, 3523, 0x4dffb046ad300e1b),
    ("Dba2LsuEis { partial: false }", "sort", 1337, 3523, 0x3bc69ff53442bdcd),
    ("Dba2LsuEis { partial: false }", "sort", 90210, 3523, 0xd68158581ee7eaf7),
    ("Dba1LsuEis { partial: true }", "intersect", 11, 416, 0x7e92afb30b1e126a),
    ("Dba1LsuEis { partial: true }", "intersect", 1337, 416, 0x66f1779aa2a12b53),
    ("Dba1LsuEis { partial: true }", "intersect", 90210, 416, 0x2a7db6b0562005aa),
    ("Dba1LsuEis { partial: true }", "union", 11, 627, 0x701e339ac041df1c),
    ("Dba1LsuEis { partial: true }", "union", 1337, 595, 0xbac908e4861cd7fc),
    ("Dba1LsuEis { partial: true }", "union", 90210, 599, 0xf62da6146fd5e566),
    ("Dba1LsuEis { partial: true }", "difference", 11, 493, 0xb1682f0e853c84bf),
    ("Dba1LsuEis { partial: true }", "difference", 1337, 465, 0xbe0112f73bbec368),
    ("Dba1LsuEis { partial: true }", "difference", 90210, 465, 0x567259aaf8628068),
    ("Dba1LsuEis { partial: true }", "sort", 11, 3523, 0x4dffb046ad300e1b),
    ("Dba1LsuEis { partial: true }", "sort", 1337, 3523, 0x3bc69ff53442bdcd),
    ("Dba1LsuEis { partial: true }", "sort", 90210, 3523, 0xd68158581ee7eaf7),
    ("Dba2LsuEis { partial: true }", "intersect", 11, 286, 0x03174af940a7d636),
    ("Dba2LsuEis { partial: true }", "intersect", 1337, 286, 0xc47d55ea636895f3),
    ("Dba2LsuEis { partial: true }", "intersect", 90210, 286, 0xefd9578ff658fe76),
    ("Dba2LsuEis { partial: true }", "union", 11, 483, 0x58cada0e3ba69161),
    ("Dba2LsuEis { partial: true }", "union", 1337, 459, 0x271e346f823d4119),
    ("Dba2LsuEis { partial: true }", "union", 90210, 462, 0x5ecc2ecbe25b9384),
    ("Dba2LsuEis { partial: true }", "difference", 11, 350, 0xaa022b82bba0a42d),
    ("Dba2LsuEis { partial: true }", "difference", 1337, 329, 0xc1d660b137322271),
    ("Dba2LsuEis { partial: true }", "difference", 90210, 329, 0x368dcf55b339ebd5),
    ("Dba2LsuEis { partial: true }", "sort", 11, 3523, 0x4dffb046ad300e1b),
    ("Dba2LsuEis { partial: true }", "sort", 1337, 3523, 0x3bc69ff53442bdcd),
    ("Dba2LsuEis { partial: true }", "sort", 90210, 3523, 0xd68158581ee7eaf7),
];

/// Deterministic xorshift — the suite must not depend on ambient RNG state.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A strictly increasing set of roughly `len` elements.
fn sorted_set(seed: u64, salt: u64, len: usize) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    let mut v = Vec::with_capacity(len);
    let mut cur = 0u32;
    for _ in 0..len {
        cur = cur.wrapping_add(1 + (next(&mut state) % 7) as u32);
        v.push(cur);
    }
    v
}

fn unsorted_data(seed: u64, len: usize) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
    (0..len)
        .map(|_| (next(&mut state) % 100_000) as u32)
        .collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a run's result words and its full `RunStats`.
fn digest(run: &KernelRun) -> u64 {
    let words = run.result.iter().flat_map(|w| w.to_le_bytes());
    let stats = format!("{:?}", run.stats).into_bytes();
    fnv1a(words.chain(stats))
}

fn assert_identical(plain: &KernelRun, other: &KernelRun, what: &str) {
    assert_eq!(plain.result, other.result, "{what}: result diverged");
    assert_eq!(plain.cycles, other.cycles, "{what}: cycle count diverged");
    assert_eq!(plain.stats, other.stats, "{what}: RunStats diverged");
    assert_eq!(
        plain.faults, other.faults,
        "{what}: fault counters diverged"
    );
    assert_eq!(plain.retries, other.retries, "{what}: retries diverged");
}

#[test]
fn golden_cells_match_the_reference_interpreter() {
    let opts = RunOptions::default();
    let mut cells = GOLDEN.iter();
    for model in ProcModel::all() {
        for op in ["intersect", "union", "difference", "sort"] {
            for seed in SEEDS {
                let run = match op {
                    "sort" => run_sort_with(model, &unsorted_data(seed, 256), &opts),
                    _ => {
                        let kind = match op {
                            "intersect" => SetOpKind::Intersect,
                            "union" => SetOpKind::Union,
                            _ => SetOpKind::Difference,
                        };
                        let a = sorted_set(seed, 1, 400);
                        let b = sorted_set(seed, 2, 350);
                        run_set_op_with(model, kind, &a, &b, &opts)
                    }
                }
                .unwrap();
                let cell = (format!("{model:?}"), op, seed);
                let &(g_model, g_op, g_seed, cycles, dig) =
                    cells.next().expect("golden table covers every cell");
                assert_eq!(cell, (g_model.to_string(), g_op, g_seed), "table order");
                assert_eq!(run.cycles, cycles, "{cell:?}: cycle count diverged");
                assert_eq!(
                    digest(&run),
                    dig,
                    "{cell:?}: result/RunStats digest diverged"
                );
                assert!(run.faults.is_zero() && run.retries == 0, "{cell:?}");
            }
        }
    }
    assert!(cells.next().is_none(), "golden table has stale rows");
}

/// An attached observer switches on precise profiling; the observed run
/// must agree with the plain run on everything the observer can see.
#[test]
fn observed_run_agrees_with_plain_run() {
    let model = ProcModel::Dba2LsuEis { partial: true };
    let a = sorted_set(1337, 1, 400);
    let b = sorted_set(1337, 2, 350);
    let plain =
        run_set_op_with(model, SetOpKind::Intersect, &a, &b, &RunOptions::default()).unwrap();
    let (observer, _sink) = Observer::memory();
    let observed = run_set_op_with(
        model,
        SetOpKind::Intersect,
        &a,
        &b,
        &RunOptions {
            observer,
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &observed, "observer attached");
    assert!(observed.profile.is_some(), "observed run profiles");
}

/// Sampled profiling leaves the run bit-identical to the unprofiled one,
/// and the sampled profile's attributed cycle total lands within one
/// period of the precise profiler's on the same inputs (the mode's
/// documented error bound).
#[test]
fn sampled_profiling_stays_within_its_error_bound() {
    let model = ProcModel::Dba2Lsu;
    let a = sorted_set(90210, 1, 400);
    let b = sorted_set(90210, 2, 350);
    let period = 64u64;

    let plain =
        run_set_op_with(model, SetOpKind::Intersect, &a, &b, &RunOptions::default()).unwrap();
    let sampled = run_set_op_with(
        model,
        SetOpKind::Intersect,
        &a,
        &b,
        &RunOptions {
            profile: ProfileMode::Sampled { period },
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &sampled, "sampled profiling");

    let sp = sampled.profile.expect("sampled run carries a profile");
    let precise = run_set_op_with(
        model,
        SetOpKind::Intersect,
        &a,
        &b,
        &RunOptions {
            profile: ProfileMode::Precise,
            ..Default::default()
        },
    )
    .unwrap();
    let pp = precise.profile.expect("precise run carries a profile");
    assert!(sp.total_cycles <= pp.total_cycles);
    assert!(
        pp.total_cycles - sp.total_cycles <= period,
        "sampled total {} must be within one period ({period}) of precise total {}",
        sp.total_cycles,
        pp.total_cycles
    );
    // The sampled weight map is sparse but non-empty, and every sampled
    // address is one the precise profiler also saw.
    let sampled_map = sp.weight_map();
    let precise_map = pp.weight_map();
    assert!(!sampled_map.is_empty());
    assert!(sampled_map.len() <= precise_map.len());
    for addr in sampled_map.keys() {
        assert!(
            precise_map.contains_key(addr),
            "sampled address {addr:#x} unknown to the precise profile"
        );
    }
}

/// An armed fault plan whose events never fire must leave the run
/// indistinguishable from the plain one.
#[test]
fn never_firing_fault_plan_agrees_with_plain_run() {
    let model = ProcModel::Dba1LsuEis { partial: false };
    let a = sorted_set(11, 1, 300);
    let b = sorted_set(11, 2, 300);
    let plain = run_set_op_with(model, SetOpKind::Union, &a, &b, &RunOptions::default()).unwrap();
    // Scheduled far beyond the kernel's runtime: armed, never fires.
    let plan = FaultPlan::new().with_bit_flip(FaultTarget::Dmem(0), u64::MAX, 0, 0);
    let armed = run_set_op_with(
        model,
        SetOpKind::Union,
        &a,
        &b,
        &RunOptions {
            fault_plan: Some(plan),
            ..Default::default()
        },
    )
    .unwrap();
    assert_identical(&plain, &armed, "armed-but-idle fault plan");
}
