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

use dbx_core::runner::{run_set_op_with, run_sort_with, set_layout, KernelRun, RunOptions};
use dbx_core::stream::{stream_set_op, StreamConfig};
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

/// The EIS models only: the edge cells below pin the extension's lane,
/// FIFO and window paths, which the scalar models never reach.
const EIS_MODELS: [ProcModel; 4] = [
    ProcModel::Dba1LsuEis { partial: false },
    ProcModel::Dba2LsuEis { partial: false },
    ProcModel::Dba1LsuEis { partial: true },
    ProcModel::Dba2LsuEis { partial: true },
];

const KINDS: [SetOpKind; 3] = [
    SetOpKind::Intersect,
    SetOpKind::Union,
    SetOpKind::Difference,
];

/// The largest `(a_len, b_len)` with `a_len == 2 * b_len` (2-LSU) or
/// `a_len == b_len` (1-LSU) that [`set_layout`] accepts: one element more
/// on either side is rejected.
fn largest_sets(model: ProcModel) -> (usize, usize) {
    let (a, b) = match model {
        ProcModel::Dba2LsuEis { .. } => (4096, 2048),
        _ => (4096, 4096),
    };
    assert!(set_layout(model, a, b).is_ok(), "{model:?}: {a}+{b} fits");
    assert!(
        set_layout(model, a + 1, b).is_err(),
        "{model:?}: A+1 rejected"
    );
    assert!(
        set_layout(model, a, b + 1).is_err(),
        "{model:?}: B+1 rejected"
    );
    (a as usize, b as usize)
}

/// The edge-shape inputs of one cell: set tails of every length mod 4,
/// selectivity 0 (disjoint) and 1 (identical), one empty input, and the
/// largest sets the model's layout accepts.
fn edge_sets(model: ProcModel, shape: &str) -> (Vec<u32>, Vec<u32>) {
    match shape {
        "tail0" | "tail1" | "tail2" | "tail3" => {
            let t = shape.as_bytes()[4] - b'0';
            let a = sorted_set(7, 1, 400 + t as usize);
            let b = sorted_set(7, 2, 353 - t as usize);
            (a, b)
        }
        "sel0" => {
            let a = sorted_set(5, 1, 301).iter().map(|v| 2 * v).collect();
            let b = sorted_set(5, 2, 299).iter().map(|v| 2 * v + 1).collect();
            (a, b)
        }
        "sel1" => {
            let a = sorted_set(3, 1, 298);
            (a.clone(), a)
        }
        "empty" => (Vec::new(), sorted_set(9, 2, 205)),
        "max" => {
            let (na, nb) = largest_sets(model);
            (sorted_set(13, 1, na), sorted_set(13, 2, nb))
        }
        _ => unreachable!("unknown shape {shape}"),
    }
}

const EDGE_SHAPES: [&str; 8] = [
    "tail0", "tail1", "tail2", "tail3", "sel0", "sel1", "empty", "max",
];

/// `(model, operation, shape, cycles, digest)` for every edge cell, in the
/// iteration order of [`eis_edge_cells_match_the_recorded_engine`],
/// recorded before the extension's lane, FIFO and window paths were last
/// rewritten for host speed.
#[rustfmt::skip]
const EDGE_GOLDEN: [(&str, &str, &str, u64, u64); 96] = [
    ("Dba1LsuEis { partial: false }", "intersect", "tail0", 610, 0x4e8fb9cf2bc4bfc4),
    ("Dba1LsuEis { partial: false }", "intersect", "tail1", 610, 0x04eda3932dd5464e),
    ("Dba1LsuEis { partial: false }", "intersect", "tail2", 610, 0xb1046ff853942c33),
    ("Dba1LsuEis { partial: false }", "intersect", "tail3", 610, 0x5f1e97c641cb68b7),
    ("Dba1LsuEis { partial: false }", "intersect", "sel0", 513, 0x3e86dc1009464b5a),
    ("Dba1LsuEis { partial: false }", "intersect", "sel1", 319, 0x04c3a32525a6c585),
    ("Dba1LsuEis { partial: false }", "intersect", "empty", 119, 0x50346c6f96e40a08),
    ("Dba1LsuEis { partial: false }", "intersect", "max", 6042, 0xf88b5c61a9dabab0),
    ("Dba1LsuEis { partial: false }", "union", "tail0", 841, 0xeda15f4da961a7b3),
    ("Dba1LsuEis { partial: false }", "union", "tail1", 841, 0xdb6b4383993ecbbf),
    ("Dba1LsuEis { partial: false }", "union", "tail2", 845, 0x4d7fadb5172a8693),
    ("Dba1LsuEis { partial: false }", "union", "tail3", 845, 0x76a93a30a0494c72),
    ("Dba1LsuEis { partial: false }", "union", "sel0", 687, 0x80f1833a1f2d6f36),
    ("Dba1LsuEis { partial: false }", "union", "sel1", 429, 0x67f3f4c03789e775),
    ("Dba1LsuEis { partial: false }", "union", "empty", 363, 0x5a1267f403eb2b17),
    ("Dba1LsuEis { partial: false }", "union", "max", 8050, 0x9f9d182169d1d25e),
    ("Dba1LsuEis { partial: false }", "difference", "tail0", 643, 0xb6e69e5c2124da01),
    ("Dba1LsuEis { partial: false }", "difference", "tail1", 647, 0x2d4e7697c05bf2c2),
    ("Dba1LsuEis { partial: false }", "difference", "tail2", 651, 0x8d17967755a0f7d3),
    ("Dba1LsuEis { partial: false }", "difference", "tail3", 655, 0x3c235e27855c14dd),
    ("Dba1LsuEis { partial: false }", "difference", "sel0", 518, 0x85c2e688b57cab82),
    ("Dba1LsuEis { partial: false }", "difference", "sel1", 330, 0x6b62032ca28a0cd3),
    ("Dba1LsuEis { partial: false }", "difference", "empty", 124, 0x02913d65120817d3),
    ("Dba1LsuEis { partial: false }", "difference", "max", 6047, 0x361723b9ef6de633),
    ("Dba2LsuEis { partial: false }", "intersect", "tail0", 416, 0x3045d7d8ebb0c74b),
    ("Dba2LsuEis { partial: false }", "intersect", "tail1", 416, 0x52da080fbf9e333d),
    ("Dba2LsuEis { partial: false }", "intersect", "tail2", 416, 0x93e0b28d13bb8408),
    ("Dba2LsuEis { partial: false }", "intersect", "tail3", 416, 0xbea05c0298a3a30c),
    ("Dba2LsuEis { partial: false }", "intersect", "sel0", 351, 0x3d4ff3e38a938f38),
    ("Dba2LsuEis { partial: false }", "intersect", "sel1", 221, 0xa739d3b46119c83c),
    ("Dba2LsuEis { partial: false }", "intersect", "empty", 85, 0xdb7d3ad876a32ffe),
    ("Dba2LsuEis { partial: false }", "intersect", "max", 2106, 0xb3ea9d6ec99548f4),
    ("Dba2LsuEis { partial: false }", "union", "tail0", 644, 0xc0949e3f0d605262),
    ("Dba2LsuEis { partial: false }", "union", "tail1", 644, 0x290dca029c44df32),
    ("Dba2LsuEis { partial: false }", "union", "tail2", 647, 0x97712b74fd2829e0),
    ("Dba2LsuEis { partial: false }", "union", "tail3", 647, 0xe58e94daf22278d1),
    ("Dba2LsuEis { partial: false }", "union", "sel0", 525, 0xfe89a49dbb93c88a),
    ("Dba2LsuEis { partial: false }", "union", "sel1", 331, 0x3dfdf4e92fa97593),
    ("Dba2LsuEis { partial: false }", "union", "empty", 329, 0x7cf024546d0536cc),
    ("Dba2LsuEis { partial: false }", "union", "max", 4672, 0x4b391f79b4f4faad),
    ("Dba2LsuEis { partial: false }", "difference", "tail0", 447, 0x835f5f184f934cab),
    ("Dba2LsuEis { partial: false }", "difference", "tail1", 450, 0x7ddec7d71e12de51),
    ("Dba2LsuEis { partial: false }", "difference", "tail2", 453, 0x3646c23f698f063d),
    ("Dba2LsuEis { partial: false }", "difference", "tail3", 456, 0x6a7a13c9a2111f9f),
    ("Dba2LsuEis { partial: false }", "difference", "sel0", 356, 0xe8e5dc2e2590ba38),
    ("Dba2LsuEis { partial: false }", "difference", "sel1", 231, 0x639f5b58f7b06eee),
    ("Dba2LsuEis { partial: false }", "difference", "empty", 90, 0x19db6a475ac421dc),
    ("Dba2LsuEis { partial: false }", "difference", "max", 3646, 0x8787044bc8715bec),
    ("Dba1LsuEis { partial: true }", "intersect", "tail0", 416, 0x9d517013c6a3d6cb),
    ("Dba1LsuEis { partial: true }", "intersect", "tail1", 416, 0x15f6045accb7eb0d),
    ("Dba1LsuEis { partial: true }", "intersect", "tail2", 416, 0xfacd0b8fbc0504b0),
    ("Dba1LsuEis { partial: true }", "intersect", "tail3", 416, 0x62ef0615d7ce6b2c),
    ("Dba1LsuEis { partial: true }", "intersect", "sel0", 319, 0x9b10ce5413b550b7),
    ("Dba1LsuEis { partial: true }", "intersect", "sel1", 319, 0x04c3a32525a6c585),
    ("Dba1LsuEis { partial: true }", "intersect", "empty", 119, 0x50346c6f96e40a08),
    ("Dba1LsuEis { partial: true }", "intersect", "max", 3811, 0x2a7370a36cb9c084),
    ("Dba1LsuEis { partial: true }", "union", "tail0", 583, 0x9c2d187790b4dea4),
    ("Dba1LsuEis { partial: true }", "union", "tail1", 583, 0x03e10850872553b8),
    ("Dba1LsuEis { partial: true }", "union", "tail2", 587, 0x8847c68f48f05744),
    ("Dba1LsuEis { partial: true }", "union", "tail3", 587, 0xb788f3cb474cc9cb),
    ("Dba1LsuEis { partial: true }", "union", "sel0", 429, 0xa5a64955776bf4c1),
    ("Dba1LsuEis { partial: true }", "union", "sel1", 429, 0x67f3f4c03789e775),
    ("Dba1LsuEis { partial: true }", "union", "empty", 363, 0x5a1267f403eb2b17),
    ("Dba1LsuEis { partial: true }", "union", "max", 5083, 0xfd4aad40ba1c319e),
    ("Dba1LsuEis { partial: true }", "difference", "tail0", 449, 0xfe7b7bff398cc5f4),
    ("Dba1LsuEis { partial: true }", "difference", "tail1", 453, 0xa65d95aeb18f9802),
    ("Dba1LsuEis { partial: true }", "difference", "tail2", 457, 0x1f3ce471410897e8),
    ("Dba1LsuEis { partial: true }", "difference", "tail3", 461, 0x8f3373aeb94f29e5),
    ("Dba1LsuEis { partial: true }", "difference", "sel0", 324, 0xf5b570b8cda52a1c),
    ("Dba1LsuEis { partial: true }", "difference", "sel1", 330, 0x6b62032ca28a0cd3),
    ("Dba1LsuEis { partial: true }", "difference", "empty", 124, 0x02913d65120817d3),
    ("Dba1LsuEis { partial: true }", "difference", "max", 3816, 0xe1d25b0a8242dfd8),
    ("Dba2LsuEis { partial: true }", "intersect", "tail0", 286, 0xe18f4cbb611d83b3),
    ("Dba2LsuEis { partial: true }", "intersect", "tail1", 286, 0xa15d8f90554b5c9d),
    ("Dba2LsuEis { partial: true }", "intersect", "tail2", 286, 0xd5ceaa1b835b3744),
    ("Dba2LsuEis { partial: true }", "intersect", "tail3", 286, 0x5f9685f531d0b9d8),
    ("Dba2LsuEis { partial: true }", "intersect", "sel0", 221, 0xd28bfa48991f1296),
    ("Dba2LsuEis { partial: true }", "intersect", "sel1", 221, 0xa739d3b46119c83c),
    ("Dba2LsuEis { partial: true }", "intersect", "empty", 85, 0xdb7d3ad876a32ffe),
    ("Dba2LsuEis { partial: true }", "intersect", "max", 1326, 0xdedb9f54039204b9),
    ("Dba2LsuEis { partial: true }", "union", "tail0", 450, 0xa9be10e796b3ea31),
    ("Dba2LsuEis { partial: true }", "union", "tail1", 450, 0xf2387f648d6b2311),
    ("Dba2LsuEis { partial: true }", "union", "tail2", 453, 0x8e2b08d466574400),
    ("Dba2LsuEis { partial: true }", "union", "tail3", 453, 0x0a316b0b74ec09c1),
    ("Dba2LsuEis { partial: true }", "union", "sel0", 331, 0xb534112be59d3441),
    ("Dba2LsuEis { partial: true }", "union", "sel1", 331, 0x3dfdf4e92fa97593),
    ("Dba2LsuEis { partial: true }", "union", "empty", 329, 0x7cf024546d0536cc),
    ("Dba2LsuEis { partial: true }", "union", "max", 3508, 0x1c2e0fb4c2864634),
    ("Dba2LsuEis { partial: true }", "difference", "tail0", 317, 0xa63fe31ed730bbac),
    ("Dba2LsuEis { partial: true }", "difference", "tail1", 320, 0x497f1ba4e525d9f6),
    ("Dba2LsuEis { partial: true }", "difference", "tail2", 323, 0x9f38bdd9676fa41b),
    ("Dba2LsuEis { partial: true }", "difference", "tail3", 326, 0xe7be4db61f8791e6),
    ("Dba2LsuEis { partial: true }", "difference", "sel0", 226, 0x024dcd25bbcddef2),
    ("Dba2LsuEis { partial: true }", "difference", "sel1", 231, 0x639f5b58f7b06eee),
    ("Dba2LsuEis { partial: true }", "difference", "empty", 90, 0x19db6a475ac421dc),
    ("Dba2LsuEis { partial: true }", "difference", "max", 2866, 0x000ffab4aea1b139),
];

#[test]
fn eis_edge_cells_match_the_recorded_engine() {
    let opts = RunOptions::default();
    let mut cells = EDGE_GOLDEN.iter();
    for model in EIS_MODELS {
        for kind in KINDS {
            for shape in EDGE_SHAPES {
                let (a, b) = edge_sets(model, shape);
                let run = run_set_op_with(model, kind, &a, &b, &opts).unwrap();
                let cell = (format!("{model:?}"), kind.name(), shape);
                let &(g_model, g_op, g_shape, cycles, dig) =
                    cells.next().expect("edge table covers every cell");
                assert_eq!(cell, (g_model.to_string(), g_op, g_shape), "table order");
                assert_eq!(run.cycles, cycles, "{cell:?}: cycle count diverged");
                assert_eq!(
                    digest(&run),
                    dig,
                    "{cell:?}: result/RunStats digest diverged"
                );
            }
        }
    }
    assert!(cells.next().is_none(), "edge table has stale rows");
}

/// `(operation, total cycles, digest of the whole StreamRun)` for a
/// streamed run whose value-aligned chunks start mid-beat in their
/// buffers (the DMA rounds each chunk's source down to a 16-byte beat).
#[rustfmt::skip]
const STREAM_GOLDEN: [(&str, u64, u64); 3] = [
    ("intersect", 1904, 0x9f99bf948000099b),
    ("union", 2427, 0xbdd64f5805b5ce6b),
    ("difference", 2177, 0xaeb5229a9616342e),
];

#[test]
fn streamed_chunks_starting_mid_beat_match_the_recorded_engine() {
    let a = sorted_set(21, 1, 1003);
    let b = sorted_set(21, 2, 901);
    let cfg = StreamConfig {
        chunk_elems: 101,
        unroll: 16,
    };
    let mut cells = STREAM_GOLDEN.iter();
    for kind in KINDS {
        let run = stream_set_op(kind, &a, &b, cfg).unwrap();
        assert!(run.chunks > 8, "{kind:?}: the inputs span many chunks");
        let dig = fnv1a(format!("{run:?}").into_bytes());
        let &(g_op, cycles, g_dig) = cells.next().expect("stream table covers every kind");
        assert_eq!(kind.name(), g_op, "table order");
        assert_eq!(run.total_cycles, cycles, "{g_op}: cycle count diverged");
        assert_eq!(dig, g_dig, "{g_op}: StreamRun digest diverged");
    }
    assert!(cells.next().is_none(), "stream table has stale rows");
}

/// `DRAIN_B` after a `SOP` that retired window-B lanes, then more
/// `LD_P`s: the drained window has nothing left to retire, so the next
/// refill starts from an empty window and the one after it fills the
/// window from load buffer B. If `DRAIN_*` left the pending retire count
/// in place, the first `LD_P` would retire lanes the window no longer
/// holds: a debug panic, and a wrapped window count in release.
#[test]
fn ld_p_after_drain_refills_an_empty_window() {
    use dbx_core::opcodes as op;
    use dbx_cpu::isa::regs::*;
    use dbx_cpu::{ExtOp, OpArgs, ProgramBuilder, DMEM0_BASE, DMEM1_BASE};

    let ext = |b: &mut ProgramBuilder, opcode: u16, r: u8, s: u8| {
        b.ext(ExtOp {
            op: opcode,
            args: OpArgs { r, s, imm: 0 },
        });
    };
    let c_base = DMEM1_BASE + 0x100;
    let mut b = ProgramBuilder::new();
    b.movi(A2, DMEM0_BASE as i32);
    b.movi(A3, (DMEM0_BASE + 64) as i32);
    b.movi(A4, DMEM1_BASE as i32);
    b.movi(A5, (DMEM1_BASE + 64) as i32);
    b.movi(A6, c_base as i32);
    ext(&mut b, op::INIT, 0, 0);
    for (opcode, s) in [
        (op::WUR_PTR_A, 2),
        (op::WUR_END_A, 3),
        (op::WUR_PTR_B, 4),
        (op::WUR_END_B, 5),
        (op::WUR_PTR_C, 6),
    ] {
        ext(&mut b, opcode, 0, s);
    }
    for _ in 0..3 {
        ext(&mut b, op::LD_LDP_SHUFFLE, 0, 0);
    }
    // Both windows hold 1..=4: the union retires all of them.
    ext(&mut b, op::STORE_SOP_UNION, 7, 0);
    ext(&mut b, op::DRAIN_B, 0, 0);
    ext(&mut b, op::LD_LDP_SHUFFLE, 0, 0);
    ext(&mut b, op::LD_LDP_SHUFFLE, 0, 0);
    ext(&mut b, op::RUR_FIFO_CNT, 8, 0);
    // Window A holds 5..=8, window B the final beat 13..=16.
    ext(&mut b, op::STORE_SOP_UNION, 9, 0);
    ext(&mut b, op::ST_S, 0, 0);
    ext(&mut b, op::RUR_FIFO_CNT, 10, 0);
    ext(&mut b, op::RUR_OUT_CNT, 11, 0);
    b.halt();

    let model = ProcModel::Dba2LsuEis { partial: true };
    let mut p = dbx_core::runner::build_processor(model).unwrap();
    p.load_program(b.build().unwrap()).unwrap();
    let set: Vec<u32> = (1..=16).collect();
    p.mem.poke_words(DMEM0_BASE, &set).unwrap();
    p.mem.poke_words(DMEM1_BASE, &set).unwrap();
    let stats = p.run(1_000).unwrap();
    assert_eq!(stats.cycles, 24);
    assert_eq!((p.ar[7], p.ar[9]), (1, 1), "both union steps continue");
    // The drained B tail 5..=12, then the first union's 1..=4.
    assert_eq!(p.ar[8], 12, "store FIFO after the drain");
    // One beat (5..=8) stored, the second union's 5..=8 shuffled in: the
    // B lanes 13..=16 lie past A's max and stay in the window.
    assert_eq!((p.ar[10], p.ar[11]), (12, 4), "FIFO and output count");
    assert_eq!(p.mem.peek_words(c_base, 4).unwrap(), vec![5, 6, 7, 8]);
}
