//! Property-based cross-model equivalence: every processor configuration
//! (scalar baselines, all EIS wirings, and the streamed prefetcher path)
//! must compute exactly the same set operations and sorts as a host-side
//! reference, for arbitrary inputs.

use dbasip::dbisa::stream::{stream_set_op, StreamConfig};
use dbasip::dbisa::{run_set_op, run_sort, ProcModel, SetOpKind};
use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn sorted_set_strategy(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    btree_set(0u32..u32::MAX - 1, 0..max_len).prop_map(|s| s.into_iter().collect())
}

/// A denser variant: values clustered in a small range so overlaps and
/// long equal stretches actually occur.
fn dense_set_strategy(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    btree_set(0u32..2048, 0..max_len).prop_map(|s| s.into_iter().collect())
}

fn reference(kind: SetOpKind, a: &[u32], b: &[u32]) -> Vec<u32> {
    let sa: BTreeSet<u32> = a.iter().copied().collect();
    let sb: BTreeSet<u32> = b.iter().copied().collect();
    match kind {
        SetOpKind::Intersect => sa.intersection(&sb).copied().collect(),
        SetOpKind::Union => sa.union(&sb).copied().collect(),
        SetOpKind::Difference => sa.difference(&sb).copied().collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_models_agree_on_sparse_sets(
        a in sorted_set_strategy(120),
        b in sorted_set_strategy(120),
    ) {
        for kind in [SetOpKind::Intersect, SetOpKind::Union, SetOpKind::Difference] {
            let expect = reference(kind, &a, &b);
            for model in ProcModel::all() {
                let r = run_set_op(model, kind, &a, &b).unwrap();
                prop_assert_eq!(&r.result, &expect, "{} {:?}", model.name(), kind);
            }
        }
    }

    #[test]
    fn all_models_agree_on_dense_sets(
        a in dense_set_strategy(150),
        b in dense_set_strategy(150),
    ) {
        for kind in [SetOpKind::Intersect, SetOpKind::Union, SetOpKind::Difference] {
            let expect = reference(kind, &a, &b);
            for model in [
                ProcModel::Dba1LsuEis { partial: true },
                ProcModel::Dba1LsuEis { partial: false },
                ProcModel::Dba2LsuEis { partial: true },
                ProcModel::Dba2LsuEis { partial: false },
            ] {
                let r = run_set_op(model, kind, &a, &b).unwrap();
                prop_assert_eq!(&r.result, &expect, "{} {:?}", model.name(), kind);
            }
        }
    }

    #[test]
    fn streamed_execution_agrees(
        a in dense_set_strategy(400),
        b in dense_set_strategy(400),
    ) {
        for kind in [SetOpKind::Intersect, SetOpKind::Union, SetOpKind::Difference] {
            let expect = reference(kind, &a, &b);
            let cfg = StreamConfig { chunk_elems: 64, unroll: 4 };
            let r = stream_set_op(kind, &a, &b, cfg).unwrap();
            prop_assert_eq!(&r.result, &expect, "{:?}", kind);
        }
    }

    #[test]
    fn all_models_sort_arbitrary_data(data in pvec(any::<u32>(), 0..300)) {
        let mut expect = data.clone();
        expect.sort_unstable();
        // Sentinel-heavy non-multiple-of-4 inputs are rejected by design;
        // make the length a multiple of 4 when MAX appears.
        let mut data = data;
        if data.contains(&u32::MAX) {
            while data.len() % 4 != 0 {
                data.pop();
            }
            expect = data.clone();
            expect.sort_unstable();
        }
        for model in ProcModel::all() {
            let r = run_sort(model, &data).unwrap();
            prop_assert_eq!(&r.result, &expect, "{}", model.name());
        }
    }

    #[test]
    fn host_baselines_agree_with_reference(
        a in dense_set_strategy(300),
        b in dense_set_strategy(300),
    ) {
        prop_assert_eq!(
            dbasip::x86ref::swset::intersect(&a, &b),
            reference(SetOpKind::Intersect, &a, &b)
        );
        prop_assert_eq!(
            dbasip::x86ref::swset::union(&a, &b),
            reference(SetOpKind::Union, &a, &b)
        );
        prop_assert_eq!(
            dbasip::x86ref::swset::difference(&a, &b),
            reference(SetOpKind::Difference, &a, &b)
        );
    }

    #[test]
    fn host_swsort_agrees_with_std(data in pvec(any::<u32>(), 0..500)) {
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut got = data;
        dbasip::x86ref::swsort::sort(&mut got);
        prop_assert_eq!(got, expect);
    }
}

#[test]
fn identical_sets_edge_case_all_models() {
    let a: Vec<u32> = (0..257).map(|i| 7 * i).collect();
    for kind in [
        SetOpKind::Intersect,
        SetOpKind::Union,
        SetOpKind::Difference,
    ] {
        let expect = reference(kind, &a, &a);
        for model in ProcModel::all() {
            let r = run_set_op(model, kind, &a, &a).unwrap();
            assert_eq!(r.result, expect, "{} {kind:?}", model.name());
        }
    }
}

#[test]
fn adjacent_values_edge_case() {
    // Off-by-one neighbours: catches comparator boundary conditions.
    let a: Vec<u32> = (0..200).map(|i| 2 * i).collect();
    let b: Vec<u32> = (0..200).map(|i| 2 * i + 1).collect();
    for model in ProcModel::all() {
        let r = run_set_op(model, SetOpKind::Intersect, &a, &b).unwrap();
        assert!(r.result.is_empty(), "{}", model.name());
        let r = run_set_op(model, SetOpKind::Union, &a, &b).unwrap();
        assert_eq!(r.result.len(), 400, "{}", model.name());
    }
}

/// The two design choices no other test ablates: the scalar baseline's
/// branch predictor (Section 2.3's "hardly predictable branch") and its
/// D-cache geometry (what the local store replaces). Neither may change
/// a result bit; at least one setting must change the cycle count.
#[test]
fn predictor_and_dcache_ablations_change_cycles_not_results() {
    use dbasip::cpu::{PredictorKind, Processor};
    use dbasip::dbisa::kernels::scalar;
    use dbasip::dbisa::runner::set_layout;
    use dbasip::mem::CacheConfig;

    let (a, b) = dbasip::workloads::set_pair_with_selectivity(2000, 2000, 0.5, 0xbe7c4);
    let base = ProcModel::Mini108.cpu_config();
    let cache = |size_kib: usize, line_bytes: usize| CacheConfig {
        size_bytes: size_kib * 1024,
        line_bytes,
        ..CacheConfig::mini108_default()
    };
    let mut settings = Vec::new();
    for (label, predictor) in [
        ("always_not_taken", PredictorKind::AlwaysNotTaken),
        ("static_btfn", PredictorKind::StaticBtfn),
        ("two_bit_128", PredictorKind::TwoBit { entries: 128 }),
    ] {
        let mut cfg = base.clone();
        cfg.predictor = predictor;
        settings.push((label, cfg));
    }
    for (label, dcache) in [
        ("dcache_8k_32B", cache(8, 32)),
        ("dcache_8k_64B", cache(8, 64)),
        ("dcache_2k_32B", cache(2, 32)),
    ] {
        let mut cfg = base.clone();
        cfg.dcache = Some(dcache);
        settings.push((label, cfg));
    }

    let layout = set_layout(ProcModel::Mini108, a.len() as u32, b.len() as u32).unwrap();
    let program = scalar::set_op_program(SetOpKind::Intersect, &layout).unwrap();
    let runs: Vec<_> = settings
        .into_iter()
        .map(|(label, cfg)| {
            let mut p = Processor::new(cfg).unwrap();
            p.load_program(program.clone()).unwrap();
            p.mem.poke_words(layout.a_base, &a).unwrap();
            p.mem.poke_words(layout.b_base, &b).unwrap();
            let cycles = p.run(1_000_000_000).unwrap().cycles;
            let len = ((p.ar[6] - layout.c_base) / 4) as usize;
            (label, p.mem.peek_words(layout.c_base, len).unwrap(), cycles)
        })
        .collect();

    let expect = reference(SetOpKind::Intersect, &a, &b);
    for (label, result, _) in &runs {
        assert_eq!(result, &expect, "{label} changed the result");
    }
    let cycles: Vec<(&str, u64)> = runs.iter().map(|(l, _, c)| (*l, *c)).collect();
    assert!(
        cycles.iter().any(|&(_, c)| c != cycles[0].1),
        "no setting moved the cycle count: {cycles:?}"
    );
}
