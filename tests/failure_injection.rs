//! Failure injection: every layer must turn misuse into a typed error,
//! never into silent corruption. These mirror the "verification" stage of
//! the paper's tool flow (Figure 4) where incorrect processor models must
//! be caught before synthesis.

use dbasip::cpu::isa::regs::*;
use dbasip::cpu::isa::{ExtOp, Instr, OpArgs};
use dbasip::cpu::{CpuConfig, Processor, ProgramBuilder, SimError, DMEM0_BASE, SYSMEM_BASE};
use dbasip::dbisa::kernels::{hwset, hwsort, SetLayout, SortLayout};
use dbasip::dbisa::{run_set_op, DbExtConfig, DbExtension, ProcModel, SetOpKind};
use dbasip::mem::MemError;

fn dba_proc() -> Processor {
    let mut p = Processor::new(CpuConfig::local_store_core(1, 64)).unwrap();
    p.attach_extension(Box::new(DbExtension::new(DbExtConfig::one_lsu(true))));
    p
}

#[test]
fn dba_core_touching_system_memory_errors() {
    // The DBA core "has no direct access to the interconnection network".
    let mut b = ProgramBuilder::new();
    b.movi(A2, SYSMEM_BASE as i32);
    b.l32i(A3, A2, 0);
    b.halt();
    let mut p = dba_proc();
    p.load_program(b.build().unwrap()).unwrap();
    let e = p.run(100).unwrap_err();
    assert!(
        matches!(e, SimError::Mem(MemError::Unmapped { .. })),
        "{e:?}"
    );
}

#[test]
fn misaligned_wide_access_errors() {
    let mut b = ProgramBuilder::new();
    b.movi(A2, (DMEM0_BASE + 2) as i32);
    b.l32i(A3, A2, 0);
    b.halt();
    let mut p = dba_proc();
    p.load_program(b.build().unwrap()).unwrap();
    let e = p.run(100).unwrap_err();
    assert!(
        matches!(e, SimError::Mem(MemError::Misaligned { .. })),
        "{e:?}"
    );
}

#[test]
fn out_of_bounds_local_store_errors() {
    let mut b = ProgramBuilder::new();
    b.movi(A2, (DMEM0_BASE + 64 * 1024 - 2) as i32);
    b.l32i(A3, A2, 0); // 4-byte read straddling the end
    b.halt();
    let mut p = dba_proc();
    p.load_program(b.build().unwrap()).unwrap();
    let e = p.run(100).unwrap_err();
    // Canonical straddle diagnosis: the access is routed by its *start*
    // address, so a wide access hanging off the end of the region is a
    // misalignment (4-byte accesses at 4-byte-aligned addresses can never
    // straddle) — one typed error, never silent wraparound.
    assert!(
        matches!(e, SimError::Mem(MemError::Misaligned { align: 4, .. })),
        "{e:?}"
    );
}

#[test]
fn runaway_program_hits_the_cycle_budget() {
    let mut b = ProgramBuilder::new();
    b.label("spin");
    b.j("spin");
    let mut p = dba_proc();
    p.load_program(b.build().unwrap()).unwrap();
    let e = p.run(10_000).unwrap_err();
    assert!(
        matches!(e, SimError::MaxCyclesExceeded { budget: 10_000 }),
        "{e:?}"
    );
}

#[test]
fn unknown_extension_opcode_errors() {
    let mut b = ProgramBuilder::new();
    b.inst(Instr::Ext(ExtOp {
        op: 250,
        args: OpArgs::default(),
    }));
    b.halt();
    let mut p = dba_proc();
    p.load_program(b.build().unwrap()).unwrap();
    let e = p.run(100).unwrap_err();
    assert!(matches!(e, SimError::UnknownExtOp { op: 250 }), "{e:?}");
}

#[test]
fn oversized_unroll_overflows_instruction_memory() {
    // 32 KiB of instruction memory bounds the unroll factor — a real
    // constraint the paper's compiler would hit too.
    let wiring = DbExtConfig::two_lsu(true);
    let layout = SetLayout {
        a_base: 0x6000_0000,
        a_len: 64,
        b_base: 0x6800_0000,
        b_len: 64,
        c_base: 0x6800_1000,
    };
    let prog = hwset::set_op_program(SetOpKind::Union, &wiring, &layout, 4096).unwrap();
    let model = ProcModel::Dba2LsuEis { partial: true };
    let mut p = Processor::new(model.cpu_config()).unwrap();
    p.attach_extension(Box::new(DbExtension::new(wiring)));
    let e = p.load_program(prog).unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
}

#[test]
fn sentinel_value_in_input_rejected() {
    let e = run_set_op(
        ProcModel::Dba1LsuEis { partial: true },
        SetOpKind::Intersect,
        &[1, u32::MAX],
        &[1],
    )
    .unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
}

#[test]
fn division_by_zero_reported_with_pc() {
    let mut b = ProgramBuilder::new();
    b.movi(A2, 5);
    b.movi(A3, 0);
    b.quou(A4, A2, A3);
    b.halt();
    let mut p = Processor::new(CpuConfig::small_cached_controller()).unwrap();
    p.load_program(b.build().unwrap()).unwrap();
    match p.run(100).unwrap_err() {
        SimError::DivByZero { pc } => assert!(pc >= dbasip::cpu::IMEM_BASE),
        other => panic!("expected DivByZero, got {other:?}"),
    }
}

#[test]
fn errors_do_not_corrupt_later_runs() {
    // After an error, reloading a good program must work — the simulator
    // carries no poisoned state.
    let mut p = dba_proc();
    let mut bad = ProgramBuilder::new();
    bad.movi(A2, SYSMEM_BASE as i32);
    bad.l32i(A3, A2, 0);
    bad.halt();
    p.load_program(bad.build().unwrap()).unwrap();
    assert!(p.run(100).is_err());

    let mut good = ProgramBuilder::new();
    good.movi(A2, 7);
    good.halt();
    p.load_program(good.build().unwrap()).unwrap();
    p.run(100).unwrap();
    assert_eq!(p.ar[2], 7);
}

#[test]
fn kernel_errors_surface_through_the_runner() {
    // Unsorted input is the user-facing misuse path.
    for bad in [&[3u32, 1][..], &[1, 1][..]] {
        let e = run_set_op(ProcModel::Mini108, SetOpKind::Union, bad, &[2]).unwrap_err();
        assert!(matches!(e, SimError::BadProgram(_)));
    }
}

#[test]
fn a_stream_chunk_below_the_minimum_is_a_typed_error() {
    use dbasip::dbisa::stream::{stream_set_op, StreamConfig};
    let cfg = StreamConfig {
        chunk_elems: 4,
        ..StreamConfig::default()
    };
    let e = stream_set_op(SetOpKind::Intersect, &[1, 2, 3], &[2, 3], cfg).unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
}

#[test]
fn a_multicore_run_on_zero_cores_is_a_typed_error() {
    use dbasip::dbisa::multicore::multicore_set_op;
    let model = ProcModel::Dba2LsuEis { partial: true };
    let e = multicore_set_op(model, SetOpKind::Intersect, &[1, 2], &[2], 0).unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
}

#[test]
fn a_zero_unroll_factor_is_a_typed_error() {
    use dbasip::dbisa::stream::{stream_set_op_with, StreamConfig, StreamOptions};
    let wiring = DbExtConfig::two_lsu(true);
    let layout = SetLayout {
        a_base: 0x6000_0000,
        a_len: 4,
        b_base: 0x6800_0000,
        b_len: 4,
        c_base: 0x6800_1000,
    };
    let e = hwset::set_op_program(SetOpKind::Intersect, &wiring, &layout, 0).unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
    let e = hwset::set_op_program_param(SetOpKind::Union, &wiring, 0x6000_0000, 0).unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
    let cfg = StreamConfig {
        unroll: 0,
        ..StreamConfig::default()
    };
    let opts = StreamOptions::default();
    let e = stream_set_op_with(SetOpKind::Difference, &[1, 2, 3], &[2, 3], cfg, &opts).unwrap_err();
    assert!(matches!(e, SimError::BadProgram(_)), "{e:?}");
}

#[test]
fn a_sort_length_off_a_multiple_of_four_is_a_typed_error() {
    let wiring = DbExtConfig::two_lsu(true);
    for n in [0, 6] {
        let layout = SortLayout {
            src: 0x6000_0000,
            dst: 0x6000_1000,
            n,
        };
        let e = hwsort::merge_sort_program(&wiring, &layout).unwrap_err();
        assert!(matches!(e, SimError::BadProgram(_)), "n={n}: {e:?}");
    }
}

#[test]
fn a_corrupted_result_cursor_is_a_typed_error() {
    use dbasip::dbisa::{run_set_op_with, RunOptions};
    use dbasip::faults::{FaultPlan, FaultTarget};
    // An upset in the scalar kernel's output cursor (a6) just before it
    // halts: bit 29 moves the cursor below the result base, bit 31 far
    // past the result space. Either way the runner must refuse to read
    // back rather than underflow or reserve gigabytes.
    let a: Vec<u32> = (0..100).map(|i| 2 * i).collect();
    let b: Vec<u32> = (0..100).map(|i| 3 * i).collect();
    let model = ProcModel::Dba1Lsu;
    let clean = run_set_op(model, SetOpKind::Intersect, &a, &b).unwrap();
    for bit in [29, 31] {
        let opts = RunOptions {
            fault_plan: Some(FaultPlan::new().with_bit_flip(
                FaultTarget::RegFile,
                clean.cycles - 2,
                6,
                bit,
            )),
            ..RunOptions::default()
        };
        let e = run_set_op_with(model, SetOpKind::Intersect, &a, &b, &opts).unwrap_err();
        assert!(
            matches!(e, SimError::Mem(MemError::OutOfBounds { .. })),
            "bit {bit}: {e:?}"
        );
    }
    // The EIS kernels count their results in a2 instead.
    let model = ProcModel::Dba1LsuEis { partial: true };
    let clean = run_set_op(model, SetOpKind::Intersect, &a, &b).unwrap();
    let opts = RunOptions {
        fault_plan: Some(FaultPlan::new().with_bit_flip(
            FaultTarget::RegFile,
            clean.cycles - 1,
            2,
            31,
        )),
        ..RunOptions::default()
    };
    let e = run_set_op_with(model, SetOpKind::Intersect, &a, &b, &opts).unwrap_err();
    assert!(
        matches!(e, SimError::Mem(MemError::OutOfBounds { .. })),
        "{e:?}"
    );
}

#[test]
fn a_corrupted_stream_chunk_count_is_a_typed_error() {
    use dbasip::dbisa::stream::{stream_set_op_with, StreamConfig, StreamOptions};
    use dbasip::faults::{FaultPlan, FaultTarget};
    // Bit 31 of the chunk kernel's result count (a2): the readback must
    // stop at the chunk's 0x1800-byte C slot rather than reserve 8 GiB
    // and run to the end of DMEM1.
    let a: Vec<u32> = (0..100).map(|i| 2 * i).collect();
    let b: Vec<u32> = (0..100).map(|i| 3 * i).collect();
    let opts = StreamOptions {
        fault_plan: Some(FaultPlan::new().with_bit_flip(FaultTarget::RegFile, 97, 2, 31)),
        ..StreamOptions::default()
    };
    let e = stream_set_op_with(SetOpKind::Intersect, &a, &b, StreamConfig::default(), &opts)
        .unwrap_err();
    match e {
        SimError::Mem(MemError::OutOfBounds { base, size, .. }) => {
            assert_eq!((base, size), (0x6800_5000, 0x1800), "chunk 0's C slot");
        }
        other => panic!("expected an out-of-bounds readback, got {other:?}"),
    }
}
