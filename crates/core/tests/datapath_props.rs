//! Property tests of the SOP datapath invariants — the circuit-level
//! contracts every emission/retirement decision must satisfy for
//! arbitrary strictly-increasing windows.

use dbx_core::datapath::{merge8, sop_set, sop_set_n, sort4, SetOpKind};
use proptest::collection::btree_set;
use proptest::prelude::*;

/// A window: 1..=4 strictly increasing values padded with the sentinel.
fn window_strategy() -> impl Strategy<Value = ([u32; 4], usize)> {
    btree_set(0u32..100, 1..=4usize).prop_map(|s| {
        let mut w = [u32::MAX; 4];
        let v = s.len();
        for (i, x) in s.into_iter().enumerate() {
            w[i] = x;
        }
        (w, v)
    })
}

/// A full window of four strictly increasing values from a small domain,
/// so two windows overlap often.
fn full_window_strategy() -> impl Strategy<Value = [u32; 4]> {
    (0u32..8, proptest::array::uniform4(1u32..=6)).prop_map(|(start, gaps)| {
        let mut w = [0; 4];
        let mut x = start;
        for (lane, gap) in w.iter_mut().zip(gaps) {
            x += gap;
            *lane = x;
        }
        w
    })
}

fn flags_strategy() -> impl Strategy<Value = [bool; 4]> {
    proptest::array::uniform4(any::<bool>())
}

/// The lane mask `sop_set` takes for a per-lane flag array.
fn mask(f: &[bool; 4]) -> u8 {
    (0..4).fold(0, |m, i| m | (f[i] as u8) << i)
}

/// The per-lane flags of a lane mask `sop_set` returns.
fn flags(m: u8) -> [bool; 4] {
    std::array::from_fn(|i| m >> i & 1 != 0)
}

fn kinds() -> [SetOpKind; 3] {
    [
        SetOpKind::Intersect,
        SetOpKind::Union,
        SetOpKind::Difference,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn sop_invariants_hold(
        (wa, va) in window_strategy(),
        (wb, vb) in window_strategy(),
        ea in flags_strategy(),
        eb in flags_strategy(),
        partial in any::<bool>(),
    ) {
        for kind in kinds() {
            let out = sop_set(kind, &wa, va, mask(&ea), &wb, vb, mask(&eb), partial);
            let (out_ea, out_eb) = (flags(out.emitted_a), flags(out.emitted_b));

            // (1) Consumption bounds and progress.
            prop_assert!(out.consume_a <= va);
            prop_assert!(out.consume_b <= vb);
            prop_assert!(
                out.consume_a == va || out.consume_b == vb,
                "at least one window must retire fully: {:?}", out
            );

            // (2) Emission is strictly increasing (sorted, duplicate-free).
            prop_assert!(
                out.emit.windows(2).all(|w| w[0] < w[1]),
                "{kind:?}: emit not strictly increasing: {:?}", out.emit
            );

            // (3) Emission membership.
            let in_a = |x: u32| wa[..va].contains(&x);
            let in_b = |x: u32| wb[..vb].contains(&x);
            for &x in out.emit.iter() {
                match kind {
                    SetOpKind::Intersect => prop_assert!(in_a(x) && in_b(x)),
                    SetOpKind::Difference => prop_assert!(in_a(x) && !in_b(x)),
                    SetOpKind::Union => prop_assert!(in_a(x) || in_b(x)),
                }
            }

            // (4) Emitted flags are monotone (never cleared).
            for i in 0..4 {
                prop_assert!(!ea[i] || out_ea[i], "flag A{i} cleared");
                prop_assert!(!eb[i] || out_eb[i], "flag B{i} cleared");
            }

            // (5) Nothing beyond the boundary is emitted.
            let boundary = wa[va - 1].min(wb[vb - 1]);
            prop_assert!(out.emit.iter().all(|&x| x <= boundary));

            // (6) Previously-emitted lanes are not re-emitted.
            for i in 0..va {
                if ea[i] {
                    // A-lane flagged: only a union emission sourced from B
                    // may carry the same value; the value itself must then
                    // be a fresh B lane.
                    if out.emit.contains(&wa[i]) {
                        let j = wb[..vb].iter().position(|&y| y == wa[i]);
                        prop_assert!(
                            matches!((kind, j), (SetOpKind::Union, Some(j)) if !eb[j]),
                            "{kind:?} re-emitted flagged value {}", wa[i]
                        );
                    }
                }
            }
        }
    }

    /// The 4-wide instruction equals the width-generalised reference on
    /// every valid-lane count, flag pattern, loading mode and kind. Lanes
    /// past the valid count keep their (increasing) values, so both must
    /// ignore them.
    #[test]
    fn sop_set_equals_the_width_generalised_reference(
        wa in full_window_strategy(),
        wb in full_window_strategy(),
        ea in flags_strategy(),
        eb in flags_strategy(),
    ) {
        for kind in kinds() {
            for partial in [false, true] {
                for va in 1..=4 {
                    for vb in 1..=4 {
                        let fixed = sop_set(kind, &wa, va, mask(&ea), &wb, vb, mask(&eb), partial);
                        let gen = sop_set_n(kind, &wa, va, &ea, &wb, vb, &eb, partial);
                        let case = format!("{kind:?} partial={partial} {wa:?}/{va} {ea:?} {wb:?}/{vb} {eb:?}");
                        prop_assert_eq!(&fixed.emit[..], &gen.emit[..], "{}", case);
                        prop_assert_eq!(
                            (fixed.consume_a, fixed.consume_b),
                            (gen.consume_a, gen.consume_b),
                            "{}", case
                        );
                        prop_assert_eq!(&flags(fixed.emitted_a)[..], &gen.emitted_a[..], "{}", case);
                        prop_assert_eq!(&flags(fixed.emitted_b)[..], &gen.emitted_b[..], "{}", case);
                    }
                }
            }
        }
    }

    #[test]
    fn nonpartial_retires_exactly_one_window_unless_maxes_tie(
        (wa, va) in window_strategy(),
        (wb, vb) in window_strategy(),
    ) {
        let out = sop_set(
            SetOpKind::Intersect, &wa, va, 0, &wb, vb, 0, false,
        );
        let amax = wa[va - 1];
        let bmax = wb[vb - 1];
        if amax == bmax {
            prop_assert_eq!((out.consume_a, out.consume_b), (va, vb));
        } else if amax < bmax {
            prop_assert_eq!((out.consume_a, out.consume_b), (va, 0));
        } else {
            prop_assert_eq!((out.consume_a, out.consume_b), (0, vb));
        }
    }

    #[test]
    fn partial_consumption_is_boundary_exact(
        (wa, va) in window_strategy(),
        (wb, vb) in window_strategy(),
    ) {
        let out = sop_set(
            SetOpKind::Union, &wa, va, 0, &wb, vb, 0, true,
        );
        let amax = wa[va - 1];
        let bmax = wb[vb - 1];
        prop_assert_eq!(out.consume_a, wa[..va].iter().filter(|&&x| x <= bmax).count());
        prop_assert_eq!(out.consume_b, wb[..vb].iter().filter(|&&x| x <= amax).count());
    }

    #[test]
    fn sort4_network_matches_std(v in proptest::array::uniform4(any::<u32>())) {
        let got = sort4(v);
        let mut expect = v;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn merge8_network_matches_std(
        mut a in proptest::array::uniform4(any::<u32>()),
        mut b in proptest::array::uniform4(any::<u32>()),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let got = merge8(a, b);
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(got.to_vec(), expect);
        prop_assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }
}
