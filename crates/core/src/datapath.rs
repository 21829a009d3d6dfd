//! Combinational datapaths of the DB instruction-set extension.
//!
//! These functions are the software model of the circuits the paper
//! synthesises: the 4x4 all-to-all comparator array behind `SOP`
//! (Section 4, Figure 8), the sorting network behind the presort
//! load/store instructions, the bitonic merge network behind the
//! merge-sort `SOP`, and the retire/emit logic for intersection, union and
//! difference. They are pure functions so they can be tested exhaustively
//! and property-checked against scalar references, and so the synthesis
//! model can account their structure (comparator counts, mux widths)
//! without duplicating logic.
//!
//! Conventions: windows are front-aligned arrays of up to four elements
//! with a validity count; set inputs must be strictly increasing within
//! each window (RID sets are duplicate-free).

use crate::states::{ResultStates, SENTINEL};

/// The sorted-set operation selected by a `SOP` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpKind {
    /// Common elements of both sets.
    Intersect,
    /// All distinct elements of both sets.
    Union,
    /// Elements of A not present in B.
    Difference,
}

impl SetOpKind {
    /// Assembly-style short name.
    pub fn short_name(self) -> &'static str {
        match self {
            SetOpKind::Intersect => "isect",
            SetOpKind::Union => "union",
            SetOpKind::Difference => "diff",
        }
    }

    /// Full kernel name, used as the span / benchmark-cell key.
    pub fn name(self) -> &'static str {
        match self {
            SetOpKind::Intersect => "intersect",
            SetOpKind::Union => "union",
            SetOpKind::Difference => "difference",
        }
    }
}

/// Number of comparators in the all-to-all array (4x4) — structural
/// metadata consumed by the synthesis model.
pub const ALL_TO_ALL_COMPARATORS: usize = 16;
/// Comparators in the 4-element sorting network (optimal network).
pub const SORT4_COMPARATORS: usize = 5;
/// Comparators in the 8-element bitonic merge network (3 stages x 4).
pub const MERGE8_COMPARATORS: usize = 12;

/// Sorts four values with the optimal 5-comparator sorting network
/// (the circuit behind the presort load instruction).
#[inline]
pub fn sort4(v: [u32; 4]) -> [u32; 4] {
    #[inline]
    fn cas(v: &mut [u32; 4], i: usize, j: usize) {
        if v[i] > v[j] {
            v.swap(i, j);
        }
    }
    let mut v = v;
    cas(&mut v, 0, 2);
    cas(&mut v, 1, 3);
    cas(&mut v, 0, 1);
    cas(&mut v, 2, 3);
    cas(&mut v, 1, 2);
    v
}

/// Merges two sorted 4-element vectors into a sorted 8-element vector with
/// a bitonic merge network (the circuit behind the merge-sort `SOP`).
#[inline]
pub fn merge8(a: [u32; 4], b: [u32; 4]) -> [u32; 8] {
    // Reverse b to form a bitonic sequence, then three compare-exchange
    // stages with strides 4, 2, 1 (12 comparators total).
    let mut v = [a[0], a[1], a[2], a[3], b[3], b[2], b[1], b[0]];
    for stride in [4usize, 2, 1] {
        let mut out = v;
        for g in (0..8).step_by(stride * 2) {
            for k in 0..stride {
                let (lo, hi) = (g + k, g + k + stride);
                out[lo] = v[lo].min(v[hi]);
                out[hi] = v[lo].max(v[hi]);
            }
        }
        v = out;
    }
    v
}

/// Sorts a slice of power-of-two length with Batcher's odd-even
/// merge-sort network — the width-generalised form of [`sort4`], used by
/// the vector-width tradeoff study (paper Section 2.2: intra-element
/// instructions grow "more than linear (e.g., quadratic)" with width).
pub fn sort_network(v: &mut [u32]) {
    let n = v.len();
    assert!(
        n.is_power_of_two(),
        "sorting network needs a power-of-two width"
    );
    for_each_sort_comparator(n, &mut |i, j| {
        if v[i] > v[j] {
            v.swap(i, j);
        }
    });
}

/// Enumerates the compare-exchange pairs of Batcher's odd-even merge-sort
/// network for `n` inputs (Sedgewick's formulation). Shared by the
/// executing network and the comparator counter so the synthesis model
/// prices exactly the circuit that runs.
pub fn for_each_sort_comparator(n: usize, f: &mut impl FnMut(usize, usize)) {
    fn sort_rec(lo: usize, n: usize, f: &mut impl FnMut(usize, usize)) {
        if n > 1 {
            let m = n / 2;
            sort_rec(lo, m, f);
            sort_rec(lo + m, m, f);
            merge_rec(lo, n, 1, f);
        }
    }
    fn merge_rec(lo: usize, n: usize, r: usize, f: &mut impl FnMut(usize, usize)) {
        let m = r * 2;
        if m < n {
            merge_rec(lo, n, m, f);
            merge_rec(lo + r, n - r, m, f);
            let mut i = lo + r;
            while i + r < lo + n {
                f(i, i + r);
                i += m;
            }
        } else {
            f(lo, lo + r);
        }
    }
    sort_rec(0, n, f);
}

/// Comparator count of Batcher's odd-even merge-sort network for width
/// `w` (power of two) — structural input for the synthesis model.
pub fn sort_network_comparators(w: usize) -> usize {
    assert!(w.is_power_of_two());
    let mut count = 0;
    for_each_sort_comparator(w, &mut |_, _| count += 1);
    count
}

/// Merges two sorted slices of equal power-of-two length with a bitonic
/// merge network (width-generalised [`merge8`]).
pub fn bitonic_merge_n(a: &[u32], b: &[u32]) -> Vec<u32> {
    assert_eq!(a.len(), b.len());
    let w = a.len();
    assert!(w.is_power_of_two() && w >= 1);
    let mut v: Vec<u32> = Vec::with_capacity(2 * w);
    v.extend_from_slice(a);
    v.extend(b.iter().rev());
    let mut stride = w;
    while stride >= 1 {
        for g in (0..2 * w).step_by(stride * 2) {
            for k in 0..stride {
                let (lo, hi) = (g + k, g + k + stride);
                if v[lo] > v[hi] {
                    v.swap(lo, hi);
                }
            }
        }
        stride /= 2;
    }
    v
}

/// Comparator count of the `2w`-element bitonic merge network.
pub fn bitonic_merge_comparators(w: usize) -> usize {
    assert!(w.is_power_of_two());
    // log2(2w) stages of w comparators each.
    let stages = (2 * w).trailing_zeros() as usize;
    stages * w
}

/// Width-generalised retire/emit outcome (see [`SopOutcome`] for the
/// 4-wide instruction's fixed-size form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SopOutcomeN {
    /// Elements retired from window A.
    pub consume_a: usize,
    /// Elements retired from window B.
    pub consume_b: usize,
    /// Values emitted, sorted (<= 2w for union).
    pub emit: Vec<u32>,
    /// Updated emitted flags for window A (pre-shift positions).
    pub emitted_a: Vec<bool>,
    /// Updated emitted flags for window B.
    pub emitted_b: Vec<bool>,
}

/// Width-generalised sorted-set `SOP` over windows of arbitrary width.
/// `wa[..va]` / `wb[..vb]` are the valid strictly-increasing lanes.
#[allow(clippy::too_many_arguments)] // mirrors the instruction's operand list
pub fn sop_set_n(
    kind: SetOpKind,
    wa: &[u32],
    va: usize,
    emitted_a: &[bool],
    wb: &[u32],
    vb: usize,
    emitted_b: &[bool],
    partial: bool,
) -> SopOutcomeN {
    debug_assert!(va >= 1 && va <= wa.len() && vb >= 1 && vb <= wb.len());
    let amax = wa[va - 1];
    let bmax = wb[vb - 1];
    let boundary = amax.min(bmax);

    let cand = |w: &[u32], v: usize, e: &[bool]| -> Vec<bool> {
        (0..w.len())
            .map(|i| i < v && w[i] <= boundary && !e[i])
            .collect()
    };
    let cand_a = cand(wa, va, emitted_a);
    let cand_b = cand(wb, vb, emitted_b);
    let match_in = |x: u32, w: &[u32], v: usize| w[..v].contains(&x);

    let mut emit = Vec::new();
    match kind {
        SetOpKind::Intersect => {
            for i in 0..va {
                if cand_a[i] && match_in(wa[i], wb, vb) {
                    emit.push(wa[i]);
                }
            }
        }
        SetOpKind::Difference => {
            for i in 0..va {
                if cand_a[i] && !match_in(wa[i], wb, vb) {
                    emit.push(wa[i]);
                }
            }
        }
        SetOpKind::Union => {
            let (mut i, mut j) = (0, 0);
            loop {
                while i < va && !cand_a[i] {
                    i += 1;
                }
                while j < vb && !cand_b[j] {
                    j += 1;
                }
                match (i < va, j < vb) {
                    (false, false) => break,
                    (true, false) => {
                        emit.push(wa[i]);
                        i += 1;
                    }
                    (false, true) => {
                        emit.push(wb[j]);
                        j += 1;
                    }
                    (true, true) => match wa[i].cmp(&wb[j]) {
                        std::cmp::Ordering::Less => {
                            emit.push(wa[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            emit.push(wb[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            emit.push(wa[i]);
                            i += 1;
                            j += 1;
                        }
                    },
                }
            }
        }
    }

    let (consume_a, consume_b) = if partial {
        (
            (0..va).take_while(|&i| wa[i] <= bmax).count(),
            (0..vb).take_while(|&j| wb[j] <= amax).count(),
        )
    } else {
        match amax.cmp(&bmax) {
            std::cmp::Ordering::Equal => (va, vb),
            std::cmp::Ordering::Less => (va, 0),
            std::cmp::Ordering::Greater => (0, vb),
        }
    };

    let mut out_ea = emitted_a.to_vec();
    let mut out_eb = emitted_b.to_vec();
    for i in 0..va {
        out_ea[i] |= cand_a[i];
    }
    for j in 0..vb {
        out_eb[j] |= cand_b[j];
    }
    SopOutcomeN {
        consume_a,
        consume_b,
        emit,
        emitted_a: out_ea,
        emitted_b: out_eb,
    }
}

/// Window retire/emit decision for one `SOP` execution on sorted-set
/// windows. All inputs/outputs are in terms of front-aligned windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SopOutcome {
    /// Elements retired (consumed) from window A.
    pub consume_a: usize,
    /// Elements retired from window B.
    pub consume_b: usize,
    /// Values emitted to the Result states, in sorted order (<= 8).
    pub emit: ResultStates,
    /// Updated emitted lane mask (bit `i` for lane `i`) of window A,
    /// still indexed by the pre-shift window positions.
    pub emitted_a: u8,
    /// Same for window B.
    pub emitted_b: u8,
}

/// Lane mask (bit `i` = lane `i`) of the window lanes that are `<= x`.
#[inline]
fn lanes_le(w: &[u32; 4], x: u32) -> u8 {
    (w[0] <= x) as u8
        | ((w[1] <= x) as u8) << 1
        | ((w[2] <= x) as u8) << 2
        | ((w[3] <= x) as u8) << 3
}

/// Lane mask of the window lanes equal to `x`: one row of the all-to-all
/// equality matrix.
#[inline]
fn lanes_eq(w: &[u32; 4], x: u32) -> u8 {
    (w[0] == x) as u8
        | ((w[1] == x) as u8) << 1
        | ((w[2] == x) as u8) << 2
        | ((w[3] == x) as u8) << 3
}

/// For each 4-bit lane mask, the source lane of every output position
/// when the selected lanes are packed to the front; 4 selects the
/// sentinel.
const COMPACT: [[u8; 4]; 16] = {
    let mut t = [[4u8; 4]; 16];
    let mut m = 0;
    while m < 16 {
        let (mut i, mut n) = (0, 0);
        while i < 4 {
            if m >> i & 1 != 0 {
                t[m][n] = i as u8;
                n += 1;
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// Number of lanes set in a 4-bit lane mask (a table load: the baseline
/// x86-64 target has no `popcnt`).
#[inline]
fn ones(mask: u8) -> usize {
    const ONES: [u8; 16] = [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4];
    ONES[(mask & 15) as usize] as usize
}

/// The lanes of `w` selected by `mask`, front-aligned in lane order, with
/// the sentinel behind them: one table lookup, no data-dependent branch.
#[inline]
fn compact(w: &[u32; 4], mask: u8) -> [u32; 4] {
    let src = [w[0], w[1], w[2], w[3], SENTINEL];
    COMPACT[(mask & 15) as usize].map(|i| src[i as usize])
}

/// Evaluates one sorted-set `SOP` over two windows.
///
/// * `wa`, `va`: window A values (front-aligned) and its valid count;
///   lanes `>= va` are ignored. Values must be strictly increasing and
///   below [`SENTINEL`].
/// * `emitted_a` is the lane mask of A lanes already emitted by a
///   previous `SOP` in full-window-retirement mode.
/// * `partial`: with partial loading the windows retire by the comparison
///   boundary (`LD_P` refills them); without it only fully-covered windows
///   retire (the window whose max is the boundary).
///
/// Every decision is a lane mask computed from the all-to-all comparison:
/// candidates (valid, `<=` the boundary, not yet emitted), matches (equal
/// to a valid lane of the other window), and retirement (the leading lanes
/// `<=` the other window's max). Only the equality rows of A candidates
/// are read, so only those are computed. Union emission merges the two
/// compacted candidate vectors with the bitonic [`merge8`] network, after
/// dropping the B candidates that duplicate an A candidate.
///
/// Both windows must be non-empty; the instruction no-ops otherwise (the
/// caller checks).
#[allow(clippy::too_many_arguments)] // mirrors the instruction's operand list
#[inline]
pub fn sop_set(
    kind: SetOpKind,
    wa: &[u32; 4],
    va: usize,
    emitted_a: u8,
    wb: &[u32; 4],
    vb: usize,
    emitted_b: u8,
    partial: bool,
) -> SopOutcome {
    debug_assert!((1..=4).contains(&va) && (1..=4).contains(&vb));
    let amax = wa[va - 1];
    let bmax = wb[vb - 1];
    let boundary = amax.min(bmax);
    let valid_a = (1u8 << va) - 1;
    let valid_b = (1u8 << vb) - 1;
    let cand_a = valid_a & lanes_le(wa, boundary) & !emitted_a;
    let cand_b = valid_b & lanes_le(wb, boundary) & !emitted_b;

    // Row `i` of the equality matrix, restricted to valid B lanes, for
    // each A candidate `i`: the candidate matches when the row is
    // non-zero, and the B lanes it covers duplicate it.
    let mut match_a = 0u8;
    let mut dup_b = 0u8;
    for (i, &x) in wa.iter().enumerate() {
        let row = lanes_eq(wb, x) & valid_b & 0u8.wrapping_sub(cand_a >> i & 1);
        match_a |= ((row != 0) as u8) << i;
        dup_b |= row;
    }

    let emit = match kind {
        SetOpKind::Intersect => {
            let m = match_a;
            ResultStates::from_beat(compact(wa, m), ones(m))
        }
        SetOpKind::Difference => {
            let m = cand_a & !match_a;
            ResultStates::from_beat(compact(wa, m), ones(m))
        }
        SetOpKind::Union => {
            let mb = cand_b & !dup_b;
            let n = ones(cand_a) + ones(mb);
            ResultStates::new(merge8(compact(wa, cand_a), compact(wb, mb)), n)
        }
    };

    // Retirement: with partial loading, the leading lanes up to the other
    // window's max; otherwise the window owning the boundary, whole.
    let (consume_a, consume_b) = if partial {
        (
            (valid_a & lanes_le(wa, bmax)).trailing_ones() as usize,
            (valid_b & lanes_le(wb, amax)).trailing_ones() as usize,
        )
    } else {
        (
            if amax <= bmax { va } else { 0 },
            if bmax <= amax { vb } else { 0 },
        )
    };

    // Updated emitted flags (pre-shift positions). Retired lanes keep
    // their flags; LD_P discards them on shift.
    SopOutcome {
        consume_a,
        consume_b,
        emit,
        emitted_a: emitted_a | cand_a,
        emitted_b: emitted_b | cand_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort4_all_permutations() {
        // Exhaustive over all 24 permutations plus duplicates.
        let base = [3u32, 1, 4, 1];
        let mut perms = vec![];
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        if a != b && a != c && a != d && b != c && b != d && c != d {
                            perms.push([base[a], base[b], base[c], base[d]]);
                        }
                    }
                }
            }
        }
        for p in perms {
            let s = sort4(p);
            let mut expect = p;
            expect.sort_unstable();
            assert_eq!(s, expect, "input {p:?}");
        }
    }

    #[test]
    fn merge8_is_a_correct_merge() {
        let cases = [
            ([1, 3, 5, 7], [2, 4, 6, 8]),
            ([1, 2, 3, 4], [5, 6, 7, 8]),
            ([5, 6, 7, 8], [1, 2, 3, 4]),
            ([1, 1, 1, 1], [1, 1, 1, 1]),
            ([0, u32::MAX, u32::MAX, u32::MAX], [0, 0, 1, 2]),
        ];
        for (a, b) in cases {
            let got = merge8(a, b);
            let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
            expect.sort_unstable();
            assert_eq!(got.to_vec(), expect, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn intersect_partial_emits_matches_and_retires_by_boundary() {
        // A: 1 3 5 9, B: 3 4 5 6 -> matches {3,5}; amax=9 > bmax=6.
        let out = sop_set(
            SetOpKind::Intersect,
            &[1, 3, 5, 9],
            4,
            0,
            &[3, 4, 5, 6],
            4,
            0,
            true,
        );
        assert_eq!(out.emit[..], [3, 5]);
        assert_eq!(out.consume_a, 3, "1,3,5 <= bmax 6");
        assert_eq!(out.consume_b, 4, "all of B <= amax 9");
    }

    #[test]
    fn intersect_nonpartial_retires_full_window_only() {
        let out = sop_set(
            SetOpKind::Intersect,
            &[1, 3, 5, 9],
            4,
            0,
            &[3, 4, 5, 6],
            4,
            0,
            false,
        );
        assert_eq!(out.emit[..], [3, 5]);
        assert_eq!(
            (out.consume_a, out.consume_b),
            (0, 4),
            "B owns the boundary"
        );
        // A lanes 3 and 5 are now marked emitted for the next SOP.
        assert_eq!(out.emitted_a, 0b0111);
    }

    #[test]
    fn nonpartial_emitted_flags_prevent_duplicates() {
        // Continue the previous scenario: B window reloads to 7 8 10 11.
        let out = sop_set(
            SetOpKind::Intersect,
            &[1, 3, 5, 9],
            4,
            0b0111,
            &[7, 8, 10, 11],
            4,
            0,
            true,
        );
        // 9 matches nothing; no duplicates of 3/5.
        assert!(out.emit.is_empty());
    }

    #[test]
    fn equal_maxes_retire_both_windows() {
        let out = sop_set(
            SetOpKind::Intersect,
            &[1, 2, 3, 8],
            4,
            0,
            &[2, 5, 6, 8],
            4,
            0,
            false,
        );
        assert_eq!(out.emit[..], [2, 8]);
        assert_eq!((out.consume_a, out.consume_b), (4, 4));
    }

    #[test]
    fn union_merges_candidates_once() {
        let out = sop_set(
            SetOpKind::Union,
            &[1, 3, 5, 9],
            4,
            0,
            &[3, 4, 5, 6],
            4,
            0,
            true,
        );
        // boundary = 6: candidates A {1,3,5}, B {3,4,5,6}.
        assert_eq!(out.emit[..], [1, 3, 4, 5, 6]);
    }

    #[test]
    fn union_can_emit_eight() {
        let out = sop_set(
            SetOpKind::Union,
            &[1, 2, 3, 4],
            4,
            0,
            &[5, 6, 7, 4],
            3, // careful: window is 5,6,7 valid
            0,
            true,
        );
        // boundary = min(4,7)=4: candidates A all, B none.
        assert_eq!(out.emit[..], [1, 2, 3, 4]);

        let out = sop_set(
            SetOpKind::Union,
            &[1, 3, 5, 7],
            4,
            0,
            &[2, 4, 6, 7],
            4,
            0,
            true,
        );
        assert_eq!(out.emit[..], [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!((out.consume_a, out.consume_b), (4, 4));
    }

    #[test]
    fn difference_emits_unmatched_a() {
        let out = sop_set(
            SetOpKind::Difference,
            &[1, 3, 5, 9],
            4,
            0,
            &[3, 4, 5, 6],
            4,
            0,
            true,
        );
        assert_eq!(out.emit[..], [1], "3 and 5 match; 9 beyond boundary");
        assert_eq!(out.consume_a, 3);
    }

    #[test]
    fn partial_windows_from_exhausted_tails() {
        // B has only 2 valid lanes (tail of the set).
        let out = sop_set(
            SetOpKind::Intersect,
            &[10, 20, 30, 40],
            4,
            0,
            &[20, 25, 0, 0],
            2,
            0,
            true,
        );
        assert_eq!(out.emit[..], [20]);
        assert_eq!(out.consume_a, 2, "10, 20 <= bmax 25");
        assert_eq!(out.consume_b, 2, "both <= amax 40");
    }

    #[test]
    fn sort_network_sorts_all_widths() {
        for w in [1usize, 2, 4, 8, 16, 32] {
            let mut v: Vec<u32> = (0..w as u32)
                .map(|i| i.wrapping_mul(2654435761).rotate_left(3))
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            sort_network(&mut v);
            assert_eq!(v, expect, "w={w}");
        }
        // Width 4 must agree with the hand-optimised sort4 network.
        let mut v = vec![9u32, 1, 7, 3];
        sort_network(&mut v);
        assert_eq!(v, sort4([9, 1, 7, 3]).to_vec());
    }

    #[test]
    fn sort_network_comparator_counts() {
        // Batcher odd-even merge-sort counts: 1, 3, 9, 19, 63 for
        // n = 2, 4, 8, 16, wait 16 is 63.
        assert_eq!(sort_network_comparators(2), 1);
        assert_eq!(sort_network_comparators(4), 5);
        assert_eq!(sort_network_comparators(8), 19);
        assert_eq!(sort_network_comparators(16), 63);
        // Quadratic-ish growth: the Section 2.2 tradeoff.
        assert!(sort_network_comparators(16) > 3 * sort_network_comparators(8));
    }

    #[test]
    fn bitonic_merge_n_matches_std_for_all_widths() {
        for w in [1usize, 2, 4, 8, 16] {
            let a: Vec<u32> = (0..w as u32).map(|i| 3 * i).collect();
            let b: Vec<u32> = (0..w as u32).map(|i| 2 * i + 1).collect();
            let got = bitonic_merge_n(&a, &b);
            let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "w={w}");
        }
        assert_eq!(
            bitonic_merge_comparators(4),
            12,
            "matches MERGE8_COMPARATORS"
        );
    }

    #[test]
    fn sop_set_n_at_width_4_equals_the_instruction() {
        let wa = [1u32, 3, 5, 9];
        let wb = [3u32, 4, 5, 6];
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            for partial in [false, true] {
                let fixed = sop_set(kind, &wa, 4, 0, &wb, 4, 0, partial);
                let gen = sop_set_n(kind, &wa, 4, &[false; 4], &wb, 4, &[false; 4], partial);
                assert_eq!(fixed.emit[..], gen.emit[..], "{kind:?} {partial}");
                assert_eq!(fixed.consume_a, gen.consume_a);
                assert_eq!(fixed.consume_b, gen.consume_b);
                let flags: Vec<bool> = (0..4).map(|i| fixed.emitted_a >> i & 1 != 0).collect();
                assert_eq!(flags, gen.emitted_a);
            }
        }
    }

    #[test]
    fn sop_set_n_wider_windows_consume_more_per_step() {
        // The whole point of wider vectors: one step retires more.
        let a: Vec<u32> = (0..16).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..16).map(|i| 2 * i + 1).collect();
        let o4 = sop_set_n(
            SetOpKind::Union,
            &a[..4],
            4,
            &[false; 4],
            &b[..4],
            4,
            &[false; 4],
            true,
        );
        let o16 = sop_set_n(
            SetOpKind::Union,
            &a,
            16,
            &[false; 16],
            &b,
            16,
            &[false; 16],
            true,
        );
        assert!(o16.consume_a + o16.consume_b > 3 * (o4.consume_a + o4.consume_b));
        assert!(o16.emit.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sop_against_scalar_reference_randomised() {
        // Drive a full two-set consumption loop through sop_set and compare
        // with scalar set operations. This is the datapath-level version of
        // the kernel property tests.
        let a: Vec<u32> = (0..64).map(|i| i * 3 + 1).collect();
        let b: Vec<u32> = (0..64).map(|i| i * 5 + 1).collect();
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Union,
            SetOpKind::Difference,
        ] {
            for partial in [false, true] {
                let got = run_windowed(kind, &a, &b, partial);
                let expect = scalar_reference(kind, &a, &b);
                assert_eq!(got, expect, "{kind:?} partial={partial}");
            }
        }
    }

    /// Minimal window-driving harness over `sop_set` for datapath tests.
    fn run_windowed(kind: SetOpKind, a: &[u32], b: &[u32], partial: bool) -> Vec<u32> {
        let mut out = Vec::new();
        let (mut pa, mut pb) = (0usize, 0usize);
        let (mut ea, mut eb) = (0u8, 0u8);
        loop {
            let va = (a.len() - pa).min(4);
            let vb = (b.len() - pb).min(4);
            if va == 0 || vb == 0 {
                break;
            }
            let mut wa = [u32::MAX; 4];
            let mut wb = [u32::MAX; 4];
            wa[..va].copy_from_slice(&a[pa..pa + va]);
            wb[..vb].copy_from_slice(&b[pb..pb + vb]);
            let o = sop_set(kind, &wa, va, ea, &wb, vb, eb, partial);
            out.extend_from_slice(&o.emit);
            pa += o.consume_a;
            pb += o.consume_b;
            // Shift emitted flags like LD_P shifts the windows.
            ea = (o.emitted_a >> o.consume_a) & ((1 << (va - o.consume_a)) - 1);
            eb = (o.emitted_b >> o.consume_b) & ((1 << (vb - o.consume_b)) - 1);
            assert!(o.consume_a > 0 || o.consume_b > 0, "progress guaranteed");
        }
        // Epilogue: remaining elements.
        match kind {
            SetOpKind::Intersect => {}
            SetOpKind::Difference => {
                for i in pa..a.len() {
                    let w = a[i];
                    let already =
                        (0..4).any(|k| pa + k < a.len() && ea >> k & 1 != 0 && a[pa + k] == w);
                    if !already {
                        out.push(w);
                    }
                }
            }
            SetOpKind::Union => {
                for (p, set, e) in [(pa, a, ea), (pb, b, eb)] {
                    for (k, &v) in set[p..].iter().enumerate() {
                        if k < 4 && e >> k & 1 != 0 {
                            continue;
                        }
                        out.push(v);
                    }
                }
            }
        }
        out
    }

    fn scalar_reference(kind: SetOpKind, a: &[u32], b: &[u32]) -> Vec<u32> {
        let bs: std::collections::BTreeSet<u32> = b.iter().copied().collect();
        match kind {
            SetOpKind::Intersect => a.iter().copied().filter(|x| bs.contains(x)).collect(),
            SetOpKind::Difference => a.iter().copied().filter(|x| !bs.contains(x)).collect(),
            SetOpKind::Union => {
                let mut s: std::collections::BTreeSet<u32> = a.iter().copied().collect();
                s.extend(b.iter().copied());
                s.into_iter().collect()
            }
        }
    }
}
