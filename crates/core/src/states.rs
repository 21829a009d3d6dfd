//! TIE states of the DB instruction-set extension.
//!
//! Models the internal memories of the paper's Figures 8 and 9: the Load
//! states filled by `LD`, the Word states the `SOP` operates on, the Result
//! states, and the TmpStore/Store FIFO drained by `ST`. Deviation noted in
//! DESIGN.md: our Load states buffer up to two 128-bit beats (eight
//! elements) per set so that `LD_P` can always keep the Word states "fully
//! filled with elements" (Table 1) without bubbles; the paper draws four
//! Load states but asserts the same invariant.

/// Sentinel padding value for invalid lanes. Set elements must be strictly
/// below this; the runner validates inputs.
pub const SENTINEL: u32 = u32::MAX;

/// Default capacity of each per-set Load buffer in elements (two 128-bit
/// beats). A single-beat buffer (4) matches the paper's Figure 8 drawing
/// but bubbles under partial loading — see DESIGN.md and the
/// `ablation/load_buffer` bench.
pub const LOAD_BUF_CAP: usize = 8;
/// Capacity of the store FIFO in elements (TmpStore 3 + Store 4 + result
/// backpressure slack; must absorb one full union emission of 8 on top of
/// an undrained partial beat).
pub const STORE_FIFO_CAP: usize = 12;

/// Slots of the [`ElemFifo`] ring: a power of two at least the largest
/// capacity plus the widest push, so a push can write its whole beat past
/// the tail without reaching the head.
const RING: usize = 32;
const _: () = assert!(RING.is_power_of_two() && RING >= STORE_FIFO_CAP + 8);

/// A small FIFO of set elements (a Load buffer or the store path).
///
/// A ring with a head index: pushes write a whole beat at the tail and
/// takes read a whole beat at the head, so neither moves the elements it
/// leaves behind. Slots outside `head..head + len` hold junk, which no
/// read returns: a take masks the lanes past its count with
/// [`SENTINEL`].
#[derive(Debug, Clone)]
pub struct ElemFifo {
    buf: [u32; RING],
    head: usize,
    len: usize,
    cap: usize,
}

impl ElemFifo {
    /// Creates an empty FIFO with the given capacity (<= 12).
    pub fn new(cap: usize) -> Self {
        assert!(cap <= STORE_FIFO_CAP);
        ElemFifo {
            buf: [SENTINEL; RING],
            head: 0,
            len: 0,
            cap,
        }
    }

    /// Number of buffered elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots remaining.
    #[inline]
    pub fn free(&self) -> usize {
        self.cap - self.len
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends `lanes[..n]` (`W` <= 8); panics if capacity would be
    /// exceeded (callers check `free()` first — overflow is a datapath
    /// bug, not a data case).
    #[inline]
    pub fn push<const W: usize>(&mut self, lanes: &[u32; W], n: usize) {
        assert!(
            W <= 8 && n <= W && n <= self.free(),
            "FIFO overflow: structural bug"
        );
        // All `W` lanes go in: the ones past `n` land on free slots
        // (`len + W <= 12 + 8 < RING`) and stay outside the elements.
        let tail = self.head + self.len;
        for (i, &v) in lanes.iter().enumerate() {
            self.buf[(tail + i) & (RING - 1)] = v;
        }
        self.len += n;
    }

    /// Removes up to `n` (<= 4) front elements. Returns them front-aligned
    /// in one beat whose lanes past the count hold [`SENTINEL`], and the
    /// count.
    #[inline]
    pub fn take(&mut self, n: usize) -> ([u32; 4], usize) {
        assert!(n <= 4, "at most one beat per take");
        let k = n.min(self.len);
        let beat = std::array::from_fn(|i| {
            let v = self.buf[(self.head + i) & (RING - 1)];
            if i < k {
                v
            } else {
                SENTINEL
            }
        });
        self.head = (self.head + k) & (RING - 1);
        self.len -= k;
        (beat, k)
    }

    /// Peeks the front element.
    #[inline]
    pub fn front(&self) -> Option<u32> {
        (self.len > 0).then(|| self.buf[self.head])
    }

    /// The buffered elements, front first.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.buf[(self.head + i) & (RING - 1)])
    }

    /// Clears the FIFO.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// The Result states: up to eight set elements (one union emission) in
/// fixed storage. Lanes past the length hold [`SENTINEL`]; derefs to the
/// valid elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultStates {
    lanes: [u32; 8],
    len: usize,
}

impl ResultStates {
    /// No elements.
    pub const EMPTY: ResultStates = ResultStates {
        lanes: [SENTINEL; 8],
        len: 0,
    };

    /// The first `len` of `lanes`; the rest are replaced by the sentinel.
    #[inline]
    pub fn new(lanes: [u32; 8], len: usize) -> Self {
        assert!(len <= 8, "the Result states hold eight elements");
        let mut out = Self::EMPTY;
        for (i, (o, v)) in out.lanes.iter_mut().zip(lanes).enumerate() {
            *o = if i < len { v } else { SENTINEL };
        }
        out.len = len;
        out
    }

    /// The first `len` (<= 4) elements of one beat.
    #[inline]
    pub fn from_beat(vals: [u32; 4], len: usize) -> Self {
        let [a, b, c, d] = vals;
        Self::new([a, b, c, d, SENTINEL, SENTINEL, SENTINEL, SENTINEL], len)
    }

    /// All eight lanes, sentinel past the length.
    #[inline]
    pub fn lanes(&self) -> &[u32; 8] {
        &self.lanes
    }
}

impl std::ops::Deref for ResultStates {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.lanes[..self.len]
    }
}

/// A 4-element Word window with validity count and per-lane emitted flags.
#[derive(Debug, Clone)]
pub struct Window {
    /// Front-aligned values; invalid lanes hold [`SENTINEL`].
    pub vals: [u32; 4],
    /// Valid lane count.
    pub cnt: usize,
    /// "Already emitted" lane mask, bit `i` for lane `i`
    /// (full-window-retirement mode).
    pub emitted: u8,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            vals: [SENTINEL; 4],
            cnt: 0,
            emitted: 0,
        }
    }
}

impl Window {
    /// Shifts out `consumed` front lanes (with their flags) and refills
    /// from `src` as far as possible.
    #[inline]
    pub fn shift_refill(&mut self, consumed: usize, src: &mut ElemFifo) {
        debug_assert!(consumed <= self.cnt);
        let remain = self.cnt - consumed;
        let (beat, got) = if remain < 4 && !src.is_empty() {
            src.take(4 - remain)
        } else {
            ([SENTINEL; 4], 0)
        };
        // Lane `i` keeps old lane `i + consumed` below `remain` and takes
        // refill lane `i - remain` above it; the `& 3` only restates the
        // bounds (both indices are < 4 where they are used).
        let old = self.vals;
        self.vals = std::array::from_fn(|i| {
            if i < remain {
                old[(i + consumed) & 3]
            } else {
                beat[i.wrapping_sub(remain) & 3]
            }
        });
        self.emitted = (self.emitted >> (consumed & 7)) & ((1u8 << remain) - 1);
        self.cnt = remain + got;
    }

    /// True when the window holds four valid lanes.
    pub fn is_full(&self) -> bool {
        self.cnt == 4
    }
}

/// All TIE states of the DB extension.
#[derive(Debug, Clone)]
pub struct DbStates {
    /// Load buffer for set A / merge run 0.
    pub load_a: ElemFifo,
    /// Load buffer for set B / merge run 1.
    pub load_b: ElemFifo,
    /// Word window A (also the merge work vector).
    pub word_a: Window,
    /// Word window B.
    pub word_b: Window,
    /// Lanes of A consumed by the last `SOP`, pending `LD_P`.
    pub consumed_a: usize,
    /// Lanes of B consumed by the last `SOP`, pending `LD_P`.
    pub consumed_b: usize,
    /// Result states (up to 8 for union).
    pub result: ResultStates,
    /// Store FIFO (TmpStore + Store states).
    pub fifo: ElemFifo,
    /// Copy buffer for the 128-bit copy / presort path.
    pub cpy: ElemFifo,
    /// Read pointer of set A / merge run 0 (byte address, 16-aligned).
    pub ptr_a: u32,
    /// End address of set A.
    pub end_a: u32,
    /// Read pointer of set B / merge run 1.
    pub ptr_b: u32,
    /// End address of set B.
    pub end_b: u32,
    /// Write pointer of the result sequence.
    pub ptr_c: u32,
    /// Elements emitted to memory so far.
    pub out_cnt: u32,
    /// Core-loop completion flag (one input stream fully consumed).
    pub done: bool,
    /// Whether the merge work vector has been primed.
    pub merge_primed: bool,
}

impl Default for DbStates {
    fn default() -> Self {
        Self::with_load_buf_cap(LOAD_BUF_CAP)
    }
}

impl DbStates {
    /// Creates power-on states with a specific Load-buffer depth.
    pub fn with_load_buf_cap(cap: usize) -> Self {
        DbStates {
            load_a: ElemFifo::new(cap),
            load_b: ElemFifo::new(cap),
            word_a: Window::default(),
            word_b: Window::default(),
            consumed_a: 0,
            consumed_b: 0,
            result: ResultStates::EMPTY,
            fifo: ElemFifo::new(STORE_FIFO_CAP),
            cpy: ElemFifo::new(LOAD_BUF_CAP),
            ptr_a: 0,
            end_a: 0,
            ptr_b: 0,
            end_b: 0,
            ptr_c: 0,
            out_cnt: 0,
            done: false,
            merge_primed: false,
        }
    }

    /// Power-on reset of every state (the TIE reset values), keeping the
    /// configured Load-buffer depth.
    pub fn reset(&mut self) {
        *self = DbStates::with_load_buf_cap(self.load_a.capacity());
    }

    /// True when stream A can deliver no more elements (pointer exhausted
    /// and load buffer empty).
    pub fn a_supply_exhausted(&self) -> bool {
        self.ptr_a >= self.end_a && self.load_a.is_empty()
    }

    /// True when stream B can deliver no more elements.
    pub fn b_supply_exhausted(&self) -> bool {
        self.ptr_b >= self.end_b && self.load_b.is_empty()
    }

    /// True when window A can take part in a `SOP`: full, or holding the
    /// final tail of the stream.
    pub fn a_window_ready(&self) -> bool {
        self.word_a.is_full() || (self.a_supply_exhausted() && self.word_a.cnt > 0)
    }

    /// True when window B can take part in a `SOP`.
    pub fn b_window_ready(&self) -> bool {
        self.word_b.is_full() || (self.b_supply_exhausted() && self.word_b.cnt > 0)
    }

    /// True when window A is drained and the stream has ended.
    pub fn a_stream_done(&self) -> bool {
        self.a_supply_exhausted() && self.word_a.cnt == 0
    }

    /// True when window B is drained and the stream has ended.
    pub fn b_stream_done(&self) -> bool {
        self.b_supply_exhausted() && self.word_b.cnt == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    #[test]
    fn fifo_push_take_order() {
        let mut f = ElemFifo::new(8);
        f.push(&[1, 2, 3, 0], 3);
        f.push(&[4], 1);
        assert_eq!(f.len(), 4);
        assert_eq!(f.take(2), ([1, 2, SENTINEL, SENTINEL], 2));
        assert_eq!(f.iter().collect::<Vec<_>>(), [3, 4]);
        assert_eq!(f.front(), Some(3));
        assert_eq!(f.take(4), ([3, 4, SENTINEL, SENTINEL], 2));
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn fifo_overflow_is_a_bug() {
        let mut f = ElemFifo::new(4);
        f.push(&[1, 2, 3, 4, 5, 0, 0, 0], 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fifo_matches_a_queue_model_across_ring_wraps(
            cap in 1usize..=STORE_FIFO_CAP,
            steps in proptest::collection::vec((any::<bool>(), 0usize..=8, any::<u32>()), 1..64),
        ) {
            let mut f = ElemFifo::new(cap);
            let mut model: Vec<u32> = Vec::new();
            for (is_push, n, seed) in steps {
                if is_push {
                    let n = n.min(f.free());
                    // Lanes past `n` carry junk: the push must not keep it.
                    let lanes: [u32; 8] =
                        std::array::from_fn(|i| seed.wrapping_add(i as u32) % SENTINEL);
                    f.push(&lanes, n);
                    model.extend_from_slice(&lanes[..n]);
                } else {
                    let (beat, k) = f.take(n.min(4));
                    let expect: Vec<u32> = model.drain(..k).collect();
                    prop_assert_eq!(&beat[..k], &expect[..]);
                    prop_assert!(beat[k..].iter().all(|&v| v == SENTINEL));
                }
                prop_assert_eq!(f.iter().collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(f.front(), model.first().copied());
            }
        }
    }

    #[test]
    fn window_shift_refill_preserves_order_and_flags() {
        let mut w = Window::default();
        let mut src = ElemFifo::new(8);
        src.push(&[10, 20, 30, 40, 50, 60, 0, 0], 6);
        w.shift_refill(0, &mut src);
        assert_eq!(w.vals, [10, 20, 30, 40]);
        assert!(w.is_full());
        w.emitted = 0b0110;
        w.shift_refill(2, &mut src);
        assert_eq!(w.vals, [30, 40, 50, 60]);
        assert_eq!(w.emitted, 0b0001, "flags shift with lanes");
        assert!(src.is_empty());
        // Partial refill leaves sentinels.
        w.shift_refill(3, &mut src);
        assert_eq!(w.cnt, 1);
        assert_eq!(w.vals, [60, SENTINEL, SENTINEL, SENTINEL]);
    }

    #[test]
    fn stream_status_predicates() {
        let mut s = DbStates::default();
        assert!(s.a_supply_exhausted());
        assert!(s.a_stream_done());
        s.ptr_a = 0x100;
        s.end_a = 0x200;
        assert!(!s.a_supply_exhausted());
        s.ptr_a = 0x200;
        s.load_a.push(&[1], 1);
        assert!(
            !s.a_supply_exhausted(),
            "buffered elements still count as supply"
        );
        s.load_a.take(1);
        assert!(s.a_supply_exhausted());
        s.word_a.vals[0] = 5;
        s.word_a.cnt = 1;
        assert!(s.a_window_ready(), "tail window is ready when supply ended");
        assert!(!s.a_stream_done());
    }
}
