//! Deterministic soft-error model for the dbasip simulator.
//!
//! Real deployments of the paper's ASIP sit inside a DBMS appliance where
//! the SRAM scratchpads, the DMAC and the EIS datapath run continuously
//! under traffic; single-event upsets in the local stores and state
//! registers are a fact of life at 65/28 nm. This crate provides the
//! pieces every layer above builds on:
//!
//! * [`FaultPlan`] — a *deterministic*, seed-derived schedule of fault
//!   events (bit flips, stuck-at bits, dropped DMA bursts) against named
//!   microarchitectural targets at chosen cycles. No wall-clock, no global
//!   RNG: the same seed always produces the same campaign, so every
//!   failure a test finds is replayable.
//! * [`ProtectionKind`] — the protection schemes the local memories can be
//!   built with (none / word parity / SECDED ECC), with their per-access
//!   cycle surcharge and storage overhead. The `synth` crate prices the
//!   same enum into area/energy surcharges.
//! * [`ecc`] — the parity and Hamming SECDED(39,32) codecs themselves.
//! * [`FaultCounters`] — corrected/detected/escaped accounting that the
//!   CPU surfaces through its run statistics.
//! * [`storage`] — the durable-storage fault vocabulary (torn writes,
//!   WAL bit flips, dropped fsyncs, truncated snapshots) consumed by
//!   `dbx-storage`'s crash-recovery campaigns.
//!
//! The crate is dependency-free and sits below `dbx-mem` in the workspace
//! graph so memories, CPU, kernels and the query engine can all share the
//! same vocabulary.

pub mod ecc;
pub mod storage;

pub use storage::{StorageFaultEvent, StorageFaultKind, StorageFaultPlan, StorageFileClass};

/// A small xorshift64* PRNG: deterministic, seedable, no external state.
///
/// Used to derive fault campaigns from a seed. Not cryptographic — it only
/// needs to be reproducible and well-spread over the target space.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from `seed` (a zero seed is remapped to a
    /// fixed non-zero constant — xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Protection scheme of a local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtectionKind {
    /// Raw SRAM: upsets are invisible until they corrupt a result.
    #[default]
    None,
    /// One parity bit per 32-bit word: detects any odd number of flipped
    /// bits in a word, corrects nothing.
    Parity,
    /// Hamming SECDED(39,32): corrects single-bit upsets in place,
    /// detects double-bit upsets.
    Secded,
}

impl ProtectionKind {
    /// All variants, for report/matrix iteration.
    pub fn all() -> [ProtectionKind; 3] {
        [
            ProtectionKind::None,
            ProtectionKind::Parity,
            ProtectionKind::Secded,
        ]
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProtectionKind::None => "none",
            ProtectionKind::Parity => "parity",
            ProtectionKind::Secded => "secded",
        }
    }

    /// Check bits stored per 32-bit data word.
    pub fn check_bits(self) -> u32 {
        match self {
            ProtectionKind::None => 0,
            ProtectionKind::Parity => 1,
            ProtectionKind::Secded => 7,
        }
    }

    /// Extra cycles charged on every protected *read* access: the SECDED
    /// decoder (syndrome + correction mux) does not fit in the SRAM access
    /// cycle, so reads take one cycle longer. Parity check is a single
    /// XOR-reduce that fits in the existing cycle; writes pipeline the
    /// encoder for all schemes.
    pub fn extra_read_cycles(self) -> u32 {
        match self {
            ProtectionKind::Secded => 1,
            _ => 0,
        }
    }

    /// SRAM storage factor relative to an unprotected array
    /// (39/32 for SECDED, 33/32 for parity).
    pub fn storage_factor(self) -> f64 {
        (32 + self.check_bits()) as f64 / 32.0
    }
}

/// Microarchitectural resource a fault event strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A word in local data memory `Dmem(i)` (i = LSU index).
    Dmem(usize),
    /// The core's address register file (`ar[word % 16]`).
    RegFile,
    /// Extension-private state storage; the extension maps the event's
    /// `word` selector onto its own states.
    ExtState,
    /// The DMAC: the next burst of the active transfer is dropped.
    Dmac,
}

impl FaultTarget {
    fn describe(self) -> String {
        match self {
            FaultTarget::Dmem(i) => format!("dmem{i}"),
            FaultTarget::RegFile => "regfile".into(),
            FaultTarget::ExtState => "ext-state".into(),
            FaultTarget::Dmac => "dmac".into(),
        }
    }
}

/// What kind of upset the event models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient single-event upset: the targeted bit inverts once.
    BitFlip,
    /// Hard fault: the targeted bit is forced to `0`/`1` and every later
    /// write re-forces it (until the plan is cleared).
    StuckAt(bool),
    /// The DMAC silently skips one burst of the in-flight transfer
    /// (models a dropped bus grant / FIFO overrun).
    DroppedBurst,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Core cycle at which the fault strikes (compared against the
    /// processor's cycle counter at the top of each step).
    pub cycle: u64,
    /// Resource struck.
    pub target: FaultTarget,
    /// Upset model.
    pub kind: FaultKind,
    /// Word selector within the target. For memories this is reduced
    /// modulo the word count at injection time; for the register file
    /// modulo 16; extensions define their own mapping.
    pub word: u64,
    /// Bit index within the 32-bit word (`0..32`).
    pub bit: u8,
}

impl FaultEvent {
    /// `"dmem0 word 17 bit 5 @cycle 120"`-style description for reports.
    pub fn describe(&self) -> String {
        let what = match self.kind {
            FaultKind::BitFlip => format!("flip word {} bit {}", self.word, self.bit),
            FaultKind::StuckAt(v) => {
                format!("stuck-at-{} word {} bit {}", v as u8, self.word, self.bit)
            }
            FaultKind::DroppedBurst => "drop burst".into(),
        };
        format!("{} {} @cycle {}", self.target.describe(), what, self.cycle)
    }
}

/// A deterministic fault campaign: a list of [`FaultEvent`]s, kept sorted
/// by cycle. Install it on a `Processor` (or pass it through the run
/// drivers' `RunOptions`); events whose cycle has come are applied at the
/// top of the matching step and consumed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds one event (builder style).
    pub fn with(mut self, ev: FaultEvent) -> Self {
        self.push(ev);
        self
    }

    /// Adds a transient bit flip.
    pub fn with_bit_flip(self, target: FaultTarget, cycle: u64, word: u64, bit: u8) -> Self {
        self.with(FaultEvent {
            cycle,
            target,
            kind: FaultKind::BitFlip,
            word,
            bit,
        })
    }

    /// Adds a dropped DMAC burst.
    pub fn with_dropped_burst(self, cycle: u64) -> Self {
        self.with(FaultEvent {
            cycle,
            target: FaultTarget::Dmac,
            kind: FaultKind::DroppedBurst,
            word: 0,
            bit: 0,
        })
    }

    /// Adds one event, keeping the schedule sorted by cycle.
    pub fn push(&mut self, ev: FaultEvent) {
        let at = self.events.partition_point(|e| e.cycle <= ev.cycle);
        self.events.insert(at, ev);
    }

    /// Derives a campaign of `n` single-bit flips against data memory from
    /// a seed: each flip picks a dmem bank in `0..n_dmems`, a word
    /// selector in `0..word_space`, a bit and a strike cycle in
    /// `1..=max_cycle`. Deterministic in `seed`.
    pub fn seeded_dmem_flips(
        seed: u64,
        n: usize,
        n_dmems: usize,
        word_space: u64,
        max_cycle: u64,
    ) -> Self {
        let mut rng = XorShift64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..n {
            plan.push(FaultEvent {
                cycle: 1 + rng.below(max_cycle.max(1)),
                target: FaultTarget::Dmem(rng.below(n_dmems.max(1) as u64) as usize),
                kind: FaultKind::BitFlip,
                word: rng.below(word_space.max(1)),
                bit: (rng.below(32)) as u8,
            });
        }
        plan
    }

    /// Splits off every event due at or before `cycle` (they stay sorted).
    pub fn take_due(&mut self, cycle: u64) -> Vec<FaultEvent> {
        let n = self.events.partition_point(|e| e.cycle <= cycle);
        self.events.drain(..n).collect()
    }
}

/// Resilience accounting, aggregated across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Fault events actually applied (a plan event that targets a word
    /// that is out of range still lands after modulo reduction, so this
    /// normally equals the number of consumed events).
    pub injected: u64,
    /// Upsets corrected in place by SECDED.
    pub corrected: u64,
    /// Upsets detected (parity error or SECDED double-bit) — these raise
    /// a machine-fault trap.
    pub detected: u64,
    /// Reads that consumed a word known to be corrupted without the
    /// protection scheme noticing: silent data corruption.
    pub escaped: u64,
}

impl FaultCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.corrected += other.corrected;
        self.detected += other.detected;
        self.escaped += other.escaped;
    }

    /// True if nothing was ever injected or observed.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_spread() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Different seeds diverge immediately.
        let mut c = XorShift64::new(43);
        assert_ne!(xs[0], c.next_u64());
        // Zero seed is legal.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn plan_stays_sorted_by_cycle() {
        let plan = FaultPlan::new()
            .with_bit_flip(FaultTarget::Dmem(0), 50, 1, 1)
            .with_bit_flip(FaultTarget::Dmem(1), 10, 2, 2)
            .with_dropped_burst(30);
        let cycles: Vec<u64> = plan.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![10, 30, 50]);
    }

    #[test]
    fn take_due_consumes_in_order() {
        let mut plan = FaultPlan::new()
            .with_bit_flip(FaultTarget::Dmem(0), 5, 0, 0)
            .with_bit_flip(FaultTarget::Dmem(0), 9, 0, 1)
            .with_bit_flip(FaultTarget::Dmem(0), 20, 0, 2);
        let due = plan.take_due(10);
        assert_eq!(due.len(), 2);
        assert_eq!(plan.len(), 1);
        assert!(plan.take_due(9).is_empty());
        assert_eq!(plan.take_due(20).len(), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded_dmem_flips(0xBEEF, 8, 2, 1024, 5000);
        let b = FaultPlan::seeded_dmem_flips(0xBEEF, 8, 2, 1024, 5000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let c = FaultPlan::seeded_dmem_flips(0xF00D, 8, 2, 1024, 5000);
        assert_ne!(a, c);
        for e in a.events() {
            assert!(e.cycle >= 1 && e.cycle <= 5000);
            assert!(matches!(e.target, FaultTarget::Dmem(i) if i < 2));
            assert!(e.word < 1024);
            assert!(e.bit < 32);
        }
    }

    #[test]
    fn protection_kind_costs() {
        assert_eq!(ProtectionKind::None.check_bits(), 0);
        assert_eq!(ProtectionKind::Parity.check_bits(), 1);
        assert_eq!(ProtectionKind::Secded.check_bits(), 7);
        assert_eq!(ProtectionKind::Secded.extra_read_cycles(), 1);
        assert_eq!(ProtectionKind::Parity.extra_read_cycles(), 0);
        assert!((ProtectionKind::Secded.storage_factor() - 39.0 / 32.0).abs() < 1e-12);
        assert!((ProtectionKind::None.storage_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_merge() {
        let mut a = FaultCounters {
            injected: 1,
            corrected: 2,
            detected: 3,
            escaped: 4,
        };
        let b = FaultCounters {
            injected: 10,
            corrected: 20,
            detected: 30,
            escaped: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            FaultCounters {
                injected: 11,
                corrected: 22,
                detected: 33,
                escaped: 44
            }
        );
        assert!(!a.is_zero());
        assert!(FaultCounters::default().is_zero());
    }
}
