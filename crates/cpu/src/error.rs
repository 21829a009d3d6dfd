//! Simulator error type.

use core::fmt;
use dbx_mem::MemError;

/// Why a machine fault was raised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// A SECDED-protected memory hit an uncorrectable double-bit upset.
    UncorrectableEcc {
        /// Name of the faulting memory.
        mem: &'static str,
        /// Word-aligned address of the corrupted word.
        addr: u32,
    },
    /// A parity-protected memory detected an upset (parity detects, but
    /// cannot correct).
    ParityError {
        /// Name of the faulting memory.
        mem: &'static str,
        /// Word-aligned address of the corrupted word.
        addr: u32,
    },
    /// The watchdog cycle budget expired before the program halted.
    Watchdog {
        /// The expired budget in cycles.
        budget: u64,
    },
    /// A DMA transfer completed with a dropped burst.
    DmaTransfer {
        /// Source address of the failed transfer.
        src: u32,
        /// Destination address of the failed transfer.
        dst: u32,
    },
}

impl FaultCause {
    /// Name of the faulting resource, for reports.
    pub fn resource(&self) -> &'static str {
        match self {
            FaultCause::UncorrectableEcc { mem, .. } | FaultCause::ParityError { mem, .. } => mem,
            FaultCause::Watchdog { .. } => "watchdog",
            FaultCause::DmaTransfer { .. } => "dmac",
        }
    }
}

/// A precise machine-fault trap: the simulator's analogue of a hardware
/// exception. Unlike the programming-error variants of [`SimError`], a
/// machine fault describes a *survivable hardware event* — recovery
/// policies in the run drivers catch it, retry from a checkpoint, or
/// degrade to the scalar baseline kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineFault {
    /// Program counter of the faulting instruction (the precise-trap
    /// guarantee: all earlier instructions retired, this one did not).
    pub pc: u32,
    /// Cycle at which the fault was taken.
    pub cycle: u64,
    /// What went wrong.
    pub cause: FaultCause,
}

impl fmt::Display for MachineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cause = match &self.cause {
            FaultCause::UncorrectableEcc { mem, addr } => {
                format!("uncorrectable ECC error in {mem} at {addr:#010x}")
            }
            FaultCause::ParityError { mem, addr } => {
                format!("parity error in {mem} at {addr:#010x}")
            }
            FaultCause::Watchdog { budget } => {
                format!("watchdog expired after {budget} cycles")
            }
            FaultCause::DmaTransfer { src, dst } => {
                format!("DMA transfer {src:#010x} -> {dst:#010x} failed")
            }
        };
        write!(
            f,
            "machine fault at pc {:#010x}, cycle {}: {cause}",
            self.pc, self.cycle
        )
    }
}

/// Errors raised while building or executing programs on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Propagated memory-system error.
    Mem(MemError),
    /// PC does not point at a decoded instruction.
    BadPc {
        /// The offending program counter.
        pc: u32,
    },
    /// An instruction requires a processor option the configuration lacks
    /// (e.g. division on a DBA core, FLIX on a non-VLIW core).
    OptionMissing {
        /// Program counter of the instruction.
        pc: u32,
        /// Name of the missing option.
        option: &'static str,
    },
    /// Unsigned division by zero.
    DivByZero {
        /// Program counter of the instruction.
        pc: u32,
    },
    /// An extension op was issued but no extension is attached.
    NoExtension {
        /// Program counter of the instruction.
        pc: u32,
    },
    /// The extension rejected an opcode.
    UnknownExtOp {
        /// Extension-local opcode.
        op: u16,
    },
    /// Two operations in one bundle wrote the same state — a structural
    /// hazard that the TIE verification flow is meant to catch.
    WriteConflict {
        /// Name of the doubly-written state.
        state: &'static str,
    },
    /// The run exceeded its cycle budget without halting.
    MaxCyclesExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// Program construction failed (unresolved label, size overflow, ...).
    BadProgram(String),
    /// Binary encoding/decoding failed.
    Encoding(String),
    /// A precise machine-fault trap (detected upset, watchdog expiry,
    /// failed DMA). Recoverable by the run drivers' retry/degrade
    /// policies, unlike the programming-error variants above.
    Fault(MachineFault),
}

impl SimError {
    /// True when the error is a machine fault (survivable hardware event)
    /// rather than a programming error.
    pub fn is_machine_fault(&self) -> bool {
        matches!(self, SimError::Fault(_))
    }

    /// The machine fault payload, when this is one.
    pub fn machine_fault(&self) -> Option<&MachineFault> {
        match self {
            SimError::Fault(mf) => Some(mf),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(e) => write!(f, "memory error: {e}"),
            SimError::BadPc { pc } => write!(f, "bad program counter {pc:#010x}"),
            SimError::OptionMissing { pc, option } => {
                write!(
                    f,
                    "instruction at {pc:#010x} needs missing processor option '{option}'"
                )
            }
            SimError::DivByZero { pc } => write!(f, "division by zero at {pc:#010x}"),
            SimError::NoExtension { pc } => {
                write!(f, "extension op at {pc:#010x} but no extension attached")
            }
            SimError::UnknownExtOp { op } => write!(f, "unknown extension op {op}"),
            SimError::WriteConflict { state } => {
                write!(
                    f,
                    "structural hazard: state '{state}' written twice in one cycle"
                )
            }
            SimError::MaxCyclesExceeded { budget } => {
                write!(f, "simulation exceeded {budget} cycles without halting")
            }
            SimError::BadProgram(msg) => write!(f, "bad program: {msg}"),
            SimError::Encoding(msg) => write!(f, "encoding error: {msg}"),
            SimError::Fault(mf) => write!(f, "{mf}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<SimError> = vec![
            SimError::BadPc { pc: 0x40 },
            SimError::DivByZero { pc: 0x44 },
            SimError::OptionMissing {
                pc: 0,
                option: "div",
            },
            SimError::NoExtension { pc: 0 },
            SimError::UnknownExtOp { op: 7 },
            SimError::WriteConflict { state: "RESULT" },
            SimError::MaxCyclesExceeded { budget: 10 },
            SimError::BadProgram("x".into()),
            SimError::Encoding("y".into()),
            SimError::Fault(MachineFault {
                pc: 0x40,
                cycle: 99,
                cause: FaultCause::Watchdog { budget: 50 },
            }),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn machine_fault_is_distinguishable_and_precise() {
        let mf = MachineFault {
            pc: 0x4000_0010,
            cycle: 1234,
            cause: FaultCause::UncorrectableEcc {
                mem: "dmem0",
                addr: 0x6000_0040,
            },
        };
        let e = SimError::Fault(mf.clone());
        assert!(e.is_machine_fault());
        assert_eq!(e.machine_fault(), Some(&mf));
        assert!(!SimError::BadPc { pc: 0 }.is_machine_fault());
        let s = e.to_string();
        assert!(s.contains("0x40000010"), "{s}");
        assert!(s.contains("1234"), "{s}");
        assert!(s.contains("dmem0"), "{s}");
        assert_eq!(mf.cause.resource(), "dmem0");
    }

    #[test]
    fn mem_error_converts() {
        let e: SimError = MemError::Unmapped { addr: 1 }.into();
        assert!(matches!(e, SimError::Mem(_)));
    }
}
