//! Structural area model.
//!
//! Components are sized in gate equivalents (GE) from their datapath
//! structure — comparator bits, shuffle lanes, state bits, decode terms —
//! using per-unit costs fitted to the paper's synthesis (Tables 3 and 4).
//! Memory macros are sized per KiB from the local-store configuration.

use crate::tech::Tech;
use dbx_core::datapath::{ALL_TO_ALL_COMPARATORS, MERGE8_COMPARATORS, SORT4_COMPARATORS};
use dbx_core::states::{LOAD_BUF_CAP, STORE_FIFO_CAP};
use dbx_core::ProcModel;
use dbx_faults::ProtectionKind;

/// One sized logic component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name (Table 4 vocabulary).
    pub name: &'static str,
    /// Size in gate equivalents.
    pub ge: f64,
    /// Relative switching-activity factor for the power model (the EIS
    /// datapaths toggle more of their gates per cycle than control logic).
    pub activity: f64,
}

/// Area report for one configuration at one technology node.
#[derive(Debug, Clone)]
pub struct AreaReport {
    /// Configuration evaluated.
    pub model: ProcModel,
    /// Technology node.
    pub tech: Tech,
    /// Logic components.
    pub components: Vec<Component>,
    /// Logic area in mm².
    pub logic_mm2: f64,
    /// On-chip memory area in mm² (local stores; the baseline's small
    /// cache arrays are part of its logic budget, as in the paper).
    pub mem_mm2: f64,
}

impl AreaReport {
    /// Total area (logic + memory) in mm².
    pub fn total_mm2(&self) -> f64 {
        self.logic_mm2 + self.mem_mm2
    }
}

// ---- fitted per-unit costs (65 nm LP, including routing overhead) ----

/// GE per comparator bit of the all-to-all array (comparator cell plus the
/// retire/boundary logic and result routing amortised over the array).
pub(crate) const GE_PER_A2A_CMP_BIT: f64 = 79.3;
/// GE per comparator bit of the sorting/merge networks (min/max only —
/// cheaper than the eq+lt cells of the all-to-all array).
const GE_PER_NET_CMP_BIT: f64 = 46.9;
/// GE per TIE state bit (flip-flop plus read/write access muxing).
pub(crate) const GE_PER_STATE_BIT: f64 = 28.0;
/// GE per 32-bit output lane of an emit/shuffle network, per input it can
/// select from.
const GE_PER_EMIT_LANE_INPUT: f64 = 1540.0;

// ---- local-store protection (parity / SECDED ECC) ----

/// GE per protected port for word parity: one 32-bit XOR-reduce tree per
/// direction plus the stored-vs-computed compare on reads.
const GE_PARITY_PER_PORT: f64 = 180.0;
/// GE per protected port for Hamming SECDED(39,32): seven overlapping
/// parity trees on the write side, syndrome computation plus the 39-bit
/// single-bit correction mux on the read side.
const GE_SECDED_PER_PORT: f64 = 1_650.0;

/// The encoder/decoder logic a protected local store adds (`None` when
/// the configuration has no local stores or no protection). The dual-port
/// data arrays need codecs on every port of every LSU's memory.
fn protection_component(model: ProcModel, protection: ProtectionKind) -> Option<Component> {
    let cfg = model.cpu_config();
    if cfg.dmem_kb_per_lsu == 0 {
        return None;
    }
    let ports = 2.0 * cfg.n_lsus as f64;
    match protection {
        ProtectionKind::None => None,
        ProtectionKind::Parity => Some(Component {
            name: "Mem protection: parity",
            ge: ports * GE_PARITY_PER_PORT,
            activity: 1.2,
        }),
        ProtectionKind::Secded => Some(Component {
            name: "Mem protection: SECDED",
            ge: ports * GE_SECDED_PER_PORT,
            activity: 1.2,
        }),
    }
}

/// Counts the extension's architectural state bits from the real datapath
/// constants (two load buffers, two word windows with flags, the result
/// states, the store FIFO, the copy buffer, pointers and counters).
fn eis_state_bits() -> f64 {
    let load = 2 * LOAD_BUF_CAP * 32 + 2 * 4; // values + occupancy
    let word = 2 * (4 * 32 + 4 + 3); // values + emitted flags + count
    let result = 8 * 32 + 4;
    let fifo = STORE_FIFO_CAP * 32 + 4;
    let cpy = LOAD_BUF_CAP * 32 + 4;
    let ptrs = 5 * 32;
    let misc = 32 + 8 + 8; // out_cnt, consumed counters, flags
    (load + word + result + fifo + cpy + ptrs + misc) as f64
}

/// Logic components of a configuration (65 nm GE counts; the node only
/// scales µm² per GE).
pub fn components(model: ProcModel) -> Vec<Component> {
    let extra = (model.n_lsus() - 1) as f64;
    match model {
        ProcModel::Mini108 => vec![
            Component {
                name: "RISC core",
                ge: 95_000.0,
                activity: 1.0,
            },
            Component {
                name: "Divider",
                ge: 10_000.0,
                activity: 0.6,
            },
            Component {
                name: "DSP instructions",
                ge: 18_000.0,
                activity: 0.8,
            },
            Component {
                name: "Cache controller + tags",
                ge: 25_000.0,
                activity: 1.2,
            },
            Component {
                name: "32-bit bus interface",
                ge: 5_000.0,
                activity: 1.0,
            },
        ],
        ProcModel::Dba1Lsu | ProcModel::Dba2Lsu => vec![
            Component {
                name: "RISC core",
                ge: 92_000.0,
                activity: 1.0,
            },
            Component {
                name: "128-bit LSU + local-store interface",
                // Table 3 shows the second LSU costs almost nothing
                // without the EIS datapaths behind it (0.177 mm² both).
                ge: 30_500.0 + 400.0 * extra,
                activity: 1.0,
            },
        ],
        ProcModel::Dba1LsuEis { .. } | ProcModel::Dba2LsuEis { .. } => {
            // The EIS components follow Table 4's decomposition. Sizes are
            // structural formulas whose unit costs are fitted at the
            // 2-LSU design point; the second LSU widens every datapath
            // that touches both streams.
            let a2a_bits = (ALL_TO_ALL_COMPARATORS * 32) as f64;
            let net_bits = ((MERGE8_COMPARATORS + SORT4_COMPARATORS) * 32) as f64;
            vec![
                Component {
                    name: "Basic Core",
                    ge: 79_000.0 + 13_000.0 * extra,
                    activity: 1.0,
                },
                Component {
                    name: "Decoding/Muxing",
                    ge: 52_500.0 + 12_000.0 * extra,
                    activity: 1.0,
                },
                Component {
                    name: "States",
                    ge: eis_state_bits() * GE_PER_STATE_BIT + 12_000.0 * extra,
                    activity: 1.6,
                },
                Component {
                    name: "Op: All",
                    ge: a2a_bits * GE_PER_A2A_CMP_BIT + 10_000.0 * extra,
                    activity: 1.6,
                },
                Component {
                    name: "Op: Intersection",
                    // 4 output lanes selecting among 4 matched inputs.
                    ge: 4.0 * 4.0 * GE_PER_EMIT_LANE_INPUT + 6_000.0 * extra,
                    activity: 1.6,
                },
                Component {
                    name: "Op: Difference",
                    // intersection plus the unmatched filter per lane.
                    ge: 4.0 * 4.0 * GE_PER_EMIT_LANE_INPUT + 7_700.0 + 8_000.0 * extra,
                    activity: 1.6,
                },
                Component {
                    name: "Op: Union",
                    // 8 output lanes selecting among all 8 inputs of both
                    // windows — "it requires more wires than the other
                    // instructions" (Section 5.3).
                    ge: 8.0 * 4.0 * GE_PER_EMIT_LANE_INPUT + 5_520.0 + 24_000.0 * extra,
                    activity: 1.6,
                },
                Component {
                    name: "Op: Merge-Sort",
                    // Sorting + merge networks; single LSU, no partial
                    // loading — the cheapest op (Section 5.3).
                    ge: net_bits * GE_PER_NET_CMP_BIT,
                    activity: 1.6,
                },
            ]
        }
    }
}

/// Memory macro area in mm² for a configuration. Protection widens the
/// data arrays by the check bits (33/32 for parity, 39/32 for SECDED);
/// the single-port instruction memory stays unprotected.
fn mem_mm2(model: ProcModel, tech: &Tech, protection: ProtectionKind) -> f64 {
    let cfg = model.cpu_config();
    if cfg.dmem_kb_per_lsu == 0 {
        return 0.0; // the baseline's cache arrays live in its logic budget
    }
    let imem = cfg.imem_kb as f64 * tech.sram_sp_um2_per_kb;
    // Dual-port data memories; smaller banks synthesise marginally
    // denser in the paper's numbers (0.870 vs 0.874 mm²).
    let per_kb = if cfg.n_lsus == 2 {
        tech.sram_dp_um2_per_kb * 0.9938
    } else {
        tech.sram_dp_um2_per_kb
    };
    let dmem = cfg.total_dmem_kb() as f64 * per_kb * protection.storage_factor();
    (imem + dmem) / 1.0e6
}

/// Full area report for a configuration at a node (unprotected local
/// stores — the paper's Table 3 design point).
pub fn area_report(model: ProcModel, tech: Tech) -> AreaReport {
    area_report_with(model, tech, ProtectionKind::None)
}

/// [`area_report`] with protected local stores: the data arrays grow by
/// the check-bit storage factor and the encoder/decoder logic appears as
/// an extra component.
pub fn area_report_with(model: ProcModel, tech: Tech, protection: ProtectionKind) -> AreaReport {
    let mut components = components(model);
    components.extend(protection_component(model, protection));
    let logic_um2: f64 = components.iter().map(|c| c.ge * tech.ge_um2).sum();
    AreaReport {
        model,
        tech,
        logic_mm2: logic_um2 / 1.0e6,
        mem_mm2: mem_mm2(model, &tech, protection),
        components,
    }
}

/// Table 4: relative area per component of an EIS configuration.
pub fn table4_breakdown(model: ProcModel) -> Vec<(&'static str, f64)> {
    assert!(model.has_eis(), "Table 4 describes the EIS components");
    let comps = components(model);
    let total: f64 = comps.iter().map(|c| c.ge).sum();
    comps
        .iter()
        .map(|c| (c.name, 100.0 * c.ge / total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64, what: &str) {
        let rel = (got - want).abs() / want;
        assert!(
            rel <= tol,
            "{what}: got {got:.4}, paper {want:.4} (rel {rel:.3})"
        );
    }

    #[test]
    fn table3_logic_areas_65nm() {
        let t = Tech::tsmc65lp();
        // Paper Table 3, logic column.
        assert_close(
            area_report(ProcModel::Mini108, t).logic_mm2,
            0.2201,
            0.03,
            "108Mini",
        );
        assert_close(
            area_report(ProcModel::Dba1Lsu, t).logic_mm2,
            0.177,
            0.03,
            "DBA_1LSU",
        );
        assert_close(
            area_report(ProcModel::Dba1LsuEis { partial: true }, t).logic_mm2,
            0.523,
            0.03,
            "DBA_1LSU_EIS",
        );
        assert_close(
            area_report(ProcModel::Dba2LsuEis { partial: true }, t).logic_mm2,
            0.645,
            0.03,
            "DBA_2LSU_EIS",
        );
    }

    #[test]
    fn table3_memory_areas_65nm() {
        let t = Tech::tsmc65lp();
        assert_eq!(area_report(ProcModel::Mini108, t).mem_mm2, 0.0);
        assert_close(
            area_report(ProcModel::Dba1Lsu, t).mem_mm2,
            0.874,
            0.02,
            "DBA_1LSU mem",
        );
        assert_close(
            area_report(ProcModel::Dba2LsuEis { partial: true }, t).mem_mm2,
            0.870,
            0.02,
            "DBA_2LSU mem",
        );
    }

    #[test]
    fn table3_28nm_shrink() {
        let m = ProcModel::Dba2LsuEis { partial: true };
        let r = area_report(m, Tech::gf28slp());
        assert_close(r.logic_mm2, 0.169, 0.04, "28nm logic");
        assert_close(r.mem_mm2, 0.232, 0.04, "28nm mem");
        let r65 = area_report(m, Tech::tsmc65lp());
        let shrink = r65.logic_mm2 / r.logic_mm2;
        assert!((3.6..4.0).contains(&shrink), "shrink {shrink}");
    }

    #[test]
    fn table4_breakdown_matches_paper() {
        // Paper Table 4 (DBA_2LSU_EIS): percentages per component.
        let want = [
            ("Basic Core", 20.5),
            ("Decoding/Muxing", 14.4),
            ("States", 14.7),
            ("Op: All", 11.3),
            ("Op: Intersection", 6.8),
            ("Op: Difference", 9.0),
            ("Op: Union", 17.6),
            ("Op: Merge-Sort", 5.7),
        ];
        let got = table4_breakdown(ProcModel::Dba2LsuEis { partial: true });
        for ((gn, gp), (wn, wp)) in got.iter().zip(want.iter()) {
            assert_eq!(gn, wn);
            assert!((gp - wp).abs() < 1.2, "{gn}: got {gp:.1}%, paper {wp:.1}%");
        }
        let sum: f64 = got.iter().map(|(_, p)| p).sum();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn union_is_the_largest_op_and_merge_the_smallest() {
        let comps = components(ProcModel::Dba2LsuEis { partial: true });
        let op = |name: &str| comps.iter().find(|c| c.name == name).unwrap().ge;
        assert!(op("Op: Union") > op("Op: Difference"));
        assert!(op("Op: Difference") > op("Op: Intersection"));
        assert!(op("Op: Merge-Sort") < op("Op: Intersection"));
    }

    #[test]
    fn second_lsu_grows_every_eis_datapath() {
        let one = components(ProcModel::Dba1LsuEis { partial: true });
        let two = components(ProcModel::Dba2LsuEis { partial: true });
        for (a, b) in one.iter().zip(two.iter()) {
            assert!(b.ge >= a.ge, "{} shrank with a second LSU", a.name);
        }
    }

    #[test]
    fn protection_surcharges_are_modest_and_ordered() {
        let t = Tech::tsmc65lp();
        let m = ProcModel::Dba2LsuEis { partial: true };
        let base = area_report(m, t).total_mm2();
        let none = area_report_with(m, t, ProtectionKind::None).total_mm2();
        let parity = area_report_with(m, t, ProtectionKind::Parity).total_mm2();
        let secded = area_report_with(m, t, ProtectionKind::Secded).total_mm2();
        assert_eq!(none, base, "no protection must not move Table 3");
        assert!(base < parity && parity < secded);
        let p = (parity - base) / base;
        let s = (secded - base) / base;
        assert!((0.003..0.06).contains(&p), "parity surcharge {p:.4}");
        assert!((0.03..0.20).contains(&s), "SECDED surcharge {s:.4}");
        // The baseline has no local stores to protect.
        let mini = area_report_with(ProcModel::Mini108, t, ProtectionKind::Secded);
        assert_eq!(
            mini.total_mm2(),
            area_report(ProcModel::Mini108, t).total_mm2()
        );
    }

    #[test]
    fn chip_is_orders_of_magnitude_smaller_than_a_xeon() {
        // Paper Section 5.3: DBA_2LSU_EIS is ~73x smaller than an Intel
        // Xeon 3040 (111 mm², 65 nm).
        let r = area_report(ProcModel::Dba2LsuEis { partial: true }, Tech::tsmc65lp());
        let ratio = 111.0 / r.total_mm2();
        assert!((60.0..90.0).contains(&ratio), "Xeon ratio {ratio}");
    }
}
