//! Table 6 — sorted-set intersection comparison: `swset` (Schlegel et al.
//! on an Intel i7-920) vs `hwset` (the EIS intersection on DBA_2LSU_EIS).
//!
//! The paper's headline: `hwset` throughput is 9.4 % *higher* than the
//! published `swset` number while the processor draws "up to 960x" less
//! power than the i7-920's TDP. As in Table 5, the x86 column is the
//! published constants and only the DBA column is simulated.

use crate::report::f1;
use crate::table5::{render_comparison, Platform};
use crate::{scaled, SEED};
use dbx_core::{run_set_op, ProcModel, SetOpKind};
use dbx_synth::{fmax_mhz, power_report, Tech};
use dbx_workloads::set_pair_with_selectivity;

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Paper's Intel i7-920 column.
    pub paper_x86: Platform,
    /// Paper's DBA_2LSU_EIS column.
    pub paper_dba: Platform,
    /// Our simulated hwset throughput at the model fMAX (M elements/s).
    pub measured_hwset: f64,
    /// Our model's DBA power (W).
    pub model_dba_power_w: f64,
    /// Energy ratio: x86 TDP / DBA model power.
    pub energy_ratio: f64,
    /// Elements per set in the simulation.
    pub hw_n: usize,
}

/// Paper Table 6 constants (see [`dbx_x86ref::published`]).
pub fn paper_platforms() -> (Platform, Platform) {
    use dbx_x86ref::published::{dba_2lsu_eis, i7_920};
    (
        Platform {
            name: "Intel i7-920 (swset)",
            throughput_meps: i7_920::SWSET_MEPS,
            clock_ghz: i7_920::CLOCK_GHZ,
            tdp_w: i7_920::TDP_W,
            cores_threads: i7_920::CORES_THREADS,
            feature_nm: i7_920::FEATURE_NM,
            area_mm2: i7_920::AREA_MM2,
        },
        Platform {
            name: "DBA_2LSU_EIS (hwset)",
            throughput_meps: dba_2lsu_eis::HWSET_MEPS,
            clock_ghz: dba_2lsu_eis::CLOCK_GHZ,
            tdp_w: dba_2lsu_eis::POWER_W,
            cores_threads: dba_2lsu_eis::CORES_THREADS,
            feature_nm: dba_2lsu_eis::FEATURE_NM,
            area_mm2: dba_2lsu_eis::AREA_MM2,
        },
    )
}

/// Runs the comparison. `scale = 1.0` intersects 2x2500 on the ASIP at
/// 50 % selectivity, the paper's size.
pub fn run(scale: f64) -> Table6 {
    let model = ProcModel::Dba2LsuEis { partial: true };
    let tech = Tech::tsmc65lp();
    let hw_n = scaled(2500, scale);

    let (a, b) = set_pair_with_selectivity(hw_n, hw_n, 0.5, SEED);
    let hw = run_set_op(model, SetOpKind::Intersect, &a, &b).expect("hwset");
    let measured_hwset = hw.throughput_meps(2 * hw_n as u64, fmax_mhz(model, &tech));

    let (paper_x86, paper_dba) = paper_platforms();
    let model_dba_power_w = power_report(model, tech).total_mw() / 1000.0;
    Table6 {
        energy_ratio: paper_x86.tdp_w / model_dba_power_w,
        paper_x86,
        paper_dba,
        measured_hwset,
        model_dba_power_w,
        hw_n,
    }
}

impl Table6 {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        render_comparison(
            "Table 6 — sorted-set intersection comparison",
            &self.paper_x86,
            &self.paper_dba,
            format!("{} (simulated, 2x{})", f1(self.measured_hwset), self.hw_n),
            self.model_dba_power_w,
        ) + &format!(
            "energy headline: {:.0}x less power than the i7-920 TDP\n",
            self.energy_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwset_reaches_the_papers_throughput_class() {
        let t = run(0.2);
        // Paper: 1203 M elements/s at 410 MHz — hwset must land near the
        // published number (same cycle model, same frequency model).
        assert!(
            (900.0..1500.0).contains(&t.measured_hwset),
            "hwset {} M elements/s",
            t.measured_hwset
        );
        // The 960x energy headline.
        assert!(t.energy_ratio > 900.0, "energy ratio {}", t.energy_ratio);
        assert!(t.render().contains("Table 6"));
    }
}
