//! Table 6 — sorted-set intersection comparison: `swset` (Schlegel et al.
//! on an Intel i7-920) vs `hwset` (the EIS intersection on DBA_2LSU_EIS).
//!
//! The paper's headline: `hwset` throughput is 9.4 % *higher* than the
//! published `swset` number while the processor draws "up to 960x" less
//! power than the i7-920's TDP.

use crate::report::{f1, TextTable};
use crate::table5::Platform;
use crate::{scaled, SEED};
use dbx_core::{run_set_op, ProcModel, SetOpKind};
use dbx_synth::{fmax_mhz, power_report, Tech};
use dbx_workloads::set_pair_with_selectivity;
use std::time::Instant;

/// The experiment result.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Paper's Intel i7-920 column.
    pub paper_x86: Platform,
    /// Paper's DBA_2LSU_EIS column.
    pub paper_dba: Platform,
    /// Our simulated hwset throughput at the model fMAX (M elements/s).
    pub measured_hwset: f64,
    /// Our swset implementation measured on the build host.
    pub measured_swset_host: f64,
    /// Our model's DBA power (W).
    pub model_dba_power_w: f64,
    /// Energy ratio: x86 TDP / DBA model power.
    pub energy_ratio: f64,
    /// Elements per set in the simulation.
    pub hw_n: usize,
    /// Elements per set on the host.
    pub sw_n: usize,
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

/// Measures host swset throughput (median of `reps`), in M elements/s
/// over `l_a + l_b`.
fn host_swset_meps(n: usize, reps: usize) -> f64 {
    let (a, b) = set_pair_with_selectivity(n, n, 0.5, SEED);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let out = dbx_x86ref::swset::intersect(&a, &b);
            let dt = t0.elapsed().as_secs_f64();
            assert!(!out.is_empty());
            std::hint::black_box(out);
            dt
        })
        .collect();
    let median = dbx_observe::telemetry::median(&times).expect("reps must be positive");
    (2 * n) as f64 / median / 1.0e6
}

/// Runs the comparison. `scale = 1.0` intersects 2x2500 on the ASIP and
/// 2x10M on the host (the paper's respective sizes), both at 50 %.
pub fn run(scale: f64) -> Table6 {
    let model = ProcModel::Dba2LsuEis { partial: true };
    let tech = Tech::tsmc65lp();
    let hw_n = scaled(2500, scale);
    let sw_n = scaled(10_000_000, scale);

    let (a, b) = set_pair_with_selectivity(hw_n, hw_n, 0.5, SEED);
    let hw = run_set_op(model, SetOpKind::Intersect, &a, &b).expect("hwset");
    let measured_hwset = hw.throughput_meps(2 * hw_n as u64, fmax_mhz(model, &tech));
    let measured_swset_host = host_swset_meps(sw_n, 3);

    let (paper_x86, paper_dba) = paper_platforms();
    let model_dba_power_w = power_report(model, tech).total_mw() / 1000.0;
    Table6 {
        energy_ratio: paper_x86.tdp_w / model_dba_power_w,
        paper_x86,
        paper_dba,
        measured_hwset,
        measured_swset_host,
        model_dba_power_w,
        hw_n,
        sw_n,
    }
}

impl Table6 {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["", "Intel i7-920", "DBA_2LSU_EIS"]);
        t.row([
            "Throughput (M elements/s, paper)".to_string(),
            f1(self.paper_x86.throughput_meps),
            f1(self.paper_dba.throughput_meps),
        ]);
        t.row([
            "Throughput (M elements/s, ours)".to_string(),
            format!(
                "{} (host swset, 2x{})",
                f1(self.measured_swset_host),
                self.sw_n
            ),
            format!("{} (simulated, 2x{})", f1(self.measured_hwset), self.hw_n),
        ]);
        t.row([
            "Clock frequency".to_string(),
            format!("{:.2} GHz", self.paper_x86.clock_ghz),
            format!("{:.2} GHz", self.paper_dba.clock_ghz),
        ]);
        t.row([
            "Max. TDP".to_string(),
            format!("{} W", self.paper_x86.tdp_w),
            format!(
                "{} W (model: {:.3} W)",
                self.paper_dba.tdp_w, self.model_dba_power_w
            ),
        ]);
        t.row([
            "Cores/Threads".to_string(),
            self.paper_x86.cores_threads.to_string(),
            self.paper_dba.cores_threads.to_string(),
        ]);
        t.row([
            "Feature size".to_string(),
            format!("{} nm", self.paper_x86.feature_nm),
            format!("{} nm", self.paper_dba.feature_nm),
        ]);
        t.row([
            "Area (logic & memory)".to_string(),
            format!("{} mm2", self.paper_x86.area_mm2),
            format!("{} mm2", self.paper_dba.area_mm2),
        ]);
        format!(
            "Table 6 — sorted-set intersection comparison\n{}\nenergy headline: {:.0}x less power than the i7-920 TDP\n",
            t.render(),
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

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "host wall-clock comparison is only meaningful optimized"
    )]
    fn host_swset_beats_scalar_intersection() {
        let n = 1_000_000;
        let (a, b) = set_pair_with_selectivity(n, n, 0.5, SEED);
        let t0 = Instant::now();
        let r1 = dbx_x86ref::swset::intersect(&a, &b);
        let block = t0.elapsed();
        let t0 = Instant::now();
        let r2 = dbx_x86ref::scalar::intersect(&a, &b);
        let scalar = t0.elapsed();
        assert_eq!(r1, r2);
        // Block intersection advances four elements at a time; it should
        // not lose badly to the scalar loop even unvectorized.
        assert!(
            block.as_secs_f64() < 1.6 * scalar.as_secs_f64(),
            "block {block:?} vs scalar {scalar:?}"
        );
    }
}
