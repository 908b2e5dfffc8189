//! Workload runners: one per workload class of the paper's evaluation.

use crate::products::Product;
use crate::sim::{SimConfig, Simulator};
use dg_cstates::power::IdlePowerModel;
use dg_pmu::pbm::PowerBudgetManager;
use dg_power::units::{Celsius, Hertz, Watts};
use dg_workloads::energy::EnergyWorkload;
use dg_workloads::graphics::GraphicsWorkload;
use dg_workloads::spec::{SpecBenchmark, SpecMode};

/// The nominal frequency at which SPEC scalability factors are defined.
const SPEC_NOMINAL_HZ: f64 = 4.2e9;

/// The graphics reference frequency for relative-FPS reporting.
const GFX_REF_HZ: f64 = 1.15e9;

/// Result of a SPEC run on one product.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    /// Benchmark name.
    pub benchmark: String,
    /// Run mode.
    pub mode: SpecMode,
    /// Time-averaged core frequency.
    pub frequency: Hertz,
    /// Sustained (post-turbo) frequency.
    pub sustained_frequency: Hertz,
    /// Average package power.
    pub avg_power: Watts,
    /// Peak junction temperature.
    pub max_tj: Celsius,
    /// Relative performance (1.0 = this benchmark at the 4.2 GHz nominal).
    pub perf: f64,
}

/// Runs one SPEC benchmark on `product` in `mode`.
pub fn run_spec(product: &Product, benchmark: &SpecBenchmark, mode: SpecMode) -> SpecReport {
    let sim = Simulator::new(product);
    let active = mode.active_cores(product.core_count);
    let table = match mode {
        SpecMode::Base => &product.table_1c,
        SpecMode::Rate => &product.table_ac,
    };
    let r = sim.run_cpu(table, active, benchmark.cdyn(), SimConfig::default());
    SpecReport {
        benchmark: benchmark.name.to_owned(),
        mode,
        frequency: r.avg_frequency,
        sustained_frequency: r.sustained_frequency,
        avg_power: r.avg_power,
        max_tj: r.max_tj,
        perf: benchmark.speedup(r.avg_frequency.value(), SPEC_NOMINAL_HZ),
    }
}

/// Result of a graphics run on one product.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphicsReport {
    /// Scene name.
    pub workload: String,
    /// Graphics-engine frequency reached.
    pub gfx_frequency: Hertz,
    /// Relative FPS (1.0 = the scene at the 1.15 GHz graphics reference).
    pub fps: f64,
    /// Total package power.
    pub total_power: Watts,
    /// Steady junction temperature.
    pub tj: Celsius,
    /// Budget granted to the graphics engine by the PBM.
    pub gfx_budget: Watts,
}

/// Runs a 3DMark-style scene on `product` (paper Sec. 7.2 setup: one driver
/// core at Pn, graphics takes the rest of the compute budget).
pub fn run_graphics(product: &Product, workload: &GraphicsWorkload) -> GraphicsReport {
    let sim = Simulator::new(product);
    let idle_model = IdlePowerModel::new();

    // Driver core at the most efficient frequency Pn.
    let pn = product.table_ac.pn();
    let driver_power = (workload.driver_cdyn().power(pn.voltage, pn.frequency)
        + product.core_leakage.power(pn.voltage, Celsius::new(70.0)))
        * workload.driver_cores as f64;

    let idle_cores = product.core_count - workload.driver_cores;
    // During a graphics workload the core rail sits at the driver core's Pn
    // voltage, so the un-gateable idle cores leak at *that* voltage — much
    // less than during an all-out CPU burst, but still charged to the
    // compute budget (the Fig. 9 mechanism).
    let idle_leak = if product.gating_config().bypassed {
        product.core_leakage.power(pn.voltage, Celsius::new(70.0)) * idle_cores as f64
    } else {
        idle_model.active_idle_core_leakage(idle_cores, &product.gating_config())
    };

    let pbm = PowerBudgetManager::new(product.tdp, product.uncore_active());
    let split = pbm.split_for_graphics(driver_power, idle_leak);

    let overhead = product.uncore_active() + driver_power + idle_leak;
    let (state, total, tj) = sim.solve_graphics(workload.gfx_cdyn(), overhead, product.tdp);

    GraphicsReport {
        workload: workload.name.to_owned(),
        gfx_frequency: state.frequency,
        fps: workload.fps_speedup(state.frequency.value(), GFX_REF_HZ),
        total_power: total,
        tj,
        gfx_budget: split.graphics,
    }
}

/// Result of an energy-efficiency run on one product.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Workload name.
    pub workload: String,
    /// Residency-weighted average platform power.
    pub avg_power: Watts,
    /// Whether the program's limit is met.
    pub meets_limit: bool,
}

/// Runs an energy-efficiency workload on `product`, honoring the
/// platform's deepest package C-state.
pub fn run_energy(product: &Product, workload: &EnergyWorkload) -> EnergyReport {
    let model = IdlePowerModel::new();
    let config = product.gating_config();
    let avg = workload.average_power(&model, &config, product.deepest_pkg_cstate);
    EnergyReport {
        workload: workload.name.to_owned(),
        avg_power: avg,
        meets_limit: avg <= workload.limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_workloads::energy::{energy_star, ready_mode};
    use dg_workloads::graphics::three_dmark_suite;
    use dg_workloads::spec::by_name;

    #[test]
    fn scalable_benchmark_gains_from_darkgates() {
        let s = Product::skylake_s(Watts::new(91.0));
        let h = Product::skylake_h(Watts::new(91.0));
        let namd = by_name("444.namd").unwrap();
        let gain = run_spec(&s, &namd, SpecMode::Base).perf
            / run_spec(&h, &namd, SpecMode::Base).perf
            - 1.0;
        assert!((0.05..0.11).contains(&gain), "namd gain {gain}");
    }

    #[test]
    fn memory_bound_benchmark_gains_nothing() {
        let s = Product::skylake_s(Watts::new(91.0));
        let h = Product::skylake_h(Watts::new(91.0));
        let bwaves = by_name("410.bwaves").unwrap();
        let gain = run_spec(&s, &bwaves, SpecMode::Base).perf
            / run_spec(&h, &bwaves, SpecMode::Base).perf
            - 1.0;
        assert!(gain < 0.01, "bwaves gain {gain}");
    }

    #[test]
    fn graphics_unaffected_at_high_tdp() {
        let s = Product::skylake_s(Watts::new(65.0));
        let h = Product::skylake_h(Watts::new(65.0));
        let scene = &three_dmark_suite()[3];
        let fs = run_graphics(&s, scene);
        let fh = run_graphics(&h, scene);
        let degradation = 1.0 - fs.fps / fh.fps;
        assert!(degradation.abs() < 0.005, "65 W degradation {degradation}");
    }

    #[test]
    fn graphics_slightly_degraded_at_35w() {
        let s = Product::skylake_s(Watts::new(35.0));
        let h = Product::skylake_h(Watts::new(35.0));
        let scene = &three_dmark_suite()[3];
        let fs = run_graphics(&s, scene);
        let fh = run_graphics(&h, scene);
        let degradation = 1.0 - fs.fps / fh.fps;
        assert!(
            (0.005..0.06).contains(&degradation),
            "35 W degradation {degradation}"
        );
        // The mechanism: the DarkGates part granted less graphics budget.
        assert!(fs.gfx_budget < fh.gfx_budget);
    }

    #[test]
    fn energy_runs_respect_platform_cstates() {
        let s = Product::skylake_s(Watts::new(91.0));
        let h = Product::skylake_h(Watts::new(91.0));
        for wl in [energy_star(), ready_mode()] {
            let rs = run_energy(&s, &wl);
            let rh = run_energy(&h, &wl);
            // DarkGates with C8 and the gated baseline with C7 both meet
            // the limits; the baseline averages slightly lower (Fig. 10).
            assert!(rs.meets_limit, "{}: DarkGates misses limit", wl.name);
            assert!(rh.meets_limit, "{}: baseline misses limit", wl.name);
            assert!(rh.avg_power < rs.avg_power);
        }
    }

    #[test]
    fn reports_are_labeled() {
        let s = Product::skylake_s(Watts::new(91.0));
        let namd = by_name("444.namd").unwrap();
        let r = run_spec(&s, &namd, SpecMode::Rate);
        assert_eq!(r.benchmark, "444.namd");
        assert_eq!(r.mode, SpecMode::Rate);
        let g = run_graphics(&s, &three_dmark_suite()[0]);
        assert!(g.workload.contains("3DMark"));
        let e = run_energy(&s, &ready_mode());
        assert!(e.workload.contains("RMT") || e.workload.contains("Ready"));
    }
}
