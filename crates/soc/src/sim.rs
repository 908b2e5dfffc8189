//! The time-stepped simulation engine.
//!
//! Each step: the turbo controller converts the recent power history into
//! the current budget (PL2 while the average is below PL1); the engine
//! picks the highest P-state whose power fits the budget and whose heat the
//! cooler can reject once the junction is near Tjmax; the thermal model
//! then advances the junction temperature with the exact exponential step.
//! This reproduces the burst-then-sustain behaviour of real client parts.

use crate::products::Product;
use dg_cstates::power::IdlePowerModel;
use dg_pmu::dvfs::{DvfsRequest, DvfsSolver};
use dg_pmu::pbm::TurboController;
use dg_power::dynamic::CdynProfile;
use dg_power::energy::EnergyCounter;
use dg_power::pstate::{PState, PStateTable};
use dg_power::units::{Celsius, Hertz, Seconds, Watts};

/// Margin below Tjmax at which reactive throttling engages.
const THROTTLE_MARGIN_C: f64 = 0.5;

/// Configuration of a time-stepped run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Total simulated duration.
    pub duration: Seconds,
    /// Step size.
    pub dt: Seconds,
    /// Record a [`StepTrace`] per step.
    pub trace: bool,
}

impl Default for SimConfig {
    /// 90 s at 250 ms steps — long enough to pass the turbo burst and
    /// settle thermally.
    fn default() -> Self {
        SimConfig {
            duration: Seconds::new(90.0),
            dt: Seconds::new(0.25),
            trace: false,
        }
    }
}

/// One recorded simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTrace {
    /// Simulation time at the end of the step.
    pub time: Seconds,
    /// Core frequency chosen.
    pub frequency: Hertz,
    /// Total package power.
    pub power: Watts,
    /// Junction temperature.
    pub tj: Celsius,
    /// Budget in force (PL1 or PL2).
    pub budget: Watts,
}

/// Result of a CPU-domain run.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSimResult {
    /// Time-weighted average core frequency.
    pub avg_frequency: Hertz,
    /// Frequency sustained over the final quarter of the run.
    pub sustained_frequency: Hertz,
    /// Average package power.
    pub avg_power: Watts,
    /// Peak junction temperature.
    pub max_tj: Celsius,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Per-step trace (empty unless requested).
    pub trace: Vec<StepTrace>,
}

/// The time-stepped simulator for one product.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    product: &'a Product,
    idle_model: IdlePowerModel,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `product`.
    pub fn new(product: &'a Product) -> Self {
        Simulator {
            product,
            idle_model: IdlePowerModel::new(),
        }
    }

    /// The product under simulation.
    pub fn product(&self) -> &Product {
        self.product
    }

    /// Runs a CPU workload: `active_cores` cores at `cdyn`, the remaining
    /// cores idle (leaking if the package is bypassed), on P-state table
    /// `table`.
    ///
    /// # Panics
    ///
    /// Panics if `active_cores` is zero or exceeds the product's cores.
    pub fn run_cpu(
        &self,
        table: &PStateTable,
        active_cores: usize,
        cdyn: CdynProfile,
        config: SimConfig,
    ) -> CpuSimResult {
        assert!(
            active_cores >= 1 && active_cores <= self.product.core_count,
            "active_cores {active_cores} out of range"
        );
        let p = self.product;
        let idle_cores = p.core_count - active_cores;
        let idle_leak = self
            .idle_model
            .active_idle_core_leakage(idle_cores, &p.gating_config());
        let overhead = p.uncore_active() + idle_leak;

        let mut turbo = TurboController::new(p.limits.power.pl1, p.limits.power.pl2);
        let mut tj = p.thermal.t_ambient;
        let mut energy = EnergyCounter::new();
        let mut freq_time = 0.0f64;
        let mut max_tj = tj;
        let mut trace = Vec::new();
        let mut last_power = Watts::ZERO;
        let mut tail_freq_time = 0.0f64;
        let mut tail_secs = 0.0f64;

        let steps = (config.duration.value() / config.dt.value()).ceil() as usize;
        let tail_start = (steps * 3) / 4;
        for s in 0..steps {
            let budget = turbo.step(last_power, config.dt);
            let state = self.pick_state(table, active_cores, cdyn, overhead, budget, tj);
            let power = self.power_at(state, active_cores, cdyn, overhead, tj);

            tj = p.thermal.step(tj, power, config.dt);
            max_tj = max_tj.max(tj);
            energy.record(power, config.dt);
            freq_time += state.frequency.value() * config.dt.value();
            if s >= tail_start {
                tail_freq_time += state.frequency.value() * config.dt.value();
                tail_secs += config.dt.value();
            }
            last_power = power;
            if config.trace {
                trace.push(StepTrace {
                    time: Seconds::new((s + 1) as f64 * config.dt.value()),
                    frequency: state.frequency,
                    power,
                    tj,
                    budget,
                });
            }
        }

        let total = energy.elapsed().value().max(f64::MIN_POSITIVE);
        CpuSimResult {
            avg_frequency: Hertz::new(freq_time / total),
            sustained_frequency: Hertz::new(tail_freq_time / tail_secs.max(f64::MIN_POSITIVE)),
            avg_power: energy.average_power(),
            max_tj,
            energy_joules: energy.energy_joules(),
            trace,
        }
    }

    /// Power of `active_cores` at `state` with junction temperature `tj`.
    fn power_at(
        &self,
        state: PState,
        active_cores: usize,
        cdyn: CdynProfile,
        overhead: Watts,
        tj: Celsius,
    ) -> Watts {
        let per_core = cdyn.power(state.voltage, state.frequency)
            + self.product.core_leakage.power(state.voltage, tj);
        per_core * active_cores as f64 + overhead
    }

    /// Highest state fitting the budget and — once hot — the cooler.
    fn pick_state(
        &self,
        table: &PStateTable,
        active_cores: usize,
        cdyn: CdynProfile,
        overhead: Watts,
        budget: Watts,
        tj: Celsius,
    ) -> PState {
        let p = self.product;
        let thermal_cap = if tj.value() >= p.limits.tjmax.value() - THROTTLE_MARGIN_C {
            p.thermal.max_sustained_power(p.limits.tjmax)
        } else {
            Watts::new(f64::INFINITY)
        };
        let cap = budget.min(thermal_cap);
        for state in table.iter_descending() {
            if self.power_at(state, active_cores, cdyn, overhead, tj) <= cap {
                return state;
            }
        }
        // Nothing fits: run at the floor (real parts clamp at Pn/LFM).
        table.pn()
    }

    /// Convenience: evaluates a graphics operating point. Runs the
    /// firmware's [`DvfsSolver`] over the graphics table: the highest
    /// state whose *total* package power (graphics + overhead) fits
    /// `budget` at a self-consistent steady-state temperature. When no
    /// state fits, reports the self-consistent point at Pn.
    pub fn solve_graphics(
        &self,
        gfx_cdyn: CdynProfile,
        overhead: Watts,
        budget: Watts,
    ) -> (PState, Watts, Celsius) {
        let p = self.product;
        let solver = DvfsSolver::new(p.gfx_leakage, p.thermal);
        let op = solver
            .solve(&DvfsRequest {
                table: &p.table_gfx,
                active_cores: 1,
                cdyn_per_core: gfx_cdyn,
                budget,
                overhead,
                vmax: p.limits.vmax,
                tjmax: p.limits.tjmax,
            })
            .unwrap_or_else(|_| solver.evaluate(p.table_gfx.pn(), 1, gfx_cdyn, overhead));
        (op.state, op.total_power, op.tj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_power::units::Volts;

    fn quick() -> SimConfig {
        SimConfig {
            duration: Seconds::new(60.0),
            dt: Seconds::new(0.5),
            trace: false,
        }
    }

    #[test]
    fn single_core_reaches_fused_ceiling_at_91w() {
        let p = Product::skylake_h(Watts::new(91.0));
        let sim = Simulator::new(&p);
        let r = sim.run_cpu(&p.table_1c, 1, CdynProfile::core_typical(), quick());
        assert!(
            (r.sustained_frequency.as_ghz() - 4.2).abs() < 0.05,
            "sustained {}",
            r.sustained_frequency
        );
        assert!(r.avg_power < Watts::new(91.0));
    }

    #[test]
    fn rate_mode_throttles_at_35w() {
        let p = Product::skylake_h(Watts::new(35.0));
        let sim = Simulator::new(&p);
        let r = sim.run_cpu(&p.table_ac, 4, CdynProfile::core_typical(), quick());
        // All-core at 35 W cannot hold the fused ceiling.
        assert!(
            r.sustained_frequency < p.fmax_ac(),
            "sustained {} vs ceiling {}",
            r.sustained_frequency,
            p.fmax_ac()
        );
        // Power converges to roughly PL1.
        assert!(r.avg_power.value() < 35.0 * 1.30);
    }

    #[test]
    fn turbo_burst_then_sustain() {
        let p = Product::skylake_h(Watts::new(35.0));
        let sim = Simulator::new(&p);
        let mut cfg = quick();
        cfg.trace = true;
        let r = sim.run_cpu(&p.table_ac, 4, CdynProfile::core_typical(), cfg);
        // Early frequency (turbo burst) exceeds the sustained tail.
        let early = r.trace[2].frequency;
        assert!(
            early > r.sustained_frequency,
            "early {early} vs sustained {}",
            r.sustained_frequency
        );
    }

    #[test]
    fn temperature_respects_tjmax() {
        for tdp in Product::skylake_tdp_levels() {
            let p = Product::skylake_s(tdp);
            let sim = Simulator::new(&p);
            // A power-virus core draws 2.2 nF.
            let virus = CdynProfile::from_nf(2.2).unwrap();
            let r = sim.run_cpu(&p.table_ac, 4, virus, quick());
            assert!(
                r.max_tj.value() <= p.limits.tjmax.value() + 1.0,
                "{tdp}: Tj {}",
                r.max_tj
            );
        }
    }

    #[test]
    fn darkgates_sustains_higher_frequency_at_91w() {
        let cfg = quick();
        let s = Product::skylake_s(Watts::new(91.0));
        let h = Product::skylake_h(Watts::new(91.0));
        let fs = Simulator::new(&s)
            .run_cpu(&s.table_1c, 1, CdynProfile::core_typical(), cfg)
            .sustained_frequency;
        let fh = Simulator::new(&h)
            .run_cpu(&h.table_1c, 1, CdynProfile::core_typical(), cfg)
            .sustained_frequency;
        let delta = fs.as_mhz() - fh.as_mhz();
        assert!((300.0..=500.0).contains(&delta), "uplift {delta} MHz");
    }

    #[test]
    fn graphics_solver_fits_budget() {
        let p = Product::skylake_s(Watts::new(45.0));
        let sim = Simulator::new(&p);
        let (state, total, tj) = sim.solve_graphics(
            CdynProfile::graphics_full(),
            Watts::new(8.0),
            Watts::new(45.0),
        );
        assert!(total <= Watts::new(45.0));
        assert!(tj.value() <= p.limits.tjmax.value() + 1e-9);
        assert!(state.frequency.as_mhz() >= 300.0);
    }

    #[test]
    fn graphics_budget_cut_lowers_frequency() {
        let p = Product::skylake_s(Watts::new(35.0));
        let sim = Simulator::new(&p);
        let (rich, _, _) = sim.solve_graphics(
            CdynProfile::graphics_full(),
            Watts::new(8.0),
            Watts::new(35.0),
        );
        let (poor, _, _) = sim.solve_graphics(
            CdynProfile::graphics_full(),
            Watts::new(12.0),
            Watts::new(35.0),
        );
        assert!(poor.frequency <= rich.frequency);
    }

    #[test]
    fn graphics_fallback_charges_leakage_at_its_own_tj() {
        // 9 W against 8 W of overhead: no graphics state fits, so the
        // solver falls back to Pn. The reported total must still be the
        // self-consistent one, leakage included.
        let p = Product::skylake_s(Watts::new(35.0));
        let cdyn = CdynProfile::graphics_full();
        let overhead = Watts::new(8.0);
        let (state, total, tj) = Simulator::new(&p).solve_graphics(cdyn, overhead, Watts::new(9.0));
        assert_eq!(state, p.table_gfx.pn());
        let expected = overhead
            + cdyn.power(state.voltage, state.frequency)
            + p.gfx_leakage.power(state.voltage, tj);
        assert!(
            (total.value() - expected.value()).abs() < 1e-6,
            "reported {total} vs self-consistent {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_active_cores_panics() {
        let p = Product::skylake_h(Watts::new(91.0));
        let sim = Simulator::new(&p);
        sim.run_cpu(&p.table_1c, 0, CdynProfile::core_typical(), quick());
    }

    #[test]
    fn floor_state_when_nothing_fits() {
        // Absurdly small TDP limits: the engine clamps at Pn.
        let p = Product::skylake_h(Watts::new(35.0));
        let sim = Simulator::new(&p);
        let state = sim.pick_state(
            &p.table_ac,
            4,
            CdynProfile::from_nf(2.2).unwrap(),
            Watts::new(30.0),
            Watts::new(1.0),
            Celsius::new(25.0),
        );
        assert_eq!(state.frequency, p.table_ac.pn().frequency);
        let _ = Volts::ZERO;
    }
}
