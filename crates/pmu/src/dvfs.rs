//! The DVFS frequency solver.
//!
//! Finds the highest quantized P-state that simultaneously satisfies
//!
//! 1. the voltage ceiling (`V_curve+guardband ≤ Vmax` — the Fmax
//!    constraint of Sec. 2.4.2),
//! 2. the power budget (PBM allocation, Sec. 2.1), and
//! 3. the thermal limit (`Tj ≤ Tjmax` at the steady state the chosen power
//!    produces).
//!
//! Power and temperature are coupled through leakage, so each candidate
//! state is evaluated with a short fixed-point iteration.

use crate::error::PmuError;
use dg_power::dynamic::CdynProfile;
use dg_power::leakage::LeakageModel;
use dg_power::pstate::{PState, PStateTable};
use dg_power::thermal::ThermalModel;
use dg_power::units::{Celsius, Volts, Watts};

/// Tolerance on the thermal limit, °C (the PBM regulates to the limit, so
/// exact equality is feasible).
const TJ_EPSILON: f64 = 1e-6;

/// A request to the solver.
#[derive(Debug, Clone, Copy)]
pub struct DvfsRequest<'a> {
    /// P-state table to search (voltages include the active guardband).
    pub table: &'a PStateTable,
    /// Number of cores running the workload.
    pub active_cores: usize,
    /// Per-core dynamic capacitance of the workload.
    pub cdyn_per_core: CdynProfile,
    /// Power budget for everything charged to this domain.
    pub budget: Watts,
    /// Fixed overhead charged against the budget (uncore active floor,
    /// un-gated idle-core leakage, graphics floor, ...).
    pub overhead: Watts,
    /// Voltage ceiling (Vmax).
    pub vmax: Volts,
    /// Junction-temperature limit.
    pub tjmax: Celsius,
}

/// The solver's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// The chosen P-state.
    pub state: PState,
    /// Power of the active cores alone.
    pub compute_power: Watts,
    /// Total domain power (compute + overhead).
    pub total_power: Watts,
    /// Steady-state junction temperature at that power.
    pub tj: Celsius,
}

/// The DVFS solver: core leakage + thermal models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsSolver {
    core_leakage: LeakageModel,
    thermal: ThermalModel,
}

impl DvfsSolver {
    /// Creates a solver.
    pub fn new(core_leakage: LeakageModel, thermal: ThermalModel) -> Self {
        DvfsSolver {
            core_leakage,
            thermal,
        }
    }

    /// The thermal model in use.
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Evaluates the self-consistent power/temperature of running
    /// `active_cores` at `state` with the given workload and overhead.
    pub fn evaluate(
        &self,
        state: PState,
        active_cores: usize,
        cdyn: CdynProfile,
        overhead: Watts,
    ) -> OperatingPoint {
        let v = state.voltage;
        let f = state.frequency;
        let mut tj = Celsius::new(60.0);
        let mut compute = Watts::ZERO;
        let mut total = overhead;
        for _ in 0..16 {
            let per_core = cdyn.power(v, f) + self.core_leakage.power(v, tj);
            compute = per_core * active_cores as f64;
            total = compute + overhead;
            tj = self.thermal.steady_state(total);
        }
        OperatingPoint {
            state,
            compute_power: compute,
            total_power: total,
            tj,
        }
    }

    /// Solves for the highest feasible P-state.
    ///
    /// # Errors
    ///
    /// * [`PmuError::InvalidRequest`] if `active_cores` is zero or the
    ///   budget does not even cover the overhead.
    /// * [`PmuError::NoFeasibleOperatingPoint`] if even the lowest P-state
    ///   violates a constraint.
    pub fn solve(&self, req: &DvfsRequest<'_>) -> Result<OperatingPoint, PmuError> {
        if req.active_cores == 0 {
            return Err(PmuError::InvalidRequest {
                reason: "active_cores must be at least 1",
            });
        }
        if req.overhead >= req.budget {
            return Err(PmuError::InvalidRequest {
                reason: "overhead exceeds the whole budget",
            });
        }
        for state in req.table.iter_descending() {
            if state.voltage > req.vmax {
                continue;
            }
            let op = self.evaluate(state, req.active_cores, req.cdyn_per_core, req.overhead);
            if op.total_power <= req.budget && op.tj.value() <= req.tjmax.value() + TJ_EPSILON {
                return Ok(op);
            }
        }
        Err(PmuError::NoFeasibleOperatingPoint {
            budget_w: req.budget.value(),
            vmax_v: req.vmax.value(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_power::vf::VfCurve;

    fn table(guardband_mv: f64) -> PStateTable {
        let curve = VfCurve::skylake_core().with_guardband(Volts::from_mv(guardband_mv));
        PStateTable::from_curve(&curve, PStateTable::standard_bin()).unwrap()
    }

    fn solver(tdp: f64) -> DvfsSolver {
        DvfsSolver::new(
            LeakageModel::skylake_core(),
            ThermalModel::for_tdp(Watts::new(tdp)),
        )
    }

    fn request<'a>(
        table: &'a PStateTable,
        cores: usize,
        budget: f64,
        vmax: f64,
    ) -> DvfsRequest<'a> {
        DvfsRequest {
            table,
            active_cores: cores,
            cdyn_per_core: CdynProfile::core_typical(),
            budget: Watts::new(budget),
            overhead: Watts::new(3.0),
            vmax: Volts::new(vmax),
            tjmax: Celsius::new(93.0),
        }
    }

    #[test]
    fn vmax_constrained_single_core() {
        // Huge budget: the voltage ceiling must bind.
        let t = table(200.0);
        let s = solver(91.0);
        let op = s.solve(&request(&t, 1, 500.0, 1.35)).unwrap();
        assert!(op.state.voltage <= Volts::new(1.35));
        // The next bin up must violate Vmax.
        let next = t.states().iter().find(|x| x.frequency > op.state.frequency);
        if let Some(n) = next {
            assert!(n.voltage > Volts::new(1.35));
        }
    }

    #[test]
    fn smaller_guardband_unlocks_higher_frequency() {
        let s = solver(91.0);
        let tight = table(250.0);
        let loose = table(140.0);
        let f_tight = s.solve(&request(&tight, 1, 500.0, 1.35)).unwrap();
        let f_loose = s.solve(&request(&loose, 1, 500.0, 1.35)).unwrap();
        assert!(
            f_loose.state.frequency > f_tight.state.frequency,
            "{} !> {}",
            f_loose.state.frequency,
            f_tight.state.frequency
        );
    }

    #[test]
    fn budget_constrained_all_cores() {
        let t = table(150.0);
        let s = solver(35.0);
        let op = s.solve(&request(&t, 4, 35.0, 1.35)).unwrap();
        assert!(op.total_power <= Watts::new(35.0));
        // Budget binds well below Fmax.
        assert!(op.state.frequency < t.p0().frequency);
        // A bigger budget gives at least as high a frequency.
        let op_rich = s.solve(&request(&t, 4, 65.0, 1.35)).unwrap();
        assert!(op_rich.state.frequency >= op.state.frequency);
    }

    #[test]
    fn overhead_reduces_attainable_frequency() {
        let t = table(150.0);
        let s = solver(35.0);
        let mut lean = request(&t, 4, 35.0, 1.35);
        lean.overhead = Watts::new(3.0);
        let mut heavy = lean;
        heavy.overhead = Watts::new(8.0);
        let f_lean = s.solve(&lean).unwrap().state.frequency;
        let f_heavy = s.solve(&heavy).unwrap().state.frequency;
        assert!(f_heavy <= f_lean);
    }

    #[test]
    fn thermal_limit_binds_under_oversized_budget() {
        // Budget 80 W but a 35 W cooler: thermals must cap the frequency.
        let t = table(150.0);
        let s = solver(35.0);
        let op = s.solve(&request(&t, 4, 80.0, 1.35)).unwrap();
        assert!(op.tj.value() <= 93.0 + 1e-6);
        // Power stays near what the cooler can reject.
        assert!(op.total_power.value() <= 36.0);
    }

    #[test]
    fn infeasible_when_budget_below_overhead() {
        let t = table(150.0);
        let s = solver(91.0);
        let mut req = request(&t, 4, 2.0, 1.35);
        req.overhead = Watts::new(3.0);
        assert!(matches!(
            s.solve(&req),
            Err(PmuError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn infeasible_when_vmax_below_curve() {
        let t = table(150.0);
        let s = solver(91.0);
        let req = request(&t, 1, 500.0, 0.5);
        assert!(matches!(
            s.solve(&req),
            Err(PmuError::NoFeasibleOperatingPoint { .. })
        ));
    }

    #[test]
    fn zero_cores_rejected() {
        let t = table(150.0);
        let s = solver(91.0);
        let req = request(&t, 0, 100.0, 1.35);
        assert!(matches!(
            s.solve(&req),
            Err(PmuError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn evaluate_fixed_point_converges() {
        let t = table(150.0);
        let s = solver(65.0);
        let state = t
            .at_frequency(dg_power::units::Hertz::from_ghz(3.5))
            .unwrap();
        let op = s.evaluate(state, 4, CdynProfile::core_typical(), Watts::new(3.0));
        // Self-consistency: recomputing power at the reported Tj reproduces
        // the reported power.
        let per_core = CdynProfile::core_typical().power(state.voltage, state.frequency)
            + LeakageModel::skylake_core().power(state.voltage, op.tj);
        let total = per_core * 4.0 + Watts::new(3.0);
        assert!((total.value() - op.total_power.value()).abs() < 1e-6);
        let tj = s.thermal().steady_state(total);
        assert!((tj.value() - op.tj.value()).abs() < 1e-6);
    }
}
