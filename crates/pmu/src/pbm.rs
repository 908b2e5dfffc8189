//! Power budget management (PBM) and the PL1/PL2 turbo filter.
//!
//! The PMU distributes the TDP among the SoC domains (paper Sec. 2.1): the
//! compute domain's budget is shared between CPU cores and the graphics
//! engine. Under DarkGates the un-gated idle-core leakage is charged to
//! this budget *before* anything else is allocated (Sec. 4.2) — the
//! mechanism behind the 35 W graphics regression of Fig. 9.
//!
//! Sustained-vs-turbo power is managed with an exponentially-weighted
//! moving average of recent power: while the average is below PL1, short
//! bursts up to PL2 are allowed. [`pick_state`] turns that budget into a
//! P-state, for the firmware model and the time-stepped simulator alike.

use dg_power::limits::DesignLimits;
use dg_power::pstate::{PState, PStateTable};
use dg_power::thermal::ThermalModel;
use dg_power::units::{Celsius, Hertz, Seconds, Watts};

/// Margin below Tjmax at which reactive throttling engages.
const THROTTLE_MARGIN_C: f64 = 0.5;

/// A compute-domain budget split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSplit {
    /// Budget left for the CPU cores.
    pub cores: Watts,
    /// Budget granted to the graphics engine.
    pub graphics: Watts,
}

/// The power budget manager for one SoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudgetManager {
    /// Sustained package power limit (PL1 = TDP).
    pub tdp: Watts,
    /// Uncore active floor charged off the top.
    pub uncore_active: Watts,
}

impl PowerBudgetManager {
    /// Creates a manager.
    ///
    /// # Panics
    ///
    /// Panics if the uncore floor already exceeds the TDP.
    pub fn new(tdp: Watts, uncore_active: Watts) -> Self {
        assert!(
            uncore_active < tdp,
            "uncore floor {uncore_active} exceeds TDP {tdp}"
        );
        PowerBudgetManager { tdp, uncore_active }
    }

    /// The compute-domain budget (TDP minus the uncore floor).
    // dg-analyze: allow(unreached-pub, reason = "live (split_for_graphics runs it); crates/pmu/tests/properties.rs names it")
    pub fn compute_budget(&self) -> Watts {
        self.tdp - self.uncore_active
    }

    /// Splits the compute budget for a graphics workload: the driver core's
    /// power and the idle-core leakage are charged first, the graphics
    /// engine receives the remainder (graphics has budget priority in
    /// graphics workloads, Sec. 7.2).
    pub fn split_for_graphics(&self, driver_power: Watts, idle_leak: Watts) -> BudgetSplit {
        let graphics = (self.compute_budget() - driver_power - idle_leak).max(Watts::ZERO);
        BudgetSplit {
            cores: driver_power,
            graphics,
        }
    }
}

/// Exponentially-weighted moving average of package power.
#[derive(Debug, Clone, Copy, PartialEq)]
// dg-analyze: allow(unreached-pub, reason = "live (TurboController owns one); crates/pmu/tests/properties.rs names it")
pub struct PowerEma {
    tau: Seconds,
    value: Option<f64>,
}

impl PowerEma {
    /// Creates a filter with averaging time constant `tau` (Intel's RAPL
    /// window is on the order of seconds).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not strictly positive.
    pub fn new(tau: Seconds) -> Self {
        assert!(tau.value() > 0.0, "tau must be positive, got {tau}");
        PowerEma { tau, value: None }
    }

    /// Feeds a power sample held for `dt`; returns the updated average.
    pub fn step(&mut self, power: Watts, dt: Seconds) -> Watts {
        let p = power.value();
        let new = match self.value {
            None => p,
            Some(v) => {
                let a = (-dt.value() / self.tau.value()).exp();
                p + (v - p) * a
            }
        };
        self.value = Some(new);
        Watts::new(new)
    }
}

/// The PL1/PL2 turbo controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurboController {
    /// Sustained limit (PL1 = TDP).
    pub pl1: Watts,
    /// Burst limit (PL2).
    pub pl2: Watts,
    ema: PowerEma,
}

impl TurboController {
    /// Creates a controller with a RAPL-like 8 s averaging window.
    ///
    /// # Panics
    ///
    /// Panics if `pl2 < pl1`.
    pub fn new(pl1: Watts, pl2: Watts) -> Self {
        assert!(pl2 >= pl1, "PL2 {pl2} below PL1 {pl1}");
        TurboController {
            pl1,
            pl2,
            ema: PowerEma::new(Seconds::new(8.0)),
        }
    }

    /// Feeds a power sample and returns the budget for the next interval:
    /// PL2 while the running average stays below PL1, PL1 otherwise.
    pub fn step(&mut self, power: Watts, dt: Seconds) -> Watts {
        let avg = self.ema.step(power, dt);
        if avg < self.pl1 {
            self.pl2
        } else {
            self.pl1
        }
    }
}

/// The highest state of `table` at or below `ceiling` whose power
/// (`power_at`) fits `budget`.
///
/// Within 0.5 °C of Tjmax the power must also fit what the cooler can
/// reject at Tjmax (reactive throttling). If nothing fits, the part runs
/// at Pn, as real parts clamp at Pn/LFM. `power_at` is called for
/// candidates from the highest down and never past the first that fits.
pub fn pick_state(
    table: &PStateTable,
    ceiling: Hertz,
    budget: Watts,
    tj: Celsius,
    limits: &DesignLimits,
    thermal: &ThermalModel,
    mut power_at: impl FnMut(PState) -> Watts,
) -> PState {
    let thermal_cap = if tj.value() >= limits.tjmax.value() - THROTTLE_MARGIN_C {
        thermal.max_sustained_power(limits.tjmax)
    } else {
        Watts::new(f64::INFINITY)
    };
    let cap = budget.min(thermal_cap);
    for state in table.iter_descending() {
        if state.frequency > ceiling {
            continue;
        }
        if power_at(state) <= cap {
            return state;
        }
    }
    table.pn()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_power::vf::VfCurve;

    #[test]
    fn compute_budget_subtracts_uncore() {
        let pbm = PowerBudgetManager::new(Watts::new(91.0), Watts::new(3.0));
        assert!((pbm.compute_budget().value() - 88.0).abs() < 1e-12);
    }

    #[test]
    fn graphics_split_prioritizes_graphics() {
        let pbm = PowerBudgetManager::new(Watts::new(35.0), Watts::new(3.0));
        let gated = pbm.split_for_graphics(Watts::new(4.0), Watts::ZERO);
        let bypassed = pbm.split_for_graphics(Watts::new(4.0), Watts::new(4.0));
        assert!((gated.graphics.value() - 28.0).abs() < 1e-12);
        assert!((bypassed.graphics.value() - 24.0).abs() < 1e-12);
        // The idle leakage comes straight out of the graphics budget — the
        // Fig. 9 mechanism.
        assert!(bypassed.graphics < gated.graphics);
        assert_eq!(gated.cores, Watts::new(4.0));
    }

    #[test]
    fn floor_state_when_nothing_fits() {
        let table =
            PStateTable::from_curve(&VfCurve::skylake_core(), PStateTable::standard_bin()).unwrap();
        let limits = DesignLimits::skylake(Watts::new(35.0));
        let thermal = ThermalModel::for_tdp(Watts::new(35.0));
        // One watt per 100 MHz: power rises with frequency.
        let power = |s: PState| Watts::new(s.frequency.value() / 1e8);
        let pick = |ceiling: Hertz, budget: f64, tj: f64| {
            pick_state(
                &table,
                ceiling,
                Watts::new(budget),
                Celsius::new(tj),
                &limits,
                &thermal,
                power,
            )
        };
        let (pn, p0) = (table.pn(), table.p0());
        assert_eq!(pick(p0.frequency, 1e9, 25.0), p0);

        // The ceiling: the fastest state at or below it.
        let ceiling = Hertz::from_ghz(2.05);
        let capped = pick(ceiling, 1e9, 25.0);
        assert!(capped.frequency <= ceiling);
        assert!(table
            .iter_descending()
            .all(|s| s.frequency <= capped.frequency || s.frequency > ceiling));

        // The budget: the fastest state whose power fits it.
        let fitted = pick(p0.frequency, 20.0, 25.0);
        assert!(power(fitted).value() <= 20.0);
        assert!(table
            .iter_descending()
            .all(|s| s.frequency <= fitted.frequency || power(s).value() > 20.0));

        // At Tjmax the cooler's sustained power caps it too.
        let hot = pick(p0.frequency, 1e9, limits.tjmax.value());
        assert!(power(hot) <= thermal.max_sustained_power(limits.tjmax));

        // Nothing fits, by budget or by ceiling: Pn.
        assert_eq!(pick(p0.frequency, 1.0, 25.0), pn);
        assert_eq!(pick(Hertz::ZERO, 1e9, 25.0), pn);
    }

    #[test]
    #[should_panic(expected = "exceeds TDP")]
    fn uncore_above_tdp_panics() {
        PowerBudgetManager::new(Watts::new(3.0), Watts::new(5.0));
    }

    #[test]
    fn ema_converges_to_constant_input() {
        let mut ema = PowerEma::new(Seconds::new(8.0));
        let mut avg = Watts::ZERO;
        for _ in 0..100 {
            avg = ema.step(Watts::new(50.0), Seconds::new(1.0));
        }
        assert!((avg.value() - 50.0).abs() < 0.1);
    }

    #[test]
    fn ema_first_sample_initializes() {
        let mut ema = PowerEma::new(Seconds::new(8.0));
        assert_eq!(ema.value, None);
        let avg = ema.step(Watts::new(30.0), Seconds::new(1.0));
        assert!((avg.value() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn turbo_allows_burst_then_clamps() {
        let mut turbo = TurboController::new(Watts::new(91.0), Watts::new(113.75));
        // Cold start from idle: burst allowed.
        let b0 = turbo.step(Watts::new(20.0), Seconds::new(1.0));
        assert_eq!(b0, Watts::new(113.75));
        // Sustained draw at PL2 eventually pulls the average past PL1.
        let mut clamped = false;
        for _ in 0..60 {
            if turbo.step(Watts::new(113.75), Seconds::new(1.0)) == Watts::new(91.0) {
                clamped = true;
                break;
            }
        }
        assert!(clamped, "turbo never clamped to PL1");
    }

    #[test]
    #[should_panic(expected = "below PL1")]
    fn inverted_limits_panic() {
        TurboController::new(Watts::new(100.0), Watts::new(90.0));
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn zero_tau_panics() {
        PowerEma::new(Seconds::ZERO);
    }
}
