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
//! bursts up to PL2 are allowed.

use dg_power::units::{Seconds, Watts};

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

    /// Budget available to the CPU cores when the graphics engine is idle.
    /// `idle_leak` is the un-gated idle-core leakage (zero on gated parts).
    // dg-analyze: allow(unreached-pub, reason = "only pbm::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn budget_for_cores(&self, idle_leak: Watts) -> Watts {
        (self.compute_budget() - idle_leak).max(Watts::ZERO)
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

    /// The current average (zero before any sample).
    pub fn value(&self) -> Watts {
        Watts::new(self.value.unwrap_or(0.0))
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

    /// The current running average.
    pub fn average(&self) -> Watts {
        self.ema.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_budget_subtracts_uncore() {
        let pbm = PowerBudgetManager::new(Watts::new(91.0), Watts::new(3.0));
        assert!((pbm.compute_budget().value() - 88.0).abs() < 1e-12);
    }

    #[test]
    fn idle_leak_cuts_core_budget() {
        let pbm = PowerBudgetManager::new(Watts::new(35.0), Watts::new(3.0));
        let lean = pbm.budget_for_cores(Watts::ZERO);
        let taxed = pbm.budget_for_cores(Watts::new(4.0));
        assert!((lean.value() - 32.0).abs() < 1e-12);
        assert!((taxed.value() - 28.0).abs() < 1e-12);
    }

    #[test]
    fn core_budget_clamps_at_zero() {
        let pbm = PowerBudgetManager::new(Watts::new(10.0), Watts::new(3.0));
        assert_eq!(pbm.budget_for_cores(Watts::new(20.0)), Watts::ZERO);
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
    #[should_panic(expected = "exceeds TDP")]
    fn uncore_above_tdp_panics() {
        PowerBudgetManager::new(Watts::new(3.0), Watts::new(5.0));
    }

    #[test]
    fn ema_converges_to_constant_input() {
        let mut ema = PowerEma::new(Seconds::new(8.0));
        for _ in 0..100 {
            ema.step(Watts::new(50.0), Seconds::new(1.0));
        }
        assert!((ema.value().value() - 50.0).abs() < 0.1);
    }

    #[test]
    fn ema_first_sample_initializes() {
        let mut ema = PowerEma::new(Seconds::new(8.0));
        assert_eq!(ema.value(), Watts::ZERO);
        ema.step(Watts::new(30.0), Seconds::new(1.0));
        assert!((ema.value().value() - 30.0).abs() < 1e-12);
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
