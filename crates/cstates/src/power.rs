//! Per-package-C-state power model, with the DarkGates leakage adjustment.
//!
//! The decisive interaction of Sec. 4.3: in package C7 the core VR is still
//! on, so a DarkGates (bypassed) package leaks through every un-gateable
//! core, making C7 >3× more expensive than on the baseline gated package.
//! Package C8 turns the core VR off, recovering the loss — which is why
//! DarkGates desktops must support C8.
//!
//! Calibration constants are exposed so experiments (and the Fig. 10
//! harness) can perturb them.

use crate::states::PackageCstate;
use dg_power::leakage::LeakageModel;
use dg_power::units::{Celsius, Volts, Watts};

/// Uncore + IO + DRAM-refresh power at each package state, in watts.
///
/// C0 is the uncore's *idle floor* while the package is active; compute
/// power (cores, graphics) comes from the performance simulator on top.
const UNCORE_POWER_W: [(PackageCstate, f64); 8] = [
    (PackageCstate::C0, 3.00),
    (PackageCstate::C2, 2.00),
    (PackageCstate::C3, 1.20),
    (PackageCstate::C6, 0.60),
    (PackageCstate::C7, 0.45),
    (PackageCstate::C8, 0.445),
    (PackageCstate::C9, 0.25),
    (PackageCstate::C10, 0.10),
];

/// Standby overhead of the core VR while it is on (watts).
const CORE_VR_ON_OVERHEAD_W: f64 = 0.02;

/// Residual leakage of a power-gated core (watts per core): the gate's
/// off-state leakage.
const GATED_CORE_RESIDUAL_W: f64 = 0.002;

/// The idle VID the core VR parks at while the package idles with the VR on.
const IDLE_VID: Volts = Volts::new(0.85);

/// Junction temperature while the package idles deeply.
const IDLE_TEMP: Celsius = Celsius::new(35.0);

/// Supply voltage seen by idle (but un-gated) cores while the package is
/// active and another core or the graphics engine is running.
const ACTIVE_IDLE_VID: Volts = Volts::new(1.00);

/// Junction temperature of idle cores while the package is active.
const ACTIVE_IDLE_TEMP: Celsius = Celsius::new(75.0);

/// Whether the package can actually power-gate its cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingConfig {
    /// `true` for a DarkGates (bypassed) package: gates cannot cut power.
    pub bypassed: bool,
    /// Number of CPU cores on the die.
    pub core_count: usize,
    /// Per-core leakage model.
    pub core_leakage: LeakageModel,
}

impl GatingConfig {
    /// A 4-core Skylake-class package.
    ///
    /// # Panics
    ///
    /// Panics if `core_count` is zero.
    pub fn skylake(bypassed: bool, core_count: usize) -> Self {
        assert!(core_count > 0, "need at least one core");
        GatingConfig {
            bypassed,
            core_count,
            core_leakage: LeakageModel::skylake_core(),
        }
    }

    /// Leakage of one idle, *un-gateable* core at the given operating point.
    fn ungated_core_leak(&self, v: Volts, t: Celsius) -> Watts {
        self.core_leakage.power(v, t)
    }
}

/// The calibrated idle power model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IdlePowerModel;

impl IdlePowerModel {
    /// Creates the model.
    pub fn new() -> Self {
        IdlePowerModel
    }

    /// Uncore + IO + DRAM power at `state`.
    fn uncore_power(&self, state: PackageCstate) -> Watts {
        let w = UNCORE_POWER_W
            .iter()
            .find(|(s, _)| *s == state)
            .map(|(_, w)| *w)
            // Unreachable: the constant table covers every package state
            // (a test checks the covering).
            .unwrap_or(0.0);
        Watts::new(w)
    }

    /// Idle power of the CPU cores at package `state`.
    ///
    /// * VR off (C8+): zero regardless of gating.
    /// * VR on, gated package: per-core residual gate leakage.
    /// * VR on, bypassed package: full leakage at the idle VID — the
    ///   DarkGates penalty.
    fn cores_idle_power(&self, state: PackageCstate, config: &GatingConfig) -> Watts {
        if state.core_vr_off() {
            return Watts::ZERO;
        }
        let per_core = if config.bypassed {
            config.ungated_core_leak(IDLE_VID, IDLE_TEMP)
        } else {
            Watts::new(GATED_CORE_RESIDUAL_W)
        };
        per_core * config.core_count as f64
    }

    /// Total package power while *fully idle* at package `state`
    /// (uncore + VR overhead + idle-core leakage). Not meaningful for C0.
    pub fn package_idle_power(&self, state: PackageCstate, config: &GatingConfig) -> Watts {
        let vr = if state.core_vr_off() {
            Watts::ZERO
        } else {
            Watts::new(CORE_VR_ON_OVERHEAD_W)
        };
        self.uncore_power(state) + vr + self.cores_idle_power(state, config)
    }

    /// Extra leakage charged while the package is *active* (C0) for
    /// `idle_cores` cores that sit idle at the active rail voltage.
    ///
    /// On a gated package the idle cores are power-gated and this is the
    /// tiny residual; on a bypassed package they leak at full tilt — the
    /// power the PBM must deduct from the compute budget (Sec. 4.2).
    pub fn active_idle_core_leakage(&self, idle_cores: usize, config: &GatingConfig) -> Watts {
        let per_core = if config.bypassed {
            config.ungated_core_leak(ACTIVE_IDLE_VID, ACTIVE_IDLE_TEMP)
        } else {
            Watts::new(GATED_CORE_RESIDUAL_W)
        };
        per_core * idle_cores as f64
    }

    /// Platform power during an active (C0) phase: the workload's own power
    /// plus the idle-core leakage adder.
    pub fn active_package_power(
        &self,
        workload_power: Watts,
        idle_cores: usize,
        config: &GatingConfig,
    ) -> Watts {
        workload_power + self.active_idle_core_leakage(idle_cores, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> IdlePowerModel {
        IdlePowerModel::new()
    }

    #[test]
    fn uncore_table_covers_every_package_state() {
        // Backs the unreachable-fallback in `uncore_power`.
        use crate::states::PackageCstate;
        for state in PackageCstate::ALL {
            assert!(
                UNCORE_POWER_W.iter().any(|(s, _)| *s == state),
                "{state:?} missing from UNCORE_POWER_W"
            );
        }
    }

    #[test]
    fn uncore_power_monotone_decreasing_with_depth() {
        let m = model();
        for w in PackageCstate::ALL.windows(2) {
            assert!(
                m.uncore_power(w[1]) <= m.uncore_power(w[0]),
                "{} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn c8_zeroes_core_power_for_both_configs() {
        let m = model();
        for bypassed in [false, true] {
            let cfg = GatingConfig::skylake(bypassed, 4);
            assert_eq!(m.cores_idle_power(PackageCstate::C8, &cfg), Watts::ZERO);
            assert_eq!(m.cores_idle_power(PackageCstate::C10, &cfg), Watts::ZERO);
        }
    }

    #[test]
    fn darkgates_c7_more_than_3x_baseline_c7() {
        // The Sec. 4.3 headline: bypassed package C7 power is >3× the gated
        // package's C7 power.
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let bypassed = GatingConfig::skylake(true, 4);
        let p_gated = m.package_idle_power(PackageCstate::C7, &gated);
        let p_byp = m.package_idle_power(PackageCstate::C7, &bypassed);
        let ratio = p_byp / p_gated;
        assert!(
            ratio > 3.0,
            "C7 ratio {ratio} (gated {p_gated}, byp {p_byp})"
        );
    }

    #[test]
    fn darkgates_c8_recovers_the_leak() {
        let m = model();
        let bypassed = GatingConfig::skylake(true, 4);
        let p_c7 = m.package_idle_power(PackageCstate::C7, &bypassed);
        let p_c8 = m.package_idle_power(PackageCstate::C8, &bypassed);
        assert!(p_c8.value() < 0.4 * p_c7.value(), "C8 {p_c8} vs C7 {p_c7}");
    }

    #[test]
    fn darkgates_c8_close_to_baseline_c7() {
        // The Fig. 10 third observation hinges on idle C8 (bypassed) being
        // only slightly below idle C7 (gated).
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let bypassed = GatingConfig::skylake(true, 4);
        let p_base_c7 = m.package_idle_power(PackageCstate::C7, &gated);
        let p_dg_c8 = m.package_idle_power(PackageCstate::C8, &bypassed);
        let diff = (p_base_c7 - p_dg_c8).abs();
        assert!(diff.value() < 0.06, "idle gap {diff} too wide");
    }

    #[test]
    fn active_idle_leakage_large_only_when_bypassed() {
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let bypassed = GatingConfig::skylake(true, 4);
        let lg = m.active_idle_core_leakage(3, &gated);
        let lb = m.active_idle_core_leakage(3, &bypassed);
        assert!(lg.value() < 0.1, "gated idle leak {lg}");
        assert!(
            (2.5..5.0).contains(&lb.value()),
            "bypassed idle leak {lb} outside the calibrated band"
        );
        // It must exceed the C7→C8 idle gap by enough to flip Fig. 10's
        // third observation at 1% active residency.
        let p_base_c7 = m.package_idle_power(PackageCstate::C7, &gated);
        let p_dg_c8 = m.package_idle_power(PackageCstate::C8, &bypassed);
        assert!(0.01 * (lb - lg).value() > 0.99 * (p_base_c7 - p_dg_c8).value());
    }

    #[test]
    fn active_package_power_adds_leakage() {
        let m = model();
        let bypassed = GatingConfig::skylake(true, 4);
        let p = m.active_package_power(Watts::new(5.0), 3, &bypassed);
        assert!(p > Watts::new(7.5));
        let gated = GatingConfig::skylake(false, 4);
        let p2 = m.active_package_power(Watts::new(5.0), 3, &gated);
        let expected = 5.0 + 3.0 * GATED_CORE_RESIDUAL_W;
        assert!((p2.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn deeper_is_cheaper_when_fully_idle() {
        let m = model();
        for bypassed in [false, true] {
            let cfg = GatingConfig::skylake(bypassed, 4);
            // From C2 down, package power is non-increasing with depth.
            let idle_states = &PackageCstate::ALL[1..];
            for w in idle_states.windows(2) {
                let a = m.package_idle_power(w[0], &cfg);
                let b = m.package_idle_power(w[1], &cfg);
                assert!(b <= a, "bypassed={bypassed}: {} {a} -> {} {b}", w[0], w[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_config_panics() {
        GatingConfig::skylake(true, 0);
    }
}
