//! Residency accounting: how long the package spent in each C-state, and
//! the residency-weighted average power.
//!
//! The energy-efficiency evaluation (paper Sec. 7.3) is a dot product of
//! per-state power with per-state residency: RMT spends ~99 % of its time in
//! the deepest package state and ~1 % active.

use crate::power::{GatingConfig, IdlePowerModel};
use crate::states::PackageCstate;
use dg_power::units::{Seconds, Watts};
use std::collections::BTreeMap;

/// Accumulates per-state residency and active-phase energy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResidencyTracker {
    idle: BTreeMap<PackageCstate, f64>,
    active_seconds: f64,
    active_joules: f64,
}

impl ResidencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `duration` spent idling at package `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is C0 (use [`record_active`]) or `duration` is
    /// negative.
    ///
    /// [`record_active`]: ResidencyTracker::record_active
    pub fn record_idle(&mut self, state: PackageCstate, duration: Seconds) {
        assert!(
            state != PackageCstate::C0,
            "C0 phases must be recorded with record_active"
        );
        assert!(duration.value() >= 0.0, "negative duration {duration}");
        *self.idle.entry(state).or_insert(0.0) += duration.value();
    }

    /// Records `duration` of active (package C0) time at `power`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or `power` non-finite.
    pub fn record_active(&mut self, power: Watts, duration: Seconds) {
        assert!(duration.value() >= 0.0, "negative duration {duration}");
        assert!(power.is_finite(), "non-finite power");
        self.active_seconds += duration.value();
        self.active_joules += power.value() * duration.value();
    }

    /// Total tracked time (idle + active).
    pub fn total(&self) -> Seconds {
        Seconds::new(self.idle.values().sum::<f64>() + self.active_seconds)
    }

    /// Fraction of the total time spent idling in `state` (0 if nothing
    /// tracked).
    pub fn idle_fraction(&self, state: PackageCstate) -> f64 {
        let total = self.total().value();
        if total <= 0.0 {
            return 0.0;
        }
        self.idle.get(&state).copied().unwrap_or(0.0) / total
    }

    /// Fraction of the total time spent active (package C0).
    // dg-analyze: allow(unreached-pub, reason = "only tests read it (residency and pcode unit tests, cstates properties, tests/firmware.rs); deleting it retires their assertions (ROADMAP item 4)")
    pub fn active_fraction(&self) -> f64 {
        let total = self.total().value();
        if total <= 0.0 {
            return 0.0;
        }
        self.active_seconds / total
    }

    /// Residency-weighted average package power under `model`/`config`.
    ///
    /// Active phases contribute the energy recorded with
    /// [`record_active`]; idle phases contribute the model's idle power for
    /// each state.
    ///
    /// Returns zero if nothing has been tracked.
    ///
    /// [`record_active`]: ResidencyTracker::record_active
    pub fn average_power(&self, model: &IdlePowerModel, config: &GatingConfig) -> Watts {
        let total = self.total().value();
        if total <= 0.0 {
            return Watts::ZERO;
        }
        let idle_joules: f64 = self
            .idle
            .iter()
            .map(|(state, secs)| model.package_idle_power(*state, config).value() * secs)
            .sum();
        Watts::new((idle_joules + self.active_joules) / total)
    }

    /// Iterates over `(state, seconds)` idle entries, shallowest first.
    // dg-analyze: allow(unreached-pub, reason = "only residency::tests calls it; deleting it retires iter_idle_lists_entries (ROADMAP item 4)")
    pub fn iter_idle(&self) -> impl Iterator<Item = (PackageCstate, Seconds)> + '_ {
        self.idle.iter().map(|(s, t)| (*s, Seconds::new(*t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut t = ResidencyTracker::new();
        t.record_idle(PackageCstate::C7, Seconds::new(99.0));
        t.record_active(Watts::new(5.0), Seconds::new(1.0));
        assert!((t.total().value() - 100.0).abs() < 1e-12);
        let sum = t.idle_fraction(PackageCstate::C7) + t.active_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((t.active_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn average_power_is_residency_weighted() {
        let model = IdlePowerModel::new();
        let cfg = GatingConfig::skylake(false, 4);
        let mut t = ResidencyTracker::new();
        t.record_idle(PackageCstate::C7, Seconds::new(99.0));
        t.record_active(Watts::new(5.0), Seconds::new(1.0));
        let p_idle = model.package_idle_power(PackageCstate::C7, &cfg).value();
        let expected = (p_idle * 99.0 + 5.0) / 100.0;
        let avg = t.average_power(&model, &cfg);
        assert!((avg.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_zero() {
        let t = ResidencyTracker::new();
        let model = IdlePowerModel::new();
        let cfg = GatingConfig::skylake(true, 4);
        assert_eq!(t.average_power(&model, &cfg), Watts::ZERO);
        assert_eq!(t.total(), Seconds::ZERO);
        assert_eq!(t.active_fraction(), 0.0);
        assert_eq!(t.idle_fraction(PackageCstate::C7), 0.0);
    }

    #[test]
    fn rmt_shape_darkgates_c8_beats_c7() {
        // The Fig. 10 mechanism in miniature: 99 % idle / 1 % active.
        let model = IdlePowerModel::new();
        let bypassed = GatingConfig::skylake(true, 4);
        let active_power = model.active_package_power(Watts::new(5.0), 3, &bypassed);

        let mut at_c7 = ResidencyTracker::new();
        at_c7.record_idle(PackageCstate::C7, Seconds::new(99.0));
        at_c7.record_active(active_power, Seconds::new(1.0));

        let mut at_c8 = ResidencyTracker::new();
        at_c8.record_idle(PackageCstate::C8, Seconds::new(99.0));
        at_c8.record_active(active_power, Seconds::new(1.0));

        let avg_c7 = at_c7.average_power(&model, &bypassed);
        let avg_c8 = at_c8.average_power(&model, &bypassed);
        let reduction = 1.0 - avg_c8 / avg_c7;
        assert!(
            (0.55..0.80).contains(&reduction),
            "RMT-shaped reduction {reduction}"
        );
    }

    #[test]
    fn iter_idle_lists_entries() {
        let mut t = ResidencyTracker::new();
        t.record_idle(PackageCstate::C3, Seconds::new(1.0));
        t.record_idle(PackageCstate::C8, Seconds::new(2.0));
        t.record_idle(PackageCstate::C3, Seconds::new(1.5));
        let entries: Vec<_> = t.iter_idle().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, PackageCstate::C3);
        assert!((entries[0].1.value() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "record_active")]
    fn recording_c0_as_idle_panics() {
        let mut t = ResidencyTracker::new();
        t.record_idle(PackageCstate::C0, Seconds::new(1.0));
    }
}
