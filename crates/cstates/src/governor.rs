//! Idle governor: package C-state selection with idle-duration prediction
//! and demotion.
//!
//! The OS/firmware does not know how long an idle period will last, so it
//! predicts from recent history (an EWMA, like menu-governor-style
//! policies) and picks the deepest state whose break-even time fits the
//! prediction *and* whose exit latency fits the platform's wake-latency
//! budget. Repeated mispredictions demote to shallower states.

use crate::latency::{break_even_time, LatencyTable};
use crate::power::{GatingConfig, IdlePowerModel};
use crate::states::PackageCstate;
use dg_power::units::{Seconds, Watts};

/// EWMA weight given to the newest observation.
const EWMA_ALPHA: f64 = 0.35;

/// Consecutive overestimates before the governor demotes by one state.
const DEMOTION_THRESHOLD: u32 = 2;

/// An idle-duration predictor (EWMA with misprediction tracking).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdlePredictor {
    estimate: f64,
    overestimates: u32,
}

impl IdlePredictor {
    /// Starts with an optimistic 1 ms estimate.
    pub fn new() -> Self {
        IdlePredictor {
            estimate: 1e-3,
            overestimates: 0,
        }
    }

    /// The current prediction.
    pub fn predict(&self) -> Seconds {
        Seconds::new(self.estimate)
    }

    /// Records an observed idle duration.
    pub fn record(&mut self, actual: Seconds) {
        let a = actual.value().max(0.0);
        if self.estimate > 2.0 * a {
            self.overestimates += 1;
        } else {
            self.overestimates = 0;
        }
        self.estimate = EWMA_ALPHA * a + (1.0 - EWMA_ALPHA) * self.estimate;
    }

    /// Consecutive gross overestimates (drives demotion).
    fn overestimates(&self) -> u32 {
        self.overestimates
    }
}

impl Default for IdlePredictor {
    fn default() -> Self {
        IdlePredictor::new()
    }
}

/// Per-state residency/selection statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GovernorStats {
    /// Idle entries per package state index (into [`PackageCstate::ALL`]).
    pub selections: [u64; 8],
    /// Demotions applied due to repeated overestimation.
    pub demotions: u64,
}

/// The idle governor.
///
/// # Examples
///
/// ```
/// use dg_cstates::governor::IdleGovernor;
/// use dg_cstates::power::GatingConfig;
/// use dg_cstates::states::PackageCstate;
/// use dg_power::units::Seconds;
///
/// let mut governor = IdleGovernor::new(
///     GatingConfig::skylake(true, 4),
///     PackageCstate::C8,
///     Seconds::from_ms(2.0),
/// );
/// // A long predicted idle selects the deepest supported state.
/// assert_eq!(governor.select_for(Seconds::new(1.0)), PackageCstate::C8);
/// // Feed back the observed duration to train the predictor.
/// governor.record_idle(Seconds::from_ms(500.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IdleGovernor {
    latency: LatencyTable,
    model: IdlePowerModel,
    config: GatingConfig,
    deepest: PackageCstate,
    /// Wake-latency (QoS) budget: states with longer exit latency are
    /// never selected.
    pub wake_budget: Seconds,
    predictor: IdlePredictor,
    stats: GovernorStats,
}

impl IdleGovernor {
    /// Creates a governor for a platform.
    pub fn new(config: GatingConfig, deepest: PackageCstate, wake_budget: Seconds) -> Self {
        IdleGovernor {
            latency: LatencyTable::skylake(),
            model: IdlePowerModel::new(),
            config,
            deepest,
            wake_budget,
            predictor: IdlePredictor::new(),
            stats: GovernorStats::default(),
        }
    }

    /// The predictor state.
    pub fn predictor(&self) -> &IdlePredictor {
        &self.predictor
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GovernorStats {
        &self.stats
    }

    /// Picks a package state for the next idle period and records the
    /// selection.
    ///
    /// On gated platforms this is the classic break-even policy with
    /// misprediction demotion. On bypassed (DarkGates) platforms the
    /// shallow states barely save power — the un-gateable cores leak at
    /// the idle VID in everything shallower than C8 — so the governor
    /// switches to direct expected-energy minimization, which is markedly
    /// more C8-aggressive (see the `ablations` binary).
    pub fn select(&mut self) -> PackageCstate {
        let predicted = self.predictor.predict();
        let mut best = if self.config.bypassed {
            self.select_energy_optimal(predicted)
        } else {
            self.select_for(predicted)
        };
        // Demotion: repeated overestimates pull one state shallower
        // (gated platforms only — on bypassed platforms the shallower
        // states cost more than a wasted C8 transition).
        if !self.config.bypassed
            && self.predictor.overestimates() >= DEMOTION_THRESHOLD
            && best > PackageCstate::C2
        {
            // `ALL` lists every variant, so the position is always found.
            let idx = PackageCstate::ALL
                .iter()
                .position(|s| *s == best)
                .unwrap_or(0);
            // `best > C2` above guarantees idx ≥ 1.
            if let Some(&shallower) = PackageCstate::ALL.get(idx.saturating_sub(1)) {
                best = shallower;
                self.stats.demotions += 1;
            }
        }
        let idx = PackageCstate::ALL
            .iter()
            .position(|s| *s == best)
            .unwrap_or(0);
        self.stats.selections[idx] += 1;
        best
    }

    /// Expected energy (joules) of spending `duration` idle in `state`,
    /// charging the round-trip transition at shallow-state power.
    pub fn expected_energy(&self, state: PackageCstate, duration: Seconds) -> f64 {
        let p = self.model.package_idle_power(state, &self.config).value();
        let shallow = self
            .model
            .package_idle_power(PackageCstate::C2, &self.config)
            .value();
        let overhead = self.latency.round_trip(state).value();
        let resident = (duration.value() - overhead).max(0.0);
        p * resident + shallow * overhead.min(duration.value())
    }

    /// Energy-optimal selection: the allowed state minimizing
    /// [`expected_energy`] for the predicted duration.
    ///
    /// [`expected_energy`]: IdleGovernor::expected_energy
    // dg-analyze: allow(unreached-pub, reason = "live (select runs it on bypassed platforms); crates/cstates/tests/governor_properties.rs names it")
    pub fn select_energy_optimal(&self, predicted: Seconds) -> PackageCstate {
        let mut best = PackageCstate::C2;
        let mut best_energy = self.expected_energy(best, predicted);
        for state in PackageCstate::ALL.into_iter().skip(2) {
            if state > self.deepest {
                break;
            }
            if self.latency.exit(state) > self.wake_budget {
                break;
            }
            let e = self.expected_energy(state, predicted);
            if e < best_energy {
                best = state;
                best_energy = e;
            }
        }
        best
    }

    /// Pure selection for a given predicted idle duration (no statistics).
    // dg-analyze: allow(unreached-pub, reason = "live (select runs it on gated platforms); crates/cstates/tests/governor_properties.rs names it")
    pub fn select_for(&self, predicted: Seconds) -> PackageCstate {
        let shallow = self
            .model
            .package_idle_power(PackageCstate::C2, &self.config);
        let mut best = PackageCstate::C2;
        for state in PackageCstate::ALL.into_iter().skip(2) {
            if state > self.deepest {
                break;
            }
            if self.latency.exit(state) > self.wake_budget {
                break;
            }
            let deep = self.model.package_idle_power(state, &self.config);
            if let Some(be) = break_even_time(&self.latency, shallow, deep, state) {
                if be <= predicted {
                    best = state;
                }
            }
        }
        best
    }

    /// Reports the actual idle duration once the period ends.
    pub fn record_idle(&mut self, actual: Seconds) {
        self.predictor.record(actual);
    }

    /// Average idle power the governor would achieve for a fixed idle
    /// duration distribution sample (utility for evaluation): selects for
    /// each duration, charges transition losses, returns the mean power.
    pub fn evaluate(&mut self, idle_durations: &[Seconds]) -> Watts {
        if idle_durations.is_empty() {
            return Watts::ZERO;
        }
        let mut energy = 0.0;
        let mut time = 0.0;
        for &dur in idle_durations {
            let state = self.select();
            let p = self.model.package_idle_power(state, &self.config);
            let overhead = self.latency.round_trip(state).value();
            // Transition time burns shallow-state power.
            let shallow = self
                .model
                .package_idle_power(PackageCstate::C2, &self.config)
                .value();
            let resident = (dur.value() - overhead).max(0.0);
            energy += p.value() * resident + shallow * overhead.min(dur.value());
            time += dur.value();
            self.record_idle(dur);
        }
        Watts::new(energy / time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(bypassed: bool, deepest: PackageCstate) -> IdleGovernor {
        IdleGovernor::new(
            GatingConfig::skylake(bypassed, 4),
            deepest,
            Seconds::from_ms(1.0),
        )
    }

    #[test]
    fn long_predictions_pick_deep_states() {
        let g = governor(true, PackageCstate::C8);
        assert_eq!(g.select_for(Seconds::new(1.0)), PackageCstate::C8);
    }

    #[test]
    fn short_predictions_stay_shallow() {
        let g = governor(true, PackageCstate::C8);
        let s = g.select_for(Seconds::from_us(50.0));
        assert!(s <= PackageCstate::C3, "picked {s}");
    }

    #[test]
    fn platform_ceiling_respected() {
        let g = governor(false, PackageCstate::C7);
        assert!(g.select_for(Seconds::new(10.0)) <= PackageCstate::C7);
    }

    #[test]
    fn wake_budget_blocks_slow_states() {
        let mut g = governor(true, PackageCstate::C10);
        g.wake_budget = Seconds::from_us(150.0);
        // C8's 200 µs exit exceeds the budget.
        assert!(g.select_for(Seconds::new(10.0)) <= PackageCstate::C7);
    }

    #[test]
    fn predictor_converges_to_observations() {
        let mut p = IdlePredictor::new();
        for _ in 0..50 {
            p.record(Seconds::new(0.010));
        }
        assert!((p.predict().value() - 0.010).abs() < 0.002);
    }

    #[test]
    fn repeated_overestimates_trigger_demotion() {
        // Demotion applies on gated platforms (bypassed platforms use the
        // energy-optimal policy instead).
        let mut g = governor(false, PackageCstate::C7);
        // Train the predictor long, then feed short idles.
        for _ in 0..10 {
            g.record_idle(Seconds::new(1.0));
        }
        for _ in 0..3 {
            g.record_idle(Seconds::from_us(10.0));
        }
        assert!(g.predictor().overestimates() >= DEMOTION_THRESHOLD);
        let before = g.stats().demotions;
        let s = g.select();
        assert!(g.stats().demotions > before);
        assert!(s < PackageCstate::C7);
    }

    #[test]
    fn bypassed_governor_is_c8_aggressive() {
        // Even for idles below C8's classic break-even time, the
        // energy-optimal policy goes deep (C7+) on a bypassed package,
        // because every shallower state leaks through the un-gated cores;
        // from 1 ms up it commits to C8 outright.
        let g = governor(true, PackageCstate::C8);
        assert!(g.select_energy_optimal(Seconds::from_us(400.0)) >= PackageCstate::C7);
        assert_eq!(
            g.select_energy_optimal(Seconds::from_ms(1.0)),
            PackageCstate::C8
        );
        // On a gated package the same prediction stops short of C8 (its
        // break-even is not met and C7 already removed the core leakage).
        let gg = governor(false, PackageCstate::C8);
        assert!(gg.select_for(Seconds::from_us(400.0)) < PackageCstate::C8);
    }

    #[test]
    fn energy_optimal_matches_always_c8_on_mixed_trace() {
        // The ablation scenario: the adaptive bypassed governor should be
        // within a few percent of the always-C8 static policy.
        let mixed: Vec<Seconds> = (0..60)
            .map(|i| {
                if i % 10 == 0 {
                    Seconds::new(0.8)
                } else {
                    Seconds::from_us(400.0)
                }
            })
            .collect();
        let adaptive = governor(true, PackageCstate::C8).evaluate(&mixed).value();
        // Static always-C8 on the same trace.
        let g = governor(true, PackageCstate::C8);
        let static_c8: f64 = mixed
            .iter()
            .map(|d| g.expected_energy(PackageCstate::C8, *d))
            .sum::<f64>()
            / mixed.iter().map(|d| d.value()).sum::<f64>();
        assert!(
            adaptive <= static_c8 * 1.10,
            "adaptive {adaptive} vs always-C8 {static_c8}"
        );
    }

    #[test]
    fn evaluate_prefers_deep_for_long_idles() {
        let long: Vec<Seconds> = (0..20).map(|_| Seconds::new(0.5)).collect();
        let short: Vec<Seconds> = (0..20).map(|_| Seconds::from_us(200.0)).collect();
        let p_long = governor(true, PackageCstate::C8).evaluate(&long);
        let p_short = governor(true, PackageCstate::C8).evaluate(&short);
        assert!(p_long < p_short, "long {p_long} vs short {p_short}");
        // Long idles on a DarkGates platform land near the C8 floor.
        assert!(p_long.value() < 0.6, "long-idle power {p_long}");
    }

    #[test]
    fn selection_statistics_accumulate() {
        let mut g = governor(true, PackageCstate::C8);
        for _ in 0..5 {
            g.select();
            g.record_idle(Seconds::new(1.0));
        }
        let total: u64 = g.stats().selections.iter().sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_evaluation_is_zero() {
        assert_eq!(governor(true, PackageCstate::C8).evaluate(&[]), Watts::ZERO);
    }
}
