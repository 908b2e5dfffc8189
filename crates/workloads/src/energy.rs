//! Energy-efficiency workloads: ENERGY STAR and Intel Ready Mode (RMT).
//!
//! Both are *residency* workloads (paper Sec. 6): the system cycles through
//! power modes and the metric is the residency-weighted average power, which
//! must stay under a program limit.
//!
//! * **ENERGY STAR** (desktop, v8.0-style structure): weighted mix of
//!   off / sleep / long-idle / short-idle modes. Long idle reaches the
//!   platform's deepest package C-state; short idle keeps the display on and
//!   wakes frequently, so the package stays shallow and idle cores matter.
//! * **RMT**: ~99 % of time fully idle at the deepest package C-state,
//!   ~1 % active servicing network wakes on one core.
//!
//! Mode weights and phase powers are calibration constants of this
//! reproduction (the official TEC formula weights are not reproduced
//! verbatim); they are chosen so the paper's Fig. 10 relations hold and are
//! documented in DESIGN.md / EXPERIMENTS.md.

use dg_cstates::power::{GatingConfig, IdlePowerModel};
use dg_cstates::residency::ResidencyTracker;
use dg_cstates::states::PackageCstate;
use dg_power::units::{Seconds, Watts};

/// Average-power limit (watts) an ENERGY STAR desktop must meet in this
/// model.
const ENERGY_STAR_LIMIT_W: f64 = 1.0;

/// Average-power limit (watts) for the Ready Mode idle platform.
const RMT_LIMIT_W: f64 = 1.0;

/// One phase of an energy workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// System off (S5): fixed platform power.
    Off {
        /// Platform power while off.
        power: Watts,
    },
    /// Suspend-to-RAM (S3): fixed platform power.
    Sleep {
        /// Platform power while asleep.
        power: Watts,
    },
    /// Package idle at the deepest C-state the platform supports, capped at
    /// `requested`.
    Idle {
        /// The deepest package state this phase tries to reach.
        requested: PackageCstate,
    },
    /// Package active (C0): `busy_power` of real work plus the idle-core
    /// leakage adder for `idle_cores` cores.
    Active {
        /// Power of the busy components (cores doing work, uncore).
        busy_power: Watts,
        /// Cores sitting idle while the package is active.
        idle_cores: usize,
    },
}

/// A weighted phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// What happens during the phase.
    pub kind: PhaseKind,
    /// Fraction of total time spent in this phase.
    pub weight: f64,
}

/// A residency-style energy workload.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The weighted phases; weights must sum to 1.
    pub phases: Vec<Phase>,
    /// The program's average-power limit.
    pub limit: Watts,
}

impl EnergyWorkload {
    /// Residency-weighted average platform power when the platform's
    /// deepest reachable package state is `deepest` under `config`.
    ///
    /// Idle phases that request deeper than `deepest` are clamped to it
    /// (a pre-DarkGates desktop clamps C8 requests at C7).
    pub fn average_power(
        &self,
        model: &IdlePowerModel,
        config: &GatingConfig,
        deepest: PackageCstate,
    ) -> Watts {
        let mut tracker = ResidencyTracker::new();
        // Off/sleep phases are outside the package C-state model; account
        // for them as fixed-power "active" records (the tracker only needs
        // energy × time).
        for phase in &self.phases {
            let secs = Seconds::new(phase.weight * 100.0);
            match phase.kind {
                PhaseKind::Off { power } | PhaseKind::Sleep { power } => {
                    tracker.record_active(power, secs);
                }
                PhaseKind::Idle { requested } => {
                    tracker.record_idle(requested.min(deepest), secs);
                }
                PhaseKind::Active {
                    busy_power,
                    idle_cores,
                } => {
                    let p = model.active_package_power(busy_power, idle_cores, config);
                    tracker.record_active(p, secs);
                }
            }
        }
        tracker.average_power(model, config)
    }
}

/// The ENERGY STAR desktop workload: 25 % off, 30 % sleep, 40 % long idle
/// (deepest package state), 5 % short idle (display on, frequent wakes,
/// package effectively active with all cores idle) — calibrated weights,
/// see module docs.
pub fn energy_star() -> EnergyWorkload {
    EnergyWorkload {
        name: "ENERGY STAR",
        phases: vec![
            Phase {
                kind: PhaseKind::Off {
                    power: Watts::new(0.2),
                },
                weight: 0.25,
            },
            Phase {
                kind: PhaseKind::Sleep {
                    power: Watts::new(0.4),
                },
                weight: 0.30,
            },
            Phase {
                // Long idle: display blanked, platform reaches its deepest
                // package state.
                kind: PhaseKind::Idle {
                    requested: PackageCstate::C10,
                },
                weight: 0.39,
            },
            Phase {
                // Short idle: display on, media/network timers keep the
                // package shallow; all four cores idle.
                kind: PhaseKind::Active {
                    busy_power: Watts::new(3.0),
                    idle_cores: 4,
                },
                weight: 0.06,
            },
        ],
        limit: Watts::new(ENERGY_STAR_LIMIT_W),
    }
}

/// A mobile video-conferencing workload (paper Sec. 4.3's battery-life
/// benchmark family): camera/codec keep one core plus fixed-function
/// media busy most of the time, with brief dips into shallow package
/// idle between frames.
pub fn video_conferencing() -> EnergyWorkload {
    EnergyWorkload {
        name: "video conferencing",
        phases: vec![
            Phase {
                kind: PhaseKind::Active {
                    busy_power: Watts::new(6.5),
                    idle_cores: 3,
                },
                weight: 0.70,
            },
            Phase {
                kind: PhaseKind::Idle {
                    requested: PackageCstate::C2,
                },
                weight: 0.30,
            },
        ],
        limit: Watts::new(8.0),
    }
}

/// A mobile web-browsing workload: short render bursts, long shallow-to-
/// medium idles while the user reads.
pub fn web_browsing() -> EnergyWorkload {
    EnergyWorkload {
        name: "web browsing",
        phases: vec![
            Phase {
                kind: PhaseKind::Active {
                    busy_power: Watts::new(8.0),
                    idle_cores: 2,
                },
                weight: 0.12,
            },
            Phase {
                kind: PhaseKind::Idle {
                    requested: PackageCstate::C6,
                },
                weight: 0.38,
            },
            Phase {
                kind: PhaseKind::Idle {
                    requested: PackageCstate::C10,
                },
                weight: 0.50,
            },
        ],
        limit: Watts::new(3.0),
    }
}

/// The Intel Ready Mode (RMT) workload: ~99 % fully idle at the deepest
/// package state, ~1 % active on one core servicing network wake-ups
/// (paper Sec. 6: "~99 % of the time, the platform is idle ... consumes few
/// hundreds of milliwatts; the remaining ~1 % ... a few watts").
pub fn ready_mode() -> EnergyWorkload {
    EnergyWorkload {
        name: "Ready Mode (RMT)",
        phases: vec![
            Phase {
                kind: PhaseKind::Idle {
                    requested: PackageCstate::C10,
                },
                weight: 0.99,
            },
            Phase {
                kind: PhaseKind::Active {
                    busy_power: Watts::new(5.0),
                    idle_cores: 3,
                },
                weight: 0.01,
            },
        ],
        limit: Watts::new(RMT_LIMIT_W),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Phase weights sum to 1 (±1e-9).
    fn weight_sum_is_one(w: &EnergyWorkload) -> bool {
        let sum: f64 = w.phases.iter().map(|p| p.weight).sum();
        (sum - 1.0).abs() < 1e-9
    }

    fn model() -> IdlePowerModel {
        IdlePowerModel::new()
    }

    #[test]
    fn weights_sum_to_one() {
        assert!(weight_sum_is_one(&energy_star()));
        assert!(weight_sum_is_one(&ready_mode()));
    }

    #[test]
    fn rmt_fig10_relations() {
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let bypassed = GatingConfig::skylake(true, 4);
        let rmt = ready_mode();

        let dg_c7 = rmt.average_power(&m, &bypassed, PackageCstate::C7);
        let dg_c8 = rmt.average_power(&m, &bypassed, PackageCstate::C8);
        let base_c7 = rmt.average_power(&m, &gated, PackageCstate::C7);

        // Observation 1: C8 cuts DarkGates average power by roughly 68 %.
        let reduction = 1.0 - dg_c8 / dg_c7;
        assert!(
            (0.58..0.75).contains(&reduction),
            "RMT reduction {reduction} (C7 {dg_c7}, C8 {dg_c8})"
        );
        // Observation 2: DarkGates at C7 misses the limit; C8 meets it.
        assert!(rmt.average_power(&m, &bypassed, PackageCstate::C7) > rmt.limit);
        assert!(rmt.average_power(&m, &bypassed, PackageCstate::C8) <= rmt.limit);
        // Observation 3: the gated baseline at C7 is (slightly) below
        // DarkGates at C8.
        assert!(
            base_c7 < dg_c8,
            "baseline C7 {base_c7} should undercut DarkGates C8 {dg_c8}"
        );
    }

    #[test]
    fn energy_star_fig10_relations() {
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let bypassed = GatingConfig::skylake(true, 4);
        let es = energy_star();

        let dg_c7 = es.average_power(&m, &bypassed, PackageCstate::C7);
        let dg_c8 = es.average_power(&m, &bypassed, PackageCstate::C8);
        let base_c7 = es.average_power(&m, &gated, PackageCstate::C7);

        let reduction = 1.0 - dg_c8 / dg_c7;
        assert!(
            (0.25..0.42).contains(&reduction),
            "ENERGY STAR reduction {reduction} (C7 {dg_c7}, C8 {dg_c8})"
        );
        assert!(es.average_power(&m, &bypassed, PackageCstate::C7) > es.limit);
        assert!(es.average_power(&m, &bypassed, PackageCstate::C8) <= es.limit);
        assert!(base_c7 < dg_c8);
    }

    #[test]
    fn idle_requests_clamped_by_platform() {
        let m = model();
        let bypassed = GatingConfig::skylake(true, 4);
        let rmt = ready_mode();
        // Clamping at C7 vs C8 must change the result (the request is C10).
        let at_c7 = rmt.average_power(&m, &bypassed, PackageCstate::C7);
        let at_c8 = rmt.average_power(&m, &bypassed, PackageCstate::C8);
        let at_c10 = rmt.average_power(&m, &bypassed, PackageCstate::C10);
        assert!(at_c7 > at_c8);
        assert!(at_c8 >= at_c10);
    }

    #[test]
    fn mobile_workloads_favor_the_gated_package() {
        // The reason mobile parts keep their gates (Sec. 4.3): battery
        // benchmarks spend much of their time with cores idle at active or
        // shallow-idle rails, where un-gated leakage hurts.
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let bypassed = GatingConfig::skylake(true, 4);
        for wl in [video_conferencing(), web_browsing()] {
            assert!(weight_sum_is_one(&wl), "{}", wl.name);
            let p_gated = wl.average_power(&m, &gated, PackageCstate::C10);
            let p_byp = wl.average_power(&m, &bypassed, PackageCstate::C10);
            assert!(
                p_byp.value() > 1.15 * p_gated.value(),
                "{}: bypassed {p_byp} vs gated {p_gated}",
                wl.name
            );
            // The mobile (gated, C10) configuration meets its battery
            // budget.
            assert!(wl.average_power(&m, &gated, PackageCstate::C10) <= wl.limit);
        }
    }

    #[test]
    fn rmt_idle_power_is_hundreds_of_milliwatts() {
        // Sanity against the paper's description of Ready Mode platforms.
        let m = model();
        let gated = GatingConfig::skylake(false, 4);
        let avg = ready_mode().average_power(&m, &gated, PackageCstate::C7);
        assert!(
            (0.3..0.9).contains(&avg.value()),
            "baseline RMT average {avg}"
        );
    }
}
