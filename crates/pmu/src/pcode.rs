//! The Pcode firmware state machine.
//!
//! Ties the PMU algorithms into one event-driven machine, the way the real
//! firmware runs (paper Secs. 2.1, 4.2): workload-change events re-solve
//! the operating point, DVFS transitions sequence the SVID rail
//! (raise-voltage-then-frequency, lower-frequency-then-voltage), idle
//! requests pick a package C-state by break-even analysis, and telemetry
//! counters expose what happened (RAPL-style energy, residency, throttle
//! counts).

use crate::license::{License, LicenseManager};
use crate::modes::OperatingMode;
use crate::pbm::TurboController;
use crate::svid::{SvidBus, SvidCommand, VidCode};
use dg_cstates::latency::{break_even_time, LatencyTable};
use dg_cstates::power::{GatingConfig, IdlePowerModel};
use dg_cstates::residency::ResidencyTracker;
use dg_cstates::states::PackageCstate;
use dg_power::dynamic::CdynProfile;
use dg_power::energy::EnergyCounter;
use dg_power::leakage::LeakageModel;
use dg_power::limits::DesignLimits;
use dg_power::pstate::{PState, PStateTable};
use dg_power::thermal::ThermalModel;
use dg_power::units::{Celsius, Hertz, Seconds, Watts};

/// Static configuration of a Pcode instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PcodeConfig {
    /// Operating mode (from the package fuse).
    pub mode: OperatingMode,
    /// Guardbanded, fused-capped P-state table for the running cores.
    pub table: PStateTable,
    /// Design limits.
    pub limits: DesignLimits,
    /// Cooling solution.
    pub thermal: ThermalModel,
    /// Per-core leakage.
    pub core_leakage: LeakageModel,
    /// Number of cores on the die.
    pub core_count: usize,
    /// Uncore active floor.
    pub uncore_active: Watts,
    /// Deepest package C-state the platform supports.
    pub deepest_pkg: PackageCstate,
    /// Package C-state latencies.
    pub latency: LatencyTable,
}

/// Events delivered to the firmware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcodeEvent {
    /// The OS scheduled work: `active_cores` running a workload of the
    /// given per-core dynamic capacitance.
    WorkloadChange {
        /// Cores that now have work.
        active_cores: usize,
        /// Per-core dynamic capacitance.
        cdyn: CdynProfile,
    },
    /// All engines idle; the OS predicts the idle period length.
    IdleRequest {
        /// Predicted idle duration.
        expected_idle: Seconds,
    },
    /// A wake event (interrupt, timer) ends the idle period.
    Wake,
    /// The running code changed instruction-intensity class (AVX license).
    LicenseRequest(License),
}

/// Firmware telemetry (MSR-flavored counters).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Telemetry {
    /// RAPL-style package energy/average power.
    pub energy: EnergyCounter,
    /// Package C-state residency.
    pub residency: ResidencyTracker,
    /// Times the thermal limit forced a lower P-state.
    pub throttle_events: u64,
    /// P-state transitions performed.
    pub pstate_changes: u64,
    /// Peak junction temperature seen.
    pub max_tj: Celsius,
    /// Wake transitions that paid a package C-state exit latency.
    pub wakes: u64,
}

/// What the package is currently doing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    /// Running `active_cores` at the current P-state.
    Running,
    /// Idling at a package C-state.
    Idle(PackageCstate),
    /// Paying a C-state exit latency before running again.
    Waking {
        /// Remaining exit-latency time.
        remaining: Seconds,
    },
}

/// The firmware state machine.
///
/// # Examples
///
/// ```
/// use dg_pmu::pcode::{Pcode, PcodeConfig, PcodeEvent};
/// use dg_pmu::modes::OperatingMode;
/// use dg_cstates::latency::LatencyTable;
/// use dg_cstates::states::PackageCstate;
/// use dg_power::dynamic::CdynProfile;
/// use dg_power::leakage::LeakageModel;
/// use dg_power::limits::DesignLimits;
/// use dg_power::pstate::PStateTable;
/// use dg_power::thermal::ThermalModel;
/// use dg_power::units::{Seconds, Volts, Watts};
/// use dg_power::vf::VfCurve;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use dg_power::units::Hertz;
/// let curve = VfCurve::skylake_core().with_guardband(Volts::from_mv(185.0));
/// let table = PStateTable::from_curve(&curve, PStateTable::standard_bin())?
///     .truncated_at(Hertz::from_ghz(4.6))?; // the product's fused ceiling
/// let cfg = PcodeConfig {
///     mode: OperatingMode::Bypass,
///     table,
///     limits: DesignLimits::skylake(Watts::new(91.0)),
///     thermal: ThermalModel::for_tdp(Watts::new(91.0)),
///     core_leakage: LeakageModel::skylake_core(),
///     core_count: 4,
///     uncore_active: Watts::new(3.0),
///     deepest_pkg: PackageCstate::C8,
///     latency: LatencyTable::skylake(),
/// };
/// let mut pcode = Pcode::boot(cfg);
/// pcode.handle(PcodeEvent::WorkloadChange {
///     active_cores: 1,
///     cdyn: CdynProfile::core_typical(),
/// });
/// for _ in 0..200 {
///     pcode.step(Seconds::from_ms(10.0));
/// }
/// assert!(pcode.frequency().expect("running").as_ghz() > 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pcode {
    cfg: PcodeConfig,
    svid: SvidBus,
    turbo: TurboController,
    idle_model: IdlePowerModel,
    license: LicenseManager,
    /// Remaining license-grant stall time.
    license_stall: Seconds,
    activity: Activity,
    active_cores: usize,
    cdyn: CdynProfile,
    current: Option<PState>,
    tj: Celsius,
    last_power: Watts,
    telemetry: Telemetry,
}

impl Pcode {
    /// Boots the firmware: package active, no work, rail at the floor
    /// P-state voltage.
    pub fn boot(cfg: PcodeConfig) -> Self {
        let mut svid = SvidBus::skylake();
        let floor = cfg.table.pn();
        svid.issue(SvidCommand::SetVid(VidCode::encode(floor.voltage)));
        svid.step(svid.settle_time(floor.voltage));
        let tj = cfg.thermal.t_ambient;
        let turbo = TurboController::new(cfg.limits.power.pl1, cfg.limits.power.pl2);
        Pcode {
            cfg,
            svid,
            turbo,
            idle_model: IdlePowerModel::new(),
            license: LicenseManager::new(),
            license_stall: Seconds::ZERO,
            activity: Activity::Running,
            active_cores: 0,
            cdyn: CdynProfile::core_memory_bound(),
            current: None,
            tj,
            last_power: Watts::ZERO,
            telemetry: Telemetry::default(),
        }
    }

    /// The firmware's gating view of the package.
    pub fn gating_config(&self) -> GatingConfig {
        GatingConfig::skylake(self.cfg.mode == OperatingMode::Bypass, self.cfg.core_count)
    }

    /// Current core frequency (`None` while idle or unloaded).
    pub fn frequency(&self) -> Option<Hertz> {
        match self.activity {
            Activity::Running => self.current.map(|s| s.frequency),
            _ => None,
        }
    }

    /// The telemetry counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// SVID commands issued so far.
    // dg-analyze: allow(unreached-pub, reason = "only tests read it (pcode::tests, tests/firmware.rs); deleting it retires their assertions (ROADMAP item 4)")
    pub fn svid_commands(&self) -> u64 {
        self.svid.commands_issued()
    }

    /// The package state while idle, if idle.
    // dg-analyze: allow(unreached-pub, reason = "only tests read it (pcode::tests, tests/firmware.rs); deleting it retires their assertions (ROADMAP item 4)")
    pub fn idle_state(&self) -> Option<PackageCstate> {
        match self.activity {
            Activity::Idle(s) => Some(s),
            _ => None,
        }
    }

    /// Delivers an event.
    pub fn handle(&mut self, event: PcodeEvent) {
        match event {
            PcodeEvent::WorkloadChange { active_cores, cdyn } => {
                assert!(
                    active_cores <= self.cfg.core_count,
                    "active_cores {active_cores} exceeds die"
                );
                self.active_cores = active_cores;
                self.cdyn = cdyn;
                if let Activity::Idle(state) = self.activity {
                    self.begin_wake(state);
                } else {
                    self.activity = Activity::Running;
                }
            }
            PcodeEvent::IdleRequest { expected_idle } => {
                let state = self.select_idle_state(expected_idle);
                if state >= PackageCstate::C8 {
                    self.svid.issue(SvidCommand::VrOff);
                } else {
                    // Park the rail at the idle VID.
                    let floor = self.cfg.table.pn();
                    self.svid
                        .issue(SvidCommand::SetVid(VidCode::encode(floor.voltage)));
                    self.svid.issue(SvidCommand::SetPs(2));
                }
                self.active_cores = 0;
                self.current = None;
                self.activity = Activity::Idle(state);
            }
            PcodeEvent::Wake => {
                if let Activity::Idle(state) = self.activity {
                    self.begin_wake(state);
                }
            }
            PcodeEvent::LicenseRequest(license) => {
                self.license_stall = self.license.request(license);
            }
        }
    }

    /// The instruction-intensity license currently in force.
    pub fn license(&self) -> License {
        self.license.current()
    }

    fn begin_wake(&mut self, from: PackageCstate) {
        self.telemetry.wakes += 1;
        self.activity = Activity::Waking {
            remaining: self.cfg.latency.exit(from),
        };
        // Bring the rail back up for the floor state; the DVFS pass will
        // raise it further as needed.
        let floor = self.cfg.table.pn();
        self.svid
            .issue(SvidCommand::SetVid(VidCode::encode(floor.voltage)));
        self.svid.issue(SvidCommand::SetPs(0));
    }

    /// Break-even-driven package C-state selection: the deepest supported
    /// state whose break-even time fits in the predicted idle period.
    fn select_idle_state(&self, expected_idle: Seconds) -> PackageCstate {
        let config = self.gating_config();
        let shallow = self
            .idle_model
            .package_idle_power(PackageCstate::C2, &config);
        let mut best = PackageCstate::C2;
        for state in PackageCstate::ALL.into_iter().skip(2) {
            if state > self.cfg.deepest_pkg {
                break;
            }
            let deep = self.idle_model.package_idle_power(state, &config);
            match break_even_time(&self.cfg.latency, shallow, deep, state) {
                Some(be) if be <= expected_idle => best = state,
                Some(_) => {}
                // A state that saves nothing can still be a stepping stone
                // (e.g. DarkGates C7 ≈ C6); skip it.
                None => {}
            }
        }
        best
    }

    /// Advances firmware time by `dt`: SVID slewing, DVFS evaluation,
    /// thermal integration, telemetry.
    pub fn step(&mut self, dt: Seconds) {
        self.svid.step(dt);
        match self.activity {
            Activity::Running => self.step_running(dt),
            Activity::Idle(state) => {
                let power = self
                    .idle_model
                    .package_idle_power(state, &self.gating_config());
                self.tj = self.cfg.thermal.step(self.tj, power, dt);
                self.telemetry.energy.record(power, dt);
                self.telemetry.residency.record_idle(state, dt);
                self.last_power = power;
            }
            Activity::Waking { remaining } => {
                // Exit latency: uncore powering up, caches restoring.
                let power = self.cfg.uncore_active;
                self.telemetry.energy.record(power, dt);
                self.telemetry.residency.record_active(power, dt);
                let left = remaining - dt;
                self.activity = if left.value() <= 0.0 {
                    Activity::Running
                } else {
                    Activity::Waking { remaining: left }
                };
                self.last_power = power;
            }
        }
        self.telemetry.max_tj = self.telemetry.max_tj.max(self.tj);
    }

    fn step_running(&mut self, dt: Seconds) {
        if self.license_stall.value() > 0.0 {
            // Wide-unit power-gates waking: run at the floor meanwhile.
            self.license_stall = Seconds::new((self.license_stall - dt).value().max(0.0));
        }
        if self.active_cores == 0 {
            // Active but unloaded: uncore floor plus idle-core leakage.
            let power = self.idle_model.active_package_power(
                self.cfg.uncore_active,
                self.cfg.core_count,
                &self.gating_config(),
            );
            self.tj = self.cfg.thermal.step(self.tj, power, dt);
            self.telemetry.energy.record(power, dt);
            self.telemetry.residency.record_active(power, dt);
            self.last_power = power;
            return;
        }

        let budget = self.turbo.step(self.last_power, dt);
        let desired = self.pick_state(budget);

        // Sequencing: frequency may only rise once the rail has reached
        // the required voltage.
        if desired.voltage > self.svid.target() {
            self.svid
                .issue(SvidCommand::SetVid(VidCode::encode(desired.voltage)));
        }
        let rail = self.svid.output();
        let granted = if desired.voltage <= rail {
            desired
        } else {
            self.cfg
                .table
                .highest_below_voltage(rail)
                .unwrap_or_else(|| self.cfg.table.pn())
        };
        if self.current.map(|s| s.frequency) != Some(granted.frequency) {
            self.telemetry.pstate_changes += 1;
        }
        self.current = Some(granted);

        // Lower the rail once the frequency has come down.
        if granted.voltage < self.svid.target() && granted.frequency >= desired.frequency {
            self.svid
                .issue(SvidCommand::SetVid(VidCode::encode(granted.voltage)));
        }

        let power = self.power_at(granted);
        self.tj = self.cfg.thermal.step(self.tj, power, dt);
        self.telemetry.energy.record(power, dt);
        self.telemetry.residency.record_active(power, dt);
        self.last_power = power;
    }

    fn power_at(&self, state: PState) -> Watts {
        let idle_cores = self.cfg.core_count - self.active_cores;
        let idle_leak = self
            .idle_model
            .active_idle_core_leakage(idle_cores, &self.gating_config());
        let per_core = self.cdyn.power(state.voltage, state.frequency)
            + self.cfg.core_leakage.power(state.voltage, self.tj);
        per_core * self.active_cores as f64 + self.cfg.uncore_active + idle_leak
    }

    fn pick_state(&mut self, budget: Watts) -> PState {
        let throttling = self.tj.value() >= self.cfg.limits.tjmax.value() - 0.5;
        let thermal_cap = if throttling {
            self.cfg.thermal.max_sustained_power(self.cfg.limits.tjmax)
        } else {
            Watts::new(f64::INFINITY)
        };
        let cap = budget.min(thermal_cap);
        let ceiling = self
            .license
            .effective_ceiling(self.cfg.table.p0().frequency);
        for state in self.cfg.table.iter_descending() {
            if state.frequency > ceiling {
                continue;
            }
            if self.power_at(state) <= cap {
                if throttling && Some(state.frequency) != self.current.map(|s| s.frequency) {
                    self.telemetry.throttle_events += 1;
                }
                return state;
            }
        }
        self.telemetry.throttle_events += 1;
        self.cfg.table.pn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_power::units::Volts;
    use dg_power::vf::VfCurve;

    fn config(mode: OperatingMode, tdp: f64) -> PcodeConfig {
        let gb = match mode {
            OperatingMode::Bypass => Volts::from_mv(185.0),
            OperatingMode::Normal => Volts::from_mv(290.0),
        };
        let curve = VfCurve::skylake_core().with_guardband(gb);
        let table = PStateTable::from_curve(&curve, PStateTable::standard_bin())
            .unwrap()
            .truncated_at(Hertz::from_ghz(4.2))
            .unwrap();
        PcodeConfig {
            mode,
            table,
            limits: DesignLimits::skylake(Watts::new(tdp)),
            thermal: ThermalModel::for_tdp(Watts::new(tdp)),
            core_leakage: LeakageModel::skylake_core(),
            core_count: 4,
            uncore_active: Watts::new(3.0),
            deepest_pkg: match mode {
                OperatingMode::Bypass => PackageCstate::C8,
                OperatingMode::Normal => PackageCstate::C7,
            },
            latency: LatencyTable::skylake(),
        }
    }

    fn run_for(pcode: &mut Pcode, seconds: f64) {
        let dt = Seconds::new(0.01);
        let steps = (seconds / dt.value()).round() as usize;
        for _ in 0..steps {
            pcode.step(dt);
        }
    }

    #[test]
    fn boot_is_quiet() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        run_for(&mut p, 1.0);
        assert!(p.telemetry().energy.average_power().value() < 10.0);
        assert!(p.frequency().is_none());
    }

    #[test]
    fn workload_raises_voltage_then_frequency() {
        let mut p = Pcode::boot(config(OperatingMode::Normal, 91.0));
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 1,
            cdyn: CdynProfile::core_typical(),
        });
        // First small step: rail still slewing, frequency limited.
        p.step(Seconds::from_us(10.0));
        let f_early = p.frequency().unwrap();
        run_for(&mut p, 2.0);
        let f_late = p.frequency().unwrap();
        assert!(f_late >= f_early, "{f_early} -> {f_late}");
        assert!((f_late.as_ghz() - 4.2).abs() < 0.15, "final {f_late}");
        assert!(p.svid_commands() > 0);
    }

    #[test]
    fn rate_workload_throttles_at_low_tdp() {
        let mut p = Pcode::boot(config(OperatingMode::Normal, 35.0));
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 4,
            cdyn: CdynProfile::core_typical(),
        });
        run_for(&mut p, 120.0);
        let f = p.frequency().unwrap();
        assert!(f < Hertz::from_ghz(4.0), "sustained {f}");
        assert!(p.telemetry().energy.average_power().value() < 45.0);
        assert!(p.tj.value() <= 94.0);
    }

    #[test]
    fn long_idle_selects_deepest_state() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        p.handle(PcodeEvent::IdleRequest {
            expected_idle: Seconds::new(1.0),
        });
        assert_eq!(p.idle_state(), Some(PackageCstate::C8));
        run_for(&mut p, 1.0);
        // Sub-watt average while parked in C8.
        assert!(p.telemetry().energy.average_power().value() < 1.0);
    }

    #[test]
    fn short_idle_avoids_deep_states() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        p.handle(PcodeEvent::IdleRequest {
            expected_idle: Seconds::from_us(100.0),
        });
        let state = p.idle_state().unwrap();
        assert!(state < PackageCstate::C8, "picked {state}");
    }

    #[test]
    fn legacy_platform_never_exceeds_c7() {
        let mut p = Pcode::boot(config(OperatingMode::Normal, 91.0));
        p.handle(PcodeEvent::IdleRequest {
            expected_idle: Seconds::new(10.0),
        });
        assert!(p.idle_state().unwrap() <= PackageCstate::C7);
    }

    #[test]
    fn wake_pays_exit_latency() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        p.handle(PcodeEvent::IdleRequest {
            expected_idle: Seconds::new(1.0),
        });
        run_for(&mut p, 0.1);
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 1,
            cdyn: CdynProfile::core_typical(),
        });
        // Immediately after wake: still paying the exit latency.
        assert!(p.frequency().is_none());
        run_for(&mut p, 0.5);
        assert!(p.frequency().is_some());
        assert_eq!(p.telemetry().wakes, 1);
    }

    #[test]
    fn residency_tracks_idle_and_active() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 2,
            cdyn: CdynProfile::core_typical(),
        });
        run_for(&mut p, 1.0);
        p.handle(PcodeEvent::IdleRequest {
            expected_idle: Seconds::new(1.0),
        });
        run_for(&mut p, 1.0);
        let t = p.telemetry();
        assert!(t.residency.active_fraction() > 0.3);
        assert!(t.residency.idle_fraction(PackageCstate::C8) > 0.3);
        assert!(t.pstate_changes > 0);
    }

    #[test]
    fn avx_license_caps_frequency() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 1,
            cdyn: CdynProfile::core_typical(),
        });
        run_for(&mut p, 2.0);
        let scalar_f = p.frequency().unwrap();
        p.handle(PcodeEvent::LicenseRequest(License::L2));
        run_for(&mut p, 2.0);
        let avx_f = p.frequency().unwrap();
        assert_eq!(p.license(), License::L2);
        // The AVX-512 offset is 5 bins.
        let delta_mhz = scalar_f.as_mhz() - avx_f.as_mhz();
        assert!(
            (400.0..=600.0).contains(&delta_mhz),
            "offset {delta_mhz} MHz"
        );
        // Dropping back restores the scalar ceiling.
        p.handle(PcodeEvent::LicenseRequest(License::L0));
        run_for(&mut p, 2.0);
        assert_eq!(p.frequency().unwrap(), scalar_f);
    }

    #[test]
    #[should_panic(expected = "exceeds die")]
    fn too_many_cores_panics() {
        let mut p = Pcode::boot(config(OperatingMode::Bypass, 91.0));
        p.handle(PcodeEvent::WorkloadChange {
            active_cores: 9,
            cdyn: CdynProfile::core_typical(),
        });
    }
}
