//! C-state enumerations: core, graphics, package, and platform component
//! states.
//!
//! Deeper states are "greater" in the derived ordering, so
//! `CoreCstate::Cc6 > CoreCstate::Cc0` and `PackageCstate::C8 >
//! PackageCstate::C7`. The package states and their entry conditions mirror
//! Table 1 of the paper (Intel Skylake).

use std::fmt;

/// CPU-core component C-states (CCi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CoreCstate {
    /// Executing instructions.
    #[default]
    Cc0,
    /// Halted; clocks on, state retained.
    Cc1,
    /// Clocks off.
    Cc3,
    /// Power-gated (state saved to the LLC).
    Cc6,
    /// Power-gated, deeper uncore coordination.
    Cc7,
}

impl CoreCstate {
    /// All states, shallowest first.
    pub const ALL: [CoreCstate; 5] = [
        CoreCstate::Cc0,
        CoreCstate::Cc1,
        CoreCstate::Cc3,
        CoreCstate::Cc6,
        CoreCstate::Cc7,
    ];

    /// `true` when the core's clocks are off (CC3 or deeper).
    pub fn clocks_off(self) -> bool {
        self >= CoreCstate::Cc3
    }

    /// `true` when the core's power-gate is closed (CC6 or deeper).
    ///
    /// In a DarkGates (bypassed) package the gate cannot actually cut the
    /// supply — the *request* is still tracked, but the leakage saving does
    /// not materialize (see [`crate::power::IdlePowerModel`]).
    pub fn power_gated(self) -> bool {
        self >= CoreCstate::Cc6
    }
}

impl fmt::Display for CoreCstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoreCstate::Cc0 => "CC0",
            CoreCstate::Cc1 => "CC1",
            CoreCstate::Cc3 => "CC3",
            CoreCstate::Cc6 => "CC6",
            CoreCstate::Cc7 => "CC7",
        };
        f.write_str(s)
    }
}

/// Graphics-engine component C-states (RCi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum GraphicsCstate {
    /// Rendering.
    #[default]
    Rc0,
    /// Power-gated.
    Rc6,
}

impl GraphicsCstate {
    /// `true` when the engine is rendering.
    pub fn is_active(self) -> bool {
        self == GraphicsCstate::Rc0
    }
}

impl fmt::Display for GraphicsCstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphicsCstate::Rc0 => "RC0",
            GraphicsCstate::Rc6 => "RC6",
        })
    }
}

/// Display-pipeline state, which gates the deepest package states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DisplayState {
    /// Actively scanned out by the display controller.
    #[default]
    On,
    /// Panel self-refresh (PSR): panel refreshes itself, SoC display off.
    SelfRefresh,
    /// Display off.
    Off,
}

/// External-memory (DRAM) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MemoryState {
    /// DRAM actively serving requests.
    #[default]
    Active,
    /// DRAM in self-refresh.
    SelfRefresh,
}

/// Package (system-level) C-states of the Intel Skylake architecture
/// (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PackageCstate {
    /// One or more cores or the graphics engine executing.
    #[default]
    C0,
    /// All cores ≥ CC3, graphics in RC6, DRAM active.
    C2,
    /// As C2 with DRAM in self-refresh; LLC may be flushed; most IO/memory
    /// clocks gated.
    C3,
    /// All cores ≥ CC6 (power-gated), graphics RC6; IO/memory clock
    /// generators off.
    C6,
    /// As C6 with some IO/memory voltages gated; **CPU core VR is ON**.
    C7,
    /// As C7 with additional IO/memory gating; **CPU core VR is OFF**.
    /// The DarkGates extension enables this state on desktops (Sec. 4.3).
    C8,
    /// As C8 with all IPs off; most VR voltages reduced; display may be in
    /// panel self-refresh.
    C9,
    /// As C9 with all SoC VRs (except the always-on rail) off; display off.
    C10,
}

impl PackageCstate {
    /// All states, shallowest first.
    pub const ALL: [PackageCstate; 8] = [
        PackageCstate::C0,
        PackageCstate::C2,
        PackageCstate::C3,
        PackageCstate::C6,
        PackageCstate::C7,
        PackageCstate::C8,
        PackageCstate::C9,
        PackageCstate::C10,
    ];

    /// `true` when the CPU cores' voltage regulator is off in this state
    /// (C8 and deeper; paper Table 1).
    pub fn core_vr_off(self) -> bool {
        self >= PackageCstate::C8
    }

    /// The paper's Table 1 entry-condition summary for this state.
    pub fn entry_conditions(self) -> &'static str {
        match self {
            PackageCstate::C0 => "one or more cores or graphics engine executing instructions",
            PackageCstate::C2 => {
                "all cores in CC3 (clocks off) or deeper and graphics in RC6; DRAM active"
            }
            PackageCstate::C3 => {
                "all cores in CC3 or deeper and graphics in RC6; LLC may be flushed; \
                 DRAM in self-refresh; most IO/memory clocks gated"
            }
            PackageCstate::C6 => {
                "all cores in CC6 (power-gated) or deeper and graphics in RC6; \
                 IO/memory clock generators off"
            }
            PackageCstate::C7 => {
                "same as C6 while some IO/memory voltages are power-gated; CPU core VR is ON"
            }
            PackageCstate::C8 => {
                "same as C7 with additional IO/memory power-gating; CPU core VR is OFF"
            }
            PackageCstate::C9 => {
                "same as C8 while all IPs are off; most VR voltages reduced; \
                 display may be in panel self-refresh"
            }
            PackageCstate::C10 => {
                "same as C9 while all SoC VRs (except always-on) are off; display off"
            }
        }
    }

    /// The deepest package state legacy (pre-DarkGates) desktops support.
    pub fn legacy_desktop_deepest() -> PackageCstate {
        PackageCstate::C7
    }

    /// The deepest package state a DarkGates desktop supports (Sec. 4.3).
    pub fn darkgates_desktop_deepest() -> PackageCstate {
        PackageCstate::C8
    }
}

impl fmt::Display for PackageCstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PackageCstate::C0 => "C0",
            PackageCstate::C2 => "C2",
            PackageCstate::C3 => "C3",
            PackageCstate::C6 => "C6",
            PackageCstate::C7 => "C7",
            PackageCstate::C8 => "C8",
            PackageCstate::C9 => "C9",
            PackageCstate::C10 => "C10",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_ordering_deepens() {
        assert!(CoreCstate::Cc0 < CoreCstate::Cc1);
        assert!(CoreCstate::Cc1 < CoreCstate::Cc3);
        assert!(CoreCstate::Cc3 < CoreCstate::Cc6);
        assert!(CoreCstate::Cc6 < CoreCstate::Cc7);
    }

    #[test]
    fn core_predicates() {
        assert!(!CoreCstate::Cc1.clocks_off());
        assert!(CoreCstate::Cc3.clocks_off());
        assert!(!CoreCstate::Cc3.power_gated());
        assert!(CoreCstate::Cc6.power_gated());
        assert!(CoreCstate::Cc7.power_gated());
    }

    #[test]
    fn package_ordering_matches_depth() {
        let all = PackageCstate::ALL;
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn vr_off_starts_at_c8() {
        assert!(!PackageCstate::C7.core_vr_off());
        assert!(PackageCstate::C8.core_vr_off());
        assert!(PackageCstate::C10.core_vr_off());
    }

    #[test]
    fn table1_descriptions_nonempty_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for s in PackageCstate::ALL {
            let d = s.entry_conditions();
            assert!(!d.is_empty());
            assert!(seen.insert(d), "duplicate description for {s}");
        }
        // Spot-check the key VR semantics from Table 1.
        assert!(PackageCstate::C7.entry_conditions().contains("VR is ON"));
        assert!(PackageCstate::C8.entry_conditions().contains("VR is OFF"));
    }

    #[test]
    fn platform_deepest_constants() {
        assert_eq!(PackageCstate::legacy_desktop_deepest(), PackageCstate::C7);
        assert_eq!(
            PackageCstate::darkgates_desktop_deepest(),
            PackageCstate::C8
        );
    }

    #[test]
    fn displays() {
        assert_eq!(CoreCstate::Cc6.to_string(), "CC6");
        assert_eq!(GraphicsCstate::Rc6.to_string(), "RC6");
        assert_eq!(PackageCstate::C10.to_string(), "C10");
    }

    #[test]
    fn defaults_are_active() {
        assert_eq!(CoreCstate::default(), CoreCstate::Cc0);
        assert_eq!(GraphicsCstate::default(), GraphicsCstate::Rc0);
        assert_eq!(PackageCstate::default(), PackageCstate::C0);
        assert_eq!(DisplayState::default(), DisplayState::On);
        assert_eq!(MemoryState::default(), MemoryState::Active);
    }
}
