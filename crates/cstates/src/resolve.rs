//! Package C-state resolution (the PMU logic behind Table 1).
//!
//! Given the component states of every core, the graphics engine, the
//! display, the memory, and the platform's capability ceiling, compute the
//! deepest package C-state the system may enter.

use crate::states::{CoreCstate, DisplayState, GraphicsCstate, MemoryState, PackageCstate};

/// The inputs the PMU examines when choosing a package C-state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformInputs {
    /// Per-core component C-states.
    pub cores: Vec<CoreCstate>,
    /// Graphics-engine state.
    pub graphics: GraphicsCstate,
    /// Display pipeline state.
    pub display: DisplayState,
    /// DRAM state the platform can tolerate right now.
    pub memory: MemoryState,
    /// `true` once the LLC has been flushed (needed for C7+).
    pub llc_flushed: bool,
    /// The deepest package state this platform supports (board wiring,
    /// validation; Sec. 4.3).
    pub deepest_allowed: PackageCstate,
}

impl PlatformInputs {
    /// The shallowest core state (the binding constraint). An empty core
    /// list resolves to `Cc0` (the conservative answer: package stays
    /// active).
    fn shallowest_core(&self) -> CoreCstate {
        self.cores.iter().copied().min().unwrap_or(CoreCstate::Cc0)
    }
}

/// Resolves the deepest package C-state permitted by `inputs`
/// (paper Table 1 semantics).
pub fn resolve(inputs: &PlatformInputs) -> PackageCstate {
    let shallowest = inputs.shallowest_core();

    // C0: anything executing keeps the package active.
    if !shallowest.clocks_off() || inputs.graphics.is_active() {
        return PackageCstate::C0;
    }

    // All cores ≥ CC3 and graphics RC6 from here on.
    let candidate = if !shallowest.power_gated() {
        // Some core is in CC3 (clocks off, not gated): C2 or C3.
        match inputs.memory {
            MemoryState::Active => PackageCstate::C2,
            MemoryState::SelfRefresh => PackageCstate::C3,
        }
    } else {
        // All cores power-gated (CC6+): C6 and deeper become possible.
        if inputs.memory == MemoryState::Active {
            // DRAM still serving traffic pins the package at C2.
            PackageCstate::C2
        } else if !inputs.llc_flushed {
            PackageCstate::C6
        } else {
            // C7 and deeper, gated by the display pipeline.
            match inputs.display {
                DisplayState::On => PackageCstate::C8,
                DisplayState::SelfRefresh => PackageCstate::C9,
                DisplayState::Off => PackageCstate::C10,
            }
        }
    };

    candidate.min(inputs.deepest_allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four cores in `core`, memory active, LLC unflushed and the
    /// mobile-class ceiling (C10).
    fn inputs(core: CoreCstate, graphics: GraphicsCstate, display: DisplayState) -> PlatformInputs {
        PlatformInputs {
            cores: vec![core; 4],
            graphics,
            display,
            memory: MemoryState::Active,
            llc_flushed: false,
            deepest_allowed: PackageCstate::C10,
        }
    }

    #[test]
    fn executing_core_pins_c0() {
        let mut i = inputs(CoreCstate::Cc6, GraphicsCstate::Rc6, DisplayState::On);
        i.cores[2] = CoreCstate::Cc0;
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C0);
    }

    #[test]
    fn halted_core_still_c0() {
        // CC1 keeps clocks on: package stays in C0 per Table 1.
        let i = inputs(CoreCstate::Cc1, GraphicsCstate::Rc6, DisplayState::On);
        assert_eq!(resolve(&i), PackageCstate::C0);
    }

    #[test]
    fn active_graphics_pins_c0() {
        let mut i = inputs(CoreCstate::Cc6, GraphicsCstate::Rc0, DisplayState::On);
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C0);
    }

    #[test]
    fn clocks_off_with_active_dram_is_c2() {
        let mut i = inputs(CoreCstate::Cc3, GraphicsCstate::Rc6, DisplayState::On);
        i.memory = MemoryState::Active;
        assert_eq!(resolve(&i), PackageCstate::C2);
    }

    #[test]
    fn clocks_off_with_self_refresh_is_c3() {
        let mut i = inputs(CoreCstate::Cc3, GraphicsCstate::Rc6, DisplayState::On);
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C3);
    }

    #[test]
    fn mixed_cc3_cc6_limited_by_shallowest() {
        let mut i = inputs(CoreCstate::Cc6, GraphicsCstate::Rc6, DisplayState::On);
        i.cores[0] = CoreCstate::Cc3;
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C3);
    }

    #[test]
    fn gated_cores_unflushed_llc_is_c6() {
        let mut i = inputs(CoreCstate::Cc6, GraphicsCstate::Rc6, DisplayState::On);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = false;
        assert_eq!(resolve(&i), PackageCstate::C6);
    }

    #[test]
    fn gated_cores_active_dram_pins_c2() {
        let mut i = inputs(CoreCstate::Cc6, GraphicsCstate::Rc6, DisplayState::On);
        i.memory = MemoryState::Active;
        assert_eq!(resolve(&i), PackageCstate::C2);
    }

    #[test]
    fn flushed_llc_display_on_reaches_c8() {
        let mut i = inputs(CoreCstate::Cc7, GraphicsCstate::Rc6, DisplayState::On);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = true;
        assert_eq!(resolve(&i), PackageCstate::C8);
    }

    #[test]
    fn display_psr_reaches_c9_and_off_reaches_c10() {
        let mut base = inputs(CoreCstate::Cc7, GraphicsCstate::Rc6, DisplayState::On);
        base.memory = MemoryState::SelfRefresh;
        base.llc_flushed = true;
        base.display = DisplayState::SelfRefresh;
        assert_eq!(resolve(&base), PackageCstate::C9);
        base.display = DisplayState::Off;
        assert_eq!(resolve(&base), PackageCstate::C10);
    }

    #[test]
    fn legacy_desktop_clamps_at_c7() {
        let mut i = inputs(CoreCstate::Cc7, GraphicsCstate::Rc6, DisplayState::Off);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = true;
        i.deepest_allowed = PackageCstate::legacy_desktop_deepest();
        assert_eq!(resolve(&i), PackageCstate::C7);
    }

    #[test]
    fn darkgates_desktop_clamps_at_c8() {
        let mut i = inputs(CoreCstate::Cc7, GraphicsCstate::Rc6, DisplayState::Off);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = true;
        i.deepest_allowed = PackageCstate::darkgates_desktop_deepest();
        assert_eq!(resolve(&i), PackageCstate::C8);
    }

    #[test]
    fn shallowest_core_is_binding() {
        let mut i = inputs(CoreCstate::Cc7, GraphicsCstate::Rc0, DisplayState::On);
        i.cores[3] = CoreCstate::Cc0;
        assert_eq!(i.shallowest_core(), CoreCstate::Cc0);
    }
}
