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
    /// Starts from `count` cores all in `state`, graphics active, display
    /// on, memory active, LLC unflushed, mobile-class ceiling (C10).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    // dg-analyze: allow(unreached-pub, reason = "only resolve::tests call it; deleting it retires zero_cores_panics (ROADMAP item 4)")
    pub fn all_cores(state: CoreCstate, count: usize) -> Self {
        assert!(count > 0, "a platform needs at least one core");
        PlatformInputs {
            cores: vec![state; count],
            graphics: GraphicsCstate::Rc0,
            display: DisplayState::On,
            memory: MemoryState::Active,
            llc_flushed: false,
            deepest_allowed: PackageCstate::mobile_deepest(),
        }
    }

    /// Sets the graphics state (builder style).
    pub fn graphics(mut self, g: GraphicsCstate) -> Self {
        self.graphics = g;
        self
    }

    /// Sets the display state.
    pub fn display(mut self, d: DisplayState) -> Self {
        self.display = d;
        self
    }

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

    #[test]
    fn executing_core_pins_c0() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc6, 4).graphics(GraphicsCstate::Rc6);
        i.cores[2] = CoreCstate::Cc0;
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C0);
    }

    #[test]
    fn halted_core_still_c0() {
        // CC1 keeps clocks on: package stays in C0 per Table 1.
        let i = PlatformInputs::all_cores(CoreCstate::Cc1, 4).graphics(GraphicsCstate::Rc6);
        assert_eq!(resolve(&i), PackageCstate::C0);
    }

    #[test]
    fn active_graphics_pins_c0() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc6, 4).graphics(GraphicsCstate::Rc0);
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C0);
    }

    #[test]
    fn clocks_off_with_active_dram_is_c2() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc3, 4).graphics(GraphicsCstate::Rc6);
        i.memory = MemoryState::Active;
        assert_eq!(resolve(&i), PackageCstate::C2);
    }

    #[test]
    fn clocks_off_with_self_refresh_is_c3() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc3, 4).graphics(GraphicsCstate::Rc6);
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C3);
    }

    #[test]
    fn mixed_cc3_cc6_limited_by_shallowest() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc6, 4).graphics(GraphicsCstate::Rc6);
        i.cores[0] = CoreCstate::Cc3;
        i.memory = MemoryState::SelfRefresh;
        assert_eq!(resolve(&i), PackageCstate::C3);
    }

    #[test]
    fn gated_cores_unflushed_llc_is_c6() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc6, 4).graphics(GraphicsCstate::Rc6);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = false;
        assert_eq!(resolve(&i), PackageCstate::C6);
    }

    #[test]
    fn gated_cores_active_dram_pins_c2() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc6, 4).graphics(GraphicsCstate::Rc6);
        i.memory = MemoryState::Active;
        assert_eq!(resolve(&i), PackageCstate::C2);
    }

    #[test]
    fn flushed_llc_display_on_reaches_c8() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc7, 4).graphics(GraphicsCstate::Rc6);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = true;
        assert_eq!(resolve(&i), PackageCstate::C8);
    }

    #[test]
    fn display_psr_reaches_c9_and_off_reaches_c10() {
        let mut base = PlatformInputs::all_cores(CoreCstate::Cc7, 4).graphics(GraphicsCstate::Rc6);
        base.memory = MemoryState::SelfRefresh;
        base.llc_flushed = true;
        assert_eq!(
            resolve(&base.clone().display(DisplayState::SelfRefresh)),
            PackageCstate::C9
        );
        assert_eq!(
            resolve(&base.display(DisplayState::Off)),
            PackageCstate::C10
        );
    }

    #[test]
    fn legacy_desktop_clamps_at_c7() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc7, 4)
            .graphics(GraphicsCstate::Rc6)
            .display(DisplayState::Off);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = true;
        i.deepest_allowed = PackageCstate::legacy_desktop_deepest();
        assert_eq!(resolve(&i), PackageCstate::C7);
    }

    #[test]
    fn darkgates_desktop_clamps_at_c8() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc7, 4)
            .graphics(GraphicsCstate::Rc6)
            .display(DisplayState::Off);
        i.memory = MemoryState::SelfRefresh;
        i.llc_flushed = true;
        i.deepest_allowed = PackageCstate::darkgates_desktop_deepest();
        assert_eq!(resolve(&i), PackageCstate::C8);
    }

    #[test]
    fn shallowest_core_is_binding() {
        let mut i = PlatformInputs::all_cores(CoreCstate::Cc7, 4);
        i.cores[3] = CoreCstate::Cc0;
        assert_eq!(i.shallowest_core(), CoreCstate::Cc0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        PlatformInputs::all_cores(CoreCstate::Cc0, 0);
    }
}
