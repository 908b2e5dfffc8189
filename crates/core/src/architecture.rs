//! The [`DarkGates`] architecture type: one object per fused configuration.

use dg_cstates::power::GatingConfig;
use dg_cstates::states::PackageCstate;
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pmu::guardband::GuardbandManager;
use dg_pmu::modes::{Fuse, OperatingMode};
use dg_pmu::reliability::ReliabilityModel;
use dg_power::units::Watts;
use dg_soc::products::Product;

/// A DarkGates-capable processor configuration, fixed by its package fuse.
///
/// The same die serves both configurations (paper Sec. 2.2): construct with
/// [`DarkGates::desktop`] for the bypassed Skylake-S-like package or
/// [`DarkGates::mobile`] for the gated Skylake-H-like package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DarkGates {
    fuse: Fuse,
}

impl DarkGates {
    /// The desktop (bypass-fused) configuration.
    pub fn desktop() -> Self {
        DarkGates {
            fuse: Fuse::desktop(),
        }
    }

    /// The mobile (gated) baseline configuration.
    pub fn mobile() -> Self {
        DarkGates {
            fuse: Fuse::mobile(),
        }
    }

    /// The fuse this configuration was built from.
    pub fn fuse(&self) -> Fuse {
        self.fuse
    }

    /// The firmware operating mode decoded from the fuse.
    pub fn mode(&self) -> OperatingMode {
        self.fuse.mode()
    }

    /// **Component 1 — power-gate bypassing.** Builds the package-level
    /// PDN for this configuration: the desktop package shorts the four
    /// gated core domains and the un-gated domain into one (Figs. 5, 6).
    pub fn build_pdn(&self) -> SkylakePdn {
        SkylakePdn::build(self.pdn_variant())
    }

    /// The PDN topology variant of this configuration.
    pub fn pdn_variant(&self) -> PdnVariant {
        self.mode().pdn_variant()
    }

    /// **Component 2 — extended firmware.** The guardband manager the
    /// Pcode uses for this configuration (droop from the PDN impedance,
    /// plus the reliability adder on bypassed parts).
    pub fn guardband_manager(&self) -> GuardbandManager {
        GuardbandManager::for_variant(self.pdn_variant())
    }

    /// The reliability model that sizes the bypassed parts' extra
    /// guardband.
    pub fn reliability_model(&self) -> ReliabilityModel {
        ReliabilityModel::new()
    }

    /// **Component 3 — deeper desktop package C-states.** The deepest
    /// package state this configuration's platform supports: C8 for the
    /// DarkGates desktop (core VR off recovers the un-gated leakage), C7
    /// for the legacy baseline.
    pub fn deepest_package_cstate(&self) -> PackageCstate {
        match self.mode() {
            OperatingMode::Bypass => PackageCstate::darkgates_desktop_deepest(),
            OperatingMode::Normal => PackageCstate::legacy_desktop_deepest(),
        }
    }

    /// The C-state gating configuration of this package (4 cores).
    pub fn gating_config(&self) -> GatingConfig {
        GatingConfig::skylake(self.mode() == OperatingMode::Bypass, 4)
    }

    /// Builds the full product at `tdp` (Table 2 catalog).
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not a catalog level (35/45/65/91 W).
    pub fn product(&self, tdp: Watts) -> Product {
        Product::skylake(tdp, self.mode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_and_mobile_decode_correctly() {
        assert_eq!(DarkGates::desktop().mode(), OperatingMode::Bypass);
        assert_eq!(DarkGates::mobile().mode(), OperatingMode::Normal);
        assert_eq!(DarkGates::desktop().fuse(), Fuse::desktop());
    }

    #[test]
    fn three_components_wire_together() {
        let dg = DarkGates::desktop();
        // Component 1: bypassed PDN with no power-gate stage.
        let pdn = dg.build_pdn();
        assert!(pdn.ladder.stage("power-gate").is_none());
        // Component 2: firmware guardband smaller than the baseline's.
        let base = DarkGates::mobile();
        let tdp = Watts::new(91.0);
        assert!(
            dg.guardband_manager().total_guardband(tdp)
                < base.guardband_manager().total_guardband(tdp)
        );
        // Component 3: C8 on the desktop, C7 on the legacy baseline.
        assert_eq!(dg.deepest_package_cstate(), PackageCstate::C8);
        assert_eq!(base.deepest_package_cstate(), PackageCstate::C7);
    }

    #[test]
    fn baseline_pdn_has_gate() {
        let pdn = DarkGates::mobile().build_pdn();
        assert!(pdn.ladder.stage("power-gate").is_some());
    }

    #[test]
    fn guardband_saving_positive_at_all_tdps() {
        for tdp in [35.0, 45.0, 65.0, 91.0] {
            // The desktop configuration's net saving over the mobile baseline.
            let tdp = Watts::new(tdp);
            let saving = GuardbandManager::for_variant(PdnVariant::Gated).total_guardband(tdp)
                - GuardbandManager::for_variant(PdnVariant::Bypassed).total_guardband(tdp);
            assert!(saving.as_mv() > 50.0, "{tdp} W: {saving}");
        }
    }

    #[test]
    fn products_differ_only_in_mode_artifacts() {
        let s = DarkGates::desktop().product(Watts::new(65.0));
        let h = DarkGates::mobile().product(Watts::new(65.0));
        assert_eq!(s.core_count, h.core_count);
        assert_eq!(s.tdp, h.tdp);
        assert!(s.fmax_1c() > h.fmax_1c());
        assert!(s.gating_config().bypassed);
        assert!(!h.gating_config().bypassed);
    }
}
