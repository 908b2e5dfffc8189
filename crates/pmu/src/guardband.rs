//! Adaptive voltage guardband management.
//!
//! The droop guardband protects against fast transient voltage droops: its
//! magnitude is the PDN's peak impedance times the worst-case current step
//! (paper Sec. 2.4.2, "Voltage Droop Effect on Maximum Frequency"). Since
//! bypassing the power-gates roughly halves the peak impedance (Fig. 4), it
//! roughly halves this guardband — the entire source of DarkGates'
//! frequency gain. In exchange, bypassed parts pay the small
//! lifetime-reliability adder of [`crate::reliability`].

use crate::reliability::ReliabilityModel;
use dg_pdn::impedance::ImpedanceProfile;
use dg_pdn::skylake::PdnVariant;
use dg_pdn::units::{Amps, Ohms, Volts, Watts};
use std::sync::OnceLock;

/// Worst-case transient current step for the droop guardband: a
/// domain-wide di/dt event (simultaneous pipeline restart across the
/// domain). Calibrated to ≈35 % of the VR's EDC.
// dg-analyze: allow(unreached-pub, reason = "live (the guardband manager's design current step); tests/full_system.rs names it")
pub const DROOP_STEP_CURRENT_A: f64 = 48.0;

/// The guardband manager for one PDN variant.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardbandManager {
    variant: PdnVariant,
    peak_impedance: Ohms,
    step: Amps,
    reliability: ReliabilityModel,
}

impl GuardbandManager {
    /// Builds the manager from an impedance profile (e.g. measured by the
    /// PDN simulator).
    fn from_profile(variant: PdnVariant, profile: &ImpedanceProfile) -> Self {
        GuardbandManager {
            variant,
            peak_impedance: profile.peak().1,
            step: Amps::new(DROOP_STEP_CURRENT_A),
            reliability: ReliabilityModel::new(),
        }
    }

    /// Builds the manager for the calibrated Skylake PDN of `variant`.
    ///
    /// The full impedance sweep behind this used to run on every call —
    /// once per product build, hundreds of times per figure grid. The
    /// calibrated Skylake substrates are fixed, so the manager is now built
    /// once per variant and cloned out of a `OnceLock` (backed in turn by
    /// the content-keyed profile cache in `dg_pdn::cache`).
    pub fn for_variant(variant: PdnVariant) -> Self {
        static GATED: OnceLock<GuardbandManager> = OnceLock::new();
        static BYPASSED: OnceLock<GuardbandManager> = OnceLock::new();
        let slot = match variant {
            PdnVariant::Gated => &GATED,
            PdnVariant::Bypassed => &BYPASSED,
        };
        slot.get_or_init(|| Self::from_profile(variant, &dg_pdn::cache::skylake_profile(variant)))
            .clone()
    }

    /// The peak impedance the droop guardband is derived from.
    pub fn peak_impedance(&self) -> Ohms {
        self.peak_impedance
    }

    /// The droop guardband: `Z_peak × ΔI_step`.
    pub fn droop_guardband(&self) -> Volts {
        self.peak_impedance * self.step
    }

    /// The lifetime-reliability adder at `tdp` (zero for gated parts).
    pub fn reliability_guardband(&self, tdp: Watts) -> Volts {
        match self.variant {
            PdnVariant::Gated => Volts::ZERO,
            PdnVariant::Bypassed => self.reliability.guardband(tdp),
        }
    }

    /// The total guardband the DVFS algorithms must apply on top of the
    /// bare V/F curve at `tdp`.
    pub fn total_guardband(&self, tdp: Watts) -> Volts {
        self.droop_guardband() + self.reliability_guardband(tdp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypassed_droop_guardband_roughly_half() {
        let g = GuardbandManager::for_variant(PdnVariant::Gated);
        let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
        let ratio = g.droop_guardband() / b.droop_guardband();
        assert!(
            (1.4..2.2).contains(&ratio),
            "droop guardband ratio {ratio} (gated {}, bypassed {})",
            g.droop_guardband(),
            b.droop_guardband()
        );
    }

    #[test]
    fn guardbands_in_plausible_millivolt_band() {
        let g = GuardbandManager::for_variant(PdnVariant::Gated);
        let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
        // Client-class droop guardbands are on the order of 100–300 mV.
        assert!(
            (150.0..320.0).contains(&g.droop_guardband().as_mv()),
            "gated {}",
            g.droop_guardband()
        );
        assert!(
            (80.0..200.0).contains(&b.droop_guardband().as_mv()),
            "bypassed {}",
            b.droop_guardband()
        );
    }

    #[test]
    fn reliability_adder_only_for_bypassed() {
        let g = GuardbandManager::for_variant(PdnVariant::Gated);
        let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
        assert_eq!(g.reliability_guardband(Watts::new(91.0)), Volts::ZERO);
        assert!(b.reliability_guardband(Watts::new(91.0)) > Volts::ZERO);
    }

    #[test]
    fn net_saving_positive_at_every_tdp() {
        let g = GuardbandManager::for_variant(PdnVariant::Gated);
        let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
        for tdp in [35.0, 45.0, 65.0, 91.0] {
            let tdp = Watts::new(tdp);
            let saving = g.total_guardband(tdp) - b.total_guardband(tdp);
            assert!(
                saving.as_mv() > 50.0,
                "net saving {saving} at {tdp} too small"
            );
        }
    }

    #[test]
    fn total_is_droop_plus_reliability() {
        let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
        let tdp = Watts::new(65.0);
        let total = b.total_guardband(tdp);
        let parts = b.droop_guardband() + b.reliability_guardband(tdp);
        assert!((total - parts).abs().value() < 1e-12);
    }

    #[test]
    fn peak_impedance_recorded() {
        let b = GuardbandManager::for_variant(PdnVariant::Bypassed);
        assert!(b.peak_impedance().value() > 0.0);
        assert_eq!(b.variant, PdnVariant::Bypassed);
    }
}
