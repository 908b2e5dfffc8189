//! Dynamic (switching) power model: `P_dyn = C_dyn · V² · f`.
//!
//! `C_dyn` — the *dynamic capacitance* — captures both the switched
//! capacitance and the activity factor of the running code. The paper's
//! guardband machinery is keyed to the maximum `C_dyn` a system state can
//! draw (the power-virus level, Sec. 2.3); typical applications draw much
//! less.

use crate::error::PowerError;
use dg_pdn::units::{Farads, Hertz, Volts, Watts};

/// A dynamic-capacitance operating profile for one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdynProfile {
    /// Effective switched capacitance in farads.
    cdyn: f64,
}

impl CdynProfile {
    /// Creates a profile from a typed capacitance.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a non-positive or
    /// non-finite capacitance.
    pub fn new(cdyn: Farads) -> Result<Self, PowerError> {
        if !(cdyn.value() > 0.0 && cdyn.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "dynamic capacitance",
                value: cdyn.value(),
            });
        }
        Ok(CdynProfile { cdyn: cdyn.value() })
    }

    /// Creates a profile from a capacitance in nanofarads.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for a non-positive or
    /// non-finite capacitance.
    // dg-analyze: allow(unit-hygiene, reason = "conversion constructor: the _nf suffix names the unit, mirroring the dg_pdn::units from_* ctors")
    pub fn from_nf(cdyn_nf: f64) -> Result<Self, PowerError> {
        Self::new(Farads::from_nf(cdyn_nf))
    }

    /// Literal constructor for compile-time constants known to be positive
    /// and finite.
    const fn from_nf_unchecked(cdyn_nf: f64) -> Self {
        CdynProfile {
            cdyn: cdyn_nf * 1e-9,
        }
    }

    /// A CPU core running a typical compute-heavy application.
    pub fn core_typical() -> Self {
        CdynProfile::from_nf_unchecked(1.45)
    }

    /// A CPU core running a memory-bound application (mostly stalled).
    pub fn core_memory_bound() -> Self {
        CdynProfile::from_nf_unchecked(0.95)
    }

    /// A graphics engine at full tilt.
    pub fn graphics_full() -> Self {
        CdynProfile::from_nf_unchecked(20.0)
    }

    /// Dynamic power at voltage `v` and frequency `f`.
    pub fn power(&self, v: Volts, f: Hertz) -> Watts {
        Watts::new(self.cdyn * v.value() * v.value() * f.value())
    }

    /// Returns a profile scaled by `factor` (e.g. utilization below 100 %).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(&self, factor: f64) -> CdynProfile {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "invalid scale factor {factor}"
        );
        CdynProfile {
            cdyn: self.cdyn * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A power-virus core's `C_dyn` in nF (the maximum a core can draw).
    const VIRUS_NF: f64 = 2.2;

    fn nf(p: CdynProfile) -> f64 {
        p.cdyn * 1e9
    }

    #[test]
    fn power_is_cv2f() {
        let p = CdynProfile::from_nf(2.0).unwrap();
        let w = p.power(Volts::new(1.0), Hertz::from_ghz(4.0));
        assert!((w.value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn power_quadratic_in_voltage() {
        let p = CdynProfile::from_nf(VIRUS_NF).unwrap();
        let f = Hertz::from_ghz(3.0);
        let p1 = p.power(Volts::new(0.9), f).value();
        let p2 = p.power(Volts::new(1.8), f).value();
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn virus_exceeds_typical_exceeds_memory_bound() {
        let v = Volts::new(1.1);
        let f = Hertz::from_ghz(4.0);
        let virus = CdynProfile::from_nf(VIRUS_NF).unwrap().power(v, f);
        let typical = CdynProfile::core_typical().power(v, f);
        let membound = CdynProfile::core_memory_bound().power(v, f);
        assert!(virus > typical);
        assert!(typical > membound);
    }

    #[test]
    fn core_power_in_plausible_band() {
        // A typical core at 4.2 GHz / 1.2 V: ~7–12 W.
        let p = CdynProfile::core_typical().power(Volts::new(1.2), Hertz::from_ghz(4.2));
        assert!(
            (6.0..14.0).contains(&p.value()),
            "core power {p} implausible"
        );
    }

    #[test]
    fn validation() {
        assert!(CdynProfile::from_nf(0.0).is_err());
        assert!(CdynProfile::from_nf(-1.0).is_err());
        assert!(CdynProfile::from_nf(f64::NAN).is_err());
        assert!(CdynProfile::new(Farads::ZERO).is_err());
    }

    #[test]
    fn typed_and_suffixed_ctors_agree() {
        let a = CdynProfile::new(Farads::from_nf(2.0)).unwrap();
        let b = CdynProfile::from_nf(2.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn constant_profiles_pass_validation() {
        // Backs the unchecked literal construction of the presets.
        for p in [
            CdynProfile::core_typical(),
            CdynProfile::core_memory_bound(),
            CdynProfile::graphics_full(),
        ] {
            assert!(CdynProfile::from_nf(nf(p)).is_ok());
        }
    }

    #[test]
    fn scaled_profile() {
        let p = CdynProfile::from_nf(2.0).unwrap().scaled(0.5);
        assert!((nf(p) - 1.0).abs() < 1e-12);
    }
}
