//! Processor design limits (paper Sec. 2.4).
//!
//! Collects the thermal and electrical limits that the PMU firmware must
//! enforce: TDP, the junction-temperature limit Tjmax, the reliability
//! voltage ceiling Vmax, the functional floor Vmin, and the four power
//! limits PL1–PL4.

use crate::error::PowerError;
use dg_pdn::units::{Celsius, Volts, Watts};

/// The running-average and instantaneous power limits (PL1–PL4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLimits {
    /// PL1: sustained power limit — equals TDP by definition.
    pub pl1: Watts,
    /// PL2: short-term turbo limit (typically 1.25× TDP).
    pub pl2: Watts,
    /// PL3: battery/supply protection limit.
    pub pl3: Watts,
    /// PL4: absolute peak (EDC-derived) limit.
    pub pl4: Watts,
}

impl PowerLimits {
    /// Creates a limit set.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if the limits are not
    /// positive and ordered `pl1 ≤ pl2 ≤ pl3 ≤ pl4`.
    pub fn new(pl1: Watts, pl2: Watts, pl3: Watts, pl4: Watts) -> Result<Self, PowerError> {
        let vals = [pl1, pl2, pl3, pl4];
        for (i, v) in vals.iter().enumerate() {
            if !(v.value() > 0.0 && v.is_finite()) {
                return Err(PowerError::InvalidParameter {
                    what: "power limit",
                    value: vals[i].value(),
                });
            }
        }
        if !(pl1 <= pl2 && pl2 <= pl3 && pl3 <= pl4) {
            return Err(PowerError::InvalidParameter {
                what: "power limit ordering",
                value: pl1.value(),
            });
        }
        Ok(PowerLimits { pl1, pl2, pl3, pl4 })
    }

    /// Standard client derivation from a TDP: PL2 = 1.25×, PL3 = 1.7×,
    /// PL4 = 2.2× TDP.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not strictly positive.
    fn from_tdp(tdp: Watts) -> Self {
        assert!(
            tdp.value() > 0.0 && tdp.is_finite(),
            "TDP must be positive, got {tdp}"
        );
        // A positive finite TDP yields positive, correctly-ordered limits,
        // so `new`'s validation cannot fire.
        PowerLimits {
            pl1: tdp,
            pl2: tdp * 1.25,
            pl3: tdp * 1.7,
            pl4: tdp * 2.2,
        }
    }
}

/// The full set of design limits for a processor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignLimits {
    /// Thermal design power.
    pub tdp: Watts,
    /// Maximum junction temperature.
    pub tjmax: Celsius,
    /// Maximum reliable operating voltage (Sec. 2.4.2).
    pub vmax: Volts,
    /// Minimum functional voltage.
    pub vmin: Volts,
    /// The PL1–PL4 power limits.
    pub power: PowerLimits,
}

impl DesignLimits {
    /// Creates a limit set.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `tdp` is non-positive,
    /// if `vmin >= vmax`, or if either voltage is non-positive.
    pub fn new(
        tdp: Watts,
        tjmax: Celsius,
        vmax: Volts,
        vmin: Volts,
        power: PowerLimits,
    ) -> Result<Self, PowerError> {
        if !(tdp.value() > 0.0 && tdp.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "TDP",
                value: tdp.value(),
            });
        }
        if !(vmin.value() > 0.0 && vmax.value() > vmin.value() && vmax.is_finite()) {
            return Err(PowerError::InvalidParameter {
                what: "voltage limits",
                value: vmax.value(),
            });
        }
        Ok(DesignLimits {
            tdp,
            tjmax,
            vmax,
            vmin,
            power,
        })
    }

    /// Skylake-class limits at a given TDP: Tjmax 95 °C (divided down a
    /// little for safety margin in the model: 93 °C effective), Vmax 1.35 V,
    /// Vmin 0.60 V.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not strictly positive.
    pub fn skylake(tdp: Watts) -> Self {
        // `from_tdp` asserts the TDP is positive and finite; the voltage
        // and temperature constants are fixed and valid, so `new`'s
        // validation cannot fire (a test re-validates through `new`).
        let power = PowerLimits::from_tdp(tdp);
        DesignLimits {
            tdp,
            tjmax: Celsius::new(93.0),
            vmax: Volts::new(1.35),
            vmin: Volts::new(0.60),
            power,
        }
    }

    /// Returns a copy with a different Vmax (used when the reliability
    /// guardband shifts the effective ceiling).
    ///
    /// # Panics
    ///
    /// Panics if the new `vmax` does not exceed `vmin`.
    pub fn with_vmax(&self, vmax: Volts) -> Self {
        assert!(vmax > self.vmin, "vmax {vmax} must exceed vmin");
        DesignLimits { vmax, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tdp_derivation() {
        let pl = PowerLimits::from_tdp(Watts::new(91.0));
        assert!((pl.pl1.value() - 91.0).abs() < 1e-9);
        assert!((pl.pl2.value() - 113.75).abs() < 1e-9);
        assert!(pl.pl1 <= pl.pl2 && pl.pl2 <= pl.pl3 && pl.pl3 <= pl.pl4);
    }

    #[test]
    fn ordering_enforced() {
        assert!(PowerLimits::new(
            Watts::new(100.0),
            Watts::new(90.0),
            Watts::new(110.0),
            Watts::new(120.0)
        )
        .is_err());
        assert!(PowerLimits::new(
            Watts::ZERO,
            Watts::new(90.0),
            Watts::new(110.0),
            Watts::new(120.0)
        )
        .is_err());
    }

    #[test]
    fn skylake_limits_sane() {
        let l = DesignLimits::skylake(Watts::new(65.0));
        assert!((l.tdp.value() - 65.0).abs() < 1e-12);
        assert!(l.vmax > l.vmin);
        assert!(l.tjmax.value() > 90.0);
        assert_eq!(l.power.pl1, l.tdp);
    }

    #[test]
    fn voltage_limits_validated() {
        let pl = PowerLimits::from_tdp(Watts::new(65.0));
        assert!(DesignLimits::new(
            Watts::new(65.0),
            Celsius::new(93.0),
            Volts::new(0.5),
            Volts::new(0.6),
            pl
        )
        .is_err());
    }

    #[test]
    fn with_vmax_replaces_ceiling() {
        let l = DesignLimits::skylake(Watts::new(91.0));
        let l2 = l.with_vmax(Volts::new(1.40));
        assert!((l2.vmax.value() - 1.40).abs() < 1e-12);
        assert_eq!(l2.tdp, l.tdp);
    }

    #[test]
    #[should_panic(expected = "must exceed vmin")]
    fn with_vmax_below_vmin_panics() {
        DesignLimits::skylake(Watts::new(91.0)).with_vmax(Volts::new(0.5));
    }
}
