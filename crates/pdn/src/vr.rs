//! Motherboard voltage-regulator (VR) model with current limits.
//!
//! Models the SVID-controlled VR feeding the CPU cores: a programmable
//! setpoint (VID), the load-line, and the current limits of Sec. 2.4.2 —
//! TDC (thermal design current / PL2), EDC (electrical design current /
//! Iccmax / PL4), and the power-supply limit (PL3).

use crate::error::PdnError;
use crate::loadline::LoadLine;
use crate::units::{Amps, Ohms, Volts, Watts};

/// Current limits of a VR and its upstream power supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrLimits {
    /// Thermal design current — sustainable indefinitely (PL2-related).
    pub tdc: Amps,
    /// Electrical design current — instantaneous peak (Iccmax / PL4).
    pub edc: Amps,
    /// Power-supply / battery protection limit in watts (PL3-related).
    pub supply_limit: Watts,
}

impl VrLimits {
    /// Creates a limit set.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if any limit is non-positive
    /// or if `edc < tdc` (a peak limit below the sustained limit is
    /// physically inconsistent).
    pub fn new(tdc: Amps, edc: Amps, supply_limit: Watts) -> Result<Self, PdnError> {
        if !(tdc.value() > 0.0 && tdc.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "TDC",
                value: tdc.value(),
            });
        }
        if !(edc.value() > 0.0 && edc.is_finite()) || edc < tdc {
            return Err(PdnError::InvalidComponent {
                what: "EDC",
                value: edc.value(),
            });
        }
        if !(supply_limit.value() > 0.0 && supply_limit.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "supply power limit",
                value: supply_limit.value(),
            });
        }
        Ok(VrLimits {
            tdc,
            edc,
            supply_limit,
        })
    }
}

/// How a current/power demand relates to the VR's limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitCheck {
    /// Within every limit.
    Ok,
    /// Above TDC: sustainable only for a bounded time (turbo region).
    AboveTdc,
    /// Above EDC: would trip over-current protection; must be prevented
    /// proactively.
    AboveEdc,
    /// Above the supply/battery power limit (PL3).
    AboveSupplyLimit,
}

/// A motherboard voltage regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageRegulator {
    setpoint: Volts,
    loadline: LoadLine,
    limits: VrLimits,
}

impl VoltageRegulator {
    /// Creates a VR with an initial setpoint of 0 V (output disabled).
    pub fn new(loadline: LoadLine, limits: VrLimits) -> Self {
        VoltageRegulator {
            setpoint: Volts::ZERO,
            loadline,
            limits,
        }
    }

    /// The programmed VID setpoint.
    pub fn setpoint(&self) -> Volts {
        self.setpoint
    }

    /// Programs a new VID setpoint (SVID command).
    ///
    /// # Panics
    ///
    /// Panics if the setpoint is negative or non-finite.
    pub fn set_voltage(&mut self, setpoint: Volts) {
        assert!(
            setpoint.value() >= 0.0 && setpoint.is_finite(),
            "invalid VID setpoint {setpoint}"
        );
        self.setpoint = setpoint;
    }

    /// `true` when the VR output is enabled (setpoint above zero).
    // dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn is_on(&self) -> bool {
        self.setpoint > Volts::ZERO
    }

    /// Turns the VR off (package C8 turns the core VR off; paper Table 1).
    // dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn turn_off(&mut self) {
        self.setpoint = Volts::ZERO;
    }

    /// The load-line model.
    pub fn loadline(&self) -> LoadLine {
        self.loadline
    }

    /// The configured limits.
    pub fn limits(&self) -> VrLimits {
        self.limits
    }

    /// Voltage delivered to the load at current `icc`.
    // dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn output_voltage(&self, icc: Amps) -> Volts {
        if !self.is_on() {
            return Volts::ZERO;
        }
        self.loadline.load_voltage(self.setpoint, icc)
    }

    /// Checks `icc` against the current limits; the worst violation wins.
    // dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn check_current(&self, icc: Amps) -> LimitCheck {
        if icc > self.limits.edc {
            return LimitCheck::AboveEdc;
        }
        let power = self.output_voltage(icc) * icc;
        if power > self.limits.supply_limit {
            return LimitCheck::AboveSupplyLimit;
        }
        if icc > self.limits.tdc {
            return LimitCheck::AboveTdc;
        }
        LimitCheck::Ok
    }

    /// The maximum current deliverable without tripping EDC.
    // dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn max_instantaneous_current(&self) -> Amps {
        self.limits.edc
    }

    /// Power dissipated in the load-line at current `icc` (delivery loss).
    // dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
    pub fn delivery_loss(&self, icc: Amps) -> Watts {
        (self.loadline.resistance * icc) * icc
    }
}

/// Convenience constructor for a Skylake-class desktop VR:
/// 1.6 mΩ load-line, 100 A TDC, 138 A EDC, 250 W supply.
// dg-analyze: allow(unreached-pub, reason = "only vr::tests call it; deleting it retires those tests (ROADMAP item 4)")
pub fn skylake_desktop_vr() -> VoltageRegulator {
    // Constructed literally: the constants are positive, finite, and keep
    // EDC ≥ TDC, so the checked constructors could not reject them (a test
    // re-validates them through `new`).
    let loadline = LoadLine {
        resistance: Ohms::from_mohm(1.6),
    };
    let limits = VrLimits {
        tdc: Amps::new(100.0),
        edc: Amps::new(138.0),
        supply_limit: Watts::new(250.0),
    };
    VoltageRegulator::new(loadline, limits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vr() -> VoltageRegulator {
        let mut v = skylake_desktop_vr();
        v.set_voltage(Volts::new(1.2));
        v
    }

    #[test]
    fn output_follows_loadline() {
        let v = vr();
        let out = v.output_voltage(Amps::new(50.0));
        assert!((out.value() - (1.2 - 0.0016 * 50.0)).abs() < 1e-12);
    }

    #[test]
    fn off_vr_outputs_zero() {
        let mut v = vr();
        assert!(v.is_on());
        v.turn_off();
        assert!(!v.is_on());
        assert_eq!(v.output_voltage(Amps::new(10.0)), Volts::ZERO);
    }

    #[test]
    fn limit_checks_ordered_by_severity() {
        let v = vr();
        assert_eq!(v.check_current(Amps::new(50.0)), LimitCheck::Ok);
        assert_eq!(v.check_current(Amps::new(120.0)), LimitCheck::AboveTdc);
        assert_eq!(v.check_current(Amps::new(140.0)), LimitCheck::AboveEdc);
    }

    #[test]
    fn supply_limit_detected() {
        let loadline = LoadLine::new(Ohms::from_mohm(1.6)).unwrap();
        let limits = VrLimits::new(Amps::new(100.0), Amps::new(200.0), Watts::new(60.0)).unwrap();
        let mut v = VoltageRegulator::new(loadline, limits);
        v.set_voltage(Volts::new(1.2));
        // 80 A × ~1.07 V ≈ 86 W > 60 W supply limit, but below EDC.
        assert_eq!(
            v.check_current(Amps::new(80.0)),
            LimitCheck::AboveSupplyLimit
        );
    }

    #[test]
    fn limits_validation() {
        assert!(VrLimits::new(Amps::ZERO, Amps::new(10.0), Watts::new(1.0)).is_err());
        assert!(VrLimits::new(Amps::new(10.0), Amps::new(5.0), Watts::new(1.0)).is_err());
        assert!(VrLimits::new(Amps::new(10.0), Amps::new(20.0), Watts::ZERO).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid VID setpoint")]
    fn negative_setpoint_panics() {
        let mut v = vr();
        v.set_voltage(Volts::new(-0.1));
    }

    #[test]
    fn skylake_vr_constants_pass_validation() {
        // Backs the literal construction in `skylake_desktop_vr`.
        let v = skylake_desktop_vr();
        assert!(LoadLine::new(v.loadline().resistance).is_ok());
        let l = v.limits();
        assert!(VrLimits::new(l.tdc, l.edc, l.supply_limit).is_ok());
    }

    #[test]
    fn delivery_loss_is_quadratic() {
        let v = vr();
        let p1 = v.delivery_loss(Amps::new(10.0)).value();
        let p2 = v.delivery_loss(Amps::new(20.0)).value();
        assert!((p2 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn max_instantaneous_current_is_edc() {
        let v = vr();
        assert_eq!(v.max_instantaneous_current(), v.limits().edc);
    }
}
