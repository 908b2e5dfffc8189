//! Load-line (adaptive voltage positioning) model with multi-level
//! power-virus guardbands (paper Sec. 2.3, Fig. 2).
//!
//! The voltage at the load is `Vcc_load = Vcc − R_LL · Icc`. To keep the
//! load above its minimum functional voltage even under the worst-case
//! current (a *power-virus*), the PMU programs the VR above the target by a
//! guardband `R_LL · Icc_virus`. Modern processors split the worst case into
//! several *virus levels* keyed by the system state (number of active cores,
//! instruction mix) so lighter states pay a smaller guardband.

use crate::error::PdnError;
use crate::units::{Amps, Ohms, Volts};

/// The load-line model `Vcc_load = Vcc − R_LL · Icc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadLine {
    /// System impedance `R_LL` (typically 1.6–2.4 mΩ for client parts).
    pub resistance: Ohms,
}

impl LoadLine {
    /// Creates a load-line.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] for a non-positive or
    /// non-finite resistance.
    pub fn new(resistance: Ohms) -> Result<Self, PdnError> {
        if !(resistance.value() > 0.0 && resistance.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "load-line resistance",
                value: resistance.value(),
            });
        }
        Ok(LoadLine { resistance })
    }

    /// Voltage at the load for VR output `vcc` and load current `icc`.
    pub fn load_voltage(&self, vcc: Volts, icc: Amps) -> Volts {
        vcc - self.resistance * icc
    }

    /// VR output voltage required so the load sees `v_load` at `icc`.
    // dg-analyze: allow(unreached-pub, reason = "live (VirusLevelTable::setpoint runs it); crates/pdn/tests/properties.rs names it")
    pub fn required_vcc(&self, v_load: Volts, icc: Amps) -> Volts {
        v_load + self.resistance * icc
    }

    /// The IR guardband paid at current `icc`.
    pub fn guardband(&self, icc: Amps) -> Volts {
        self.resistance * icc
    }
}

/// One power-virus level: a system state (e.g. "2 active cores") and the
/// maximum current that state can possibly draw.
#[derive(Debug, Clone, PartialEq)]
pub struct VirusLevel {
    /// Descriptive name (e.g. `"1 active core"`).
    pub name: String,
    /// Worst-case (power-virus) current for this system state.
    pub icc_virus: Amps,
}

impl VirusLevel {
    /// Creates a virus level.
    pub fn new(name: impl Into<String>, icc_virus: Amps) -> Self {
        VirusLevel {
            name: name.into(),
            icc_virus,
        }
    }
}

/// An ordered table of power-virus levels (paper Fig. 2(c)).
///
/// Levels must be strictly increasing in current. Level indices are
/// 1-based in the paper's notation (`VirusLevel_1 < VirusLevel_2 < ...`);
/// this API uses 0-based indices.
#[derive(Debug, Clone, PartialEq)]
pub struct VirusLevelTable {
    loadline: LoadLine,
    levels: Vec<VirusLevel>,
}

impl VirusLevelTable {
    /// Creates a table from strictly-increasing levels.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::UnsortedVirusLevels`] if levels are not strictly
    /// increasing in `icc_virus`, or if the table is empty.
    pub fn new(loadline: LoadLine, levels: Vec<VirusLevel>) -> Result<Self, PdnError> {
        if levels.is_empty() {
            return Err(PdnError::UnsortedVirusLevels);
        }
        for pair in levels.windows(2) {
            if let [lo, hi] = pair {
                if hi.icc_virus <= lo.icc_virus {
                    return Err(PdnError::UnsortedVirusLevels);
                }
            }
        }
        Ok(VirusLevelTable { loadline, levels })
    }

    /// The levels, lowest current first.
    pub fn levels(&self) -> &[VirusLevel] {
        &self.levels
    }

    /// IR guardband paid at level `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn guardband_at(&self, index: usize) -> Volts {
        self.loadline.guardband(self.levels[index].icc_virus)
    }

    /// The guardband *step* `ΔV` paid when moving from `from` to `to`
    /// (positive when escalating; Fig. 2(c) blue annotations).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    fn guardband_step(&self, from: usize, to: usize) -> Volts {
        self.guardband_at(to) - self.guardband_at(from)
    }

    /// VR setpoint so the load never falls below `v_min` while in level
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn setpoint(&self, index: usize, v_min: Volts) -> Volts {
        self.loadline
            .required_vcc(v_min, self.levels[index].icc_virus)
    }

    /// The guardband saved compared to a single-level (worst-case-only)
    /// design when operating at level `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn saving_vs_single_level(&self, index: usize) -> Volts {
        let worst = self.levels.len() - 1;
        self.guardband_step(index, worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> VirusLevelTable {
        let ll = LoadLine::new(Ohms::from_mohm(2.0)).unwrap();
        VirusLevelTable::new(
            ll,
            vec![
                VirusLevel::new("1 core", Amps::new(30.0)),
                VirusLevel::new("2 cores", Amps::new(55.0)),
                VirusLevel::new("4 cores", Amps::new(100.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn load_voltage_drops_with_current() {
        let ll = LoadLine::new(Ohms::from_mohm(1.6)).unwrap();
        let v = ll.load_voltage(Volts::new(1.2), Amps::new(50.0));
        assert!((v.value() - (1.2 - 0.08)).abs() < 1e-12);
        // Round trip through required_vcc.
        let vcc = ll.required_vcc(v, Amps::new(50.0));
        assert!((vcc.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn guardband_is_ir_product() {
        let ll = LoadLine::new(Ohms::from_mohm(2.4)).unwrap();
        assert!((ll.guardband(Amps::new(100.0)).as_mv() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn loadline_validation() {
        assert!(LoadLine::new(Ohms::ZERO).is_err());
        assert!(LoadLine::new(Ohms::new(-1.0)).is_err());
        assert!(LoadLine::new(Ohms::new(f64::INFINITY)).is_err());
    }

    #[test]
    fn table_rejects_unsorted_and_empty() {
        let ll = LoadLine::new(Ohms::from_mohm(2.0)).unwrap();
        assert_eq!(
            VirusLevelTable::new(ll, vec![]).unwrap_err(),
            PdnError::UnsortedVirusLevels
        );
        let unsorted = vec![
            VirusLevel::new("a", Amps::new(50.0)),
            VirusLevel::new("b", Amps::new(30.0)),
        ];
        assert!(VirusLevelTable::new(ll, unsorted).is_err());
        let duplicate = vec![
            VirusLevel::new("a", Amps::new(50.0)),
            VirusLevel::new("b", Amps::new(50.0)),
        ];
        assert!(VirusLevelTable::new(ll, duplicate).is_err());
    }

    #[test]
    fn guardbands_increase_with_level() {
        let t = table();
        let g: Vec<f64> = (0..3).map(|i| t.guardband_at(i).as_mv()).collect();
        assert!((g[0] - 60.0).abs() < 1e-9);
        assert!((g[1] - 110.0).abs() < 1e-9);
        assert!((g[2] - 200.0).abs() < 1e-9);
        assert!(g[0] < g[1] && g[1] < g[2]);
    }

    #[test]
    fn guardband_steps_and_savings() {
        let t = table();
        assert!((t.guardband_step(0, 1).as_mv() - 50.0).abs() < 1e-9);
        assert!((t.guardband_step(2, 0).as_mv() + 140.0).abs() < 1e-9);
        assert!((t.saving_vs_single_level(0).as_mv() - 140.0).abs() < 1e-9);
        assert_eq!(t.saving_vs_single_level(2), Volts::ZERO);
    }

    #[test]
    fn setpoint_guarantees_vmin_at_virus_current() {
        let t = table();
        let v_min = Volts::new(0.75);
        for i in 0..3 {
            let setpoint = t.setpoint(i, v_min);
            let worst = t.loadline.load_voltage(setpoint, t.levels()[i].icc_virus);
            assert!((worst.value() - v_min.value()).abs() < 1e-12);
        }
    }
}
