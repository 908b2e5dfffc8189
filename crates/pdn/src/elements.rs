//! Lumped circuit elements: series branches and decoupling-capacitor banks.
//!
//! A PDN stage consists of a *series branch* (the routing resistance and
//! inductance of a board/package/die segment, or a power-gate's on-state
//! resistance) and an optional *shunt capacitor bank* (bulk electrolytics on
//! the board, MLCC decaps on the package, or MIM capacitance on the die).
//! Real capacitors are modeled with their equivalent series resistance (ESR)
//! and inductance (ESL), which set the depth and width of the anti-resonance
//! notches in the impedance profile.

use crate::complex::Complex;
use crate::error::PdnError;
use crate::units::{Farads, Henries, Hertz, Ohms};

/// A series R–L branch (routing segment or power-gate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesBranch {
    /// Series resistance.
    pub resistance: Ohms,
    /// Series inductance.
    pub inductance: Henries,
}

impl SeriesBranch {
    /// Creates a series branch.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if either value is negative or
    /// non-finite. Zero is allowed (an ideal short segment).
    pub fn new(resistance: Ohms, inductance: Henries) -> Result<Self, PdnError> {
        if !(resistance.value() >= 0.0 && resistance.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "series resistance",
                value: resistance.value(),
            });
        }
        if !(inductance.value() >= 0.0 && inductance.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "series inductance",
                value: inductance.value(),
            });
        }
        Ok(SeriesBranch {
            resistance,
            inductance,
        })
    }

    /// An ideal short (zero resistance, zero inductance).
    pub fn short() -> Self {
        SeriesBranch {
            resistance: Ohms::ZERO,
            inductance: Henries::ZERO,
        }
    }

    /// Phasor impedance `R + jωL` at frequency `f`.
    pub fn impedance(&self, f: Hertz) -> Complex {
        Complex::new(
            self.resistance.value(),
            f.angular() * self.inductance.value(),
        )
    }

    /// Combines `n` identical copies of this branch in parallel.
    ///
    /// Used when several identical routing paths (e.g. the four per-core
    /// package routes shorted together by DarkGates) share the current.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn paralleled(&self, n: usize) -> SeriesBranch {
        assert!(n > 0, "cannot parallel zero branches");
        let n = n as f64;
        SeriesBranch {
            resistance: self.resistance / n,
            inductance: self.inductance / n,
        }
    }
}

/// A bank of identical decoupling capacitors, each with ESR and ESL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapBank {
    /// Capacitance of a single capacitor.
    pub capacitance: Farads,
    /// Equivalent series resistance of a single capacitor.
    pub esr: Ohms,
    /// Equivalent series inductance of a single capacitor.
    pub esl: Henries,
    /// Number of capacitors in parallel.
    pub count: usize,
}

impl CapBank {
    /// Creates a capacitor bank.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if the capacitance is not
    /// strictly positive, if ESR/ESL are negative, or if `count` is zero.
    pub fn new(
        capacitance: Farads,
        esr: Ohms,
        esl: Henries,
        count: usize,
    ) -> Result<Self, PdnError> {
        if !(capacitance.value() > 0.0 && capacitance.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "capacitance",
                value: capacitance.value(),
            });
        }
        if !(esr.value() >= 0.0 && esr.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "capacitor ESR",
                value: esr.value(),
            });
        }
        if !(esl.value() >= 0.0 && esl.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "capacitor ESL",
                value: esl.value(),
            });
        }
        if count == 0 {
            return Err(PdnError::InvalidComponent {
                what: "capacitor count",
                value: 0.0,
            });
        }
        Ok(CapBank {
            capacitance,
            esr,
            esl,
            count,
        })
    }

    /// Total capacitance of the bank (`count × C`).
    pub fn total_capacitance(&self) -> Farads {
        self.capacitance * self.count as f64
    }

    /// Effective ESR of the bank (`ESR / count`).
    fn effective_esr(&self) -> Ohms {
        self.esr / self.count as f64
    }

    /// Effective ESL of the bank (`ESL / count`).
    fn effective_esl(&self) -> Henries {
        self.esl / self.count as f64
    }

    /// Phasor impedance of the whole bank at frequency `f`:
    /// `(ESR + jωESL + 1/(jωC)) / count`.
    pub fn impedance(&self, f: Hertz) -> Complex {
        let w = f.angular();
        let single = Complex::new(
            self.esr.value(),
            w * self.esl.value() - 1.0 / (w * self.capacitance.value()),
        );
        single / self.count as f64
    }

    /// Returns a bank scaled to `factor ×` the capacitor count (rounded,
    /// minimum one). Used to split a shared decap budget among voltage
    /// domains.
    pub fn scaled(&self, factor: f64) -> CapBank {
        let count = ((self.count as f64 * factor).round() as usize).max(1);
        CapBank { count, ..*self }
    }

    /// Merges two banks on the same node into an equivalent single bank
    /// description (exact only when both banks have identical per-unit
    /// parameters; otherwise the result preserves total C and parallel
    /// ESR/ESL at DC, which is what the ladder analysis needs).
    pub fn merged(&self, other: &CapBank) -> CapBank {
        let total_c = self.total_capacitance() + other.total_capacitance();
        // Parallel ESR/ESL of the two banks.
        let esr_a = self.effective_esr().value();
        let esr_b = other.effective_esr().value();
        let esr = if esr_a + esr_b > 0.0 {
            (esr_a * esr_b) / (esr_a + esr_b)
        } else {
            0.0
        };
        let esl_a = self.effective_esl().value();
        let esl_b = other.effective_esl().value();
        let esl = if esl_a + esl_b > 0.0 {
            (esl_a * esl_b) / (esl_a + esl_b)
        } else {
            0.0
        };
        CapBank {
            capacitance: total_c,
            esr: Ohms::new(esr),
            esl: Henries::new(esl),
            count: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_branch_impedance_at_dc_is_resistance() {
        let b = SeriesBranch::new(Ohms::from_mohm(2.0), Henries::from_ph(100.0)).unwrap();
        let z = b.impedance(Hertz::new(1e-3));
        assert!((z.re - 0.002).abs() < 1e-12);
        assert!(z.im.abs() < 1e-9);
    }

    #[test]
    fn series_branch_inductive_at_high_frequency() {
        let b = SeriesBranch::new(Ohms::from_mohm(1.0), Henries::from_nh(1.0)).unwrap();
        let z = b.impedance(Hertz::from_mhz(100.0));
        // ωL = 2π·1e8·1e-9 ≈ 0.628 Ω ≫ 1 mΩ.
        assert!(z.im > 0.5);
    }

    #[test]
    fn series_branch_rejects_negative_values() {
        assert!(SeriesBranch::new(Ohms::new(-1.0), Henries::ZERO).is_err());
        assert!(SeriesBranch::new(Ohms::ZERO, Henries::new(-1.0)).is_err());
        assert!(SeriesBranch::new(Ohms::new(f64::NAN), Henries::ZERO).is_err());
    }

    #[test]
    fn series_combination_adds() {
        let a = SeriesBranch::new(Ohms::from_mohm(1.0), Henries::from_ph(10.0)).unwrap();
        let b = SeriesBranch::new(Ohms::from_mohm(2.0), Henries::from_ph(20.0)).unwrap();
        let c = SeriesBranch::new(Ohms::from_mohm(3.0), Henries::from_ph(30.0)).unwrap();
        for f in [1e3, 1e6, 1e9] {
            let f = Hertz::new(f);
            let sum = a.impedance(f) + b.impedance(f);
            assert!(
                (sum - c.impedance(f)).abs() < 1e-12,
                "series impedances add at {f}"
            );
        }
    }

    #[test]
    fn paralleling_divides() {
        let a = SeriesBranch::new(Ohms::from_mohm(4.0), Henries::from_ph(40.0)).unwrap();
        let p = a.paralleled(4);
        assert!((p.resistance.as_mohm() - 1.0).abs() < 1e-12);
        assert!((p.inductance.value() - 10e-12).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "cannot parallel zero branches")]
    fn paralleling_zero_panics() {
        SeriesBranch::short().paralleled(0);
    }

    #[test]
    fn cap_bank_validation() {
        assert!(CapBank::new(Farads::ZERO, Ohms::ZERO, Henries::ZERO, 1).is_err());
        assert!(CapBank::new(Farads::from_uf(1.0), Ohms::new(-0.1), Henries::ZERO, 1).is_err());
        assert!(CapBank::new(Farads::from_uf(1.0), Ohms::ZERO, Henries::new(-1.0), 1).is_err());
        assert!(CapBank::new(Farads::from_uf(1.0), Ohms::ZERO, Henries::ZERO, 0).is_err());
    }

    #[test]
    fn cap_bank_capacitive_below_resonance_inductive_above() {
        let bank = CapBank::new(
            Farads::from_uf(22.0),
            Ohms::from_mohm(3.0),
            Henries::from_nh(0.5),
            10,
        )
        .unwrap();
        // A single capacitor's self-resonance: 1 / (2π√(L·C)).
        let fres = Hertz::new(1.0 / (2.0 * std::f64::consts::PI * (0.5e-9f64 * 22e-6).sqrt()));
        let below = bank.impedance(Hertz::new(fres.value() / 100.0));
        let above = bank.impedance(Hertz::new(fres.value() * 100.0));
        assert!(below.im < 0.0, "capacitive below resonance");
        assert!(above.im > 0.0, "inductive above resonance");
        // At resonance, reactance cancels: |Z| ≈ ESR/count.
        let at = bank.impedance(fres);
        assert!((at.abs() - bank.effective_esr().value()).abs() < 1e-6);
    }

    #[test]
    fn ideal_cap_has_no_resonance() {
        // With no ESL the reactance stays capacitive at every frequency.
        let bank = CapBank::new(Farads::from_uf(1.0), Ohms::ZERO, Henries::ZERO, 1).unwrap();
        for f in [1e3, 1e6, 1e9, 1e12] {
            assert!(bank.impedance(Hertz::new(f)).im < 0.0);
        }
    }

    #[test]
    fn bank_effective_values_scale_with_count() {
        let bank = CapBank::new(
            Farads::from_uf(10.0),
            Ohms::from_mohm(5.0),
            Henries::from_nh(1.0),
            5,
        )
        .unwrap();
        assert!((bank.total_capacitance().value() - 50e-6).abs() < 1e-15);
        assert!((bank.effective_esr().as_mohm() - 1.0).abs() < 1e-12);
        assert!((bank.effective_esl().value() - 0.2e-9).abs() < 1e-20);
    }

    #[test]
    fn scaled_bank_rounds_and_clamps() {
        let bank = CapBank::new(Farads::from_uf(1.0), Ohms::ZERO, Henries::ZERO, 10).unwrap();
        assert_eq!(bank.scaled(0.5).count, 5);
        assert_eq!(bank.scaled(0.01).count, 1);
        assert_eq!(bank.scaled(2.0).count, 20);
    }

    #[test]
    fn merged_banks_preserve_total_capacitance() {
        let a = CapBank::new(
            Farads::from_uf(10.0),
            Ohms::from_mohm(2.0),
            Henries::from_nh(0.5),
            4,
        )
        .unwrap();
        let b = CapBank::new(
            Farads::from_uf(20.0),
            Ohms::from_mohm(4.0),
            Henries::from_nh(1.0),
            2,
        )
        .unwrap();
        let m = a.merged(&b);
        let expect = a.total_capacitance() + b.total_capacitance();
        assert!((m.total_capacitance().value() - expect.value()).abs() < 1e-15);
        // Merged ESR must be below either constituent's effective ESR.
        assert!(m.effective_esr() < a.effective_esr());
        assert!(m.effective_esr() < b.effective_esr());
    }
}
