//! PDN ladder topology.
//!
//! The power delivery network is modeled as a *ladder*: an ordered cascade of
//! [`Stage`]s from the voltage regulator (VR) to the die. Each stage carries
//! a series R–L branch (routing or a power-gate) and, optionally, a shunt
//! decoupling-capacitor bank hanging off the node at the stage's far end.
//!
//! ```text
//!  VR ──[R_LL, L_VR]──┬──[R,L]──┬──[R,L]──┬── ... ──┬── die load
//!                     │         │         │         │
//!                   bulk      pkg caps  (gate)    MIM caps
//! ```
//!
//! The impedance seen *by the die looking back into the network* is computed
//! by walking the ladder from the VR: series branches add, shunt banks
//! combine in parallel. This is the quantity plotted in the paper's Fig. 4.

use crate::complex::Complex;
use crate::elements::{CapBank, SeriesBranch};
use crate::error::PdnError;
use crate::transient::{LadderCoeffs, MAX_NODES};
use crate::units::{Hertz, Ohms};

/// One segment of the PDN: a series branch plus an optional shunt cap bank
/// at the downstream node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Human-readable name (e.g. `"package routing"`, `"power-gate"`).
    pub name: String,
    /// Series R–L of this segment.
    pub series: SeriesBranch,
    /// Decap bank at the node after the series branch, if any.
    pub shunt: Option<CapBank>,
}

impl Stage {
    /// Creates a stage with a shunt capacitor bank.
    fn with_shunt(name: impl Into<String>, series: SeriesBranch, shunt: CapBank) -> Self {
        Stage {
            name: name.into(),
            series,
            shunt: Some(shunt),
        }
    }

    /// Creates a stage with no decoupling at its downstream node.
    fn bare(name: impl Into<String>, series: SeriesBranch) -> Self {
        Stage {
            name: name.into(),
            series,
            shunt: None,
        }
    }
}

/// Closed-loop output model of the VR feeding the ladder.
///
/// Below its control bandwidth a buck VR holds its output at the load-line
/// resistance `R_LL`; above the bandwidth the output impedance rises
/// inductively with an equivalent inductance `L_eq = R_LL / ω_bw`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VrOutputModel {
    /// Load-line (DC output) resistance.
    pub loadline: Ohms,
    /// Control-loop bandwidth.
    pub bandwidth: Hertz,
}

impl VrOutputModel {
    /// Creates a VR output model.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if the load-line is not
    /// strictly positive or the bandwidth is not strictly positive.
    pub fn new(loadline: Ohms, bandwidth: Hertz) -> Result<Self, PdnError> {
        if !(loadline.value() > 0.0 && loadline.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "VR load-line resistance",
                value: loadline.value(),
            });
        }
        if !(bandwidth.value() > 0.0 && bandwidth.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "VR bandwidth",
                value: bandwidth.value(),
            });
        }
        Ok(VrOutputModel {
            loadline,
            bandwidth,
        })
    }

    /// Equivalent output inductance above the loop bandwidth.
    pub fn equivalent_inductance(&self) -> f64 {
        self.loadline.value() / self.bandwidth.angular()
    }

    /// Phasor output impedance at frequency `f`:
    /// `R_LL + jω·L_eq` (resistive at DC, inductive past the bandwidth).
    pub fn impedance(&self, f: Hertz) -> Complex {
        Complex::new(
            self.loadline.value(),
            f.angular() * self.equivalent_inductance(),
        )
    }
}

/// A complete PDN from VR to die.
///
/// # Examples
///
/// ```
/// use dg_pdn::elements::{CapBank, SeriesBranch};
/// use dg_pdn::ladder::{Ladder, VrOutputModel};
/// use dg_pdn::units::{Farads, Henries, Hertz, Ohms};
///
/// # fn main() -> Result<(), dg_pdn::PdnError> {
/// let vr = VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3))?;
/// let mut builder = Ladder::builder("minimal", vr);
/// builder.series_with_decap(
///     "board",
///     SeriesBranch::new(Ohms::from_mohm(0.2), Henries::from_ph(120.0))?,
///     CapBank::new(Farads::from_uf(470.0), Ohms::from_mohm(5.0), Henries::from_nh(3.0), 4)?,
/// );
/// let ladder = builder.build()?;
/// // At DC the impedance is the resistive path.
/// let z = ladder.impedance_magnitude(Hertz::new(1.0));
/// assert!((z.as_mohm() - ladder.dc_resistance().as_mohm()).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    name: String,
    vr: VrOutputModel,
    stages: Vec<Stage>,
}

impl Ladder {
    /// Starts building a ladder; see [`LadderBuilder`].
    pub fn builder(name: impl Into<String>, vr: VrOutputModel) -> LadderBuilder {
        LadderBuilder {
            name: name.into(),
            vr,
            stages: Vec::new(),
        }
    }

    /// The ladder's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The VR output model at the head of the ladder.
    pub fn vr(&self) -> &VrOutputModel {
        &self.vr
    }

    /// The stages from VR to die.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Impedance seen by the die looking back into the network at `f`.
    ///
    /// Walks the ladder from the VR: the running impedance accumulates each
    /// series branch and is then shunted by each decap bank.
    fn impedance_at(&self, f: Hertz) -> Complex {
        let mut z = self.vr.impedance(f);
        for stage in &self.stages {
            z = z + stage.series.impedance(f);
            if let Some(bank) = &stage.shunt {
                z = z.parallel(bank.impedance(f));
            }
        }
        z
    }

    /// Impedance magnitude at `f`.
    pub fn impedance_magnitude(&self, f: Hertz) -> Ohms {
        Ohms::new(self.impedance_at(f).abs())
    }

    /// Total DC path resistance from VR to die (load-line plus every series
    /// branch). Shunt capacitors are open at DC and do not contribute.
    pub fn dc_resistance(&self) -> Ohms {
        self.vr.loadline
            + self
                .stages
                .iter()
                .map(|s| s.series.resistance)
                .sum::<Ohms>()
    }
}

/// Incremental builder for [`Ladder`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone)]
pub struct LadderBuilder {
    name: String,
    vr: VrOutputModel,
    stages: Vec<Stage>,
}

impl LadderBuilder {
    /// Appends a series-only stage.
    pub fn series(&mut self, name: impl Into<String>, branch: SeriesBranch) -> &mut Self {
        self.stages.push(Stage::bare(name, branch));
        self
    }

    /// Appends a stage with both series branch and shunt decap bank.
    pub fn series_with_decap(
        &mut self,
        name: impl Into<String>,
        branch: SeriesBranch,
        bank: CapBank,
    ) -> &mut Self {
        self.stages.push(Stage::with_shunt(name, branch, bank));
        self
    }

    /// Finishes the ladder.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::EmptyLadder`] if no stages were added, and
    /// [`PdnError::TooManyNodes`] if the chain model is deeper than
    /// [`MAX_NODES`].
    pub fn build(&self) -> Result<Ladder, PdnError> {
        if self.stages.is_empty() {
            return Err(PdnError::EmptyLadder);
        }
        let ladder = Ladder {
            name: self.name.clone(),
            vr: self.vr,
            stages: self.stages.clone(),
        };
        let nodes = LadderCoeffs::from_ladder(&ladder).nodes();
        if nodes > MAX_NODES {
            return Err(PdnError::TooManyNodes {
                nodes,
                max: MAX_NODES,
            });
        }
        Ok(ladder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Farads, Henries};

    fn test_vr() -> VrOutputModel {
        VrOutputModel::new(Ohms::from_mohm(1.6), Hertz::new(300e3)).unwrap()
    }

    fn simple_ladder() -> Ladder {
        let mut b = Ladder::builder("test", test_vr());
        b.series_with_decap(
            "board",
            SeriesBranch::new(Ohms::from_mohm(0.2), Henries::from_ph(100.0)).unwrap(),
            CapBank::new(
                Farads::from_uf(470.0),
                Ohms::from_mohm(5.0),
                Henries::from_nh(3.0),
                4,
            )
            .unwrap(),
        );
        b.series_with_decap(
            "package",
            SeriesBranch::new(Ohms::from_mohm(0.3), Henries::from_ph(40.0)).unwrap(),
            CapBank::new(
                Farads::from_uf(22.0),
                Ohms::from_mohm(2.0),
                Henries::from_ph(300.0),
                8,
            )
            .unwrap(),
        );
        b.series_with_decap(
            "die",
            SeriesBranch::new(Ohms::from_mohm(0.2), Henries::from_ph(5.0)).unwrap(),
            CapBank::new(
                Farads::from_nf(150.0),
                Ohms::from_mohm(0.3),
                Henries::from_ph(1.0),
                1,
            )
            .unwrap(),
        );
        b.build().unwrap()
    }

    #[test]
    fn empty_ladder_rejected() {
        let b = Ladder::builder("empty", test_vr());
        assert_eq!(b.build().unwrap_err(), PdnError::EmptyLadder);
    }

    #[test]
    fn dc_resistance_sums_path() {
        let l = simple_ladder();
        // 1.6 + 0.2 + 0.3 + 0.2 = 2.3 mΩ
        assert!((l.dc_resistance().as_mohm() - 2.3).abs() < 1e-9);
    }

    #[test]
    fn low_frequency_impedance_approaches_loadline_path() {
        let l = simple_ladder();
        let z = l.impedance_magnitude(Hertz::new(1.0));
        // At 1 Hz all caps are open, all inductors are shorts: |Z| ≈ R_dc.
        assert!((z.as_mohm() - l.dc_resistance().as_mohm()).abs() < 0.05);
    }

    #[test]
    fn high_frequency_impedance_is_die_cap_limited() {
        let l = simple_ladder();
        // At 10 MHz, impedance is dominated by the die MIM bank, far below
        // the inductive path impedance.
        let z = l.impedance_magnitude(Hertz::from_mhz(10.0));
        let die_only = l
            .stages()
            .iter()
            .find(|s| s.name == "die")
            .unwrap()
            .shunt
            .unwrap();
        let zd = die_only.impedance(Hertz::from_mhz(10.0)).abs();
        assert!(z.value() <= zd * 1.05, "shunt path must dominate: {z}");
    }

    #[test]
    fn impedance_has_resonant_peak_between_plateaus() {
        let l = simple_ladder();
        let z_lo = l.impedance_magnitude(Hertz::new(100.0));
        // Mid-band peak (cap-to-cap anti-resonance) must exceed both the DC
        // plateau and the high-frequency die-cap region somewhere.
        let mut z_peak = Ohms::ZERO;
        let mut f = 1e3;
        while f < 1e9 {
            z_peak = z_peak.max(l.impedance_magnitude(Hertz::new(f)));
            f *= 1.2;
        }
        assert!(z_peak > z_lo, "peak {z_peak} vs low {z_lo}");
    }

    #[test]
    fn vr_model_inductive_above_bandwidth() {
        let vr = test_vr();
        let z_dc = vr.impedance(Hertz::new(1.0)).abs();
        let z_hi = vr.impedance(Hertz::from_mhz(30.0)).abs();
        assert!((z_dc - 0.0016).abs() < 1e-6);
        assert!(z_hi > 10.0 * z_dc);
    }

    #[test]
    fn vr_model_validation() {
        assert!(VrOutputModel::new(Ohms::ZERO, Hertz::new(1e5)).is_err());
        assert!(VrOutputModel::new(Ohms::from_mohm(1.0), Hertz::ZERO).is_err());
    }

    #[test]
    fn stage_lookup_by_name() {
        let l = simple_ladder();
        let names: Vec<&str> = l.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["board", "package", "die"]);
        assert!(!names.contains(&"nonexistent"));
        assert_eq!(l.name(), "test");
    }
}
