//! Calibrated Skylake-class PDN topologies.
//!
//! Two variants of the same die's delivery network (paper Figs. 1, 5, 6):
//!
//! * [`PdnVariant::Gated`] — the mobile (Skylake-H-like) package: each CPU
//!   core's voltage domain sits behind an on-die power-gate and owns only
//!   its private slice of the die MIM capacitance. The package decaps and
//!   the other cores' MIM sit on the far side of the gate.
//! * [`PdnVariant::Bypassed`] — the DarkGates desktop (Skylake-S-like)
//!   package: the four gated domains and the ungated domain are shorted at
//!   the package into a single domain, sharing all MIM slices, the package
//!   decaps, and the package routing.
//!
//! Component values are lumped-model calibrations chosen so the gated
//! topology shows roughly twice the impedance of the bypassed one across the
//! sweep, matching the paper's Fig. 4. They are exposed as constants so
//! experiments can perturb them.

use crate::elements::{CapBank, SeriesBranch};
use crate::impedance::{ImpedanceAnalyzer, ImpedanceProfile};
use crate::ladder::{Ladder, VrOutputModel};
use crate::loadline::{LoadLine, VirusLevel, VirusLevelTable};
use crate::units::{Amps, Farads, Henries, Hertz, Ohms, Volts, Watts};
use crate::vr::{VoltageRegulator, VrLimits};

/// Number of CPU cores on the modeled die.
const CORE_COUNT: usize = 4;

/// VR load-line resistance (paper Sec. 2.3: 1.6–2.4 mΩ).
const LOADLINE_MOHM: f64 = 1.6;
/// VR control-loop bandwidth.
const VR_BANDWIDTH_HZ: f64 = 300e3;
/// VR thermal design current.
const TDC_A: f64 = 100.0;
/// VR electrical design current (Iccmax).
const EDC_A: f64 = 138.0;
/// Upstream supply power limit (PL3-class).
const SUPPLY_LIMIT_W: f64 = 250.0;

/// Board routing resistance / inductance.
const BOARD_R_MOHM: f64 = 0.2;
/// Board routing inductance in picohenries.
const BOARD_L_PH: f64 = 120.0;
/// Package routing resistance / inductance (shared segment).
const PACKAGE_R_MOHM: f64 = 0.25;
/// Package routing inductance in picohenries.
const PACKAGE_L_PH: f64 = 35.0;
/// On-die grid resistance from the domain node to the load.
const DIE_R_MOHM: f64 = 0.15;
/// On-die grid inductance in picohenries.
const DIE_L_PH: f64 = 4.0;

/// Power-gate on-state resistance. Sized per the paper's area/impedance
/// trade-off discussion (Sec. 2.1): small enough to be viable, large enough
/// that bypassing it roughly halves the path impedance.
const POWER_GATE_R_MOHM: f64 = 1.2;
/// Power-gate parasitic inductance in picohenries.
const POWER_GATE_L_PH: f64 = 2.0;

/// Per-core MIM capacitance slice in nanofarads.
const MIM_PER_CORE_NF: f64 = 500.0;
/// Ungated-domain (shared) MIM capacitance in nanofarads.
const MIM_SHARED_NF: f64 = 500.0;
/// MIM ESR in milliohms. The MIM sits behind the distributed on-die grid,
/// which contributes series resistance that damps the die anti-resonance.
const MIM_ESR_MOHM: f64 = 3.5;
/// MIM ESL in picohenries.
const MIM_ESL_PH: f64 = 1.0;

/// Which side of the DarkGates hybrid a package implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdnVariant {
    /// Power-gates in the path (mobile / Skylake-H-like package).
    Gated,
    /// Power-gates bypassed at the package (desktop / Skylake-S-like,
    /// the DarkGates configuration).
    Bypassed,
}

impl PdnVariant {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PdnVariant::Gated => "power-gates enabled",
            PdnVariant::Bypassed => "power-gates bypassed",
        }
    }
}

/// A fully-assembled Skylake-class PDN: ladder, load-line, virus levels, VR.
#[derive(Debug, Clone, PartialEq)]
pub struct SkylakePdn {
    /// The topology variant.
    pub variant: PdnVariant,
    /// The lumped ladder from VR to the core load.
    pub ladder: Ladder,
    /// The load-line model.
    pub loadline: LoadLine,
    /// Power-virus guardband levels (1 / 2 / 4 active cores).
    pub virus_table: VirusLevelTable,
    /// The motherboard VR.
    pub vr: VoltageRegulator,
}

impl SkylakePdn {
    /// Builds the calibrated PDN for `variant`.
    ///
    /// The component values are compile-time calibration constants, so the
    /// fallible assembly in `Self::try_build` cannot actually fail here.
    pub fn build(variant: PdnVariant) -> Self {
        Self::try_build(variant)
            // dg-analyze: allow(no-panic-in-lib, reason = "inputs are compile-time calibration constants; a test exercises try_build on every variant")
            .expect("calibration constants are valid")
    }

    /// Fallible assembly of the calibrated PDN for `variant`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError`](crate::error::PdnError) if any calibration
    /// constant fails component validation (only possible if the constants
    /// are edited into an invalid range).
    fn try_build(variant: PdnVariant) -> Result<Self, crate::error::PdnError> {
        let vr_model =
            VrOutputModel::new(Ohms::from_mohm(LOADLINE_MOHM), Hertz::new(VR_BANDWIDTH_HZ))?;

        let board = SeriesBranch::new(Ohms::from_mohm(BOARD_R_MOHM), Henries::from_ph(BOARD_L_PH))?;
        let bulk = CapBank::new(
            Farads::from_uf(560.0),
            Ohms::from_mohm(6.0),
            Henries::from_nh(3.0),
            6,
        )?;

        let package = SeriesBranch::new(
            Ohms::from_mohm(PACKAGE_R_MOHM),
            Henries::from_ph(PACKAGE_L_PH),
        )?;
        let pkg_decap = CapBank::new(
            Farads::from_uf(22.0),
            Ohms::from_mohm(6.0),
            Henries::from_ph(150.0),
            20,
        )?;

        let die = SeriesBranch::new(Ohms::from_mohm(DIE_R_MOHM), Henries::from_ph(DIE_L_PH))?;

        let mim_core = CapBank::new(
            Farads::from_nf(MIM_PER_CORE_NF),
            Ohms::from_mohm(MIM_ESR_MOHM),
            Henries::from_ph(MIM_ESL_PH),
            1,
        )?;
        let mim_shared = CapBank::new(
            Farads::from_nf(MIM_SHARED_NF),
            Ohms::from_mohm(MIM_ESR_MOHM),
            Henries::from_ph(MIM_ESL_PH),
            1,
        )?;

        let name = format!("skylake-pdn ({})", variant.label());
        let mut b = Ladder::builder(name, vr_model);
        b.series_with_decap("board", board, bulk);
        b.series_with_decap("package", package, pkg_decap);

        match variant {
            PdnVariant::Gated => {
                // The core sits behind its power-gate with only its own MIM
                // slice; the shared MIM helps only the far side of the gate.
                let gate = SeriesBranch::new(
                    Ohms::from_mohm(POWER_GATE_R_MOHM),
                    Henries::from_ph(POWER_GATE_L_PH),
                )?;
                b.series_with_decap("ungated-domain", SeriesBranch::short(), mim_shared);
                b.series("power-gate", gate);
                b.series_with_decap("die", die, mim_core);
            }
            PdnVariant::Bypassed => {
                // Single shorted domain: all five MIM slices in parallel as
                // a bank (preserving per-slice ESR damping), and the die
                // grid effectively paralleled across the shared routes.
                let merged = CapBank::new(
                    Farads::from_nf(MIM_PER_CORE_NF),
                    Ohms::from_mohm(MIM_ESR_MOHM),
                    Henries::from_ph(MIM_ESL_PH),
                    CORE_COUNT + 1,
                )?;
                let die_shared = die.paralleled(2);
                b.series_with_decap("die", die_shared, merged);
            }
        }

        let ladder = b.build()?;

        let loadline = LoadLine::new(Ohms::from_mohm(LOADLINE_MOHM))?;
        let virus_table = VirusLevelTable::new(
            loadline,
            vec![
                VirusLevel::new("1 active core", Amps::new(34.0)),
                VirusLevel::new("2 active cores", Amps::new(62.0)),
                VirusLevel::new("4 active cores", Amps::new(118.0)),
            ],
        )?;

        let limits = VrLimits::new(
            Amps::new(TDC_A),
            Amps::new(EDC_A),
            Watts::new(SUPPLY_LIMIT_W),
        )?;
        let mut vr = VoltageRegulator::new(loadline, limits);
        vr.set_voltage(Volts::new(1.0));

        Ok(SkylakePdn {
            variant,
            ladder,
            loadline,
            virus_table,
            vr,
        })
    }

    /// Impedance profile over the default Fig. 4 sweep.
    ///
    /// Served from the content-keyed [`crate::cache`]: the first call per
    /// distinct circuit sweeps, later calls (or calls on any ladder with
    /// identical element values) clone the cached profile.
    pub fn impedance_profile(&self) -> ImpedanceProfile {
        (*crate::cache::impedance_profile(&ImpedanceAnalyzer::default(), &self.ladder)).clone()
    }

    /// Peak impedance over the default sweep (cached, no profile clone).
    pub fn peak_impedance(&self) -> Ohms {
        crate::cache::impedance_profile(&ImpedanceAnalyzer::default(), &self.ladder)
            .peak()
            .1
    }

    /// Total DC path resistance from VR to the core load.
    pub fn dc_resistance(&self) -> Ohms {
        self.ladder.dc_resistance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_has_power_gate_stage_bypassed_does_not() {
        let g = SkylakePdn::build(PdnVariant::Gated);
        let b = SkylakePdn::build(PdnVariant::Bypassed);
        assert!(g.ladder.stage("power-gate").is_some());
        assert!(b.ladder.stage("power-gate").is_none());
    }

    #[test]
    fn gated_dc_resistance_roughly_double() {
        let g = SkylakePdn::build(PdnVariant::Gated);
        let b = SkylakePdn::build(PdnVariant::Bypassed);
        let ratio = g.dc_resistance() / b.dc_resistance();
        assert!(
            (1.6..=2.4).contains(&ratio),
            "DC resistance ratio {ratio} outside ~2x band"
        );
    }

    #[test]
    fn fig4_impedance_ratio_approximately_two() {
        let g = SkylakePdn::build(PdnVariant::Gated);
        let b = SkylakePdn::build(PdnVariant::Bypassed);
        let zg = g.impedance_profile();
        let zb = b.impedance_profile();
        let mean_ratio = zg.mean_ratio_over(&zb);
        assert!(
            (1.5..=3.0).contains(&mean_ratio),
            "mean impedance ratio {mean_ratio} outside the ~2x band"
        );
        // The gated profile dominates everywhere.
        assert!(zg.dominates(&zb, 1.0));
    }

    #[test]
    fn peak_impedance_is_finite_and_positive() {
        for v in [PdnVariant::Gated, PdnVariant::Bypassed] {
            let pdn = SkylakePdn::build(v);
            let z = pdn.peak_impedance();
            assert!(z.value() > 0.0 && z.is_finite(), "{v:?}: {z}");
        }
    }

    #[test]
    fn virus_levels_cover_edc() {
        let pdn = SkylakePdn::build(PdnVariant::Bypassed);
        let top = pdn.virus_table.levels().last().unwrap().icc_virus;
        assert!(top.value() <= EDC_A);
        assert!(pdn.virus_table.level_for(Amps::new(30.0)).is_some());
    }

    #[test]
    fn try_build_succeeds_for_both_variants() {
        // Backs the allow() on `build`: the calibration constants must
        // always assemble cleanly.
        for v in [PdnVariant::Gated, PdnVariant::Bypassed] {
            assert!(SkylakePdn::try_build(v).is_ok(), "{v:?}");
        }
    }

    #[test]
    fn variant_labels() {
        assert!(PdnVariant::Gated.label().contains("enabled"));
        assert!(PdnVariant::Bypassed.label().contains("bypassed"));
    }
}
