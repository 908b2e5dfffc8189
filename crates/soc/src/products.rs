//! The product catalog (paper Table 2 and Sec. 6).
//!
//! All Skylake products share one die and one factory-calibrated V/F curve;
//! what differs per product is the package (gated vs. bypassed), the fused
//! turbo ceilings, the TDP/cooling, and the deepest package C-state the
//! platform supports.
//!
//! Fused turbo ceilings for the gated baselines mirror real SKU ladders
//! (e.g. i7-6700T → i7-6700 → i7-6700K): lower-TDP parts ship lower turbo
//! bins. The DarkGates (bypassed) counterpart of each product re-derives
//! its ceilings from the *same* effective voltage budget: the voltage the
//! gated part needed at its fused ceiling (curve + gated guardband) is the
//! budget within which the bypassed part — paying a smaller guardband —
//! fits more 100 MHz bins. This is the Sec. 4.2 "DVFS algorithms adjusted
//! to the new V/F curves" step.

use dg_cstates::power::GatingConfig;
use dg_cstates::states::PackageCstate;
use dg_engine::sync::TrackedMutex;
use dg_pdn::skylake::PdnVariant;
use dg_pmu::guardband::GuardbandManager;
use dg_pmu::modes::{Fuse, OperatingMode};
use dg_power::error::PowerError;
use dg_power::leakage::LeakageModel;
use dg_power::limits::DesignLimits;
use dg_power::pstate::PStateTable;
use dg_power::thermal::ThermalModel;
use dg_power::units::{Hertz, Volts, Watts};
use dg_power::vf::VfCurve;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Uncore active floor charged off the top of the TDP (matches the C0
/// entry of [`dg_cstates::power::UNCORE_POWER_W`]).
const UNCORE_ACTIVE_W: f64 = 3.0;

/// Guardband applied to the graphics rail (unchanged by DarkGates: the
/// graphics engine is not behind the bypassed core gates).
const GFX_GUARDBAND_MV: f64 = 50.0;

/// Gated-baseline fused turbo ceilings per TDP, `(tdp_w, 1-core_ghz,
/// all-core_ghz)` — the SKU ladder.
const SKYLAKE_FUSED_GATED: [(f64, f64, f64); 4] = [
    (35.0, 3.6, 3.4),
    (45.0, 3.9, 3.7),
    (65.0, 4.1, 4.0),
    (91.0, 4.2, 4.0),
];

/// Broadwell-generation fused ceilings (lower across the board).
const BROADWELL_FUSED: [(f64, f64, f64); 4] = [
    (35.0, 2.9, 2.7),
    (45.0, 3.2, 3.0),
    (65.0, 3.5, 3.3),
    (95.0, 3.7, 3.5),
];

/// A fully-configured processor product.
#[derive(Debug, Clone, PartialEq)]
pub struct Product {
    /// Marketing-style name.
    pub name: String,
    /// Firmware operating mode (from the package fuse).
    pub mode: OperatingMode,
    /// Number of CPU cores.
    pub core_count: usize,
    /// Thermal design power.
    pub tdp: Watts,
    /// Design limits (TDP, Tjmax, Vmax, PL1–4).
    pub limits: DesignLimits,
    /// Total core-rail guardband (droop + reliability) for this product.
    pub guardband: Volts,
    /// Core P-states (guardband applied) capped at the 1-core fused turbo.
    pub table_1c: PStateTable,
    /// Core P-states capped at the all-core fused turbo.
    pub table_ac: PStateTable,
    /// Graphics P-states (guardband applied).
    pub table_gfx: PStateTable,
    /// Cooling solution sized for the TDP.
    pub thermal: ThermalModel,
    /// Per-core leakage model.
    pub core_leakage: LeakageModel,
    /// Graphics-engine leakage model.
    pub gfx_leakage: LeakageModel,
    /// Deepest package C-state the platform supports.
    pub deepest_pkg_cstate: PackageCstate,
}

impl Product {
    /// The DarkGates desktop product (Skylake-S, i7-6700K-like) at `tdp`.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not one of the catalog's levels
    /// (35/45/65/91 W).
    pub fn skylake_s(tdp: Watts) -> Self {
        Self::skylake(tdp, OperatingMode::Bypass)
    }

    /// The gated mobile baseline (Skylake-H, i7-6920HQ-like) at `tdp`.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not one of the catalog's levels.
    pub fn skylake_h(tdp: Watts) -> Self {
        Self::skylake(tdp, OperatingMode::Normal)
    }

    /// A Skylake product in an explicit mode.
    ///
    /// Product configuration is a pure function of `(tdp, mode)`, and the
    /// experiment grids request the same handful of SKUs hundreds of
    /// times, so finished products are memoized process-wide and cloned
    /// out. Construction happens outside the cache lock: concurrent
    /// builders of *different* SKUs never serialize, and a panic on an
    /// unknown TDP cannot poison the cache.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not one of the catalog's levels.
    pub fn skylake(tdp: Watts, mode: OperatingMode) -> Self {
        static CACHE: OnceLock<TrackedMutex<HashMap<(u64, bool), Product>>> = OnceLock::new();
        let key = (tdp.value().to_bits(), mode == OperatingMode::Bypass);
        let skylake_cache =
            CACHE.get_or_init(|| TrackedMutex::new("soc.products.skylake", HashMap::new()));
        if let Some(hit) = skylake_cache.lock().get(&key) {
            return hit.clone();
        }

        let (f1c, fac) = lookup_fused(&SKYLAKE_FUSED_GATED, tdp)
            // dg-analyze: allow(no-panic-in-lib, reason = "documented precondition: callers must pass a catalog TDP level; Option would push the same panic into every experiment")
            .unwrap_or_else(|| panic!("no Skylake SKU at {tdp}"));
        let curve = VfCurve::skylake_core();
        let name = match mode {
            OperatingMode::Bypass => format!("Skylake-S (DarkGates) {}W", tdp.value()),
            OperatingMode::Normal => format!("Skylake-H (baseline) {}W", tdp.value()),
        };
        let fresh = Self::build(name, mode, tdp, &curve, f1c, fac, None)
            // dg-analyze: allow(no-panic-in-lib, reason = "catalog fused ceilings and guardbands always lie on the calibrated curve; a test builds the full catalog")
            .expect("catalog constants build cleanly");
        skylake_cache.lock().entry(key).or_insert(fresh).clone()
    }

    /// The Broadwell predecessor (gated) used for the motivational Fig. 3
    /// experiment. `guardband_delta` lowers (negative) or raises the
    /// product's total guardband, emulating the paper's post-silicon
    /// −100 mV configuration.
    ///
    /// # Panics
    ///
    /// Panics if `tdp` is not one of the catalog's levels
    /// (35/45/65/95 W).
    pub fn broadwell(tdp: Watts, guardband_delta: Volts) -> Self {
        static CACHE: OnceLock<TrackedMutex<HashMap<(u64, u64), Product>>> = OnceLock::new();
        let key = (tdp.value().to_bits(), guardband_delta.value().to_bits());
        let broadwell_cache =
            CACHE.get_or_init(|| TrackedMutex::new("soc.products.broadwell", HashMap::new()));
        if let Some(hit) = broadwell_cache.lock().get(&key) {
            return hit.clone();
        }

        let (f1c, fac) = lookup_fused(&BROADWELL_FUSED, tdp)
            // dg-analyze: allow(no-panic-in-lib, reason = "documented precondition: callers must pass a catalog TDP level; Option would push the same panic into every experiment")
            .unwrap_or_else(|| panic!("no Broadwell SKU at {tdp}"));
        let curve = broadwell_core_curve();
        let name = format!(
            "Broadwell {}W ({:+.0} mV guardband)",
            tdp.value(),
            guardband_delta.as_mv()
        );
        let fresh = Self::build(
            name,
            OperatingMode::Normal,
            tdp,
            &curve,
            f1c,
            fac,
            Some(guardband_delta),
        )
        // dg-analyze: allow(no-panic-in-lib, reason = "catalog fused ceilings and guardband deltas stay on the calibrated curve; a test sweeps the Fig. 3 grid")
        .expect("catalog constants build cleanly");
        broadwell_cache.lock().entry(key).or_insert(fresh).clone()
    }

    fn build(
        name: String,
        mode: OperatingMode,
        tdp: Watts,
        curve: &VfCurve,
        fused_1c_gated_ghz: f64,
        fused_ac_gated_ghz: f64,
        guardband_delta: Option<Volts>,
    ) -> Result<Self, PowerError> {
        let bin = PStateTable::standard_bin();
        let gated_mgr = GuardbandManager::for_variant(PdnVariant::Gated);
        let gated_gb = gated_mgr.total_guardband(tdp);

        // The effective voltage budget each fused ceiling was signed off
        // at: bare curve at the ceiling plus the gated guardband.
        let f1c_gated = Hertz::from_ghz(fused_1c_gated_ghz);
        let fac_gated = Hertz::from_ghz(fused_ac_gated_ghz);
        let vbudget_1c = curve.voltage_at(f1c_gated)? + gated_gb;
        let vbudget_ac = curve.voltage_at(fac_gated)? + gated_gb;

        let (guardband, fused_1c, fused_ac) = match (mode, guardband_delta) {
            (OperatingMode::Normal, None) => (gated_gb, f1c_gated, fac_gated),
            (OperatingMode::Normal, Some(delta)) => {
                // Fig. 3 experiment: same gated part, guardband shifted.
                let gb = (gated_gb + delta).max(Volts::ZERO);
                let shifted = curve.with_guardband(gb);
                let f1c = shifted.max_frequency_at_quantized(vbudget_1c, bin)?;
                let fac = shifted.max_frequency_at_quantized(vbudget_ac, bin)?;
                (gb, f1c, fac)
            }
            (OperatingMode::Bypass, _) => {
                let byp_mgr = GuardbandManager::for_variant(PdnVariant::Bypassed);
                let gb = byp_mgr.total_guardband(tdp);
                let shifted = curve.with_guardband(gb);
                let f1c = shifted.max_frequency_at_quantized(vbudget_1c, bin)?;
                let fac = shifted.max_frequency_at_quantized(vbudget_ac, bin)?;
                (gb, f1c, fac)
            }
        };

        let guarded = curve.with_guardband(guardband);
        let full = PStateTable::from_curve(&guarded, bin)?;
        let table_1c = full.truncated_at(fused_1c)?;
        let table_ac = full.truncated_at(fused_ac)?;

        let gfx_curve =
            VfCurve::skylake_graphics().with_guardband(Volts::from_mv(GFX_GUARDBAND_MV));
        let table_gfx = PStateTable::from_curve(&gfx_curve, Hertz::from_mhz(25.0))?;

        let deepest_pkg_cstate = match mode {
            OperatingMode::Bypass => PackageCstate::darkgates_desktop_deepest(),
            OperatingMode::Normal => PackageCstate::legacy_desktop_deepest(),
        };

        // Vmax recorded in the limits is the 1-core effective budget.
        let limits = DesignLimits::skylake(tdp).with_vmax(vbudget_1c);

        Ok(Product {
            name,
            mode,
            core_count: 4,
            tdp,
            limits,
            guardband,
            table_1c,
            table_ac,
            table_gfx,
            thermal: ThermalModel::for_tdp(tdp),
            core_leakage: LeakageModel::skylake_core(),
            gfx_leakage: LeakageModel::skylake_graphics(),
            deepest_pkg_cstate,
        })
    }

    /// Reconfigures this product to a different TDP within the catalog
    /// range — *configurable TDP* (cTDP, paper Sec. 2.2): the OEM trades
    /// sustained power for cooling budget without changing the silicon or
    /// the fused ceilings. Power limits and the thermal solution follow
    /// the new TDP; guardbands, P-state tables, and C-state capability are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `new_tdp` is outside the catalog's 35–91 W envelope.
    // dg-analyze: allow(unreached-pub, reason = "only products::tests call it; deleting it retires the two ctdp tests (ROADMAP item 4)")
    pub fn with_ctdp(&self, new_tdp: Watts) -> Product {
        assert!(
            (35.0..=91.0).contains(&new_tdp.value()),
            "cTDP {new_tdp} outside the 35-91 W envelope"
        );
        let mut p = self.clone();
        p.tdp = new_tdp;
        p.limits = DesignLimits::skylake(new_tdp).with_vmax(self.limits.vmax);
        p.thermal = ThermalModel::for_tdp(new_tdp);
        p.name = format!("{} (cTDP {}W)", self.name, new_tdp.value());
        p
    }

    /// The catalog TDP levels for Skylake products.
    pub fn skylake_tdp_levels() -> [Watts; 4] {
        [
            Watts::new(35.0),
            Watts::new(45.0),
            Watts::new(65.0),
            Watts::new(91.0),
        ]
    }

    /// The catalog TDP levels for Broadwell products (Fig. 3).
    pub fn broadwell_tdp_levels() -> [Watts; 4] {
        [
            Watts::new(35.0),
            Watts::new(45.0),
            Watts::new(65.0),
            Watts::new(95.0),
        ]
    }

    /// The fuse this product would be programmed with.
    pub fn fuse(&self) -> Fuse {
        match self.mode {
            OperatingMode::Bypass => Fuse::desktop(),
            OperatingMode::Normal => Fuse::mobile(),
        }
    }

    /// The C-state gating configuration of this package.
    pub fn gating_config(&self) -> GatingConfig {
        GatingConfig::skylake(self.mode == OperatingMode::Bypass, self.core_count)
    }

    /// Uncore active power floor.
    pub fn uncore_active(&self) -> Watts {
        Watts::new(UNCORE_ACTIVE_W)
    }

    /// Maximum 1-core turbo frequency.
    pub fn fmax_1c(&self) -> Hertz {
        self.table_1c.p0().frequency
    }

    /// Maximum all-core turbo frequency.
    pub fn fmax_ac(&self) -> Hertz {
        self.table_ac.p0().frequency
    }
}

fn lookup_fused(table: &[(f64, f64, f64)], tdp: Watts) -> Option<(f64, f64)> {
    table
        .iter()
        .find(|(t, _, _)| (*t - tdp.value()).abs() < 1e-9)
        .map(|(_, f1, fa)| (*f1, *fa))
}

/// The Broadwell-generation core V/F curve: same shape as Skylake's but
/// shifted down in frequency (one process/design generation older).
fn broadwell_core_curve() -> VfCurve {
    VfCurve::new(vec![
        (Hertz::from_ghz(0.8), Volts::new(0.640)),
        (Hertz::from_ghz(1.2), Volts::new(0.675)),
        (Hertz::from_ghz(1.6), Volts::new(0.720)),
        (Hertz::from_ghz(2.0), Volts::new(0.775)),
        (Hertz::from_ghz(2.4), Volts::new(0.840)),
        (Hertz::from_ghz(2.8), Volts::new(0.910)),
        (Hertz::from_ghz(3.2), Volts::new(0.990)),
        (Hertz::from_ghz(3.6), Volts::new(1.080)),
        (Hertz::from_ghz(4.0), Volts::new(1.180)),
        (Hertz::from_ghz(4.4), Volts::new(1.290)),
    ])
    // dg-analyze: allow(no-panic-in-lib, reason = "the constant points are strictly increasing in both axes; a test constructs the curve")
    .expect("constant curve is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_catalog_is_coherent() {
        // Both packages at every TDP level, desktop variants first.
        let levels = Product::skylake_tdp_levels();
        let all: Vec<Product> = levels
            .iter()
            .map(|&tdp| Product::skylake_s(tdp))
            .chain(levels.iter().map(|&tdp| Product::skylake_h(tdp)))
            .collect();
        assert_eq!(all.len(), 8);
        // Unique names; four bypassed then four gated.
        let mut names: Vec<&str> = all.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert!(all[..4].iter().all(|p| p.gating_config().bypassed));
        assert!(all[4..].iter().all(|p| !p.gating_config().bypassed));
    }

    #[test]
    fn catalog_builds_at_every_tdp() {
        for tdp in Product::skylake_tdp_levels() {
            let s = Product::skylake_s(tdp);
            let h = Product::skylake_h(tdp);
            assert_eq!(s.core_count, 4);
            assert_eq!(h.core_count, 4);
            assert_eq!(s.mode, OperatingMode::Bypass);
            assert_eq!(h.mode, OperatingMode::Normal);
        }
        for tdp in Product::broadwell_tdp_levels() {
            let b = Product::broadwell(tdp, Volts::ZERO);
            assert_eq!(b.mode, OperatingMode::Normal);
        }
    }

    #[test]
    #[should_panic(expected = "no Skylake SKU")]
    fn unknown_tdp_panics() {
        Product::skylake_s(Watts::new(50.0));
    }

    #[test]
    fn baseline_91w_fmax_is_4_2ghz() {
        // Table 2 anchor: the gated part tops out at 4.2 GHz.
        let h = Product::skylake_h(Watts::new(91.0));
        assert!((h.fmax_1c().as_ghz() - 4.2).abs() < 1e-9);
        assert!((h.fmax_ac().as_ghz() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn darkgates_unlocks_about_four_bins() {
        // The headline mechanism: the reduced guardband converts into
        // ~400 MHz of extra fused ceiling at 91 W.
        let s = Product::skylake_s(Watts::new(91.0));
        let h = Product::skylake_h(Watts::new(91.0));
        let delta_mhz = s.fmax_1c().as_mhz() - h.fmax_1c().as_mhz();
        assert!(
            (300.0..=500.0).contains(&delta_mhz),
            "1-core uplift {delta_mhz} MHz"
        );
        let delta_ac = s.fmax_ac().as_mhz() - h.fmax_ac().as_mhz();
        assert!(
            (300.0..=500.0).contains(&delta_ac),
            "all-core uplift {delta_ac} MHz"
        );
    }

    #[test]
    fn darkgates_uplift_holds_at_every_tdp() {
        for tdp in Product::skylake_tdp_levels() {
            let s = Product::skylake_s(tdp);
            let h = Product::skylake_h(tdp);
            let delta = s.fmax_1c().as_mhz() - h.fmax_1c().as_mhz();
            assert!(
                (200.0..=500.0).contains(&delta),
                "{tdp}: uplift {delta} MHz"
            );
        }
    }

    #[test]
    fn lower_tdp_ships_lower_ceilings() {
        let f: Vec<f64> = Product::skylake_tdp_levels()
            .iter()
            .map(|t| Product::skylake_h(*t).fmax_1c().as_ghz())
            .collect();
        for w in f.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn guardband_smaller_on_darkgates_product() {
        let s = Product::skylake_s(Watts::new(65.0));
        let h = Product::skylake_h(Watts::new(65.0));
        assert!(s.guardband < h.guardband);
        // And the bypassed product's rail voltage at a common frequency is
        // lower, which is the active-power side benefit of Sec. 4.2.
        let f = Hertz::from_ghz(3.5);
        let vs = s.table_1c.at_frequency(f).unwrap().voltage;
        let vh = h.table_1c.at_frequency(f).unwrap().voltage;
        assert!(vs < vh);
    }

    #[test]
    fn ctdp_reconfigures_power_not_silicon() {
        use crate::run::run_spec;
        use dg_workloads::spec::{by_name, SpecMode};
        let base = Product::skylake_s(Watts::new(91.0));
        let down = base.with_ctdp(Watts::new(45.0));
        // Silicon artifacts unchanged.
        assert_eq!(down.fmax_1c(), base.fmax_1c());
        assert_eq!(down.guardband, base.guardband);
        assert_eq!(down.deepest_pkg_cstate, base.deepest_pkg_cstate);
        // Power/thermal envelope changed.
        assert!((down.tdp.value() - 45.0).abs() < 1e-12);
        assert!(down.thermal.r_th > base.thermal.r_th);
        assert!(down.name.contains("cTDP"));
        // cTDP-down throttles an all-core run harder.
        let gcc = by_name("403.gcc").unwrap();
        let f_down = run_spec(&down, &gcc, SpecMode::Rate).sustained_frequency;
        let f_base = run_spec(&base, &gcc, SpecMode::Rate).sustained_frequency;
        assert!(f_down < f_base, "{f_down} !< {f_base}");
    }

    #[test]
    #[should_panic(expected = "outside the 35-91 W envelope")]
    fn ctdp_out_of_envelope_panics() {
        Product::skylake_s(Watts::new(65.0)).with_ctdp(Watts::new(120.0));
    }

    #[test]
    fn broadwell_guardband_reduction_raises_ceilings() {
        for tdp in Product::broadwell_tdp_levels() {
            let base = Product::broadwell(tdp, Volts::ZERO);
            let reduced = Product::broadwell(tdp, Volts::from_mv(-100.0));
            let delta = reduced.fmax_1c().as_mhz() - base.fmax_1c().as_mhz();
            assert!(
                (300.0..=600.0).contains(&delta),
                "{tdp}: Fig.3 uplift {delta} MHz"
            );
        }
    }

    #[test]
    fn cstate_capability_follows_mode() {
        let s = Product::skylake_s(Watts::new(91.0));
        let h = Product::skylake_h(Watts::new(91.0));
        assert_eq!(s.deepest_pkg_cstate, PackageCstate::C8);
        assert_eq!(h.deepest_pkg_cstate, PackageCstate::C7);
        assert_eq!(s.fuse(), Fuse::desktop());
        assert_eq!(h.fuse(), Fuse::mobile());
        assert!(s.gating_config().bypassed);
        assert!(!h.gating_config().bypassed);
    }

    #[test]
    fn graphics_table_spans_advertised_range() {
        let s = Product::skylake_s(Watts::new(45.0));
        assert!(s.table_gfx.pn().frequency.as_mhz() <= 350.0);
        assert!(s.table_gfx.p0().frequency.as_mhz() >= 1150.0);
    }
}
