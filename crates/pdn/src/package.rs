//! Package voltage-domain layout and the DarkGates shorting transform.
//!
//! The paper's Figs. 1(b), 5 and 6: the mobile package routes five core
//! voltage domains (the un-gated `V_CU` plus per-core gated `V_C0G..V_C3G`)
//! from the die bumps to the VR; the DarkGates desktop package *shorts*
//! them into one domain, pooling bumps, routes, and decap attach points.
//! Pooling the bumps is also what alleviates electromigration (Sec. 4.2:
//! "all bumps are shared between the cores").

use crate::error::PdnError;
use crate::units::Amps;

/// One package-level voltage domain.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageDomain {
    /// Domain name (e.g. `"VC0G"`).
    pub name: String,
    /// Number of supply bumps allocated to this domain.
    pub bumps: usize,
    /// Whether an on-die power-gate sits between this domain and the load.
    pub gated: bool,
}

impl VoltageDomain {
    /// Creates a domain.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if `bumps` is zero.
    pub fn new(name: impl Into<String>, bumps: usize, gated: bool) -> Result<Self, PdnError> {
        if bumps == 0 {
            return Err(PdnError::InvalidComponent {
                what: "bump count",
                value: 0.0,
            });
        }
        Ok(VoltageDomain {
            name: name.into(),
            bumps,
            gated,
        })
    }
}

/// A package's core-rail domain layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageLayout {
    /// Package name.
    pub name: String,
    domains: Vec<VoltageDomain>,
    /// Reliability limit per bump (EM-driven).
    pub max_current_per_bump: Amps,
}

impl PackageLayout {
    /// Creates a layout.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if no domains are given, the
    /// bump limit is non-positive, or domain names repeat.
    pub fn new(
        name: impl Into<String>,
        domains: Vec<VoltageDomain>,
        max_current_per_bump: Amps,
    ) -> Result<Self, PdnError> {
        if domains.is_empty() {
            return Err(PdnError::InvalidComponent {
                what: "domain list",
                value: 0.0,
            });
        }
        if !(max_current_per_bump.value() > 0.0 && max_current_per_bump.is_finite()) {
            return Err(PdnError::InvalidComponent {
                what: "per-bump current limit",
                value: max_current_per_bump.value(),
            });
        }
        let mut names: Vec<&str> = domains.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        if names.len() != before {
            return Err(PdnError::InvalidComponent {
                what: "domain names (duplicate)",
                value: before as f64,
            });
        }
        Ok(PackageLayout {
            name: name.into(),
            domains,
            max_current_per_bump,
        })
    }

    /// The mobile (Skylake-H-like, BGA) layout: the un-gated `VCU` domain
    /// plus four gated per-core domains (Fig. 1(b)).
    pub fn skylake_mobile() -> Self {
        // Constructed literally: the bump counts are non-zero constants and
        // the names are distinct, so `new`'s validation cannot fire.
        let domain = |name: &str, bumps: usize, gated: bool| VoltageDomain {
            name: name.to_owned(),
            bumps,
            gated,
        };
        PackageLayout {
            name: "Skylake-H BGA".to_owned(),
            domains: vec![
                domain("VCU", 64, false),
                domain("VC0G", 44, true),
                domain("VC1G", 44, true),
                domain("VC2G", 44, true),
                domain("VC3G", 44, true),
            ],
            max_current_per_bump: Amps::new(0.75),
        }
    }

    /// The DarkGates desktop (Skylake-S-like, LGA) layout: the mobile
    /// layout with all core domains shorted (Figs. 5, 6).
    pub fn skylake_desktop() -> Self {
        let mobile = Self::skylake_mobile();
        let mut layout = mobile
            .short_domains("VCC_CORES", |_| true)
            // dg-analyze: allow(no-panic-in-lib, reason = "the catch-all selector always matches the mobile layout's five domains")
            .expect("mobile layout has domains");
        layout.name = "Skylake-S LGA".to_owned();
        layout
    }

    /// The domains.
    pub fn domains(&self) -> &[VoltageDomain] {
        &self.domains
    }

    /// Looks up a domain.
    fn domain(&self, name: &str) -> Option<&VoltageDomain> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// The DarkGates package transform: merges every domain selected by
    /// `select` into a single *un-gated* domain named `merged_name`,
    /// pooling their bumps. Unselected domains are kept.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidComponent`] if `select` matches nothing.
    // dg-analyze: allow(unreached-pub, reason = "live (skylake_desktop runs it); crates/pdn/tests/extension_properties.rs names it")
    pub fn short_domains(
        &self,
        merged_name: impl Into<String>,
        select: impl Fn(&VoltageDomain) -> bool,
    ) -> Result<PackageLayout, PdnError> {
        let (merged, kept): (Vec<_>, Vec<_>) = self.domains.iter().partition(|d| select(d));
        if merged.is_empty() {
            return Err(PdnError::InvalidComponent {
                what: "shorting selection (matched no domain)",
                value: 0.0,
            });
        }
        let pooled = VoltageDomain {
            name: merged_name.into(),
            bumps: merged.iter().map(|d| d.bumps).sum(),
            gated: false,
        };
        let mut domains = vec![pooled];
        domains.extend(kept.into_iter().cloned());
        PackageLayout::new(
            format!("{} (shorted)", self.name),
            domains,
            self.max_current_per_bump,
        )
    }

    /// Maximum current a domain can carry within the per-bump EM limit.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::UnknownDomain`] if the domain does not exist.
    pub fn current_capacity(&self, domain: &str) -> Result<Amps, PdnError> {
        let d = self.domain(domain).ok_or_else(|| PdnError::UnknownDomain {
            name: domain.to_owned(),
        })?;
        Ok(self.max_current_per_bump * d.bumps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobile_layout_has_five_domains() {
        let p = PackageLayout::skylake_mobile();
        assert_eq!(p.domains().len(), 5);
        assert!(!p.domain("VCU").unwrap().gated);
        for core in ["VC0G", "VC1G", "VC2G", "VC3G"] {
            assert!(p.domain(core).unwrap().gated);
        }
    }

    #[test]
    fn desktop_shorting_pools_all_bumps() {
        let mobile = PackageLayout::skylake_mobile();
        let desktop = PackageLayout::skylake_desktop();
        assert_eq!(desktop.domains().len(), 1);
        let merged = desktop.domain("VCC_CORES").unwrap();
        assert!(!merged.gated);
        let total_bumps = |p: &PackageLayout| p.domains.iter().map(|d| d.bumps).sum::<usize>();
        assert_eq!(merged.bumps, total_bumps(&mobile));
        // Shorting conserves bumps.
        assert_eq!(total_bumps(&desktop), total_bumps(&mobile));
    }

    #[test]
    fn shorting_alleviates_em() {
        // Sec. 4.2: one core drawing a burst through its private domain
        // vs. through the pooled domain.
        let mobile = PackageLayout::skylake_mobile();
        let desktop = PackageLayout::skylake_desktop();
        let burst = Amps::new(34.0);
        let private = mobile.current_capacity("VC0G").unwrap();
        let pooled = desktop.current_capacity("VCC_CORES").unwrap();
        // Per-bump current is the burst over the bumps, so pooling cuts it
        // by the capacity ratio.
        assert!(
            private.value() < 0.25 * pooled.value(),
            "pooled {pooled} vs private {private}"
        );
        // The private domain violates the EM limit on this burst; the
        // pooled one does not.
        assert!(burst > private);
        assert!(burst <= pooled);
    }

    #[test]
    fn capacity_scales_with_bumps() {
        let p = PackageLayout::skylake_mobile();
        let cap_core = p.current_capacity("VC0G").unwrap();
        let cap_all = PackageLayout::skylake_desktop()
            .current_capacity("VCC_CORES")
            .unwrap();
        assert!((cap_core.value() - 33.0).abs() < 1e-9);
        assert!(cap_all.value() > 4.0 * cap_core.value());
    }

    #[test]
    fn partial_shorting_keeps_other_domains() {
        let p = PackageLayout::skylake_mobile();
        // Short only cores 0 and 1.
        let partial = p
            .short_domains("VC01", |d| d.name == "VC0G" || d.name == "VC1G")
            .unwrap();
        assert_eq!(partial.domains().len(), 4);
        assert_eq!(partial.domain("VC01").unwrap().bumps, 88);
        assert!(partial.domain("VCU").is_some());
        assert!(partial.domain("VC2G").is_some());
    }

    #[test]
    fn empty_selection_rejected() {
        let p = PackageLayout::skylake_mobile();
        assert!(p.short_domains("X", |d| d.name == "nope").is_err());
    }

    #[test]
    fn validation() {
        assert!(VoltageDomain::new("x", 0, false).is_err());
        let d = vec![VoltageDomain::new("a", 10, false).unwrap()];
        assert!(PackageLayout::new("p", vec![], Amps::new(1.0)).is_err());
        assert!(PackageLayout::new("p", d.clone(), Amps::ZERO).is_err());
        let dup = vec![
            VoltageDomain::new("a", 10, false).unwrap(),
            VoltageDomain::new("a", 10, false).unwrap(),
        ];
        assert!(PackageLayout::new("p", dup, Amps::new(1.0)).is_err());
    }

    #[test]
    fn unknown_domain_is_a_typed_error() {
        let p = PackageLayout::skylake_mobile();
        let err = p.current_capacity("nope").unwrap_err();
        assert_eq!(
            err,
            PdnError::UnknownDomain {
                name: "nope".to_owned()
            }
        );
    }

    #[test]
    fn literal_skylake_layouts_pass_validation() {
        // The hand-constructed constants must satisfy everything `new`
        // checks, or the constructors have drifted from the validator.
        for p in [
            PackageLayout::skylake_mobile(),
            PackageLayout::skylake_desktop(),
        ] {
            assert!(PackageLayout::new(
                p.name.clone(),
                p.domains().to_vec(),
                p.max_current_per_bump
            )
            .is_ok());
        }
    }
}
