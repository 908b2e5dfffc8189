//! DarkGates operating modes and the silicon fuse that selects them.
//!
//! The firmware recognizes the target package from a factory-programmed
//! fuse (paper Sec. 5, footnote 10) and runs in one of two modes:
//!
//! * **bypass** — Skylake-S-like desktop package: power-gates shorted,
//!   improved V/F curves, package C8 enabled;
//! * **normal** — Skylake-H-like mobile package: power-gates active,
//!   leakage savings, package C-states per the mobile table.

use dg_pdn::skylake::PdnVariant;
use std::fmt;

/// A factory-programmed configuration fuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fuse {
    /// Raw fuse word (bit 0: bypass enable).
    raw: u32,
}

impl Fuse {
    /// Bit 0 of the fuse word selects bypass mode.
    const BYPASS_BIT: u32 = 1;

    /// Creates a fuse from its raw word.
    // dg-analyze: allow(unreached-pub, reason = "only modes::tests call it; deleting it retires raw_round_trip (ROADMAP item 4)")
    pub fn from_raw(raw: u32) -> Self {
        Fuse { raw }
    }

    /// The fuse programmed into desktop (Skylake-S-like) parts.
    pub fn desktop() -> Self {
        Fuse {
            raw: Self::BYPASS_BIT,
        }
    }

    /// The fuse programmed into mobile (Skylake-H-like) parts.
    pub fn mobile() -> Self {
        Fuse { raw: 0 }
    }

    /// Raw fuse word.
    pub fn raw(self) -> u32 {
        self.raw
    }

    /// Decodes the operating mode.
    pub fn mode(self) -> OperatingMode {
        if self.raw & Self::BYPASS_BIT != 0 {
            OperatingMode::Bypass
        } else {
            OperatingMode::Normal
        }
    }
}

/// The firmware operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingMode {
    /// Power-gates bypassed (desktop / DarkGates).
    Bypass,
    /// Power-gates active (mobile / baseline).
    Normal,
}

impl OperatingMode {
    /// The PDN topology this mode runs on.
    pub fn pdn_variant(self) -> PdnVariant {
        match self {
            OperatingMode::Bypass => PdnVariant::Bypassed,
            OperatingMode::Normal => PdnVariant::Gated,
        }
    }

    /// `true` when idle cores cannot be power-gated (their leakage must be
    /// charged to the compute budget).
    // dg-analyze: allow(unreached-pub, reason = "only modes::tests calls it; deleting it retires bypass_charges_idle_leakage (ROADMAP item 4)")
    pub fn charges_idle_leakage(self) -> bool {
        self == OperatingMode::Bypass
    }

    /// Approximate firmware size of the DarkGates mode-handling flow
    /// (paper Sec. 5: ~0.3 KB of Pcode).
    pub const FIRMWARE_BYTES: usize = 300;
}

impl fmt::Display for OperatingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OperatingMode::Bypass => "bypass",
            OperatingMode::Normal => "normal",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_decoding() {
        assert_eq!(Fuse::desktop().mode(), OperatingMode::Bypass);
        assert_eq!(Fuse::mobile().mode(), OperatingMode::Normal);
        assert_eq!(Fuse::from_raw(0b11).mode(), OperatingMode::Bypass);
        assert_eq!(Fuse::from_raw(0b10).mode(), OperatingMode::Normal);
    }

    #[test]
    fn mode_to_pdn_variant() {
        assert_eq!(OperatingMode::Bypass.pdn_variant(), PdnVariant::Bypassed);
        assert_eq!(OperatingMode::Normal.pdn_variant(), PdnVariant::Gated);
    }

    #[test]
    fn bypass_charges_idle_leakage() {
        assert!(OperatingMode::Bypass.charges_idle_leakage());
        assert!(!OperatingMode::Normal.charges_idle_leakage());
    }

    #[test]
    fn firmware_overhead_is_tiny() {
        assert_eq!(OperatingMode::FIRMWARE_BYTES, 300);
    }

    #[test]
    fn displays() {
        assert_eq!(OperatingMode::Bypass.to_string(), "bypass");
        assert_eq!(OperatingMode::Normal.to_string(), "normal");
    }

    #[test]
    fn raw_round_trip() {
        assert_eq!(Fuse::from_raw(42).raw(), 42);
    }
}
