//! Implementation-cost accounting (paper Sec. 5).
//!
//! DarkGates costs almost nothing on the die: the mode-handling firmware is
//! ~0.3 KB of Pcode, a negligible fraction of the die; the package C8 flows
//! already exist in the mobile baseline; only the two package designs are
//! genuinely distinct artifacts — and those already exist for market
//! reasons (LGA desktop vs. BGA mobile).

use dg_pmu::OperatingMode;

/// Die area of the modeled Skylake 4+2 die in mm² (client 4-core + GT2).
const DIE_AREA_MM2: f64 = 122.3;

/// Approximate silicon area of one byte of Pcode ROM at 14 nm, mm²
/// (high-density ROM, ~0.016 mm² per KB).
const ROM_MM2_PER_BYTE: f64 = 0.016 / 1024.0;

/// Number of distinct packages the hybrid needs (LGA desktop + BGA mobile).
const PACKAGE_DESIGNS: usize = 2;

/// Hardware-cost summary of the DarkGates implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Firmware bytes added.
    pub firmware_bytes: usize,
    /// Firmware area as a fraction of the die.
    pub firmware_die_fraction: f64,
    /// Distinct package designs required.
    pub package_designs: usize,
    /// Additional hardware for the desktop C8 support (the flows exist in
    /// the mobile baseline, so zero).
    pub c8_hardware_cost: usize,
}

/// Computes the overhead report.
pub fn report() -> OverheadReport {
    let firmware_bytes = OperatingMode::FIRMWARE_BYTES;
    OverheadReport {
        firmware_bytes,
        firmware_die_fraction: firmware_bytes as f64 * ROM_MM2_PER_BYTE / DIE_AREA_MM2,
        package_designs: PACKAGE_DESIGNS,
        c8_hardware_cost: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firmware_fraction_below_paper_bound() {
        // Paper Sec. 5: < 0.004 % of the die.
        let r = report();
        assert!(
            r.firmware_die_fraction < 0.004 / 100.0,
            "fraction {} too large",
            r.firmware_die_fraction
        );
        assert!(r.firmware_die_fraction > 0.0);
    }

    #[test]
    fn firmware_is_300_bytes() {
        assert_eq!(report().firmware_bytes, 300);
    }

    #[test]
    fn c8_reuses_mobile_flows() {
        assert_eq!(report().c8_hardware_cost, 0);
        assert_eq!(report().package_designs, 2);
    }
}
