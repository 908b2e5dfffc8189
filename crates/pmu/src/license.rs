//! Instruction-intensity licenses (ICCP / AVX frequency levels).
//!
//! The power-virus level of Fig. 2(c) depends not only on how many cores
//! are active but on *what they execute* (paper Sec. 2.3: "number of
//! active cores and instructions' computational intensity"). Wide-vector
//! units have their own fine-grained power-gates (footnote 7) and their
//! own worst-case current: running AVX2/AVX-512 raises the applicable
//! virus level and costs a frequency offset while the guardband is
//! re-established.

use dg_pdn::loadline::VirusLevelTable;
use dg_pdn::units::{Amps, Hertz, Seconds};

/// Instruction-intensity license classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum License {
    /// Scalar / SSE-class code.
    #[default]
    L0,
    /// Heavy AVX2-class code (256-bit units active).
    L1,
    /// AVX-512-class code (widest units active).
    L2,
}

impl License {
    /// All licenses, lightest first.
    pub const ALL: [License; 3] = [License::L0, License::L1, License::L2];

    /// Multiplier on the per-core worst-case current for this license.
    fn current_factor(self) -> f64 {
        match self {
            License::L0 => 1.0,
            License::L1 => 1.25,
            License::L2 => 1.55,
        }
    }

    /// Frequency offset (in 100 MHz bins) the part fuses for this license
    /// (the familiar "AVX offset").
    fn frequency_offset_bins(self) -> u32 {
        match self {
            License::L0 => 0,
            License::L1 => 2,
            License::L2 => 5,
        }
    }

    /// The frequency offset in hertz.
    fn frequency_offset(self) -> Hertz {
        Hertz::from_mhz(self.frequency_offset_bins() as f64 * 100.0)
    }

    /// Time to grant an *upgrade* to this license: the wide units'
    /// power-gates wake with a staggered ramp and the guardband must be
    /// re-established first (stall or reduced throughput meanwhile).
    fn grant_latency(self) -> Seconds {
        match self {
            License::L0 => Seconds::ZERO,
            License::L1 => Seconds::from_us(10.0),
            License::L2 => Seconds::from_us(20.0),
        }
    }
}

/// Tracks the current license and resolves virus levels for
/// (active-cores, license) system states.
#[derive(Debug, Clone, PartialEq)]
pub struct LicenseManager {
    current: License,
    /// Upgrades granted (telemetry).
    pub upgrades: u64,
    /// Downgrades applied.
    pub downgrades: u64,
}

impl LicenseManager {
    /// Starts at the scalar license.
    pub fn new() -> Self {
        LicenseManager {
            current: License::L0,
            upgrades: 0,
            downgrades: 0,
        }
    }

    /// The license currently in force.
    pub fn current(&self) -> License {
        self.current
    }

    /// Requests a license; returns the grant latency (zero for downgrades
    /// or no-ops).
    pub fn request(&mut self, license: License) -> Seconds {
        use std::cmp::Ordering;
        match license.cmp(&self.current) {
            Ordering::Greater => {
                self.current = license;
                self.upgrades += 1;
                license.grant_latency()
            }
            Ordering::Less => {
                self.current = license;
                self.downgrades += 1;
                Seconds::ZERO
            }
            Ordering::Equal => Seconds::ZERO,
        }
    }

    /// Worst-case current for `active_cores` cores under the current
    /// license, given the per-core base virus current.
    fn virus_current(&self, active_cores: usize, per_core_base: Amps) -> Amps {
        per_core_base * active_cores as f64 * self.current.current_factor()
    }

    /// The virus level index in `table` for the present system state, or
    /// `None` if it exceeds even the top level (an EDC violation the PMU
    /// must prevent).
    // dg-analyze: allow(unreached-pub, reason = "only tests call it (license::tests, tests/full_system.rs); deleting it retires those tests (ROADMAP item 4)")
    pub fn virus_level(
        &self,
        table: &VirusLevelTable,
        active_cores: usize,
        per_core_base: Amps,
    ) -> Option<usize> {
        table.level_for(self.virus_current(active_cores, per_core_base))
    }

    /// The effective frequency ceiling after the license offset.
    ///
    /// # Panics
    ///
    /// Panics if the offset exceeds the ceiling itself.
    pub fn effective_ceiling(&self, fused: Hertz) -> Hertz {
        let offset = self.current.frequency_offset();
        assert!(offset < fused, "offset {offset} exceeds ceiling {fused}");
        fused - offset
    }
}

impl Default for LicenseManager {
    fn default() -> Self {
        LicenseManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_pdn::loadline::{LoadLine, VirusLevel};
    use dg_pdn::units::Ohms;

    fn table() -> VirusLevelTable {
        let ll = LoadLine::new(Ohms::from_mohm(1.6)).unwrap();
        VirusLevelTable::new(
            ll,
            vec![
                VirusLevel::new("1 core", Amps::new(34.0)),
                VirusLevel::new("2 cores", Amps::new(62.0)),
                VirusLevel::new("4 cores", Amps::new(118.0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn licenses_order_by_intensity() {
        assert!(License::L0 < License::L1);
        assert!(License::L1 < License::L2);
        for w in License::ALL.windows(2) {
            assert!(w[0].current_factor() < w[1].current_factor());
            assert!(w[0].frequency_offset_bins() < w[1].frequency_offset_bins());
            assert!(w[0].grant_latency() <= w[1].grant_latency());
        }
    }

    #[test]
    fn upgrade_costs_latency_downgrade_does_not() {
        let mut m = LicenseManager::new();
        let up = m.request(License::L2);
        assert!(up > Seconds::ZERO);
        assert_eq!(m.current(), License::L2);
        let down = m.request(License::L0);
        assert_eq!(down, Seconds::ZERO);
        assert_eq!(m.upgrades, 1);
        assert_eq!(m.downgrades, 1);
        // No-op request.
        assert_eq!(m.request(License::L0), Seconds::ZERO);
        assert_eq!(m.upgrades, 1);
    }

    #[test]
    fn avx_raises_the_virus_level() {
        let t = table();
        let base = Amps::new(26.0);
        let mut m = LicenseManager::new();
        // 2 scalar cores: 52 A -> level 1.
        assert_eq!(m.virus_level(&t, 2, base), Some(1));
        // The same 2 cores under AVX-512: 80.6 A -> level 2.
        m.request(License::L2);
        assert_eq!(m.virus_level(&t, 2, base), Some(2));
    }

    #[test]
    fn avx512_on_all_cores_can_exceed_edc() {
        let t = table();
        let mut m = LicenseManager::new();
        m.request(License::L2);
        // 4 × 26 A × 1.55 = 161 A > 118 A top level.
        assert_eq!(m.virus_level(&t, 4, Amps::new(26.0)), None);
    }

    #[test]
    fn frequency_offsets_apply() {
        let mut m = LicenseManager::new();
        let fused = Hertz::from_ghz(4.2);
        assert_eq!(m.effective_ceiling(fused), fused);
        m.request(License::L1);
        assert!((m.effective_ceiling(fused).as_mhz() - 4000.0).abs() < 1e-6);
        m.request(License::L2);
        assert!((m.effective_ceiling(fused).as_mhz() - 3700.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "exceeds ceiling")]
    fn offset_beyond_ceiling_panics() {
        let mut m = LicenseManager::new();
        m.request(License::L2);
        m.effective_ceiling(Hertz::from_mhz(400.0));
    }
}
