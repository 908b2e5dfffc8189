//! Property-based tests for the SoC simulator.

use dg_power::dynamic::CdynProfile;
use dg_power::units::{Seconds, Watts};
use dg_soc::products::Product;
use dg_soc::sim::{SimConfig, Simulator};
use proptest::prelude::*;

fn quick() -> SimConfig {
    SimConfig {
        duration: Seconds::new(40.0),
        dt: Seconds::new(0.5),
        trace: false,
    }
}

fn tdp_level(idx: usize) -> Watts {
    Product::skylake_tdp_levels()[idx % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator never exceeds Tjmax (+1 °C transient tolerance) or
    /// PL2 for any workload intensity on any catalog part.
    #[test]
    fn limits_hold_for_any_workload(
        tdp_idx in 0..4usize,
        bypassed in prop::bool::ANY,
        cores in 1..5usize,
        cdyn in 0.9..2.2f64,
    ) {
        let tdp = tdp_level(tdp_idx);
        let p = if bypassed {
            Product::skylake_s(tdp)
        } else {
            Product::skylake_h(tdp)
        };
        let sim = Simulator::new(&p);
        let r = sim.run_cpu(
            &p.table_ac,
            cores,
            CdynProfile::from_nf(cdyn).unwrap(),
            quick(),
        );
        prop_assert!(r.max_tj.value() <= p.limits.tjmax.value() + 1.0,
            "{}: Tj {}", p.name, r.max_tj);
        prop_assert!(r.avg_power <= p.limits.power.pl2 + Watts::new(1e-6));
        prop_assert!(r.avg_frequency >= p.table_ac.pn().frequency);
        prop_assert!(r.avg_frequency <= p.table_ac.p0().frequency);
    }

    /// More active cores at the same Cdyn never increases the sustained
    /// frequency.
    #[test]
    fn frequency_monotone_in_core_count(
        tdp_idx in 0..4usize,
        c1 in 1..5usize,
        c2 in 1..5usize,
    ) {
        prop_assume!(c1 < c2);
        let p = Product::skylake_h(tdp_level(tdp_idx));
        let sim = Simulator::new(&p);
        let few = sim.run_cpu(&p.table_ac, c1, CdynProfile::core_typical(), quick());
        let many = sim.run_cpu(&p.table_ac, c2, CdynProfile::core_typical(), quick());
        prop_assert!(
            many.sustained_frequency <= few.sustained_frequency + dg_power::units::Hertz::from_mhz(1.0)
        );
    }

    /// A heavier workload (higher Cdyn) never sustains a higher frequency.
    #[test]
    fn frequency_monotone_in_cdyn(
        tdp_idx in 0..4usize,
        light in 0.9..1.5f64,
        delta in 0.1..0.8f64,
    ) {
        let p = Product::skylake_s(tdp_level(tdp_idx));
        let sim = Simulator::new(&p);
        let a = sim.run_cpu(&p.table_ac, 4, CdynProfile::from_nf(light).unwrap(), quick());
        let b = sim.run_cpu(&p.table_ac, 4, CdynProfile::from_nf(light + delta).unwrap(), quick());
        prop_assert!(
            b.sustained_frequency <= a.sustained_frequency + dg_power::units::Hertz::from_mhz(1.0)
        );
    }

    /// The DarkGates part never sustains a lower single-core frequency
    /// than its gated sibling on the same workload.
    #[test]
    fn darkgates_never_slower_single_core(
        tdp_idx in 0..4usize,
        cdyn in 0.9..1.8f64,
    ) {
        let tdp = tdp_level(tdp_idx);
        let s = Product::skylake_s(tdp);
        let h = Product::skylake_h(tdp);
        let fs = Simulator::new(&s)
            .run_cpu(&s.table_1c, 1, CdynProfile::from_nf(cdyn).unwrap(), quick())
            .sustained_frequency;
        let fh = Simulator::new(&h)
            .run_cpu(&h.table_1c, 1, CdynProfile::from_nf(cdyn).unwrap(), quick())
            .sustained_frequency;
        prop_assert!(fs >= fh, "{tdp}: {fs} < {fh}");
    }
}
