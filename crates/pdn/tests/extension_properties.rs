//! Property-based tests for the PDN extension modules: package domains
//! and di/dt analysis.

use dg_pdn::package::{PackageLayout, VoltageDomain};
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
use dg_pdn::transient::{LoadStep, TransientSim};
use dg_pdn::units::{Amps, Seconds, Volts};
use proptest::prelude::*;

proptest! {
    /// Shorting any non-empty subset of domains conserves total bumps and
    /// never reduces the merged domain's capacity below the largest
    /// constituent's.
    #[test]
    fn shorting_conserves_bumps(mask in 1u8..31) {
        let layout = PackageLayout::skylake_mobile();
        let names = ["VCU", "VC0G", "VC1G", "VC2G", "VC3G"];
        let selected: Vec<&str> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        let total_bumps = |p: &PackageLayout| p.domains().iter().map(|d| d.bumps).sum::<usize>();
        let shorted = layout
            .short_domains("MERGED", |d| selected.contains(&d.name.as_str()))
            .expect("non-empty selection");
        prop_assert_eq!(total_bumps(&shorted), total_bumps(&layout));
        let merged_cap = shorted.current_capacity("MERGED").unwrap();
        for name in &selected {
            prop_assert!(merged_cap.value() >= layout.current_capacity(name).unwrap().value());
        }
        // Domain count shrinks by (selected - 1).
        prop_assert_eq!(
            shorted.domains().len(),
            layout.domains().len() - selected.len() + 1
        );
    }

    /// Per-bump current scales inversely with bump count: a domain's EM
    /// capacity is the per-bump limit times its bumps.
    #[test]
    fn per_bump_current_inverse_in_bumps(bumps in 1usize..500) {
        let d = VoltageDomain::new("d", bumps, false).unwrap();
        let layout = PackageLayout::new("p", vec![d], Amps::new(0.75)).unwrap();
        let capacity = layout.current_capacity("d").unwrap();
        prop_assert!((capacity.value() / bumps as f64 - 0.75).abs() < 1e-12);
    }

}

proptest! {
    // Each case runs two 30 µs transient simulations; keep the case count
    // low so debug-mode test runs stay fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Droop grows monotonically with the event's current step.
    #[test]
    fn droop_monotone_in_step(d1 in 5.0..30.0f64, extra in 1.0..30.0f64) {
        let pdn = SkylakePdn::build(PdnVariant::Gated);
        let sim = TransientSim {
            source: Volts::new(1.0),
            dt: Seconds::from_ns(0.2),
            duration: Seconds::from_us(30.0),
            decimate: 256,
        };
        let mk = |delta: f64| LoadStep {
            from: Amps::new(5.0),
            to: Amps::new(5.0 + delta),
            at: Seconds::from_us(1.0),
            slew: Seconds::from_ns(5.0),
        };
        let runs = sim.run_batch(&pdn.ladder, &[mk(d1), mk(d1 + extra)]);
        prop_assert!(runs[1].droop() >= runs[0].droop());
    }
}
