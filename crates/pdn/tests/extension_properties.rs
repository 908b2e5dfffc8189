//! Property-based tests for the PDN extension modules: package domains
//! and di/dt analysis.

use dg_pdn::didt::{analyze, DidtEvent};
use dg_pdn::package::{PackageLayout, VoltageDomain};
use dg_pdn::skylake::{PdnVariant, SkylakePdn};
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
        let before = layout.total_bumps();
        let shorted = layout
            .short_domains("MERGED", |d| selected.contains(&d.name.as_str()))
            .expect("non-empty selection");
        prop_assert_eq!(shorted.total_bumps(), before);
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

    /// Per-bump current scales inversely with bump count.
    #[test]
    fn per_bump_current_inverse_in_bumps(bumps in 1usize..500, current in 0.1..200.0f64) {
        let d = VoltageDomain::new("d", bumps, false).unwrap();
        let layout = PackageLayout::new("p", vec![d], Amps::new(0.75)).unwrap();
        let per = layout.per_bump_current("d", Amps::new(current)).unwrap();
        prop_assert!((per.value() - current / bumps as f64).abs() < 1e-12);
        prop_assert_eq!(
            layout.within_em_limit("d", Amps::new(current)).unwrap(),
            per.value() <= 0.75
        );
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
        let mk = |delta: f64| DidtEvent {
            name: "e".into(),
            delta: Amps::new(delta),
            slew: Seconds::from_ns(5.0),
        };
        let a = analyze(
            &pdn.ladder,
            &[mk(d1), mk(d1 + extra)],
            Volts::new(1.0),
            Volts::new(0.6),
            Amps::new(5.0),
        );
        prop_assert!(a.results[1].droop >= a.results[0].droop);
        prop_assert!(a.worst_droop >= a.results[1].droop);
    }
}
