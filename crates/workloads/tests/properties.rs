//! Property-based tests for workload-model invariants.

use dg_cstates::power::{GatingConfig, IdlePowerModel};
use dg_cstates::states::PackageCstate;
use dg_power::units::{Hertz, Seconds, Volts, Watts};
use dg_workloads::energy::{EnergyWorkload, Phase, PhaseKind};
use dg_workloads::spec::{suite, SpecBenchmark, SpecSuite};
use dg_workloads::trace::bursty;
use proptest::prelude::*;

proptest! {
    /// Speedup is monotone in frequency and bounded by the frequency ratio.
    #[test]
    fn speedup_monotone_and_bounded(
        s in 0.0..=1.0f64,
        f1 in 1e9..5e9f64,
        f2 in 1e9..5e9f64,
    ) {
        let b = SpecBenchmark { name: "prop", suite: SpecSuite::Int, scalability: s };
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let ref_f = 3e9;
        prop_assert!(b.speedup(hi, ref_f) >= b.speedup(lo, ref_f) - 1e-12);
        // Speedup never exceeds the raw frequency ratio.
        let up = b.speedup(hi, lo);
        prop_assert!(up <= hi / lo + 1e-12);
        prop_assert!(up >= 1.0 - 1e-12);
    }

    /// Limit behaviours: a fully scalable workload speeds up exactly with
    /// frequency; a fully memory-bound one not at all; identity at equal
    /// frequency. (Note the model's scalability factor is anchored at the
    /// reference frequency, so speedups do NOT compose across different
    /// anchors — that is a property of the definition, not a bug.)
    #[test]
    fn speedup_limits(
        s in 0.0..=1.0f64,
        f in 1e9..5e9f64,
        fref in 1e9..5e9f64,
    ) {
        let b = SpecBenchmark { name: "prop", suite: SpecSuite::Fp, scalability: s };
        prop_assert!((b.speedup(fref, fref) - 1.0).abs() < 1e-12);
        let scalable = SpecBenchmark { name: "s1", suite: SpecSuite::Fp, scalability: 1.0 };
        prop_assert!((scalable.speedup(f, fref) - f / fref).abs() < 1e-9 * (f / fref));
        let bound = SpecBenchmark { name: "s0", suite: SpecSuite::Fp, scalability: 0.0 };
        prop_assert!((bound.speedup(f, fref) - 1.0).abs() < 1e-12);
    }

    /// Every suite benchmark has a Cdyn in the physical band.
    #[test]
    fn suite_cdyn_bounded(idx in 0..29usize) {
        let b = &suite()[idx];
        // C_dyn in nF: the dynamic power in W at 1 V and 1 GHz.
        let nf = b.cdyn().power(Volts::new(1.0), Hertz::from_ghz(1.0)).value();
        prop_assert!((0.9..1.7).contains(&nf), "{}: {nf}", b.name);
    }

    /// Synthetic energy traces always satisfy the residency algebra and
    /// yield an average power bracketed by their phase powers.
    #[test]
    fn synthetic_energy_traces_valid(
        idle in 0.90..=0.999f64,
        busy_power in 2.0..10.0f64,
        idle_cores in 0..4usize,
    ) {
        // An RMT-like two-phase trace: mostly C10, the rest active.
        let wl = EnergyWorkload {
            name: "synthetic-energy",
            phases: vec![
                Phase {
                    kind: PhaseKind::Idle { requested: PackageCstate::C10 },
                    weight: idle,
                },
                Phase {
                    kind: PhaseKind::Active { busy_power: Watts::new(busy_power), idle_cores },
                    weight: 1.0 - idle,
                },
            ],
            limit: Watts::new(1.0),
        };
        let weight_sum: f64 = wl.phases.iter().map(|p| p.weight).sum();
        prop_assert!((weight_sum - 1.0).abs() < 1e-9);
        let model = IdlePowerModel::new();
        for bypassed in [false, true] {
            let cfg = GatingConfig::skylake(bypassed, 4);
            let deep = wl.average_power(&model, &cfg, PackageCstate::C8);
            let shallow = wl.average_power(&model, &cfg, PackageCstate::C6);
            prop_assert!(deep <= shallow, "deeper ceiling must not cost power");
        }
    }

    /// Bursty traces conserve total time and alternate phases.
    #[test]
    fn bursty_traces_conserve_time(
        seed in 0..500u64,
        total in 1.0..60.0f64,
        mean_busy in 0.01..1.0f64,
        mean_idle in 0.01..1.0f64,
    ) {
        let t = bursty(
            seed,
            Seconds::new(total),
            Seconds::new(mean_busy),
            Seconds::new(mean_idle),
            2,
        );
        prop_assert!((t.total_duration().value() - total).abs() < 1e-6);
        prop_assert!(t.busy_fraction() >= 0.0 && t.busy_fraction() <= 1.0);
        for p in &t.phases {
            prop_assert!(p.duration.value() >= 0.0);
        }
    }
}
