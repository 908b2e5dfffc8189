//! Property-based tests for C-state invariants.

use dg_cstates::power::{GatingConfig, IdlePowerModel};
use dg_cstates::residency::ResidencyTracker;
use dg_cstates::resolve::{resolve, PlatformInputs};
use dg_cstates::states::{CoreCstate, DisplayState, GraphicsCstate, MemoryState, PackageCstate};
use dg_power::units::{Seconds, Watts};
use proptest::prelude::*;

fn arb_core_state() -> impl Strategy<Value = CoreCstate> {
    prop::sample::select(CoreCstate::ALL.to_vec())
}

fn arb_package_state() -> impl Strategy<Value = PackageCstate> {
    prop::sample::select(PackageCstate::ALL.to_vec())
}

fn arb_inputs() -> impl Strategy<Value = PlatformInputs> {
    (
        prop::collection::vec(arb_core_state(), 1..8),
        prop::bool::ANY,
        0..3u8,
        prop::bool::ANY,
        prop::bool::ANY,
        arb_package_state(),
    )
        .prop_map(
            |(cores, gfx_active, display, mem_sr, llc, deepest)| PlatformInputs {
                cores,
                graphics: if gfx_active {
                    GraphicsCstate::Rc0
                } else {
                    GraphicsCstate::Rc6
                },
                display: match display {
                    0 => DisplayState::On,
                    1 => DisplayState::SelfRefresh,
                    _ => DisplayState::Off,
                },
                memory: if mem_sr {
                    MemoryState::SelfRefresh
                } else {
                    MemoryState::Active
                },
                llc_flushed: llc,
                deepest_allowed: deepest,
            },
        )
}

proptest! {
    /// Resolution never exceeds the platform's deepest allowed state.
    #[test]
    fn resolution_respects_platform_ceiling(inputs in arb_inputs()) {
        prop_assert!(resolve(&inputs) <= inputs.deepest_allowed);
    }

    /// Resolution is monotone: deepening any single core's state never
    /// makes the package state shallower.
    #[test]
    fn resolution_monotone_in_core_states(inputs in arb_inputs(), idx in 0..8usize) {
        let base = resolve(&inputs);
        let i = idx % inputs.cores.len();
        let mut deeper = inputs.clone();
        deeper.cores[i] = CoreCstate::Cc7;
        if deeper.cores[i] >= inputs.cores[i] {
            prop_assert!(resolve(&deeper) >= base,
                "deepening core {i} took package from {base} to {}", resolve(&deeper));
        }
    }

    /// Any core with clocks on (CC0/CC1) or active graphics forces package
    /// C0; conversely, all-clocks-off plus idle graphics always leaves C0.
    #[test]
    fn clocks_on_forces_c0(inputs in arb_inputs()) {
        let any_shallow = inputs.cores.iter().any(|c| !c.clocks_off())
            || inputs.graphics.is_active();
        if any_shallow {
            prop_assert_eq!(resolve(&inputs), PackageCstate::C0);
        } else {
            // Unless the platform ceiling itself is C0, some idle state is
            // always reachable.
            prop_assert!(
                resolve(&inputs) > PackageCstate::C0
                    || inputs.deepest_allowed == PackageCstate::C0
            );
        }
    }

    /// Active DRAM pins the package at C2 or shallower.
    #[test]
    fn active_dram_blocks_deep_states(inputs in arb_inputs()) {
        if inputs.memory == MemoryState::Active {
            prop_assert!(resolve(&inputs) <= PackageCstate::C2);
        }
    }

    /// Idle package power never increases with depth, for both gating
    /// configurations.
    #[test]
    fn idle_power_monotone_with_depth(bypassed in prop::bool::ANY, cores in 1..8usize) {
        let model = IdlePowerModel::new();
        let cfg = GatingConfig::skylake(bypassed, cores);
        let idle_states = &PackageCstate::ALL[1..];
        for w in idle_states.windows(2) {
            let a = model.package_idle_power(w[0], &cfg);
            let b = model.package_idle_power(w[1], &cfg);
            prop_assert!(b <= a, "{} {a} -> {} {b}", w[0], w[1]);
        }
    }

    /// Bypassed packages never idle cheaper than gated ones (same state).
    #[test]
    fn bypassed_never_cheaper(state_idx in 1..8usize, cores in 1..8usize) {
        let state = PackageCstate::ALL[state_idx];
        let model = IdlePowerModel::new();
        let gated = GatingConfig::skylake(false, cores);
        let bypassed = GatingConfig::skylake(true, cores);
        prop_assert!(
            model.package_idle_power(state, &bypassed)
                >= model.package_idle_power(state, &gated)
        );
    }

    /// Residency fractions always sum to 1 (when anything is recorded) and
    /// average power is bracketed by the min and max state powers.
    #[test]
    fn residency_fractions_and_average(
        idle_secs in prop::collection::vec((1..7usize, 0.0..100.0f64), 1..6),
        active in (0.0..50.0f64, 0.0..10.0f64),
    ) {
        let model = IdlePowerModel::new();
        let cfg = GatingConfig::skylake(true, 4);
        let mut t = ResidencyTracker::new();
        let mut powers = Vec::new();
        for (si, secs) in &idle_secs {
            let state = PackageCstate::ALL[*si];
            t.record_idle(state, Seconds::new(*secs));
            powers.push(model.package_idle_power(state, &cfg).value());
        }
        let (p_active, secs_active) = active;
        t.record_active(Watts::new(p_active), Seconds::new(secs_active));
        powers.push(p_active);

        let total: f64 = idle_secs.iter().map(|(_, s)| *s).sum::<f64>() + secs_active;
        prop_assume!(total > 0.0);
        prop_assert!((t.total().value() - total).abs() < 1e-9);

        let frac_sum: f64 = PackageCstate::ALL[1..]
            .iter()
            .map(|s| t.idle_fraction(*s))
            .sum::<f64>()
            + t.active_fraction();
        prop_assert!((frac_sum - 1.0).abs() < 1e-9);

        let avg = t.average_power(&model, &cfg).value();
        let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = powers.iter().cloned().fold(0.0, f64::max);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} not in [{lo}, {hi}]");
    }
}
