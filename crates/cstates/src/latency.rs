//! Package C-state entry/exit latencies and break-even analysis.
//!
//! Deeper states save more power but cost more to enter and leave; an idle
//! period only pays off if it exceeds the state's *break-even time*. The PMU
//! uses these numbers to demote requests for idle windows that are too
//! short.

use crate::states::PackageCstate;
use dg_power::units::{Seconds, Watts};

/// Entry/exit latencies for each package state.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTable {
    entries: Vec<(PackageCstate, Seconds, Seconds)>,
}

impl LatencyTable {
    /// The calibrated Skylake-class table (microseconds): latencies grow
    /// roughly geometrically with depth; C8 costs about twice C7 because the
    /// core VR must ramp back up.
    pub fn skylake() -> Self {
        let us = Seconds::from_us;
        LatencyTable {
            entries: vec![
                (PackageCstate::C0, us(0.0), us(0.0)),
                (PackageCstate::C2, us(1.0), us(1.0)),
                (PackageCstate::C3, us(20.0), us(30.0)),
                (PackageCstate::C6, us(50.0), us(85.0)),
                (PackageCstate::C7, us(60.0), us(100.0)),
                (PackageCstate::C8, us(120.0), us(200.0)),
                (PackageCstate::C9, us(250.0), us(400.0)),
                (PackageCstate::C10, us(500.0), us(900.0)),
            ],
        }
    }

    /// Entry latency of `state`.
    pub fn entry(&self, state: PackageCstate) -> Seconds {
        self.lookup(state).1
    }

    /// Exit (wake) latency of `state`.
    pub fn exit(&self, state: PackageCstate) -> Seconds {
        self.lookup(state).2
    }

    /// Total transition overhead (entry + exit).
    pub fn round_trip(&self, state: PackageCstate) -> Seconds {
        self.entry(state) + self.exit(state)
    }

    fn lookup(&self, state: PackageCstate) -> (PackageCstate, Seconds, Seconds) {
        self.entries
            .iter()
            .find(|(s, _, _)| *s == state)
            .copied()
            // Unreachable: construction covers every package state.
            .unwrap_or((state, Seconds::ZERO, Seconds::ZERO))
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable::skylake()
    }
}

/// Minimum idle duration for which entering `deep` beats staying in
/// `shallow`: the energy spent transitioning (approximated as the shallow
/// power held for the round-trip latency) must be recovered by the power
/// saving.
///
/// Returns `None` if `deep` does not actually save power.
pub fn break_even_time(
    table: &LatencyTable,
    shallow_power: Watts,
    deep_power: Watts,
    deep: PackageCstate,
) -> Option<Seconds> {
    let saving = shallow_power - deep_power;
    if saving.value() <= 0.0 {
        return None;
    }
    let transition_energy = shallow_power.value() * table.round_trip(deep).value();
    Some(Seconds::new(transition_energy / saving.value()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_grow_with_depth() {
        let t = LatencyTable::skylake();
        for w in PackageCstate::ALL.windows(2) {
            assert!(t.exit(w[1]) >= t.exit(w[0]), "{} -> {}", w[0], w[1]);
            assert!(t.entry(w[1]) >= t.entry(w[0]));
        }
    }

    #[test]
    fn c8_exit_costs_more_than_c7() {
        // The VR ramp makes C8 wake-up meaningfully slower (Sec. 4.3: C8 is
        // "deeper (lower power but with higher entry/exit latency)").
        let t = LatencyTable::skylake();
        assert!(t.exit(PackageCstate::C8) >= t.exit(PackageCstate::C7) * 1.5);
    }

    #[test]
    fn round_trip_is_sum() {
        let t = LatencyTable::skylake();
        let s = PackageCstate::C6;
        assert_eq!(t.round_trip(s), t.entry(s) + t.exit(s));
    }

    #[test]
    fn break_even_positive_and_sensible() {
        let t = LatencyTable::skylake();
        let be = break_even_time(&t, Watts::new(1.5), Watts::new(0.45), PackageCstate::C8).unwrap();
        // 1.5 W × 320 µs / 1.05 W ≈ 457 µs.
        assert!((be.value() - 457e-6).abs() < 10e-6, "break-even {be}");
    }

    #[test]
    fn no_break_even_when_deep_not_cheaper() {
        let t = LatencyTable::skylake();
        assert!(break_even_time(&t, Watts::new(0.4), Watts::new(0.5), PackageCstate::C8).is_none());
        assert!(break_even_time(&t, Watts::new(0.4), Watts::new(0.4), PackageCstate::C8).is_none());
    }

    #[test]
    fn deeper_states_have_longer_break_even() {
        let t = LatencyTable::skylake();
        // Same power saving, deeper state ⇒ longer break-even.
        let be7 = break_even_time(&t, Watts::new(1.0), Watts::new(0.5), PackageCstate::C7).unwrap();
        let be8 = break_even_time(&t, Watts::new(1.0), Watts::new(0.5), PackageCstate::C8).unwrap();
        assert!(be8 > be7);
    }
}
