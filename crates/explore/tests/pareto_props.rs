//! Property tests for the Pareto machinery promised by the module docs
//! of `dg_explore::pareto`:
//!
//! * dominance is a strict partial order (irreflexive, antisymmetric,
//!   transitive),
//! * the frontier is a property of the point *set* — permutation
//!   invariance of [`frontier_ids`],
//! * the frontier is sound (no member is dominated by any point) and
//!   complete (every finite non-member is dominated by some member).

use dg_explore::pareto::{dominates, frontier_ids, Objectives, RunningFrontier};
use proptest::prelude::*;

/// Strategy for one finite objective triple, spanning enough range that
/// domination, trade-offs, and exact ties all occur.
fn arb_metrics() -> impl Strategy<Value = Objectives> {
    (0.1..100.0f64, 1.0..200.0f64, 0.0..=1.0f64).prop_map(|(perf, power, dark)| Objectives {
        perf,
        power,
        dark,
    })
}

/// Strategy for a coarsely-quantized triple: few distinct values per
/// axis, so random point sets actually contain dominated pairs and ties
/// rather than being almost surely mutually incomparable.
fn arb_coarse_metrics() -> impl Strategy<Value = Objectives> {
    (0..=4u8, 0..=4u8, 0..=4u8).prop_map(|(p, w, d)| Objectives {
        perf: f64::from(p),
        power: f64::from(w),
        dark: f64::from(d) / 4.0,
    })
}

/// In-place Fisher–Yates driven by a splitmix-style LCG; the vendored
/// proptest has no shuffle strategy, so the permutation is derived from
/// a generated seed instead.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// Ids 0.. attached in order, as the sweep evaluator does.
fn with_ids(points: &[Objectives]) -> Vec<(u64, Objectives)> {
    points
        .iter()
        .enumerate()
        .map(|(i, &m)| (i as u64, m))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_is_irreflexive(a in arb_metrics()) {
        prop_assert!(!dominates(a, a), "a point never dominates itself");
    }

    #[test]
    fn dominance_is_antisymmetric(a in arb_coarse_metrics(), b in arb_coarse_metrics()) {
        if dominates(a, b) {
            prop_assert!(!dominates(b, a), "{a:?} and {b:?} dominate each other");
        }
    }

    #[test]
    fn dominance_is_transitive(
        a in arb_coarse_metrics(),
        b in arb_coarse_metrics(),
        c in arb_coarse_metrics(),
    ) {
        prop_assume!(dominates(a, b) && dominates(b, c));
        prop_assert!(dominates(a, c), "{a:?} > {b:?} > {c:?} but not {a:?} > {c:?}");
    }

    #[test]
    fn frontier_is_permutation_invariant(
        points in prop::collection::vec(arb_coarse_metrics(), 1..40),
        seed in 0..u64::MAX,
    ) {
        let original = with_ids(&points);
        let mut shuffled = original.clone();
        shuffle(&mut shuffled, seed);
        prop_assert_eq!(
            frontier_ids(&original),
            frontier_ids(&shuffled),
            "insertion order must not change the frontier"
        );
    }

    #[test]
    fn frontier_is_sound_and_complete(
        points in prop::collection::vec(arb_coarse_metrics(), 1..40),
    ) {
        let ids = with_ids(&points);
        let frontier = frontier_ids(&ids);
        prop_assert!(!frontier.is_empty(), "finite points always yield a frontier");

        // Soundness: no member is dominated by any point in the set.
        for &fid in &frontier {
            let fm = points[fid as usize];
            for &(_, m) in &ids {
                prop_assert!(
                    !dominates(m, fm),
                    "frontier member {fid} ({fm:?}) is dominated by {m:?}"
                );
            }
        }
        // Completeness: every non-member is dominated by some member.
        for &(id, m) in &ids {
            if frontier.binary_search(&id).is_ok() {
                continue;
            }
            // A non-member whose metrics tie a member would co-exist, so
            // exclusion implies strict domination by someone.
            prop_assert!(
                frontier.iter().any(|&fid| dominates(points[fid as usize], m))
                    || frontier.iter().any(|&fid| points[fid as usize] == m),
                "excluded point {id} ({m:?}) is neither dominated nor a tie"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot(
        points in prop::collection::vec(arb_coarse_metrics(), 1..40),
    ) {
        let ids = with_ids(&points);
        let mut rf = RunningFrontier::new();
        for &(id, m) in &ids {
            rf.insert(id, m);
        }
        prop_assert_eq!(rf.ids(), frontier_ids(&ids));
    }

    #[test]
    fn non_finite_points_never_enter(
        points in prop::collection::vec(arb_coarse_metrics(), 1..20),
        axis in 0..3usize,
        poison_nan in prop::bool::ANY,
    ) {
        let mut rf = RunningFrontier::new();
        for (i, &m) in points.iter().enumerate() {
            rf.insert(i as u64, m);
        }
        let v = if poison_nan { f64::NAN } else { f64::INFINITY };
        let mut poisoned = Objectives { perf: 50.0, power: 1.0, dark: 0.0 };
        match axis {
            0 => poisoned.perf = v,
            1 => poisoned.power = v,
            _ => poisoned.dark = v,
        }
        let before = rf.ids();
        prop_assert!(!rf.insert(999, poisoned), "non-finite {poisoned:?} entered");
        prop_assert_eq!(rf.ids(), before, "a rejected point must not evict anyone");
    }
}
