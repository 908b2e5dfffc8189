//! Exact Pareto-frontier extraction over the three sweep objectives:
//! maximize performance, minimize power, minimize dark-silicon ratio.
//!
//! The frontier is maintained *incrementally* ([`RunningFrontier`]):
//! each candidate either is dominated by an existing entry (rejected),
//! or enters and evicts every entry it dominates. Incremental insertion
//! computes the exact frontier of everything inserted so far, which is
//! what lets `/v1/explore` stream a truthful running frontier size after
//! every batch — and because a Pareto set is a property of the *set* of
//! points, the final frontier is independent of insertion order (the
//! permutation-invariance property test pins this down).
//!
//! Dominance is a strict partial order on distinct metric triples:
//! antisymmetric and transitive by construction, also property-tested.

/// The three objectives of one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Asymmetric-Amdahl speedup (maximized).
    pub perf: f64,
    /// Package power, watts (minimized).
    pub power: f64,
    /// Dark-silicon area ratio in `[0, 1]` (minimized).
    pub dark: f64,
}

impl Objectives {
    /// Whether every objective is a finite number (non-finite points can
    /// never enter a frontier).
    pub fn is_finite(self) -> bool {
        self.perf.is_finite() && self.power.is_finite() && self.dark.is_finite()
    }
}

/// `a` dominates `b`: no worse on every objective, strictly better on at
/// least one.
pub fn dominates(a: Objectives, b: Objectives) -> bool {
    let no_worse = a.perf >= b.perf && a.power <= b.power && a.dark <= b.dark;
    let better = a.perf > b.perf || a.power < b.power || a.dark < b.dark;
    no_worse && better
}

/// An incrementally-maintained exact Pareto frontier of `(id, metrics)`
/// entries.
#[derive(Debug, Default, Clone)]
pub struct RunningFrontier {
    entries: Vec<(u64, Objectives)>,
}

impl RunningFrontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a point; returns whether it entered the frontier.
    ///
    /// Non-finite metrics are rejected outright. Points with identical
    /// metrics co-exist (neither dominates), so ties are never silently
    /// dropped.
    pub fn insert(&mut self, id: u64, m: Objectives) -> bool {
        if !m.is_finite() {
            return false;
        }
        if self.entries.iter().any(|&(_, e)| dominates(e, m)) {
            return false;
        }
        self.entries.retain(|&(_, e)| !dominates(m, e));
        self.entries.push((id, m));
        true
    }

    /// Current frontier size.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Frontier ids, ascending — the canonical (insertion-order-free)
    /// form results are reported in.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids
    }
}

/// One-shot exact frontier of a point set (ids ascending).
pub fn frontier_ids(points: &[(u64, Objectives)]) -> Vec<u64> {
    let mut rf = RunningFrontier::new();
    for &(id, m) in points {
        rf.insert(id, m);
    }
    rf.ids()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(perf: f64, power: f64, dark: f64) -> Objectives {
        Objectives { perf, power, dark }
    }

    #[test]
    fn dominance_needs_strict_improvement() {
        assert!(dominates(m(2.0, 10.0, 0.5), m(1.0, 10.0, 0.5)));
        assert!(dominates(m(1.0, 9.0, 0.5), m(1.0, 10.0, 0.5)));
        assert!(!dominates(m(1.0, 10.0, 0.5), m(1.0, 10.0, 0.5)), "ties");
        assert!(
            !dominates(m(2.0, 11.0, 0.5), m(1.0, 10.0, 0.5)),
            "trade-offs do not dominate"
        );
    }

    #[test]
    fn insert_evicts_dominated_and_rejects_dominated() {
        let mut f = RunningFrontier::new();
        assert!(f.insert(0, m(1.0, 10.0, 0.5)));
        assert!(f.insert(1, m(2.0, 12.0, 0.5)), "trade-off joins");
        assert_eq!(f.len(), 2);
        assert!(!f.insert(2, m(0.5, 11.0, 0.6)), "dominated is rejected");
        assert!(f.insert(3, m(2.5, 9.0, 0.4)), "dominator evicts both");
        assert_eq!(f.ids(), vec![3]);
        assert!(!f.insert(4, m(f64::NAN, 1.0, 0.1)), "non-finite rejected");
        // Identical metrics co-exist.
        assert!(f.insert(5, m(2.5, 9.0, 0.4)));
        assert_eq!(f.ids(), vec![3, 5]);
        assert_ne!(f.len(), 0);
    }

    #[test]
    fn one_shot_matches_incremental() {
        let pts = vec![
            (0, m(1.0, 10.0, 0.5)),
            (1, m(2.0, 12.0, 0.5)),
            (2, m(0.5, 11.0, 0.6)),
            (3, m(2.0, 12.0, 0.4)),
        ];
        // 3 dominates 1 (same perf/power, less dark); 0 dominates 2.
        assert_eq!(frontier_ids(&pts), vec![0, 3]);
    }
}
