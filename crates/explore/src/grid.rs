//! Grid expansion: crossing the spec's axes into identified config
//! points, plus the seeded evaluation order.
//!
//! Every point gets a stable `id`: its index in the lexicographic cross
//! product with axes nested (slowest → fastest) as tech node, TDP, big
//! perf, small perf, fraction of parallelism, fuse mode, guardband
//! policy. Ids are a pure function of the spec, so results keyed by id
//! are comparable across runs, seeds, and thread counts.
//!
//! The seed only chooses the *evaluation order* (a Fisher–Yates shuffle
//! of the ids under an LCG): progress traces and running-frontier sizes
//! depend on it, the final frontier — a set — does not.

use crate::scaling::NodeScaling;
use crate::spec::{ExploreSpec, GuardbandPolicy};
use darkgates::pdn::skylake::PdnVariant;

/// One fully-specified design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigPoint {
    /// Lexicographic index in the cross product (stable across runs).
    pub id: u64,
    /// Tech node with its resolved scaling row.
    pub node: NodeScaling,
    /// Package TDP, watts.
    pub tdp_w: f64,
    /// Big-core 45 nm reference performance.
    pub big_perf: f64,
    /// Little-core 45 nm reference performance.
    pub small_perf: f64,
    /// Amdahl parallel fraction.
    pub fraction_parallelism: f64,
    /// Fuse mode (gated vs. bypassed PDN).
    pub fuse: PdnVariant,
    /// Guardband policy.
    pub guardband: GuardbandPolicy,
}

/// Expands the spec into its full grid, in id order.
pub fn expand(spec: &ExploreSpec) -> Vec<ConfigPoint> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for &node in &spec.tech_nodes {
        for &tdp_w in &spec.tdp_w {
            for &big_perf in &spec.big_perf {
                for &small_perf in &spec.small_perf {
                    for &fraction_parallelism in &spec.fraction_parallelism {
                        for &fuse in &spec.fuse {
                            for &guardband in &spec.guardband {
                                out.push(ConfigPoint {
                                    id,
                                    node,
                                    tdp_w,
                                    big_perf,
                                    small_perf,
                                    fraction_parallelism,
                                    fuse,
                                    guardband,
                                });
                                id += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// A Knuth MMIX LCG, seeded with the raw spec seed and returning the full
/// 64-bit state. It shares its constants with the serve tier's load
/// client, but not its stream: that one mixes its seed and drops the low
/// 11 bits of each word.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// Uniform draw below `n` (n ≥ 1) via rejection-free modulo; the tiny
    /// modulo bias is irrelevant for shuffling evaluation order.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The seeded evaluation order: a Fisher–Yates shuffle of `0..n` under
/// the spec seed. Seed 0 is the identity (evaluate in id order), which
/// keeps small smoke specs trivially readable.
pub fn evaluation_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return order;
    }
    let mut rng = Lcg(seed);
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ExploreSpec {
        ExploreSpec::from_text(text).expect("valid spec")
    }

    #[test]
    fn expansion_matches_point_count_with_sequential_ids() {
        let s = spec(
            r#"{"tech_nodes":[45,22],"tdp_w":[35,91],"big_perf":[20],"small_perf":[2,4],"fraction_parallelism":[0.95]}"#,
        );
        let grid = expand(&s);
        assert_eq!(grid.len() as u64, s.point_count());
        assert_eq!(grid.len(), 2 * 2 * 2 * 2); // 2 nodes × 2 tdp × 2 small × 2 fuse
        for (i, p) in grid.iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
        // Lexicographic nesting: the last axis (guardband here is fixed,
        // fuse varies fastest) toggles between adjacent ids.
        assert_eq!(grid.first().map(|p| p.fuse), Some(PdnVariant::Gated));
        assert_eq!(grid.get(1).map(|p| p.fuse), Some(PdnVariant::Bypassed));
        assert_eq!(grid.first().map(|p| p.node.node_nm), Some(45));
        assert_eq!(grid.last().map(|p| p.node.node_nm), Some(22));
    }

    #[test]
    fn evaluation_order_is_a_seeded_permutation() {
        let base = evaluation_order(0, 100);
        assert_eq!(base, (0..100).collect::<Vec<_>>(), "seed 0 is identity");
        let a = evaluation_order(7, 100);
        let b = evaluation_order(7, 100);
        assert_eq!(a, b, "same seed, same order");
        let c = evaluation_order(8, 100);
        assert_ne!(a, c, "different seed, different order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base, "shuffle is a permutation");
    }
}
