//! Consistent-hash ring for routing content keys to serve shards.
//!
//! `dg-router` places every shard on a ring at `replicas` pseudo-random
//! points (virtual nodes) derived from the shard index via the same
//! FNV-1a [`ContentKey`] fold the
//! substrate caches use. A request's content key routes to the first
//! ring point at or clockwise-after the key, skipping shards the health
//! checker has ejected. Two properties matter here:
//!
//! * **Affinity** — identical requests land on the same shard, so the
//!   per-shard coalescer, response cache, and substrate caches see every
//!   repeat of a key instead of `1/N` of them.
//! * **Minimal disruption** — when a shard dies, only the arcs it owned
//!   move (to the next shard clockwise); every other key keeps its shard
//!   and therefore its warm caches.

use darkgates::pdn::cache::ContentKey;

/// Default virtual nodes per shard; enough to balance a handful of
/// shards to within a few percent without making lookup tables large.
pub const DEFAULT_REPLICAS: usize = 64;

/// An immutable consistent-hash ring over `shards` shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, shard index)` sorted by position.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Builds a ring with `replicas` virtual nodes per shard (floors of 1
    /// apply to both arguments so the ring is never empty).
    pub fn new(shards: usize, replicas: usize) -> Self {
        let shards = shards.max(1);
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(shards * replicas);
        for shard in 0..shards {
            for replica in 0..replicas {
                let position = ContentKey::new()
                    .bytes(b"dg-router/vnode")
                    .word(shard as u64)
                    .word(replica as u64)
                    .finish();
                points.push((position, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards the ring was built over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routes `key` to the owning live shard: the first ring point at or
    /// clockwise-after `key` whose shard passes `alive`, wrapping around.
    /// Returns `None` when every shard is dead.
    pub fn route(&self, key: u64, alive: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start =
            self.points.partition_point(|&(position, _)| position < key) % self.points.len();
        self.points
            .iter()
            .cycle()
            .skip(start)
            .take(self.points.len())
            .map(|&(_, shard)| shard)
            .find(|&shard| alive(shard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(i: u64) -> u64 {
        ContentKey::new().bytes(b"test-key").word(i).finish()
    }

    #[test]
    fn routing_is_deterministic_and_balanced() {
        let ring = HashRing::new(3, DEFAULT_REPLICAS);
        let mut counts = [0usize; 3];
        for i in 0..9_000 {
            let shard = ring.route(key_of(i), |_| true).expect("live shard");
            let again = ring.route(key_of(i), |_| true).expect("live shard");
            assert_eq!(shard, again, "routing must be deterministic");
            counts[shard] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (1_200..=6_000).contains(&count),
                "shard {shard} owns a wildly unbalanced arc: {counts:?}"
            );
        }
    }

    #[test]
    fn killing_a_shard_only_remaps_its_own_keys() {
        let ring = HashRing::new(3, DEFAULT_REPLICAS);
        let mut moved = 0usize;
        for i in 0..3_000 {
            let before = ring.route(key_of(i), |_| true).expect("live shard");
            let after = ring
                .route(key_of(i), |shard| shard != 1)
                .expect("live shard");
            assert_ne!(after, 1, "dead shard must never be chosen");
            if before != 1 {
                assert_eq!(before, after, "surviving shards keep their keys");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "shard 1 must have owned some keys");
    }

    #[test]
    fn all_dead_routes_to_none_and_single_shard_takes_everything() {
        let ring = HashRing::new(2, 8);
        assert_eq!(ring.route(42, |_| false), None);
        for i in 0..100 {
            assert_eq!(ring.route(key_of(i), |shard| shard == 1), Some(1));
        }
    }
}
