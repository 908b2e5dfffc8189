//! Response cache for deterministic 200s, in memory and on disk, and the
//! bounded FIFO map behind both reply caches.
//!
//! Every simulation route is a pure function of its content key (what the
//! chaos oracle's byte-identical differential check proves on every CI
//! run), so a *successful* response body can be reused outright instead
//! of recomputed: across time in one process and, through the cache's own
//! disk tier (`diskcache.rs`, a server's `--cache-dir`: an append-only
//! log of bodies under a 256 MiB budget), across process restarts.
//! Identical requests that overlap in time each compute, at most one per
//! worker; their bodies are identical and the first to finish fills the
//! cache.
//!
//! Only `200 OK` bodies are cached: errors are cheap to re-render and a
//! cached error could mask a fixed input. The memory tier is a `Fifo`
//! bounded by entry count and total bytes; the disk tier has its own lock
//! and does its I/O outside both. `/metrics` reads each tier's gauges
//! under its own lock, one after the other. The router's reply cache
//! ([`crate::proxy`]) is a second `Fifo` under its own lock.

use crate::diskcache::DiskTier;
use crate::metrics::CacheStats;
use dg_engine::sync::TrackedMutex;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

/// Default bound on cached entries.
const DEFAULT_MAX_ENTRIES: usize = 1_024;

/// Default bound on total cached body bytes (64 MiB), for the shard's
/// response cache and the router's reply cache alike. Large sweep bodies
/// run to hundreds of kilobytes, so the byte budget binds first for them.
pub const DEFAULT_MAX_BYTES: usize = 64 * 1024 * 1024;

/// A map from content key to value, bounded by entry count and by the
/// total byte size the caller declares per value, evicting the oldest
/// insertion first. It has no lock of its own: each owner wraps it in a
/// `TrackedMutex` with its own lock class.
pub(crate) struct Fifo<V> {
    map: HashMap<u64, V>,
    /// Insertion order, with each entry's declared size.
    order: VecDeque<(u64, usize)>,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

impl<V> Fifo<V> {
    /// An empty map holding at most `max_entries` entries and
    /// `max_bytes` declared bytes.
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            max_entries,
            max_bytes,
        }
    }

    /// The value cached under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.map.get(&key)
    }

    /// Caches `value` (declared as `size` bytes) under `key` unless the key
    /// is already present, then evicts the oldest entries until both
    /// bounds hold. Returns whether `value` was inserted.
    pub(crate) fn insert(&mut self, key: u64, value: V, size: usize) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        self.map.insert(key, value);
        self.order.push_back((key, size));
        self.bytes = self.bytes.saturating_add(size);
        while self.map.len() > self.max_entries || self.bytes > self.max_bytes {
            let Some((evicted, size)) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&evicted);
            self.bytes = self.bytes.saturating_sub(size);
        }
        true
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Total declared bytes currently held.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A bounded FIFO cache of response bodies keyed by content key, with a
/// write-through disk tier when it was built with a directory.
pub struct ResponseCache {
    state: TrackedMutex<Fifo<Arc<String>>>,
    disk: Option<DiskTier>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("ResponseCache")
            .field("entries", &state.len())
            .field("bytes", &state.bytes())
            .field("disk", &self.disk)
            .finish()
    }
}

impl Default for ResponseCache {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_ENTRIES, DEFAULT_MAX_BYTES, None)
    }
}

impl ResponseCache {
    /// A cache whose memory tier is bounded by `max_entries` entries and
    /// `max_bytes` total body bytes (both floors of 1 so the cache is
    /// never degenerate), over `disk` when given.
    pub(crate) fn new(max_entries: usize, max_bytes: usize, disk: Option<DiskTier>) -> Self {
        ResponseCache {
            state: TrackedMutex::new(
                "serve.respcache.state",
                Fifo::new(max_entries.max(1), max_bytes.max(1)),
            ),
            disk,
        }
    }

    /// A default-sized cache that writes through to, and reads misses
    /// from, the `resp/` log under `root`.
    pub(crate) fn on_disk(root: &Path) -> Self {
        Self::new(
            DEFAULT_MAX_ENTRIES,
            DEFAULT_MAX_BYTES,
            Some(DiskTier::open(root)),
        )
    }

    /// Looks up a cached `200` body: memory first, then the disk tier (a
    /// disk hit is promoted into memory).
    pub fn get(&self, key: u64) -> Option<Arc<String>> {
        if let Some(hit) = self.get_memory(key) {
            return Some(hit);
        }
        let raw = self.disk.as_ref()?.load_body(key)?;
        let body = Arc::new(String::from_utf8(raw).ok()?);
        self.state.lock().insert(key, Arc::clone(&body), body.len());
        Some(body)
    }

    /// Looks up the memory tier only — never touches the disk tier, so it
    /// is safe to call from latency-critical paths (the event loop's
    /// inline fast path).
    pub fn get_memory(&self, key: u64) -> Option<Arc<String>> {
        self.state.lock().get(key).map(Arc::clone)
    }

    /// Caches a `200` body under `key` (idempotent), writing through to
    /// the disk tier when there is one.
    pub fn put(&self, key: u64, body: &Arc<String>) {
        if !self.state.lock().insert(key, Arc::clone(body), body.len()) {
            return; // already cached: disk entry exists (or is in flight)
        }
        if let Some(disk) = &self.disk {
            disk.store_body(key, body.as_bytes());
        }
    }

    /// The memory tier's gauges, then the disk tier's numbers (all zero
    /// without one), each read under its own lock in turn.
    pub(crate) fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let state = self.state.lock();
            (state.len() as u64, state.bytes() as u64)
        };
        CacheStats {
            entries,
            bytes,
            disk: self.disk.as_ref().map(DiskTier::stats).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<String> {
        Arc::new(text.to_owned())
    }

    #[test]
    fn put_then_get_round_trips_and_is_idempotent() {
        let cache = ResponseCache::new(8, 1 << 20, None);
        assert!(cache.get(1).is_none());
        cache.put(1, &body("{\"ok\":true}"));
        cache.put(1, &body("{\"ok\":true}"));
        assert_eq!(
            cache.get(1).as_deref().map(String::as_str),
            Some("{\"ok\":true}")
        );
        assert_eq!(
            cache.state.lock().len(),
            1,
            "idempotent put must not duplicate"
        );
    }

    #[test]
    fn entry_count_eviction_is_fifo() {
        let cache = ResponseCache::new(2, 1 << 20, None);
        cache.put(1, &body("a"));
        cache.put(2, &body("b"));
        cache.put(3, &body("c"));
        assert!(cache.get(1).is_none(), "oldest entry evicted first");
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn byte_budget_evicts_large_bodies() {
        let cache = ResponseCache::new(100, 10, None);
        cache.put(1, &body("aaaaaaaa")); // 8 bytes
        cache.put(2, &body("bbbbbbbb")); // 16 total > 10 → evict key 1
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
    }
}
