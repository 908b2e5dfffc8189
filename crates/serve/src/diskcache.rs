//! The disk tier of one shard's response cache.
//!
//! The in-memory maps reset on every process start, so a freshly spawned
//! serve shard pays the full cold-compute cost for every entry its traffic
//! touches. A [`DiskTier`] persists whole deterministic response bodies
//! (`resp/`) under the root directory its server was started with
//! (`--cache-dir`), so restarted or newly spawned shards warm from disk
//! instead of recomputing. Each tier belongs to one
//! [`ResponseCache`](crate::respcache::ResponseCache): it owns its
//! directory and its hit, miss and store counters, and a server started
//! without a directory has no tier and touches no disk.
//!
//! Format, by construction simple enough to audit byte-by-byte:
//!
//! * **Filename is the content hash**: `<root>/resp/<key:016x>.bin`,
//!   where `key` is the same FNV-1a content key the memory tier uses. Two
//!   processes caching the same entry write the same file with the same
//!   bytes, so concurrent writers are idempotent.
//! * **Atomic rename writes**: payloads land in a unique `*.tmp` sibling
//!   first and are `rename(2)`d into place, so a reader never observes a
//!   half-written entry and a crash leaves at worst a stray temp file.
//! * **Corruption is a miss**: every payload carries a magic, a kind tag,
//!   and an FNV-1a checksum of the body. Any mismatch — truncation, bit
//!   rot, a format change between versions — makes
//!   [`DiskTier::load_body`] return `None` and the caller recompute (and
//!   overwrite) the entry.
//!
//! All I/O errors are deliberately swallowed: the disk tier is an
//! accelerator, never a correctness dependency.

use darkgates::pdn::cache::ContentKey;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: [u8; 4] = *b"DGC1";

/// The subdirectory every entry lives in.
const KIND: &str = "resp";

/// The envelope's kind tag. Response bodies have always carried 4, so
/// entries written by older builds still load; an entry of a retired kind
/// (tag 1 for impedance profiles) reads as a miss.
const TAG: u8 = 4;

/// Makes temp-file names unique across every tier in the process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// One response cache's directory of bodies, and its counters.
#[derive(Debug)]
pub(crate) struct DiskTier {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl DiskTier {
    /// The tier rooted at `root`, which it creates (best-effort).
    pub(crate) fn new(root: PathBuf) -> Self {
        let _ = fs::create_dir_all(&root);
        DiskTier {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        }
    }

    /// Cumulative `(hits, misses, stores)` of this tier.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
        )
    }

    /// Loads the raw body stored under `key`, or `None` when the entry is
    /// absent or fails validation.
    pub(crate) fn load_body(&self, key: u64) -> Option<Vec<u8>> {
        let body = fs::read(entry_path(&self.root, key))
            .ok()
            .and_then(|raw| decode_envelope(&raw).map(<[u8]>::to_vec));
        let counter = if body.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        body
    }

    /// Persists `body` under `key` via a unique temp file and an atomic
    /// rename. Best-effort: errors are swallowed, success is counted.
    pub(crate) fn store_body(&self, key: u64, body: &[u8]) {
        let final_path = entry_path(&self.root, key);
        let Some(parent) = final_path.parent() else {
            return;
        };
        if fs::create_dir_all(parent).is_err() {
            return;
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = parent.join(format!("{key:016x}.{}.{seq}.tmp", std::process::id()));
        if fs::write(&tmp, encode_envelope(body)).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, &final_path).is_ok() {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

fn entry_path(root: &Path, key: u64) -> PathBuf {
    root.join(KIND).join(format!("{key:016x}.bin"))
}

fn checksum(body: &[u8]) -> u64 {
    ContentKey::new().bytes(body).finish()
}

/// Wraps `body` in the on-disk envelope: magic, kind tag, checksum, body.
fn encode_envelope(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(TAG);
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates the envelope and returns the body, or `None` on any
/// corruption (wrong magic, wrong kind, checksum mismatch, truncation).
fn decode_envelope(raw: &[u8]) -> Option<&[u8]> {
    let rest = raw.strip_prefix(&MAGIC)?;
    let (&file_tag, rest) = rest.split_first()?;
    if file_tag != TAG {
        return None;
    }
    if rest.len() < 8 {
        return None;
    }
    let (sum_bytes, body) = rest.split_at(8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if stored != checksum(body) {
        return None;
    }
    Some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dg-diskcache-{label}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn envelope_round_trips_and_rejects_corruption() {
        let body = b"hello substrate";
        let raw = encode_envelope(body);
        // The layout response entries have always had: magic, tag 4.
        assert_eq!(raw.get(..5), Some(&b"DGC1\x04"[..]));
        assert_eq!(decode_envelope(&raw), Some(&body[..]));
        // Wrong kind tag (a retired profile entry).
        let mut wrong_kind = raw.clone();
        wrong_kind[MAGIC.len()] = 1;
        assert_eq!(decode_envelope(&wrong_kind), None);
        // Flipped body bit fails the checksum.
        let mut bad = raw.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(decode_envelope(&bad), None);
        // Truncation at every prefix length is a clean miss.
        for cut in 0..raw.len() {
            assert_eq!(decode_envelope(&raw[..cut]), None);
        }
    }

    #[test]
    fn disk_tier_round_trips_all_kinds_and_treats_corruption_as_miss() {
        let root = scratch("roundtrip");
        let tier = DiskTier::new(root.clone());

        let body = b"{\"ok\":true}";
        tier.store_body(7, body);
        assert_eq!(tier.load_body(7).as_deref(), Some(&body[..]));

        // Filename is the content hash.
        assert!(root
            .join("resp")
            .join(format!("{:016x}.bin", 7u64))
            .exists());

        // Corrupting the file on disk turns the entry into a miss.
        let path = entry_path(&root, 7);
        let mut raw = fs::read(&path).expect("entry bytes");
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        fs::write(&path, &raw).expect("rewrite corrupted");
        assert!(
            tier.load_body(7).is_none(),
            "corruption must read as a miss"
        );

        // A recompute overwrites the corrupt entry in place.
        tier.store_body(7, body);
        assert_eq!(tier.load_body(7).as_deref(), Some(&body[..]));
        assert_eq!(tier.stats(), (2, 1, 2), "(hits, misses, stores)");

        // No stray temp files remain.
        let strays: Vec<_> = fs::read_dir(root.join("resp"))
            .expect("dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(strays.is_empty(), "temp files must be renamed or removed");

        // A second tier on the same root reads the entry and counts the
        // hit as its own.
        let restarted = DiskTier::new(root.clone());
        assert_eq!(restarted.load_body(7).as_deref(), Some(&body[..]));
        assert_eq!(restarted.stats(), (1, 0, 0));
        let _ = fs::remove_dir_all(&root);
    }
}
