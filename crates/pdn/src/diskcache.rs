//! Disk tier for the serve tier's cached response bodies.
//!
//! The in-memory maps reset on every process start, so a freshly spawned
//! serve shard pays the full cold-compute cost for every entry its traffic
//! touches. This module persists the one kind whose compute costs far
//! more than a file read — whole deterministic response bodies (`resp/`) —
//! under a configurable root directory, so restarted or newly spawned
//! shards warm from disk instead of recomputing. Cheaper derivations
//! (impedance profiles at about 0.1 ms each, ladder coefficients, DC
//! operating points) are never written, and older `profile/`, `state/`
//! and `coeffs/` directories are ignored.
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
//!   rot, a format change between versions — makes [`load_blob`] return
//!   `None` and the caller recompute (and overwrite) the entry.
//!
//! The tier is disabled until [`set_dir`] is called (the `--cache-dir`
//! flag of `dg-serve`); with no directory configured every operation is a
//! no-op and the hit/miss counters stay untouched. All I/O errors are
//! deliberately swallowed: the disk tier is an accelerator, never a
//! correctness dependency.

use crate::cache::ContentKey;
use dg_engine::sync::TrackedMutex;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const MAGIC: [u8; 4] = *b"DGC1";

/// The subdirectory every entry lives in.
const KIND: &str = "resp";

/// The envelope's kind tag. Response bodies have always carried 4, so
/// entries written by older builds still load; an entry of a retired kind
/// (tag 1 for impedance profiles) reads as a miss.
const TAG: u8 = 4;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn dir_slot() -> &'static TrackedMutex<Option<PathBuf>> {
    static DIR: OnceLock<TrackedMutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| TrackedMutex::new("pdn.diskcache.dir", None))
}

/// Points the disk tier at `root` (creating it), or disables it with
/// `None`. Process-wide; typically called once at startup from the
/// `--cache-dir` flag.
pub fn set_dir(root: Option<PathBuf>) {
    if let Some(dir) = &root {
        let _ = fs::create_dir_all(dir);
    }
    *dir_slot().lock() = root;
}

/// The currently configured root, if the tier is enabled.
pub fn dir() -> Option<PathBuf> {
    dir_slot().lock().clone()
}

/// Cumulative `(hits, misses, stores)` since process start. Misses count
/// only while a directory is configured, so a warm-start comparison can
/// read the first-window hit rate directly.
pub fn stats() -> (u64, u64, u64) {
    (
        HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
        STORES.load(Ordering::Relaxed),
    )
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

/// Loads the raw body stored under `key`, or `None` when the tier is
/// disabled, the entry is absent, or the entry fails validation.
pub fn load_blob(key: u64) -> Option<Vec<u8>> {
    let root = dir()?;
    match fs::read(entry_path(&root, key))
        .ok()
        .and_then(|raw| decode_envelope(&raw).map(<[u8]>::to_vec))
    {
        Some(body) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Some(body)
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

/// Persists `body` under `key` via a unique temp file and an atomic
/// rename. Best-effort: errors are swallowed, success is counted.
pub fn store_blob(key: u64, body: &[u8]) {
    let Some(root) = dir() else { return };
    let final_path = entry_path(&root, key);
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
        STORES.fetch_add(1, Ordering::Relaxed);
    } else {
        let _ = fs::remove_file(&tmp);
    }
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

    /// One sequential test owns the process-global directory so parallel
    /// tests never observe each other's roots.
    #[test]
    fn disk_tier_round_trips_all_kinds_and_treats_corruption_as_miss() {
        let root = scratch("roundtrip");
        set_dir(Some(root.clone()));

        let body = b"{\"ok\":true}";
        store_blob(7, body);
        assert_eq!(load_blob(7).as_deref(), Some(&body[..]));

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
        assert!(load_blob(7).is_none(), "corruption must read as a miss");

        // A recompute overwrites the corrupt entry in place.
        store_blob(7, body);
        assert_eq!(load_blob(7).as_deref(), Some(&body[..]));

        // No stray temp files remain.
        let strays: Vec<_> = fs::read_dir(root.join("resp"))
            .expect("dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(strays.is_empty(), "temp files must be renamed or removed");

        set_dir(None);
        assert!(load_blob(7).is_none(), "disabled tier never hits");
        let _ = fs::remove_dir_all(&root);
    }
}
