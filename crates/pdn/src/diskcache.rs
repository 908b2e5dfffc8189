//! Disk tier for the content-addressed caches that are expensive to fill.
//!
//! The in-memory maps reset on every process start, so a freshly spawned
//! serve shard pays the full cold-compute cost for every entry its traffic
//! touches. This module persists the two kinds whose compute costs far
//! more than a file read — impedance profiles (`profile/`, milliseconds
//! each) and the serve tier's cached response bodies (`resp/`) — under a
//! configurable root directory, so restarted or newly spawned shards warm
//! from disk instead of recomputing. Cheap derivations (ladder
//! coefficients, DC operating points) are never written: recomputing them
//! beats a read, and older `state/` and `coeffs/` directories are ignored.
//!
//! Format, by construction simple enough to audit byte-by-byte:
//!
//! * **Filename is the content hash**: `<root>/<kind>/<key:016x>.bin`,
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
use crate::impedance::ImpedanceProfile;
use crate::units::{Hertz, Ohms};
use dg_engine::sync::TrackedMutex;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const MAGIC: [u8; 4] = *b"DGC1";

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

fn entry_path(root: &Path, kind: &str, key: u64) -> PathBuf {
    root.join(kind).join(format!("{key:016x}.bin"))
}

fn checksum(body: &[u8]) -> u64 {
    ContentKey::new().bytes(body).finish()
}

/// Wraps `body` in the on-disk envelope: magic, kind tag, checksum, body.
fn encode_envelope(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(tag);
    out.extend_from_slice(&checksum(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates the envelope and returns the body, or `None` on any
/// corruption (wrong magic, wrong kind, checksum mismatch, truncation).
fn decode_envelope(tag: u8, raw: &[u8]) -> Option<&[u8]> {
    let rest = raw.strip_prefix(&MAGIC)?;
    let (&file_tag, rest) = rest.split_first()?;
    if file_tag != tag {
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

/// Loads the raw body stored under `(kind, key)`, or `None` when the tier
/// is disabled, the entry is absent, or the entry fails validation.
pub fn load_blob(kind: &str, tag: u8, key: u64) -> Option<Vec<u8>> {
    let root = dir()?;
    match fs::read(entry_path(&root, kind, key))
        .ok()
        .and_then(|raw| decode_envelope(tag, &raw).map(<[u8]>::to_vec))
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

/// Persists `body` under `(kind, key)` via a unique temp file and an
/// atomic rename. Best-effort: errors are swallowed, success is counted.
pub fn store_blob(kind: &str, tag: u8, key: u64, body: &[u8]) {
    let Some(root) = dir() else { return };
    let final_path = entry_path(&root, kind, key);
    let Some(parent) = final_path.parent() else {
        return;
    };
    if fs::create_dir_all(parent).is_err() {
        return;
    }
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = parent.join(format!("{key:016x}.{}.{seq}.tmp", std::process::id()));
    if fs::write(&tmp, encode_envelope(tag, body)).is_err() {
        let _ = fs::remove_file(&tmp);
        return;
    }
    if fs::rename(&tmp, &final_path).is_ok() {
        STORES.fetch_add(1, Ordering::Relaxed);
    } else {
        let _ = fs::remove_file(&tmp);
    }
}

// Kind tags distinguish payload layouts inside the shared envelope so a
// key collision across kinds can never deserialize as the wrong type.
const TAG_PROFILE: u8 = 1;
/// Tag for opaque response bodies cached by the serve tier.
pub const TAG_RESPONSE: u8 = 4;

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(f64::from_le_bytes)
    }

    fn done(&self) -> bool {
        self.0.is_empty()
    }
}

/// Upper bound on decoded element counts; anything larger is corruption,
/// not a profile this workspace produces.
const MAX_ELEMENTS: usize = 1 << 22;

/// Loads a cached impedance profile. Exact `f64` bit patterns round-trip,
/// so a disk hit is indistinguishable from the original computation.
pub fn load_profile(key: u64) -> Option<ImpedanceProfile> {
    let body = load_blob("profile", TAG_PROFILE, key)?;
    let mut cur = Cursor(&body);
    let name_len = cur.u32()? as usize;
    if name_len > MAX_ELEMENTS {
        return None;
    }
    let name = String::from_utf8(cur.take(name_len)?.to_vec()).ok()?;
    let n = cur.u32()? as usize;
    if n > MAX_ELEMENTS {
        return None;
    }
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let f = cur.f64()?;
        let z = cur.f64()?;
        points.push((Hertz::new(f), Ohms::new(z)));
    }
    cur.done()
        .then(|| ImpedanceProfile::from_points(name, points))
}

/// Persists an impedance profile under its content key.
pub fn store_profile(key: u64, profile: &ImpedanceProfile) {
    let name = profile.name().as_bytes();
    let points = profile.points();
    let mut body = Vec::with_capacity(8 + name.len() + 16 * points.len());
    body.extend_from_slice(&(name.len() as u32).to_le_bytes());
    body.extend_from_slice(name);
    body.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for (f, z) in points {
        body.extend_from_slice(&f.value().to_le_bytes());
        body.extend_from_slice(&z.value().to_le_bytes());
    }
    store_blob("profile", TAG_PROFILE, key, &body);
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
        let raw = encode_envelope(TAG_RESPONSE, body);
        assert_eq!(decode_envelope(TAG_RESPONSE, &raw), Some(&body[..]));
        // Wrong kind tag.
        assert_eq!(decode_envelope(TAG_PROFILE, &raw), None);
        // Flipped body bit fails the checksum.
        let mut bad = raw.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(decode_envelope(TAG_RESPONSE, &bad), None);
        // Truncation at every prefix length is a clean miss.
        for cut in 0..raw.len() {
            assert_eq!(decode_envelope(TAG_RESPONSE, &raw[..cut]), None);
        }
    }

    /// One sequential test owns the process-global directory so parallel
    /// tests never observe each other's roots.
    #[test]
    fn disk_tier_round_trips_all_kinds_and_treats_corruption_as_miss() {
        let root = scratch("roundtrip");
        set_dir(Some(root.clone()));

        // Opaque response body.
        let body = b"{\"ok\":true}";
        store_blob("resp", TAG_RESPONSE, 7, body);
        assert_eq!(
            load_blob("resp", TAG_RESPONSE, 7).as_deref(),
            Some(&body[..])
        );

        // Impedance profile: exact bit-level round trip.
        let profile = ImpedanceProfile::from_points(
            "rt",
            vec![
                (Hertz::new(1e6), Ohms::new(0.002)),
                (Hertz::new(2e6), Ohms::new(0.004)),
            ],
        );
        store_profile(11, &profile);
        let back = load_profile(11).expect("profile round trip");
        assert_eq!(back.name(), "rt");
        assert_eq!(back.points().len(), 2);
        for (a, b) in profile.points().iter().zip(back.points()) {
            assert_eq!(a.0.value().to_bits(), b.0.value().to_bits());
            assert_eq!(a.1.value().to_bits(), b.1.value().to_bits());
        }

        // Filename is the content hash.
        assert!(root
            .join("profile")
            .join(format!("{:016x}.bin", 11u64))
            .exists());

        // Corrupting the file on disk turns the entry into a miss.
        let path = entry_path(&root, "profile", 11);
        let mut raw = fs::read(&path).expect("entry bytes");
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        fs::write(&path, &raw).expect("rewrite corrupted");
        assert!(load_profile(11).is_none(), "corruption must read as a miss");

        // A recompute overwrites the corrupt entry in place.
        store_profile(11, &profile);
        assert!(load_profile(11).is_some());

        // No stray temp files remain.
        let strays: Vec<_> = fs::read_dir(root.join("profile"))
            .expect("dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(strays.is_empty(), "temp files must be renamed or removed");

        set_dir(None);
        assert!(load_profile(11).is_none(), "disabled tier never hits");
        let _ = fs::remove_dir_all(&root);
    }
}
