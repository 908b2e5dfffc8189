//! The disk tier of one shard's response cache: an append-only log of
//! response bodies under a byte budget.
//!
//! The in-memory maps reset on every process start, so a freshly spawned
//! serve shard pays the full cold-compute cost for every entry its traffic
//! touches. A [`DiskTier`] persists whole deterministic response bodies
//! under the root directory its server was started with (`--cache-dir`),
//! so restarted or newly spawned shards warm from disk instead of
//! recomputing. Each tier belongs to one
//! [`ResponseCache`](crate::respcache::ResponseCache): it owns its
//! directory, its index and its hit, miss and store counters, and a
//! server started without a directory has no tier and touches no disk.
//!
//! Layout, by construction simple enough to audit byte-by-byte:
//!
//! * **Segments**: `<root>/resp/<seq:016x>.log`, oldest first by sequence
//!   number. A segment starts with the magic `DGL1` and the kind tag (4,
//!   the tag response bodies have always carried). Records follow, each a
//!   20-byte head (the FNV-1a content key, the body length, and an FNV-1a
//!   checksum over key, length and body) and then the body. An in-memory
//!   index maps each key to its segment, offset and length.
//! * **Appends, not files**: on the 2-vCPU reference host (ext4),
//!   creating a file costs 450–590 µs of system CPU, and 1,325–1,350 µs
//!   when two threads create files in one directory; an append of
//!   4–40 KB costs 5–20 µs. A store claims its offset under the tier's
//!   lock, writes outside it, and only then publishes the index entry, so
//!   a reader never sees a half-written record. A load looks its entry up
//!   under the lock and reads outside it. No guard spans file I/O.
//! * **A byte budget**: segments roll at `SEGMENT_BYTES` (8 MiB) and the
//!   tier holds at most `BUDGET_BYTES` (256 MiB). Over the budget it drops
//!   the oldest segment: its index entries under the lock, its file
//!   outside it.
//! * **Recovery by scan**: opening a tier creates no file. It walks every
//!   segment's record heads and indexes each record that frames
//!   completely (its body fits in the bytes left in the file), stopping
//!   at the first that does not (a torn tail). It skips the bodies, since
//!   every load checks its record's checksum: on the reference host the
//!   heads of a 250 MiB tier read in 40–50 ms, where checksumming every
//!   body takes about half a second, all before the shard binds its port.
//!   Segments found at open stay read-only; the first store creates a new
//!   one (`create_new`). Files of the earlier file-per-entry layout
//!   (`resp/*.bin`, `*.tmp`) are removed at open, so the budget covers the
//!   whole directory.
//! * **Corruption is a miss**: a load checks the record's key, length and
//!   checksum. Any mismatch makes [`DiskTier::load_body`] return `None` and
//!   drops the entry from the index, so the caller's recompute stores a
//!   fresh copy.
//!
//! All I/O errors are deliberately swallowed: the disk tier is an
//! accelerator, never a correctness dependency.

use crate::metrics::DiskStats;
use darkgates::pdn::cache::ContentKey;
use dg_engine::sync::TrackedMutex;
use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every segment's first bytes: the magic, then the kind tag.
const SEGMENT_HEAD: [u8; 5] = *b"DGL1\x04";

/// A record's head: key (u64), body length (u32), checksum (u64), all
/// little-endian.
const RECORD_HEAD: usize = 20;

/// A segment takes no record that would carry it past this size (unless
/// it holds none yet).
const SEGMENT_BYTES: u64 = 8 << 20;

/// The bytes the tier's segments may hold before it drops the oldest.
const BUDGET_BYTES: u64 = 256 << 20;

/// The subdirectory the segments live in.
const KIND: &str = "resp";

/// Where one record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    seq: u64,
    offset: u64,
    len: u32,
}

/// One segment file.
#[derive(Debug)]
struct Segment {
    seq: u64,
    file: Arc<File>,
    /// Bytes claimed: the head plus every record claimed so far.
    len: u64,
    /// Whether stores may append: false for segments found at open and
    /// after a failed write.
    writable: bool,
}

/// The index and the segment list, under the tier's one lock.
#[derive(Debug, Default)]
struct Log {
    index: HashMap<u64, Slot>,
    /// Ascending by sequence number: the front is the oldest.
    segments: VecDeque<Segment>,
    /// The sum of every segment's `len`.
    bytes: u64,
    /// The sequence number the next new segment takes.
    next_seq: u64,
}

/// What a store does once it holds its claim.
enum Claim {
    /// Write the record at `offset` of segment `seq`.
    Write {
        seq: u64,
        file: Arc<File>,
        offset: u64,
    },
    /// No writable segment has room: create segment `seq` and claim again.
    Roll(u64),
    /// The key is already stored.
    Present,
}

impl Log {
    /// The position of segment `seq`, if the log still holds it.
    fn position(&self, seq: u64) -> Option<usize> {
        let at = self.segments.partition_point(|s| s.seq < seq);
        self.segments.get(at).filter(|s| s.seq == seq).map(|_| at)
    }

    /// Claims `size` bytes for `key`: at the end of the newest segment
    /// when it takes appends and has room, else in `fresh` (a segment this
    /// store just created) when given. A `fresh` segment the newest one
    /// makes unnecessary (another store rolled meanwhile) is dropped.
    /// Drops the oldest segments over `budget` too, and returns every
    /// dropped sequence number for the caller to delete once the lock is
    /// released.
    fn claim(
        &mut self,
        key: u64,
        size: u64,
        fresh: Option<Segment>,
        segment_bytes: u64,
        budget: u64,
    ) -> (Claim, Vec<u64>) {
        let mut unused = None;
        let target = match fresh {
            Some(segment) if self.appendable(size, segment_bytes).is_some() => {
                unused = Some(segment.seq);
                None
            }
            Some(segment) => {
                let seq = segment.seq;
                self.bytes += segment.len;
                let at = self.segments.partition_point(|s| s.seq < seq);
                self.segments.insert(at, segment);
                Some(seq)
            }
            None => None,
        };
        let claim = self.reserve(key, size, target, segment_bytes);
        let mut doomed = self.evict(budget);
        doomed.extend(unused);
        (claim, doomed)
    }

    /// The newest segment, when it takes appends and `size` more bytes fit
    /// (or it holds no record yet).
    fn appendable(&self, size: u64, segment_bytes: u64) -> Option<u64> {
        let newest = self.segments.back().filter(|s| s.writable)?;
        let empty = newest.len == SEGMENT_HEAD.len() as u64;
        (empty || newest.len + size <= segment_bytes).then_some(newest.seq)
    }

    /// The claim half of [`Log::claim`], before eviction: in `target`
    /// when given, else in the newest segment when it has room.
    fn reserve(&mut self, key: u64, size: u64, target: Option<u64>, segment_bytes: u64) -> Claim {
        if self.index.contains_key(&key) {
            return Claim::Present;
        }
        let Some(seq) = target.or_else(|| self.appendable(size, segment_bytes)) else {
            let seq = self.next_seq;
            self.next_seq += 1;
            return Claim::Roll(seq);
        };
        let Some(segment) = self.position(seq).and_then(|at| self.segments.get_mut(at)) else {
            return Claim::Present;
        };
        let offset = segment.len;
        segment.len += size;
        self.bytes += size;
        Claim::Write {
            seq,
            file: Arc::clone(&segment.file),
            offset,
        }
    }

    /// Drops the oldest segments, never the newest, while the log holds
    /// more than `budget` bytes, and returns their sequence numbers.
    fn evict(&mut self, budget: u64) -> Vec<u64> {
        let mut doomed = Vec::new();
        while self.bytes > budget && self.segments.len() > 1 {
            let Some(oldest) = self.segments.pop_front() else {
                break;
            };
            self.bytes = self.bytes.saturating_sub(oldest.len);
            self.index.retain(|_, slot| slot.seq != oldest.seq);
            doomed.push(oldest.seq);
        }
        doomed
    }

    /// Publishes `key` at `slot` once its record is on disk (`written`),
    /// unless its segment was dropped meanwhile. After a failed write the
    /// segment takes no more appends. Returns whether it published.
    fn publish(&mut self, key: u64, slot: Slot, written: bool) -> bool {
        let Some(segment) = self
            .position(slot.seq)
            .and_then(|at| self.segments.get_mut(at))
        else {
            return false;
        };
        if !written {
            segment.writable = false;
            return false;
        }
        self.index.insert(key, slot);
        true
    }

    /// Where `key`'s record lives, and its segment's file.
    fn find(&self, key: u64) -> Option<(Slot, Arc<File>)> {
        let slot = *self.index.get(&key)?;
        let segment = self.segments.get(self.position(slot.seq)?)?;
        Some((slot, Arc::clone(&segment.file)))
    }

    /// Drops `key` from the index if it still points at `slot`.
    fn forget(&mut self, key: u64, slot: Slot) {
        if self.index.get(&key) == Some(&slot) {
            self.index.remove(&key);
        }
    }
}

/// One response cache's log of bodies, and its counters.
#[derive(Debug)]
pub(crate) struct DiskTier {
    dir: PathBuf,
    segment_bytes: u64,
    budget_bytes: u64,
    log: TrackedMutex<Log>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl DiskTier {
    /// The tier over `<root>/resp`, at the default segment size and
    /// budget.
    pub(crate) fn open(root: &Path) -> Self {
        Self::with_sizes(root, SEGMENT_BYTES, BUDGET_BYTES)
    }

    /// The tier over `<root>/resp`, rolling segments at `segment_bytes`
    /// and holding at most `budget_bytes`. It indexes every segment it
    /// finds, removes the file-per-entry layout's `.bin` and `.tmp` files,
    /// and drops the oldest segments over the budget. It creates the
    /// directory (best-effort) but no file.
    pub(crate) fn with_sizes(root: &Path, segment_bytes: u64, budget_bytes: u64) -> Self {
        let dir = root.join(KIND);
        let _ = fs::create_dir_all(&dir);
        let mut seqs = Vec::new();
        for path in fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .filter_map(|entry| Some(entry.ok()?.path()))
        {
            match path.extension().and_then(|x| x.to_str()) {
                Some("bin" | "tmp") => {
                    let _ = fs::remove_file(&path);
                }
                Some("log") => seqs.extend(seq_of(&path)),
                _ => {}
            }
        }
        seqs.sort_unstable();
        let mut log = Log {
            next_seq: seqs.last().map_or(0, |seq| seq.saturating_add(1)),
            ..Log::default()
        };
        for seq in seqs {
            let Ok(file) = File::open(segment_path(&dir, seq)) else {
                continue;
            };
            let len = file.metadata().map_or(0, |m| m.len());
            scan_segment(&file, seq, len, budget_bytes, &mut log.index);
            log.bytes += len;
            log.segments.push_back(Segment {
                seq,
                file: Arc::new(file),
                len,
                writable: false,
            });
        }
        let doomed = log.evict(budget_bytes);
        let tier = DiskTier {
            dir,
            segment_bytes,
            budget_bytes,
            log: TrackedMutex::new("serve.diskcache.log", log),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        };
        tier.remove_segments(&doomed);
        tier
    }

    /// The tier's cumulative counters and its current entries and bytes.
    pub(crate) fn stats(&self) -> DiskStats {
        let (entries, bytes) = {
            let log = self.log.lock();
            (log.index.len() as u64, log.bytes)
        };
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Loads the raw body stored under `key`, or `None` when the entry is
    /// absent or fails validation.
    pub(crate) fn load_body(&self, key: u64) -> Option<Vec<u8>> {
        let found = {
            let log = self.log.lock();
            log.find(key)
        };
        let body = found
            .as_ref()
            .and_then(|(slot, file)| read_record(file, key, *slot));
        if let (None, Some((slot, _))) = (&body, found) {
            self.log.lock().forget(key, slot);
        }
        let counter = if body.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        body
    }

    /// Appends `body` under `key` unless the key is already stored.
    /// Best-effort: errors are swallowed, published stores are counted.
    pub(crate) fn store_body(&self, key: u64, body: &[u8]) {
        let Some((record, len)) = frame_record(key, body) else {
            return;
        };
        let size = record.len() as u64;
        if SEGMENT_HEAD.len() as u64 + size > self.budget_bytes {
            return;
        }
        let mut fresh = None;
        loop {
            let (claim, doomed) = {
                let mut log = self.log.lock();
                log.claim(
                    key,
                    size,
                    fresh.take(),
                    self.segment_bytes,
                    self.budget_bytes,
                )
            };
            self.remove_segments(&doomed);
            match claim {
                Claim::Present => return,
                Claim::Roll(seq) => match self.create_segment(seq) {
                    Some(segment) => fresh = Some(segment),
                    None => return,
                },
                Claim::Write { seq, file, offset } => {
                    let written = file.write_all_at(&record, offset).is_ok();
                    let slot = Slot { seq, offset, len };
                    if self.log.lock().publish(key, slot, written) {
                        self.stores.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            }
        }
    }

    /// Creates segment `seq` with its head written, or `None` on any
    /// error (an existing file included).
    fn create_segment(&self, seq: u64) -> Option<Segment> {
        fs::create_dir_all(&self.dir).ok()?;
        let path = segment_path(&self.dir, seq);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .ok()?;
        if file.write_all_at(&SEGMENT_HEAD, 0).is_err() {
            let _ = fs::remove_file(&path);
            return None;
        }
        Some(Segment {
            seq,
            file: Arc::new(file),
            len: SEGMENT_HEAD.len() as u64,
            writable: true,
        })
    }

    /// Deletes the files of dropped segments.
    fn remove_segments(&self, seqs: &[u64]) {
        for &seq in seqs {
            let _ = fs::remove_file(segment_path(&self.dir, seq));
        }
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:016x}.log"))
}

/// The sequence number a segment file name spells, if it is one.
fn seq_of(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    let seq = u64::from_str_radix(stem, 16).ok()?;
    (format!("{seq:016x}") == stem).then_some(seq)
}

fn checksum(key: u64, len: u32, body: &[u8]) -> u64 {
    ContentKey::new()
        .word(key)
        .word(u64::from(len))
        .bytes(body)
        .finish()
}

/// `body` framed as a record (head, then body), and its length; `None`
/// for a body too long to frame.
fn frame_record(key: u64, body: &[u8]) -> Option<(Vec<u8>, u32)> {
    let len = u32::try_from(body.len()).ok()?;
    let mut record = Vec::with_capacity(RECORD_HEAD + body.len());
    record.extend_from_slice(&key.to_le_bytes());
    record.extend_from_slice(&len.to_le_bytes());
    record.extend_from_slice(&checksum(key, len, body).to_le_bytes());
    record.extend_from_slice(body);
    Some((record, len))
}

/// A record head's `(key, body length, checksum)`.
fn head_fields(head: &[u8]) -> Option<(u64, u32, u64)> {
    let (key, rest) = head.split_first_chunk::<8>()?;
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let sum = rest.first_chunk::<8>()?;
    Some((
        u64::from_le_bytes(*key),
        u32::from_le_bytes(*len),
        u64::from_le_bytes(*sum),
    ))
}

/// Reads the record at `slot` and returns its body when its head names
/// `key` and `slot`'s length and its checksum holds.
fn read_record(file: &File, key: u64, slot: Slot) -> Option<Vec<u8>> {
    let mut raw = vec![0; RECORD_HEAD + slot.len as usize];
    file.read_exact_at(&mut raw, slot.offset).ok()?;
    let (head, body) = raw.split_at_checked(RECORD_HEAD)?;
    let (stored_key, len, sum) = head_fields(head)?;
    if stored_key != key || len != slot.len || sum != checksum(key, len, body) {
        return None;
    }
    raw.drain(..RECORD_HEAD);
    Some(raw)
}

/// Indexes every record of segment `seq` (`len` bytes long) that frames
/// completely, a whole head whose body fits in the bytes left in the file
/// and in `max_body`, and stops at the first that does not (a torn tail).
/// Only the heads are read: bodies are skipped, and a load checks a body's
/// checksum when it reads it.
fn scan_segment(file: &File, seq: u64, len: u64, max_body: u64, index: &mut HashMap<u64, Slot>) {
    let mut reader = BufReader::with_capacity(64 << 10, file);
    let mut magic = [0; SEGMENT_HEAD.len()];
    if reader.read_exact(&mut magic).is_err() || magic != SEGMENT_HEAD {
        return;
    }
    let mut offset = SEGMENT_HEAD.len() as u64;
    let mut head = [0; RECORD_HEAD];
    while reader.read_exact(&mut head).is_ok() {
        let Some((key, body_len, _)) = head_fields(&head) else {
            return;
        };
        let end = offset + RECORD_HEAD as u64 + u64::from(body_len);
        if u64::from(body_len) > max_body || end > len {
            return;
        }
        if reader.seek_relative(i64::from(body_len)).is_err() {
            return;
        }
        index.insert(
            key,
            Slot {
                seq,
                offset,
                len: body_len,
            },
        );
        offset = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dg-diskcache-{label}-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// The files under `<root>/resp`, sorted.
    fn resp_files(root: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(root.join(KIND))
            .expect("resp dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        files
    }

    fn disk_bytes(root: &Path) -> u64 {
        resp_files(root)
            .iter()
            .map(|p| fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    }

    /// The body stored under `key`: a pure function of the key, as
    /// response bodies are of their content keys.
    fn body_of(key: u64) -> Vec<u8> {
        let len = 1 + (key * 37 % 150) as usize;
        (0..len)
            .map(|i| (key as usize * 31 + i * 7 + 1) as u8)
            .collect()
    }

    #[test]
    fn envelope_round_trips_and_rejects_corruption() {
        let root = scratch("envelope");
        let path = root.join("record");
        let body = b"hello substrate";
        let (record, len) = frame_record(9, body).expect("frames");
        // Key, length and checksum ahead of the body: the 20-byte head.
        assert_eq!(record.len(), RECORD_HEAD + body.len());
        assert_eq!(head_fields(&record), Some((9, len, checksum(9, len, body))));
        let slot = Slot {
            seq: 0,
            offset: 0,
            len,
        };
        let read = |raw: &[u8], key: u64, slot: Slot| {
            fs::write(&path, raw).expect("write record");
            read_record(&File::open(&path).expect("open record"), key, slot)
        };
        assert_eq!(read(&record, 9, slot).as_deref(), Some(&body[..]));
        // Another key, or a slot of another length, is a miss.
        assert_eq!(read(&record, 8, slot), None);
        assert_eq!(
            read(
                &record,
                9,
                Slot {
                    len: len - 1,
                    ..slot
                }
            ),
            None
        );
        // A flipped bit anywhere fails the key, length or checksum check.
        for i in 0..record.len() {
            let mut bad = record.clone();
            bad[i] ^= 0x01;
            assert_eq!(read(&bad, 9, slot), None, "bit flip at {i}");
        }
        // Truncation at every prefix length is a clean miss.
        for cut in 0..record.len() {
            assert_eq!(read(&record[..cut], 9, slot), None, "cut {cut}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn records_round_trip_and_a_reopen_finds_them() {
        let root = scratch("roundtrip");
        let tier = DiskTier::open(&root);
        // Opening created the directory and no file.
        assert_eq!(resp_files(&root), Vec::<PathBuf>::new());
        assert!(tier.load_body(7).is_none());

        let body = b"{\"ok\":true}";
        tier.store_body(7, body);
        tier.store_body(7, body);
        assert_eq!(tier.load_body(7).as_deref(), Some(&body[..]));
        let files = resp_files(&root);
        assert_eq!(files, [root.join("resp").join("0000000000000000.log")]);
        let raw = fs::read(&files[0]).expect("segment bytes");
        // Segment head, then one record: key, length, checksum, body.
        assert_eq!(&raw[..5], b"DGL1\x04");
        assert_eq!(raw.len(), 5 + RECORD_HEAD + body.len());
        assert_eq!(&raw[5..13], &7u64.to_le_bytes());
        assert_eq!(&raw[13..17], &(body.len() as u32).to_le_bytes());
        let stats = tier.stats();
        assert_eq!(
            (
                stats.hits,
                stats.misses,
                stats.stores,
                stats.entries,
                stats.bytes
            ),
            (1, 1, 1, 1, raw.len() as u64)
        );

        // A second tier on the same root indexes the record, counts the
        // hit as its own, and appends to a new segment.
        let restarted = DiskTier::open(&root);
        assert_eq!(restarted.load_body(7).as_deref(), Some(&body[..]));
        restarted.store_body(8, b"eight");
        assert_eq!(restarted.load_body(8).as_deref(), Some(&b"eight"[..]));
        assert_eq!(resp_files(&root).len(), 2);
        let stats = restarted.stats();
        assert_eq!((stats.hits, stats.stores, stats.entries), (2, 1, 2));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_corrupt_record_is_a_miss_and_the_recompute_stores_a_fresh_copy() {
        let root = scratch("corrupt");
        let tier = DiskTier::open(&root);
        let body = body_of(3);
        tier.store_body(3, &body);
        let path = segment_path(&root.join(KIND), 0);
        let mut raw = fs::read(&path).expect("segment bytes");
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        fs::write(&path, &raw).expect("rewrite corrupted");
        assert!(
            tier.load_body(3).is_none(),
            "corruption must read as a miss"
        );
        tier.store_body(3, &body);
        assert_eq!(tier.load_body(3), Some(body));
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 2));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn the_file_per_entry_layout_is_removed_at_open() {
        let root = scratch("legacy");
        let resp = root.join(KIND);
        fs::create_dir_all(&resp).expect("resp dir");
        for name in [
            "0000000000000007.bin",
            "00000000000000ff.bin",
            "0000000000000007.123.4.tmp",
        ] {
            fs::write(resp.join(name), b"DGC1\x04old entry").expect("seed file");
        }
        let tier = DiskTier::open(&root);
        assert_eq!(resp_files(&root), Vec::<PathBuf>::new());
        assert!(tier.load_body(7).is_none());
        assert_eq!(tier.stats().bytes, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_torn_tail_is_cut_at_every_byte_and_the_earlier_records_survive() {
        let root = scratch("torn");
        let tier = DiskTier::open(&root);
        for key in 1..=3 {
            tier.store_body(key, &body_of(key));
        }
        let path = segment_path(&root.join(KIND), 0);
        let whole = fs::read(&path).expect("segment bytes");
        let last_start = whole.len() - RECORD_HEAD - body_of(3).len();
        for cut in last_start..whole.len() {
            let mut torn = whole[..cut].to_vec();
            torn.extend_from_slice(&[0xa5; 48]);
            fs::write(&path, &torn).expect("write torn segment");
            let reopened = DiskTier::open(&root);
            for key in 1..=2 {
                assert_eq!(reopened.load_body(key), Some(body_of(key)), "cut {cut}");
            }
            assert!(reopened.load_body(3).is_none(), "cut {cut}");
            reopened.store_body(4, &body_of(4));
            assert_eq!(reopened.load_body(4), Some(body_of(4)), "cut {cut}");
            for extra in resp_files(&root).iter().filter(|p| **p != path) {
                fs::remove_file(extra).expect("drop the new segment");
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_threads_storing_at_once_lose_no_key() {
        let root = scratch("threads");
        // Small segments, so the two writers race through many rolls.
        let tier = DiskTier::with_sizes(&root, 4 << 10, 64 << 20);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let (tier, start) = (&tier, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let key = thread * 1_000 + i;
                        tier.store_body(key, &body_of(key));
                    }
                });
            }
        });
        let keys = (0..2u64).flat_map(|t| (0..200).map(move |i| t * 1_000 + i));
        for key in keys.clone() {
            assert_eq!(tier.load_body(key), Some(body_of(key)), "key {key}");
        }
        assert_eq!(tier.stats().stores, 400);
        let reopened = DiskTier::with_sizes(&root, 4 << 10, 64 << 20);
        for key in keys {
            assert_eq!(reopened.load_body(key), Some(body_of(key)), "key {key}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_overlapping_rolls_fill_one_segment() {
        // Two stores find no segment with room and each creates one. The
        // store that claims second, whichever segment it holds, appends to
        // the segment the first one added and drops its own file.
        for reversed in [false, true] {
            let root = scratch("rolls");
            let tier = DiskTier::open(&root);
            let mut log = Log::default();
            let mut claim = |key, fresh| log.claim(key, 100, fresh, SEGMENT_BYTES, BUDGET_BYTES);
            let mut created = Vec::new();
            for key in [1, 2] {
                let (Claim::Roll(seq), doomed) = claim(key, None) else {
                    panic!("store {key} rolls");
                };
                assert!(doomed.is_empty());
                created.push((key, tier.create_segment(seq).expect("segment")));
            }
            if reversed {
                created.reverse();
            }
            let (mut written, mut dropped) = (Vec::new(), Vec::new());
            for (key, segment) in created {
                let (Claim::Write { seq, offset, .. }, doomed) = claim(key, Some(segment)) else {
                    panic!("store {key} writes");
                };
                written.push((seq, offset));
                dropped.extend(doomed);
            }
            let seq = written[0].0;
            assert_eq!(written, [(seq, 5), (seq, 105)], "reversed {reversed}");
            assert_eq!(dropped, [1 - seq], "reversed {reversed}");
            assert_eq!(log.segments.len(), 1);
            assert_eq!(log.bytes, 205);
            tier.remove_segments(&dropped);
            assert_eq!(resp_files(&root), [segment_path(&root.join(KIND), seq)]);
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Load; on a miss store and load again, as the response cache
        /// recomputes.
        Fetch(u64),
        Store(u64),
        Reopen,
        /// Cut this many bytes off the newest segment.
        Truncate(u64),
        /// Flip one byte at this fraction of a segment, chosen by index.
        Flip(usize, u16),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u64..48, 1u64..200, 0usize..8, 0u16..u16::MAX).prop_map(
            |(kind, key, cut, which, at)| match kind {
                0..=3 => Op::Fetch(key),
                4..=6 => Op::Store(key),
                7 => Op::Reopen,
                8 => Op::Truncate(cut),
                _ => Op::Flip(which, at),
            },
        )
    }

    const SEGMENT: u64 = 512;
    const BUDGET: u64 = 2_048;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Under any interleaving of stores, loads, reopens, torn tails and
        /// flipped bytes, a load returns exactly the bytes stored under its
        /// key or a miss, a miss followed by a store loads, and the
        /// directory never holds more than the budget plus one segment.
        #[test]
        fn loads_return_stored_bytes_or_miss(ops in prop::collection::vec(op(), 1..60)) {
            let root = scratch("prop");
            let dir = root.join(KIND);
            let mut tier = DiskTier::with_sizes(&root, SEGMENT, BUDGET);
            for op in ops {
                match op {
                    Op::Fetch(key) => {
                        let loaded = tier.load_body(key);
                        if let Some(bytes) = &loaded {
                            prop_assert_eq!(bytes, &body_of(key));
                        } else {
                            tier.store_body(key, &body_of(key));
                            prop_assert_eq!(tier.load_body(key), Some(body_of(key)));
                        }
                    }
                    Op::Store(key) => tier.store_body(key, &body_of(key)),
                    Op::Reopen => tier = DiskTier::with_sizes(&root, SEGMENT, BUDGET),
                    Op::Truncate(cut) => {
                        if let Some(newest) = resp_files(&root).last() {
                            let len = fs::metadata(newest).map_or(0, |m| m.len());
                            let file = OpenOptions::new().write(true).open(newest).expect("segment");
                            file.set_len(len.saturating_sub(cut)).expect("truncate");
                        }
                    }
                    Op::Flip(which, at) => {
                        let files = resp_files(&root);
                        if !files.is_empty() {
                            let path = &files[which % files.len()];
                            let mut raw = fs::read(path).expect("segment bytes");
                            if !raw.is_empty() {
                                let i = usize::from(at) % raw.len();
                                raw[i] ^= 0x10;
                                fs::write(path, &raw).expect("rewrite");
                            }
                        }
                    }
                }
                prop_assert!(
                    disk_bytes(&root) <= BUDGET + SEGMENT,
                    "{} bytes on disk in {:?}", disk_bytes(&root), resp_files(&root)
                );
                prop_assert!(dir.is_dir());
            }
            let _ = fs::remove_dir_all(&root);
        }
    }
}
