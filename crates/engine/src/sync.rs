//! Named, poison-recovering lock wrappers with an optional runtime
//! lock-order witness.
//!
//! Every shared lock in the workspace is a [`TrackedMutex`] carrying a
//! `&'static str` **lock class** — a stable, human-chosen name like
//! `"serve.queue.state"`. The wrapper gives three things:
//!
//! 1. **Poison recovery by construction.** `lock()` returns the guard
//!    directly, recovering from a poisoned mutex via
//!    [`std::sync::PoisonError::into_inner`]. This replaces the
//!    `lock_recovering` helper that was previously copy-pasted into every
//!    crate: all workspace locks protect state that is valid at every
//!    step (writes are completed before guards drop), so a panic between
//!    acquire and release never leaves torn data — recovery is safe, and
//!    now it is also unforgettable.
//! 2. **A static analysis anchor.** `dg-analyze`'s lock-order rule
//!    resolves acquisition sites to these class names (see DESIGN.md §13),
//!    so the class string is the shared vocabulary between the code, the
//!    static lock-order graph, and the runtime witness.
//! 3. **A runtime witness** (feature `lock-witness`): every acquisition
//!    records the set of classes already held by the acquiring thread,
//!    building the *observed* lock-order graph. `dg-analyze --witness`
//!    cross-checks it against the static graph: every runtime edge must
//!    appear statically, and no runtime edge may close a cycle. With the
//!    feature disabled (the default) the wrappers compile down to plain
//!    poison-recovering locks with zero bookkeeping.
//!
//! Witness recording is deliberately leaf-locked: the global registry uses
//! a raw [`std::sync::Mutex`] and never acquires a tracked lock, so the
//! recorder itself can never deadlock against the locks it observes. The
//! witness file contains no timestamps and sorted snapshots, keeping runs
//! deterministic.

use std::mem::ManuallyDrop;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A mutex with a static lock-class name, poison recovery, and optional
/// acquisition-order recording. Drop-in for `std::sync::Mutex` except that
/// [`TrackedMutex::lock`] returns the guard directly (never a `Result`).
pub struct TrackedMutex<T> {
    class: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` under the lock class `class`. Class names are
    /// workspace-unique dotted paths (`"crate.module.role"`); the static
    /// analyzer scans these literals to name nodes in the lock-order
    /// graph, so the string must be a literal at the construction site.
    pub fn new(class: &'static str, value: T) -> Self {
        TrackedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, recovering from poison (a previous holder
    /// panicked) by taking the inner value as-is. Records the acquisition
    /// against the thread's held-lock stack when the `lock-witness`
    /// feature is enabled.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        witness::record_acquire(self.class);
        TrackedGuard {
            class: self.class,
            inner: ManuallyDrop::new(inner),
        }
    }

    /// The lock class this mutex was constructed with.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

impl<T> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`TrackedMutex::lock`]. Releases the mutex (and pops
/// the witness held-stack) on drop.
pub struct TrackedGuard<'a, T> {
    class: &'static str,
    inner: ManuallyDrop<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        witness::record_release(self.class);
        // SAFETY: `inner` is initialized at construction and only ever
        // taken out by `TrackedCondvar::wait`, which then forgets the
        // guard so this Drop never runs for it.
        unsafe { ManuallyDrop::drop(&mut self.inner) }
    }
}

/// A condition variable for use with [`TrackedMutex`]: `wait` releases
/// and re-acquires the tracked guard, keeping the witness held-stack
/// consistent across the block (a condvar wait releases the lock, so it
/// must not look like the lock was held across the sleep).
pub struct TrackedCondvar {
    inner: Condvar,
}

impl Default for TrackedCondvar {
    fn default() -> Self {
        Self::new()
    }
}

impl TrackedCondvar {
    /// A fresh condition variable.
    pub fn new() -> Self {
        TrackedCondvar {
            inner: Condvar::new(),
        }
    }

    /// Blocks until notified, atomically releasing `guard` while asleep
    /// and re-acquiring it (poison-recovering) before returning.
    pub fn wait<'a, T>(&self, mut guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        let class = guard.class;
        // SAFETY: `guard` is forgotten immediately after the take, so its
        // Drop (which would drop `inner` a second time) never runs.
        let inner = unsafe { ManuallyDrop::take(&mut guard.inner) };
        std::mem::forget(guard);
        witness::record_release(class);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        witness::record_acquire(class);
        TrackedGuard {
            class,
            inner: ManuallyDrop::new(inner),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl std::fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedCondvar").finish_non_exhaustive()
    }
}

/// Whether this build records lock acquisitions (the `lock-witness`
/// feature). Binaries print this so a mis-wired CI step fails loudly
/// instead of validating an empty witness.
pub fn witness_enabled() -> bool {
    cfg!(feature = "lock-witness")
}

/// Writes the full witness snapshot (`# dg-lock-witness v1` header, every
/// observed `class` and `edge` line, sorted) to `path`, appending so that
/// snapshots from cooperating processes accumulate (the parser tolerates
/// duplicates).
///
/// # Errors
///
/// Any I/O error from opening or writing the file; with the
/// `lock-witness` feature disabled, an [`std::io::ErrorKind::Unsupported`]
/// error, so callers asked to produce a witness cannot silently emit an
/// empty one.
pub fn witness_save(path: &std::path::Path) -> std::io::Result<()> {
    witness::save(path)
}

#[cfg(feature = "lock-witness")]
mod witness {
    //! The recorder behind the `lock-witness` feature: a thread-local
    //! stack of held classes plus a process-global registry of observed
    //! classes and ordered edges `(held, acquired)`.

    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::io::Write;
    use std::path::{Path, PathBuf};
    use std::sync::{Mutex, OnceLock, PoisonError};

    thread_local! {
        /// Lock classes currently held by this thread, in acquisition
        /// order. Duplicate entries are possible when two instances of one
        /// class are held at once, and are kept.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    struct Registry {
        classes: BTreeSet<&'static str>,
        edges: BTreeSet<(&'static str, &'static str)>,
        /// Incremental sink from `DG_LOCK_WITNESS`, read once at first
        /// recording; new classes/edges are appended as observed so even
        /// an aborted process leaves a usable (partial) witness.
        sink: Option<PathBuf>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            Mutex::new(Registry {
                classes: BTreeSet::new(),
                edges: BTreeSet::new(),
                sink: std::env::var_os("DG_LOCK_WITNESS").map(PathBuf::from),
            })
        })
    }

    /// Best-effort append; the witness is diagnostic, never a
    /// correctness dependency, so I/O errors are swallowed.
    fn append_sink(sink: &Path, lines: &str) {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(sink)
        {
            let _ = file.write_all(lines.as_bytes());
        }
    }

    pub(super) fn record_acquire(class: &'static str) {
        let held_snapshot: Vec<&'static str> = HELD.with(|held| {
            let mut held = held.borrow_mut();
            let snapshot = held.clone();
            held.push(class);
            snapshot
        });
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let mut fresh = String::new();
        if reg.classes.insert(class) {
            fresh.push_str(&format!("class {class}\n"));
        }
        for held in held_snapshot {
            if held != class && reg.edges.insert((held, class)) {
                fresh.push_str(&format!("edge {held} {class}\n"));
            }
        }
        if !fresh.is_empty() {
            if let Some(sink) = reg.sink.clone() {
                append_sink(&sink, &fresh);
            }
        }
    }

    pub(super) fn record_release(class: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }

    /// Sorted snapshot of everything observed so far.
    pub(super) fn snapshot() -> String {
        let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::from("# dg-lock-witness v1\n");
        for class in &reg.classes {
            out.push_str(&format!("class {class}\n"));
        }
        for (from, to) in &reg.edges {
            out.push_str(&format!("edge {from} {to}\n"));
        }
        out
    }

    pub(super) fn save(path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(snapshot().as_bytes())
    }
}

#[cfg(not(feature = "lock-witness"))]
mod witness {
    //! No-op recorder: without the `lock-witness` feature the wrappers
    //! cost exactly a poison-recovering lock and nothing else.

    #[inline]
    pub(super) fn record_acquire(_class: &'static str) {}

    #[inline]
    pub(super) fn record_release(_class: &'static str) {}

    pub(super) fn save(_path: &std::path::Path) -> std::io::Result<()> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "lock-witness feature not compiled in; rebuild with --features dg-engine/lock-witness",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tracked_mutex_guards_data_like_a_mutex() {
        let m = Arc::new(TrackedMutex::new("engine.test.counter", 0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementer");
        }
        assert_eq!(*m.lock(), 4000);
        assert_eq!(m.class(), "engine.test.counter");
    }

    #[test]
    fn tracked_mutex_recovers_from_poison() {
        let m = Arc::new(TrackedMutex::new("engine.test.poison", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        // A plain std Mutex would now return Err(PoisonError).
        assert_eq!(*m.lock(), 7, "lock() must recover, not panic");
    }

    #[test]
    fn tracked_condvar_wakes_waiters() {
        let m = Arc::new(TrackedMutex::new("engine.test.cv", false));
        let cv = Arc::new(TrackedCondvar::new());
        let waiter = {
            let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
            std::thread::spawn(move || {
                let mut ready = m.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
                true
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        assert!(waiter.join().expect("waiter exits"));
    }

    #[cfg(feature = "lock-witness")]
    #[test]
    fn witness_records_nested_acquisition_edges() {
        // Deliberately nest two classes; the registry must contain both
        // classes and the (outer, inner) edge — this is the runtime half
        // of the lock-order cross-check, proven live.
        let outer = TrackedMutex::new("engine.test.outer", ());
        let inner = TrackedMutex::new("engine.test.inner", ());
        {
            let _o = outer.lock();
            let _i = inner.lock();
        }
        let dir = std::env::temp_dir().join(format!("dg-witness-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        witness_save(&dir).expect("snapshot written");
        let text = std::fs::read_to_string(&dir).expect("witness readable");
        assert!(text.starts_with("# dg-lock-witness v1"), "{text}");
        assert!(text.contains("class engine.test.outer"), "{text}");
        assert!(text.contains("class engine.test.inner"), "{text}");
        assert!(
            text.contains("edge engine.test.outer engine.test.inner"),
            "{text}"
        );
        assert!(
            !text.contains("edge engine.test.inner engine.test.outer"),
            "no inverted edge was observed: {text}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[cfg(feature = "lock-witness")]
    #[test]
    fn witness_condvar_wait_releases_the_held_class() {
        // While parked in wait() the class must not be on the held stack:
        // an acquisition from the waiting thread after wakeup must not
        // fabricate a self-edge, and the post-wait re-acquire must.
        let m = Arc::new(TrackedMutex::new("engine.test.cvheld", 0u32));
        let cv = Arc::new(TrackedCondvar::new());
        let side = Arc::new(TrackedMutex::new("engine.test.cvside", ()));
        let waiter = {
            let (m, cv, side) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&side));
            std::thread::spawn(move || {
                let mut g = m.lock();
                while *g == 0 {
                    g = cv.wait(g);
                }
                // Held stack here: [cvheld] (re-acquired by wait).
                let _s = side.lock();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        *m.lock() = 1;
        cv.notify_all();
        waiter.join().expect("waiter exits");
        let text = super::witness::snapshot();
        assert!(
            text.contains("edge engine.test.cvheld engine.test.cvside"),
            "re-acquired class must be back on the stack: {text}"
        );
    }

    #[cfg(not(feature = "lock-witness"))]
    #[test]
    fn witness_save_is_unsupported_without_the_feature() {
        assert!(!witness_enabled());
        let err = witness_save(std::path::Path::new("/nonexistent/w"))
            .expect_err("featureless build must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }
}
