//! Named, poison-recovering lock wrappers whose locks are leaves.
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
//! 2. **A static analysis anchor.** `dg-analyze` resolves acquisition
//!    sites to these class names (see DESIGN.md §13), so the class string
//!    is the shared vocabulary between the code and the `lock-order`,
//!    `guard-across-blocking` and `no-blocking-in-event-loop` findings.
//! 3. **The leaf rule, checked in debug builds.** No thread acquires a
//!    tracked lock while it holds another tracked guard, so no two tracked
//!    locks can deadlock against each other. Under `debug_assertions` each
//!    thread keeps the class of the guard it holds in a thread-local slot;
//!    [`TrackedMutex::lock`] (before it blocks) and the re-acquire in
//!    [`TrackedCondvar::wait`] assert that the slot is empty, naming both
//!    classes, so every debug `cargo test` checks the rule. Release builds
//!    compile to a plain poison-recovering lock.

use std::mem::ManuallyDrop;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A mutex with a static lock-class name and poison recovery. Drop-in for
/// `std::sync::Mutex` except that [`TrackedMutex::lock`] returns the guard
/// directly (never a `Result`).
pub struct TrackedMutex<T> {
    class: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` under the lock class `class`. Class names are
    /// workspace-unique dotted paths (`"crate.module.role"`); the static
    /// analyzer scans these literals to resolve `.lock()` sites to
    /// classes, so the string must be a literal at the construction site.
    pub fn new(class: &'static str, value: T) -> Self {
        TrackedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, recovering from poison (a previous holder
    /// panicked) by taking the inner value as-is.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread already holds a tracked guard
    /// (see the module docs): the check runs before blocking, so a
    /// nested acquisition panics instead of deadlocking.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        #[cfg(debug_assertions)]
        leaf::acquire(self.class);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        TrackedGuard {
            class: self.class,
            inner: ManuallyDrop::new(inner),
        }
    }
}

impl<T> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`TrackedMutex::lock`]. Releases the mutex (and, in
/// debug builds, the thread's held-class slot) on drop.
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
        #[cfg(debug_assertions)]
        leaf::release();
        // SAFETY: `inner` is initialized at construction and only ever
        // taken out by `TrackedCondvar::wait`, which then forgets the
        // guard so this Drop never runs for it.
        unsafe { ManuallyDrop::drop(&mut self.inner) }
    }
}

/// A condition variable for use with [`TrackedMutex`]: `wait` releases
/// and re-acquires the tracked guard, and the re-acquire is checked like
/// [`TrackedMutex::lock`] (a condvar wait releases the lock, so the thread
/// holds nothing while it sleeps).
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
        #[cfg(debug_assertions)]
        leaf::release();
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(debug_assertions)]
        leaf::acquire(class);
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

/// The debug-build leaf check: the class of the one tracked guard this
/// thread holds, if any.
#[cfg(debug_assertions)]
mod leaf {
    use std::cell::Cell;

    thread_local! {
        static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// Records that this thread takes `class`, asserting it held nothing.
    pub(super) fn acquire(class: &'static str) {
        let held = HELD.get();
        debug_assert!(
            held.is_none(),
            "lock class `{class}` acquired while this thread holds `{}`: tracked locks are \
             leaves, so drop the outer guard first",
            held.unwrap_or_default()
        );
        HELD.set(Some(class));
    }

    /// Records that this thread released its tracked guard.
    pub(super) fn release() {
        HELD.set(None);
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "lock class `engine.test.inner` acquired while this thread holds \
                    `engine.test.outer`"
    )]
    fn nested_acquisition_panics_naming_both_classes() {
        let outer = TrackedMutex::new("engine.test.outer", ());
        let inner = TrackedMutex::new("engine.test.inner", ());
        let _o = outer.lock();
        let _i = inner.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn dropped_guards_and_condvar_waits_free_the_thread() {
        let first = TrackedMutex::new("engine.test.first", ());
        let second = TrackedMutex::new("engine.test.second", ());
        drop(first.lock());
        drop(second.lock());

        // Handshake on one state word: the main thread reads 1 only after
        // the waiter has released the lock inside `wait`, so the waiter
        // always re-acquires through the condvar.
        let m = Arc::new(TrackedMutex::new("engine.test.cvheld", 0u8));
        let cv = Arc::new(TrackedCondvar::new());
        let side = Arc::new(TrackedMutex::new("engine.test.cvside", ()));
        let waiter = {
            let (m, cv, side) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&side));
            std::thread::spawn(move || {
                let mut state = m.lock();
                *state = 1;
                cv.notify_all();
                while *state != 2 {
                    state = cv.wait(state);
                }
                // The re-acquired guard counts as held ...
                let nested = std::panic::catch_unwind(|| drop(side.lock()));
                assert!(nested.is_err(), "the re-acquire must be tracked");
                // ... and once it drops, the thread may take another class.
                drop(state);
                drop(side.lock());
            })
        };
        let mut state = m.lock();
        while *state != 1 {
            state = cv.wait(state);
        }
        *state = 2;
        drop(state);
        cv.notify_all();
        waiter.join().expect("waiter exits");
    }
}
