//! In-flight request coalescing ("single-flight").
//!
//! N identical concurrent requests compute once: the first arrival
//! becomes the **leader** and runs the computation; every request with the
//! same content key that arrives while the leader is still computing
//! becomes a **follower** and blocks on a condition variable until the
//! leader publishes the shared result. Keys are the same content hashes
//! the substrate caches use ([`darkgates::pdn::cache::ContentKey`]), so
//! "identical" means identical *physics inputs*, not identical
//! bytes-on-the-wire.
//!
//! Coalescing composes with the response cache
//! ([`crate::respcache`]) rather than replacing it: the cache
//! deduplicates *across time* (a repeat of yesterday's sweep is a map
//! lookup), the coalescer deduplicates *across concurrency* (a
//! thundering herd of the same cold sweep computes it once instead of
//! once per worker).
//!
//! A leader that panics publishes the panic message instead of a value, so
//! followers never hang; the flight entry is removed either way.

use dg_engine::sync::{TrackedCondvar, TrackedMutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How a request's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// This request ran the computation.
    Leader,
    /// This request reused a concurrent identical computation.
    Follower,
}

/// One in-flight computation: publication slot plus wakeup signal.
struct Flight<T> {
    slot: TrackedMutex<Option<Result<T, String>>>,
    done: TrackedCondvar,
}

/// A single-flight coalescer over content-keyed computations.
///
/// `T` is cloned out to every follower, so callers wrap bulky payloads in
/// [`Arc`] (the server coalesces `Arc<str>` response bodies).
pub struct Coalescer<T: Clone> {
    inflight: TrackedMutex<HashMap<u64, Arc<Flight<T>>>>,
}

impl<T: Clone> Default for Coalescer<T> {
    fn default() -> Self {
        Coalescer {
            inflight: TrackedMutex::new("serve.coalesce.inflight", HashMap::new()),
        }
    }
}

impl<T: Clone> std::fmt::Debug for Coalescer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("inflight", &self.inflight_len())
            .finish()
    }
}

impl<T: Clone> Coalescer<T> {
    /// A fresh coalescer with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys currently in flight (observability; also
    /// exported as a gauge by the server).
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    /// Runs `compute` for `key`, coalescing with any identical in-flight
    /// computation.
    ///
    /// Returns the shared result and this caller's [`Role`]. If the
    /// leader's `compute` panicked, every participant receives the panic
    /// message as `Err` (and the panic does not propagate).
    pub fn run(&self, key: u64, compute: impl FnOnce() -> T) -> (Result<T, String>, Role) {
        let flight = {
            let mut map = self.inflight.lock();
            if let Some(existing) = map.get(&key) {
                let flight = Arc::clone(existing);
                drop(map);
                return (self.wait(&flight), Role::Follower);
            }
            let fresh = Arc::new(Flight {
                slot: TrackedMutex::new("serve.coalesce.flight", None),
                done: TrackedCondvar::new(),
            });
            map.insert(key, Arc::clone(&fresh));
            fresh
        };

        // Leader path: compute outside every lock, publish, then retire
        // the flight so later identical requests start fresh (and hit the
        // response cache instead).
        let outcome = catch_unwind(AssertUnwindSafe(compute)).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "handler panicked".to_owned())
        });
        *flight.slot.lock() = Some(outcome.clone());
        flight.done.notify_all();
        self.inflight.lock().remove(&key);
        (outcome, Role::Leader)
    }

    fn wait(&self, flight: &Flight<T>) -> Result<T, String> {
        let mut slot = flight.slot.lock();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = flight.done.wait(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Two concurrent identical requests → exactly one computation. The
    /// leader is held inside `compute` until the follower is provably
    /// blocked on the flight, so the overlap is deterministic, not a race.
    #[test]
    fn concurrent_identical_requests_compute_once() {
        let coalescer = Arc::new(Coalescer::<u64>::new());
        let computations = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();

        let leader = {
            let coalescer = Arc::clone(&coalescer);
            let computations = Arc::clone(&computations);
            thread::spawn(move || {
                coalescer.run(7, move || {
                    computations.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).expect("test channel");
                    release_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("released");
                    42u64
                })
            })
        };

        // Wait until the leader is inside compute, then launch the
        // follower against the same key.
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("leader started");
        assert_eq!(coalescer.inflight_len(), 1);
        let follower = {
            let coalescer = Arc::clone(&coalescer);
            let computations = Arc::clone(&computations);
            thread::spawn(move || {
                coalescer.run(7, move || {
                    computations.fetch_add(1, Ordering::SeqCst);
                    0u64
                })
            })
        };
        // The follower must end up parked on the flight, not computing.
        // Poll briefly: it never increments the counter.
        for _ in 0..50 {
            if computations.load(Ordering::SeqCst) > 1 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(computations.load(Ordering::SeqCst), 1);

        release_tx.send(()).expect("release leader");
        let (lead_result, lead_role) = leader.join().expect("leader thread");
        let (follow_result, follow_role) = follower.join().expect("follower thread");
        assert_eq!(lead_result, Ok(42));
        assert_eq!(follow_result, Ok(42));
        assert_eq!(lead_role, Role::Leader);
        assert_eq!(follow_role, Role::Follower);
        assert_eq!(
            computations.load(Ordering::SeqCst),
            1,
            "one computation total"
        );
        assert_eq!(coalescer.inflight_len(), 0, "flight retired");
    }

    #[test]
    fn different_keys_do_not_coalesce() {
        let c = Coalescer::<u32>::new();
        let (a, ra) = c.run(1, || 10);
        let (b, rb) = c.run(2, || 20);
        assert_eq!((a, ra), (Ok(10), Role::Leader));
        assert_eq!((b, rb), (Ok(20), Role::Leader));
    }

    #[test]
    fn sequential_same_key_recomputes() {
        let c = Coalescer::<u32>::new();
        let mut calls = 0;
        let _ = c.run(9, || {
            calls += 1;
            1
        });
        let _ = c.run(9, || {
            calls += 1;
            2
        });
        // No overlap → no coalescing: time-domain dedup is the response
        // cache's job, not the coalescer's.
        assert_eq!(calls, 2);
    }

    #[test]
    fn leader_panic_reaches_followers_as_error() {
        let coalescer = Arc::new(Coalescer::<u32>::new());
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let coalescer = Arc::clone(&coalescer);
            thread::spawn(move || {
                coalescer.run(3, move || {
                    started_tx.send(()).expect("test channel");
                    release_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("released");
                    panic!("boom in handler");
                })
            })
        };
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("leader started");
        let follower = {
            let coalescer = Arc::clone(&coalescer);
            thread::spawn(move || coalescer.run(3, || 99))
        };
        // Give the follower time to park, then let the leader explode.
        thread::sleep(Duration::from_millis(20));
        release_tx.send(()).expect("release");
        let (lead, _) = leader.join().expect("leader does not unwind");
        let (follow, role) = follower.join().expect("follower thread");
        assert_eq!(lead, Err("boom in handler".to_owned()));
        match role {
            // Deterministically parked followers see the same error; if the
            // follower lost the race and started after retirement, it
            // computed fresh — both are sound.
            Role::Follower => assert_eq!(follow, Err("boom in handler".to_owned())),
            Role::Leader => assert_eq!(follow, Ok(99)),
        }
        assert_eq!(coalescer.inflight_len(), 0);
    }
}
