//! A bounded MPMC work queue with explicit admission control.
//!
//! The accept loop calls [`BoundedQueue::try_push`], which **never
//! blocks**: when the queue is at capacity the connection is rejected
//! right there (the server answers `503` with `Retry-After`) instead of
//! growing an unbounded backlog whose tail latency would be unbounded
//! too. Workers block in [`BoundedQueue::pop`] until an item arrives or
//! the queue is closed *and* drained — which is exactly the graceful-drain
//! contract: closing stops admission while every already-admitted
//! connection is still served.

use dg_engine::sync::{TrackedCondvar, TrackedMutex};
use std::collections::VecDeque;

/// Why [`BoundedQueue::try_push`] refused an item.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; shed the item (admission control).
    Full(T),
    /// The queue is closed (draining); no new work is admitted.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity FIFO shared between the accept loop and the workers.
pub struct BoundedQueue<T> {
    state: TrackedMutex<State<T>>,
    available: TrackedCondvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: TrackedMutex::new(
                "serve.queue.state",
                State {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            available: TrackedCondvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy; for observability only).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Admits `item` if there is room and the queue is open.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both hand the item back to the caller.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed and empty
    /// (drain complete), in which case `None` is returned.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state);
        }
    }

    /// Closes admission. Queued items remain poppable; once the queue
    /// drains, every blocked and future [`BoundedQueue::pop`] returns
    /// `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn admission_is_bounded() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()), "popping frees a slot");
    }

    #[test]
    fn close_drains_then_releases_workers() {
        let q = Arc::new(BoundedQueue::new(8));
        q.try_push(10).expect("open");
        q.try_push(11).expect("open");
        q.close();
        assert_eq!(q.try_push(12), Err(PushError::Closed(12)));
        // Already-admitted items still come out, in order.
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None, "drained and closed");
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            })
            .collect();
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for w in workers {
            assert_eq!(w.join().expect("worker exits"), None);
        }
    }

    #[test]
    fn items_flow_across_threads_in_fifo_order() {
        let q = Arc::new(BoundedQueue::new(64));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(v) = q.pop() {
                    seen.push(v);
                }
                seen
            })
        };
        for i in 0..50 {
            while q.try_push(i).is_err() {
                thread::yield_now();
            }
        }
        q.close();
        let seen = consumer.join().expect("consumer");
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_floor_is_one() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.len(), 0);
    }
}
