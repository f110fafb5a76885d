//! A bounded MPMC queue with non-blocking admission and condvar pops —
//! the daemon's backpressure primitive.
//!
//! Two flavors of producer: [`Bounded::try_push`] never blocks (full →
//! the caller sheds with HTTP 429), [`Bounded::push_wait`] blocks for
//! space (used for the connection hand-off, where blocking the
//! acceptor translates into TCP backlog backpressure instead of
//! unbounded buffering). Two flavors of consumer: [`Bounded::pop_wait`]
//! blocks for an item, [`Bounded::try_pop`] never blocks — the batcher
//! blocks for the first job of a batch, then drains what is already
//! queued and flushes once nothing more can be popped.
//! [`Bounded::close`] drains gracefully: producers are refused,
//! consumers keep popping until the queue is empty, then see `None`.
//!
//! [`Bounded::pause`] freezes the consumer side *atomically under the
//! queue lock*: queued items stay queued (still occupying their
//! capacity slots, so `try_push` sheds deterministically once the
//! queue is full) until [`Bounded::resume`]; a paused queue yields
//! nothing to either pop. This is the overload tests' hook — pause,
//! flood with more than `capacity` requests, observe exactly
//! `capacity` admissions and the rest shed. Closing overrides a pause:
//! drain always proceeds.
//!
//! A poisoned lock is recovered, never propagated: every critical
//! section leaves the state consistent, so a panic elsewhere cannot
//! wedge admission or drain.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; the item comes back to the caller.
    Full(T),
    /// The queue is closed (draining); the item comes back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked while true (unless closed).
    paused: bool,
    /// High-water mark of `items.len()` — the bounded-memory witness
    /// asserted by the overload tests.
    peak: usize,
}

/// The bounded queue. All operations are O(1) amortized.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    /// Signaled when an item arrives or the queue closes.
    items_cv: Condvar,
    /// Signaled when space frees up or the queue closes.
    space_cv: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Bounded<T> {
        assert!(capacity > 0, "capacity must be positive");
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                paused: false,
                peak: 0,
            }),
            items_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Non-blocking push. Returns the queue depth after the push.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        state.peak = state.peak.max(depth);
        drop(state);
        self.items_cv.notify_one();
        Ok(depth)
    }

    /// Blocking push: waits for space. Returns the item if the queue
    /// closes while waiting.
    pub fn push_wait(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                let depth = state.items.len();
                state.peak = state.peak.max(depth);
                drop(state);
                self.items_cv.notify_one();
                return Ok(());
            }
            state = self.space_cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pops the next item, blocking until one can be handed out.
    /// Returns `None` once the queue is closed and empty — no item
    /// will ever arrive. While the queue is paused (and not closed) no
    /// item is handed out, even if some are queued.
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = self.pop_locked(&mut state) {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.items_cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pops the next item if one can be handed out right now: `None`
    /// when the queue is empty, or paused and not closed.
    pub fn try_pop(&self) -> Option<T> {
        self.pop_locked(&mut self.lock())
    }

    fn pop_locked(&self, state: &mut State<T>) -> Option<T> {
        if state.paused && !state.closed {
            return None;
        }
        let item = state.items.pop_front()?;
        self.space_cv.notify_one();
        Some(item)
    }

    /// Freezes the consumer side: queued items stay queued (and keep
    /// occupying capacity slots) until [`Bounded::resume`]. Atomic with
    /// respect to pops — no in-flight item is ever half-taken.
    pub fn pause(&self) {
        self.lock().paused = true;
    }

    /// Unfreezes a paused queue and wakes blocked consumers.
    pub fn resume(&self) {
        self.lock().paused = false;
        self.items_cv.notify_all();
    }

    /// Closes the queue: further pushes fail, pops drain what remains.
    /// Overrides a pause — drain always proceeds.
    pub fn close(&self) {
        self.lock().closed = true;
        self.items_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been — must never exceed
    /// [`Bounded::capacity`].
    pub fn peak_depth(&self) -> usize {
        self.lock().peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_shed_at_capacity() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None, "empty: try_pop never blocks");
    }

    #[test]
    fn close_drains_then_reports() {
        let q = Bounded::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert!(matches!(q.try_push("b"), Err(PushError::Closed("b"))));
        assert_eq!(q.pop_wait(), Some("a"));
        assert_eq!(q.pop_wait(), None);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn push_wait_blocks_until_space_or_close() {
        let q = Arc::new(Bounded::new(1));
        q.try_push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(1u32))
        };
        // Free a slot; the blocked producer completes.
        assert_eq!(q.pop_wait(), Some(0));
        producer.join().unwrap().expect("pushed after space freed");
        assert_eq!(q.pop_wait(), Some(1));

        q.try_push(2u32).unwrap();
        let refused = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(3u32))
        };
        q.close();
        assert_eq!(refused.join().unwrap().expect_err("closed"), 3);
        assert_eq!(q.peak_depth(), 1);
    }

    #[test]
    fn pause_holds_items_and_close_overrides() {
        let q = Bounded::new(2);
        q.pause();
        q.try_push("a").unwrap();
        // Paused: the item stays queued, still occupying its slot.
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.len(), 1);
        q.try_push("b").unwrap();
        assert!(matches!(q.try_push("c"), Err(PushError::Full("c"))));
        // Resume delivers in FIFO order.
        q.resume();
        assert_eq!(q.pop_wait(), Some("a"));
        // Close overrides a fresh pause — drain proceeds.
        q.pause();
        q.close();
        assert_eq!(q.try_pop(), Some("b"));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn concurrent_producers_respect_the_bound() {
        let q = Arc::new(Bounded::new(3));
        let mut handles = Vec::new();
        for i in 0..16u32 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || q.try_push(i).is_ok()));
        }
        let admitted = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert!(admitted <= 3, "admitted {admitted} > capacity");
        assert!(q.peak_depth() <= 3);
        assert_eq!(q.len(), admitted.min(3));
    }
}
