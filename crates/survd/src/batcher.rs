//! Micro-batching: coalescing in-flight score requests into chunks.
//!
//! [`BatcherCore`] is the pure state machine — no threads, no sockets,
//! no wall clock. It holds popped requests (FIFO) and decides, given a
//! [`Clock`](crate::clock::Clock) reading and whether the intake can
//! yield another request right now, when a batch is due. The batcher
//! is *work-conserving* (natural batching): a batch flushes as soon as
//! the intake is empty, so it only grows while the previous flush runs
//! and nobody waits on a timer when the daemon is idle. While the
//! intake keeps yielding, two bounds cap the batch: `max_rows` pending
//! rows, or the oldest held request having waited `max_wait_ms`. The
//! server's batcher thread blocks for a first request, drains the
//! queue without waiting and flushes; the unit and property tests
//! drive the core directly with a `ManualClock`, so flush behavior is
//! pinned without ever sleeping.
//!
//! Coalescing is transparent by construction: batches are contiguous
//! runs of the request arrival order, and scoring a concatenation of
//! rows through `serve::score_rows` produces, per row, exactly the
//! same probabilities as scoring each request alone (each row's
//! probability is an independent tree walk). The
//! `batcher_transparency` property test pins this bitwise across batch
//! sizes and worker counts.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::VecDeque;

/// When to flush a held micro-batch that the intake is still feeding.
/// An empty intake flushes at once, whatever the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as at least this many rows are pending. A single
    /// request larger than the cap still forms one batch — requests
    /// are never split.
    pub max_rows: usize,
    /// Flush at the latest this many milliseconds after the oldest
    /// held request was popped, even if the intake still has work.
    pub max_wait_ms: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_rows: 64,
            max_wait_ms: 2,
        }
    }
}

/// One pending item with its bookkeeping.
#[derive(Debug)]
struct Pending<T> {
    item: T,
    rows: usize,
    held_since_us: u64,
}

/// The coalescing state machine. `T` is whatever the caller needs to
/// carry per request (the server uses a job with a response slot; the
/// tests use plain row vectors).
#[derive(Debug)]
pub struct BatcherCore<T> {
    policy: BatchPolicy,
    pending: VecDeque<Pending<T>>,
    pending_rows: usize,
}

impl<T> BatcherCore<T> {
    /// An empty batcher under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_rows` is zero.
    pub fn new(policy: BatchPolicy) -> BatcherCore<T> {
        assert!(policy.max_rows > 0, "max_rows must be positive");
        BatcherCore {
            policy,
            pending: VecDeque::new(),
            pending_rows: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Holds a request of `rows` rows popped at `now_us`.
    pub fn push(&mut self, item: T, rows: usize, now_us: u64) {
        self.pending.push_back(Pending {
            item,
            rows,
            held_since_us: now_us,
        });
        self.pending_rows += rows;
    }

    /// Pending request count.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Pending row count across requests.
    pub fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The absolute time (µs) by which a flush must happen even if the
    /// intake keeps yielding: the oldest held request's pop plus
    /// `max_wait_ms`. `None` when nothing is pending.
    pub fn deadline_us(&self) -> Option<u64> {
        self.pending.front().map(|p| {
            p.held_since_us
                .saturating_add(self.policy.max_wait_ms.saturating_mul(1000))
        })
    }

    /// Whether a batch should flush at `now_us`. With something
    /// pending it is due when the intake is empty (work conservation:
    /// nothing more could join without waiting), when the row cap is
    /// met, or when the oldest held request's deadline has passed.
    pub fn due(&self, now_us: u64, intake_empty: bool) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        intake_empty
            || self.pending_rows >= self.policy.max_rows
            || self.deadline_us().is_some_and(|d| now_us >= d)
    }

    /// Takes the next batch: requests from the front, in arrival
    /// order, stopping once the running row total reaches `max_rows`.
    /// Always takes at least one request when any is pending, so an
    /// oversized request flushes alone rather than starving.
    pub fn take_batch(&mut self) -> Vec<T> {
        let mut taken = Vec::new();
        let mut rows = 0usize;
        while let Some(p) = self.pending.pop_front() {
            if !taken.is_empty() && rows + p.rows > self.policy.max_rows {
                self.pending.push_front(p);
                break;
            }
            rows += p.rows;
            self.pending_rows -= p.rows;
            taken.push(p.item);
            if rows >= self.policy.max_rows {
                break;
            }
        }
        taken
    }
}

/// Static counter name for a batch of `rows` rows — a power-of-two
/// histogram (`le` = less-or-equal bucket upper bound) rendered under
/// `/metrics` and the run trace.
pub fn batch_size_bucket(rows: usize) -> &'static str {
    match rows {
        0..=1 => "survd.batch_rows_le_1",
        2 => "survd.batch_rows_le_2",
        3..=4 => "survd.batch_rows_le_4",
        5..=8 => "survd.batch_rows_le_8",
        9..=16 => "survd.batch_rows_le_16",
        17..=32 => "survd.batch_rows_le_32",
        33..=64 => "survd.batch_rows_le_64",
        _ => "survd.batch_rows_gt_64",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};

    fn policy(max_rows: usize, max_wait_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_rows,
            max_wait_ms,
        }
    }

    #[test]
    fn flushes_on_row_threshold() {
        let mut core = BatcherCore::new(policy(8, 100));
        let clock = ManualClock::new();
        core.push("a", 3, clock.now_us());
        core.push("b", 4, clock.now_us());
        assert!(!core.due(clock.now_us(), false), "7 < 8 rows, fresh");
        core.push("c", 1, clock.now_us());
        assert!(core.due(clock.now_us(), false), "8 rows reached");
        assert_eq!(core.take_batch(), vec!["a", "b", "c"]);
        assert!(core.is_empty());
        assert_eq!(core.pending_rows(), 0);
    }

    #[test]
    fn empty_intake_flushes_at_once_under_a_frozen_clock() {
        let mut core = BatcherCore::new(policy(64, 5));
        let clock = ManualClock::new();
        assert!(!core.due(clock.now_us(), true), "nothing pending");
        core.push("only", 1, clock.now_us());
        assert!(!core.due(clock.now_us(), false), "intake still yielding");
        assert!(core.due(clock.now_us(), true), "no timer wait when idle");
        assert_eq!(core.take_batch(), vec!["only"]);
    }

    #[test]
    fn flushes_on_deadline_without_sleeping() {
        let mut core = BatcherCore::new(policy(64, 5));
        let clock = ManualClock::new();
        core.push("only", 1, clock.now_us());
        assert_eq!(core.deadline_us(), Some(5_000));
        clock.advance_us(4_999);
        assert!(!core.due(clock.now_us(), false), "deadline not reached");
        clock.advance_us(1);
        assert!(core.due(clock.now_us(), false), "deadline reached");
        assert_eq!(core.take_batch(), vec!["only"]);
    }

    #[test]
    fn deadline_tracks_the_oldest_request() {
        let mut core = BatcherCore::new(policy(64, 10));
        let clock = ManualClock::new();
        core.push("old", 1, clock.now_us());
        clock.advance_ms(7);
        core.push("new", 1, clock.now_us());
        // The deadline is the *old* request's, not the newest's.
        assert_eq!(core.deadline_us(), Some(10_000));
        clock.advance_ms(3);
        assert!(core.due(clock.now_us(), false));
        // Both flush together once due.
        assert_eq!(core.take_batch(), vec!["old", "new"]);
    }

    #[test]
    fn batches_partition_arrival_order() {
        let mut core = BatcherCore::new(policy(4, 100));
        for (name, rows) in [("a", 2), ("b", 2), ("c", 3), ("d", 1), ("e", 1)] {
            core.push(name, rows, 0);
        }
        // a+b reach 4; c would overflow a started batch so it waits.
        assert_eq!(core.take_batch(), vec!["a", "b"]);
        // c alone is 3; d fits (4); e overflows.
        assert_eq!(core.take_batch(), vec!["c", "d"]);
        assert_eq!(core.take_batch(), vec!["e"]);
        assert!(core.take_batch().is_empty());
    }

    #[test]
    fn oversized_request_flushes_alone() {
        let mut core = BatcherCore::new(policy(4, 100));
        core.push("huge", 10, 0);
        core.push("next", 1, 0);
        assert!(core.due(0, false), "10 >= 4 rows");
        assert_eq!(core.take_batch(), vec!["huge"]);
        assert_eq!(core.take_batch(), vec!["next"]);
    }

    #[test]
    fn batch_size_buckets_are_monotone() {
        assert_eq!(batch_size_bucket(1), "survd.batch_rows_le_1");
        assert_eq!(batch_size_bucket(2), "survd.batch_rows_le_2");
        assert_eq!(batch_size_bucket(8), "survd.batch_rows_le_8");
        assert_eq!(batch_size_bucket(9), "survd.batch_rows_le_16");
        assert_eq!(batch_size_bucket(64), "survd.batch_rows_le_64");
        assert_eq!(batch_size_bucket(65), "survd.batch_rows_gt_64");
    }
}
