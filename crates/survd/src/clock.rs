//! Microsecond clocks for the daemon's lifecycle stamps.
//!
//! Batching bounds ("hold popped work at most `max_wait_ms`") must be
//! unit-testable without sleeping, so the batcher never reads wall
//! time directly — it consults a [`Clock`]. Production uses
//! [`SystemClock`] (monotonic, `std::time::Instant`-backed); tests use
//! [`ManualClock`], which only moves when advanced and interoperates
//! with the `simtime` civil-time substrate so deadlines can be
//! expressed against the same timestamps the fleet simulator uses.
//!
//! The clock reads microseconds because the stages it times (queue
//! wait, batch wait, per-row score share) are mostly sub-millisecond: a
//! millisecond clock rounds them to 0. Configuration stays in
//! milliseconds; callers convert at the comparison.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock.
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's epoch. Must be monotone
    /// non-decreasing.
    fn now_us(&self) -> u64;
}

/// Milliseconds between two microsecond stamps, as the stage sketches
/// observe them (0 if `to` precedes `from`).
pub(crate) fn elapsed_ms(from_us: u64, to_us: u64) -> f64 {
    to_us.saturating_sub(from_us) as f64 / 1000.0
}

/// Wall clock: microseconds since construction, via
/// `std::time::Instant` (monotonic, immune to wall-clock steps).
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// A clock whose epoch is now.
    pub fn new() -> SystemClock {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A clock that only moves when told to — deterministic deadline tests
/// never sleep.
pub struct ManualClock {
    now_us: AtomicU64,
}

impl ManualClock {
    /// A manual clock at microsecond 0.
    pub fn new() -> ManualClock {
        ManualClock {
            now_us: AtomicU64::new(0),
        }
    }

    /// A manual clock whose epoch is a `simtime` civil timestamp
    /// (microsecond 0 = `at`), so tests can phrase serving deadlines in
    /// the simulator's time base.
    pub fn starting_at(at: simtime::Timestamp) -> ManualClock {
        // The absolute origin is irrelevant to deadline arithmetic;
        // anchoring at the timestamp's epoch seconds keeps readouts
        // convertible back via `timestamp_at`.
        ManualClock {
            now_us: AtomicU64::new((at.epoch_seconds().max(0) as u64) * 1_000_000),
        }
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::SeqCst);
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.advance_us(ms * 1000);
    }

    /// Advances the clock by a `simtime` duration (negative spans are
    /// ignored — the clock is monotone).
    pub fn advance(&self, d: simtime::Duration) {
        let seconds = d.as_seconds();
        if seconds > 0 {
            self.advance_us(seconds as u64 * 1_000_000);
        }
    }

    /// The current reading as a civil timestamp (second resolution).
    pub fn timestamp_at(&self) -> simtime::Timestamp {
        simtime::Timestamp::from_epoch_seconds((self.now_us() / 1_000_000) as i64)
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_moves_only_when_advanced() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_us(), 0);
        clock.advance_ms(7);
        clock.advance_us(3);
        assert_eq!(clock.now_us(), 7_003);
    }

    #[test]
    fn manual_clock_speaks_simtime() {
        let start = simtime::Timestamp::from_ymd_hms(2017, 7, 4, 9, 30, 0);
        let clock = ManualClock::starting_at(start);
        assert_eq!(clock.timestamp_at(), start);
        clock.advance(simtime::Duration::minutes(2));
        assert_eq!(clock.timestamp_at(), start + simtime::Duration::minutes(2));
        clock.advance(simtime::Duration::seconds(-5)); // ignored: monotone
        assert_eq!(clock.timestamp_at(), start + simtime::Duration::minutes(2));
    }

    #[test]
    fn system_clock_is_monotone() {
        let clock = SystemClock::new();
        let a = clock.now_us();
        let b = clock.now_us();
        assert!(b >= a);
    }

    #[test]
    fn elapsed_ms_keeps_sub_millisecond_spans() {
        assert_eq!(elapsed_ms(1_000, 1_250), 0.25);
        assert_eq!(elapsed_ms(5, 5), 0.0);
        assert_eq!(elapsed_ms(9, 4), 0.0, "saturates, never negative");
    }
}
