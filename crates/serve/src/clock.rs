//! The serving layer's wall-clock boundary.
//!
//! Simulated executions are round-driven and never read the clock; the
//! *service* wrapped around them legitimately wants two wall-clock
//! quantities — how long request handling spent executing trials, which
//! `GET /metrics` turns into a rounds-per-second throughput figure, and
//! how long a connection has left to deliver its request. All such reads
//! live here, mirroring `wsync_core::fabric`'s clock boundary: nothing
//! measured in this module ever feeds a simulated outcome, a digest, or a
//! store record.

// lint:allow(wall-clock): throughput metrics (rounds/s) and request deadlines are wall-clock by definition; confined to this boundary module and never fed into simulation state
use std::time::{Duration, Instant};

/// A started stopwatch, for measuring one handler's execution time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // lint:allow(wall-clock): the stopwatch's origin; see module docs
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // lint:allow(wall-clock): metrics-only read; see module docs
        let start = Instant::now();
        Stopwatch { start }
    }

    /// Microseconds elapsed since [`start`](Self::start), saturating at
    /// `u64::MAX` (584 thousand years of uptime).
    pub(crate) fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A moment a connection's request must have arrived by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline {
    // lint:allow(wall-clock): the deadline's moment; see module docs
    at: Instant,
}

impl Deadline {
    /// The deadline `budget` from now.
    pub(crate) fn after(budget: Duration) -> Self {
        // lint:allow(wall-clock): request-deadline read; see module docs
        let now = Instant::now();
        Deadline { at: now + budget }
    }

    /// The time left before the deadline; zero once it has passed.
    pub(crate) fn remaining(&self) -> Duration {
        // lint:allow(wall-clock): request-deadline read; see module docs
        self.at.saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let watch = Stopwatch::start();
        let a = watch.elapsed_micros();
        let b = watch.elapsed_micros();
        assert!(b >= a);
    }
}
