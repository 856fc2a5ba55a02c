//! Service counters behind `GET /metrics`.
//!
//! Counters are cumulative over the server's lifetime and updated
//! lock-free by handler threads. The headline figures:
//!
//! * `store_hits` / `store_misses` — trials served straight from the
//!   content-addressed store versus trials the engine had to execute.
//!   The CI smoke asserts a repeated `POST /run` is all hits.
//! * `rounds_per_sec` — simulated rounds streamed per wall-clock second
//!   of request execution time (cache hits make this large by design:
//!   it measures *serving* throughput, not raw engine speed — the bench
//!   suite owns that number).
//! * `accepted` / `rejected` — connections admitted to a handler thread
//!   versus connections turned away with a `503` because the server was
//!   already at its concurrent-handler cap. The saturation smoke asserts
//!   a burst past the cap moves `rejected`, not the thread count.
//! * `store_open` — what opening the store at start-up found: `records`
//!   loaded, undecodable `dropped_lines`, `shards_repaired`, and the
//!   open's wall-clock `micros`. The serve smoke asserts a restarted
//!   daemon loads one record per shard line and drops none.

use std::sync::atomic::{AtomicU64, Ordering};

use wsync_core::json::Value;

/// Lock-free cumulative service counters.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    sim_rounds: AtomicU64,
    exec_micros: AtomicU64,
    points_stopped: AtomicU64,
    trials_saved: AtomicU64,
    /// The store open's records loaded, lines dropped, shards repaired
    /// and wall-clock microseconds, in that order.
    store_open: [AtomicU64; 4],
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one handled request (any route).
    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection admitted to a handler thread.
    pub(crate) fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection refused with a `503` at the handler cap.
    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections admitted to a handler thread over the server's
    /// lifetime. Every handler thread ever spawned is counted here —
    /// the saturation test uses this as its "no thread growth" witness.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused with a `503` over the server's lifetime.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Folds one completed run/sweep into the counters: `hits` trials
    /// from cache, `misses` executed, `rounds` simulated rounds streamed,
    /// over `micros` of wall-clock execution.
    pub(crate) fn record_work(&self, hits: u64, misses: u64, rounds: u64, micros: u64) {
        self.store_hits.fetch_add(hits, Ordering::Relaxed);
        self.store_misses.fetch_add(misses, Ordering::Relaxed);
        self.sim_rounds.fetch_add(rounds, Ordering::Relaxed);
        self.exec_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Folds one adaptive sweep's stopping outcome into the counters:
    /// `stopped` grid points halted before their seed budget, together
    /// saving `saved` trials against a fixed-count run of the budget.
    pub(crate) fn record_stops(&self, stopped: u64, saved: u64) {
        self.points_stopped.fetch_add(stopped, Ordering::Relaxed);
        self.trials_saved.fetch_add(saved, Ordering::Relaxed);
    }

    /// Records what opening the store found: `records` loaded, `dropped`
    /// undecodable lines, `repaired` shards, over `micros` of wall clock.
    pub(crate) fn record_store_open(&self, records: u64, dropped: u64, repaired: u64, micros: u64) {
        for (slot, value) in self
            .store_open
            .iter()
            .zip([records, dropped, repaired, micros])
        {
            slot.store(value, Ordering::Relaxed);
        }
    }

    /// Grid points stopped early by a sweep's stopping rule over the
    /// server's lifetime.
    pub fn points_stopped(&self) -> u64 {
        self.points_stopped.load(Ordering::Relaxed)
    }

    /// Trials adaptive stopping avoided over the server's lifetime.
    fn trials_saved(&self) -> u64 {
        self.trials_saved.load(Ordering::Relaxed)
    }

    /// Trials served from the store over the server's lifetime.
    fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Trials the engine executed over the server's lifetime.
    fn store_misses(&self) -> u64 {
        self.store_misses.load(Ordering::Relaxed)
    }

    /// The `GET /metrics` body.
    pub fn to_value(&self) -> Value {
        let hits = self.store_hits();
        let misses = self.store_misses();
        let rounds = self.sim_rounds.load(Ordering::Relaxed);
        let micros = self.exec_micros.load(Ordering::Relaxed);
        let rounds_per_sec = if micros == 0 {
            0.0
        } else {
            rounds as f64 / (micros as f64 / 1_000_000.0)
        };
        Value::Object(vec![
            (
                "requests".to_string(),
                Value::Int(self.requests.load(Ordering::Relaxed) as i64),
            ),
            ("accepted".to_string(), Value::Int(self.accepted() as i64)),
            ("rejected".to_string(), Value::Int(self.rejected() as i64)),
            ("store_hits".to_string(), Value::Int(hits as i64)),
            ("store_misses".to_string(), Value::Int(misses as i64)),
            (
                "trials_served".to_string(),
                Value::Int((hits + misses) as i64),
            ),
            ("sim_rounds".to_string(), Value::Int(rounds as i64)),
            ("exec_micros".to_string(), Value::Int(micros as i64)),
            ("rounds_per_sec".to_string(), Value::Float(rounds_per_sec)),
            (
                "points_stopped".to_string(),
                Value::Int(self.points_stopped() as i64),
            ),
            (
                "trials_saved".to_string(),
                Value::Int(self.trials_saved() as i64),
            ),
            (
                "store_open".to_string(),
                Value::Object(
                    ["records", "dropped_lines", "shards_repaired", "micros"]
                        .iter()
                        .zip(&self.store_open)
                        .map(|(key, value)| {
                            (key.to_string(), Value::from(value.load(Ordering::Relaxed)))
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let metrics = Metrics::new();
        metrics.record_request();
        metrics.record_accepted();
        metrics.record_accepted();
        metrics.record_rejected();
        metrics.record_work(3, 2, 1_000, 500_000);
        metrics.record_work(5, 0, 0, 0);
        metrics.record_stops(2, 48);
        metrics.record_store_open(256, 1, 1, 900);
        assert_eq!(metrics.store_hits(), 8);
        assert_eq!(metrics.store_misses(), 2);
        assert_eq!(metrics.points_stopped(), 2);
        assert_eq!(metrics.trials_saved(), 48);
        assert_eq!(metrics.accepted(), 2);
        assert_eq!(metrics.rejected(), 1);
        let value = metrics.to_value();
        assert_eq!(value.get("trials_served").unwrap().as_u64(), Some(10));
        assert_eq!(value.get("points_stopped").unwrap().as_u64(), Some(2));
        assert_eq!(value.get("trials_saved").unwrap().as_u64(), Some(48));
        assert_eq!(value.get("accepted").unwrap().as_u64(), Some(2));
        assert_eq!(value.get("rejected").unwrap().as_u64(), Some(1));
        let open = value.get("store_open").unwrap();
        assert_eq!(
            open.to_json_compact(),
            r#"{"records":256,"dropped_lines":1,"shards_repaired":1,"micros":900}"#
        );
        let rps = value.get("rounds_per_sec").unwrap().as_f64().unwrap();
        assert!((rps - 2_000.0).abs() < 1e-9, "{rps}");
    }

    #[test]
    fn zero_execution_time_yields_zero_throughput() {
        let metrics = Metrics::new();
        let rps = metrics
            .to_value()
            .get("rounds_per_sec")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(rps, 0.0);
    }
}
