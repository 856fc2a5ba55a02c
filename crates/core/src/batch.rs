//! Parallel Monte-Carlo trial execution.
//!
//! Every experiment behind the paper's figures and theorem checks boils
//! down to the same shape: run many *independent* executions of a
//! scenario — one per seed — and fold the per-trial [`SyncOutcome`]s
//! into aggregate statistics. In the round-synchronous model each trial is
//! a pure function of `(spec, seed)` (every randomness consumer draws
//! from its own [`SimRng`](wsync_radio::rng::SimRng) stream derived from
//! the master seed), so the trials are embarrassingly parallel.
//!
//! [`BatchRunner`] fans trials across a pool of OS threads and returns the
//! results **in seed order**, which makes parallel execution
//! indistinguishable from serial execution:
//!
//! * determinism — trial `i`'s result depends only on `(spec, seed_i)`,
//!   never on scheduling, and
//! * fold stability — aggregation happens *after* the results are back in
//!   seed order, so every downstream statistic is bit-identical to what a
//!   `for seed in seeds` loop would have produced.
//!
//! [`BatchStats`] provides the folds the experiments share (sync rate,
//! single-leader rate, clean rate, violation counts, rounds-to-sync and
//! completion-round summaries); bespoke folds can iterate the returned
//! outcome vector directly.
//!
//! # Example
//!
//! ```
//! use wsync_core::batch::{BatchRunner, BatchStats};
//! use wsync_core::sim::Sim;
//! use wsync_core::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
//! let sim = Sim::from_spec(&spec)?;
//! let outcomes = BatchRunner::new().map(0..8, |seed| sim.run_one(seed));
//! let stats = BatchStats::aggregate(&outcomes);
//! assert_eq!(stats.trials, 8);
//! assert!(stats.sync_rate() > 0.9);
//! # Ok::<(), wsync_core::spec::SpecError>(())
//! ```

// lint:allow(nondeterministic-iteration): the reorder buffer below is drained by keyed remove(&expected) in ascending seed order; its iteration order is never observed
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread;

use wsync_stats::{OnlineStats, Summary};

use crate::report::SyncOutcome;

/// How many seeds a worker may run ahead of the in-order fold cursor in
/// [`BatchRunner::try_map_each`] before stalling. Bounds the collector's
/// reorder buffer (and therefore streaming memory) at `O(window)` results
/// while staying far wider than any realistic cost imbalance needs.
pub const REORDER_WINDOW: u64 = 1024;

/// Executes batches of independent seeded trials on a worker pool.
///
/// The worker count defaults to the machine's available parallelism and can
/// be overridden with [`BatchRunner::with_workers`] or the `WSYNC_THREADS`
/// environment variable (useful to pin CI runs or A/B serial vs parallel).
/// Results never depend on the worker count — see the module docs.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    workers: usize,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// A runner using every available core (or `WSYNC_THREADS` if set).
    pub fn new() -> Self {
        let workers = std::env::var("WSYNC_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        BatchRunner { workers }
    }

    /// A runner that executes trials one after another on the calling
    /// thread. Useful as the reference side of determinism checks.
    pub fn serial() -> Self {
        BatchRunner { workers: 1 }
    }

    /// A runner with an explicit worker count (at least 1).
    pub fn with_workers(workers: usize) -> Self {
        BatchRunner {
            workers: workers.max(1),
        }
    }

    /// The number of worker threads this runner fans trials across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `trial` to every seed in `seeds` and returns the results in
    /// seed order.
    ///
    /// This is the collecting form of [`try_map_each`](Self::try_map_each)
    /// (and is implemented on it): `trial` may produce any `Send` value, so
    /// experiments whose per-trial result is not a [`SyncOutcome`] (the
    /// broadcast-weight scan, the two-node rendezvous game) parallelize
    /// through the same pool. Work is handed out dynamically (an atomic
    /// cursor), so uneven trial costs don't leave workers idle.
    pub fn map<T, F>(&self, seeds: Range<u64>, trial: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        let count = usize::try_from(seeds.end.saturating_sub(seeds.start))
            // lint:allow(panicky-library): a seed range longer than the address space cannot be collected into a Vec anyway; failing at the cast beats a capacity overflow later
            .expect("seed range length exceeds addressable memory");
        let mut out: Vec<T> = Vec::with_capacity(count);
        let result: Result<(), std::convert::Infallible> =
            self.try_map_each(seeds, |seed| Ok(trial(seed)), |_, value| out.push(value));
        match result {
            Ok(()) => out,
            Err(never) => match never {},
        }
    }

    /// The streaming worker-pool core shared by [`map`](Self::map) and the
    /// sweep layer: applies `trial` to every seed in `seeds` on the pool
    /// and invokes `each` with the results **in seed order**, each exactly
    /// once, as soon as its turn arrives.
    ///
    /// Two properties make this the substrate for arbitrarily large
    /// batches:
    ///
    /// * **Bounded reordering.** Finished trials waiting for an earlier,
    ///   slower seed are the only results held; workers that run more than
    ///   [`REORDER_WINDOW`] seeds ahead of the in-order
    ///   cursor stall (yielding) until it catches up, so memory stays
    ///   `O(window)` even when later seeds are much cheaper than an early
    ///   one — e.g. a resumed sweep whose only missing trial is the first.
    /// * **Fail fast.** The first `Err` a trial returns stops the pool
    ///   (remaining workers exit at the next seed claim or stall check)
    ///   and is returned; `each` is never called past the last in-order
    ///   success.
    pub fn try_map_each<T, E, F, G>(
        &self,
        seeds: Range<u64>,
        trial: F,
        mut each: G,
    ) -> Result<(), E>
    where
        T: Send,
        E: Send,
        F: Fn(u64) -> Result<T, E> + Sync,
        G: FnMut(u64, T),
    {
        let count = usize::try_from(seeds.end.saturating_sub(seeds.start))
            // lint:allow(panicky-library): on 64-bit targets this cast cannot fail, and a >usize::MAX trial count could never finish; a precise panic beats silent truncation
            .expect("seed range length exceeds addressable memory");
        let workers = self.workers.min(count);
        if workers <= 1 {
            for seed in seeds {
                each(seed, trial(seed)?);
            }
            return Ok(());
        }

        let next = AtomicU64::new(seeds.start);
        // The next seed the collector will fold, published for backpressure.
        let cursor = AtomicU64::new(seeds.start);
        let stop = AtomicBool::new(false);
        // Stalled workers sleep on this condvar instead of spinning; the
        // collector pings it whenever the cursor advances (and the error
        // path on stop). `wait_timeout` guards against any missed wakeup.
        let stall = (Mutex::new(()), Condvar::new());
        let first_error: Mutex<Option<E>> = Mutex::new(None);
        let (tx, rx) = mpsc::channel::<(u64, T)>();
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let cursor = &cursor;
                let stop = &stop;
                let stall = &stall;
                let first_error = &first_error;
                let trial = &trial;
                let end = seeds.end;
                scope.spawn(move || {
                    // If this worker panics (a trial's .expect fires), the
                    // guard flips `stop` and wakes the stalled workers so
                    // the pool drains, the scope joins, and the panic
                    // propagates — instead of the cursor freezing and
                    // every other worker waiting on it forever.
                    struct PanicGuard<'a> {
                        stop: &'a AtomicBool,
                        stall: &'a (Mutex<()>, Condvar),
                    }
                    impl Drop for PanicGuard<'_> {
                        fn drop(&mut self) {
                            if thread::panicking() {
                                self.stop.store(true, Ordering::Relaxed);
                                let _guard = self.stall.0.lock().unwrap_or_else(|e| e.into_inner());
                                self.stall.1.notify_all();
                            }
                        }
                    }
                    let _panic_guard = PanicGuard { stop, stall };
                    // `seed - cursor` instead of `cursor + WINDOW`: the
                    // cursor never passes an unfolded seed, and the
                    // subtraction cannot overflow the way the addition
                    // does for seed ranges near u64::MAX.
                    let behind = |seed: u64| seed.saturating_sub(cursor.load(Ordering::Acquire));
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // Checked claim, not fetch_add: a plain increment
                        // wraps past u64::MAX when `end == u64::MAX`, after
                        // which workers would claim seeds from 0 again and
                        // never terminate.
                        let claim = next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                            (n < end).then(|| n + 1)
                        });
                        let Ok(seed) = claim else {
                            break;
                        };
                        // Backpressure: don't run far ahead of the in-order
                        // cursor. The worker holding the cursor's own seed
                        // never stalls, so progress is guaranteed.
                        while behind(seed) >= REORDER_WINDOW {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            // The gate guards `()` — a panicking holder
                            // cannot leave it inconsistent, so poisoning
                            // is recovered rather than propagated (the
                            // PanicGuard already re-raises the panic).
                            let guard = stall.0.lock().unwrap_or_else(|e| e.into_inner());
                            // re-check under the lock so a cursor advance
                            // between the check and the wait is not missed
                            if behind(seed) < REORDER_WINDOW || stop.load(Ordering::Relaxed) {
                                continue;
                            }
                            let _ = stall
                                .1
                                .wait_timeout(guard, std::time::Duration::from_millis(20))
                                .unwrap_or_else(|e| e.into_inner());
                        }
                        match trial(seed) {
                            Ok(value) => {
                                if tx.send((seed, value)).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                {
                                    // The slot write is a single assignment;
                                    // a poisoned lock cannot hide a torn one.
                                    let mut slot =
                                        first_error.lock().unwrap_or_else(|e| e.into_inner());
                                    if slot.is_none() {
                                        *slot = Some(e);
                                    }
                                }
                                // wake any stalled workers so they observe stop
                                let _guard = stall.0.lock().unwrap_or_else(|e| e.into_inner());
                                stall.1.notify_all();
                                break;
                            }
                        }
                    }
                });
            }
            drop(tx);

            // Re-order results back into seed order, handing each to the
            // caller the moment its turn comes; only the out-of-order
            // window is ever held. The map is drained strictly by
            // `remove(&expected)` with `expected` counting up, so hashing
            // gives O(1) hot-loop ops without any order ever leaking out.
            // lint:allow(nondeterministic-iteration): drained by keyed remove(&expected) in ascending seed order; iteration order is never observed
            let mut pending: HashMap<u64, T> = HashMap::new();
            let mut expected = seeds.start;
            for (seed, value) in rx {
                if seed == expected {
                    each(seed, value);
                    expected += 1;
                    while let Some(value) = pending.remove(&(expected)) {
                        each(expected, value);
                        expected += 1;
                    }
                    cursor.store(expected, Ordering::Release);
                    // wake workers stalled on the window
                    let _guard = stall.0.lock().unwrap_or_else(|e| e.into_inner());
                    stall.1.notify_all();
                } else {
                    pending.insert(seed, value);
                }
            }
        });
        match first_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Aggregate statistics over a batch of [`SyncOutcome`]s.
///
/// The folds are performed serially over the seed-ordered outcome vector,
/// so a parallel batch produces bit-identical statistics to a serial loop.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Number of trials aggregated.
    pub trials: u64,
    /// Trials in which every node synchronized.
    pub synced: u64,
    /// Trials that ended with exactly one leader.
    pub single_leader: u64,
    /// Trials that were clean: all synced, one leader, no safety violation.
    pub clean: u64,
    /// Total number of property violations across all trials.
    pub total_violations: u64,
    /// Trials in which every property (including liveness) held.
    pub all_hold: u64,
    /// Summary of the worst per-node rounds-to-synchronization, over the
    /// trials where every node synchronized (the Theorem 10 quantity).
    pub rounds_to_sync: Summary,
    /// Summary of the global completion round, over the trials where every
    /// node synchronized.
    pub completion_rounds: Summary,
}

impl BatchStats {
    /// Folds a slice of outcomes (in seed order) into aggregate statistics.
    pub fn aggregate(outcomes: &[SyncOutcome]) -> Self {
        let mut fold = BatchStatsFold::new();
        for outcome in outcomes {
            fold.push(outcome);
        }
        fold.finish()
    }

    /// Fraction of trials in which every node synchronized.
    pub fn sync_rate(&self) -> f64 {
        self.rate(self.synced)
    }

    /// Fraction of trials that ended with exactly one leader.
    pub fn single_leader_rate(&self) -> f64 {
        self.rate(self.single_leader)
    }

    /// Fraction of clean trials.
    pub fn clean_rate(&self) -> f64 {
        self.rate(self.clean)
    }

    fn rate(&self, numerator: u64) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            numerator as f64 / self.trials as f64
        }
    }
}

/// Incremental, constant-memory accumulator for [`BatchStats`].
///
/// Pushing outcomes **in seed order** and calling [`finish`](Self::finish)
/// produces statistics bit-identical to
/// [`BatchStats::aggregate`] over the same slice (which is implemented as
/// exactly this fold): the summaries run on the same online Welford
/// accumulator in the same order, so no intermediate vector of outcomes is
/// ever required. This is what lets the sweep layer aggregate arbitrarily
/// large Monte-Carlo runs while holding only one outcome at a time.
#[derive(Debug, Clone, Default)]
pub struct BatchStatsFold {
    trials: u64,
    synced: u64,
    single_leader: u64,
    clean: u64,
    total_violations: u64,
    all_hold: u64,
    rounds_to_sync: OnlineStats,
    completion_rounds: OnlineStats,
}

impl BatchStatsFold {
    /// An empty accumulator.
    pub fn new() -> Self {
        BatchStatsFold::default()
    }

    /// Folds one outcome. Call in seed order for bit-identical equivalence
    /// with [`BatchStats::aggregate`].
    pub fn push(&mut self, outcome: &SyncOutcome) {
        self.trials += 1;
        if outcome.result.all_synchronized {
            self.synced += 1;
        }
        if outcome.leaders == 1 {
            self.single_leader += 1;
        }
        if outcome.is_clean() {
            self.clean += 1;
        }
        if outcome.properties.all_hold() {
            self.all_hold += 1;
        }
        self.total_violations += outcome.properties.total_violations;
        if let Some(r) = outcome.max_rounds_to_sync() {
            self.rounds_to_sync.push(r as f64);
        }
        if let Some(r) = outcome.completion_round() {
            self.completion_rounds.push(r as f64);
        }
    }

    /// Number of outcomes folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The aggregate statistics over everything pushed so far.
    pub fn finish(&self) -> BatchStats {
        BatchStats {
            trials: self.trials,
            synced: self.synced,
            single_leader: self.single_leader,
            clean: self.clean,
            total_violations: self.total_violations,
            all_hold: self.all_hold,
            rounds_to_sync: self.rounds_to_sync.summary(),
            completion_rounds: self.completion_rounds.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::spec::ScenarioSpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random")
    }

    /// The outcomes of `spec()` over `seeds` on `runner`, in seed order.
    fn outcomes(runner: &BatchRunner, seeds: Range<u64>) -> Vec<SyncOutcome> {
        let sim = Sim::from_spec(&spec()).unwrap();
        runner.map(seeds, |seed| sim.run_one(seed))
    }

    #[test]
    fn parallel_results_equal_serial_results() {
        let serial = outcomes(&BatchRunner::serial(), 0..12);
        let parallel = outcomes(&BatchRunner::with_workers(4), 0..12);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batch_matches_direct_sim_calls() {
        let sim = Sim::from_spec(&spec()).unwrap();
        let batch = BatchRunner::with_workers(3).map(5..9, |seed| sim.run_one(seed));
        let direct: Vec<_> = (5..9).map(|seed| sim.run_one(seed)).collect();
        assert_eq!(batch, direct);
    }

    #[test]
    fn map_returns_results_in_seed_order() {
        let runner = BatchRunner::with_workers(8);
        let values = runner.map(10..200, |seed| seed * seed);
        assert_eq!(values.len(), 190);
        for (i, v) in values.iter().enumerate() {
            let seed = 10 + i as u64;
            assert_eq!(*v, seed * seed);
        }
    }

    #[test]
    fn try_map_each_streams_in_order_and_stops_on_error() {
        let runner = BatchRunner::with_workers(4);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        runner
            .try_map_each(
                5..105,
                |seed| Ok::<_, &str>(seed * 2),
                |seed, value| seen.push((seed, value)),
            )
            .unwrap();
        assert_eq!(seen.len(), 100);
        for (i, (seed, value)) in seen.iter().enumerate() {
            assert_eq!(*seed, 5 + i as u64, "results must arrive in seed order");
            assert_eq!(*value, seed * 2);
        }
        // a failing trial surfaces as the returned error and stops the pool
        let err = runner
            .try_map_each(
                0..10_000,
                |seed| if seed == 37 { Err("boom") } else { Ok(seed) },
                |_, _| {},
            )
            .unwrap_err();
        assert_eq!(err, "boom");
    }

    #[test]
    fn a_slow_early_seed_stalls_the_window_without_breaking_order() {
        // Seed 0 finishes long after thousands of later (cheap) seeds. The
        // range deliberately exceeds REORDER_WINDOW, so fast workers must
        // actually hit the backpressure stall and sleep until the slow
        // trial folds — exercising the stall/wakeup path — and the
        // callback must still observe strict seed order throughout.
        const TOTAL: u64 = 3 * REORDER_WINDOW;
        let runner = BatchRunner::with_workers(8);
        let mut seen = Vec::new();
        runner
            .try_map_each(
                0..TOTAL,
                |seed| {
                    if seed == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    }
                    Ok::<_, ()>(seed)
                },
                |seed, _| seen.push(seed),
            )
            .unwrap();
        assert_eq!(seen, (0..TOTAL).collect::<Vec<u64>>());
        // the error path also crosses the stall: a failure after the
        // window boundary still surfaces and terminates every worker
        let err = runner
            .try_map_each(
                0..TOTAL,
                |seed| {
                    if seed == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Err("early boom")
                    } else {
                        Ok(seed)
                    }
                },
                |_, _| {},
            )
            .unwrap_err();
        assert_eq!(err, "early boom");
    }

    #[test]
    fn seed_ranges_near_u64_max_stream_without_overflow() {
        // The stall threshold must be computed as seed - cursor, not
        // cursor + WINDOW: the addition overflows for ranges near
        // u64::MAX (panic in debug, all-workers deadlock in release).
        let runner = BatchRunner::with_workers(4);
        let start = u64::MAX - 3000;
        let mut expected = start;
        runner
            .try_map_each(start..u64::MAX, Ok::<_, ()>, |seed, _| {
                assert_eq!(seed, expected);
                expected += 1;
            })
            .unwrap();
        assert_eq!(expected, u64::MAX);
    }

    #[test]
    fn panicking_trial_propagates_instead_of_hanging_the_pool() {
        // The panicking worker's guard must flip `stop` and wake the
        // stalled workers, so the scope joins and the panic surfaces —
        // a batch wider than REORDER_WINDOW used to hang forever here.
        let runner = BatchRunner::with_workers(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.map(0..3 * REORDER_WINDOW, |seed| {
                if seed == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("trial panic");
                }
                seed
            })
        }));
        assert!(result.is_err(), "the trial panic must propagate");
    }

    #[test]
    fn empty_seed_range_yields_empty_batch() {
        let outcomes = outcomes(&BatchRunner::new(), 7..7);
        assert!(outcomes.is_empty());
        let stats = BatchStats::aggregate(&outcomes);
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.sync_rate(), 0.0);
        assert_eq!(stats.rounds_to_sync.count, 0);
    }

    #[test]
    fn stats_fold_counts_clean_runs() {
        let stats = BatchStats::aggregate(&outcomes(&BatchRunner::new(), 0..8));
        assert_eq!(stats.trials, 8);
        assert!(stats.synced >= stats.clean);
        assert!(stats.single_leader >= stats.clean);
        assert!(stats.rounds_to_sync.count as u64 <= stats.trials);
        assert!(stats.sync_rate() > 0.5);
        // completion round is never later than observed rounds, and the
        // per-node worst never exceeds the completion round
        assert!(stats.rounds_to_sync.max <= stats.completion_rounds.max);
    }

    #[test]
    fn incremental_fold_is_bit_identical_to_slice_aggregation() {
        let outcomes = outcomes(&BatchRunner::new(), 0..10);
        // reference: the historical Vec-collecting implementation
        let mut rounds = Vec::new();
        let mut completions = Vec::new();
        for outcome in &outcomes {
            if let Some(r) = outcome.max_rounds_to_sync() {
                rounds.push(r as f64);
            }
            if let Some(r) = outcome.completion_round() {
                completions.push(r as f64);
            }
        }
        let mut fold = BatchStatsFold::new();
        for outcome in &outcomes {
            fold.push(outcome);
        }
        assert_eq!(fold.trials(), 10);
        let folded = fold.finish();
        assert_eq!(folded, BatchStats::aggregate(&outcomes));
        assert_eq!(folded.rounds_to_sync, Summary::from_slice(&rounds));
        assert_eq!(folded.completion_rounds, Summary::from_slice(&completions));
        // an empty fold matches an empty aggregate exactly (min/max = ±inf)
        assert_eq!(BatchStatsFold::new().finish(), BatchStats::aggregate(&[]));
    }

    #[test]
    fn worker_count_clamps_and_env_is_optional() {
        assert_eq!(BatchRunner::with_workers(0).workers(), 1);
        assert_eq!(BatchRunner::serial().workers(), 1);
        assert!(BatchRunner::new().workers() >= 1);
    }
}
