//! Resumable sweep orchestration: whole experiment grids as one
//! work-stealing batch, with streaming aggregation and an optional
//! persistent result cache.
//!
//! A [`SweepSpec`] expands into grid points × seeds — potentially far more
//! trials than fit comfortably in memory as raw outcomes, and far too
//! expensive to recompute when a long run is interrupted. [`SweepRunner`]
//! addresses both:
//!
//! * **Work stealing across the whole grid.** All `(grid point, seed)`
//!   pairs form one global index space that the
//!   [`BatchRunner`]'s worker pool drains through an atomic cursor, so a
//!   grid point with slow trials cannot leave cores idle while a cheap
//!   point finishes — unlike running the points one at a time.
//! * **Streaming folds.** A collector re-orders finished trials back into
//!   deterministic (point-major, seed-ascending) order and folds each one
//!   into a [`BatchStatsFold`] the moment it arrives, then drops it.
//!   Workers stall once they run more than
//!   [`REORDER_WINDOW`](crate::batch::REORDER_WINDOW) trials ahead of the
//!   fold cursor, so aggregates hold `O(window)` outcomes regardless of
//!   sweep size, yet are bit-identical to a serial loop (see
//!   [`BatchStatsFold`]).
//! * **Content-addressed resume.** With a [`ResultStore`] attached, every
//!   completed trial is persisted under `(spec digest, seed)` and already
//!   stored trials are served from the cache without touching the engine —
//!   a killed sweep restarted against the same store re-runs only what is
//!   missing and reproduces the from-scratch aggregates bit for bit.
//! * **Adaptive trial allocation.** A sweep that declares a
//!   [`StoppingRule`] runs in fixed-size seed *batches* and retires each
//!   grid point as soon as its watched metric's 95% confidence interval is
//!   narrow enough. Stop decisions are evaluated only at batch boundaries
//!   on seed-ordered prefixes, with every active point advancing in
//!   lockstep — so the decision sequence is a pure function of trial
//!   outcomes, bit-identical across worker counts, scheduling
//!   perturbations, fabric processes, and fresh-vs-resumed runs (cached
//!   trials count toward the rule exactly like executed ones).
//! * **One batch loop.** Fixed-count and adaptive sweeps are the same
//!   loop over one crate-private batch schedule: a fixed-count sweep is
//!   the case with no rule — one window over the whole seed range and no
//!   decision. The multi-process [`fabric`](crate::fabric) drives the
//!   same schedule, so both agree on windows, seed caps and verdicts by
//!   construction.

use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use wsync_stats::{quantiles, table::fmt_f64, wilson_ci, CiUndefined, ConfidenceInterval, Table};

use crate::batch::{BatchRunner, BatchStats, BatchStatsFold};
use crate::json::Value;
use crate::registry::ProbeOutput;
use crate::report::SyncOutcome;
use crate::sim::Sim;
use crate::spec::{Fields, ScenarioSpec, SpecError, SweepSpec};
use crate::store::{ResultStore, StoreError};

/// An error raised while orchestrating a sweep: either the spec side
/// (invalid grid, unknown names) or the persistence side (store I/O).
#[derive(Debug)]
pub enum SweepError {
    /// Spec expansion or validation failed.
    Spec(SpecError),
    /// Reading from or appending to the result store failed.
    Store(StoreError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Spec(e) => Some(e),
            SweepError::Store(e) => Some(e),
        }
    }
}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

/// Aggregate result of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// The point's `"field=value"` label (empty for a gridless sweep).
    pub label: String,
    /// The fully substituted spec the point ran.
    pub spec: ScenarioSpec,
    /// The aggregate statistics, bit-identical to a serial
    /// [`BatchStats::aggregate`] over the point's seed-ordered outcomes.
    pub stats: BatchStats,
    /// Trials served from the result store without executing the engine.
    pub cached: u64,
    /// Trials executed by the engine in this run.
    pub executed: u64,
    /// Whether the point stopped before consuming the sweep's full seed
    /// budget (always `false` on fixed-count paths).
    pub stopped_early: bool,
    /// Why the point stopped sampling. `None` on fixed-count paths; on
    /// adaptive paths every point carries a reason —
    /// [`StopReason::Exhausted`] when the budget ran out first.
    pub stop: Option<StopReason>,
}

impl PointStats {
    /// Trials this point consumed in total (cached + executed).
    pub fn seeds_used(&self) -> u64 {
        self.cached + self.executed
    }
}

/// The result of a whole sweep: per-point aggregates plus cache totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One entry per grid point, in expansion order.
    pub points: Vec<PointStats>,
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
}

impl SweepReport {
    /// The seed range every point ran.
    pub fn seeds(&self) -> Range<u64> {
        self.seed_start..self.seed_end
    }

    /// Total trials served from the result store across all points.
    pub fn cached_trials(&self) -> u64 {
        self.points.iter().map(|p| p.cached).sum()
    }

    /// Total trials executed by the engine across all points.
    pub fn executed_trials(&self) -> u64 {
        self.points.iter().map(|p| p.executed).sum()
    }

    /// Total trials (cached + executed).
    pub fn total_trials(&self) -> u64 {
        self.cached_trials() + self.executed_trials()
    }

    /// Points that stopped before consuming the full seed budget.
    pub fn stopped_early_points(&self) -> u64 {
        self.points.iter().filter(|p| p.stopped_early).count() as u64
    }
}

/// Confidence level of every interval a [`StoppingRule`] tests.
const CI_LEVEL: f64 = 0.95;

/// The per-point batch statistic an adaptive [`StoppingRule`] watches.
///
/// Mean metrics build a normal-approximation interval from the point's
/// Welford summary ([`ConfidenceInterval::for_summary`]); rate metrics
/// build a Wilson score interval from its success/trial counters
/// ([`wilson_ci`]). Both are incremental: the rule never retains samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopMetric {
    /// Mean of the worst per-node rounds-to-sync (over synced trials).
    SyncRoundsMean,
    /// Mean of the global completion round (over synced trials).
    CompletionRoundsMean,
    /// Fraction of trials in which every node synchronized.
    SyncRate,
    /// Fraction of trials that ended with exactly one leader.
    SingleLeaderRate,
    /// Fraction of clean trials (synced, one leader, no violation).
    CleanRate,
}

impl StopMetric {
    /// Every metric, in spec-name order (for error messages).
    pub const ALL: [StopMetric; 5] = [
        StopMetric::SyncRoundsMean,
        StopMetric::CompletionRoundsMean,
        StopMetric::SyncRate,
        StopMetric::SingleLeaderRate,
        StopMetric::CleanRate,
    ];

    /// The metric's spec-file name.
    pub fn name(self) -> &'static str {
        match self {
            StopMetric::SyncRoundsMean => "sync_rounds_mean",
            StopMetric::CompletionRoundsMean => "completion_rounds_mean",
            StopMetric::SyncRate => "sync_rate",
            StopMetric::SingleLeaderRate => "single_leader_rate",
            StopMetric::CleanRate => "clean_rate",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The metric's 95% confidence interval over a point's accumulated
    /// stats. A typed [`CiUndefined`] means the prefix is too short (or too
    /// degenerate) for the width to exist — the stopping rule reads every
    /// variant as "keep sampling".
    pub fn ci(self, stats: &BatchStats) -> Result<ConfidenceInterval, CiUndefined> {
        match self {
            StopMetric::SyncRoundsMean => {
                ConfidenceInterval::for_summary(&stats.rounds_to_sync, CI_LEVEL)
            }
            StopMetric::CompletionRoundsMean => {
                ConfidenceInterval::for_summary(&stats.completion_rounds, CI_LEVEL)
            }
            StopMetric::SyncRate => wilson_ci(stats.synced, stats.trials, CI_LEVEL),
            StopMetric::SingleLeaderRate => wilson_ci(stats.single_leader, stats.trials, CI_LEVEL),
            StopMetric::CleanRate => wilson_ci(stats.clean, stats.trials, CI_LEVEL),
        }
    }
}

/// Why an adaptive sweep stopped sampling a grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The metric's confidence interval reached the rule's target width.
    HalfWidth,
    /// The seed budget ran out before the rule was satisfied.
    Exhausted,
}

impl StopReason {
    /// The reason's wire name (job events, report notes).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::HalfWidth => "half_width",
            StopReason::Exhausted => "exhausted",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An adaptive stopping rule: when a sweep declares one (the `"stop"` key
/// of a [`SweepSpec`]), trials are allocated in fixed-size seed batches
/// and each grid point retires as soon as its answer is statistically
/// known, instead of running a fixed count.
///
/// # Determinism contract
///
/// Decisions are evaluated only at *batch boundaries* — prefix lengths
/// `batch, 2·batch, …` of the effective seed range — over each point's
/// seed-ordered outcome prefix, with every still-active point advancing in
/// lockstep. The decision sequence is therefore a pure function of the
/// sweep's outcomes: worker counts, thread scheduling, multi-process
/// sharding, and cache hits versus live execution cannot change which
/// points stop, when, or why. [`decide_batch`](Self::decide_batch) is that
/// pure function, and one batch schedule calls it for every consumer
/// (in-process runner, fabric workers, the serving layer) with identically
/// ordered inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoppingRule {
    /// The watched statistic.
    pub metric: StopMetric,
    /// Target half-width: a point stops once its 95% interval's half-width is
    /// `≤` this (absolute, or relative to `|estimate|` when
    /// [`relative`](Self::relative) is set).
    pub half_width: f64,
    /// Interpret [`half_width`](Self::half_width) as a fraction of the
    /// point estimate's magnitude instead of an absolute width.
    pub relative: bool,
    /// Smallest prefix length at which stopping is allowed (default `64`):
    /// guards against lucky early widths on tiny samples.
    pub min_seeds: u64,
    /// Seeds per allocation batch (default `64`). Decisions happen only at
    /// multiples of this prefix length.
    pub batch: u64,
}

impl StoppingRule {
    /// A rule watching `metric` with the given absolute target half-width
    /// and the documented defaults (`min_seeds = 64`, `batch = 64`).
    pub fn new(metric: StopMetric, half_width: f64) -> Self {
        StoppingRule {
            metric,
            half_width,
            relative: false,
            min_seeds: 64,
            batch: 64,
        }
    }

    /// Builder-style relative-width interpretation.
    pub fn relative(mut self) -> Self {
        self.relative = true;
        self
    }

    /// Builder-style minimum prefix length.
    pub fn with_min_seeds(mut self, min_seeds: u64) -> Self {
        self.min_seeds = min_seeds;
        self
    }

    /// Builder-style batch size.
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Validates the rule's numeric ranges.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bad = |message: String| SpecError::malformed("stop", message);
        if !(self.half_width.is_finite() && self.half_width > 0.0) {
            return Err(bad(format!(
                "\"half_width\" must be a positive finite number, got {}",
                self.half_width
            )));
        }
        if self.min_seeds == 0 {
            return Err(bad("\"min_seeds\" must be at least 1".to_string()));
        }
        if self.batch == 0 {
            return Err(bad("\"batch\" must be at least 1".to_string()));
        }
        Ok(())
    }

    /// The width the interval must reach for `estimate`.
    pub fn target_half_width(&self, estimate: f64) -> f64 {
        if self.relative {
            self.half_width * estimate.abs()
        } else {
            self.half_width
        }
    }

    /// Whether a point's accumulated stats satisfy the width criterion. A
    /// width-undefined interval ([`CiUndefined`]) never satisfies it.
    fn satisfied(&self, stats: &BatchStats) -> bool {
        match self.metric.ci(stats) {
            Err(_) => false,
            Ok(ci) => ci.half_width() <= self.target_half_width(ci.estimate),
        }
    }

    /// The shared batch-boundary decision: given every point's stats over
    /// the seed-ordered prefix of length `prefix_len` (stopped points keep
    /// the stats frozen at their stop boundary), marks newly stopped
    /// points in `stopped`. Pure — same inputs, same marks — and shared by
    /// the in-process runner and the fabric workers, so all consumers
    /// agree on the decision sequence by construction.
    pub fn decide_batch(
        &self,
        stats: &[BatchStats],
        stopped: &mut [Option<StopReason>],
        prefix_len: u64,
    ) {
        debug_assert_eq!(stats.len(), stopped.len());
        if prefix_len < self.min_seeds {
            return;
        }
        for (point, point_stats) in stats.iter().enumerate() {
            if stopped[point].is_none() && self.satisfied(point_stats) {
                stopped[point] = Some(StopReason::HalfWidth);
            }
        }
    }

    /// Serializes to a JSON [`Value`] (the `"stop"` member of a sweep
    /// spec). `relative` is emitted only when set, so round-tripping
    /// preserves the written form.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            (
                "metric".to_string(),
                Value::Str(self.metric.name().to_string()),
            ),
            ("half_width".to_string(), self.half_width.into()),
        ];
        if self.relative {
            members.push(("relative".to_string(), Value::Bool(true)));
        }
        members.push(("min_seeds".to_string(), self.min_seeds.into()));
        members.push(("batch".to_string(), self.batch.into()));
        Value::Object(members)
    }

    /// Decodes from a JSON [`Value`], rejecting unknown keys. Numeric
    /// ranges are *not* checked here — [`SweepSpec::from_value`] (and
    /// every execution entry point) calls [`validate`](Self::validate).
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let mut fields = Fields::new(value, "stop")?;
        let name: &str = fields.req("metric")?;
        let metric = StopMetric::parse(name).ok_or_else(|| {
            let known: Vec<&str> = StopMetric::ALL.iter().map(|m| m.name()).collect();
            SpecError::malformed(
                "stop",
                format!(
                    "unknown metric \"{name}\"; known metrics: {}",
                    known.join(", ")
                ),
            )
        })?;
        let rule = StoppingRule {
            metric,
            half_width: fields.req("half_width")?,
            relative: fields.opt("relative")?.unwrap_or(false),
            min_seeds: fields.opt("min_seeds")?.unwrap_or(64),
            batch: fields.opt("batch")?.unwrap_or(64),
        };
        fields.finish()?;
        Ok(rule)
    }
}

/// The batch schedule every sweep consumer drives: which points run which
/// seed window, where each point's seeds end, when
/// [`StoppingRule::decide_batch`] runs, and the per-point folds it decides
/// on.
///
/// Windows advance in lockstep over the seed range. With a rule each
/// window holds `rule.batch` seeds; when it closes, the rule decides on
/// every point's seed-ordered prefix and caps each newly stopped point at
/// that boundary. A fixed-count sweep is the case with no rule: one window
/// over the whole seed range and no decision. [`SweepRunner`] and
/// [`fabric::run_worker`](crate::fabric::run_worker) both run on this
/// type, so they agree on windows, caps and verdicts by construction.
pub(crate) struct BatchSchedule<'r> {
    rule: Option<&'r StoppingRule>,
    seeds: Range<u64>,
    /// First seed of the next window.
    next: u64,
    /// Per point, the end (exclusive) of the seeds it may consume: the
    /// range end until a verdict caps it at its stop boundary. Caps always
    /// fall on window boundaries, so a point runs a whole window or none.
    limit: Vec<u64>,
    stopped: Vec<Option<StopReason>>,
    folds: Vec<BatchStatsFold>,
}

/// One lockstep window of a [`BatchSchedule`]: every listed point runs
/// every seed of `seeds`.
pub(crate) struct Window {
    pub(crate) seeds: Range<u64>,
    pub(crate) points: Vec<usize>,
}

impl<'r> BatchSchedule<'r> {
    pub(crate) fn new(points: usize, seeds: Range<u64>, rule: Option<&'r StoppingRule>) -> Self {
        BatchSchedule {
            rule,
            next: seeds.start,
            limit: vec![seeds.end; points],
            stopped: vec![None; points],
            folds: (0..points).map(|_| BatchStatsFold::new()).collect(),
            seeds,
        }
    }

    /// The next window, or `None` once the seed range is spent, every point
    /// has a verdict, or no point may consume the window's seeds.
    pub(crate) fn next_window(&self) -> Option<Window> {
        if self.next >= self.seeds.end {
            return None;
        }
        let batch = self.rule.map_or(u64::MAX, |rule| rule.batch);
        let end = self.seeds.end.min(self.next.saturating_add(batch));
        let points: Vec<usize> = (0..self.limit.len())
            .filter(|&point| self.limit[point] > self.next)
            .collect();
        (!points.is_empty()).then_some(Window {
            seeds: self.next..end,
            points,
        })
    }

    /// Folds one outcome into `point`'s stats. Call in seed order.
    pub(crate) fn fold(&mut self, point: usize, outcome: &SyncOutcome) {
        self.folds[point].push(outcome);
    }

    /// Folds a drained window from storage, `stored(point, seed)` yielding
    /// each trial. Only decisions read these folds, so without a rule
    /// nothing is read.
    pub(crate) fn fold_stored(
        &mut self,
        window: &Window,
        mut stored: impl FnMut(usize, u64) -> Option<SyncOutcome>,
    ) {
        if self.rule.is_none() {
            return;
        }
        for &point in &window.points {
            for seed in window.seeds.clone() {
                if let Some(outcome) = stored(point, seed) {
                    self.folds[point].push(&outcome);
                }
            }
        }
    }

    /// Closes `window` once all its outcomes are folded: the rule decides
    /// at the window's end boundary and caps every newly stopped point
    /// there. Returns the newly stopped points, in point order.
    pub(crate) fn close(&mut self, window: &Window) -> Vec<usize> {
        self.next = window.seeds.end;
        let mut newly = Vec::new();
        if let Some(rule) = self.rule {
            let before = self.stopped.clone();
            let stats: Vec<BatchStats> = self.folds.iter().map(BatchStatsFold::finish).collect();
            rule.decide_batch(&stats, &mut self.stopped, self.next - self.seeds.start);
            for (point, stop) in self.stopped.iter().enumerate() {
                if before[point].is_none() && stop.is_some() {
                    self.limit[point] = self.next;
                    newly.push(point);
                }
            }
        }
        if self.stopped.iter().all(Option::is_some) {
            // Every point has its verdict: nothing is left to schedule.
            self.next = self.seeds.end;
        }
        newly
    }

    /// `point`'s verdict and the seeds it consumes under it, once stopped.
    pub(crate) fn verdict(&self, point: usize) -> Option<(StopReason, u64)> {
        self.stopped[point].map(|reason| (reason, self.limit[point] - self.seeds.start))
    }

    /// Each point's final stats and stop reason: `None` without a rule,
    /// otherwise the verdict or [`StopReason::Exhausted`].
    pub(crate) fn finish(self) -> impl Iterator<Item = (BatchStats, Option<StopReason>)> {
        let decided = self.rule.is_some();
        self.folds
            .into_iter()
            .zip(self.stopped)
            .map(move |(fold, stop)| {
                let stop = decided.then(|| stop.unwrap_or(StopReason::Exhausted));
                (fold.finish(), stop)
            })
    }
}

/// Streams sweep grids through a [`BatchRunner`] worker pool with optional
/// content-addressed persistence. See the module docs for the execution
/// model.
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    runner: BatchRunner,
    store: Option<Arc<ResultStore>>,
    reuse: bool,
}

impl SweepRunner {
    /// A runner on the default worker pool, with no store.
    pub fn new() -> Self {
        SweepRunner {
            runner: BatchRunner::new(),
            store: None,
            reuse: false,
        }
    }

    /// A runner on an explicit worker pool.
    pub fn with_runner(runner: BatchRunner) -> Self {
        SweepRunner {
            runner,
            store: None,
            reuse: false,
        }
    }

    /// Attaches a result store: completed trials are persisted, and
    /// already-stored trials are served from the cache without executing
    /// the engine (the `--resume` behaviour).
    pub fn store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self.reuse = true;
        self
    }

    /// Attaches a result store in record-only mode: completed trials are
    /// persisted but existing records are *not* reused — every trial
    /// executes (a fresh `--out` run that still leaves a resumable store
    /// behind).
    pub fn record_only(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self.reuse = false;
        self
    }

    /// Expands `sweep` and runs every (grid point × seed) trial — or, when
    /// the sweep declares a [`StoppingRule`], allocates trials adaptively
    /// over [`SweepSpec::effective_seeds`] and stops each point as soon as
    /// its rule is satisfied.
    pub fn run(&self, sweep: &SweepSpec) -> Result<SweepReport, SweepError> {
        let points: Vec<(String, ScenarioSpec)> = sweep
            .expand()?
            .into_iter()
            .map(|point| (point.label, point.spec))
            .collect();
        self.run_points_with(
            points,
            sweep.effective_seeds()?,
            sweep.stop.as_ref(),
            |_, _, _| {},
        )
    }

    /// Runs an explicit list of labelled grid points over a seed range.
    /// This is the form the experiment modules use for grids that are not
    /// an axis cross product (paired parameters, per-point protocols).
    pub fn run_points(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
    ) -> Result<SweepReport, SweepError> {
        self.run_points_with(points, seeds, None, |_, _, _| {})
    }

    /// Like [`run_points`](Self::run_points), additionally invoking `each`
    /// for every outcome — in deterministic (point index, seed) order,
    /// exactly once, before the outcome is dropped. Use this for bespoke
    /// folds that need more than [`BatchStats`] without collecting
    /// outcomes; use [`run_points_with`](Self::run_points_with) to also
    /// receive probe outputs.
    pub fn run_points_each<F>(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
        mut each: F,
    ) -> Result<SweepReport, SweepError>
    where
        F: FnMut(usize, &SyncOutcome),
    {
        self.run_points_with(points, seeds, None, |point, outcome, _| {
            each(point, outcome)
        })
    }

    /// Runs labelled grid points with adaptive trial allocation, invoking
    /// `each` for every outcome — exactly once, in the deterministic
    /// adaptive order: batch-major, then point index, then seed (the
    /// fixed-count point-major order, re-chunked by batch). See
    /// [`run_points_with`](Self::run_points_with).
    pub fn run_points_adaptive_each<F>(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
        rule: &StoppingRule,
        mut each: F,
    ) -> Result<SweepReport, SweepError>
    where
        F: FnMut(usize, &SyncOutcome),
    {
        self.run_points_with(points, seeds, Some(rule), |point, outcome, _| {
            each(point, outcome)
        })
    }

    /// Runs labelled grid points over `seeds`, the one loop behind every
    /// other entry point, invoking `each` for every outcome — exactly once,
    /// window-major, then point index, then seed.
    ///
    /// Without a rule the run is fixed-count: one window over `seeds`, so
    /// `each` sees (point, seed) order. With a rule, seeds are consumed in
    /// lockstep batches of `rule.batch` from `seeds` (the *effective* range
    /// — pass [`SweepSpec::effective_seeds`]), and each point retires at the
    /// first batch boundary where the rule is satisfied on its seed-ordered
    /// prefix. Points still active when the budget runs out report
    /// [`StopReason::Exhausted`].
    ///
    /// A point whose spec declares probes runs them on its first executed
    /// seed — the first one an attached resume store cannot serve — and
    /// `each` receives their outputs with that outcome (`None` for every
    /// other trial). A point that stops before reaching that seed, or whose
    /// every trial is served from the store, reports no probe output. Two
    /// points whose specs share a store digest (identical cells, or cells
    /// differing only in probes) share cache entries, so one's freshly
    /// persisted trial can serve the other's sampled seed and cost it its
    /// sample; give such points distinct parameters if each must report
    /// probe output.
    pub fn run_points_with<F>(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
        stop: Option<&StoppingRule>,
        mut each: F,
    ) -> Result<SweepReport, SweepError>
    where
        F: FnMut(usize, &SyncOutcome, Option<&[ProbeOutput]>),
    {
        if let Some(rule) = stop {
            rule.validate()?;
        }
        let sims: Vec<Sim> = points
            .iter()
            .map(|(_, spec)| Sim::from_spec(spec))
            .collect::<Result<_, SpecError>>()?;
        // Each probed point's sampled seed, picked up front: the first seed
        // the store cannot serve (cache hits skip the engine, and probes
        // observe live executions only), scanning the store as it was
        // before the run.
        let probe_seed: Vec<Option<u64>> = sims
            .iter()
            .map(|sim| {
                if !sim.has_probes() {
                    return None;
                }
                match (&self.store, self.reuse) {
                    (Some(store), true) => {
                        seeds.clone().find(|&s| !store.contains(sim.digest(), s))
                    }
                    _ => Some(seeds.start),
                }
            })
            .collect();
        let mut cached: Vec<u64> = vec![0; points.len()];
        let mut executed: Vec<u64> = vec![0; points.len()];
        let mut schedule = BatchSchedule::new(points.len(), seeds.clone(), stop);

        // Within a window, (point, seed) pairs form one queue drained by
        // the BatchRunner's streaming core: workers steal trials globally
        // (atomic cursor, bounded reorder window) and the collector hands
        // results back in deterministic (point, seed) order — each outcome
        // is folded and dropped immediately, so memory stays O(reorder
        // window) regardless of sweep size, and folds (and therefore
        // decisions) are independent of worker count and scheduling.
        while let Some(window) = schedule.next_window() {
            let start = window.seeds.start;
            let span = window.seeds.end - start;
            let total = window.points.len() as u64 * span;
            self.runner
                .try_map_each(
                    0..total,
                    |idx| -> Result<Trial, StoreError> {
                        let point = window.points[(idx / span) as usize];
                        let seed = start + idx % span;
                        self.run_trial(&sims[point], seed, probe_seed[point] == Some(seed))
                    },
                    |idx, (outcome, probes, hit)| {
                        let point = window.points[(idx / span) as usize];
                        if hit {
                            cached[point] += 1;
                        } else {
                            executed[point] += 1;
                        }
                        each(point, &outcome, probes.as_deref());
                        schedule.fold(point, &outcome);
                    },
                )
                .map_err(SweepError::Store)?;
            schedule.close(&window);
        }

        let budget = seeds.end.saturating_sub(seeds.start);
        let points = points
            .into_iter()
            .zip(schedule.finish())
            .zip(cached.into_iter().zip(executed))
            .map(
                |(((label, spec), (stats, stop)), (cached, executed))| PointStats {
                    label,
                    spec,
                    stats,
                    stopped_early: cached + executed < budget,
                    stop,
                    cached,
                    executed,
                },
            )
            .collect();
        Ok(SweepReport {
            points,
            seed_start: seeds.start,
            seed_end: seeds.end,
        })
    }

    /// One trial: serve from the attached store if possible (reuse mode),
    /// otherwise execute the engine (with probes when asked) and persist.
    /// The returned flag is `true` for a cache hit.
    fn run_trial(&self, sim: &Sim, seed: u64, probe_this: bool) -> Result<Trial, StoreError> {
        if self.reuse {
            if let Some(store) = &self.store {
                if let Some(hit) = store.get(sim.digest(), seed) {
                    return Ok((hit, None, true));
                }
            }
        }
        let (outcome, probes) = if probe_this {
            let probed_outcome = sim.run_probed(seed);
            (probed_outcome.outcome, probed_outcome.probes)
        } else {
            (sim.run_one(seed), None)
        };
        if let Some(store) = &self.store {
            store.put(sim.digest(), seed, &outcome)?;
        }
        Ok((outcome, probes, false))
    }
}

/// The unit of work the sweep loop streams through the worker pool: an
/// outcome, its probe outputs (live probed executions only), and whether
/// it was served from the result store.
type Trial = (SyncOutcome, Option<Vec<ProbeOutput>>, bool);

/// Renders the sync-time quantile table of a seed-ordered outcome slice:
/// one row for the worst per-node rounds-to-sync, one for the global
/// completion round, with the standard quantile columns. The statistical
/// golden tests pin this rendering.
pub fn sync_time_quantile_table(title: &str, outcomes: &[SyncOutcome]) -> Table {
    const PROBS: [f64; 6] = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut table = Table::new(
        title,
        &["metric", "trials", "q0", "q25", "q50", "q75", "q90", "q100"],
    );
    let rows: [(&str, Vec<f64>); 2] = [
        (
            "rounds to sync",
            outcomes
                .iter()
                .filter_map(|o| o.max_rounds_to_sync().map(|r| r as f64))
                .collect(),
        ),
        (
            "completion round",
            outcomes
                .iter()
                .filter_map(|o| o.completion_round().map(|r| r as f64))
                .collect(),
        ),
    ];
    for (metric, samples) in rows {
        let qs = quantiles(&samples, &PROBS);
        let mut cells = vec![metric.to_string(), samples.len().to_string()];
        cells.extend(qs.iter().map(|&q| fmt_f64(q)));
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sweep() -> SweepSpec {
        let base = ScenarioSpec::new("trapdoor", 6, 8, 1).with_adversary("random");
        SweepSpec::new(base, 0..5).with_axis("disruption_bound", vec![1u64.into(), 3u64.into()])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsync-sweep-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_runner_matches_per_point_run_stats() {
        let sweep = sweep();
        let report = SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run(&sweep)
            .unwrap();
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.seeds(), 0..5);
        assert_eq!(report.executed_trials(), 10);
        assert_eq!(report.cached_trials(), 0);
        for (point, expanded) in report.points.iter().zip(sweep.expand().unwrap()) {
            assert_eq!(point.label, expanded.label);
            let sim = Sim::from_spec(&expanded.spec).unwrap();
            let outcomes: Vec<SyncOutcome> = (0..5).map(|seed| sim.run_one(seed)).collect();
            assert_eq!(point.stats, BatchStats::aggregate(&outcomes));
        }
    }

    #[test]
    fn sweep_expands_into_labelled_points() {
        let base = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        let sweep =
            SweepSpec::new(base, 0..2).with_axis("num_nodes", vec![4u64.into(), 6u64.into()]);
        let report = SweepRunner::new().run(&sweep).unwrap();
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[0].label, "num_nodes=4");
        assert_eq!(report.points[0].spec.num_nodes, 4);
        assert_eq!(report.seeds(), 0..2);
        // a sweep containing an invalid point fails as a whole
        let bad = SweepSpec::new(ScenarioSpec::new("trapdoor", 6, 8, 2), 0..2)
            .with_axis("disruption_bound", vec![1u64.into(), 8u64.into()]);
        assert!(matches!(
            SweepRunner::new().run(&bad),
            Err(SweepError::Spec(SpecError::InvalidConfig(_)))
        ));
    }

    #[test]
    fn parallel_and_serial_sweeps_agree_bit_for_bit() {
        let sweep = sweep();
        let serial = SweepRunner::with_runner(BatchRunner::serial())
            .run(&sweep)
            .unwrap();
        let parallel = SweepRunner::with_runner(BatchRunner::with_workers(8))
            .run(&sweep)
            .unwrap();
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn each_callback_sees_every_outcome_in_order() {
        let sweep = sweep();
        let points: Vec<(String, ScenarioSpec)> = sweep
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| (p.label, p.spec))
            .collect();
        let mut seen: Vec<(usize, u64)> = Vec::new();
        SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run_points_each(points, 0..5, |point, outcome| {
                seen.push((point, outcome.seed));
            })
            .unwrap();
        let expected: Vec<(usize, u64)> = (0..2usize)
            .flat_map(|p| (0..5u64).map(move |s| (p, s)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn resumed_sweep_executes_nothing_and_reproduces_aggregates() {
        let dir = temp_dir("resume");
        let sweep = sweep();
        let fresh = SweepRunner::new().run(&sweep).unwrap();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let recorded = SweepRunner::new()
            .store(Arc::clone(&store))
            .run(&sweep)
            .unwrap();
        assert_eq!(recorded.executed_trials(), 10);
        // reopen: everything is served from the store, aggregates identical
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        assert_eq!(store.loaded_records(), 10);
        let resumed = SweepRunner::new().store(store).run(&sweep).unwrap();
        assert_eq!(resumed.executed_trials(), 0);
        assert_eq!(resumed.cached_trials(), 10);
        for ((a, b), c) in fresh
            .points
            .iter()
            .zip(&recorded.points)
            .zip(&resumed.points)
        {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.stats, c.stats);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_only_mode_ignores_existing_records() {
        let dir = temp_dir("record-only");
        let sweep = sweep();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        SweepRunner::new()
            .store(Arc::clone(&store))
            .run(&sweep)
            .unwrap();
        let again = SweepRunner::new().record_only(store).run(&sweep).unwrap();
        assert_eq!(again.cached_trials(), 0);
        assert_eq!(again.executed_trials(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn rate_stats(synced: u64, trials: u64) -> BatchStats {
        BatchStats {
            trials,
            synced,
            single_leader: 0,
            clean: 0,
            total_violations: 0,
            all_hold: 0,
            rounds_to_sync: wsync_stats::Summary::from_slice(&[]),
            completion_rounds: wsync_stats::Summary::from_slice(&[]),
        }
    }

    #[test]
    fn stopping_rule_round_trips_through_json() {
        let full = StoppingRule::new(StopMetric::SyncRoundsMean, 2.0)
            .relative()
            .with_min_seeds(32)
            .with_batch(16);
        let minimal = StoppingRule::new(StopMetric::CleanRate, 0.05);
        for rule in [full, minimal] {
            let decoded = StoppingRule::from_value(&rule.to_value()).unwrap();
            assert_eq!(decoded, rule);
        }
        // the ISSUE-style spec syntax decodes with defaults filled in
        let sweep = SweepSpec::from_json(
            r#"{"base": {"protocol": "trapdoor", "num_nodes": 6, "num_frequencies": 8,
                         "disruption_bound": 1, "adversary": "random"},
                "seeds": {"start": 0, "end": 65536},
                "stop": {"metric": "sync_rounds_mean", "half_width": 2.0,
                         "min_seeds": 64, "batch": 64}}"#,
        )
        .unwrap();
        let rule = sweep.stop.as_ref().unwrap();
        assert_eq!(rule.metric, StopMetric::SyncRoundsMean);
        assert!(!rule.relative);
        assert_eq!(sweep.effective_seeds().unwrap(), 0..65536);
        // and the sweep's own JSON round-trips byte for byte
        let json = sweep.to_json();
        assert_eq!(SweepSpec::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn stopping_rule_rejects_bad_specs() {
        for (json, needle) in [
            (
                r#"{"metric": "typo_metric", "half_width": 1.0}"#,
                "unknown metric",
            ),
            (r#"{"metric": "sync_rate"}"#, "half_width"),
            (
                r#"{"metric": "sync_rate", "half_width": 0.1, "batc": 4}"#,
                "unknown key",
            ),
            // the interval level is fixed at 95% and there is no dominance
            // pass: both former keys are typos now
            (
                r#"{"metric": "sync_rate", "half_width": 0.1, "ci_level": 0.95}"#,
                "unknown key \"ci_level\"",
            ),
            (
                r#"{"metric": "sync_rate", "half_width": 0.1, "dominance": true}"#,
                "unknown key \"dominance\"",
            ),
            // the budget is the sweep's seed range, so a budget key is one too
            (
                r#"{"metric": "sync_rate", "half_width": 0.1, "max_seeds": 64}"#,
                "unknown key \"max_seeds\"",
            ),
            (r#"[1, 2]"#, "expected an object"),
        ] {
            let err = StoppingRule::from_value(&crate::json::parse(json).unwrap())
                .expect_err(json)
                .to_string();
            assert!(err.contains(needle), "{json}: {err}");
        }
        // range validation (applied by SweepSpec decoding and every entry point)
        for rule in [
            StoppingRule::new(StopMetric::SyncRate, 0.0),
            StoppingRule::new(StopMetric::SyncRate, f64::NAN),
            StoppingRule::new(StopMetric::SyncRate, 0.1).with_min_seeds(0),
            StoppingRule::new(StopMetric::SyncRate, 0.1).with_batch(0),
        ] {
            assert!(rule.validate().is_err(), "{rule:?} should not validate");
        }
    }

    #[test]
    fn width_undefined_means_keep_sampling() {
        let rule = StoppingRule::new(StopMetric::SyncRate, 0.5);
        assert!(!rule.satisfied(&rate_stats(0, 0)));
        // one synced trial: rounds_to_sync has a single sample — the mean
        // rule must keep sampling, not read the degenerate width as done
        let sweep = sweep();
        let sim = Sim::from_spec(&sweep.expand().unwrap()[0].spec).unwrap();
        let stats = BatchStats::aggregate(&[sim.run_one(0)]);
        assert!(!StoppingRule::new(StopMetric::SyncRoundsMean, 1e6).satisfied(&stats));
    }

    #[test]
    fn decide_batch_gates_on_min_seeds_and_marks_dominated_points() {
        let rule = StoppingRule::new(StopMetric::SyncRate, 1e-9).with_min_seeds(50);
        let stats = vec![rate_stats(95, 100), rate_stats(5, 100)];
        let mut stopped = vec![None, None];
        // below min_seeds: no verdicts at all
        rule.decide_batch(&stats, &mut stopped, 49);
        assert_eq!(stopped, vec![None, None]);
        // at min_seeds only the width decides: the far-worse point is not
        // retired for losing, so both run on
        rule.decide_batch(&stats, &mut stopped, 100);
        assert_eq!(stopped, vec![None, None]);
    }

    #[test]
    fn adaptive_sweep_stops_early_and_matches_fixed_prefix() {
        let base = SweepSpec {
            seed_end: 40,
            ..sweep()
        };
        // sync_rate converges fast on this grid (every trial syncs): a
        // loose width stops both points at the first eligible boundary.
        let rule = StoppingRule::new(StopMetric::SyncRate, 0.3)
            .with_min_seeds(6)
            .with_batch(2);
        let adaptive = SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run(&base.with_stop(rule))
            .unwrap();
        assert_eq!(adaptive.seeds(), 0..40);
        for point in &adaptive.points {
            // stopped at the first boundary past min_seeds, not at 2 or 4
            assert_eq!(point.seeds_used(), 6);
            assert!(point.stopped_early);
            assert_eq!(point.stop, Some(StopReason::HalfWidth));
            assert!(point.stats.trials == 6);
        }
        // the adaptive prefix aggregates are bit-identical to a fixed
        // sweep over the same seeds
        let fixed = SweepRunner::new()
            .run(&SweepSpec {
                seed_end: 6,
                ..sweep()
            })
            .unwrap();
        for (a, f) in adaptive.points.iter().zip(&fixed.points) {
            assert_eq!(a.stats, f.stats);
        }
    }

    #[test]
    fn adaptive_sweep_exhausts_budget_when_rule_never_satisfied() {
        let rule = StoppingRule::new(StopMetric::SyncRoundsMean, 1e-12)
            .with_min_seeds(2)
            .with_batch(3);
        let report = SweepRunner::new().run(&sweep().with_stop(rule)).unwrap();
        for point in &report.points {
            assert_eq!(point.seeds_used(), 5);
            assert!(!point.stopped_early);
            assert_eq!(point.stop, Some(StopReason::Exhausted));
        }
        assert_eq!(report.stopped_early_points(), 0);
    }

    #[test]
    fn adaptive_decisions_are_identical_across_worker_counts() {
        let spec = SweepSpec {
            seed_end: 64,
            ..sweep()
        }
        .with_stop(
            StoppingRule::new(StopMetric::SyncRoundsMean, 0.5)
                .with_min_seeds(2)
                .with_batch(2),
        );
        let reference = SweepRunner::with_runner(BatchRunner::serial())
            .run(&spec)
            .unwrap();
        for workers in [1, 2, 8] {
            let report = SweepRunner::with_runner(BatchRunner::with_workers(workers))
                .run(&spec)
                .unwrap();
            for (a, b) in reference.points.iter().zip(&report.points) {
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.stop, b.stop);
                assert_eq!(a.executed, b.executed);
                assert_eq!(a.stopped_early, b.stopped_early);
            }
        }
    }

    #[test]
    fn adaptive_resume_reproduces_fresh_decisions_from_cache() {
        let dir = temp_dir("adaptive-resume");
        let spec = SweepSpec {
            seed_end: 32,
            ..sweep()
        }
        .with_stop(
            StoppingRule::new(StopMetric::SyncRate, 0.3)
                .with_min_seeds(4)
                .with_batch(4),
        );
        let fresh = SweepRunner::new().run(&spec).unwrap();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let recorded = SweepRunner::new()
            .store(Arc::clone(&store))
            .run(&spec)
            .unwrap();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let resumed = SweepRunner::new().store(store).run(&spec).unwrap();
        assert_eq!(resumed.executed_trials(), 0);
        assert_eq!(resumed.cached_trials(), fresh.total_trials());
        for ((a, b), c) in fresh
            .points
            .iter()
            .zip(&recorded.points)
            .zip(&resumed.points)
        {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.stats, c.stats);
            assert_eq!(a.stop, c.stop);
            assert_eq!(a.stopped_early, c.stopped_early);
            assert_eq!(a.seeds_used(), c.seeds_used());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_each_sees_outcomes_in_batch_major_order() {
        let points: Vec<(String, ScenarioSpec)> = sweep()
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| (p.label, p.spec))
            .collect();
        let rule = StoppingRule::new(StopMetric::SyncRoundsMean, 1e-12)
            .with_min_seeds(2)
            .with_batch(2);
        let mut seen: Vec<(usize, u64)> = Vec::new();
        SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run_points_adaptive_each(points, 0..4, &rule, |point, outcome| {
                seen.push((point, outcome.seed));
            })
            .unwrap();
        // batch [0, 2) point-major, then batch [2, 4) point-major
        let expected = vec![
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
        ];
        assert_eq!(seen, expected);
    }

    #[test]
    fn quantile_table_has_stable_shape() {
        let sim = Sim::from_spec(&ScenarioSpec::new("trapdoor", 6, 8, 1).with_adversary("random"))
            .unwrap();
        let outcomes: Vec<SyncOutcome> = (0..4).map(|s| sim.run_one(s)).collect();
        let table = sync_time_quantile_table("demo", &outcomes);
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0][0], "rounds to sync");
        assert_eq!(table.rows()[1][0], "completion round");
    }
}
