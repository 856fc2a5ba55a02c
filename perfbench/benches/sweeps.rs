//! The two sweep workloads and their traced twins.
//!
//! * `dense_sweep`: an in-process `SweepRunner` with one worker and a
//!   resume store runs a fixed-count sweep of the N=256/F=32/t=8 Trapdoor
//!   cell, one seed chunk after another.
//! * `small_sweep`: `fabric::run_worker` drains one adaptive sweep of a
//!   small faulty Trapdoor grid into a fresh store, one sweep after
//!   another.
//!
//! The traced twins rebuild the same trials from public parts (see
//! `trial.rs`) and interleave them with the production path on the same
//! seeds, so the trace carries its own overhead figure and every rebuilt
//! trial is checked against what production computed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsync_core::batch::{BatchRunner, BatchStats, BatchStatsFold};
use wsync_core::fabric::{self, FabricConfig, WorkerSummary};
use wsync_core::report::SyncOutcome;
use wsync_core::sim::Sim;
use wsync_core::spec::{ComponentSpec, ScenarioSpec, SweepSpec};
use wsync_core::store::ResultStore;
use wsync_core::sweep::{StopMetric, StopReason, StoppingRule, SweepRunner};
use wsync_radio::activation::ActivationSchedule;

use crate::cpu::{self, Stopwatch};
use crate::trace::Tracer;
use crate::trial::{EngineOpts, Parts, Tally};
use crate::util::{fresh_dir, median, quantile, shard_bytes, sorted_shard_digest, Report};

/// Trials per `SweepRunner` call on the dense cell.
const DENSE_CHUNK: u64 = 8;
/// Seed budget per grid point of the small adaptive sweep.
const SMALL_BUDGET: u64 = 128;

/// The first seed of workload seed `seed`'s windows. Windows of different
/// workload seeds never overlap, and all stay far from the small seeds the
/// serve store is pre-filled with.
pub fn seed_base(seed: u64) -> u64 {
    1_000_000 + (seed % 1_000_000) * 1_000_000
}

/// The old headline cell, through the registry: Trapdoor, `random`
/// adversary, N=256, F=32, t=8, simultaneous activation.
pub fn dense_spec() -> ScenarioSpec {
    ScenarioSpec::new("trapdoor", 256, 32, 8)
        .with_adversary("random")
        .with_activation(ActivationSchedule::Simultaneous)
}

/// Trapdoor at N=16, F=8 under `uniform-window` 40 activation over the
/// grid `disruption_bound ∈ {1,3}` × `fault.drop.drop_rate ∈ {0, 0.2}`,
/// with a relative-width stopping rule that crosses several 16-seed batch
/// boundaries per point before it stops.
pub fn small_sweep(start: u64) -> SweepSpec {
    let base = ScenarioSpec::new("trapdoor", 16, 8, 1)
        .with_adversary("random")
        .with_activation(ActivationSchedule::UniformWindow { window: 40 })
        .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.0));
    SweepSpec::new(base, start..start + SMALL_BUDGET)
        .with_axis("disruption_bound", vec![1u64.into(), 3u64.into()])
        .with_axis("fault.drop.drop_rate", vec![0.0.into(), 0.2.into()])
        .with_stop(
            StoppingRule::new(StopMetric::SyncRoundsMean, 0.015)
                .relative()
                .with_min_seeds(16)
                .with_batch(16),
        )
}

/// One timing, in thread CPU seconds (the caller scales it by the CPU's
/// speed), of what a run pays before its first trial when it resumes a
/// sweep: `Sim::from_spec` over `specs` plus
/// `ResultStore::open`, which replays the records already in `dir`.
fn setup_once(specs: &[ScenarioSpec], dir: &Path) -> f64 {
    let started = Stopwatch::start();
    let sims: Vec<Sim> = specs
        .iter()
        .map(|spec| Sim::from_spec(spec).expect("benchmark specs are valid"))
        .collect();
    let store = ResultStore::open(dir).expect("store opens");
    let (_, cpu) = started.elapsed();
    std::hint::black_box((sims, store));
    cpu
}

/// A store holding `seeds` trials of every spec in `specs`, the store
/// `setup_s` resumes: its size depends only on the workload, not on the
/// seed window.
fn setup_store(specs: &[ScenarioSpec], seeds: std::ops::Range<u64>, dir: &Path) {
    fresh_dir(dir).expect("work dir");
    let store = Arc::new(ResultStore::open(dir).expect("store opens"));
    let points = specs.iter().map(|s| (String::new(), s.clone())).collect();
    one_worker(&store)
        .run_points(points, seeds)
        .expect("setup sweep runs");
}

/// Runs one fixed-count production sweep of `spec`, handing each outcome
/// to `each` in seed order.
fn run_dense_chunk(
    runner: &SweepRunner,
    spec: &ScenarioSpec,
    seeds: std::ops::Range<u64>,
    mut each: impl FnMut(&SyncOutcome),
) {
    runner
        .run_points_each(vec![(String::new(), spec.clone())], seeds, |_, outcome| {
            each(outcome)
        })
        .expect("fixed-count sweep runs");
}

fn one_worker(store: &Arc<ResultStore>) -> SweepRunner {
    SweepRunner::with_runner(BatchRunner::with_workers(1)).store(Arc::clone(store))
}

/// The untraced `dense_sweep` run.
pub fn dense(seed: u64, seconds: f64, work: &Path, report: &mut Report) {
    let spec = dense_spec();
    let parts = Parts::resolve(&spec, &mut Tracer::off()).expect("valid spec");
    let typed_opts = EngineOpts {
        checker: true,
        tally: false,
        count_allocs: false,
    };
    let dir = work.join("dense-store");
    let base = seed_base(seed);
    // `setup_s` is timed once after every sweep, so its median spans the run.
    let setup_dir = work.join("dense-setup");
    setup_store(
        std::slice::from_ref(&spec),
        base..base + DENSE_CHUNK,
        &setup_dir,
    );
    let mut setups = Vec::new();
    let base = base + DENSE_CHUNK;

    let mut units: Vec<Unit> = Vec::new();
    let mut next = base;
    let started = Instant::now();
    for chunk in 0u64.. {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // Each chunk is one sweep into a fresh store, so memory stays flat
        // however many trials the run completes.
        fresh_dir(&dir).expect("work dir");
        let mut outcomes = Vec::new();
        let chunk_start = Stopwatch::start();
        let store = Arc::new(ResultStore::open(&dir).expect("store opens"));
        let check = chunk % 16 == 0;
        let mut rounds = 0u64;
        run_dense_chunk(
            &one_worker(&store),
            &spec,
            next..next + DENSE_CHUNK,
            |outcome| {
                rounds += outcome.result.metrics.rounds;
                if check {
                    outcomes.push(outcome.clone());
                }
            },
        );
        let (wall, cpu) = chunk_start.elapsed();
        units.push(Unit {
            trials: DENSE_CHUNK,
            rounds,
            wall,
            cpu,
            speed: cpu::speed(),
        });
        next += DENSE_CHUNK;

        setups.push(
            setup_once(std::slice::from_ref(&spec), &setup_dir) * units[chunk as usize].speed,
        );
        // Gates on every 16th chunk, untimed: the typed engine agrees with
        // the registry path, and the store replays what was appended.
        if check {
            let sample = &outcomes[0];
            let typed = parts.run_typed_trapdoor(sample.seed, typed_opts).outcome;
            report.check(typed.as_ref() == Some(sample), || {
                format!(
                    "dense: typed and registry outcomes differ at seed {}",
                    sample.seed
                )
            });
            drop(store);
            let reopened = ResultStore::open(&dir).expect("store reopens");
            let replayed = outcomes
                .iter()
                .all(|o| reopened.get(parts.digest, o.seed).as_ref() == Some(o));
            report.check(
                replayed && reopened.loaded_records() == outcomes.len(),
                || format!("dense: store does not replay chunk {chunk}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&setup_dir);
    report.succeeded(units.len() as u64 * DENSE_CHUNK);
    push_sweep_metrics(report, median(&setups), &units, "8-trial sweep");
}

/// One timed unit of a sweep workload: a sweep, with the trials it
/// executed, the rounds they simulated, and its wall and thread-CPU time.
pub struct Unit {
    pub trials: u64,
    pub rounds: u64,
    pub wall: f64,
    pub cpu: f64,
    /// `cpu::speed()`, measured right after the sweep.
    pub speed: f64,
}

/// The gated rates are per-sweep rates over thread CPU time divided by the
/// CPU's speed right after the sweep (see `cpu.rs`), medians over the run;
/// wall-clock and raw CPU-time figures go to the notes.
fn push_sweep_metrics(report: &mut Report, setup_s: f64, units: &[Unit], unit_name: &str) {
    let trials: u64 = units.iter().map(|u| u.trials).sum();
    let rounds: u64 = units.iter().map(|u| u.rounds).sum();
    let wall: f64 = units.iter().map(|u| u.wall).sum();
    let cpu: f64 = units.iter().map(|u| u.cpu).sum();
    let rates = |count: fn(&Unit) -> u64, time: fn(&Unit) -> f64| -> Vec<f64> {
        units.iter().map(|u| count(u) as f64 / time(u)).collect()
    };
    let reference = |u: &Unit| u.cpu * u.speed;
    let trial_rates = rates(|u| u.trials, reference);
    let round_rates = rates(|u| u.rounds, reference);
    let cpu_rates = rates(|u| u.trials, |u| u.cpu);
    let wall_rates = rates(|u| u.trials, |u| u.wall);
    let speeds: Vec<f64> = units.iter().map(|u| u.speed).collect();
    let latencies: Vec<f64> = units.iter().map(|u| u.wall * 1e3).collect();
    report.metric("setup_s", setup_s, "s");
    report.metric("trials_per_s", median(&trial_rates), "1/s");
    report.metric("rounds_per_s", median(&round_rates), "1/s");
    report.note(format!(
        "{trials} trials, {rounds} rounds over {} {unit_name}s: {cpu:.3} s on CPU in \
         {wall:.3} s wall (CPU share {:.3}); CPU speed p25 {:.3} p50 {:.3} p75 {:.3}; \
         per-{unit_name} trials_per_s on raw CPU time p25 {:.3} p50 {:.3} p75 {:.3} 1/s",
        units.len(),
        cpu / wall,
        quantile(&speeds, 0.25),
        median(&speeds),
        quantile(&speeds, 0.75),
        quantile(&cpu_rates, 0.25),
        median(&cpu_rates),
        quantile(&cpu_rates, 0.75),
    ));
    report.note(format!(
        "wall clock: trials_per_s {:.3} 1/s (mean), {:.3} 1/s (per-{unit_name} median) | \
         rounds_per_s {:.1} 1/s (mean) | latency_p50_ms {:.3} ms, latency_p90_ms {:.3} ms \
         (one {unit_name})",
        trials as f64 / wall,
        median(&wall_rates),
        rounds as f64 / wall,
        median(&latencies),
        quantile(&latencies, 0.9),
    ));
}

/// What one adaptive sweep consumed: per point, seeds used and why it
/// stopped, plus the executed trial count.
#[derive(Debug, PartialEq)]
pub struct AdaptivePlan {
    pub seeds_used: Vec<u64>,
    pub stops: Vec<Option<StopReason>>,
    pub trials: u64,
}

/// Sum of simulated rounds over every trial of `sweep` found in `dir`.
fn stored_rounds(dir: &Path, sweep: &SweepSpec) -> (u64, u64) {
    let store = ResultStore::open(dir).expect("store reopens");
    let seeds = sweep.effective_seeds().expect("valid sweep");
    let mut rounds = 0u64;
    let mut found = 0u64;
    for point in sweep.expand().expect("valid sweep") {
        let digest = wsync_core::store::spec_digest(&point.spec);
        for seed in seeds.clone() {
            if let Some(outcome) = store.get(digest, seed) {
                rounds += outcome.result.metrics.rounds;
                found += 1;
            }
        }
    }
    (rounds, found)
}

/// Drains `sweep` into a fresh `dir` with one fabric worker; also returns
/// the drain's `(wall, thread CPU)` seconds.
pub fn drain_fabric(dir: &Path, sweep: &SweepSpec) -> (WorkerSummary, (f64, f64)) {
    fresh_dir(dir).expect("work dir");
    let started = Stopwatch::start();
    let config = FabricConfig::new("perfbench-worker");
    let summary = fabric::run_worker(dir, sweep, &config, |_| {}).expect("fabric drains");
    (summary, started.elapsed())
}

/// Runs `sweep` in process (one worker, resume store) into a fresh `dir`,
/// collecting every outcome keyed by (point, seed).
pub fn run_in_process(
    dir: &Path,
    sweep: &SweepSpec,
) -> (AdaptivePlan, BTreeMap<(usize, u64), SyncOutcome>, Duration) {
    fresh_dir(dir).expect("work dir");
    let started = Instant::now();
    let store = Arc::new(ResultStore::open(dir).expect("store opens"));
    let points: Vec<(String, ScenarioSpec)> = sweep
        .expand()
        .expect("valid sweep")
        .into_iter()
        .map(|p| (p.label, p.spec))
        .collect();
    let mut outcomes = BTreeMap::new();
    let report = one_worker(&store)
        .run_points_adaptive_each(
            points,
            sweep.effective_seeds().expect("valid sweep"),
            sweep.stop.as_ref().expect("adaptive sweep"),
            |point, outcome| {
                outcomes.insert((point, outcome.seed), outcome.clone());
            },
        )
        .expect("in-process sweep runs");
    let elapsed = started.elapsed();
    let plan = AdaptivePlan {
        seeds_used: report.points.iter().map(|p| p.seeds_used()).collect(),
        stops: report.points.iter().map(|p| p.stop).collect(),
        trials: report.executed_trials(),
    };
    (plan, outcomes, elapsed)
}

/// The untraced `small_sweep` run.
pub fn small(seed: u64, seconds: f64, work: &Path, report: &mut Report) {
    let base = seed_base(seed);
    let first = small_sweep(base);
    let specs: Vec<ScenarioSpec> = first
        .expand()
        .expect("valid sweep")
        .into_iter()
        .map(|p| p.spec)
        .collect();
    // `setup_s` resumes a fixed 64-seed store of the grid, timed once after
    // every sweep so its median spans the run.
    let setup_dir = work.join("small-setup");
    setup_store(&specs, base..base + 64, &setup_dir);
    let base = base + SMALL_BUDGET;
    let mut setups = Vec::new();
    let fabric_dir = work.join("small-fabric");
    let check_dir = work.join("small-inprocess");

    let mut units: Vec<Unit> = Vec::new();
    let mut first_digest = None;
    let started = Instant::now();
    let mut k = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let sweep = small_sweep(base + k * SMALL_BUDGET);
        let (summary, (wall, cpu)) = drain_fabric(&fabric_dir, &sweep);

        // Untimed: rounds from the drained store, and every fourth sweep
        // the fabric store must equal an in-process run's, byte for byte
        // once each shard's lines are sorted.
        let (rounds, found) = stored_rounds(&fabric_dir, &sweep);
        units.push(Unit {
            trials: summary.trials_executed,
            rounds,
            wall,
            cpu,
            speed: cpu::speed(),
        });
        report.check(found == summary.trials_executed, || {
            format!(
                "small: fabric reported {} trials, store holds {found}",
                summary.trials_executed
            )
        });
        setups.push(setup_once(&specs, &setup_dir) * units[k as usize].speed);
        if k % 4 == 0 {
            let digest = sorted_shard_digest(&fabric_dir).expect("shards readable");
            let (plan, _, _) = run_in_process(&check_dir, &sweep);
            let reference = sorted_shard_digest(&check_dir).expect("shards readable");
            report.check(digest == reference && plan.trials == found, || {
                format!("small: fabric store digest {digest:016x} != in-process {reference:016x} (sweep {k})")
            });
            first_digest.get_or_insert(digest);
        }
        k += 1;
    }
    let trials: u64 = units.iter().map(|u| u.trials).sum();
    report.succeeded(trials);
    for dir in [&fabric_dir, &check_dir, &setup_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    report.note(format!(
        "small: {k} adaptive sweeps, {:.1} seeds per grid point on average; first sweep's \
         sorted-shard digest {:016x} (same seed, same digest)",
        trials as f64 / (specs.len() as u64 * k.max(1)) as f64,
        first_digest.unwrap_or_default()
    ));
    push_sweep_metrics(report, median(&setups), &units, "adaptive sweep");
}

/// Per-point step-loop time and rounds of a rebuilt sweep, for the
/// fault-layer share.
#[derive(Default, Clone, Copy)]
pub struct PointCost {
    pub step_ns: u64,
    pub rounds: u64,
}

/// Everything a rebuilt (traced) trial loop hands back for checking.
pub struct Rebuilt {
    pub plan: AdaptivePlan,
    pub outcomes: BTreeMap<(usize, u64), SyncOutcome>,
    pub tally: Tally,
    pub costs: Vec<PointCost>,
    pub batches: u64,
}

/// `SweepRunner`'s adaptive loop with one worker, rebuilt on public parts
/// with a span around every layer call: lockstep seed batches over the
/// active points, one fold per point, `StoppingRule::decide_batch` at each
/// boundary. Trial ids are `id_base + running index`.
pub fn rebuilt_adaptive(
    sweep: &SweepSpec,
    store: &ResultStore,
    tracer: &mut Tracer,
    id_base: u64,
) -> Rebuilt {
    let rule = sweep.stop.as_ref().expect("adaptive sweep");
    let seeds = sweep.effective_seeds().expect("valid sweep");
    let points = sweep.expand().expect("valid sweep");
    tracer.begin("sim.from_spec", id_base);
    let parts: Vec<Parts> = points
        .iter()
        .map(|p| Parts::resolve(&p.spec, tracer).expect("valid spec"))
        .collect();
    tracer.end();
    let n = parts.len();
    let mut folds: Vec<BatchStatsFold> = (0..n).map(|_| BatchStatsFold::new()).collect();
    let mut stopped: Vec<Option<StopReason>> = vec![None; n];
    let mut used = vec![0u64; n];
    let mut outcomes = BTreeMap::new();
    let mut tally = Tally::default();
    let mut costs = vec![PointCost::default(); n];
    let mut batches = 0u64;
    let mut id = id_base;
    let mut next = seeds.start;
    while next < seeds.end {
        let active: Vec<usize> = (0..n).filter(|&p| stopped[p].is_none()).collect();
        if active.is_empty() {
            break;
        }
        let batch_end = seeds.end.min(next + rule.batch);
        for &point in &active {
            for seed in next..batch_end {
                let (outcome, trial_tally, step_ns) = parts[point]
                    .sweep_trial(seed, id, store, &mut folds[point], tracer)
                    .expect("store appends");
                id += 1;
                used[point] += 1;
                tally.add(&trial_tally);
                costs[point].step_ns += step_ns;
                costs[point].rounds += trial_tally.rounds;
                outcomes.insert((point, seed), outcome);
            }
        }
        tracer.span("sweep.decide", id, || {
            let stats: Vec<BatchStats> = folds.iter().map(BatchStatsFold::finish).collect();
            rule.decide_batch(&stats, &mut stopped, batch_end - seeds.start);
        });
        batches += 1;
        next = batch_end;
    }
    let trials = used.iter().sum();
    Rebuilt {
        plan: AdaptivePlan {
            seeds_used: used,
            stops: stopped
                .into_iter()
                .map(|s| Some(s.unwrap_or(StopReason::Exhausted)))
                .collect(),
            trials,
        },
        outcomes,
        tally,
        costs,
        batches,
    }
}

/// Fixed-count trials of `spec` rebuilt on public parts, one `trial` span
/// each, into `store`.
pub fn rebuilt_fixed(
    spec: &ScenarioSpec,
    seeds: std::ops::Range<u64>,
    store: &ResultStore,
    tracer: &mut Tracer,
) -> (Vec<SyncOutcome>, Tally) {
    tracer.begin("sim.from_spec", seeds.start);
    let parts = Parts::resolve(spec, tracer).expect("valid spec");
    tracer.end();
    let mut fold = BatchStatsFold::new();
    let mut tally = Tally::default();
    let outcomes = seeds
        .map(|seed| {
            let (outcome, trial_tally, _) = parts
                .sweep_trial(seed, seed, store, &mut fold, tracer)
                .expect("store appends");
            tally.add(&trial_tally);
            outcome
        })
        .collect();
    (outcomes, tally)
}

/// Untraced and traced passes over the same trials, interleaved chunk by
/// chunk: production (`SweepRunner` with a resume store, which executes
/// `Sim::run_one`) against the rebuilt trial path with spans. Every
/// rebuilt outcome must equal production's and both stores must hold the
/// same bytes; the two throughputs give the tracing overhead.
pub struct Interleaved {
    pub untraced_per_s: f64,
    pub traced_per_s: f64,
    pub trials: u64,
    pub tally: Tally,
    /// Bytes per stored record, shard files over record count.
    pub record_bytes: f64,
}

/// The interleaved traced pass for a fixed-count workload spec.
pub fn interleave_fixed(
    spec: &ScenarioSpec,
    chunk: u64,
    base: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Interleaved {
    let plain_dir = fresh_dir(&work.join("trace-untraced")).expect("work dir");
    let traced_dir = fresh_dir(&work.join("trace-traced")).expect("work dir");
    let plain_store = Arc::new(ResultStore::open(&plain_dir).expect("store opens"));
    let traced_store = ResultStore::open(&traced_dir).expect("store opens");
    let runner = one_worker(&plain_store);
    let (mut plain_s, mut traced_s, mut trials) = (0.0f64, 0.0f64, 0u64);
    let mut tally = Tally::default();
    let mut next = base;
    let mut chunk_index = 0u64;
    while plain_s + traced_s < seconds {
        let seeds = next..next + chunk;
        let mut plain = Vec::new();
        let run_plain = |plain: &mut Vec<SyncOutcome>| {
            let started = Instant::now();
            run_dense_chunk(&runner, spec, seeds.clone(), |o| plain.push(o.clone()));
            started.elapsed().as_secs_f64()
        };
        let run_traced = |tracer: &mut Tracer| {
            let started = Instant::now();
            let out = rebuilt_fixed(spec, seeds.clone(), &traced_store, tracer);
            (out, started.elapsed().as_secs_f64())
        };
        // Alternate which side goes first.
        let ((traced, chunk_tally), t) = if chunk_index % 2 == 0 {
            plain_s += run_plain(&mut plain);
            run_traced(tracer)
        } else {
            let out = run_traced(tracer);
            plain_s += run_plain(&mut plain);
            out
        };
        traced_s += t;
        tally.add(&chunk_tally);
        for (a, b) in plain.iter().zip(&traced) {
            report.check(a == b, || {
                format!(
                    "trace: rebuilt trial differs from Sim::run_one at seed {}",
                    a.seed
                )
            });
        }
        trials += chunk;
        next += chunk;
        chunk_index += 1;
    }
    let same_bytes = sorted_shard_digest(&plain_dir).ok() == sorted_shard_digest(&traced_dir).ok();
    report.check(same_bytes, || {
        "trace: rebuilt store differs from production store".to_string()
    });
    let bytes = shard_bytes(&traced_dir);
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&traced_dir);
    Interleaved {
        untraced_per_s: trials as f64 / plain_s,
        traced_per_s: trials as f64 / traced_s,
        trials,
        tally,
        record_bytes: bytes as f64 / trials as f64,
    }
}

/// The interleaved traced pass for the adaptive small sweep: in-process
/// production sweep against the rebuilt adaptive loop, sweep by sweep.
pub fn interleave_adaptive(
    base: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Interleaved {
    let plain_dir = work.join("trace-untraced");
    let traced_dir = work.join("trace-traced");
    let (mut plain_s, mut traced_s, mut trials) = (0.0f64, 0.0f64, 0u64);
    let mut tally = Tally::default();
    let mut bytes = 0u64;
    let mut k = 0u64;
    while plain_s + traced_s < seconds {
        let sweep = small_sweep(base + k * SMALL_BUDGET);
        let run_traced = |tracer: &mut Tracer| {
            fresh_dir(&traced_dir).expect("work dir");
            let store = ResultStore::open(&traced_dir).expect("store opens");
            let started = Instant::now();
            let rebuilt = rebuilt_adaptive(&sweep, &store, tracer, k * 1_000_000);
            (rebuilt, started.elapsed().as_secs_f64())
        };
        let (plain, traced) = if k % 2 == 0 {
            let plain = run_in_process(&plain_dir, &sweep);
            (plain, run_traced(tracer))
        } else {
            let traced = run_traced(tracer);
            (run_in_process(&plain_dir, &sweep), traced)
        };
        let ((plan, outcomes, plain_elapsed), (rebuilt, traced_elapsed)) = (plain, traced);
        plain_s += plain_elapsed.as_secs_f64();
        traced_s += traced_elapsed;
        report.check(plan == rebuilt.plan && outcomes == rebuilt.outcomes, || {
            format!("trace: rebuilt adaptive sweep {k} differs from SweepRunner")
        });
        let same_bytes =
            sorted_shard_digest(&plain_dir).ok() == sorted_shard_digest(&traced_dir).ok();
        report.check(same_bytes, || {
            format!("trace: rebuilt sweep {k} store differs from production store")
        });
        trials += plan.trials;
        bytes += shard_bytes(&traced_dir);
        tally.add(&rebuilt.tally);
        k += 1;
    }
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&traced_dir);
    Interleaved {
        untraced_per_s: trials as f64 / plain_s,
        traced_per_s: trials as f64 / traced_s,
        trials,
        tally,
        record_bytes: bytes as f64 / trials as f64,
    }
}
