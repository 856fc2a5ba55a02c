//! Determinism guarantees of the simulator and the `BatchRunner`.
//!
//! Two claims, both load-bearing for every experiment in this workspace:
//!
//! 1. an execution is a pure function of `(spec, seed)` — running the
//!    same trial twice yields a bit-identical [`SyncOutcome`], and
//! 2. sharding a seed range across a worker pool changes *nothing*: the
//!    per-trial outcomes, the [`BatchStats`] folds, and the experiment
//!    tables built from them are identical whatever the worker count.

use wireless_sync::experiments::trapdoor_scaling;
use wireless_sync::experiments::Effort;
use wireless_sync::prelude::*;

fn specs(protocol: &str) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(protocol, 8, 8, 2).with_adversary("random"),
        ScenarioSpec::new(protocol, 12, 12, 4)
            .with_adversary("adaptive-greedy")
            .with_activation(ActivationSchedule::Staggered { gap: 7 }),
        ScenarioSpec::new(protocol, 6, 16, 8)
            .with_adversary(ComponentSpec::named("oblivious-random").with("t_actual", 3u64)),
    ]
}

#[test]
fn same_spec_and_seed_give_bit_identical_outcomes() {
    for protocol in ["trapdoor", "good-samaritan"] {
        for spec in specs(protocol) {
            let sim = Sim::from_spec(&spec).expect("valid spec");
            for seed in [0u64, 7, 12345] {
                let a = sim.run_one(seed);
                let b = sim.run_one(seed);
                assert_eq!(
                    a, b,
                    "{protocol} outcome must be a pure function of the seed"
                );
                // a freshly built Sim from the same spec agrees too
                let c = Sim::from_spec(&spec).expect("valid spec").run_one(seed);
                assert_eq!(a, c, "{protocol}: rebuilt Sim diverged");
            }
        }
    }
}

#[test]
fn parallel_batches_match_serial_batches_outcome_for_outcome() {
    for spec in specs("trapdoor") {
        let sim = Sim::from_spec(&spec).expect("valid spec");
        let serial = BatchRunner::serial().map(0..16, |s| sim.run_one(s));
        for workers in [2usize, 3, 8, 32] {
            let parallel = BatchRunner::with_workers(workers).map(0..16, |s| sim.run_one(s));
            assert_eq!(
                serial, parallel,
                "worker count {workers} changed the trial outcomes"
            );
        }
    }
}

#[test]
fn parallel_aggregates_equal_serial_aggregates() {
    let spec = ScenarioSpec::new("good-samaritan", 10, 8, 3).with_adversary("random");
    let sim = Sim::from_spec(&spec).expect("valid spec");
    let serial = BatchStats::aggregate(&BatchRunner::serial().map(100..124, |s| sim.run_one(s)));
    let parallel =
        BatchStats::aggregate(&BatchRunner::with_workers(6).map(100..124, |s| sim.run_one(s)));
    // BatchStats includes floating-point summaries; the folds run over
    // seed-ordered outcomes on both sides, so even those are bit-identical.
    assert_eq!(serial, parallel);
    assert_eq!(serial.trials, 24);
}

#[test]
fn generic_map_is_order_and_schedule_independent() {
    let serial: Vec<u64> = BatchRunner::serial().map(0..257, |s| s.wrapping_mul(s) ^ 0xABCD);
    let parallel = BatchRunner::with_workers(16).map(0..257, |s| s.wrapping_mul(s) ^ 0xABCD);
    assert_eq!(serial, parallel);
}

// ---------------------------------------------------------------------------
// Schedule perturbation: the claims above must hold not just across worker
// counts but across *adversarial schedules*. Each trial below injects a
// seed-derived yield/sleep before running, so workers finish out of order,
// stall against the reorder window, and race the collector — and the
// ordered stream, the folds, and the store contents still may not move.
// ---------------------------------------------------------------------------

/// A seed-derived scheduling perturbation: scrambles `(seed, salt)` with a
/// splitmix-style mix and spends the result as nothing / a yield / a sleep
/// of up to 200µs. Different salts exercise different slow-seed patterns;
/// the perturbation must be invisible in every observable result.
fn perturb(seed: u64, salt: u64) {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    match z % 4 {
        0 => {}
        1 => std::thread::yield_now(),
        2 => std::thread::sleep(std::time::Duration::from_micros(z % 200)),
        _ => {
            std::thread::yield_now();
            std::thread::sleep(std::time::Duration::from_micros(z % 50));
        }
    }
}

#[test]
fn perturbed_schedules_keep_the_each_stream_bit_identical() {
    let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
    let sim = Sim::from_spec(&spec).expect("valid spec");
    let seeds = 0u64..48;

    // Serial, unperturbed reference stream.
    let mut reference: Vec<(u64, SyncOutcome)> = Vec::new();
    BatchRunner::serial()
        .try_map_each::<_, std::convert::Infallible, _, _>(
            seeds.clone(),
            |s| Ok(sim.run_one(s)),
            |s, o| reference.push((s, o)),
        )
        .expect("infallible");

    for workers in 1..=8usize {
        for salt in [1u64, 2, 3] {
            let mut got: Vec<(u64, SyncOutcome)> = Vec::new();
            BatchRunner::with_workers(workers)
                .try_map_each::<_, std::convert::Infallible, _, _>(
                    seeds.clone(),
                    |s| {
                        perturb(s, salt ^ workers as u64);
                        Ok(sim.run_one(s))
                    },
                    |s, o| got.push((s, o)),
                )
                .expect("infallible");
            assert_eq!(
                reference, got,
                "workers={workers} salt={salt}: injected yields/sleeps leaked into the stream"
            );
        }
    }
}

#[test]
fn perturbed_schedules_keep_aggregates_bit_identical() {
    let spec = ScenarioSpec::new("good-samaritan", 10, 8, 3).with_adversary("adaptive-greedy");
    let sim = Sim::from_spec(&spec).expect("valid spec");
    let seeds = 200u64..240;

    let fold_under = |workers: usize, salt: u64| -> BatchStats {
        let mut fold = BatchStatsFold::new();
        BatchRunner::with_workers(workers)
            .try_map_each::<_, std::convert::Infallible, _, _>(
                seeds.clone(),
                |s| {
                    perturb(s, salt);
                    Ok(sim.run_one(s))
                },
                |_, o| fold.push(&o),
            )
            .expect("infallible");
        fold.finish()
    };

    // BatchStats carries floating-point summaries whose folds are
    // order-sensitive in general; the in-order stream makes them exact.
    let reference = fold_under(1, 0);
    for workers in 2..=8usize {
        assert_eq!(
            reference,
            fold_under(workers, workers as u64),
            "workers={workers}: perturbed schedule changed an aggregate"
        );
    }
    assert_eq!(reference.trials, 40);
}

/// Everything observable about one sweep run: the worker count, the ordered
/// `each` stream, the sorted on-disk shard lines, and the per-point stats.
struct SweepObservation {
    workers: usize,
    stream: Vec<(usize, SyncOutcome)>,
    lines: Vec<String>,
    stats: Vec<BatchStats>,
}

#[test]
fn sweeps_are_schedule_independent_down_to_the_store_bytes() {
    use std::sync::Arc;

    let points = vec![
        (
            "n=6".to_string(),
            ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random"),
        ),
        (
            "n=10".to_string(),
            ScenarioSpec::new("good-samaritan", 10, 8, 3).with_adversary("random"),
        ),
    ];
    let seeds = 0u64..12;

    // One fresh record-only store per worker count; every run executes all
    // trials and persists them, so the shard files must agree byte-for-byte
    // up to append order.
    let mut runs: Vec<SweepObservation> = Vec::new();
    for workers in 1..=8usize {
        let dir = std::env::temp_dir().join(format!(
            "wsync-perturb-{workers}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));

        let mut stream: Vec<(usize, SyncOutcome)> = Vec::new();
        let report = SweepRunner::with_runner(BatchRunner::with_workers(workers))
            .record_only(Arc::clone(&store))
            .run_points_each(points.clone(), seeds.clone(), |point, outcome| {
                stream.push((point, outcome.clone()));
            })
            .expect("sweep runs");

        assert_eq!(report.executed_trials(), 24, "record-only reuses nothing");

        // Snapshot the on-disk shard lines, sorted: append order is
        // schedule-dependent (workers race for the shard mutex), the line
        // *set* may not be.
        let mut lines: Vec<String> = Vec::new();
        for shard in 0..8 {
            let path = dir.join(format!("shard-{shard:02}.jsonl"));
            if let Ok(content) = std::fs::read_to_string(&path) {
                lines.extend(content.lines().map(str::to_string));
            }
        }
        lines.sort_unstable();
        let stats: Vec<BatchStats> = report.points.iter().map(|p| p.stats.clone()).collect();

        let _ = std::fs::remove_dir_all(&dir);
        runs.push(SweepObservation {
            workers,
            stream,
            lines,
            stats,
        });
    }

    let reference = &runs[0];
    assert_eq!(reference.stream.len(), 24);
    assert!(!reference.lines.is_empty(), "store persisted nothing");
    for run in &runs[1..] {
        let workers = run.workers;
        assert_eq!(
            reference.stream, run.stream,
            "workers={workers}: each-stream moved"
        );
        assert_eq!(
            reference.lines, run.lines,
            "workers={workers}: store bytes moved"
        );
        assert_eq!(
            reference.stats, run.stats,
            "workers={workers}: point aggregates moved"
        );
    }
}

/// A scenario carrying the full fault stack at *non-zero* intensities:
/// message loss, capture fading, a healing 3|5 partition, and node churn
/// all active at once, stacked on a jamming adversary. Every fault layer
/// draws from its own per-trial `StreamId::Fault(i)` RNG stream, so the
/// determinism guarantees above must hold unchanged.
fn faulty_spec() -> ScenarioSpec {
    let groups = wireless_sync::sync::json::Value::Array(vec![
        wireless_sync::sync::json::Value::Array((0..3u32).map(Into::into).collect()),
        wireless_sync::sync::json::Value::Array((3..8u32).map(Into::into).collect()),
    ]);
    ScenarioSpec::new("trapdoor", 8, 8, 2)
        .with_adversary("random")
        .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.2))
        .with_fault(ComponentSpec::named("capture").with("miss_rate", 0.1))
        .with_fault(
            ComponentSpec::named("partition")
                .with("groups", groups)
                .with("heal_at", 64u64),
        )
        .with_fault(
            ComponentSpec::named("churn")
                .with("churn_rate", 0.01)
                .with("downtime", 4u64),
        )
        .with_max_rounds(50_000)
}

#[test]
fn perturbed_schedules_with_a_full_fault_stack_keep_the_stream_and_folds_identical() {
    let sim = Sim::from_spec(&faulty_spec()).expect("valid faulty spec");
    let seeds = 0u64..32;

    // Serial, unperturbed reference: the ordered stream and its fold.
    let mut reference: Vec<(u64, SyncOutcome)> = Vec::new();
    let mut reference_fold = BatchStatsFold::new();
    BatchRunner::serial()
        .try_map_each::<_, std::convert::Infallible, _, _>(
            seeds.clone(),
            |s| Ok(sim.run_one(s)),
            |s, o| {
                reference_fold.push(&o);
                reference.push((s, o));
            },
        )
        .expect("infallible");
    let reference_stats = reference_fold.finish();

    for workers in 1..=8usize {
        for salt in [5u64, 6] {
            let mut got: Vec<(u64, SyncOutcome)> = Vec::new();
            let mut fold = BatchStatsFold::new();
            BatchRunner::with_workers(workers)
                .try_map_each::<_, std::convert::Infallible, _, _>(
                    seeds.clone(),
                    |s| {
                        perturb(s, salt ^ workers as u64);
                        Ok(sim.run_one(s))
                    },
                    |s, o| {
                        fold.push(&o);
                        got.push((s, o));
                    },
                )
                .expect("infallible");
            assert_eq!(
                reference, got,
                "workers={workers} salt={salt}: fault RNG leaked across the schedule"
            );
            assert_eq!(
                reference_stats,
                fold.finish(),
                "workers={workers} salt={salt}: faulty-run aggregates moved"
            );
        }
    }
}

#[test]
fn faulty_sweeps_are_schedule_independent_down_to_the_store_bytes() {
    use std::sync::Arc;

    // Two grid points over the faulty base — the drop rate itself is the
    // sweep axis, exercising the `fault.<name>.<param>` path under every
    // worker count.
    let sweep = SweepSpec::new(faulty_spec(), 0..10)
        .with_axis("fault.drop.drop_rate", vec![0.1.into(), 0.35.into()]);
    let points: Vec<(String, ScenarioSpec)> = sweep
        .expand()
        .expect("valid sweep")
        .into_iter()
        .map(|point| (point.label, point.spec))
        .collect();

    let mut runs: Vec<SweepObservation> = Vec::new();
    for workers in 1..=8usize {
        let dir = std::env::temp_dir().join(format!(
            "wsync-fault-perturb-{workers}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ResultStore::open(&dir).expect("open store"));

        let mut stream: Vec<(usize, SyncOutcome)> = Vec::new();
        let report = SweepRunner::with_runner(BatchRunner::with_workers(workers))
            .record_only(Arc::clone(&store))
            .run_points_each(points.clone(), 0..10, |point, outcome| {
                perturb(outcome.max_rounds_to_sync().unwrap_or(0) ^ point as u64, 11);
                stream.push((point, outcome.clone()));
            })
            .expect("sweep runs");

        let mut lines: Vec<String> = Vec::new();
        for shard in 0..8 {
            let path = dir.join(format!("shard-{shard:02}.jsonl"));
            if let Ok(content) = std::fs::read_to_string(&path) {
                lines.extend(content.lines().map(str::to_string));
            }
        }
        lines.sort_unstable();
        let stats: Vec<BatchStats> = report.points.iter().map(|p| p.stats.clone()).collect();

        let _ = std::fs::remove_dir_all(&dir);
        runs.push(SweepObservation {
            workers,
            stream,
            lines,
            stats,
        });
    }

    let reference = &runs[0];
    assert_eq!(reference.stream.len(), 20);
    assert!(!reference.lines.is_empty(), "store persisted nothing");
    for run in &runs[1..] {
        let workers = run.workers;
        assert_eq!(
            reference.stream, run.stream,
            "workers={workers}: faulty each-stream moved"
        );
        assert_eq!(
            reference.lines, run.lines,
            "workers={workers}: faulty store bytes moved"
        );
        assert_eq!(
            reference.stats, run.stats,
            "workers={workers}: faulty point aggregates moved"
        );
    }
}

#[test]
fn experiment_tables_are_reproducible() {
    // The experiment harness runs its trials through BatchRunner::new(),
    // whose worker count depends on the machine; the generated report —
    // tables, notes, everything — must not.
    let a = trapdoor_scaling::t10a_sweep_n(Effort::Smoke);
    let b = trapdoor_scaling::t10a_sweep_n(Effort::Smoke);
    assert_eq!(a, b, "experiment reports must be machine-independent");
    let c = trapdoor_scaling::t10d_properties(Effort::Smoke);
    let d = trapdoor_scaling::t10d_properties(Effort::Smoke);
    assert_eq!(c, d);
}
