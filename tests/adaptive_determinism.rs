//! The adaptive-stopping determinism contract, end to end:
//!
//! * an adaptive sweep's **decision sequence** — which grid points stop at
//!   which batch boundary, for which reason — is a pure function of trial
//!   outcomes, so it is bit-identical across worker counts and across the
//!   in-process and fabric execution paths;
//! * a **resumed** adaptive sweep replays the same decisions from cached
//!   trials (cached trials count toward the rule) and leaves the result
//!   store with byte-identical sorted shard contents to a fresh run;
//! * the property holds across stopping-rule shapes (batch size, minimum
//!   seeds, thresholds), not just one hand-picked configuration.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use wireless_sync::sync::batch::BatchRunner;
use wireless_sync::sync::fabric::{self, FabricConfig};
use wireless_sync::sync::json;
use wireless_sync::sync::spec::SweepSpec;
use wireless_sync::sync::store::ResultStore;
use wireless_sync::sync::sweep::{StopMetric, StopReason, StoppingRule, SweepReport, SweepRunner};

/// A 2-point grid with a 32-seed budget; the loose sync-rate rule stops
/// both points in the first batch, the budget bounds the rest.
const SWEEP_JSON: &str = r#"{
    "base": {
        "protocol": "trapdoor",
        "adversary": "random",
        "num_nodes": 8,
        "num_frequencies": 8,
        "disruption_bound": 2
    },
    "seeds": {"start": 0, "end": 32},
    "grid": [{"field": "disruption_bound", "values": [1, 3]}],
    "stop": {"metric": "sync_rate", "half_width": 0.3, "min_seeds": 4, "batch": 4}
}"#;

fn sweep() -> SweepSpec {
    SweepSpec::from_value(&json::parse(SWEEP_JSON).unwrap()).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsync-adaptive-det-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every shard's lines, sorted — the order-independent canonical content
/// the determinism contract is stated over.
fn sorted_shards(dir: &Path) -> Vec<(String, Vec<String>)> {
    let mut shards = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".jsonl") {
            continue;
        }
        let mut lines: Vec<String> = fs::read_to_string(entry.path())
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines.sort();
        shards.push((name, lines));
    }
    shards.sort();
    shards
}

/// The decision sequence a report encodes: per point, the seeds consumed
/// and the stop verdict.
fn decisions(report: &SweepReport) -> Vec<(u64, bool, Option<StopReason>)> {
    report
        .points
        .iter()
        .map(|p| (p.seeds_used(), p.stopped_early, p.stop))
        .collect()
}

#[test]
fn adaptive_reports_are_identical_across_worker_counts() {
    let reference = SweepRunner::with_runner(BatchRunner::serial())
        .run(&sweep())
        .unwrap();
    assert!(
        reference.stopped_early_points() > 0,
        "the rule must actually fire for this test to mean anything"
    );
    for workers in 1..=8usize {
        let report = SweepRunner::with_runner(BatchRunner::with_workers(workers))
            .run(&sweep())
            .unwrap();
        assert_eq!(
            report, reference,
            "workers={workers}: adaptive report diverged from serial"
        );
    }
}

#[test]
fn adaptive_resume_replays_decisions_and_leaves_identical_shards() {
    let fresh_dir = temp_dir("fresh");
    let store = Arc::new(ResultStore::open(&fresh_dir).unwrap());
    let fresh = SweepRunner::new()
        .record_only(Arc::clone(&store))
        .run(&sweep())
        .unwrap();
    assert!(fresh.stopped_early_points() > 0);
    assert_eq!(fresh.cached_trials(), 0);
    let fresh_shards = sorted_shards(&fresh_dir);

    // Resume against the same store: every trial is served from cache,
    // the decision sequence replays, and no shard byte moves.
    let store = Arc::new(ResultStore::open(&fresh_dir).unwrap());
    let resumed = SweepRunner::new()
        .store(Arc::clone(&store))
        .run(&sweep())
        .unwrap();
    assert_eq!(resumed.executed_trials(), 0, "resume re-executed trials");
    assert_eq!(decisions(&resumed), decisions(&fresh));
    for (fresh_point, resumed_point) in fresh.points.iter().zip(&resumed.points) {
        assert_eq!(fresh_point.stats, resumed_point.stats);
    }
    assert_eq!(sorted_shards(&fresh_dir), fresh_shards);

    // A *partial* cache — only the first batch of each point — must lead
    // to the same decisions: cached trials count toward the rule, and the
    // store converges to the same bytes.
    let partial_dir = temp_dir("partial");
    let mut partial = sweep();
    partial.seed_end = 4;
    partial.stop = None;
    let store = Arc::new(ResultStore::open(&partial_dir).unwrap());
    SweepRunner::new()
        .record_only(Arc::clone(&store))
        .run(&partial)
        .unwrap();
    let store = Arc::new(ResultStore::open(&partial_dir).unwrap());
    let completed = SweepRunner::new().store(store).run(&sweep()).unwrap();
    assert_eq!(decisions(&completed), decisions(&fresh));
    assert_eq!(sorted_shards(&partial_dir), fresh_shards);

    let _ = fs::remove_dir_all(&fresh_dir);
    let _ = fs::remove_dir_all(&partial_dir);
}

#[test]
fn fabric_and_in_process_adaptive_runs_converge_to_the_same_bytes() {
    let reference_dir = temp_dir("inproc");
    let store = Arc::new(ResultStore::open(&reference_dir).unwrap());
    let reference = SweepRunner::new().record_only(store).run(&sweep()).unwrap();
    let reference_shards = sorted_shards(&reference_dir);

    for k in [1usize, 4] {
        let dir = temp_dir(&format!("fabric-{k}"));
        std::thread::scope(|scope| {
            for w in 0..k {
                let sweep = sweep();
                let dir = dir.clone();
                scope.spawn(move || {
                    let config = FabricConfig::new(format!("adet-w{w}"));
                    fabric::run_worker(&dir, &sweep, &config, |_| {}).unwrap();
                });
            }
        });
        // The store holds exactly the in-process bytes.
        assert_eq!(
            sorted_shards(&dir),
            reference_shards,
            "{k} fabric worker(s) diverged from the in-process adaptive run"
        );
        // And an aggregation pass over that store replays the decisions.
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let aggregated = SweepRunner::new().store(store).run(&sweep()).unwrap();
        assert_eq!(aggregated.executed_trials(), 0);
        assert_eq!(decisions(&aggregated), decisions(&reference));
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&reference_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across stopping-rule shapes, the decision sequence is a pure
    /// function of outcomes: serial and parallel runs agree exactly.
    #[test]
    fn rule_shapes_decide_identically_across_schedules(
        batch in 1u64..6,
        min_seeds in 1u64..9,
        threshold_tenths in 1u64..6,
        workers in 2usize..9,
    ) {
        let rule = StoppingRule::new(StopMetric::SyncRate, threshold_tenths as f64 / 10.0)
            .with_min_seeds(min_seeds)
            .with_batch(batch);
        let mut spec = sweep();
        spec.seed_end = 12;
        spec.stop = Some(rule);
        let serial = SweepRunner::with_runner(BatchRunner::serial()).run(&spec).unwrap();
        let parallel = SweepRunner::with_runner(BatchRunner::with_workers(workers))
            .run(&spec)
            .unwrap();
        prop_assert_eq!(&parallel, &serial);
        // Every point carries a verdict, and no point overran the budget.
        for point in &serial.points {
            prop_assert!(point.stop.is_some());
            prop_assert!(point.seeds_used() <= 12);
            if !point.stopped_early {
                prop_assert_eq!(point.stop, Some(StopReason::Exhausted));
            }
        }
    }
}
