//! The fabric determinism contract, end to end:
//!
//! * a sweep drained by **K concurrent fabric workers** leaves the result
//!   store with **byte-identical sorted shard contents** to a 1-worker
//!   (and to a plain `SweepRunner`) run — the partition function, the
//!   canonical record encoding, and the engine are all deterministic, so
//!   only the append *order* within a shard may differ;
//! * a worker that dies holding a lease is survivable: its stale lease is
//!   reclaimed after the TTL and the sweep still completes, with the same
//!   bytes;
//! * every `(digest, seed)` of the sweep lands in exactly one shard,
//!   exactly once;
//! * a worker's bookkeeping reads only what its peers appended: a solo
//!   worker decodes no shard line at all, and each of several concurrent
//!   workers decodes at most the trials its peers executed.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use wireless_sync::sync::fabric::{self, FabricConfig, WorkerEvent, WorkerSummary};
use wireless_sync::sync::json;
use wireless_sync::sync::spec::SweepSpec;
use wireless_sync::sync::store::{self, ResultStore};
use wireless_sync::sync::sweep::SweepRunner;

const SWEEP_JSON: &str = r#"{
    "base": {
        "protocol": "trapdoor",
        "adversary": "random",
        "num_nodes": 8,
        "num_frequencies": 8,
        "disruption_bound": 2
    },
    "seeds": {"start": 0, "end": 8},
    "grid": [{"field": "disruption_bound", "values": [1, 3]}]
}"#;

const TOTAL_TRIALS: u64 = 2 * 8;

/// The same grid with a 48-seed budget and a stopping rule that looks
/// every 4 seeds: several phase-locked batch windows per point.
const ADAPTIVE_SWEEP_JSON: &str = r#"{
    "base": {
        "protocol": "trapdoor",
        "adversary": "random",
        "num_nodes": 8,
        "num_frequencies": 8,
        "disruption_bound": 2
    },
    "seeds": {"start": 0, "end": 48},
    "grid": [{"field": "disruption_bound", "values": [1, 3]}],
    "stop": {"metric": "sync_rounds_mean", "half_width": 0.05, "relative": true,
             "min_seeds": 4, "batch": 4}
}"#;

fn sweep() -> SweepSpec {
    SweepSpec::from_value(&json::parse(SWEEP_JSON).unwrap()).unwrap()
}

fn adaptive_sweep() -> SweepSpec {
    SweepSpec::from_value(&json::parse(ADAPTIVE_SWEEP_JSON).unwrap()).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsync-fabric-det-{tag}-{}-{:?}",
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

/// Drains `sweep` with `k` concurrent fabric worker threads, returning
/// each worker's summary.
fn run_fabric(
    dir: &Path,
    sweep: &SweepSpec,
    k: usize,
    config: impl Fn(usize) -> FabricConfig + Sync,
) -> Vec<WorkerSummary> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..k)
            .map(|w| {
                let config = config(w);
                scope.spawn(move || fabric::run_worker(dir, sweep, &config, |_| {}).unwrap())
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

#[test]
fn one_vs_many_workers_produce_byte_identical_sorted_shards() {
    // Reference: a plain SweepRunner recording (no fabric at all).
    let runner_dir = temp_dir("runner");
    let store = Arc::new(ResultStore::open(&runner_dir).unwrap());
    let report = SweepRunner::new()
        .record_only(Arc::clone(&store))
        .run(&sweep())
        .unwrap();
    assert_eq!(report.executed_trials(), TOTAL_TRIALS);
    let reference = sorted_shards(&runner_dir);
    assert!(
        reference.iter().map(|(_, l)| l.len() as u64).sum::<u64>() == TOTAL_TRIALS,
        "reference store holds every trial"
    );

    for k in [1usize, 4] {
        let dir = temp_dir(&format!("workers-{k}"));
        run_fabric(&dir, &sweep(), k, |w| {
            FabricConfig::new(format!("det-w{w}"))
        });
        assert_eq!(
            sorted_shards(&dir),
            reference,
            "{k} fabric worker(s) must leave byte-identical sorted shards"
        );
        // No lease files survive an orderly drain.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                (!name.ends_with(".jsonl")).then_some(name)
            })
            .collect();
        assert!(leftovers.is_empty(), "stray fabric files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&runner_dir);
}

#[test]
fn a_dead_workers_stale_lease_is_reclaimed_and_the_sweep_still_completes() {
    let reference_dir = temp_dir("reclaim-ref");
    let store = Arc::new(ResultStore::open(&reference_dir).unwrap());
    SweepRunner::new().record_only(store).run(&sweep()).unwrap();
    let reference = sorted_shards(&reference_dir);

    // A worker "dies" holding shard 0's lease: simulate by planting the
    // lease file without any process to heartbeat it.
    let dir = temp_dir("reclaim");
    fs::write(
        fabric::lease_path(&dir, 0),
        r#"{"shard":0,"holder":"crashed-worker","beat":1}"#,
    )
    .unwrap();
    // Let the planted lease age past the (short) TTL.
    std::thread::sleep(Duration::from_millis(120));

    let mut reclaims = 0u64;
    let config = FabricConfig::new("survivor").lease_ttl(Duration::from_millis(50));
    let result = fabric::run_worker(&dir, &sweep(), &config, |event| {
        if let WorkerEvent::LeaseReclaimed { shard, holder } = event {
            assert_eq!((*shard, holder.as_str()), (0, "crashed-worker"));
            reclaims += 1;
        }
    })
    .unwrap();
    assert_eq!(reclaims, 1, "exactly one stale lease to reclaim");
    assert_eq!(result.leases_reclaimed, 1);
    assert_eq!(result.trials_executed + result.trials_cached, TOTAL_TRIALS);
    assert_eq!(
        sorted_shards(&dir),
        reference,
        "a reclaimed sweep still converges to the reference bytes"
    );

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference_dir);
}

#[test]
fn every_trial_lands_in_exactly_one_shard_exactly_once() {
    let dir = temp_dir("coverage");
    run_fabric(&dir, &sweep(), 3, |w| {
        FabricConfig::new(format!("cov-w{w}"))
    });

    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.loaded_records() as u64, TOTAL_TRIALS);
    assert_eq!(store.dropped_records(), 0);

    // Line-level: the shard files together hold exactly TOTAL_TRIALS
    // records, each (digest, seed) exactly once, each in its home shard.
    let mut seen = std::collections::BTreeSet::new();
    for (name, lines) in sorted_shards(&dir) {
        let shard: usize = name
            .trim_start_matches("shard-")
            .trim_end_matches(".jsonl")
            .parse()
            .unwrap();
        for line in lines {
            let record = json::parse(&line).unwrap();
            let digest =
                u64::from_str_radix(record.get("spec").unwrap().as_str().unwrap(), 16).unwrap();
            let seed = record.get("seed").unwrap().as_u64().unwrap();
            assert_eq!(
                store::shard_index(digest, seed),
                shard,
                "record ({digest:016x}, {seed}) filed outside its home shard"
            );
            assert!(
                seen.insert((digest, seed)),
                "duplicate record for ({digest:016x}, {seed})"
            );
        }
    }
    assert_eq!(seen.len() as u64, TOTAL_TRIALS);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_solo_worker_decodes_no_shard_line_across_an_adaptive_sweep() {
    let dir = temp_dir("decoded-solo");
    let sweep = adaptive_sweep();
    let summary = &run_fabric(&dir, &sweep, 1, |_| FabricConfig::new("solo"))[0];
    // More trials than one 4-seed window over both points: the worker
    // refreshed and claimed shards across several windows.
    assert!(
        summary.trials_executed > 2 * 4,
        "{} trials",
        summary.trials_executed
    );
    assert_eq!(
        summary.records_decoded, 0,
        "a solo worker's own appends advance its cursors"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_workers_decode_at_most_what_their_peers_executed() {
    let solo_dir = temp_dir("decoded-ref");
    let sweep = adaptive_sweep();
    let solo = run_fabric(&solo_dir, &sweep, 1, |_| FabricConfig::new("solo"));
    let dir = temp_dir("decoded-four");
    let summaries = run_fabric(&dir, &sweep, 4, |w| FabricConfig::new(format!("dec-w{w}")));
    let executed: u64 = summaries.iter().map(|s| s.trials_executed).sum();
    assert_eq!(executed, solo[0].trials_executed, "same trials, same stops");
    for (w, summary) in summaries.iter().enumerate() {
        let by_peers = executed - summary.trials_executed;
        assert!(
            summary.records_decoded <= by_peers,
            "worker {w} decoded {} lines; its peers executed {by_peers} trials",
            summary.records_decoded
        );
    }
    assert_eq!(sorted_shards(&dir), sorted_shards(&solo_dir));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&solo_dir);
}
