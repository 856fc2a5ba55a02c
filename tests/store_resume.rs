//! The resumability contract, end to end:
//!
//! * a `SweepSpec` run recorded into a result store (`--out`), killed
//!   midway — simulated by keeping only a prefix of every shard, with the
//!   final surviving line torn in half exactly as an interrupted
//!   `write(2)` leaves it — and rerun with the store attached (`--resume`)
//!   executes **only the missing trials** and produces **bit-identical
//!   aggregate tables** to an uninterrupted run;
//! * a complete store resumes with **zero** executed trials;
//! * a shard whose final line is torn drops exactly that record, and a
//!   resume recomputes exactly that trial.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use wireless_sync::experiments::{run_spec_stored, SpecFile};
use wireless_sync::prelude::*;
use wireless_sync::sync::store::ResultStore;
use wireless_sync::sync::sweep::SweepRunner;

const SWEEP_JSON: &str = r#"{
    "base": {
        "protocol": "trapdoor",
        "adversary": "random",
        "num_nodes": 8,
        "num_frequencies": 8,
        "disruption_bound": 2
    },
    "seeds": {"start": 0, "end": 6},
    "grid": [{"field": "disruption_bound", "values": [1, 2, 3]}]
}"#;

const TOTAL_TRIALS: u64 = 3 * 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsync-resume-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec_file() -> SpecFile {
    SpecFile::parse(SWEEP_JSON).expect("valid sweep json")
}

/// Renders the aggregate tables exactly as `run_experiments` prints them.
fn tables(runner: &SweepRunner) -> (String, u64, u64) {
    let (report, totals) = run_spec_stored(spec_file(), "store_resume", 0..1, runner).unwrap();
    (
        report.to_markdown(),
        totals.cached_trials(),
        totals.executed_trials(),
    )
}

/// Simulates a mid-sweep kill: copies the store at `src` to `dst`, keeping
/// only the first half of every shard's lines and tearing the last
/// surviving line in half (a real kill tears at most the final line of a
/// shard — this is strictly harsher). Returns the number of lines torn.
fn copy_killed_store(src: &PathBuf, dst: &PathBuf) -> u64 {
    fs::create_dir_all(dst).unwrap();
    let mut torn = 0u64;
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let text = fs::read_to_string(entry.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let keep = lines.len().div_ceil(2);
        let mut out = String::new();
        for (i, line) in lines.iter().take(keep).enumerate() {
            if i + 1 == keep {
                // the final surviving append was cut off mid-line
                out.push_str(&line[..line.len() / 2]);
                torn += 1;
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        fs::write(dst.join(entry.file_name()), out).unwrap();
    }
    torn
}

#[test]
fn killed_sweep_resumes_with_zero_rework_and_bit_identical_tables() {
    let full_dir = temp_dir("full");
    let killed_dir = temp_dir("killed");

    // 1. The uninterrupted reference run (no store at all).
    let (reference, _, _) = tables(&SweepRunner::new());

    // 2. A recorded run (the `--out` path), then a simulated kill.
    let store = Arc::new(ResultStore::open(&full_dir).unwrap());
    let (recorded, cached, executed) = tables(&SweepRunner::new().record_only(store));
    assert_eq!(recorded, reference, "--out must not change the tables");
    assert_eq!((cached, executed), (0, TOTAL_TRIALS));
    let torn = copy_killed_store(&full_dir, &killed_dir);
    assert!(torn > 0, "the simulated kill must tear at least one line");

    // 3. Resume from the killed store: only the missing trials execute,
    //    and the tables are bit-identical to the uninterrupted run.
    let store = Arc::new(ResultStore::open(&killed_dir).unwrap());
    assert_eq!(store.dropped_records(), torn);
    let survived = store.loaded_records() as u64;
    assert!(
        survived > 0 && survived < TOTAL_TRIALS,
        "the kill must land mid-sweep (survived {survived}/{TOTAL_TRIALS})"
    );
    let (resumed, cached, executed) = tables(&SweepRunner::new().store(store));
    assert_eq!(cached, survived, "every surviving trial must be reused");
    assert_eq!(
        executed,
        TOTAL_TRIALS - survived,
        "a resumed sweep must execute exactly the missing trials"
    );
    assert_eq!(
        resumed, reference,
        "resumed aggregate tables must be bit-identical to an uninterrupted run"
    );

    // 4. A second resume against the now-complete store executes nothing.
    let store = Arc::new(ResultStore::open(&killed_dir).unwrap());
    assert_eq!(store.dropped_records(), 0, "the store healed on resume");
    let (resumed_again, cached, executed) = tables(&SweepRunner::new().store(store));
    assert_eq!((cached, executed), (TOTAL_TRIALS, 0));
    assert_eq!(resumed_again, reference);

    let _ = fs::remove_dir_all(&full_dir);
    let _ = fs::remove_dir_all(&killed_dir);
}

#[test]
fn torn_final_shard_line_recomputes_exactly_that_trial() {
    let dir = temp_dir("torn-one");

    // Record the complete sweep.
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let sweep = match spec_file() {
        SpecFile::Sweep(sweep) => sweep,
        SpecFile::Scenario(_) => unreachable!("fixture is a sweep"),
    };
    let report = SweepRunner::new().store(store).run(&sweep).unwrap();
    assert_eq!(report.executed_trials(), TOTAL_TRIALS);

    // Tear the final line of exactly one non-empty shard.
    let mut tore = false;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        if let Some((last, rest)) = lines.split_last() {
            let mut out = rest.join("\n");
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&last[..last.len() / 2]);
            fs::write(&path, out).unwrap();
            tore = true;
            break;
        }
    }
    assert!(tore, "at least one shard must hold records");

    // The bad record is detected and dropped; resume recomputes only it.
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    assert_eq!(store.dropped_records(), 1);
    assert_eq!(store.loaded_records() as u64, TOTAL_TRIALS - 1);
    let resumed = SweepRunner::new()
        .store(Arc::clone(&store))
        .run(&sweep)
        .unwrap();
    assert_eq!(resumed.executed_trials(), 1);
    assert_eq!(resumed.cached_trials(), TOTAL_TRIALS - 1);
    for (a, b) in report.points.iter().zip(&resumed.points) {
        assert_eq!(a.stats, b.stats, "{}: aggregates moved on resume", a.label);
    }

    let _ = fs::remove_dir_all(&dir);
}

/// Two independently opened store instances (the fabric's worker setup:
/// each process/thread holds its own `ResultStore` on one directory) can
/// append concurrently without corrupting anything: a fresh open sees the
/// **union** of both writers' records, each exactly once.
#[test]
fn two_concurrent_store_instances_append_a_clean_union() {
    use wireless_sync::sync::store::spec_digest;

    let dir = temp_dir("concurrent");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
    let digest = spec_digest(&spec);
    let outcomes: Vec<_> = {
        let sim = Sim::from_spec(&spec).unwrap();
        (0..16).map(|seed| sim.run_one(seed)).collect()
    };

    // Writer A takes even seeds, writer B odd — disjoint halves, appended
    // concurrently through separate open_shared instances.
    std::thread::scope(|scope| {
        for parity in [0u64, 1] {
            let dir = &dir;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let store = ResultStore::open_shared(dir).unwrap();
                for seed in (parity..16).step_by(2) {
                    store.put(digest, seed, &outcomes[seed as usize]).unwrap();
                }
            });
        }
    });

    // A fresh (repairing) open loads the union: all 16 records, none
    // dropped, none duplicated.
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    assert_eq!(store.loaded_records(), 16);
    assert_eq!(store.dropped_records(), 0);
    for seed in 0..16 {
        assert_eq!(
            store.get(digest, seed),
            Some(outcomes[seed as usize].clone()),
            "seed {seed} must round-trip through its writer"
        );
    }
    // Line-level: exactly 16 lines across the shard files (no duplicate
    // appends survived), each in the shard the partition function names.
    let mut lines = 0usize;
    for entry in std::fs::read_dir(&dir).unwrap() {
        lines += std::fs::read_to_string(entry.unwrap().path())
            .unwrap()
            .lines()
            .count();
    }
    assert_eq!(lines, 16);

    // The union serves a sweep-level resume with zero executions.
    let report = SweepRunner::new()
        .store(store)
        .run_points(vec![(String::new(), spec)], 0..16)
        .unwrap();
    assert_eq!((report.cached_trials(), report.executed_trials()), (16, 0));

    let _ = fs::remove_dir_all(&dir);
}

/// Trials a `Sim` runs on its own and records with `ResultStore::put`
/// (without the sweep layer) are served to the sweep layer without the
/// engine — the store is one substrate shared by both entry points.
#[test]
fn sim_level_store_shares_the_same_cache_substrate() {
    let dir = temp_dir("sim-level");
    let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");

    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let sim = Sim::from_spec(&spec).unwrap();
    let outcomes = BatchRunner::with_workers(2).map(0..4, |s| sim.run_one(s));
    for outcome in &outcomes {
        store.put(sim.digest(), outcome.seed, outcome).unwrap();
    }
    assert_eq!(store.len(), 4);

    // A SweepRunner over the same spec reuses the Sim-recorded trials.
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let report = SweepRunner::new()
        .store(store)
        .run_points(vec![(String::new(), spec)], 0..4)
        .unwrap();
    assert_eq!(report.executed_trials(), 0);
    assert_eq!(report.cached_trials(), 4);
    assert_eq!(report.points[0].stats, BatchStats::aggregate(&outcomes));

    let _ = fs::remove_dir_all(&dir);
}
