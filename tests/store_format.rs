//! The result store's on-disk format, pinned byte for byte.
//!
//! `tests/store_format.jsonl` holds one line per record of a fixed set of
//! trials, exactly as `ResultStore::put` writes it. The set covers what the
//! record codec must get right: catalogue runs with numbered and with `⊥`
//! outputs, every `Violation` kind, several spec digests, seeds and other
//! integers on both sides of `i64::MAX` (above it a `u64` is written as a
//! decimal string), and adversary names that need escaping. Hand-built
//! outcomes supply the cases no catalogue run yields.
//!
//! * A store written from these records must hold exactly the pinned lines,
//!   each in its home shard, in put order.
//! * A store made of the pinned lines must open with no dropped line and
//!   give back every outcome unchanged.
//!
//! After an intentional change to the format or to the catalogue runs,
//! re-record the fixture with
//! `cargo test --test store_format -- --ignored` and review the diff.

use std::fs;
use std::path::{Path, PathBuf};

use wireless_sync::radio::activation::ActivationSchedule;
use wireless_sync::radio::engine::{ExecutionResult, NodeSummary};
use wireless_sync::radio::metrics::SimMetrics;
use wireless_sync::radio::node::NodeId;
use wireless_sync::sync::checker::{PropertyReport, Violation};
use wireless_sync::sync::report::SyncOutcome;
use wireless_sync::sync::sim::Sim;
use wireless_sync::sync::spec::ScenarioSpec;
use wireless_sync::sync::store::{self, spec_digest, ResultStore, SHARD_COUNT};

const FIXTURE: &str = include_str!("store_format.jsonl");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsync-store-format-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An outcome no catalogue run produces: a mix of `⊥` and numbered
/// outputs, one violation of each kind, `u64` values past `i64::MAX` in
/// nested fields and an adversary name full of characters to escape.
fn hand_built_dirty() -> SyncOutcome {
    let node = |id, activation_round, sync_round, final_output| NodeSummary {
        id: NodeId::new(id),
        activation_round,
        sync_round,
        final_output,
    };
    SyncOutcome {
        result: ExecutionResult {
            rounds_executed: u64::MAX,
            all_synchronized: false,
            nodes: vec![
                node(0, 0, Some(3), Some(9)),
                node(1, 7, None, None),
                node(2, 8, Some(12), None),
                node(u32::MAX, i64::MAX as u64, Some(1 << 63), Some(u64::MAX)),
            ],
            metrics: SimMetrics {
                rounds: u64::MAX,
                broadcasts: 1,
                listens: 2,
                sleeps: 3,
                deliveries: 4,
                receptions: 5,
                collisions: 6,
                jammed_solo_broadcasts: 7,
                disrupted_frequency_rounds: i64::MAX as u64,
                max_active_nodes: u32::MAX,
                adversary_budget_violations: 9,
            },
        },
        properties: PropertyReport {
            violations: vec![
                Violation::SynchCommit {
                    node: NodeId::new(2),
                    round: 13,
                    previous: 12,
                },
                Violation::Correctness {
                    node: NodeId::new(0),
                    round: 14,
                    previous: 4,
                    current: 6,
                },
                Violation::Agreement {
                    round: u64::MAX,
                    first: (NodeId::new(0), 5),
                    second: (NodeId::new(u32::MAX), u64::MAX),
                },
            ],
            total_violations: 70,
            rounds_observed: 15,
            liveness: false,
            completion_round: None,
        },
        leaders: 2,
        adversary:
            "jam \"quoted\" \\ / tab\t nl\n cr\r bs\u{8} ff\u{c} bell\u{7} \u{1f} del\u{7f} é ☃ 😀"
                .to_string(),
        seed: 1 << 63,
    }
}

/// An outcome with empty node and violation lists, a completion round
/// past `i64::MAX` and an empty adversary name.
fn hand_built_empty() -> SyncOutcome {
    SyncOutcome {
        result: ExecutionResult {
            rounds_executed: 0,
            all_synchronized: true,
            nodes: Vec::new(),
            metrics: SimMetrics::default(),
        },
        properties: PropertyReport {
            violations: Vec::new(),
            total_violations: 0,
            rounds_observed: 0,
            liveness: true,
            completion_round: Some(u64::MAX),
        },
        leaders: 0,
        adversary: String::new(),
        seed: i64::MAX as u64,
    }
}

/// The pinned records, in put order: `(spec digest, seed, outcome)`.
fn records() -> Vec<(u64, u64, SyncOutcome)> {
    let clean = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
    // Six rounds are far too few to synchronize: every output is ⊥.
    let capped = clean.clone().with_max_rounds(6);
    let dirty = ScenarioSpec::new("single-frequency", 4, 4, 1)
        .with_adversary("fixed-band")
        .with_activation(ActivationSchedule::LateJoiner { late: 3 })
        .with_max_rounds(2_000);
    let mut records = Vec::new();
    for (spec, seeds) in [
        (&clean, &[0, 1, u64::MAX - 7][..]),
        (&capped, &[3][..]),
        (&dirty, &[5][..]),
    ] {
        let sim = Sim::from_spec(spec).unwrap();
        for &seed in seeds {
            records.push((spec_digest(spec), seed, sim.run_one(seed)));
        }
    }
    let dirty = hand_built_dirty();
    records.push((u64::MAX, dirty.seed, dirty));
    let empty = hand_built_empty();
    records.push((0, empty.seed, empty));
    records
}

/// The shard files a store holding `lines` (line `i` being record `i`,
/// put in order) consists of, by shard index.
fn expected_shards(records: &[(u64, u64, SyncOutcome)], lines: &[&str]) -> Vec<String> {
    let mut shards = vec![String::new(); SHARD_COUNT];
    for ((digest, seed, _), line) in records.iter().zip(lines) {
        let shard = &mut shards[store::shard_index(*digest, *seed)];
        shard.push_str(line);
        shard.push('\n');
    }
    shards
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.jsonl"))
}

/// Writes every record through `ResultStore::put` into a fresh store and
/// returns its shard files (empty for a shard never written).
fn written_shards(dir: &Path, records: &[(u64, u64, SyncOutcome)]) -> Vec<String> {
    let store = ResultStore::open(dir).unwrap();
    for (digest, seed, outcome) in records {
        store.put(*digest, *seed, outcome).unwrap();
    }
    (0..SHARD_COUNT)
        .map(|shard| fs::read_to_string(shard_path(dir, shard)).unwrap_or_default())
        .collect()
}

#[test]
fn the_records_cover_every_case_the_format_pins() {
    let records = records();
    let outcomes: Vec<&SyncOutcome> = records.iter().map(|(_, _, o)| o).collect();
    let nodes = || outcomes.iter().flat_map(|o| &o.result.nodes);
    assert!(nodes().any(|n| n.final_output.is_none()), "a ⊥ output");
    assert!(
        nodes().any(|n| n.final_output.is_some()),
        "a numbered output"
    );
    let kinds: std::collections::BTreeSet<&str> = outcomes
        .iter()
        .flat_map(|o| &o.properties.violations)
        .map(|v| match v {
            Violation::SynchCommit { .. } => "synch-commit",
            Violation::Correctness { .. } => "correctness",
            Violation::Agreement { .. } => "agreement",
        })
        .collect();
    assert_eq!(kinds.len(), 3, "every violation kind: {kinds:?}");
    let digests: std::collections::BTreeSet<u64> = records.iter().map(|r| r.0).collect();
    assert!(digests.len() >= 4, "several spec digests");
    assert!(records.iter().any(|r| r.1 > i64::MAX as u64));
    assert!(records.iter().any(|r| r.1 == i64::MAX as u64));
    assert!(outcomes
        .iter()
        .any(|o| o.adversary.contains(['"', '\\', '\n'])));
    assert!(
        records.iter().all(|(_, seed, o)| o.seed == *seed),
        "a record decodes only under its outcome's seed"
    );
}

#[test]
fn a_written_store_holds_exactly_the_pinned_lines() {
    let records = records();
    let lines: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(lines.len(), records.len(), "one fixture line per record");
    let dir = temp_dir("write");
    let written = written_shards(&dir, &records);
    for (shard, (got, want)) in written
        .iter()
        .zip(expected_shards(&records, &lines))
        .enumerate()
    {
        if *got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or(0);
            panic!(
                "shard {shard} differs from the pinned format at its line {first}:\n\
                 written: {:?}\n\
                 pinned:  {:?}",
                got.lines().nth(first),
                want.lines().nth(first)
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_store_of_the_pinned_lines_opens_with_every_outcome() {
    let records = records();
    let lines: Vec<&str> = FIXTURE.lines().collect();
    let dir = temp_dir("open");
    fs::create_dir_all(&dir).unwrap();
    for (shard, text) in expected_shards(&records, &lines).iter().enumerate() {
        if !text.is_empty() {
            fs::write(shard_path(&dir, shard), text).unwrap();
        }
    }
    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.dropped_records(), 0);
    assert!(store.repair_stats().is_empty());
    assert_eq!(store.loaded_records(), records.len());
    for (digest, seed, outcome) in &records {
        assert_eq!(
            store.get(*digest, *seed).as_ref(),
            Some(outcome),
            "record ({digest:016x}, {seed})"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Re-records `tests/store_format.jsonl` from the current codec.
#[test]
#[ignore = "re-records the fixture; run after an intentional format change"]
fn record_the_fixture() {
    let records = records();
    let dir = temp_dir("record");
    let written = written_shards(&dir, &records);
    let mut next = [0usize; SHARD_COUNT];
    let mut fixture = String::new();
    for (digest, seed, _) in &records {
        let shard = store::shard_index(*digest, *seed);
        let line = written[shard].lines().nth(next[shard]).unwrap();
        next[shard] += 1;
        fixture.push_str(line);
        fixture.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/store_format.jsonl");
    fs::write(path, fixture).unwrap();
    let _ = fs::remove_dir_all(&dir);
}
