//! The store's incremental shard scans are equivalent to full scans.
//!
//! `ResultStore::refresh_shard` and `repair_shard` read a shard file only
//! from the cursor where this store's last scan stopped. This property
//! test drives two `open_shared` instances of one directory through random
//! operation sequences — puts, refreshes, repairs, a killed third writer's
//! torn tail, an odd complete line (blank, corrupt, not UTF-8, or a record
//! ending in `\r\n`), and an out-of-band `ResultStore::open` that rewrites
//! damaged shards — and checks every step against a full scan of the bytes
//! on disk:
//!
//! * after `refresh_shard(s)` (and after `repair_shard(s)`), the instance
//!   holds exactly the records of shard `s`'s decodable lines plus its own
//!   acknowledged puts;
//! * every `ShardRepair` equals what a full scan of the file reports, and
//!   a rewritten shard keeps no `\r` (a `\r\n` record loses its `\r`);
//! * at the end, a fresh `ResultStore::open` holds every acknowledged put
//!   and every decodable line exactly once, with no duplicate line on
//!   disk.
//!
//! Appends follow the fabric's single-writer protocol: an instance puts to
//! a shard only as its holder, and becomes the holder by repairing it (the
//! claim). A torn tail means the holder was killed, and the out-of-band
//! open replaces shard files, so both end every hold.

use std::collections::BTreeSet;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use wireless_sync::sync::json::{self, Value};
use wireless_sync::sync::report::SyncOutcome;
use wireless_sync::sync::sim::Sim;
use wireless_sync::sync::spec::ScenarioSpec;
use wireless_sync::sync::store::{self, ResultStore, ShardRepair};

/// The spec digest every record in this test is filed under.
const DIGEST: u64 = 0x5eed;
/// Seeds the instances put, drawn from the two shards under test.
const PUT_SEEDS: usize = 12;
/// Where the killed writer's seeds start (disjoint from the puts).
const KILLED_SEEDS: u64 = 1_000_000;

/// A real outcome, re-keyed to `seed` (a record decodes only when its
/// outcome's seed matches its key).
fn outcome(seed: u64) -> SyncOutcome {
    static BASE: OnceLock<SyncOutcome> = OnceLock::new();
    let mut outcome = BASE
        .get_or_init(|| {
            let spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
            Sim::from_spec(&spec).unwrap().run_one(0)
        })
        .clone();
    outcome.seed = seed;
    outcome
}

/// A record line exactly as the store writes it, without the newline.
fn record_line(seed: u64) -> String {
    Value::Object(vec![
        ("spec".to_string(), Value::Str(format!("{DIGEST:016x}"))),
        ("seed".to_string(), Value::Int(seed as i64)),
        (
            "outcome".to_string(),
            store::outcome_to_value(&outcome(seed)),
        ),
    ])
    .to_json_compact()
}

/// The two shards the operations touch, and the put seeds homed in them.
fn layout() -> ([usize; 2], Vec<u64>) {
    let first = store::shard_index(DIGEST, 0);
    let second = (1..)
        .map(|seed| store::shard_index(DIGEST, seed))
        .find(|&shard| shard != first)
        .unwrap();
    let shards = [first, second];
    let seeds = (0..)
        .filter(|&seed| shards.contains(&store::shard_index(DIGEST, seed)))
        .take(PUT_SEEDS)
        .collect();
    (shards, seeds)
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.jsonl"))
}

fn append(dir: &Path, shard: usize, bytes: &[u8]) {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(shard_path(dir, shard))
        .unwrap()
        .write_all(bytes)
        .unwrap();
}

/// What a full scan of a shard file finds, decoded independently of the
/// store's scanner.
#[derive(Default)]
struct FullScan {
    /// Seeds of the decodable newline-terminated lines, in file order.
    lines: Vec<u64>,
    dropped: u64,
    torn_tail: bool,
}

fn decode(line: &[u8]) -> Option<u64> {
    let value = json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let digest = u64::from_str_radix(value.get("spec")?.as_str()?, 16).ok()?;
    let seed = value.get("seed")?.as_u64()?;
    let outcome = store::outcome_from_value(value.get("outcome")?)?;
    (digest == DIGEST && outcome.seed == seed).then_some(seed)
}

fn blank(line: &[u8]) -> bool {
    line.iter().all(u8::is_ascii_whitespace)
}

fn full_scan(path: &Path) -> FullScan {
    let bytes = fs::read(path).unwrap_or_default();
    let mut scan = FullScan {
        torn_tail: bytes.last().is_some_and(|&b| b != b'\n'),
        ..FullScan::default()
    };
    let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let tail = pieces.pop().unwrap_or_default();
    for line in pieces {
        match decode(line) {
            Some(seed) => scan.lines.push(seed),
            None if blank(line) => {}
            None => scan.dropped += 1,
        }
    }
    if !blank(tail) && decode(tail).is_none() {
        scan.dropped += 1;
    }
    scan
}

/// A complete line another writer appends.
#[derive(Debug, Clone, Copy)]
enum Odd {
    /// Whitespace only: skipped, not counted.
    Blank,
    /// Well-formed JSON that is not a record: dropped and counted.
    NotARecord,
    /// A record with a byte that is not UTF-8: dropped and counted.
    NotUtf8,
    /// A record ending in `\r\n`: kept, and rewritten without its `\r`.
    Crlf,
}

/// One step of a generated sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    Put { inst: usize, seed: usize },
    Refresh { inst: usize, shard: usize },
    Repair { inst: usize, shard: usize },
    TornTail { shard: usize, cut: u64 },
    CorruptLine { shard: usize, line: Odd },
    OutOfBandOpen,
}

fn op((kind, inst, pick, cut): (u8, usize, usize, u64)) -> Op {
    let shard = pick % 2;
    match kind {
        0..=3 => Op::Put {
            inst,
            seed: pick % PUT_SEEDS,
        },
        4 | 5 => Op::Refresh { inst, shard },
        6 => Op::Repair { inst, shard },
        7 => Op::TornTail { shard, cut },
        8 => Op::CorruptLine {
            shard,
            line: match cut % 4 {
                0 => Odd::Blank,
                1 => Odd::NotARecord,
                2 => Odd::NotUtf8,
                _ => Odd::Crlf,
            },
        },
        _ => Op::OutOfBandOpen,
    }
}

/// The model: two instances of one directory and who may append where.
struct Model {
    dir: PathBuf,
    shards: [usize; 2],
    stores: [ResultStore; 2],
    /// Which instance holds each shard under test, if any.
    holder: [Option<usize>; 2],
    /// Seeds each instance's puts acknowledged.
    acked: [BTreeSet<u64>; 2],
    /// Every seed a record of each shard was ever written for.
    universe: [BTreeSet<u64>; 2],
    next_killed: u64,
}

impl Model {
    fn path(&self, shard: usize) -> PathBuf {
        shard_path(&self.dir, self.shards[shard])
    }

    /// A fresh seed homed in `shard` that no instance ever puts: the
    /// trials of writers outside the model.
    fn outside_seed(&mut self, shard: usize) -> u64 {
        let seed = (self.next_killed..)
            .find(|&s| store::shard_index(DIGEST, s) == self.shards[shard])
            .unwrap();
        self.next_killed = seed + 1;
        seed
    }

    /// The instance's records for `shard` are exactly the decodable lines
    /// on disk plus its own acknowledged puts.
    fn check_index(&self, inst: usize, shard: usize) {
        let on_disk: BTreeSet<u64> = full_scan(&self.path(shard)).lines.into_iter().collect();
        for &seed in &self.universe[shard] {
            let expected = on_disk.contains(&seed) || self.acked[inst].contains(&seed);
            let held = self.stores[inst].get(DIGEST, seed);
            assert_eq!(held.is_some(), expected, "instance {inst}, seed {seed}");
            if let Some(held) = held {
                assert_eq!(held, outcome(seed));
            }
        }
    }

    /// Repairs `shard` through `inst`, checks the report against a full
    /// scan, and makes `inst` the shard's holder.
    fn repair(&mut self, inst: usize, shard: usize) {
        let before = full_scan(&self.path(shard));
        let got = self.stores[inst].repair_shard(self.shards[shard]).unwrap();
        let expected = ShardRepair {
            shard: self.shards[shard],
            path: self.path(shard),
            dropped_lines: before.dropped,
            torn_tail: before.torn_tail,
            rewritten: before.dropped > 0 || before.torn_tail,
        };
        assert_eq!(got, expected);
        if got.rewritten {
            let bytes = fs::read(self.path(shard)).unwrap_or_default();
            assert!(
                !bytes.contains(&b'\r'),
                "a rewritten shard still holds a `\\r`"
            );
        }
        self.holder[shard] = Some(inst);
        self.check_index(inst, shard);
    }

    fn apply(&mut self, op: Op, put_seeds: &[u64]) {
        match op {
            Op::Put { inst, seed } => {
                let seed = put_seeds[seed];
                let home = store::shard_index(DIGEST, seed);
                let shard = usize::from(home == self.shards[1]);
                if self.holder[shard] != Some(inst) {
                    self.repair(inst, shard);
                }
                self.stores[inst].put(DIGEST, seed, &outcome(seed)).unwrap();
                self.acked[inst].insert(seed);
                self.universe[shard].insert(seed);
            }
            Op::Refresh { inst, shard } => {
                self.stores[inst].refresh_shard(self.shards[shard]).unwrap();
                self.check_index(inst, shard);
            }
            Op::Repair { inst, shard } => self.repair(inst, shard),
            Op::TornTail { shard, cut } => {
                // The killed holder was writing a trial of its own shard.
                let seed = self.outside_seed(shard);
                let line = record_line(seed);
                // One cut in four lands right before the newline, leaving
                // a torn tail that still decodes.
                let keep = if cut % 4 == 0 {
                    line.len()
                } else {
                    1 + (cut as usize) % (line.len() - 1)
                };
                append(&self.dir, self.shards[shard], &line.as_bytes()[..keep]);
                self.universe[shard].insert(seed);
                self.holder[shard] = None;
            }
            Op::CorruptLine { shard, line } => {
                let bytes = match line {
                    Odd::Blank => b"   \n".to_vec(),
                    Odd::NotARecord => b"{\"spec\":\"not a record\"}\n".to_vec(),
                    Odd::NotUtf8 | Odd::Crlf => {
                        let seed = self.outside_seed(shard);
                        self.universe[shard].insert(seed);
                        let mut bytes = record_line(seed).into_bytes();
                        if let Odd::NotUtf8 = line {
                            let name = b"\"adversary\":\"";
                            let at = bytes.windows(name.len()).position(|w| w == name).unwrap();
                            bytes.insert(at + name.len(), 0xff);
                            bytes.push(b'\n');
                        } else {
                            bytes.extend_from_slice(b"\r\n");
                        }
                        bytes
                    }
                };
                append(&self.dir, self.shards[shard], &bytes);
            }
            Op::OutOfBandOpen => {
                drop(ResultStore::open(&self.dir).unwrap());
                self.holder = [None, None];
            }
        }
    }
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_scans_match_full_scans(
        raw in proptest::collection::vec((0u8..10, 0usize..2, 0usize..64, 0u64..4096), 1..48)
    ) {
        let dir = std::env::temp_dir().join(format!(
            "wsync-incremental-scan-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let (shards, put_seeds) = layout();
        let mut model = Model {
            stores: [
                ResultStore::open_shared(&dir).unwrap(),
                ResultStore::open_shared(&dir).unwrap(),
            ],
            dir: dir.clone(),
            shards,
            holder: [None, None],
            acked: [BTreeSet::new(), BTreeSet::new()],
            universe: [BTreeSet::new(), BTreeSet::new()],
            next_killed: KILLED_SEEDS,
        };
        for step in raw.into_iter().map(op) {
            model.apply(step, &put_seeds);
        }

        let reopened = ResultStore::open(&dir).unwrap();
        for acked in &model.acked {
            for &seed in acked {
                prop_assert_eq!(reopened.get(DIGEST, seed), Some(outcome(seed)));
            }
        }
        for shard in 0..2 {
            let scan = full_scan(&model.path(shard));
            for &seed in &scan.lines {
                prop_assert_eq!(reopened.get(DIGEST, seed), Some(outcome(seed)));
            }
            prop_assert_eq!(scan.dropped, 0);
            prop_assert!(!scan.torn_tail);
            let unique: BTreeSet<u64> = scan.lines.iter().copied().collect();
            prop_assert_eq!(unique.len(), scan.lines.len(), "duplicate line in shard {}", shard);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
