//! The persistent, content-addressed trial result store.
//!
//! Every completed trial in this workspace is a pure function of its
//! resolved [`ScenarioSpec`] and seed, which makes results *content
//! addressable*: the store keys each [`SyncOutcome`] by
//! `(digest(spec), seed)`, where the digest is 64-bit FNV-1a over the
//! spec's **canonical** JSON (object keys sorted recursively, compact
//! encoding) — so two specs that differ only in parameter insertion order
//! share cache entries.
//!
//! On disk a store is a directory of sharded JSONL files
//! (`shard-00.jsonl` … `shard-07.jsonl`); each line is one self-contained
//! compact JSON record, written by this module's record codec without
//! building a [`json::Value`] tree:
//!
//! ```text
//! {"spec":"9f86d081884c7d65","seed":3,"outcome":{...}}
//! ```
//!
//! Reading a line back matches the writer's exact layout in one forward
//! scan; a line in any other JSON spelling of a record (re-spaced,
//! reordered, escaped, with extra members) is read through
//! [`json::parse`] and [`outcome_from_value`] instead, so both decode to
//! the same outcome.
//!
//! Appends are atomic at line granularity: a killed process can leave at
//! most one torn final line per shard, which [`ResultStore::open`] detects,
//! drops, and counts (see [`ResultStore::dropped_records`]) — the
//! corresponding trial is simply recomputed on resume. Records are
//! append-only and idempotent (`put` of an existing key is a no-op), so a
//! sweep restarted against the same store re-executes only the missing
//! trials and, because outcomes contain only integers/booleans/strings,
//! replayed aggregates are **bit-identical** to a from-scratch run.
//!
//! The store is safe to share across the worker threads of a
//! [`BatchRunner`](crate::batch::BatchRunner) /
//! [`SweepRunner`](crate::sweep::SweepRunner): the in-memory index is
//! behind an `RwLock` and each shard file behind its own `Mutex`. A
//! thread holding both takes the shard's lock first.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use wsync_radio::engine::{ExecutionResult, NodeSummary};
use wsync_radio::metrics::SimMetrics;
use wsync_radio::node::NodeId;

use crate::checker::{PropertyReport, Violation};
use crate::json::{self, Value};
use crate::report::SyncOutcome;
use crate::spec::ScenarioSpec;

/// Number of JSONL shard files a store spreads its records over.
pub const SHARD_COUNT: usize = 8;

/// An error raised by store I/O (records that fail to *decode* are not
/// errors — they are dropped and counted at open time).
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing a store file failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Appending one trial record failed. Unlike [`StoreError::Io`], this
    /// names the trial identity, so an orchestration layer (or its user)
    /// can see exactly which `(spec digest, seed)` was lost and which
    /// shard file refused it.
    Append {
        /// The shard file the record was headed for.
        path: PathBuf,
        /// The canonical spec digest of the trial.
        digest: u64,
        /// The trial seed.
        seed: u64,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "result store I/O error at {}: {source}", path.display())
            }
            StoreError::Append {
                path,
                digest,
                seed,
                source,
            } => write!(
                f,
                "result store append to {} failed for trial (spec {digest:016x}, seed {seed}): \
                 {source}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Append { source, .. } => Some(source),
        }
    }
}

/// 64-bit FNV-1a (the workspace's standard content digest).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Recursively sorts object keys, producing the canonical form of a value:
/// two semantically equal specs whose parameter bags were built in
/// different orders canonicalize to the same value (and therefore the same
/// digest).
fn canonicalize(value: &Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(canonicalize).collect()),
        Value::Object(members) => {
            let mut sorted: Vec<(String, Value)> = members
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        other => other.clone(),
    }
}

/// The canonical digest of a resolved scenario spec: FNV-1a over the
/// key-sorted compact JSON encoding.
///
/// The `"probes"` field is excluded: probes are pure observers that cannot
/// perturb an execution, so specs that differ only in their declared probes
/// share cache entries (a trial recorded by an instrumented run is served
/// to an outcome-only sweep and vice versa).
pub fn spec_digest(spec: &ScenarioSpec) -> u64 {
    let mut value = spec.to_value();
    if let Value::Object(members) = &mut value {
        members.retain(|(key, _)| key != "probes");
    }
    fnv1a(canonicalize(&value).to_json_compact().as_bytes())
}

/// What opening (or repairing) found in one shard file: how many
/// undecodable lines were dropped from the index and whether the file
/// itself was rewritten to purge them.
///
/// [`ResultStore::open`] repairs eagerly, so its entries always have
/// `rewritten == true`; [`ResultStore::open_shared`] never rewrites (other
/// processes may hold live append handles), so a fabric worker repairs its
/// claimed shard explicitly via [`ResultStore::repair_shard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRepair {
    /// The shard index (`0..SHARD_COUNT`).
    pub shard: usize,
    /// The shard's file path.
    pub path: PathBuf,
    /// Undecodable lines dropped from the in-memory index (torn final
    /// lines from a killed writer, or corrupted records).
    pub dropped_lines: u64,
    /// Whether the final line was missing its terminating newline (the
    /// signature of a killed append, even when the bytes still decode).
    pub torn_tail: bool,
    /// Whether the shard file was rewritten in place with only the good
    /// records.
    pub rewritten: bool,
}

/// One shard's append handle and scan cursor, kept together behind the
/// shard's lock.
///
/// The cursor is what makes `refresh_shard` and `repair_shard` cost the
/// bytes peers appended rather than the whole shard: every record in
/// `[0, cursor)` of the shard file is already merged into the index, so a
/// scan resumes there. That prefix stays valid across a peer's repair as
/// long as it is *verbatim* — every line in it decoded exactly as written
/// — because a repair keeps such lines byte for byte and only ever drops
/// lines that do not decode. When it is not, or when the file is now
/// shorter than the cursor (it was replaced), the next scan starts over
/// at byte 0.
#[derive(Debug, Default)]
struct ShardState {
    /// The cached append handle: `None` until the first `put`, and again
    /// after every `repair_shard`.
    writer: Option<File>,
    /// Bytes of the shard file merged into the index: 0, or just past a
    /// newline.
    cursor: u64,
    /// Whether some line before `cursor` did not decode exactly as
    /// written (undecodable, blank, or `\r`-terminated), so a rewrite
    /// may have moved the bytes after it.
    dirty: bool,
}

impl ShardState {
    /// Where the next scan of a shard file `len` bytes long starts.
    fn scan_from(&self, len: u64) -> u64 {
        if self.dirty || len < self.cursor {
            0
        } else {
            self.cursor
        }
    }

    /// Moves the cursor to the end of what `scan` read.
    fn advance(&mut self, scan: &Scan) {
        self.cursor = scan.end;
        self.dirty = scan
            .irregular
            .as_ref()
            .is_some_and(|(at, _)| *at < scan.end);
    }

    /// Forgets the cursor: the shard file is gone (or about to be).
    fn reset(&mut self) {
        self.cursor = 0;
        self.dirty = false;
    }
}

/// What one pass of [`scan_shard`] found.
struct Scan {
    /// Offset just past the last newline read: where a cursor may stop.
    end: u64,
    /// Lines that failed to decode (the torn tail included, when the pass
    /// decodes it).
    dropped: u64,
    /// Whether bytes follow the last newline: a killed writer's torn
    /// tail, or a peer's append still in flight.
    torn_tail: bool,
    /// Lines handed to the record decoder.
    decoded: u64,
    /// Set at the first line a rewrite would not keep byte for byte: the
    /// offset where the shard stops being verbatim and, if the pass
    /// collects, every decodable line after it, newline-terminated.
    irregular: Option<(u64, Vec<u8>)>,
}

impl Scan {
    fn needs_rewrite(&self) -> bool {
        self.dropped > 0 || self.torn_tail
    }
}

/// Opens the shard file at `path` for scanning; `Ok(None)` means it does
/// not exist yet.
fn open_shard(path: &Path) -> Result<Option<(File, u64)>, StoreError> {
    let io = |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    };
    match File::open(path) {
        Ok(file) => {
            let len = file.metadata().map_err(io)?.len();
            Ok(Some((file, len)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(source) => Err(io(source)),
    }
}

/// The one shard scanner, shared by open, `refresh_shard` and
/// `repair_shard`: reads `file` (`len` bytes long when opened) from byte
/// `from` to its end in one read, so memory is bounded by the shard's
/// unread bytes, and hands every decodable record to `record` without
/// copying a line.
///
/// The bytes after the last newline are a torn tail (or a peer's append
/// in flight); they are decoded only if `with_tail`. With `collect`, the
/// pass gathers what a rewrite keeps — but only from the first irregular
/// line on, so a healthy shard costs no copy at all.
fn scan_shard(
    (mut file, len): (File, u64),
    from: u64,
    path: &Path,
    with_tail: bool,
    collect: bool,
    mut record: impl FnMut(u64, u64, SyncOutcome),
) -> Result<Scan, StoreError> {
    let io = |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    };
    let unread = usize::try_from(len.saturating_sub(from)).unwrap_or(0);
    let mut bytes = Vec::with_capacity(unread);
    file.seek(SeekFrom::Start(from)).map_err(io)?;
    file.read_to_end(&mut bytes).map_err(io)?;
    // Only the tail is searched backwards for the last newline.
    let body_len = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |at| at + 1);
    let (body, tail) = bytes.split_at(body_len);
    let mut scan = Scan {
        end: from,
        dropped: 0,
        // Bytes without their newline are the torn tail. Even if they
        // decode (the kill landed right before the newline), a repair
        // must rewrite the shard so the next append starts on a fresh
        // line instead of concatenating onto the remnant.
        torn_tail: !tail.is_empty(),
        decoded: 0,
        irregular: None,
    };
    let mut nodes = Vec::new();
    let mut line = |line: &[u8], text: Option<&str>, complete: bool| {
        let start = scan.end;
        if complete {
            scan.end += line.len() as u64 + 1;
        }
        // Like `BufRead::lines`: a `\r\n` ending loses its `\r` too. A
        // `\r` is one ASCII byte, so dropping it keeps `text` UTF-8.
        let crlf = complete && line.last() == Some(&b'\r');
        let (line, text) = if crlf {
            let cut = line.len() - 1;
            (&line[..cut], text.map(|t| &t[..cut]))
        } else {
            (line, text)
        };
        let blank = text.is_some_and(|t| t.trim().is_empty());
        let decoded = if blank {
            None
        } else {
            scan.decoded += 1;
            text.and_then(|t| decode_record(t, &mut nodes))
        };
        let kept = decoded.is_some();
        match decoded {
            Some((digest, seed, outcome)) => record(digest, seed, outcome),
            None if !blank => scan.dropped += 1,
            None => {}
        }
        if !complete || crlf || !kept {
            scan.irregular.get_or_insert((start, Vec::new()));
        }
        if let Some((_, rest)) = scan.irregular.as_mut().filter(|_| collect && kept) {
            rest.extend_from_slice(line);
            rest.push(b'\n');
        }
    };
    split_lines(body, &mut |piece: &[u8], text| line(piece, text, true));
    if with_tail && !tail.is_empty() {
        line(tail, std::str::from_utf8(tail).ok(), false);
    }
    Ok(scan)
}

/// Hands each line of `body` (newline-terminated lines) to `line`, newline
/// excluded, with its text when it is UTF-8. The body is checked as UTF-8
/// as a whole and split with `str`'s memchr search; past a line holding an
/// invalid byte, the check resumes at the next line.
fn split_lines(mut body: &[u8], line: &mut impl FnMut(&[u8], Option<&str>)) {
    while !body.is_empty() {
        let bad = match std::str::from_utf8(body) {
            Ok(text) => {
                text.split_terminator('\n')
                    .for_each(|piece| line(piece.as_bytes(), Some(piece)));
                return;
            }
            Err(e) => e.valid_up_to(),
        };
        let start = body[..bad]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        let end = body[bad..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(body.len(), |at| bad + at);
        // The lines before the bad one are valid, so this is one level deep.
        split_lines(&body[..start], line);
        line(&body[start..end], None);
        body = body.get(end + 1..).unwrap_or_default();
    }
}

/// Rewrites the shard at `path` to what `scan` (a collecting pass) kept:
/// its verbatim prefix copied as is, then the decodable lines after it.
/// Goes through a temporary file and rename, so later appends always
/// start on a clean line. Returns the new length.
fn rewrite_shard(dir: &Path, shard: usize, path: &Path, scan: &Scan) -> Result<u64, StoreError> {
    let (verbatim, rest) = match &scan.irregular {
        Some((at, rest)) => (*at, rest.as_slice()),
        None => (scan.end, &[][..]),
    };
    let tmp = dir.join(format!(".shard-{shard:02}.jsonl.tmp"));
    let write = || -> std::io::Result<()> {
        let mut out = File::create(&tmp)?;
        std::io::copy(&mut File::open(path)?.take(verbatim), &mut out)?;
        out.write_all(rest)?;
        drop(out);
        fs::rename(&tmp, path)
    };
    write().map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    Ok(verbatim + rest.len() as u64)
}

/// A persistent map from `(spec digest, seed)` to the trial's
/// [`SyncOutcome`], backed by sharded JSONL files.
///
/// # Memory model
///
/// The store keeps an in-memory index of **all** records (loaded at open
/// plus appended since), so lookups and idempotence checks never touch
/// disk: memory is `O(stored records)`, while the sweep layer's
/// *aggregation* memory stays `O(reorder window)`. For the sweep sizes
/// the experiments run this is megabytes; a spill-to-offset index (keys
/// in memory, outcomes re-read from their shard on demand) is the
/// designed escape hatch if stores ever outgrow RAM, and can be added
/// behind this same API.
pub struct ResultStore {
    dir: PathBuf,
    // Ordered map: the index is lookup-only today, but anything that ever
    // iterates it (a stats endpoint, an export) must see a deterministic
    // order — keys are trial identities feeding resumable aggregates.
    index: RwLock<BTreeMap<(u64, u64), SyncOutcome>>,
    shards: Vec<Mutex<ShardState>>,
    dropped: u64,
    loaded: usize,
    repairs: Vec<ShardRepair>,
    /// Lines decoded by `refresh_shard` and `repair_shard` since open.
    decoded: AtomicU64,
    /// Trials a [`SweepRunner`](crate::sweep::SweepRunner) pass is
    /// executing right now, so that an overlapping pass waits for the
    /// outcome instead of executing the trial again; `settled` wakes the
    /// waiters when a claim is released.
    in_flight: Mutex<BTreeSet<(u64, u64)>>,
    settled: Condvar,
}

/// A claim on executing trial `key` in this process, released when dropped
/// (also when the trial panics).
pub(crate) struct Claim<'a> {
    store: &'a ResultStore,
    key: (u64, u64),
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.store.in_flight().remove(&self.key);
        self.store.settled.notify_all();
    }
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("records", &self.len())
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl ResultStore {
    /// Opens (creating if necessary) the store rooted at `dir`, loading
    /// every decodable record from its shards. Undecodable lines — a torn
    /// final line from a killed writer, or any other corruption — are
    /// dropped and counted, never fatal: the trials they held are simply
    /// recomputed by the next resumed run. A shard containing dropped
    /// lines is repaired in place (rewritten with only the good records,
    /// via a temporary file and rename), so later appends always start on
    /// a clean line and a subsequent open reports zero drops.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        ResultStore::open_inner(dir.as_ref(), true)
    }

    /// Opens the store without repairing any shard file: every decodable
    /// record is loaded (and undecodable lines dropped from the in-memory
    /// index and counted, exactly as in [`open`](Self::open)), but the
    /// files on disk are left byte-for-byte untouched.
    ///
    /// This is the mode for **shared** directories — a fabric worker among
    /// other live worker processes must not rewrite a shard another
    /// process holds an append handle to (the rewrite replaces the inode,
    /// so the other writer's subsequent appends would land in an orphaned
    /// file and be lost). A worker that has claimed a shard's lease, and
    /// is therefore that shard's only writer, repairs it explicitly with
    /// [`repair_shard`](Self::repair_shard) before appending.
    pub fn open_shared(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        ResultStore::open_inner(dir.as_ref(), false)
    }

    fn open_inner(dir: &Path, repair: bool) -> Result<Self, StoreError> {
        let dir = dir.to_path_buf();
        fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        let mut index = BTreeMap::new();
        let mut dropped = 0u64;
        let mut repairs = Vec::new();
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for shard in 0..SHARD_COUNT {
            let path = shard_path(&dir, shard);
            let mut state = ShardState::default();
            if let Some(file) = open_shard(&path)? {
                let scan = scan_shard(file, 0, &path, true, repair, |digest, seed, outcome| {
                    file_first(&mut index, digest, seed, outcome);
                })?;
                state.advance(&scan);
                if scan.needs_rewrite() {
                    if repair {
                        state.cursor = rewrite_shard(&dir, shard, &path, &scan)?;
                        state.dirty = false;
                    }
                    repairs.push(ShardRepair {
                        shard,
                        path,
                        dropped_lines: scan.dropped,
                        torn_tail: scan.torn_tail,
                        rewritten: repair,
                    });
                }
                dropped += scan.dropped;
            }
            shards.push(Mutex::new(state));
        }
        let loaded = index.len();
        Ok(ResultStore {
            dir,
            index: RwLock::new(index),
            shards,
            dropped,
            loaded,
            repairs,
            decoded: AtomicU64::new(0),
            in_flight: Mutex::new(BTreeSet::new()),
            settled: Condvar::new(),
        })
    }

    /// The directory this store persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read access to the index. A poisoned lock means another thread
    /// panicked mid-insert; the index may then be missing a record whose
    /// line was already appended, so no recovery keeps memory and disk
    /// coherent.
    fn index_read(&self) -> RwLockReadGuard<'_, BTreeMap<(u64, u64), SyncOutcome>> {
        // lint:allow(panicky-library): poisoned index = a writer panicked mid-insert; propagating the panic is the only sound option
        self.index.read().expect("store index poisoned")
    }

    /// Write access to the index; same poisoning policy as
    /// [`index_read`](Self::index_read).
    fn index_write(&self) -> RwLockWriteGuard<'_, BTreeMap<(u64, u64), SyncOutcome>> {
        // lint:allow(panicky-library): poisoned index = a writer panicked mid-insert; propagating the panic is the only sound option
        self.index.write().expect("store index poisoned")
    }

    /// One shard's append handle and cursor. A poisoned lock means a
    /// thread panicked between buffering and flushing a line; the file
    /// position is unknowable, so appends must stop. Recovering via
    /// `into_inner` would risk interleaving half-written records.
    fn shard(&self, shard: usize) -> MutexGuard<'_, ShardState> {
        // lint:allow(panicky-library): poisoned shard writer = a panic mid-append left the file position unknowable; stop instead of corrupting
        self.shards[shard].lock().expect("shard writer poisoned")
    }

    /// Merges scanned records into the index (see [`file_first`]);
    /// returns how many were new.
    fn merge(&self, records: Vec<(u64, u64, SyncOutcome)>) -> usize {
        if records.is_empty() {
            return 0;
        }
        let mut index = self.index_write();
        records
            .into_iter()
            .map(|(digest, seed, outcome)| file_first(&mut index, digest, seed, outcome))
            .filter(|&new| new)
            .count()
    }

    /// Number of records currently held (loaded plus appended).
    pub fn len(&self) -> usize {
        self.index_read().len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records loaded from disk when the store was opened.
    pub fn loaded_records(&self) -> usize {
        self.loaded
    }

    /// Number of undecodable lines dropped while opening (torn final lines
    /// from a killed writer, or corrupted records).
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Per-shard open-time repair statistics: one entry for every shard
    /// that held torn/corrupt lines or a missing trailing newline, naming
    /// the shard file, how many lines were dropped, and whether the file
    /// was rewritten ([`open`](Self::open)) or left untouched
    /// ([`open_shared`](Self::open_shared)). Empty for a healthy store.
    pub fn repair_stats(&self) -> &[ShardRepair] {
        &self.repairs
    }

    /// Shard lines decoded by [`refresh_shard`](Self::refresh_shard) and
    /// [`repair_shard`](Self::repair_shard) since this store was opened
    /// (the open's own scan excluded). A deterministic measure of their
    /// work: each line another writer appended is decoded once, and a
    /// whole shard again only after a fallback to a full scan.
    pub(crate) fn lines_decoded(&self) -> u64 {
        self.decoded.load(Ordering::Relaxed)
    }

    /// Reads what was appended to one shard file since this store last
    /// scanned it and merges any record the in-memory index does not hold
    /// yet (first record wins, matching `put`'s idempotence). Returns
    /// `(records merged, undecodable lines seen)`, both counted over this
    /// pass only. Never rewrites the file — this is the read side of the
    /// fabric protocol, used to observe progress other processes append to
    /// a shared store.
    ///
    /// Only newline-terminated lines count: bytes after the last newline
    /// are a peer's append still in flight (or a killed writer's torn
    /// tail, which [`repair_shard`](Self::repair_shard) handles) and are
    /// left for a later pass. The pass starts at the shard's cursor, so it
    /// costs the bytes appended since the last scan; it falls back to a
    /// full scan when the file is shorter than the cursor or an earlier
    /// line did not decode.
    pub fn refresh_shard(&self, shard: usize) -> Result<(usize, u64), StoreError> {
        assert!(shard < SHARD_COUNT, "shard index out of range");
        let mut state = self.shard(shard);
        Ok(match self.scan_tail(shard, &mut state, false)? {
            Some((scan, merged)) => (merged, scan.dropped),
            None => (0, 0),
        })
    }

    /// Scans and, if needed, rewrites one shard file in place, dropping
    /// torn/corrupt lines and restoring the trailing newline, then merges
    /// the surviving records into the in-memory index. Like
    /// [`refresh_shard`](Self::refresh_shard) it decodes only what was
    /// appended since this store's last scan (plus the torn tail), with
    /// the same full-scan fallbacks; the report counts the whole file all
    /// the same.
    ///
    /// **Single-writer precondition:** the caller must be the shard's only
    /// live writer (in the fabric protocol, the holder of its lease) — the
    /// rewrite replaces the inode, so any other process's open append
    /// handle would keep writing into an orphaned file. This store's own
    /// cached append handle is dropped on *every* call, rewrite or not: a
    /// peer's repair may have replaced the file since this store last
    /// appended to it, so the next `put` reopens the shard by path.
    pub fn repair_shard(&self, shard: usize) -> Result<ShardRepair, StoreError> {
        assert!(shard < SHARD_COUNT, "shard index out of range");
        let path = shard_path(&self.dir, shard);
        // Hold the shard lock across scan + rewrite so a concurrent `put`
        // from another thread of this process cannot append between the
        // scan and the rename (its line would be lost with the old inode).
        let mut state = self.shard(shard);
        state.writer = None;
        let mut repair = ShardRepair {
            shard,
            path: path.clone(),
            dropped_lines: 0,
            torn_tail: false,
            rewritten: false,
        };
        if let Some((scan, _)) = self.scan_tail(shard, &mut state, true)? {
            if scan.needs_rewrite() {
                state.cursor = rewrite_shard(&self.dir, shard, &path, &scan)?;
                state.dirty = false;
            }
            repair.dropped_lines = scan.dropped;
            repair.torn_tail = scan.torn_tail;
            repair.rewritten = scan.needs_rewrite();
        }
        Ok(repair)
    }

    /// The shared half of `refresh_shard` and `repair_shard`: scans
    /// `shard` from its cursor (see `ShardState`), moves the cursor, and
    /// merges the records into the index while the caller still holds the
    /// shard lock, so the cursor never runs ahead of the index. The lock
    /// order is `put`'s too: the shard lock first, then the index lock.
    /// `repair` decodes the torn tail and collects what a rewrite keeps.
    /// Returns the scan and the count of newly merged records, or `None`
    /// when nothing was appended since the last scan.
    fn scan_tail(
        &self,
        shard: usize,
        state: &mut ShardState,
        repair: bool,
    ) -> Result<Option<(Scan, usize)>, StoreError> {
        let path = shard_path(&self.dir, shard);
        let Some((file, len)) = open_shard(&path)? else {
            state.reset();
            return Ok(None);
        };
        let from = state.scan_from(len);
        if from == len {
            return Ok(None);
        }
        let mut records = Vec::new();
        let scan = scan_shard(
            (file, len),
            from,
            &path,
            repair,
            repair,
            |digest, seed, outcome| {
                records.push((digest, seed, outcome));
            },
        )?;
        self.decoded.fetch_add(scan.decoded, Ordering::Relaxed);
        state.advance(&scan);
        Ok(Some((scan, self.merge(records))))
    }

    /// The claimed trials. Every holder of the lock leaves the set whole
    /// (one insert or one remove), so a poisoned lock is recovered.
    fn in_flight(&self) -> MutexGuard<'_, BTreeSet<(u64, u64)>> {
        self.in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims trial `(digest, seed)` for execution, first waiting while
    /// another claim on it is held. A holder stores its outcome before it
    /// releases the claim unless its trial failed, so the caller looks the
    /// trial up again before executing it.
    pub(crate) fn claim(&self, digest: u64, seed: u64) -> Claim<'_> {
        let key = (digest, seed);
        let mut claimed = self.in_flight();
        while !claimed.insert(key) {
            claimed = self
                .settled
                .wait(claimed)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Claim { store: self, key }
    }

    /// Looks up the stored outcome of trial `(digest, seed)`.
    pub fn get(&self, digest: u64, seed: u64) -> Option<SyncOutcome> {
        self.index_read().get(&(digest, seed)).cloned()
    }

    /// Whether trial `(digest, seed)` is already stored.
    pub fn contains(&self, digest: u64, seed: u64) -> bool {
        self.index_read().contains_key(&(digest, seed))
    }

    /// Records a completed trial, appending one JSONL line to the
    /// responsible shard. Idempotent: putting an already-stored key is a
    /// no-op (the first record wins), so concurrent workers and re-runs
    /// never duplicate lines. The trial counts as stored only once its
    /// line is written: after an `Err`, [`contains`](Self::contains) is
    /// false and a retried `put` writes the line.
    pub fn put(&self, digest: u64, seed: u64, outcome: &SyncOutcome) -> Result<(), StoreError> {
        let shard = shard_index(digest, seed);
        // Every put of this key takes this lock, so none can slip in
        // between the check and the append: no line is written twice.
        let mut guard = self.shard(shard);
        if self.contains(digest, seed) {
            return Ok(());
        }
        // One buffer, one write_all: the record and its newline must never
        // be separate writes, or a kill between them would leave a
        // *decodable* line with no trailing newline — the repair-on-open
        // pass would not trigger and the next append would concatenate
        // onto it, corrupting two good records.
        //
        // The index's copy is made before the line: allocating the
        // long-lived copy below the short-lived buffer kept `small_sweep`'s
        // peak RSS at its old level, where the other order raised it 5%.
        let stored = outcome.clone();
        let mut line = encode_record(digest, seed, outcome);
        line.push('\n');
        // The shard's path is built only to open it or to name it in an
        // error.
        let failed = |source| StoreError::Append {
            path: shard_path(&self.dir, shard),
            digest,
            seed,
            source,
        };
        let state = &mut *guard;
        let file = match state.writer.take() {
            Some(file) => file,
            None => OpenOptions::new()
                .create(true)
                .append(true)
                .open(shard_path(&self.dir, shard))
                .map_err(failed)?,
        };
        let file = state.writer.insert(file);
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(failed)?;
        file_first(&mut self.index_write(), digest, seed, stored);
        // The line is in the index now; if it landed exactly at the
        // cursor (no other writer appended in between), the next scan
        // need not read it back.
        let landed = state.cursor + line.len() as u64;
        if file.metadata().is_ok_and(|m| m.len() == landed) {
            state.cursor = landed;
        }
        Ok(())
    }
}

fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.jsonl"))
}

/// Files a scanned record in `index` unless its key is already there, and
/// says whether it did: as with `put`, the first record for a key wins.
fn file_first(
    index: &mut BTreeMap<(u64, u64), SyncOutcome>,
    digest: u64,
    seed: u64,
    outcome: SyncOutcome,
) -> bool {
    match index.entry((digest, seed)) {
        Entry::Vacant(slot) => {
            slot.insert(outcome);
            true
        }
        Entry::Occupied(_) => false,
    }
}

/// The shard index responsible for trial `(digest, seed)`.
///
/// Public because the fabric partitions a sweep's trials by shard: a
/// worker holding shard `i`'s lease executes exactly the trials for which
/// `shard_index(digest, seed) == i`, making it the shard's only writer.
pub fn shard_index(digest: u64, seed: u64) -> usize {
    // Mix the seed so one grid point's trials spread over all shards.
    ((digest ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % SHARD_COUNT as u64) as usize
}

// --- record codec -------------------------------------------------------
//
// A record line is written and read directly, without a `json::Value` tree
// in between: `encode_record` writes the compact JSON into one `String`,
// and `scan_record` reads that one layout back in a single forward pass.
// A line in any other layout (re-spaced, reordered, escaped, extended)
// goes through the reference, `json::parse` + `outcome_from_value`. The
// public `Value` view (`outcome_to_value`, `outcome_from_value`) is that
// reference: the codec writes exactly its bytes and accepts exactly the
// lines it accepts, with equal outcomes, and the tests below hold it to
// both. Every field of `SyncOutcome` is an integer, boolean, or string —
// no floats — so decode(encode(x)) == x exactly, which is what makes
// resumed aggregates bit-identical.

/// `SimMetrics`' members in record order; [`metric_values`] lists the
/// values in the same order.
const METRIC_KEYS: [&str; 11] = [
    "rounds",
    "broadcasts",
    "listens",
    "sleeps",
    "deliveries",
    "receptions",
    "collisions",
    "jammed_solo",
    "disrupted_freq_rounds",
    "max_active",
    "budget_violations",
];

fn metric_values(m: &SimMetrics) -> [u64; METRIC_KEYS.len()] {
    [
        m.rounds,
        m.broadcasts,
        m.listens,
        m.sleeps,
        m.deliveries,
        m.receptions,
        m.collisions,
        m.jammed_solo_broadcasts,
        m.disrupted_frequency_rounds,
        u64::from(m.max_active_nodes),
        m.adversary_budget_violations,
    ]
}

/// The line of record `(digest, seed, outcome)`, without its newline.
fn encode_record(digest: u64, seed: u64, outcome: &SyncOutcome) -> String {
    let result = &outcome.result;
    let properties = &outcome.properties;
    let mut out =
        String::with_capacity(512 + 64 * result.nodes.len() + 128 * properties.violations.len());
    let _ = write!(out, "{{\"spec\":\"{digest:016x}\",\"seed\":");
    push_u64(&mut out, seed);
    out.push_str(",\"outcome\":{\"result\":{\"rounds\":");
    push_u64(&mut out, result.rounds_executed);
    out.push_str(",\"synced\":");
    push_bool(&mut out, result.all_synchronized);
    out.push_str(",\"nodes\":[");
    for (i, node) in result.nodes.iter().enumerate() {
        out.push_str(if i == 0 { "{\"id\":" } else { ",{\"id\":" });
        push_u64(&mut out, node.id.index() as u64);
        out.push_str(",\"activated\":");
        push_u64(&mut out, node.activation_round);
        out.push_str(",\"sync\":");
        push_opt_u64(&mut out, node.sync_round);
        out.push_str(",\"out\":");
        push_opt_u64(&mut out, node.final_output);
        out.push('}');
    }
    out.push_str("],\"metrics\":{");
    for (i, (key, value)) in METRIC_KEYS
        .iter()
        .zip(metric_values(&result.metrics))
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        push_u64(&mut out, value);
    }
    out.push_str("}},\"properties\":{\"violations\":[");
    for (i, violation) in properties.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_violation(&mut out, violation);
    }
    out.push_str("],\"total\":");
    push_u64(&mut out, properties.total_violations);
    out.push_str(",\"rounds\":");
    push_u64(&mut out, properties.rounds_observed);
    out.push_str(",\"liveness\":");
    push_bool(&mut out, properties.liveness);
    out.push_str(",\"completion\":");
    push_opt_u64(&mut out, properties.completion_round);
    out.push_str("},\"leaders\":");
    push_u64(&mut out, outcome.leaders as u64);
    out.push_str(",\"adversary\":");
    json::write_string(&outcome.adversary, &mut out);
    out.push_str(",\"seed\":");
    push_u64(&mut out, outcome.seed);
    out.push_str("}}");
    out
}

fn push_violation(out: &mut String, violation: &Violation) {
    match violation {
        Violation::SynchCommit {
            node,
            round,
            previous,
        } => {
            out.push_str("{\"kind\":\"synch-commit\",\"node\":");
            push_u64(out, node.index() as u64);
            out.push_str(",\"round\":");
            push_u64(out, *round);
            out.push_str(",\"previous\":");
            push_u64(out, *previous);
        }
        Violation::Correctness {
            node,
            round,
            previous,
            current,
        } => {
            out.push_str("{\"kind\":\"correctness\",\"node\":");
            push_u64(out, node.index() as u64);
            out.push_str(",\"round\":");
            push_u64(out, *round);
            out.push_str(",\"previous\":");
            push_u64(out, *previous);
            out.push_str(",\"current\":");
            push_u64(out, *current);
        }
        Violation::Agreement {
            round,
            first,
            second,
        } => {
            out.push_str("{\"kind\":\"agreement\",\"round\":");
            push_u64(out, *round);
            for (key, (node, output)) in [(",\"first\":[", first), (",\"second\":[", second)] {
                out.push_str(key);
                push_u64(out, node.index() as u64);
                out.push(',');
                push_u64(out, *output);
                out.push(']');
            }
        }
    }
    out.push('}');
}

/// Appends `n` as [`u64_value`] encodes it: a JSON integer up to
/// `i64::MAX`, a string of its decimal digits above.
fn push_u64(out: &mut String, mut n: u64) {
    let quoted = n > i64::MAX as u64;
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if quoted {
        out.push('"');
    }
    out.push_str(&String::from_utf8_lossy(&digits[at..]));
    if quoted {
        out.push('"');
    }
}

fn push_opt_u64(out: &mut String, n: Option<u64>) {
    match n {
        Some(n) => push_u64(out, n),
        None => out.push_str("null"),
    }
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Decodes one shard line into `(digest, seed, outcome)`; `None` means the
/// line is torn or corrupt and must be dropped. A line in `encode_record`'s
/// layout is read by [`scan_record`]; any other line by the reference,
/// [`decode_reference`], so a line decodes exactly when `json::parse` +
/// `outcome_from_value` would decode it, to the same outcome.
fn decode_record(line: &str, nodes: &mut Vec<NodeSummary>) -> Option<(u64, u64, SyncOutcome)> {
    let (digest, seed, outcome) = scan_record(line, nodes).or_else(|| decode_reference(line))?;
    // A record whose embedded outcome disagrees with its key is corrupt.
    (outcome.seed == seed).then_some((digest, seed, outcome))
}

/// The reference reading of a record line, through a [`Value`] tree: any
/// whitespace and member order, escapes, unknown members skipped,
/// duplicate keys rejected.
fn decode_reference(line: &str) -> Option<(u64, u64, SyncOutcome)> {
    let value = json::parse(line).ok()?;
    let digest = u64::from_str_radix(value.get("spec")?.as_str()?, 16).ok()?;
    let seed = value_as_u64(value.get("seed")?)?;
    Some((digest, seed, outcome_from_value(value.get("outcome")?)?))
}

/// Reads `line` through the segments `encode_record` writes, in order, and
/// gives up (`None`) at the first byte that differs. It reads only text
/// `encode_record` could have written, so whatever it reads, the
/// reference reads to the same record. `nodes` is a buffer a scan reuses,
/// so each node list is copied once, at its length.
fn scan_record(line: &str, nodes: &mut Vec<NodeSummary>) -> Option<(u64, u64, SyncOutcome)> {
    let mut l = Layout { line, pos: 0 };
    let digest = l.at("{\"spec\":\"")?.digest()?;
    let seed = l.at("\",\"seed\":")?.u64()?;
    let rounds_executed = l.at(",\"outcome\":{\"result\":{\"rounds\":")?.u64()?;
    let all_synchronized = l.at(",\"synced\":")?.bool()?;
    nodes.clear();
    l.at(",\"nodes\":[")?.list(nodes, |l| {
        let node = NodeSummary {
            id: node_id(l.at("{\"id\":")?.u64()?)?,
            activation_round: l.at(",\"activated\":")?.u64()?,
            sync_round: l.at(",\"sync\":")?.opt_u64()?,
            final_output: l.at(",\"out\":")?.opt_u64()?,
        };
        l.at("}").map(|_| node)
    })?;
    let mut values = [0; METRIC_KEYS.len()];
    l.at(",\"metrics\":{")?;
    for (i, (key, value)) in METRIC_KEYS.iter().zip(&mut values).enumerate() {
        if i > 0 {
            l.at(",")?;
        }
        *value = l.at("\"")?.at(key)?.at("\":")?.u64()?;
    }
    let mut violations = Vec::new();
    l.at("}},\"properties\":{\"violations\":[")?
        .list(&mut violations, Layout::violation)?;
    let properties = PropertyReport {
        violations,
        total_violations: l.at(",\"total\":")?.u64()?,
        rounds_observed: l.at(",\"rounds\":")?.u64()?,
        liveness: l.at(",\"liveness\":")?.bool()?,
        completion_round: l.at(",\"completion\":")?.opt_u64()?,
    };
    let leaders = usize::try_from(l.at("},\"leaders\":")?.u64()?).ok()?;
    let adversary = l.at(",\"adversary\":")?.plain_str()?.to_string();
    let outcome_seed = l.at(",\"seed\":")?.u64()?;
    if l.at("}}")?.pos != line.len() {
        return None;
    }
    let [rounds, broadcasts, listens, sleeps, deliveries, receptions, collisions, jammed_solo_broadcasts, disrupted_frequency_rounds, max_active, adversary_budget_violations] =
        values;
    let metrics = SimMetrics {
        rounds,
        broadcasts,
        listens,
        sleeps,
        deliveries,
        receptions,
        collisions,
        jammed_solo_broadcasts,
        disrupted_frequency_rounds,
        max_active_nodes: u32::try_from(max_active).ok()?,
        adversary_budget_violations,
    };
    let outcome = SyncOutcome {
        result: ExecutionResult {
            rounds_executed,
            all_synchronized,
            nodes: nodes.as_slice().to_vec(),
            metrics,
        },
        properties,
        leaders,
        adversary,
        seed: outcome_seed,
    };
    Some((digest, seed, outcome))
}

/// [`scan_record`]'s position in its line. Each read takes one segment in
/// the form `encode_record` writes it and returns `None` on anything else.
struct Layout<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Layout<'a> {
    /// Consumes `text` if the line goes on with it.
    fn eat(&mut self, text: &str) -> bool {
        let hit = self.line.as_bytes()[self.pos..].starts_with(text.as_bytes());
        if hit {
            self.pos += text.len();
        }
        hit
    }

    /// Consumes `text`, with which the line must go on, ready for the
    /// value after it.
    fn at(&mut self, text: &str) -> Option<&mut Self> {
        self.eat(text).then_some(self)
    }

    /// A spec digest as `{:016x}` writes it.
    fn digest(&mut self) -> Option<u64> {
        let hex = self.line.get(self.pos..self.pos + 16)?;
        if !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        self.pos += 16;
        u64::from_str_radix(hex, 16).ok()
    }

    /// A `u64` as [`push_u64`] writes it: digits with no sign and no
    /// leading zero, bare up to `i64::MAX` and quoted above it.
    fn u64(&mut self) -> Option<u64> {
        let quoted = self.eat("\"");
        let bytes = self.line.as_bytes();
        let start = self.pos;
        let mut n = 0u64;
        while let Some(&digit @ b'0'..=b'9') = bytes.get(self.pos) {
            n = n.checked_mul(10)?.checked_add(u64::from(digit - b'0'))?;
            self.pos += 1;
        }
        let canonical = match self.pos - start {
            0 => false,
            1 => true,
            _ => bytes[start] != b'0',
        };
        let closed = !quoted || self.eat("\"");
        (canonical && closed && (n > i64::MAX as u64) == quoted).then_some(n)
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        if self.eat("null") {
            Some(None)
        } else {
            self.u64().map(Some)
        }
    }

    fn bool(&mut self) -> Option<bool> {
        if self.eat("true") {
            Some(true)
        } else {
            self.eat("false").then_some(false)
        }
    }

    /// A string [`json::write_string`] writes as it is: one with no `"`,
    /// no `\` and no byte below 0x20.
    fn plain_str(&mut self) -> Option<&'a str> {
        self.at("\"")?;
        let start = self.pos;
        let len = self.line.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        self.pos += len;
        self.at("\"")?;
        self.line.get(start..start + len)
    }

    /// The items of a list whose `[` was just read, through its `]`.
    fn list<T>(&mut self, items: &mut Vec<T>, item: impl Fn(&mut Self) -> Option<T>) -> Option<()> {
        if self.eat("]") {
            return Some(());
        }
        loop {
            items.push(item(self)?);
            if self.eat("]") {
                return Some(());
            }
            self.at(",")?;
        }
    }

    /// A violation in one of the three shapes `push_violation` writes.
    fn violation(&mut self) -> Option<Violation> {
        let violation = if self.eat("{\"kind\":\"synch-commit\",\"node\":") {
            Violation::SynchCommit {
                node: node_id(self.u64()?)?,
                round: self.at(",\"round\":")?.u64()?,
                previous: self.at(",\"previous\":")?.u64()?,
            }
        } else if self.eat("{\"kind\":\"correctness\",\"node\":") {
            Violation::Correctness {
                node: node_id(self.u64()?)?,
                round: self.at(",\"round\":")?.u64()?,
                previous: self.at(",\"previous\":")?.u64()?,
                current: self.at(",\"current\":")?.u64()?,
            }
        } else {
            Violation::Agreement {
                round: self.at("{\"kind\":\"agreement\",\"round\":")?.u64()?,
                first: self.at(",\"first\":[")?.pair()?,
                second: self.at(",\"second\":[")?.pair()?,
            }
        };
        self.at("}").map(|_| violation)
    }

    /// An agreement violation's `node,output]`, its `[` already read.
    fn pair(&mut self) -> Option<(NodeId, u64)> {
        let node = node_id(self.u64()?)?;
        let output = self.at(",")?.u64()?;
        self.at("]").map(|_| (node, output))
    }
}

/// Encodes a `u64` losslessly: as a JSON integer when it fits in `i64`,
/// otherwise as a decimal string. `Value::from(u64)` falls back to `f64`
/// above `i64::MAX`, which would silently round large seeds and break the
/// `decode(encode(x)) == x` contract — a record with such a seed would be
/// dropped as corrupt on every reopen and recomputed forever.
fn u64_value(n: u64) -> Value {
    match i64::try_from(n) {
        Ok(i) => Value::Int(i),
        Err(_) => Value::Str(n.to_string()),
    }
}

/// Decodes either `u64` encoding produced by [`u64_value`].
fn value_as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Str(s) => s.parse().ok(),
        other => other.as_u64(),
    }
}

fn opt_u64_value(v: Option<u64>) -> Value {
    match v {
        Some(n) => u64_value(n),
        None => Value::Null,
    }
}

/// Encodes a full [`SyncOutcome`] as a JSON value.
pub fn outcome_to_value(outcome: &SyncOutcome) -> Value {
    let nodes = outcome
        .result
        .nodes
        .iter()
        .map(|n| {
            Value::Object(vec![
                ("id".to_string(), u64_value(n.id.index() as u64)),
                ("activated".to_string(), u64_value(n.activation_round)),
                ("sync".to_string(), opt_u64_value(n.sync_round)),
                ("out".to_string(), opt_u64_value(n.final_output)),
            ])
        })
        .collect();
    let m = &outcome.result.metrics;
    let metrics = Value::Object(vec![
        ("rounds".to_string(), u64_value(m.rounds)),
        ("broadcasts".to_string(), u64_value(m.broadcasts)),
        ("listens".to_string(), u64_value(m.listens)),
        ("sleeps".to_string(), u64_value(m.sleeps)),
        ("deliveries".to_string(), u64_value(m.deliveries)),
        ("receptions".to_string(), u64_value(m.receptions)),
        ("collisions".to_string(), u64_value(m.collisions)),
        (
            "jammed_solo".to_string(),
            u64_value(m.jammed_solo_broadcasts),
        ),
        (
            "disrupted_freq_rounds".to_string(),
            u64_value(m.disrupted_frequency_rounds),
        ),
        ("max_active".to_string(), m.max_active_nodes.into()),
        (
            "budget_violations".to_string(),
            u64_value(m.adversary_budget_violations),
        ),
    ]);
    let result = Value::Object(vec![
        (
            "rounds".to_string(),
            u64_value(outcome.result.rounds_executed),
        ),
        ("synced".to_string(), outcome.result.all_synchronized.into()),
        ("nodes".to_string(), Value::Array(nodes)),
        ("metrics".to_string(), metrics),
    ]);
    let violations = outcome
        .properties
        .violations
        .iter()
        .map(violation_to_value)
        .collect();
    let properties = Value::Object(vec![
        ("violations".to_string(), Value::Array(violations)),
        (
            "total".to_string(),
            u64_value(outcome.properties.total_violations),
        ),
        (
            "rounds".to_string(),
            u64_value(outcome.properties.rounds_observed),
        ),
        ("liveness".to_string(), outcome.properties.liveness.into()),
        (
            "completion".to_string(),
            opt_u64_value(outcome.properties.completion_round),
        ),
    ]);
    Value::Object(vec![
        ("result".to_string(), result),
        ("properties".to_string(), properties),
        ("leaders".to_string(), u64_value(outcome.leaders as u64)),
        (
            "adversary".to_string(),
            Value::Str(outcome.adversary.clone()),
        ),
        ("seed".to_string(), u64_value(outcome.seed)),
    ])
}

fn violation_to_value(violation: &Violation) -> Value {
    match violation {
        Violation::SynchCommit {
            node,
            round,
            previous,
        } => Value::Object(vec![
            ("kind".to_string(), Value::Str("synch-commit".to_string())),
            ("node".to_string(), u64_value(node.index() as u64)),
            ("round".to_string(), u64_value(*round)),
            ("previous".to_string(), u64_value(*previous)),
        ]),
        Violation::Correctness {
            node,
            round,
            previous,
            current,
        } => Value::Object(vec![
            ("kind".to_string(), Value::Str("correctness".to_string())),
            ("node".to_string(), u64_value(node.index() as u64)),
            ("round".to_string(), u64_value(*round)),
            ("previous".to_string(), u64_value(*previous)),
            ("current".to_string(), u64_value(*current)),
        ]),
        Violation::Agreement {
            round,
            first,
            second,
        } => Value::Object(vec![
            ("kind".to_string(), Value::Str("agreement".to_string())),
            ("round".to_string(), u64_value(*round)),
            (
                "first".to_string(),
                Value::Array(vec![u64_value(first.0.index() as u64), u64_value(first.1)]),
            ),
            (
                "second".to_string(),
                Value::Array(vec![
                    u64_value(second.0.index() as u64),
                    u64_value(second.1),
                ]),
            ),
        ]),
    }
}

fn get_u64(value: &Value, key: &str) -> Option<u64> {
    value_as_u64(value.get(key)?)
}

fn get_opt_u64(value: &Value, key: &str) -> Option<Option<u64>> {
    match value.get(key)? {
        Value::Null => Some(None),
        other => value_as_u64(other).map(Some),
    }
}

fn node_id(raw: u64) -> Option<NodeId> {
    u32::try_from(raw).ok().map(NodeId::new)
}

/// Decodes a [`SyncOutcome`] from its JSON encoding; `None` on any shape
/// mismatch (the caller treats the record as corrupt and drops it).
pub fn outcome_from_value(value: &Value) -> Option<SyncOutcome> {
    let result = value.get("result")?;
    let nodes = result
        .get("nodes")?
        .as_array()?
        .iter()
        .map(|n| {
            Some(NodeSummary {
                id: node_id(get_u64(n, "id")?)?,
                activation_round: get_u64(n, "activated")?,
                sync_round: get_opt_u64(n, "sync")?,
                final_output: get_opt_u64(n, "out")?,
            })
        })
        .collect::<Option<Vec<NodeSummary>>>()?;
    let m = result.get("metrics")?;
    let metrics = SimMetrics {
        rounds: get_u64(m, "rounds")?,
        broadcasts: get_u64(m, "broadcasts")?,
        listens: get_u64(m, "listens")?,
        sleeps: get_u64(m, "sleeps")?,
        deliveries: get_u64(m, "deliveries")?,
        receptions: get_u64(m, "receptions")?,
        collisions: get_u64(m, "collisions")?,
        jammed_solo_broadcasts: get_u64(m, "jammed_solo")?,
        disrupted_frequency_rounds: get_u64(m, "disrupted_freq_rounds")?,
        max_active_nodes: u32::try_from(get_u64(m, "max_active")?).ok()?,
        adversary_budget_violations: get_u64(m, "budget_violations")?,
    };
    let properties = value.get("properties")?;
    let violations = properties
        .get("violations")?
        .as_array()?
        .iter()
        .map(violation_from_value)
        .collect::<Option<Vec<Violation>>>()?;
    Some(SyncOutcome {
        result: ExecutionResult {
            rounds_executed: get_u64(result, "rounds")?,
            all_synchronized: result.get("synced")?.as_bool()?,
            nodes,
            metrics,
        },
        properties: PropertyReport {
            violations,
            total_violations: get_u64(properties, "total")?,
            rounds_observed: get_u64(properties, "rounds")?,
            liveness: properties.get("liveness")?.as_bool()?,
            completion_round: get_opt_u64(properties, "completion")?,
        },
        leaders: usize::try_from(get_u64(value, "leaders")?).ok()?,
        adversary: value.get("adversary")?.as_str()?.to_string(),
        seed: get_u64(value, "seed")?,
    })
}

fn violation_from_value(value: &Value) -> Option<Violation> {
    let pair = |key: &str| -> Option<(NodeId, u64)> {
        let items = value.get(key)?.as_array()?;
        match items {
            [a, b] => Some((node_id(value_as_u64(a)?)?, value_as_u64(b)?)),
            _ => None,
        }
    };
    match value.get("kind")?.as_str()? {
        "synch-commit" => Some(Violation::SynchCommit {
            node: node_id(get_u64(value, "node")?)?,
            round: get_u64(value, "round")?,
            previous: get_u64(value, "previous")?,
        }),
        "correctness" => Some(Violation::Correctness {
            node: node_id(get_u64(value, "node")?)?,
            round: get_u64(value, "round")?,
            previous: get_u64(value, "previous")?,
            current: get_u64(value, "current")?,
        }),
        "agreement" => Some(Violation::Agreement {
            round: get_u64(value, "round")?,
            first: pair("first")?,
            second: pair("second")?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsync-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A claim is released when the trial holding it panics, so no later
    /// pass waits for that trial forever.
    #[test]
    fn a_panicking_trial_frees_its_claim() {
        let dir = temp_dir("claim-panic");
        let store = ResultStore::open(&dir).unwrap();
        let trial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _claim = store.claim(7, 3);
            panic!("the trial panicked");
        }));
        assert!(trial.is_err());
        assert!(
            store.in_flight().is_empty(),
            "the panicked trial kept its claim"
        );
        drop(store.claim(7, 3));
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_outcomes(n: usize) -> Vec<SyncOutcome> {
        let spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        let sim = Sim::from_spec(&spec).unwrap();
        (0..n as u64).map(|seed| sim.run_one(seed)).collect()
    }

    /// A record line as the `Value` view writes it: the bytes the codec
    /// must write.
    fn reference_line(digest: u64, seed: u64, outcome: &SyncOutcome) -> String {
        Value::Object(vec![
            ("spec".to_string(), Value::Str(format!("{digest:016x}"))),
            ("seed".to_string(), u64_value(seed)),
            ("outcome".to_string(), outcome_to_value(outcome)),
        ])
        .to_json_compact()
    }

    /// The codec's contract: a line the scanner reads, the reference reads
    /// to the same record (a line it declines goes to the reference).
    fn assert_decodes_like_the_reference(line: &str) {
        if let Some(record) = scan_record(line, &mut Vec::new()) {
            assert_eq!(Some(record), decode_reference(line), "line {line:?}");
        }
    }

    /// Catalogue outcomes: clean runs and a dirty one with violations.
    fn catalogue_outcomes() -> Vec<SyncOutcome> {
        let mut outcomes = sample_outcomes(3);
        let dirty = Sim::from_spec(
            &ScenarioSpec::new("single-frequency", 4, 4, 1)
                .with_adversary("fixed-band")
                .with_activation(wsync_radio::activation::ActivationSchedule::LateJoiner {
                    late: 3,
                })
                .with_max_rounds(2_000),
        )
        .unwrap()
        .run_one(5);
        assert!(dirty.properties.total_violations > 0);
        outcomes.push(dirty);
        outcomes
    }

    #[test]
    fn outcome_codec_round_trips_exactly() {
        for outcome in catalogue_outcomes() {
            let value = outcome_to_value(&outcome);
            // through text as well, exactly as the store writes it
            let text = value.to_json_compact();
            let back = outcome_from_value(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, outcome);
            // the direct codec writes the same bytes and reads them back
            let line = encode_record(0xabc, outcome.seed, &outcome);
            assert_eq!(line, reference_line(0xabc, outcome.seed, &outcome));
            assert_eq!(
                decode_record(&line, &mut Vec::new()),
                Some((0xabc, outcome.seed, outcome.clone()))
            );
        }
    }

    use proptest::prelude::*;

    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    /// A `u64` near the values the codec treats specially.
    fn arb_u64(rng: &mut TestRng) -> u64 {
        match below(rng, 6) {
            0 => below(rng, 10),
            1 => below(rng, 100_000),
            2 => i64::MAX as u64 - 2 + below(rng, 5),
            3 => u64::MAX - below(rng, 3),
            4 => u64::from(u32::MAX) + below(rng, 3) - 1,
            _ => rng.next_u64(),
        }
    }

    fn arb_opt_u64(rng: &mut TestRng) -> Option<u64> {
        (below(rng, 3) > 0).then(|| arb_u64(rng))
    }

    fn arb_node_id(rng: &mut TestRng) -> NodeId {
        NodeId::new(match below(rng, 3) {
            0 => u32::MAX - below(rng, 2) as u32,
            _ => below(rng, 300) as u32,
        })
    }

    /// Text with the characters a string literal escapes, and some that
    /// take more than one UTF-8 byte.
    fn arb_text(rng: &mut TestRng) -> String {
        const POOL: &[char] = &[
            'a', 'z', 'R', '0', '-', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}',
            '\u{c}', '\u{1f}', '\u{7f}', 'é', '☃', '😀',
        ];
        (0..below(rng, 12))
            .map(|_| POOL[below(rng, POOL.len() as u64) as usize])
            .collect()
    }

    fn arb_violation(rng: &mut TestRng) -> Violation {
        match below(rng, 3) {
            0 => Violation::SynchCommit {
                node: arb_node_id(rng),
                round: arb_u64(rng),
                previous: arb_u64(rng),
            },
            1 => Violation::Correctness {
                node: arb_node_id(rng),
                round: arb_u64(rng),
                previous: arb_u64(rng),
                current: arb_u64(rng),
            },
            _ => Violation::Agreement {
                round: arb_u64(rng),
                first: (arb_node_id(rng), arb_u64(rng)),
                second: (arb_node_id(rng), arb_u64(rng)),
            },
        }
    }

    /// Draws an outcome over the whole range of every field.
    struct ArbOutcome;

    impl Strategy for ArbOutcome {
        type Value = SyncOutcome;
        fn generate(&self, rng: &mut TestRng) -> SyncOutcome {
            let nodes = (0..below(rng, 5))
                .map(|_| NodeSummary {
                    id: arb_node_id(rng),
                    activation_round: arb_u64(rng),
                    sync_round: arb_opt_u64(rng),
                    final_output: arb_opt_u64(rng),
                })
                .collect();
            let metrics = SimMetrics {
                rounds: arb_u64(rng),
                broadcasts: arb_u64(rng),
                listens: arb_u64(rng),
                sleeps: arb_u64(rng),
                deliveries: arb_u64(rng),
                receptions: arb_u64(rng),
                collisions: arb_u64(rng),
                jammed_solo_broadcasts: arb_u64(rng),
                disrupted_frequency_rounds: arb_u64(rng),
                max_active_nodes: arb_node_id(rng).index() as u32,
                adversary_budget_violations: arb_u64(rng),
            };
            SyncOutcome {
                result: ExecutionResult {
                    rounds_executed: arb_u64(rng),
                    all_synchronized: below(rng, 2) == 0,
                    nodes,
                    metrics,
                },
                properties: PropertyReport {
                    violations: (0..below(rng, 4)).map(|_| arb_violation(rng)).collect(),
                    total_violations: arb_u64(rng),
                    rounds_observed: arb_u64(rng),
                    liveness: below(rng, 2) == 0,
                    completion_round: arb_opt_u64(rng),
                },
                leaders: arb_u64(rng) as usize,
                adversary: arb_text(rng),
                seed: arb_u64(rng),
            }
        }
    }

    /// Any JSON value, for members the decoder must skip.
    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        match below(rng, if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(below(rng, 2) == 0),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Float([0.5, -1e300, 2.0, 1e-9][below(rng, 4) as usize]),
            4 => Value::Str(arb_text(rng)),
            5 => Value::Array(
                (0..below(rng, 3))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..below(rng, 3))
                    .map(|i| (format!("k{i}"), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// A value some field might hold instead of its own: other kinds,
    /// numbers no integer field takes, strings a `u64` read may or may not
    /// take, and pairs of the right and the wrong length.
    fn wrong_value(rng: &mut TestRng) -> Value {
        match below(rng, 16) {
            0 => Value::Int(-1 - below(rng, 5) as i64),
            1 => Value::Float(1.0),
            2 => Value::Float(2.5),
            3 => Value::Str(format!("+{}", below(rng, 9))),
            4 => Value::Str(" 1".to_string()),
            5 => Value::Str("18446744073709551616".to_string()),
            6 => Value::Str("-0".to_string()),
            7 => Value::Int(i64::from(u32::MAX) + 1),
            8 => Value::Str("ff".to_string()),
            9 => Value::Int(below(rng, 100) as i64),
            10 => Value::Str(below(rng, 100).to_string()),
            11 => Value::Array(
                (0..below(rng, 4))
                    .map(|_| Value::Int(below(rng, 9) as i64))
                    .collect(),
            ),
            _ => arb_value(rng, 1),
        }
    }

    /// Every member name a record uses, in some object or other.
    const MEMBER_NAMES: &[&str] = &[
        "spec",
        "seed",
        "outcome",
        "result",
        "rounds",
        "synced",
        "nodes",
        "metrics",
        "id",
        "activated",
        "sync",
        "out",
        "max_active",
        "properties",
        "violations",
        "total",
        "liveness",
        "completion",
        "leaders",
        "adversary",
        "kind",
        "node",
        "round",
        "previous",
        "current",
        "first",
        "second",
    ];

    /// Damages one randomly chosen value of the tree: a member
    /// duplicated, dropped, or added under a name some record object
    /// uses; an element added or dropped; or the value replaced.
    fn damage(value: &mut Value, rng: &mut TestRng) {
        fn sites(value: &Value) -> u64 {
            1 + match value {
                Value::Object(members) => members.iter().map(|(_, v)| sites(v)).sum(),
                Value::Array(items) => items.iter().map(sites).sum(),
                _ => 0,
            }
        }
        fn damage_at(value: &mut Value, target: &mut u64, rng: &mut TestRng) -> bool {
            if *target > 0 {
                *target -= 1;
                return match value {
                    Value::Object(members) => members
                        .iter_mut()
                        .any(|(_, member)| damage_at(member, target, rng)),
                    Value::Array(items) => {
                        items.iter_mut().any(|item| damage_at(item, target, rng))
                    }
                    _ => false,
                };
            }
            match value {
                Value::Object(members) if !members.is_empty() => {
                    let at = below(rng, members.len() as u64) as usize;
                    match below(rng, 4) {
                        0 => {
                            let (key, _) = members[at].clone();
                            members.push((key, wrong_value(rng)));
                        }
                        1 => drop(members.remove(at)),
                        _ => {
                            let name = MEMBER_NAMES[below(rng, MEMBER_NAMES.len() as u64) as usize];
                            members.insert(at, (name.to_string(), wrong_value(rng)));
                        }
                    }
                }
                Value::Array(items) if below(rng, 2) == 0 => match items.pop() {
                    Some(_) if below(rng, 2) == 0 => {}
                    _ => items.push(wrong_value(rng)),
                },
                _ => *value = wrong_value(rng),
            }
            true
        }
        let mut target = below(rng, sites(value));
        damage_at(value, &mut target, rng);
    }

    /// Rewrites `value` into a variant that means the same record: object
    /// members shuffled, unknown members added, integers written as
    /// decimal strings.
    fn benign(value: &mut Value, rng: &mut TestRng) {
        match value {
            Value::Object(members) => {
                for i in (1..members.len()).rev() {
                    members.swap(i, below(rng, i as u64 + 1) as usize);
                }
                for extra in 0..below(rng, 2) {
                    let at = below(rng, members.len() as u64 + 1) as usize;
                    members.insert(at, (format!("extra {extra}"), arb_value(rng, 2)));
                }
                for (_, member) in members.iter_mut() {
                    benign(member, rng);
                }
            }
            Value::Array(items) => items.iter_mut().for_each(|item| benign(item, rng)),
            Value::Int(i) if below(rng, 4) == 0 => *value = Value::Str(i.to_string()),
            _ => {}
        }
    }

    /// Writes `value` as JSON with random whitespace between tokens and
    /// random `\u` escapes (surrogate pairs included) in keys and strings.
    fn write_variant(value: &Value, rng: &mut TestRng, out: &mut String) {
        let space = |rng: &mut TestRng, out: &mut String| {
            for _ in 0..below(rng, 3).saturating_sub(1) {
                out.push([' ', '\t', '\r', '\n'][below(rng, 4) as usize]);
            }
        };
        let string = |s: &str, rng: &mut TestRng, out: &mut String| {
            out.push('"');
            for c in s.chars() {
                if below(rng, 4) == 0 || c < ' ' || c == '"' || c == '\\' {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                } else {
                    out.push(c);
                }
            }
            out.push('"');
        };
        space(rng, out);
        match value {
            Value::Str(s) => string(s, rng, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_variant(item, rng, out);
                }
                space(rng, out);
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, member)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    space(rng, out);
                    string(key, rng, out);
                    space(rng, out);
                    out.push(':');
                    write_variant(member, rng, out);
                }
                space(rng, out);
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_json_compact()),
        }
        space(rng, out);
    }

    /// Draws a record: usually keyed by its outcome's seed, sometimes not
    /// (a record no decoder may accept).
    struct ArbRecord;

    impl Strategy for ArbRecord {
        type Value = (u64, u64, SyncOutcome);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let outcome = ArbOutcome.generate(rng);
            let seed = if below(rng, 8) == 0 {
                arb_u64(rng)
            } else {
                outcome.seed
            };
            (arb_u64(rng), seed, outcome)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The codec writes the `Value` view's bytes and reads them back.
        #[test]
        fn the_codec_writes_the_reference_bytes_and_reads_them_back(
            record in ArbRecord,
        ) {
            let (digest, seed, outcome) = record;
            let line = encode_record(digest, seed, &outcome);
            prop_assert_eq!(&line, &reference_line(digest, seed, &outcome));
            let expected = (seed == outcome.seed).then_some((digest, seed, outcome));
            prop_assert_eq!(decode_record(&line, &mut Vec::new()), expected);
        }

        /// Re-spaced, reordered, extended and escaped variants decode to
        /// the same record.
        #[test]
        fn benign_variants_decode_to_the_same_record(outcome in ArbOutcome, salt in any::<u64>()) {
            let mut rng = TestRng::deterministic(&salt.to_string());
            let line = encode_record(7, outcome.seed, &outcome);
            let mut value = json::parse(&line).unwrap();
            benign(&mut value, &mut rng);
            let mut variant = String::new();
            write_variant(&value, &mut rng, &mut variant);
            prop_assert_eq!(decode_record(&variant, &mut Vec::new()), Some((7, outcome.seed, outcome)));
            assert_decodes_like_the_reference(&variant);
        }

        /// Damaged variants decode exactly as the reference decodes them.
        #[test]
        fn damaged_variants_decode_like_the_reference(outcome in ArbOutcome, salt in any::<u64>()) {
            let mut rng = TestRng::deterministic(&salt.to_string());
            let line = encode_record(7, outcome.seed, &outcome);
            let mut value = json::parse(&line).unwrap();
            for _ in 0..1 + below(&mut rng, 2) {
                damage(&mut value, &mut rng);
            }
            benign(&mut value, &mut rng);
            let mut variant = String::new();
            write_variant(&value, &mut rng, &mut variant);
            assert_decodes_like_the_reference(&variant);
            assert_decodes_like_the_reference(&value.to_json_compact());
        }

        /// Lines with one character inserted, deleted or replaced decode
        /// exactly as the reference decodes them.
        #[test]
        fn edited_lines_decode_like_the_reference(outcome in ArbOutcome, edits in any::<u64>()) {
            let mut rng = TestRng::deterministic(&edits.to_string());
            let line = encode_record(7, outcome.seed, &outcome);
            const POOL: &[char] = &[
                '{', '}', '[', ']', ':', ',', '"', '\\', '0', '1', '-', '+', '.', 'e', 'E',
                ' ', 'n', 'u', 't', 'f', '\u{0}', 'é',
            ];
            for _ in 0..8 {
                let mut chars: Vec<char> = line.chars().collect();
                let at = below(&mut rng, chars.len() as u64 + 1) as usize;
                let c = POOL[below(&mut rng, POOL.len() as u64) as usize];
                match below(&mut rng, 3) {
                    0 => chars.insert(at, c),
                    1 if at < chars.len() => drop(chars.remove(at)),
                    _ if at < chars.len() => chars[at] = c,
                    _ => chars.push(c),
                }
                assert_decodes_like_the_reference(&chars.into_iter().collect::<String>());
            }
        }
    }

    /// Hand-picked records: violations of every kind, `⊥` outputs, values
    /// past `i64::MAX` and an adversary name to escape.
    fn edge_records() -> Vec<(u64, u64, SyncOutcome)> {
        let mut rng = TestRng::deterministic("edge records");
        let mut outcomes = catalogue_outcomes();
        outcomes.extend(
            (0..64)
                .map(|_| ArbOutcome.generate(&mut rng))
                .filter(|o| o.properties.violations.len() >= 2 && o.result.nodes.len() >= 2),
        );
        outcomes
            .into_iter()
            .map(|o| (u64::MAX - o.seed, o.seed, o))
            .collect()
    }

    /// A small record with one violation of each kind and a `⊥` output.
    fn one_of_each() -> SyncOutcome {
        let mut outcome = sample_outcomes(1).remove(0);
        outcome.result.nodes.truncate(2);
        outcome.result.nodes[1].final_output = None;
        outcome.properties.violations = vec![
            Violation::SynchCommit {
                node: NodeId::new(1),
                round: 9,
                previous: 8,
            },
            Violation::Correctness {
                node: NodeId::new(0),
                round: 10,
                previous: 3,
                current: 5,
            },
            Violation::Agreement {
                round: 11,
                first: (NodeId::new(0), 4),
                second: (NodeId::new(1), 6),
            },
        ];
        outcome
    }

    #[test]
    fn every_line_encode_record_writes_is_read_by_the_scanner() {
        // A drift between the encoder's layout and the scanner's would
        // still decode, through the reference, only slowly: so the scanner
        // itself must read every line the encoder writes.
        let mut rng = TestRng::deterministic("scanned records");
        let mut records = edge_records();
        records.extend((0..256).map(|_| {
            let outcome = ArbOutcome.generate(&mut rng);
            (arb_u64(&mut rng), outcome.seed, outcome)
        }));
        let small = one_of_each();
        records.push((3, small.seed, small));
        let escaped = |c: char| matches!(c, '"' | '\\') || c < ' ';
        for (_, _, outcome) in &mut records {
            outcome.adversary.retain(|c| !escaped(c));
        }
        let outcomes = || records.iter().map(|(_, _, outcome)| outcome);
        let outputs = || {
            outcomes()
                .flat_map(|o| &o.result.nodes)
                .map(|n| n.final_output)
        };
        assert!(outputs().any(|out| out.is_none()) && outputs().any(|out| out.is_some()));
        let kinds: std::collections::BTreeSet<_> = outcomes()
            .flat_map(|o| &o.properties.violations)
            .map(|v| match v {
                Violation::SynchCommit { .. } => 0,
                Violation::Correctness { .. } => 1,
                Violation::Agreement { .. } => 2,
            })
            .collect();
        assert_eq!(kinds.len(), 3, "every violation kind");
        let big = |n: u64| n > i64::MAX as u64;
        assert!(records.iter().any(|r| big(r.1)) && records.iter().any(|r| !big(r.1)));
        for (digest, seed, outcome) in records {
            let line = encode_record(digest, seed, &outcome);
            let scanned = scan_record(&line, &mut Vec::new());
            assert_eq!(scanned, Some((digest, seed, outcome)), "line {line:?}");
        }
        // The pinned format too, but for the name that needs escapes.
        let pinned = include_str!("../../../tests/store_format.jsonl");
        let mut plain = 0;
        for line in pinned.lines() {
            let record = decode_reference(line).expect("pinned lines decode");
            if !record.2.adversary.contains(escaped) {
                assert_eq!(scan_record(line, &mut Vec::new()), Some(record));
                plain += 1;
            }
        }
        assert_eq!(plain, pinned.lines().count() - 1);
    }

    /// An object's members.
    type Members = Vec<(String, Value)>;

    /// The `k`-th object of `value` in document order, if there is one.
    fn object_at<'v>(value: &'v mut Value, k: &mut usize) -> Option<&'v mut Members> {
        if matches!(value, Value::Object(_)) {
            if *k == 0 {
                return match value {
                    Value::Object(members) => Some(members),
                    _ => None,
                };
            }
            *k -= 1;
        }
        match value {
            Value::Object(members) => members
                .iter_mut()
                .find_map(|(_, member)| object_at(member, k)),
            Value::Array(items) => items.iter_mut().find_map(|item| object_at(item, k)),
            _ => None,
        }
    }

    #[test]
    fn every_member_edit_decodes_like_the_reference() {
        // In every object of a record, each member is dropped, duplicated
        // and set to each of these values, and each name any record
        // object uses is set to each of them: a member that does not
        // count where it stands (a violation's member another kind needs)
        // may hold anything, one that counts must hold its own kind.
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(0),
            Value::Int(7),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::from(u32::MAX) + 1),
            Value::Float(1.0),
            Value::Float(0.5),
            Value::Str("7".to_string()),
            Value::Str("+7".to_string()),
            Value::Str("-0".to_string()),
            Value::Str("null".to_string()),
            Value::Str("true".to_string()),
            Value::Str("synch-commit".to_string()),
            Value::Str("correctness".to_string()),
            Value::Str("agreement".to_string()),
            Value::Str("18446744073709551615".to_string()),
            Value::Str("18446744073709551616".to_string()),
            Value::Str(String::new()),
            Value::Array(Vec::new()),
            Value::Array(vec![Value::Int(1)]),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Value::Array(vec![Value::Int(1), Value::Str("2".to_string())]),
            Value::Array(vec![Value::Int(1 << 40), Value::Int(2)]),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Object(Vec::new()),
        ];
        let outcome = one_of_each();
        let record = json::parse(&encode_record(3, outcome.seed, &outcome)).unwrap();
        // Applies `edit` to the `k`-th object; whether the variant decodes.
        let check = |edit: &dyn Fn(&mut Members), k: usize| -> bool {
            let mut variant = record.clone();
            edit(object_at(&mut variant, &mut { k }).unwrap());
            let line = variant.to_json_compact();
            assert_decodes_like_the_reference(&line);
            decode_record(&line, &mut Vec::new()).is_some()
        };
        let (mut edits, mut accepted) = (0, 0);
        let mut tally = |decodes: bool| {
            edits += 1;
            accepted += usize::from(decodes);
        };
        for k in 0.. {
            let Some(members) = object_at(&mut record.clone(), &mut { k }).map(|m| m.len()) else {
                break;
            };
            for at in 0..members {
                tally(check(&|m| drop(m.remove(at)), k));
                tally(check(&|m| m.push(m[at].clone()), k));
                for value in &values {
                    tally(check(&|m| m[at].1 = value.clone(), k));
                }
            }
            for name in MEMBER_NAMES {
                for value in &values {
                    tally(check(
                        &|m| match m.iter_mut().find(|(key, _)| key == name) {
                            Some((_, slot)) => *slot = value.clone(),
                            None => m.push((name.to_string(), value.clone())),
                        },
                        k,
                    ));
                }
            }
        }
        assert!(
            accepted > 0 && accepted < edits,
            "{accepted} of {edits} edits decode"
        );
    }

    #[test]
    fn every_truncation_decodes_like_the_reference() {
        for (digest, seed, outcome) in edge_records().iter().take(8) {
            let line = encode_record(*digest, *seed, outcome);
            for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
                assert_decodes_like_the_reference(&line[..end]);
            }
        }
    }

    #[test]
    fn number_edits_and_trailing_bytes_decode_like_the_reference() {
        let edits: &[fn(&str) -> String] = &[
            |n| format!("0{n}"),
            |n| format!("-{n}"),
            |n| format!("{n}.0"),
            |n| format!("{n}e0"),
            |n| format!("{n}E+1"),
            |_| "-0".to_string(),
            |_| "00".to_string(),
            |_| "0.5".to_string(),
            |_| "1e999".to_string(),
            |_| "9223372036854775808".to_string(),
            |n| format!("\"{n}\""),
            |n| format!("\"0{n}\""),
            |_| "true".to_string(),
            |_| "null".to_string(),
            |_| "[]".to_string(),
        ];
        for (digest, seed, outcome) in edge_records() {
            let line = encode_record(digest, seed, &outcome);
            // every number token, edited every way
            let bytes = line.as_bytes();
            let mut at = 0;
            while at < bytes.len() {
                let starts =
                    bytes[at].is_ascii_digit() && matches!(bytes[at - 1], b':' | b',' | b'[');
                if !starts {
                    at += 1;
                    continue;
                }
                let end = at
                    + bytes[at..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                for edit in edits {
                    let edited = format!("{}{}{}", &line[..at], edit(&line[at..end]), &line[end..]);
                    assert_decodes_like_the_reference(&edited);
                }
                at = end;
            }
            for tail in [
                " ", "\t\r\n ", "\u{a0}", "x", ",", "}", "{}", "[]", "\"\"", "0", "null",
            ] {
                assert_decodes_like_the_reference(&format!("{line}{tail}"));
                assert_decodes_like_the_reference(&format!("{tail}{line}"));
            }
        }
    }

    #[test]
    fn seeds_beyond_i64_survive_the_store_round_trip() {
        // `Value::from(u64)` falls back to f64 above i64::MAX; the record
        // codec must not take that path or huge seeds would be dropped as
        // corrupt on every reopen and recomputed forever.
        let dir = temp_dir("big-seed");
        let huge = u64::MAX - 7;
        let spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        let outcome = Sim::from_spec(&spec).unwrap().run_one(huge);
        assert_eq!(outcome.seed, huge);
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put(3, huge, &outcome).unwrap();
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.dropped_records(), 0);
        assert_eq!(store.get(3, huge), Some(outcome));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_canonical_over_param_order() {
        let a = ScenarioSpec::new("trapdoor", 8, 8, 2)
            .with_protocol_param("epoch_constant", 2.0)
            .with_protocol_param("final_epoch_constant", 6.0);
        let b = ScenarioSpec::new("trapdoor", 8, 8, 2)
            .with_protocol_param("final_epoch_constant", 6.0)
            .with_protocol_param("epoch_constant", 2.0);
        assert_eq!(spec_digest(&a), spec_digest(&b));
        let c = ScenarioSpec::new("trapdoor", 8, 8, 3);
        assert_ne!(spec_digest(&a), spec_digest(&c));
    }

    #[test]
    fn put_get_persist_and_reload() {
        let dir = temp_dir("roundtrip");
        let outcomes = sample_outcomes(4);
        let digest = 0xabcdu64;
        {
            let store = ResultStore::open(&dir).unwrap();
            assert!(store.is_empty());
            for outcome in &outcomes {
                store.put(digest, outcome.seed, outcome).unwrap();
            }
            // idempotent second put
            store.put(digest, outcomes[0].seed, &outcomes[0]).unwrap();
            assert_eq!(store.len(), 4);
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.loaded_records(), 4);
        assert_eq!(store.dropped_records(), 0);
        for outcome in &outcomes {
            assert_eq!(store.get(digest, outcome.seed), Some(outcome.clone()));
            assert!(store.contains(digest, outcome.seed));
        }
        assert_eq!(store.get(digest, 99), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_trailing_newline_is_repaired_even_when_the_line_decodes() {
        // A kill can cut an append exactly before the trailing '\n',
        // leaving a fully decodable line with no newline. The record must
        // survive, and the shard must be rewritten newline-terminated so a
        // later append cannot concatenate onto it.
        let dir = temp_dir("no-newline");
        let outcomes = sample_outcomes(3);
        {
            let store = ResultStore::open(&dir).unwrap();
            for outcome in &outcomes {
                store.put(5, outcome.seed, outcome).unwrap();
            }
        }
        let mut clipped = None;
        for shard in 0..SHARD_COUNT {
            let path = shard_path(&dir, shard);
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            if text.ends_with('\n') && !text.trim().is_empty() {
                fs::write(&path, text.trim_end_matches('\n')).unwrap();
                clipped = Some(path);
                break;
            }
        }
        let clipped = clipped.expect("some shard has records");
        {
            let store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.loaded_records(), 3, "no record may be lost");
            assert_eq!(store.dropped_records(), 0);
        }
        let repaired = fs::read_to_string(&clipped).unwrap();
        assert!(
            repaired.ends_with('\n'),
            "open must restore the shard's trailing newline"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_dropped_and_only_that_trial_is_missing() {
        let dir = temp_dir("torn");
        let outcomes = sample_outcomes(3);
        let digest = 7u64;
        {
            let store = ResultStore::open(&dir).unwrap();
            for outcome in &outcomes {
                store.put(digest, outcome.seed, outcome).unwrap();
            }
        }
        // Tear the final line of one shard in half, as a kill mid-append
        // would. Find a shard holding a record.
        let mut torn_seed = None;
        for shard in 0..SHARD_COUNT {
            let path = shard_path(&dir, shard);
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                continue;
            }
            let last = lines[lines.len() - 1];
            let seed = json::parse(last).unwrap().get("seed").unwrap().as_u64();
            let mut kept: String = lines[..lines.len() - 1].join("\n");
            if !kept.is_empty() {
                kept.push('\n');
            }
            kept.push_str(&last[..last.len() / 2]);
            fs::write(&path, kept).unwrap();
            torn_seed = seed;
            break;
        }
        let torn_seed = torn_seed.expect("at least one shard has a record");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.dropped_records(), 1);
        assert_eq!(store.len(), 2);
        assert!(!store.contains(digest, torn_seed));
        for outcome in &outcomes {
            if outcome.seed != torn_seed {
                assert!(store.contains(digest, outcome.seed));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_drops_a_line_that_is_not_utf8_and_keeps_a_crlf_record_without_its_cr() {
        let dir = temp_dir("line-cases");
        let outcomes = sample_outcomes(3);
        let line = |i: usize| encode_record(43, outcomes[i].seed, &outcomes[i]);
        let mut not_utf8 = line(2).into_bytes();
        let name = b"\"adversary\":\"";
        let at = not_utf8
            .windows(name.len())
            .position(|w| w == name)
            .expect("records name their adversary");
        not_utf8.insert(at + name.len(), 0xff);
        let mut bytes = format!("{}\n{}\r\n", line(0), line(1)).into_bytes();
        bytes.extend_from_slice(&not_utf8);
        bytes.push(b'\n');
        fs::create_dir_all(&dir).unwrap();
        fs::write(shard_path(&dir, 0), &bytes).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.loaded_records(), 2);
        assert_eq!(store.dropped_records(), 1);
        assert_eq!(store.get(43, outcomes[0].seed), Some(outcomes[0].clone()));
        assert_eq!(store.get(43, outcomes[1].seed), Some(outcomes[1].clone()));
        assert!(!store.contains(43, outcomes[2].seed));
        let stats = store.repair_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].shard, stats[0].dropped_lines), (0, 1));
        assert!(!stats[0].torn_tail && stats[0].rewritten);
        assert_eq!(
            fs::read_to_string(shard_path(&dir, 0)).unwrap(),
            format!("{}\n{}\n", line(0), line(1)),
            "the repair drops the line that is not UTF-8 and the record's '\\r'"
        );
        assert!(ResultStore::open(&dir).unwrap().repair_stats().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lines_around_and_between_invalid_bytes_split_at_their_newlines() {
        let dir = temp_dir("utf8-chunks");
        let outcomes = sample_outcomes(2);
        let line = |i: usize| encode_record(53, outcomes[i].seed, &outcomes[i]);
        let mut bytes = b"\xff{\"spec\":1}\n".to_vec();
        bytes.extend_from_slice(format!("{}\n", line(0)).as_bytes());
        // Two invalid sequences in one line, the second cut short.
        bytes.extend_from_slice(b"{\"a\":\"\xc3\x28\",\"b\":\"\xe2\x82\"}\n\xfe\n");
        bytes.extend_from_slice(format!("{}\r\n", line(1)).as_bytes());
        fs::create_dir_all(&dir).unwrap();
        fs::write(shard_path(&dir, 2), &bytes).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!((store.loaded_records(), store.dropped_records()), (2, 3));
        assert_eq!(
            fs::read_to_string(shard_path(&dir, 2)).unwrap(),
            format!("{}\n{}\n", line(0), line(1))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn of_two_records_for_one_key_the_first_wins_on_every_read_path() {
        let dir = temp_dir("first-wins");
        let first = sample_outcomes(1).remove(0);
        let mut second = first.clone();
        second.leaders += 1;
        second.adversary.push_str("-later");
        let digest = 47u64;
        let shard = shard_index(digest, first.seed);
        let refreshing = ResultStore::open_shared(&dir).unwrap();
        append_raw(
            &dir,
            shard,
            format!(
                "{}\n{}\n",
                encode_record(digest, first.seed, &first),
                encode_record(digest, first.seed, &second)
            )
            .as_bytes(),
        );
        assert_eq!(refreshing.refresh_shard(shard).unwrap(), (1, 0));
        assert_eq!(refreshing.get(digest, first.seed), Some(first.clone()));
        let shared = ResultStore::open_shared(&dir).unwrap();
        assert_eq!(shared.get(digest, first.seed), Some(first.clone()));
        let opened = ResultStore::open(&dir).unwrap();
        assert_eq!(opened.get(digest, first.seed), Some(first.clone()));
        assert_eq!((opened.len(), opened.loaded_records()), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Tears the final line of the first non-empty shard in half (as a
    /// kill mid-append would) and returns its shard index.
    fn tear_one_shard(dir: &Path) -> usize {
        for shard in 0..SHARD_COUNT {
            let path = shard_path(dir, shard);
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                continue;
            }
            let last = lines[lines.len() - 1];
            let mut kept: String = lines[..lines.len() - 1].join("\n");
            if !kept.is_empty() {
                kept.push('\n');
            }
            kept.push_str(&last[..last.len() / 2]);
            fs::write(&path, kept).unwrap();
            return shard;
        }
        panic!("no shard has records");
    }

    #[test]
    fn repair_stats_name_the_damaged_shard() {
        let dir = temp_dir("repair-stats");
        let outcomes = sample_outcomes(4);
        {
            let store = ResultStore::open(&dir).unwrap();
            for outcome in &outcomes {
                store.put(11, outcome.seed, outcome).unwrap();
            }
        }
        let torn = tear_one_shard(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let stats = store.repair_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].shard, torn);
        assert_eq!(stats[0].path, shard_path(&dir, torn));
        assert_eq!(stats[0].dropped_lines, 1);
        assert!(stats[0].torn_tail);
        assert!(stats[0].rewritten);
        // The eager repair leaves nothing for the next open to report.
        let clean = ResultStore::open(&dir).unwrap();
        assert!(clean.repair_stats().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_shared_loads_records_but_never_rewrites() {
        let dir = temp_dir("shared-open");
        let outcomes = sample_outcomes(4);
        {
            let store = ResultStore::open(&dir).unwrap();
            for outcome in &outcomes {
                store.put(13, outcome.seed, outcome).unwrap();
            }
        }
        let torn = tear_one_shard(&dir);
        let damaged = fs::read_to_string(shard_path(&dir, torn)).unwrap();
        let store = ResultStore::open_shared(&dir).unwrap();
        assert_eq!(store.len(), 3, "good records still load");
        assert_eq!(store.dropped_records(), 1);
        let stats = store.repair_stats();
        assert_eq!(stats.len(), 1);
        assert!(!stats[0].rewritten);
        assert_eq!(
            fs::read_to_string(shard_path(&dir, torn)).unwrap(),
            damaged,
            "open_shared must leave the shard file byte-for-byte untouched"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_shard_fixes_exactly_one_shard_and_later_puts_land_cleanly() {
        let dir = temp_dir("repair-one");
        let outcomes = sample_outcomes(6);
        let digest = 17u64;
        {
            let store = ResultStore::open(&dir).unwrap();
            for outcome in &outcomes {
                store.put(digest, outcome.seed, outcome).unwrap();
            }
        }
        let torn = tear_one_shard(&dir);
        let store = ResultStore::open_shared(&dir).unwrap();
        let before = store.len();
        let repair = store.repair_shard(torn).unwrap();
        assert_eq!(repair.shard, torn);
        assert_eq!(repair.dropped_lines, 1);
        assert!(repair.torn_tail);
        assert!(repair.rewritten);
        let repaired = fs::read_to_string(shard_path(&dir, torn)).unwrap();
        assert!(repaired.is_empty() || repaired.ends_with('\n'));
        // The torn trial is gone from disk; re-putting it must reopen the
        // repaired inode (the cached handle was invalidated) and append a
        // clean line that the next open decodes.
        let missing: Vec<&SyncOutcome> = outcomes
            .iter()
            .filter(|o| !store.contains(digest, o.seed))
            .collect();
        assert_eq!(missing.len(), outcomes.len() - before);
        for outcome in missing {
            store.put(digest, outcome.seed, outcome).unwrap();
        }
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.dropped_records(), 0);
        assert_eq!(reopened.len(), outcomes.len());
        // Repairing a healthy or absent shard is a no-op that reports so.
        let noop = store.repair_shard(torn).unwrap();
        assert_eq!(noop.dropped_lines, 0);
        assert!(!noop.torn_tail);
        assert!(!noop.rewritten);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_shard_merges_records_appended_by_another_instance() {
        let dir = temp_dir("refresh");
        let outcomes = sample_outcomes(5);
        let digest = 19u64;
        let reader = ResultStore::open(&dir).unwrap();
        let writer = ResultStore::open_shared(&dir).unwrap();
        for outcome in &outcomes {
            writer.put(digest, outcome.seed, outcome).unwrap();
        }
        assert!(reader.is_empty(), "reader has not refreshed yet");
        let mut merged_total = 0;
        for shard in 0..SHARD_COUNT {
            let (merged, dropped) = reader.refresh_shard(shard).unwrap();
            merged_total += merged;
            assert_eq!(dropped, 0);
        }
        assert_eq!(merged_total, outcomes.len());
        for outcome in &outcomes {
            assert_eq!(reader.get(digest, outcome.seed), Some(outcome.clone()));
        }
        // A second refresh merges nothing new.
        for shard in 0..SHARD_COUNT {
            assert_eq!(reader.refresh_shard(shard).unwrap().0, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Appends raw bytes to a shard file, as another writer would.
    fn append_raw(dir: &Path, shard: usize, bytes: &[u8]) {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(shard_path(dir, shard))
            .unwrap()
            .write_all(bytes)
            .unwrap();
    }

    #[test]
    fn repair_drops_the_append_handle_even_when_a_peer_already_rewrote_the_shard() {
        // A peer's repair replaces the shard file. An instance whose own
        // repair then finds the shard clean must still reopen it by path,
        // or its next put lands in the orphaned file: acknowledged and in
        // its index, but lost on disk.
        let dir = temp_dir("orphan");
        let digest = 23u64;
        let outcomes = sample_outcomes(32);
        let first = &outcomes[0];
        let shard = shard_index(digest, first.seed);
        let second = outcomes[1..]
            .iter()
            .find(|o| shard_index(digest, o.seed) == shard)
            .expect("a second seed in the same shard");
        let a = ResultStore::open_shared(&dir).unwrap();
        let b = ResultStore::open_shared(&dir).unwrap();
        a.put(digest, first.seed, first).unwrap();
        // A killed writer leaves a torn tail on the shard.
        let line = encode_record(digest, second.seed, second);
        append_raw(&dir, shard, &line.as_bytes()[..line.len() / 2]);
        assert!(b.repair_shard(shard).unwrap().rewritten);
        let clean = a.repair_shard(shard).unwrap();
        assert_eq!(
            (clean.dropped_lines, clean.torn_tail, clean.rewritten),
            (0, false, false),
            "the peer already repaired the shard"
        );
        a.put(digest, second.seed, second).unwrap();
        assert!(a.contains(digest, second.seed));
        let reopened = ResultStore::open(&dir).unwrap();
        assert!(
            reopened.contains(digest, second.seed),
            "the put must land in the live shard file, not the orphaned one"
        );
        assert_eq!(reopened.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_resume_at_the_cursor_and_decode_each_appended_line_once() {
        let dir = temp_dir("cursor");
        let digest = 29u64;
        let outcomes = sample_outcomes(12);
        let reader = ResultStore::open_shared(&dir).unwrap();
        let writer = ResultStore::open_shared(&dir).unwrap();
        let refresh_all = |store: &ResultStore| -> usize {
            (0..SHARD_COUNT)
                .map(|shard| store.refresh_shard(shard).unwrap().0)
                .sum()
        };
        for outcome in &outcomes[..6] {
            writer.put(digest, outcome.seed, outcome).unwrap();
        }
        assert_eq!(refresh_all(&reader), 6);
        assert_eq!(reader.lines_decoded(), 6);
        for outcome in &outcomes[6..] {
            writer.put(digest, outcome.seed, outcome).unwrap();
        }
        assert_eq!(refresh_all(&reader), 6);
        for shard in 0..SHARD_COUNT {
            assert!(!reader.repair_shard(shard).unwrap().rewritten);
        }
        assert_eq!(reader.lines_decoded(), 12, "each line is decoded once");
        // The writer's own puts moved its cursor: it reads nothing back.
        assert_eq!(refresh_all(&writer), 0);
        for shard in 0..SHARD_COUNT {
            writer.repair_shard(shard).unwrap();
        }
        assert_eq!(writer.lines_decoded(), 0);

        // A corrupt line falls back to full scans until a repair purges it.
        let shard = shard_index(digest, outcomes[0].seed);
        append_raw(&dir, shard, b"{\"not\":\"a record\"}\n");
        assert_eq!(reader.refresh_shard(shard).unwrap(), (0, 1));
        let lines = fs::read_to_string(shard_path(&dir, shard))
            .unwrap()
            .lines()
            .count() as u64;
        let before = reader.lines_decoded();
        assert_eq!(reader.refresh_shard(shard).unwrap(), (0, 1));
        assert_eq!(reader.lines_decoded() - before, lines, "a full rescan");
        let repair = reader.repair_shard(shard).unwrap();
        assert_eq!((repair.dropped_lines, repair.rewritten), (1, true));
        let before = reader.lines_decoded();
        assert_eq!(reader.refresh_shard(shard).unwrap(), (0, 0));
        assert_eq!(reader.lines_decoded(), before, "clean again after repair");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_replaced_by_a_shorter_file_is_rescanned_from_the_start() {
        let dir = temp_dir("shorter");
        let digest = 37u64;
        let outcomes = sample_outcomes(16);
        let shard = shard_index(digest, outcomes[0].seed);
        let (home, other): (Vec<&SyncOutcome>, Vec<&SyncOutcome>) = outcomes
            .iter()
            .partition(|o| shard_index(digest, o.seed) == shard);
        let reader = ResultStore::open_shared(&dir).unwrap();
        for outcome in &home {
            ResultStore::open_shared(&dir)
                .unwrap()
                .put(digest, outcome.seed, outcome)
                .unwrap();
        }
        reader.refresh_shard(shard).unwrap();
        // The shard file is swapped for one holding a single record of a
        // different spec, shorter than the reader's cursor.
        let newcomer = other[0];
        let line = encode_record(digest + 1, newcomer.seed, newcomer) + "\n";
        fs::write(dir.join("swap.tmp"), &line).unwrap();
        fs::rename(dir.join("swap.tmp"), shard_path(&dir, shard)).unwrap();
        assert_eq!(reader.refresh_shard(shard).unwrap(), (1, 0));
        assert!(reader.contains(digest + 1, newcomer.seed));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_leaves_an_unterminated_final_line_for_a_later_pass() {
        // Bytes after the last newline may be an append still in flight:
        // refresh neither merges nor drops them until the newline lands.
        let dir = temp_dir("in-flight");
        let outcome = sample_outcomes(1).remove(0);
        let digest = 31u64;
        let shard = shard_index(digest, outcome.seed);
        let store = ResultStore::open_shared(&dir).unwrap();
        let line = encode_record(digest, outcome.seed, &outcome);
        let (head, rest) = line.as_bytes().split_at(line.len() / 2);
        append_raw(&dir, shard, head);
        assert_eq!(store.refresh_shard(shard).unwrap(), (0, 0));
        assert!(!store.contains(digest, outcome.seed));
        append_raw(&dir, shard, rest);
        assert_eq!(store.refresh_shard(shard).unwrap(), (0, 0));
        append_raw(&dir, shard, b"\n");
        assert_eq!(store.refresh_shard(shard).unwrap(), (1, 0));
        assert_eq!(store.get(digest, outcome.seed), Some(outcome));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failure_names_the_shard_path_and_trial_key() {
        let dir = temp_dir("append-error");
        let store = ResultStore::open(&dir).unwrap();
        let outcome = sample_outcomes(1).remove(0);
        let digest = 0x0123_4567_89ab_cdefu64;
        let seed = outcome.seed;
        // Replace the responsible shard file with a directory so the
        // append's open fails.
        let shard = shard_index(digest, seed);
        let path = shard_path(&dir, shard);
        fs::create_dir_all(&path).unwrap();
        let err = store.put(digest, seed, &outcome).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains(&path.display().to_string()),
            "error must name the shard path, got: {message}"
        );
        assert!(
            message.contains(&format!("{digest:016x}")),
            "error must name the spec digest, got: {message}"
        );
        assert!(
            message.contains(&format!("seed {seed}")),
            "error must name the seed, got: {message}"
        );
        assert!(std::error::Error::source(&err).is_some());
        // The failed trial is not stored: a retry writes its line.
        assert!(!store.contains(digest, seed));
        fs::remove_dir(&path).unwrap();
        store.put(digest, seed, &outcome).unwrap();
        assert!(store.contains(digest, seed));
        assert_eq!(
            ResultStore::open(&dir).unwrap().get(digest, seed),
            Some(outcome)
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
