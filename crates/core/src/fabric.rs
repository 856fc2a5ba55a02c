//! The multi-process sweep fabric: shard-level leases over a shared
//! [`ResultStore`] directory.
//!
//! A sweep's trials are a pure function of `(spec digest, seed)`, and the
//! store already routes every record to one of [`SHARD_COUNT`] JSONL
//! shards by [`shard_index`]. The fabric turns that routing into a work
//! partition: a **worker process claims one shard at a time via a lease
//! file next to the shard** (`shard-NN.lease`), becomes that shard's only
//! writer, executes exactly the trials whose `(digest, seed)` map to it,
//! and releases the lease when the shard holds every one of them. N
//! independent OS processes pointed at the same store directory therefore
//! drain the same [`SweepSpec`] without ever duplicating work or
//! interleaving appends within a shard file.
//!
//! The lease protocol is built from three filesystem primitives that are
//! atomic on every platform the workspace targets:
//!
//! * **Claim** — `O_CREAT|O_EXCL` (`create_new`): exactly one process
//!   creates the lease file; everyone else sees `AlreadyExists`.
//! * **Heartbeat** — overwriting the lease body in place, through the
//!   handle the claim created, bumps a monotonically increasing **beat
//!   counter** stored *in the file*. The body is fixed-width (the compact
//!   JSON stamp padded with spaces), so no heartbeat truncates the file,
//!   and the lease is still ours only while the path holds exactly the
//!   bytes we last wrote. A lease is *stale* only when a reclaimer has
//!   watched its `(holder, beat)` stamp stay frozen across a full TTL
//!   measured on the reclaimer's own monotonic clock (see
//!   [`LeaseWatch`]): the holder is
//!   then presumed dead (`kill -9`, OOM, power loss). File mtimes are
//!   never consulted — on shared filesystems (NFS and friends) mtimes
//!   come from *another machine's* clock, and skew would make a live
//!   lease look hours old (or a dead one perpetually fresh).
//! * **Reclaim** — `rename` of the stale lease to a tombstone: of any
//!   number of racing reclaimers exactly one rename succeeds, and the
//!   losers observe `NotFound`. The winner deletes the tombstone and the
//!   shard becomes claimable again.
//!
//! Crashes need no cleanup pass: a dead worker's shard is left exactly as
//! a killed `--out` run leaves a store — complete lines plus at most one
//! torn tail — and the next holder repairs it under the lease (see
//! [`ResultStore::repair_shard`]) before appending. The orchestrating
//! parent finishes with an ordinary single-process resume pass, which
//! also produces the run's aggregates, so the final stdout and the sorted
//! shard bytes are identical to a 1-process run no matter how many
//! workers ran or died.
//!
//! Leases are the only coordination files. An adaptive sweep's stop
//! verdicts are never exchanged: every worker derives them from the
//! stored outcomes (see [`run_worker`]), so once every lease is released
//! the store directory holds nothing but shard files.
//!
//! Clock time appears in exactly one decision — "is this lease's holder
//! still alive?" — and even there only the *local, monotonic* clock is
//! read, confined to the private `clock` boundary module; no simulated
//! quantity ever depends on it, and no cross-machine timestamp is ever
//! compared.

use std::fmt::{self, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::json::{self, Value};
use crate::sim::Sim;
use crate::spec::{SpecError, SweepSpec};
use crate::store::{fnv1a, shard_index, ResultStore, StoreError, SHARD_COUNT};
use crate::sweep::{BatchSchedule, StopReason};

/// The fabric's clock boundary. Lease staleness is the one decision in
/// the workspace that is *inherently* time-based: it measures whether
/// another OS process is still alive, not anything about simulated
/// executions — trials themselves remain pure functions of
/// `(spec digest, seed)` regardless of what this module observes. Only
/// the local **monotonic** clock is read here: staleness compares two
/// readings of *this process's* clock against the TTL, never a file
/// timestamp written by a possibly skewed peer machine.
mod clock {
    use std::time::Duration;
    // lint:allow(wall-clock): lease staleness measures OS-process liveness (dead holders), not simulated time; confined to this boundary module
    use std::time::Instant;

    /// An opaque reading of the local monotonic clock.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    // lint:allow(wall-clock): the opaque wrapper that keeps raw readings from leaking out of this module
    pub struct Monotonic(Instant);

    /// The current local monotonic time.
    pub fn now() -> Monotonic {
        // lint:allow(wall-clock): the single sanctioned clock read; monotonic and local by construction, see module docs
        Monotonic(Instant::now())
    }

    impl Monotonic {
        /// Time elapsed between `earlier` and `self` (zero if `earlier`
        /// is not actually earlier).
        pub(super) fn since(self, earlier: Monotonic) -> Duration {
            self.0.saturating_duration_since(earlier.0)
        }
    }
}

/// An error raised by fabric orchestration: spec expansion, store I/O, or
/// the lease files themselves.
#[derive(Debug)]
pub enum FabricError {
    /// Expanding or validating the sweep failed.
    Spec(SpecError),
    /// Reading from or appending to the result store failed.
    Store(StoreError),
    /// Creating, refreshing, or releasing a lease file failed.
    Lease {
        /// The lease (or tombstone) file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Spec(e) => write!(f, "{e}"),
            FabricError::Store(e) => write!(f, "{e}"),
            FabricError::Lease { path, source } => {
                write!(f, "fabric lease error at {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Spec(e) => Some(e),
            FabricError::Store(e) => Some(e),
            FabricError::Lease { source, .. } => Some(source),
        }
    }
}

impl From<SpecError> for FabricError {
    fn from(e: SpecError) -> Self {
        FabricError::Spec(e)
    }
}

impl From<StoreError> for FabricError {
    fn from(e: StoreError) -> Self {
        FabricError::Store(e)
    }
}

/// How a fabric worker identifies itself and judges its peers.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// This worker's identity, written into every lease it holds. Must be
    /// unique among concurrently running workers (the orchestrator uses
    /// `"<pid>"` or `"worker-<k>"`).
    pub holder: String,
    /// A lease whose beat counter has not advanced for this long — as
    /// observed on *this worker's* monotonic clock via [`LeaseWatch`] —
    /// is stale and may be reclaimed. A *live* worker heartbeats before
    /// every append, so this must comfortably exceed the longest gap
    /// between two heartbeats plus scheduler noise: the slowest single
    /// trial, or the claim's [`ResultStore::repair_shard`], which decodes
    /// only what peers appended since this worker's last scan of the
    /// shard (the whole shard only after a crash or a corrupt line).
    pub lease_ttl: Duration,
}

/// How long a worker sleeps between passes when every remaining shard is
/// held by a live peer.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

impl FabricConfig {
    /// A config with the default TTL (30 s).
    pub fn new(holder: impl Into<String>) -> Self {
        FabricConfig {
            holder: holder.into(),
            lease_ttl: Duration::from_secs(30),
        }
    }

    /// Overrides the stale-lease TTL.
    pub fn lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = ttl;
        self
    }
}

/// One observable step of a worker's run, for progress reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The worker claimed a shard's lease and is now its only writer.
    ShardClaimed {
        /// The claimed shard.
        shard: usize,
    },
    /// The worker finished a shard: every trial mapped to it is stored.
    ShardComplete {
        /// The finished shard.
        shard: usize,
        /// Trials this worker executed for the shard.
        executed: u64,
        /// Trials already stored when the worker got there.
        cached: u64,
    },
    /// The worker reclaimed a stale lease left by a dead peer.
    LeaseReclaimed {
        /// The reclaimed shard.
        shard: usize,
        /// The dead peer's holder identity (`"?"` if unreadable).
        holder: String,
    },
    /// The worker's own lease disappeared mid-shard (reclaimed after a
    /// stall longer than the TTL); it abandoned the shard immediately.
    LeaseLost {
        /// The abandoned shard.
        shard: usize,
    },
    /// An adaptive sweep's grid point stopped sampling early: this worker
    /// derived the verdict at a batch boundary from the stored outcomes,
    /// as every peer does. Emitted at most once per point per worker.
    PointStopped {
        /// The stopped grid point (expansion index).
        point: usize,
        /// Seeds the point consumed before stopping.
        seeds_used: u64,
        /// Why the point stopped.
        reason: StopReason,
    },
}

/// What one worker did over its whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases successfully claimed.
    pub shards_claimed: u64,
    /// Trials executed by this worker.
    pub trials_executed: u64,
    /// Trials found already stored while working claimed shards.
    pub trials_cached: u64,
    /// Stale leases reclaimed from dead peers.
    pub leases_reclaimed: u64,
    /// Own leases lost mid-shard.
    pub leases_lost: u64,
    /// Idle passes slept through while peers held incomplete shards.
    pub idle_passes: u64,
    /// Adaptive grid points this worker saw stop early.
    pub points_stopped: u64,
    /// Shard lines decoded while watching and repairing shards
    /// (`ResultStore::lines_decoded`; the store's initial open is not
    /// counted). Each line a peer appended is decoded at most once, so a
    /// solo worker on a fresh store decodes none; only a crash or a
    /// corrupt line forces a whole shard to be read again.
    pub records_decoded: u64,
}

/// A held shard lease. Holding it makes this process the shard's only
/// writer until [`release`](Lease::release) or until the file goes stale
/// and a peer reclaims it.
#[derive(Debug)]
struct Lease {
    path: PathBuf,
    /// The handle the claim created the file through; heartbeats
    /// overwrite the body through it, in place.
    file: File,
    shard: usize,
    holder: String,
    beat: u64,
    /// The body this lease last wrote: the lease is still ours exactly
    /// while the path holds these bytes. Each heartbeat rewrites it in
    /// place.
    body: String,
}

impl Lease {
    /// Bumps the lease's beat counter. Returns `false` if the lease is no
    /// longer ours — the path is gone or holds other bytes than the body
    /// we last wrote, meaning a peer reclaimed it after we stalled past
    /// the TTL — in which case the caller must abandon the shard without
    /// appending another record.
    ///
    /// The verify-then-write pair is not atomic, but the write goes
    /// through the handle the claim created: if a peer reclaims the lease
    /// in between, the write lands in the orphaned file, never in the
    /// peer's new lease, and the next heartbeat reports the loss.
    fn heartbeat(&mut self) -> Result<bool, FabricError> {
        if !self.still_ours()? {
            return Ok(false);
        }
        self.beat += 1;
        lease_body(self.shard, &self.holder, self.beat, &mut self.body);
        self.file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.write_all(self.body.as_bytes()))
            .map_err(|source| FabricError::Lease {
                path: self.path.clone(),
                source,
            })?;
        Ok(true)
    }

    /// Whether the lease file still holds exactly the body this lease
    /// last wrote.
    fn still_ours(&self) -> Result<bool, FabricError> {
        match fs::read(&self.path) {
            Ok(bytes) => Ok(bytes == self.body.as_bytes()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(source) => Err(FabricError::Lease {
                path: self.path.clone(),
                source,
            }),
        }
    }

    /// Removes the lease file, surrendering the shard. A no-op if the
    /// lease was already reclaimed by a peer.
    fn release(self) -> Result<(), FabricError> {
        if !self.still_ours()? {
            return Ok(());
        }
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(source) => Err(FabricError::Lease {
                path: self.path,
                source,
            }),
        }
    }
}

/// The lease file guarding `shard` in `dir`.
pub fn lease_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:02}.lease"))
}

/// Digits of the widest beat counter a lease body holds (`i64::MAX`).
const BEAT_DIGITS: usize = 19;

/// Writes a lease body over `body`: the compact JSON stamp
/// `{"shard":…,"holder":…,"beat":…}`, padded with spaces to a width that
/// no beat counter changes, so a heartbeat overwrites it in place. Every
/// reader trims, so padded bodies and unpadded ones (written by older
/// workers) read alike.
fn lease_body(shard: usize, holder: &str, beat: u64, body: &mut String) {
    body.clear();
    let _ = write!(body, "{{\"shard\":{shard},\"holder\":");
    json::write_string(holder, body);
    let _ = write!(body, ",\"beat\":{beat}}}");
    let digits = beat.checked_ilog10().map_or(1, |d| d as usize + 1);
    body.extend(std::iter::repeat(' ').take(BEAT_DIGITS.saturating_sub(digits)));
    body.push('\n');
}

/// The identity stamp of a lease body: who holds it and how many
/// heartbeats they have written. Any change to the stamp — a new beat, a
/// new holder, even a previously unreadable body becoming readable —
/// proves the holder side is alive, so staleness is judged on stamp
/// *freezes*, never on file timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LeaseStamp {
    holder: Option<String>,
    beat: Option<u64>,
}

impl LeaseStamp {
    /// Parses the stamp out of a lease body. Unparseable bodies (a claim
    /// that died between create and write) yield a `None`/`None` stamp,
    /// which is as frozen as any other: staleness still reclaims them
    /// after a full TTL window.
    fn parse(text: &str) -> Self {
        let value = json::parse(text.trim()).ok();
        LeaseStamp {
            holder: value
                .as_ref()
                .and_then(|v| v.get("holder"))
                .and_then(Value::as_str)
                .map(str::to_string),
            beat: value
                .as_ref()
                .and_then(|v| v.get("beat"))
                .and_then(Value::as_u64),
        }
    }
}

/// A reclaimer's local memory of the lease stamps it has observed, keyed
/// by shard: the last `LeaseStamp` seen and the monotonic instant at
/// which that exact stamp was *first* seen.
///
/// This is what makes staleness clock-skew-proof: a lease is declared
/// stale only when its stamp has stayed frozen for a full TTL measured
/// between two reads of the *local* monotonic clock. Nothing about the
/// lease file's mtime — which on a shared filesystem is another
/// machine's opinion of the time — ever enters the decision, and a
/// reclaimer fresh off its own start-up can never reclaim anything
/// before it has personally watched a lease for one full TTL.
#[derive(Debug, Default)]
pub struct LeaseWatch {
    seen: std::collections::BTreeMap<usize, (LeaseStamp, clock::Monotonic)>,
}

impl LeaseWatch {
    /// A watch with no observations yet.
    pub fn new() -> Self {
        LeaseWatch::default()
    }

    /// Drops any observation for `shard` (the lease vanished or was
    /// reclaimed; the next lease there starts a fresh window).
    fn forget(&mut self, shard: usize) {
        self.seen.remove(&shard);
    }

    /// Records `stamp` for `shard` and returns how long this exact stamp
    /// has been continuously observed. A changed (or first-seen) stamp
    /// restarts the window at zero.
    fn observe(&mut self, shard: usize, stamp: LeaseStamp) -> Duration {
        let now = clock::now();
        match self.seen.get_mut(&shard) {
            Some((seen, since)) if *seen == stamp => now.since(*since),
            Some(entry) => {
                *entry = (stamp, now);
                Duration::ZERO
            }
            None => {
                self.seen.insert(shard, (stamp, now));
                Duration::ZERO
            }
        }
    }
}

/// Attempts to claim `shard`'s lease. `Ok(None)` means someone else holds
/// it (fresh or stale — the caller decides whether to reclaim).
fn try_claim(dir: &Path, shard: usize, holder: &str) -> Result<Option<Lease>, FabricError> {
    let path = lease_path(dir, shard);
    match OpenOptions::new().write(true).create_new(true).open(&path) {
        Ok(mut file) => {
            let mut body = String::new();
            lease_body(shard, holder, 0, &mut body);
            file.write_all(body.as_bytes())
                .map_err(|source| FabricError::Lease {
                    path: path.clone(),
                    source,
                })?;
            Ok(Some(Lease {
                path,
                file,
                shard,
                holder: holder.to_string(),
                beat: 0,
                body,
            }))
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
        Err(source) => Err(FabricError::Lease { path, source }),
    }
}

/// If `shard`'s lease is stale — its `(holder, beat)` stamp has stayed
/// frozen across a full `ttl` window as observed through `watch` on the
/// local monotonic clock — renames it to a tombstone (an atomic race
/// that exactly one reclaimer wins) and removes the tombstone, freeing
/// the shard for a fresh claim. Returns the dead holder's identity on
/// success, `Ok(None)` if the lease is live (its beat advanced, or this
/// watch has not yet observed it for a full TTL), vanished, or lost the
/// rename race.
fn reclaim_if_stale(
    dir: &Path,
    shard: usize,
    holder: &str,
    ttl: Duration,
    watch: &mut LeaseWatch,
) -> Result<Option<String>, FabricError> {
    let path = lease_path(dir, shard);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            watch.forget(shard);
            return Ok(None);
        }
        Err(source) => return Err(FabricError::Lease { path, source }),
    };
    let stamp = LeaseStamp::parse(&text);
    let prior = stamp.holder.clone().unwrap_or_else(|| "?".to_string());
    if watch.observe(shard, stamp) < ttl {
        return Ok(None);
    }
    // The tombstone name is derived from the *reclaimer*, so racing
    // reclaimers target distinct names and the rename itself is the
    // arbiter: the source file disappears for everyone but the winner.
    let tomb = dir.join(format!(
        ".shard-{shard:02}.lease.tomb-{:016x}",
        fnv1a(holder.as_bytes())
    ));
    match fs::rename(&path, &tomb) {
        Ok(()) => {
            let _ = fs::remove_file(&tomb);
            watch.forget(shard);
            Ok(Some(prior))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            watch.forget(shard);
            Ok(None)
        }
        Err(source) => Err(FabricError::Lease { path, source }),
    }
}

/// Removes every lease and tombstone file under `dir`, returning how many
/// were removed. For the orchestrating parent **after all workers have
/// exited**: crashed workers leave lease files behind, and the final
/// single-process resume pass should start from a clean directory.
pub fn clean_leases(dir: impl AsRef<Path>) -> Result<usize, FabricError> {
    let dir = dir.as_ref();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(source) => {
            return Err(FabricError::Lease {
                path: dir.to_path_buf(),
                source,
            })
        }
    };
    let mut removed = 0;
    for entry in entries {
        let entry = entry.map_err(|source| FabricError::Lease {
            path: dir.to_path_buf(),
            source,
        })?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_lease = name.starts_with("shard-") && name.ends_with(".lease");
        let is_tomb = name.starts_with(".shard-") && name.contains(".lease.tomb-");
        if is_lease || is_tomb {
            match fs::remove_file(entry.path()) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(source) => {
                    return Err(FabricError::Lease {
                        path: entry.path(),
                        source,
                    })
                }
            }
        }
    }
    Ok(removed)
}

/// Runs one fabric worker to completion: claims shards of `store_dir` one
/// at a time, executes every trial of `sweep` that maps to a claimed
/// shard and is not already stored, and returns once **every** shard of
/// the sweep is complete — whether this worker or its peers finished
/// them. Emits [`WorkerEvent`]s through `on_event` as it goes.
///
/// The worker is crash-equivalent to a killed `--out` run: at any instant
/// its claimed shard holds only complete, decodable lines plus at most
/// one torn tail, so `--resume` (or the next lease holder) continues
/// exactly as if a single-process sweep had been interrupted.
///
/// Workers scan shards starting at an offset derived from their holder
/// identity, so concurrent workers spread over different shards instead
/// of convoying on shard 0.
///
/// The worker drives the same batch schedule as the in-process
/// [`SweepRunner`](crate::sweep::SweepRunner), one *phase* per window:
/// each phase drains its window through the lease protocol. A fixed-count
/// sweep is one phase over the whole seed range. A sweep that declares a
/// [`StoppingRule`](crate::sweep::StoppingRule) runs phase-locked seed
/// batches: after each drain every worker folds the newly stored window,
/// in seed order, into per-point folds it keeps across phases, and
/// applies [`StoppingRule::decide_batch`](crate::sweep::StoppingRule::decide_batch)
/// — the same pure decision the in-process runner uses, over the same
/// bytes, so all processes derive identical verdicts independently. A
/// worker derives every verdict before it asks for the next window, so
/// trials past a stopped point's boundary are never scheduled (a
/// late-starting worker finds the windows before the boundary stored and
/// reaches the same verdict without executing them), and the final sorted
/// shard bytes are identical to a single-process run.
pub fn run_worker<F>(
    store_dir: impl AsRef<Path>,
    sweep: &SweepSpec,
    config: &FabricConfig,
    mut on_event: F,
) -> Result<WorkerSummary, FabricError>
where
    F: FnMut(&WorkerEvent),
{
    let dir = store_dir.as_ref();
    let store = ResultStore::open_shared(dir)?;
    let seeds = sweep.effective_seeds()?;
    let sims: Vec<Sim> = sweep
        .expand()?
        .iter()
        .map(|point| Sim::from_spec(&point.spec))
        .collect::<Result<_, SpecError>>()?;
    let digests: Vec<u64> = sims.iter().map(Sim::digest).collect();

    let mut summary = WorkerSummary::default();
    // This worker's private view of peer lease stamps: a peer's lease is
    // only ever reclaimed after *this* process has watched its beat
    // counter stay frozen for a full TTL on its own monotonic clock.
    let mut watch = LeaseWatch::new();
    let mut schedule = BatchSchedule::new(sims.len(), seeds, sweep.stop.as_ref());
    while let Some(window) = schedule.next_window() {
        // Partition the window's trials by their store shard: the shard is
        // the fabric's unit of work, and the holder of its lease executes
        // exactly the trials routed to it (in deterministic point-major
        // order).
        let mut by_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); SHARD_COUNT];
        for &point in &window.points {
            for seed in window.seeds.clone() {
                by_shard[shard_index(digests[point], seed)].push((point, seed));
            }
        }
        drain_shards(
            dir,
            &store,
            &sims,
            &digests,
            &by_shard,
            config,
            &mut watch,
            &mut summary,
            &mut on_event,
        )?;
        // The window is now stored by whoever drained it: every process
        // folds the same bytes in the same order.
        schedule.fold_stored(&window, |point, seed| store.get(digests[point], seed));
        for point in schedule.close(&window) {
            if let Some((reason, seeds_used)) = schedule.verdict(point) {
                summary.points_stopped += 1;
                on_event(&WorkerEvent::PointStopped {
                    point,
                    seeds_used,
                    reason,
                });
            }
        }
    }
    summary.records_decoded = store.lines_decoded();
    Ok(summary)
}

/// Drains one shard-partitioned work list to completion under the lease
/// protocol: the pass-claim-execute-release loop behind every phase of
/// [`run_worker`]. Returns once every listed trial is stored.
#[allow(clippy::too_many_arguments)]
fn drain_shards<F>(
    dir: &Path,
    store: &ResultStore,
    sims: &[Sim],
    digests: &[u64],
    by_shard: &[Vec<(usize, u64)>],
    config: &FabricConfig,
    watch: &mut LeaseWatch,
    summary: &mut WorkerSummary,
    on_event: &mut F,
) -> Result<(), FabricError>
where
    F: FnMut(&WorkerEvent),
{
    let start = (fnv1a(config.holder.as_bytes()) % SHARD_COUNT as u64) as usize;
    let mut done: Vec<bool> = by_shard.iter().map(Vec::is_empty).collect();
    loop {
        let mut progress = false;
        for offset in 0..SHARD_COUNT {
            let shard = (start + offset) % SHARD_COUNT;
            if done[shard] {
                continue;
            }
            // A peer may have completed the shard since we last looked:
            // merge its appends and skip the shard if nothing is missing.
            store.refresh_shard(shard)?;
            if by_shard[shard]
                .iter()
                .all(|&(point, seed)| store.contains(digests[point], seed))
            {
                done[shard] = true;
                progress = true;
                continue;
            }
            match try_claim(dir, shard, &config.holder)? {
                Some(mut lease) => {
                    summary.shards_claimed += 1;
                    on_event(&WorkerEvent::ShardClaimed { shard });
                    // Single writer now: repair a dead predecessor's torn
                    // tail before appending (also merges its good records
                    // into our index, so they count as cached below).
                    store.repair_shard(shard)?;
                    let mut executed = 0u64;
                    let mut cached = 0u64;
                    let mut lost = false;
                    for &(point, seed) in &by_shard[shard] {
                        if store.contains(digests[point], seed) {
                            cached += 1;
                            continue;
                        }
                        // Heartbeat *before* every append: if the lease
                        // was reclaimed (we stalled past the TTL), the new
                        // holder may already be appending — stop instantly.
                        if !lease.heartbeat()? {
                            lost = true;
                            break;
                        }
                        let outcome = sims[point].run_one(seed);
                        store.put(digests[point], seed, &outcome)?;
                        executed += 1;
                    }
                    summary.trials_executed += executed;
                    summary.trials_cached += cached;
                    if lost {
                        summary.leases_lost += 1;
                        on_event(&WorkerEvent::LeaseLost { shard });
                        // The reclaimer owns the lease file; leave it be.
                    } else {
                        done[shard] = true;
                        progress = true;
                        lease.release()?;
                        on_event(&WorkerEvent::ShardComplete {
                            shard,
                            executed,
                            cached,
                        });
                    }
                }
                None => {
                    if let Some(holder) =
                        reclaim_if_stale(dir, shard, &config.holder, config.lease_ttl, watch)?
                    {
                        summary.leases_reclaimed += 1;
                        progress = true;
                        on_event(&WorkerEvent::LeaseReclaimed { shard, holder });
                        // Claimable again; the next pass races for it.
                    }
                }
            }
        }
        if done.iter().all(|&d| d) {
            return Ok(());
        }
        if !progress {
            // Every remaining shard is held by a live peer: it either
            // finishes (the shard completes) or dies (its lease goes
            // stale and is reclaimed), so this loop terminates.
            summary.idle_passes += 1;
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use crate::store::spec_digest;

    /// The holder recorded in a lease file's body, if it parses.
    fn lease_holder(text: &str) -> Option<String> {
        let value = json::parse(text.trim()).ok()?;
        Some(value.get("holder")?.as_str()?.to_string())
    }

    /// Reads the holder of `shard`'s lease in `dir`: `Ok(None)` if no lease
    /// file exists, `"?"` if one exists but is unreadable (e.g. a claim that
    /// died between create and write).
    fn read_lease(dir: &Path, shard: usize) -> Result<Option<String>, FabricError> {
        let path = lease_path(dir, shard);
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Some(lease_holder(&text).unwrap_or_else(|| "?".to_string()))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(source) => Err(FabricError::Lease { path, source }),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsync-fabric-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_sweep() -> SweepSpec {
        let base = ScenarioSpec::new("trapdoor", 6, 8, 1).with_adversary("random");
        SweepSpec::new(base, 0..6).with_axis("disruption_bound", vec![1u64.into(), 3u64.into()])
    }

    #[test]
    fn single_worker_completes_the_whole_sweep() {
        let dir = temp_dir("solo");
        let sweep = small_sweep();
        let summary = run_worker(&dir, &sweep, &FabricConfig::new("solo"), |_| {}).unwrap();
        assert_eq!(summary.trials_executed, 12);
        assert_eq!(summary.trials_cached, 0);
        assert_eq!(summary.leases_lost, 0);
        // Every trial is stored and every lease released.
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.len(), 12);
        for shard in 0..SHARD_COUNT {
            assert!(!lease_path(&dir, shard).exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_worker_finds_everything_cached() {
        let dir = temp_dir("rerun");
        let sweep = small_sweep();
        run_worker(&dir, &sweep, &FabricConfig::new("first"), |_| {}).unwrap();
        let summary = run_worker(&dir, &sweep, &FabricConfig::new("second"), |_| {}).unwrap();
        assert_eq!(summary.trials_executed, 0);
        // Completion may be observed via refresh (shard skipped without a
        // claim) or via a claim that finds all trials cached.
        assert_eq!(summary.leases_reclaimed, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_is_exclusive_and_release_frees_it() {
        let dir = temp_dir("claim");
        fs::create_dir_all(&dir).unwrap();
        let lease = try_claim(&dir, 3, "alice").unwrap().expect("first claim");
        assert!(try_claim(&dir, 3, "bob").unwrap().is_none());
        assert_eq!(read_lease(&dir, 3).unwrap().as_deref(), Some("alice"));
        lease.release().unwrap();
        assert_eq!(read_lease(&dir, 3).unwrap(), None);
        assert!(try_claim(&dir, 3, "bob").unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lease_is_reclaimed_and_fresh_lease_is_not() {
        let dir = temp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        let _abandoned = try_claim(&dir, 5, "dead-worker").unwrap().expect("claim");
        let mut watch = LeaseWatch::new();
        // Fresh: under an hour-long TTL the stamp has not been watched
        // anywhere near long enough.
        assert_eq!(
            reclaim_if_stale(&dir, 5, "bob", Duration::from_secs(3600), &mut watch).unwrap(),
            None
        );
        // Stale: the same frozen stamp has now been observed across a
        // full (zero-length) TTL window on bob's own clock.
        assert_eq!(
            reclaim_if_stale(&dir, 5, "bob", Duration::ZERO, &mut watch).unwrap(),
            Some("dead-worker".to_string())
        );
        // The shard is claimable again and a second reclaimer sees
        // nothing to reclaim.
        let mut carol_watch = LeaseWatch::new();
        assert_eq!(
            reclaim_if_stale(&dir, 5, "carol", Duration::ZERO, &mut carol_watch).unwrap(),
            None
        );
        assert!(try_claim(&dir, 5, "bob").unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_detects_a_reclaimed_lease() {
        let dir = temp_dir("lost");
        fs::create_dir_all(&dir).unwrap();
        let mut lease = try_claim(&dir, 2, "slow-worker").unwrap().expect("claim");
        assert!(lease.heartbeat().unwrap());
        // A peer reclaims the lease (zero TTL: any observed stamp is
        // instantly a full window old) and claims it itself.
        let mut watch = LeaseWatch::new();
        reclaim_if_stale(&dir, 2, "fast-worker", Duration::ZERO, &mut watch)
            .unwrap()
            .expect("reclaimed");
        let _theirs = try_claim(&dir, 2, "fast-worker").unwrap().expect("claim");
        let path = lease_path(&dir, 2);
        let theirs_body = fs::read(&path).unwrap();
        assert!(
            !lease.heartbeat().unwrap(),
            "heartbeat must report the lease as lost"
        );
        lease.release().unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            theirs_body,
            "the lost holder must leave the new holder's lease byte-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeats_overwrite_the_lease_in_place_at_a_constant_length() {
        let dir = temp_dir("beats");
        fs::create_dir_all(&dir).unwrap();
        let mut lease = try_claim(&dir, 6, "steady-worker").unwrap().expect("claim");
        let path = lease_path(&dir, 6);
        let len = fs::metadata(&path).unwrap().len();
        for beat in 1..=1000u64 {
            assert!(lease.heartbeat().unwrap());
            assert_eq!(fs::metadata(&path).unwrap().len(), len, "beat {beat}");
        }
        let stamp = LeaseStamp::parse(&fs::read_to_string(&path).unwrap());
        assert_eq!(stamp.holder.as_deref(), Some("steady-worker"));
        assert_eq!(stamp.beat, Some(1000));
        lease.release().unwrap();
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_bodies_are_the_compact_stamp_padded_to_a_fixed_width() {
        let holder = "w \"7\" \\ \n\t\u{1} é";
        let mut body = String::new();
        for beat in [0, 9, 10, 12_345, i64::MAX as u64] {
            lease_body(3, holder, beat, &mut body);
            let stamp = Value::Object(vec![
                ("shard".to_string(), Value::Int(3)),
                ("holder".to_string(), Value::Str(holder.to_string())),
                ("beat".to_string(), Value::Int(beat as i64)),
            ])
            .to_json_compact();
            let pad = " ".repeat(BEAT_DIGITS - beat.to_string().len());
            assert_eq!(body, format!("{stamp}{pad}\n"), "beat {beat}");
        }
    }

    #[test]
    fn padded_and_unpadded_lease_bodies_read_alike() {
        // Workers of both body formats can share one store directory.
        let dir = temp_dir("bodies");
        fs::create_dir_all(&dir).unwrap();
        let unpadded = "{\"shard\":4,\"holder\":\"w-7\",\"beat\":12}\n";
        let mut padded = String::new();
        lease_body(4, "w-7", 12, &mut padded);
        assert!(padded.len() > unpadded.len());
        assert_eq!(padded.trim(), unpadded.trim());
        for body in [unpadded, padded.as_str()] {
            fs::write(lease_path(&dir, 4), body).unwrap();
            assert_eq!(read_lease(&dir, 4).unwrap().as_deref(), Some("w-7"));
            assert_eq!(
                LeaseStamp::parse(body),
                LeaseStamp {
                    holder: Some("w-7".to_string()),
                    beat: Some(12),
                }
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Sets the lease file's mtime `offset_secs` away from now (negative
    /// = into the past), simulating what a clock-skewed NFS server would
    /// stamp. The staleness rule must be blind to it.
    fn set_lease_mtime(path: &Path, offset_secs: i64) {
        // lint:allow(wall-clock): test scaffolding planting the skewed cross-machine mtimes the beat-counter rule must ignore
        let now = std::time::SystemTime::now();
        let skewed = if offset_secs >= 0 {
            now + Duration::from_secs(offset_secs as u64)
        } else {
            now - Duration::from_secs(offset_secs.unsigned_abs())
        };
        let file = OpenOptions::new().write(true).open(path).unwrap();
        file.set_modified(skewed).unwrap();
    }

    #[test]
    fn skewed_mtimes_do_not_sway_staleness_only_frozen_beats_do() {
        let dir = temp_dir("skew");
        fs::create_dir_all(&dir).unwrap();
        let ttl = Duration::from_millis(80);
        let mut live = try_claim(&dir, 1, "live-worker").unwrap().expect("claim");
        let _dead = try_claim(&dir, 4, "dead-worker").unwrap().expect("claim");
        // Worst-case skew in both directions: the live lease looks an
        // hour old (the old mtime rule would reclaim it on sight), the
        // dead lease looks an hour in the future (the old rule would
        // keep it forever).
        set_lease_mtime(&lease_path(&dir, 1), -3600);
        set_lease_mtime(&lease_path(&dir, 4), 3600);
        let mut watch = LeaseWatch::new();
        // First pass: nothing is reclaimable — no stamp has been watched
        // for a full TTL yet, no matter what the mtimes claim.
        assert_eq!(
            reclaim_if_stale(&dir, 1, "reclaimer", ttl, &mut watch).unwrap(),
            None
        );
        assert_eq!(
            reclaim_if_stale(&dir, 4, "reclaimer", ttl, &mut watch).unwrap(),
            None
        );
        // The live holder heartbeats (advancing its beat counter); the
        // dead one cannot. Re-plant the hour-old mtime afterwards so the
        // beat is the *only* thing distinguishing the two.
        std::thread::sleep(ttl + Duration::from_millis(40));
        assert!(live.heartbeat().unwrap());
        set_lease_mtime(&lease_path(&dir, 1), -3600);
        // Second pass, a full TTL later: the frozen-beat lease is
        // reclaimed despite its future mtime; the live one is kept
        // despite its ancient mtime.
        assert_eq!(
            reclaim_if_stale(&dir, 4, "reclaimer", ttl, &mut watch).unwrap(),
            Some("dead-worker".to_string())
        );
        assert_eq!(
            reclaim_if_stale(&dir, 1, "reclaimer", ttl, &mut watch).unwrap(),
            None
        );
        // Once the live holder genuinely stops beating, a further full
        // TTL of frozen observations reclaims it too.
        std::thread::sleep(ttl + Duration::from_millis(40));
        assert_eq!(
            reclaim_if_stale(&dir, 1, "reclaimer", ttl, &mut watch).unwrap(),
            Some("live-worker".to_string())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_leases_removes_only_fabric_files() {
        let dir = temp_dir("clean");
        fs::create_dir_all(&dir).unwrap();
        let _a = try_claim(&dir, 0, "x").unwrap().unwrap();
        let _b = try_claim(&dir, 7, "y").unwrap().unwrap();
        fs::write(dir.join(".shard-03.lease.tomb-00000000deadbeef"), "{}").unwrap();
        fs::write(dir.join("shard-00.jsonl"), "").unwrap();
        assert_eq!(clean_leases(&dir).unwrap(), 3);
        assert!(dir.join("shard-00.jsonl").exists());
        assert_eq!(read_lease(&dir, 0).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_results_match_a_sweep_runner_run_bit_for_bit() {
        use crate::sweep::SweepRunner;
        let dir_fabric = temp_dir("vs-runner-fabric");
        let dir_runner = temp_dir("vs-runner-direct");
        let sweep = small_sweep();
        run_worker(&dir_fabric, &sweep, &FabricConfig::new("w"), |_| {}).unwrap();
        SweepRunner::new()
            .record_only(std::sync::Arc::new(ResultStore::open(&dir_runner).unwrap()))
            .run(&sweep)
            .unwrap();
        // Byte-identical sorted shard contents: the fabric wrote exactly
        // the records a single-process sweep writes.
        for shard in 0..SHARD_COUNT {
            let read = |dir: &Path| {
                let mut lines: Vec<String> =
                    fs::read_to_string(dir.join(format!("shard-{shard:02}.jsonl")))
                        .map(|t| t.lines().map(str::to_string).collect())
                        .unwrap_or_default();
                lines.sort();
                lines
            };
            assert_eq!(read(&dir_fabric), read(&dir_runner), "shard {shard}");
        }
        let _ = fs::remove_dir_all(&dir_fabric);
        let _ = fs::remove_dir_all(&dir_runner);
    }

    fn adaptive_sweep() -> SweepSpec {
        use crate::sweep::{StopMetric, StoppingRule};
        SweepSpec {
            seed_end: 32,
            ..small_sweep()
        }
        .with_stop(
            StoppingRule::new(StopMetric::SyncRate, 0.3)
                .with_min_seeds(4)
                .with_batch(4),
        )
    }

    #[test]
    fn adaptive_worker_matches_in_process_adaptive_run_bit_for_bit() {
        use crate::sweep::SweepRunner;
        let dir_fabric = temp_dir("adaptive-fabric");
        let dir_runner = temp_dir("adaptive-direct");
        let sweep = adaptive_sweep();
        let mut events = Vec::new();
        let summary = run_worker(&dir_fabric, &sweep, &FabricConfig::new("w"), |e| {
            events.push(e.clone());
        })
        .unwrap();
        let direct = SweepRunner::new()
            .record_only(std::sync::Arc::new(ResultStore::open(&dir_runner).unwrap()))
            .run(&sweep)
            .unwrap();
        // same trials executed, and byte-identical sorted shard contents
        assert_eq!(summary.trials_executed, direct.executed_trials());
        for shard in 0..SHARD_COUNT {
            let read = |dir: &Path| {
                let mut lines: Vec<String> =
                    fs::read_to_string(dir.join(format!("shard-{shard:02}.jsonl")))
                        .map(|t| t.lines().map(str::to_string).collect())
                        .unwrap_or_default();
                lines.sort();
                lines
            };
            assert_eq!(read(&dir_fabric), read(&dir_runner), "shard {shard}");
        }
        // the worker announced each point's stop, matching the report
        let stops: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                WorkerEvent::PointStopped {
                    point,
                    seeds_used,
                    reason,
                } => Some((*point, *seeds_used, *reason)),
                _ => None,
            })
            .collect();
        assert_eq!(summary.points_stopped as usize, stops.len());
        for point_stats in direct.points.iter().filter(|p| p.stopped_early) {
            assert!(stops
                .iter()
                .any(|&(_, used, reason)| used == point_stats.seeds_used()
                    && Some(reason) == point_stats.stop));
        }
        // the worker leaves only shard files behind
        for entry in fs::read_dir(&dir_fabric).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                name.to_str().unwrap().ends_with(".jsonl"),
                "leftover {name:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir_fabric);
        let _ = fs::remove_dir_all(&dir_runner);
    }

    #[test]
    fn second_adaptive_worker_rederives_verdicts_and_executes_nothing() {
        let dir = temp_dir("adaptive-rerun");
        let sweep = adaptive_sweep();
        let first = run_worker(&dir, &sweep, &FabricConfig::new("first"), |_| {}).unwrap();
        let mut stops = 0;
        let summary = run_worker(&dir, &sweep, &FabricConfig::new("second"), |e| {
            if matches!(e, WorkerEvent::PointStopped { .. }) {
                stops += 1;
            }
        })
        .unwrap();
        assert_eq!(summary.trials_executed, 0);
        assert_eq!(summary.points_stopped, stops);
        assert!(first.points_stopped > 0);
        assert_eq!(summary.points_stopped, first.points_stopped);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_partition_covers_every_trial_exactly_once() {
        let sweep = small_sweep();
        let points = sweep.expand().unwrap();
        let seeds = sweep.seeds().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for point in &points {
            let digest = spec_digest(&point.spec);
            for seed in seeds.clone() {
                let shard = shard_index(digest, seed);
                assert!(shard < SHARD_COUNT);
                assert!(seen.insert((digest, seed)), "trial mapped twice");
            }
        }
        assert_eq!(seen.len(), points.len() * 6);
    }
}
