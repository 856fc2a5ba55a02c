//! Routing and handlers: the daemon behind `wsync-serve`.
//!
//! The request lifecycle for simulation routes is always
//! **spec → digest → cache probe → run → stream**, and both simulation
//! routes make it as one [`SweepRunner`] pass on the daemon's one
//! [`ResultStore`]:
//!
//! * `POST /run` — a [`ScenarioSpec`] (bare, or `{"spec": …, "seeds":
//!   {"start", "end"}}`): the spec is canonicalized and digested, every
//!   `(digest, seed)` already in the store is served without touching
//!   the engine, the missing trials execute synchronously (and are
//!   persisted), and the response reports aggregate stats plus cache
//!   accounting — a repeated request is a full cache hit with
//!   `"executed": 0`.
//! * `POST /sweep` — a [`SweepSpec`]: validated, registered as a job, and
//!   run on a job thread by the same pass over every grid point. Responds
//!   immediately with the job id, or with `429 Too Many Requests` and
//!   `Retry-After` while [`MAX_RUNNING_JOBS`] jobs are running, so posted
//!   sweeps cannot grow the daemon's threads without bound.
//! * `GET /jobs/<id>` — streams the job's events (`scheduled`, one
//!   `point` per grid point, probe samples, `done`) as close-delimited
//!   JSON lines.
//! * `GET /catalog`, `GET /healthz`, `GET /metrics` — the registry's
//!   component names, liveness, and the service counters.
//!
//! One daemon owns its store directory: its index sees every record it
//! serves, so a trial one route executed is a cache hit for the other.
//!
//! Admission control: handler threads are capped by a counting
//! semaphore ([`ServeConfig::max_handlers`] permits). The accept loop
//! answers `503` + `Retry-After` inline when no permit is free, so
//! saturation costs a rejected connection, never a new thread; the
//! `accepted`/`rejected` counters in `GET /metrics` record both sides.
//! An admitted connection that leaves any read of its request waiting
//! for 2 s is answered `408`, which frees its permit.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wsync_core::batch::BatchStats;
use wsync_core::json::{self, Value};
use wsync_core::registry::{self, ProbeOutput};
use wsync_core::sim::Sim;
use wsync_core::spec::{seeds_from_value, Fields, ScenarioSpec, SpecError, SweepSpec};
use wsync_core::store::{spec_digest, ResultStore, StoreError};
use wsync_core::sweep::{StoppingRule, SweepError, SweepReport, SweepRunner};

use crate::clock::{Deadline, Stopwatch};
use crate::http::{self, Request, RequestError};
use crate::jobs::{Job, JobRegistry, MAX_RUNNING_JOBS};
use crate::metrics::Metrics;

/// Most seeds one synchronous `POST /run` may ask for; larger ensembles
/// belong on the job queue (`POST /sweep`), which streams instead of
/// blocking the connection.
pub const MAX_RUN_SEEDS: u64 = 10_000;

/// Default cap on concurrently serving handler threads (see
/// [`ServeConfig::max_handlers`]).
pub const DEFAULT_MAX_HANDLERS: usize = 64;

/// The `Retry-After` value (seconds) sent with every admission-control
/// `503`: synchronous runs are short, so "come back in a second" is the
/// honest hint.
const RETRY_AFTER_SECS: &str = "1";

/// The `Retry-After` value (seconds) sent with a `POST /sweep` refused
/// because [`MAX_RUNNING_JOBS`] sweep jobs are running: a sweep takes
/// longer than a synchronous run, so the hint is longer too.
const JOB_RETRY_AFTER_SECS: &str = "5";

/// How long an admitted connection has to deliver its whole request. A
/// client that sends nothing for 2 s, or has not finished by this deadline,
/// is answered `408` and its handler permit comes back, so neither idle nor
/// trickling sockets can pin the server's capacity.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// How long a refused connection's unread request bytes are drained, in
/// all: a well-behaved client's request is already in flight when the
/// refusal goes out, and a client that keeps trickling bytes is cut off
/// here instead of holding the accept loop or a handler.
const REFUSAL_DRAIN: Duration = Duration::from_millis(250);

/// What `wsync-serve` needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (port 0 picks one).
    pub addr: String,
    /// The result-store directory the daemon owns (created if missing).
    pub store_dir: PathBuf,
    /// Most connections served concurrently: each admitted connection
    /// gets a handler thread, and a connection arriving with every
    /// permit taken is answered `503 Service Unavailable` (with a
    /// `Retry-After` header) straight from the accept loop — no thread
    /// is spawned for it. Clamped to at least 1; see
    /// [`DEFAULT_MAX_HANDLERS`].
    pub max_handlers: usize,
}

/// An error raised while starting the server.
#[derive(Debug)]
pub enum ServeError {
    /// Opening the result store failed.
    Store(StoreError),
    /// Binding the listener failed.
    Bind {
        /// The requested address.
        addr: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::Bind { addr, source } => {
                write!(f, "cannot bind {addr}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Bind { source, .. } => Some(source),
        }
    }
}

/// Everything handler threads share.
struct State {
    store: Arc<ResultStore>,
    jobs: JobRegistry,
    metrics: Metrics,
    handlers: Semaphore,
}

/// A tiny non-blocking counting semaphore over the handler permits:
/// [`try_acquire`](Semaphore::try_acquire) either takes a permit or
/// fails immediately, so the accept loop never blocks on saturation —
/// it answers `503` instead.
struct Semaphore {
    permits: std::sync::atomic::AtomicUsize,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: std::sync::atomic::AtomicUsize::new(permits),
        }
    }

    fn try_acquire(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.permits
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }
}

/// Returns its handler permit when dropped — including when the handler
/// panics, so a crashed handler can never leak the server's capacity.
struct Permit<'a>(&'a State);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.handlers.release();
    }
}

/// A bound, not-yet-serving daemon. [`Server::bind`] then
/// [`Server::run`]; tests bind port 0 and read the real address back
/// with [`Server::local_addr`].
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Opens (and repairs — nothing else is writing yet) the store, then
    /// binds the listener. `GET /metrics` reports what the open found and
    /// how long it took.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let watch = Stopwatch::start();
        let store = ResultStore::open(&config.store_dir).map_err(ServeError::Store)?;
        let metrics = Metrics::new();
        metrics.record_store_open(
            store.loaded_records() as u64,
            store.dropped_records(),
            store.repair_stats().len() as u64,
            watch.elapsed_micros(),
        );
        for repair in store.repair_stats() {
            eprintln!(
                "wsync-serve: store shard {:02} had {} torn/corrupt line(s); repaired",
                repair.shard, repair.dropped_lines
            );
        }
        let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
            addr: config.addr.clone(),
            source,
        })?;
        Ok(Server {
            listener,
            state: Arc::new(State {
                store: Arc::new(store),
                jobs: JobRegistry::new(),
                metrics,
                handlers: Semaphore::new(config.max_handlers.max(1)),
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: one thread per *admitted* connection, at most
    /// [`ServeConfig::max_handlers`] at a time. A connection arriving
    /// with no permit free is answered `503 Service Unavailable` (plus
    /// `Retry-After`) inline and never gets a thread, so a `POST /run`
    /// burst degrades into fast rejections instead of unbounded thread
    /// growth. Errors on a single connection are logged and survived.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            match stream {
                Ok(mut stream) => {
                    if self.state.handlers.try_acquire() {
                        self.state.metrics.record_accepted();
                        let state = Arc::clone(&self.state);
                        std::thread::spawn(move || {
                            let _permit = Permit(&state);
                            if let Err(e) = handle_connection(&state, stream) {
                                eprintln!("wsync-serve: connection error: {e}");
                            }
                        });
                    } else {
                        self.state.metrics.record_rejected();
                        if let Err(e) = refuse_connection(
                            &mut stream,
                            503,
                            "Service Unavailable",
                            &[("Retry-After", RETRY_AFTER_SECS)],
                            "server is at its concurrent-handler cap; retry shortly",
                        ) {
                            eprintln!("wsync-serve: connection error: {e}");
                        }
                    }
                }
                Err(e) => eprintln!("wsync-serve: accept error: {e}"),
            }
        }
        Ok(())
    }
}

/// Refuses one connection with a JSON error: writes the response,
/// half-closes, and drains the client's unread request bytes so the close
/// sends FIN, not RST (an RST can discard the queued response before the
/// client reads it). The whole drain gets `REFUSAL_DRAIN`, each read
/// waiting at most the time left, so a client that trickles bytes cannot
/// pin the calling thread past it. The accept loop answers `503` (plus
/// `Retry-After`) this way at the handler cap, and a handler answers `431`
/// when the headers are too large and `408` when the request does not
/// arrive in time.
fn refuse_connection(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    message: &str,
) -> std::io::Result<()> {
    http::respond_error_with(stream, status, reason, extra_headers, message)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let drain = Deadline::after(REFUSAL_DRAIN);
    let mut scratch = [0u8; 1024];
    loop {
        let left = drain.remaining();
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match std::io::Read::read(stream, &mut scratch) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
    Ok(())
}

fn handle_connection(state: &Arc<State>, mut stream: TcpStream) -> std::io::Result<()> {
    let parsed = match http::read_request(&stream, REQUEST_DEADLINE) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            return refuse_connection(
                &mut stream,
                408,
                "Request Timeout",
                &[],
                "no complete request arrived in time",
            );
        }
        parsed => parsed?,
    };
    let request = match parsed {
        Ok(request) => request,
        Err(RequestError::Malformed) => {
            return http::respond_error(&mut stream, 400, "Bad Request", "malformed request");
        }
        Err(RequestError::BodyTooLarge) => {
            return http::respond_error(
                &mut stream,
                413,
                "Payload Too Large",
                "request body exceeds the 1 MiB limit",
            );
        }
        Err(RequestError::HeadersTooLarge) => {
            return refuse_connection(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                &[],
                "a request or header line exceeds 8 KiB, or more than 64 header lines were sent",
            );
        }
    };
    state.metrics.record_request();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(state, &mut stream),
        ("GET", "/metrics") => {
            let body = state.metrics.to_value().to_json_compact();
            http::respond_json(&mut stream, 200, "OK", &body)
        }
        ("GET", "/catalog") => handle_catalog(&mut stream),
        ("POST", "/run") => handle_run(state, &mut stream, &request),
        ("POST", "/sweep") => handle_sweep(state, &mut stream, &request),
        ("GET", path) if path.starts_with("/jobs/") => {
            let id = path["/jobs/".len()..].to_string();
            handle_job_stream(state, &mut stream, &id)
        }
        ("GET" | "POST", _) => http::respond_error(&mut stream, 404, "Not Found", "no such route"),
        _ => http::respond_error(
            &mut stream,
            405,
            "Method Not Allowed",
            "only GET and POST are served",
        ),
    }
}

fn handle_healthz(state: &State, stream: &mut TcpStream) -> std::io::Result<()> {
    let body = Value::Object(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        (
            "store_records".to_string(),
            Value::Int(state.store.len() as i64),
        ),
        (
            "jobs_total".to_string(),
            Value::Int(state.jobs.total() as i64),
        ),
        (
            "jobs_active".to_string(),
            Value::Int(state.jobs.active() as i64),
        ),
    ])
    .to_json_compact();
    http::respond_json(stream, 200, "OK", &body)
}

fn handle_catalog(stream: &mut TcpStream) -> std::io::Result<()> {
    let names = |items: Vec<String>| Value::Array(items.into_iter().map(Value::Str).collect());
    let body = Value::Object(vec![
        ("protocols".to_string(), names(registry::protocol_names())),
        (
            "adversaries".to_string(),
            names(registry::adversary_names()),
        ),
        ("probes".to_string(), names(registry::probe_names())),
        ("faults".to_string(), names(registry::fault_names())),
    ])
    .to_json_compact();
    http::respond_json(stream, 200, "OK", &body)
}

/// Parses a `POST /run` body (see [`run_request`]) and checks that its
/// seed range is non-empty and at most [`MAX_RUN_SEEDS`] long.
fn parse_run_body(body: &[u8]) -> Result<(ScenarioSpec, std::ops::Range<u64>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = json::parse(text).map_err(|e| e.to_string())?;
    let (spec, seeds) = run_request(&value).map_err(|e| e.to_string())?;
    if seeds.start >= seeds.end {
        return Err("seeds.start must be less than seeds.end".to_string());
    }
    if seeds.end - seeds.start > MAX_RUN_SEEDS {
        return Err(format!(
            "a synchronous /run is capped at {MAX_RUN_SEEDS} seeds; schedule a /sweep instead"
        ));
    }
    Ok((spec, seeds))
}

/// Decodes a `/run` body: either a bare [`ScenarioSpec`] (seed 0 only) or,
/// when it has a `"spec"` or `"seeds"` key, the envelope `{"spec":
/// <ScenarioSpec>, "seeds": {"start", "end"}}`, whose `seeds` decode as a
/// sweep's do (`start` defaults to 0).
fn run_request(value: &Value) -> Result<(ScenarioSpec, std::ops::Range<u64>), SpecError> {
    if value.get("spec").is_none() && value.get("seeds").is_none() {
        return Ok((ScenarioSpec::from_value(value)?, 0..1));
    }
    let mut fields = Fields::new(value, "/run body")?;
    let spec = ScenarioSpec::from_value(fields.req("spec")?)?;
    let seeds = match fields.opt("seeds")? {
        Some(seeds) => seeds_from_value(seeds)?,
        None => 0..1,
    };
    fields.finish()?;
    Ok((spec, seeds))
}

fn stats_value(stats: &BatchStats) -> Value {
    Value::Object(vec![
        ("trials".to_string(), Value::Int(stats.trials as i64)),
        ("sync_rate".to_string(), Value::Float(stats.sync_rate())),
        (
            "single_leader_rate".to_string(),
            Value::Float(stats.single_leader_rate()),
        ),
        ("clean_rate".to_string(), Value::Float(stats.clean_rate())),
        (
            "mean_rounds_to_sync".to_string(),
            Value::Float(stats.rounds_to_sync.mean),
        ),
        (
            "mean_completion_round".to_string(),
            Value::Float(stats.completion_rounds.mean),
        ),
    ])
}

fn probe_value(name: String, value: Value) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(name)),
        ("value".to_string(), value),
    ])
}

/// One [`SweepRunner`] pass over `points` on the daemon's store — the pass
/// behind `POST /run` and every `/sweep` job. Returns the report with each
/// point's probe sample (empty for a point that sampled none), and folds
/// the pass into the service counters.
fn run_on_store(
    state: &State,
    points: Vec<(String, ScenarioSpec)>,
    seeds: Range<u64>,
    stop: Option<&StoppingRule>,
) -> Result<(SweepReport, Vec<Vec<ProbeOutput>>), SweepError> {
    let watch = Stopwatch::start();
    let mut rounds = 0u64;
    let mut samples = vec![Vec::new(); points.len()];
    let report = SweepRunner::new()
        .store(Arc::clone(&state.store))
        .run_points_with(points, seeds, stop, |point, outcome, probes| {
            rounds += outcome.result.metrics.rounds;
            if let Some(outputs) = probes {
                samples[point] = outputs.to_vec();
            }
        })?;
    state.metrics.record_work(
        report.cached_trials(),
        report.executed_trials(),
        rounds,
        watch.elapsed_micros(),
    );
    Ok((report, samples))
}

fn handle_run(state: &State, stream: &mut TcpStream, request: &Request) -> std::io::Result<()> {
    let (spec, seeds) = match parse_run_body(&request.body) {
        Ok(parsed) => parsed,
        Err(message) => return http::respond_error(stream, 400, "Bad Request", &message),
    };
    let digest = spec_digest(&spec);
    let (report, samples) =
        match run_on_store(state, vec![(String::new(), spec)], seeds.clone(), None) {
            Ok(ran) => ran,
            Err(SweepError::Spec(e)) => {
                return http::respond_error(stream, 400, "Bad Request", &e.to_string())
            }
            Err(SweepError::Store(e)) => {
                return http::respond_error(stream, 500, "Internal Server Error", &e.to_string())
            }
        };
    let point = &report.points[0];
    // One point, so `flatten` yields its sample alone.
    let probes = samples
        .into_iter()
        .flatten()
        .map(|output| probe_value(output.name, output.value))
        .collect();
    let body = Value::Object(vec![
        ("digest".to_string(), Value::Str(format!("{digest:016x}"))),
        (
            "seeds".to_string(),
            Value::Object(vec![
                ("start".to_string(), Value::Int(seeds.start as i64)),
                ("end".to_string(), Value::Int(seeds.end as i64)),
            ]),
        ),
        ("cached".to_string(), Value::Int(point.cached as i64)),
        ("executed".to_string(), Value::Int(point.executed as i64)),
        ("stats".to_string(), stats_value(&point.stats)),
        ("probes".to_string(), Value::Array(probes)),
    ])
    .to_json_compact();
    http::respond_json(stream, 200, "OK", &body)
}

fn handle_sweep(
    state: &Arc<State>,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<()> {
    let parsed = std::str::from_utf8(&request.body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
        .and_then(|value| {
            if value.get("base").is_none() {
                return Err(
                    "a /sweep body must be a SweepSpec (an object with a \"base\" key); \
                     for a single scenario use /run"
                        .to_string(),
                );
            }
            SweepSpec::from_value(&value).map_err(|e| e.to_string())
        });
    let sweep = match parsed {
        Ok(sweep) => sweep,
        Err(message) => return http::respond_error(stream, 400, "Bad Request", &message),
    };
    // Build every point's Sim *before* scheduling — the same construction
    // the sweep loop starts with — so a bad grid or an unknown name is a
    // 400 here and never a half-run job. With a `"stop"` rule the
    // advertised seed range is the adaptive *budget*, not a promise of
    // execution.
    let validated = sweep
        .seeds()
        .and_then(|_| sweep.expand())
        .and_then(|points| {
            for point in &points {
                Sim::from_spec(&point.spec)?;
            }
            Ok((points.len(), sweep.effective_seeds()?))
        });
    let (points, seeds) = match validated {
        Ok(parts) => parts,
        Err(e) => return http::respond_error(stream, 400, "Bad Request", &e.to_string()),
    };
    let Some(job) = state.jobs.try_create() else {
        return http::respond_error_with(
            stream,
            429,
            "Too Many Requests",
            &[("Retry-After", JOB_RETRY_AFTER_SECS)],
            &format!("{MAX_RUNNING_JOBS} sweep jobs are already running; retry once one finishes"),
        );
    };
    push_event(
        &job,
        vec![
            ("event".to_string(), Value::Str("scheduled".to_string())),
            ("job".to_string(), Value::Str(job.id().to_string())),
            ("points".to_string(), Value::Int(points as i64)),
            ("seed_start".to_string(), Value::Int(seeds.start as i64)),
            ("seed_end".to_string(), Value::Int(seeds.end as i64)),
            ("adaptive".to_string(), Value::Bool(sweep.stop.is_some())),
        ],
    );
    let body = Value::Object(vec![
        ("job".to_string(), Value::Str(job.id().to_string())),
        ("status".to_string(), Value::Str("scheduled".to_string())),
        (
            "events".to_string(),
            Value::Str(format!("/jobs/{}", job.id())),
        ),
    ])
    .to_json_compact();
    let state = Arc::clone(state);
    std::thread::spawn(move || run_sweep_job(&state, &job, sweep));
    http::respond_json(stream, 202, "Accepted", &body)
}

fn push_event(job: &Job, fields: Vec<(String, Value)>) {
    job.push(Value::Object(fields).to_json_compact());
}

fn push_error(job: &Job, message: String) {
    push_event(
        job,
        vec![
            ("event".to_string(), Value::Str("error".to_string())),
            ("message".to_string(), Value::Str(message)),
        ],
    );
}

/// Finishes its job when dropped — including when the sweep panics, so a
/// crashed job can never keep its running-job slot or leave its streams
/// open.
struct FinishOnDrop<'a>(&'a Job);

impl Drop for FinishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// A `/sweep` job: the pass `/run` makes, over every grid point, streamed
/// as one `point` event per point, then the probe samples, then `done` —
/// or an `error` event if the pass fails.
fn run_sweep_job(state: &State, job: &Job, sweep: SweepSpec) {
    let _finish = FinishOnDrop(job);
    if let Err(e) = stream_sweep(state, job, &sweep) {
        push_error(job, e.to_string());
    }
}

fn stream_sweep(state: &State, job: &Job, sweep: &SweepSpec) -> Result<(), SweepError> {
    let points = sweep
        .expand()?
        .into_iter()
        .map(|p| (p.label, p.spec))
        .collect();
    let seeds = sweep.effective_seeds()?;
    let (report, samples) = run_on_store(state, points, seeds, sweep.stop.as_ref())?;
    for point in &report.points {
        let mut fields = vec![
            ("event".to_string(), Value::Str("point".to_string())),
            (
                "label".to_string(),
                Value::Str(point.display_label().to_string()),
            ),
            ("cached".to_string(), Value::Int(point.cached as i64)),
            ("executed".to_string(), Value::Int(point.executed as i64)),
        ];
        if sweep.stop.is_some() {
            fields.push((
                "seeds_used".to_string(),
                Value::Int(point.seeds_used() as i64),
            ));
            fields.push((
                "stopped_early".to_string(),
                Value::Bool(point.stopped_early),
            ));
            if let Some(reason) = &point.stop {
                fields.push((
                    "stop_reason".to_string(),
                    Value::Str(reason.name().to_string()),
                ));
            }
        }
        fields.push(("stats".to_string(), stats_value(&point.stats)));
        push_event(job, fields);
    }
    for (sample, point) in samples.into_iter().zip(&report.points) {
        for output in sample {
            push_event(
                job,
                vec![
                    ("event".to_string(), Value::Str("probe".to_string())),
                    (
                        "label".to_string(),
                        Value::Str(point.display_label().to_string()),
                    ),
                    ("name".to_string(), Value::Str(output.name)),
                    ("value".to_string(), output.value),
                ],
            );
        }
    }
    let mut fields = vec![
        ("event".to_string(), Value::Str("done".to_string())),
        (
            "cached".to_string(),
            Value::Int(report.cached_trials() as i64),
        ),
        (
            "executed".to_string(),
            Value::Int(report.executed_trials() as i64),
        ),
    ];
    if sweep.stop.is_some() {
        let budget = report.trial_budget();
        let saved = budget.saturating_sub(report.total_trials());
        state
            .metrics
            .record_stops(report.stopped_early_points(), saved);
        fields.push((
            "stopped_early".to_string(),
            Value::Int(report.stopped_early_points() as i64),
        ));
        fields.push(("trial_budget".to_string(), Value::Int(budget as i64)));
        fields.push(("trials_saved".to_string(), Value::Int(saved as i64)));
    }
    push_event(job, fields);
    Ok(())
}

fn handle_job_stream(state: &State, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let Some(job) = state.jobs.get(id) else {
        return http::respond_error(stream, 404, "Not Found", "no such job");
    };
    http::start_ndjson(stream)?;
    let mut cursor = 0usize;
    loop {
        // `events_from` reads the log and the done flag under one lock, and
        // `finish()` happens strictly after the final push — so observing
        // `done` here means `fresh` already holds every remaining line.
        let (fresh, done) = job.events_from(cursor);
        for line in &fresh {
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
        }
        if !fresh.is_empty() {
            stream.flush()?;
            cursor += fresh.len();
        }
        if done {
            return stream.flush();
        }
        job.wait_past(cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn the_run_envelope_names_its_context_and_key() {
        let spec = r#"{"protocol": "trapdoor", "num_nodes": 4, "num_frequencies": 4,
                       "disruption_bound": 1}"#;
        let run = |body: String| parse_run_body(body.as_bytes());
        // A seed range without "start" starts at 0, as a sweep's does.
        let (_, seeds) = run(format!(r#"{{"spec": {spec}, "seeds": {{"end": 3}}}}"#)).unwrap();
        assert_eq!(seeds, 0..3);
        for (body, expected) in [
            (
                format!(r#"{{"spec": {spec}, "bogus": 1}}"#),
                r#"/run body: unknown key "bogus"; accepted keys: spec, seeds"#,
            ),
            (
                r#"{"seeds": {"end": 3}}"#.to_string(),
                r#"/run body: missing required key "spec""#,
            ),
            (
                format!(r#"{{"spec": {spec}, "seeds": [0, 3]}}"#),
                r#"seeds: expected an object, found array"#,
            ),
            (
                format!(r#"{{"spec": {spec}, "seeds": {{"start": "0", "end": 3}}}}"#),
                r#"seeds: "start" must be a non-negative integer, found string"#,
            ),
        ] {
            assert_eq!(run(body).unwrap_err(), expected);
        }
    }

    fn post_sweep(addr: SocketAddr) -> String {
        let body = r#"{"base": {"protocol": "trapdoor", "num_nodes": 4,
            "num_frequencies": 4, "disruption_bound": 1}, "seeds": {"start": 0, "end": 2}}"#;
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        response
    }

    #[test]
    fn a_sweep_past_the_running_job_cap_is_answered_429() {
        let store_dir =
            std::env::temp_dir().join(format!("wsync-serve-job-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir,
            max_handlers: 4,
        })
        .expect("bind");
        let addr = server.local_addr().expect("local_addr");
        let state = Arc::clone(&server.state);
        // Hold every slot, as that many running jobs would.
        let held: Vec<Arc<Job>> = (0..MAX_RUNNING_JOBS)
            .map(|_| state.jobs.try_create().expect("a slot is free"))
            .collect();
        std::thread::spawn(move || server.run());

        let refused = post_sweep(addr);
        assert!(
            refused.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{refused}"
        );
        assert!(refused.contains("\r\nRetry-After: 5\r\n"), "{refused}");
        assert_eq!(
            state.jobs.total(),
            MAX_RUNNING_JOBS,
            "no job was registered"
        );

        held[0].finish();
        let accepted = post_sweep(addr);
        assert!(
            accepted.starts_with("HTTP/1.1 202 Accepted\r\n"),
            "{accepted}"
        );
    }
}
