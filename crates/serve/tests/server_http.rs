//! End-to-end HTTP tests: a real [`Server`] bound on port 0, exercised by
//! raw `TcpStream` clients (the same no-dependency discipline as the
//! server itself).
//!
//! The load-bearing assertions mirror the CI smoke: a repeated `POST /run`
//! is a full cache hit (`"executed":0`), a `POST /sweep` job streams valid
//! JSON lines from `GET /jobs/<id>` through to a `done` event that counts
//! the trials it executed, and a `/run` after the job is served from the
//! job's records.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use wsync_core::json::{self, Value};
use wsync_core::sim::Sim;
use wsync_core::spec::ScenarioSpec;
use wsync_core::store::ResultStore;
use wsync_serve::{ServeConfig, Server};

/// A small scenario: tiny ensemble, quick to execute, exercises probes.
const RUN_BODY: &str = r#"{
  "spec": {
    "protocol": "trapdoor",
    "adversary": "random",
    "probes": ["metrics", "checker"],
    "num_nodes": 6,
    "num_frequencies": 4,
    "disruption_bound": 1,
    "max_rounds": 20000
  },
  "seeds": {"start": 0, "end": 4}
}"#;

const SWEEP_BODY: &str = r#"{
  "base": {
    "protocol": "trapdoor",
    "adversary": "random",
    "num_nodes": 6,
    "num_frequencies": 4,
    "disruption_bound": 1,
    "max_rounds": 20000
  },
  "seeds": {"start": 0, "end": 6},
  "grid": [{"field": "num_frequencies", "values": [4, 8]}]
}"#;

/// A `bursty` adversary with a zero-round cycle, which it cannot run.
const BAD_BURSTY: &str = r#"{"name": "bursty", "params": {"period": 0, "burst_len": 0}}"#;

fn temp_dir_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wsync-serve-http-{tag}-{}", std::process::id()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = temp_dir_path(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a server on an ephemeral port; the accept loop runs on a
/// detached thread for the life of the test process.
fn start_server(tag: &str) -> SocketAddr {
    start_server_with(tag, wsync_serve::DEFAULT_MAX_HANDLERS)
}

fn start_server_with(tag: &str, max_handlers: usize) -> SocketAddr {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: temp_dir(tag),
        max_handlers,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr");
    std::thread::spawn(move || server.run());
    addr
}

/// One full HTTP exchange; returns the raw response text (status line,
/// headers, and body) for header-level assertions.
fn exchange_raw(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    raw
}

/// One full HTTP exchange; returns (status line, body).
fn exchange(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

#[test]
fn healthz_catalog_and_unknown_routes() {
    let addr = start_server("basic");

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let health = json::parse(&body).expect("healthz is JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    let (status, body) = get(addr, "/catalog");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let catalog = json::parse(&body).expect("catalog is JSON");
    let protocols = catalog
        .get("protocols")
        .and_then(Value::as_array)
        .expect("protocols array");
    assert!(
        protocols.iter().any(|p| p.as_str() == Some("trapdoor")),
        "catalog lists the paper's trapdoor protocol: {body}"
    );
    for section in ["adversaries", "probes", "faults"] {
        let names = catalog
            .get(section)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{section} array missing: {body}"));
        assert!(!names.is_empty(), "{section} is empty");
    }

    let (status, _) = get(addr, "/no-such-route");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _) = exchange(addr, "DELETE /run HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    let (status, _) = post(addr, "/run", "{not json");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
}

#[test]
fn repeated_run_is_a_full_cache_hit() {
    let addr = start_server("run-cache");

    let (status, body) = post(addr, "/run", RUN_BODY);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let first = json::parse(&body).expect("run response is JSON");
    assert_eq!(first.get("executed").and_then(Value::as_u64), Some(4));
    assert_eq!(first.get("cached").and_then(Value::as_u64), Some(0));
    let digest = first
        .get("digest")
        .and_then(Value::as_str)
        .expect("digest")
        .to_string();
    assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
    let stats = first.get("stats").expect("stats object");
    assert_eq!(stats.get("trials").and_then(Value::as_u64), Some(4));
    let probes = first
        .get("probes")
        .and_then(Value::as_array)
        .expect("probes array");
    assert!(
        probes
            .iter()
            .any(|p| p.get("name").and_then(Value::as_str) == Some("metrics")),
        "probe sample includes the metrics probe: {body}"
    );

    // The identical request again: same digest, same stats, zero executions.
    let (status, body) = post(addr, "/run", RUN_BODY);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let second = json::parse(&body).expect("second run response is JSON");
    assert_eq!(second.get("executed").and_then(Value::as_u64), Some(0));
    assert_eq!(second.get("cached").and_then(Value::as_u64), Some(4));
    assert_eq!(
        second.get("digest").and_then(Value::as_str),
        Some(digest.as_str())
    );
    assert_eq!(
        second.get("stats").map(Value::to_json_compact),
        first.get("stats").map(Value::to_json_compact),
        "cache-served stats are bit-identical"
    );

    // Metrics saw 4 misses then 4 hits.
    let (_, body) = get(addr, "/metrics");
    let metrics = json::parse(&body).expect("metrics is JSON");
    assert_eq!(metrics.get("store_misses").and_then(Value::as_u64), Some(4));
    assert_eq!(metrics.get("store_hits").and_then(Value::as_u64), Some(4));
}

#[test]
fn metrics_report_what_the_store_open_found() {
    let dir = temp_dir("open-stats");
    let sim = Sim::from_spec(&ScenarioSpec::new("trapdoor", 6, 4, 1)).expect("valid spec");
    {
        let store = ResultStore::open(&dir).expect("store opens");
        for seed in 0..6 {
            store.put(7, seed, &sim.run_one(seed)).expect("put");
        }
    }
    // Tear the final line of one shard in half, as a kill mid-append would.
    let shard = (0..8)
        .map(|s| dir.join(format!("shard-{s:02}.jsonl")))
        .find(|path| path.exists())
        .expect("some shard holds a record");
    let text = std::fs::read_to_string(&shard).expect("shard readable");
    let last = text[..text.len() - 1].rfind('\n').map_or(0, |at| at + 1);
    std::fs::write(&shard, &text[..last + (text.len() - last) / 2]).expect("tear");

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: dir,
        max_handlers: wsync_serve::DEFAULT_MAX_HANDLERS,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local_addr");
    std::thread::spawn(move || server.run());
    let (_, body) = get(addr, "/metrics");
    let metrics = json::parse(&body).expect("metrics is JSON");
    let open = metrics.get("store_open").expect("store_open member");
    let count = |key| open.get(key).and_then(Value::as_u64);
    assert_eq!(count("records"), Some(5), "{body}");
    assert_eq!(count("dropped_lines"), Some(1), "{body}");
    assert_eq!(count("shards_repaired"), Some(1), "{body}");
    assert!(count("micros").is_some(), "{body}");
}

#[test]
fn run_rejects_bad_seed_ranges_and_unknown_components() {
    let addr = start_server("run-reject");
    let empty_range = RUN_BODY.replace(r#"{"start": 0, "end": 4}"#, r#"{"start": 4, "end": 4}"#);
    let (status, _) = post(addr, "/run", &empty_range);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    let huge_range = RUN_BODY.replace(r#"{"start": 0, "end": 4}"#, r#"{"start": 0, "end": 99999}"#);
    let (status, body) = post(addr, "/run", &huge_range);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("/sweep"), "points at the job queue: {body}");

    let unknown = RUN_BODY.replace("\"trapdoor\"", "\"no-such-protocol\"");
    let (status, _) = post(addr, "/run", &unknown);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    // A parameter value the adversary cannot run is a 400, not a handler
    // panic that drops the connection.
    let zero_period = RUN_BODY.replace("\"random\"", BAD_BURSTY);
    let (status, body) = post(addr, "/run", &zero_period);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("period"), "{body}");

    // Misspelled keys are named, not dropped: "seed" would otherwise run
    // seed 0 alone, and a "stride" would silently vanish.
    let error = |body: &str| {
        let value = json::parse(body).expect("error body is JSON");
        value
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let seed_typo = RUN_BODY.replace(r#""seeds""#, r#""seed""#);
    let (status, body) = post(addr, "/run", &seed_typo);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert_eq!(
        error(&body),
        r#"/run body: unknown key "seed"; accepted keys: spec, seeds"#
    );
    let stride = RUN_BODY.replace(r#""end": 4}"#, r#""end": 4, "stride": 2}"#);
    let (status, body) = post(addr, "/run", &stride);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert_eq!(
        error(&body),
        r#"seeds: unknown key "stride"; accepted keys: start, end"#
    );
}

/// Posts `body` to `/sweep` and streams the job to completion (the
/// connection closes after `done`); returns the job's event path, the raw
/// stream and its lines.
fn run_job(addr: SocketAddr, body: &str) -> (String, String, Vec<Value>) {
    let events = schedule_job(addr, body);
    let (stream, lines) = stream_job(addr, &events);
    (events, stream, lines)
}

/// Posts `body` to `/sweep`; returns the job's event path.
fn schedule_job(addr: SocketAddr, body: &str) -> String {
    let (status, accepted) = post(addr, "/sweep", body);
    assert_eq!(status, "HTTP/1.1 202 Accepted", "{accepted}");
    let accepted = json::parse(&accepted).expect("sweep response is JSON");
    let job = accepted.get("job").and_then(Value::as_str).expect("job id");
    let events = format!("/jobs/{job}");
    assert_eq!(
        accepted.get("events").and_then(Value::as_str),
        Some(events.as_str())
    );
    events
}

/// Streams the job at `events` to completion; returns the raw stream and
/// its lines.
fn stream_job(addr: SocketAddr, events: &str) -> (String, Vec<Value>) {
    let (status, stream) = get(addr, events);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let lines = stream
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}")))
        .collect();
    (stream, lines)
}

fn event(line: &Value) -> &str {
    line.get("event")
        .and_then(Value::as_str)
        .unwrap_or_default()
}

#[test]
fn sweep_schedules_a_job_that_streams_json_lines_to_done() {
    let addr = start_server("sweep-job");

    let (job, body, lines) = run_job(addr, SWEEP_BODY);
    // 2 grid points x 6 seeds on a fresh store: every trial executes, and
    // the counts say so.
    let done = lines.last().expect("done line");
    assert_eq!(done.get("executed").and_then(Value::as_u64), Some(12));
    assert_eq!(done.get("cached").and_then(Value::as_u64), Some(0));
    let events: Vec<&str> = lines.iter().map(event).collect();
    assert_eq!(events, ["scheduled", "point", "point", "done"], "{body}");
    for point in &lines[1..3] {
        assert_eq!(point.get("executed").and_then(Value::as_u64), Some(6));
        assert_eq!(point.get("cached").and_then(Value::as_u64), Some(0));
        let stats = point.get("stats").expect("point stats");
        assert_eq!(stats.get("trials").and_then(Value::as_u64), Some(6));
    }
    let (_, metrics) = get(addr, "/metrics");
    let metrics = json::parse(&metrics).expect("metrics is JSON");
    assert_eq!(
        metrics.get("store_misses").and_then(Value::as_u64),
        Some(12)
    );
    assert_eq!(metrics.get("store_hits").and_then(Value::as_u64), Some(0));

    // A late subscriber replays the full history instantly.
    let (_, replay) = get(addr, &job);
    assert_eq!(replay, body, "replayed stream is identical");

    // Unknown jobs are a 404, not a hung stream.
    let (status, _) = get(addr, "/jobs/job-999");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // A sweep without a "base" key is rejected up front.
    let (status, body) = post(addr, "/sweep", r#"{"protocol": "trapdoor"}"#);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("base"), "{body}");
}

/// One 400-seed sweep posted twice back to back: the two jobs overlap on
/// the daemon's store, yet each trial executes once, in the job that
/// claimed it first, and the other job serves it from the store.
#[test]
fn the_same_sweep_posted_twice_executes_each_trial_once() {
    let addr = start_server("sweep-twice");
    let body = r#"{"base": {"protocol": "trapdoor", "adversary": "random",
        "num_nodes": 16, "num_frequencies": 8, "disruption_bound": 2},
        "seeds": {"start": 0, "end": 400}}"#;
    let jobs = [schedule_job(addr, body), schedule_job(addr, body)];
    let mut executed = 0;
    for job in &jobs {
        let (stream, lines) = stream_job(addr, job);
        let done = lines.last().expect("done line");
        assert_eq!(event(done), "done", "{stream}");
        executed += done
            .get("executed")
            .and_then(Value::as_u64)
            .expect("executed");
    }
    assert_eq!(executed, 400, "executions across both jobs");
    let (_, metrics) = get(addr, "/metrics");
    let metrics = json::parse(&metrics).expect("metrics is JSON");
    assert_eq!(
        metrics.get("store_misses").and_then(Value::as_u64),
        Some(400)
    );
    assert_eq!(metrics.get("store_hits").and_then(Value::as_u64), Some(400));
}

#[test]
fn a_run_after_a_sweep_is_served_from_the_jobs_records() {
    let addr = start_server("sweep-then-run");
    let (_, body, lines) = run_job(addr, SWEEP_BODY);
    assert_eq!(lines.last().map(event), Some("done"), "{body}");

    // The num_frequencies=4 grid point is the base spec itself.
    let run = r#"{"spec": {"protocol": "trapdoor", "adversary": "random",
        "num_nodes": 6, "num_frequencies": 4, "disruption_bound": 1,
        "max_rounds": 20000}, "seeds": {"start": 0, "end": 6}}"#;
    let (status, body) = post(addr, "/run", run);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let reply = json::parse(&body).expect("run response is JSON");
    assert_eq!(reply.get("executed").and_then(Value::as_u64), Some(0));
    assert_eq!(reply.get("cached").and_then(Value::as_u64), Some(6));

    // Every (spec, seed) key sits on exactly one shard line.
    let mut keys = Vec::new();
    for entry in std::fs::read_dir(temp_dir_path("sweep-then-run")).expect("store dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).expect("shard");
        for line in text.lines() {
            let record = json::parse(line).expect("a shard line is JSON");
            let spec = record.get("spec").and_then(Value::as_str).expect("spec");
            let seed = record.get("seed").and_then(Value::as_u64).expect("seed");
            keys.push((spec.to_string(), seed));
        }
    }
    let lines = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!((lines, keys.len()), (12, 12), "shard lines, distinct keys");
}

#[test]
fn a_probed_sweep_streams_one_probe_event_per_point_and_probe() {
    let addr = start_server("sweep-probes");
    let probed = SWEEP_BODY.replace(
        r#""adversary": "random","#,
        r#""adversary": "random", "probes": ["checker", "metrics"],"#,
    );
    let (_, body, lines) = run_job(addr, &probed);
    let probes: Vec<(&str, &str)> = lines
        .iter()
        .filter(|line| event(line) == "probe")
        .map(|line| {
            let field = |key| line.get(key).and_then(Value::as_str).expect(key);
            (field("label"), field("name"))
        })
        .collect();
    assert_eq!(
        probes,
        [
            ("num_frequencies=4", "checker"),
            ("num_frequencies=4", "metrics"),
            ("num_frequencies=8", "checker"),
            ("num_frequencies=8", "metrics"),
        ],
        "{body}"
    );
    assert_eq!(lines.last().map(event), Some("done"), "{body}");
}

#[test]
fn sweep_rejects_specs_that_cannot_run_before_creating_a_job() {
    let addr = start_server("sweep-reject");

    // An unknown protocol in the base, and a grid point with t = F: both
    // expand fine, but no point's Sim can be built.
    let unknown = SWEEP_BODY.replace("\"trapdoor\"", "\"no-such-protocol\"");
    let (status, body) = post(addr, "/sweep", &unknown);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("no-such-protocol"), "{body}");

    let bad_grid = SWEEP_BODY
        .replace(r#""num_frequencies": 4"#, r#""num_frequencies": 8"#)
        .replace(
            r#"{"field": "num_frequencies", "values": [4, 8]}"#,
            r#"{"field": "disruption_bound", "values": [8]}"#,
        );
    let (status, body) = post(addr, "/sweep", &bad_grid);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("disruption"), "{body}");

    let zero_period = SWEEP_BODY.replace("\"random\"", BAD_BURSTY);
    let (status, body) = post(addr, "/sweep", &zero_period);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.contains("period"), "{body}");

    // No request left a job behind.
    let (_, body) = get(addr, "/healthz");
    let health = json::parse(&body).expect("healthz is JSON");
    assert_eq!(health.get("jobs_total").and_then(Value::as_u64), Some(0));
}

/// The adaptive variant of [`SWEEP_BODY`]: a 32-seed budget per point,
/// with a stopping rule loose enough that the sync-rate CI settles within
/// the first 4-seed batch (trapdoor at this size synchronizes reliably).
const ADAPTIVE_SWEEP_BODY: &str = r#"{
  "base": {
    "protocol": "trapdoor",
    "adversary": "random",
    "num_nodes": 6,
    "num_frequencies": 4,
    "disruption_bound": 1,
    "max_rounds": 20000
  },
  "seeds": {"start": 0, "end": 32},
  "grid": [{"field": "num_frequencies", "values": [4, 8]}],
  "stop": {"metric": "sync_rate", "half_width": 0.3, "min_seeds": 4, "batch": 4}
}"#;

#[test]
fn adaptive_sweep_job_reports_stops_and_savings() {
    let addr = start_server("sweep-adaptive");

    let (status, body) = post(addr, "/sweep", ADAPTIVE_SWEEP_BODY);
    assert_eq!(status, "HTTP/1.1 202 Accepted", "{body}");
    let accepted = json::parse(&body).expect("sweep response is JSON");
    let job = accepted
        .get("job")
        .and_then(Value::as_str)
        .expect("job id")
        .to_string();

    let (status, body) = get(addr, &format!("/jobs/{job}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    let lines: Vec<Value> = body
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}")))
        .collect();
    let event = |v: &Value| v.get("event").and_then(Value::as_str).map(String::from);

    // The schedule line advertises the budget and flags the job adaptive.
    let scheduled = &lines[0];
    assert_eq!(event(scheduled).as_deref(), Some("scheduled"));
    assert_eq!(
        scheduled.get("adaptive").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(scheduled.get("seed_end").and_then(Value::as_u64), Some(32));

    // Every point event carries its stopping outcome.
    let points: Vec<&Value> = lines
        .iter()
        .filter(|v| event(v).as_deref() == Some("point"))
        .collect();
    assert_eq!(points.len(), 2, "{body}");
    for point in &points {
        let used = point
            .get("seeds_used")
            .and_then(Value::as_u64)
            .expect("seeds_used");
        assert!(used < 32, "point ran its whole budget: {point:?}");
        assert_eq!(
            point.get("stopped_early").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(
            point.get("stop_reason").and_then(Value::as_str),
            Some("half_width")
        );
        let stats = point.get("stats").expect("point stats");
        assert_eq!(stats.get("trials").and_then(Value::as_u64), Some(used));
    }

    // The done event totals the savings against the declared budget.
    let done = lines.last().expect("done line");
    assert_eq!(event(done).as_deref(), Some("done"));
    assert_eq!(done.get("stopped_early").and_then(Value::as_u64), Some(2));
    assert_eq!(done.get("trial_budget").and_then(Value::as_u64), Some(64));
    let saved = done
        .get("trials_saved")
        .and_then(Value::as_u64)
        .expect("trials_saved");
    assert!(
        saved >= 32,
        "expected at least half the budget saved: {done:?}"
    );

    // Savings surface in /metrics, and the store holds only shard files.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let metrics = json::parse(&metrics).expect("metrics JSON");
    assert_eq!(
        metrics.get("points_stopped").and_then(Value::as_u64),
        Some(2)
    );
    assert_eq!(
        metrics.get("trials_saved").and_then(Value::as_u64),
        Some(saved)
    );
    let leftovers: Vec<String> = std::fs::read_dir(temp_dir_path("sweep-adaptive"))
        .expect("store dir")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| !name.ends_with(".jsonl"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "non-shard files remain: {leftovers:?}"
    );
}

/// OS threads in this test process (Linux); `None` elsewhere.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn flooding_past_the_handler_cap_yields_503s_not_threads() {
    const FLOOD: usize = 16;
    let addr = start_server_with("saturate", 2);

    // Occupy both permits with connections that never finish sending
    // their request: each one holds a handler thread inside the request
    // parser until we hang up or the server's 2 s read timeout answers
    // it 408, so the flood below must finish well within 2 s.
    let stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect stall");
            stream.write_all(b"GET /healthz HT").expect("partial write");
            stream
        })
        .collect();
    // Let the accept loop hand both connections to handlers.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // Flood past the cap: every request is refused with a 503 carrying
    // Retry-After, straight from the accept loop.
    let before = process_threads();
    for _ in 0..FLOOD {
        let raw = exchange_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(
            raw.starts_with("HTTP/1.1 503 Service Unavailable"),
            "saturated server must answer 503: {raw}"
        );
        assert!(
            raw.contains("Retry-After:"),
            "503 carries Retry-After: {raw}"
        );
    }
    let after = process_threads();
    if let (Some(before), Some(after)) = (before, after) {
        // Rejected connections spawn no handler threads. Other tests in
        // this process spawn threads of their own, so allow slack well
        // below the flood size.
        assert!(
            after <= before + FLOOD / 2,
            "thread count grew from {before} to {after} across {FLOOD} rejected connections"
        );
    }

    // Hang up the stalled connections; their handlers finish and the
    // permits come back.
    drop(stalled);
    let mut probes = 0usize;
    loop {
        probes += 1;
        let raw = exchange_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        if raw.starts_with("HTTP/1.1 200 OK") {
            break;
        }
        assert!(
            probes < 100,
            "server never recovered after saturation: {raw}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The metrics agree: every flood connection was rejected, and the
    // accepted count — which counts every handler thread ever spawned —
    // covers only the stalls and the post-recovery probes.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let metrics = json::parse(&body).expect("metrics is JSON");
    let accepted = metrics
        .get("accepted")
        .and_then(Value::as_u64)
        .expect("accepted counter");
    let rejected = metrics
        .get("rejected")
        .and_then(Value::as_u64)
        .expect("rejected counter");
    assert!(
        rejected >= FLOOD as u64,
        "all {FLOOD} flood connections rejected, saw {rejected}"
    );
    assert!(
        accepted <= 2 + probes as u64 + 1,
        "no handler was spawned for a flooded connection: accepted {accepted}, probes {probes}"
    );
}

#[test]
fn oversized_headers_are_answered_431_not_reset() {
    let addr = start_server("headers");
    // One header line past 8 KiB, then 65 short header lines: both are
    // refused, and the client reads the status rather than a reset.
    let long_line = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(16 * 1024)
    );
    let many_lines = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        (0..65)
            .map(|i| format!("X-Header-{i}: {i}\r\n"))
            .collect::<String>()
    );
    for request in [long_line, many_lines] {
        let raw = exchange_raw(addr, &request);
        assert!(
            raw.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
            "oversized headers must answer 431: {raw}"
        );
    }
    // The server keeps answering.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
}

#[test]
fn a_line_that_is_not_utf8_is_answered_400() {
    let addr = start_server("not-utf8");
    for request in [
        &b"GET /healthz\xff HTTP/1.1\r\nHost: t\r\n\r\n"[..],
        &b"GET /healthz HTTP/1.1\r\nHost: \xc3\x28\r\n\r\n"[..],
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("receive");
        assert!(
            raw.starts_with("HTTP/1.1 400 Bad Request"),
            "a line that is not UTF-8 must answer 400: {raw:?}"
        );
    }
}

#[test]
fn an_idle_connection_frees_its_handler_permit_after_the_read_timeout() {
    let addr = start_server_with("idle", 1);

    // Hold the only permit with a connection that never sends a byte.
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    std::thread::sleep(std::time::Duration::from_millis(200));
    let raw = exchange_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(
        raw.starts_with("HTTP/1.1 503 Service Unavailable"),
        "the idle connection holds the only permit: {raw}"
    );

    // The server gives up on the idle client with a 408 ...
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("client read timeout");
    let mut answer = String::new();
    idle.read_to_string(&mut answer)
        .expect("the server answers an idle connection within 10 s");
    assert!(
        answer.starts_with("HTTP/1.1 408 Request Timeout"),
        "an idle connection is answered 408: {answer}"
    );
    drop(idle);

    // ... and the permit comes back.
    let mut probes = 0usize;
    loop {
        probes += 1;
        let raw = exchange_raw(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        if raw.starts_with("HTTP/1.1 200 OK") {
            break;
        }
        assert!(
            probes < 100,
            "the permit never came back after the read timeout: {raw}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[test]
fn a_refused_client_that_trickles_bytes_does_not_stall_the_accept_loop() {
    let addr = start_server_with("trickle", 1);

    // Hold the only permit with a connection that never sends a byte; the
    // server answers it 408 only after its 2 s read timeout.
    let _idle = TcpStream::connect(addr).expect("connect idle");
    std::thread::sleep(std::time::Duration::from_millis(200));

    // A refused client reads its 503, then keeps sending one byte every
    // 100 ms, so each of the drain's reads finds a byte in time.
    let mut refused = TcpStream::connect(addr).expect("connect refused");
    refused
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut answer = String::new();
    refused.read_to_string(&mut answer).expect("receive");
    assert!(
        answer.starts_with("HTTP/1.1 503 Service Unavailable"),
        "the idle connection holds the only permit: {answer}"
    );
    let trickler = std::thread::spawn(move || {
        for _ in 0..100 {
            std::thread::sleep(std::time::Duration::from_millis(100));
            if refused.write_all(b"x").is_err() {
                break;
            }
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(150));

    // The accept loop gets to the next connection within the drain
    // budget, long before the permit comes back.
    let mut next = TcpStream::connect(addr).expect("connect next");
    next.set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .expect("client read timeout");
    next.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    next.read_to_string(&mut raw)
        .expect("a trickling refused client held the accept loop for 2 s");
    assert!(
        raw.starts_with("HTTP/1.1 503 Service Unavailable"),
        "the permit is still held: {raw}"
    );
    trickler.join().expect("trickler");
}
