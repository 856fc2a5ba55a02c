//! The `serve_mixed` workload: the prebuilt `wsync-serve` daemon over
//! loopback, on a store pre-filled with 20,000 records before timing.
//!
//! One client process drives it on at most two connections at a time
//! (the daemon closes every connection after one response):
//!
//! 1. an open-loop phase at a fixed rate, eight warm `POST /run` (windows
//!    already stored: the read side) per cold one (a fresh seed window:
//!    execution plus append), plus a `GET /metrics` every 50th request;
//!    each request is timed from when it was due;
//! 2. a closed-loop phase on two connections with the same mix.
//!
//! Every warm response must report `"executed":0` and carry `stats`
//! byte-identical to the cold response for the same window.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsync_core::batch::BatchRunner;
use wsync_core::json::{self, Value};
use wsync_core::spec::ScenarioSpec;
use wsync_core::store::ResultStore;
use wsync_core::sweep::SweepRunner;
use wsync_radio::activation::ActivationSchedule;

use crate::trace::Tracer;
use crate::util::{fresh_dir, median, peak_rss_mb, quantile, Report, SplitMix};

/// Records the store is pre-filled with (seeds `0..FILLER_RECORDS` of the
/// served spec).
pub const FILLER_RECORDS: u64 = 20_000;
/// Seeds per `/run` request.
const WINDOW: u64 = 8;
/// Warm windows requested cold before timing.
const POOL: u64 = 32;
/// Open-loop request rate.
const RATE_PER_S: f64 = 100.0;
/// Every `COLD_EVERY`-th request is cold: eight warm per cold, so the
/// 90th latency percentile falls inside the cold requests.
const COLD_EVERY: u64 = 9;
/// Every `METRICS_EVERY`-th open-loop request is a `GET /metrics`.
const METRICS_EVERY: u64 = 50;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The served spec: the repository's quickstart scenario.
pub fn served_spec() -> ScenarioSpec {
    ScenarioSpec::new("trapdoor", 12, 8, 3)
        .with_adversary("random")
        .with_activation(ActivationSchedule::UniformWindow { window: 40 })
}

/// Builds the pre-filled store once per checkout under `work` (it depends
/// on nothing but the served spec) and returns its directory.
pub fn ensure_filler(work: &Path) -> PathBuf {
    let dir = work.join("serve-filler-v1");
    if dir.join("complete").exists() {
        return dir;
    }
    let staging = fresh_dir(&work.join("serve-filler-staging")).expect("work dir");
    let store = Arc::new(ResultStore::open(&staging).expect("store opens"));
    SweepRunner::with_runner(BatchRunner::with_workers(1))
        .record_only(store)
        .run_points(vec![(String::new(), served_spec())], 0..FILLER_RECORDS)
        .expect("filler sweep runs");
    std::fs::write(staging.join("complete"), b"").expect("marker written");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&staging, &dir).expect("filler renamed into place");
    dir
}

fn copy_store(from: &Path, to: &Path) {
    fresh_dir(to).expect("work dir");
    for entry in std::fs::read_dir(from).expect("filler readable") {
        let path = entry.expect("filler entry").path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            std::fs::copy(&path, to.join(path.file_name().expect("file name"))).expect("copy");
        }
    }
}

/// A response: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One HTTP/1.1 exchange on a fresh connection.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(format!("{head}{body}").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on a free loopback port and waits for the first
    /// `200` from `/healthz`. Returns it with the seconds that took.
    pub fn start(bin: &Path, store: &Path) -> (Daemon, f64) {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("wsync-serve starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr: Option<SocketAddr> = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("wsync-serve did not report its address: {line:?}");
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        loop {
            if let Ok(reply) = request(addr, "GET", "/healthz", "") {
                if reply.status == 200 {
                    break;
                }
            }
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "daemon never became healthy"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        (daemon, started.elapsed().as_secs_f64())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn metrics(&self) -> Value {
        let reply = request(self.addr, "GET", "/metrics", "").expect("metrics reachable");
        json::parse(&reply.body).expect("metrics body is JSON")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn run_body(spec_json: &str, start: u64) -> String {
    format!(
        "{{\"spec\":{spec_json},\"seeds\":{{\"start\":{start},\"end\":{}}}}}",
        start + WINDOW
    )
}

/// The raw `"stats":{…}` member of a `/run` body (flat object).
fn stats_bytes(body: &str) -> Option<&str> {
    let at = body.find("\"stats\":{")?;
    let end = body[at..].find('}')?;
    Some(&body[at..=at + end])
}

fn executed(body: &str) -> Option<u64> {
    json::parse(body).ok()?.get("executed")?.as_u64()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    Metrics,
}

/// One completed request.
struct Sample {
    kind: Kind,
    index: u64,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

/// The request plan: which kind request `index` is and what it sends.
struct Plan {
    spec_json: String,
    seed: u64,
    /// `(window start, cold stats bytes)` of every pre-warmed window.
    pool: Vec<(u64, String)>,
    cold_base: u64,
}

impl Plan {
    fn kind(&self, index: u64, with_metrics: bool) -> Kind {
        if with_metrics && index % METRICS_EVERY == METRICS_EVERY - 1 {
            Kind::Metrics
        } else if index % COLD_EVERY == COLD_EVERY - 1 {
            Kind::Cold
        } else {
            Kind::Warm
        }
    }

    /// Sends request `index` of kind `kind`; `true` when the reply is a
    /// `200` that passes its correctness check.
    fn send(&self, addr: SocketAddr, index: u64, kind: Kind) -> bool {
        match kind {
            Kind::Metrics => {
                matches!(request(addr, "GET", "/metrics", ""), Ok(r) if r.status == 200)
            }
            Kind::Cold => {
                let body = run_body(&self.spec_json, self.cold_base + index * WINDOW);
                matches!(request(addr, "POST", "/run", &body),
                    Ok(r) if r.status == 200 && executed(&r.body) == Some(WINDOW))
            }
            Kind::Warm => {
                let pick = SplitMix::new(self.seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d))
                    .below(self.pool.len() as u64) as usize;
                let (start, cold_stats) = &self.pool[pick];
                let body = run_body(&self.spec_json, *start);
                matches!(request(addr, "POST", "/run", &body),
                    Ok(r) if r.status == 200
                        && executed(&r.body) == Some(0)
                        && stats_bytes(&r.body) == Some(cold_stats.as_str()))
            }
        }
    }
}

/// Open loop: request `i` is due at `t0 + i / rate`; two sender threads
/// take requests in order, so a stall delays later requests and the delay
/// counts in their latency.
fn open_loop(addr: SocketAddr, plan: &Plan, first: u64, seconds: f64) -> Vec<Sample> {
    let total = (RATE_PER_S * seconds).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let t0 = Instant::now() + Duration::from_millis(20);
    let next = AtomicU64::new(0);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            return out;
                        }
                        let due = t0 + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let index = first + i;
                        let kind = plan.kind(index, true);
                        let sent = Instant::now();
                        let ok = plan.send(addr, index, kind);
                        out.push(Sample {
                            kind,
                            index,
                            due,
                            sent,
                            done: Instant::now(),
                            ok,
                        });
                    }
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// Closed loop: two connections, each sends its next request as soon as
/// the previous reply arrived. Returns the samples and the phase's wall
/// seconds.
fn closed_loop(addr: SocketAddr, plan: &Plan, first: u64, seconds: f64) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let index = first + next.fetch_add(1, Ordering::Relaxed);
                        let kind = plan.kind(index, false);
                        let sent = Instant::now();
                        let ok = plan.send(addr, index, kind);
                        out.push(Sample {
                            kind,
                            index,
                            due: sent,
                            sent,
                            done: Instant::now(),
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    (samples, started.elapsed().as_secs_f64())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn counter(metrics: &Value, key: &str) -> u64 {
    metrics.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// What one serve session measured.
pub struct Session {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub serve_rps: f64,
    pub run_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Client-seen `/run` time from send to reply, summed (open loop).
    pub client_run_us: f64,
    pub open_runs: u64,
    /// Server-side execution time over the open loop (`exec_micros`).
    pub exec_us: f64,
    pub rejected: u64,
}

/// Runs one session: daemon start-ups on a copy of `filler` (or an empty
/// store), a pre-warmed pool, the open loop for `open_s` and the closed
/// loop for `closed_s`. Every request counts in `report`.
#[allow(clippy::too_many_arguments)]
pub fn session(
    bin: &Path,
    filler: Option<&Path>,
    seed: u64,
    open_s: f64,
    closed_s: f64,
    work: &Path,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Session {
    let dir = work.join("serve-store");
    match filler {
        Some(filler) => copy_store(filler, &dir),
        None => {
            fresh_dir(&dir).expect("work dir");
        }
    }
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        let (started, seconds) = Daemon::start(bin, &dir);
        setups.push(seconds);
        daemon = Some(started);
    }
    let daemon = daemon.expect("at least one start-up");
    let addr = daemon.addr;

    // Cold-request the warm pool before timing; its stats are the
    // reference every warm reply must match byte for byte.
    let spec_json = served_spec().to_value().to_json_compact();
    let base = crate::sweeps::seed_base(seed);
    let pool: Vec<(u64, String)> = (0..POOL)
        .map(|k| {
            let start = base + k * WINDOW;
            let reply = request(addr, "POST", "/run", &run_body(&spec_json, start));
            let stats = match &reply {
                Ok(r) if r.status == 200 && executed(&r.body) == Some(WINDOW) => {
                    stats_bytes(&r.body).map(str::to_string)
                }
                _ => None,
            };
            report.check(stats.is_some(), || {
                format!("serve: pool window {start} failed")
            });
            (start, stats.unwrap_or_default())
        })
        .collect();
    let plan = Plan {
        spec_json,
        seed,
        pool,
        cold_base: base + POOL * WINDOW,
    };

    let before = daemon.metrics();
    let open = open_loop(addr, &plan, 0, open_s);
    let after = daemon.metrics();
    // Read after the fixed-rate phase: the closed loop appends a number
    // of cold records that grows with throughput, and memory should not.
    let peak_rss_mb = peak_rss_mb(daemon.pid()).unwrap_or(0.0);
    let (closed, closed_wall) = closed_loop(addr, &plan, open.len() as u64 + 1, closed_s);
    let last = daemon.metrics();
    drop(daemon);

    let mut s = Session {
        setup_s: median(&setups),
        peak_rss_mb,
        serve_rps: closed.len() as f64 / closed_wall,
        run_ms: Vec::new(),
        warm_ms: Vec::new(),
        cold_ms: Vec::new(),
        late_ms: Vec::new(),
        client_run_us: 0.0,
        open_runs: 0,
        exec_us: counter(&after, "exec_micros") as f64 - counter(&before, "exec_micros") as f64,
        rejected: counter(&last, "rejected") - counter(&before, "rejected"),
    };
    for sample in &open {
        let latency = ms(sample.done - sample.due);
        s.late_ms
            .push(ms(sample.sent.saturating_duration_since(sample.due)));
        match sample.kind {
            Kind::Warm => s.warm_ms.push(latency),
            Kind::Cold => s.cold_ms.push(latency),
            Kind::Metrics => {}
        }
        if sample.kind != Kind::Metrics {
            s.run_ms.push(latency);
            s.client_run_us += (sample.done - sample.sent).as_secs_f64() * 1e6;
            s.open_runs += 1;
        }
    }
    for sample in open.iter().chain(&closed) {
        let what = match sample.kind {
            Kind::Warm => "http.run_warm",
            Kind::Cold => "http.run_cold",
            Kind::Metrics => "http.metrics",
        };
        tracer.record(what, sample.index, sample.sent, sample.done);
        report.check(sample.ok, || {
            format!(
                "serve: request {} ({what}) failed or was incorrect",
                sample.index
            )
        });
    }
    s
}

/// The untraced `serve_mixed` run; the pre-filled store is kept under
/// `work_root` across runs, everything else goes to `run_dir`.
pub fn serve_mixed(
    bin: &Path,
    seed: u64,
    seconds: f64,
    work_root: &Path,
    run_dir: &Path,
    report: &mut Report,
) {
    let filler = ensure_filler(work_root);
    let s = session(
        bin,
        Some(&filler),
        seed,
        seconds * 0.6,
        seconds * 0.4,
        run_dir,
        report,
        &mut Tracer::off(),
    );
    push_e2e(report, &s);
}

pub fn push_e2e(report: &mut Report, s: &Session) {
    report.metric("setup_s", s.setup_s, "s");
    report.metric("serve_rps", s.serve_rps, "1/s");
    report.metric("run_warm_p50_ms", median(&s.warm_ms), "ms");
    report.metric("run_warm_p99_ms", quantile(&s.warm_ms, 0.99), "ms");
    report.metric("run_cold_p50_ms", median(&s.cold_ms), "ms");
    report.metric("run_cold_p90_ms", quantile(&s.cold_ms, 0.90), "ms");
    report.metric("peak_rss_mb", s.peak_rss_mb, "MB");
    note_e2e(report, s);
}

/// The issue-level serve figures, by name and unit, as a text line.
pub fn note_e2e(report: &mut Report, s: &Session) {
    report.note(format!(
        "latency_p50_ms {:.4} ms ({} open-loop /run)",
        median(&s.run_ms),
        s.run_ms.len()
    ));
    report.note(format!(
        "run_warm_p50_ms {:.4} ms | run_warm_p99_ms {:.4} ms ({} warm) | run_cold_p50_ms {:.4} ms | \
         run_cold_p90_ms {:.4} ms ({} cold) | serve_rps {:.2} 1/s | open loop {RATE_PER_S} req/s",
        median(&s.warm_ms),
        quantile(&s.warm_ms, 0.99),
        s.warm_ms.len(),
        median(&s.cold_ms),
        quantile(&s.cold_ms, 0.90),
        s.cold_ms.len(),
        s.serve_rps,
    ));
}

/// The per-layer serve figures of a session.
pub fn push_layers(report: &mut Report, s: &Session) {
    let client_ms = s.client_run_us / 1e3;
    report.metric("serve.exec_share", s.exec_us / s.client_run_us, "ratio");
    report.metric(
        "serve.http_overhead_ms",
        (client_ms - s.exec_us / 1e3) / s.open_runs.max(1) as f64,
        "ms",
    );
    report.metric("serve.rejected", s.rejected as f64, "count");
    report.metric("loadgen.late_p99_ms", quantile(&s.late_ms, 0.99), "ms");
    report.note(format!(
        "serve.exec_share base: {:.0} us server exec over {:.0} us client time, {} open-loop /run",
        s.exec_us, s.client_run_us, s.open_runs
    ));
}
