//! The workspace's end-to-end benchmark.
//!
//! ```text
//! wsync-perfbench --workload <dense_sweep|small_sweep|serve_mixed> --seed N
//!                 --seconds S --trace <0|1> --serve-bin PATH --work-dir DIR
//! ```
//!
//! `perfbench/run.sh` builds this binary and the `wsync-serve` daemon, then
//! runs it with the last two flags filled in. With `--trace 0` the run
//! measures the workload's end-to-end metrics on the production path; with
//! `--trace 1` it measures the per-layer metrics instead, timing calls into
//! each layer's public functions from this benchmark's own code. Either way
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed correctness gate makes the exit code nonzero. See
//! `perfbench/DESIGN.md` for the workloads, metrics and their meaning.

// `x % n == 0` rather than `is_multiple_of`, which needs a newer toolchain
// than the workspace's declared minimum.
#![allow(clippy::manual_is_multiple_of)]

mod alloc;
mod cpu;
mod layers;
mod serve;
mod sweeps;
mod trace;
mod trial;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use trace::{LayerTime, Tracer};
use util::Report;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["dense_sweep", "small_sweep", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_bin, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; known: {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wsync-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    util::fresh_dir(&run_dir).expect("work dir is writable");
    let mut report = Report::default();
    if args.trace {
        traced(&args, &run_dir, &mut report);
    } else {
        untraced(&args, &run_dir, &mut report);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    finish(report)
}

fn untraced(args: &Args, run_dir: &Path, report: &mut Report) {
    match args.workload.as_str() {
        "dense_sweep" => sweeps::dense(args.seed, args.seconds, run_dir, report),
        "small_sweep" => sweeps::small(args.seed, args.seconds, run_dir, report),
        _ => serve::serve_mixed(
            &args.serve_bin,
            args.seed,
            args.seconds,
            &args.work_dir,
            run_dir,
            report,
        ),
    }
    if args.workload != "serve_mixed" {
        let rss = util::peak_rss_mb(std::process::id()).unwrap_or(0.0);
        report.metric("peak_rss_mb", rss, "MB");
    }
}

fn mean_us(times: &std::collections::BTreeMap<&str, LayerTime>, name: &str) -> f64 {
    let t = times.get(name).copied().unwrap_or_default();
    t.total_ns as f64 / t.count.max(1) as f64 / 1e3
}

fn traced(args: &Args, run_dir: &Path, report: &mut Report) {
    let base = sweeps::seed_base(args.seed);
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let half = args.seconds * 0.5;
    let inter = match args.workload.as_str() {
        "dense_sweep" => sweeps::interleave_fixed(
            &sweeps::dense_spec(),
            4,
            base,
            half,
            run_dir,
            &mut tracer,
            report,
        ),
        "small_sweep" => sweeps::interleave_adaptive(base, half, run_dir, &mut tracer, report),
        _ => sweeps::interleave_fixed(
            &serve::served_spec(),
            32,
            base,
            half * 0.5,
            run_dir,
            &mut tracer,
            report,
        ),
    };

    report_trial_path(report, &tracer, &inter);

    // Cells every workload reports.
    layers::engine_ab(base + 900_000, report);
    let mut grid_tracer = Tracer::new(origin);
    layers::small_grid(base + 400_000, run_dir, report, &mut grid_tracer);
    layers::store_open_and_get(args.seed, &args.work_dir, report);
    let mut serve_tracer = Tracer::new(origin);
    let session = if args.workload == "serve_mixed" {
        let filler = serve::ensure_filler(&args.work_dir);
        let s = serve::session(
            &args.serve_bin,
            Some(&filler),
            args.seed,
            half * 0.6,
            half * 0.4,
            run_dir,
            report,
            &mut serve_tracer,
        );
        serve::note_e2e(report, &s);
        s
    } else {
        serve::session(
            &args.serve_bin,
            None,
            args.seed,
            1.5,
            0.5,
            run_dir,
            report,
            &mut serve_tracer,
        )
    };
    serve::push_layers(report, &session);

    for (suffix, t) in [
        ("trials", &tracer),
        ("grid", &grid_tracer),
        ("serve", &serve_tracer),
    ] {
        let path = args.work_dir.join(format!(
            "trace-{}-{}-{suffix}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("wsync-perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// The workload's trial path, layer by layer, from the interleaved pass.
fn report_trial_path(report: &mut Report, tracer: &Tracer, inter: &sweeps::Interleaved) {
    let times = tracer.layer_times();
    let trial = times.get("trial").copied().unwrap_or_default();
    let put = times.get("store.put").copied().unwrap_or_default();
    let encode = times.get("store.encode").copied().unwrap_or_default();
    let tally = inter.tally;
    report.metric(
        "trace.overhead_pct",
        (inter.untraced_per_s / inter.traced_per_s - 1.0) * 100.0,
        "%",
    );
    report.metric("trace.untraced_trials_per_s", inter.untraced_per_s, "1/s");
    report.metric("trace.traced_trials_per_s", inter.traced_per_s, "1/s");
    report.metric(
        "trace.trial_ms",
        trial.total_ns as f64 / trial.count.max(1) as f64 / 1e6,
        "ms",
    );
    report.metric(
        "trace.unattributed_share",
        trial.self_ns as f64 / trial.total_ns.max(1) as f64,
        "ratio",
    );
    report.metric(
        "registry.instantiate_us",
        mean_us(&times, "registry.instantiate"),
        "us",
    );
    report.metric(
        "registry.adversary_build_us",
        mean_us(&times, "registry.adversary_build"),
        "us",
    );
    report.metric("engine.new_us", mean_us(&times, "engine.new"), "us");
    report.metric(
        "engine.step_loop_ms",
        mean_us(&times, "engine.step_loop") / 1e3,
        "ms",
    );
    report.metric("checker.finish_us", mean_us(&times, "checker.finish"), "us");
    report.metric("store.encode_us", mean_us(&times, "store.encode"), "us");
    report.metric(
        "store.append_us",
        (put.total_ns as f64 - encode.total_ns as f64) / put.count.max(1) as f64 / 1e3,
        "us",
    );
    report.metric("store.record_bytes", inter.record_bytes, "bytes");
    let rounds = tally.rounds.max(1) as f64;
    report.metric(
        "engine.rounds_per_trial",
        tally.rounds as f64 / inter.trials.max(1) as f64,
        "count",
    );
    report.metric(
        "engine.active_nodes_per_round",
        tally.active_nodes as f64 / rounds,
        "count",
    );
    report.metric(
        "engine.collisions_per_round",
        tally.collisions as f64 / rounds,
        "count",
    );
    report.metric(
        "engine.deliveries_per_round",
        tally.deliveries as f64 / rounds,
        "count",
    );
    report.note(format!(
        "traced trial path ({} trials, {} rounds): span, calls, total ms, self ms, self share of trial time",
        inter.trials, tally.rounds
    ));
    for (name, t) in &times {
        report.note(format!(
            "  {name:<26} {:>8} {:>12.3} {:>12.3} {:>8.4}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / trial.total_ns.max(1) as f64
        ));
    }
}

/// Prints the notes, any failures, then the JSON result line, and picks
/// the exit code.
fn finish(mut report: Report) -> ExitCode {
    for metric in &report.metrics {
        if !metric.value.is_finite() {
            report.failed += 1;
            report.attempted += 1;
            report
                .failures
                .push(format!("metric {} is not finite", metric.name));
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    for metric in &report.metrics {
        println!("{:<34} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ratio ({} of {} operations)",
        report.failed, report.attempted
    );
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
