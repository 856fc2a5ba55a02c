//! Command-line generator for every experiment in EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p wsync-experiments --bin run_experiments -- <ID|all> [smoke|quick|full] [--markdown]
//! cargo run --release -p wsync-experiments --bin run_experiments -- --spec <file.json> [smoke|quick|full] [--markdown] [--out <dir> [--resume] [--workers K]]
//! ```
//!
//! `<ID>` is an experiment identifier from `wsync_experiments::EXPERIMENTS`
//! (case-insensitive) or `all`. The default effort is `quick`; `full` reproduces the settings
//! recorded in EXPERIMENTS.md. With `--markdown` the tables are emitted as
//! GitHub-flavoured Markdown instead of aligned plain text.
//!
//! `--spec <file.json>` runs a declarative scenario file (a `ScenarioSpec`
//! or a `SweepSpec`, see `examples/specs/`) with zero recompilation: the
//! protocol and adversary names resolve against the registry at run time.
//! For a bare `ScenarioSpec` the effort level picks the seed count.
//!
//! `--out <dir>` persists every completed trial of a `--spec` run into a
//! content-addressed result store (sharded JSONL files under `<dir>`).
//! `--resume` additionally serves already-stored trials from that store:
//! a sweep that was killed midway re-runs only the missing trials and
//! prints tables bit-identical to an uninterrupted run (cache totals go
//! to stderr). Without `--resume`, `--out` refuses a non-empty store so a
//! stale cache is never mixed into a run silently.
//!
//! `--workers K` drains the sweep on the **multi-process fabric**: K child
//! processes (re-invocations of this binary in its hidden
//! `--fabric-worker` mode) claim store shards via lease files and execute
//! the trials routed to them, after which the parent runs an ordinary
//! resume pass to aggregate — so stdout is bit-identical to a 1-process
//! run, and a worker killed mid-sweep (stale lease reclaimed by its
//! peers, or finished by the parent's resume pass) never costs more than
//! its unfinished trials. `--lease-ttl-ms <n>` tunes how long a silent
//! worker's lease survives before peers reclaim it (default 30000).
use std::env;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Duration;

use wsync_core::fabric::{self, FabricConfig, WorkerEvent};
use wsync_core::store::ResultStore;
use wsync_core::sweep::SweepRunner;
use wsync_experiments::output::{Effort, ExperimentReport};
use wsync_experiments::{run_all, run_spec_file_stored, SpecFile, EXPERIMENTS};

/// Extracts a value-taking `--flag <value>` pair from the argument list.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
            _ => Err(format!("{flag} requires an argument")),
        },
    }
}

/// Logs a store's per-shard open-time repair statistics to stderr (never
/// stdout: report bytes must stay independent of store history).
fn log_repair_stats(dir: &str, store: &ResultStore) {
    for repair in store.repair_stats() {
        let what = match (repair.dropped_lines, repair.torn_tail) {
            (0, _) => "a torn trailing line".to_string(),
            (n, true) => format!("{n} torn/corrupt line(s) and a torn tail"),
            (n, false) => format!("{n} corrupt line(s)"),
        };
        let action = if repair.rewritten {
            "repaired in place"
        } else {
            "left untouched (shared open)"
        };
        eprintln!(
            "result store {dir}: shard {:02} ({}) had {what}; {action}",
            repair.shard,
            repair.path.display()
        );
    }
    if store.dropped_records() > 0 {
        eprintln!(
            "result store {dir}: dropped {} torn/corrupt record(s); the affected trials \
             will be recomputed",
            store.dropped_records()
        );
    }
}

/// The hidden `--fabric-worker` child mode: claim shards of the shared
/// store via lease files and execute the trials routed to them. Spawned
/// by `--workers K`, but also invocable directly — any number of
/// independently launched workers (different machines on a shared
/// filesystem included) cooperate through the lease protocol alone.
fn run_fabric_worker(
    spec_path: &str,
    out_dir: &str,
    effort: Effort,
    holder: String,
    lease_ttl: Option<Duration>,
) -> ExitCode {
    let text = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read spec file {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match SpecFile::parse(&text) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The same default-seed rule as the parent's aggregation pass, so the
    // worker executes exactly the trials the final report will ask for.
    let sweep = file.into_sweep(0..effort.seeds());
    let mut config = FabricConfig::new(&holder);
    if let Some(ttl) = lease_ttl {
        config = config.lease_ttl(ttl);
    }
    let result = fabric::run_worker(out_dir, &sweep, &config, |event| match event {
        WorkerEvent::ShardClaimed { shard } => {
            eprintln!("fabric worker {holder}: claimed shard {shard:02}");
        }
        WorkerEvent::ShardComplete {
            shard,
            executed,
            cached,
        } => {
            eprintln!(
                "fabric worker {holder}: shard {shard:02} complete \
                 ({executed} executed, {cached} already stored)"
            );
        }
        WorkerEvent::LeaseReclaimed {
            shard,
            holder: dead,
        } => {
            eprintln!(
                "fabric worker {holder}: reclaimed stale lease on shard {shard:02} from {dead}"
            );
        }
        WorkerEvent::LeaseLost { shard } => {
            eprintln!("fabric worker {holder}: lost lease on shard {shard:02}, abandoning it");
        }
        WorkerEvent::PointStopped {
            point,
            seeds_used,
            reason,
        } => {
            eprintln!(
                "fabric worker {holder}: point {point} stopped after {seeds_used} seed(s) \
                 ({reason})"
            );
        }
    });
    match result {
        Ok(summary) => {
            eprintln!(
                "fabric worker {holder}: done ({} executed, {} cached, {} shard(s) claimed, \
                 {} stale lease(s) reclaimed)",
                summary.trials_executed,
                summary.trials_cached,
                summary.shards_claimed,
                summary.leases_reclaimed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fabric worker {holder}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spawns `workers` fabric children over the shared store and waits for
/// them. Worker failures are warnings, not errors: the fabric's whole
/// point is that the parent's resume pass completes whatever crashed
/// workers left behind.
fn run_fabric_parent(
    spec_path: &str,
    out_dir: &str,
    effort_arg: Option<&str>,
    workers: usize,
    lease_ttl_ms: Option<&str>,
) -> Result<(), String> {
    let exe = env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut children = Vec::new();
    for k in 0..workers {
        let mut cmd = Command::new(&exe);
        cmd.arg("--fabric-worker")
            .arg("--spec")
            .arg(spec_path)
            .arg("--out")
            .arg(out_dir)
            .arg("--holder")
            .arg(format!("worker-{k}-pid{}", std::process::id()));
        if let Some(ms) = lease_ttl_ms {
            cmd.arg("--lease-ttl-ms").arg(ms);
        }
        if let Some(effort) = effort_arg {
            cmd.arg(effort);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn fabric worker {k}: {e}"))?;
        children.push((k, child));
    }
    for (k, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!(
                "fabric worker {k} exited with {status}; its unfinished trials will be \
                 completed by the resume pass"
            ),
            Err(e) => eprintln!("waiting for fabric worker {k} failed: {e}"),
        }
    }
    // Crashed workers leave lease files (and possibly a torn shard tail)
    // behind; clear the leases so the store directory is clean, and let
    // the repairing open of the resume pass fix any torn tails.
    let cleaned = fabric::clean_leases(out_dir).map_err(|e| e.to_string())?;
    if cleaned > 0 {
        eprintln!("result store {out_dir}: removed {cleaned} leftover lease file(s)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let resume = args.iter().any(|a| a == "--resume");
    let fabric_worker = args.iter().any(|a| a == "--fabric-worker");
    let value_flags = ["--spec", "--out", "--workers", "--holder", "--lease-ttl-ms"];
    let mut flags = (None, None, None, None, None);
    for (slot, flag) in [
        &mut flags.0,
        &mut flags.1,
        &mut flags.2,
        &mut flags.3,
        &mut flags.4,
    ]
    .into_iter()
    .zip(value_flags)
    {
        match flag_value(&args, flag) {
            Ok(v) => *slot = v,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (spec_path, out_dir, workers_arg, holder, lease_ttl_ms) = flags;
    if out_dir.is_some() && spec_path.is_none() {
        eprintln!("--out is only supported together with --spec");
        return ExitCode::FAILURE;
    }
    if resume && out_dir.is_none() {
        eprintln!("--resume requires --out <dir>");
        return ExitCode::FAILURE;
    }
    if (workers_arg.is_some() || fabric_worker) && out_dir.is_none() {
        eprintln!("--workers and --fabric-worker require --spec <file.json> and --out <dir>");
        return ExitCode::FAILURE;
    }
    let workers = match workers_arg.as_deref().map(str::parse::<usize>) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => {
            eprintln!("--workers requires a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let lease_ttl = match lease_ttl_ms.as_deref().map(str::parse::<u64>) {
        None => None,
        Some(Ok(ms)) => Some(Duration::from_millis(ms)),
        Some(Err(_)) => {
            eprintln!("--lease-ttl-ms requires an integer millisecond count");
            return ExitCode::FAILURE;
        }
    };
    let positional: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if value_flags.contains(&a.as_str()) {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };

    if let Some(path) = spec_path {
        // In spec mode the only accepted positional is an effort level; a
        // stray experiment id would otherwise be dropped silently.
        let effort_arg = positional.first().map(|s| s.as_str());
        if positional.len() > 1
            || matches!(effort_arg, Some(a) if !matches!(a, "smoke" | "quick" | "full"))
        {
            eprintln!(
                "--spec cannot be combined with an experiment id; pass only an optional \
                 effort level (smoke|quick|full), got: {}",
                positional
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::FAILURE;
        }
        let effort = Effort::from_arg(effort_arg);

        if fabric_worker {
            let Some(dir) = out_dir else {
                unreachable!("--fabric-worker without --out was rejected above")
            };
            let holder = holder.unwrap_or_else(|| format!("worker-pid{}", std::process::id()));
            return run_fabric_worker(&path, &dir, effort, holder, lease_ttl);
        }

        // The stale-cache refusal applies before any fabric worker starts:
        // a non-empty store without --resume is an error in every mode.
        if let Some(dir) = &out_dir {
            let store = match ResultStore::open_shared(dir) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if !resume && !store.is_empty() {
                eprintln!(
                    "result store {dir} already holds {} record(s); pass --resume to \
                     continue the sweep or choose a fresh --out directory",
                    store.len()
                );
                return ExitCode::FAILURE;
            }
        }

        let fabric_ran = if let (Some(k), Some(dir)) = (workers, &out_dir) {
            if let Err(message) =
                run_fabric_parent(&path, dir, effort_arg, k, lease_ttl_ms.as_deref())
            {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
            true
        } else {
            false
        };

        let runner = match &out_dir {
            None => SweepRunner::new(),
            Some(dir) => {
                let store = match ResultStore::open(dir) {
                    Ok(store) => store,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                log_repair_stats(dir, &store);
                if resume || fabric_ran {
                    // After a fabric run the store holds the workers'
                    // results; the aggregation pass must serve them.
                    SweepRunner::new().store(Arc::new(store))
                } else {
                    SweepRunner::new().record_only(Arc::new(store))
                }
            }
        };
        match run_spec_file_stored(&path, 0..effort.seeds(), &runner) {
            Ok((report, totals)) => {
                if markdown {
                    println!("{}", report.to_markdown());
                } else {
                    println!("{}", report.to_plain_text());
                }
                if let Some(dir) = &out_dir {
                    // Cache accounting goes to stderr only: stdout must stay
                    // bit-identical between fresh and resumed runs.
                    eprintln!(
                        "result store {dir}: {} trial(s) served from cache, {} executed",
                        totals.cached_trials(),
                        totals.executed_trials()
                    );
                }
                return ExitCode::SUCCESS;
            }
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }

    let id = positional.first().map(|s| s.as_str()).unwrap_or("all");
    let effort = Effort::from_arg(positional.get(1).map(|s| s.as_str()));

    let reports: Vec<ExperimentReport> = if id.eq_ignore_ascii_case("all") {
        run_all(effort)
    } else {
        match EXPERIMENTS
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(id))
        {
            Some((_, run)) => vec![run(effort)],
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(key, _)| *key).collect();
                eprintln!(
                    "unknown experiment id '{id}'; expected {}, or 'all' (or --spec <file.json>)",
                    ids.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    };

    for report in &reports {
        if markdown {
            println!("{}", report.to_markdown());
        } else {
            println!("{}", report.to_plain_text());
        }
    }
    ExitCode::SUCCESS
}
