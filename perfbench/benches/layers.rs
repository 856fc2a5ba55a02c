//! Per-layer cells of the traced run that every workload reports: the
//! engine's typed/registry A/B, the small grid's sweep and fabric layers,
//! and the store's open and lookup costs on the pre-filled serve store.

use std::path::Path;
use std::time::Instant;

use wsync_core::store::{spec_digest, ResultStore};

use crate::serve::{ensure_filler, served_spec, FILLER_RECORDS};
use crate::sweeps::{self, dense_spec, drain_fabric, run_in_process, small_sweep};
use crate::trace::Tracer;
use crate::trial::{EngineOpts, Parts};
use crate::util::{fresh_dir, median, sorted_shard_digest, Report, SplitMix};

/// Typed/registry pairs in the engine A/B.
const AB_PAIRS: u64 = 12;
/// With/without-checker pairs.
const CHECKER_PAIRS: u64 = 8;

/// The engine cells on the dense cell, all from one interleaved run:
/// the statically typed Trapdoor engine against the registry's
/// type-erased path on the same seeds, alternating which runs first, then
/// the registry path with and without the property checker attached, then
/// allocation counts of each path's step loop.
pub fn engine_ab(base: u64, report: &mut Report) {
    let parts = Parts::resolve(&dense_spec(), &mut Tracer::off()).expect("valid spec");
    let with_checker = EngineOpts {
        checker: true,
        tally: false,
        count_allocs: false,
    };
    let (mut typed_ns, mut typed_rounds, mut reg_ns, mut reg_rounds) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..AB_PAIRS {
        let seed = base + i;
        let typed = || parts.run_typed_trapdoor(seed, with_checker);
        let registry = || parts.run_registry(seed, with_checker, &mut Tracer::off(), seed);
        let (t, r) = if i % 2 == 0 {
            let t = typed();
            (t, registry())
        } else {
            let r = registry();
            (typed(), r)
        };
        report.check(t.outcome == r.outcome, || {
            format!("engine: typed and registry outcomes differ at seed {seed}")
        });
        typed_ns += t.step_ns;
        typed_rounds += t.rounds;
        reg_ns += r.step_ns;
        reg_rounds += r.rounds;
    }
    let typed_per_round = typed_ns as f64 / typed_rounds as f64;
    let registry_per_round = reg_ns as f64 / reg_rounds as f64;
    report.metric("engine.typed_ns_per_round", typed_per_round, "ns");
    report.metric("engine.registry_ns_per_round", registry_per_round, "ns");
    report.metric(
        "registry.erasure_ratio",
        registry_per_round / typed_per_round,
        "ratio",
    );
    report.note(format!(
        "engine A/B base: N=256/F=32/t=8, {AB_PAIRS} interleaved pairs, typed {typed_rounds} rounds \
         in {:.1} ms, registry {reg_rounds} rounds in {:.1} ms (checker attached on both)",
        typed_ns as f64 / 1e6,
        reg_ns as f64 / 1e6
    ));

    let without = EngineOpts {
        checker: false,
        ..with_checker
    };
    let (mut on_ns, mut on_rounds, mut off_ns, mut off_rounds) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..CHECKER_PAIRS {
        let seed = base + AB_PAIRS + i;
        let run = |opts| parts.run_registry(seed, opts, &mut Tracer::off(), seed);
        let (on, off) = if i % 2 == 0 {
            let on = run(with_checker);
            (on, run(without))
        } else {
            let off = run(without);
            (run(with_checker), off)
        };
        on_ns += on.step_ns;
        on_rounds += on.rounds;
        off_ns += off.step_ns;
        off_rounds += off.rounds;
    }
    let on_per_round = on_ns as f64 / on_rounds as f64;
    let off_per_round = off_ns as f64 / off_rounds as f64;
    report.metric(
        "checker.observe_share",
        (on_per_round - off_per_round) / on_per_round,
        "ratio",
    );
    report.note(format!(
        "checker.observe_share base: step loop {on_per_round:.1} ns/round with the checker, \
         {off_per_round:.1} without ({CHECKER_PAIRS} interleaved pairs)"
    ));

    let counted = EngineOpts {
        count_allocs: true,
        ..with_checker
    };
    let (mut typed_allocs, mut typed_r, mut reg_allocs, mut reg_r) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..2 {
        let seed = base + AB_PAIRS + CHECKER_PAIRS + i;
        let t = parts.run_typed_trapdoor(seed, counted);
        let r = parts.run_registry(seed, counted, &mut Tracer::off(), seed);
        typed_allocs += t.step_allocs;
        typed_r += t.rounds;
        reg_allocs += r.step_allocs;
        reg_r += r.rounds;
    }
    report.metric(
        "engine.typed_allocs_per_round",
        typed_allocs as f64 / typed_r as f64,
        "count",
    );
    report.metric(
        "engine.registry_allocs_per_round",
        reg_allocs as f64 / reg_r as f64,
        "count",
    );
    report.note(format!(
        "allocations in the step loop: typed {typed_allocs} over {typed_r} rounds, registry \
         {reg_allocs} over {reg_r} rounds (2 seeds each)"
    ));
}

/// Fabric-vs-in-process pairs on the small sweep.
const FABRIC_PAIRS: u64 = 3;

/// The small grid's sweep and fabric layers: one traced rebuild of the
/// adaptive sweep (its fold, decision and fault-layer costs), checked
/// against `fabric::run_worker` on the same sweep, then interleaved
/// fabric/in-process pairs for the fabric's per-trial overhead.
pub fn small_grid(base: u64, work: &Path, report: &mut Report, tracer: &mut Tracer) {
    let sweep = small_sweep(base);
    let rebuilt_dir = fresh_dir(&work.join("grid-rebuilt")).expect("work dir");
    let store = ResultStore::open(&rebuilt_dir).expect("store opens");
    let rebuilt = sweeps::rebuilt_adaptive(&sweep, &store, tracer, base);
    drop(store);
    let fabric_dir = work.join("grid-fabric");
    let (summary, _) = drain_fabric(&fabric_dir, &sweep);
    let same = sorted_shard_digest(&rebuilt_dir).ok() == sorted_shard_digest(&fabric_dir).ok();
    report.check(
        same && summary.trials_executed == rebuilt.plan.trials,
        || "grid: rebuilt adaptive sweep and fabric store differ".to_string(),
    );

    let times = tracer.layer_times();
    let decide = times.get("sweep.decide").copied().unwrap_or_default();
    let fold = times.get("sweep.fold").copied().unwrap_or_default();
    report.metric(
        "sweep.decide_us",
        decide.total_ns as f64 / decide.count.max(1) as f64 / 1e3,
        "us",
    );
    report.metric("sweep.batches", rebuilt.batches as f64, "count");
    report.metric(
        "sweep.fold_us",
        fold.total_ns as f64 / fold.count.max(1) as f64 / 1e3,
        "us",
    );
    // Grid points 0 and 2 run without loss, 1 and 3 with 20% drop.
    let per_round = |points: [usize; 2]| {
        let ns: u64 = points.iter().map(|&p| rebuilt.costs[p].step_ns).sum();
        let rounds: u64 = points.iter().map(|&p| rebuilt.costs[p].rounds).sum();
        ns as f64 / rounds.max(1) as f64
    };
    let (clean, lossy) = (per_round([0, 2]), per_round([1, 3]));
    report.metric("fault.overhead_share", (lossy - clean) / clean, "ratio");
    report.note(format!(
        "grid: seeds used per point {:?}, {} batch boundaries; step loop {clean:.1} ns/round \
         without loss, {lossy:.1} with 20% drop",
        rebuilt.plan.seeds_used, rebuilt.batches
    ));

    let (mut fabric_s, mut local_s, mut trials) = (0.0f64, 0.0f64, 0u64);
    let (mut claimed, mut idle) = (0u64, 0u64);
    let local_dir = work.join("grid-local");
    for k in 1..=FABRIC_PAIRS {
        let sweep = small_sweep(base + k * 100_000);
        let run_fabric = || drain_fabric(&fabric_dir, &sweep);
        let run_local = || run_in_process(&local_dir, &sweep);
        let ((summary, f), (plan, _, l)) = if k % 2 == 0 {
            let f = run_fabric();
            (f, run_local())
        } else {
            let l = run_local();
            (run_fabric(), l)
        };
        report.check(summary.trials_executed == plan.trials, || {
            format!(
                "grid: fabric ran {} trials, in-process {}",
                summary.trials_executed, plan.trials
            )
        });
        fabric_s += f.0;
        local_s += l.as_secs_f64();
        trials += plan.trials;
        claimed += summary.shards_claimed;
        idle += summary.idle_passes;
    }
    report.metric(
        "fabric.overhead_us_per_trial",
        (fabric_s - local_s) / trials as f64 * 1e6,
        "us",
    );
    report.metric(
        "fabric.shards_claimed",
        claimed as f64 / FABRIC_PAIRS as f64,
        "count",
    );
    report.metric(
        "fabric.idle_passes",
        idle as f64 / FABRIC_PAIRS as f64,
        "count",
    );
    report.note(format!(
        "fabric base: {trials} trials, run_worker {:.1} ms vs in-process {:.1} ms over {FABRIC_PAIRS} sweeps",
        fabric_s * 1e3,
        local_s * 1e3
    ));
    for dir in [rebuilt_dir, fabric_dir, local_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Store open and lookup on the pre-filled serve store.
pub fn store_open_and_get(seed: u64, work: &Path, report: &mut Report) {
    let filler = ensure_filler(work);
    let mut opens = Vec::new();
    let mut store = None;
    for _ in 0..3 {
        let started = Instant::now();
        let opened = ResultStore::open(&filler).expect("filler opens");
        opens.push(started.elapsed().as_secs_f64() * 1e3);
        store = Some(opened);
    }
    let store = store.expect("opened");
    report.metric("store.open_ms", median(&opens), "ms");
    report.metric("store.open_records", store.loaded_records() as f64, "count");
    let digest = spec_digest(&served_spec());
    let mut rng = SplitMix::new(seed);
    let lookups = 4_000u64;
    let mut hits = 0u64;
    let started = Instant::now();
    for _ in 0..lookups {
        hits += u64::from(store.get(digest, rng.below(FILLER_RECORDS)).is_some());
    }
    let per_get_us = started.elapsed().as_secs_f64() * 1e6 / lookups as f64;
    report.check(hits == lookups, || {
        format!("store: {hits}/{lookups} filler lookups hit")
    });
    report.metric("store.get_us", per_get_us, "us");
}
