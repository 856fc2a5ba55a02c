//! Integration tests of the streaming probe pipeline: equivalence of the
//! probe-composed observation channels with the engine's own accounting,
//! the declarative `"probes"` spec field, and probe outputs flowing
//! through `Sim`, `SweepRunner`, and the store.

use std::sync::Arc;

use proptest::prelude::*;

use wireless_sync::prelude::*;
use wireless_sync::radio::engine::Engine;
use wireless_sync::sync::registry;
use wireless_sync::sync::runner::BoxedAdversary;
use wireless_sync::sync::store::spec_digest;

/// Builds a registry-resolved engine for `(spec, seed)` on the
/// `ProtocolCtor` path, whose outcomes equal `Sim::run_one`'s (the registry
/// tests pin this), exposed so tests can attach probes and inspect the
/// engine afterwards.
fn engine_for(
    spec: &ScenarioSpec,
    seed: u64,
) -> Engine<wireless_sync::sync::registry::CatalogueProtocol, BoxedAdversary> {
    let scenario = spec.scenario();
    let ctor = registry::resolve_protocol(spec.protocol.name())
        .unwrap()
        .instantiate(&scenario, &spec.protocol.params)
        .unwrap();
    let adversary = registry::build_adversary(&spec.adversary, &scenario, seed).unwrap();
    Engine::new(
        scenario.sim_config(),
        &*ctor,
        adversary,
        scenario.activation.clone(),
        seed,
    )
    .unwrap()
}

const PROTOCOLS: [&str; 5] = [
    "trapdoor",
    "good-samaritan",
    "wakeup",
    "round-robin",
    "single-frequency",
];
const ADVERSARIES: [&str; 5] = ["none", "random", "fixed-band", "sweep", "adaptive-greedy"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An independently attached `SimMetrics` probe folds the identical
    /// aggregates the engine accumulates internally — the per-round tally
    /// stream carries everything the four-channel engine used to count in
    /// place.
    #[test]
    fn attached_metrics_probe_matches_engine_metrics(
        protocol_idx in 0usize..5,
        adversary_idx in 0usize..5,
        seed in 0u64..500,
    ) {
        let spec = ScenarioSpec::new(PROTOCOLS[protocol_idx], 6, 8, 2)
            .with_adversary(ADVERSARIES[adversary_idx])
            .with_max_rounds(2_000);
        let mut engine = engine_for(&spec, seed);
        let slot = engine.attach_probe(Box::new(SimMetrics::default()));
        engine.run();
        let engine_metrics = *engine.metrics();
        let probe_metrics: SimMetrics = engine
            .take_probes()
            .take(slot)
            .expect("the metrics probe is recoverable");
        prop_assert_eq!(probe_metrics, engine_metrics);
    }
}

#[test]
fn probed_specs_round_trip_and_validate() {
    let spec = ScenarioSpec::new("trapdoor", 8, 8, 2)
        .with_adversary("random")
        .with_probe("metrics")
        .with_probe(ComponentSpec::named("trace").with("max_rounds", 32u64));
    let text = spec.to_json();
    assert!(text.contains("\"probes\""));
    let back = ScenarioSpec::from_json(&text).expect("probed specs round-trip");
    assert_eq!(back, spec);

    // Probe-less specs keep their historical wire form: no "probes" key.
    let plain = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
    assert!(!plain.to_json().contains("probes"));

    // Probes are excluded from the store digest: instrumented and
    // outcome-only runs of the same cell share cache entries.
    assert_eq!(spec_digest(&spec), spec_digest(&plain));

    // Unknown probe names and bad probe parameters fail at build time.
    let unknown = plain.clone().with_probe("oscilloscope");
    match Sim::from_spec(&unknown) {
        Err(SpecError::UnknownProbe { name, known }) => {
            assert_eq!(name, "oscilloscope");
            assert_eq!(known, vec!["checker", "fault-counters", "metrics", "trace"]);
        }
        other => panic!("expected UnknownProbe, got {other:?}", other = other.err()),
    }
    let mistyped = plain
        .clone()
        .with_probe(ComponentSpec::named("trace").with("max_rounds", "lots"));
    assert!(matches!(
        Sim::from_spec(&mistyped),
        Err(SpecError::BadParam { .. })
    ));
    let typo = plain.with_probe(ComponentSpec::named("checker").with("max_recroded", 5u64));
    assert!(matches!(
        Sim::from_spec(&typo),
        Err(SpecError::UnknownParam { .. })
    ));
}

#[test]
fn run_probed_carries_outputs_and_cache_hits_skip_probes() {
    let dir = std::env::temp_dir().join(format!(
        "wsync-probe-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let plain_spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
    let probed_spec = plain_spec
        .clone()
        .with_probe("checker")
        .with_probe("metrics");
    let baseline = Sim::from_spec(&plain_spec).unwrap().run_one(5);

    // Fresh probed run: outcome identical, outputs present in order.
    let sim = Sim::from_spec(&probed_spec).unwrap();
    let probed = sim.run_probed(5);
    assert_eq!(probed.outcome, baseline);
    let outputs = probed.probes.expect("fresh runs produce probe outputs");
    assert_eq!(outputs.len(), 2);
    assert_eq!(outputs[0].name, "checker");
    assert_eq!(outputs[1].name, "metrics");

    // Store-backed: the outcome-only trial is recorded; a probed sweep's
    // cache hit serves it without executing (probes: None).
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let recorder = Sim::from_spec(&plain_spec).unwrap();
    store.put(recorder.digest(), 5, &baseline).unwrap();
    assert_eq!(
        sim.digest(),
        recorder.digest(),
        "probed and outcome-only sims share the content digest"
    );
    let mut seen: Vec<(u64, bool)> = Vec::new();
    let report = SweepRunner::new()
        .store(Arc::clone(&store))
        .run_points_with(
            vec![(String::new(), probed_spec)],
            5..7,
            None,
            |_, outcome, outputs| {
                if outcome.seed == 5 {
                    assert_eq!(outcome, &baseline);
                }
                seen.push((outcome.seed, outputs.is_some()));
            },
        )
        .unwrap();
    // The cache hit skips the engine and probes; the seed that is not
    // cached executes, probes and persists.
    assert_eq!(seen, vec![(5, false), (6, true)]);
    assert_eq!((report.cached_trials(), report.executed_trials()), (1, 1));
    assert!(store.contains(sim.digest(), 6));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn first_only_probing_samples_one_seed_per_point() {
    // The sampling mode behind the --spec probe table: only each point's
    // first seed carries probe outputs; the outcome stream and aggregates
    // are unchanged.
    let base = ScenarioSpec::new("trapdoor", 6, 8, 1)
        .with_adversary("random")
        .with_probe("metrics");
    // Distinct specs per point: the points must not share a store digest,
    // or one point's executed trials would satisfy the other's cache.
    let points = vec![
        ("t=1".to_string(), base.clone()),
        ("t=3".to_string(), {
            let mut p = base.clone();
            p.disruption_bound = 3;
            p
        }),
    ];
    let mut probed_seeds: Vec<(usize, u64)> = Vec::new();
    let mut outcomes: Vec<SyncOutcome> = Vec::new();
    let report = SweepRunner::new()
        .run_points_with(points.clone(), 2..6, None, |point, outcome, outputs| {
            outcomes.push(outcome.clone());
            if outputs.is_some() {
                probed_seeds.push((point, outcome.seed));
            }
        })
        .unwrap();
    assert_eq!(probed_seeds, vec![(0, 2), (1, 2)]);
    let mut plain: Vec<SyncOutcome> = Vec::new();
    let plain_report = SweepRunner::new()
        .run_points_each(points.clone(), 2..6, |_, outcome| {
            plain.push(outcome.clone())
        })
        .unwrap();
    assert_eq!(outcomes, plain);
    for (a, b) in report.points.iter().zip(&plain_report.points) {
        assert_eq!(a.stats, b.stats);
    }

    // With a resume store that already holds the first seed, the sample
    // moves to the first seed that actually executes.
    let dir = std::env::temp_dir().join(format!(
        "wsync-probe-first-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    for (_, spec) in &points {
        // pre-cache seed 2 for both points
        let sim = Sim::from_spec(spec).unwrap();
        store.put(sim.digest(), 2, &sim.run_one(2)).unwrap();
    }
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let mut probed_seeds: Vec<(usize, u64)> = Vec::new();
    SweepRunner::new()
        .store(store)
        .run_points_with(points, 2..6, None, |point, outcome, outputs| {
            if outputs.is_some() {
                probed_seeds.push((point, outcome.seed));
            }
        })
        .unwrap();
    assert_eq!(
        probed_seeds,
        vec![(0, 3), (1, 3)],
        "the probe sample lands on the first seed the cache cannot serve"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
