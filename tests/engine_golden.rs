//! Golden-outcome regression tests for the radio engine — now driven
//! entirely through the declarative spec API.
//!
//! Each case below pins the exact [`SyncOutcome`] — rounds executed, leader
//! count, property verdicts, per-node summaries, and every engine metric —
//! of one `(protocol, adversary, N, seed)` combination. The pinned digests
//! were captured from the engine *before* the flat structure-of-arrays
//! round-dispatch rewrite and before the registry/spec API redesign; the
//! current engine, running each case via `ScenarioSpec` → `Sim::from_spec`
//! (JSON-round-tripped on the way, so the serialized form is covered too),
//! must reproduce them bit for bit — proving that the registry's
//! catalogue protocol path and the declarative spec layer are
//! observationally identical to the original statically-typed runners.
//!
//! The digest is FNV-1a over the `Debug` rendering of the full outcome, so
//! any divergence anywhere in the outcome (a metric off by one, a changed
//! sync round, a different violation) changes the digest. The side fields
//! (rounds, leaders, synced, violations) are asserted separately so a
//! failure points at what moved before anyone has to diff debug dumps.
//!
//! To re-record after an *intentional* semantic change, run
//!
//! ```sh
//! cargo test --test engine_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

mod reference_checker;
mod unhinted;

use std::fmt::Debug;

use unhinted::Unhinted;
use wireless_sync::prelude::*;
use wireless_sync::radio::activation::ActivationSchedule;
use wireless_sync::sync::registry::{self, CatalogueProtocol};

/// 64-bit FNV-1a, the digest of a full outcome's `Debug` rendering.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest(outcome: &SyncOutcome) -> u64 {
    fnv1a(format!("{outcome:?}").as_bytes())
}

/// Runs one spec through the full declarative pipeline: serialize to JSON,
/// parse back (pinning the wire format into the digest check), validate,
/// resolve against the registry, execute.
fn run_spec(spec: ScenarioSpec, seed: u64) -> SyncOutcome {
    let round_tripped =
        ScenarioSpec::from_json(&spec.to_json()).expect("golden specs round-trip through JSON");
    assert_eq!(round_tripped, spec, "JSON round trip must be lossless");
    Sim::from_spec(&round_tripped)
        .expect("golden specs are valid")
        .run_one(seed)
}

/// The fixed scenario grid: `(name, spec, seed)` for eight
/// protocol/adversary/activation combinations spanning every protocol
/// family, adaptive and oblivious adversaries, staggered and randomized
/// activation, and one known-dirty execution, plus four cells whose band
/// is wider than 64 frequencies and four that run the `round-robin` and
/// `wakeup` baselines with staggered and late activation.
fn golden_specs() -> Vec<(&'static str, ScenarioSpec, u64)> {
    vec![
        (
            "trapdoor/random/n8",
            ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random"),
            42,
        ),
        (
            "trapdoor/fixed-band/staggered/n16",
            ScenarioSpec::new("trapdoor", 16, 8, 3)
                .with_adversary("fixed-band")
                .with_activation(ActivationSchedule::Staggered { gap: 2 }),
            7,
        ),
        (
            "trapdoor/adaptive-greedy/uniform/n12",
            ScenarioSpec::new("trapdoor", 12, 16, 5)
                .with_adversary("adaptive-greedy")
                .with_activation(ActivationSchedule::UniformWindow { window: 8 }),
            13,
        ),
        (
            "good-samaritan/oblivious/n8",
            ScenarioSpec::new("good-samaritan", 8, 8, 4)
                .with_adversary(ComponentSpec::named("oblivious-random").with("t_actual", 2u64)),
            11,
        ),
        (
            "good-samaritan/bursty/n10",
            ScenarioSpec::new("good-samaritan", 10, 16, 5).with_adversary(
                ComponentSpec::named("bursty")
                    .with("period", 16u64)
                    .with("burst_len", 4u64),
            ),
            3,
        ),
        (
            "wakeup/sweep/n6",
            ScenarioSpec::new("wakeup", 6, 8, 2).with_adversary("sweep"),
            9,
        ),
        (
            "round-robin/random/n6",
            ScenarioSpec::new("round-robin", 6, 8, 2).with_adversary("random"),
            21,
        ),
        (
            "single-frequency/fixed-band/late-joiner/n4",
            ScenarioSpec::new("single-frequency", 4, 4, 1)
                .with_adversary("fixed-band")
                .with_activation(ActivationSchedule::LateJoiner { late: 3 })
                .with_max_rounds(2_000),
            5,
        ),
        // Bands wider than one 64-bit word: the engine's per-frequency
        // sets span two or three words here.
        (
            "trapdoor/random/f130/n12",
            ScenarioSpec::new("trapdoor", 12, 130, 40).with_adversary("random"),
            17,
        ),
        (
            "trapdoor/adaptive-greedy/f96/n10",
            ScenarioSpec::new("trapdoor", 10, 96, 40).with_adversary("adaptive-greedy"),
            17,
        ),
        (
            "wakeup/sweep/f65/n6",
            ScenarioSpec::new("wakeup", 6, 65, 20).with_adversary("sweep"),
            17,
        ),
        (
            "round-robin/fixed-band/f70/n6",
            ScenarioSpec::new("round-robin", 6, 70, 30).with_adversary("fixed-band"),
            17,
        ),
        // The baselines with nodes that wake at different rounds, so
        // contenders at different local rounds knock each other out.
        (
            "round-robin/adaptive-greedy/staggered/n8",
            ScenarioSpec::new("round-robin", 8, 8, 2)
                .with_adversary("adaptive-greedy")
                .with_activation(ActivationSchedule::Staggered { gap: 3 }),
            1,
        ),
        (
            "wakeup/adaptive-greedy/staggered/n8",
            ScenarioSpec::new("wakeup", 8, 8, 2)
                .with_adversary("adaptive-greedy")
                .with_activation(ActivationSchedule::Staggered { gap: 3 }),
            1,
        ),
        (
            "round-robin/adaptive-greedy/late-joiner/n8",
            ScenarioSpec::new("round-robin", 8, 8, 2)
                .with_adversary("adaptive-greedy")
                .with_activation(ActivationSchedule::LateJoiner { late: 40 }),
            1,
        ),
        (
            "wakeup/adaptive-greedy/late-joiner/n8",
            ScenarioSpec::new("wakeup", 8, 8, 2)
                .with_adversary("adaptive-greedy")
                .with_activation(ActivationSchedule::LateJoiner { late: 40 }),
            1,
        ),
    ]
}

fn cases() -> Vec<(&'static str, SyncOutcome)> {
    golden_specs()
        .into_iter()
        .map(|(name, spec, seed)| (name, run_spec(spec, seed)))
        .collect()
}

/// `(name, digest, rounds_executed, leaders, all_synchronized,
/// total_violations)` captured from the pre-refactor engine; the four
/// wide-band rows were captured from the engine that still kept its
/// frequency sets as `bool` masks and sorted index lists, and the four
/// baseline activation rows from the baselines' own protocol types, before
/// they became contention rules of `TrapdoorProtocol`.
const GOLDEN: &[(&str, u64, u64, usize, bool, u64)] = &[
    ("trapdoor/random/n8", 0xe2d21497700237cf, 195, 1, true, 0),
    (
        "trapdoor/fixed-band/staggered/n16",
        0x961573dd899aabbe,
        413,
        1,
        true,
        0,
    ),
    (
        "trapdoor/adaptive-greedy/uniform/n12",
        0xd3cbeb5377995ad1,
        642,
        1,
        true,
        0,
    ),
    (
        "good-samaritan/oblivious/n8",
        0x9501da306cadf9cd,
        425,
        1,
        true,
        0,
    ),
    (
        "good-samaritan/bursty/n10",
        0xb2c5f60684239808,
        847,
        1,
        true,
        0,
    ),
    ("wakeup/sweep/n6", 0xee9f4b32d765d19d, 90, 2, true, 0),
    ("round-robin/random/n6", 0xde3d9a1abafc2179, 185, 4, true, 0),
    (
        "single-frequency/fixed-band/late-joiner/n4",
        0xd3136354bef51a5d,
        27,
        4,
        true,
        9,
    ),
    (
        "trapdoor/random/f130/n12",
        0x4f1d89dacc3ae35a,
        4189,
        1,
        true,
        0,
    ),
    (
        "trapdoor/adaptive-greedy/f96/n10",
        0x5dc3995bd7269c68,
        4231,
        1,
        true,
        0,
    ),
    ("wakeup/sweep/f65/n6", 0x0698d9f9ac7ca1c7, 89, 5, true, 0),
    (
        "round-robin/fixed-band/f70/n6",
        0x946337fafb71ed29,
        2192,
        6,
        true,
        0,
    ),
    (
        "round-robin/adaptive-greedy/staggered/n8",
        0x7ca0acdcdc522c08,
        194,
        5,
        true,
        127,
    ),
    (
        "wakeup/adaptive-greedy/staggered/n8",
        0x48afdff8ccc6b94f,
        91,
        2,
        true,
        172,
    ),
    (
        "round-robin/adaptive-greedy/late-joiner/n8",
        0x62fb0b82151fb61b,
        216,
        4,
        true,
        9,
    ),
    (
        "wakeup/adaptive-greedy/late-joiner/n8",
        0x326a0450ec629007,
        72,
        3,
        true,
        0,
    ),
];

#[test]
fn spec_driven_outcomes_match_pre_refactor_golden_digests() {
    let produced = cases();
    assert_eq!(produced.len(), GOLDEN.len());
    for ((name, outcome), &(g_name, g_digest, g_rounds, g_leaders, g_synced, g_violations)) in
        produced.iter().zip(GOLDEN)
    {
        assert_eq!(*name, g_name, "case order drifted");
        assert_eq!(
            outcome.result.rounds_executed, g_rounds,
            "{name}: rounds_executed moved"
        );
        assert_eq!(outcome.leaders, g_leaders, "{name}: leader count moved");
        assert_eq!(
            outcome.result.all_synchronized, g_synced,
            "{name}: synchronization verdict moved"
        );
        assert_eq!(
            outcome.properties.total_violations, g_violations,
            "{name}: violation count moved"
        );
        assert_eq!(
            digest(outcome),
            g_digest,
            "{name}: full-outcome digest moved — the spec-driven registry \
             path is no longer observationally identical to the pre-refactor \
             statically-typed engine"
        );
    }
}

/// The probe pipeline must be invisible to outcomes: running every pinned
/// case with the full declarative probe stack attached (`metrics`,
/// `checker`, `trace` — the three registry probes, exercising an
/// independent metrics fold, the incremental property checker, and a full
/// trace copy) reproduces the identical golden digests, and the trial's
/// store digest is unchanged by the probes (instrumented and outcome-only
/// runs share cache entries).
#[test]
fn probe_stack_runs_reproduce_the_golden_digests() {
    for ((name, spec, seed), &(g_name, g_digest, ..)) in golden_specs().iter().zip(GOLDEN) {
        assert_eq!(*name, g_name, "case order drifted");
        let probed_spec = spec
            .clone()
            .with_probe("metrics")
            .with_probe("checker")
            .with_probe("trace");
        assert_eq!(
            wireless_sync::sync::store::spec_digest(&probed_spec),
            wireless_sync::sync::store::spec_digest(spec),
            "{name}: declaring probes must not move the spec's store digest"
        );
        let sim = Sim::from_spec(&probed_spec).expect("probed golden specs are valid");
        let probed = sim.run_probed(*seed);
        assert_eq!(
            digest(&probed.outcome),
            g_digest,
            "{name}: attaching the metrics+checker+trace probe stack changed \
             the outcome digest — probes must never perturb an execution"
        );
        let outputs = probed.probes;
        assert_eq!(outputs.len(), 3, "{name}: one output per declared probe");
        assert_eq!(outputs[0].name, "metrics");
        assert_eq!(outputs[1].name, "checker");
        assert_eq!(outputs[2].name, "trace");
        // The independent metrics fold reproduces the engine's counters.
        assert_eq!(
            outputs[0].value.get("rounds").and_then(|v| v.as_u64()),
            Some(probed.outcome.result.metrics.rounds),
            "{name}: the metrics probe's independent fold disagrees with the engine"
        );
        assert_eq!(
            outputs[0].value.get("deliveries").and_then(|v| v.as_u64()),
            Some(probed.outcome.result.metrics.deliveries),
            "{name}: the metrics probe's delivery count disagrees with the engine"
        );
        // The incremental checker's verdict matches the post-hoc one.
        assert_eq!(
            outputs[1].value.get("liveness").and_then(|v| v.as_bool()),
            Some(probed.outcome.properties.liveness),
            "{name}: the incremental checker's liveness verdict disagrees"
        );
        assert_eq!(
            outputs[1]
                .value
                .get("total_violations")
                .and_then(|v| v.as_u64()),
            Some(probed.outcome.properties.total_violations),
            "{name}: the incremental checker's violation count disagrees"
        );
        // The trace probe saw every executed round.
        assert_eq!(
            outputs[2]
                .value
                .get("rounds_recorded")
                .and_then(|v| v.as_u64()),
            Some(probed.outcome.result.rounds_executed),
            "{name}: the trace probe missed rounds"
        );
    }
}

/// The catalogue node `spec` names, which [`Sim`] runs the engine typed
/// over.
fn catalogue_node(spec: &ScenarioSpec) -> CatalogueProtocol {
    let ctor = registry::resolve_protocol(spec.protocol.name())
        .unwrap()
        .instantiate(spec, &spec.protocol.params)
        .unwrap();
    ctor(NodeId::new(0))
}

/// The engine [`Sim`] builds for `spec`, with the spec's fault layers, over
/// the nodes `factory` makes.
fn typed_engine<P: Protocol>(
    spec: &ScenarioSpec,
    seed: u64,
    factory: impl FnMut(NodeId) -> P,
) -> Engine<P, Box<dyn Adversary>> {
    let adversary = registry::build_adversary(&spec.adversary, spec, seed).unwrap();
    let mut engine = Engine::new(
        spec.sim_config(),
        factory,
        adversary,
        spec.activation.clone(),
        seed,
    )
    .unwrap();
    for fault in &spec.faults {
        engine.attach_fault(registry::build_fault(fault, spec).unwrap());
    }
    engine
}

/// Runs `spec` as [`Sim`] does — on the engine typed over the catalogue
/// node, with the spec's fault layers — with `PropertyChecker` and the
/// two-scan reference attached, and returns both reports.
fn reports_against_reference(spec: &ScenarioSpec, seed: u64) -> (PropertyReport, PropertyReport) {
    match catalogue_node(spec) {
        CatalogueProtocol::Trapdoor(node) => {
            reference_checker::run_both(&mut typed_engine(spec, seed, |_| node.clone()))
        }
        CatalogueProtocol::GoodSamaritan(node) => {
            reference_checker::run_both(&mut typed_engine(spec, seed, |_| node.clone()))
        }
    }
}

/// The checker fed by the engine's output breaks and disagreement count
/// reports exactly what the two-scan reference derives from the node
/// views, on every `GOLDEN` row (among them the single-frequency cell under
/// fixed-band jamming, whose late joiners disagree with the early nodes)
/// and every `FAULTY_GOLDEN` row (crashes and restarts included). Each
/// report also equals the pinned `Sim` outcome's, so the run compared is
/// the pinned one.
#[test]
fn the_engine_fed_checker_matches_the_two_scan_reference_on_every_golden_row() {
    for (name, spec, seed) in golden_specs().into_iter().chain(faulty_golden_specs()) {
        let (checker, reference) = reports_against_reference(&spec, seed);
        assert_eq!(
            checker, reference,
            "{name}: the engine-fed checker disagrees with the two-scan reference"
        );
        assert_eq!(
            checker,
            run_spec(spec, seed).properties,
            "{name}: the typed run with both checkers is not the pinned run"
        );
    }
}

/// What a typed run shows: its result, `PropertyChecker`'s report, every
/// recorded round, and the nodes as they ended.
type TracedRun<P> = (ExecutionResult, PropertyReport, Vec<TraceEvent>, Vec<P>);

fn traced_run<P: Protocol>(
    spec: &ScenarioSpec,
    seed: u64,
    factory: impl FnMut(NodeId) -> P,
) -> TracedRun<P> {
    let mut engine = typed_engine(spec, seed, factory);
    let checker = engine.attach_probe(Box::new(PropertyChecker::new()));
    let trace = engine.attach_probe(Box::new(FullTrace::new()));
    let result = engine.run();
    let mut probes = engine.take_probes();
    let checker: PropertyChecker = probes.take(checker).expect("checker slot");
    let trace: FullTrace = probes.take(trace).expect("trace slot");
    let report = checker.finish(&result);
    (
        result,
        report,
        trace.events().to_vec(),
        engine.into_protocols(),
    )
}

/// Runs `spec` on `node` as the engine runs it, skipping the quiet rounds
/// the node ignores, and on `node` wrapped in [`Unhinted`], which the
/// engine never skips and which checks each hint of the node it wraps;
/// requires equal results, checker reports and traces, and returns how
/// many node-rounds the wrapper checked.
fn with_and_without_the_skip<P: Protocol + Clone + Debug>(
    name: &str,
    spec: &ScenarioSpec,
    seed: u64,
    node: P,
) -> u64 {
    let (result, report, trace, _) = traced_run(spec, seed, |_| node.clone());
    let (plain_result, plain_report, plain_trace, wrapped) =
        traced_run(spec, seed, |_| Unhinted::new(node.clone()));
    assert_eq!(result, plain_result, "{name}: the skip moved the result");
    assert_eq!(report, plain_report, "{name}: the skip moved the checker");
    assert_eq!(
        report,
        run_spec(spec.clone(), seed).properties,
        "{name}: the typed run is not the pinned run"
    );
    for (event, plain) in trace.iter().zip(&plain_trace) {
        assert_eq!(event, plain, "{name}: the skip moved round {}", event.round);
    }
    assert_eq!(trace.len(), plain_trace.len(), "{name}: rounds recorded");
    unhinted::audited(&wrapped)
}

/// The engine skips a node's feedback in a quiet round its protocol
/// ignores; on every `GOLDEN` and `FAULTY_GOLDEN` row (both protocol
/// families; staggered, late-joiner and churn cells among them) that
/// changes no result, no checker report and no round of the trace, and
/// every hint the run gives keeps its promise.
#[test]
fn skipping_quiet_rounds_changes_no_golden_run() {
    for (name, spec, seed) in golden_specs().into_iter().chain(faulty_golden_specs()) {
        let audited = match catalogue_node(&spec) {
            CatalogueProtocol::Trapdoor(node) => with_and_without_the_skip(name, &spec, seed, node),
            CatalogueProtocol::GoodSamaritan(node) => {
                with_and_without_the_skip(name, &spec, seed, node)
            }
        };
        assert!(audited > 0, "{name}: no node ever ignored a quiet round");
    }
}

// ---------------------------------------------------------------------------
// Faulty-run goldens: the same digest pinning for executions with fault
// layers attached. These were recorded when the fault subsystem landed and
// pin its exact RNG-stream consumption — a layer drawing one extra (or one
// fewer) random number, or consulting streams in a different order, moves
// every digest below while leaving the fault-free `GOLDEN` table untouched.
// ---------------------------------------------------------------------------

/// `(name, spec, seed)` for nine fault configurations: each built-in
/// layer alone, a drop+partition+churn stack, the full
/// four-layer stack on an adaptive jammer, a loss layer on a band of
/// three 64-bit words, whose per-delivery draws follow the frequency order
/// across words, and churn on each of the `round-robin` and `wakeup`
/// baselines.
fn faulty_golden_specs() -> Vec<(&'static str, ScenarioSpec, u64)> {
    let base = || ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
    let halves = || {
        wireless_sync::sync::json::Value::Array(vec![
            wireless_sync::sync::json::Value::Array((0..4u32).map(Into::into).collect()),
            wireless_sync::sync::json::Value::Array((4..8u32).map(Into::into).collect()),
        ])
    };
    vec![
        (
            "faulty/drop-0.25",
            base().with_fault(ComponentSpec::named("drop").with("drop_rate", 0.25)),
            42,
        ),
        (
            "faulty/capture-0.2",
            base().with_fault(ComponentSpec::named("capture").with("miss_rate", 0.2)),
            42,
        ),
        (
            "faulty/partition-heal-128",
            base().with_fault(
                ComponentSpec::named("partition")
                    .with("groups", halves())
                    .with("heal_at", 128u64),
            ),
            42,
        ),
        (
            "faulty/churn-0.01",
            base().with_fault(
                ComponentSpec::named("churn")
                    .with("churn_rate", 0.01)
                    .with("downtime", 8u64),
            ),
            42,
        ),
        (
            "faulty/drop+partition+churn",
            base()
                .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.15))
                .with_fault(
                    ComponentSpec::named("partition")
                        .with("groups", halves())
                        .with("heal_at", 96u64),
                )
                .with_fault(
                    ComponentSpec::named("churn")
                        .with("churn_rate", 0.005)
                        .with("downtime", 6u64),
                ),
            7,
        ),
        (
            "faulty/full-stack/adaptive-greedy",
            ScenarioSpec::new("trapdoor", 8, 8, 2)
                .with_adversary("adaptive-greedy")
                .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.1))
                .with_fault(ComponentSpec::named("capture").with("miss_rate", 0.1))
                .with_fault(
                    ComponentSpec::named("partition")
                        .with("groups", halves())
                        .with("heal_at", 64u64),
                )
                .with_fault(
                    ComponentSpec::named("churn")
                        .with("churn_rate", 0.005)
                        .with("downtime", 4u64),
                ),
            13,
        ),
        (
            "faulty/drop-0.25/f130",
            ScenarioSpec::new("trapdoor", 12, 130, 40)
                .with_adversary("random")
                .with_fault(ComponentSpec::named("drop").with("drop_rate", 0.25)),
            17,
        ),
        (
            "faulty/churn-0.002/round-robin",
            baseline_churn("round-robin"),
            4,
        ),
        ("faulty/churn-0.002/wakeup", baseline_churn("wakeup"), 4),
    ]
}

/// A baseline under slow churn with long downtimes: restarts call
/// `on_activate` again on nodes that already ran, and both rows restart
/// several nodes before the run ends.
fn baseline_churn(protocol: &str) -> ScenarioSpec {
    ScenarioSpec::new(protocol, 8, 8, 2)
        .with_adversary("random")
        .with_fault(
            ComponentSpec::named("churn")
                .with("churn_rate", 0.002)
                .with("downtime", 50u64),
        )
        .with_max_rounds(3_000)
}

/// `(name, digest, rounds_executed, leaders, all_synchronized,
/// total_violations)` recorded when the fault subsystem landed; the
/// wide-band row was recorded before the bitset rewrite, and the two
/// baseline churn rows from the baselines' own protocol types.
const FAULTY_GOLDEN: &[(&str, u64, u64, usize, bool, u64)] = &[
    ("faulty/drop-0.25", 0x207b2637dd01cfba, 195, 1, true, 0),
    ("faulty/capture-0.2", 0x3411d557bd5dba07, 195, 1, true, 0),
    (
        "faulty/partition-heal-128",
        0x90552995a78f6e40,
        200,
        1,
        true,
        0,
    ),
    ("faulty/churn-0.01", 0x156fbe55586da009, 716, 1, true, 35),
    (
        "faulty/drop+partition+churn",
        0x5036ddda8dc136da,
        193,
        1,
        true,
        0,
    ),
    (
        "faulty/full-stack/adaptive-greedy",
        0x95030a2d3c5112a0,
        206,
        1,
        false,
        0,
    ),
    (
        "faulty/drop-0.25/f130",
        0xf49bd5283b80959d,
        4139,
        1,
        true,
        0,
    ),
    (
        "faulty/churn-0.002/round-robin",
        0xb742036c28e37a07,
        318,
        5,
        true,
        319,
    ),
    (
        "faulty/churn-0.002/wakeup",
        0x162cd4cc35094631,
        156,
        1,
        true,
        327,
    ),
];

#[test]
fn fault_layer_runs_match_pinned_golden_digests() {
    let produced: Vec<(&'static str, SyncOutcome)> = faulty_golden_specs()
        .into_iter()
        .map(|(name, spec, seed)| (name, run_spec(spec, seed)))
        .collect();
    assert_eq!(produced.len(), FAULTY_GOLDEN.len());
    for ((name, outcome), &(g_name, g_digest, g_rounds, g_leaders, g_synced, g_violations)) in
        produced.iter().zip(FAULTY_GOLDEN)
    {
        assert_eq!(*name, g_name, "case order drifted");
        assert_eq!(
            outcome.result.rounds_executed, g_rounds,
            "{name}: rounds_executed moved"
        );
        assert_eq!(outcome.leaders, g_leaders, "{name}: leader count moved");
        assert_eq!(
            outcome.result.all_synchronized, g_synced,
            "{name}: synchronization verdict moved"
        );
        assert_eq!(
            outcome.properties.total_violations, g_violations,
            "{name}: violation count moved"
        );
        assert_eq!(
            digest(outcome),
            g_digest,
            "{name}: faulty-run digest moved — a fault layer's RNG-stream \
             consumption or its placement in the round lifecycle changed"
        );
    }
}

/// Re-recording helper for the faulty table.
#[test]
#[ignore = "run with --ignored --nocapture to re-record the faulty golden table"]
fn print_faulty_golden_table() {
    for (name, spec, seed) in faulty_golden_specs() {
        let outcome = run_spec(spec, seed);
        println!(
            "    (\"{name}\", 0x{:016x}, {}, {}, {}, {}),",
            digest(&outcome),
            outcome.result.rounds_executed,
            outcome.leaders,
            outcome.result.all_synchronized,
            outcome.properties.total_violations,
        );
    }
}

/// Re-recording helper: prints the `GOLDEN` table for the current engine.
#[test]
#[ignore = "run with --ignored --nocapture to re-record the golden table"]
fn print_golden_table() {
    for (name, outcome) in cases() {
        println!(
            "    (\"{name}\", 0x{:016x}, {}, {}, {}, {}),",
            digest(&outcome),
            outcome.result.rounds_executed,
            outcome.leaders,
            outcome.result.all_synchronized,
            outcome.properties.total_violations,
        );
    }
}
