//! The sparse-activity engine at large N: a staggered schedule wakes one
//! node per round, so over a 2,000-round cap at most 2,000 of the N nodes
//! are ever active, however large N is. Each cell runs twice: through the
//! bare `Engine::run`, and through `Sim::run_one`, the checked path every
//! spec, sweep, fabric and serve run takes, where the property checker
//! reads the engine's output breaks instead of scanning the N node views.
//! Two more probed runs, of the plain nodes and of the nodes wrapped in
//! `Unhinted` (which the engine never skips), must match round for round. Only deterministic facts are asserted; CI runs this file in
//! release under a time budget, which is what catches a regression back
//! to O(N)-per-round scanning on either path.

mod unhinted;

use unhinted::Unhinted;
use wireless_sync::prelude::*;
use wireless_sync::radio::trace::{ActionView, NodeView};
use wireless_sync::sync::registry;

const ROUNDS: u64 = 2_000;

/// An FNV-1a digest of every observed round: its number, activations,
/// disruptions, deliveries, output breaks and tally, and the action and
/// view of each node activated so far. Nodes never activated keep their
/// `Inactive` action and view, so the digest covers what a `FullTrace`
/// records, at O(activated) per round.
#[derive(Debug)]
struct TraceDigest {
    activated: Vec<usize>,
    hash: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            activated: Vec::new(),
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl TraceDigest {
    fn value(&self) -> u64 {
        self.hash
    }

    fn fold_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fold(&mut self, word: u64) {
        self.fold_bytes(&word.to_le_bytes());
    }
}

impl Probe for TraceDigest {
    fn observe(&mut self, o: &RoundObservation<'_>) {
        self.activated
            .extend(o.newly_activated.iter().map(|node| node.index()));
        // The per-round parts are short; their `Debug` text is exact.
        let round = format!(
            "{} {:?} {:?} {:?} {:?} {:?}",
            o.round,
            o.newly_activated,
            o.disrupted.iter().collect::<Vec<_>>(),
            o.deliveries,
            o.breaks,
            o.tally
        );
        self.fold_bytes(round.as_bytes());
        for k in 0..self.activated.len() {
            let i = self.activated[k];
            let action = match o.actions[i] {
                ActionView::Inactive => 0,
                ActionView::Sleep => 1,
                ActionView::Listen(f) => 2 | u64::from(f.index()) << 8,
                ActionView::Broadcast(f) => 3 | u64::from(f.index()) << 8,
                ActionView::Crashed => 4,
            };
            let (view, output) = match o.nodes[i] {
                NodeView::Inactive => (0, 0),
                NodeView::Active { output: None } => (1, 0),
                NodeView::Active { output: Some(v) } => (2, v),
                NodeView::Crashed => (3, 0),
            };
            self.fold(action);
            self.fold(view);
            self.fold(output);
        }
    }
}

/// Runs `spec` on the nodes `factory` makes with `PropertyChecker` and a
/// [`TraceDigest`] attached; returns the result, the checker's report, the
/// digest and the nodes.
fn probed_run<P: Protocol>(
    spec: &ScenarioSpec,
    seed: u64,
    factory: impl FnMut(NodeId) -> P,
) -> (ExecutionResult, PropertyReport, u64, Vec<P>) {
    let adversary = registry::build_adversary(&spec.adversary, spec, seed).unwrap();
    let mut engine = Engine::new(
        spec.sim_config(),
        factory,
        adversary,
        spec.activation.clone(),
        seed,
    )
    .unwrap();
    let checker = engine.attach_probe(Box::new(PropertyChecker::new()));
    let digest = engine.attach_probe(Box::new(TraceDigest::default()));
    let result = engine.run();
    let mut probes = engine.take_probes();
    let checker: PropertyChecker = probes.take(checker).expect("checker slot");
    let digest: TraceDigest = probes.take(digest).expect("digest slot");
    let report = checker.finish(&result);
    (result, report, digest.value(), engine.into_protocols())
}

/// Runs the staggered Trapdoor cell (F=32, t=8, random adversary) at `n`
/// nodes to the round cap, bare and checked, and checks what the sparse
/// engine guarantees.
fn staggered_trapdoor_run(n: usize) {
    let spec = ScenarioSpec::new("trapdoor", n, 32, 8)
        .with_adversary("random")
        .with_activation(ActivationSchedule::Staggered { gap: 1 })
        .with_max_rounds(ROUNDS);
    let config = TrapdoorConfig::new(spec.upper_bound(), 32, 8);
    let seed = 1;
    let adversary = registry::build_adversary(&spec.adversary, &spec, seed).unwrap();
    let mut engine = Engine::new(
        spec.sim_config(),
        |_| TrapdoorProtocol::new(config),
        adversary,
        spec.activation.clone(),
        seed,
    )
    .unwrap();
    let result = engine.run();
    assert_eq!(result.rounds_executed, ROUNDS, "N={n}: stops at the cap");
    assert!(
        u64::from(result.metrics.max_active_nodes) <= ROUNDS,
        "N={n}: {} nodes active at once",
        result.metrics.max_active_nodes
    );
    assert!(result.metrics.deliveries > 0, "N={n}: no message delivered");

    let outcome = Sim::from_spec(&spec).unwrap().run_one(seed);
    assert_eq!(
        outcome.result, result,
        "N={n}: the checked run is not the bare engine's"
    );
    assert_eq!(
        outcome.properties.rounds_observed, ROUNDS,
        "N={n}: the checker missed rounds"
    );
    assert_eq!(
        outcome.properties.total_violations, 0,
        "N={n}: {:?}",
        outcome.properties.violations
    );

    // The quiet-round skip changes nothing, and every hint keeps its
    // promise.
    let (skipped, report, digest, _) = probed_run(&spec, seed, |_| TrapdoorProtocol::new(config));
    let (plain, plain_report, plain_digest, wrapped) = probed_run(&spec, seed, |_| {
        Unhinted::new(TrapdoorProtocol::new(config))
    });
    assert_eq!(skipped, result, "N={n}: probes moved the run");
    assert_eq!(plain, result, "N={n}: the skip moved the result");
    assert_eq!(report, plain_report, "N={n}: the skip moved the checker");
    assert_eq!(digest, plain_digest, "N={n}: the skip moved a round");
    assert!(unhinted::audited(&wrapped) > 0, "N={n}: no hint checked");
}

#[test]
fn engine_large_n_staggered_65536() {
    staggered_trapdoor_run(65_536);
}

#[test]
fn engine_million_node_staggered_full_run() {
    staggered_trapdoor_run(1_000_000);
}
