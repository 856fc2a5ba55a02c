//! The sparse-activity engine at large N: a staggered schedule wakes one
//! node per round, so over a 2,000-round cap at most 2,000 of the N nodes
//! are ever active, however large N is. Each cell runs twice: through the
//! bare `Engine::run`, and through `Sim::run_one`, the checked path every
//! spec, sweep, fabric and serve run takes, where the property checker
//! reads the engine's output breaks instead of scanning the N node views.
//! Only deterministic facts are asserted; CI runs this file in release
//! under a time budget, which is what catches a regression back to
//! O(N)-per-round scanning on either path.

use wireless_sync::prelude::*;
use wireless_sync::sync::registry;

const ROUNDS: u64 = 2_000;

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
}

#[test]
fn engine_large_n_staggered_65536() {
    staggered_trapdoor_run(65_536);
}

#[test]
fn engine_million_node_staggered_full_run() {
    staggered_trapdoor_run(1_000_000);
}
