//! Convenience wiring between the protocols and the radio engine.
//!
//! A [`ScenarioSpec`] describes one synchronization setting — how many
//! devices, how many frequencies, the disruption bound, which protocol and
//! adversary (by catalogue name, see [`crate::registry`]), and the
//! activation schedule. The primary way to execute one is the
//! [`Sim`](crate::sim::Sim) builder:
//!
//! ```
//! use wsync_core::sim::Sim;
//! use wsync_core::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
//! let outcome = Sim::from_spec(&spec)?.run_one(7);
//! assert!(outcome.result.all_synchronized);
//! # Ok::<(), wsync_core::spec::SpecError>(())
//! ```
//!
//! [`run_protocol`] remains the statically-typed escape hatch for custom
//! protocol types that are not in the catalogue (e.g. the fault-tolerance
//! crash wrapper).

use wsync_radio::adversary::Adversary;
use wsync_radio::engine::Engine;
use wsync_radio::fault::FaultLayer;
use wsync_radio::node::NodeId;
use wsync_radio::protocol::Protocol;

use crate::baselines::{RoundRobinProtocol, WakeupProtocol};
use crate::checker::PropertyChecker;
use crate::good_samaritan::GoodSamaritanProtocol;
use crate::registry;
use crate::report::SyncOutcome;
use crate::spec::ScenarioSpec;
use crate::trapdoor::TrapdoorProtocol;

/// Protocols that elect a leader while solving wireless synchronization.
///
/// Implemented by every protocol in this crate; used by the runner to count
/// leaders at the end of an execution (the paper's agreement argument rests
/// on there being at most one).
pub trait SyncProtocol: Protocol {
    /// Whether this node currently considers itself the leader.
    fn is_leader(&self) -> bool;
}

impl SyncProtocol for TrapdoorProtocol {
    fn is_leader(&self) -> bool {
        TrapdoorProtocol::is_leader(self)
    }
}

impl SyncProtocol for GoodSamaritanProtocol {
    fn is_leader(&self) -> bool {
        GoodSamaritanProtocol::is_leader(self)
    }
}

impl SyncProtocol for WakeupProtocol {
    fn is_leader(&self) -> bool {
        WakeupProtocol::is_leader(self)
    }
}

impl SyncProtocol for RoundRobinProtocol {
    fn is_leader(&self) -> bool {
        RoundRobinProtocol::is_leader(self)
    }
}

/// The adversary a catalogue builder returns: picked at run time, while the
/// engine stays statically typed (`wsync-radio` makes every boxed adversary
/// an [`Adversary`]).
pub type BoxedAdversary = Box<dyn Adversary>;

/// The old name of [`ScenarioSpec`], which now describes every run. A bridge
/// for the benchmark package (`perfbench/`), which still names it; it goes,
/// with [`ScenarioSpec::scenario`], once the benchmark takes the spec.
pub type Scenario = ScenarioSpec;

/// The one engine-invocation path shared by every run in the workspace:
/// builds the engine, attaches the fault layers, composes the probe stack
/// (the property checker plus any declarative probes), executes, and
/// counts leaders. Both [`run_protocol`] (any protocol type) and
/// [`Sim::run_one`](crate::sim::Sim::run_one) (the catalogue node's own
/// type, chosen once per trial) end here.
/// Returns the outcome together with each probe's finalized output, in
/// declaration order. Probes only observe, so the outcome is bit-identical
/// with and without them (`tests/engine_golden.rs` pins this).
pub(crate) fn execute_probed<P, F>(
    spec: &ScenarioSpec,
    factory: F,
    adversary: BoxedAdversary,
    seed: u64,
    probes: Vec<registry::RegistryProbe>,
    faults: Vec<Box<dyn FaultLayer>>,
) -> (SyncOutcome, Vec<registry::ProbeOutput>)
where
    P: SyncProtocol,
    F: FnMut(NodeId) -> P,
{
    let mut engine = Engine::new(
        spec.sim_config(),
        factory,
        adversary,
        spec.activation.clone(),
        seed,
    )
    .expect("the spec produced an invalid simulation configuration");
    for layer in faults {
        engine.attach_fault(layer);
    }
    let checker_slot = engine.attach_probe(Box::new(PropertyChecker::new()));
    let probe_slots: Vec<usize> = probes
        .into_iter()
        .map(|probe| engine.attach_probe(Box::new(probe)))
        .collect();
    let result = engine.run();
    let mut stack = engine.take_probes();
    let checker: PropertyChecker = stack
        .take(checker_slot)
        .expect("the checker probe is recoverable from its slot");
    let outputs: Vec<registry::ProbeOutput> = probe_slots
        .into_iter()
        .map(|slot| {
            stack
                .take::<registry::RegistryProbe>(slot)
                .expect("registry probes are recoverable from their slots")
                .finish(&result)
        })
        .collect();
    let leaders = engine.protocols().iter().filter(|p| p.is_leader()).count();
    let outcome = SyncOutcome {
        properties: checker.finish(&result),
        result,
        leaders,
        adversary: spec.adversary.name().to_string(),
        seed,
    };
    (outcome, outputs)
}

/// Runs `spec` with protocol instances produced by `factory`, checking the
/// synchronization properties online.
///
/// This is the statically-typed escape hatch for protocol types that are
/// not in the catalogue (wrappers, instrumented variants): `spec.protocol`
/// and `spec.probes` are ignored. The adversary and fault layers are still
/// resolved by name through the catalogue.
///
/// # Panics
///
/// Panics when the spec is invalid or its adversary or a fault layer
/// cannot be built; use [`Sim::from_spec`](crate::sim::Sim::from_spec) for
/// fallible, validated construction.
pub fn run_protocol<P, F>(spec: &ScenarioSpec, factory: F, seed: u64) -> SyncOutcome
where
    P: SyncProtocol,
    F: FnMut(NodeId) -> P,
{
    let adversary = registry::build_adversary(&spec.adversary, spec, seed)
        .unwrap_or_else(|e| panic!("the spec's adversary failed to build: {e}"));
    let faults = spec
        .faults
        .iter()
        .map(|fault| {
            registry::build_fault(fault, spec)
                .unwrap_or_else(|e| panic!("a spec fault layer failed to build: {e}"))
        })
        .collect();
    execute_probed(spec, factory, adversary, seed, Vec::new(), faults).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::spec::ComponentSpec;
    use wsync_radio::activation::ActivationSchedule;

    fn run(spec: &ScenarioSpec, seed: u64) -> SyncOutcome {
        Sim::from_spec(spec).expect("valid spec").run_one(seed)
    }

    #[test]
    fn scenario_defaults() {
        let s = ScenarioSpec::new("trapdoor", 10, 8, 2);
        assert_eq!(s.upper_bound(), 16);
        assert_eq!(s.adversary, ComponentSpec::named("none"));
        let cfg = s.sim_config();
        assert_eq!(cfg.num_nodes, 10);
        assert_eq!(cfg.upper_bound_n, 16);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn trapdoor_small_scenario_synchronizes_cleanly() {
        let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
        let outcome = run(&spec, 11);
        assert!(outcome.result.all_synchronized);
        assert_eq!(outcome.leaders, 1);
        assert!(outcome.properties.all_hold());
        assert!(outcome.is_clean());
    }

    #[test]
    fn wakeup_and_round_robin_baselines_run() {
        let w = run(&ScenarioSpec::new("wakeup", 6, 8, 1), 3);
        assert!(w.result.all_synchronized);
        assert!(w.leaders >= 1);
        let r = run(&ScenarioSpec::new("round-robin", 6, 8, 1), 3);
        assert!(r.result.all_synchronized);
        assert!(r.leaders >= 1);
    }

    #[test]
    fn single_frequency_degenerates_under_fixed_band_jamming() {
        // With frequency 1 permanently jammed, single-frequency contenders
        // never hear each other: every node wins its own competition and
        // declares itself leader, and late joiners adopt numbering schemes
        // that disagree with the early ones.
        let spec = ScenarioSpec::new("single-frequency", 4, 4, 1)
            .with_adversary("fixed-band")
            .with_activation(ActivationSchedule::LateJoiner { late: 3 })
            .with_max_rounds(2_000);
        let outcome = run(&spec, 5);
        assert_eq!(outcome.leaders, 4, "every isolated node elects itself");
        assert!(!outcome.is_clean());
        assert!(
            outcome.properties.total_violations > 0,
            "disagreeing round numbers must be flagged"
        );
    }

    #[test]
    fn identical_seed_identical_outcome() {
        let spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        assert_eq!(run(&spec, 21), run(&spec, 21));
    }
}
