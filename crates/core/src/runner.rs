//! Convenience wiring between the protocols and the radio engine.
//!
//! A [`Scenario`] describes one synchronization setting — how many devices,
//! how many frequencies, the disruption bound, which adversary (by catalogue
//! name, see [`crate::registry`]), and the activation schedule. The primary
//! way to execute one is the [`Sim`](crate::sim::Sim) builder:
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

use wsync_radio::activation::ActivationSchedule;
use wsync_radio::adversary::{Adversary, DisruptionSet};
use wsync_radio::engine::{Engine, SimConfig};
use wsync_radio::fault::FaultLayer;
use wsync_radio::frequency::FrequencyBand;
use wsync_radio::node::NodeId;
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;
use wsync_radio::trace::RoundObservation;

use serde::{Deserialize, Serialize};

use crate::baselines::{RoundRobinProtocol, WakeupProtocol};
use crate::checker::PropertyChecker;
use crate::good_samaritan::GoodSamaritanProtocol;
use crate::params::next_power_of_two;
use crate::registry;
use crate::report::SyncOutcome;
use crate::spec::ComponentSpec;
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

/// A boxed adversary so the runner can pick one at run time while the engine
/// stays statically typed.
pub struct BoxedAdversary {
    inner: Box<dyn Adversary>,
}

impl std::fmt::Debug for BoxedAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoxedAdversary").finish_non_exhaustive()
    }
}

impl BoxedAdversary {
    /// Boxes a concrete adversary (what [`registry`] adversary factories
    /// return).
    pub fn new(inner: Box<dyn Adversary>) -> Self {
        BoxedAdversary { inner }
    }
}

impl Adversary for BoxedAdversary {
    fn observe(&mut self, round: &RoundObservation<'_>) {
        self.inner.observe(round);
    }

    fn disrupt(
        &mut self,
        round: u64,
        band: FrequencyBand,
        rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        self.inner.disrupt(round, band, rng, disrupted);
    }
}

/// A complete description of one synchronization experiment setting.
///
/// This is the *runtime* shape — everything except the protocol choice.
/// The declarative, serializable form that additionally names the protocol
/// is [`ScenarioSpec`](crate::spec::ScenarioSpec); the two convert into
/// each other losslessly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Actual number of participating devices `n`.
    pub num_nodes: usize,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F` (announced to the protocols and enforced on
    /// the adversary).
    pub disruption_bound: u32,
    /// Bound `N ≥ n` announced to the protocols; defaults to
    /// `n.next_power_of_two()`.
    pub upper_bound_n: Option<u64>,
    /// The adversary to run against (registry name plus parameters).
    pub adversary: ComponentSpec,
    /// When devices are activated.
    pub activation: ActivationSchedule,
    /// Round cap.
    pub max_rounds: u64,
    /// Extra rounds to simulate after everyone synchronized (lets the
    /// checker observe that outputs keep incrementing).
    pub extra_rounds_after_sync: u64,
    /// Network-fault layers applied between resolution and delivery
    /// (registry names plus parameters), stacked in declaration order.
    /// Empty means the classic fault-free execution.
    pub faults: Vec<ComponentSpec>,
}

impl Scenario {
    /// Creates a scenario with no adversary, simultaneous activation, and a
    /// generous round cap.
    pub fn new(num_nodes: usize, num_frequencies: u32, disruption_bound: u32) -> Self {
        Scenario {
            num_nodes,
            num_frequencies,
            disruption_bound,
            upper_bound_n: None,
            adversary: ComponentSpec::named("none"),
            activation: ActivationSchedule::Simultaneous,
            max_rounds: 2_000_000,
            extra_rounds_after_sync: 8,
            faults: Vec::new(),
        }
    }

    /// Sets the adversary — a registry name (`"random"`) or a
    /// [`ComponentSpec`] with parameters.
    pub fn with_adversary(mut self, adversary: impl Into<ComponentSpec>) -> Self {
        self.adversary = adversary.into();
        self
    }

    /// Sets the activation schedule.
    pub fn with_activation(mut self, activation: ActivationSchedule) -> Self {
        self.activation = activation;
        self
    }

    /// Sets the bound `N` announced to the protocols.
    pub fn with_upper_bound(mut self, upper_bound_n: u64) -> Self {
        self.upper_bound_n = Some(upper_bound_n);
        self
    }

    /// Sets the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Appends a network-fault layer — a registry name (`"drop"`) or a
    /// [`ComponentSpec`] with parameters. Layers stack in the order added.
    pub fn with_fault(mut self, fault: impl Into<ComponentSpec>) -> Self {
        self.faults.push(fault.into());
        self
    }

    /// The effective bound `N` announced to protocols.
    pub fn upper_bound(&self) -> u64 {
        self.upper_bound_n
            .unwrap_or_else(|| next_power_of_two(self.num_nodes as u64))
    }

    /// The engine configuration for this scenario.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.num_nodes, self.num_frequencies, self.disruption_bound)
            .with_upper_bound(self.upper_bound())
            .with_max_rounds(self.max_rounds)
            .with_extra_rounds_after_sync(self.extra_rounds_after_sync)
    }
}

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
    scenario: &Scenario,
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
        scenario.sim_config(),
        factory,
        adversary,
        scenario.activation.clone(),
        seed,
    )
    .expect("scenario produced an invalid simulation configuration");
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
        adversary: scenario.adversary.name().to_string(),
        seed,
    };
    (outcome, outputs)
}

/// Runs `scenario` with protocol instances produced by `factory`, checking
/// the synchronization properties online.
///
/// This is the statically-typed escape hatch for protocol types that are
/// not in the catalogue (wrappers, instrumented variants). The adversary
/// and fault layers are still resolved by name through the catalogue.
///
/// # Panics
///
/// Panics when the scenario is invalid or its adversary or a fault layer
/// cannot be built; use [`Sim::from_spec`](crate::sim::Sim::from_spec) for
/// fallible, validated construction.
pub fn run_protocol<P, F>(scenario: &Scenario, factory: F, seed: u64) -> SyncOutcome
where
    P: SyncProtocol,
    F: FnMut(NodeId) -> P,
{
    let adversary = registry::build_adversary(&scenario.adversary, scenario, seed)
        .unwrap_or_else(|e| panic!("scenario adversary failed to build: {e}"));
    let faults = scenario
        .faults
        .iter()
        .map(|fault| {
            registry::build_fault(fault, scenario)
                .unwrap_or_else(|e| panic!("scenario fault failed to build: {e}"))
        })
        .collect();
    execute_probed(scenario, factory, adversary, seed, Vec::new(), faults).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;

    fn run_named(scenario: &Scenario, protocol: &str, seed: u64) -> SyncOutcome {
        Sim::from_scenario(scenario, protocol)
            .expect("valid scenario")
            .run_one(seed)
    }

    #[test]
    fn scenario_defaults() {
        let s = Scenario::new(10, 8, 2);
        assert_eq!(s.upper_bound(), 16);
        assert_eq!(s.adversary, ComponentSpec::named("none"));
        let cfg = s.sim_config();
        assert_eq!(cfg.num_nodes, 10);
        assert_eq!(cfg.upper_bound_n, 16);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn trapdoor_small_scenario_synchronizes_cleanly() {
        let scenario = Scenario::new(8, 8, 2).with_adversary("random");
        let outcome = run_named(&scenario, "trapdoor", 11);
        assert!(outcome.result.all_synchronized);
        assert_eq!(outcome.leaders, 1);
        assert!(outcome.properties.all_hold());
        assert!(outcome.is_clean());
    }

    #[test]
    fn wakeup_and_round_robin_baselines_run() {
        let scenario = Scenario::new(6, 8, 1);
        let w = run_named(&scenario, "wakeup", 3);
        assert!(w.result.all_synchronized);
        assert!(w.leaders >= 1);
        let r = run_named(&scenario, "round-robin", 3);
        assert!(r.result.all_synchronized);
        assert!(r.leaders >= 1);
    }

    #[test]
    fn single_frequency_degenerates_under_fixed_band_jamming() {
        // With frequency 1 permanently jammed, single-frequency contenders
        // never hear each other: every node wins its own competition and
        // declares itself leader, and late joiners adopt numbering schemes
        // that disagree with the early ones.
        let scenario = Scenario::new(4, 4, 1)
            .with_adversary("fixed-band")
            .with_activation(ActivationSchedule::LateJoiner { late: 3 })
            .with_max_rounds(2_000);
        let outcome = run_named(&scenario, "single-frequency", 5);
        assert_eq!(outcome.leaders, 4, "every isolated node elects itself");
        assert!(!outcome.is_clean());
        assert!(
            outcome.properties.total_violations > 0,
            "disagreeing round numbers must be flagged"
        );
    }

    #[test]
    fn identical_seed_identical_outcome() {
        let scenario = Scenario::new(6, 8, 2).with_adversary("random");
        let a = run_named(&scenario, "trapdoor", 21);
        let b = run_named(&scenario, "trapdoor", 21);
        assert_eq!(a, b);
    }
}
