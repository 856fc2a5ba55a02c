//! The simulation builder: one validated, runnable entry point.
//!
//! [`Sim`] is the single code path every execution in the workspace goes
//! through. Build one from a declarative [`ScenarioSpec`] (possibly loaded
//! from JSON) or from an existing runtime [`Scenario`] plus a protocol
//! name, choose a seed range, and run — one trial at a time or sharded
//! across cores by a [`BatchRunner`]:
//!
//! ```
//! use wsync_core::batch::BatchRunner;
//! use wsync_core::sim::Sim;
//! use wsync_core::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
//! let outcomes = Sim::from_spec(&spec)?
//!     .seeds(0..8)
//!     .run(&BatchRunner::new());
//! assert_eq!(outcomes.len(), 8);
//! # Ok::<(), wsync_core::spec::SpecError>(())
//! ```
//!
//! All validation happens in [`Sim::from_spec`]: protocol and adversary
//! names resolve against the [`registry`], their
//! parameters are type-checked, and the instance passes
//! `SimConfig::validate` — so a bad spec is a typed [`SpecError`] at build
//! time, never a panic mid-run.

use std::ops::Range;
use std::sync::Arc;

use crate::batch::{BatchRunner, BatchStats};
use crate::registry::{
    AdversaryFactory, FaultFactory, ProbeFactory, ProbeOutput, ProtocolCtor, Registry,
    RegistryProbe,
};
use crate::report::SyncOutcome;
use crate::runner::{execute_probed, Scenario};
use crate::spec::{ComponentSpec, ScenarioSpec, SpecError};
use crate::store::spec_digest;
use crate::{registry, spec};

/// One trial's outcome together with the outputs of the spec's declared
/// probes (see [`Sim::run_probed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbedOutcome {
    /// The trial outcome — bit-identical to what [`Sim::run_one`] returns,
    /// probes or not.
    pub outcome: SyncOutcome,
    /// The declared probes' finalized outputs, in declaration order —
    /// always `Some`, since [`Sim::run_probed`] executes the engine on
    /// every call.
    pub probes: Option<Vec<ProbeOutput>>,
}

/// A fully validated, runnable simulation: scenario, resolved protocol
/// constructor, resolved adversary factory, resolved probe factories, and
/// a seed range.
pub struct Sim {
    scenario: Scenario,
    protocol: ComponentSpec,
    ctor: ProtocolCtor,
    adversary: Arc<dyn AdversaryFactory>,
    probes: Vec<(ComponentSpec, Arc<dyn ProbeFactory>)>,
    faults: Vec<(ComponentSpec, Arc<dyn FaultFactory>)>,
    seeds: Range<u64>,
    digest: u64,
}

impl Sim {
    /// Builds a simulation from a declarative spec, resolving names against
    /// the process-global registry.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the instance is inconsistent (`t ≥ F`,
    /// `n = 0`, `N < n`, a zero round cap), a name is unknown, or a
    /// parameter is missing, mistyped, or unrecognised.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        Sim::build(
            spec,
            registry::resolve_protocol(spec.protocol.name())?,
            registry::resolve_adversary(spec.adversary.name())?,
            spec.probes
                .iter()
                .map(|probe| Ok((probe.clone(), registry::resolve_probe(probe.name())?)))
                .collect::<Result<_, SpecError>>()?,
            spec.faults
                .iter()
                .map(|fault| Ok((fault.clone(), registry::resolve_fault(fault.name())?)))
                .collect::<Result<_, SpecError>>()?,
        )
    }

    /// Builds a simulation from a declarative spec, resolving names against
    /// an explicit registry instead of the process-global one.
    pub fn from_spec_in(registry: &Registry, spec: &ScenarioSpec) -> Result<Self, SpecError> {
        Sim::build(
            spec,
            registry.protocol(spec.protocol.name())?,
            registry.adversary(spec.adversary.name())?,
            spec.probes
                .iter()
                .map(|probe| Ok((probe.clone(), registry.probe(probe.name())?)))
                .collect::<Result<_, SpecError>>()?,
            spec.faults
                .iter()
                .map(|fault| Ok((fault.clone(), registry.fault(fault.name())?)))
                .collect::<Result<_, SpecError>>()?,
        )
    }

    /// Builds a simulation from a runtime [`Scenario`] plus a protocol
    /// (name or name-plus-params), resolving against the process-global
    /// registry.
    pub fn from_scenario(
        scenario: &Scenario,
        protocol: impl Into<ComponentSpec>,
    ) -> Result<Self, SpecError> {
        Sim::from_spec(&ScenarioSpec::from_scenario(scenario, protocol))
    }

    fn build(
        spec: &ScenarioSpec,
        protocol_factory: Arc<dyn crate::registry::ProtocolFactory>,
        adversary_factory: Arc<dyn AdversaryFactory>,
        probe_factories: Vec<(ComponentSpec, Arc<dyn ProbeFactory>)>,
        fault_factories: Vec<(ComponentSpec, Arc<dyn FaultFactory>)>,
    ) -> Result<Self, SpecError> {
        spec.validate()?;
        let scenario = spec.scenario();
        let ctor = protocol_factory.instantiate(&scenario, &spec.protocol.params)?;
        // Probe-build the adversary, the probes, and the fault layers once
        // so parameter errors surface here, keeping `run_one`/`run_probed`
        // infallible. AdversaryFactory's contract requires validation to be
        // seed-independent, so one probe covers all seeds; probe and fault
        // factories take no seed at all.
        adversary_factory.build(&scenario, &spec.adversary.params, 0)?;
        for (component, factory) in &probe_factories {
            factory.build(&scenario, &component.params)?;
        }
        for (component, factory) in &fault_factories {
            factory.build(&scenario, &component.params)?;
        }
        Ok(Sim {
            scenario,
            protocol: spec.protocol.clone(),
            ctor,
            adversary: adversary_factory,
            probes: probe_factories,
            faults: fault_factories,
            seeds: 0..1,
            digest: spec_digest(spec),
        })
    }

    /// Sets the seed range subsequent [`run`](Self::run) /
    /// [`run_stats`](Self::run_stats) calls execute (default `0..1`).
    pub fn seeds(mut self, seeds: Range<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// The runtime scenario this simulation executes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The protocol component (registry name plus parameters).
    pub fn protocol(&self) -> &ComponentSpec {
        &self.protocol
    }

    /// The configured seed range.
    pub fn seed_range(&self) -> Range<u64> {
        self.seeds.clone()
    }

    /// The canonical content digest of this simulation's resolved spec —
    /// the key its trials are stored under.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Runs a single trial. Executions are a pure function of
    /// `(spec, seed)`; to cache trials in a [`ResultStore`](crate::store::ResultStore),
    /// run them through a [`SweepRunner`](crate::sweep::SweepRunner).
    ///
    /// Declared probes are *not* run on this path (their outputs would be
    /// discarded); use [`run_probed`](Self::run_probed) to carry them. The
    /// outcome is identical either way — probes only observe.
    pub fn run_one(&self, seed: u64) -> SyncOutcome {
        self.run_inner(seed, false).outcome
    }

    /// Runs a single trial with the spec's declared probes attached to the
    /// engine's probe stack, returning the outcome together with each
    /// probe's finalized output. The outcome is bit-identical to
    /// [`run_one`](Self::run_one) (probes never perturb an execution, and
    /// the store digest deliberately excludes them).
    pub fn run_probed(&self, seed: u64) -> ProbedOutcome {
        self.run_inner(seed, true)
    }

    /// The one trial path behind [`run_one`](Self::run_one) and
    /// [`run_probed`](Self::run_probed): adversary (and optionally probe)
    /// construction, then execution.
    fn run_inner(&self, seed: u64, probed: bool) -> ProbedOutcome {
        let adversary = self
            .adversary
            .build(&self.scenario, &self.scenario.adversary.params, seed)
            .expect("adversary parameters were validated when the Sim was built");
        let probes: Vec<RegistryProbe> = if probed {
            self.probes
                .iter()
                .map(|(component, factory)| {
                    RegistryProbe::new(
                        component.name(),
                        factory
                            .build(&self.scenario, &component.params)
                            .expect("probe parameters were validated when the Sim was built"),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let faults: Vec<_> = self
            .faults
            .iter()
            .map(|(component, factory)| {
                factory
                    .build(&self.scenario, &component.params)
                    .expect("fault parameters were validated when the Sim was built")
            })
            .collect();
        let (outcome, outputs) = execute_probed(
            &self.scenario,
            |id| (self.ctor)(id),
            adversary,
            seed,
            probes,
            faults,
        );
        ProbedOutcome {
            outcome,
            probes: probed.then_some(outputs),
        }
    }

    /// The spec's declared probes (name-plus-params components), in
    /// declaration order.
    pub fn probe_components(&self) -> Vec<&ComponentSpec> {
        self.probes.iter().map(|(component, _)| component).collect()
    }

    /// Whether the spec declares any probes.
    pub fn has_probes(&self) -> bool {
        !self.probes.is_empty()
    }

    /// The spec's declared fault layers (name-plus-params components), in
    /// declaration (stack) order.
    pub fn fault_components(&self) -> Vec<&ComponentSpec> {
        self.faults.iter().map(|(component, _)| component).collect()
    }

    /// Whether the spec declares any fault layers.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Runs every seed in the configured range on `runner`'s worker pool
    /// and returns the outcomes in seed order (bit-identical to a serial
    /// loop; see [`BatchRunner`]).
    pub fn run(&self, runner: &BatchRunner) -> Vec<SyncOutcome> {
        runner.map(self.seeds.clone(), |seed| self.run_one(seed))
    }

    /// Runs every seed in the configured range and folds the outcomes into
    /// [`BatchStats`].
    pub fn run_stats(&self, runner: &BatchRunner) -> BatchStats {
        BatchStats::aggregate(&self.run(runner))
    }

    /// Expands a [`SweepSpec`](spec::SweepSpec) into `(label, Sim)` pairs,
    /// one per grid point, each configured with the sweep's seed range.
    pub fn from_sweep(sweep: &spec::SweepSpec) -> Result<Vec<(String, Sim)>, SpecError> {
        let seeds = sweep.seeds()?;
        sweep
            .expand()?
            .into_iter()
            .map(|point| {
                Sim::from_spec(&point.spec).map(|sim| (point.label, sim.seeds(seeds.clone())))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    #[test]
    fn spec_driven_run_is_deterministic_and_clean() {
        let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
        let sim = Sim::from_spec(&spec).unwrap();
        let a = sim.run_one(11);
        let b = sim.run_one(11);
        assert_eq!(a, b);
        assert!(a.result.all_synchronized);
        assert_eq!(a.leaders, 1);
        assert_eq!(a.adversary, "random");
    }

    #[test]
    fn invalid_specs_fail_at_build_time_not_mid_run() {
        // t >= F
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 8)),
            Err(SpecError::InvalidConfig(_))
        ));
        // zero nodes
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 0, 8, 2)),
            Err(SpecError::InvalidConfig(_))
        ));
        // zero round cap
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 2).with_max_rounds(0)),
            Err(SpecError::InvalidConfig(_))
        ));
        // unknown protocol
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("paxos", 4, 8, 2)),
            Err(SpecError::UnknownProtocol { .. })
        ));
        // unknown adversary
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 2).with_adversary("ddos")),
            Err(SpecError::UnknownAdversary { .. })
        ));
        // missing adversary parameter
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 2).with_adversary("bursty")),
            Err(SpecError::MissingParam { .. })
        ));
        // mistyped protocol parameter
        assert!(matches!(
            Sim::from_spec(
                &ScenarioSpec::new("trapdoor", 4, 8, 2)
                    .with_protocol_param("epoch_constant", "big")
            ),
            Err(SpecError::BadParam { .. })
        ));
    }

    #[test]
    fn batch_run_matches_serial_loop() {
        let spec = ScenarioSpec::new("wakeup", 6, 8, 1).with_adversary("random");
        let sim = Sim::from_spec(&spec).unwrap().seeds(3..9);
        let batch = sim.run(&BatchRunner::with_workers(4));
        let serial: Vec<_> = (3..9).map(|seed| sim.run_one(seed)).collect();
        assert_eq!(batch, serial);
        let stats = sim.run_stats(&BatchRunner::with_workers(2));
        assert_eq!(stats.trials, 6);
    }

    #[test]
    fn sweep_expands_into_labelled_sims() {
        let base = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        let sweep =
            SweepSpec::new(base, 0..2).with_axis("num_nodes", vec![4u64.into(), 6u64.into()]);
        let sims = Sim::from_sweep(&sweep).unwrap();
        assert_eq!(sims.len(), 2);
        assert_eq!(sims[0].0, "num_nodes=4");
        assert_eq!(sims[0].1.scenario().num_nodes, 4);
        assert_eq!(sims[1].1.seed_range(), 0..2);
        // a sweep containing an invalid point fails as a whole
        let bad = SweepSpec::new(ScenarioSpec::new("trapdoor", 6, 8, 2), 0..2)
            .with_axis("disruption_bound", vec![1u64.into(), 8u64.into()]);
        assert!(Sim::from_sweep(&bad).is_err());
    }

    #[test]
    fn json_spec_runs_end_to_end() {
        let text = r#"{
            "protocol": "good-samaritan",
            "adversary": {"name": "oblivious-random", "params": {"t_actual": 2}},
            "num_nodes": 8,
            "num_frequencies": 8,
            "disruption_bound": 4
        }"#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        let outcome = Sim::from_spec(&spec).unwrap().run_one(11);
        assert!(outcome.result.all_synchronized);
        assert_eq!(outcome.adversary, "oblivious-random");
    }
}
