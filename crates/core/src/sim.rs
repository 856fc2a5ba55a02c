//! The simulation builder: one validated, runnable entry point.
//!
//! [`Sim`] is the single code path every execution in the workspace goes
//! through. Build one from a declarative [`ScenarioSpec`] (possibly loaded
//! from JSON), then run one trial per seed:
//!
//! ```
//! use wsync_core::sim::Sim;
//! use wsync_core::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
//! let sim = Sim::from_spec(&spec)?;
//! let outcome = sim.run_one(7);
//! assert_eq!(outcome, sim.run_one(7));
//! # Ok::<(), wsync_core::spec::SpecError>(())
//! ```
//!
//! Seed ranges and grids go through a
//! [`SweepRunner`](crate::sweep::SweepRunner), which shards trials across
//! cores and can cache them in a [`ResultStore`](crate::store::ResultStore).
//!
//! All validation happens in [`Sim::from_spec`]: protocol and adversary
//! names resolve against the [`registry`], their
//! parameters are type-checked, and the instance passes
//! `SimConfig::validate` — so a bad spec is a typed [`SpecError`] at build
//! time, never a panic mid-run.
//!
//! A `Sim` keeps the one [`CatalogueProtocol`] node its protocol builder
//! returns and dispatches on its variant once per trial — `Trapdoor` for
//! the four Trapdoor-family names, `GoodSamaritan` for the other — so the
//! engine runs typed over [`TrapdoorProtocol`](crate::trapdoor::TrapdoorProtocol)
//! or [`GoodSamaritanProtocol`](crate::good_samaritan::GoodSamaritanProtocol),
//! each node a clone of the kept one, and the round loop makes no per-call
//! `match` and wraps no message.

use crate::registry;
use crate::registry::{
    AdversaryBuilder, CatalogueProtocol, FaultBuilder, ProbeBuilder, ProbeOutput, RegistryProbe,
};
use crate::report::SyncOutcome;
use crate::runner::{execute_probed, SyncProtocol};
use crate::spec::{ScenarioSpec, SpecError};
use crate::store::spec_digest;

/// One trial's outcome together with the outputs of the spec's declared
/// probes (see [`Sim::run_probed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbedOutcome {
    /// The trial outcome — bit-identical to what [`Sim::run_one`] returns,
    /// probes or not.
    pub outcome: SyncOutcome,
    /// The declared probes' finalized outputs, in declaration order (empty
    /// when the spec declares none).
    pub probes: Vec<ProbeOutput>,
}

/// A fully validated, runnable simulation: the spec, the protocol node
/// every trial's nodes clone, the spec's digest, and the catalogue builders
/// its adversary, probes and fault layers resolved to (the probe and fault
/// builders in declaration order).
pub struct Sim {
    spec: ScenarioSpec,
    protocol: CatalogueProtocol,
    digest: u64,
    adversary: AdversaryBuilder,
    probes: Vec<ProbeBuilder>,
    faults: Vec<FaultBuilder>,
}

impl Sim {
    /// Builds a simulation from a declarative spec, resolving names against
    /// the component catalogue.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the instance is inconsistent (`t ≥ F`,
    /// `n = 0`, `N < n`, a zero round cap), a name is unknown, or a
    /// parameter is missing, mistyped, or unrecognised.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        let build_protocol = registry::protocol_builder(spec.protocol.name())?;
        let adversary = registry::adversary_builder(spec.adversary.name())?;
        let probes = spec
            .probes
            .iter()
            .map(|probe| registry::probe_builder(probe.name()))
            .collect::<Result<Vec<_>, SpecError>>()?;
        let faults = spec
            .faults
            .iter()
            .map(|fault| registry::fault_builder(fault.name()))
            .collect::<Result<Vec<_>, SpecError>>()?;
        spec.validate()?;
        let protocol = build_protocol(spec, &spec.protocol.params)?;
        // Build the adversary, the probes, and the fault layers once so
        // parameter errors surface here, keeping `run_one`/`run_probed`
        // infallible. An adversary builder's validation does not depend on
        // the seed, so one build covers all seeds; probe and fault builders
        // take no seed at all.
        adversary(spec, &spec.adversary.params, 0)?;
        for (build, probe) in probes.iter().zip(&spec.probes) {
            build(spec, &probe.params)?;
        }
        for (build, fault) in faults.iter().zip(&spec.faults) {
            build(spec, &fault.params)?;
        }
        Ok(Sim {
            spec: spec.clone(),
            protocol,
            digest: spec_digest(spec),
            adversary,
            probes,
            faults,
        })
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
    /// [`run_probed`](Self::run_probed): the trial's one protocol dispatch.
    fn run_inner(&self, seed: u64, probed: bool) -> ProbedOutcome {
        match &self.protocol {
            CatalogueProtocol::Trapdoor(node) => self.run_typed(node, seed, probed),
            CatalogueProtocol::GoodSamaritan(node) => self.run_typed(node, seed, probed),
        }
    }

    /// Adversary (and optionally probe) construction, then execution on
    /// the engine typed over `node`'s protocol, every node a clone of it.
    fn run_typed<P>(&self, node: &P, seed: u64, probed: bool) -> ProbedOutcome
    where
        P: SyncProtocol + Clone,
    {
        let spec = &self.spec;
        let adversary = (self.adversary)(spec, &spec.adversary.params, seed)
            .expect("adversary parameters were validated when the Sim was built");
        let probes: Vec<RegistryProbe> = if probed {
            self.probes
                .iter()
                .zip(&spec.probes)
                .map(|(build, probe)| {
                    RegistryProbe::new(
                        probe.name(),
                        build(spec, &probe.params)
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
            .zip(&spec.faults)
            .map(|(build, fault)| {
                build(spec, &fault.params)
                    .expect("fault parameters were validated when the Sim was built")
            })
            .collect();
        let (outcome, probes) =
            execute_probed(spec, |_| node.clone(), adversary, seed, probes, faults);
        ProbedOutcome { outcome, probes }
    }

    /// Whether the spec declares any probes.
    pub(crate) fn has_probes(&self) -> bool {
        !self.probes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use crate::spec::ComponentSpec;

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
        // a bursty cycle of zero rounds, and a burst longer than its cycle
        let bursty = |period: u64, burst_len: u64| {
            ScenarioSpec::new("trapdoor", 4, 8, 2).with_adversary(
                ComponentSpec::named("bursty")
                    .with("period", period)
                    .with("burst_len", burst_len),
            )
        };
        assert!(matches!(
            Sim::from_spec(&bursty(0, 0)),
            Err(SpecError::BadParam { param, .. }) if param == "period"
        ));
        assert!(matches!(
            Sim::from_spec(&bursty(4, 9)),
            Err(SpecError::BadParam { param, .. }) if param == "burst_len"
        ));
        assert!(Sim::from_spec(&bursty(4, 4)).is_ok());
        // mistyped protocol parameter
        assert!(matches!(
            Sim::from_spec(
                &ScenarioSpec::new("trapdoor", 4, 8, 2)
                    .with_protocol_param("epoch_constant", "big")
            ),
            Err(SpecError::BadParam { .. })
        ));
        // a protocol-level instance override: protocols are told the
        // scenario's own (N, F, t), so a second F is an unknown parameter
        // rather than a band mismatch discovered on activation
        assert!(matches!(
            Sim::from_spec(
                &ScenarioSpec::new("trapdoor", 4, 8, 2)
                    .with_protocol_param("num_frequencies", 16u64)
            ),
            Err(SpecError::UnknownParam { param, .. }) if param == "num_frequencies"
        ));
    }

    #[test]
    fn batch_run_matches_serial_loop() {
        let spec = ScenarioSpec::new("wakeup", 6, 8, 1).with_adversary("random");
        let sim = Sim::from_spec(&spec).unwrap();
        let batch = BatchRunner::with_workers(4).map(3..9, |seed| sim.run_one(seed));
        let serial: Vec<_> = (3..9).map(|seed| sim.run_one(seed)).collect();
        assert_eq!(batch, serial);
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
