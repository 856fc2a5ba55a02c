//! One trial rebuilt from the public parts `Sim::run_one` is made of:
//! registry factories, `Engine::new`, the `Engine::step` loop,
//! `PropertyChecker::finish`, then the store append and the sweep fold a
//! sweep adds. The traced run times each call; the untraced A/B cells use
//! the same code with the tracer off. Every rebuilt outcome is checked
//! against `Sim::run_one` by the caller.

use std::sync::Arc;
use std::time::Instant;

use wsync_core::batch::BatchStatsFold;
use wsync_core::checker::PropertyChecker;
use wsync_core::registry::{self, AdversaryFactory, FaultFactory, ProtocolCtor};
use wsync_core::report::SyncOutcome;
use wsync_core::runner::{BoxedAdversary, Scenario, SyncProtocol};
use wsync_core::spec::{ComponentSpec, ScenarioSpec, SpecError};
use wsync_core::store::{outcome_to_value, spec_digest, ResultStore, StoreError};
use wsync_core::trapdoor::{TrapdoorConfig, TrapdoorProtocol};
use wsync_radio::engine::{Engine, ExecutionResult};
use wsync_radio::fault::FaultLayer;
use wsync_radio::node::NodeId;
use wsync_radio::probe::Probe;
use wsync_radio::trace::RoundObservation;

use crate::alloc;
use crate::trace::Tracer;

/// Deterministic per-trial work counters, summed from each round's
/// `RoundTally`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub rounds: u64,
    pub active_nodes: u64,
    pub collisions: u64,
    pub deliveries: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.rounds += other.rounds;
        self.active_nodes += other.active_nodes;
        self.collisions += other.collisions;
        self.deliveries += other.deliveries;
    }
}

impl Probe for Tally {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        let tally = &observation.tally;
        self.rounds += 1;
        self.active_nodes += u64::from(tally.active_nodes);
        self.collisions += u64::from(tally.collisions);
        self.deliveries += u64::from(tally.deliveries);
    }
}

/// What to attach and measure around one engine lifetime.
#[derive(Clone, Copy)]
pub struct EngineOpts {
    pub checker: bool,
    pub tally: bool,
    pub count_allocs: bool,
}

/// One engine lifetime's results.
pub struct EngineRun {
    /// `None` when the checker was not attached (timing-only runs).
    pub outcome: Option<SyncOutcome>,
    pub rounds: u64,
    pub tally: Tally,
    pub step_ns: u64,
    pub step_allocs: u64,
}

/// `Engine::new`, the step loop to completion and `PropertyChecker::finish`,
/// exactly as the workspace's run path wires them, with spans around each.
#[allow(clippy::too_many_arguments)]
pub fn execute<P, F>(
    scenario: &Scenario,
    factory: F,
    adversary: BoxedAdversary,
    faults: Vec<Box<dyn FaultLayer>>,
    seed: u64,
    opts: EngineOpts,
    tracer: &mut Tracer,
    id: u64,
) -> EngineRun
where
    P: SyncProtocol,
    F: FnMut(NodeId) -> P,
{
    tracer.begin("engine.new", id);
    let mut engine = Engine::new(
        scenario.sim_config(),
        factory,
        adversary,
        scenario.activation.clone(),
        seed,
    )
    .expect("validated scenario builds an engine");
    for layer in faults {
        engine.attach_fault(layer);
    }
    let checker_slot = opts
        .checker
        .then(|| engine.attach_probe(Box::new(PropertyChecker::new())));
    let tally_slot = opts
        .tally
        .then(|| engine.attach_probe(Box::new(Tally::default())));
    tracer.end();

    tracer.begin("engine.step_loop", id);
    let started = Instant::now();
    let (result, step_allocs) = if opts.count_allocs {
        alloc::count(|| step_to_end(&mut engine, scenario))
    } else {
        (step_to_end(&mut engine, scenario), 0)
    };
    let step_ns = started.elapsed().as_nanos() as u64;
    tracer.end();

    tracer.begin("checker.finish", id);
    let mut stack = engine.take_probes();
    let tally = tally_slot
        .and_then(|slot| stack.take::<Tally>(slot))
        .unwrap_or_default();
    let rounds = result.rounds_executed;
    let outcome = checker_slot.map(|slot| {
        let checker: PropertyChecker = stack.take(slot).expect("checker slot");
        let leaders = engine.protocols().iter().filter(|p| p.is_leader()).count();
        SyncOutcome {
            properties: checker.finish(&result),
            leaders,
            adversary: scenario.adversary.name().to_string(),
            seed,
            result,
        }
    });
    tracer.end();
    EngineRun {
        outcome,
        rounds,
        tally,
        step_ns,
        step_allocs,
    }
}

/// The engine's own run loop, rebuilt on the public `step`: run to the
/// round cap or until everyone synchronized plus the configured extra
/// rounds.
fn step_to_end<P: SyncProtocol>(
    engine: &mut Engine<P, BoxedAdversary>,
    scenario: &Scenario,
) -> ExecutionResult {
    let mut round = 0u64;
    let mut extra_remaining: Option<u64> = None;
    while round < scenario.max_rounds {
        engine.step();
        round += 1;
        match extra_remaining {
            None => {
                if engine.all_synchronized() {
                    if scenario.extra_rounds_after_sync == 0 {
                        break;
                    }
                    extra_remaining = Some(scenario.extra_rounds_after_sync);
                }
            }
            Some(k) if k <= 1 => break,
            Some(ref mut k) => *k -= 1,
        }
    }
    engine.result()
}

/// A spec resolved against the registry once, like `Sim::from_spec`.
pub struct Parts {
    pub scenario: Scenario,
    pub digest: u64,
    ctor: ProtocolCtor,
    adversary: Arc<dyn AdversaryFactory>,
    faults: Vec<(ComponentSpec, Arc<dyn FaultFactory>)>,
}

impl Parts {
    pub fn resolve(spec: &ScenarioSpec, tracer: &mut Tracer) -> Result<Self, SpecError> {
        spec.validate()?;
        let scenario = spec.scenario();
        let factory = registry::resolve_protocol(spec.protocol.name())?;
        let ctor = tracer.span("registry.instantiate", 0, || {
            factory.instantiate(&scenario, &spec.protocol.params)
        })?;
        let faults = spec
            .faults
            .iter()
            .map(|fault| Ok((fault.clone(), registry::resolve_fault(fault.name())?)))
            .collect::<Result<_, SpecError>>()?;
        Ok(Parts {
            digest: spec_digest(spec),
            adversary: registry::resolve_adversary(spec.adversary.name())?,
            faults,
            ctor,
            scenario,
        })
    }

    pub fn build_adversary(&self, seed: u64) -> BoxedAdversary {
        self.adversary
            .build(&self.scenario, &self.scenario.adversary.params, seed)
            .expect("adversary parameters validated by Sim::from_spec")
    }

    pub fn build_faults(&self) -> Vec<Box<dyn FaultLayer>> {
        self.faults
            .iter()
            .map(|(component, factory)| {
                factory
                    .build(&self.scenario, &component.params)
                    .expect("fault parameters validated by Sim::from_spec")
            })
            .collect()
    }

    /// The registry (type-erased) engine path, as every spec run takes.
    pub fn run_registry(
        &self,
        seed: u64,
        opts: EngineOpts,
        tracer: &mut Tracer,
        id: u64,
    ) -> EngineRun {
        let adversary = tracer.span("registry.adversary_build", id, || {
            self.build_adversary(seed)
        });
        let faults = tracer.span("registry.fault_build", id, || self.build_faults());
        execute(
            &self.scenario,
            |node| (self.ctor)(node),
            adversary,
            faults,
            seed,
            opts,
            tracer,
            id,
        )
    }

    /// The statically typed Trapdoor engine on the same scenario (what the
    /// repository's engine micro-benchmark measures). Only valid for
    /// parameterless `trapdoor` specs.
    pub fn run_typed_trapdoor(&self, seed: u64, opts: EngineOpts) -> EngineRun {
        let s = &self.scenario;
        let config = TrapdoorConfig::new(s.upper_bound(), s.num_frequencies, s.disruption_bound);
        execute(
            s,
            |_| TrapdoorProtocol::new(config),
            self.build_adversary(seed),
            self.build_faults(),
            seed,
            opts,
            &mut Tracer::off(),
            0,
        )
    }

    /// One sweep trial as `SweepRunner` runs it against a resume store —
    /// lookup, execution, append, fold — rebuilt from public parts under a
    /// `trial` root span. Returns the outcome, its round tally and the
    /// step loop's nanoseconds.
    pub fn sweep_trial(
        &self,
        seed: u64,
        id: u64,
        store: &ResultStore,
        fold: &mut BatchStatsFold,
        tracer: &mut Tracer,
    ) -> Result<(SyncOutcome, Tally, u64), StoreError> {
        tracer.begin("trial", id);
        let cached = tracer.span("store.get", id, || store.get(self.digest, seed));
        assert!(cached.is_none(), "benchmark seeds are fresh");
        let opts = EngineOpts {
            checker: true,
            tally: true,
            count_allocs: false,
        };
        let run = self.run_registry(seed, opts, tracer, id);
        let outcome = run.outcome.expect("checker attached");
        tracer.span("store.encode", id, || {
            std::hint::black_box(outcome_to_value(&outcome).to_json_compact());
        });
        tracer.span("store.put", id, || store.put(self.digest, seed, &outcome))?;
        tracer.span("sweep.fold", id, || fold.push(&outcome));
        tracer.end();
        Ok((outcome, run.tally, run.step_ns))
    }
}
