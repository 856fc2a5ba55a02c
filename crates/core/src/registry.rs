//! The open protocol/adversary registry.
//!
//! [`Registry`] maps string keys to [`ProtocolFactory`] and
//! [`AdversaryFactory`] implementations. [`Registry::with_defaults`]
//! pre-populates every protocol in this crate (`trapdoor`,
//! `good-samaritan`, `wakeup`, `round-robin`, `single-frequency`) and every
//! adversary in `wsync-radio` (`none`, `fixed-band`, `random`, `sweep`,
//! `bursty`, `adaptive-greedy`, `oblivious-random`, `top-weight`).
//! Downstream crates extend the set at run time with
//! [`register_protocol`] / [`register_adversary`] — no enum to edit, no
//! crate to fork — and their components immediately work everywhere a
//! name does: [`ScenarioSpec`](crate::spec::ScenarioSpec) files,
//! [`Sim::from_spec`](crate::sim::Sim::from_spec), sweeps, and the
//! `run_experiments --spec` CLI.
//!
//! The string keys are **stable public API** (they appear in spec files and
//! experiment tables); `tests/spec_roundtrip.rs` pins them.
//!
//! # Type erasure
//!
//! The engine is statically typed over one protocol type per run. Factories
//! bridge from dynamic names to that world by returning
//! [`BoxedProtocol`]s — type-erased [`SyncProtocol`]s whose message
//! payloads ride in a [`DynMsg`]. The erasure wrapper forwards every call
//! unchanged and draws no randomness of its own, so a registry-built run is
//! bit-for-bit identical to the statically-typed equivalent
//! (`tests/engine_golden.rs` holds the proof).

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use wsync_radio::action::Action;
use wsync_radio::adversary::{
    AdaptiveGreedyAdversary, Adversary, BurstyAdversary, FixedBandAdversary, NoAdversary,
    ObliviousScheduleAdversary, RandomAdversary, SweepAdversary, TopWeightAdversary,
};
use wsync_radio::engine::ExecutionResult;
use wsync_radio::fault::{CaptureLayer, ChurnLayer, DropLayer, FaultLayer, PartitionLayer};
use wsync_radio::message::{Feedback, Received};
use wsync_radio::metrics::SimMetrics;
use wsync_radio::node::{ActivationInfo, NodeId};
use wsync_radio::probe::Probe;
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;
use wsync_radio::trace::RoundObservation;

use crate::baselines::{RoundRobinConfig, RoundRobinProtocol, WakeupConfig, WakeupProtocol};
use crate::checker::PropertyChecker;
use crate::good_samaritan::{GoodSamaritanConfig, GoodSamaritanProtocol};
use crate::json::Value;
use crate::runner::{BoxedAdversary, Scenario, SyncProtocol};
use crate::spec::{ComponentSpec, ParamReader, Params, SpecError};
use crate::trapdoor::{TrapdoorConfig, TrapdoorProtocol};

/// A type-erased message payload.
///
/// Registry-built protocols of arbitrary concrete type share one engine
/// instantiation, so their messages travel as `DynMsg` and are downcast
/// back on receipt. All nodes of a run are built by the same factory and
/// therefore speak the same payload type; a mismatch (a custom factory
/// mixing protocol types with different messages) panics with a clear
/// message rather than corrupting an execution.
#[derive(Clone)]
pub struct DynMsg {
    payload: Arc<dyn Any + Send + Sync>,
    type_name: &'static str,
}

impl DynMsg {
    /// Wraps a concrete message.
    pub fn new<M: Any + Send + Sync>(message: M) -> Self {
        DynMsg {
            payload: Arc::new(message),
            type_name: std::any::type_name::<M>(),
        }
    }

    /// Recovers the concrete message, cloning it out of the shared payload.
    pub fn downcast<M: Any + Clone>(&self) -> Option<M> {
        self.payload.downcast_ref::<M>().cloned()
    }

    /// The `type_name` of the wrapped message (diagnostics only).
    pub fn payload_type(&self) -> &'static str {
        self.type_name
    }
}

impl fmt::Debug for DynMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DynMsg").field(&self.type_name).finish()
    }
}

/// A boxed, type-erased synchronization protocol — what a
/// [`ProtocolFactory`] produces and the engine runs.
pub struct BoxedProtocol(Box<dyn SyncProtocol<Msg = DynMsg>>);

impl BoxedProtocol {
    /// Erases a concrete protocol.
    pub fn erase<P>(protocol: P) -> Self
    where
        P: SyncProtocol + 'static,
        P::Msg: Any + Send + Sync,
    {
        BoxedProtocol(Box::new(Erased(protocol)))
    }
}

impl Protocol for BoxedProtocol {
    type Msg = DynMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        self.0.on_activate(info, rng);
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<DynMsg> {
        self.0.choose_action(local_round, rng)
    }

    fn on_feedback(&mut self, local_round: u64, feedback: Feedback<DynMsg>, rng: &mut SimRng) {
        self.0.on_feedback(local_round, feedback, rng);
    }

    fn output(&self) -> Option<u64> {
        self.0.output()
    }

    fn is_synchronized(&self) -> bool {
        self.0.is_synchronized()
    }
}

impl SyncProtocol for BoxedProtocol {
    fn is_leader(&self) -> bool {
        self.0.is_leader()
    }

    fn protocol_name(&self) -> &'static str {
        self.0.protocol_name()
    }
}

/// The erasure adapter: forwards every call to the concrete protocol,
/// wrapping outgoing payloads in [`DynMsg`] and downcasting incoming ones.
struct Erased<P>(P);

impl<P> Protocol for Erased<P>
where
    P: SyncProtocol,
    P::Msg: Any + Send + Sync,
{
    type Msg = DynMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        self.0.on_activate(info, rng);
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<DynMsg> {
        self.0
            .choose_action(local_round, rng)
            .map_message(DynMsg::new)
    }

    fn on_feedback(&mut self, local_round: u64, feedback: Feedback<DynMsg>, rng: &mut SimRng) {
        let feedback: Feedback<P::Msg> = match feedback {
            Feedback::Received(r) => {
                let payload = r.payload.downcast::<P::Msg>().unwrap_or_else(|| {
                    panic!(
                        "protocol {} expected a {} payload but received {}; a registry \
                         factory must build nodes that all share one message type",
                        self.0.protocol_name(),
                        std::any::type_name::<P::Msg>(),
                        r.payload.payload_type()
                    )
                });
                Feedback::Received(Received {
                    sender: r.sender,
                    frequency: r.frequency,
                    payload,
                })
            }
            Feedback::Silence { frequency } => Feedback::Silence { frequency },
            Feedback::Broadcasted { frequency } => Feedback::Broadcasted { frequency },
            Feedback::Slept => Feedback::Slept,
        };
        self.0.on_feedback(local_round, feedback, rng);
    }

    fn output(&self) -> Option<u64> {
        self.0.output()
    }

    fn is_synchronized(&self) -> bool {
        self.0.is_synchronized()
    }
}

impl<P> SyncProtocol for Erased<P>
where
    P: SyncProtocol,
    P::Msg: Any + Send + Sync,
{
    fn is_leader(&self) -> bool {
        self.0.is_leader()
    }

    fn protocol_name(&self) -> &'static str {
        self.0.protocol_name()
    }
}

/// A per-node protocol constructor, produced once per run by a
/// [`ProtocolFactory`] after parameter validation.
pub type ProtocolCtor = Box<dyn Fn(NodeId) -> BoxedProtocol + Send + Sync>;

/// Builds protocol instances for a scenario from declarative parameters.
///
/// `instantiate` is called once per run: it validates `params` against the
/// scenario (returning a typed [`SpecError`] on any problem) and returns
/// the constructor the engine calls once per node.
pub trait ProtocolFactory: Send + Sync {
    /// Validates `params` and returns the per-node constructor.
    fn instantiate(&self, scenario: &Scenario, params: &Params) -> Result<ProtocolCtor, SpecError>;
}

/// Builds an adversary instance for a scenario from declarative parameters.
pub trait AdversaryFactory: Send + Sync {
    /// Validates `params` and builds the adversary for one `(scenario,
    /// seed)` execution.
    ///
    /// Validation must not depend on `seed`: whether this returns `Ok` may
    /// vary only with `scenario` and `params`. [`Sim`](crate::sim::Sim)
    /// probe-builds once (seed 0) at construction so that its per-trial
    /// `run_one` can stay infallible; a factory that rejected some seeds
    /// but not others would turn that contract into a mid-batch panic.
    fn build(
        &self,
        scenario: &Scenario,
        params: &Params,
        seed: u64,
    ) -> Result<BoxedAdversary, SpecError>;
}

// ---------------------------------------------------------------------------
// Built-in protocol factories
// ---------------------------------------------------------------------------

/// Shared parameter schema of the Trapdoor-family factories: instance
/// overrides plus the `TrapdoorConfig` knobs the ablations sweep.
fn trapdoor_config_from(
    component: &str,
    scenario: &Scenario,
    params: &Params,
    default_frequency_limit: Option<u32>,
) -> Result<TrapdoorConfig, SpecError> {
    let mut reader = ParamReader::new(component, params);
    let n = reader
        .opt_u64("upper_bound_n")?
        .unwrap_or_else(|| scenario.upper_bound());
    let f = reader
        .opt_u32("num_frequencies")?
        .unwrap_or(scenario.num_frequencies);
    let t = reader
        .opt_u32("disruption_bound")?
        .unwrap_or(scenario.disruption_bound);
    let mut config = TrapdoorConfig::new(n, f, t);
    if let Some(c) = reader.opt_f64("epoch_constant")? {
        config = config.with_epoch_constant(c);
    }
    if let Some(c) = reader.opt_f64("final_epoch_constant")? {
        config = config.with_final_epoch_constant(c);
    }
    match reader.opt_u32("frequency_limit")? {
        Some(limit) => config = config.with_frequency_limit(limit),
        None => {
            if let Some(limit) = default_frequency_limit {
                config = config.with_frequency_limit(limit);
            }
        }
    }
    if let Some(p) = reader.opt_f64("leader_broadcast_probability")? {
        config.leader_broadcast_probability = p;
    }
    reader.finish()?;
    Ok(config)
}

struct TrapdoorFactory;

impl ProtocolFactory for TrapdoorFactory {
    fn instantiate(&self, scenario: &Scenario, params: &Params) -> Result<ProtocolCtor, SpecError> {
        let config = trapdoor_config_from("trapdoor", scenario, params, None)?;
        Ok(Box::new(move |_| {
            BoxedProtocol::erase(TrapdoorProtocol::new(config))
        }))
    }
}

struct SingleFrequencyFactory;

impl ProtocolFactory for SingleFrequencyFactory {
    fn instantiate(&self, scenario: &Scenario, params: &Params) -> Result<ProtocolCtor, SpecError> {
        let config = trapdoor_config_from("single-frequency", scenario, params, Some(1))?;
        Ok(Box::new(move |_| {
            BoxedProtocol::erase(TrapdoorProtocol::new(config))
        }))
    }
}

struct RoundRobinFactory;

impl ProtocolFactory for RoundRobinFactory {
    fn instantiate(&self, scenario: &Scenario, params: &Params) -> Result<ProtocolCtor, SpecError> {
        let trapdoor = trapdoor_config_from("round-robin", scenario, params, None)?;
        let config = RoundRobinConfig { trapdoor };
        Ok(Box::new(move |_| {
            BoxedProtocol::erase(RoundRobinProtocol::new(config))
        }))
    }
}

struct GoodSamaritanFactory;

impl ProtocolFactory for GoodSamaritanFactory {
    fn instantiate(&self, scenario: &Scenario, params: &Params) -> Result<ProtocolCtor, SpecError> {
        let mut reader = ParamReader::new("good-samaritan", params);
        let n = reader
            .opt_u64("upper_bound_n")?
            .unwrap_or_else(|| scenario.upper_bound());
        let f = reader
            .opt_u32("num_frequencies")?
            .unwrap_or(scenario.num_frequencies);
        let t = reader
            .opt_u32("disruption_bound")?
            .unwrap_or(scenario.disruption_bound);
        let mut config = GoodSamaritanConfig::new(n, f, t);
        if let Some(c) = reader.opt_f64("epoch_constant")? {
            config = config.with_epoch_constant(c);
        }
        if let Some(shift) = reader.opt_u32("threshold_shift")? {
            config = config.with_threshold_shift(shift);
        }
        if let Some(m) = reader.opt_f64("fallback_multiplier")? {
            config = config.with_fallback_multiplier(m);
        }
        if let Some(p) = reader.opt_f64("leader_broadcast_probability")? {
            config.leader_broadcast_probability = p;
        }
        reader.finish()?;
        Ok(Box::new(move |_| {
            BoxedProtocol::erase(GoodSamaritanProtocol::new(config))
        }))
    }
}

struct WakeupFactory;

impl ProtocolFactory for WakeupFactory {
    fn instantiate(&self, scenario: &Scenario, params: &Params) -> Result<ProtocolCtor, SpecError> {
        let mut reader = ParamReader::new("wakeup", params);
        let n = reader
            .opt_u64("upper_bound_n")?
            .unwrap_or_else(|| scenario.upper_bound());
        let f = reader
            .opt_u32("num_frequencies")?
            .unwrap_or(scenario.num_frequencies);
        let t = reader
            .opt_u32("disruption_bound")?
            .unwrap_or(scenario.disruption_bound);
        let mut config = WakeupConfig::new(n, f, t);
        if let Some(deadline) = reader.opt_u64("deadline_rounds")? {
            config = config.with_deadline(deadline);
        }
        if let Some(p) = reader.opt_f64("leader_broadcast_probability")? {
            config.leader_broadcast_probability = p;
        }
        reader.finish()?;
        Ok(Box::new(move |_| {
            BoxedProtocol::erase(WakeupProtocol::new(config))
        }))
    }
}

// ---------------------------------------------------------------------------
// Built-in adversary factories
// ---------------------------------------------------------------------------

/// Wraps a parameterless adversary constructor as a factory.
struct SimpleAdversaryFactory {
    name: &'static str,
    build: fn(u32) -> Box<dyn Adversary>,
}

impl AdversaryFactory for SimpleAdversaryFactory {
    fn build(
        &self,
        scenario: &Scenario,
        params: &Params,
        _seed: u64,
    ) -> Result<BoxedAdversary, SpecError> {
        ParamReader::new(self.name, params).finish()?;
        Ok(BoxedAdversary::new((self.build)(scenario.disruption_bound)))
    }
}

struct BurstyFactory;

impl AdversaryFactory for BurstyFactory {
    fn build(
        &self,
        scenario: &Scenario,
        params: &Params,
        _seed: u64,
    ) -> Result<BoxedAdversary, SpecError> {
        let mut reader = ParamReader::new("bursty", params);
        let period = reader.req_u64("period")?;
        let burst_len = reader.req_u64("burst_len")?;
        reader.finish()?;
        Ok(BoxedAdversary::new(Box::new(BurstyAdversary::new(
            scenario.disruption_bound,
            period,
            burst_len,
        ))))
    }
}

struct ObliviousRandomFactory;

impl AdversaryFactory for ObliviousRandomFactory {
    fn build(
        &self,
        scenario: &Scenario,
        params: &Params,
        seed: u64,
    ) -> Result<BoxedAdversary, SpecError> {
        let mut reader = ParamReader::new("oblivious-random", params);
        let t_actual = reader.req_u32("t_actual")?;
        reader.finish()?;
        // Pre-sample a schedule long enough to cover the run without
        // repeating too quickly. The seed tweak and length are part of the
        // reproducibility contract (pinned by tests/engine_golden.rs).
        let len = 8192usize;
        Ok(BoxedAdversary::new(Box::new(
            ObliviousScheduleAdversary::random(
                seed ^ 0x0b11_0005,
                len,
                scenario.num_frequencies,
                t_actual.min(scenario.disruption_bound),
            ),
        )))
    }
}

struct TopWeightFactory;

impl AdversaryFactory for TopWeightFactory {
    fn build(
        &self,
        scenario: &Scenario,
        params: &Params,
        _seed: u64,
    ) -> Result<BoxedAdversary, SpecError> {
        let mut reader = ParamReader::new("top-weight", params);
        let weights = reader.opt_f64_list("weights")?;
        reader.finish()?;
        let adversary = match weights {
            Some(weights) => TopWeightAdversary::new(scenario.disruption_bound, weights),
            None => TopWeightAdversary::against_uniform(
                scenario.disruption_bound,
                scenario.num_frequencies,
            ),
        };
        Ok(BoxedAdversary::new(Box::new(adversary)))
    }
}

// ---------------------------------------------------------------------------
// Probe factories
// ---------------------------------------------------------------------------

/// The output of one declarative probe after a run: the registry name it
/// was declared under and its finalized JSON value.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOutput {
    /// The probe's registry name (as written in the spec's `"probes"`
    /// array).
    pub name: String,
    /// The probe's finalized value.
    pub value: Value,
}

/// A registry-built probe: a radio-engine [`Probe`] that additionally
/// finalizes into a JSON value once the execution completes, so declarative
/// runs can report what it observed.
pub trait SimProbe: Probe {
    /// Consumes the probe and produces its output value.
    fn finish_value(self: Box<Self>, result: &ExecutionResult) -> Value;
}

/// Builds a probe for a scenario from declarative parameters.
///
/// Like the other factories, `build` validates `params` with typed
/// [`SpecError`]s; [`Sim::from_spec`](crate::sim::Sim::from_spec)
/// probe-builds once at construction so parameter typos surface before any
/// trial runs.
pub trait ProbeFactory: Send + Sync {
    /// Validates `params` and builds the probe for one execution.
    fn build(&self, scenario: &Scenario, params: &Params) -> Result<Box<dyn SimProbe>, SpecError>;
}

/// The adapter that carries a registry-built probe through the engine's
/// type-erased stack: a known concrete type wrapping the `Box<dyn
/// SimProbe>`, so the runner can recover it by downcast after the run and
/// call [`finish`](RegistryProbe::finish).
pub struct RegistryProbe {
    name: String,
    inner: Box<dyn SimProbe>,
}

impl RegistryProbe {
    /// Wraps a built probe under its registry name.
    pub fn new(name: impl Into<String>, inner: Box<dyn SimProbe>) -> Self {
        RegistryProbe {
            name: name.into(),
            inner,
        }
    }

    /// The registry name the probe was declared under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Finalizes the probe into its named output.
    pub fn finish(self, result: &ExecutionResult) -> ProbeOutput {
        ProbeOutput {
            name: self.name,
            value: self.inner.finish_value(result),
        }
    }
}

impl Probe for RegistryProbe {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.inner.observe(observation);
    }

    fn lookback(&self) -> usize {
        self.inner.lookback()
    }
}

/// The `"metrics"` probe: an independently folded [`SimMetrics`] (the same
/// aggregates the engine computes, reproduced through the probe pipeline;
/// the equivalence is pinned by `tests/probe_pipeline.rs`).
struct MetricsProbe(SimMetrics);

impl Probe for MetricsProbe {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.0.observe(observation);
    }
}

impl SimProbe for MetricsProbe {
    fn finish_value(self: Box<Self>, _result: &ExecutionResult) -> Value {
        let m = &self.0;
        Value::Object(vec![
            ("rounds".to_string(), m.rounds.into()),
            ("broadcasts".to_string(), m.broadcasts.into()),
            ("listens".to_string(), m.listens.into()),
            ("sleeps".to_string(), m.sleeps.into()),
            ("deliveries".to_string(), m.deliveries.into()),
            ("receptions".to_string(), m.receptions.into()),
            ("collisions".to_string(), m.collisions.into()),
            (
                "jammed_solo_broadcasts".to_string(),
                m.jammed_solo_broadcasts.into(),
            ),
            (
                "disrupted_frequency_rounds".to_string(),
                m.disrupted_frequency_rounds.into(),
            ),
            ("max_active_nodes".to_string(), m.max_active_nodes.into()),
            (
                "adversary_budget_violations".to_string(),
                m.adversary_budget_violations.into(),
            ),
        ])
    }
}

struct MetricsProbeFactory;

impl ProbeFactory for MetricsProbeFactory {
    fn build(&self, _scenario: &Scenario, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
        ParamReader::new("metrics", params).finish()?;
        Ok(Box::new(MetricsProbe(SimMetrics::default())))
    }
}

/// The `"checker"` probe: the streaming [`PropertyChecker`], folding
/// violations round by round. It finalizes through
/// [`finish`](PropertyChecker::finish), like every run, so the liveness
/// verdict is the engine's and the probe table can never contradict
/// `SyncOutcome.properties`.
struct CheckerProbe(PropertyChecker);

impl Probe for CheckerProbe {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.0.observe(observation);
    }
}

impl SimProbe for CheckerProbe {
    fn finish_value(self: Box<Self>, result: &ExecutionResult) -> Value {
        let report = self.0.finish(result);
        Value::Object(vec![
            (
                "total_violations".to_string(),
                report.total_violations.into(),
            ),
            ("rounds_observed".to_string(), report.rounds_observed.into()),
            ("liveness".to_string(), Value::Bool(report.liveness)),
            (
                "safety_holds".to_string(),
                Value::Bool(report.safety_holds()),
            ),
            (
                "completion_round".to_string(),
                match report.completion_round {
                    Some(round) => round.into(),
                    None => Value::Null,
                },
            ),
        ])
    }
}

struct CheckerProbeFactory;

impl ProbeFactory for CheckerProbeFactory {
    fn build(&self, _scenario: &Scenario, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
        let mut reader = ParamReader::new("checker", params);
        let max_recorded = reader.opt_u64("max_recorded")?;
        reader.finish()?;
        let mut checker = PropertyChecker::new();
        if let Some(max) = max_recorded {
            checker = checker.with_max_recorded(max as usize);
        }
        Ok(Box::new(CheckerProbe(checker)))
    }
}

/// The `"trace"` probe: an incremental trace summary — rounds observed,
/// delivery total, and per-node first-sync rounds, folded in O(n) state.
/// It deliberately does **not** retain a full trace
/// (`rounds × nodes` memory just to finalize into three summary fields);
/// attach a [`FullTrace`](wsync_radio::trace::FullTrace) probe directly
/// when the raw events themselves are wanted. The optional `max_rounds`
/// parameter bounds how many rounds contribute to the summary, mirroring
/// a truncated trace.
struct TraceProbe {
    max_rounds: Option<u64>,
    rounds: u64,
    deliveries: u64,
    first_sync: Vec<Option<u64>>,
}

impl Probe for TraceProbe {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        if let Some(max) = self.max_rounds {
            if self.rounds >= max {
                return;
            }
        }
        self.rounds += 1;
        self.deliveries += observation.deliveries.len() as u64;
        if self.first_sync.len() < observation.nodes.len() {
            self.first_sync.resize(observation.nodes.len(), None);
        }
        for (slot, view) in self.first_sync.iter_mut().zip(observation.nodes) {
            if slot.is_none() && matches!(view.output(), Some(Some(_))) {
                *slot = Some(observation.round);
            }
        }
    }
}

impl SimProbe for TraceProbe {
    fn finish_value(self: Box<Self>, _result: &ExecutionResult) -> Value {
        let sync_rounds: Vec<Value> = self
            .first_sync
            .iter()
            .map(|sync| match sync {
                Some(round) => (*round).into(),
                None => Value::Null,
            })
            .collect();
        Value::Object(vec![
            ("rounds_recorded".to_string(), self.rounds.into()),
            ("total_deliveries".to_string(), self.deliveries.into()),
            ("sync_rounds".to_string(), Value::Array(sync_rounds)),
        ])
    }
}

struct TraceProbeFactory;

impl ProbeFactory for TraceProbeFactory {
    fn build(&self, _scenario: &Scenario, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
        let mut reader = ParamReader::new("trace", params);
        let max_rounds = reader.opt_u64("max_rounds")?;
        reader.finish()?;
        Ok(Box::new(TraceProbe {
            max_rounds,
            rounds: 0,
            deliveries: 0,
            first_sync: Vec::new(),
        }))
    }
}

// ---------------------------------------------------------------------------
// Fault factories
// ---------------------------------------------------------------------------

/// Builds a network-fault layer for a scenario from declarative parameters.
///
/// Like the other factories, `build` validates `params` with typed
/// [`SpecError`]s; [`Sim::from_spec`](crate::sim::Sim::from_spec)
/// probe-builds once at construction so parameter typos surface before any
/// trial runs. There is no seed parameter: layers draw randomness only from
/// the private per-layer stream the engine derives when the layer is
/// attached ([`Engine::attach_fault`](wsync_radio::engine::Engine)), which
/// is what keeps a layer's draws independent of every other stream.
pub trait FaultFactory: Send + Sync {
    /// Validates `params` and builds the fault layer for one execution.
    fn build(&self, scenario: &Scenario, params: &Params)
        -> Result<Box<dyn FaultLayer>, SpecError>;
}

/// Validates that an already-read `f64` parameter is a probability.
fn require_probability(component: &str, param: &str, value: Option<f64>) -> Result<f64, SpecError> {
    let rate = value.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&rate) {
        return Err(SpecError::BadParam {
            component: component.to_string(),
            param: param.to_string(),
            expected: "a probability in [0, 1]",
            found: format!("{rate}"),
        });
    }
    Ok(rate)
}

/// The `"drop"` fault: whole-delivery loss with probability `drop_rate`
/// (default `0.0`, which changes nothing).
struct DropFaultFactory;

impl FaultFactory for DropFaultFactory {
    fn build(
        &self,
        _scenario: &Scenario,
        params: &Params,
    ) -> Result<Box<dyn FaultLayer>, SpecError> {
        let mut reader = ParamReader::new("drop", params);
        let rate = reader.opt_f64("drop_rate")?;
        reader.finish()?;
        Ok(Box::new(DropLayer::new(require_probability(
            "drop",
            "drop_rate",
            rate,
        )?)))
    }
}

/// The `"capture"` fault: per-receiver fading loss with probability
/// `miss_rate` (default `0.0`, which changes nothing).
struct CaptureFaultFactory;

impl FaultFactory for CaptureFaultFactory {
    fn build(
        &self,
        _scenario: &Scenario,
        params: &Params,
    ) -> Result<Box<dyn FaultLayer>, SpecError> {
        let mut reader = ParamReader::new("capture", params);
        let rate = reader.opt_f64("miss_rate")?;
        reader.finish()?;
        Ok(Box::new(CaptureLayer::new(require_probability(
            "capture",
            "miss_rate",
            rate,
        )?)))
    }
}

/// The `"partition"` fault: `groups` is an array of arrays of node indices
/// (nodes left out share one implicit remainder group; an omitted or empty
/// map changes nothing); optional `heal_at` is the round from which
/// cross-group deliveries flow again.
struct PartitionFaultFactory;

impl PartitionFaultFactory {
    fn parse_groups(scenario: &Scenario, value: &Value) -> Result<Vec<Vec<u32>>, SpecError> {
        let bad = |found: String| SpecError::BadParam {
            component: "partition".to_string(),
            param: "groups".to_string(),
            expected: "an array of arrays of node indices",
            found,
        };
        let outer = value
            .as_array()
            .ok_or_else(|| bad(value.type_name().to_string()))?;
        let mut groups: Vec<Vec<u32>> = Vec::with_capacity(outer.len());
        let mut seen = vec![false; scenario.num_nodes];
        for item in outer {
            let members = item
                .as_array()
                .ok_or_else(|| bad(format!("a group of type {}", item.type_name())))?;
            let mut group = Vec::with_capacity(members.len());
            for member in members {
                let index = member
                    .as_u64()
                    .and_then(|u| u32::try_from(u).ok())
                    .ok_or_else(|| bad(format!("group member {:?}", member)))?;
                if index as usize >= scenario.num_nodes {
                    return Err(bad(format!(
                        "node index {index} (the network has {} nodes)",
                        scenario.num_nodes
                    )));
                }
                if seen[index as usize] {
                    return Err(bad(format!("node {index} listed in more than one group")));
                }
                seen[index as usize] = true;
                group.push(index);
            }
            groups.push(group);
        }
        Ok(groups)
    }
}

impl FaultFactory for PartitionFaultFactory {
    fn build(
        &self,
        scenario: &Scenario,
        params: &Params,
    ) -> Result<Box<dyn FaultLayer>, SpecError> {
        let mut reader = ParamReader::new("partition", params);
        let groups = match reader.opt_value("groups") {
            Some(value) => Self::parse_groups(scenario, value)?,
            None => Vec::new(),
        };
        let heal_at = reader.opt_u64("heal_at")?;
        reader.finish()?;
        Ok(Box::new(PartitionLayer::new(
            scenario.num_nodes,
            &groups,
            heal_at,
        )))
    }
}

/// The `"churn"` fault: per-round crash probability `churn_rate` (default
/// `0.0`, which changes nothing) and per-crash `downtime` in rounds
/// (default 8, must be positive).
struct ChurnFaultFactory;

impl FaultFactory for ChurnFaultFactory {
    fn build(
        &self,
        _scenario: &Scenario,
        params: &Params,
    ) -> Result<Box<dyn FaultLayer>, SpecError> {
        let mut reader = ParamReader::new("churn", params);
        let rate = reader.opt_f64("churn_rate")?;
        let downtime = reader.opt_u64("downtime")?;
        reader.finish()?;
        let rate = require_probability("churn", "churn_rate", rate)?;
        let downtime = downtime.unwrap_or(8);
        if downtime == 0 {
            return Err(SpecError::BadParam {
                component: "churn".to_string(),
                param: "downtime".to_string(),
                expected: "a positive number of rounds",
                found: "0".to_string(),
            });
        }
        Ok(Box::new(ChurnLayer::new(rate, downtime)))
    }
}

/// The `"fault-counters"` probe: sums the per-round fault counters the
/// engine reports in [`RoundTally`](wsync_radio::trace::RoundTally), so a
/// spec-driven run can report how many deliveries its fault layers dropped,
/// suppressed, or severed, and how much churn it injected.
#[derive(Default)]
struct FaultCountersProbe {
    dropped_deliveries: u64,
    suppressed_receptions: u64,
    severed_receptions: u64,
    crashed_node_rounds: u64,
    restarts: u64,
}

impl Probe for FaultCountersProbe {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        let tally = &observation.tally;
        self.dropped_deliveries += u64::from(tally.dropped_deliveries);
        self.suppressed_receptions += u64::from(tally.suppressed_receptions);
        self.severed_receptions += u64::from(tally.severed_receptions);
        self.crashed_node_rounds += u64::from(tally.crashed_nodes);
        self.restarts += u64::from(tally.restarted_nodes);
    }
}

impl SimProbe for FaultCountersProbe {
    fn finish_value(self: Box<Self>, _result: &ExecutionResult) -> Value {
        Value::Object(vec![
            (
                "dropped_deliveries".to_string(),
                self.dropped_deliveries.into(),
            ),
            (
                "suppressed_receptions".to_string(),
                self.suppressed_receptions.into(),
            ),
            (
                "severed_receptions".to_string(),
                self.severed_receptions.into(),
            ),
            (
                "crashed_node_rounds".to_string(),
                self.crashed_node_rounds.into(),
            ),
            ("restarts".to_string(), self.restarts.into()),
        ])
    }
}

struct FaultCountersProbeFactory;

impl ProbeFactory for FaultCountersProbeFactory {
    fn build(&self, _scenario: &Scenario, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
        ParamReader::new("fault-counters", params).finish()?;
        Ok(Box::new(FaultCountersProbe::default()))
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// A string-keyed catalogue of protocol, adversary, probe, and fault-layer
/// factories.
#[derive(Clone)]
pub struct Registry {
    protocols: BTreeMap<String, Arc<dyn ProtocolFactory>>,
    adversaries: BTreeMap<String, Arc<dyn AdversaryFactory>>,
    probes: BTreeMap<String, Arc<dyn ProbeFactory>>,
    faults: BTreeMap<String, Arc<dyn FaultFactory>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("protocols", &self.protocol_names())
            .field("adversaries", &self.adversary_names())
            .field("probes", &self.probe_names())
            .field("faults", &self.fault_names())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_defaults()
    }
}

impl Registry {
    /// An empty registry.
    pub fn empty() -> Self {
        Registry {
            protocols: BTreeMap::new(),
            adversaries: BTreeMap::new(),
            probes: BTreeMap::new(),
            faults: BTreeMap::new(),
        }
    }

    /// A registry pre-populated with every protocol and adversary in the
    /// workspace.
    pub fn with_defaults() -> Self {
        let mut registry = Registry::empty();
        registry.register_protocol("trapdoor", Arc::new(TrapdoorFactory));
        registry.register_protocol("good-samaritan", Arc::new(GoodSamaritanFactory));
        registry.register_protocol("wakeup", Arc::new(WakeupFactory));
        registry.register_protocol("round-robin", Arc::new(RoundRobinFactory));
        registry.register_protocol("single-frequency", Arc::new(SingleFrequencyFactory));

        fn simple(
            name: &'static str,
            build: fn(u32) -> Box<dyn Adversary>,
        ) -> Arc<SimpleAdversaryFactory> {
            Arc::new(SimpleAdversaryFactory { name, build })
        }
        registry.register_adversary("none", simple("none", |_| Box::new(NoAdversary::new())));
        registry.register_adversary(
            "fixed-band",
            simple("fixed-band", |t| Box::new(FixedBandAdversary::new(t))),
        );
        registry.register_adversary(
            "random",
            simple("random", |t| Box::new(RandomAdversary::new(t))),
        );
        registry.register_adversary(
            "sweep",
            simple("sweep", |t| Box::new(SweepAdversary::new(t))),
        );
        registry.register_adversary(
            "adaptive-greedy",
            simple("adaptive-greedy", |t| {
                Box::new(AdaptiveGreedyAdversary::new(t))
            }),
        );
        registry.register_adversary("bursty", Arc::new(BurstyFactory));
        registry.register_adversary("oblivious-random", Arc::new(ObliviousRandomFactory));
        registry.register_adversary("top-weight", Arc::new(TopWeightFactory));

        registry.register_probe("metrics", Arc::new(MetricsProbeFactory));
        registry.register_probe("checker", Arc::new(CheckerProbeFactory));
        registry.register_probe("trace", Arc::new(TraceProbeFactory));
        registry.register_probe("fault-counters", Arc::new(FaultCountersProbeFactory));

        registry.register_fault("drop", Arc::new(DropFaultFactory));
        registry.register_fault("capture", Arc::new(CaptureFaultFactory));
        registry.register_fault("partition", Arc::new(PartitionFaultFactory));
        registry.register_fault("churn", Arc::new(ChurnFaultFactory));
        registry
    }

    /// Registers (or replaces) a protocol factory under `name`.
    pub fn register_protocol(
        &mut self,
        name: impl Into<String>,
        factory: Arc<dyn ProtocolFactory>,
    ) {
        self.protocols.insert(name.into(), factory);
    }

    /// Registers (or replaces) an adversary factory under `name`.
    pub fn register_adversary(
        &mut self,
        name: impl Into<String>,
        factory: Arc<dyn AdversaryFactory>,
    ) {
        self.adversaries.insert(name.into(), factory);
    }

    /// Registers (or replaces) a probe factory under `name`.
    pub fn register_probe(&mut self, name: impl Into<String>, factory: Arc<dyn ProbeFactory>) {
        self.probes.insert(name.into(), factory);
    }

    /// Registers (or replaces) a fault-layer factory under `name`.
    pub fn register_fault(&mut self, name: impl Into<String>, factory: Arc<dyn FaultFactory>) {
        self.faults.insert(name.into(), factory);
    }

    /// Resolves a protocol factory by name.
    pub fn protocol(&self, name: &str) -> Result<Arc<dyn ProtocolFactory>, SpecError> {
        self.protocols
            .get(name)
            .cloned()
            .ok_or_else(|| SpecError::UnknownProtocol {
                name: name.to_string(),
                known: self.protocol_names(),
            })
    }

    /// Resolves an adversary factory by name.
    pub fn adversary(&self, name: &str) -> Result<Arc<dyn AdversaryFactory>, SpecError> {
        self.adversaries
            .get(name)
            .cloned()
            .ok_or_else(|| SpecError::UnknownAdversary {
                name: name.to_string(),
                known: self.adversary_names(),
            })
    }

    /// Resolves a probe factory by name.
    pub fn probe(&self, name: &str) -> Result<Arc<dyn ProbeFactory>, SpecError> {
        self.probes
            .get(name)
            .cloned()
            .ok_or_else(|| SpecError::UnknownProbe {
                name: name.to_string(),
                known: self.probe_names(),
            })
    }

    /// Resolves a fault-layer factory by name.
    pub fn fault(&self, name: &str) -> Result<Arc<dyn FaultFactory>, SpecError> {
        self.faults
            .get(name)
            .cloned()
            .ok_or_else(|| SpecError::UnknownFault {
                name: name.to_string(),
                known: self.fault_names(),
            })
    }

    /// The registered protocol names, sorted.
    pub fn protocol_names(&self) -> Vec<String> {
        self.protocols.keys().cloned().collect()
    }

    /// The registered adversary names, sorted.
    pub fn adversary_names(&self) -> Vec<String> {
        self.adversaries.keys().cloned().collect()
    }

    /// The registered probe names, sorted.
    pub fn probe_names(&self) -> Vec<String> {
        self.probes.keys().cloned().collect()
    }

    /// The registered fault-layer names, sorted.
    pub fn fault_names(&self) -> Vec<String> {
        self.faults.keys().cloned().collect()
    }
}

fn global() -> &'static RwLock<Registry> {
    static GLOBAL: OnceLock<RwLock<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Registry::with_defaults()))
}

/// Registers a protocol factory in the process-global registry used by
/// [`Sim::from_spec`](crate::sim::Sim::from_spec). Downstream crates call
/// this once at startup.
pub fn register_protocol(name: impl Into<String>, factory: Arc<dyn ProtocolFactory>) {
    global()
        .write()
        .expect("registry lock poisoned")
        .register_protocol(name, factory);
}

/// Registers an adversary factory in the process-global registry.
pub fn register_adversary(name: impl Into<String>, factory: Arc<dyn AdversaryFactory>) {
    global()
        .write()
        .expect("registry lock poisoned")
        .register_adversary(name, factory);
}

/// Registers a probe factory in the process-global registry.
pub fn register_probe(name: impl Into<String>, factory: Arc<dyn ProbeFactory>) {
    global()
        .write()
        .expect("registry lock poisoned")
        .register_probe(name, factory);
}

/// Resolves a protocol factory from the process-global registry.
pub fn resolve_protocol(name: &str) -> Result<Arc<dyn ProtocolFactory>, SpecError> {
    global()
        .read()
        .expect("registry lock poisoned")
        .protocol(name)
}

/// Resolves an adversary factory from the process-global registry.
pub fn resolve_adversary(name: &str) -> Result<Arc<dyn AdversaryFactory>, SpecError> {
    global()
        .read()
        .expect("registry lock poisoned")
        .adversary(name)
}

/// Resolves a probe factory from the process-global registry.
pub fn resolve_probe(name: &str) -> Result<Arc<dyn ProbeFactory>, SpecError> {
    global().read().expect("registry lock poisoned").probe(name)
}

/// Registers a fault-layer factory in the process-global registry.
pub fn register_fault(name: impl Into<String>, factory: Arc<dyn FaultFactory>) {
    global()
        .write()
        .expect("registry lock poisoned")
        .register_fault(name, factory);
}

/// Resolves a fault-layer factory from the process-global registry.
pub fn resolve_fault(name: &str) -> Result<Arc<dyn FaultFactory>, SpecError> {
    global().read().expect("registry lock poisoned").fault(name)
}

/// The protocol names in the process-global registry, sorted.
pub fn protocol_names() -> Vec<String> {
    global()
        .read()
        .expect("registry lock poisoned")
        .protocol_names()
}

/// The adversary names in the process-global registry, sorted.
pub fn adversary_names() -> Vec<String> {
    global()
        .read()
        .expect("registry lock poisoned")
        .adversary_names()
}

/// The probe names in the process-global registry, sorted.
pub fn probe_names() -> Vec<String> {
    global()
        .read()
        .expect("registry lock poisoned")
        .probe_names()
}

/// The fault-layer names in the process-global registry, sorted.
pub fn fault_names() -> Vec<String> {
    global()
        .read()
        .expect("registry lock poisoned")
        .fault_names()
}

/// Builds the adversary described by `spec` for one `(scenario, seed)`
/// execution, resolving the name against the process-global registry.
pub fn build_adversary(
    spec: &ComponentSpec,
    scenario: &Scenario,
    seed: u64,
) -> Result<BoxedAdversary, SpecError> {
    resolve_adversary(spec.name())?.build(scenario, &spec.params, seed)
}

/// Builds the fault layer described by `spec` for one scenario, resolving
/// the name against the process-global registry. Seedless by design: the
/// engine pairs the layer with its private random stream on attachment.
pub fn build_fault(
    spec: &ComponentSpec,
    scenario: &Scenario,
) -> Result<Box<dyn FaultLayer>, SpecError> {
    resolve_fault(spec.name())?.build(scenario, &spec.params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsync_radio::frequency::FrequencyBand;
    use wsync_radio::history::History;

    #[test]
    fn default_registry_resolves_every_builtin() {
        let registry = Registry::with_defaults();
        let scenario = Scenario::new(4, 8, 2);
        for name in registry.protocol_names() {
            let factory = registry.protocol(&name).unwrap();
            let ctor = factory
                .instantiate(&scenario, &Params::new())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut protocol = ctor(NodeId::new(0));
            assert!(!protocol.is_leader());
            assert!(!protocol.protocol_name().is_empty());
            // the protocol is runnable through the erased interface
            let mut rng = SimRng::from_seed(1);
            protocol.on_activate(ActivationInfo::new(4, 8, 2), &mut rng);
            let action = protocol.choose_action(0, &mut rng);
            let feedback = match action {
                Action::Broadcast { frequency, .. } => Feedback::Broadcasted { frequency },
                Action::Listen { frequency } => Feedback::Silence { frequency },
                Action::Sleep => Feedback::Slept,
            };
            protocol.on_feedback(0, feedback, &mut rng);
        }
        for name in registry.adversary_names() {
            let factory = registry.adversary(&name).unwrap();
            let mut params = Params::new();
            if name == "bursty" {
                params.set("period", 10u64);
                params.set("burst_len", 2u64);
            } else if name == "oblivious-random" {
                params.set("t_actual", 1u64);
            }
            let mut adversary = factory
                .build(&scenario, &params, 7)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let set = adversary.disrupt(
                0,
                FrequencyBand::new(8),
                &History::new(),
                &mut SimRng::from_seed(0),
            );
            assert!(set.len() <= 8, "{name} disrupted too much");
        }
    }

    #[test]
    fn unknown_names_list_the_known_ones() {
        let registry = Registry::with_defaults();
        match registry.protocol("trapdor").err() {
            Some(SpecError::UnknownProtocol { name, known }) => {
                assert_eq!(name, "trapdor");
                assert!(known.contains(&"trapdoor".to_string()));
            }
            other => panic!("expected UnknownProtocol, got {other:?}"),
        }
        match registry.adversary("nonsense").err() {
            Some(SpecError::UnknownAdversary { known, .. }) => {
                assert_eq!(known.len(), 8);
            }
            other => panic!("expected UnknownAdversary, got {other:?}"),
        }
    }

    #[test]
    fn factories_validate_their_parameters() {
        let registry = Registry::with_defaults();
        let scenario = Scenario::new(4, 8, 2);
        // typo in a protocol parameter
        let err = registry
            .protocol("trapdoor")
            .unwrap()
            .instantiate(&scenario, &Params::new().with("epoch_konstant", 2.0))
            .err()
            .expect("typo must be rejected");
        assert!(matches!(err, SpecError::UnknownParam { .. }), "{err}");
        // missing required adversary parameter
        let err = registry
            .adversary("oblivious-random")
            .unwrap()
            .build(&scenario, &Params::new(), 0)
            .expect_err("missing t_actual must be rejected");
        assert!(matches!(err, SpecError::MissingParam { .. }), "{err}");
        // wrong type
        let err = registry
            .adversary("bursty")
            .unwrap()
            .build(
                &scenario,
                &Params::new().with("period", "ten").with("burst_len", 2u64),
                0,
            )
            .expect_err("mistyped period must be rejected");
        assert!(matches!(err, SpecError::BadParam { .. }), "{err}");
    }

    #[test]
    fn downstream_registration_is_visible_globally() {
        struct EchoFactory;
        impl AdversaryFactory for EchoFactory {
            fn build(
                &self,
                _scenario: &Scenario,
                params: &Params,
                _seed: u64,
            ) -> Result<BoxedAdversary, SpecError> {
                ParamReader::new("test-echo", params).finish()?;
                Ok(BoxedAdversary::new(Box::new(NoAdversary::new())))
            }
        }
        register_adversary("test-echo", Arc::new(EchoFactory));
        assert!(adversary_names().contains(&"test-echo".to_string()));
        let spec = ComponentSpec::named("test-echo");
        let scenario = Scenario::new(2, 4, 1);
        assert!(build_adversary(&spec, &scenario, 0).is_ok());
    }

    #[test]
    fn trapdoor_params_mirror_the_config_builders() {
        let scenario = Scenario::new(8, 16, 4);
        let params = Params::new()
            .with("epoch_constant", 1.5)
            .with("final_epoch_constant", 3.0)
            .with("frequency_limit", 2u64);
        let config = trapdoor_config_from("trapdoor", &scenario, &params, None).unwrap();
        let expected = TrapdoorConfig::new(8, 16, 4)
            .with_epoch_constant(1.5)
            .with_final_epoch_constant(3.0)
            .with_frequency_limit(2);
        assert_eq!(config, expected);
    }
}
