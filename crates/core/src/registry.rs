//! The component catalogue: every protocol, adversary, probe and fault
//! layer a spec can name.
//!
//! Each component kind has one static table of `(name, builder)` pairs,
//! sorted by name: the five protocols in this crate (`good-samaritan` and
//! the Trapdoor family `round-robin`, `single-frequency`, `trapdoor` and
//! `wakeup`, which all build a [`TrapdoorProtocol`]), the eight
//! adversaries in `wsync-radio` (`adaptive-greedy`, `bursty`,
//! `fixed-band`, `none`, `oblivious-random`, `random`, `sweep`,
//! `top-weight`), four probes and four fault layers. A builder is a plain
//! function that validates its parameters and builds the component, and
//! [`Sim`](crate::sim::Sim), [`build_adversary`] and [`build_fault`] call
//! the table rows directly. Protocols are told the scenario's own
//! `(N, F, t)`, and only the Trapdoor family takes parameters (the
//! constants the A1/A2 ablations sweep). `top-weight`, the Theorem 4
//! adversary against a uniform frequency choice, builds the fixed-band
//! adversary. Names resolve once per
//! [`Sim::from_spec`](crate::sim::Sim::from_spec), and everything that
//! takes a name — [`ScenarioSpec`] files, sweeps, the
//! `run_experiments --spec` CLI and `wsync-serve` — reads the same tables.
//!
//! The catalogue is closed: a name denotes the same component in every
//! process, which is what lets it sit in the store's cache key
//! ([`spec_digest`](crate::store::spec_digest)). The names are **stable
//! public API** (they appear in spec files and experiment tables);
//! `tests/spec_roundtrip.rs` pins them.
//!
//! # Catalogue protocols
//!
//! The engine is statically typed over one protocol type per run. Protocol
//! builders bridge from dynamic names to that world by returning one
//! [`CatalogueProtocol`] node — a closed enum over the catalogue's two
//! protocol types, [`TrapdoorProtocol`] and [`GoodSamaritanProtocol`] —
//! which every node of a run clones, so per-run work (resolving the
//! Trapdoor schedule) happens once. [`Sim`](crate::sim::Sim) matches that
//! node's variant once per trial and runs the engine typed over the
//! variant's own protocol, so the round loop calls the protocol directly.
//! A [`ProtocolCtor`] (what [`ProtocolFactory::instantiate`] returns) hands
//! out clones of the enum itself, which the engine runs through the enum's
//! own [`Protocol`] impl: a `match` per call, messages wrapped in
//! [`CatalogueMsg`]. The `match` forwards unchanged and draws no randomness
//! of its own, so both paths are bit-for-bit identical to the
//! statically-typed equivalent (`catalogue_dispatch_matches_the_typed_engine`
//! below and `tests/engine_golden.rs` hold the proof).

use std::sync::Arc;

use wsync_radio::action::Action;
use wsync_radio::adversary::{
    AdaptiveGreedyAdversary, Adversary, BurstyAdversary, FixedBandAdversary, NoAdversary,
    ObliviousScheduleAdversary, RandomAdversary, SweepAdversary,
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

use crate::checker::PropertyChecker;
use crate::good_samaritan::{GoodSamaritanConfig, GoodSamaritanMsg, GoodSamaritanProtocol};
use crate::json::Value;
use crate::runner::{BoxedAdversary, SyncProtocol};
use crate::spec::{ComponentSpec, ParamReader, Params, ScenarioSpec, SpecError};
use crate::trapdoor::{TrapdoorConfig, TrapdoorMsg, TrapdoorProtocol};

/// The message payload of a catalogue-built protocol: one variant per
/// message family. Trapdoor-family nodes speak [`TrapdoorMsg`]; Good
/// Samaritan nodes speak [`GoodSamaritanMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogueMsg {
    /// A Trapdoor-family message.
    Trapdoor(TrapdoorMsg),
    /// A Good Samaritan message.
    GoodSamaritan(GoodSamaritanMsg),
}

impl CatalogueMsg {
    fn type_name(&self) -> &'static str {
        match self {
            CatalogueMsg::Trapdoor(_) => std::any::type_name::<TrapdoorMsg>(),
            CatalogueMsg::GoodSamaritan(_) => std::any::type_name::<GoodSamaritanMsg>(),
        }
    }
}

/// A node built by a catalogue protocol builder. [`Sim`](crate::sim::Sim)
/// matches its variant once per trial and runs the engine over the
/// variant's own protocol type; a [`ProtocolFactory`]'s constructor returns
/// clones of the enum, which run through its per-call [`Protocol`] impl.
#[derive(Debug, Clone)]
pub enum CatalogueProtocol {
    /// `trapdoor`, `single-frequency`, `round-robin` and `wakeup`.
    Trapdoor(TrapdoorProtocol),
    /// `good-samaritan`.
    GoodSamaritan(GoodSamaritanProtocol),
}

/// Narrows a received catalogue message to the family `unwrap` accepts.
///
/// One builder makes every node of a run, so every node speaks one family;
/// should that ever break, this panics naming both types rather than
/// corrupting an execution.
#[inline]
fn narrow<M>(
    feedback: Feedback<CatalogueMsg>,
    unwrap: fn(CatalogueMsg) -> Option<M>,
) -> Feedback<M> {
    match feedback {
        Feedback::Received(r) => {
            let payload = unwrap(r.payload).unwrap_or_else(|| {
                panic!(
                    "a catalogue protocol expected a {} payload but received a {}; one builder \
                     makes every node of a run, so all nodes share one message type",
                    std::any::type_name::<M>(),
                    r.payload.type_name(),
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
    }
}

fn trapdoor_msg(message: CatalogueMsg) -> Option<TrapdoorMsg> {
    match message {
        CatalogueMsg::Trapdoor(m) => Some(m),
        CatalogueMsg::GoodSamaritan(_) => None,
    }
}

fn good_samaritan_msg(message: CatalogueMsg) -> Option<GoodSamaritanMsg> {
    match message {
        CatalogueMsg::GoodSamaritan(m) => Some(m),
        CatalogueMsg::Trapdoor(_) => None,
    }
}

// The per-round methods are `#[inline]` so the engine's round loop, which
// is instantiated in other codegen units and crates, can fold the `match`
// into its call site instead of making one more call per node-round.
impl Protocol for CatalogueProtocol {
    type Msg = CatalogueMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        match self {
            CatalogueProtocol::Trapdoor(p) => p.on_activate(info, rng),
            CatalogueProtocol::GoodSamaritan(p) => p.on_activate(info, rng),
        }
    }

    #[inline]
    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<CatalogueMsg> {
        match self {
            CatalogueProtocol::Trapdoor(p) => p
                .choose_action(local_round, rng)
                .map_message(CatalogueMsg::Trapdoor),
            CatalogueProtocol::GoodSamaritan(p) => p
                .choose_action(local_round, rng)
                .map_message(CatalogueMsg::GoodSamaritan),
        }
    }

    #[inline]
    fn on_feedback(
        &mut self,
        local_round: u64,
        feedback: Feedback<CatalogueMsg>,
        rng: &mut SimRng,
    ) {
        match self {
            CatalogueProtocol::Trapdoor(p) => {
                p.on_feedback(local_round, narrow(feedback, trapdoor_msg), rng)
            }
            CatalogueProtocol::GoodSamaritan(p) => {
                p.on_feedback(local_round, narrow(feedback, good_samaritan_msg), rng)
            }
        }
    }

    #[inline]
    fn output(&self) -> Option<u64> {
        match self {
            CatalogueProtocol::Trapdoor(p) => p.output(),
            CatalogueProtocol::GoodSamaritan(p) => p.output(),
        }
    }

    #[inline]
    fn is_synchronized(&self) -> bool {
        match self {
            CatalogueProtocol::Trapdoor(p) => p.is_synchronized(),
            CatalogueProtocol::GoodSamaritan(p) => p.is_synchronized(),
        }
    }
}

impl SyncProtocol for CatalogueProtocol {
    fn is_leader(&self) -> bool {
        match self {
            CatalogueProtocol::Trapdoor(p) => p.is_leader(),
            CatalogueProtocol::GoodSamaritan(p) => p.is_leader(),
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in protocols
// ---------------------------------------------------------------------------

/// Shared parameter schema of the Trapdoor-family protocols: the
/// `TrapdoorConfig` knobs the ablations sweep.
fn trapdoor_config_from(
    component: &str,
    spec: &ScenarioSpec,
    params: &Params,
    default_frequency_limit: Option<u32>,
) -> Result<TrapdoorConfig, SpecError> {
    let mut reader = ParamReader::new(component, params);
    let mut config = TrapdoorConfig::new(
        spec.upper_bound(),
        spec.num_frequencies,
        spec.disruption_bound,
    );
    if let Some(c) = reader.opt("epoch_constant")? {
        config = config.with_epoch_constant(c);
    }
    if let Some(c) = reader.opt("final_epoch_constant")? {
        config = config.with_final_epoch_constant(c);
    }
    match reader.opt("frequency_limit")? {
        Some(limit) => config = config.with_frequency_limit(limit),
        None => {
            if let Some(limit) = default_frequency_limit {
                config = config.with_frequency_limit(limit);
            }
        }
    }
    reader.finish()?;
    Ok(config)
}

fn trapdoor(spec: &ScenarioSpec, params: &Params) -> Result<CatalogueProtocol, SpecError> {
    let config = trapdoor_config_from("trapdoor", spec, params, None)?;
    Ok(CatalogueProtocol::Trapdoor(TrapdoorProtocol::new(config)))
}

fn single_frequency(spec: &ScenarioSpec, params: &Params) -> Result<CatalogueProtocol, SpecError> {
    let config = trapdoor_config_from("single-frequency", spec, params, Some(1))?;
    Ok(CatalogueProtocol::Trapdoor(TrapdoorProtocol::new(config)))
}

fn round_robin(spec: &ScenarioSpec, params: &Params) -> Result<CatalogueProtocol, SpecError> {
    let config = trapdoor_config_from("round-robin", spec, params, None)?;
    Ok(CatalogueProtocol::Trapdoor(TrapdoorProtocol::round_robin(
        config,
    )))
}

fn good_samaritan(spec: &ScenarioSpec, params: &Params) -> Result<CatalogueProtocol, SpecError> {
    ParamReader::new("good-samaritan", params).finish()?;
    let config = GoodSamaritanConfig::new(
        spec.upper_bound(),
        spec.num_frequencies,
        spec.disruption_bound,
    );
    Ok(CatalogueProtocol::GoodSamaritan(
        GoodSamaritanProtocol::new(config),
    ))
}

fn wakeup(spec: &ScenarioSpec, params: &Params) -> Result<CatalogueProtocol, SpecError> {
    ParamReader::new("wakeup", params).finish()?;
    let config = TrapdoorConfig::new(
        spec.upper_bound(),
        spec.num_frequencies,
        spec.disruption_bound,
    );
    Ok(CatalogueProtocol::Trapdoor(TrapdoorProtocol::wakeup(
        config,
    )))
}

// ---------------------------------------------------------------------------
// Built-in adversaries
// ---------------------------------------------------------------------------

/// The body of every adversary that takes no parameters: validates that
/// none were given and builds the adversary from the disruption bound.
fn parameterless<A: Adversary + 'static>(
    name: &str,
    spec: &ScenarioSpec,
    params: &Params,
    build: fn(u32) -> A,
) -> Result<BoxedAdversary, SpecError> {
    ParamReader::new(name, params).finish()?;
    Ok(Box::new(build(spec.disruption_bound)))
}

fn none(spec: &ScenarioSpec, params: &Params, _: u64) -> Result<BoxedAdversary, SpecError> {
    parameterless("none", spec, params, |_| NoAdversary::new())
}

fn fixed_band(spec: &ScenarioSpec, params: &Params, _: u64) -> Result<BoxedAdversary, SpecError> {
    parameterless("fixed-band", spec, params, FixedBandAdversary::new)
}

/// The Theorem 4 adversary jams the `t` frequencies with the largest
/// products `p_j·q_j`; against a uniform frequency choice all products are
/// equal, so it jams `1..=t` every round — the fixed-band adversary.
fn top_weight(spec: &ScenarioSpec, params: &Params, _: u64) -> Result<BoxedAdversary, SpecError> {
    parameterless("top-weight", spec, params, FixedBandAdversary::new)
}

fn random(spec: &ScenarioSpec, params: &Params, _: u64) -> Result<BoxedAdversary, SpecError> {
    parameterless("random", spec, params, RandomAdversary::new)
}

fn sweep(spec: &ScenarioSpec, params: &Params, _: u64) -> Result<BoxedAdversary, SpecError> {
    parameterless("sweep", spec, params, SweepAdversary::new)
}

fn adaptive_greedy(
    spec: &ScenarioSpec,
    params: &Params,
    _: u64,
) -> Result<BoxedAdversary, SpecError> {
    parameterless(
        "adaptive-greedy",
        spec,
        params,
        AdaptiveGreedyAdversary::new,
    )
}

fn bursty(spec: &ScenarioSpec, params: &Params, _: u64) -> Result<BoxedAdversary, SpecError> {
    let mut reader = ParamReader::new("bursty", params);
    let period = reader.req("period")?;
    let burst_len = reader.req("burst_len")?;
    reader.finish()?;
    let bad = |param: &str, expected, found: String| SpecError::BadParam {
        component: "bursty".to_string(),
        param: param.to_string(),
        expected,
        found,
    };
    if period == 0 {
        return Err(bad(
            "period",
            "a positive number of rounds",
            "0".to_string(),
        ));
    }
    if burst_len > period {
        return Err(bad(
            "burst_len",
            "a burst no longer than `period`",
            format!("{burst_len} (period {period})"),
        ));
    }
    Ok(Box::new(BurstyAdversary::new(
        spec.disruption_bound,
        period,
        burst_len,
    )))
}

fn oblivious_random(
    spec: &ScenarioSpec,
    params: &Params,
    seed: u64,
) -> Result<BoxedAdversary, SpecError> {
    let mut reader = ParamReader::new("oblivious-random", params);
    let t_actual: u32 = reader.req("t_actual")?;
    reader.finish()?;
    // Pre-sample a schedule long enough to cover the run without
    // repeating too quickly. The seed tweak and length are part of the
    // reproducibility contract (pinned by tests/engine_golden.rs).
    let len = 8192usize;
    Ok(Box::new(ObliviousScheduleAdversary::random(
        seed ^ 0x0b11_0005,
        len,
        spec.num_frequencies,
        t_actual.min(spec.disruption_bound),
    )))
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// The output of one declarative probe after a run: the catalogue name it
/// was declared under and its finalized JSON value.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOutput {
    /// The probe's catalogue name (as written in the spec's `"probes"`
    /// array).
    pub name: String,
    /// The probe's finalized value.
    pub value: Value,
}

/// A catalogue-built probe: a radio-engine [`Probe`] that additionally
/// finalizes into a JSON value once the execution completes, so declarative
/// runs can report what it observed.
pub trait SimProbe: Probe {
    /// Consumes the probe and produces its output value.
    fn finish_value(self: Box<Self>, result: &ExecutionResult) -> Value;
}

/// The adapter that carries a catalogue-built probe through the engine's
/// type-erased stack: a known concrete type wrapping the `Box<dyn
/// SimProbe>`, so the runner can recover it by downcast after the run and
/// call [`finish`](RegistryProbe::finish).
pub struct RegistryProbe {
    name: String,
    inner: Box<dyn SimProbe>,
}

impl RegistryProbe {
    /// Wraps a built probe under its catalogue name.
    pub fn new(name: impl Into<String>, inner: Box<dyn SimProbe>) -> Self {
        RegistryProbe {
            name: name.into(),
            inner,
        }
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

fn metrics_probe(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
    ParamReader::new("metrics", params).finish()?;
    Ok(Box::new(MetricsProbe(SimMetrics::default())))
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

fn checker_probe(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
    ParamReader::new("checker", params).finish()?;
    Ok(Box::new(CheckerProbe(PropertyChecker::new())))
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

fn trace_probe(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
    let mut reader = ParamReader::new("trace", params);
    let max_rounds = reader.opt("max_rounds")?;
    reader.finish()?;
    Ok(Box::new(TraceProbe {
        max_rounds,
        rounds: 0,
        deliveries: 0,
        first_sync: Vec::new(),
    }))
}

// ---------------------------------------------------------------------------
// Fault layers
// ---------------------------------------------------------------------------

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
fn drop_fault(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn FaultLayer>, SpecError> {
    let mut reader = ParamReader::new("drop", params);
    let rate = reader.opt("drop_rate")?;
    reader.finish()?;
    Ok(Box::new(DropLayer::new(require_probability(
        "drop",
        "drop_rate",
        rate,
    )?)))
}

/// The `"capture"` fault: per-receiver fading loss with probability
/// `miss_rate` (default `0.0`, which changes nothing).
fn capture_fault(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn FaultLayer>, SpecError> {
    let mut reader = ParamReader::new("capture", params);
    let rate = reader.opt("miss_rate")?;
    reader.finish()?;
    Ok(Box::new(CaptureLayer::new(require_probability(
        "capture",
        "miss_rate",
        rate,
    )?)))
}

/// The `"partition"` fault: `groups` is an array of arrays of node indices
/// (nodes left out share one implicit remainder group; an omitted or empty
/// map changes nothing); optional `heal_at` is the round from which
/// cross-group deliveries flow again.
fn partition_fault(spec: &ScenarioSpec, params: &Params) -> Result<Box<dyn FaultLayer>, SpecError> {
    let mut reader = ParamReader::new("partition", params);
    let groups = match reader.opt("groups")? {
        Some(value) => parse_partition_groups(spec, value)?,
        None => Vec::new(),
    };
    let heal_at = reader.opt("heal_at")?;
    reader.finish()?;
    Ok(Box::new(PartitionLayer::new(
        spec.num_nodes,
        &groups,
        heal_at,
    )))
}

fn parse_partition_groups(spec: &ScenarioSpec, value: &Value) -> Result<Vec<Vec<u32>>, SpecError> {
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
    let mut seen = vec![false; spec.num_nodes];
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
            if index as usize >= spec.num_nodes {
                return Err(bad(format!(
                    "node index {index} (the network has {} nodes)",
                    spec.num_nodes
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

/// The `"churn"` fault: per-round crash probability `churn_rate` (default
/// `0.0`, which changes nothing) and per-crash `downtime` in rounds
/// (default 8, must be positive).
fn churn_fault(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn FaultLayer>, SpecError> {
    let mut reader = ParamReader::new("churn", params);
    let rate = reader.opt("churn_rate")?;
    let downtime = reader.opt("downtime")?;
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

fn fault_counters_probe(_: &ScenarioSpec, params: &Params) -> Result<Box<dyn SimProbe>, SpecError> {
    ParamReader::new("fault-counters", params).finish()?;
    Ok(Box::new(FaultCountersProbe::default()))
}

// ---------------------------------------------------------------------------
// The catalogue
// ---------------------------------------------------------------------------

// A builder validates its parameters, returning a typed `SpecError`, and
// builds the component (a protocol builder: the node every node clones).
// `Sim::from_spec` builds each component once (the adversary at seed 0), so
// a bad parameter surfaces before any trial runs; an adversary builder's
// validation must therefore not depend on the seed, or a batch would panic
// midway. Fault builders take no seed: a layer draws only from the private
// stream the engine derives in `Engine::attach_fault`.
pub(crate) type ProtocolBuilder =
    fn(&ScenarioSpec, &Params) -> Result<CatalogueProtocol, SpecError>;
pub(crate) type AdversaryBuilder =
    fn(&ScenarioSpec, &Params, u64) -> Result<BoxedAdversary, SpecError>;
pub(crate) type ProbeBuilder = fn(&ScenarioSpec, &Params) -> Result<Box<dyn SimProbe>, SpecError>;
pub(crate) type FaultBuilder = fn(&ScenarioSpec, &Params) -> Result<Box<dyn FaultLayer>, SpecError>;

/// The protocols, sorted by name.
static PROTOCOLS: &[(&str, ProtocolBuilder)] = &[
    ("good-samaritan", good_samaritan),
    ("round-robin", round_robin),
    ("single-frequency", single_frequency),
    ("trapdoor", trapdoor),
    ("wakeup", wakeup),
];

/// The adversaries, sorted by name.
static ADVERSARIES: &[(&str, AdversaryBuilder)] = &[
    ("adaptive-greedy", adaptive_greedy),
    ("bursty", bursty),
    ("fixed-band", fixed_band),
    ("none", none),
    ("oblivious-random", oblivious_random),
    ("random", random),
    ("sweep", sweep),
    ("top-weight", top_weight),
];

/// The probes, sorted by name.
static PROBES: &[(&str, ProbeBuilder)] = &[
    ("checker", checker_probe),
    ("fault-counters", fault_counters_probe),
    ("metrics", metrics_probe),
    ("trace", trace_probe),
];

/// The fault layers, sorted by name.
static FAULTS: &[(&str, FaultBuilder)] = &[
    ("capture", capture_fault),
    ("churn", churn_fault),
    ("drop", drop_fault),
    ("partition", partition_fault),
];

fn lookup<B: Copy>(table: &[(&str, B)], name: &str) -> Option<B> {
    table
        .iter()
        .find(|(key, _)| *key == name)
        .map(|&(_, builder)| builder)
}

fn names<B>(table: &[(&str, B)]) -> Vec<String> {
    table.iter().map(|(name, _)| name.to_string()).collect()
}

/// The protocol builder listed under `name`.
pub(crate) fn protocol_builder(name: &str) -> Result<ProtocolBuilder, SpecError> {
    lookup(PROTOCOLS, name).ok_or_else(|| SpecError::UnknownProtocol {
        name: name.to_string(),
        known: protocol_names(),
    })
}

/// The adversary builder listed under `name`.
pub(crate) fn adversary_builder(name: &str) -> Result<AdversaryBuilder, SpecError> {
    lookup(ADVERSARIES, name).ok_or_else(|| SpecError::UnknownAdversary {
        name: name.to_string(),
        known: adversary_names(),
    })
}

/// The probe builder listed under `name`.
pub(crate) fn probe_builder(name: &str) -> Result<ProbeBuilder, SpecError> {
    lookup(PROBES, name).ok_or_else(|| SpecError::UnknownProbe {
        name: name.to_string(),
        known: probe_names(),
    })
}

/// The fault-layer builder listed under `name`.
pub(crate) fn fault_builder(name: &str) -> Result<FaultBuilder, SpecError> {
    lookup(FAULTS, name).ok_or_else(|| SpecError::UnknownFault {
        name: name.to_string(),
        known: fault_names(),
    })
}

/// The protocol names, sorted.
pub fn protocol_names() -> Vec<String> {
    names(PROTOCOLS)
}

/// The adversary names, sorted.
pub fn adversary_names() -> Vec<String> {
    names(ADVERSARIES)
}

/// The probe names, sorted.
pub fn probe_names() -> Vec<String> {
    names(PROBES)
}

/// The fault-layer names, sorted.
pub fn fault_names() -> Vec<String> {
    names(FAULTS)
}

/// Builds the adversary described by `spec` for one `(scenario, seed)`
/// execution.
pub fn build_adversary(
    spec: &ComponentSpec,
    scenario: &ScenarioSpec,
    seed: u64,
) -> Result<BoxedAdversary, SpecError> {
    adversary_builder(spec.name())?(scenario, &spec.params, seed)
}

/// Builds the fault layer described by `spec` for one scenario. Seedless
/// by design: the engine pairs the layer with its private random stream on
/// attachment.
pub fn build_fault(
    spec: &ComponentSpec,
    scenario: &ScenarioSpec,
) -> Result<Box<dyn FaultLayer>, SpecError> {
    fault_builder(spec.name())?(scenario, &spec.params)
}

// ---------------------------------------------------------------------------
// Factory objects
// ---------------------------------------------------------------------------

// The builders behind trait objects. No run in the workspace takes them
// (tests reach the enum path through `resolve_protocol`); they bridge the
// benchmark package (`perfbench/`), which resolves its traced trials
// through them, and go once it calls the builders.

/// A per-node protocol constructor, produced once per run by a
/// [`ProtocolFactory`] after parameter validation. Each call clones one
/// prebuilt node, which the engine runs through the enum's per-call
/// dispatch; [`Sim`](crate::sim::Sim) does not take this path.
pub type ProtocolCtor = Box<dyn Fn(NodeId) -> CatalogueProtocol + Send + Sync>;

/// A protocol builder as a trait object.
pub trait ProtocolFactory: Send + Sync {
    /// Validates `params` and returns the per-node constructor.
    fn instantiate(&self, spec: &ScenarioSpec, params: &Params) -> Result<ProtocolCtor, SpecError>;
}

/// An adversary builder as a trait object.
pub trait AdversaryFactory: Send + Sync {
    /// Validates `params` and builds the adversary for one `(spec,
    /// seed)` execution; validation does not depend on `seed`.
    fn build(
        &self,
        spec: &ScenarioSpec,
        params: &Params,
        seed: u64,
    ) -> Result<BoxedAdversary, SpecError>;
}

/// A fault-layer builder as a trait object.
pub trait FaultFactory: Send + Sync {
    /// Validates `params` and builds the fault layer for one execution.
    fn build(&self, spec: &ScenarioSpec, params: &Params)
        -> Result<Box<dyn FaultLayer>, SpecError>;
}

impl ProtocolFactory for ProtocolBuilder {
    fn instantiate(&self, spec: &ScenarioSpec, params: &Params) -> Result<ProtocolCtor, SpecError> {
        let node = self(spec, params)?;
        Ok(Box::new(move |_| node.clone()))
    }
}

impl AdversaryFactory for AdversaryBuilder {
    fn build(
        &self,
        spec: &ScenarioSpec,
        params: &Params,
        seed: u64,
    ) -> Result<BoxedAdversary, SpecError> {
        self(spec, params, seed)
    }
}

impl FaultFactory for FaultBuilder {
    fn build(
        &self,
        spec: &ScenarioSpec,
        params: &Params,
    ) -> Result<Box<dyn FaultLayer>, SpecError> {
        self(spec, params)
    }
}

/// Resolves a protocol factory by name.
pub fn resolve_protocol(name: &str) -> Result<Arc<dyn ProtocolFactory>, SpecError> {
    Ok(Arc::new(protocol_builder(name)?))
}

/// Resolves an adversary factory by name.
pub fn resolve_adversary(name: &str) -> Result<Arc<dyn AdversaryFactory>, SpecError> {
    Ok(Arc::new(adversary_builder(name)?))
}

/// Resolves a fault-layer factory by name.
pub fn resolve_fault(name: &str) -> Result<Arc<dyn FaultFactory>, SpecError> {
    Ok(Arc::new(fault_builder(name)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_protocol;
    use crate::sim::Sim;
    use wsync_radio::adversary::DisruptionSet;
    use wsync_radio::engine::Engine;
    use wsync_radio::frequency::{Frequency, FrequencyBand};
    use wsync_radio::trace::{FullTrace, TraceEvent};

    #[test]
    fn default_registry_resolves_every_builtin() {
        // Every table is sorted and free of duplicates: `SpecError`'s
        // `known` lists and `/catalog` print names in table order.
        for names in [
            protocol_names(),
            adversary_names(),
            probe_names(),
            fault_names(),
        ] {
            assert!(
                names.windows(2).all(|pair| pair[0] < pair[1]),
                "{names:?} is not strictly sorted"
            );
        }
        let scenario = ScenarioSpec::new("trapdoor", 4, 8, 2);
        for name in protocol_names() {
            let factory = resolve_protocol(&name).unwrap();
            let ctor = factory
                .instantiate(&scenario, &Params::new())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut protocol = ctor(NodeId::new(0));
            assert!(!protocol.is_leader());
            // the protocol is runnable through the catalogue enum
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
        for name in adversary_names() {
            let build = adversary_builder(&name).unwrap();
            let mut params = Params::new();
            if name == "bursty" {
                params.set("period", 10u64);
                params.set("burst_len", 2u64);
            } else if name == "oblivious-random" {
                params.set("t_actual", 1u64);
            }
            let mut adversary =
                build(&scenario, &params, 7).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut set = DisruptionSet::empty(8);
            adversary.disrupt(
                0,
                FrequencyBand::new(8),
                &mut SimRng::from_seed(0),
                &mut set,
            );
            assert!(set.len() <= 8, "{name} disrupted too much");
        }
        for name in probe_names() {
            probe_builder(&name).unwrap()(&scenario, &Params::new())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        for name in fault_names() {
            fault_builder(&name).unwrap()(&scenario, &Params::new())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn unknown_names_list_the_known_ones() {
        match protocol_builder("trapdor").err() {
            Some(SpecError::UnknownProtocol { name, known }) => {
                assert_eq!(name, "trapdor");
                assert!(known.contains(&"trapdoor".to_string()));
            }
            other => panic!("expected UnknownProtocol, got {other:?}"),
        }
        match adversary_builder("nonsense").err() {
            Some(SpecError::UnknownAdversary { known, .. }) => {
                assert_eq!(known.len(), 8);
            }
            other => panic!("expected UnknownAdversary, got {other:?}"),
        }
    }

    #[test]
    fn factories_validate_their_parameters() {
        let scenario = ScenarioSpec::new("trapdoor", 4, 8, 2);
        // typo in a protocol parameter
        let err = trapdoor(&scenario, &Params::new().with("epoch_konstant", 2.0))
            .expect_err("typo must be rejected");
        assert!(matches!(err, SpecError::UnknownParam { .. }), "{err}");
        // missing required adversary parameter
        let err = oblivious_random(&scenario, &Params::new(), 0)
            .err()
            .expect("missing t_actual must be rejected");
        assert!(matches!(err, SpecError::MissingParam { .. }), "{err}");
        // wrong type
        let err = bursty(
            &scenario,
            &Params::new().with("period", "ten").with("burst_len", 2u64),
            0,
        )
        .err()
        .expect("mistyped period must be rejected");
        assert!(matches!(err, SpecError::BadParam { .. }), "{err}");
    }

    /// Runs `scenario` for `seed` on an engine whose nodes `factory` makes,
    /// returning the result and every traced round.
    fn traced_run<P: SyncProtocol>(
        scenario: &ScenarioSpec,
        factory: impl FnMut(NodeId) -> P,
        seed: u64,
    ) -> (ExecutionResult, Vec<TraceEvent>) {
        let adversary = build_adversary(&scenario.adversary, scenario, seed).unwrap();
        let mut engine = Engine::new(
            scenario.sim_config(),
            factory,
            adversary,
            scenario.activation.clone(),
            seed,
        )
        .unwrap();
        let slot = engine.attach_probe(Box::new(FullTrace::new()));
        let result = engine.run();
        let trace: FullTrace = engine.take_probes().take(slot).expect("trace slot");
        (result, trace.events().to_vec())
    }

    /// Three sides agree for every protocol, adversary and seed: the engine
    /// typed over the protocol, the enum path a [`ProtocolCtor`] takes
    /// (results and traces), and `Sim::run_one`, which dispatches once per
    /// trial (its outcome against the enum path's, checker attached).
    #[test]
    fn catalogue_dispatch_matches_the_typed_engine() {
        let bursty = ComponentSpec::named("bursty")
            .with("period", 6u64)
            .with("burst_len", 4u64);
        for adversary in [ComponentSpec::named("random"), bursty] {
            let scenario = ScenarioSpec::new("trapdoor", 6, 8, 2)
                .with_adversary(adversary)
                .with_max_rounds(4_000);
            let (n, f, t) = (scenario.upper_bound(), 8, 2);
            let trapdoor = TrapdoorConfig::new(n, f, t);
            for seed in [3, 17] {
                let catalogue = |name: &str| {
                    let ctor = resolve_protocol(name)
                        .unwrap()
                        .instantiate(&scenario, &Params::new())
                        .unwrap();
                    let checked = run_protocol(&scenario, &ctor, seed);
                    (traced_run(&scenario, ctor, seed), checked)
                };
                let typed = [
                    (
                        "trapdoor",
                        traced_run(&scenario, |_| TrapdoorProtocol::new(trapdoor), seed),
                    ),
                    (
                        "single-frequency",
                        traced_run(
                            &scenario,
                            |_| TrapdoorProtocol::new(trapdoor.with_frequency_limit(1)),
                            seed,
                        ),
                    ),
                    (
                        "round-robin",
                        traced_run(&scenario, |_| TrapdoorProtocol::round_robin(trapdoor), seed),
                    ),
                    (
                        "good-samaritan",
                        traced_run(
                            &scenario,
                            |_| GoodSamaritanProtocol::new(GoodSamaritanConfig::new(n, f, t)),
                            seed,
                        ),
                    ),
                    (
                        "wakeup",
                        traced_run(&scenario, |_| TrapdoorProtocol::wakeup(trapdoor), seed),
                    ),
                ];
                for (name, (result, events)) in typed {
                    let ((catalogue_result, catalogue_events), checked) = catalogue(name);
                    let label = format!("{name} vs {} seed {seed}", scenario.adversary.name());
                    assert_eq!(catalogue_result, result, "{label}");
                    assert_eq!(catalogue_events, events, "{label}");
                    let spec = ScenarioSpec {
                        protocol: name.into(),
                        ..scenario.clone()
                    };
                    let production = Sim::from_spec(&spec).unwrap().run_one(seed);
                    assert_eq!(production, checked, "{label}: Sim vs ProtocolCtor");
                    assert!(result.metrics.deliveries > 0, "{label} delivered nothing");
                }
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "expected a wsync_core::trapdoor::TrapdoorMsg payload but received \
                               a wsync_core::good_samaritan::GoodSamaritanMsg"
    )]
    fn a_message_of_the_other_family_panics_naming_both_types() {
        let ctor = resolve_protocol("trapdoor")
            .unwrap()
            .instantiate(&ScenarioSpec::new("trapdoor", 4, 8, 2), &Params::new())
            .unwrap();
        let mut node = ctor(NodeId::new(0));
        let mut rng = SimRng::from_seed(1);
        node.on_activate(ActivationInfo::new(4, 8, 2), &mut rng);
        node.choose_action(0, &mut rng);
        let stray = GoodSamaritanMsg::Leader { announced_round: 1 };
        node.on_feedback(
            0,
            Feedback::Received(Received {
                sender: NodeId::new(1),
                frequency: Frequency::new(1),
                payload: CatalogueMsg::GoodSamaritan(stray),
            }),
            &mut rng,
        );
    }

    #[test]
    fn trapdoor_params_mirror_the_config_builders() {
        let scenario = ScenarioSpec::new("trapdoor", 8, 16, 4);
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
