//! Declarative, serializable simulation specs.
//!
//! The paper's experiment grid is a cross product of (protocol, adversary,
//! activation schedule, N/F/t) cells. [`ScenarioSpec`] is the declarative
//! description of one such cell — protocol *by name* plus parameters,
//! adversary by name plus parameters, activation schedule, instance sizes
//! and bounds — and [`SweepSpec`] extends it with a seed range and a
//! parameter grid. Both (de)serialize as JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]), so a scenario file checked into a
//! repository runs with zero recompilation via
//! `run_experiments --spec file.json` or [`Sim::from_spec`](crate::sim::Sim).
//!
//! Names are resolved against the component catalogue in
//! [`registry`](crate::registry). All validation is front-loaded: a bad
//! name, a mistyped parameter, or an inconsistent instance (`t ≥ F`,
//! `N < n`, a zero bound) surfaces as a typed [`SpecError`] from
//! [`Sim::from_spec`](crate::sim::Sim::from_spec) *before* any round is
//! simulated, never as a panic mid-run.

use std::fmt;

use wsync_radio::activation::ActivationSchedule;
use wsync_radio::engine::SimConfig;
use wsync_radio::error::ConfigError;

use serde::{Deserialize, Serialize};

use crate::json::{self, JsonError, Value};
use crate::params::next_power_of_two;
use crate::sweep::StoppingRule;

/// Error raised while building, decoding, or validating a simulation spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec names a protocol the registry does not know.
    UnknownProtocol {
        /// The unresolvable name.
        name: String,
        /// The names the registry does know, sorted.
        known: Vec<String>,
    },
    /// The spec names an adversary the registry does not know.
    UnknownAdversary {
        /// The unresolvable name.
        name: String,
        /// The names the registry does know, sorted.
        known: Vec<String>,
    },
    /// The spec names a probe the registry does not know.
    UnknownProbe {
        /// The unresolvable name.
        name: String,
        /// The names the registry does know, sorted.
        known: Vec<String>,
    },
    /// The spec names a fault layer the registry does not know.
    UnknownFault {
        /// The unresolvable name.
        name: String,
        /// The names the registry does know, sorted.
        known: Vec<String>,
    },
    /// A factory requires a parameter the spec does not provide.
    MissingParam {
        /// The component (protocol/adversary name) that needed it.
        component: String,
        /// The missing parameter key.
        param: String,
    },
    /// A parameter has the wrong type or an out-of-range value.
    BadParam {
        /// The component (protocol/adversary name) being configured.
        component: String,
        /// The offending parameter key.
        param: String,
        /// What the factory expected.
        expected: &'static str,
        /// What the spec contained.
        found: String,
    },
    /// A parameter key the factory does not recognise (usually a typo).
    UnknownParam {
        /// The component (protocol/adversary name) being configured.
        component: String,
        /// The unrecognised key.
        param: String,
        /// The keys the factory accepts.
        allowed: Vec<String>,
    },
    /// The instance parameters fail engine validation (`t ≥ F`, `n = 0`,
    /// `N < n`, zero round cap).
    InvalidConfig(ConfigError),
    /// The spec document is not valid JSON.
    Json(JsonError),
    /// The JSON is well-formed but does not have the spec's shape.
    Malformed {
        /// Which field or context the problem is in.
        context: String,
        /// What went wrong.
        message: String,
    },
    /// A sweep axis has no values.
    EmptySweepAxis {
        /// The axis' field path.
        field: String,
    },
    /// A sweep axis names a field that cannot be swept.
    UnknownSweepField {
        /// The unknown field path.
        field: String,
    },
    /// The sweep's seed range is inverted.
    InvalidSeedRange {
        /// Range start.
        start: u64,
        /// Range end (exclusive).
        end: u64,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownProtocol { name, known } => write!(
                f,
                "unknown protocol \"{name}\"; registered protocols: {}",
                known.join(", ")
            ),
            SpecError::UnknownAdversary { name, known } => write!(
                f,
                "unknown adversary \"{name}\"; registered adversaries: {}",
                known.join(", ")
            ),
            SpecError::UnknownProbe { name, known } => write!(
                f,
                "unknown probe \"{name}\"; registered probes: {}",
                known.join(", ")
            ),
            SpecError::UnknownFault { name, known } => write!(
                f,
                "unknown fault layer \"{name}\"; registered fault layers: {}",
                known.join(", ")
            ),
            SpecError::MissingParam { component, param } => {
                write!(f, "{component}: required parameter \"{param}\" is missing")
            }
            SpecError::BadParam {
                component,
                param,
                expected,
                found,
            } => write!(
                f,
                "{component}: parameter \"{param}\" expects {expected}, found {found}"
            ),
            SpecError::UnknownParam {
                component,
                param,
                allowed,
            } => write!(
                f,
                "{component}: unknown parameter \"{param}\"; accepted parameters: {}",
                if allowed.is_empty() {
                    "(none)".to_string()
                } else {
                    allowed.join(", ")
                }
            ),
            SpecError::InvalidConfig(e) => write!(f, "invalid simulation configuration: {e}"),
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::Malformed { context, message } => write!(f, "{context}: {message}"),
            SpecError::EmptySweepAxis { field } => {
                write!(f, "sweep axis \"{field}\" has no values")
            }
            SpecError::UnknownSweepField { field } => write!(
                f,
                "sweep axis \"{field}\" is not sweepable; use num_nodes, num_frequencies, \
                 disruption_bound, upper_bound_n, max_rounds, protocol.<param>, \
                 adversary.<param>, or fault.<name>.<param>"
            ),
            SpecError::InvalidSeedRange { start, end } => {
                write!(
                    f,
                    "invalid seed range: start {start} is not below end {end}"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::InvalidConfig(e) => Some(e),
            SpecError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::InvalidConfig(e)
    }
}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

/// An ordered bag of named parameters for a protocol or adversary factory.
///
/// Values are JSON [`Value`]s; factories read them through typed accessors
/// that produce [`SpecError::BadParam`] / [`SpecError::MissingParam`] on
/// mismatch and reject unknown keys (catching typos at build time).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Params(Vec<(String, Value)>);

impl Params {
    /// An empty parameter bag.
    pub fn new() -> Self {
        Params(Vec::new())
    }

    /// Whether the bag holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw entries, in insertion order.
    pub fn entries(&self) -> &[(String, Value)] {
        &self.0
    }

    /// Looks up a parameter by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts or replaces a parameter.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.0.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.0.push((key, value));
        }
    }

    /// Builder-style [`set`](Self::set).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    fn to_value(&self) -> Value {
        Value::Object(self.0.clone())
    }

    fn from_value(value: &Value, context: &str) -> Result<Self, SpecError> {
        match value {
            Value::Object(members) => Ok(Params(members.clone())),
            other => Err(SpecError::Malformed {
                context: context.to_string(),
                message: format!("\"params\" must be an object, found {}", other.type_name()),
            }),
        }
    }
}

/// A typed reader over a [`Params`] bag, bound to the component it
/// configures. Factories use it to pull parameters with precise errors and
/// to reject unknown keys via [`finish`](ParamReader::finish).
pub(crate) struct ParamReader<'a> {
    component: &'a str,
    params: &'a Params,
    allowed: Vec<&'static str>,
}

impl<'a> ParamReader<'a> {
    /// Creates a reader for `component`'s parameters.
    pub fn new(component: &'a str, params: &'a Params) -> Self {
        ParamReader {
            component,
            params,
            allowed: Vec::new(),
        }
    }

    fn bad(&self, param: &str, expected: &'static str, found: &Value) -> SpecError {
        SpecError::BadParam {
            component: self.component.to_string(),
            param: param.to_string(),
            expected,
            found: format!("{} ({:?})", found.type_name(), found),
        }
    }

    fn lookup(&mut self, key: &'static str) -> Option<&'a Value> {
        self.allowed.push(key);
        self.params.get(key)
    }

    /// An optional `f64` parameter (integers coerce).
    pub fn opt_f64(&mut self, key: &'static str) -> Result<Option<f64>, SpecError> {
        match self.lookup(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| self.bad(key, "a number", v)),
        }
    }

    /// An optional `u64` parameter.
    pub fn opt_u64(&mut self, key: &'static str) -> Result<Option<u64>, SpecError> {
        match self.lookup(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| self.bad(key, "a non-negative integer", v)),
        }
    }

    /// An optional `u32` parameter.
    pub fn opt_u32(&mut self, key: &'static str) -> Result<Option<u32>, SpecError> {
        match self.lookup(key) {
            None => Ok(None),
            Some(v) => match v.as_u64().and_then(|u| u32::try_from(u).ok()) {
                Some(u) => Ok(Some(u)),
                None => Err(self.bad(key, "a 32-bit non-negative integer", v)),
            },
        }
    }

    /// A required `u64` parameter.
    pub fn req_u64(&mut self, key: &'static str) -> Result<u64, SpecError> {
        self.opt_u64(key)?.ok_or_else(|| SpecError::MissingParam {
            component: self.component.to_string(),
            param: key.to_string(),
        })
    }

    /// A required `u32` parameter.
    pub fn req_u32(&mut self, key: &'static str) -> Result<u32, SpecError> {
        self.opt_u32(key)?.ok_or_else(|| SpecError::MissingParam {
            component: self.component.to_string(),
            param: key.to_string(),
        })
    }

    /// An optional raw-[`Value`] parameter, for factories whose parameter
    /// shapes the typed accessors cannot express (e.g. the partition fault
    /// layer's array-of-arrays `groups`). The factory validates the shape
    /// itself; reading through this method still marks the key as allowed
    /// for [`finish`](ParamReader::finish).
    pub fn opt_value(&mut self, key: &'static str) -> Option<&'a Value> {
        self.lookup(key)
    }

    /// Rejects any parameter key that was never looked up.
    pub fn finish(self) -> Result<(), SpecError> {
        for (key, _) in self.params.entries() {
            if !self.allowed.iter().any(|a| a == key) {
                return Err(SpecError::UnknownParam {
                    component: self.component.to_string(),
                    param: key.clone(),
                    allowed: self.allowed.iter().map(|a| a.to_string()).collect(),
                });
            }
        }
        Ok(())
    }
}

/// A named component — a protocol or an adversary — plus its parameters.
///
/// The name is a catalogue key (`"trapdoor"`, `"random"`,
/// `"oblivious-random"`, …); the parameters are interpreted by the builder
/// listed under that name in [`registry`](crate::registry).
/// `"random".into()` builds a parameterless spec, so call sites read as
/// `scenario.with_adversary("random")`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSpec {
    /// Registry key of the component.
    pub name: String,
    /// Factory parameters.
    pub params: Params,
}

impl ComponentSpec {
    /// A component with the given registry name and no parameters.
    pub fn named(name: impl Into<String>) -> Self {
        ComponentSpec {
            name: name.into(),
            params: Params::new(),
        }
    }

    /// Builder-style parameter insertion.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.params.set(key, value);
        self
    }

    /// The component's registry name (same string that appears in
    /// experiment tables and outcome summaries).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Serializes to a JSON value: a bare string when there are no
    /// parameters, otherwise `{"name": ..., "params": {...}}`.
    pub fn to_value(&self) -> Value {
        if self.params.is_empty() {
            Value::Str(self.name.clone())
        } else {
            Value::Object(vec![
                ("name".to_string(), Value::Str(self.name.clone())),
                ("params".to_string(), self.params.to_value()),
            ])
        }
    }

    /// Decodes from a JSON value (accepting both encodings produced by
    /// [`to_value`](Self::to_value)).
    pub fn from_value(value: &Value, context: &str) -> Result<Self, SpecError> {
        match value {
            Value::Str(name) => Ok(ComponentSpec::named(name.clone())),
            Value::Object(members) => {
                let mut name: Option<String> = None;
                let mut params = Params::new();
                for (key, v) in members {
                    match key.as_str() {
                        "name" => {
                            name = Some(
                                v.as_str()
                                    .ok_or_else(|| SpecError::Malformed {
                                        context: context.to_string(),
                                        message: format!(
                                            "\"name\" must be a string, found {}",
                                            v.type_name()
                                        ),
                                    })?
                                    .to_string(),
                            );
                        }
                        "params" => params = Params::from_value(v, context)?,
                        other => {
                            return Err(SpecError::Malformed {
                                context: context.to_string(),
                                message: format!("unknown key \"{other}\""),
                            })
                        }
                    }
                }
                Ok(ComponentSpec {
                    name: name.ok_or_else(|| SpecError::Malformed {
                        context: context.to_string(),
                        message: "missing \"name\"".to_string(),
                    })?,
                    params,
                })
            }
            other => Err(SpecError::Malformed {
                context: context.to_string(),
                message: format!(
                    "expected a component name or {{\"name\", \"params\"}} object, found {}",
                    other.type_name()
                ),
            }),
        }
    }
}

impl From<&str> for ComponentSpec {
    fn from(name: &str) -> Self {
        ComponentSpec::named(name)
    }
}

impl From<String> for ComponentSpec {
    fn from(name: String) -> Self {
        ComponentSpec::named(name)
    }
}

pub(crate) fn field_u64(value: &Value, field: &str) -> Result<u64, SpecError> {
    value.as_u64().ok_or_else(|| SpecError::Malformed {
        context: field.to_string(),
        message: format!(
            "expected a non-negative integer, found {}",
            value.type_name()
        ),
    })
}

pub(crate) fn field_u32(value: &Value, field: &str) -> Result<u32, SpecError> {
    field_u64(value, field)?
        .try_into()
        .map_err(|_| SpecError::Malformed {
            context: field.to_string(),
            message: "value exceeds 32 bits".to_string(),
        })
}

pub(crate) fn field_usize(value: &Value, field: &str) -> Result<usize, SpecError> {
    field_u64(value, field)?
        .try_into()
        .map_err(|_| SpecError::Malformed {
            context: field.to_string(),
            message: "value exceeds the address space".to_string(),
        })
}

pub(crate) fn field_f64(value: &Value, field: &str) -> Result<f64, SpecError> {
    value.as_f64().ok_or_else(|| SpecError::Malformed {
        context: field.to_string(),
        message: format!("expected a number, found {}", value.type_name()),
    })
}

/// Rejects keys of `value` (when it is an object) outside `allowed` — so a
/// typo like `"strat"` for `"start"` fails decoding instead of silently
/// falling back to a default.
pub(crate) fn reject_unknown_keys(
    value: &Value,
    context: &str,
    allowed: &[&str],
) -> Result<(), SpecError> {
    if let Some(members) = value.as_object() {
        for (key, _) in members {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::Malformed {
                    context: context.to_string(),
                    message: format!(
                        "unknown key \"{key}\"; accepted keys: {}",
                        allowed.join(", ")
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Serializes an [`ActivationSchedule`] as a tagged JSON object (or a bare
/// string for the parameterless `"simultaneous"` schedule).
fn activation_to_value(schedule: &ActivationSchedule) -> Value {
    let tag = |kind: &str, rest: Vec<(String, Value)>| {
        let mut members = vec![("kind".to_string(), Value::Str(kind.to_string()))];
        members.extend(rest);
        Value::Object(members)
    };
    match schedule {
        ActivationSchedule::Simultaneous => Value::Str("simultaneous".to_string()),
        ActivationSchedule::Staggered { gap } => {
            tag("staggered", vec![("gap".to_string(), (*gap).into())])
        }
        ActivationSchedule::Batches { batch_size, gap } => tag(
            "batches",
            vec![
                ("batch_size".to_string(), (*batch_size).into()),
                ("gap".to_string(), (*gap).into()),
            ],
        ),
        ActivationSchedule::UniformWindow { window } => tag(
            "uniform-window",
            vec![("window".to_string(), (*window).into())],
        ),
        ActivationSchedule::Poisson { mean_gap } => tag(
            "poisson",
            vec![("mean_gap".to_string(), (*mean_gap).into())],
        ),
        ActivationSchedule::LateJoiner { late } => {
            tag("late-joiner", vec![("late".to_string(), (*late).into())])
        }
        ActivationSchedule::Explicit(rounds) => tag(
            "explicit",
            vec![(
                "rounds".to_string(),
                Value::Array(rounds.iter().map(|&r| r.into()).collect()),
            )],
        ),
    }
}

/// Decodes an [`ActivationSchedule`] from its JSON encoding.
fn activation_from_value(value: &Value) -> Result<ActivationSchedule, SpecError> {
    let context = "activation";
    let malformed = |message: String| SpecError::Malformed {
        context: context.to_string(),
        message,
    };
    let kind = match value {
        Value::Str(s) => s.as_str(),
        Value::Object(_) => value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("missing string \"kind\"".to_string()))?,
        other => {
            return Err(malformed(format!(
                "expected a schedule name or tagged object, found {}",
                other.type_name()
            )))
        }
    };
    let known_keys: &[&str] = match kind {
        "simultaneous" => &[],
        "staggered" => &["gap"],
        "batches" => &["batch_size", "gap"],
        "uniform-window" => &["window"],
        "poisson" => &["mean_gap"],
        "late-joiner" => &["late"],
        "explicit" => &["rounds"],
        other => return Err(malformed(format!("unknown activation kind \"{other}\""))),
    };
    if let Value::Object(members) = value {
        for (key, _) in members {
            if key != "kind" && !known_keys.contains(&key.as_str()) {
                return Err(malformed(format!(
                    "unknown key \"{key}\" for activation kind \"{kind}\""
                )));
            }
        }
    }
    let req = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| malformed(format!("activation kind \"{kind}\" requires \"{key}\"")))
    };
    Ok(match kind {
        "simultaneous" => ActivationSchedule::Simultaneous,
        "staggered" => ActivationSchedule::Staggered {
            gap: field_u64(req("gap")?, "activation.gap")?,
        },
        "batches" => ActivationSchedule::Batches {
            batch_size: field_usize(req("batch_size")?, "activation.batch_size")?,
            gap: field_u64(req("gap")?, "activation.gap")?,
        },
        "uniform-window" => ActivationSchedule::UniformWindow {
            window: field_u64(req("window")?, "activation.window")?,
        },
        "poisson" => ActivationSchedule::Poisson {
            mean_gap: field_f64(req("mean_gap")?, "activation.mean_gap")?,
        },
        "late-joiner" => ActivationSchedule::LateJoiner {
            late: field_u64(req("late")?, "activation.late")?,
        },
        "explicit" => {
            let rounds = req("rounds")?
                .as_array()
                .ok_or_else(|| malformed("\"rounds\" must be an array".to_string()))?
                .iter()
                .map(|v| field_u64(v, "activation.rounds"))
                .collect::<Result<Vec<u64>, SpecError>>()?;
            ActivationSchedule::Explicit(rounds)
        }
        _ => unreachable!("kind validated above"),
    })
}

/// A complete, serializable description of one simulation cell: which
/// protocol to run, against which adversary, under which activation
/// schedule, on which instance `(n, F, t, N)`, with which bounds.
///
/// Build one programmatically with the builder methods or decode one from
/// JSON with [`from_json`](Self::from_json); either way,
/// [`Sim::from_spec`](crate::sim::Sim::from_spec) turns it into a runnable
/// simulation after validating everything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The protocol to run (registry name + parameters).
    pub protocol: ComponentSpec,
    /// The adversary to run against (registry name + parameters).
    pub adversary: ComponentSpec,
    /// Probes observing every resolved round (registry names +
    /// parameters). Probes never perturb the execution: declaring them
    /// changes neither the outcome nor the trial's store digest — only
    /// what is reported alongside it.
    pub probes: Vec<ComponentSpec>,
    /// Network-fault layers (registry names + parameters), stacked in
    /// declaration order between the engine's resolution pass and delivery.
    /// The `"faults"` key is emitted only when layers are declared, so
    /// fault-free specs keep their historical wire form byte for byte.
    pub faults: Vec<ComponentSpec>,
    /// When devices are activated.
    pub activation: ActivationSchedule,
    /// Actual number of participating devices `n`.
    pub num_nodes: usize,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F`.
    pub disruption_bound: u32,
    /// Bound `N ≥ n` announced to the protocols; `None` defaults to
    /// `n.next_power_of_two()`.
    pub upper_bound_n: Option<u64>,
    /// Round cap.
    pub max_rounds: u64,
    /// Extra rounds simulated after everyone synchronized.
    pub extra_rounds_after_sync: u64,
}

impl ScenarioSpec {
    /// A spec running `protocol` on an `(n, F, t)` instance with no
    /// adversary, simultaneous activation, a round cap of 2,000,000 and 8
    /// extra rounds after synchronization.
    pub fn new(
        protocol: impl Into<ComponentSpec>,
        num_nodes: usize,
        num_frequencies: u32,
        disruption_bound: u32,
    ) -> Self {
        ScenarioSpec {
            protocol: protocol.into(),
            adversary: ComponentSpec::named("none"),
            probes: Vec::new(),
            faults: Vec::new(),
            activation: ActivationSchedule::Simultaneous,
            num_nodes,
            num_frequencies,
            disruption_bound,
            upper_bound_n: None,
            max_rounds: 2_000_000,
            extra_rounds_after_sync: 8,
        }
    }

    /// Sets the adversary.
    pub fn with_adversary(mut self, adversary: impl Into<ComponentSpec>) -> Self {
        self.adversary = adversary.into();
        self
    }

    /// Appends a probe (registry name or name-plus-params component).
    pub fn with_probe(mut self, probe: impl Into<ComponentSpec>) -> Self {
        self.probes.push(probe.into());
        self
    }

    /// Appends a network-fault layer (registry name or name-plus-params
    /// component). Layers stack in declaration order.
    pub fn with_fault(mut self, fault: impl Into<ComponentSpec>) -> Self {
        self.faults.push(fault.into());
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

    /// Sets the number of extra rounds simulated after synchronization.
    pub fn with_extra_rounds_after_sync(mut self, extra: u64) -> Self {
        self.extra_rounds_after_sync = extra;
        self
    }

    /// Adds a protocol parameter.
    pub fn with_protocol_param(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.protocol.params.set(key, value);
        self
    }

    /// The effective bound `N` announced to protocols: `upper_bound_n`, or
    /// `n.next_power_of_two()` when unset.
    pub fn upper_bound(&self) -> u64 {
        self.upper_bound_n
            .unwrap_or_else(|| next_power_of_two(self.num_nodes as u64))
    }

    /// The engine configuration for this spec's instance and bounds.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.num_nodes, self.num_frequencies, self.disruption_bound)
            .with_upper_bound(self.upper_bound())
            .with_max_rounds(self.max_rounds)
            .with_extra_rounds_after_sync(self.extra_rounds_after_sync)
    }

    /// A copy of this spec, under its old runtime name
    /// [`Scenario`](crate::runner::Scenario). A bridge for the benchmark
    /// package (`perfbench/`), which still calls it: it goes, with the
    /// alias, once the benchmark takes the spec itself.
    pub fn scenario(&self) -> Self {
        self.clone()
    }

    /// Validates the instance parameters (the registry-independent checks).
    /// Name and parameter resolution happen in
    /// [`Sim::from_spec`](crate::sim::Sim::from_spec).
    pub fn validate(&self) -> Result<(), SpecError> {
        self.sim_config().validate()?;
        Ok(())
    }

    /// Serializes to a JSON [`Value`]. The `"probes"` key is emitted only
    /// when probes are declared, so probe-less specs keep their historical
    /// wire form (and store digests) byte for byte.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("protocol".to_string(), self.protocol.to_value()),
            ("adversary".to_string(), self.adversary.to_value()),
        ];
        if !self.probes.is_empty() {
            members.push((
                "probes".to_string(),
                Value::Array(self.probes.iter().map(ComponentSpec::to_value).collect()),
            ));
        }
        if !self.faults.is_empty() {
            members.push((
                "faults".to_string(),
                Value::Array(self.faults.iter().map(ComponentSpec::to_value).collect()),
            ));
        }
        members.extend([
            (
                "activation".to_string(),
                activation_to_value(&self.activation),
            ),
            ("num_nodes".to_string(), self.num_nodes.into()),
            ("num_frequencies".to_string(), self.num_frequencies.into()),
            ("disruption_bound".to_string(), self.disruption_bound.into()),
        ]);
        if let Some(n) = self.upper_bound_n {
            members.push(("upper_bound_n".to_string(), n.into()));
        }
        members.push(("max_rounds".to_string(), self.max_rounds.into()));
        members.push((
            "extra_rounds_after_sync".to_string(),
            self.extra_rounds_after_sync.into(),
        ));
        Value::Object(members)
    }

    /// Decodes from a JSON [`Value`], rejecting unknown keys.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let members = value.as_object().ok_or_else(|| SpecError::Malformed {
            context: "scenario spec".to_string(),
            message: format!("expected an object, found {}", value.type_name()),
        })?;
        let mut spec = ScenarioSpec::new("", 0, 0, 0);
        let mut saw_protocol = false;
        let mut saw_nodes = false;
        let mut saw_freqs = false;
        let mut saw_bound = false;
        for (key, v) in members {
            match key.as_str() {
                "protocol" => {
                    spec.protocol = ComponentSpec::from_value(v, "protocol")?;
                    saw_protocol = true;
                }
                "adversary" => spec.adversary = ComponentSpec::from_value(v, "adversary")?,
                "probes" => {
                    let items = v.as_array().ok_or_else(|| SpecError::Malformed {
                        context: "probes".to_string(),
                        message: format!(
                            "expected an array of probe components, found {}",
                            v.type_name()
                        ),
                    })?;
                    spec.probes = items
                        .iter()
                        .map(|item| ComponentSpec::from_value(item, "probes"))
                        .collect::<Result<Vec<_>, SpecError>>()?;
                }
                "faults" => {
                    let items = v.as_array().ok_or_else(|| SpecError::Malformed {
                        context: "faults".to_string(),
                        message: format!(
                            "expected an array of fault components, found {}",
                            v.type_name()
                        ),
                    })?;
                    spec.faults = items
                        .iter()
                        .map(|item| ComponentSpec::from_value(item, "faults"))
                        .collect::<Result<Vec<_>, SpecError>>()?;
                }
                "activation" => spec.activation = activation_from_value(v)?,
                "num_nodes" => {
                    spec.num_nodes = field_usize(v, "num_nodes")?;
                    saw_nodes = true;
                }
                "num_frequencies" => {
                    spec.num_frequencies = field_u32(v, "num_frequencies")?;
                    saw_freqs = true;
                }
                "disruption_bound" => {
                    spec.disruption_bound = field_u32(v, "disruption_bound")?;
                    saw_bound = true;
                }
                "upper_bound_n" => {
                    spec.upper_bound_n = match v {
                        Value::Null => None,
                        other => Some(field_u64(other, "upper_bound_n")?),
                    }
                }
                "max_rounds" => spec.max_rounds = field_u64(v, "max_rounds")?,
                "extra_rounds_after_sync" => {
                    spec.extra_rounds_after_sync = field_u64(v, "extra_rounds_after_sync")?
                }
                other => {
                    return Err(SpecError::Malformed {
                        context: "scenario spec".to_string(),
                        message: format!("unknown key \"{other}\""),
                    })
                }
            }
        }
        for (seen, field) in [
            (saw_protocol, "protocol"),
            (saw_nodes, "num_nodes"),
            (saw_freqs, "num_frequencies"),
            (saw_bound, "disruption_bound"),
        ] {
            if !seen {
                return Err(SpecError::Malformed {
                    context: "scenario spec".to_string(),
                    message: format!("missing required key \"{field}\""),
                });
            }
        }
        Ok(spec)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Decodes from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        ScenarioSpec::from_value(&json::parse(text)?)
    }
}

/// One expanded cell of a [`SweepSpec`]: a human-readable label naming the
/// grid coordinates and the fully substituted [`ScenarioSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `"field=value"` pairs joined by `", "` (empty for a gridless sweep).
    pub label: String,
    /// The substituted spec.
    pub spec: ScenarioSpec,
}

/// One axis of a sweep grid: a field path and the values it takes.
///
/// Sweepable field paths: `num_nodes`, `num_frequencies`,
/// `disruption_bound`, `upper_bound_n`, `max_rounds`,
/// `protocol.<param>`, and `adversary.<param>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepAxis {
    /// The field path being swept.
    pub field: String,
    /// The values the field takes, in order.
    pub values: Vec<Value>,
}

impl SweepAxis {
    /// Creates an axis.
    pub fn new(field: impl Into<String>, values: Vec<Value>) -> Self {
        SweepAxis {
            field: field.into(),
            values,
        }
    }
}

/// A seed range plus a parameter grid over a base [`ScenarioSpec`]: the
/// declarative form of a whole experiment (Monte-Carlo trials × sweep
/// points).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The spec every grid point starts from.
    pub base: ScenarioSpec,
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
    /// The grid axes; their cross product (outermost axis first) defines
    /// the sweep points. Empty means a single point: the base spec.
    pub axes: Vec<SweepAxis>,
    /// Optional adaptive stopping rule (the `"stop"` key): with one
    /// declared, the sweep allocates trials sequentially — each grid point
    /// runs seed batches until its metric's confidence interval is narrow
    /// enough, instead of a fixed count. See
    /// [`StoppingRule`].
    pub stop: Option<StoppingRule>,
}

impl SweepSpec {
    /// A sweep of `seeds` trials of `base` with no grid.
    pub fn new(base: ScenarioSpec, seeds: std::ops::Range<u64>) -> Self {
        SweepSpec {
            base,
            seed_start: seeds.start,
            seed_end: seeds.end,
            axes: Vec::new(),
            stop: None,
        }
    }

    /// Adds a grid axis.
    pub fn with_axis(mut self, field: impl Into<String>, values: Vec<Value>) -> Self {
        self.axes.push(SweepAxis::new(field, values));
        self
    }

    /// Declares an adaptive stopping rule: trials are allocated in seed
    /// batches and each grid point stops as soon as the rule is satisfied
    /// on its seed-ordered prefix.
    pub fn with_stop(mut self, rule: StoppingRule) -> Self {
        self.stop = Some(rule);
        self
    }

    /// The seed range, validated.
    pub fn seeds(&self) -> Result<std::ops::Range<u64>, SpecError> {
        if self.seed_start >= self.seed_end {
            return Err(SpecError::InvalidSeedRange {
                start: self.seed_start,
                end: self.seed_end,
            });
        }
        Ok(self.seed_start..self.seed_end)
    }

    /// The seed range the sweep may actually consume. For a fixed-count
    /// sweep this is [`seeds`](Self::seeds); with a stopping rule declared
    /// it is `seed_start .. seed_start + max_seeds` — the rule's budget
    /// replaces the declared count (and defaults to it when the rule omits
    /// `max_seeds`). Every consumer of an adaptive sweep (in-process
    /// runner, fabric workers, serving layer) derives its plan from this
    /// one range, so they agree on batch boundaries by construction.
    pub fn effective_seeds(&self) -> Result<std::ops::Range<u64>, SpecError> {
        let declared = self.seeds()?;
        match &self.stop {
            None => Ok(declared),
            Some(rule) => {
                rule.validate()?;
                let budget = rule.max_seeds.unwrap_or(declared.end - declared.start);
                Ok(declared.start..declared.start + budget)
            }
        }
    }

    /// Expands the grid into its cross product of sweep points (outermost
    /// axis varies slowest). Errors on an empty axis or an unknown field.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, SpecError> {
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(SpecError::EmptySweepAxis {
                    field: axis.field.clone(),
                });
            }
        }
        let mut points = vec![SweepPoint {
            label: String::new(),
            spec: self.base.clone(),
        }];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(points.len() * axis.values.len());
            for point in &points {
                for value in &axis.values {
                    let mut spec = point.spec.clone();
                    apply_sweep_value(&mut spec, &axis.field, value)?;
                    let coord = format!("{}={}", axis.field, value.to_json());
                    let label = if point.label.is_empty() {
                        coord
                    } else {
                        format!("{}, {}", point.label, coord)
                    };
                    next.push(SweepPoint { label, spec });
                }
            }
            points = next;
        }
        Ok(points)
    }

    /// Serializes to a JSON [`Value`].
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("base".to_string(), self.base.to_value()),
            (
                "seeds".to_string(),
                Value::Object(vec![
                    ("start".to_string(), self.seed_start.into()),
                    ("end".to_string(), self.seed_end.into()),
                ]),
            ),
        ];
        if !self.axes.is_empty() {
            members.push((
                "grid".to_string(),
                Value::Array(
                    self.axes
                        .iter()
                        .map(|axis| {
                            Value::Object(vec![
                                ("field".to_string(), Value::Str(axis.field.clone())),
                                ("values".to_string(), Value::Array(axis.values.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        // Emitted only when declared, like "probes"/"faults": the wire
        // form (and anything digesting it) of a fixed-count sweep is
        // byte-identical to what it was before adaptive mode existed.
        if let Some(rule) = &self.stop {
            members.push(("stop".to_string(), rule.to_value()));
        }
        Value::Object(members)
    }

    /// Decodes from a JSON [`Value`], rejecting unknown keys.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let members = value.as_object().ok_or_else(|| SpecError::Malformed {
            context: "sweep spec".to_string(),
            message: format!("expected an object, found {}", value.type_name()),
        })?;
        let mut base: Option<ScenarioSpec> = None;
        let mut seeds: Option<(u64, u64)> = None;
        let mut axes = Vec::new();
        let mut stop: Option<StoppingRule> = None;
        for (key, v) in members {
            match key.as_str() {
                "base" => base = Some(ScenarioSpec::from_value(v)?),
                "stop" => stop = Some(StoppingRule::from_value(v)?),
                "seeds" => {
                    reject_unknown_keys(v, "seeds", &["start", "end"])?;
                    let start = field_u64(v.get("start").unwrap_or(&Value::Int(0)), "seeds.start")?;
                    let end = field_u64(
                        v.get("end").ok_or_else(|| SpecError::Malformed {
                            context: "seeds".to_string(),
                            message: "missing \"end\"".to_string(),
                        })?,
                        "seeds.end",
                    )?;
                    seeds = Some((start, end));
                }
                "grid" => {
                    let items = v.as_array().ok_or_else(|| SpecError::Malformed {
                        context: "grid".to_string(),
                        message: "expected an array of axes".to_string(),
                    })?;
                    for item in items {
                        reject_unknown_keys(item, "grid axis", &["field", "values"])?;
                        let field = item
                            .get("field")
                            .and_then(Value::as_str)
                            .ok_or_else(|| SpecError::Malformed {
                                context: "grid".to_string(),
                                message: "axis needs a string \"field\"".to_string(),
                            })?
                            .to_string();
                        let values = item
                            .get("values")
                            .and_then(Value::as_array)
                            .ok_or_else(|| SpecError::Malformed {
                                context: "grid".to_string(),
                                message: "axis needs an array \"values\"".to_string(),
                            })?
                            .to_vec();
                        axes.push(SweepAxis { field, values });
                    }
                }
                other => {
                    return Err(SpecError::Malformed {
                        context: "sweep spec".to_string(),
                        message: format!("unknown key \"{other}\""),
                    })
                }
            }
        }
        let (seed_start, seed_end) = seeds.ok_or_else(|| SpecError::Malformed {
            context: "sweep spec".to_string(),
            message: "missing required key \"seeds\" ({\"start\", \"end\"})".to_string(),
        })?;
        if let Some(rule) = &stop {
            rule.validate()?;
        }
        Ok(SweepSpec {
            base: base.ok_or_else(|| SpecError::Malformed {
                context: "sweep spec".to_string(),
                message: "missing required key \"base\"".to_string(),
            })?,
            seed_start,
            seed_end,
            axes,
            stop,
        })
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Decodes from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        SweepSpec::from_value(&json::parse(text)?)
    }
}

fn apply_sweep_value(spec: &mut ScenarioSpec, field: &str, value: &Value) -> Result<(), SpecError> {
    if let Some(param) = field.strip_prefix("protocol.") {
        spec.protocol.params.set(param, value.clone());
        return Ok(());
    }
    if let Some(param) = field.strip_prefix("adversary.") {
        spec.adversary.params.set(param, value.clone());
        return Ok(());
    }
    if let Some(rest) = field.strip_prefix("fault.") {
        // "fault.<name>.<param>" targets the declared layer named <name>,
        // declaring it (parameterless) first if the base spec does not.
        let (name, param) = rest
            .split_once('.')
            .ok_or_else(|| SpecError::UnknownSweepField {
                field: field.to_string(),
            })?;
        let idx = match spec.faults.iter().position(|f| f.name() == name) {
            Some(idx) => idx,
            None => {
                spec.faults.push(ComponentSpec::named(name));
                spec.faults.len() - 1
            }
        };
        spec.faults[idx].params.set(param, value.clone());
        return Ok(());
    }
    match field {
        "num_nodes" => spec.num_nodes = field_usize(value, field)?,
        "num_frequencies" => spec.num_frequencies = field_u32(value, field)?,
        "disruption_bound" => spec.disruption_bound = field_u32(value, field)?,
        "upper_bound_n" => spec.upper_bound_n = Some(field_u64(value, field)?),
        "max_rounds" => spec.max_rounds = field_u64(value, field)?,
        _ => {
            return Err(SpecError::UnknownSweepField {
                field: field.to_string(),
            })
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec::new("trapdoor", 8, 8, 2)
            .with_adversary(ComponentSpec::named("oblivious-random").with("t_actual", 2u64))
            .with_activation(ActivationSchedule::Staggered { gap: 5 })
            .with_upper_bound(16)
            .with_max_rounds(10_000)
            .with_protocol_param("epoch_constant", 2.5)
    }

    #[test]
    fn scenario_spec_round_trips_through_json() {
        let spec = sample_spec();
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text).expect("round trip");
        assert_eq!(back, spec);
        // and the serialized form is stable
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn every_activation_schedule_round_trips() {
        let schedules = vec![
            ActivationSchedule::Simultaneous,
            ActivationSchedule::Staggered { gap: 3 },
            ActivationSchedule::Batches {
                batch_size: 4,
                gap: 7,
            },
            ActivationSchedule::UniformWindow { window: 50 },
            ActivationSchedule::Poisson { mean_gap: 2.5 },
            ActivationSchedule::LateJoiner { late: 99 },
            ActivationSchedule::Explicit(vec![0, 3, 9]),
        ];
        for schedule in schedules {
            let v = activation_to_value(&schedule);
            assert_eq!(activation_from_value(&v).unwrap(), schedule);
        }
    }

    #[test]
    fn defaults_fill_in_missing_optional_fields() {
        let spec = ScenarioSpec::from_json(
            r#"{"protocol": "wakeup", "num_nodes": 6, "num_frequencies": 8, "disruption_bound": 1}"#,
        )
        .unwrap();
        assert_eq!(spec.adversary.name(), "none");
        assert_eq!(spec.activation, ActivationSchedule::Simultaneous);
        assert_eq!(spec.max_rounds, 2_000_000);
        assert_eq!(spec.extra_rounds_after_sync, 8);
        assert_eq!(spec.upper_bound_n, None);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = ScenarioSpec::from_json(
            r#"{"protocol": "trapdoor", "num_nodes": 6, "num_frequencies": 8,
                "disruption_bound": 1, "num_freqencies": 9}"#,
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("num_freqencies"));
    }

    #[test]
    fn missing_required_keys_are_rejected() {
        let err = ScenarioSpec::from_json(
            r#"{"num_nodes": 6, "num_frequencies": 8, "disruption_bound": 1}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("protocol"), "{err}");
    }

    #[test]
    fn validate_surfaces_config_errors() {
        let too_much_jam = ScenarioSpec::new("trapdoor", 4, 8, 8);
        assert!(matches!(
            too_much_jam.validate(),
            Err(SpecError::InvalidConfig(
                ConfigError::DisruptionBoundTooLarge { .. }
            ))
        ));
        let no_nodes = ScenarioSpec::new("trapdoor", 0, 8, 2);
        assert!(matches!(
            no_nodes.validate(),
            Err(SpecError::InvalidConfig(ConfigError::NoNodes))
        ));
        let zero_rounds = ScenarioSpec::new("trapdoor", 4, 8, 2).with_max_rounds(0);
        assert!(matches!(
            zero_rounds.validate(),
            Err(SpecError::InvalidConfig(ConfigError::ZeroMaxRounds))
        ));
        assert!(ScenarioSpec::new("trapdoor", 4, 8, 2).validate().is_ok());
    }

    #[test]
    fn sweep_spec_round_trips_and_expands() {
        let sweep = SweepSpec::new(sample_spec(), 0..12)
            .with_axis("num_nodes", vec![8u64.into(), 16u64.into()])
            .with_axis(
                "protocol.epoch_constant",
                vec![1.0.into(), 2.0.into(), 4.0.into()],
            );
        let text = sweep.to_json();
        let back = SweepSpec::from_json(&text).expect("round trip");
        assert_eq!(back, sweep);

        let points = back.expand().unwrap();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].spec.num_nodes, 8);
        assert_eq!(points[5].spec.num_nodes, 16);
        assert_eq!(
            points[5].spec.protocol.params.get("epoch_constant"),
            Some(&Value::Float(4.0))
        );
        assert!(points[5].label.contains("num_nodes=16"));
        assert!(points[5].label.contains("epoch_constant=4.0"));
        assert_eq!(back.seeds().unwrap(), 0..12);
    }

    #[test]
    fn sweep_rejects_bad_axes_and_seed_ranges() {
        let base = sample_spec();
        let empty_axis = SweepSpec::new(base.clone(), 0..4).with_axis("num_nodes", vec![]);
        assert!(matches!(
            empty_axis.expand(),
            Err(SpecError::EmptySweepAxis { .. })
        ));
        let bad_field =
            SweepSpec::new(base.clone(), 0..4).with_axis("frequency_count", vec![8u64.into()]);
        assert!(matches!(
            bad_field.expand(),
            Err(SpecError::UnknownSweepField { .. })
        ));
        let inverted = SweepSpec::new(base, 7..7);
        assert!(matches!(
            inverted.seeds(),
            Err(SpecError::InvalidSeedRange { start: 7, end: 7 })
        ));
        // a sweep file without "seeds" is reported as missing, not as an
        // empty 0..0 range
        let missing_seeds =
            SweepSpec::from_json(&format!("{{\"base\": {}}}", sample_spec().to_json()))
                .expect_err("missing seeds must be rejected");
        assert!(
            missing_seeds.to_string().contains("seeds"),
            "{missing_seeds}"
        );
    }

    #[test]
    fn oversized_integers_fall_back_to_float_instead_of_wrapping() {
        assert_eq!(Value::from(u64::MAX), Value::Float(u64::MAX as f64));
        assert_eq!(Value::from(42u64), Value::Int(42));
    }

    #[test]
    fn component_spec_accepts_bare_strings() {
        let c = ComponentSpec::from_value(&Value::Str("random".to_string()), "adversary").unwrap();
        assert_eq!(c, ComponentSpec::named("random"));
        assert_eq!(c.to_value(), Value::Str("random".to_string()));
    }

    #[test]
    fn param_reader_reports_typos_and_type_errors() {
        let params = Params::new()
            .with("epoch_constant", 2.0)
            .with("burst", 3u64);
        let mut reader = ParamReader::new("trapdoor", &params);
        assert_eq!(reader.opt_f64("epoch_constant").unwrap(), Some(2.0));
        let err = reader.finish().unwrap_err();
        match err {
            SpecError::UnknownParam { param, .. } => assert_eq!(param, "burst"),
            other => panic!("expected UnknownParam, got {other:?}"),
        }

        let params = Params::new().with("t_actual", "two");
        let mut reader = ParamReader::new("oblivious-random", &params);
        assert!(matches!(
            reader.req_u32("t_actual"),
            Err(SpecError::BadParam { .. })
        ));

        let params = Params::new();
        let mut reader = ParamReader::new("oblivious-random", &params);
        assert!(matches!(
            reader.req_u32("t_actual"),
            Err(SpecError::MissingParam { .. })
        ));
    }

    #[test]
    fn spec_error_messages_are_actionable() {
        let err = SpecError::UnknownProtocol {
            name: "trapdor".to_string(),
            known: vec!["trapdoor".to_string(), "wakeup".to_string()],
        };
        let text = err.to_string();
        assert!(
            text.contains("trapdor") && text.contains("trapdoor"),
            "{text}"
        );
    }
}
