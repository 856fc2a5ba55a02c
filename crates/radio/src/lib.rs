//! Disrupted single-hop radio network simulator.
//!
//! This crate implements the *disrupted radio network model* of
//! Dolev, Gilbert, Guerraoui, Kuhn and Newport,
//! "The Wireless Synchronization Problem" (PODC 2009), Section 2:
//!
//! * Time is divided into synchronous rounds.
//! * The network consists of `F ≥ 1` disjoint narrowband frequencies.
//! * In each round every *active* node selects a single frequency and either
//!   broadcasts or listens on it.
//! * An interference adversary may *disrupt* up to `t < F` frequencies per
//!   round; a listener receives a message on frequency `f` only if exactly
//!   one node broadcasts on `f` and the adversary does not disrupt `f`.
//! * Nodes are activated by the adversary at arbitrary rounds; an activated
//!   node has no knowledge of the global round number, of how many nodes are
//!   active, or of which rounds other nodes were activated in.
//!
//! The crate provides:
//!
//! * the [`Protocol`] trait that node algorithms implement
//!   (`wsync-core` implements the paper's Trapdoor and Good Samaritan
//!   protocols against it),
//! * a deterministic, seedable simulation [`engine`],
//! * a suite of [`adversary`] strategies (including the weak adversary used
//!   in the paper's Theorem 1 and oblivious adversaries as assumed by the
//!   Good Samaritan analysis),
//! * pluggable [`activation`] schedules,
//! * composable network-[`fault`] layers (message loss, capture/fading,
//!   partitions with healing, crash/restart churn) that stack with any
//!   jamming adversary,
//! * one streaming observation pipeline — the [`probe`] module's
//!   [`Probe`] trait and owned [`ProbeStack`] — through which execution
//!   [`trace`]s, [`metrics`] and online property checking consume the
//!   per-round event stream the adversary also observes.
//!
//! # Example
//!
//! ```
//! use wsync_radio::prelude::*;
//!
//! /// A toy protocol: node 0 broadcasts "hello" on frequency 1 every round,
//! /// everyone else listens on frequency 1 and records whether it heard.
//! struct Hello {
//!     is_speaker: bool,
//!     heard: bool,
//! }
//!
//! impl Protocol for Hello {
//!     type Msg = &'static str;
//!
//!     fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {}
//!
//!     fn choose_action(&mut self, _local_round: u64, _rng: &mut SimRng) -> Action<Self::Msg> {
//!         if self.is_speaker {
//!             Action::broadcast(Frequency::new(1), "hello")
//!         } else {
//!             Action::listen(Frequency::new(1))
//!         }
//!     }
//!
//!     fn on_feedback(&mut self, _local_round: u64, feedback: Feedback<Self::Msg>, _rng: &mut SimRng) {
//!         if let Feedback::Received(r) = feedback {
//!             assert_eq!(r.payload, "hello");
//!             self.heard = true;
//!         }
//!     }
//!
//!     fn output(&self) -> Option<u64> {
//!         if self.heard || self.is_speaker { Some(0) } else { None }
//!     }
//! }
//!
//! let config = SimConfig::new(4, 2, 0).with_max_rounds(16);
//! let mut engine = Engine::new(
//!     config,
//!     |id: NodeId| Hello { is_speaker: id.index() == 0, heard: false },
//!     NoAdversary::new(),
//!     ActivationSchedule::Simultaneous,
//!     42,
//! ).unwrap();
//! let result = engine.run();
//! assert!(result.all_synchronized);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod action;
pub mod activation;
pub mod adversary;
pub mod engine;
pub mod error;
pub mod fault;
pub mod frequency;
pub mod message;
pub mod metrics;
pub mod node;
pub mod probe;
pub mod protocol;
pub mod rng;
pub mod trace;

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::action::Action;
    pub use crate::activation::ActivationSchedule;
    pub use crate::adversary::{
        AdaptiveGreedyAdversary, Adversary, BurstyAdversary, DisruptionSet, FixedBandAdversary,
        NoAdversary, ObliviousScheduleAdversary, RandomAdversary, SweepAdversary,
    };
    pub use crate::engine::{Engine, ExecutionResult, NodeSummary, SimConfig};
    pub use crate::error::{ConfigError, Result};
    pub use crate::fault::{
        CaptureLayer, ChurnLayer, DropLayer, FaultKind, FaultLayer, FaultStack, PartitionLayer,
    };
    pub use crate::frequency::{Frequency, FrequencyBand};
    pub use crate::message::{Feedback, Received};
    pub use crate::metrics::SimMetrics;
    pub use crate::node::{ActivationInfo, NodeId};
    pub use crate::probe::{Probe, ProbeStack};
    pub use crate::protocol::Protocol;
    pub use crate::rng::SimRng;
    pub use crate::trace::{FullTrace, RoundObservation, RoundTally, TraceEvent};
}

pub use prelude::*;
