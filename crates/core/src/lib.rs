//! The wireless synchronization problem and its protocols.
//!
//! This crate contains the primary contribution of
//! Dolev, Gilbert, Guerraoui, Kuhn, Newport,
//! "The Wireless Synchronization Problem" (PODC 2009):
//!
//! * [`checker`] — the problem definition (Section 3) and an online checker
//!   verifying its five requirements — *validity*, *synch commit*,
//!   *correctness*, *agreement* and *liveness* — over a simulated execution.
//! * [`trapdoor`] — the Trapdoor Protocol (Section 6): a leader-based
//!   solution running in `O(F/(F−t)·log²N + F·t/(F−t)·log N)` rounds w.h.p.
//!   The experimental baselines — a single-frequency variant, a
//!   deterministic round-robin hopper and a multi-frequency wake-up-style
//!   protocol — share its contention and are constructors of the same
//!   [`TrapdoorProtocol`].
//! * [`good_samaritan`] — the Good Samaritan Protocol (Section 7): an
//!   optimistic/adaptive variant terminating in `O(t′·log³N)` rounds in
//!   good executions and `O(F·log³N)` rounds in all executions.
//! * [`runner`] / [`report`] — convenience helpers that wire a protocol,
//!   an adversary and an activation schedule into the `wsync-radio` engine
//!   and summarize the outcome (rounds to synchronization, leader count,
//!   property violations).
//! * [`batch`] — the [`BatchRunner`]: deterministic
//!   parallel execution of independent Monte-Carlo trials across a worker
//!   pool, with seed-ordered results and shared aggregation folds.
//! * [`registry`] / [`spec`] / [`sim`] — the declarative simulation API:
//!   the closed catalogue of named protocol/adversary/probe/fault builders,
//!   JSON-serializable [`ScenarioSpec`]/[`SweepSpec`] descriptions
//!   (including the `"probes"` observation stack), and the validated
//!   [`Sim`] builder every execution flows through.
//! * [`store`] / [`sweep`] — the persistence and orchestration layer: a
//!   content-addressed [`ResultStore`] of completed
//!   trials (sharded JSONL, keyed by canonical spec digest + seed) and the
//!   [`SweepRunner`] that streams whole sweep grids
//!   through the worker pool with work stealing, constant-memory
//!   aggregation, and bit-identical resume.
//! * [`fabric`] — the multi-process sweep fabric: shard-level lease files
//!   next to the store shards let N independent OS processes drain one
//!   [`SweepSpec`] against a shared store directory without duplicating
//!   work, with stale leases from crashed workers reclaimed and the
//!   result bit-identical to a single-process run.
//!
//! # Quickstart
//!
//! ```
//! use wsync_core::prelude::*;
//! use wsync_radio::prelude::*;
//!
//! // 16 devices, 8 frequencies, an adversary that may jam up to 3 of them.
//! let spec = ScenarioSpec::new("trapdoor", 16, 8, 3)
//!     .with_adversary("random")
//!     .with_activation(ActivationSchedule::Simultaneous);
//! let outcome = Sim::from_spec(&spec)?.run_one(7);
//! assert!(outcome.result.all_synchronized);
//! assert!(outcome.properties.all_hold());
//! assert_eq!(outcome.leaders, 1);
//! # Ok::<(), wsync_core::spec::SpecError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod checker;
pub mod fabric;
pub mod good_samaritan;
pub mod json;
pub mod params;
pub mod registry;
pub mod report;
pub mod runner;
pub mod sim;
pub mod spec;
pub mod store;
pub mod sweep;
pub mod timestamp;
pub mod trapdoor;

#[cfg(test)]
mod baselines;

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::batch::{BatchRunner, BatchStats, BatchStatsFold};
    pub use crate::checker::{PropertyChecker, PropertyReport, Violation};
    pub use crate::fabric::{FabricConfig, FabricError, WorkerEvent, WorkerSummary};
    pub use crate::good_samaritan::{GoodSamaritanConfig, GoodSamaritanProtocol, SamaritanRole};
    pub use crate::params::{ceil_log2, effective_frequencies, next_power_of_two};
    pub use crate::registry::{ProbeOutput, SimProbe};
    pub use crate::report::SyncOutcome;
    pub use crate::runner::{run_protocol, SyncProtocol};
    pub use crate::sim::{ProbedOutcome, Sim};
    pub use crate::spec::{ComponentSpec, ScenarioSpec, SpecError, SweepSpec};
    pub use crate::store::ResultStore;
    pub use crate::sweep::{
        PointStats, StopMetric, StopReason, StoppingRule, SweepReport, SweepRunner,
    };
    pub use crate::timestamp::Timestamp;
    pub use crate::trapdoor::{TrapdoorConfig, TrapdoorProtocol, TrapdoorRole};
}

pub use prelude::*;
