//! # wireless-sync
//!
//! A reproduction of *"The Wireless Synchronization Problem"*
//! (Dolev, Gilbert, Guerraoui, Kuhn, Newport — PODC 2009) as a Rust
//! workspace: a disrupted multi-frequency radio network simulator, the
//! paper's Trapdoor and Good Samaritan protocols plus baselines, the
//! lower-bound machinery, and an experiment harness that regenerates every
//! figure and validates every theorem by simulation.
//!
//! This umbrella crate re-exports the workspace members under short names
//! and hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`).
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`radio`] | `wsync-radio` | the disrupted radio network model: engine, adversaries, activation schedules |
//! | [`sync`] | `wsync-core` | the wireless synchronization problem, the Trapdoor and Good Samaritan protocols, the baselines that share Trapdoor's state machine, property checker |
//! | [`analysis`] | `wsync-analysis` | lower-bound formulas, the balls-in-bins process, the two-node rendezvous game |
//! | [`stats`] | `wsync-stats` | descriptive statistics, confidence intervals, least-squares fits |
//! | [`experiments`] | `wsync-experiments` | scenario sweeps and the generators for every table/figure in EXPERIMENTS.md |
//!
//! # Quickstart
//!
//! ```
//! use wireless_sync::prelude::*;
//!
//! // Eight devices share 8 frequencies; a random jammer may disrupt 2 per round.
//! let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
//! let outcome = Sim::from_spec(&spec)?.run_one(42);
//! assert!(outcome.result.all_synchronized);
//! assert_eq!(outcome.leaders, 1);
//! assert!(outcome.properties.all_hold());
//! # Ok::<(), wireless_sync::sync::spec::SpecError>(())
//! ```
//!
//! The same scenario as a JSON file runs with zero recompilation:
//!
//! ```text
//! cargo run --release -p wsync-experiments --bin run_experiments -- \
//!     --spec examples/specs/quickstart.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wsync_analysis as analysis;
pub use wsync_core as sync;
pub use wsync_experiments as experiments;
pub use wsync_radio as radio;
pub use wsync_stats as stats;

/// The most commonly used types from across the workspace.
pub mod prelude {
    pub use wsync_core::prelude::*;
    pub use wsync_radio::prelude::*;
}
