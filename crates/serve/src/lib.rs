//! `wsync-serve` — simulation-as-a-service for the wireless
//! synchronization workspace.
//!
//! A dependency-free HTTP/1.1 + JSON daemon on `std::net` that owns one
//! content-addressed [`ResultStore`](wsync_core::store::ResultStore) and
//! serves every trial through one
//! [`SweepRunner`](wsync_core::sweep::SweepRunner) pass on it, for
//! synchronous runs and sweep jobs alike:
//!
//! * [`http`] — the hand-rolled request/response plumbing.
//! * [`server`] — routing and handlers (`/run`, `/sweep`, `/jobs/<id>`,
//!   `/catalog`, `/healthz`, `/metrics`).
//! * [`jobs`] — the job registry behind `POST /sweep` scheduling and
//!   `GET /jobs/<id>` streaming.
//! * [`metrics`] — lock-free service counters.
//! * [`clock`] — the crate's only wall-clock boundary (request timing for
//!   the throughput metric).
//!
//! Everything a response contains is derived from deterministic simulation
//! state: repeated requests against a warm store re-serve stored outcomes
//! bit-for-bit without executing the engine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use server::{ServeConfig, ServeError, Server, DEFAULT_MAX_HANDLERS, MAX_RUN_SEEDS};
