//! Lower-bound machinery for the wireless synchronization problem.
//!
//! The paper proves two lower bounds (Section 5) and two upper bounds
//! (Theorems 10 and 18). This crate contains the closed-form bound
//! expressions and the probabilistic machinery the lower-bound proofs are
//! built from, so that the experiment harness can validate each one
//! numerically:
//!
//! * [`formulas`] — the bound expressions of Theorems 1, 4, 5 and 10
//!   evaluated as plain functions of `(N, F, t, ε)`. Theorem 18's bounds
//!   live with the protocol they bound, on `GoodSamaritanConfig` in
//!   `wsync-core`.
//! * [`balls_in_bins`] — the Lemma 2 process (`m` balls thrown into `s + 1`
//!   bins, `p_{s+1} ≥ 1/2`): an exact small-case solver and a Monte-Carlo
//!   estimator for the probability that no bin receives exactly one ball,
//!   validated against the `2^{-s}` bound.
//! * [`good_probability`] — the "good success probability" machinery of
//!   Theorem 1 / Claim 3: the success probability `n·p·(1−p)^{n−1}` and a
//!   numerical check that no broadcast probability is good for two
//!   well-separated population sizes.
//! * [`two_node`] — the Theorem 4 two-node rendezvous game against the
//!   adversary that disrupts the `t` frequencies with the largest
//!   `p_j·q_j` products.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balls_in_bins;
pub mod formulas;
pub mod good_probability;
pub mod two_node;

pub use balls_in_bins::{no_singleton_probability_exact, no_singleton_probability_mc, BallsInBins};
pub use formulas::Bounds;
pub use two_node::{RendezvousGame, RendezvousStrategy};
