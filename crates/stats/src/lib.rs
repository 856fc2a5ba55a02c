//! Statistics substrate for the `wireless-sync` workspace.
//!
//! The experiment harness of this reproduction repeatedly runs randomized
//! protocol executions and needs to summarize the resulting samples:
//! means, dispersion, quantiles, confidence intervals for "with high
//! probability" claims, a least-squares fit of measured running times
//! against the paper's asymptotic bound expressions, and simple table
//! rendering for the regenerated figures.
//!
//! Everything here is plain, dependency-light numerical code operating on
//! `f64` slices; the heavier domain logic lives in the other crates.
//!
//! # Example
//!
//! ```
//! use wsync_stats::{Summary, quantile};
//!
//! let samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
//! let s = Summary::from_slice(&samples);
//! assert_eq!(s.count, 8);
//! assert!((s.mean - 3.875).abs() < 1e-12);
//! assert_eq!(quantile(&samples, 0.5), 3.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confidence;
pub mod descriptive;
pub mod quantile;
pub mod regression;
pub mod table;

pub use confidence::{wilson_ci, CiUndefined, ConfidenceInterval};
pub use descriptive::{OnlineStats, Summary};
pub use quantile::{median, quantile, quantiles};
pub use regression::{fit_through_origin, OriginFit};
pub use table::{Align, Table};
