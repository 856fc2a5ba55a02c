//! Baseline protocols used as experimental comparison points.
//!
//! The paper has no implemented comparator (it is a theory paper), but its
//! introduction and related-work discussion motivate three natural
//! baselines that our experiments compare the Trapdoor and Good Samaritan
//! protocols against:
//!
//! * [`WakeupProtocol`] — a multi-frequency adaptation of the classic
//!   randomized wake-up protocols (Jurdziński–Stachowiak style cycling
//!   broadcast probabilities) with a fixed competition deadline instead of
//!   the Trapdoor epoch escalation. It is simpler but needs a conservative
//!   deadline and loses the paper's adaptive self-regulation.
//! * [`RoundRobinProtocol`] — deterministic round-robin frequency hopping
//!   (the "Bluetooth-style pseudorandom hopping" the introduction mentions),
//!   with randomized back-off for broadcasts.
//! * single-frequency Trapdoor — obtained by configuring
//!   [`TrapdoorConfig::with_frequency_limit(1)`](crate::trapdoor::TrapdoorConfig::with_frequency_limit);
//!   it shows why frequency diversity is necessary: any adversary with
//!   `t ≥ 1` that jams frequency 1 starves it forever.

mod round_robin;
mod uniform_wakeup;

pub use round_robin::{RoundRobinConfig, RoundRobinProtocol};
pub use uniform_wakeup::{WakeupConfig, WakeupProtocol};
