//! Aggregate execution metrics collected by the engine.

use serde::{Deserialize, Serialize};

use crate::probe::Probe;
use crate::trace::RoundObservation;

/// Cheap aggregate counters collected during every execution, regardless of
/// the trace level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total number of broadcast actions.
    pub broadcasts: u64,
    /// Total number of listen actions.
    pub listens: u64,
    /// Total number of sleep actions.
    pub sleeps: u64,
    /// Number of (frequency, round) pairs on which a message was delivered
    /// (exactly one broadcaster, not disrupted).
    pub deliveries: u64,
    /// Total number of successful receptions (listener count on delivering
    /// frequencies).
    pub receptions: u64,
    /// Number of (frequency, round) pairs with two or more broadcasters.
    pub collisions: u64,
    /// Number of (frequency, round) pairs where a solitary broadcast was
    /// suppressed by disruption.
    pub jammed_solo_broadcasts: u64,
    /// Sum over rounds of the number of disrupted frequencies.
    pub disrupted_frequency_rounds: u64,
    /// Largest number of simultaneously active nodes observed.
    pub max_active_nodes: u32,
    /// Number of times the adversary returned more disrupted frequencies
    /// than the configured bound `t` and had its choice truncated.
    pub adversary_budget_violations: u64,
}

/// `SimMetrics` is a probe: each observed round's flat
/// [`RoundTally`](crate::trace::RoundTally) folds into the aggregate
/// counters in O(1), with no rescan of the per-node or per-frequency
/// slices. The engine composes one ahead of the user stack; an
/// independently attached `SimMetrics` probe accumulates the identical
/// aggregates (pinned by the probe-pipeline tests).
impl Probe for SimMetrics {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        let tally = observation.tally;
        self.rounds = observation.round + 1;
        self.broadcasts += u64::from(tally.broadcasts);
        self.listens += u64::from(tally.listens);
        self.sleeps += u64::from(tally.sleeps);
        self.deliveries += u64::from(tally.deliveries);
        self.receptions += u64::from(tally.receptions);
        self.collisions += u64::from(tally.collisions);
        self.jammed_solo_broadcasts += u64::from(tally.jammed_solo_broadcasts);
        self.disrupted_frequency_rounds += u64::from(tally.disrupted_frequencies);
        self.max_active_nodes = self.max_active_nodes.max(tally.active_nodes);
        self.adversary_budget_violations += u64::from(tally.adversary_clamped);
    }
}
