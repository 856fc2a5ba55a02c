//! An adaptive jammer that targets the historically busiest frequencies.

use serde::{Deserialize, Serialize};

use super::{top_k_weights, Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::history::History;
use crate::rng::SimRng;

/// How many completed rounds the greedy adversary sums listeners over.
const LOOKBACK: usize = 8;

/// An adaptive adversary allowed by the model: it chooses its round-`r`
/// targets from the execution through round `r − 1`, jamming the `t`
/// frequencies with the most listeners over the last 8 rounds
/// (maximising prevented receptions).
///
/// This is the strongest *history-based* jammer in the suite and is used to
/// stress-test the protocols beyond the specific adversaries appearing in
/// the paper's proofs. It queries the history every round, so it holds
/// reusable count, weight and index buffers, goes through the
/// buffer-reusing [`History::listener_counts_into`] and inserts its
/// targets into the engine's [`DisruptionSet`]: no per-round allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveGreedyAdversary {
    t: u32,
    /// Reusable per-frequency listener-count buffer. Skipped by serde:
    /// scratch is per-run state, not configuration, and keeping it out of
    /// the wire form matches the config-only `PartialEq` below.
    #[serde(skip)]
    counts: Vec<u64>,
    /// Reusable weight buffer fed to the top-`k` selection.
    #[serde(skip)]
    weights: Vec<f64>,
    /// Reusable frequency-index buffer the top-`k` selection sorts.
    #[serde(skip)]
    order: Vec<usize>,
}

/// Equality is over the adversary's *configuration* (its budget) — the
/// reusable scratch buffers are incidental state.
impl PartialEq for AdaptiveGreedyAdversary {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t
    }
}

impl Eq for AdaptiveGreedyAdversary {}

impl AdaptiveGreedyAdversary {
    /// Creates a greedy adversary with budget `t`.
    pub fn new(t: u32) -> Self {
        AdaptiveGreedyAdversary {
            t,
            counts: Vec::new(),
            weights: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl Adversary for AdaptiveGreedyAdversary {
    fn max_lookback(&self) -> Option<usize> {
        Some(LOOKBACK)
    }

    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        history: &History,
        rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        let k = (self.t as usize).min(band.count() as usize);
        if k == 0 {
            return;
        }
        if history.is_empty() {
            // No information yet: fall back to a random choice.
            disrupted.insert_sample(k, rng);
            return;
        }
        history.listener_counts_into(band, LOOKBACK, &mut self.counts);
        self.weights.clear();
        self.weights.extend(self.counts.iter().map(|&c| c as f64));
        top_k_weights(&self.weights, k, &mut self.order, disrupted);
    }

    fn name(&self) -> &'static str {
        "adaptive-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;
    use crate::frequency::Frequency;
    use crate::history::{FrequencyActivity, RoundRecord};

    fn record_with_listeners(round: u64, listeners: &[u32]) -> RoundRecord {
        RoundRecord {
            round,
            activity: listeners
                .iter()
                .map(|&l| FrequencyActivity {
                    broadcasters: 0,
                    listeners: l,
                    disrupted: false,
                    delivered: false,
                })
                .collect(),
            active_nodes: listeners.iter().sum(),
            newly_activated: 0,
        }
    }

    #[test]
    fn targets_busiest_listener_frequencies() {
        let band = FrequencyBand::new(4);
        let mut hist = History::new();
        hist.push(record_with_listeners(0, &[1, 9, 2, 5]));
        let mut adv = AdaptiveGreedyAdversary::new(2);
        let set = disrupt_into_empty(&mut adv, 1, band, &hist, &mut SimRng::from_seed(0));
        assert!(set.contains(Frequency::new(2)));
        assert!(set.contains(Frequency::new(4)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn empty_history_falls_back_to_random_with_budget() {
        let band = FrequencyBand::new(6);
        let mut adv = AdaptiveGreedyAdversary::new(3);
        let set = disrupt_into_empty(
            &mut adv,
            0,
            band,
            &History::new(),
            &mut SimRng::from_seed(1),
        );
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn zero_budget_never_disrupts() {
        let band = FrequencyBand::new(3);
        let mut hist = History::new();
        hist.push(record_with_listeners(0, &[3, 3, 3]));
        let mut adv = AdaptiveGreedyAdversary::new(0);
        assert!(disrupt_into_empty(&mut adv, 1, band, &hist, &mut SimRng::from_seed(0)).is_empty());
    }
}
