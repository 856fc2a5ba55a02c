//! An adaptive jammer that targets the historically busiest frequencies.

use serde::{Deserialize, Serialize};

use super::{top_k_weights, Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::rng::SimRng;
use crate::trace::RoundObservation;

/// How many completed rounds the greedy adversary sums listeners over.
const LOOKBACK: usize = 8;

/// An adaptive adversary allowed by the model: it chooses its round-`r`
/// targets from the execution through round `r − 1`, jamming the `t`
/// frequencies with the most listeners over the last 8 rounds
/// (maximising prevented receptions).
///
/// This is the strongest *history-based* jammer in the suite and is used to
/// stress-test the protocols beyond the specific adversaries appearing in
/// the paper's proofs. It keeps its own window of the rounds it
/// [observes](Adversary::observe): a ring of the last 8 rounds'
/// per-frequency listener counts and their running per-frequency sums, so
/// observing a round costs O(F). Its rows, sums, weights and index buffer
/// are sized once and reused, and it inserts its targets into the engine's
/// [`DisruptionSet`]: no per-round allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveGreedyAdversary {
    t: u32,
    /// The last [`LOOKBACK`] observed rounds' listener counts, one row of
    /// `F` per round, written cyclically; sized from the first
    /// observation. Skipped by serde: the window is per-run state, not
    /// configuration, and keeping it out of the wire form matches the
    /// config-only `PartialEq` below.
    #[serde(skip)]
    rows: Vec<u32>,
    /// Per-frequency sum of the listener counts `rows` holds. Empty until
    /// the first round is observed.
    #[serde(skip)]
    sums: Vec<u64>,
    /// The `rows` slot the next observation overwrites.
    #[serde(skip)]
    next_row: usize,
    /// Reusable weight buffer fed to the top-`k` selection.
    #[serde(skip)]
    weights: Vec<f64>,
    /// Reusable frequency-index buffer the top-`k` selection sorts.
    #[serde(skip)]
    order: Vec<usize>,
}

/// Equality is over the adversary's *configuration* (its budget) — the
/// observed window and the reusable scratch buffers are incidental state.
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
            rows: Vec::new(),
            sums: Vec::new(),
            next_row: 0,
            weights: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl Adversary for AdaptiveGreedyAdversary {
    fn observe(&mut self, round: &RoundObservation<'_>) {
        let width = round.activity.len();
        if self.sums.is_empty() {
            self.rows = vec![0; LOOKBACK * width];
            self.sums = vec![0; width];
        }
        // The slot's previous row (all zero until the ring fills) leaves
        // the sums as the new row enters them.
        let row = &mut self.rows[self.next_row * width..][..width];
        for ((kept, sum), act) in row.iter_mut().zip(&mut self.sums).zip(round.activity) {
            *sum = *sum - u64::from(*kept) + u64::from(act.listeners);
            *kept = act.listeners;
        }
        self.next_row = (self.next_row + 1) % LOOKBACK;
    }

    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        let k = (self.t as usize).min(band.count() as usize);
        if k == 0 {
            return;
        }
        if self.sums.is_empty() {
            // No information yet: fall back to a random choice.
            disrupted.insert_sample(k, rng);
            return;
        }
        self.weights.clear();
        self.weights.extend(self.sums.iter().map(|&c| c as f64));
        top_k_weights(&self.weights, k, &mut self.order, disrupted);
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;
    use crate::frequency::Frequency;
    use crate::trace::{FrequencyActivity, RoundTally};
    use proptest::prelude::*;

    /// Feeds `adv` one observed round whose frequencies had `listeners`.
    fn observe_listeners(adv: &mut AdaptiveGreedyAdversary, round: u64, listeners: &[u32]) {
        let activity: Vec<FrequencyActivity> = listeners
            .iter()
            .map(|&l| FrequencyActivity {
                broadcasters: 0,
                listeners: l,
                disrupted: false,
                delivered: false,
            })
            .collect();
        let disrupted = DisruptionSet::empty(listeners.len() as u32);
        adv.observe(&RoundObservation {
            round,
            newly_activated: &[],
            actions: &[],
            nodes: &[],
            disrupted: &disrupted,
            deliveries: &[],
            activity: &activity,
            breaks: &[],
            tally: RoundTally::default(),
        });
    }

    #[test]
    fn targets_busiest_listener_frequencies() {
        let band = FrequencyBand::new(4);
        let mut adv = AdaptiveGreedyAdversary::new(2);
        observe_listeners(&mut adv, 0, &[1, 9, 2, 5]);
        let set = disrupt_into_empty(&mut adv, 1, band, &mut SimRng::from_seed(0));
        assert!(set.contains(Frequency::new(2)));
        assert!(set.contains(Frequency::new(4)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn empty_history_falls_back_to_random_with_budget() {
        let band = FrequencyBand::new(6);
        let mut adv = AdaptiveGreedyAdversary::new(3);
        let set = disrupt_into_empty(&mut adv, 0, band, &mut SimRng::from_seed(1));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn zero_budget_never_disrupts() {
        let band = FrequencyBand::new(3);
        let mut adv = AdaptiveGreedyAdversary::new(0);
        observe_listeners(&mut adv, 0, &[3, 3, 3]);
        assert!(disrupt_into_empty(&mut adv, 1, band, &mut SimRng::from_seed(0)).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every observed round the pick is the top `k` of the
        /// listener counts of the last 8 observed rounds, summed from
        /// scratch: the rolling window never drifts from the plain sum.
        #[test]
        fn rolling_window_matches_a_sum_from_scratch(
            width in 1usize..6,
            listeners in proptest::collection::vec(0u32..5, 54..150),
            budget in 0u32..60,
        ) {
            // More than 8 rounds at every width; budgets cover 0..=F.
            let rounds: Vec<&[u32]> = listeners.chunks_exact(width).collect();
            let t = budget % (width as u32 + 1);
            let band = FrequencyBand::new(width as u32);
            let mut adv = AdaptiveGreedyAdversary::new(t);
            for (round, counts) in rounds.iter().enumerate() {
                observe_listeners(&mut adv, round as u64, counts);
                let mut sums = vec![0u64; width];
                for row in rounds[..=round].iter().rev().take(LOOKBACK) {
                    for (sum, &l) in sums.iter_mut().zip(row.iter()) {
                        *sum += u64::from(l);
                    }
                }
                let weights: Vec<f64> = sums.iter().map(|&c| c as f64).collect();
                let mut expected = DisruptionSet::empty(width as u32);
                top_k_weights(&weights, t as usize, &mut Vec::new(), &mut expected);
                let picked =
                    disrupt_into_empty(&mut adv, round as u64 + 1, band, &mut SimRng::from_seed(0));
                prop_assert_eq!(picked, expected);
            }
        }
    }
}
