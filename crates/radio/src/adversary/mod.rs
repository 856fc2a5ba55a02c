//! Interference adversaries.
//!
//! The model (Section 2) captures all sources of disruption — unrelated
//! protocols on the same band, electromagnetic noise, or literal jammers —
//! as a single adversary that may disrupt up to `t < F` frequencies per
//! round, choosing its behaviour for round `r` from the completed execution
//! through round `r − 1`. The engine streams that execution to the
//! adversary one resolved round at a time through [`Adversary::observe`].
//!
//! The adversaries provided here cover the specific adversaries used in the
//! paper's analysis and a range of realistic interference patterns:
//!
//! | Type | Paper role / real-world analogue |
//! |---|---|
//! | [`NoAdversary`] | undisrupted band |
//! | [`FixedBandAdversary`] | the "weak adversary" of Theorem 1 (always disrupts frequencies `1..=t`); also models a co-located static interferer such as an analogue video sender |
//! | [`RandomAdversary`] | wideband random noise (microwave-oven-style) |
//! | [`SweepAdversary`] | a swept-frequency jammer |
//! | [`BurstyAdversary`] | bursty interference (e.g. periodic Wi-Fi beacons / microwave duty cycle) |
//! | [`AdaptiveGreedyAdversary`] | an adaptive jammer targeting the historically busiest frequencies |
//! | [`ObliviousScheduleAdversary`] | an arbitrary oblivious adversary — a fixed sequence of disruption sets, as assumed by the Good Samaritan analysis (Section 7) |
//!
//! The Theorem 4 lower-bound adversary (jam the `t` largest products
//! `p_j·q_j`) is played in closed form by `wsync-analysis::two_node`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::frequency::{Frequency, FrequencyBand};
use crate::rng::SimRng;
use crate::trace::RoundObservation;

mod adaptive_greedy;
mod bursty;
mod fixed_band;
mod none;
mod oblivious;
mod random_set;
mod sweep;

pub use adaptive_greedy::AdaptiveGreedyAdversary;
pub use bursty::BurstyAdversary;
pub use fixed_band::FixedBandAdversary;
pub use none::NoAdversary;
pub use oblivious::ObliviousScheduleAdversary;
pub use random_set::RandomAdversary;
pub use sweep::SweepAdversary;

/// The set of frequencies disrupted in one round.
///
/// Stored as a boolean mask over the band (so membership queries during
/// round resolution are O(1)) *plus* a sorted index list of the disrupted
/// frequencies, so that `len`, `iter`, and `truncate_to_budget` cost
/// O(t) — the number of disrupted frequencies — rather than O(F). The
/// sparse-activity engine relies on this: with at most `t ≪ F` disrupted
/// frequencies per round, nothing in the per-round disruption bookkeeping
/// scans the whole band.
///
/// Invariant: `indices` is the sorted, duplicate-free list of exactly the
/// 0-based frequency indices whose `mask` slot is `true`. Because the list
/// is canonical, the derived `PartialEq` (which compares both fields)
/// agrees with set equality.
///
/// The engine owns one set for the whole execution: it empties the set at
/// the top of every round (through `indices`, so in O(t)) and hands it to
/// [`Adversary::disrupt`] to fill, so choosing a round's disruptions
/// allocates nothing once the index list has grown to the budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisruptionSet {
    mask: Vec<bool>,
    indices: Vec<u32>,
}

impl DisruptionSet {
    /// An empty disruption set for a band of `num_frequencies` frequencies.
    pub fn empty(num_frequencies: u32) -> Self {
        DisruptionSet {
            mask: vec![false; num_frequencies as usize],
            indices: Vec::new(),
        }
    }

    /// Builds a set from an iterator of frequencies. Frequencies outside the
    /// band are ignored.
    pub fn from_frequencies<I: IntoIterator<Item = Frequency>>(
        num_frequencies: u32,
        freqs: I,
    ) -> Self {
        let mut set = DisruptionSet::empty(num_frequencies);
        for f in freqs {
            set.insert(f);
        }
        set
    }

    /// Marks `f` as disrupted (no-op if `f` is outside the band).
    pub fn insert(&mut self, f: Frequency) {
        let i = f.as_zero_based();
        if let Some(slot) = self.mask.get_mut(i) {
            if !*slot {
                *slot = true;
                let i = i as u32;
                match self.indices.binary_search(&i) {
                    Ok(_) => {}
                    Err(pos) => self.indices.insert(pos, i),
                }
            }
        }
    }

    /// Inserts `amount` distinct frequencies drawn uniformly from the band
    /// by Floyd's combination algorithm. The set must arrive empty: its
    /// mask is Floyd's membership test, so the draws are the same
    /// `gen_range(0..j + 1)` calls, in the same order, as
    /// `rand::seq::index::sample(rng, F, amount)` makes, and the set holds
    /// the frequencies that call returns.
    ///
    /// # Panics
    ///
    /// Panics if `amount` exceeds the band.
    pub(crate) fn insert_sample(&mut self, amount: usize, rng: &mut SimRng) {
        debug_assert!(self.is_empty(), "Floyd's draw needs an empty set");
        let length = self.mask.len();
        assert!(
            amount <= length,
            "cannot sample {amount} distinct frequencies from a band of {length}"
        );
        for j in length - amount..length {
            let pick = rng.gen_range(0..j + 1);
            let pick = if self.mask[pick] { j } else { pick };
            self.insert(Frequency::from_zero_based(pick));
        }
    }

    /// Empties the set in O(t): only the mask slots `indices` lists are
    /// reset.
    pub(crate) fn clear(&mut self) {
        for &i in &self.indices {
            self.mask[i as usize] = false;
        }
        self.indices.clear();
    }

    /// Returns `true` if `f` is disrupted.
    pub fn contains(&self, f: Frequency) -> bool {
        self.mask.get(f.as_zero_based()).copied().unwrap_or(false)
    }

    /// Number of disrupted frequencies.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` if no frequency is disrupted.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates over the disrupted frequencies in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.indices
            .iter()
            .map(|&i| Frequency::from_zero_based(i as usize))
    }

    /// The sorted 0-based indices of the disrupted frequencies.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The underlying mask, indexed by 0-based frequency index.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Truncates the set to at most `budget` disrupted frequencies, keeping
    /// the lowest-indexed ones. The engine uses this to enforce the model's
    /// bound `t` even against a buggy adversary implementation.
    pub(crate) fn truncate_to_budget(&mut self, budget: usize) -> usize {
        if self.indices.len() <= budget {
            return 0;
        }
        let removed = self.indices.len() - budget;
        for &i in &self.indices[budget..] {
            self.mask[i as usize] = false;
        }
        self.indices.truncate(budget);
        removed
    }
}

/// An interference adversary.
///
/// The engine drives it twice per round. [`disrupt`](Adversary::disrupt)
/// runs *before* the round's node actions are known; once the round has
/// resolved, [`observe`](Adversary::observe) sees the same borrowed
/// [`RoundObservation`] every probe sees. So when the adversary chooses
/// round `r`'s disruptions it has observed exactly rounds `0..r − 1`:
/// the model's information rule, enforced by call order.
pub trait Adversary {
    /// Observes one completed round. The observation borrows the engine's
    /// per-round buffers, so an adversary that adapts to the execution
    /// copies what it keeps. The default ignores the round, as every
    /// oblivious adversary does.
    fn observe(&mut self, _round: &RoundObservation<'_>) {}

    /// Chooses the frequencies to disrupt in `round` by inserting them into
    /// `disrupted`. The set arrives empty and sized to `band`; the engine
    /// owns it and reuses it every round.
    fn disrupt(
        &mut self,
        round: u64,
        band: FrequencyBand,
        rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    );
}

/// Inserts the indices of the `k` largest weights (ties broken towards
/// lower indices) into `disrupted`: the adaptive-greedy adversary's target
/// choice. `order` is a reusable index buffer; the comparison is a total
/// order, so the in-place unstable sort picks the same indices a stable
/// sort would.
pub(crate) fn top_k_weights(
    weights: &[f64],
    k: usize,
    order: &mut Vec<usize>,
    disrupted: &mut DisruptionSet,
) {
    order.clear();
    order.extend(0..weights.len());
    order.sort_unstable_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &i in order.iter().take(k) {
        disrupted.insert(Frequency::from_zero_based(i));
    }
}

/// Runs one `disrupt` call into a fresh set, as the engine's emptied set
/// arrives.
#[cfg(test)]
pub(crate) fn disrupt_into_empty(
    adversary: &mut dyn Adversary,
    round: u64,
    band: FrequencyBand,
    rng: &mut SimRng,
) -> DisruptionSet {
    let mut disrupted = DisruptionSet::empty(band.count());
    adversary.disrupt(round, band, rng, &mut disrupted);
    disrupted
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disruption_set_basic_operations() {
        let mut s = DisruptionSet::empty(4);
        assert!(s.is_empty());
        s.insert(Frequency::new(2));
        s.insert(Frequency::new(4));
        s.insert(Frequency::new(9)); // outside band: ignored
        assert_eq!(s.len(), 2);
        assert!(s.contains(Frequency::new(2)));
        assert!(!s.contains(Frequency::new(1)));
        assert!(!s.contains(Frequency::new(9)));
        let listed: Vec<u32> = s.iter().map(Frequency::index).collect();
        assert_eq!(listed, vec![2, 4]);
    }

    #[test]
    fn from_frequencies_builder() {
        let s = DisruptionSet::from_frequencies(5, [Frequency::new(1), Frequency::new(5)]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Frequency::new(5)));
    }

    #[test]
    fn truncate_to_budget_keeps_lowest() {
        let mut s =
            DisruptionSet::from_frequencies(6, [1u32, 3, 4, 6].into_iter().map(Frequency::new));
        let removed = s.truncate_to_budget(2);
        assert_eq!(removed, 2);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Frequency::new(1)));
        assert!(s.contains(Frequency::new(3)));
        assert!(!s.contains(Frequency::new(6)));
    }

    #[test]
    fn truncate_noop_when_within_budget() {
        let mut s = DisruptionSet::from_frequencies(4, [Frequency::new(2)]);
        assert_eq!(s.truncate_to_budget(3), 0);
        assert_eq!(s.len(), 1);
    }

    fn top_k(weights: &[f64], k: usize) -> DisruptionSet {
        let mut s = DisruptionSet::empty(weights.len() as u32);
        top_k_weights(weights, k, &mut Vec::new(), &mut s);
        s
    }

    #[test]
    fn top_k_selects_largest_weights() {
        let w = [0.1, 0.9, 0.5, 0.9, 0.0];
        let s = top_k(&w, 2);
        // the two largest are indices 1 and 3 (tie broken to lower index first,
        // but both are selected here)
        assert!(s.contains(Frequency::new(2)));
        assert!(s.contains(Frequency::new(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn top_k_with_zero_k_is_empty() {
        let s = top_k(&[1.0, 2.0], 0);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets_every_inserted_slot() {
        let mut s =
            DisruptionSet::from_frequencies(8, [2u32, 5, 8].into_iter().map(Frequency::new));
        s.clear();
        assert_eq!(s, DisruptionSet::empty(8));
        s.insert(Frequency::new(3));
        assert_eq!(s, DisruptionSet::from_frequencies(8, [Frequency::new(3)]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The set's Floyd draw is `rand::seq::index::sample`'s: the same
        /// indices from the same RNG state, leaving the RNG in the same
        /// state.
        #[test]
        fn floyd_draw_matches_index_sample(seed in any::<u64>()) {
            for f in 1..64usize {
                for k in 0..=f {
                    let mut sampled_rng = SimRng::from_seed(seed ^ ((f as u64) << 8) ^ k as u64);
                    let mut set_rng = sampled_rng.clone();
                    let mut expected: Vec<u32> = rand::seq::index::sample(&mut sampled_rng, f, k)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect();
                    expected.sort_unstable();
                    let mut set = DisruptionSet::empty(f as u32);
                    set.insert_sample(k, &mut set_rng);
                    prop_assert_eq!(set.indices(), expected.as_slice());
                    prop_assert_eq!(set_rng.gen::<u64>(), sampled_rng.gen::<u64>());
                }
            }
        }

        /// The in-place top-k selection picks what a stable sort of the
        /// indices by descending weight would.
        #[test]
        fn top_k_matches_a_stable_sort(
            counts in proptest::collection::vec(0u64..4, 1..40),
            k in 0usize..40,
        ) {
            let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let k = k.min(weights.len());
            let mut order: Vec<usize> = (0..weights.len()).collect();
            order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());
            let expected = DisruptionSet::from_frequencies(
                weights.len() as u32,
                order.into_iter().take(k).map(Frequency::from_zero_based),
            );
            prop_assert_eq!(top_k(&weights, k), expected);
        }
    }
}
