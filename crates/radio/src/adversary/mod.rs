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
/// Stored as a bitset over the band — bit `i % 64` of word `i / 64` marks
/// the 0-based frequency `i` — plus a count of the set bits. `insert`,
/// `contains` and `len` are O(1) bit operations; `iter`, `clear` and
/// `truncate_to_budget` walk the ⌈F/64⌉ words (at most 32 for any band in
/// this workspace), visiting set bits in ascending order with
/// `trailing_zeros`, so nothing in the per-round disruption bookkeeping
/// looks at the band one frequency at a time.
///
/// Invariant: `len` is the number of set bits in `words`, and no bit at
/// or above `num_frequencies` is set. So a set has exactly one
/// representation, and the derived `PartialEq` agrees with set equality.
///
/// The engine owns one set for the whole execution: it empties the set at
/// the top of every round and hands it to [`Adversary::disrupt`] to fill,
/// so choosing a round's disruptions never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisruptionSet {
    words: Vec<u64>,
    len: usize,
    num_frequencies: u32,
}

impl DisruptionSet {
    /// An empty disruption set for a band of `num_frequencies` frequencies.
    pub fn empty(num_frequencies: u32) -> Self {
        DisruptionSet {
            words: vec![0; (num_frequencies as usize).div_ceil(64)],
            len: 0,
            num_frequencies,
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

    /// Whether the 0-based frequency index `i` is in the set.
    fn has(&self, i: usize) -> bool {
        i < self.num_frequencies as usize && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Marks `f` as disrupted (no-op if `f` is outside the band).
    pub fn insert(&mut self, f: Frequency) {
        let i = f.as_zero_based();
        if i < self.num_frequencies as usize {
            let word = &mut self.words[i / 64];
            let bit = 1 << (i % 64);
            if *word & bit == 0 {
                *word |= bit;
                self.len += 1;
            }
        }
    }

    /// Inserts `amount` distinct frequencies drawn uniformly from the band
    /// by Floyd's combination algorithm. The set must arrive empty: it is
    /// Floyd's membership test, so the draws are the same
    /// `gen_range(0..j + 1)` calls, in the same order, as
    /// `rand::seq::index::sample(rng, F, amount)` makes, and the set holds
    /// the frequencies that call returns.
    ///
    /// # Panics
    ///
    /// Panics if `amount` exceeds the band.
    pub(crate) fn insert_sample(&mut self, amount: usize, rng: &mut SimRng) {
        debug_assert!(self.is_empty(), "Floyd's draw needs an empty set");
        let length = self.num_frequencies as usize;
        assert!(
            amount <= length,
            "cannot sample {amount} distinct frequencies from a band of {length}"
        );
        for j in length - amount..length {
            let pick = rng.gen_range(0..j + 1);
            let pick = if self.has(pick) { j } else { pick };
            self.insert(Frequency::from_zero_based(pick));
        }
    }

    /// Empties the set in O(⌈F/64⌉).
    #[inline]
    pub(crate) fn clear(&mut self) {
        if self.len != 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// Returns `true` if `f` is disrupted.
    pub fn contains(&self, f: Frequency) -> bool {
        self.has(f.as_zero_based())
    }

    /// Number of disrupted frequencies.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no frequency is disrupted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the disrupted frequencies in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Frequency::from_zero_based(w * 64 + bit)
                })
            })
        })
    }

    /// The bitset's words: bit `i % 64` of word `i / 64` is the 0-based
    /// frequency `i`.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Truncates the set to at most `budget` disrupted frequencies, keeping
    /// the lowest-indexed ones, and returns how many it removed. The engine
    /// uses this to enforce the model's bound `t` even against a buggy
    /// adversary implementation.
    #[inline]
    pub(crate) fn truncate_to_budget(&mut self, budget: usize) -> usize {
        if self.len <= budget {
            return 0;
        }
        let mut keep = budget;
        for word in &mut self.words {
            let ones = word.count_ones() as usize;
            if ones <= keep {
                keep -= ones;
                continue;
            }
            // Clear the `keep` lowest set bits of a copy: what is left is
            // exactly the bits to drop.
            let mut dropped = *word;
            for _ in 0..keep {
                dropped &= dropped - 1;
            }
            *word ^= dropped;
            keep = 0;
        }
        let removed = self.len - budget;
        self.len = budget;
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
        /// state — on one-word bands and on bands of two and three words.
        #[test]
        fn floyd_draw_matches_index_sample(seed in any::<u64>()) {
            for f in (1..=66usize).chain([127, 128, 129, 130]) {
                for k in 0..=f {
                    let mut sampled_rng = SimRng::from_seed(seed ^ ((f as u64) << 8) ^ k as u64);
                    let mut set_rng = sampled_rng.clone();
                    let mut expected: Vec<u32> = rand::seq::index::sample(&mut sampled_rng, f, k)
                        .into_iter()
                        .map(|i| i as u32 + 1)
                        .collect();
                    expected.sort_unstable();
                    let mut set = DisruptionSet::empty(f as u32);
                    set.insert_sample(k, &mut set_rng);
                    let drawn: Vec<u32> = set.iter().map(Frequency::index).collect();
                    prop_assert_eq!(drawn, expected);
                    prop_assert_eq!(set.len(), k);
                    prop_assert_eq!(set_rng.gen::<u64>(), sampled_rng.gen::<u64>());
                }
            }
        }

        /// The bitset behaves as a `BTreeSet` of 0-based indices under any
        /// sequence of inserts (in and out of the band), truncations and
        /// clears, on bands of one, two and three words.
        #[test]
        fn disruption_set_matches_a_btree_set(
            ops in proptest::collection::vec((0u32..8, 0u32..140), 0..120),
        ) {
            for f in [1u32, 63, 64, 65, 130] {
                let mut set = DisruptionSet::empty(f);
                let mut model = std::collections::BTreeSet::new();
                for &(op, value) in &ops {
                    match op {
                        0 => {
                            let budget = (value % 70) as usize;
                            let removed = set.truncate_to_budget(budget);
                            let before = model.len();
                            model = model.into_iter().take(budget).collect();
                            prop_assert_eq!(removed, before - model.len());
                        }
                        1 if value % 16 == 0 => {
                            set.clear();
                            model.clear();
                        }
                        _ => {
                            set.insert(Frequency::from_zero_based(value as usize));
                            if value < f {
                                model.insert(value);
                            }
                        }
                    }
                    prop_assert_eq!(set.len(), model.len());
                    prop_assert_eq!(set.is_empty(), model.is_empty());
                    let listed: Vec<u32> = set.iter().map(|q| q.index() - 1).collect();
                    let expected: Vec<u32> = model.iter().copied().collect();
                    prop_assert_eq!(listed, expected);
                    for probe in [0, value, f.saturating_sub(1), f, f + 1] {
                        prop_assert_eq!(
                            set.contains(Frequency::from_zero_based(probe as usize)),
                            model.contains(&probe)
                        );
                    }
                }
                let rebuilt = DisruptionSet::from_frequencies(
                    f,
                    model.iter().map(|&i| Frequency::from_zero_based(i as usize)),
                );
                prop_assert_eq!(set, rebuilt);
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
