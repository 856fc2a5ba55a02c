//! Interference adversaries.
//!
//! The model (Section 2) captures all sources of disruption — unrelated
//! protocols on the same band, electromagnetic noise, or literal jammers —
//! as a single adversary that may disrupt up to `t < F` frequencies per
//! round, choosing its behaviour for round `r` from the completed execution
//! through round `r − 1`.
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
//! | [`TopWeightAdversary`] | jams the `t` frequencies with the largest externally supplied weights; the Theorem 4 lower-bound adversary uses it with weights `p_j·q_j` |

use crate::frequency::{Frequency, FrequencyBand};
use crate::history::History;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

mod adaptive_greedy;
mod bursty;
mod fixed_band;
mod none;
mod oblivious;
mod product;
mod random_set;
mod sweep;

pub use adaptive_greedy::{AdaptiveGreedyAdversary, GreedyTarget};
pub use bursty::BurstyAdversary;
pub use fixed_band::FixedBandAdversary;
pub use none::NoAdversary;
pub use oblivious::ObliviousScheduleAdversary;
pub use product::TopWeightAdversary;
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
    pub fn truncate_to_budget(&mut self, budget: usize) -> usize {
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
/// Implementations are driven by the engine once per round, *before* the
/// round's node actions are known (matching the model's information rule).
pub trait Adversary {
    /// The maximum number of frequencies this adversary will disrupt per
    /// round (the model's `t`). The engine also clamps to the configured
    /// bound, so returning a larger number here cannot break the model.
    fn budget(&self) -> u32;

    /// How many completed rounds of [`History`] this adversary inspects at
    /// most per [`disrupt`](Adversary::disrupt) call (its maximum
    /// lookback).
    ///
    /// The engine derives its history retention window from this demand
    /// plus the attached probes' (see
    /// [`HistoryRetention::Demand`](crate::engine::HistoryRetention)):
    /// `Some(0)` — the right answer for an adversary that never reads the
    /// history — lets outcome-only runs hold O(1) round state. The default
    /// is `None`, meaning "unknown": the engine then retains the *full*
    /// history, which is always behaviour-safe but grows with
    /// `max_rounds × F` — implement this honestly (or configure an
    /// explicit retention window) before running such an adversary for
    /// millions of rounds. An implementation that overrides this must
    /// never read further back than it declares.
    fn max_lookback(&self) -> Option<usize> {
        None
    }

    /// Chooses the set of frequencies to disrupt in `round`, given the
    /// completed execution `history` (through round `round − 1`).
    fn disrupt(
        &mut self,
        round: u64,
        band: FrequencyBand,
        history: &History,
        rng: &mut SimRng,
    ) -> DisruptionSet;

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "adversary"
    }
}

/// Utility used by several adversaries: select the indices of the `t`
/// largest weights (ties broken towards lower indices), returned as a
/// [`DisruptionSet`].
pub(crate) fn top_k_weights(weights: &[f64], k: usize, num_frequencies: u32) -> DisruptionSet {
    let mut idx: Vec<usize> = (0..weights.len()).collect();
    idx.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    DisruptionSet::from_frequencies(
        num_frequencies,
        idx.into_iter().take(k).map(Frequency::from_zero_based),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn top_k_selects_largest_weights() {
        let w = [0.1, 0.9, 0.5, 0.9, 0.0];
        let s = top_k_weights(&w, 2, 5);
        // the two largest are indices 1 and 3 (tie broken to lower index first,
        // but both are selected here)
        assert!(s.contains(Frequency::new(2)));
        assert!(s.contains(Frequency::new(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn top_k_with_zero_k_is_empty() {
        let s = top_k_weights(&[1.0, 2.0], 0, 2);
        assert!(s.is_empty());
    }
}
