//! The weight-targeting adversary used by the Theorem 4 lower bound.
//!
//! In the proof of Theorem 4 the adversary knows, for each frequency `j`,
//! the probabilities `p_j` and `q_j` with which the two participating nodes
//! will select frequency `j` in the coming round (these are determined by
//! the protocol and the history, both known to the adversary), and it
//! disrupts the `t` frequencies with the largest products `p_j·q_j`.
//!
//! [`TopWeightAdversary`] is the general mechanism: it jams the `t`
//! frequencies with the largest externally supplied weights, fixed at
//! construction, which models a protocol with a fixed per-round
//! distribution (the catalogue's `top-weight` takes them as `weights`,
//! defaulting to uniform). The analysis crate's two-node game
//! (`wsync-analysis::two_node`) computes its own per-round products
//! rather than driving this adversary.

use serde::{Deserialize, Serialize};

use super::{top_k_weights, Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::history::History;
use crate::rng::SimRng;

/// Jams the `t` frequencies with the largest weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopWeightAdversary {
    t: u32,
    weights: Vec<f64>,
}

impl TopWeightAdversary {
    /// Creates an adversary with budget `t` and the given per-frequency
    /// weights (index 0 is frequency 1). Missing weights are treated as 0.
    pub fn new(t: u32, weights: Vec<f64>) -> Self {
        TopWeightAdversary { t, weights }
    }

    /// Creates an adversary appropriate for the Theorem 4 game against a
    /// protocol that picks frequencies uniformly from `[1..=F]`: all weights
    /// are equal, so the adversary simply jams the `t` lowest-indexed
    /// frequencies (any `t` frequencies are equally good against a uniform
    /// distribution).
    pub fn against_uniform(t: u32, num_frequencies: u32) -> Self {
        TopWeightAdversary {
            t,
            weights: vec![1.0; num_frequencies as usize],
        }
    }
}

impl Adversary for TopWeightAdversary {
    fn budget(&self) -> u32 {
        self.t
    }

    fn max_lookback(&self) -> Option<usize> {
        Some(0)
    }

    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        _history: &History,
        _rng: &mut SimRng,
    ) -> DisruptionSet {
        let k = (self.t as usize).min(band.count() as usize);
        if k == 0 {
            return DisruptionSet::empty(band.count());
        }
        let mut weights = self.weights.clone();
        weights.resize(band.count() as usize, 0.0);
        top_k_weights(&weights, k, band.count())
    }

    fn name(&self) -> &'static str {
        "top-weight"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequency::Frequency;

    #[test]
    fn jams_largest_weights() {
        let mut adv = TopWeightAdversary::new(2, vec![0.1, 0.4, 0.3, 0.9]);
        let band = FrequencyBand::new(4);
        let set = adv.disrupt(0, band, &History::new(), &mut SimRng::from_seed(0));
        assert!(set.contains(Frequency::new(4)));
        assert!(set.contains(Frequency::new(2)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn against_uniform_jams_prefix() {
        let mut adv = TopWeightAdversary::against_uniform(3, 8);
        let band = FrequencyBand::new(8);
        let set = adv.disrupt(0, band, &History::new(), &mut SimRng::from_seed(0));
        assert_eq!(set.len(), 3);
        assert!(set.contains(Frequency::new(1)));
        assert!(set.contains(Frequency::new(2)));
        assert!(set.contains(Frequency::new(3)));
    }

    #[test]
    fn short_weight_vector_padded_with_zero() {
        let mut adv = TopWeightAdversary::new(2, vec![0.5]);
        let band = FrequencyBand::new(4);
        let set = adv.disrupt(0, band, &History::new(), &mut SimRng::from_seed(0));
        assert!(set.contains(Frequency::new(1)));
        assert_eq!(set.len(), 2);
    }
}
