//! The static adversary that always disrupts a fixed prefix of the band.

use serde::{Deserialize, Serialize};

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::rng::SimRng;

/// Disrupts frequencies `1..=t` in every round.
///
/// This is exactly the "weak adversary" used in the proof of Theorem 1
/// ("disrupts frequencies 1 to t in every round"); it also models a static
/// narrowband interferer permanently occupying part of the band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedBandAdversary {
    t: u32,
}

impl FixedBandAdversary {
    /// Creates an adversary that always disrupts frequencies `1..=t`.
    pub fn new(t: u32) -> Self {
        FixedBandAdversary { t }
    }
}

impl Adversary for FixedBandAdversary {
    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        _rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        for f in 1..=self.t.min(band.count()) {
            disrupted.insert(Frequency::new(f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;

    #[test]
    fn disrupts_exactly_the_prefix() {
        let mut adv = FixedBandAdversary::new(3);
        let band = FrequencyBand::new(8);
        let mut rng = SimRng::from_seed(0);
        let set = disrupt_into_empty(&mut adv, 0, band, &mut rng);
        assert_eq!(set.len(), 3);
        for f in 1..=3 {
            assert!(set.contains(Frequency::new(f)));
        }
        for f in 4..=8 {
            assert!(!set.contains(Frequency::new(f)));
        }
    }

    #[test]
    fn budget_larger_than_band_is_clamped() {
        let mut adv = FixedBandAdversary::new(100);
        let band = FrequencyBand::new(4);
        let set = disrupt_into_empty(&mut adv, 0, band, &mut SimRng::from_seed(1));
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn zero_budget_disrupts_nothing() {
        let mut adv = FixedBandAdversary::new(0);
        let band = FrequencyBand::new(4);
        let set = disrupt_into_empty(&mut adv, 5, band, &mut SimRng::from_seed(1));
        assert!(set.is_empty());
    }

    #[test]
    fn same_set_every_round() {
        let mut adv = FixedBandAdversary::new(2);
        let band = FrequencyBand::new(6);
        let mut rng = SimRng::from_seed(3);
        let first = disrupt_into_empty(&mut adv, 0, band, &mut rng);
        for round in 1..10 {
            assert_eq!(disrupt_into_empty(&mut adv, round, band, &mut rng), first);
        }
    }
}
