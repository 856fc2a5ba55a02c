//! The adversary that jams a fresh uniformly random set of frequencies each
//! round.

use serde::{Deserialize, Serialize};

use super::{Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::rng::SimRng;

/// Disrupts `t` frequencies chosen uniformly at random (without replacement)
/// in every round. Models wideband unpredictable noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomAdversary {
    t: u32,
}

impl RandomAdversary {
    /// Creates an adversary disrupting `t` random frequencies per round.
    pub fn new(t: u32) -> Self {
        RandomAdversary { t }
    }
}

impl Adversary for RandomAdversary {
    fn disrupt(
        &mut self,
        _round: u64,
        band: FrequencyBand,
        rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        disrupted.insert_sample((self.t as usize).min(band.count() as usize), rng);
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;
    use crate::frequency::Frequency;

    #[test]
    fn always_exactly_t_distinct_frequencies() {
        let mut adv = RandomAdversary::new(3);
        let band = FrequencyBand::new(10);
        let mut rng = SimRng::from_seed(11);
        for round in 0..50 {
            let set = disrupt_into_empty(&mut adv, round, band, &mut rng);
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn t_zero_and_t_exceeding_band() {
        let band = FrequencyBand::new(4);
        let mut rng = SimRng::from_seed(1);
        assert!(disrupt_into_empty(&mut RandomAdversary::new(0), 0, band, &mut rng).is_empty());
        assert_eq!(
            disrupt_into_empty(&mut RandomAdversary::new(10), 0, band, &mut rng).len(),
            4
        );
    }

    #[test]
    fn varies_between_rounds() {
        let mut adv = RandomAdversary::new(2);
        let band = FrequencyBand::new(16);
        let mut rng = SimRng::from_seed(5);
        let sets: Vec<DisruptionSet> = (0..20)
            .map(|r| disrupt_into_empty(&mut adv, r, band, &mut rng))
            .collect();
        let all_same = sets.iter().all(|s| *s == sets[0]);
        assert!(!all_same, "random adversary should vary its targets");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let band = FrequencyBand::new(8);
        let run = |seed: u64| -> Vec<Vec<u32>> {
            let mut adv = RandomAdversary::new(3);
            let mut rng = SimRng::from_seed(seed);
            (0..10)
                .map(|r| {
                    disrupt_into_empty(&mut adv, r, band, &mut rng)
                        .iter()
                        .map(Frequency::index)
                        .collect()
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
