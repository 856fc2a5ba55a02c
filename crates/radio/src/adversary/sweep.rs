//! A swept-frequency jammer.

use serde::{Deserialize, Serialize};

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::rng::SimRng;

/// Disrupts a contiguous window of `t` frequencies that slides across the
/// band by one frequency per round, wrapping around at the end. Models a
/// swept-frequency jammer or a frequency-hopping interferer with a
/// predictable pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepAdversary {
    t: u32,
}

impl SweepAdversary {
    /// Creates a sweeping adversary with window size `t`.
    pub fn new(t: u32) -> Self {
        SweepAdversary { t }
    }
}

impl Adversary for SweepAdversary {
    fn disrupt(
        &mut self,
        round: u64,
        band: FrequencyBand,
        _rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        let f = band.count();
        let start = (round % u64::from(f)) as u32;
        for i in 0..self.t.min(f) {
            disrupted.insert(Frequency::from_zero_based(((start + i) % f) as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;

    fn freqs(set: &DisruptionSet) -> Vec<u32> {
        set.iter().map(Frequency::index).collect()
    }

    #[test]
    fn window_slides_one_per_round() {
        let mut adv = SweepAdversary::new(2);
        let band = FrequencyBand::new(5);
        let mut rng = SimRng::from_seed(0);
        let mut disrupt = |round| freqs(&disrupt_into_empty(&mut adv, round, band, &mut rng));
        assert_eq!(disrupt(0), vec![1, 2]);
        assert_eq!(disrupt(1), vec![2, 3]);
        assert_eq!(disrupt(4), vec![1, 5]); // wraps
    }

    #[test]
    fn budget_respected_and_clamped() {
        let mut adv = SweepAdversary::new(10);
        let band = FrequencyBand::new(4);
        let set = disrupt_into_empty(&mut adv, 0, band, &mut SimRng::from_seed(0));
        assert_eq!(set.len(), 4);
    }
}
