//! Oblivious adversaries: a fixed (possibly randomly pre-generated) schedule
//! of disruption sets.
//!
//! The Good Samaritan analysis (Section 7) models the adversary as
//! *oblivious*: "it can be described as a fixed sequence of probability
//! distributions over sets of frequencies to disrupt." A deterministic
//! schedule fixed before the execution starts is the canonical realization
//! of an oblivious adversary; [`ObliviousScheduleAdversary::random`]
//! pre-samples such a schedule from a seed.

use rand::seq::index::sample;
use serde::{Deserialize, Serialize};

use super::{Adversary, DisruptionSet};
use crate::frequency::{Frequency, FrequencyBand};
use crate::rng::SimRng;

/// An adversary that replays a fixed schedule of disruption sets.
///
/// Round `r` uses entry `r mod schedule.len()`; an empty schedule disrupts
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObliviousScheduleAdversary {
    /// Per-round sets of 1-based frequency indices to disrupt.
    schedule: Vec<Vec<u32>>,
}

impl ObliviousScheduleAdversary {
    /// Pre-samples a `length`-round schedule in which every round disrupts
    /// `t_actual` frequencies chosen uniformly at random, using `seed`.
    ///
    /// This is the canonical "oblivious adversary with actual disruption
    /// level `t' = t_actual`" used by the Good Samaritan experiments.
    pub fn random(seed: u64, length: usize, num_frequencies: u32, t_actual: u32) -> Self {
        let mut rng = SimRng::from_seed(seed);
        let k = (t_actual as usize).min(num_frequencies as usize);
        let schedule = (0..length)
            .map(|_| {
                if k == 0 {
                    Vec::new()
                } else {
                    sample(&mut rng, num_frequencies as usize, k)
                        .into_iter()
                        .map(|i| i as u32 + 1)
                        .collect()
                }
            })
            .collect();
        ObliviousScheduleAdversary { schedule }
    }
}

impl Adversary for ObliviousScheduleAdversary {
    fn disrupt(
        &mut self,
        round: u64,
        _band: FrequencyBand,
        _rng: &mut SimRng,
        disrupted: &mut DisruptionSet,
    ) {
        if self.schedule.is_empty() {
            return;
        }
        let idx = (round % self.schedule.len() as u64) as usize;
        for &f in self.schedule[idx].iter().filter(|&&f| f >= 1) {
            disrupted.insert(Frequency::new(f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;

    #[test]
    fn replays_explicit_schedule_cyclically() {
        let mut adv = ObliviousScheduleAdversary {
            schedule: vec![vec![1, 2], vec![3], Vec::new()],
        };
        let band = FrequencyBand::new(4);
        let mut rng = SimRng::from_seed(0);
        let r0 = disrupt_into_empty(&mut adv, 0, band, &mut rng);
        assert!(r0.contains(Frequency::new(1)) && r0.contains(Frequency::new(2)));
        let r1 = disrupt_into_empty(&mut adv, 1, band, &mut rng);
        assert_eq!(r1.len(), 1);
        assert!(disrupt_into_empty(&mut adv, 2, band, &mut rng).is_empty());
        // wraps around
        assert_eq!(disrupt_into_empty(&mut adv, 3, band, &mut rng), r0);
    }

    #[test]
    fn empty_schedule_is_harmless() {
        let mut adv = ObliviousScheduleAdversary {
            schedule: Vec::new(),
        };
        let band = FrequencyBand::new(4);
        assert!(disrupt_into_empty(&mut adv, 0, band, &mut SimRng::from_seed(0)).is_empty());
    }

    #[test]
    fn random_schedule_has_exact_intensity() {
        let mut adv = ObliviousScheduleAdversary::random(9, 64, 16, 5);
        let band = FrequencyBand::new(16);
        let mut rng = SimRng::from_seed(0);
        for round in 0..64 {
            assert_eq!(disrupt_into_empty(&mut adv, round, band, &mut rng).len(), 5);
        }
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let a = ObliviousScheduleAdversary::random(3, 32, 8, 2);
        let b = ObliviousScheduleAdversary::random(3, 32, 8, 2);
        assert_eq!(a, b);
        let c = ObliviousScheduleAdversary::random(4, 32, 8, 2);
        assert_ne!(a, c);
    }
}
