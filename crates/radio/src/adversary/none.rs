//! The trivial adversary that never disrupts anything.

use serde::{Deserialize, Serialize};

use super::{Adversary, DisruptionSet};
use crate::frequency::FrequencyBand;
use crate::rng::SimRng;

/// An adversary that disrupts nothing. Models an interference-free band and
/// serves as the best-case baseline in experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoAdversary;

impl NoAdversary {
    /// Creates the no-op adversary.
    pub fn new() -> Self {
        NoAdversary
    }
}

impl Adversary for NoAdversary {
    fn disrupt(
        &mut self,
        _round: u64,
        _band: FrequencyBand,
        _rng: &mut SimRng,
        _disrupted: &mut DisruptionSet,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::super::disrupt_into_empty;
    use super::*;

    #[test]
    fn never_disrupts() {
        let mut adv = NoAdversary::new();
        let band = FrequencyBand::new(8);
        let mut rng = SimRng::from_seed(0);
        for round in 0..20 {
            let set = disrupt_into_empty(&mut adv, round, band, &mut rng);
            assert!(set.is_empty());
        }
    }
}
