//! Activation schedules: when the adversary wakes each node up.
//!
//! Per the model (Section 2), all nodes begin inactive and "at the beginning
//! of each round, an adversary chooses which, if any, of the inactive nodes
//! to activate". An activation schedule is the simulator's description of
//! that choice: given the number of participants `n`, it produces one
//! activation round per node.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// A rule assigning each of the `n` participating nodes an activation round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActivationSchedule {
    /// All nodes are activated in round 0. This is the "good execution"
    /// assumption of the Good Samaritan analysis and of the Theorem 1
    /// weak adversary.
    Simultaneous,
    /// Node `i` is activated in round `i · gap` (saturating: a round past
    /// `u64::MAX` is `u64::MAX`, which no round cap reaches).
    Staggered {
        /// Rounds between consecutive activations.
        gap: u64,
    },
    /// Nodes are activated in consecutive batches: the `i`-th batch of
    /// `batch_size` nodes wakes at round `i · gap` (saturating, like
    /// [`Staggered`](ActivationSchedule::Staggered)).
    Batches {
        /// Number of nodes activated together.
        batch_size: usize,
        /// Rounds between consecutive batches.
        gap: u64,
    },
    /// Each node is activated at a round drawn independently and uniformly
    /// at random from `[0, window)`.
    UniformWindow {
        /// Length of the arrival window in rounds.
        window: u64,
    },
    /// Nodes arrive one after another with independent geometric
    /// inter-arrival times with the given expected gap (a discrete analogue
    /// of Poisson arrivals).
    Poisson {
        /// Expected number of rounds between consecutive arrivals.
        mean_gap: f64,
    },
    /// All nodes except the last are activated in round 0; the last node is
    /// activated at round `late`. A worst-case-style pattern that forces a
    /// late joiner to be brought up to speed.
    LateJoiner {
        /// Activation round of the late node.
        late: u64,
    },
    /// Explicit per-node activation rounds. If shorter than `n`, the last
    /// entry is reused; if empty, all nodes activate at round 0.
    Explicit(Vec<u64>),
}

impl ActivationSchedule {
    /// Produces the activation round for each of the `n` nodes.
    ///
    /// Randomized schedules draw from `rng`; deterministic schedules ignore
    /// it. The result is not sorted — index `i` is the activation round of
    /// node `i`.
    pub fn activation_rounds(&self, n: usize, rng: &mut SimRng) -> Vec<u64> {
        match self {
            ActivationSchedule::Simultaneous => vec![0; n],
            ActivationSchedule::Staggered { gap } => {
                (0..n as u64).map(|i| i.saturating_mul(*gap)).collect()
            }
            ActivationSchedule::Batches { batch_size, gap } => {
                let bs = (*batch_size).max(1) as u64;
                (0..n as u64)
                    .map(|i| (i / bs).saturating_mul(*gap))
                    .collect()
            }
            ActivationSchedule::UniformWindow { window } => {
                if *window == 0 {
                    vec![0; n]
                } else {
                    (0..n).map(|_| rng.gen_range(0..*window)).collect()
                }
            }
            ActivationSchedule::Poisson { mean_gap } => {
                let mean = mean_gap.max(0.0);
                let p = if mean <= 0.0 { 1.0 } else { 1.0 / (mean + 1.0) };
                let mut round = 0u64;
                (0..n)
                    .map(|_| {
                        let current = round;
                        // geometric inter-arrival with success probability p
                        let mut gap = 0u64;
                        while rng.gen::<f64>() > p && gap < 1_000_000 {
                            gap += 1;
                        }
                        round = round.saturating_add(gap);
                        current
                    })
                    .collect()
            }
            ActivationSchedule::LateJoiner { late } => {
                let mut rounds = vec![0; n];
                if let Some(last) = rounds.last_mut() {
                    *last = *late;
                }
                rounds
            }
            ActivationSchedule::Explicit(rounds) => {
                if rounds.is_empty() {
                    return vec![0; n];
                }
                (0..n)
                    .map(|i| *rounds.get(i).unwrap_or_else(|| rounds.last().unwrap()))
                    .collect()
            }
        }
    }

    /// A short human-readable name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            ActivationSchedule::Simultaneous => "simultaneous",
            ActivationSchedule::Staggered { .. } => "staggered",
            ActivationSchedule::Batches { .. } => "batches",
            ActivationSchedule::UniformWindow { .. } => "uniform-window",
            ActivationSchedule::Poisson { .. } => "poisson",
            ActivationSchedule::LateJoiner { .. } => "late-joiner",
            ActivationSchedule::Explicit(_) => "explicit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simultaneous_all_zero() {
        let mut rng = SimRng::from_seed(0);
        assert_eq!(
            ActivationSchedule::Simultaneous.activation_rounds(4, &mut rng),
            vec![0, 0, 0, 0]
        );
    }

    #[test]
    fn staggered_spacing() {
        let mut rng = SimRng::from_seed(0);
        assert_eq!(
            ActivationSchedule::Staggered { gap: 5 }.activation_rounds(4, &mut rng),
            vec![0, 5, 10, 15]
        );
    }

    #[test]
    fn batches_grouping() {
        let mut rng = SimRng::from_seed(0);
        assert_eq!(
            ActivationSchedule::Batches {
                batch_size: 2,
                gap: 10
            }
            .activation_rounds(5, &mut rng),
            vec![0, 0, 10, 10, 20]
        );
    }

    #[test]
    fn huge_gaps_saturate_instead_of_wrapping() {
        let gap = u64::MAX / 2 + 1;
        let mut rng = SimRng::from_seed(0);
        for schedule in [
            ActivationSchedule::Staggered { gap },
            ActivationSchedule::Batches { batch_size: 1, gap },
        ] {
            assert_eq!(
                schedule.activation_rounds(3, &mut rng),
                vec![0, gap, u64::MAX],
                "{}",
                schedule.name()
            );
        }
    }

    #[test]
    fn batches_zero_batch_size_treated_as_one() {
        let mut rng = SimRng::from_seed(0);
        assert_eq!(
            ActivationSchedule::Batches {
                batch_size: 0,
                gap: 3
            }
            .activation_rounds(3, &mut rng),
            vec![0, 3, 6]
        );
    }

    #[test]
    fn uniform_window_within_bounds() {
        let mut rng = SimRng::from_seed(7);
        let rounds =
            ActivationSchedule::UniformWindow { window: 50 }.activation_rounds(100, &mut rng);
        assert!(rounds.iter().all(|&r| r < 50));
        // zero window degenerates to simultaneous
        assert_eq!(
            ActivationSchedule::UniformWindow { window: 0 }.activation_rounds(3, &mut rng),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn poisson_is_nondecreasing() {
        let mut rng = SimRng::from_seed(3);
        let rounds = ActivationSchedule::Poisson { mean_gap: 4.0 }.activation_rounds(50, &mut rng);
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rounds[0], 0);
    }

    #[test]
    fn late_joiner_only_last_is_late() {
        let mut rng = SimRng::from_seed(0);
        let rounds = ActivationSchedule::LateJoiner { late: 99 }.activation_rounds(4, &mut rng);
        assert_eq!(rounds, vec![0, 0, 0, 99]);
    }

    #[test]
    fn explicit_reuses_last_and_handles_empty() {
        let mut rng = SimRng::from_seed(0);
        let rounds = ActivationSchedule::Explicit(vec![1, 2]).activation_rounds(4, &mut rng);
        assert_eq!(rounds, vec![1, 2, 2, 2]);
        let empty = ActivationSchedule::Explicit(Vec::new()).activation_rounds(3, &mut rng);
        assert_eq!(empty, vec![0, 0, 0]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ActivationSchedule::Simultaneous.name(), "simultaneous");
        assert_eq!(ActivationSchedule::Staggered { gap: 1 }.name(), "staggered");
        assert_eq!(ActivationSchedule::Explicit(vec![]).name(), "explicit");
    }

    proptest! {
        #[test]
        fn all_schedules_produce_n_entries(n in 0usize..200, seed in 0u64..100) {
            let mut rng = SimRng::from_seed(seed);
            let schedules = vec![
                ActivationSchedule::Simultaneous,
                ActivationSchedule::Staggered { gap: 2 },
                ActivationSchedule::Batches { batch_size: 3, gap: 4 },
                ActivationSchedule::UniformWindow { window: 10 },
                ActivationSchedule::Poisson { mean_gap: 2.0 },
                ActivationSchedule::LateJoiner { late: 7 },
                ActivationSchedule::Explicit(vec![1, 5, 9]),
            ];
            for s in schedules {
                prop_assert_eq!(s.activation_rounds(n, &mut rng).len(), n);
            }
        }

        #[test]
        fn deterministic_given_seed(n in 1usize..100, seed in 0u64..100) {
            let schedule = ActivationSchedule::UniformWindow { window: 100 };
            let a = schedule.activation_rounds(n, &mut SimRng::from_seed(seed));
            let b = schedule.activation_rounds(n, &mut SimRng::from_seed(seed));
            prop_assert_eq!(a, b);
        }
    }
}
