//! The "good success probability" machinery of Theorem 1 and Claim 3.
//!
//! For a broadcast probability `p` and `n` participating nodes, the *success
//! probability* of a frequency is `n·p·(1−p)^{n−1}` — the probability that
//! exactly one node broadcasts on it. The lower-bound proof calls a success
//! probability *good* if it is at least `1/log²N`, and Claim 3 (from
//! Jurdziński–Stachowiak) states that no single broadcast probability can be
//! good for two population sizes `2^{m_i}` and `2^{m_j}` with `i ≠ j`, where
//! `m_i = ⌊x/2⌋ + (i−1)·x` and `x = ⌈4·log log N⌉`. This module provides the
//! success-probability function, the goodness predicate, the `m_i` ladder,
//! and a numerical verification of Claim 3 used by the LB1 experiment.

use serde::{Deserialize, Serialize};

/// The probability that exactly one of `n` nodes broadcasts when each
/// broadcasts independently with probability `p`:
/// `n·p·(1−p)^{n−1}`.
fn success_probability(n: u64, p: f64) -> f64 {
    if n == 0 || p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return if n == 1 { 1.0 } else { 0.0 };
    }
    let n_f = n as f64;
    n_f * p * (1.0 - p).powf(n_f - 1.0)
}

/// Whether a success probability counts as *good* for bound `N`:
/// at least `1/log²N`.
fn is_good_probability(success: f64, upper_bound_n: u64) -> bool {
    let log_n = (upper_bound_n.max(4) as f64).log2();
    success >= 1.0 / (log_n * log_n)
}

/// The Claim 3 population-size ladder: `x = ⌈4·log log N⌉` and
/// `m_i = ⌊x/2⌋ + (i−1)·x` for `i = 1, 2, …` while `m_i < lg N`.
///
/// Returns the exponents `m_i`; the populations themselves are `2^{m_i}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Claim3Ladder {
    /// The spacing `x = ⌈4·log log N⌉`.
    pub x: u32,
    /// The exponents `m_i` (ascending).
    pub exponents: Vec<u32>,
}

impl Claim3Ladder {
    /// Builds the ladder for bound `N`.
    pub fn for_upper_bound(upper_bound_n: u64) -> Self {
        let log_n = (upper_bound_n.max(4) as f64).log2();
        let x = (4.0 * log_n.log2()).ceil().max(1.0) as u32;
        let lg_n = log_n.floor() as u32;
        let mut exponents = Vec::new();
        let mut i = 1u32;
        loop {
            let m = x / 2 + (i - 1) * x;
            if m >= lg_n || m == 0 {
                break;
            }
            exponents.push(m);
            i += 1;
        }
        Claim3Ladder { x, exponents }
    }

    /// The population sizes `2^{m_i}`.
    fn populations(&self) -> Vec<u64> {
        self.exponents.iter().map(|&m| 1u64 << m.min(62)).collect()
    }

    /// Numerically verifies Claim 3 for a given broadcast probability `p`:
    /// returns the number of ladder populations for which
    /// `success_probability(2^{m_i}, p)` is good. Claim 3 asserts this count
    /// is at most 1.
    pub fn count_good_populations(&self, p: f64, upper_bound_n: u64) -> usize {
        self.populations()
            .iter()
            .filter(|&&n| is_good_probability(success_probability(n, p), upper_bound_n))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn success_probability_reference_values() {
        assert_eq!(success_probability(0, 0.5), 0.0);
        assert_eq!(success_probability(1, 1.0), 1.0);
        assert_eq!(success_probability(2, 1.0), 0.0);
        assert!((success_probability(1, 0.3) - 0.3).abs() < 1e-12);
        // n = 2, p = 1/2: 2·0.5·0.5 = 0.5
        assert!((success_probability(2, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn optimal_probability_approaches_1_over_e() {
        // p = 1/n maximizes the success probability for n nodes.
        let s = success_probability(10_000, 1e-4);
        assert!((s - 1.0 / std::f64::consts::E).abs() < 0.01);
    }

    #[test]
    fn goodness_threshold() {
        // N = 256 → log²N = 64 → threshold 1/64.
        assert!(is_good_probability(1.0 / 64.0, 256));
        assert!(!is_good_probability(1.0 / 65.0, 256));
    }

    #[test]
    fn ladder_is_increasing_and_below_lg_n() {
        let ladder = Claim3Ladder::for_upper_bound(1 << 20);
        assert!(!ladder.exponents.is_empty());
        assert!(ladder.exponents.windows(2).all(|w| w[1] > w[0]));
        assert!(ladder.exponents.iter().all(|&m| m < 20));
        assert_eq!(
            ladder.exponents.windows(2).map(|w| w[1] - w[0]).max(),
            ladder.exponents.windows(2).map(|w| w[1] - w[0]).min(),
            "ladder spacing is uniform"
        );
    }

    #[test]
    fn claim3_no_probability_good_for_two_populations() {
        // Use a large N so the ladder has several columns (the ladder has
        // Θ(log N / log log N) entries, which is small for moderate N).
        let n_bound = 1u64 << 40;
        let ladder = Claim3Ladder::for_upper_bound(n_bound);
        assert!(ladder.populations().len() >= 2);
        // Sweep a wide grid of broadcast probabilities (log-spaced).
        let mut p = 1.0f64;
        while p > 1e-7 {
            let good = ladder.count_good_populations(p, n_bound);
            assert!(
                good <= 1,
                "probability {p} is good for {good} ladder populations"
            );
            p *= 0.8;
        }
    }

    #[test]
    fn each_ladder_population_has_some_good_probability() {
        // The ladder would be vacuous if no probability were ever good; check
        // that p = 1/n is good for its own population size.
        let n_bound = 1u64 << 16;
        let ladder = Claim3Ladder::for_upper_bound(n_bound);
        for n in ladder.populations() {
            let s = success_probability(n, 1.0 / n as f64);
            assert!(is_good_probability(s, n_bound));
        }
    }

    proptest! {
        #[test]
        fn success_probability_in_unit_interval(n in 1u64..100_000, p in 0.0f64..1.0) {
            let s = success_probability(n, p);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        }

        #[test]
        fn success_probability_maximized_near_one_over_n(n in 2u64..10_000) {
            let p_opt = 1.0 / n as f64;
            let s_opt = success_probability(n, p_opt);
            for factor in [0.25, 0.5, 2.0, 4.0] {
                let s = success_probability(n, (p_opt * factor).min(1.0));
                prop_assert!(s <= s_opt + 1e-12);
            }
        }
    }
}
