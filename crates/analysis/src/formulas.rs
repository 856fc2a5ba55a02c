//! Closed-form bound expressions from the paper, evaluated without their
//! hidden constants.
//!
//! The experiments compare measured round counts against these expressions
//! by fitting a single proportionality constant (see
//! `wsync_stats::fit_through_origin`): if the measured data is a constant
//! multiple of the expression across a parameter sweep, the asymptotic
//! *shape* of the paper's claim is reproduced.

use serde::{Deserialize, Serialize};

/// Bound expressions for a problem instance `(N, F, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bounds {
    /// Upper bound `N` on the number of participants.
    pub upper_bound_n: u64,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F`.
    pub disruption_bound: u32,
}

impl Bounds {
    /// Creates the bound calculator for an instance.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        Bounds {
            upper_bound_n,
            num_frequencies,
            disruption_bound,
        }
    }

    fn log_n(&self) -> f64 {
        (self.upper_bound_n.max(2) as f64).log2()
    }

    fn f(&self) -> f64 {
        f64::from(self.num_frequencies)
    }

    fn t(&self) -> f64 {
        f64::from(self.disruption_bound)
    }

    fn f_minus_t(&self) -> f64 {
        (self.f() - self.t()).max(1.0)
    }

    /// The first lower-bound term (Theorem 1):
    /// `log²N / ((F−t)·log log N)`.
    fn theorem1(&self) -> f64 {
        let log_n = self.log_n();
        let loglog = log_n.log2().max(1.0);
        log_n * log_n / (self.f_minus_t() * loglog)
    }

    /// The second lower-bound term (Theorem 4) for error probability `ε`:
    /// `F·t/(F−t) · log(1/ε)`.
    pub fn theorem4(&self, epsilon: f64) -> f64 {
        let eps = epsilon.clamp(f64::MIN_POSITIVE, 0.5);
        self.f() * self.t() / self.f_minus_t() * (1.0 / eps).log2()
    }

    /// The combined lower bound (Theorem 5) with `ε = 1/N`:
    /// `log²N/((F−t)·log log N) + F·t/(F−t)·log N`.
    pub fn theorem5(&self) -> f64 {
        self.theorem1() + self.theorem4(1.0 / self.upper_bound_n.max(2) as f64)
    }

    /// The Trapdoor Protocol upper bound (Theorem 10):
    /// `F/(F−t)·log²N + F·t/(F−t)·log N`.
    pub fn theorem10(&self) -> f64 {
        let log_n = self.log_n();
        self.f() / self.f_minus_t() * log_n * log_n + self.f() * self.t() / self.f_minus_t() * log_n
    }

    /// The multiplicative gap between the Trapdoor upper bound and the
    /// combined lower bound: `theorem10 / theorem5`. The paper conjectures
    /// the Trapdoor Protocol is optimal, i.e. this gap is
    /// `O(log log N + …)`-ish, not polynomial.
    pub fn upper_to_lower_gap(&self) -> f64 {
        self.theorem10() / self.theorem5().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn theorem1_decreases_in_f_minus_t() {
        let tight = Bounds::new(1024, 8, 7).theorem1();
        let loose = Bounds::new(1024, 64, 7).theorem1();
        assert!(tight > loose);
    }

    #[test]
    fn theorem4_grows_with_t_and_precision() {
        let b = Bounds::new(1024, 32, 8);
        assert!(b.theorem4(1e-6) > b.theorem4(1e-3));
        let more_jamming = Bounds::new(1024, 32, 24);
        assert!(more_jamming.theorem4(1e-3) > b.theorem4(1e-3));
    }

    #[test]
    fn theorem4_with_zero_t_is_zero() {
        assert_eq!(Bounds::new(64, 8, 0).theorem4(0.01), 0.0);
    }

    #[test]
    fn upper_bound_dominates_lower_bound() {
        for (n, f, t) in [(256u64, 16u32, 4u32), (4096, 64, 32), (1024, 8, 7)] {
            let b = Bounds::new(n, f, t);
            assert!(
                b.theorem10() >= b.theorem5() * 0.9,
                "upper bound should dominate lower bound for N={n} F={f} t={t}"
            );
        }
    }

    #[test]
    fn known_reference_values() {
        // N = 1024 (log N = 10), F = 16, t = 8.
        let b = Bounds::new(1024, 16, 8);
        // theorem1 = 100 / (8 · log2(10)) ≈ 3.76
        assert!((b.theorem1() - 100.0 / (8.0 * 10f64.log2())).abs() < 1e-9);
        // theorem10 = 16/8·100 + 16·8/8·10 = 200 + 160 = 360
        assert!((b.theorem10() - 360.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn all_bounds_positive_and_finite(n in 4u64..1_000_000, f in 2u32..256, t in 1u32..255) {
            prop_assume!(t < f);
            let b = Bounds::new(n, f, t);
            for v in [b.theorem1(), b.theorem4(1.0 / n as f64), b.theorem5(), b.theorem10(),
                      b.upper_to_lower_gap()] {
                prop_assert!(v.is_finite());
                prop_assert!(v > 0.0);
            }
        }

        #[test]
        fn theorem10_monotone_in_t(n in 4u64..100_000, f in 3u32..128, t in 1u32..126) {
            prop_assume!(t + 1 < f);
            let lo = Bounds::new(n, f, t).theorem10();
            let hi = Bounds::new(n, f, t + 1).theorem10();
            prop_assert!(hi >= lo);
        }
    }
}
