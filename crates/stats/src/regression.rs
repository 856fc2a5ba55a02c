//! The least-squares fit used to compare measured running times against
//! the paper's asymptotic bound expressions.
//!
//! [`fit_through_origin`] fits `y ≈ c·x`, used to test whether measured
//! round counts are a constant multiple of a predicted bound expression
//! (the reproduction criterion for `O(·)`/`Ω(·)` claims: the ratio should
//! be roughly constant across the sweep, i.e. the origin fit should have a
//! small relative residual).

use serde::{Deserialize, Serialize};

/// Result of a least-squares fit through the origin, `y ≈ ratio · x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OriginFit {
    /// Fitted proportionality constant `c`.
    pub ratio: f64,
    /// Maximum relative deviation `max_i |y_i − c·x_i| / (c·x_i)` over points
    /// with `x_i > 0`; small values mean the data really is proportional.
    pub max_relative_deviation: f64,
    /// Root-mean-square relative deviation over points with `x_i > 0`.
    pub rms_relative_deviation: f64,
    /// Number of points used.
    pub n: usize,
}

/// Least-squares fit of `y ≈ c·x` through the origin.
///
/// The fitted constant is `c = Σ x·y / Σ x²`. Points with `x == 0` contribute
/// to the fit but are excluded from the relative-deviation metrics.
///
/// # Panics
///
/// Panics if `xs` and `ys` have different lengths, are empty, or all `x` are
/// zero.
pub fn fit_through_origin(xs: &[f64], ys: &[f64]) -> OriginFit {
    assert_eq!(xs.len(), ys.len(), "fit_through_origin: mismatched lengths");
    assert!(!xs.is_empty(), "fit_through_origin: empty input");
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    assert!(sxx > 0.0, "fit_through_origin: all x are zero");
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let ratio = sxy / sxx;
    let mut max_rel: f64 = 0.0;
    let mut sum_sq_rel = 0.0;
    let mut counted = 0usize;
    for (&x, &y) in xs.iter().zip(ys) {
        if x > 0.0 && ratio != 0.0 {
            let pred = ratio * x;
            let rel = ((y - pred) / pred).abs();
            max_rel = max_rel.max(rel);
            sum_sq_rel += rel * rel;
            counted += 1;
        }
    }
    let rms = if counted == 0 {
        0.0
    } else {
        (sum_sq_rel / counted as f64).sqrt()
    };
    OriginFit {
        ratio,
        max_relative_deviation: max_rel,
        rms_relative_deviation: rms,
        n: xs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn origin_fit_exact_proportionality() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys = [3.0, 6.0, 12.0, 24.0];
        let fit = fit_through_origin(&xs, &ys);
        assert!((fit.ratio - 3.0).abs() < 1e-12);
        assert!(fit.max_relative_deviation < 1e-12);
        assert!(fit.rms_relative_deviation < 1e-12);
    }

    #[test]
    fn origin_fit_detects_nonproportional_data() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys = [1.0, 4.0, 16.0, 64.0]; // quadratic, not proportional
        let fit = fit_through_origin(&xs, &ys);
        assert!(fit.max_relative_deviation > 0.5);
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn mismatched_lengths_panics() {
        fit_through_origin(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "all x are zero")]
    fn origin_fit_all_zero_x_panics() {
        fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn origin_fit_scale_invariance(scale in 0.1f64..100.0) {
            let xs = [1.0, 2.0, 3.0, 4.0];
            let ys: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            let fit = fit_through_origin(&xs, &ys);
            prop_assert!((fit.ratio - scale).abs() < 1e-9);
        }
    }
}
