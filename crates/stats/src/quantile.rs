//! Quantiles and medians over `f64` samples.
//!
//! Quantiles use the standard linear-interpolation definition (type 7 in the
//! Hyndman–Fan taxonomy, the default of R and NumPy): for a sorted sample
//! `x_0 ≤ … ≤ x_{n-1}` and probability `q ∈ [0, 1]`, the quantile is the
//! linear interpolation between the values at positions `floor(h)` and
//! `ceil(h)` where `h = (n - 1) · q`.

/// Returns the `q`-quantile of `samples` (not required to be sorted).
///
/// Returns `f64::NAN` for an empty sample. `q` is clamped to `[0, 1]`.
///
/// ```
/// use wsync_stats::quantile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.0), 1.0);
/// assert_eq!(quantile(&xs, 1.0), 4.0);
/// assert_eq!(quantile(&xs, 0.5), 2.5);
/// ```
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample passed to quantile"));
    quantile_sorted(&sorted, q)
}

/// Returns the `q`-quantile of an already sorted sample.
///
/// Returns `f64::NAN` for an empty sample. `q` is clamped to `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Returns the median of `samples` (`NaN` for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Returns several quantiles of `samples`, sorting only once.
///
/// The output is in the same order as `probs`.
pub fn quantiles(samples: &[f64], probs: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return vec![f64::NAN; probs.len()];
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample passed to quantiles"));
    probs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_nan() {
        assert!(quantile(&[], 0.5).is_nan());
        assert!(median(&[]).is_nan());
        assert!(quantiles(&[], &[0.1, 0.9]).iter().all(|x| x.is_nan()));
    }

    #[test]
    fn singleton() {
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[7.0], 0.37), 7.0);
        assert_eq!(quantile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolation_matches_numpy_default() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((quantile(&xs, 0.25) - 20.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.1) - 14.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.9) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn q_is_clamped() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, -0.5), 1.0);
        assert_eq!(quantile(&xs, 1.5), 3.0);
    }

    #[test]
    fn quantiles_order_preserved() {
        let xs = [5.0, 1.0, 9.0, 3.0];
        let qs = quantiles(&xs, &[0.9, 0.1]);
        assert!(qs[0] > qs[1]);
    }

    proptest! {
        #[test]
        fn quantile_within_range(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200), q in 0.0f64..1.0) {
            let v = quantile(&xs, q);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(v >= xs[0] - 1e-9);
            prop_assert!(v <= xs[xs.len() - 1] + 1e-9);
        }

        #[test]
        fn quantile_monotone_in_q(xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
                                  a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(quantile(&xs, lo) <= quantile(&xs, hi) + 1e-9);
        }

        #[test]
        fn median_between_min_and_max(xs in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
            let m = median(&xs);
            let mn = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= mn - 1e-9 && m <= mx + 1e-9);
        }
    }
}
