//! Descriptive statistics: batch summaries and online (Welford) accumulation.

use serde::{Deserialize, Serialize};

/// A batch summary of a sample: count, mean, (sample) standard deviation,
/// minimum, maximum and sum.
///
/// An empty sample yields a summary with `count == 0`, `mean == 0.0`,
/// `std_dev == 0.0`, `min == f64::INFINITY` and `max == f64::NEG_INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (denominator `n - 1`; `0.0` when `n < 2`).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of the samples.
    pub sum: f64,
}

impl Summary {
    /// Computes a summary of `samples`.
    pub fn from_slice(samples: &[f64]) -> Self {
        let mut online = OnlineStats::new();
        for &x in samples {
            online.push(x);
        }
        online.summary()
    }

    /// Standard error of the mean (`std_dev / sqrt(count)`), or `0.0` for an
    /// empty or singleton sample.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.std_dev / (self.count as f64).sqrt()
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

/// Numerically stable online mean/variance accumulator (Welford's algorithm).
///
/// Useful when experiments stream per-execution measurements and we do not
/// want to keep every sample in memory.
///
/// ```
/// use wsync_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.summary().std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

/// The empty accumulator: its [`summary`](OnlineStats::summary) is
/// [`Summary::default`], bounds included (`min = +inf`, `max = -inf`).
impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl OnlineStats {
    /// Creates an empty accumulator (the [`Default`] one).
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample variance (denominator `n - 1`; `0.0` when `n < 2`).
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Converts the accumulated state to a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.sample_variance().sqrt(),
            min: self.min,
            max: self.max,
            sum: self.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.sum, 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn singleton_summary() {
        let s = Summary::from_slice(&[42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_slice(&xs);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // population variance 4.0 => sample variance 32/7
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.sum, 40.0);
    }

    #[test]
    fn default_starts_empty_like_new() {
        let mut s = OnlineStats::default();
        s.push(5.0);
        s.push(7.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 7.0);
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        assert_eq!(OnlineStats::default().summary(), Summary::default());
    }
}
