//! Sequential-analysis building blocks for adaptive trial allocation.
//!
//! The sweep layer of `wsync-core` stops sampling a grid point once its
//! answer is statistically known: at fixed seed-batch boundaries it asks
//! whether the metric's confidence interval is narrow enough
//! ([`ConfidenceInterval::for_summary`] / [`wilson_ci`]). Everything
//! here is a pure function of accumulated counts and Welford summaries, so
//! the stop decision sequence is reproducible from the outcome stream
//! alone: no sample vectors, no wall clock, no scheduling dependence.
//!
//! Width-undefined states are typed ([`CiUndefined`]), never silently
//! zero-width: a rule that asked "is the interval narrower than ε?" on one
//! sample must answer "keep sampling", not "converged".

use crate::confidence::{proportion_ci, CiUndefined, ConfidenceInterval};

/// Wilson score interval over *counted* trials — the incremental form for
/// sequential rules folding successes/trials counters (no per-trial
/// samples retained). Unlike [`proportion_ci`], zero trials is a typed
/// [`CiUndefined::NoTrials`] instead of a degenerate `[0, 1]` interval, so
/// a stopping rule cannot mistake "no data" for "converged to anything".
///
/// `successes` is clamped to `trials` (a defensive guard; callers fold
/// both from the same outcome stream, so they cannot legitimately cross).
pub fn wilson_ci(
    successes: u64,
    trials: u64,
    level: f64,
) -> Result<ConfidenceInterval, CiUndefined> {
    if trials == 0 {
        return Err(CiUndefined::NoTrials);
    }
    let successes = successes.min(trials);
    Ok(proportion_ci(successes as usize, trials as usize, level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wilson_ci_zero_trials_is_typed_undefined() {
        assert_eq!(wilson_ci(0, 0, 0.95), Err(CiUndefined::NoTrials));
    }

    #[test]
    fn wilson_ci_matches_proportion_ci_on_counts() {
        let a = wilson_ci(95, 100, 0.95).unwrap();
        let b = proportion_ci(95, 100, 0.95);
        assert_eq!(a, b);
    }

    #[test]
    fn wilson_ci_extreme_proportions_stay_informative() {
        // p = 1: the interval must keep a nonzero width — n successes out
        // of n is still compatible with a rate below 1.
        let all = wilson_ci(10, 10, 0.95).unwrap();
        assert_eq!(all.estimate, 1.0);
        assert!(all.lower < 1.0 && all.upper <= 1.0);
        assert!(all.half_width() > 0.01);
        // p = 0 mirrors it.
        let none = wilson_ci(0, 10, 0.95).unwrap();
        assert_eq!(none.estimate, 0.0);
        assert!(none.upper > 0.0 && none.lower >= 0.0);
        // tiny n: one trial gives an interval spanning most of [0, 1].
        let one = wilson_ci(1, 1, 0.95).unwrap();
        assert!(one.half_width() > 0.3);
        // huge n: the width collapses but the bounds stay ordered.
        let huge = wilson_ci(999_999_999_999, 1_000_000_000_000, 0.95).unwrap();
        assert!(huge.half_width() < 1e-5);
        assert!(huge.lower <= huge.estimate && huge.estimate <= huge.upper);
    }

    proptest! {
        #[test]
        fn wilson_clamps_successes_to_trials(s in 0u64..500, t in 1u64..400, level in 0.6f64..0.99) {
            let ci = wilson_ci(s, t, level).unwrap();
            prop_assert!(ci.estimate >= 0.0 && ci.estimate <= 1.0);
            prop_assert!(ci.lower >= 0.0 && ci.upper <= 1.0);
            prop_assert!(ci.lower <= ci.upper);
        }
    }
}
