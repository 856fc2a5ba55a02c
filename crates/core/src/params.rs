//! Shared parameter helpers used by all protocols in this crate.

/// Probability with which an elected leader broadcasts its numbering each
/// round (§6, §7: the paper uses 1/2).
pub(crate) const LEADER_BROADCAST_PROBABILITY: f64 = 0.5;

/// Rounds `x` up to the next power of two (and to at least 2).
///
/// The paper assumes "for simplicity of notation" that `N` is a power of
/// two; both protocols here round the announced bound up accordingly.
pub fn next_power_of_two(x: u64) -> u64 {
    x.max(2).next_power_of_two()
}

/// Ceiling of `log₂(x)` for `x ≥ 1`; returns 0 for `x ≤ 1`.
///
/// ```
/// use wsync_core::params::ceil_log2;
/// assert_eq!(ceil_log2(1), 0);
/// assert_eq!(ceil_log2(2), 1);
/// assert_eq!(ceil_log2(5), 3);
/// assert_eq!(ceil_log2(1024), 10);
/// ```
pub fn ceil_log2(x: u64) -> u32 {
    if x <= 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// The paper's `F′ = min(F, 2t)`, clamped to at least 1 so that the
/// degenerate case `t = 0` (no disruption) still leaves one usable
/// frequency.
///
/// Restricting the Trapdoor Protocol to the first `F′` frequencies is what
/// turns the `F²/(F−t)` term that a naive analysis would give into the
/// paper's `F·t/(F−t)` term: when `F > 2t`, there is no benefit in spreading
/// over more than `2t` frequencies.
pub fn effective_frequencies(num_frequencies: u32, disruption_bound: u32) -> u32 {
    num_frequencies.min(2 * disruption_bound).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn next_power_of_two_basics() {
        assert_eq!(next_power_of_two(0), 2);
        assert_eq!(next_power_of_two(1), 2);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(1000), 1024);
    }

    #[test]
    fn ceil_log2_matches_reference_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1 << 20), 20);
    }

    #[test]
    fn effective_frequencies_min_of_f_and_2t() {
        assert_eq!(effective_frequencies(16, 4), 8);
        assert_eq!(effective_frequencies(16, 10), 16);
        assert_eq!(effective_frequencies(16, 0), 1);
        assert_eq!(effective_frequencies(1, 0), 1);
    }

    proptest! {
        #[test]
        fn ceil_log2_is_inverse_of_pow(x in 1u64..1_000_000) {
            let k = ceil_log2(x);
            prop_assert!(1u64 << k >= x);
            if k > 0 {
                prop_assert!(1u64 << (k - 1) < x);
            }
        }

        #[test]
        fn effective_frequencies_bounds(f in 1u32..1000, t in 0u32..1000) {
            let fp = effective_frequencies(f, t);
            prop_assert!(fp >= 1);
            prop_assert!(fp <= f);
            prop_assert!(fp <= (2 * t).max(1));
        }
    }
}
