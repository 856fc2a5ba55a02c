//! Contender timestamps.
//!
//! The Trapdoor Protocol labels every contender message with the sender's
//! *timestamp*: the pair `(ra, uid)` where `ra` is the number of rounds the
//! contender has been active and `uid` is a unique identifier drawn at
//! random upon activation (Section 6.1). Timestamps are compared
//! lexicographically; a contender that receives a message from a contender
//! with a *larger* timestamp is knocked out, so the earliest-activated node
//! (largest `ra`, ties broken by `uid`) can never be knocked out.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

use wsync_radio::rng::SimRng;

/// A contender timestamp `(rounds_active, uid)` with lexicographic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Timestamp {
    /// Number of rounds the node has been active (including the current
    /// round).
    pub rounds_active: u64,
    /// Unique identifier chosen at random upon activation.
    pub uid: u64,
}

impl Timestamp {
    /// Creates a timestamp.
    pub fn new(rounds_active: u64, uid: u64) -> Self {
        Timestamp { rounds_active, uid }
    }

    /// Draws a fresh unique identifier uniformly from `[1, c·N²]` with
    /// `c = 64`, as suggested by the paper (footnote 4): with `n ≤ N`
    /// participants the collision probability is at most `n²/(c·N²) ≤ 1/c`.
    pub fn draw_uid(upper_bound_n: u64, rng: &mut SimRng) -> u64 {
        let n = upper_bound_n.max(2);
        let range_max = 64u64.saturating_mul(n).saturating_mul(n).max(2);
        rng.gen_range(1..=range_max)
    }
}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.rounds_active, self.uid).cmp(&(other.rounds_active, other.uid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lexicographic_order() {
        let a = Timestamp::new(5, 100);
        let b = Timestamp::new(6, 1);
        let c = Timestamp::new(5, 101);
        assert!(b > a, "more rounds active wins regardless of uid");
        assert!(c > a, "ties on rounds_active broken by uid");
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn draw_uid_in_range_and_rarely_colliding() {
        let mut rng = SimRng::from_seed(42);
        let n = 64u64;
        let max = 64 * n * n;
        let uids: Vec<u64> = (0..200).map(|_| Timestamp::draw_uid(n, &mut rng)).collect();
        assert!(uids.iter().all(|&u| u >= 1 && u <= max));
        let mut sorted = uids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // with 200 draws from a space of 64·64² ≈ 262k values, collisions are
        // overwhelmingly unlikely
        assert_eq!(sorted.len(), uids.len());
    }

    #[test]
    fn draw_uid_handles_tiny_upper_bound() {
        let mut rng = SimRng::from_seed(1);
        for _ in 0..50 {
            let u = Timestamp::draw_uid(1, &mut rng);
            assert!(u >= 1);
        }
    }

    proptest! {
        #[test]
        fn order_is_total_and_consistent(
            ra1 in 0u64..1000, uid1 in 0u64..1000,
            ra2 in 0u64..1000, uid2 in 0u64..1000,
        ) {
            let a = Timestamp::new(ra1, uid1);
            let b = Timestamp::new(ra2, uid2);
            // antisymmetry and totality
            match a.cmp(&b) {
                Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
                Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
                Ordering::Equal => {
                    prop_assert_eq!(a, b);
                }
            }
            // consistency with the lexicographic definition
            prop_assert_eq!(a < b, (ra1, uid1) < (ra2, uid2));
        }

        #[test]
        fn ticking_preserves_relative_order(ra in 0u64..1000, uid1 in 0u64..1000, uid2 in 0u64..1000) {
            let mut a = Timestamp::new(ra, uid1);
            let mut b = Timestamp::new(ra + 1, uid2);
            prop_assert!(b > a);
            a.rounds_active += 1;
            b.rounds_active += 1;
            prop_assert!(b > a, "both ticking preserves order");
        }
    }
}
