//! Parameters of the Trapdoor Protocol (Section 6.1, Figure 1).
//!
//! A contender proceeds through `lg N` epochs. The first `lg N − 1` epochs
//! have length `Θ(F′/(F′−t)·log N)` and the final epoch has length
//! `Θ(F′²/(F′−t)·log N)`, where `F′ = min(F, 2t)`. In epoch `e` a contender
//! broadcasts with probability `2^e/(2N)` (so the final epoch broadcasts
//! with probability 1/2). The multiplicative constants hidden by the `Θ(·)`
//! are exposed here and swept by the ablation experiments.
//!
//! The regular epochs all have one length, so a round's epoch has a closed
//! form: [`TrapdoorSchedule`] resolves the lengths once and locates a round
//! by one integer division. Protocols consult it every contender-round.

use serde::{Deserialize, Serialize};

use crate::params::{ceil_log2, effective_frequencies, next_power_of_two};

/// One row of the Figure 1 schedule: an epoch, its length, and the
/// per-round broadcast probability used during it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochSpec {
    /// 1-based epoch number.
    pub epoch: u32,
    /// Length of the epoch in rounds.
    pub length: u64,
    /// Per-round broadcast probability during the epoch.
    pub broadcast_probability: f64,
}

/// Configuration of the Trapdoor Protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrapdoorConfig {
    /// The bound `N` on the number of participants (rounded up to a power of
    /// two, as the paper assumes).
    pub upper_bound_n: u64,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t < F`.
    pub disruption_bound: u32,
    /// Optional override of `F′`; `None` uses the paper's
    /// `F′ = min(F, 2t)`. The single-frequency baseline sets this to 1.
    pub frequency_limit: Option<u32>,
    /// Constant in front of the regular epoch length
    /// `⌈c₁ · F′/(F′−t) · lg N⌉`.
    pub epoch_constant: f64,
    /// Constant in front of the final epoch length
    /// `⌈c₂ · F′²/(F′−t) · lg N⌉`.
    pub final_epoch_constant: f64,
}

impl TrapdoorConfig {
    /// Creates a configuration with the default constants
    /// (`c₁ = 2`, `c₂ = 6`).
    ///
    /// The final-epoch constant is larger because the agreement argument
    /// (Theorem 10) needs the eventual winner to knock every other surviving
    /// contender out *during that contender's final epoch*; the per-round
    /// knock-out probability hides a `≈ 1/4·(F′−t)/F′²` constant (both
    /// parties must pick the right roles and the same undisrupted
    /// frequency), so `c₂ = 6` keeps the empirical multi-leader rate at the
    /// `1/N` level the paper claims. The A1 ablation sweeps both constants.
    ///
    /// `upper_bound_n` is rounded up to a power of two.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        TrapdoorConfig {
            upper_bound_n: next_power_of_two(upper_bound_n),
            num_frequencies,
            disruption_bound,
            frequency_limit: None,
            epoch_constant: 2.0,
            final_epoch_constant: 6.0,
        }
    }

    /// Overrides the regular-epoch constant `c₁`.
    pub fn with_epoch_constant(mut self, c: f64) -> Self {
        self.epoch_constant = c.max(0.1);
        self
    }

    /// Overrides the final-epoch constant `c₂`.
    pub fn with_final_epoch_constant(mut self, c: f64) -> Self {
        self.final_epoch_constant = c.max(0.1);
        self
    }

    /// Restricts the protocol to the first `limit` frequencies instead of
    /// the paper's `F′ = min(F, 2t)`. Used by the single-frequency baseline
    /// and the `F′` ablation.
    pub fn with_frequency_limit(mut self, limit: u32) -> Self {
        self.frequency_limit = Some(limit.max(1));
        self
    }

    /// The number of frequencies the protocol actually uses:
    /// `F′ = min(F, 2t)` (clamped to at least 1), or the explicit override.
    pub fn f_prime(&self) -> u32 {
        match self.frequency_limit {
            Some(limit) => limit.min(self.num_frequencies).max(1),
            None => effective_frequencies(self.num_frequencies, self.disruption_bound),
        }
    }

    /// `lg N`, the number of epochs (at least 1).
    pub fn num_epochs(&self) -> u32 {
        ceil_log2(self.upper_bound_n).max(1)
    }

    /// `lg N` as a float, used in the length formulas.
    fn log_n(&self) -> f64 {
        f64::from(self.num_epochs())
    }

    /// `F′/(F′−t)` with the convention that the denominator is at least 1
    /// (when `F′ ≤ t`, which happens only in the degenerate `t = 0` case,
    /// the factor is `F′`).
    fn congestion(&self) -> f64 {
        let fp = self.f_prime();
        let denom = fp.saturating_sub(self.disruption_bound).max(1);
        f64::from(fp) / f64::from(denom)
    }

    /// Length (in rounds) of epoch `epoch` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 or exceeds [`num_epochs`](Self::num_epochs).
    pub fn epoch_length(&self, epoch: u32) -> u64 {
        assert!(
            epoch >= 1 && epoch <= self.num_epochs(),
            "epoch {epoch} out of range 1..={}",
            self.num_epochs()
        );
        if epoch == self.num_epochs() {
            self.final_epoch_length()
        } else {
            self.regular_epoch_length()
        }
    }

    /// `⌈c₁ · F′/(F′−t) · lg N⌉`, the length of every epoch but the last.
    fn regular_epoch_length(&self) -> u64 {
        let base = self.epoch_constant * self.congestion() * self.log_n();
        (base.ceil() as u64).max(1)
    }

    /// `⌈c₂ · F′²/(F′−t) · lg N⌉`, the length of the final epoch.
    fn final_epoch_length(&self) -> u64 {
        let base = self.final_epoch_constant
            * f64::from(self.f_prime())
            * self.congestion()
            * self.log_n();
        (base.ceil() as u64).max(1)
    }

    /// Per-round broadcast probability in epoch `epoch` (1-based):
    /// `min(1/2, 2^epoch / (2N))`.
    pub fn broadcast_probability(&self, epoch: u32) -> f64 {
        broadcast_probability(self.upper_bound_n, epoch)
    }

    /// Total number of rounds a contender spends before becoming a leader if
    /// it is never knocked out.
    pub fn total_contention_rounds(&self) -> u64 {
        self.resolve().total_contention_rounds()
    }

    /// Resolves the schedule's lengths once, for per-round lookups.
    pub(crate) fn resolve(&self) -> TrapdoorSchedule {
        let num_epochs = self.num_epochs();
        let regular_len = self.regular_epoch_length();
        let final_start = regular_len.saturating_mul(u64::from(num_epochs - 1));
        TrapdoorSchedule {
            upper_bound_n: self.upper_bound_n,
            epoch_one_probability: unclamped_probability(self.upper_bound_n, 1),
            f_prime: self.f_prime(),
            num_epochs,
            regular_len,
            final_start,
            total: final_start.saturating_add(self.final_epoch_length()),
        }
    }

    /// Resolves the wake-up baseline's schedule: `F′ = F`, the whole band,
    /// and a fixed contention length of `max(4, ⌈4·F/(F−t)·lg²N⌉)` rounds
    /// in place of the epochs, which the wake-up rule never consults (it
    /// reads `lg N` and its own [`cycle_probability`](TrapdoorSchedule::cycle_probability)).
    pub(crate) fn resolve_wakeup(&self) -> TrapdoorSchedule {
        let lg_n = self.log_n();
        let f = f64::from(self.num_frequencies.max(1));
        let t = f64::from(self.disruption_bound);
        let deadline = (4.0 * f / (f - t).max(1.0) * lg_n * lg_n).ceil() as u64;
        TrapdoorSchedule {
            f_prime: self.num_frequencies.max(1),
            total: deadline.max(4),
            ..self.resolve()
        }
    }

    /// The full epoch schedule — the reproduction of the paper's Figure 1.
    pub fn schedule(&self) -> Vec<EpochSpec> {
        (1..=self.num_epochs())
            .map(|epoch| EpochSpec {
                epoch,
                length: self.epoch_length(epoch),
                broadcast_probability: self.broadcast_probability(epoch),
            })
            .collect()
    }
}

/// `min(1/2, 2^epoch / (2N))`, the broadcast probability of epoch `epoch`.
fn broadcast_probability(upper_bound_n: u64, epoch: u32) -> f64 {
    unclamped_probability(upper_bound_n, epoch).min(0.5)
}

/// `2^epoch / (2N)`, rounded once.
fn unclamped_probability(upper_bound_n: u64, epoch: u32) -> f64 {
    let n = upper_bound_n as f64;
    2f64.powi(epoch as i32) / (2.0 * n)
}

/// A [`TrapdoorConfig`]'s schedule with its lengths resolved: `lg N − 1`
/// regular epochs of `regular_len` rounds, then the final epoch from round
/// `final_start` to `total`. Resolved once per configuration; a protocol
/// holds a copy and locates each contender-round in O(1). The wake-up
/// baseline's schedule ([`TrapdoorConfig::resolve_wakeup`]) holds its
/// deadline as `total`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrapdoorSchedule {
    upper_bound_n: u64,
    /// `2 / (2N)`, unclamped: epoch `e`'s probability is this times
    /// `2^(e−1)`, bit-identical to dividing `2^e` by `2N`, since scaling by
    /// a power of two commutes with rounding.
    epoch_one_probability: f64,
    f_prime: u32,
    num_epochs: u32,
    regular_len: u64,
    final_start: u64,
    total: u64,
}

impl TrapdoorSchedule {
    /// The bound `N` (a power of two) the schedule was resolved for.
    pub(crate) fn upper_bound_n(&self) -> u64 {
        self.upper_bound_n
    }

    /// `F′`, the number of frequencies the protocol uses.
    pub(crate) fn f_prime(&self) -> u32 {
        self.f_prime
    }

    /// See [`TrapdoorConfig::total_contention_rounds`].
    pub(crate) fn total_contention_rounds(&self) -> u64 {
        self.total
    }

    /// Locates local round `local_round` (0-based, counted from activation)
    /// within the schedule as `(epoch, round within the epoch)`. Returns
    /// `None` when the round lies past the final epoch (i.e. the contender
    /// has completed all epochs).
    pub(crate) fn epoch_at(&self, local_round: u64) -> Option<(u32, u64)> {
        if local_round < self.final_start {
            let regular = local_round / self.regular_len;
            Some((regular as u32 + 1, local_round % self.regular_len))
        } else if local_round < self.total {
            Some((self.num_epochs, local_round - self.final_start))
        } else {
            None
        }
    }

    /// A contender's broadcast probability in local round `local_round`:
    /// its epoch's, or 1/2 past the final epoch (promotion to leader
    /// happens in the previous round's feedback, so protocols never reach
    /// that case).
    pub(crate) fn contender_probability(&self, local_round: u64) -> f64 {
        match self.epoch_at(local_round) {
            Some((epoch, _)) => {
                (self.epoch_one_probability * (1u64 << (epoch - 1)) as f64).min(0.5)
            }
            None => 0.5,
        }
    }

    /// The wake-up rule's broadcast probability in local round
    /// `local_round`: `2^-(1 + r mod lg N)`, built as the double whose
    /// exponent is that power and whose mantissa is zero, so it is exact
    /// and costs no `powi` call. Inlined like the protocol's other
    /// per-round helpers.
    #[inline]
    pub(crate) fn cycle_probability(&self, local_round: u64) -> f64 {
        let power = 1 + local_round % u64::from(self.num_epochs);
        f64::from_bits((1023 - power) << 52)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f_prime_follows_paper_definition() {
        assert_eq!(TrapdoorConfig::new(64, 16, 4).f_prime(), 8);
        assert_eq!(TrapdoorConfig::new(64, 16, 12).f_prime(), 16);
        assert_eq!(TrapdoorConfig::new(64, 16, 0).f_prime(), 1);
        assert_eq!(
            TrapdoorConfig::new(64, 16, 4)
                .with_frequency_limit(1)
                .f_prime(),
            1
        );
        assert_eq!(
            TrapdoorConfig::new(64, 4, 1)
                .with_frequency_limit(100)
                .f_prime(),
            4
        );
    }

    #[test]
    fn n_rounded_to_power_of_two() {
        assert_eq!(TrapdoorConfig::new(100, 8, 2).upper_bound_n, 128);
        assert_eq!(TrapdoorConfig::new(128, 8, 2).upper_bound_n, 128);
        assert_eq!(TrapdoorConfig::new(1, 8, 2).upper_bound_n, 2);
    }

    #[test]
    fn final_epoch_is_longer() {
        let c = TrapdoorConfig::new(256, 16, 6);
        let regular = c.epoch_length(1);
        let last = c.epoch_length(c.num_epochs());
        assert!(last > regular, "final epoch must be Θ(F′) times longer");
        // F' = 12 and c₂/c₁ = 3, so the final epoch should be roughly 3·F'
        // times the regular one.
        let ratio = last as f64 / regular as f64;
        assert!(ratio > 12.0 && ratio < 72.0, "ratio was {ratio}");
    }

    #[test]
    fn broadcast_probability_doubles_per_epoch_and_ends_at_half() {
        let c = TrapdoorConfig::new(256, 8, 2);
        let lg_n = c.num_epochs();
        assert_eq!(lg_n, 8);
        assert!((c.broadcast_probability(1) - 1.0 / 256.0).abs() < 1e-12);
        for e in 1..lg_n {
            let ratio = c.broadcast_probability(e + 1) / c.broadcast_probability(e);
            assert!((ratio - 2.0).abs() < 1e-9);
        }
        assert!((c.broadcast_probability(lg_n) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_at_partitions_all_rounds() {
        let c = TrapdoorConfig::new(64, 8, 3);
        let total = c.total_contention_rounds();
        let schedule = c.resolve();
        let mut seen_epochs = std::collections::BTreeSet::new();
        let mut prev: Option<(u32, u64)> = None;
        for r in 0..total {
            let (e, within) = schedule.epoch_at(r).expect("round within the schedule");
            seen_epochs.insert(e);
            if let Some((pe, pw)) = prev {
                assert!(e == pe && within == pw + 1 || (e == pe + 1 && within == 0));
            }
            prev = Some((e, within));
        }
        assert_eq!(seen_epochs.len() as u32, c.num_epochs());
        assert!(schedule.epoch_at(total).is_none());
        assert!(schedule.epoch_at(total + 100).is_none());
    }

    #[test]
    fn a_single_epoch_schedule_is_the_final_epoch() {
        // N = 2 has lg N = 1 epoch, with no regular epoch before it.
        let c = TrapdoorConfig::new(2, 8, 2);
        assert_eq!(c.num_epochs(), 1);
        let schedule = c.resolve();
        let total = c.epoch_length(1);
        assert_eq!(schedule.total_contention_rounds(), total);
        assert_eq!(schedule.epoch_at(0), Some((1, 0)));
        assert_eq!(schedule.epoch_at(total - 1), Some((1, total - 1)));
        assert_eq!(schedule.epoch_at(total), None);
        assert_eq!(schedule.contender_probability(0), 0.5);
    }

    /// Locates a round by walking the epochs from the start: the oracle
    /// `TrapdoorSchedule::epoch_at`'s closed form must agree with.
    fn epoch_at_by_walking(c: &TrapdoorConfig, local_round: u64) -> Option<(u32, u64)> {
        let mut start = 0u64;
        for epoch in 1..=c.num_epochs() {
            let len = c.epoch_length(epoch);
            if local_round < start + len {
                return Some((epoch, local_round - start));
            }
            start += len;
        }
        None
    }

    #[test]
    fn schedule_matches_figure_one_shape() {
        let c = TrapdoorConfig::new(1024, 16, 4);
        let schedule = c.schedule();
        assert_eq!(schedule.len() as u32, c.num_epochs());
        // all but the last epoch share the same length
        let first_len = schedule[0].length;
        for spec in &schedule[..schedule.len() - 1] {
            assert_eq!(spec.length, first_len);
        }
        assert!(schedule.last().unwrap().length > first_len);
        // probabilities: 1/N, 2/N, …, 1/4, 1/2 (as fractions of 2N)
        assert!((schedule[0].broadcast_probability - 1.0 / 1024.0).abs() < 1e-12);
        assert!((schedule.last().unwrap().broadcast_probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cycle_probability_is_an_exact_power_of_two() {
        for lg in 1..=63u32 {
            let schedule = TrapdoorConfig::new(1 << lg, 8, 2).resolve_wakeup();
            let cycle = u64::from(lg);
            for r in 0..2 * cycle + 1 {
                let expected = 0.5f64.powi((1 + r % cycle) as i32);
                assert_eq!(
                    schedule.cycle_probability(r).to_bits(),
                    expected.to_bits(),
                    "lg N = {lg}, round {r}"
                );
            }
        }
    }

    #[test]
    fn wakeup_deadline_is_four_f_over_f_minus_t_lg_squared_n() {
        let deadline = |n, f, t| {
            TrapdoorConfig::new(n, f, t)
                .resolve_wakeup()
                .total_contention_rounds()
        };
        // ⌈4·F/(F−t)·lg²N⌉, with N rounded up to a power of two.
        assert_eq!(deadline(16, 8, 0), 64);
        assert_eq!(deadline(64, 8, 2), 192);
        assert_eq!(deadline(10, 3, 1), 96);
        assert_eq!(deadline(1024, 8, 6), 1600);
        assert_eq!(deadline(2, 1, 0), 4);
        assert!(deadline(1024, 8, 0) > deadline(16, 8, 0));
        assert!(deadline(64, 8, 6) > deadline(64, 8, 2));
        // The epoch constants and frequency limit do not apply.
        let tuned = TrapdoorConfig::new(64, 8, 2)
            .with_epoch_constant(5.0)
            .with_frequency_limit(2)
            .resolve_wakeup();
        assert_eq!(tuned.total_contention_rounds(), 192);
        assert_eq!(tuned.f_prime(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn epoch_zero_panics() {
        TrapdoorConfig::new(64, 8, 2).epoch_length(0);
    }

    proptest! {
        /// Lengths are positive, and the resolved schedule's closed form
        /// agrees with walking the epochs: the total, the epoch of every
        /// round at each boundary ±1 and at sampled rounds, and each
        /// epoch's contender probability, bit for bit. `N` is drawn
        /// log-uniformly from 1 up, so single-epoch schedules (`N ≤ 2`)
        /// are covered; `raw_n` sets it through the pub field, unrounded;
        /// `limit == 0` keeps `F′ = min(F, 2t)`.
        #[test]
        fn epoch_lengths_positive_and_total_consistent(
            lg in 0u32..13,
            spread in 0u64..4096,
            raw_n in any::<bool>(),
            f in 2u32..64,
            t in 0u32..63,
            c1 in 0.05f64..8.0,
            c2 in 0.05f64..24.0,
            limit in 0u32..70,
            sample in 0u64..1_000_000,
        ) {
            prop_assume!(t < f);
            let n = (1u64 << lg) + spread % (1u64 << lg);
            let mut c = TrapdoorConfig::new(n, f, t)
                .with_epoch_constant(c1)
                .with_final_epoch_constant(c2);
            if limit > 0 {
                c = c.with_frequency_limit(limit);
            }
            if raw_n {
                c.upper_bound_n = n;
            }
            let schedule = c.resolve();
            let mut boundaries = vec![0u64];
            for e in 1..=c.num_epochs() {
                let len = c.epoch_length(e);
                prop_assert!(len >= 1);
                boundaries.push(boundaries[boundaries.len() - 1] + len);
            }
            let total = boundaries[boundaries.len() - 1];
            prop_assert_eq!(total, c.total_contention_rounds());
            let rounds = boundaries
                .iter()
                .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
                .chain([sample % (total + 2), sample]);
            for r in rounds {
                prop_assert_eq!(schedule.epoch_at(r), epoch_at_by_walking(&c, r), "round {}", r);
            }
            for (epoch, &start) in (1..=c.num_epochs()).zip(&boundaries) {
                prop_assert_eq!(
                    schedule.contender_probability(start).to_bits(),
                    c.broadcast_probability(epoch).to_bits(),
                    "epoch {} of N = {}",
                    epoch,
                    c.upper_bound_n
                );
            }
        }

        #[test]
        fn broadcast_probability_in_unit_interval(n in 2u64..5000, e in 1u32..13) {
            let c = TrapdoorConfig::new(n, 8, 2);
            prop_assume!(e <= c.num_epochs());
            let p = c.broadcast_probability(e);
            prop_assert!(p > 0.0 && p <= 0.5);
        }
    }
}
