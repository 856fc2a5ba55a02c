//! The Trapdoor Protocol (Section 6), and the baselines that share its
//! contention.
//!
//! Every node starts as a *contender* and proceeds through `lg N` epochs
//! (Figure 1). In every round of epoch `e` a contender picks a frequency
//! uniformly at random from `[1..F′]` (`F′ = min(F, 2t)`) and broadcasts a
//! contender message — labelled with its timestamp `(rounds_active, uid)` —
//! with probability `2^e/(2N)`, otherwise it listens. A contender that
//! receives a contender message with a *larger* timestamp is knocked out
//! (the trapdoor opens) and from then on only listens on random frequencies
//! in `[1..F′]`. A contender that completes all `lg N` epochs becomes the
//! *leader*: it fixes the round numbering and thereafter broadcasts it with
//! probability 1/2 on a random frequency in `[1..F′]` every round. Any node
//! that receives a leader message adopts the numbering and is synchronized,
//! and a node that adopted never elects itself.
//!
//! Theorem 10: the protocol solves wireless synchronization in
//! `O(F/(F−t)·log²N + F·t/(F−t)·log N)` rounds with high probability.
//!
//! # Baselines
//!
//! The experiments (X2) compare the protocol against simplifications its
//! introduction motivates. They keep the knockouts, the adoption and the
//! leader above, and change only how a contender picks its frequency and
//! broadcast probability and when its contention ends: single-frequency
//! ([`TrapdoorConfig::with_frequency_limit(1)`](TrapdoorConfig::with_frequency_limit)),
//! which a jammer of frequency 1 starves forever;
//! [`TrapdoorProtocol::round_robin`], deterministic hopping, on which nodes
//! whose uids agree modulo `F` never meet; and [`TrapdoorProtocol::wakeup`],
//! Jurdziński–Stachowiak-style cycling probabilities over the whole band
//! with a fixed, conservative deadline instead of the epochs.

mod config;

pub(crate) use config::TrapdoorSchedule;
pub use config::{EpochSpec, TrapdoorConfig};

use rand::Rng;
use serde::{Deserialize, Serialize};

use wsync_radio::action::Action;
use wsync_radio::frequency::{Frequency, FrequencyBand};
use wsync_radio::message::Feedback;
use wsync_radio::node::ActivationInfo;
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;

use crate::params::LEADER_BROADCAST_PROBABILITY;
use crate::timestamp::Timestamp;

/// Messages exchanged by the Trapdoor Protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrapdoorMsg {
    /// A contender announcing its timestamp.
    Contender {
        /// The sender's timestamp at the time of broadcast.
        timestamp: Timestamp,
    },
    /// The leader announcing the round numbering: the number assigned to the
    /// round in which this message is received.
    Leader {
        /// The round number of the current round under the leader's scheme.
        announced_round: u64,
    },
}

/// The role a Trapdoor node is currently playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrapdoorRole {
    /// Still competing: proceeding through the epochs.
    Contender,
    /// Knocked out by a larger timestamp; listening for the leader.
    KnockedOut,
    /// Won the competition; disseminating the round numbering.
    Leader,
    /// Adopted the numbering scheme from the leader.
    Synchronized,
}

/// How a contender picks its frequency and broadcast probability, and when
/// its contention ends (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Contention {
    /// Figure 1: uniform over `[1..F′]`, the epoch probabilities, the end
    /// of the final epoch.
    Epochs,
    /// Round-robin hopping over `[1..F]`, with no random draw, and the
    /// epoch probabilities and deadline.
    Hop,
    /// Wake-up: uniform over `[1..F]`, probability `2^-(1 + r mod lg N)`,
    /// a fixed deadline. The schedule holds `F` as its `F′` and the
    /// deadline as its contention length.
    Cycle,
}

/// A node running the Trapdoor Protocol, or one of the baselines that
/// share its contention (see the module docs).
#[derive(Debug, Clone)]
pub struct TrapdoorProtocol {
    schedule: TrapdoorSchedule,
    role: TrapdoorRole,
    rule: Contention,
    timestamp: Timestamp,
    output: Option<u64>,
    band: FrequencyBand,
}

// Every engine pass walks a slice of nodes, so the node's size is paid per
// node-round: a layout that stored the wake-up cycle length and deadline in
// each node grew it to 112 bytes and cost 5.4% of `dense_sweep`'s
// `rounds_per_s`.
#[cfg(target_arch = "x86_64")]
const _: () = assert!(std::mem::size_of::<TrapdoorProtocol>() == 88);

impl TrapdoorProtocol {
    /// Creates a protocol instance with the given configuration, resolving
    /// its epoch schedule. The unique identifier is drawn when the node is
    /// activated.
    pub fn new(config: TrapdoorConfig) -> Self {
        Self::with_rule(Contention::Epochs, config.resolve(), config)
    }

    /// The round-robin hopping baseline: frequency `((uid + r) mod F) + 1`
    /// in local round `r`, with `config`'s epoch probabilities and
    /// deadline.
    pub fn round_robin(config: TrapdoorConfig) -> Self {
        Self::with_rule(Contention::Hop, config.resolve(), config)
    }

    /// The wake-up baseline: a uniform frequency from the whole band,
    /// broadcast probability `2^-(1 + r mod lg N)` in local round `r`, and
    /// a fixed deadline of `max(4, ⌈4·F/(F−t)·lg²N⌉)` rounds. `config`'s
    /// epoch constants and frequency limit do not apply.
    pub fn wakeup(config: TrapdoorConfig) -> Self {
        Self::with_rule(Contention::Cycle, config.resolve_wakeup(), config)
    }

    fn with_rule(rule: Contention, schedule: TrapdoorSchedule, config: TrapdoorConfig) -> Self {
        TrapdoorProtocol {
            schedule,
            role: TrapdoorRole::Contender,
            rule,
            timestamp: Timestamp::new(0, 0),
            output: None,
            band: FrequencyBand::new(config.num_frequencies.max(1)),
        }
    }

    /// The node's current role.
    pub fn role(&self) -> TrapdoorRole {
        self.role
    }

    /// Whether this node won the competition and became the leader.
    pub fn is_leader(&self) -> bool {
        self.role == TrapdoorRole::Leader
    }

    /// The node's current timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// The probability with which this node would broadcast in its local
    /// round `local_round`, given its current role. This is the node's
    /// contribution to the *broadcast weight* `W(r)` of Lemma 9; the weight
    /// experiment (L9) sums it over all active nodes every round to verify
    /// that the total stays below `6F′`.
    pub fn broadcast_weight_at(&self, local_round: u64) -> f64 {
        match self.role {
            TrapdoorRole::Contender => self.contender_probability(local_round),
            TrapdoorRole::Leader => LEADER_BROADCAST_PROBABILITY,
            TrapdoorRole::KnockedOut | TrapdoorRole::Synchronized => 0.0,
        }
    }

    // Called from `choose_action` once per node-round; without `#[inline]`
    // the engine's actions loop keeps it as a call.
    #[inline]
    fn pick_frequency(&self, local_round: u64, rng: &mut SimRng) -> Frequency {
        match self.rule {
            Contention::Hop => {
                let f = u64::from(self.band.count());
                Frequency::new((self.timestamp.uid.wrapping_add(local_round) % f) as u32 + 1)
            }
            Contention::Epochs | Contention::Cycle => {
                self.band.sample_prefix(self.schedule.f_prime(), rng)
            }
        }
    }

    // Called from `choose_action` once per contender-round, like
    // `pick_frequency`.
    #[inline]
    fn contender_probability(&self, local_round: u64) -> f64 {
        match self.rule {
            Contention::Epochs | Contention::Hop => {
                self.schedule.contender_probability(local_round)
            }
            Contention::Cycle => self.schedule.cycle_probability(local_round),
        }
    }
}

impl Protocol for TrapdoorProtocol {
    type Msg = TrapdoorMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        debug_assert_eq!(info.num_frequencies, self.band.count());
        self.band = FrequencyBand::new(info.num_frequencies.max(1));
        self.timestamp = Timestamp::new(0, Timestamp::draw_uid(self.schedule.upper_bound_n(), rng));
    }

    // The engine's round loop calls this once per node-round; without
    // `#[inline]` it stays a call there.
    #[inline]
    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<TrapdoorMsg> {
        // The timestamp counts the rounds the node has been active,
        // including the current one.
        self.timestamp.rounds_active = local_round + 1;
        let frequency = self.pick_frequency(local_round, rng);
        match self.role {
            TrapdoorRole::Contender => {
                if rng.gen_bool(self.contender_probability(local_round)) {
                    Action::broadcast(
                        frequency,
                        TrapdoorMsg::Contender {
                            timestamp: self.timestamp,
                        },
                    )
                } else {
                    Action::listen(frequency)
                }
            }
            TrapdoorRole::KnockedOut | TrapdoorRole::Synchronized => Action::listen(frequency),
            TrapdoorRole::Leader => {
                if rng.gen_bool(LEADER_BROADCAST_PROBABILITY) {
                    Action::broadcast(
                        frequency,
                        TrapdoorMsg::Leader {
                            // Our output for the current round will be the
                            // previous output plus one (incremented at the
                            // end of the round), so announce that value.
                            announced_round: self.output.unwrap_or(0) + 1,
                        },
                    )
                } else {
                    Action::listen(frequency)
                }
            }
        }
    }

    fn on_feedback(
        &mut self,
        local_round: u64,
        feedback: Feedback<TrapdoorMsg>,
        _rng: &mut SimRng,
    ) {
        let was_synced = self.output.is_some();

        if let Feedback::Received(received) = &feedback {
            match received.payload {
                TrapdoorMsg::Contender { timestamp } => {
                    if self.role == TrapdoorRole::Contender && timestamp > self.timestamp {
                        self.role = TrapdoorRole::KnockedOut;
                    }
                }
                TrapdoorMsg::Leader { announced_round } => {
                    if self.role != TrapdoorRole::Leader && !was_synced {
                        self.role = TrapdoorRole::Synchronized;
                        self.output = Some(announced_round);
                    }
                }
            }
        }

        // A contender that has survived its contention becomes the leader.
        if self.role == TrapdoorRole::Contender
            && local_round + 1 >= self.schedule.total_contention_rounds()
        {
            self.role = TrapdoorRole::Leader;
            if !was_synced {
                // The leader is free to choose any numbering scheme; it uses
                // the number of rounds it has been active.
                self.output = Some(local_round + 1);
            }
        }

        // Correctness: a node that already had a round number increments it.
        if was_synced {
            self.output = Some(self.output.expect("synced node has an output") + 1);
        }
    }

    fn output(&self) -> Option<u64> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use wsync_radio::message::Received;
    use wsync_radio::node::NodeId;

    type Build = fn(TrapdoorConfig) -> TrapdoorProtocol;

    /// The constructor of each contention rule.
    const RULES: [(&str, Build); 3] = [
        ("epochs", TrapdoorProtocol::new),
        ("hop", TrapdoorProtocol::round_robin),
        ("cycle", TrapdoorProtocol::wakeup),
    ];

    /// A node built by `build` for `N = 64`, `F = 8`, `t = 2` (so
    /// `F′ = 4`), activated.
    fn activated_as(build: Build, seed: u64) -> (TrapdoorProtocol, SimRng) {
        let mut p = build(TrapdoorConfig::new(64, 8, 2));
        let mut rng = SimRng::from_seed(seed);
        p.on_activate(ActivationInfo::new(64, 8, 2), &mut rng);
        (p, rng)
    }

    fn activated_protocol(seed: u64) -> (TrapdoorProtocol, SimRng) {
        activated_as(TrapdoorProtocol::new, seed)
    }

    fn silence() -> Feedback<TrapdoorMsg> {
        Feedback::Silence {
            frequency: Frequency::new(1),
        }
    }

    /// Runs the local rounds `rounds` hearing nothing.
    fn run_silent(p: &mut TrapdoorProtocol, rounds: Range<u64>, rng: &mut SimRng) {
        for r in rounds {
            p.choose_action(r, rng);
            p.on_feedback(r, silence(), rng);
        }
    }

    fn contender_msg(rounds_active: u64, uid: u64) -> Feedback<TrapdoorMsg> {
        Feedback::Received(Received {
            sender: NodeId::new(9),
            frequency: Frequency::new(1),
            payload: TrapdoorMsg::Contender {
                timestamp: Timestamp::new(rounds_active, uid),
            },
        })
    }

    fn leader_msg(announced: u64) -> Feedback<TrapdoorMsg> {
        Feedback::Received(Received {
            sender: NodeId::new(9),
            frequency: Frequency::new(1),
            payload: TrapdoorMsg::Leader {
                announced_round: announced,
            },
        })
    }

    #[test]
    fn starts_as_contender_with_bottom_output() {
        let (p, _) = activated_protocol(1);
        assert_eq!(p.role(), TrapdoorRole::Contender);
        assert_eq!(p.output(), None);
        assert!(!p.is_leader());
        assert!(p.timestamp().uid >= 1);
    }

    #[test]
    fn actions_stay_within_f_prime() {
        let (mut p, mut rng) = activated_protocol(2);
        let f_prime = p.schedule.f_prime();
        for r in 0..200 {
            let action = p.choose_action(r, &mut rng);
            let freq = action.frequency().expect("contender never sleeps");
            assert!(freq.index() <= f_prime);
            p.on_feedback(r, silence(), &mut rng);
        }
    }

    #[test]
    fn knocked_out_by_larger_timestamp_only() {
        let (mut p, mut rng) = activated_protocol(3);
        p.choose_action(0, &mut rng);
        // smaller timestamp: stays contender
        p.on_feedback(0, contender_msg(0, 0), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::Contender);
        // larger timestamp: knocked out
        p.choose_action(1, &mut rng);
        p.on_feedback(1, contender_msg(1_000_000, u64::MAX), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::KnockedOut);
        // knocked-out nodes only listen
        for r in 2..10 {
            let action = p.choose_action(r, &mut rng);
            assert!(action.is_listen());
            p.on_feedback(r, silence(), &mut rng);
        }
        assert_eq!(p.output(), None);
    }

    #[test]
    fn adopts_leader_numbering_and_increments() {
        let (mut p, mut rng) = activated_protocol(4);
        p.choose_action(0, &mut rng);
        p.on_feedback(0, leader_msg(41), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::Synchronized);
        assert_eq!(p.output(), Some(41));
        // Output increments each subsequent round (correctness).
        for r in 1..5 {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
            assert_eq!(p.output(), Some(41 + r));
        }
    }

    #[test]
    fn knocked_out_node_still_adopts_leader() {
        let (mut p, mut rng) = activated_protocol(5);
        p.choose_action(0, &mut rng);
        p.on_feedback(0, contender_msg(999, 999), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::KnockedOut);
        p.choose_action(1, &mut rng);
        p.on_feedback(1, leader_msg(7), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::Synchronized);
        assert_eq!(p.output(), Some(7));
    }

    #[test]
    fn lone_contender_becomes_leader_after_all_epochs() {
        let (mut p, mut rng) = activated_protocol(6);
        let total = p.schedule.total_contention_rounds();
        for r in 0..total {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
        }
        assert!(p.is_leader());
        assert_eq!(p.output(), Some(total));
        // Leader output keeps incrementing and the announced value matches
        // the output at the end of the round.
        let before = p.output().unwrap();
        let action = p.choose_action(total, &mut rng);
        if let Action::Broadcast {
            message: TrapdoorMsg::Leader { announced_round },
            ..
        } = action
        {
            assert_eq!(announced_round, before + 1);
        }
        p.on_feedback(total, silence(), &mut rng);
        assert_eq!(p.output(), Some(before + 1));
    }

    #[test]
    fn leader_ignores_other_leader_messages() {
        let (mut p, mut rng) = activated_protocol(7);
        let total = p.schedule.total_contention_rounds();
        for r in 0..total {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
        }
        assert!(p.is_leader());
        let out_before = p.output().unwrap();
        p.choose_action(total, &mut rng);
        p.on_feedback(total, leader_msg(123_456), &mut rng);
        // keeps its own numbering (incremented), does not adopt
        assert_eq!(p.output(), Some(out_before + 1));
        assert!(p.is_leader());
    }

    #[test]
    fn contender_broadcast_frequency_increases_with_epochs() {
        // With broadcast probability 2^e/(2N), later epochs should broadcast
        // much more often than the first epoch.
        let config = TrapdoorConfig::new(256, 4, 1);
        let mut early = 0u32;
        let mut late = 0u32;
        let trials = 400u64;
        let mut p = TrapdoorProtocol::new(config);
        let mut rng = SimRng::from_seed(8);
        p.on_activate(ActivationInfo::new(256, 4, 1), &mut rng);
        let last_epoch_start =
            config.total_contention_rounds() - config.epoch_length(config.num_epochs());
        for i in 0..trials {
            // sample epoch-1 behaviour (without feeding feedback, the role
            // stays contender and probabilities depend only on the round)
            if p.choose_action(0, &mut rng).is_broadcast() {
                early += 1;
            }
            if p.choose_action(last_epoch_start + (i % 4), &mut rng)
                .is_broadcast()
            {
                late += 1;
            }
        }
        assert!(
            late > early,
            "late epochs must broadcast more ({late} vs {early})"
        );
        assert!(late as f64 > trials as f64 * 0.3);
        assert!((early as f64) < trials as f64 * 0.1);
    }

    /// The contention around the rules is one state machine: for every
    /// rule, only a larger timestamp knocks a contender out, a knocked-out
    /// node only listens and never elects itself but still adopts a
    /// leader's numbering, an adopted output grows by one each round, a
    /// contender that adopted never elects itself, and a lone contender
    /// elects itself at exactly its deadline with its deadline as output.
    #[test]
    fn every_rule_runs_one_contention_state_machine() {
        for (name, build) in RULES {
            let deadline = activated_as(build, 1).0.schedule.total_contention_rounds();

            let (mut p, mut rng) = activated_as(build, 2);
            p.choose_action(0, &mut rng);
            p.on_feedback(0, contender_msg(0, 0), &mut rng);
            assert_eq!(p.role(), TrapdoorRole::Contender, "{name}");
            p.choose_action(1, &mut rng);
            p.on_feedback(1, contender_msg(u64::MAX, u64::MAX), &mut rng);
            assert_eq!(p.role(), TrapdoorRole::KnockedOut, "{name}");
            for r in 2..deadline + 5 {
                assert!(p.choose_action(r, &mut rng).is_listen(), "{name}");
                p.on_feedback(r, silence(), &mut rng);
            }
            assert_eq!(p.output(), None, "{name}: knocked out past the deadline");
            let heard = deadline + 5;
            p.choose_action(heard, &mut rng);
            p.on_feedback(heard, leader_msg(77), &mut rng);
            assert_eq!(p.output(), Some(77), "{name}");
            run_silent(&mut p, heard + 1..heard + 4, &mut rng);
            assert_eq!(p.output(), Some(80), "{name}: one more each round");

            let (mut p, mut rng) = activated_as(build, 3);
            p.choose_action(0, &mut rng);
            p.on_feedback(0, leader_msg(9), &mut rng);
            run_silent(&mut p, 1..deadline + 5, &mut rng);
            assert!(!p.is_leader(), "{name}: adopted, then elected itself");
            assert_eq!(p.output(), Some(9 + deadline + 4), "{name}");

            let (mut p, mut rng) = activated_as(build, 4);
            run_silent(&mut p, 0..deadline - 1, &mut rng);
            assert_eq!(p.role(), TrapdoorRole::Contender, "{name}: elected early");
            run_silent(&mut p, deadline - 1..deadline, &mut rng);
            assert!(p.is_leader(), "{name}: not elected at its deadline");
            assert_eq!(p.output(), Some(deadline), "{name}");
        }
    }

    #[test]
    fn hop_repeats_with_period_f_and_draws_nothing() {
        let (mut p, mut rng) = activated_as(TrapdoorProtocol::round_robin, 5);
        let f = 8;
        let uid = p.timestamp().uid;
        let mut untouched = rng.clone();
        for r in 0..3 * f {
            let hop = p.pick_frequency(r, &mut rng);
            assert_eq!(hop, Frequency::new(((uid + r) % f) as u32 + 1));
            assert_eq!(hop, p.pick_frequency(r + f, &mut rng));
            assert_ne!(hop, p.pick_frequency(r + 1, &mut rng));
        }
        assert_eq!(
            rng.gen::<u64>(),
            untouched.gen::<u64>(),
            "a hop drew randomness"
        );
        for r in 0..3 * f {
            let hop = p.pick_frequency(r, &mut rng);
            assert_eq!(p.choose_action(r, &mut rng).frequency(), Some(hop));
            p.on_feedback(r, silence(), &mut rng);
        }
    }

    #[test]
    fn cycle_uses_the_whole_band_and_the_cycling_probability() {
        // F′ = 4 for this instance; the wake-up rule ignores it.
        let (mut p, mut rng) = activated_as(TrapdoorProtocol::wakeup, 6);
        for r in 0..12 {
            let expected = 0.5f64.powi((1 + r % 6) as i32);
            assert_eq!(p.broadcast_weight_at(r), expected, "round {r}, lg N = 6");
        }
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..200 {
            let action = p.choose_action(r % 5, &mut rng);
            seen.insert(
                action
                    .frequency()
                    .expect("a contender never sleeps")
                    .index(),
            );
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
    }
}
