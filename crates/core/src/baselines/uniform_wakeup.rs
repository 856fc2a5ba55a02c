//! A multi-frequency wake-up-style baseline protocol.
//!
//! Classic wake-up protocols for single-hop radio networks (e.g.
//! Jurdziński–Stachowiak) have every awake node broadcast with a
//! probability that cycles through the decreasing sequence
//! `1/2, 1/4, …, 1/N, 1/2, …`, so that whatever the unknown number of
//! participants is, some phase of the cycle gives a constant per-round
//! probability of an uncontended broadcast. This baseline adapts that idea
//! to the multi-frequency disrupted model in the most straightforward way:
//!
//! * every round a contender picks a frequency uniformly from the whole band
//!   `[1..F]` (no `F′ = min(F, 2t)` restriction);
//! * it broadcasts (its timestamp) with the cycling probability;
//! * Trapdoor-style knockouts apply: hearing a larger timestamp knocks a
//!   contender out;
//! * instead of the Trapdoor's escalating epochs, a contender that survives
//!   a fixed deadline of `deadline_rounds` becomes leader and disseminates
//!   the numbering like the Trapdoor leader does — unless it has already
//!   adopted a leader's numbering, as a synchronized Trapdoor node never
//!   elects itself.
//!
//! The fixed deadline is the baseline's weakness: it must be chosen
//! conservatively (large) for agreement to hold, which the crossover
//! experiment (X2) quantifies.

use rand::Rng;
use serde::{Deserialize, Serialize};

use wsync_radio::action::Action;
use wsync_radio::frequency::FrequencyBand;
use wsync_radio::message::Feedback;
use wsync_radio::node::ActivationInfo;
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;

use crate::params::{ceil_log2, next_power_of_two, LEADER_BROADCAST_PROBABILITY};
use crate::timestamp::Timestamp;
use crate::trapdoor::TrapdoorMsg;

/// Configuration of the wake-up-style baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WakeupConfig {
    /// Bound `N` on the number of participants (rounded to a power of two).
    pub upper_bound_n: u64,
    /// Number of frequencies `F`.
    pub num_frequencies: u32,
    /// Disruption bound `t` (only used to size the default deadline).
    pub disruption_bound: u32,
    /// Rounds a contender must survive before declaring itself leader.
    pub deadline_rounds: u64,
}

impl WakeupConfig {
    /// Creates a configuration with a deadline of
    /// `⌈4 · F/(F−t) · lg²N⌉` rounds.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        let n = next_power_of_two(upper_bound_n);
        let lg_n = f64::from(ceil_log2(n).max(1));
        let f = f64::from(num_frequencies.max(1));
        let t = f64::from(disruption_bound);
        let deadline = (4.0 * f / (f - t).max(1.0) * lg_n * lg_n).ceil() as u64;
        WakeupConfig {
            upper_bound_n: n,
            num_frequencies,
            disruption_bound,
            deadline_rounds: deadline.max(4),
        }
    }

    /// The cycling broadcast probability used at local round `r`:
    /// `2^{-(1 + r mod lg N)}`.
    pub fn broadcast_probability(&self, local_round: u64) -> f64 {
        let cycle = u64::from(ceil_log2(self.upper_bound_n).max(1));
        let phase = (local_round % cycle) + 1;
        0.5f64.powi(phase as i32)
    }
}

/// The wake-up-style baseline protocol.
#[derive(Debug, Clone)]
pub struct WakeupProtocol {
    config: WakeupConfig,
    band: FrequencyBand,
    timestamp: Timestamp,
    knocked_out: bool,
    leader: bool,
    output: Option<u64>,
}

impl WakeupProtocol {
    /// Creates a protocol instance.
    pub fn new(config: WakeupConfig) -> Self {
        WakeupProtocol {
            config,
            band: FrequencyBand::new(config.num_frequencies.max(1)),
            timestamp: Timestamp::new(0, 0),
            knocked_out: false,
            leader: false,
            output: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WakeupConfig {
        &self.config
    }

    /// Whether this node declared itself leader.
    pub fn is_leader(&self) -> bool {
        self.leader
    }
}

impl Protocol for WakeupProtocol {
    type Msg = TrapdoorMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        self.band = FrequencyBand::new(info.num_frequencies.max(1));
        self.timestamp = Timestamp::new(0, Timestamp::draw_uid(self.config.upper_bound_n, rng));
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<TrapdoorMsg> {
        self.timestamp.rounds_active = local_round + 1;
        let frequency = self.band.sample_uniform(rng);
        if self.leader {
            return if rng.gen_bool(LEADER_BROADCAST_PROBABILITY) {
                Action::broadcast(
                    frequency,
                    TrapdoorMsg::Leader {
                        announced_round: self.output.unwrap_or(0) + 1,
                    },
                )
            } else {
                Action::listen(frequency)
            };
        }
        if self.knocked_out || self.output.is_some() {
            return Action::listen(frequency);
        }
        let p = self.config.broadcast_probability(local_round);
        if rng.gen_bool(p) {
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
                    if !self.leader && !self.knocked_out && timestamp > self.timestamp {
                        self.knocked_out = true;
                    }
                }
                TrapdoorMsg::Leader { announced_round } => {
                    if !self.leader && !was_synced {
                        self.output = Some(announced_round);
                    }
                }
            }
        }
        if !self.leader
            && !self.knocked_out
            && self.output.is_none()
            && local_round + 1 >= self.config.deadline_rounds
        {
            self.leader = true;
            self.output = Some(local_round + 1);
        }
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
    use wsync_radio::frequency::Frequency;
    use wsync_radio::message::Received;
    use wsync_radio::node::NodeId;

    fn activated(seed: u64) -> (WakeupProtocol, SimRng) {
        let config = WakeupConfig {
            deadline_rounds: 20,
            ..WakeupConfig::new(64, 8, 2)
        };
        let mut p = WakeupProtocol::new(config);
        let mut rng = SimRng::from_seed(seed);
        p.on_activate(ActivationInfo::new(64, 8, 2), &mut rng);
        (p, rng)
    }

    fn silence() -> Feedback<TrapdoorMsg> {
        Feedback::Silence {
            frequency: Frequency::new(1),
        }
    }

    fn heard(payload: TrapdoorMsg) -> Feedback<TrapdoorMsg> {
        Feedback::Received(Received {
            sender: NodeId::new(1),
            frequency: Frequency::new(1),
            payload,
        })
    }

    #[test]
    fn default_deadline_scales_with_parameters() {
        let small = WakeupConfig::new(16, 8, 0).deadline_rounds;
        let big = WakeupConfig::new(1024, 8, 6).deadline_rounds;
        assert!(big > small);
    }

    #[test]
    fn broadcast_probability_cycles() {
        let c = WakeupConfig::new(16, 4, 0);
        let cycle = 4; // lg 16
        assert_eq!(c.broadcast_probability(0), 0.5);
        assert_eq!(c.broadcast_probability(1), 0.25);
        assert_eq!(c.broadcast_probability(cycle), 0.5);
    }

    #[test]
    fn survivor_becomes_leader_at_deadline() {
        let (mut p, mut rng) = activated(1);
        for r in 0..20 {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
        }
        assert!(p.is_leader());
        assert_eq!(p.output(), Some(20));
    }

    #[test]
    fn knocked_out_by_larger_timestamp_and_adopts_leader() {
        let (mut p, mut rng) = activated(2);
        p.choose_action(0, &mut rng);
        let timestamp = Timestamp::new(u64::MAX, 1);
        p.on_feedback(0, heard(TrapdoorMsg::Contender { timestamp }), &mut rng);
        assert!(p.knocked_out);
        // Knocked-out nodes never become leader, even past the deadline.
        for r in 1..30 {
            let a = p.choose_action(r, &mut rng);
            assert!(a.is_listen());
            p.on_feedback(r, silence(), &mut rng);
        }
        assert!(!p.is_leader());
        // They adopt the leader's numbering when they hear it.
        p.choose_action(30, &mut rng);
        let leader = TrapdoorMsg::Leader {
            announced_round: 77,
        };
        p.on_feedback(30, heard(leader), &mut rng);
        assert_eq!(p.output(), Some(77));
        p.choose_action(31, &mut rng);
        p.on_feedback(31, silence(), &mut rng);
        assert_eq!(p.output(), Some(78));
    }

    #[test]
    fn a_contender_that_adopted_a_leader_does_not_elect_itself() {
        let (mut p, mut rng) = activated(4);
        p.choose_action(0, &mut rng);
        let leader = TrapdoorMsg::Leader {
            announced_round: 40,
        };
        p.on_feedback(0, heard(leader), &mut rng);
        // Past the 20-round deadline, still a follower counting on.
        for r in 1..30 {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
        }
        assert!(!p.is_leader());
        assert_eq!(p.output(), Some(40 + 29));
    }

    #[test]
    fn uses_entire_band() {
        let (mut p, mut rng) = activated(3);
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..200 {
            if let Some(f) = p.choose_action(r % 5, &mut rng).frequency() {
                seen.insert(f.index());
            }
        }
        assert!(
            seen.len() >= 6,
            "should use most of the 8 frequencies, saw {seen:?}"
        );
    }
}
