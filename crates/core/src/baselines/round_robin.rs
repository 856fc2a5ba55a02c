//! A deterministic round-robin frequency-hopping baseline.
//!
//! The introduction motivates synchronization with Bluetooth-style
//! pseudorandom frequency hopping. This baseline captures the simplest such
//! scheme: every node hops deterministically through the band —
//! frequency `((uid + local_round) mod F) + 1` — broadcasts its timestamp
//! with the Trapdoor epoch probabilities, applies Trapdoor knockouts, and
//! declares itself leader after surviving the same number of rounds a
//! Trapdoor contender would. Because the hop sequence is deterministic given
//! the uid, two nodes whose uids are congruent modulo `F` never meet, and a
//! jammer that knows the schedule can track a node; the baseline experiment
//! (X2) quantifies both weaknesses.

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
use crate::trapdoor::{TrapdoorConfig, TrapdoorMsg, TrapdoorSchedule};

/// Configuration of the round-robin hopping baseline. Reuses the Trapdoor
/// epoch schedule for broadcast probabilities and the leader deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundRobinConfig {
    /// The underlying Trapdoor schedule (epoch lengths and probabilities).
    pub trapdoor: TrapdoorConfig,
}

impl RoundRobinConfig {
    /// Creates a configuration.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        RoundRobinConfig {
            trapdoor: TrapdoorConfig::new(upper_bound_n, num_frequencies, disruption_bound),
        }
    }
}

/// The round-robin hopping baseline protocol.
#[derive(Debug, Clone)]
pub struct RoundRobinProtocol {
    schedule: TrapdoorSchedule,
    band: FrequencyBand,
    timestamp: Timestamp,
    knocked_out: bool,
    leader: bool,
    output: Option<u64>,
}

impl RoundRobinProtocol {
    /// Creates a protocol instance, resolving the Trapdoor schedule.
    pub fn new(config: RoundRobinConfig) -> Self {
        RoundRobinProtocol {
            schedule: config.trapdoor.resolve(),
            band: FrequencyBand::new(config.trapdoor.num_frequencies.max(1)),
            timestamp: Timestamp::new(0, 0),
            knocked_out: false,
            leader: false,
            output: None,
        }
    }

    /// Whether this node declared itself leader.
    pub fn is_leader(&self) -> bool {
        self.leader
    }

    /// The deterministic hop frequency for local round `r`.
    fn hop_frequency(&self, local_round: u64) -> Frequency {
        let f = u64::from(self.band.count());
        Frequency::new(((self.timestamp.uid.wrapping_add(local_round)) % f) as u32 + 1)
    }
}

impl Protocol for RoundRobinProtocol {
    type Msg = TrapdoorMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        self.band = FrequencyBand::new(info.num_frequencies.max(1));
        self.timestamp = Timestamp::new(0, Timestamp::draw_uid(self.schedule.upper_bound_n(), rng));
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<TrapdoorMsg> {
        self.timestamp.rounds_active = local_round + 1;
        let frequency = self.hop_frequency(local_round);
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
        if rng.gen_bool(self.schedule.contender_probability(local_round)) {
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
            && local_round + 1 >= self.schedule.total_contention_rounds()
        {
            self.leader = true;
            if !was_synced {
                self.output = Some(local_round + 1);
            }
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

    fn activated(seed: u64) -> (RoundRobinProtocol, SimRng) {
        let config = RoundRobinConfig::new(16, 4, 1);
        let mut p = RoundRobinProtocol::new(config);
        let mut rng = SimRng::from_seed(seed);
        p.on_activate(ActivationInfo::new(16, 4, 1), &mut rng);
        (p, rng)
    }

    fn silence() -> Feedback<TrapdoorMsg> {
        Feedback::Silence {
            frequency: Frequency::new(1),
        }
    }

    #[test]
    fn hop_sequence_is_deterministic_and_cyclic() {
        let (p, _) = activated(1);
        let f = 4u64;
        for r in 0..20u64 {
            assert_eq!(p.hop_frequency(r), p.hop_frequency(r + f));
            assert_ne!(p.hop_frequency(r), p.hop_frequency(r + 1));
        }
    }

    #[test]
    fn actions_follow_the_hop_sequence() {
        let (mut p, mut rng) = activated(2);
        for r in 0..40 {
            let expected = p.hop_frequency(r);
            let action = p.choose_action(r, &mut rng);
            assert_eq!(action.frequency(), Some(expected));
            p.on_feedback(r, silence(), &mut rng);
        }
    }

    #[test]
    fn survivor_becomes_leader_after_trapdoor_schedule() {
        let (mut p, mut rng) = activated(3);
        let total = p.schedule.total_contention_rounds();
        for r in 0..total {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
        }
        assert!(p.is_leader());
        assert_eq!(p.output(), Some(total));
    }

    #[test]
    fn knockout_and_adoption_work() {
        let (mut p, mut rng) = activated(4);
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            Feedback::Received(wsync_radio::message::Received {
                sender: wsync_radio::node::NodeId::new(3),
                frequency: Frequency::new(2),
                payload: TrapdoorMsg::Contender {
                    timestamp: Timestamp::new(u64::MAX, 0),
                },
            }),
            &mut rng,
        );
        assert!(!p.is_leader());
        p.choose_action(1, &mut rng);
        p.on_feedback(
            1,
            Feedback::Received(wsync_radio::message::Received {
                sender: wsync_radio::node::NodeId::new(3),
                frequency: Frequency::new(2),
                payload: TrapdoorMsg::Leader { announced_round: 5 },
            }),
            &mut rng,
        );
        assert_eq!(p.output(), Some(5));
    }
}
