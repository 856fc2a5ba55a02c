//! The Good Samaritan Protocol (Section 7).
//!
//! An optimistic, adaptive variant of the Trapdoor Protocol for oblivious
//! adversaries (and `t ≤ F/2`). Nodes proceed through `lg F` super-epochs.
//! Within a super-epoch `k`, nodes concentrate half of their attention on
//! the low `2^k` frequencies; when at most `t′` frequencies are actually
//! disrupted and all nodes wake together, the protocol elects a leader by
//! the end of super-epoch `lg 2t′` and hence terminates in `O(t′·log³N)`
//! rounds. Unlike the Trapdoor Protocol, a contender receiving another
//! contender's message is not knocked out but *downgraded* to a *good
//! samaritan*, whose job is to acknowledge the remaining contender's
//! broadcasts so the contender can tell that it has won (a node cannot
//! otherwise detect success, since the adversary might be jamming all the
//! frequencies it uses). A samaritan receiving another samaritan's message
//! is knocked out (becomes passive). Nodes that finish all super-epochs
//! unsynchronized fall back to a modified Trapdoor Protocol with epochs at
//! least four times the longest Good Samaritan epoch, interleaved (with
//! probability 1/2 per round) with "special" rounds that keep them
//! discoverable by an optimistic-portion leader.
//!
//! Theorem 18: termination within `O(F·log³N)` rounds in every execution,
//! and within `O(t′·log³N)` rounds when all `n ≥ 2` nodes wake together and
//! at most `t′ ≤ t` frequencies are disrupted per round.

mod config;

pub use config::{GoodSamaritanConfig, Phase};

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use wsync_radio::action::Action;
use wsync_radio::frequency::{Frequency, FrequencyBand};
use wsync_radio::message::Feedback;
use wsync_radio::node::ActivationInfo;
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;

use crate::params::LEADER_BROADCAST_PROBABILITY;
use crate::timestamp::Timestamp;

/// A samaritan's acknowledgement that a contender has been heard
/// sufficiently often.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuccessReport {
    /// Unique identifier of the contender the report is about.
    pub contender_uid: u64,
    /// Number of successful (epoch `lg N + 1`, non-special, same-activation)
    /// rounds the samaritan has recorded for that contender in the current
    /// super-epoch.
    pub count: u64,
}

/// Messages exchanged by the Good Samaritan Protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoodSamaritanMsg {
    /// A contender's broadcast during the optimistic portion.
    Contender {
        /// Rounds the sender has been active (used to detect that sender and
        /// receiver woke in the same round, condition (c) of Section 7.1).
        rounds_active: u64,
        /// Sender's unique identifier.
        uid: u64,
        /// Whether the sender is currently in epoch `lg N + 1` (the epoch in
        /// which samaritans record successes).
        report_epoch: bool,
        /// Whether the sender designated this round as special.
        special: bool,
    },
    /// A good samaritan's broadcast during the optimistic portion.
    Samaritan {
        /// Sender's unique identifier.
        uid: u64,
        /// Whether the sender designated this round as special.
        special: bool,
        /// The samaritan's best success report, if it has recorded any.
        report: Option<SuccessReport>,
    },
    /// A fallback (modified Trapdoor) contender's broadcast, carrying its
    /// timestamp for knockouts.
    Fallback {
        /// The sender's timestamp.
        timestamp: Timestamp,
    },
    /// The leader announcing the round numbering.
    Leader {
        /// The round number of the current round under the leader's scheme.
        announced_round: u64,
    },
}

/// The role a Good Samaritan node is currently playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamaritanRole {
    /// Competing to become leader during the optimistic portion.
    Contender,
    /// Downgraded: helping the remaining contender detect success.
    Samaritan,
    /// Knocked out (samaritan heard another samaritan); listening only.
    Passive,
    /// Competing in the fallback modified Trapdoor Protocol.
    FallbackContender,
    /// Knocked out during the fallback; listening only.
    FallbackKnockedOut,
    /// Won the competition; disseminating the round numbering.
    Leader,
    /// Adopted the leader's numbering.
    Synchronized,
}

impl SamaritanRole {
    /// Whether the role belongs to the optimistic portion of the protocol.
    fn is_optimistic(self) -> bool {
        matches!(
            self,
            SamaritanRole::Contender | SamaritanRole::Samaritan | SamaritanRole::Passive
        )
    }
}

/// A node running the Good Samaritan Protocol.
#[derive(Debug, Clone)]
pub struct GoodSamaritanProtocol {
    config: GoodSamaritanConfig,
    role: SamaritanRole,
    timestamp: Timestamp,
    output: Option<u64>,
    band: FrequencyBand,
    /// Whether the node designated the current round as special (decided in
    /// `choose_action`, consumed in `on_feedback`).
    current_round_special: bool,
    /// Per-contender success counts recorded while acting as a samaritan,
    /// reset at the start of every super-epoch. An ordered map: the
    /// best-report scan iterates it, and its result feeds broadcast
    /// payloads (and through them the pinned outcome digests), so
    /// iteration order must be deterministic by construction.
    success_counts: BTreeMap<u64, u64>,
    /// Super-epoch for which `success_counts` is currently being collected.
    counts_super_epoch: u32,
}

impl GoodSamaritanProtocol {
    /// Creates a protocol instance with the given configuration. The unique
    /// identifier is drawn when the node is activated.
    pub fn new(config: GoodSamaritanConfig) -> Self {
        GoodSamaritanProtocol {
            config,
            role: SamaritanRole::Contender,
            timestamp: Timestamp::new(0, 0),
            output: None,
            band: FrequencyBand::new(config.num_frequencies.max(1)),
            current_round_special: false,
            success_counts: BTreeMap::new(),
            counts_super_epoch: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GoodSamaritanConfig {
        &self.config
    }

    /// The node's current role.
    pub fn role(&self) -> SamaritanRole {
        self.role
    }

    /// Whether this node became the leader.
    pub fn is_leader(&self) -> bool {
        self.role == SamaritanRole::Leader
    }

    /// The node's unique identifier (0 before activation).
    pub fn uid(&self) -> u64 {
        self.timestamp.uid
    }

    /// Samples a frequency uniformly from `[1..limit]` (clamped to the
    /// band).
    fn sample_prefix(&self, limit: u32, rng: &mut SimRng) -> Frequency {
        self.band.sample_prefix(limit.max(1), rng)
    }

    /// Samples a frequency from the special-round distribution: `d` uniform
    /// in `[1..lg F]`, then uniform in `[1..2^d]`.
    fn sample_special(&self, rng: &mut SimRng) -> Frequency {
        let lg_f = self.config.lg_f().max(1);
        let d = rng.gen_range(1..=lg_f);
        let limit = 1u32.checked_shl(d).unwrap_or(u32::MAX);
        self.sample_prefix(limit, rng)
    }

    /// The best success report currently held, if any.
    fn best_report(&self) -> Option<SuccessReport> {
        self.success_counts
            .iter()
            .max_by_key(|(uid, count)| (**count, **uid))
            .map(|(uid, count)| SuccessReport {
                contender_uid: *uid,
                count: *count,
            })
    }

    /// Builds the message this node would broadcast in its current role.
    fn own_message(&self, report_epoch: bool, special: bool) -> GoodSamaritanMsg {
        match self.role {
            SamaritanRole::Contender => GoodSamaritanMsg::Contender {
                rounds_active: self.timestamp.rounds_active,
                uid: self.timestamp.uid,
                report_epoch,
                special,
            },
            SamaritanRole::Samaritan => GoodSamaritanMsg::Samaritan {
                uid: self.timestamp.uid,
                special,
                report: self.best_report(),
            },
            SamaritanRole::FallbackContender => GoodSamaritanMsg::Fallback {
                timestamp: self.timestamp,
            },
            SamaritanRole::Leader => GoodSamaritanMsg::Leader {
                announced_round: self.output.unwrap_or(0) + 1,
            },
            // Passive, knocked out and synchronized nodes never broadcast.
            _ => GoodSamaritanMsg::Samaritan {
                uid: self.timestamp.uid,
                special,
                report: None,
            },
        }
    }

    /// Action of a contender or samaritan during the optimistic portion.
    fn optimistic_action(
        &mut self,
        super_epoch: u32,
        epoch: u32,
        rng: &mut SimRng,
    ) -> Action<GoodSamaritanMsg> {
        let lg_n = self.config.lg_n();
        let prefix = 1u32.checked_shl(super_epoch).unwrap_or(u32::MAX);
        let p_e = self.config.broadcast_probability(epoch);
        if epoch <= lg_n {
            // Regular epoch: half the time the low prefix, half the time the
            // whole band; broadcast with probability p_e.
            self.current_round_special = false;
            let frequency = if rng.gen_bool(0.5) {
                self.sample_prefix(prefix, rng)
            } else {
                self.band.sample_uniform(rng)
            };
            if rng.gen_bool(p_e) {
                Action::broadcast(frequency, self.own_message(false, false))
            } else {
                Action::listen(frequency)
            }
        } else {
            // Last two epochs: half the rounds are special.
            let report_epoch = epoch == lg_n + 1;
            if rng.gen_bool(0.5) {
                self.current_round_special = false;
                let frequency = self.sample_prefix(prefix, rng);
                if rng.gen_bool(p_e) {
                    Action::broadcast(frequency, self.own_message(report_epoch, false))
                } else {
                    Action::listen(frequency)
                }
            } else {
                self.current_round_special = true;
                let frequency = self.sample_special(rng);
                if rng.gen_bool(0.5) {
                    Action::broadcast(frequency, self.own_message(report_epoch, true))
                } else {
                    Action::listen(frequency)
                }
            }
        }
    }

    /// Action of a fallback contender: with probability 1/2 a Trapdoor-style
    /// round on `[1..F′]`, otherwise a special Good Samaritan round.
    fn fallback_action(&mut self, epoch: u32, rng: &mut SimRng) -> Action<GoodSamaritanMsg> {
        if rng.gen_bool(0.5) {
            self.current_round_special = false;
            let frequency = self.sample_prefix(self.config.f_prime(), rng);
            let p = self
                .config
                .broadcast_probability(epoch.min(self.config.lg_n()));
            if rng.gen_bool(p) {
                Action::broadcast(frequency, self.own_message(false, false))
            } else {
                Action::listen(frequency)
            }
        } else {
            self.current_round_special = true;
            let frequency = self.sample_special(rng);
            if rng.gen_bool(0.5) {
                Action::broadcast(frequency, self.own_message(false, true))
            } else {
                Action::listen(frequency)
            }
        }
    }
}

impl Protocol for GoodSamaritanProtocol {
    type Msg = GoodSamaritanMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        debug_assert_eq!(info.num_frequencies, self.config.num_frequencies);
        self.band = FrequencyBand::new(info.num_frequencies.max(1));
        self.timestamp = Timestamp::new(0, Timestamp::draw_uid(self.config.upper_bound_n, rng));
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<GoodSamaritanMsg> {
        self.timestamp.rounds_active = local_round + 1;
        self.current_round_special = false;
        let phase = self.config.phase_at(local_round);

        // Reset samaritan bookkeeping at each new super-epoch.
        if let Phase::Optimistic { super_epoch, .. } = phase {
            if super_epoch != self.counts_super_epoch {
                self.counts_super_epoch = super_epoch;
                self.success_counts.clear();
            }
        }

        match self.role {
            SamaritanRole::Contender | SamaritanRole::Samaritan => match phase {
                Phase::Optimistic {
                    super_epoch, epoch, ..
                } => self.optimistic_action(super_epoch, epoch, rng),
                // The role transition to fallback happens in `on_feedback`;
                // if we are still optimistic while the schedule says
                // fallback (first fallback round), behave as a fallback
                // contender already.
                Phase::Fallback { epoch, .. } => self.fallback_action(epoch, rng),
                Phase::Exhausted => self.fallback_action(self.config.lg_n(), rng),
            },
            SamaritanRole::Passive | SamaritanRole::FallbackKnockedOut => {
                // Knocked-out nodes listen: half the time on the low-band
                // special distribution (where leaders broadcast), half the
                // time uniformly.
                let frequency = if rng.gen_bool(0.5) {
                    self.sample_special(rng)
                } else {
                    self.band.sample_uniform(rng)
                };
                Action::listen(frequency)
            }
            SamaritanRole::FallbackContender => match phase {
                Phase::Fallback { epoch, .. } => self.fallback_action(epoch, rng),
                Phase::Exhausted => self.fallback_action(self.config.lg_n(), rng),
                // Can only happen if a node was downgraded into the fallback
                // role early (never the case in the current rules); behave
                // like the first fallback epoch.
                Phase::Optimistic { .. } => self.fallback_action(1, rng),
            },
            SamaritanRole::Leader => {
                let frequency = self.sample_special(rng);
                if rng.gen_bool(LEADER_BROADCAST_PROBABILITY) {
                    Action::broadcast(
                        frequency,
                        GoodSamaritanMsg::Leader {
                            announced_round: self.output.unwrap_or(0) + 1,
                        },
                    )
                } else {
                    Action::listen(frequency)
                }
            }
            SamaritanRole::Synchronized => Action::listen(self.band.sample_uniform(rng)),
        }
    }

    fn on_feedback(
        &mut self,
        local_round: u64,
        feedback: Feedback<GoodSamaritanMsg>,
        _rng: &mut SimRng,
    ) {
        let was_synced = self.output.is_some();
        let phase = self.config.phase_at(local_round);

        if let Feedback::Received(received) = &feedback {
            match received.payload {
                GoodSamaritanMsg::Leader { announced_round } => {
                    if self.role != SamaritanRole::Leader && !was_synced {
                        self.role = SamaritanRole::Synchronized;
                        self.output = Some(announced_round);
                    }
                }
                GoodSamaritanMsg::Contender {
                    rounds_active,
                    uid,
                    report_epoch,
                    special,
                } => {
                    if uid != self.timestamp.uid {
                        match self.role {
                            SamaritanRole::Contender => {
                                // Downgrade, ignoring timestamps (Section 7.1).
                                self.role = SamaritanRole::Samaritan;
                            }
                            SamaritanRole::Samaritan => {
                                // Record a success when all three conditions of
                                // Section 7.1 hold: (a) we are in epoch lg N + 1,
                                // (b) neither party designated the round special,
                                // (c) both woke in the same round.
                                let in_report_epoch = matches!(
                                    phase,
                                    Phase::Optimistic { epoch, .. }
                                        if epoch == self.config.lg_n() + 1
                                );
                                if in_report_epoch
                                    && report_epoch
                                    && !special
                                    && !self.current_round_special
                                    && rounds_active == self.timestamp.rounds_active
                                {
                                    *self.success_counts.entry(uid).or_insert(0) += 1;
                                }
                            }
                            _ => {}
                        }
                    }
                }
                GoodSamaritanMsg::Samaritan { uid, report, .. } => {
                    if uid != self.timestamp.uid {
                        match self.role {
                            SamaritanRole::Samaritan => {
                                // A samaritan hearing another samaritan is
                                // knocked out.
                                self.role = SamaritanRole::Passive;
                            }
                            SamaritanRole::Contender => {
                                // A contender learns from the samaritan whether
                                // it has been successful often enough.
                                if let Some(rep) = report {
                                    if rep.contender_uid == self.timestamp.uid {
                                        if let Phase::Optimistic { super_epoch, .. } = phase {
                                            if rep.count
                                                >= self.config.success_threshold(super_epoch)
                                            {
                                                self.role = SamaritanRole::Leader;
                                                if !was_synced {
                                                    self.output = Some(local_round + 1);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                }
                GoodSamaritanMsg::Fallback { timestamp } => match self.role {
                    SamaritanRole::Contender => {
                        // "Any contender that has not yet begun the modified
                        // Trapdoor protocol that receives a message is
                        // downgraded."
                        self.role = SamaritanRole::Samaritan;
                    }
                    SamaritanRole::FallbackContender if timestamp > self.timestamp => {
                        self.role = SamaritanRole::FallbackKnockedOut;
                    }
                    _ => {}
                },
            }
        }

        // Transition into the fallback portion: every unsynchronized
        // optimistic node that has finished the last super-epoch becomes a
        // fallback contender.
        if self.role.is_optimistic() && local_round + 1 >= self.config.fallback_start() {
            self.role = SamaritanRole::FallbackContender;
        }

        // A fallback contender that survives all fallback epochs becomes the
        // leader.
        if self.role == SamaritanRole::FallbackContender
            && local_round + 1 >= self.config.fallback_start() + self.config.fallback_total()
        {
            self.role = SamaritanRole::Leader;
            if !was_synced {
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
    use wsync_radio::message::Received;
    use wsync_radio::node::NodeId;

    fn activated(seed: u64) -> (GoodSamaritanProtocol, SimRng) {
        let config = GoodSamaritanConfig::new(16, 8, 2);
        let mut p = GoodSamaritanProtocol::new(config);
        let mut rng = SimRng::from_seed(seed);
        p.on_activate(ActivationInfo::new(16, 8, 2), &mut rng);
        (p, rng)
    }

    fn silence() -> Feedback<GoodSamaritanMsg> {
        Feedback::Silence {
            frequency: Frequency::new(1),
        }
    }

    fn received(payload: GoodSamaritanMsg) -> Feedback<GoodSamaritanMsg> {
        Feedback::Received(Received {
            sender: NodeId::new(7),
            frequency: Frequency::new(1),
            payload,
        })
    }

    #[test]
    fn starts_as_contender() {
        let (p, _) = activated(1);
        assert_eq!(p.role(), SamaritanRole::Contender);
        assert_eq!(p.output(), None);
        assert!(p.uid() >= 1);
        assert!(!p.is_leader());
    }

    #[test]
    fn contender_downgraded_by_other_contender_regardless_of_timestamp() {
        let (mut p, mut rng) = activated(2);
        p.choose_action(0, &mut rng);
        // Another contender with a *smaller* rounds_active still downgrades
        // (the Good Samaritan protocol ignores timestamps).
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Contender {
                rounds_active: 0,
                uid: 42,
                report_epoch: false,
                special: false,
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::Samaritan);
    }

    #[test]
    fn own_uid_does_not_downgrade() {
        let (mut p, mut rng) = activated(3);
        let uid = p.uid();
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Contender {
                rounds_active: 1,
                uid,
                report_epoch: false,
                special: false,
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::Contender);
    }

    #[test]
    fn samaritan_knocked_out_by_other_samaritan() {
        let (mut p, mut rng) = activated(4);
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Contender {
                rounds_active: 1,
                uid: 42,
                report_epoch: false,
                special: false,
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::Samaritan);
        p.choose_action(1, &mut rng);
        p.on_feedback(
            1,
            received(GoodSamaritanMsg::Samaritan {
                uid: 43,
                special: false,
                report: None,
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::Passive);
        // Passive nodes only listen.
        let action = p.choose_action(2, &mut rng);
        assert!(action.is_listen());
    }

    #[test]
    fn samaritan_records_success_only_under_all_conditions() {
        let (mut p, mut rng) = activated(5);
        let config = *p.config();
        // Downgrade to samaritan first.
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Contender {
                rounds_active: 1,
                uid: 42,
                report_epoch: false,
                special: false,
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::Samaritan);

        // Find a round inside epoch lg N + 1 of super-epoch 1.
        let report_epoch_round = (0..config.super_epoch_length(1))
            .find(|&r| {
                matches!(
                    config.phase_at(r),
                    Phase::Optimistic { epoch, .. } if epoch == config.lg_n() + 1
                )
            })
            .expect("epoch lg N + 1 exists");

        // Keep calling choose_action until the samaritan picks a non-special
        // round at that local round, then feed it a matching contender
        // message: the success must be recorded.
        let mut recorded = false;
        for _ in 0..200 {
            p.choose_action(report_epoch_round, &mut rng);
            if p.current_round_special {
                continue;
            }
            p.on_feedback(
                report_epoch_round,
                received(GoodSamaritanMsg::Contender {
                    rounds_active: report_epoch_round + 1,
                    uid: 42,
                    report_epoch: true,
                    special: false,
                }),
                &mut rng,
            );
            recorded = true;
            break;
        }
        assert!(recorded);
        assert_eq!(p.success_counts.len(), 1);
        assert_eq!(
            p.best_report(),
            Some(SuccessReport {
                contender_uid: 42,
                count: 1
            })
        );

        // A message with a different activation time is not recorded.
        p.choose_action(report_epoch_round, &mut rng);
        if !p.current_round_special {
            p.on_feedback(
                report_epoch_round,
                received(GoodSamaritanMsg::Contender {
                    rounds_active: 5, // different wake-up round
                    uid: 99,
                    report_epoch: true,
                    special: false,
                }),
                &mut rng,
            );
        }
        assert!(!p.success_counts.contains_key(&99));
    }

    #[test]
    fn contender_becomes_leader_on_sufficient_report() {
        let (mut p, mut rng) = activated(6);
        let threshold = p.config().success_threshold(1);
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Samaritan {
                uid: 43,
                special: false,
                report: Some(SuccessReport {
                    contender_uid: p.uid(),
                    count: threshold,
                }),
            }),
            &mut rng,
        );
        assert!(p.is_leader());
        assert!(p.output().is_some());
    }

    #[test]
    fn insufficient_or_foreign_report_does_not_elect() {
        let (mut p, mut rng) = activated(7);
        let threshold = p.config().success_threshold(1);
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Samaritan {
                uid: 43,
                special: false,
                report: Some(SuccessReport {
                    contender_uid: p.uid(),
                    count: threshold.saturating_sub(1),
                }),
            }),
            &mut rng,
        );
        // below threshold: still contender (threshold is at least 1, and a
        // report of threshold-1 < threshold)
        if threshold > 1 {
            assert_eq!(p.role(), SamaritanRole::Contender);
        }
        p.choose_action(1, &mut rng);
        p.on_feedback(
            1,
            received(GoodSamaritanMsg::Samaritan {
                uid: 43,
                special: false,
                report: Some(SuccessReport {
                    contender_uid: p.uid() + 1,
                    count: 1_000_000,
                }),
            }),
            &mut rng,
        );
        assert_ne!(p.role(), SamaritanRole::Leader);
    }

    #[test]
    fn adopts_leader_numbering_and_increments() {
        let (mut p, mut rng) = activated(8);
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Leader {
                announced_round: 99,
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::Synchronized);
        assert_eq!(p.output(), Some(99));
        for r in 1..4 {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
            assert_eq!(p.output(), Some(99 + r));
        }
    }

    #[test]
    fn unsynchronized_node_enters_fallback_after_last_super_epoch() {
        let (mut p, mut rng) = activated(9);
        let fb_start = p.config().fallback_start();
        // Jump to the last optimistic round without ever hearing anything.
        p.choose_action(fb_start - 1, &mut rng);
        p.on_feedback(fb_start - 1, silence(), &mut rng);
        assert_eq!(p.role(), SamaritanRole::FallbackContender);
    }

    #[test]
    fn fallback_contender_knocked_out_by_larger_timestamp() {
        let (mut p, mut rng) = activated(10);
        let fb_start = p.config().fallback_start();
        p.choose_action(fb_start - 1, &mut rng);
        p.on_feedback(fb_start - 1, silence(), &mut rng);
        assert_eq!(p.role(), SamaritanRole::FallbackContender);
        p.choose_action(fb_start, &mut rng);
        p.on_feedback(
            fb_start,
            received(GoodSamaritanMsg::Fallback {
                timestamp: Timestamp::new(u64::MAX, u64::MAX),
            }),
            &mut rng,
        );
        assert_eq!(p.role(), SamaritanRole::FallbackKnockedOut);
        // Knocked-out fallback nodes only listen.
        assert!(p.choose_action(fb_start + 1, &mut rng).is_listen());
    }

    #[test]
    fn lone_node_eventually_becomes_leader_via_fallback() {
        let (mut p, mut rng) = activated(11);
        let total = p.config().fallback_start() + p.config().fallback_total();
        // Run the full schedule with nothing but silence. To keep the test
        // fast we only exercise the boundary rounds plus a sparse sample.
        let mut r = 0u64;
        while r < total {
            p.choose_action(r, &mut rng);
            p.on_feedback(r, silence(), &mut rng);
            // sample sparsely in the middle of long epochs
            let step = if total > 10_000 { 97 } else { 1 };
            r += step;
        }
        // Make sure the final round is processed exactly.
        p.choose_action(total - 1, &mut rng);
        p.on_feedback(total - 1, silence(), &mut rng);
        assert!(p.is_leader());
        assert!(p.output().is_some());
    }

    #[test]
    fn leader_announcement_is_consistent_with_output() {
        let (mut p, mut rng) = activated(12);
        // Make it a leader via a report.
        let threshold = p.config().success_threshold(1);
        p.choose_action(0, &mut rng);
        p.on_feedback(
            0,
            received(GoodSamaritanMsg::Samaritan {
                uid: 43,
                special: false,
                report: Some(SuccessReport {
                    contender_uid: p.uid(),
                    count: threshold,
                }),
            }),
            &mut rng,
        );
        assert!(p.is_leader());
        let out = p.output().unwrap();
        // Find a broadcast round and check the announced value is out + k + 1
        // at the k-th following round.
        let mut announced_checked = false;
        for k in 0..200u64 {
            let action = p.choose_action(1 + k, &mut rng);
            if let Action::Broadcast {
                message: GoodSamaritanMsg::Leader { announced_round },
                ..
            } = action
            {
                assert_eq!(announced_round, out + k + 1);
                announced_checked = true;
            }
            p.on_feedback(1 + k, silence(), &mut rng);
            if announced_checked {
                break;
            }
        }
        assert!(
            announced_checked,
            "leader should broadcast within 200 rounds"
        );
    }
}
