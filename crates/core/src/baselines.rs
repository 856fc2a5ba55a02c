//! Unit tests of the X2 baselines `round-robin` and `wakeup`, kept under
//! the names they had when each was a protocol of its own. Both are now
//! contention rules of [`TrapdoorProtocol`]
//! ([`TrapdoorProtocol::round_robin`] and [`TrapdoorProtocol::wakeup`]),
//! so these tests drive them through its public interface only; the
//! state machine the rules share is tested for every rule in
//! `trapdoor::tests`.

use wsync_radio::frequency::Frequency;
use wsync_radio::message::{Feedback, Received};
use wsync_radio::node::{ActivationInfo, NodeId};
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;

use crate::timestamp::Timestamp;
use crate::trapdoor::{TrapdoorConfig, TrapdoorMsg, TrapdoorProtocol, TrapdoorRole};

/// Builds a node with `build` for `(n, f, t)` and activates it.
fn activated(
    build: fn(TrapdoorConfig) -> TrapdoorProtocol,
    (n, f, t): (u64, u32, u32),
    seed: u64,
) -> (TrapdoorProtocol, SimRng) {
    let mut p = build(TrapdoorConfig::new(n, f, t));
    let mut rng = SimRng::from_seed(seed);
    p.on_activate(ActivationInfo::new(n, f, t), &mut rng);
    (p, rng)
}

fn silence() -> Feedback<TrapdoorMsg> {
    Feedback::Silence {
        frequency: Frequency::new(1),
    }
}

fn heard(payload: TrapdoorMsg) -> Feedback<TrapdoorMsg> {
    Feedback::Received(Received {
        sender: NodeId::new(3),
        frequency: Frequency::new(2),
        payload,
    })
}

mod round_robin {
    mod tests {
        use super::super::*;

        const PARAMS: (u64, u32, u32) = (16, 4, 1);

        fn activated(seed: u64) -> (TrapdoorProtocol, SimRng) {
            super::super::activated(TrapdoorProtocol::round_robin, PARAMS, seed)
        }

        /// The epoch schedule's deadline, which round-robin keeps.
        fn deadline() -> u64 {
            let (n, f, t) = PARAMS;
            TrapdoorConfig::new(n, f, t).total_contention_rounds()
        }

        /// `((uid + r) mod F) + 1`, the hop of local round `r`.
        fn hop_frequency(p: &TrapdoorProtocol, r: u64) -> Frequency {
            let f = u64::from(PARAMS.1);
            Frequency::new(((p.timestamp().uid + r) % f) as u32 + 1)
        }

        #[test]
        fn hop_sequence_is_deterministic_and_cyclic() {
            let (mut p, mut rng) = activated(1);
            let f = u64::from(PARAMS.1);
            for r in 0..20u64 {
                let hop = p.choose_action(r, &mut rng).frequency();
                // Deterministic: the same round hops the same way, however
                // far the random stream has moved on.
                assert_eq!(hop, p.choose_action(r, &mut rng).frequency());
                assert_eq!(hop, p.choose_action(r + f, &mut rng).frequency());
                assert_ne!(hop, p.choose_action(r + 1, &mut rng).frequency());
            }
        }

        #[test]
        fn actions_follow_the_hop_sequence() {
            let (mut p, mut rng) = activated(2);
            for r in 0..40 {
                let expected = hop_frequency(&p, r);
                let action = p.choose_action(r, &mut rng);
                assert_eq!(action.frequency(), Some(expected));
                p.on_feedback(r, silence(), &mut rng);
            }
        }

        #[test]
        fn survivor_becomes_leader_after_trapdoor_schedule() {
            let (mut p, mut rng) = activated(3);
            let total = deadline();
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
            let timestamp = Timestamp::new(u64::MAX, 0);
            p.on_feedback(0, heard(TrapdoorMsg::Contender { timestamp }), &mut rng);
            assert_eq!(p.role(), TrapdoorRole::KnockedOut);
            assert!(!p.is_leader());
            p.choose_action(1, &mut rng);
            let leader = TrapdoorMsg::Leader { announced_round: 5 };
            p.on_feedback(1, heard(leader), &mut rng);
            assert_eq!(p.output(), Some(5));
        }

        #[test]
        fn a_contender_that_adopted_a_leader_does_not_elect_itself() {
            let (mut p, mut rng) = activated(5);
            let total = deadline();
            p.choose_action(0, &mut rng);
            let leader = TrapdoorMsg::Leader { announced_round: 9 };
            p.on_feedback(0, heard(leader), &mut rng);
            // Past the deadline, still a follower counting on.
            for r in 1..total + 5 {
                p.choose_action(r, &mut rng);
                p.on_feedback(r, silence(), &mut rng);
            }
            assert!(!p.is_leader());
            assert_eq!(p.output(), Some(9 + total + 4));
        }
    }
}

mod uniform_wakeup {
    mod tests {
        use super::super::*;

        const PARAMS: (u64, u32, u32) = (64, 8, 2);

        fn activated(seed: u64) -> (TrapdoorProtocol, SimRng) {
            super::super::activated(TrapdoorProtocol::wakeup, PARAMS, seed)
        }

        /// The wake-up deadline, `max(4, ⌈4·F/(F−t)·lg²N⌉)` rounds.
        fn deadline() -> u64 {
            let (n, f, t) = PARAMS;
            TrapdoorConfig::new(n, f, t)
                .resolve_wakeup()
                .total_contention_rounds()
        }

        #[test]
        fn survivor_becomes_leader_at_deadline() {
            let (mut p, mut rng) = activated(1);
            let deadline = deadline();
            for r in 0..deadline {
                assert!(!p.is_leader(), "elected before its deadline");
                p.choose_action(r, &mut rng);
                p.on_feedback(r, silence(), &mut rng);
            }
            assert!(p.is_leader());
            assert_eq!(p.output(), Some(deadline));
        }

        #[test]
        fn knocked_out_by_larger_timestamp_and_adopts_leader() {
            let (mut p, mut rng) = activated(2);
            let deadline = deadline();
            p.choose_action(0, &mut rng);
            let timestamp = Timestamp::new(u64::MAX, 1);
            p.on_feedback(0, heard(TrapdoorMsg::Contender { timestamp }), &mut rng);
            assert_eq!(p.role(), TrapdoorRole::KnockedOut);
            // Knocked-out nodes never become leader, even past the deadline.
            for r in 1..deadline + 10 {
                let a = p.choose_action(r, &mut rng);
                assert!(a.is_listen());
                p.on_feedback(r, silence(), &mut rng);
            }
            assert!(!p.is_leader());
            // They adopt the leader's numbering when they hear it.
            let heard_at = deadline + 10;
            p.choose_action(heard_at, &mut rng);
            let leader = TrapdoorMsg::Leader {
                announced_round: 77,
            };
            p.on_feedback(heard_at, heard(leader), &mut rng);
            assert_eq!(p.output(), Some(77));
            p.choose_action(heard_at + 1, &mut rng);
            p.on_feedback(heard_at + 1, silence(), &mut rng);
            assert_eq!(p.output(), Some(78));
        }

        #[test]
        fn a_contender_that_adopted_a_leader_does_not_elect_itself() {
            let (mut p, mut rng) = activated(4);
            let deadline = deadline();
            p.choose_action(0, &mut rng);
            let leader = TrapdoorMsg::Leader {
                announced_round: 40,
            };
            p.on_feedback(0, heard(leader), &mut rng);
            // Past the deadline, still a follower counting on.
            for r in 1..deadline + 10 {
                p.choose_action(r, &mut rng);
                p.on_feedback(r, silence(), &mut rng);
            }
            assert!(!p.is_leader());
            assert_eq!(p.output(), Some(40 + deadline + 9));
        }
    }
}
