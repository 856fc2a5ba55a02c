//! Online checker for the five requirements of the wireless synchronization
//! problem (Section 3).
//!
//! Wireless synchronization is achieved when the activated nodes share a
//! consistent round numbering scheme. The problem has five requirements:
//!
//! 1. **Validity** — in every round, every activated node outputs a value in
//!    `ℕ ∪ {⊥}` (`⊥` meaning "not yet determined").
//! 2. **Synch commit** — once a node outputs a non-`⊥` value, it never
//!    outputs `⊥` again.
//! 3. **Correctness** — if a node outputs `i` in round `r`, it outputs
//!    `i + 1` in round `r + 1`.
//! 4. **Agreement** — in every round, all non-`⊥` outputs are the same
//!    (with high probability).
//! 5. **Liveness** — eventually every active node stops outputting `⊥`
//!    (with probability 1).
//!
//! An algorithm *solves the problem in time `T`* iff liveness is achieved by
//! round `T` with high probability.
//!
//! [`PropertyChecker`] implements the radio engine's streaming
//! [`Probe`] hook and verifies, round by round:
//!
//! * **synch commit** — no node reverts from a round number to `⊥`;
//! * **correctness** — a node outputting `i` outputs `i + 1` next round;
//! * **agreement** — all non-`⊥` outputs within one round are equal.
//!
//! (**Validity** is enforced by the type system: outputs are `Option<u64>`,
//! `None` being `⊥`.)
//! **Liveness** and the completion round are the engine's verdict:
//! [`PropertyChecker::finish`] copies them out of the [`ExecutionResult`],
//! which reflects the engine's own `is_synchronized` calls.
//!
//! The checker keeps no per-node state. The engine's feedback pass already
//! compares every running node's output with its output of the round
//! before and reports the breaks ([`RoundObservation::breaks`]) and the
//! number of outputs that disagree with the round's first
//! ([`RoundTally::disagreements`](wsync_radio::trace::RoundTally::disagreements)). So a
//! clean round costs O(1), and a checked run stays O(active) like the
//! engine; only a round with disagreements scans the N node views, to name
//! the disagreeing nodes. Violations are recorded per round in the order
//! agreement first, then synch commit and correctness in node order; the
//! first 64 are kept and all are counted.

use serde::{Deserialize, Serialize};

use wsync_radio::engine::ExecutionResult;
use wsync_radio::node::NodeId;
use wsync_radio::probe::Probe;
use wsync_radio::trace::{NodeView, RoundObservation};

/// A single property violation detected during an execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// A node output `⊥` after having output a round number.
    SynchCommit {
        /// The offending node.
        node: NodeId,
        /// The round in which the node reverted to `⊥`.
        round: u64,
        /// The number it had output in the previous round.
        previous: u64,
    },
    /// A node's output did not increment by exactly one.
    Correctness {
        /// The offending node.
        node: NodeId,
        /// The round of the bad transition.
        round: u64,
        /// Output in the previous round.
        previous: u64,
        /// Output in this round.
        current: u64,
    },
    /// Two nodes disagreed on the round number in the same round.
    Agreement {
        /// The round in which the disagreement was observed.
        round: u64,
        /// One of the disagreeing nodes and its output.
        first: (NodeId, u64),
        /// Another disagreeing node and its output.
        second: (NodeId, u64),
    },
}

/// The verdict over a full execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropertyReport {
    /// Violations of synch commit, correctness, or agreement (the first 64
    /// are recorded in detail; all are counted).
    pub violations: Vec<Violation>,
    /// Total number of violations observed (may exceed `violations.len()`).
    pub total_violations: u64,
    /// Number of rounds observed.
    pub rounds_observed: u64,
    /// Whether every node synchronized before the round cap (liveness).
    pub liveness: bool,
    /// Round by which every node had synchronized, if liveness holds.
    pub completion_round: Option<u64>,
}

impl PropertyReport {
    /// `true` iff no safety violation was observed and liveness holds.
    pub fn all_hold(&self) -> bool {
        self.total_violations == 0 && self.liveness
    }

    /// `true` iff no safety violation (synch commit, correctness, agreement)
    /// was observed, regardless of liveness.
    pub fn safety_holds(&self) -> bool {
        self.total_violations == 0
    }
}

/// How many violations a report records in detail; the rest are only
/// counted.
const MAX_RECORDED: usize = 64;

/// Streaming probe that checks the synchronization properties online, from
/// the output breaks and disagreement count the engine reports each round.
#[derive(Debug, Clone)]
pub struct PropertyChecker {
    violations: Vec<Violation>,
    total_violations: u64,
    rounds_observed: u64,
}

impl Default for PropertyChecker {
    fn default() -> Self {
        PropertyChecker::new()
    }
}

impl PropertyChecker {
    /// Creates a checker.
    pub fn new() -> Self {
        PropertyChecker {
            violations: Vec::new(),
            total_violations: 0,
            rounds_observed: 0,
        }
    }

    /// Number of violations observed so far.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    fn record(&mut self, violation: Violation) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(violation);
        }
    }

    /// Finalizes the report using the engine's execution result (for the
    /// liveness verdict and the completion round).
    pub fn finish(self, result: &ExecutionResult) -> PropertyReport {
        PropertyReport {
            violations: self.violations,
            total_violations: self.total_violations,
            rounds_observed: self.rounds_observed,
            liveness: result.all_synchronized,
            completion_round: result.completion_round(),
        }
    }
}

impl Probe for PropertyChecker {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.rounds_observed += 1;
        let disagreements = observation.tally.disagreements;
        let breaks = observation.breaks;
        if self.violations.len() >= MAX_RECORDED {
            self.total_violations += u64::from(disagreements) + breaks.len() as u64;
            return;
        }
        let round = observation.round;

        // Agreement: all non-⊥ outputs in this round must equal the first.
        if disagreements > 0 {
            let mut first_output: Option<(NodeId, u64)> = None;
            for (i, view) in observation.nodes.iter().enumerate() {
                if let NodeView::Active { output: Some(v) } = *view {
                    let node = NodeId::new(i as u32);
                    match first_output {
                        None => first_output = Some((node, v)),
                        Some(first) if first.1 != v => self.record(Violation::Agreement {
                            round,
                            first,
                            second: (node, v),
                        }),
                        Some(_) => {}
                    }
                }
            }
        }

        // Synch commit and correctness: the engine's breaks, in node order.
        for b in breaks {
            self.record(match b.current {
                None => Violation::SynchCommit {
                    node: b.node,
                    round,
                    previous: b.previous,
                },
                Some(current) => Violation::Correctness {
                    node: b.node,
                    round,
                    previous: b.previous,
                    current,
                },
            });
        }
    }
}

#[cfg(test)]
mod checker_tests {
    use super::*;
    use wsync_radio::action::Action;
    use wsync_radio::activation::ActivationSchedule;
    use wsync_radio::adversary::NoAdversary;
    use wsync_radio::engine::{Engine, NodeSummary, SimConfig};
    use wsync_radio::message::Feedback;
    use wsync_radio::metrics::SimMetrics;
    use wsync_radio::node::ActivationInfo;
    use wsync_radio::protocol::Protocol;
    use wsync_radio::rng::SimRng;

    /// A node that sleeps every round and, after local round `k`, outputs
    /// `script[k]`; it never reports itself synchronized, so the engine
    /// runs every scripted round.
    #[derive(Debug, Clone)]
    struct Script {
        script: Vec<Option<u64>>,
        output: Option<u64>,
    }

    impl Protocol for Script {
        type Msg = ();

        fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {
            self.output = None;
        }

        fn choose_action(&mut self, _local_round: u64, _rng: &mut SimRng) -> Action<()> {
            Action::Sleep
        }

        fn on_feedback(&mut self, local_round: u64, _feedback: Feedback<()>, _rng: &mut SimRng) {
            self.output = self.script[local_round as usize];
        }

        fn output(&self) -> Option<u64> {
            self.output
        }

        fn is_synchronized(&self) -> bool {
            false
        }
    }

    /// Drives a sequence of per-round output vectors through a real
    /// engine with the checker attached. `None` = inactive, `Some(None)` =
    /// ⊥, `Some(Some(v))` = round number v. A node runs from its first
    /// `Some` entry to the end.
    fn run_rounds(rounds: &[Vec<Option<Option<u64>>>]) -> PropertyChecker {
        let n = rounds[0].len();
        let activation: Vec<u64> = (0..n)
            .map(|i| {
                rounds
                    .iter()
                    .position(|outputs| outputs[i].is_some())
                    .unwrap_or(rounds.len()) as u64
            })
            .collect();
        let config = SimConfig::new(n, 1, 0).with_max_rounds(rounds.len() as u64);
        let mut engine = Engine::new(
            config,
            |id| Script {
                script: rounds[activation[id.index()] as usize..]
                    .iter()
                    .map(|outputs| outputs[id.index()].expect("a node runs once activated"))
                    .collect(),
                output: None,
            },
            NoAdversary::new(),
            ActivationSchedule::Explicit(activation.clone()),
            0,
        )
        .unwrap();
        let slot = engine.attach_probe(Box::new(PropertyChecker::new()));
        assert_eq!(engine.run().rounds_executed, rounds.len() as u64);
        engine.take_probes().take(slot).expect("checker slot")
    }

    fn fake_result(all_synchronized: bool) -> ExecutionResult {
        ExecutionResult {
            rounds_executed: 10,
            all_synchronized,
            nodes: vec![NodeSummary {
                id: NodeId::new(0),
                activation_round: 0,
                sync_round: if all_synchronized { Some(3) } else { None },
                final_output: if all_synchronized { Some(9) } else { None },
            }],
            metrics: SimMetrics::default(),
        }
    }

    #[test]
    fn clean_execution_has_no_violations() {
        let rounds = vec![
            vec![Some(None), None],
            vec![Some(Some(10)), Some(None)],
            vec![Some(Some(11)), Some(Some(11))],
            vec![Some(Some(12)), Some(Some(12))],
        ];
        let checker = run_rounds(&rounds);
        assert_eq!(checker.total_violations(), 0);
        let report = checker.finish(&fake_result(true));
        assert!(report.all_hold());
        assert!(report.safety_holds());
        assert_eq!(report.rounds_observed, 4);
        assert_eq!(report.completion_round, Some(3));
    }

    #[test]
    fn synch_commit_violation_detected() {
        let rounds = vec![vec![Some(Some(5))], vec![Some(None)]];
        let checker = run_rounds(&rounds);
        let report = checker.finish(&fake_result(false));
        assert_eq!(report.total_violations, 1);
        assert!(matches!(
            report.violations[0],
            Violation::SynchCommit {
                previous: 5,
                round: 1,
                ..
            }
        ));
        assert!(!report.all_hold());
    }

    #[test]
    fn correctness_violation_detected() {
        let rounds = vec![vec![Some(Some(5))], vec![Some(Some(7))]];
        let report = run_rounds(&rounds).finish(&fake_result(false));
        assert_eq!(report.total_violations, 1);
        assert!(matches!(
            report.violations[0],
            Violation::Correctness {
                previous: 5,
                current: 7,
                ..
            }
        ));
    }

    #[test]
    fn constant_output_is_a_correctness_violation() {
        let rounds = vec![vec![Some(Some(5))], vec![Some(Some(5))]];
        let report = run_rounds(&rounds).finish(&fake_result(false));
        assert_eq!(report.total_violations, 1);
    }

    #[test]
    fn agreement_violation_detected() {
        let rounds = vec![vec![Some(Some(5)), Some(Some(9))]];
        let report = run_rounds(&rounds).finish(&fake_result(false));
        assert_eq!(report.total_violations, 1);
        assert!(matches!(report.violations[0], Violation::Agreement { .. }));
    }

    #[test]
    fn bottom_outputs_do_not_trigger_agreement() {
        let rounds = vec![vec![Some(Some(5)), Some(None), None]];
        let report = run_rounds(&rounds).finish(&fake_result(false));
        assert_eq!(report.total_violations, 0);
    }

    #[test]
    fn liveness_follows_execution_result() {
        let rounds = vec![vec![Some(None)]];
        let checker = run_rounds(&rounds);
        let report = checker.clone().finish(&fake_result(false));
        assert!(!report.liveness);
        assert!(!report.all_hold());
        assert!(report.safety_holds());
        let report2 = checker.finish(&fake_result(true));
        assert!(report2.liveness);
    }

    #[test]
    fn violation_recording_is_capped_but_counted() {
        let mut rounds = Vec::new();
        // Alternate 5, 3, 5, 3, ... producing a correctness violation every round.
        for i in 0..100 {
            rounds.push(vec![Some(Some(if i % 2 == 0 { 5 } else { 3 }))]);
        }
        let checker = run_rounds(&rounds);
        let report = checker.finish(&fake_result(false));
        assert_eq!(report.violations.len(), 64);
        assert_eq!(report.total_violations, 99);
    }

    #[test]
    fn late_activation_does_not_confuse_transition_tracking() {
        // Node 1 activates in round 2 and jumps straight to a number that is
        // consistent with node 0 — no violations.
        let rounds = vec![
            vec![Some(Some(4)), None],
            vec![Some(Some(5)), None],
            vec![Some(Some(6)), Some(Some(6))],
            vec![Some(Some(7)), Some(Some(7))],
        ];
        let report = run_rounds(&rounds).finish(&fake_result(false));
        assert_eq!(report.total_violations, 0);
    }
}
