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
//! [`Probe`] hook and verifies, round by round and with O(n) memory:
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
//! Each observed round scans all N node views, so an attached checker
//! costs O(N) per round even where the engine's own round is
//! O(active).

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

/// Streaming probe that checks the synchronization properties online.
#[derive(Debug, Clone)]
pub struct PropertyChecker {
    previous: Vec<Option<Option<u64>>>,
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
    /// Creates a checker. The node count is learned from the first observed
    /// round.
    pub fn new() -> Self {
        PropertyChecker {
            previous: Vec::new(),
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
        let n = observation.nodes.len();
        if self.previous.len() < n {
            self.previous.resize(n, None);
        }
        self.rounds_observed += 1;

        // Agreement: all non-⊥ outputs in this round must be equal.
        let mut first_output: Option<(NodeId, u64)> = None;
        for (i, view) in observation.nodes.iter().enumerate() {
            if let NodeView::Active { output: Some(v) } = view {
                match first_output {
                    None => first_output = Some((NodeId::new(i as u32), *v)),
                    Some((fid, fv)) => {
                        if fv != *v {
                            let second = (NodeId::new(i as u32), *v);
                            self.record(Violation::Agreement {
                                round: observation.round,
                                first: (fid, fv),
                                second,
                            });
                        }
                    }
                }
            }
        }

        // Synch commit and correctness: per-node transition checks.
        for (i, view) in observation.nodes.iter().enumerate() {
            let current: Option<Option<u64>> = view.output();
            if let (Some(prev_active), Some(cur_active)) = (self.previous[i], current) {
                match (prev_active, cur_active) {
                    (Some(p), None) => {
                        self.record(Violation::SynchCommit {
                            node: NodeId::new(i as u32),
                            round: observation.round,
                            previous: p,
                        });
                    }
                    (Some(p), Some(c)) if c != p + 1 => {
                        self.record(Violation::Correctness {
                            node: NodeId::new(i as u32),
                            round: observation.round,
                            previous: p,
                            current: c,
                        });
                    }
                    _ => {}
                }
            }
            self.previous[i] = current;
        }
    }
}

#[cfg(test)]
mod checker_tests {
    use super::*;
    use wsync_radio::adversary::DisruptionSet;
    use wsync_radio::engine::NodeSummary;
    use wsync_radio::metrics::SimMetrics;
    use wsync_radio::trace::ActionView;

    /// Feeds a sequence of per-round output vectors into the checker.
    /// `None` = inactive, `Some(None)` = ⊥, `Some(Some(v))` = round number v.
    fn run_rounds(rounds: &[Vec<Option<Option<u64>>>]) -> PropertyChecker {
        let mut checker = PropertyChecker::new();
        for (r, outputs) in rounds.iter().enumerate() {
            let nodes: Vec<NodeView> = outputs
                .iter()
                .map(|o| match o {
                    None => NodeView::Inactive,
                    Some(out) => NodeView::Active { output: *out },
                })
                .collect();
            let actions = vec![ActionView::Sleep; nodes.len()];
            let disrupted = DisruptionSet::empty(1);
            checker.observe(&RoundObservation {
                round: r as u64,
                newly_activated: &[],
                actions: &actions,
                nodes: &nodes,
                disrupted: &disrupted,
                deliveries: &[],
                activity: &[],
                tally: wsync_radio::trace::RoundTally::default(),
            });
        }
        checker
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
        let mut checker = PropertyChecker::new();
        for (r, outputs) in rounds.iter().enumerate() {
            let nodes: Vec<NodeView> = outputs
                .iter()
                .map(|o| NodeView::Active { output: o.unwrap() })
                .collect();
            let actions = vec![ActionView::Sleep; nodes.len()];
            let disrupted = DisruptionSet::empty(1);
            checker.observe(&RoundObservation {
                round: r as u64,
                newly_activated: &[],
                actions: &actions,
                nodes: &nodes,
                disrupted: &disrupted,
                deliveries: &[],
                activity: &[],
                tally: wsync_radio::trace::RoundTally::default(),
            });
        }
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
