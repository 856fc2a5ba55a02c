//! A reference for `PropertyChecker`: the checker as it was before the
//! engine reported output breaks. It keeps every node's previous output and
//! scans all N node views twice per round — once for agreement, once for
//! synch commit and correctness — so it derives every violation from the
//! node views alone. Tests attach it beside `PropertyChecker` on one engine
//! and require equal reports.

use wireless_sync::prelude::*;
use wireless_sync::radio::trace::NodeView;

/// How many violations a report records in detail, as `PropertyChecker`.
const MAX_RECORDED: usize = 64;

/// The two-scan checker.
#[derive(Debug, Default)]
pub struct ReferenceChecker {
    previous: Vec<Option<Option<u64>>>,
    violations: Vec<Violation>,
    total_violations: u64,
    rounds_observed: u64,
}

impl ReferenceChecker {
    fn record(&mut self, violation: Violation) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(violation);
        }
    }

    /// The report `PropertyChecker::finish` would give.
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

impl Probe for ReferenceChecker {
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
                            self.record(Violation::Agreement {
                                round: observation.round,
                                first: (fid, fv),
                                second: (NodeId::new(i as u32), *v),
                            });
                        }
                    }
                }
            }
        }

        // Synch commit and correctness: per-node transition checks.
        for (i, view) in observation.nodes.iter().enumerate() {
            let current = view.output();
            if let (Some(prev_active), Some(cur_active)) = (self.previous[i], current) {
                match (prev_active, cur_active) {
                    (Some(p), None) => self.record(Violation::SynchCommit {
                        node: NodeId::new(i as u32),
                        round: observation.round,
                        previous: p,
                    }),
                    (Some(p), Some(c)) if c != p + 1 => self.record(Violation::Correctness {
                        node: NodeId::new(i as u32),
                        round: observation.round,
                        previous: p,
                        current: c,
                    }),
                    _ => {}
                }
            }
            self.previous[i] = current;
        }
    }
}

/// Attaches `PropertyChecker` and the reference to `engine`, runs it to
/// completion, and returns `(checker's report, reference's report)`.
pub fn run_both<P: Protocol, A: Adversary>(
    engine: &mut Engine<P, A>,
) -> (PropertyReport, PropertyReport) {
    let checker = engine.attach_probe(Box::new(PropertyChecker::new()));
    let reference = engine.attach_probe(Box::new(ReferenceChecker::default()));
    let result = engine.run();
    let mut probes = engine.take_probes();
    let checker: PropertyChecker = probes.take(checker).expect("checker slot");
    let reference: ReferenceChecker = probes.take(reference).expect("reference slot");
    (checker.finish(&result), reference.finish(&result))
}
