//! `PropertyChecker`, fed by the engine's output breaks and disagreement
//! count, against the two-scan reference (`reference_checker`) on scripted
//! outputs that break every safety property: a ⊥ after a number, a skipped
//! number, a repeated one, and nodes that disagree — enough of them to
//! overflow the 64 recorded violations. Under churn, restarts rerun the
//! script from its start.

mod reference_checker;

use wireless_sync::prelude::*;

/// Scripted nodes' 8-round output cycle, by local round `k`: `⊥` in phase
/// 0 (so a `⊥` follows the number of phase 7), otherwise `k + offset`,
/// except that phase 4 skips a number, which phase 5 then repeats.
/// Distinct offsets make the nodes disagree.
fn scripted_output(offset: u64, k: u64) -> Option<u64> {
    match k % 8 {
        0 => None,
        4 => Some(k + offset + 1),
        _ => Some(k + offset),
    }
}

/// A node that sleeps and outputs [`scripted_output`] after each round;
/// it never reports itself synchronized, so a run lasts to the round cap.
#[derive(Debug, Clone)]
struct Scripted {
    offset: u64,
    output: Option<u64>,
}

impl Protocol for Scripted {
    type Msg = ();

    fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {
        self.output = None;
    }

    fn choose_action(&mut self, _local_round: u64, _rng: &mut SimRng) -> Action<()> {
        Action::Sleep
    }

    fn on_feedback(&mut self, local_round: u64, _feedback: Feedback<()>, _rng: &mut SimRng) {
        self.output = scripted_output(self.offset, local_round);
    }

    fn output(&self) -> Option<u64> {
        self.output
    }

    fn is_synchronized(&self) -> bool {
        false
    }
}

/// Counts the nodes restarted by a fault layer.
#[derive(Default)]
struct Restarts(u64);

impl Probe for Restarts {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.0 += u64::from(observation.tally.restarted_nodes);
    }
}

/// Six scripted nodes, one activated per round, over 160 rounds.
fn scripted_engine() -> Engine<Scripted, NoAdversary> {
    Engine::new(
        SimConfig::new(6, 2, 0).with_max_rounds(160),
        |id| Scripted {
            offset: 3 * id.index() as u64,
            output: None,
        },
        NoAdversary::new(),
        ActivationSchedule::Staggered { gap: 1 },
        3,
    )
    .unwrap()
}

/// Requires both kinds of break and a disagreement among the recorded
/// violations, and more violations than the recorded 64.
fn assert_every_kind_overflows(report: &PropertyReport) {
    let has = |kind: fn(&Violation) -> bool| report.violations.iter().any(kind);
    assert!(has(|v| matches!(v, Violation::SynchCommit { .. })));
    assert!(has(|v| matches!(v, Violation::Correctness { .. })));
    assert!(has(|v| matches!(v, Violation::Agreement { .. })));
    assert_eq!(report.violations.len(), 64);
    assert!(report.total_violations > 64);
    assert_eq!(report.rounds_observed, 160);
}

#[test]
fn scripted_breaks_match_the_two_scan_reference() {
    let (checker, reference) = reference_checker::run_both(&mut scripted_engine());
    assert_eq!(checker, reference);
    assert_every_kind_overflows(&checker);
}

#[test]
fn scripted_breaks_under_churn_match_the_two_scan_reference() {
    let churned = || {
        let mut engine = scripted_engine();
        engine.attach_fault(Box::new(ChurnLayer::new(0.05, 4)));
        engine
    };
    let mut counted = churned();
    let slot = counted.attach_probe(Box::new(Restarts::default()));
    counted.run();
    let restarts: Restarts = counted.take_probes().take(slot).expect("restart counter");
    assert!(restarts.0 > 0, "the churn layer restarted no node");
    let (checker, reference) = reference_checker::run_both(&mut churned());
    assert_eq!(checker, reference);
    assert_every_kind_overflows(&checker);
    let (clean, _) = reference_checker::run_both(&mut scripted_engine());
    assert_ne!(checker, clean, "restarts must change the report");
}
