//! Property-based integration tests of the radio model semantics (Section 2)
//! driven through the public API: collision/disruption/delivery rules and
//! reproducibility, checked with proptest over random small protocols.

use proptest::prelude::*;

use wireless_sync::prelude::*;
use wireless_sync::radio::engine::Engine;
use wireless_sync::radio::probe::Probe;
use wireless_sync::radio::trace::{ActionView, FrequencyActivity, FullTrace, RoundObservation};

/// A protocol that follows a fixed scripted action sequence; used to drive
/// the engine into arbitrary (but reproducible) configurations.
#[derive(Debug, Clone)]
struct Scripted {
    /// (script frequency `k`, 1-based; broadcast?) per local round,
    /// cycled. The node uses frequency `1 + (k − 1)·stride`, so a stride
    /// above 1 spreads the script's few frequencies across a wide band.
    script: Vec<(u32, bool)>,
    stride: u32,
    heard: u64,
}

impl Protocol for Scripted {
    type Msg = u32;

    fn on_activate(&mut self, _info: ActivationInfo, _rng: &mut SimRng) {}

    fn choose_action(&mut self, local_round: u64, _rng: &mut SimRng) -> Action<u32> {
        let (k, broadcast) = self.script[(local_round as usize) % self.script.len()];
        let freq = 1 + (k - 1) * self.stride;
        if broadcast {
            Action::broadcast(Frequency::new(freq), freq)
        } else {
            Action::listen(Frequency::new(freq))
        }
    }

    fn on_feedback(&mut self, _local_round: u64, feedback: Feedback<u32>, _rng: &mut SimRng) {
        if feedback.is_received() {
            self.heard += 1;
        }
    }

    fn output(&self) -> Option<u64> {
        None
    }
}

fn arb_script(f: u32) -> impl Strategy<Value = Vec<(u32, bool)>> {
    proptest::collection::vec((1..=f, any::<bool>()), 1..6)
}

/// Checks every round's per-frequency activity record, all `F` entries,
/// against the round's actions and disruption set.
#[derive(Default)]
struct ActivityAudit {
    mismatches: Vec<String>,
}

impl Probe for ActivityAudit {
    fn observe(&mut self, round: &RoundObservation<'_>) {
        let mut counts = vec![(0u32, 0u32); round.activity.len()];
        for action in round.actions {
            match *action {
                ActionView::Broadcast(f) => counts[f.as_zero_based()].0 += 1,
                ActionView::Listen(f) => counts[f.as_zero_based()].1 += 1,
                _ => {}
            }
        }
        for (i, (&(broadcasters, listeners), activity)) in
            counts.iter().zip(round.activity).enumerate()
        {
            let disrupted = round.disrupted.contains(Frequency::from_zero_based(i));
            let expected = FrequencyActivity {
                broadcasters,
                listeners,
                disrupted,
                delivered: broadcasters == 1 && !disrupted,
            };
            if *activity != expected {
                self.mismatches.push(format!(
                    "round {} frequency {}: {activity:?}, expected {expected:?}",
                    round.round,
                    i + 1
                ));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deliveries happen iff exactly one node broadcasts on an undisrupted
    /// frequency; receivers on that frequency all hear it. We verify the
    /// aggregate consequence: the number of receptions recorded by the
    /// engine equals the number of (listener, delivering-frequency) pairs in
    /// the trace, no delivery ever happens on a disrupted frequency, and
    /// every frequency's activity record (disrupted-but-unused ones
    /// included) matches the round's actions and disruption set. The four
    /// script frequencies are spread over a band of one, two or three
    /// 64-bit words.
    #[test]
    fn delivery_semantics_hold(
        scripts in proptest::collection::vec(arb_script(4), 2..6),
        band in 0usize..3,
        t in 0u32..3,
        seed in 0u64..50,
    ) {
        let (f, stride) = [(4, 1), (70, 23), (130, 43)][band];
        let n = scripts.len();
        let config = wireless_sync::radio::engine::SimConfig::new(n, f, t).with_max_rounds(12);
        let mut engine = Engine::new(
            config,
            |id: NodeId| Scripted { script: scripts[id.index()].clone(), stride, heard: 0 },
            RandomAdversary::new(t),
            ActivationSchedule::Simultaneous,
            seed,
        ).unwrap();
        let slot = engine.attach_probe(Box::new(FullTrace::new()));
        let audit_slot = engine.attach_probe(Box::new(ActivityAudit::default()));
        let result = engine.run();
        let mut probes = engine.take_probes();
        let trace: FullTrace = probes.take(slot).expect("trace slot");
        let audit: ActivityAudit = probes.take(audit_slot).expect("audit slot");
        prop_assert_eq!(result.rounds_executed, 12);
        prop_assert!(audit.mismatches.is_empty(), "{:?}", audit.mismatches);

        let mut receptions_from_trace = 0u64;
        for event in trace.events() {
            for delivery in &event.deliveries {
                // no delivery on a disrupted frequency
                prop_assert!(!event.disrupted.contains(&delivery.frequency.index()));
                receptions_from_trace += u64::from(delivery.receivers);
                // the sender really did broadcast on that frequency
                let sender_action = &event.actions[delivery.sender.index()];
                prop_assert_eq!(
                    *sender_action,
                    wireless_sync::radio::trace::ActionView::Broadcast(delivery.frequency)
                );
            }
            // at most t disrupted frequencies per round
            prop_assert!(event.disrupted.len() <= t as usize);
        }
        prop_assert_eq!(receptions_from_trace, result.metrics.receptions);

        // every reception was heard by some protocol instance
        let total_heard: u64 = engine.into_protocols().iter().map(|p| p.heard).sum();
        prop_assert_eq!(total_heard, receptions_from_trace);
    }

    /// The execution is a pure function of the seed.
    #[test]
    fn executions_are_reproducible(
        scripts in proptest::collection::vec(arb_script(3), 2..5),
        seed in 0u64..100,
    ) {
        let run = |seed: u64| {
            let n = scripts.len();
            let config = wireless_sync::radio::engine::SimConfig::new(n, 3, 1).with_max_rounds(10);
            let mut engine = Engine::new(
                config,
                |id: NodeId| Scripted { script: scripts[id.index()].clone(), stride: 1, heard: 0 },
                RandomAdversary::new(1),
                ActivationSchedule::UniformWindow { window: 4 },
                seed,
            ).unwrap();
            let slot = engine.attach_probe(Box::new(FullTrace::new()));
            let result = engine.run();
            let trace: FullTrace = engine.take_probes().take(slot).expect("trace slot");
            (result, trace.events().to_vec())
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
