//! Integration checks tying the lower-bound machinery to the protocol
//! implementations: no protocol beats the Theorem 4/5 lower bounds, and the
//! two-node game's adversary really does slow the protocols' own frequency
//! strategy down to the predicted rate.

use wireless_sync::analysis::formulas::Bounds;
use wireless_sync::analysis::two_node::{RendezvousGame, RendezvousStrategy};
use wireless_sync::prelude::*;

#[test]
fn trapdoor_cannot_beat_the_two_node_lower_bound() {
    // With exactly two participants, the Trapdoor Protocol's completion time
    // should be at least a small constant fraction of the Theorem 4
    // expression: the lower bound applies to *every* protocol.
    let f = 16u32;
    let t = 12u32;
    let spec = ScenarioSpec::new("trapdoor", 2, f, t)
        .with_adversary("fixed-band")
        .with_activation(ActivationSchedule::Staggered { gap: 3 });
    let bound = Bounds::new(spec.upper_bound(), f, t).theorem4(0.5);
    let sim = Sim::from_spec(&spec).expect("valid spec");
    let mut total = 0u64;
    let runs = 10u64;
    for seed in 0..runs {
        let outcome = sim.run_one(seed);
        total += outcome.completion_round().expect("must finish");
    }
    let mean = total as f64 / runs as f64;
    assert!(
        mean >= bound * 0.05,
        "two-node Trapdoor completion ({mean}) collapsed far below the lower-bound shape ({bound})"
    );
    // The catalogue's `top-weight` is the Theorem 4 adversary against a
    // uniform frequency choice: all products `p_j·q_j` are equal, so it
    // jams `1..=t` like `fixed-band`, against every protocol.
    for protocol in wireless_sync::sync::registry::protocol_names() {
        let fixed = ScenarioSpec::new(protocol.as_str(), 4, 8, 3).with_adversary("fixed-band");
        let top = fixed.clone().with_adversary("top-weight");
        for seed in 0..2 {
            let mut outcome = Sim::from_spec(&top).unwrap().run_one(seed);
            assert_eq!(outcome.adversary, "top-weight");
            outcome.adversary = "fixed-band".to_string();
            assert_eq!(
                outcome,
                Sim::from_spec(&fixed).unwrap().run_one(seed),
                "{protocol}"
            );
        }
    }
}

#[test]
fn prefix_strategy_matches_trapdoor_frequency_choice() {
    // The rendezvous game's "uniform prefix" strategy is exactly the
    // Trapdoor Protocol's F' = min(F, 2t) restriction; its expected meeting
    // time should therefore track the Ft/(F−t) term.
    for (f, t) in [(16u32, 2u32), (16, 6), (32, 8)] {
        let game = RendezvousGame::symmetric(f, t, RendezvousStrategy::UniformPrefix);
        let expected = game.expected_rounds();
        let term = f64::from(f) * f64::from(t) / f64::from(f - t);
        let ratio = expected / term;
        assert!(
            ratio > 0.05 && ratio < 20.0,
            "F={f} t={t}: expected meeting time {expected} is not within a constant of Ft/(F−t) = {term}"
        );
    }
}

#[test]
fn simulated_meeting_times_never_beat_the_closed_form_by_much() {
    for (f, t) in [(8u32, 4u32), (16, 8)] {
        let game = RendezvousGame::symmetric(f, t, RendezvousStrategy::UniformAll);
        let mean = game.mean_rounds(2_000, 1_000_000, 3);
        let expected = game.expected_rounds();
        assert!(
            mean > expected * 0.8,
            "F={f} t={t}: simulated mean {mean} beats the closed-form expectation {expected} by more than sampling noise"
        );
    }
}
