//! L9 — Lemma 9: the total broadcast weight `W(r) = Σ_u p_u^r` of the
//! Trapdoor Protocol stays below `6F′` with high probability (the
//! "self-regulating feedback circuit" argument).
//!
//! The experiment steps the engine round by round and sums each active
//! node's current broadcast probability (exposed by
//! [`TrapdoorProtocol::broadcast_weight_at`]), recording the maximum weight
//! ever observed.

use wsync_core::batch::BatchRunner;
use wsync_core::registry;
use wsync_core::spec::ScenarioSpec;
use wsync_core::trapdoor::{TrapdoorConfig, TrapdoorProtocol};
use wsync_radio::engine::Engine;
use wsync_stats::Table;

use crate::output::{fmt, Effort, ExperimentReport};

/// Runs one Trapdoor execution and returns the maximum broadcast weight
/// observed over all rounds, together with the number of rounds executed.
fn max_broadcast_weight(spec: &ScenarioSpec, seed: u64) -> (f64, u64) {
    let config = TrapdoorConfig::new(
        spec.upper_bound(),
        spec.num_frequencies,
        spec.disruption_bound,
    );
    let adversary = registry::build_adversary(&spec.adversary, spec, seed)
        .expect("the spec's adversary resolves against the catalogue");
    let mut engine = Engine::new(
        spec.sim_config(),
        |_| TrapdoorProtocol::new(config),
        adversary,
        spec.activation.clone(),
        seed,
    )
    .expect("valid spec");
    let activation_rounds = engine.activation_rounds().to_vec();
    let mut max_weight: f64 = 0.0;
    let mut round = 0u64;
    while round < spec.max_rounds {
        engine.step();
        round += 1;
        let weight: f64 = engine
            .protocols()
            .iter()
            .zip(&activation_rounds)
            .filter(|(_, &act)| act < round)
            .map(|(p, &act)| p.broadcast_weight_at(round - 1 - act))
            .sum();
        max_weight = max_weight.max(weight);
        if engine.all_synchronized() {
            break;
        }
    }
    (max_weight, round)
}

/// L9 — maximum broadcast weight vs the `6F′` bound, sweeping the number of
/// participants under an adversarial batch activation pattern.
pub fn l9_weight_bound(effort: Effort) -> ExperimentReport {
    let f = 16u32;
    let t = 6u32;
    let seeds = effort.seeds().min(10);
    let ns: Vec<usize> = match effort {
        Effort::Smoke => vec![8, 32],
        Effort::Quick => vec![8, 16, 32, 64, 128],
        Effort::Full => vec![8, 16, 32, 64, 128, 256, 512],
    };
    let mut report = ExperimentReport::new(
        "L9",
        "Lemma 9: the Trapdoor broadcast weight W(r) stays below 6F' w.h.p.",
    );
    let mut table = Table::new(
        format!("Maximum broadcast weight (F={f}, t={t}, batch activation, random adversary)"),
        &["n", "F'", "max W(r) over seeds", "6F'", "max W / 6F'"],
    );
    let f_prime = TrapdoorConfig::new(64, f, t).f_prime();
    let bound = 6.0 * f64::from(f_prime);
    let mut worst_ratio: f64 = 0.0;
    for &n in &ns {
        let spec = ScenarioSpec::new("trapdoor", n, f, t)
            .with_adversary("random")
            .with_activation(wsync_radio::activation::ActivationSchedule::Batches {
                batch_size: (n / 4).max(1),
                gap: 13,
            });
        let max_w = BatchRunner::new()
            .map(0..seeds, |seed| max_broadcast_weight(&spec, seed).0)
            .into_iter()
            .fold(0.0f64, f64::max);
        let ratio = max_w / bound;
        worst_ratio = worst_ratio.max(ratio);
        table.push_row(vec![
            n.to_string(),
            f_prime.to_string(),
            fmt(max_w),
            fmt(bound),
            fmt(ratio),
        ]);
    }
    report.push_table(table);
    report.note(format!(
        "worst observed W(r)/(6F') ratio: {worst_ratio:.3} (Lemma 9 predicts < 1 w.h.p.)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_stays_below_lemma9_bound_in_smoke_run() {
        let report = l9_weight_bound(Effort::Smoke);
        for row in report.tables[0].rows() {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio < 1.0, "Lemma 9 bound exceeded: {row:?}");
        }
    }

    #[test]
    fn max_weight_positive_for_nontrivial_run() {
        let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
        let (w, rounds) = max_broadcast_weight(&spec, 1);
        assert!(w > 0.0);
        assert!(rounds > 0);
    }
}
