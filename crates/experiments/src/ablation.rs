//! A1 / A2 — design ablations called out in DESIGN.md.
//!
//! * A1 sweeps the Trapdoor epoch-length constant: shorter epochs terminate
//!   faster but risk electing more than one leader (the w.h.p. guarantees
//!   need long enough epochs).
//! * A2 ablates the `F′ = min(F, 2t)` restriction: spreading over the whole
//!   band when `F ≫ 2t` slows the competition down (the reason the paper's
//!   bound has `F·t/(F−t)` rather than `F²/(F−t)`), while restricting to a
//!   single frequency destroys agreement under jamming.
//!
//! Both ablations are expressed as [`SweepSpec`] parameter grids over the
//! `trapdoor` factory's declarative parameters — the same knobs a JSON spec
//! file can sweep via `run_experiments --spec`.

use wsync_core::spec::{ScenarioSpec, SweepSpec};
use wsync_core::sweep::SweepRunner;
use wsync_core::trapdoor::TrapdoorConfig;
use wsync_stats::Table;

use crate::output::{fmt, Effort, ExperimentReport};

/// A1 — epoch-length constant sweep.
pub fn a1_epoch_constant(effort: Effort) -> ExperimentReport {
    let n_nodes = 24usize;
    let f = 16u32;
    let t = 6u32;
    let seeds = effort.seeds();
    let constants: Vec<f64> = match effort {
        Effort::Smoke => vec![0.5, 2.0],
        Effort::Quick => vec![0.5, 1.0, 2.0, 4.0],
        Effort::Full => vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    };
    let mut report = ExperimentReport::new(
        "A1",
        "Ablation: Trapdoor epoch-length constant (termination time vs single-leader rate)",
    );
    let mut table = Table::new(
        format!("Epoch-constant ablation (n={n_nodes}, F={f}, t={t}, random adversary)"),
        &[
            "epoch constant c",
            "mean completion",
            "single-leader rate",
            "clean rate",
        ],
    );
    // The paired (epoch_constant, final_epoch_constant) grid is not an
    // axis cross product, so it runs as an explicit point list.
    let points = constants
        .iter()
        .map(|&c| {
            let spec = ScenarioSpec::new("trapdoor", n_nodes, f, t)
                .with_adversary("random")
                .with_protocol_param("epoch_constant", c)
                .with_protocol_param("final_epoch_constant", c);
            (format!("c={c}"), spec)
        })
        .collect();
    let sweep = SweepRunner::new()
        .run_points(points, 0..seeds)
        .expect("valid specs");
    for (&c, point) in constants.iter().zip(&sweep.points) {
        let stats = &point.stats;
        table.push_row(vec![
            fmt(c),
            fmt(stats.completion_rounds.mean),
            format!("{:.0}%", stats.single_leader_rate() * 100.0),
            format!("{:.0}%", stats.clean_rate() * 100.0),
        ]);
    }
    report.push_table(table);
    report.note("larger constants slow termination roughly linearly but push the single-leader rate to 100%; the defaults (c₁ = 2 for regular epochs, c₂ = 6 for the final epoch) are the smallest values that kept the multi-leader rate at the 1/N level in the full run");
    report
}

/// A2 — ablation of the `F′ = min(F, 2t)` frequency restriction, expressed
/// as a declarative [`SweepSpec`] over the `frequency_limit` parameter.
pub fn a2_frequency_limit(effort: Effort) -> ExperimentReport {
    let n_nodes = 24usize;
    let f = 32u32;
    let t = 4u32;
    let seeds = effort.seeds();
    let mut report = ExperimentReport::new(
        "A2",
        "Ablation: the F' = min(F, 2t) restriction (why the bound is F·t/(F−t) and not F²/(F−t))",
    );
    let mut table = Table::new(
        format!("Frequency-limit ablation (n={n_nodes}, F={f}, t={t}, random adversary)"),
        &[
            "frequency limit",
            "mean completion",
            "single-leader rate",
            "clean rate",
        ],
    );
    let base = ScenarioSpec::new("trapdoor", n_nodes, f, t).with_adversary("random");
    let paper_limit = TrapdoorConfig::new(base.upper_bound(), f, t).f_prime();
    let mut limits: Vec<(String, u32)> = vec![
        (format!("paper F' = min(F,2t) = {paper_limit}"), paper_limit),
        (format!("full band F = {f}"), f),
        ("single frequency".to_string(), 1),
    ];
    if effort == Effort::Smoke {
        limits.truncate(2);
    }
    let sweep = SweepSpec::new(base, 0..seeds).with_axis(
        "protocol.frequency_limit",
        limits.iter().map(|&(_, limit)| limit.into()).collect(),
    );
    let result = SweepRunner::new().run(&sweep).expect("valid sweep");
    for ((label, _), point) in limits.iter().zip(&result.points) {
        let stats = &point.stats;
        table.push_row(vec![
            label.clone(),
            fmt(stats.completion_rounds.mean),
            format!("{:.0}%", stats.single_leader_rate() * 100.0),
            format!("{:.0}%", stats.clean_rate() * 100.0),
        ]);
    }
    report.push_table(table);
    report.note("restricting to F' = min(F, 2t) terminates faster than using the whole band when F ≫ 2t because the final epoch needs Θ(F'²/(F'−t)·logN) rounds; a single frequency is fast when it works but is trivially starved or split-brained once the adversary targets it");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_smoke_larger_constant_is_slower() {
        let report = a1_epoch_constant(Effort::Smoke);
        let rows = report.tables[0].rows();
        let fast: f64 = rows[0][1].parse().unwrap();
        let slow: f64 = rows[rows.len() - 1][1].parse().unwrap();
        assert!(
            slow > fast,
            "longer epochs must take longer ({slow} vs {fast})"
        );
    }

    #[test]
    fn a2_smoke_has_expected_rows() {
        let report = a2_frequency_limit(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 2);
    }
}
