//! T10a–T10d — Theorem 10: the Trapdoor Protocol synchronizes within
//! `O(F/(F−t)·log²N + F·t/(F−t)·log N)` rounds w.h.p., electing exactly one
//! leader, and satisfies all five problem requirements.
//!
//! The scaling experiments sweep one parameter at a time, average the
//! worst per-node rounds-to-synchronization over several seeds, and fit a
//! single proportionality constant against the Theorem 10 expression: if the
//! measured/predicted ratio stays roughly constant across the sweep, the
//! claimed shape is reproduced.

use wsync_analysis::formulas::Bounds;
use wsync_core::spec::ScenarioSpec;
use wsync_core::sweep::{StopMetric, SweepRunner};
use wsync_radio::activation::ActivationSchedule;
use wsync_stats::{fit_through_origin, Table};

use crate::output::{fmt, Effort, ExperimentReport};

fn scaling_report(
    id: &str,
    claim: &str,
    title: &str,
    points: Vec<(String, ScenarioSpec, Bounds)>,
    effort: Effort,
) -> ExperimentReport {
    let seeds = effort.seeds();
    let mut report = ExperimentReport::new(id, claim);
    let mut table = Table::new(
        title,
        &[
            "point",
            "mean rounds to sync",
            "std dev",
            "theorem-10 expr.",
            "ratio",
            "clean runs",
        ],
    );
    let mut measured = Vec::new();
    let mut predicted = Vec::new();
    // One pass over the whole grid: the worker pool steals (point × seed)
    // trials globally, so a slow sweep point cannot leave cores idle while
    // a cheap one drains. At Quick/Full the pass is adaptive — each point
    // stops once its mean-rounds CI is tight (see `run_effort_grid`).
    let sweep = crate::run_effort_grid(
        points
            .iter()
            .map(|(label, spec, _)| (label.clone(), spec.clone()))
            .collect(),
        0..seeds,
        effort,
        StopMetric::SyncRoundsMean,
    );
    for ((label, _, bounds), point) in points.iter().zip(&sweep.points) {
        let summary = point.stats.rounds_to_sync;
        let clean = point.stats.clean_rate();
        let expr = bounds.theorem10();
        let ratio = if expr > 0.0 { summary.mean / expr } else { 0.0 };
        measured.push(summary.mean);
        predicted.push(expr);
        table.push_row(vec![
            label.clone(),
            fmt(summary.mean),
            fmt(summary.std_dev),
            fmt(expr),
            fmt(ratio),
            format!("{:.0}%", clean * 100.0),
        ]);
    }
    report.push_table(table);
    if let Some(note) = crate::adaptive_note(&sweep, &(0..seeds)) {
        report.note(note);
    }
    if predicted.iter().all(|&p| p > 0.0) && predicted.len() >= 2 {
        let fit = fit_through_origin(&predicted, &measured);
        report.note(format!(
            "origin fit: measured ≈ {:.2} × theorem-10 expression (max relative deviation {:.0}%, rms {:.0}%)",
            fit.ratio,
            fit.max_relative_deviation * 100.0,
            fit.rms_relative_deviation * 100.0
        ));
    }
    report
}

/// T10a — running time as a function of `N` (and `n = N/2`).
pub fn t10a_sweep_n(effort: Effort) -> ExperimentReport {
    let f = 16u32;
    let t = 8u32;
    let ns: Vec<u64> = match effort {
        Effort::Smoke => vec![16, 64],
        Effort::Quick => vec![16, 32, 64, 128, 256, 512],
        Effort::Full => vec![16, 32, 64, 128, 256, 512, 1024, 2048],
    };
    let points = ns
        .into_iter()
        .map(|n| {
            let participants = (n / 2).max(2) as usize;
            let spec = ScenarioSpec::new("trapdoor", participants, f, t)
                .with_upper_bound(n)
                .with_adversary("random");
            (format!("N={n}"), spec, Bounds::new(n, f, t))
        })
        .collect();
    scaling_report(
        "T10a",
        "Theorem 10: rounds to synchronize scale as F/(F−t)·log²N + Ft/(F−t)·logN (sweep N)",
        &format!("Trapdoor scaling in N (F={f}, t={t}, random adversary)"),
        points,
        effort,
    )
}

/// T10b — running time as a function of `t` at fixed `F` (blow-up as
/// `t → F`).
pub fn t10b_sweep_t(effort: Effort) -> ExperimentReport {
    let f = 16u32;
    let n = 128u64;
    let ts: Vec<u32> = match effort {
        Effort::Smoke => vec![2, 12],
        Effort::Quick => vec![0, 2, 4, 8, 12, 14],
        Effort::Full => vec![0, 1, 2, 4, 6, 8, 10, 12, 14, 15],
    };
    let points = ts
        .into_iter()
        .map(|t| {
            let spec = ScenarioSpec::new("trapdoor", 32, f, t)
                .with_upper_bound(n)
                .with_adversary("random");
            (format!("t={t}"), spec, Bounds::new(n, f, t))
        })
        .collect();
    scaling_report(
        "T10b",
        "Theorem 10: running time blows up as t approaches F (sweep t)",
        &format!("Trapdoor scaling in t (F={f}, N={n}, random adversary)"),
        points,
        effort,
    )
}

/// T10c — running time as a function of `F` at fixed `t`.
pub fn t10c_sweep_f(effort: Effort) -> ExperimentReport {
    let t = 4u32;
    let n = 128u64;
    let fs: Vec<u32> = match effort {
        Effort::Smoke => vec![6, 32],
        Effort::Quick => vec![6, 8, 12, 16, 32, 64],
        Effort::Full => vec![5, 6, 8, 12, 16, 24, 32, 64, 128],
    };
    let points = fs
        .into_iter()
        .map(|f| {
            let spec = ScenarioSpec::new("trapdoor", 32, f, t)
                .with_upper_bound(n)
                .with_adversary("random");
            (format!("F={f}"), spec, Bounds::new(n, f, t))
        })
        .collect();
    scaling_report(
        "T10c",
        "Theorem 10: more frequencies beyond 2t stop helping (sweep F at fixed t)",
        &format!("Trapdoor scaling in F (t={t}, N={n}, random adversary)"),
        points,
        effort,
    )
}

/// T10d — the five problem properties and single-leader agreement across
/// adversaries and activation schedules.
pub fn t10d_properties(effort: Effort) -> ExperimentReport {
    let seeds = effort.seeds().max(4);
    let mut report = ExperimentReport::new(
        "T10d",
        "Theorem 10 (agreement + Section 3 properties): one leader, no safety violations, liveness",
    );
    let mut table = Table::new(
        "Trapdoor property check (n=24, F=16, t=6)",
        &[
            "adversary",
            "activation",
            "runs",
            "all synced",
            "exactly 1 leader",
            "safety violations",
        ],
    );
    let adversaries = ["none", "fixed-band", "random", "sweep", "adaptive-greedy"];
    let activations = [
        ("simultaneous", ActivationSchedule::Simultaneous),
        ("staggered", ActivationSchedule::Staggered { gap: 11 }),
        ("window", ActivationSchedule::UniformWindow { window: 100 }),
    ];
    let mut combos = Vec::new();
    let mut points = Vec::new();
    for adversary in &adversaries {
        for (act_name, activation) in &activations {
            let spec = ScenarioSpec::new("trapdoor", 24, 16, 6)
                .with_adversary(*adversary)
                .with_activation(activation.clone());
            combos.push((adversary.to_string(), act_name.to_string()));
            points.push((format!("{adversary}/{act_name}"), spec));
        }
    }
    let sweep = SweepRunner::new()
        .run_points(points, 1000..1000 + seeds)
        .expect("valid experiment specs");
    let mut total_runs = 0u64;
    let mut total_single_leader = 0u64;
    for ((adversary, act_name), point) in combos.into_iter().zip(&sweep.points) {
        let stats = &point.stats;
        let (synced, one_leader, violations) =
            (stats.synced, stats.single_leader, stats.total_violations);
        total_runs += seeds;
        total_single_leader += one_leader;
        table.push_row(vec![
            adversary,
            act_name,
            seeds.to_string(),
            format!("{synced}/{seeds}"),
            format!("{one_leader}/{seeds}"),
            violations.to_string(),
        ]);
    }
    report.push_table(table);
    report.note(format!(
        "single-leader rate across all settings: {}/{} runs",
        total_single_leader, total_runs
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t10a_smoke_ratio_is_bounded() {
        let report = t10a_sweep_n(Effort::Smoke);
        assert_eq!(report.id, "T10a");
        assert!(report.tables[0].len() >= 2);
        assert!(!report.notes.is_empty());
    }

    #[test]
    fn t10d_smoke_has_rows_for_each_combination() {
        let report = t10d_properties(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 5 * 3);
    }
}
