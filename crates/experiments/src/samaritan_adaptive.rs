//! T18a / T18b — Theorem 18: the Good Samaritan Protocol terminates in
//! `O(t′·log³N)` rounds in good executions (simultaneous wake-up, oblivious
//! adversary disrupting at most `t′ < t` frequencies) and in `O(F·log³N)`
//! rounds in every execution.

use wsync_core::good_samaritan::GoodSamaritanConfig;
use wsync_core::spec::{ComponentSpec, ScenarioSpec};
use wsync_core::sweep::SweepRunner;
use wsync_radio::activation::ActivationSchedule;
use wsync_stats::{fit_through_origin, Summary, Table};

use crate::output::{fmt, Effort, ExperimentReport};

/// Runs the Good Samaritan protocol over several seeds (sharded across
/// cores) and reports the mean completion round, the fraction of runs
/// finishing during the optimistic portion, and the fraction of clean runs.
/// `config` supplies the schedule thresholds (`fallback_start`) used to
/// classify an execution as optimistic; it mirrors the spec's parameters.
///
/// The bespoke optimistic/clean counters fold through
/// [`SweepRunner::run_points_each`], which streams every outcome past the
/// closure in seed order and then drops it — no outcome vector is held.
fn measure_samaritan(
    spec: &ScenarioSpec,
    config: GoodSamaritanConfig,
    seeds: u64,
) -> (Summary, f64, f64) {
    let mut optimistic = 0usize;
    let mut clean = 0usize;
    let report = SweepRunner::new()
        .run_points_each(
            vec![(String::new(), spec.clone())],
            0..seeds,
            |_, outcome| {
                if let Some(r) = outcome.completion_round() {
                    if r < config.fallback_start() {
                        optimistic += 1;
                    }
                }
                if outcome.result.all_synchronized
                    && outcome.leaders >= 1
                    && outcome.properties.safety_holds()
                {
                    clean += 1;
                }
            },
        )
        .expect("valid experiment spec");
    (
        report.points[0].stats.completion_rounds,
        optimistic as f64 / seeds as f64,
        clean as f64 / seeds as f64,
    )
}

/// T18a — adaptive termination: sweep the actual disruption level `t′` in
/// good executions and compare against `t′·log³N`.
pub fn t18a_adaptive(effort: Effort) -> ExperimentReport {
    let n_nodes = 8usize;
    let f = 16u32;
    let t = 8u32;
    let seeds = effort.seeds();
    let t_actuals: Vec<u32> = match effort {
        Effort::Smoke => vec![1, 4],
        Effort::Quick => vec![1, 2, 4, 8],
        Effort::Full => vec![1, 2, 3, 4, 6, 8],
    };
    let mut report = ExperimentReport::new(
        "T18a",
        "Theorem 18 (optimistic): good executions terminate in O(t'·log³N) rounds",
    );
    let mut table = Table::new(
        format!("Good Samaritan adaptivity (n={n_nodes}, F={f}, t={t}, simultaneous wake-up)"),
        &[
            "t'",
            "mean completion round",
            "std dev",
            "t'·log³N",
            "ratio",
            "finished in optimistic portion",
            "clean runs",
        ],
    );
    let mut measured = Vec::new();
    let mut predicted = Vec::new();
    for &t_actual in &t_actuals {
        let spec = ScenarioSpec::new("good-samaritan", n_nodes, f, t)
            .with_adversary(
                ComponentSpec::named("oblivious-random").with("t_actual", u64::from(t_actual)),
            )
            .with_activation(ActivationSchedule::Simultaneous);
        let config = GoodSamaritanConfig::new(spec.upper_bound(), f, t);
        let (summary, optimistic, clean) = measure_samaritan(&spec, config, seeds);
        let expr = config.theorem18_optimistic_bound(t_actual);
        measured.push(summary.mean);
        predicted.push(expr);
        table.push_row(vec![
            t_actual.to_string(),
            fmt(summary.mean),
            fmt(summary.std_dev),
            fmt(expr),
            fmt(summary.mean / expr.max(1.0)),
            format!("{:.0}%", optimistic * 100.0),
            format!("{:.0}%", clean * 100.0),
        ]);
    }
    report.push_table(table);
    if predicted.len() >= 2 {
        let fit = fit_through_origin(&predicted, &measured);
        report.note(format!(
            "origin fit: measured ≈ {:.3} × t'·log³N (max relative deviation {:.0}%)",
            fit.ratio,
            fit.max_relative_deviation * 100.0
        ));
    }
    report.note(
        "smaller actual disruption t' must give smaller completion times — the adaptivity claim",
    );
    report
}

/// T18b — fallback bound: executions that are *not* good (staggered
/// activation) still terminate, within a constant multiple of `F·log³N`.
pub fn t18b_fallback(effort: Effort) -> ExperimentReport {
    let n_nodes = 6usize;
    let t = 4u32;
    let seeds = effort.seeds().min(8);
    let fs: Vec<u32> = match effort {
        Effort::Smoke => vec![8],
        Effort::Quick => vec![8, 16],
        Effort::Full => vec![8, 16, 32],
    };
    let mut report = ExperimentReport::new(
        "T18b",
        "Theorem 18 (general): every execution terminates within O(F·log³N) rounds",
    );
    let mut table = Table::new(
        format!("Good Samaritan fallback bound (n={n_nodes}, t={t}, staggered wake-up, random adversary)"),
        &[
            "F",
            "mean completion round",
            "max completion round",
            "F·log³N",
            "max/bound ratio",
            "clean runs",
        ],
    );
    for &f in &fs {
        let spec = ScenarioSpec::new("good-samaritan", n_nodes, f, t)
            .with_adversary("random")
            .with_activation(ActivationSchedule::Staggered { gap: 37 })
            .with_max_rounds(4_000_000);
        let config = GoodSamaritanConfig::new(spec.upper_bound(), f, t);
        let (summary, _optimistic, clean) = measure_samaritan(&spec, config, seeds);
        let bound = config.theorem18_fallback_bound();
        table.push_row(vec![
            f.to_string(),
            fmt(summary.mean),
            fmt(summary.max),
            fmt(bound),
            fmt(summary.max / bound.max(1.0)),
            format!("{:.0}%", clean * 100.0),
        ]);
    }
    report.push_table(table);
    report.note("the max/bound ratio should stay bounded by a constant as F grows");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t18a_smoke_adaptivity_direction() {
        let report = t18a_adaptive(Effort::Smoke);
        assert_eq!(report.id, "T18a");
        let rows = report.tables[0].rows();
        assert!(rows.len() >= 2);
        // completion time for the smallest t' should not exceed that of the
        // largest t' (column 1 holds the mean completion round)
        let first: f64 = rows.first().unwrap()[1].parse().unwrap_or(f64::MAX);
        let last: f64 = rows.last().unwrap()[1].parse().unwrap_or(0.0);
        assert!(
            first <= last * 1.5,
            "t'=min should not be much slower than t'=max ({first} vs {last})"
        );
    }

    #[test]
    fn t18b_smoke_produces_bound_rows() {
        let report = t18b_fallback(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 1);
    }
}
