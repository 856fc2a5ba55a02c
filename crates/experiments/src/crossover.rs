//! X1 — the crossover between the Good Samaritan Protocol and the Trapdoor
//! Protocol as a function of the *actual* disruption level `t′`.
//!
//! Section 7's motivation: real networks usually see far less interference
//! than the worst-case bound `t`, and the Good Samaritan Protocol exploits
//! that — it should win for small `t′` and lose (by roughly a `log N`
//! factor) when `t′` approaches `t`.

use wsync_core::spec::{ComponentSpec, ScenarioSpec};
use wsync_core::sweep::StopMetric;
use wsync_radio::activation::ActivationSchedule;
use wsync_stats::Table;

use crate::output::{fmt, Effort, ExperimentReport};

/// X1 — mean completion rounds of both protocols as `t′` sweeps from 1 to
/// `t`, everything else held fixed.
pub fn x1_crossover(effort: Effort) -> ExperimentReport {
    let n_nodes = 8usize;
    let f = 16u32;
    let t = 8u32;
    let seeds = effort.seeds();
    let t_actuals: Vec<u32> = match effort {
        Effort::Smoke => vec![1, 8],
        Effort::Quick => vec![1, 2, 4, 6, 8],
        Effort::Full => vec![1, 2, 3, 4, 5, 6, 7, 8],
    };
    let mut report = ExperimentReport::new(
        "X1",
        "Good Samaritan vs Trapdoor crossover as the actual disruption t' varies (both configured for worst-case t)",
    );
    let mut table = Table::new(
        format!("Completion rounds (n={n_nodes}, F={f}, worst-case t={t}, simultaneous wake-up)"),
        &[
            "t'",
            "Good Samaritan (mean)",
            "Trapdoor (mean)",
            "GS / Trapdoor",
            "winner",
        ],
    );
    // Both protocols at every disruption level form one work-stealing
    // sweep: grid points are interleaved (GS, Trapdoor) per t'.
    let mut points = Vec::new();
    for &t_actual in &t_actuals {
        let base = ScenarioSpec::new("good-samaritan", n_nodes, f, t)
            .with_adversary(
                ComponentSpec::named("oblivious-random").with("t_actual", u64::from(t_actual)),
            )
            .with_activation(ActivationSchedule::Simultaneous);
        let td_spec = ScenarioSpec {
            protocol: ComponentSpec::named("trapdoor"),
            ..base.clone()
        };
        points.push((format!("gs t'={t_actual}"), base));
        points.push((format!("td t'={t_actual}"), td_spec));
    }
    let sweep = crate::run_effort_grid(points, 0..seeds, effort, StopMetric::CompletionRoundsMean);
    let mut gs_wins = 0usize;
    for (i, &t_actual) in t_actuals.iter().enumerate() {
        let gs = sweep.points[2 * i].stats.completion_rounds.mean;
        let td = sweep.points[2 * i + 1].stats.completion_rounds.mean;
        let winner = if gs < td {
            "good-samaritan"
        } else {
            "trapdoor"
        };
        if gs < td {
            gs_wins += 1;
        }
        table.push_row(vec![
            t_actual.to_string(),
            fmt(gs),
            fmt(td),
            fmt(gs / td.max(1.0)),
            winner.to_string(),
        ]);
    }
    report.push_table(table);
    if let Some(note) = crate::adaptive_note(&sweep) {
        report.note(note);
    }
    report.note(format!(
        "Good Samaritan wins at {gs_wins}/{} disruption levels; the paper predicts it wins for small t' and the Trapdoor Protocol wins (by up to a logN factor) near t' ≈ t",
        t_actuals.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x1_smoke_produces_row_per_t_actual() {
        let report = x1_crossover(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 2);
        for row in report.tables[0].rows() {
            assert!(row[4] == "good-samaritan" || row[4] == "trapdoor");
        }
    }
}
