//! X2 — the paper's protocols against the baseline protocols under
//! increasing jamming.
//!
//! The baselines (multi-frequency wake-up, deterministic round-robin
//! hopping, single-frequency Trapdoor) capture what a practitioner might
//! deploy without the paper's machinery; the experiment quantifies where
//! they break: the single-frequency variant degenerates as soon as `t ≥ 1`,
//! the wake-up baseline needs a conservative fixed deadline, and the
//! deterministic hopper is vulnerable to synchronized-collision patterns.

use wsync_core::batch::BatchStats;
use wsync_core::spec::ScenarioSpec;
use wsync_core::sweep::StopMetric;
use wsync_stats::Table;

use crate::output::{fmt, Effort, ExperimentReport};

/// One protocol's aggregate behaviour over several seeds.
#[derive(Debug, Clone, Copy)]
pub struct BaselineRow {
    /// Mean completion round over the runs that completed.
    pub mean_completion: f64,
    /// Fraction of runs in which every node synchronized.
    pub sync_rate: f64,
    /// Fraction of runs that were clean (synced, one leader, no safety
    /// violations).
    pub clean_rate: f64,
}

impl BaselineRow {
    fn from_stats(stats: &BatchStats) -> Self {
        BaselineRow {
            mean_completion: stats.completion_rounds.mean,
            sync_rate: stats.sync_rate(),
            clean_rate: stats.clean_rate(),
        }
    }
}

/// X2 — completion time and correctness of every protocol as `t` grows.
pub fn x2_baselines(effort: Effort) -> ExperimentReport {
    let n_nodes = 16usize;
    let f = 16u32;
    let seeds = effort.seeds();
    let ts: Vec<u32> = match effort {
        Effort::Smoke => vec![0, 6],
        Effort::Quick => vec![0, 4, 8, 12],
        Effort::Full => vec![0, 2, 4, 8, 12, 14],
    };
    let protocols = ["trapdoor", "wakeup", "round-robin", "single-frequency"];
    let mut report = ExperimentReport::new(
        "X2",
        "Baseline comparison under jamming: Trapdoor vs wake-up-style vs round-robin hopping vs single-frequency",
    );
    let mut table = Table::new(
        format!("Protocol comparison (n={n_nodes}, F={f}, random adversary, completion rounds / sync rate / clean rate)"),
        &["t", "protocol", "mean completion", "sync rate", "clean rate"],
    );
    // The full t × protocol grid runs as one work-stealing sweep, so the
    // slow starving baselines cannot serialize the experiment.
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for &t in &ts {
        for protocol in protocols {
            // Cap the run length so the starving single-frequency baseline
            // does not dominate the experiment's running time.
            let spec = ScenarioSpec::new(protocol, n_nodes, f, t)
                .with_adversary("random")
                .with_max_rounds(60_000);
            labels.push((t, protocol));
            points.push((format!("t={t}/{protocol}"), spec));
        }
    }
    let sweep = crate::run_effort_grid(points, 0..seeds, effort, StopMetric::CompletionRoundsMean);
    for ((t, protocol), point) in labels.into_iter().zip(&sweep.points) {
        let row = BaselineRow::from_stats(&point.stats);
        table.push_row(vec![
            t.to_string(),
            protocol.to_string(),
            fmt(row.mean_completion),
            format!("{:.0}%", row.sync_rate * 100.0),
            format!("{:.0}%", row.clean_rate * 100.0),
        ]);
    }
    report.push_table(table);
    if let Some(note) = crate::adaptive_note(&sweep) {
        report.note(note);
    }
    report.note("the Trapdoor Protocol should keep a near-100% clean rate at every t, while the single-frequency baseline degenerates (many self-elected leaders) once t ≥ 1 and the deterministic hopper loses clean runs to repeated collisions");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x2_smoke_has_four_protocols_per_t() {
        let report = x2_baselines(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 2 * 4);
    }

    #[test]
    fn trapdoor_is_clean_without_jamming() {
        let report = x2_baselines(Effort::Smoke);
        let row = report.tables[0]
            .rows()
            .iter()
            .find(|r| r[0] == "0" && r[1] == "trapdoor")
            .unwrap()
            .clone();
        assert_eq!(row[4], "100%", "trapdoor should be clean at t=0: {row:?}");
    }
}
