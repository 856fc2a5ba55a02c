//! Experiment harness for the PODC 2009 wireless-synchronization
//! reproduction.
//!
//! Each submodule regenerates one artefact of the paper (a figure, a
//! theorem's claimed bound, or a design ablation); `EXPERIMENTS.md` at the
//! workspace root records the mapping and the measured outcomes. Every
//! experiment exposes a function taking an [`Effort`] level and returning
//! one or more [`wsync_stats::Table`]s so that the same code backs the
//! `src/bin/*` command-line generators and the integration tests.
//!
//! | Module | Experiment ids | Paper artefact |
//! |---|---|---|
//! | [`figures`] | FIG1, FIG2 | Figure 1 and Figure 2 (protocol schedules) |
//! | [`trapdoor_scaling`] | T10a–T10d | Theorem 10 (Trapdoor running time, agreement) |
//! | [`samaritan_adaptive`] | T18a, T18b | Theorem 18 (Good Samaritan adaptivity and fallback) |
//! | [`lower_bounds`] | LB1, LB2, LB3 | Lemma 2 / Claim 3, Theorem 4, Theorem 5 gap |
//! | [`weight_bound`] | L9 | Lemma 9 (broadcast-weight self-regulation) |
//! | [`crossover`] | X1 | Good Samaritan vs Trapdoor crossover |
//! | [`baseline_comparison`] | X2 | baselines under jamming |
//! | [`ablation`] | A1, A2 | epoch-constant and `F′` ablations |
//! | [`fault_tolerance`] | FT1 | Section 8 leader-crash discussion |
//! | [`network_faults`] | NF1, NF2 | robustness beyond the model: loss and partition faults |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod baseline_comparison;
pub mod crossover;
pub mod fault_tolerance;
pub mod figures;
pub mod lower_bounds;
pub mod network_faults;
pub mod output;
pub mod samaritan_adaptive;
pub mod spec_run;
pub mod trapdoor_scaling;
pub mod weight_bound;

pub use output::{Effort, ExperimentReport};
pub use spec_run::{run_spec, run_spec_file_stored, run_spec_stored, SpecFile};

/// Runs an experiment grid at the given effort level: fixed-count at
/// `Smoke` (whose tiny seed totals are pinned by unit tests), adaptive at
/// `Quick`/`Full` via [`Effort::stopping_rule`] — each point stops as soon
/// as the `metric`'s confidence interval is narrower than 10% of its
/// estimate, with the fixed seed count as the ceiling. Decisions land at
/// batch boundaries, so the produced tables are bit-identical across
/// worker counts and schedule perturbations.
pub fn run_effort_grid(
    points: Vec<(String, wsync_core::spec::ScenarioSpec)>,
    seeds: std::ops::Range<u64>,
    effort: Effort,
    metric: wsync_core::sweep::StopMetric,
) -> wsync_core::sweep::SweepReport {
    wsync_core::sweep::SweepRunner::new()
        .run_points_with(
            points,
            seeds,
            effort.stopping_rule(metric).as_ref(),
            |_, _, _| {},
        )
        .expect("valid experiment specs")
}

/// A one-line summary of an adaptive grid's trial savings, for report
/// notes, or `None` when the run was fixed-count (nothing stopped early).
pub fn adaptive_note(
    sweep: &wsync_core::sweep::SweepReport,
    seeds: &std::ops::Range<u64>,
) -> Option<String> {
    let stopped = sweep.stopped_early_points();
    if stopped == 0 {
        return None;
    }
    let budget = (seeds.end - seeds.start) * sweep.points.len() as u64;
    Some(format!(
        "adaptive stopping: {}/{} budgeted trial(s) used; {}/{} point(s) stopped early",
        sweep.total_trials(),
        budget,
        stopped,
        sweep.points.len()
    ))
}

/// An experiment generator: regenerates one artefact at an effort level.
pub type Experiment = fn(Effort) -> ExperimentReport;

/// Every experiment by id, in EXPERIMENTS.md order. `run_experiments`
/// looks ids up here (ignoring ASCII case) and `all` runs the whole table.
pub static EXPERIMENTS: &[(&str, Experiment)] = &[
    ("FIG1", figures::figure1),
    ("FIG2", figures::figure2),
    ("LB1", lower_bounds::lb1_balls_in_bins),
    ("LB2", lower_bounds::lb2_two_node),
    ("LB3", lower_bounds::lb3_gap),
    ("T10a", trapdoor_scaling::t10a_sweep_n),
    ("T10b", trapdoor_scaling::t10b_sweep_t),
    ("T10c", trapdoor_scaling::t10c_sweep_f),
    ("T10d", trapdoor_scaling::t10d_properties),
    ("L9", weight_bound::l9_weight_bound),
    ("T18a", samaritan_adaptive::t18a_adaptive),
    ("T18b", samaritan_adaptive::t18b_fallback),
    ("X1", crossover::x1_crossover),
    ("X2", baseline_comparison::x2_baselines),
    ("A1", ablation::a1_epoch_constant),
    ("A2", ablation::a2_frequency_limit),
    ("FT1", fault_tolerance::ft1_leader_crash),
    ("NF1", network_faults::nf1_drop_rate),
    ("NF2", network_faults::nf2_partition_healing),
];

/// Runs every experiment at the given effort level and returns the reports
/// in EXPERIMENTS.md order.
pub fn run_all(effort: Effort) -> Vec<ExperimentReport> {
    EXPERIMENTS.iter().map(|(_, run)| run(effort)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_smoke_produces_every_report() {
        let reports = run_all(Effort::Smoke);
        assert_eq!(reports.len(), 19);
        for r in &reports {
            assert!(!r.id.is_empty());
            assert!(!r.tables.is_empty(), "{} has no tables", r.id);
            for t in &r.tables {
                assert!(!t.is_empty(), "{}: empty table {}", r.id, t.title());
            }
        }
    }
}
