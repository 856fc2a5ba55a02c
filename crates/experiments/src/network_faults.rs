//! NF1/NF2 — synchronization under composable network faults.
//!
//! The paper's adversary only disrupts frequencies; these experiments layer
//! the fault subsystem of `wsync-radio` on top of a jamming adversary and
//! measure how the Trapdoor Protocol degrades and recovers:
//!
//! * **NF1** sweeps the `"drop"` layer's `drop_rate` as a grid axis and
//!   tables sync time against message-loss intensity (a `drop_rate` of 0
//!   is pinned bit-identical to the fault-free run by
//!   `tests/fault_properties.rs`, so the first row doubles as a baseline).
//! * **NF2** splits the network into two static partitions and sweeps the
//!   healing round `heal_at`, tracing the recovery curve — how late the
//!   partition can heal before the protocol misses its sync window.
//!
//! Both sweeps drive fault parameters through ordinary
//! [`SweepSpec`] axes
//! (`fault.<name>.<param>`), exercising the same declarative path spec
//! files use.

use wsync_core::json::Value;
use wsync_core::spec::{ComponentSpec, ScenarioSpec, SweepSpec};
use wsync_core::sweep::{StopMetric, SweepRunner};
use wsync_stats::Table;

use crate::output::{fmt, Effort, ExperimentReport};

/// NF1 — mean sync time of the Trapdoor Protocol as the `"drop"` fault
/// layer's loss rate rises, stacked on a `random` jamming adversary.
pub fn nf1_drop_rate(effort: Effort) -> ExperimentReport {
    let n_nodes = 8usize;
    let f = 8u32;
    let t = 2u32;
    let seeds = effort.seeds();
    let rates: Vec<f64> = match effort {
        Effort::Smoke => vec![0.0, 0.3],
        Effort::Quick => vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        Effort::Full => vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
    };
    let mut report = ExperimentReport::new(
        "NF1",
        "sync time vs message-loss rate (drop fault layer stacked on a random jammer)",
    );
    let base = ScenarioSpec::new("trapdoor", n_nodes, f, t)
        .with_adversary("random")
        .with_fault("drop")
        .with_max_rounds(200_000);
    let mut sweep = SweepSpec::new(base, 0..seeds).with_axis(
        "fault.drop.drop_rate",
        rates.iter().map(|&r| r.into()).collect(),
    );
    // Quick/Full runs stop each drop-rate point once its completion-round
    // CI is tight; the stop rule travels inside the SweepSpec, so the
    // spec-file and fabric paths make the identical decisions.
    if let Some(rule) = effort.stopping_rule(StopMetric::CompletionRoundsMean) {
        sweep = sweep.with_stop(rule);
    }
    let result = SweepRunner::new().run(&sweep).expect("valid fault sweep");
    let mut table = Table::new(
        format!("Trapdoor sync time vs drop rate (n={n_nodes}, F={f}, t={t}, random jammer)"),
        &[
            "drop_rate",
            "synced",
            "rounds to sync (mean)",
            "completion (mean)",
            "slowdown vs lossless",
        ],
    );
    let baseline = result.points[0].stats.completion_rounds.mean;
    for (point, &rate) in result.points.iter().zip(&rates) {
        let s = &point.stats;
        table.push_row(vec![
            fmt(rate),
            format!("{}/{}", s.synced, s.trials),
            fmt(s.rounds_to_sync.mean),
            fmt(s.completion_rounds.mean),
            fmt(s.completion_rounds.mean / baseline.max(1.0)),
        ]);
    }
    report.push_table(table);
    if let Some(note) = crate::adaptive_note(&result) {
        report.note(note);
    }
    let worst = result.points.last().expect("at least one sweep point");
    report.note(format!(
        "at drop_rate={} the protocol still synchronized {}/{} trials, {}x slower than lossless — loss thins solo deliveries uniformly, so the knockout structure survives and only the constant degrades",
        fmt(*rates.last().expect("at least one rate")),
        worst.stats.synced,
        worst.stats.trials,
        fmt(worst.stats.completion_rounds.mean / baseline.max(1.0)),
    ));
    report
}

/// NF2 — the partition-healing recovery curve: two halves of the network
/// are severed until round `heal_at`; the table traces how sync time and
/// success rate depend on how long the partition lasted.
pub fn nf2_partition_healing(effort: Effort) -> ExperimentReport {
    let n_nodes = 8usize;
    let f = 8u32;
    let t = 2u32;
    let seeds = effort.seeds();
    let heals: Vec<u64> = match effort {
        Effort::Smoke => vec![0, 256],
        Effort::Quick => vec![0, 32, 128, 512, 2048],
        Effort::Full => vec![0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
    };
    let mut report = ExperimentReport::new(
        "NF2",
        "partition-healing recovery: sync after two network halves rejoin at heal_at",
    );
    // Halves [0..4) and [4..8); the axis sweeps only the healing round.
    let groups = Value::Array(vec![
        Value::Array((0..4u32).map(Value::from).collect()),
        Value::Array((4..8u32).map(Value::from).collect()),
    ]);
    let base = ScenarioSpec::new("trapdoor", n_nodes, f, t)
        .with_adversary("random")
        .with_fault(ComponentSpec::named("partition").with("groups", groups))
        .with_max_rounds(50_000);
    let sweep = SweepSpec::new(base, 0..seeds).with_axis(
        "fault.partition.heal_at",
        heals.iter().map(|&h| h.into()).collect(),
    );
    let result = SweepRunner::new().run(&sweep).expect("valid healing sweep");
    let mut table = Table::new(
        format!(
            "Trapdoor recovery after a 4|4 partition heals (n={n_nodes}, F={f}, t={t}, random jammer)"
        ),
        &[
            "heal_at",
            "synced",
            "single leader",
            "rounds to sync (mean)",
            "completion (mean)",
        ],
    );
    for (point, &heal) in result.points.iter().zip(&heals) {
        let s = &point.stats;
        table.push_row(vec![
            heal.to_string(),
            format!("{}/{}", s.synced, s.trials),
            format!("{}/{}", s.single_leader, s.trials),
            fmt(s.rounds_to_sync.mean),
            fmt(s.completion_rounds.mean),
        ]);
    }
    report.push_table(table);
    let unified = result
        .points
        .iter()
        .filter(|p| p.stats.single_leader == p.stats.trials)
        .count();
    report.note(format!(
        "{unified}/{} healing rounds kept a single leader in every trial; once the partition outlives the halves' independent knockout tournaments, each half elects its own leader and the network ends split-brain — the severed counter in the fault-counters probe shows exactly how many cross-half deliveries the partition ate",
        heals.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nf1_smoke_produces_a_row_per_rate_and_a_lossless_baseline() {
        let report = nf1_drop_rate(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 2);
        let rows = report.tables[0].rows();
        // the lossless row is its own baseline
        assert_eq!(rows[0][4], fmt(1.0));
        // every smoke trial of the lossless cell synchronizes
        assert_eq!(rows[0][1], "2/2");
    }

    #[test]
    fn nf2_smoke_produces_a_row_per_healing_round() {
        let report = nf2_partition_healing(Effort::Smoke);
        assert_eq!(report.tables[0].len(), 2);
        // an immediately-healed partition behaves like no partition at all
        assert_eq!(report.tables[0].rows()[0][1], "2/2");
    }
}
