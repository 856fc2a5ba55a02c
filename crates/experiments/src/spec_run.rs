//! Running declarative JSON spec files: the `run_experiments --spec` path.
//!
//! A spec file holds either a single [`ScenarioSpec`] or a [`SweepSpec`]
//! (recognised by its `"base"` key). Either way the file runs with zero
//! recompilation: names resolve against the registry, all (grid point ×
//! seed) trials stream through a [`SweepRunner`] with work stealing across
//! cores, and the aggregate statistics come back as an
//! [`ExperimentReport`] table — the same output path as the built-in
//! experiments. Example files live under `examples/specs/`.
//!
//! With `--out <dir>` the runner persists every completed trial into a
//! content-addressed [`ResultStore`](wsync_core::store::ResultStore); with
//! `--resume` it additionally serves already-stored trials from that
//! store, so an interrupted sweep re-runs only what is missing and
//! reproduces the uninterrupted tables bit for bit (the cache totals go to
//! stderr, never into the report, so resumed and fresh runs print
//! identical tables).
//!
//! A spec that declares `"probes": [...]` runs every executed trial with
//! those probes attached to the engine's probe stack; the report gains one
//! probe table showing each probe's finalized output on the first executed
//! seed of every sweep point (probes observe live executions, so trials
//! served wholly from a resume cache contribute no probe rows — the
//! outcome tables themselves stay bit-identical either way).

use wsync_core::json;
use wsync_core::registry::ProbeOutput;
use wsync_core::spec::{ScenarioSpec, SpecError, SweepSpec};
use wsync_core::sweep::{SweepError, SweepReport, SweepRunner};
use wsync_stats::Table;

use crate::output::{fmt, ExperimentReport};

/// A parsed spec file: either one scenario or a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecFile {
    /// A single scenario cell.
    Scenario(ScenarioSpec),
    /// A seed range and parameter grid over a base scenario.
    Sweep(SweepSpec),
}

impl SpecFile {
    /// Parses spec-file JSON. An object with a `"base"` key is a
    /// [`SweepSpec`]; anything else must be a [`ScenarioSpec`].
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let value = json::parse(text)?;
        if value.get("base").is_some() {
            SweepSpec::from_value(&value).map(SpecFile::Sweep)
        } else {
            ScenarioSpec::from_value(&value).map(SpecFile::Scenario)
        }
    }

    /// The sweep this file describes; a bare scenario becomes a gridless
    /// sweep over `default_seeds`.
    pub fn into_sweep(self, default_seeds: std::ops::Range<u64>) -> SweepSpec {
        match self {
            SpecFile::Sweep(sweep) => sweep,
            SpecFile::Scenario(spec) => SweepSpec::new(spec, default_seeds),
        }
    }
}

/// Runs a parsed spec file and renders one aggregate row per sweep point.
///
/// `source` labels the report (typically the file name); `default_seeds`
/// applies when the file is a bare [`ScenarioSpec`] without a seed range.
pub fn run_spec(
    file: SpecFile,
    source: &str,
    default_seeds: std::ops::Range<u64>,
) -> Result<ExperimentReport, SpecError> {
    match run_spec_stored(file, source, default_seeds, &SweepRunner::new()) {
        Ok((report, _)) => Ok(report),
        Err(SweepError::Spec(e)) => Err(e),
        Err(SweepError::Store(e)) => unreachable!("storeless run raised a store error: {e}"),
    }
}

/// Runs a parsed spec file on `runner`, returning both the rendered report
/// and the [`SweepReport`] (per-point cache/executed totals). The runner
/// decides persistence: [`SweepRunner::new`] stores nothing,
/// [`record_only`](SweepRunner::record_only) records every trial (`--out`),
/// and [`store`](SweepRunner::store) also serves stored ones (`--resume`).
/// The rendered **outcome tables** are independent of the store — a
/// resumed run prints them bit-identical to an uninterrupted one;
/// cache accounting lives only in the returned [`SweepReport`]. The probe
/// table (present only when the spec declares `"probes"`) is the one
/// store-dependent section: probes observe live executions, so a point
/// whose trials were all served from the cache reports a placeholder row
/// instead of probe output.
pub fn run_spec_stored(
    file: SpecFile,
    source: &str,
    default_seeds: std::ops::Range<u64>,
    runner: &SweepRunner,
) -> Result<(ExperimentReport, SweepReport), SweepError> {
    let sweep = file.into_sweep(default_seeds);
    // For a fixed-count sweep this is the declared range; with a `"stop"`
    // rule it is the adaptive seed *budget* (see SweepSpec::effective_seeds).
    let seeds = sweep.effective_seeds()?;
    let points: Vec<(String, ScenarioSpec)> = sweep
        .expand()
        .map_err(SweepError::Spec)?
        .into_iter()
        .map(|point| (point.label, point.spec))
        .collect();
    // One probe-output sample per point: each point's first executed seed
    // runs probed, the remaining trials skip the probe overhead entirely.
    let mut probe_samples: Vec<Option<Vec<ProbeOutput>>> = vec![None; points.len()];
    let result = runner.run_points_with(
        points,
        seeds.clone(),
        sweep.stop.as_ref(),
        |point, _, probes| {
            if let Some(outputs) = probes {
                probe_samples[point] = Some(outputs.to_vec());
            }
        },
    )?;
    let mut report = ExperimentReport::new("SPEC", &format!("declarative scenario run: {source}"));
    let mut table = Table::new(
        format!(
            "{} (seeds {}..{})",
            sweep.base.protocol.name(),
            seeds.start,
            seeds.end
        ),
        &[
            "point",
            "protocol",
            "adversary",
            "trials",
            "sync rate",
            "single leader",
            "clean rate",
            "mean completion",
        ],
    );
    for point in &result.points {
        let stats = &point.stats;
        table.push_row(vec![
            point.display_label().to_string(),
            point.spec.protocol.name().to_string(),
            point.spec.adversary.name().to_string(),
            stats.trials.to_string(),
            format!("{:.0}%", stats.sync_rate() * 100.0),
            format!("{:.0}%", stats.single_leader_rate() * 100.0),
            format!("{:.0}%", stats.clean_rate() * 100.0),
            fmt(stats.completion_rounds.mean),
        ]);
    }
    report.push_table(table);
    if !sweep.base.probes.is_empty() {
        let mut probe_table = Table::new(
            "probe outputs (first executed seed per point)",
            &["point", "probe", "output"],
        );
        for (point, sample) in result.points.iter().zip(&probe_samples) {
            let label = point.display_label().to_string();
            match sample {
                Some(outputs) => {
                    for output in outputs {
                        probe_table.push_row(vec![
                            label.clone(),
                            output.name.clone(),
                            output.value.to_json_compact(),
                        ]);
                    }
                }
                None => {
                    probe_table.push_row(vec![
                        label,
                        "-".to_string(),
                        "(all trials served from cache; probes observe live executions only)"
                            .to_string(),
                    ]);
                }
            }
        }
        report.push_table(probe_table);
    }
    report.note(format!(
        "{} sweep point(s) × {} seed(s), streamed through SweepRunner with zero recompilation",
        result.points.len(),
        seeds.end - seeds.start
    ));
    // The adaptive note uses only resume-invariant numbers (seeds used =
    // cached + executed, stop counts), so fresh and resumed runs print
    // bit-identical reports here too.
    if sweep.stop.is_some() {
        report.note(crate::stopping_summary(&result));
    }
    Ok((report, result))
}

/// Reads, parses, and runs a spec file from disk on `runner` (the `--out`
/// / `--resume` path of `run_experiments`; see [`run_spec_stored`]).
pub fn run_spec_file_stored(
    path: &str,
    default_seeds: std::ops::Range<u64>,
    runner: &SweepRunner,
) -> Result<(ExperimentReport, SweepReport), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec file {path}: {e}"))?;
    let file = SpecFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    run_spec_stored(file, path, default_seeds, runner).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsync_core::store::ResultStore;

    const SCENARIO_JSON: &str = r#"{
        "protocol": "trapdoor",
        "adversary": "random",
        "num_nodes": 8,
        "num_frequencies": 8,
        "disruption_bound": 2
    }"#;

    const SWEEP_JSON: &str = r#"{
        "base": {
            "protocol": "trapdoor",
            "adversary": "random",
            "num_nodes": 8,
            "num_frequencies": 8,
            "disruption_bound": 2
        },
        "seeds": {"start": 0, "end": 3},
        "grid": [{"field": "disruption_bound", "values": [1, 2]}]
    }"#;

    #[test]
    fn scenario_file_runs_with_default_seeds() {
        let file = SpecFile::parse(SCENARIO_JSON).unwrap();
        assert!(matches!(file, SpecFile::Scenario(_)));
        let report = run_spec(file, "inline", 0..2).unwrap();
        let rows = report.tables[0].rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "(base)");
        assert_eq!(rows[0][3], "2");
    }

    #[test]
    fn sweep_file_expands_into_labelled_rows() {
        let file = SpecFile::parse(SWEEP_JSON).unwrap();
        assert!(matches!(file, SpecFile::Sweep(_)));
        let report = run_spec(file, "inline", 0..99).unwrap();
        let rows = report.tables[0].rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], "disruption_bound=1");
        assert_eq!(rows[1][0], "disruption_bound=2");
        // the sweep's own seed range wins over the default
        assert_eq!(rows[0][3], "3");
    }

    #[test]
    fn stored_spec_runs_resume_with_identical_reports() {
        let dir = std::env::temp_dir().join(format!(
            "wsync-specrun-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run_spec(SpecFile::parse(SWEEP_JSON).unwrap(), "inline", 0..1).unwrap();

        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let (recorded, totals) = run_spec_stored(
            SpecFile::parse(SWEEP_JSON).unwrap(),
            "inline",
            0..1,
            &SweepRunner::new().record_only(store),
        )
        .unwrap();
        assert_eq!(totals.executed_trials(), 6);
        assert_eq!(recorded.to_markdown(), fresh.to_markdown());

        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let (resumed, totals) = run_spec_stored(
            SpecFile::parse(SWEEP_JSON).unwrap(),
            "inline",
            0..1,
            &SweepRunner::new().store(store),
        )
        .unwrap();
        assert_eq!(totals.executed_trials(), 0);
        assert_eq!(totals.cached_trials(), 6);
        assert_eq!(resumed.to_markdown(), fresh.to_markdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    const ADAPTIVE_SWEEP_JSON: &str = r#"{
        "base": {
            "protocol": "trapdoor",
            "adversary": "random",
            "num_nodes": 8,
            "num_frequencies": 8,
            "disruption_bound": 2
        },
        "seeds": {"start": 0, "end": 32},
        "grid": [{"field": "disruption_bound", "values": [1, 2]}],
        "stop": {"metric": "sync_rate", "half_width": 0.3, "min_seeds": 4, "batch": 4}
    }"#;

    #[test]
    fn adaptive_spec_stops_early_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "wsync-specrun-adaptive-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run_spec(
            SpecFile::parse(ADAPTIVE_SWEEP_JSON).unwrap(),
            "inline",
            0..1,
        )
        .unwrap();
        // the adaptive note reports trial savings against the budget
        assert!(
            fresh.notes.iter().any(|n| n.contains("adaptive stopping")),
            "{:?}",
            fresh.notes
        );

        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let (recorded, totals) = run_spec_stored(
            SpecFile::parse(ADAPTIVE_SWEEP_JSON).unwrap(),
            "inline",
            0..1,
            &SweepRunner::new().record_only(store),
        )
        .unwrap();
        assert!(totals.executed_trials() < 64, "no early stop happened");
        assert_eq!(recorded.to_markdown(), fresh.to_markdown());

        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let (resumed, totals) = run_spec_stored(
            SpecFile::parse(ADAPTIVE_SWEEP_JSON).unwrap(),
            "inline",
            0..1,
            &SweepRunner::new().store(store),
        )
        .unwrap();
        // cached trials count toward the rule: zero re-execution, and the
        // rendered report (tables and notes alike) is byte-identical
        assert_eq!(totals.executed_trials(), 0);
        assert_eq!(resumed.to_markdown(), fresh.to_markdown());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_spec_files_produce_typed_errors() {
        assert!(SpecFile::parse("not json").is_err());
        let err = SpecFile::parse(
            r#"{"protocol": "warp-drive", "num_nodes": 4,
            "num_frequencies": 8, "disruption_bound": 2}"#,
        )
        .map(|file| run_spec(file, "inline", 0..1))
        .unwrap()
        .expect_err("unknown protocol must fail");
        assert!(err.to_string().contains("warp-drive"), "{err}");
    }
}
