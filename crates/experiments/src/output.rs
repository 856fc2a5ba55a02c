//! Experiment effort levels and report containers.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use wsync_core::sweep::StoppingRule;
use wsync_stats::Table;

/// How much work an experiment run should do.
///
/// * `Smoke` — a few seeds and tiny parameters; used by unit tests so the
///   whole suite stays fast.
/// * `Quick` — the default of the command-line generators; minutes of work.
/// * `Full` — the publication-grade setting recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effort {
    /// Tiny parameters, suitable for unit tests.
    Smoke,
    /// Moderate parameters (default of the binaries).
    Quick,
    /// Full parameters used for the recorded results.
    Full,
}

impl Effort {
    /// Number of seeds to average over.
    pub fn seeds(self) -> u64 {
        match self {
            Effort::Smoke => 2,
            Effort::Quick => 10,
            Effort::Full => 40,
        }
    }

    /// The adaptive stopping rule for this effort level, or `None` when
    /// the fixed-count path should run.
    ///
    /// `Smoke` stays fixed: its seed counts are tiny (2) and pinned by
    /// unit tests, so there is nothing to save. `Quick` and `Full` spend
    /// the same [`Effort::seeds`] count only where the `metric`'s 95% CI
    /// is still wider than 10% of the estimate; points that settle in the
    /// first batch stop at `seeds() / 2`. Decisions land at batch
    /// boundaries, so results stay bit-identical across worker counts.
    pub fn stopping_rule(self, metric: wsync_core::sweep::StopMetric) -> Option<StoppingRule> {
        match self {
            Effort::Smoke => None,
            Effort::Quick | Effort::Full => {
                let min = (self.seeds() / 2).max(2);
                Some(
                    StoppingRule::new(metric, 0.1)
                        .relative()
                        .with_min_seeds(min)
                        .with_batch(min),
                )
            }
        }
    }

    /// Parses an effort level from a command-line argument.
    pub fn from_arg(arg: Option<&str>) -> Self {
        match arg {
            Some("smoke") => Effort::Smoke,
            Some("full") => Effort::Full,
            _ => Effort::Quick,
        }
    }
}

/// The result of one experiment: an identifier, what it claims to reproduce,
/// the generated tables, and free-form observations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment identifier (e.g. `"T10a"`), matching EXPERIMENTS.md.
    pub id: String,
    /// The paper artefact the experiment reproduces.
    pub paper_claim: String,
    /// Generated tables.
    pub tables: Vec<Table>,
    /// Free-form observations (fit constants, pass/fail notes).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: &str, paper_claim: &str) -> Self {
        ExperimentReport {
            id: id.to_string(),
            paper_claim: paper_claim.to_string(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a table.
    pub fn push_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a note.
    pub fn note<S: Into<String>>(&mut self, note: S) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the full report as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.paper_claim);
        for table in &self.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "**Observations**\n");
            for note in &self.notes {
                let _ = writeln!(out, "- {note}");
            }
        }
        out
    }

    /// Renders the full report as plain text (for binaries writing to a
    /// terminal).
    pub fn to_plain_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===\n", self.id, self.paper_claim);
        for table in &self.tables {
            out.push_str(&table.to_plain_text());
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

/// Formats a float for table cells (re-exported convenience).
pub fn fmt(x: f64) -> String {
    wsync_stats::table::fmt_f64(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_levels_ordered() {
        assert!(Effort::Smoke.seeds() < Effort::Quick.seeds());
        assert!(Effort::Quick.seeds() < Effort::Full.seeds());
        assert_eq!(Effort::from_arg(Some("smoke")), Effort::Smoke);
        assert_eq!(Effort::from_arg(Some("full")), Effort::Full);
        assert_eq!(Effort::from_arg(None), Effort::Quick);
        assert_eq!(Effort::from_arg(Some("bogus")), Effort::Quick);
    }

    #[test]
    fn report_renders_markdown_and_text() {
        let mut report = ExperimentReport::new("T10a", "Theorem 10 scaling in N");
        let mut table = Table::new("demo", &["n", "rounds"]);
        table.push_row(vec!["8", "120"]);
        report.push_table(table);
        report.note("ratio ≈ 1.4");
        let md = report.to_markdown();
        assert!(md.contains("## T10a"));
        assert!(md.contains("| n | rounds |"));
        assert!(md.contains("- ratio"));
        let txt = report.to_plain_text();
        assert!(txt.contains("=== T10a"));
        assert!(txt.contains("note: ratio"));
    }
}
