//! Lightweight table builder that renders to Markdown or aligned plain
//! text. The experiment binaries use it to print the regenerated paper
//! figures/tables in a reviewable form.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Column alignment for plain-text / Markdown rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Align {
    /// Left-align the column.
    Left,
    /// Right-align the column (default for numeric columns).
    Right,
}

/// A simple rectangular table of strings with named columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    /// All columns default to right alignment.
    pub fn new<S: Into<String>>(title: S, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            aligns: vec![Align::Right; columns.len()],
            rows: Vec::new(),
        }
    }

    /// Sets the alignment of column `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_align(&mut self, index: usize, align: Align) -> &mut Self {
        self.aligns[index] = align;
        self
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells does not match the number of columns.
    pub fn push_row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "Table::push_row: expected {} cells, got {}",
            self.columns.len(),
            cells.len()
        );
        self.rows.push(cells);
        self
    }

    /// Title of the table.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Rows pushed so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured Markdown (title as a heading).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "### {}\n", self.title);
        }
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let seps: Vec<&str> = self
            .aligns
            .iter()
            .map(|a| match a {
                Align::Left => ":---",
                Align::Right => "---:",
            })
            .collect();
        let _ = writeln!(out, "| {} |", seps.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders the table as aligned plain text with a title line.
    pub fn to_plain_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
            let total: usize = widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1);
            let _ = writeln!(out, "{}", "=".repeat(total.max(self.title.len())));
        }
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| match aligns[i] {
                    Align::Left => format!("{:<width$}", c, width = widths[i]),
                    Align::Right => format!("{:>width$}", c, width = widths[i]),
                })
                .collect::<Vec<_>>()
                .join("   ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.columns, &widths, &self.aligns));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("   ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths, &self.aligns));
        }
        out
    }
}

/// Formats a float with a sensible number of digits for table output.
pub fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{:.0}", x)
    } else if x.abs() >= 10.0 {
        format!("{:.1}", x)
    } else if x.abs() >= 0.01 {
        format!("{:.3}", x)
    } else {
        format!("{:.2e}", x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Example", &["name", "rounds", "ratio"]);
        t.set_align(0, Align::Left);
        t.push_row(vec!["trapdoor", "123", "1.5"]);
        t.push_row(vec!["samaritan", "45", "0.9"]);
        t
    }

    #[test]
    fn markdown_contains_header_and_rows() {
        let md = sample_table().to_markdown();
        assert!(md.contains("### Example"));
        assert!(md.contains("| name | rounds | ratio |"));
        assert!(md.contains("| trapdoor | 123 | 1.5 |"));
        assert!(md.contains(":---"));
        assert!(md.contains("---:"));
    }

    #[test]
    fn plain_text_alignment() {
        let txt = sample_table().to_plain_text();
        assert!(txt.contains("Example"));
        // left-aligned name column: 'trapdoor ' padded on the right
        assert!(txt.lines().any(|l| l.starts_with("trapdoor ")));
    }

    #[test]
    #[should_panic(expected = "expected 3 cells")]
    fn push_row_wrong_arity_panics() {
        let mut t = sample_table();
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(0.5), "0.500");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert!(fmt_f64(0.00001).contains('e'));
    }

    #[test]
    fn len_and_empty() {
        let t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        assert_eq!(sample_table().len(), 2);
    }
}
